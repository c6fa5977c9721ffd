"""Circuit construction, state-vector simulation, sampling, and angle search.

The simulator is checked against an independent analytic route: the cost
layer acts diagonally as exp(-i*gamma*E(z)) on every basis state and the
mixer factorizes into identical single-qubit rotations, so the whole
ansatz can be rebuilt with elementwise phases and Kronecker products.
"""

import json
import math
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest
import scipy.optimize

import csgp.qaoa as qaoa_module
from csgp.errors import ConfigError, ResourceLimitError
from csgp.game import CoalitionGame, DistributionSpec, generate_game
from csgp.qaoa import (
    CircuitDescription,
    OptimizerConfig,
    QaoaParams,
    _qaoa_state,
    _value_and_grad,
    assignment_index,
    assignment_string,
    build_circuit,
    energy_table,
    expectation,
    gate_count,
    optimize,
    sample,
    scan_layers,
    simulate,
)
from csgp.solvers import solve_dp, solve_qubo_exhaustive
from csgp.transform import (
    IsingInstance,
    build_bilp,
    build_qubo,
    decode_solution,
    penalty_terms,
    quadratic_table,
    qubo_energy,
    qubo_to_ising,
)


def _g2_chain(g2):
    bilp = build_bilp(g2)
    qubo = build_qubo(bilp, lam=10.0)
    return bilp, qubo, qubo_to_ising(qubo)


def _chain_for(n):
    values = {c: float((c % 7) + 1) for c in range(1, 1 << n)}
    bilp = build_bilp(CoalitionGame(n=n, values=values))
    qubo = build_qubo(bilp)
    return bilp, qubo, qubo_to_ising(qubo)


# ---------------------------------------------------------------- parameters


def test_params_require_matching_lengths():
    with pytest.raises(ConfigError):
        QaoaParams(p=0, betas=(), gammas=())
    with pytest.raises(ConfigError):
        QaoaParams(p=2, betas=(0.1,), gammas=(0.2, 0.3))
    with pytest.raises(ConfigError):
        QaoaParams(p=1, betas=(0.1,), gammas=())
    params = QaoaParams(p=1, betas=[1], gammas=[2])
    assert params.betas == (1.0,) and params.gammas == (2.0,)


def test_optimizer_config_validation():
    with pytest.raises(ConfigError):
        OptimizerConfig(starts=0)
    with pytest.raises(ConfigError):
        OptimizerConfig(maxiter=0)


# ------------------------------------------------------------------ circuits


def test_circuit_gate_totals_small(g2):
    _, _, ising = _g2_chain(g2)
    circ = build_circuit(ising, QaoaParams(p=1, betas=(0.3,), gammas=(0.7,)))
    assert circ.qubits == 3
    assert len(circ.gates) == 15
    assert circ.counts_by_kind() == {"H": 3, "RX": 3, "RZ": 5, "CNOT": 4}


@pytest.mark.parametrize("p", [1, 2, 3])
def test_circuit_tally_scales_with_layers(g2, p):
    _, qubo, ising = _g2_chain(g2)
    s = qubo.interaction_count
    params = QaoaParams(p=p, betas=(0.1,) * p, gammas=(0.2,) * p)
    tally = build_circuit(ising, params).counts_by_kind()
    assert tally == {"H": 3, "RX": 3 * p, "RZ": p * (3 + s), "CNOT": 2 * p * s}


@pytest.mark.parametrize("n,p,total", [(3, 1, 66), (3, 2, 125)])
def test_circuit_size_full_problem(n, p, total):
    _, qubo, ising = _chain_for(n)
    params = QaoaParams(p=p, betas=(0.1,) * p, gammas=(0.2,) * p)
    circ = build_circuit(ising, params)
    assert len(circ.gates) == total
    assert len(circ.gates) == gate_count(n, p, qubo.interaction_count)


def test_interactions_visited_in_ascending_order():
    _, _, ising = _chain_for(3)
    circ = build_circuit(ising, QaoaParams(p=2, betas=(0.1, 0.2), gammas=(0.3, 0.4)))
    pairs = [(g[1], g[2]) for g in circ.gates if g[0] == "CNOT"]
    # CNOTs come in identical sandwich pairs; dedupe consecutive duplicates.
    per_layer = len(pairs) // 2
    for layer in (pairs[:per_layer], pairs[per_layer:]):
        seen = [layer[i] for i in range(0, len(layer), 2)]
        assert seen == sorted(ising.J)
        assert layer[1::2] == seen


def test_simulator_qubit_guard():
    big = IsingInstance(m=21, h=(0.0,) * 21, J={}, offset=0.0)
    with pytest.raises(ResourceLimitError):
        build_circuit(big, QaoaParams(p=1, betas=(0.1,), gammas=(0.2,)))


def test_guard_fires_before_the_energy_table_is_built():
    big = IsingInstance(m=21, h=(0.0,) * 21, J={}, offset=0.0)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            energy_table(big)
        with pytest.raises(ResourceLimitError):
            optimize(big, p=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------- simulation


def test_hadamard_wall_gives_uniform_state():
    circ = CircuitDescription(qubits=3, gates=(("H", 0), ("H", 1), ("H", 2)))
    state = simulate(circ)
    assert np.allclose(state, np.full(8, 1 / math.sqrt(8)), atol=1e-12)


def test_zero_angles_leave_uniform_state(g2):
    _, _, ising = _g2_chain(g2)
    circ = build_circuit(ising, QaoaParams(p=2, betas=(0.0, 0.0), gammas=(0.0, 0.0)))
    state = simulate(circ)
    assert np.max(np.abs(state - 1 / math.sqrt(8))) < 1e-12


def test_every_circuit_prefix_preserves_norm(g2):
    _, _, ising = _g2_chain(g2)
    circ = build_circuit(ising, QaoaParams(p=2, betas=(0.83, 1.91), gammas=(2.47, 0.31)))
    for k in range(len(circ.gates) + 1):
        prefix = CircuitDescription(qubits=circ.qubits, gates=circ.gates[:k])
        assert abs(np.linalg.norm(simulate(prefix)) - 1.0) < 1e-10


def _analytic_state(ising, params):
    """Independent evolution: diagonal cost phases + Kronecker-product mixer."""
    m = ising.m
    table = energy_table(ising)
    psi = np.full(1 << m, 1 / math.sqrt(1 << m), dtype=np.complex128)
    for beta, gamma in zip(params.betas, params.gammas):
        psi = psi * np.exp(-1j * gamma * table)
        rx = np.array(
            [[math.cos(beta), -1j * math.sin(beta)], [-1j * math.sin(beta), math.cos(beta)]],
            dtype=np.complex128,
        )
        psi = reduce(np.kron, [rx] * m) @ psi
    return psi


@pytest.mark.parametrize("p", [1, 2, 3])
def test_gate_sequence_matches_analytic_evolution(g2, p):
    _, _, ising = _g2_chain(g2)
    rng = np.random.default_rng(12345 + p)
    params = QaoaParams(
        p=p,
        betas=tuple(rng.uniform(0, math.pi, p)),
        gammas=tuple(rng.uniform(0, 2 * math.pi, p)),
    )
    got = simulate(build_circuit(ising, params))
    want = _analytic_state(ising, params)
    assert np.max(np.abs(got - want)) < 1e-12


def test_gate_sequence_matches_analytic_on_random_instance():
    _, _, ising = _chain_for(3)
    params = QaoaParams(p=2, betas=(0.9, 0.4), gammas=(1.7, 2.2))
    got = simulate(build_circuit(ising, params))
    want = _analytic_state(ising, params)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_phase_kernel_matches_gate_simulator(n, p):
    # The optimizer's kernel against the gate-exact reference at m = 3, 7, 15.
    _, _, ising = _chain_for(n)
    rng = np.random.default_rng(100 * n + p)
    betas = rng.uniform(0, math.pi, p)
    gammas = rng.uniform(0, 2 * math.pi, p)
    got = _qaoa_state(ising.m, energy_table(ising), betas, gammas)
    want = simulate(build_circuit(ising, QaoaParams(p=p, betas=betas, gammas=gammas)))
    assert np.max(np.abs(got - want)) < 1e-10
    assert abs(np.linalg.norm(got) - 1.0) < 1e-10


def _matrix_mixer_state(m, table, betas, gammas):
    """_qaoa_state as first written: each mixer layer builds the 2x2 RX(2*beta)
    matrix and applies it qubit by qubit through simulate's _apply_one_qubit."""
    state = np.full(1 << m, 1.0 / math.sqrt(1 << m), dtype=np.complex128)
    for beta, gamma in zip(betas, gammas):
        state *= np.exp(-1j * gamma * table)
        cos, sin = math.cos(beta), math.sin(beta)
        rx = np.array([[cos, -1j * sin], [-1j * sin, cos]], dtype=np.complex128)
        for q in range(m):
            qaoa_module._apply_one_qubit(state, m, q, rx)
    return state


def _assert_mixers_agree_bitwise(m, table, p, rng, draws):
    for _ in range(draws):
        betas = rng.uniform(-math.pi, math.pi, p)
        gammas = rng.uniform(-2 * math.pi, 2 * math.pi, p)
        want = _matrix_mixer_state(m, table, betas, gammas)
        assert _qaoa_state(m, table, betas, gammas).tobytes() == want.tobytes()


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("p", [1, 2, 3])
def test_flipped_view_mixer_is_bitwise_the_matrix_mixer(m, p):
    # The same complex products, summed in the other order, which IEEE addition ignores.
    rng = np.random.default_rng(1000 * m + p)
    _assert_mixers_agree_bitwise(m, energy_table(_random_ising(m, p)), p, rng, draws=5)


def test_flipped_view_mixer_is_bitwise_the_matrix_mixer_at_fifteen_qubits():
    rng = np.random.default_rng(15)
    _assert_mixers_agree_bitwise(15, energy_table(_random_ising(15, 0)), 1, rng, draws=2)


@pytest.mark.parametrize("n", [2, 3])
def test_flipped_view_mixer_is_bitwise_the_matrix_mixer_on_game_chains(n):
    _, _, ising = _chain_for(n)
    rng = np.random.default_rng(n)
    for p in (1, 2, 3):
        _assert_mixers_agree_bitwise(ising.m, energy_table(ising), p, rng, draws=3)


def test_flipped_view_mixer_is_bitwise_the_matrix_mixer_at_twelve_qubits():
    rng = np.random.default_rng(12)
    _assert_mixers_agree_bitwise(12, energy_table(_random_ising(12, 2)), 2, rng, draws=2)


def _flipped(state, m, q):
    return state.reshape(1 << (m - q - 1), 2, 1 << q)[:, ::-1, :]


def _per_call_mix(state, scratch, m, beta):
    diag, off = math.cos(beta), -1j * math.sin(beta)
    for q in range(m):
        flipped = _flipped(state, m, q)
        np.multiply(flipped, off, out=scratch.reshape(flipped.shape))
        state *= diag
        state += scratch


def _per_call_phase(out, table, gamma):
    return np.exp(np.multiply(-1j * gamma, table, out=out), out=out)


def _per_call_state(m, table, betas, gammas):
    state = np.full(1 << m, 1.0 / math.sqrt(1 << m), dtype=np.complex128)
    scratch = np.empty_like(state)
    for beta, gamma in zip(betas, gammas):
        state *= _per_call_phase(scratch, table, gamma)
        _per_call_mix(state, scratch, m, beta)
    return state


def _per_call_value_and_grad(m, table, betas, gammas):
    """The adjoint sweep as first written: fresh buffers and a flipped view of
    the state per qubit on every call, each X_q psi multiplied into scratch."""
    p = len(betas)
    psi = _per_call_state(m, table, betas, gammas)
    value = float((np.abs(psi) ** 2) @ table)
    lam = table * psi
    scratch = np.empty_like(psi)
    grad = np.empty(2 * p)
    for layer in reversed(range(p)):
        scratch.fill(0.0)
        for q in range(m):
            flipped = _flipped(psi, m, q)
            view = scratch.reshape(flipped.shape)
            view += flipped
        grad[layer] = 2.0 * np.vdot(lam, scratch).imag
        _per_call_mix(psi, scratch, m, -betas[layer])
        _per_call_mix(lam, scratch, m, -betas[layer])
        grad[p + layer] = 2.0 * np.vdot(lam, np.multiply(table, psi, out=scratch)).imag
        if layer:
            _per_call_phase(scratch, table, -gammas[layer])
            psi *= scratch
            lam *= scratch
    return value, grad


@pytest.mark.parametrize("m", [*range(1, 9), 15])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_workspace_value_and_gradient_are_bitwise_the_per_call_sweep(m, p):
    # One workspace serves every call, as in optimize; its bytes are the old kernel's.
    rng = np.random.default_rng(10 * m + p)
    table = energy_table(_random_ising(m, 100 + m))
    work = qaoa_module._Workspace(m, table)
    for _ in range(3 if m < 15 else 1):
        betas = rng.uniform(-math.pi, math.pi, p)
        gammas = rng.uniform(-2 * math.pi, 2 * math.pi, p)
        want_value, want_grad = _per_call_value_and_grad(m, table, betas, gammas)
        for value, grad in (work.value_and_grad(betas, gammas), _value_and_grad(m, table, betas, gammas)):
            assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
            assert grad.tobytes() == want_grad.tobytes()
        assert work.state(betas, gammas).tobytes() == _per_call_state(m, table, betas, gammas).tobytes()


def test_optimize_never_dispatches_single_qubit_gates(monkeypatch):
    def refuse(*args):
        raise AssertionError("the kernel must apply the mixer without _apply_one_qubit")

    _, _, ising = _chain_for(2)
    monkeypatch.setattr(qaoa_module, "_apply_one_qubit", refuse)
    result = optimize(ising, p=1, config=OptimizerConfig(starts=2, maxiter=50), seed=0)
    assert sum(result.counts.values()) == 1024


def test_simulate_still_dispatches_single_qubit_gates(monkeypatch):
    # The gate-level oracle keeps its own path: one _apply_one_qubit per H and RX gate.
    _, _, ising = _chain_for(2)
    params = QaoaParams(p=2, betas=(0.4, 1.3), gammas=(2.1, 0.6))
    calls = []
    apply_one_qubit = qaoa_module._apply_one_qubit

    def counted(*args):
        calls.append(args[2])
        apply_one_qubit(*args)

    monkeypatch.setattr(qaoa_module, "_apply_one_qubit", counted)
    got = simulate(build_circuit(ising, params))
    assert calls == [0, 1, 2] * 3
    want = _qaoa_state(ising.m, energy_table(ising), params.betas, params.gammas)
    assert np.max(np.abs(got - want)) < 1e-12


# ------------------------------------------------------- energies and readout


def test_energy_table_ground_state(g2):
    _, qubo, ising = _g2_chain(g2)
    table = energy_table(ising)
    assert table.shape == (8,)
    assert float(table[3]) == pytest.approx(-10.5, abs=1e-12)
    assert int(np.argmin(table)) == 3
    # Spin energies shifted by the offset are the binary energies.
    for b in range(8):
        x = assignment_string(b, 3)
        assert table[b] + ising.offset == pytest.approx(qubo_energy(qubo, x), abs=1e-9)


def _spin_matrix_energy_table(ising):
    """energy_table from a 2^m x m matrix of spins and a loop over ising.J."""
    m = ising.m
    idx = np.arange(1 << m, dtype=np.int64)
    z = 1.0 - 2.0 * ((idx[:, None] >> np.arange(m)) & 1)
    table = z @ np.asarray(ising.h)
    for (i, j), val in ising.J.items():
        table += val * z[:, i] * z[:, j]
    return table


def _random_ising(m, seed):
    rng = np.random.default_rng(seed)
    h = tuple(rng.normal(size=m).tolist())
    J = {(i, j): float(rng.normal()) for i in range(m) for j in range(i + 1, m) if rng.random() < 0.7}
    return IsingInstance(m=m, h=h, J=J, offset=float(rng.normal()))


@pytest.mark.parametrize("m", range(1, 13))
def test_energy_table_matches_the_spin_matrix(m):
    isings = [_random_ising(m, seed) for seed in range(3)]
    if m in (3, 7):
        isings.append(_chain_for(m.bit_length())[2])
    for ising in isings:
        want = _spin_matrix_energy_table(ising)
        got = energy_table(ising)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ising_table_is_the_qubo_table_at_the_complemented_index(n):
    # Qubit bit b carries x = 1 - b, so basis state k reads out the complement of k.
    bilp, qubo, ising = _chain_for(n)
    _, diag, counts, levels = penalty_terms(bilp, qubo.lam)
    binary = quadratic_table(diag, levels.take(counts))
    spin = energy_table(ising)
    complement = np.arange(1 << qubo.m) ^ ((1 << qubo.m) - 1)
    assert np.allclose(spin + ising.offset, binary[complement], rtol=0, atol=1e-12 * np.abs(binary).max())


def test_energy_table_at_twenty_qubits_allocates_only_the_table():
    ising = _random_ising(20, 0)
    tracemalloc.start()
    try:
        table = energy_table(ising)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes == 8 << 20
    assert peak < 24 << 20


def test_expectation_of_uniform_and_basis_states(g2):
    _, _, ising = _g2_chain(g2)
    table = energy_table(ising)
    uniform = np.full(8, 1 / math.sqrt(8), dtype=np.complex128)
    assert expectation(uniform, ising) == pytest.approx(float(table.mean()), abs=1e-12)
    basis = np.zeros(8, dtype=np.complex128)
    basis[3] = 1.0
    assert expectation(basis, ising) == pytest.approx(-10.5, abs=1e-12)


def test_expectation_of_trivial_hamiltonian():
    ising = IsingInstance(m=2, h=(0.0, 0.0), J={}, offset=0.0)
    state = np.full(4, 0.5, dtype=np.complex128)
    assert expectation(state, ising) == 0.0


def test_expectation_rejects_wrong_dimension(g2):
    _, _, ising = _g2_chain(g2)
    with pytest.raises(ConfigError):
        expectation(np.zeros(4, dtype=np.complex128), ising)


def test_assignment_string_examples():
    assert assignment_string(3, 3) == "001"
    assert assignment_string(0, 3) == "111"
    assert assignment_string(7, 3) == "000"


def test_assignment_round_trip():
    for b in range(16):
        assert assignment_index(assignment_string(b, 4)) == b
    with pytest.raises(ConfigError):
        assignment_index("021")


# ------------------------------------------------------------------ sampling


def test_sampling_a_basis_state_is_deterministic(g2):
    state = np.zeros(8, dtype=np.complex128)
    state[3] = 1.0
    counts = sample(state, shots=256, seed=0)
    assert counts == {"001": 256}


def test_sampling_uniform_state_is_balanced():
    state = np.full(8, 1 / math.sqrt(8), dtype=np.complex128)
    counts = sample(state, shots=8192, seed=7)
    assert sum(counts.values()) == 8192
    assert set(counts) == {assignment_string(b, 3) for b in range(8)}
    for key, c in counts.items():
        assert 824 <= c <= 1224, (key, c)


def test_sampling_is_seed_deterministic():
    state = np.full(8, 1 / math.sqrt(8), dtype=np.complex128)
    assert sample(state, 512, seed=5) == sample(state, 512, seed=5)
    with pytest.raises(ConfigError):
        sample(state, 0, seed=5)


@pytest.mark.parametrize("m", range(1, 13))
def test_sample_equals_the_loop_over_every_basis_state(m):
    # The counts dict the loop over all 2^m draws built, in items and order.
    rng = np.random.default_rng(m)
    state = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
    state[rng.random(2**m) < 0.5] = 0.0
    state[0] = 0.0
    state[-1] = 1.0
    for shots, seed in ((1, 0), (7, 1), (1024, 2)):
        probs = np.abs(state) ** 2
        draws = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
        loop = {
            assignment_string(b, m): int(draws[b]) for b in range(len(draws)) if draws[b] > 0
        }
        assert list(sample(state, shots, seed).items()) == list(loop.items())


def test_shot_estimate_agrees_with_analytic_expectation(g2):
    _, _, ising = _g2_chain(g2)
    params = QaoaParams(p=1, betas=(0.3,), gammas=(0.2,))
    state = simulate(build_circuit(ising, params))
    table = energy_table(ising)
    mean = expectation(state, ising)
    probs = np.abs(state) ** 2
    sigma = math.sqrt(float(probs @ (table - mean) ** 2) / 8192)
    counts = sample(state, shots=8192, seed=11)
    est = sum(c * float(table[assignment_index(x)]) for x, c in counts.items()) / 8192
    assert abs(est - mean) < 4 * sigma + 1e-12


# -------------------------------------------------------------- optimization


def test_optimize_beats_uniform_start(g2):
    _, _, ising = _g2_chain(g2)
    table = energy_table(ising)
    result = optimize(ising, p=1, seed=0)
    assert result.expectation < float(table.mean()) - 1e-6
    assert result.expectation >= float(table.min()) - 1e-9
    assert sum(result.counts.values()) == 1024
    assert result.metadata["m"] == 3 and result.metadata["p"] == 1


def test_optimize_trace_is_strictly_improving(g2):
    _, _, ising = _g2_chain(g2)
    result = optimize(ising, p=1, seed=0)
    values = [f for _, f in result.optimizer_trace]
    assert values == sorted(values, reverse=True)
    assert len(set(values)) == len(values)
    assert values[-1] == result.expectation


def test_reported_expectation_matches_resimulation(g2):
    # The returned angles must reproduce the reported objective value.
    _, _, ising = _g2_chain(g2)
    table = energy_table(ising)
    result = optimize(ising, p=1, seed=0)
    probs = np.abs(simulate(build_circuit(ising, result.best_params))) ** 2
    assert float(probs @ table) == pytest.approx(result.expectation, abs=1e-9)


def test_optimizer_reaches_concentrating_basin(g2):
    # At this seed the multi-start search lands in the deep attractor and
    # piles most of the probability mass onto the ground state.
    _, _, ising = _g2_chain(g2)
    result = optimize(ising, p=1, seed=1)
    assert result.expectation < -8.0
    probs = np.abs(simulate(build_circuit(ising, result.best_params))) ** 2
    assert probs[3] > 0.5


def _abn_chain():
    game = generate_game(3, DistributionSpec(kind="abn"), 0)
    return qubo_to_ising(build_qubo(build_bilp(game)))


def _assert_gradient_matches_central_differences(m, table, p, rng):
    betas = rng.uniform(0, math.pi, p)
    gammas = rng.uniform(0, 2 * math.pi, p)
    value, grad = _value_and_grad(m, table, betas, gammas)

    def f(theta):
        return float(np.abs(_qaoa_state(m, table, theta[:p], theta[p:])) ** 2 @ table)

    theta = np.concatenate([betas, gammas])
    assert value == f(theta)
    h = 1e-5
    numeric = np.array([(f(theta + h * e) - f(theta - h * e)) / (2 * h) for e in np.eye(2 * p)])
    assert np.max(np.abs(grad - numeric)) <= 1e-6 * max(np.max(np.abs(numeric)), 1.0)


@pytest.mark.parametrize("m", range(1, 8))
@pytest.mark.parametrize("p", [1, 2, 3])
def test_adjoint_gradient_matches_central_differences(m, p):
    rng = np.random.default_rng(100 * m + p)
    table = energy_table(_random_ising(m, 10 * m + p))
    _assert_gradient_matches_central_differences(m, table, p, rng)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_adjoint_gradient_matches_central_differences_on_the_abn_chain(p):
    # The table the optimizer searches: divided by max|E|, as optimize does.
    table = energy_table(_abn_chain())
    scaled = table / np.max(np.abs(table))
    _assert_gradient_matches_central_differences(7, scaled, p, np.random.default_rng(p))


def test_the_scaled_objective_matches_its_gradient(monkeypatch):
    # What L-BFGS-B sees: the value divided by max|E| over (beta, max|E| * gamma).
    seen = []
    real_minimize = scipy.optimize.minimize

    def recording(fun, x0, **kwargs):
        seen.append(fun)
        return real_minimize(fun, x0, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", recording)
    optimize(_abn_chain(), p=2, config=OptimizerConfig(starts=1, maxiter=2), seed=0)
    fun = seen[0]
    theta = np.array([0.4, 1.1, 2.3, 0.7])
    grad = fun(theta)[1]
    h = 1e-6
    numeric = np.array([(fun(theta + h * e)[0] - fun(theta - h * e)[0]) / (2 * h) for e in np.eye(4)])
    assert np.max(np.abs(grad - numeric)) <= 1e-6 * np.max(np.abs(numeric))


def test_optimize_needs_a_tenth_of_the_simplex_evaluations():
    # Nelder-Mead took 6,808 evaluations here; L-BFGS-B takes about 270 calls.
    result = optimize(_abn_chain(), p=2, seed=0)
    assert result.metadata["evals"] <= 700


def test_each_start_is_the_lowest_of_its_draws(g2, monkeypatch):
    # A start draws START_DRAWS (beta, gamma) pairs from [0, pi) x [0, 2 pi)
    # and L-BFGS-B begins at the lowest-expectation one, as (beta, max|E| * gamma).
    starts = []
    real_minimize = scipy.optimize.minimize

    def recording(fun, x0, **kwargs):
        starts.append(x0.copy())
        return real_minimize(fun, x0, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", recording)
    _, _, ising = _g2_chain(g2)
    optimize(ising, p=1, config=OptimizerConfig(starts=3, maxiter=2), seed=4)
    table = energy_table(ising)
    rng = np.random.default_rng(np.random.SeedSequence(4).spawn(2)[0])
    for x0 in starts:
        draws = [
            (rng.uniform(0.0, math.pi, 1), rng.uniform(0.0, 2.0 * math.pi, 1))
            for _ in range(qaoa_module.START_DRAWS)
        ]
        values = [float(np.abs(_qaoa_state(3, table, b, g)) ** 2 @ table) for b, g in draws]
        betas, gammas = draws[int(np.argmin(values))]
        assert x0.tolist() == [betas[0], np.max(np.abs(table)) * gammas[0]]
    assert len(starts) == 3


@pytest.mark.parametrize(
    "m, p, passes",
    [(3, 2, 1), (9, 2, 20), (15, 1, 160)],  # 2^12 >> m states per pass: 160 (all), 8, 1
)
def test_batched_screening_is_bitwise_one_state_per_draw(monkeypatch, m, p, passes):
    ising = _random_ising(9, 0) if m == 9 else _chain_for((m + 1).bit_length() - 1)[2]
    assert ising.m == m
    screens, starts = [], []
    real_screen = qaoa_module._Workspace.screen
    real_minimize = scipy.optimize.minimize

    def screen(work, betas, gammas):
        values = real_screen(work, betas, gammas)
        screens.append((work.rows, betas.copy(), gammas.copy(), values))
        return values

    def minimize(fun, x0, **kwargs):
        starts.append(x0.copy())
        return real_minimize(fun, x0, **kwargs)

    monkeypatch.setattr(qaoa_module._Workspace, "screen", screen)
    monkeypatch.setattr(scipy.optimize, "minimize", minimize)
    optimize(ising, p, config=OptimizerConfig(starts=10, maxiter=1), seed=m)

    (rows, betas, gammas, values), = screens
    assert -(-160 // rows) == passes
    # The per-draw uniform calls and one _qaoa_state per draw, as each start drew them.
    table = energy_table(ising)
    rng = np.random.default_rng(np.random.SeedSequence(m).spawn(2)[0])
    draws = [(rng.uniform(0.0, math.pi, p), rng.uniform(0.0, 2.0 * math.pi, p)) for _ in range(160)]
    assert betas.tobytes() == np.array([b for b, _ in draws]).tobytes()
    assert gammas.tobytes() == np.array([g for _, g in draws]).tobytes()
    want = [float(np.abs(_qaoa_state(m, table, b, g)) ** 2 @ table) for b, g in draws]
    assert np.array(values).tobytes() == np.array(want).tobytes()
    assert len(starts) == 10
    for s, x0 in enumerate(starts):
        block = range(16 * s, 16 * s + 16)
        b, g = draws[min(block, key=want.__getitem__)]
        assert x0.tobytes() == np.concatenate([b, np.max(np.abs(table)) * g]).tobytes()


def test_optimize_at_fifteen_qubits_allocates_one_workspace():
    # psi, lam and scratch (3 x 2^15 x 16 B), one screened state at a time,
    # and the sample's temporaries; the energy table itself is 2^15 x 8 B.
    ising = _chain_for(4)[2]
    tracemalloc.start()
    try:
        optimize(ising, 1, OptimizerConfig(starts=1, maxiter=8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - (8 << 15) < 6 * (16 << 15)


def test_optimize_counts_the_starts_that_converged(g2):
    _, _, ising = _g2_chain(g2)
    full = optimize(ising, p=1, seed=0)
    assert full.metadata["converged"] is True
    assert full.metadata["converged_starts"] == full.metadata["starts"] == 10
    capped = optimize(ising, p=2, config=OptimizerConfig(starts=3, maxiter=1), seed=0)
    assert capped.metadata["converged"] is False
    assert capped.metadata["converged_starts"] == 0


@pytest.mark.parametrize("J", [{}, {(0, 1): 0.0, (1, 2): 0.0}])
def test_optimize_on_an_all_zero_table_returns_finite_angles(J):
    # max|E| is 0 here, so the search runs on the table divided by 1.
    ising = IsingInstance(m=3, h=(0.0,) * 3, J=J, offset=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = optimize(ising, p=2, config=OptimizerConfig(starts=2, maxiter=20), seed=0)
    angles = result.best_params.betas + result.best_params.gammas
    assert all(math.isfinite(a) for a in angles)
    assert math.isfinite(result.expectation)
    assert sum(result.counts.values()) == 1024


def test_optimize_never_builds_or_replays_a_circuit(g2, monkeypatch):
    def refuse(*args):
        raise AssertionError("optimize must evaluate angles with the phase kernel")

    _, _, ising = _g2_chain(g2)
    monkeypatch.setattr(qaoa_module, "build_circuit", refuse)
    monkeypatch.setattr(qaoa_module, "simulate", refuse)
    result = optimize(ising, p=2, config=OptimizerConfig(starts=2, maxiter=50), seed=0)
    assert sum(result.counts.values()) == 1024


def test_optimize_checks_shots_before_any_work(g2, monkeypatch):
    def refuse(*args):
        raise AssertionError("energy_table ran before the shots check")

    _, _, ising = _g2_chain(g2)
    monkeypatch.setattr(qaoa_module, "energy_table", refuse)
    with pytest.raises(ConfigError, match="shots"):
        optimize(ising, 1, shots=0)


def test_depth_and_shot_limits_are_checked_before_any_work(g2, monkeypatch):
    def refuse(*args):
        raise AssertionError("energy_table ran before the depth or shots check")

    _, _, ising = _g2_chain(g2)
    monkeypatch.setattr(qaoa_module, "energy_table", refuse)
    too_deep = qaoa_module.OPTIMIZER_MAX_LAYERS + 1
    with pytest.raises(ResourceLimitError, match="layers"):
        optimize(ising, too_deep)
    with pytest.raises(ResourceLimitError, match="layers"):
        scan_layers(ising, p_max=too_deep)
    with pytest.raises(ConfigError, match="multinomial"):
        optimize(ising, 1, shots=qaoa_module.MAX_SHOTS + 1)
    state = np.full(2, math.sqrt(0.5), dtype=np.complex128)
    with pytest.raises(ConfigError, match="multinomial"):
        sample(state, qaoa_module.MAX_SHOTS + 1, seed=0)
    assert sum(sample(state, qaoa_module.MAX_SHOTS, seed=0).values()) == qaoa_module.MAX_SHOTS


def test_optimize_is_deterministic(g2):
    _, _, ising = _g2_chain(g2)
    a = optimize(ising, p=1, seed=3).to_json(include_timing=False)
    b = optimize(ising, p=1, seed=3).to_json(include_timing=False)
    assert json.dumps(a) == json.dumps(b)


def test_optimize_rejects_bad_layer_count(g2):
    _, _, ising = _g2_chain(g2)
    with pytest.raises(ConfigError):
        optimize(ising, p=0)


def test_layer_scan_finds_optimum_at_depth_one(g2):
    bilp, qubo, ising = _g2_chain(g2)
    reference = solve_qubo_exhaustive(bilp, qubo.lam)
    target = reference.metadata["best_energy"]
    assert target == pytest.approx(-24.0, abs=1e-12)
    results, chosen = scan_layers(ising, p_max=5, seed=0, target_energy=target)
    assert chosen == 1
    assert len(results) == 1
    best = results[0].best_bitstring
    decoded = decode_solution(bilp, best)
    assert decoded.feasible
    assert decoded.cs.blocks == (3,)


def test_layer_scan_prefix_matches_shorter_scan(g2):
    _, _, ising = _g2_chain(g2)
    long, _ = scan_layers(ising, p_max=2, seed=9)
    short, _ = scan_layers(ising, p_max=1, seed=9)
    assert len(long) == 2 and len(short) == 1
    assert json.dumps(long[0].to_json(include_timing=False)) == json.dumps(
        short[0].to_json(include_timing=False)
    )


def test_layer_scan_validates_depth(g2):
    _, _, ising = _g2_chain(g2)
    with pytest.raises(ConfigError):
        scan_layers(ising, p_max=0)
    # Both are checked before SeedSequence([seed, p]), which rejects negatives.
    with pytest.raises(ConfigError, match="layer count"):
        qaoa_module.optimize_layer(ising, -1, shots=16, seed=0)
    with pytest.raises(ConfigError, match="seed"):
        qaoa_module.optimize_layer(ising, 1, shots=16, seed=-1)


def test_scan_solution_matches_partition_solver(g2):
    bilp, qubo, ising = _g2_chain(g2)
    reference = solve_qubo_exhaustive(bilp, qubo.lam)
    results, chosen = scan_layers(
        ising, p_max=5, seed=0, target_energy=reference.metadata["best_energy"]
    )
    assert chosen is not None
    decoded = decode_solution(bilp, results[chosen - 1].best_bitstring)
    dp = solve_dp(CoalitionGame(n=2, values={1: 1.0, 2: 2.0, 3: 4.0}))
    assert decoded.feasible
    assert sum(
        bilp.values.tolist()[bilp.columns.tolist().index(b)] for b in decoded.cs.blocks
    ) == pytest.approx(dp.best_value, abs=1e-9)


# ----------------------------------------------------------- gate-count model


def test_gate_count_closed_form_examples():
    assert gate_count(2, 1, 2) == 15
    assert gate_count(2, 1, 3) == 18
    assert gate_count(3, 1, 15) == 66
    assert gate_count(3, 2, 15) == 125
    assert gate_count(14, 50, 16383) == 4_112_133
    assert gate_count(14, 50, 16383) < 3**14
    assert gate_count(13, 50, 8191) == 2_055_941
    assert gate_count(13, 50, 8191) > 3**13
    assert gate_count(6, 50, 63) == 15_813
    assert gate_count(6, 50, 63) < 6**6


def test_gate_count_validation():
    with pytest.raises(ConfigError):
        gate_count(0, 1, 1)
    with pytest.raises(ConfigError):
        gate_count(2, 0, 1)
    with pytest.raises(ConfigError):
        gate_count(2, 1, -1)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_built_circuits_obey_closed_form(n, p):
    _, qubo, ising = _chain_for(n)
    params = QaoaParams(p=p, betas=(0.1,) * p, gammas=(0.2,) * p)
    circ = build_circuit(ising, params)
    assert len(circ.gates) == gate_count(n, p, qubo.interaction_count)
