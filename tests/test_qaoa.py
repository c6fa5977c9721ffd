"""Circuit construction, state-vector simulation, sampling, and angle search.

The simulator is checked against an independent analytic route: the cost
layer acts diagonally as exp(-i*gamma*E(z)) on every basis state and the
mixer factorizes into identical single-qubit rotations, so the whole
ansatz can be rebuilt with elementwise phases and Kronecker products.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import csgp.qaoa as qaoa_module
from csgp.analysis import gate_count
from csgp.errors import ConfigError, ResourceLimitError
from csgp.game import DISTRIBUTION_KINDS, CoalitionGame, DistributionSpec, generate_game
from csgp.qaoa import (
    CircuitDescription,
    OptimizerConfig,
    QaoaParams,
    _ClosedForm,
    _Workspace,
    assignment_string,
    build_circuit,
    energy_table,
    optimize,
    sample,
    scan_layers,
    simulate,
)
from csgp.solvers import solve, solve_dp, solve_qaoa, solve_qubo_exhaustive
from csgp.transform import (
    IsingInstance,
    QuboInstance,
    build_bilp,
    build_qubo,
    decode_solution,
    penalty_terms,
    quadratic_table,
    qubo_energy,
    qubo_to_ising,
)
from oracles import closed_form_xyz


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
    assert Counter(g[0] for g in circ.gates) == {"H": 3, "RX": 3, "RZ": 5, "CNOT": 4}


@pytest.mark.parametrize("p", [1, 2, 3])
def test_circuit_tally_scales_with_layers(g2, p):
    _, qubo, ising = _g2_chain(g2)
    s = qubo.interaction_count
    params = QaoaParams(p=p, betas=(0.1,) * p, gammas=(0.2,) * p)
    tally = Counter(g[0] for g in build_circuit(ising, params).gates)
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


@pytest.mark.parametrize("control, target", [(1, 0), (2, 0), (2, 1), (0, 1), (0, 2), (1, 2)])
def test_cnot_is_the_basis_permutation_for_either_qubit_order(control, target):
    # build_circuit only emits CNOTs whose control is the lower qubit, so the
    # higher-control branch of the simulator is checked here, on a state whose
    # eight amplitudes all differ: CNOT maps basis state b to b ^ (bit control of b) << target.
    prep = tuple(
        gate
        for q, (rz, rx) in enumerate([(0.3, 0.7), (1.1, 0.2), (2.3, 1.3)])
        for gate in (("H", q), ("RZ", q, rz), ("RX", q, rx))
    )
    before = simulate(CircuitDescription(qubits=3, gates=prep))
    assert len(set(before.tolist())) == 8
    after = simulate(CircuitDescription(qubits=3, gates=prep + (("CNOT", control, target),)))
    image = [b ^ (b >> control & 1) << target for b in range(8)]
    assert after[image].tolist() == before.tolist()


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
    got = _Workspace(ising.m, energy_table(ising)).state(betas, gammas)
    want = simulate(build_circuit(ising, QaoaParams(p=p, betas=betas, gammas=gammas)))
    assert np.max(np.abs(got - want)) < 1e-10
    assert abs(np.linalg.norm(got) - 1.0) < 1e-10


def _matrix_mixer_state(m, table, betas, gammas):
    """_Workspace.state as first written: each mixer layer builds the 2x2 RX(2*beta)
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
        assert _Workspace(m, table).state(betas, gammas).tobytes() == want.tobytes()


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
    the state per qubit on every call, each X_q psi multiplied into scratch.
    Its sums are np.add.reduce, in the kernel's fixed order, so the two
    compare bitwise."""
    p = len(betas)
    psi = _per_call_state(m, table, betas, gammas)
    value = float(np.add.reduce(np.abs(psi) ** 2 * table))
    lam = table * psi
    scratch = np.empty_like(psi)
    grad = np.empty(2 * p)
    for layer in reversed(range(p)):
        scratch.fill(0.0)
        for q in range(m):
            flipped = _flipped(psi, m, q)
            view = scratch.reshape(flipped.shape)
            view += flipped
        grad[layer] = -2.0 * np.add.reduce((np.conj(scratch) * lam).imag)
        _per_call_mix(psi, scratch, m, -betas[layer])
        _per_call_mix(lam, scratch, m, -betas[layer])
        grad[p + layer] = -2.0 * np.add.reduce((np.conj(table * psi) * lam).imag)
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
    work = _Workspace(m, table)
    for _ in range(3 if m < 15 else 1):
        betas = rng.uniform(-math.pi, math.pi, p)
        gammas = rng.uniform(-2 * math.pi, 2 * math.pi, p)
        want_value, want_grad = _per_call_value_and_grad(m, table, betas, gammas)
        fresh = _Workspace(m, table).value_and_grad(betas, gammas)
        for value, grad in (work.value_and_grad(betas, gammas), fresh):
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
    want = _Workspace(ising.m, energy_table(ising)).state(params.betas, params.gammas)
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


@pytest.mark.parametrize(
    "ising",
    [
        IsingInstance(m=2, h=(1e308, -1e308), J={}, offset=0.0),
        IsingInstance(m=2, h=(math.nan, 0.0), J={}, offset=0.0),
        IsingInstance(m=2, h=(1e308, 1e308), J={(0, 1): 1e308}, offset=0.0),
        IsingInstance(m=2, h=(1.0, 2.0), J={(0, 1): 3.0}, offset=math.inf),
        # Finite QUBO coefficients whose Ising offset overflows.
        qubo_to_ising(QuboInstance(m=2, diag=(1e308, 1e308), offdiag={(0, 1): 1e308}, c=0.0)),
    ],
)
def test_energy_table_refuses_a_model_it_cannot_tabulate(ising):
    # Each once ended in numpy's multinomial ValueError or fsum's OverflowError.
    for call in (energy_table, lambda i: optimize(i, 1), lambda i: scan_layers(i, range(1, 3))):
        with pytest.raises(ConfigError, match=r"offset and 3 sum\|h\| \+ 9 sum\|J\| must be finite"):
            call(ising)


def test_energy_table_takes_a_model_within_the_bound():
    # 3 sum|h| + 9 sum|J| = 1.5e308 is within a float, and so is every energy.
    ising = IsingInstance(m=2, h=(1e307, -1e307), J={(0, 1): 1e307}, offset=0.0)
    assert energy_table(ising).tolist() == pytest.approx([1e307, -3e307, 1e307, 1e307])


def test_assignment_string_examples():
    assert assignment_string(3, 3) == "001"
    assert assignment_string(0, 3) == "111"
    assert assignment_string(7, 3) == "000"
    with pytest.raises(ResourceLimitError, match="limited to 20 qubits, got 1180591620717411303424"):
        assignment_string(1, 2**70)
    with pytest.raises(ConfigError, match="qubit count must be an integer, got 3.0"):
        assignment_string(1, 3.0)
    for index, match in [
        (-1, "basis index must be >= 0, got -1"),
        (8, "basis index must be < 2\\^3 = 8, got 8"),
        (9, "basis index must be < 2\\^3 = 8, got 9"),
        (2**70, "basis index must be < 2\\^3 = 8"),
        (1.5, "basis index must be an integer, got 1.5"),
        (True, "basis index must be an integer, got True"),
    ]:
        with pytest.raises(ConfigError, match=match):
            assignment_string(index, 3)
    assert assignment_string(np.int64(7), 3) == "000"
    assert assignment_string(0, 0) == ""


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


@pytest.mark.parametrize("state,match", [
    (np.ones(3, complex), "1-D array of 2\\^m amplitudes"),
    (np.ones(6), "1-D array of 2\\^m amplitudes"),
    (np.ones(0), "1-D array of 2\\^m amplitudes"),
    (np.ones((2, 2)), "1-D array of 2\\^m amplitudes"),
    (np.complex128(1.0), "1-D array of 2\\^m amplitudes"),
    (np.zeros(4), "positive finite norm"),
    (np.array([1.0, np.inf]), "positive finite norm"),
    (np.array([1.0, np.nan]), "positive finite norm"),
    (np.full(2, 1e200), "positive finite norm"),
], ids=["length-3", "length-6", "empty", "2-d", "0-d", "zero", "inf", "nan", "norm-overflows"])
def test_sample_refuses_a_state_that_is_not_one(state, match):
    with pytest.raises(ConfigError, match=match):
        sample(state, 16, seed=0)


def test_sample_reads_m_from_the_state_length():
    assert sample(np.ones(1), 4, seed=0) == {"": 4}
    assert list(sample(np.ones(2), 4, seed=0)) == ["1", "0"]


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
    probs = np.abs(state) ** 2
    mean = float(probs @ table)
    sigma = math.sqrt(float(probs @ (table - mean) ** 2) / 8192)
    counts = sample(state, shots=8192, seed=11)
    index = {assignment_string(b, 3): b for b in range(8)}
    est = sum(c * float(table[index[x]]) for x, c in counts.items()) / 8192
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
    value, grad = _Workspace(m, table).value_and_grad(betas, gammas)

    def f(theta):
        return float(np.add.reduce(np.abs(_Workspace(m, table).state(theta[:p], theta[p:])) ** 2 * table))

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


def _assert_closed_form_is_the_kernel(ising, betas, gammas):
    # The value, d/dbeta and d/d(scale * gamma), the variable L-BFGS-B searches,
    # each within 1e-12 * scale of the adjoint kernel's; the screen's values too.
    table = energy_table(ising)
    scale = max(1.0, float(np.max(np.abs(table))))
    closed, work = _ClosedForm(ising), _Workspace(ising.m, table)
    screened = closed.screen(np.array(betas)[:, None], np.array(gammas)[:, None])
    assert len(screened) == len(betas)
    for b, g, screen_value in zip(betas, gammas, screened):
        value, grad = closed.value_and_grad(np.array([b]), np.array([g]))
        want, want_grad = work.value_and_grad(np.array([b]), np.array([g]))
        assert abs(value - want) <= 1e-12 * scale
        assert abs(screen_value - want) <= 1e-12 * scale
        assert abs(grad[0] - want_grad[0]) <= 1e-12 * scale
        assert abs(grad[1] - want_grad[1]) / scale <= 1e-12 * scale


@pytest.mark.parametrize("m", range(1, 13))
def test_closed_form_is_the_kernel_on_random_models(m):
    rng = np.random.default_rng(m)
    for seed in range(2):
        ising = _random_ising(m, 50 + seed)
        _assert_closed_form_is_the_kernel(ising, rng.uniform(0, math.pi, 4), rng.uniform(0, 2 * math.pi, 4))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_closed_form_is_the_kernel_on_the_penalty_chains(n):
    # m = 3, 7, 15; gamma up to 2 pi puts gamma * J far past its first period.
    rng = np.random.default_rng(n)
    ising = _chain_for(n)[2]
    scale = float(np.max(np.abs(energy_table(ising))))
    gammas = np.concatenate([rng.uniform(0, 2 * math.pi, 3), rng.uniform(0, 2 * math.pi / scale, 3)])
    _assert_closed_form_is_the_kernel(ising, rng.uniform(0, math.pi, 6), gammas)


@pytest.mark.parametrize("J", [{}, {(0, 1): 0.0, (1, 2): 0.0}])
def test_closed_form_on_an_all_zero_table_is_zero(J):
    ising = IsingInstance(m=3, h=(0.0,) * 3, J=J, offset=0.0)
    _assert_closed_form_is_the_kernel(ising, [0.3, 1.2], [0.7, 5.0])
    value, grad = _ClosedForm(ising).value_and_grad([0.3], [0.7])
    assert value == 0.0 and grad.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("p", [1, 2])
def test_optimize_at_zero_qubits_samples_the_empty_assignment(p):
    result = optimize(IsingInstance(m=0, h=(), J={}, offset=1.0), p, shots=8)
    assert result.expectation == 0.0
    assert result.counts == {"": 8} and result.best_bitstring == ""
    assert result.metadata["optimum_probability"] == 1.0


def test_closed_form_at_a_factor_of_zero():
    # 2 gamma J_uv = pi/2, where the pair's own cosine is (next to) 0, and
    # 2 gamma h_u = pi/2, where the field's is.
    ising = _random_ising(6, 7)
    (u, v), coupling = next(iter(ising.J.items()))
    gammas = [math.pi / (4 * coupling), math.pi / (4 * ising.h[u]), -math.pi / (4 * ising.h[v])]
    _assert_closed_form_is_the_kernel(ising, [0.4, 1.1, 2.9], gammas)


def test_closed_form_at_large_gamma_times_coupling():
    # |gamma * J| up to about 10^3: hundreds of periods of every cosine.
    rng = np.random.default_rng(3)
    for m in (2, 6, 10):
        _assert_closed_form_is_the_kernel(_random_ising(m, m), rng.uniform(0, math.pi, 3), rng.uniform(-500, 500, 3))


def _assert_closed_form_is_its_oracle(ising, rng, draws):
    # The screen, value and gradient around one cosine per distinct argument, bit
    # for bit those around the cosine of every entry (tests/oracles.py); the
    # reference gets value_and_grad's 0-d gamma as the one-entry array it once was.
    closed, reference = _ClosedForm(ising), _ClosedForm(ising)
    reference._xyz = lambda g: tuple(t.reshape(np.shape(g)) for t in closed_form_xyz(reference, np.reshape(g, -1)))
    scale = float(np.max(np.abs(energy_table(ising)))) or 1.0
    betas = rng.uniform(0, math.pi, (3 * draws, 1))
    gammas = np.concatenate(
        [rng.uniform(0, 2 * math.pi, draws), rng.uniform(0, 2 * math.pi / scale, draws), rng.uniform(-1e5, 1e5, draws)]
    )[:, None]
    screened = closed.screen(betas, gammas)
    assert np.array(screened).tobytes() == np.array(reference.screen(betas, gammas)).tobytes()
    for b, g in zip(betas, gammas):
        value, grad = closed.value_and_grad(b, g)
        want, want_grad = reference.value_and_grad(b, g)
        assert np.array([value]).tobytes() == np.array([want]).tobytes()
        assert grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("kind", DISTRIBUTION_KINDS)
def test_distinct_cosines_are_bitwise_every_cosine_on_the_penalty_chains(kind):
    # m = 3, 7 and 15; gamma up to 2 pi, up to 2 pi / max|E| and up to 1e5.
    for n in (2, 3, 4):
        for seed in range(3):
            ising = qubo_to_ising(build_qubo(build_bilp(generate_game(n, DistributionSpec(kind=kind), seed))))
            _assert_closed_form_is_its_oracle(ising, np.random.default_rng([n, seed]), 6)


@pytest.mark.parametrize("m", range(1, 13))
def test_distinct_cosines_are_bitwise_every_cosine_on_random_models(m):
    rng = np.random.default_rng(m)
    ising = _random_ising(m, 70 + m)
    _assert_closed_form_is_its_oracle(ising, rng, 4)
    # Fields and couplings of exactly +0.0 and -0.0: arguments of both signs of zero, kept apart.
    h = tuple((0.0, -0.0, x)[i % 3] for i, x in enumerate(ising.h))
    J = {pair: (-0.0, 0.0, x)[k % 3] for k, (pair, x) in enumerate(ising.J.items())}
    zeroed = IsingInstance(m=m, h=h, J=J, offset=0.0)
    zeros = {float(a).hex() for a in _ClosedForm(zeroed).args if a == 0.0}
    assert zeros == ({"0x0.0p+0", "-0x0.0p+0"} if J else {"0x0.0p+0"})
    _assert_closed_form_is_its_oracle(zeroed, rng, 4)


def test_the_closed_form_takes_one_cosine_per_distinct_argument(monkeypatch):
    # The coverage QUBO's couplings are lam |C_u & C_v| / 2: 188 distinct values
    # among the 5,025 arguments of the n = 4 chain, and a call takes one cosine of each.
    closed = _ClosedForm(_chain_for(4)[2])
    assert closed.coef.size == 5025 and closed.args.size <= 200
    assert closed.args[closed.where].tobytes() == closed.coef.tobytes()
    sizes, real_cos = [], np.cos
    monkeypatch.setattr(np, "cos", lambda x: sizes.append(np.size(x)) or real_cos(x))
    closed.value_and_grad(np.array([0.4]), np.array([0.01]))
    assert sizes == [closed.args.size]


@pytest.mark.parametrize("v", [1e24, 1e31, 2.4e306])
def test_closed_form_refuses_arguments_its_complex_step_cannot_take(v):
    # Re cos(x + iy) = cos x cosh y with y = GAMMA_STEP * a: past |a| = 2^-26 /
    # GAMMA_STEP, cosh y no longer rounds to 1 and the value drifts (1e55 times
    # the energies at v = 1e31; NaN from about 1e33).  lam = v keeps the QUBO
    # within a float at 2.4e306, where the default penalty overflows it.
    game = CoalitionGame(n=2, values={1: v, 2: v, 3: v})
    ising = qubo_to_ising(build_qubo(build_bilp(game), lam=v))
    for call in (_ClosedForm, lambda i: optimize(i, 1), lambda i: scan_layers(i, range(1, 3))):
        with pytest.raises(ConfigError, match=r"p = 1 closed form needs every \|cosine argument\| <= 1\.49012e\+22"):
            call(ising)
    if v < 1e300:
        with pytest.raises(ConfigError, match="p = 1 closed form"):
            solve(game, "qaoa", p=1)


def test_closed_form_takes_arguments_within_its_bound():
    # v = 1e20: every argument is at most 6e20, and the value is the kernel's.
    game = CoalitionGame(n=2, values={1: 1e20, 2: 1e20, 3: 1e20})
    ising = qubo_to_ising(build_qubo(build_bilp(game)))
    assert 0.0 < np.max(np.abs(_ClosedForm(ising).coef)) <= qaoa_module.COEF_MAX
    scale = float(np.max(np.abs(energy_table(ising))))
    _assert_closed_form_is_the_kernel(ising, [0.3, 1.2], [0.7 / scale, 5.0 / scale])
    assert solve(game, "qaoa", p=1).best_value == 2e20


def test_the_scaled_objective_matches_its_gradient(monkeypatch):
    # What BFGS sees: the value divided by max|E| over (beta, max|E| * gamma).
    seen = []
    real_minimize = qaoa_module.minimize

    def recording(fun, x0, maxiter):
        seen.append(fun)
        return real_minimize(fun, x0, maxiter)

    monkeypatch.setattr(qaoa_module, "minimize", recording)
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
    # and BFGS begins at the lowest-expectation one, as (beta, max|E| * gamma).
    starts = []
    real_minimize = qaoa_module.minimize

    def recording(fun, x0, maxiter):
        starts.append(x0.copy())
        return real_minimize(fun, x0, maxiter)

    monkeypatch.setattr(qaoa_module, "minimize", recording)
    _, _, ising = _g2_chain(g2)
    optimize(ising, p=1, config=OptimizerConfig(starts=3, maxiter=2), seed=4)
    table = energy_table(ising)
    rng = np.random.default_rng(np.random.SeedSequence(4).spawn(2)[0])
    for x0 in starts:
        draws = [
            (rng.uniform(0.0, math.pi, 1), rng.uniform(0.0, 2.0 * math.pi, 1))
            for _ in range(qaoa_module.START_DRAWS)
        ]
        values = [float(np.abs(_Workspace(3, table).state(b, g)) ** 2 @ table) for b, g in draws]
        betas, gammas = draws[int(np.argmin(values))]
        assert x0.tolist() == [betas[0], np.max(np.abs(table)) * gammas[0]]
    assert len(starts) == 3


@pytest.mark.parametrize(
    "m, p",
    # p = 2: one state per draw.  p = 1: no state is built; the closed form screens the draws.
    [(3, 2), (9, 2), (15, 1)],
)
def test_batched_screening_is_bitwise_one_state_per_draw(monkeypatch, m, p):
    ising = _random_ising(9, 0) if m == 9 else _chain_for((m + 1).bit_length() - 1)[2]
    assert ising.m == m
    screens, starts = [], []
    evaluator = qaoa_module._ClosedForm if p == 1 else qaoa_module._Workspace
    real_screen = evaluator.screen
    real_minimize = qaoa_module.minimize

    def screen(work, betas, gammas):
        values = real_screen(work, betas, gammas)
        screens.append((work, betas.copy(), gammas.copy(), values))
        return values

    def minimize(fun, x0, maxiter):
        starts.append(x0.copy())
        return real_minimize(fun, x0, maxiter)

    monkeypatch.setattr(evaluator, "screen", screen)
    monkeypatch.setattr(qaoa_module, "minimize", minimize)
    optimize(ising, p, config=OptimizerConfig(starts=10, maxiter=1), seed=m)

    (_, betas, gammas, values), = screens
    # The per-draw uniform calls and one _Workspace.state per draw, as each start drew them.
    table = energy_table(ising)
    rng = np.random.default_rng(np.random.SeedSequence(m).spawn(2)[0])
    draws = [(rng.uniform(0.0, math.pi, p), rng.uniform(0.0, 2.0 * math.pi, p)) for _ in range(160)]
    assert betas.tobytes() == np.array([b for b, _ in draws]).tobytes()
    assert gammas.tobytes() == np.array([g for _, g in draws]).tobytes()
    want = [float(np.add.reduce(np.abs(_Workspace(m, table).state(b, g)) ** 2 * table)) for b, g in draws]
    assert len(values) == 160
    if p == 1:
        assert np.max(np.abs(np.array(values) - want)) <= 1e-12 * np.max(np.abs(table))
    else:
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


@pytest.mark.parametrize("p", [1, 2])
def test_optimum_probability_is_the_final_states_mass_on_the_lowest_energies(p):
    # The abn chain's optimum is one basis state; the reports carry it after the expectation.
    bilp = build_bilp(generate_game(3, DistributionSpec(kind="abn"), 0))
    report = solve_qaoa(bilp, p=p, shots=64)
    result, = report.qaoa_results
    table = energy_table(_abn_chain())
    probs = np.abs(_Workspace(7, table).state(result.best_params.betas, result.best_params.gammas)) ** 2
    optimal = np.flatnonzero(table == table.min())
    assert len(optimal) == 1
    assert result.metadata["optimum_probability"] == probs[optimal].sum()
    keys = list(report.metadata)
    assert keys[keys.index("expectation") + 1] == "optimum_probability"
    assert report.metadata["optimum_probability"] == result.metadata["optimum_probability"]


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
    assert result.metadata["optimum_probability"] == pytest.approx(1.0, abs=1e-12)  # every state is optimal


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
        raise AssertionError("energy_table ran before the depth, shots or seed check")

    _, _, ising = _g2_chain(g2)
    monkeypatch.setattr(qaoa_module, "energy_table", refuse)
    too_deep = qaoa_module.OPTIMIZER_MAX_LAYERS + 1
    with pytest.raises(ResourceLimitError, match="layers"):
        optimize(ising, too_deep)
    with pytest.raises(ResourceLimitError, match="layers"):
        scan_layers(ising, range(1, too_deep + 1))
    with pytest.raises(ConfigError, match="multinomial"):
        optimize(ising, 1, shots=qaoa_module.MAX_SHOTS + 1)
    state = np.full(2, math.sqrt(0.5), dtype=np.complex128)
    with pytest.raises(ConfigError, match="multinomial"):
        sample(state, qaoa_module.MAX_SHOTS + 1, seed=0)
    assert sum(sample(state, qaoa_module.MAX_SHOTS, seed=0).values()) == qaoa_module.MAX_SHOTS
    for seed, match in [(-1, "seed must be >= 0"), (1.5, "seed must be an integer"), (True, "seed must be")]:
        with pytest.raises(ConfigError, match=match):
            optimize(ising, 1, seed=seed)
        with pytest.raises(ConfigError, match=match):
            sample(state, 4, seed=seed)


def test_optimize_is_deterministic(g2):
    _, _, ising = _g2_chain(g2)
    a = optimize(ising, p=1, seed=3).to_json(include_timing=False)
    b = optimize(ising, p=1, seed=3).to_json(include_timing=False)
    assert json.dumps(a) == json.dumps(b)


def test_a_fifteen_qubit_p1_solve_does_not_depend_on_the_blas_thread_count(tmp_path):
    # p = 1 is evaluated in closed form, with no BLAS call: one and two BLAS
    # threads give the same report and scan file bytes, timing stripped.
    src = Path(__file__).resolve().parent.parent / "src"
    argv = "solve --agents 4 --dist normal --seed 1 --method qaoa --p 1 --qaoa-out scan.json".split()
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-m", "csgp", *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        report, scan = json.loads(done.stdout), json.loads((tmp_path / "scan.json").read_text(encoding="utf-8"))
        assert report["metadata"]["m"] == 15
        report.pop("timing")
        scan["results"][0].pop("timing")
        outputs.append(json.dumps([report, scan]))
    assert outputs[0] == outputs[1]


P2_SCRIPT = """
import json
from csgp.game import DistributionSpec, generate_game
from csgp.qaoa import OptimizerConfig, optimize
from csgp.transform import build_bilp, build_qubo, qubo_to_ising
ising = qubo_to_ising(build_qubo(build_bilp(generate_game(4, DistributionSpec(kind="normal"), 1))))
print(json.dumps(optimize(ising, 2, OptimizerConfig(starts=1, maxiter=8)).to_json(include_timing=False)))
"""


def test_a_fifteen_qubit_p2_optimize_does_not_depend_on_the_blas_thread_count(tmp_path):
    # At p >= 2 the kernel sums |psi|^2 E and both Im<lam|.> by np.add.reduce,
    # not by BLAS dots, and BFGS makes no BLAS call: one and two threads agree.
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-c", P2_SCRIPT], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert json.loads(outputs[0])["metadata"]["m"] == 15
    assert outputs[0] == outputs[1]


def test_optimize_rejects_bad_layer_count(g2):
    _, _, ising = _g2_chain(g2)
    with pytest.raises(ConfigError):
        optimize(ising, p=0)


def test_layer_scan_finds_optimum_at_depth_one(g2):
    bilp, qubo, ising = _g2_chain(g2)
    reference = solve_qubo_exhaustive(bilp, qubo.lam)
    target = reference.metadata["best_energy"]
    assert target == pytest.approx(-24.0, abs=1e-12)
    results, chosen = scan_layers(ising, range(1, 6), seed=0, target_energy=target)
    assert chosen == 1
    assert len(results) == 1
    best = results[0].best_bitstring
    decoded = decode_solution(bilp, best)
    assert decoded.feasible
    assert decoded.cs.blocks == (3,)


def test_layer_scan_prefix_matches_shorter_scan(g2):
    _, _, ising = _g2_chain(g2)
    long, _ = scan_layers(ising, range(1, 3), seed=9)
    short, _ = scan_layers(ising, range(1, 2), seed=9)
    assert len(long) == 2 and len(short) == 1
    assert json.dumps(long[0].to_json(include_timing=False)) == json.dumps(
        short[0].to_json(include_timing=False)
    )


def test_layer_scan_validates_depth(g2, monkeypatch):
    # The depths as a range, its first depth as a layer count, its last as
    # p_max, the seed and the target energy, all before any optimize call and
    # SeedSequence([seed, p]), which rejects negatives.
    def refuse(*args, **kwargs):
        raise AssertionError("optimize ran before the range and seed checks")

    _, _, ising = _g2_chain(g2)
    monkeypatch.setattr(qaoa_module, "optimize", refuse)
    too_deep = qaoa_module.OPTIMIZER_MAX_LAYERS + 1
    for depths, seed, target, error, match in [
        (range(1, 1), 0, None, ConfigError, "empty"),
        (range(-1, 0), 0, None, ConfigError, "layer count must be >= 1"),
        (range(too_deep, too_deep + 1), 0, None, ResourceLimitError, f"layer count {too_deep}"),
        (range(2, too_deep + 1), 0, None, ResourceLimitError, f"p_max {too_deep}"),
        (range(1, 2), -1, None, ConfigError, "seed must be >= 0"),
        (range(1, 3), 1.5, None, ConfigError, "seed must be an integer"),
        (3, 0, None, ConfigError, "depths must be a range, got 3"),
        (range(1, 2), 0, "x", ConfigError, "target energy must be a number, got 'x'"),
    ]:
        with pytest.raises(error, match=match):
            scan_layers(ising, depths, shots=16, seed=seed, target_energy=target)


def test_fixed_depth_is_a_one_depth_range(g2):
    # range(p, p + 1) runs optimize under the seed the scan gives depth p.
    _, _, ising = _g2_chain(g2)
    (fixed,), chosen = scan_layers(ising, range(2, 3), shots=64, seed=5)
    scan, _ = scan_layers(ising, range(1, 3), shots=64, seed=5)
    assert chosen is None and fixed.best_params.p == 2
    assert fixed.to_json(include_timing=False) == scan[1].to_json(include_timing=False)


def test_scan_solution_matches_partition_solver(g2):
    bilp, qubo, ising = _g2_chain(g2)
    reference = solve_qubo_exhaustive(bilp, qubo.lam)
    results, chosen = scan_layers(
        ising, range(1, 6), seed=0, target_energy=reference.metadata["best_energy"]
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
