"""QAOA on the coalition Ising model: circuit build, state-vector simulation,
sampling, and classical angle optimization.

The optimizer evaluates angles with a diagonal-phase kernel: each cost layer
is one elementwise multiply by exp(-i*gamma*E) over the energy table (built
once per optimize call, in O(2^m), by transform.quadratic_table), each mixer
layer applies RX(2*beta) to every qubit q as cos(beta)*psi - i*sin(beta)*X_q psi,
with X_q psi a flipped view of the state, not a copy.  L-BFGS-B gets the
expectation and all 2p derivatives from one adjoint sweep through the same
kernel, forwards and then backwards (_value_and_grad).  The gate list from
build_circuit, replayed by simulate, is the gate-exact reference the kernel is
tested against and the source of gate counts; the optimizer never builds it.

Conventions, fixed once here and relied on by the tests:

* Qubit k carries QUBO variable k; qubit 0 is the least significant bit of
  the basis-state index.
* Basis bit b on a qubit is the spin z = 1 - 2b (so |0> is z = +1), which
  makes the cost layer built from RZ/CNOT gates equal exp(-i*gamma*H_C)
  exactly, with H_C diagonal and H_C|b> = E(z(b))|b>.
* Readout maps spin back to the binary variable through x = (1 + z) / 2,
  so a qubit measured as 1 reports x = 0.  Count keys and best_bitstring
  are these assignment strings (position k = variable k) and feed straight
  into decode_solution.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ResourceLimitError
from .transform import IsingInstance, quadratic_table

SIMULATOR_MAX_QUBITS = 20
OPTIMIZER_MAX_LAYERS = 64  # each value+gradient call costs O(p * m * 2^m)
LBFGS_FTOL = 1e-12  # L-BFGS-B stops when a step lowers the scaled expectation by less
LBFGS_GTOL = 1e-6  # or when no gradient entry exceeds this
START_DRAWS = 16  # each L-BFGS-B start is the lowest-expectation one of this many draws
MAX_SHOTS = np.iinfo(np.int64).max  # the most draws numpy's multinomial takes

_H_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)


@dataclass(frozen=True)
class QaoaParams:
    """Angle schedule for p alternating cost/mixer layers."""

    p: int
    betas: tuple[float, ...]
    gammas: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ConfigError(f"layer count must be >= 1, got {self.p}")
        if len(self.betas) != self.p or len(self.gammas) != self.p:
            raise ConfigError(
                f"angle vectors must have length p={self.p},"
                f" got {len(self.betas)} betas and {len(self.gammas)} gammas"
            )
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))


@dataclass(frozen=True)
class CircuitDescription:
    """An ordered gate list over `qubits` qubits.

    Gate records: ("H", q), ("RX", q, angle), ("RZ", q, angle),
    ("CNOT", control, target).
    """

    qubits: int
    gates: tuple[tuple, ...]

    def counts_by_kind(self) -> dict[str, int]:
        tally: dict[str, int] = {"H": 0, "RX": 0, "RZ": 0, "CNOT": 0}
        for gate in self.gates:
            tally[gate[0]] += 1
        return tally


def _check_qubits(m: int) -> None:
    if m > SIMULATOR_MAX_QUBITS:
        raise ResourceLimitError(
            f"simulator is limited to {SIMULATOR_MAX_QUBITS} qubits, got {m}"
        )


def check_depth(p: int, name: str = "layer count") -> None:
    """Refuse a depth below 1 (ConfigError) or above OPTIMIZER_MAX_LAYERS (ResourceLimitError)."""
    if p < 1:
        raise ConfigError(f"{name} must be >= 1, got {p}")
    if p > OPTIMIZER_MAX_LAYERS:
        raise ResourceLimitError(
            f"QAOA is limited to {OPTIMIZER_MAX_LAYERS} layers, got {name} {p}"
        )


def check_shots(shots: int) -> None:
    """Refuse a shot count that is not an integer in 1..MAX_SHOTS (ConfigError)."""
    if not isinstance(shots, (int, np.integer)):
        raise ConfigError(f"shots must be an integer, got {shots!r}")
    if shots < 1:
        raise ConfigError(f"shots must be >= 1, got {shots}")
    if shots > MAX_SHOTS:
        raise ConfigError(f"shots must be <= {MAX_SHOTS}, numpy's multinomial range, got {shots}")


def build_circuit(ising: IsingInstance, params: QaoaParams) -> CircuitDescription:
    """Assemble the ansatz: H wall, then p layers of cost phases and mixer.

    Cost layer j applies RZ(2*gamma_j*h_i) on every qubit, then for each
    interaction (i, k) in ascending order a CNOT(i,k) / RZ(k, 2*gamma_j*J_ik)
    / CNOT(i,k) sandwich.  Mixer layer applies RX(2*beta_j) on every qubit.
    """
    m = ising.m
    _check_qubits(m)
    interactions = sorted(ising.J)
    gates: list[tuple] = [("H", q) for q in range(m)]
    for layer in range(params.p):
        gamma = params.gammas[layer]
        beta = params.betas[layer]
        for i in range(m):
            gates.append(("RZ", i, 2.0 * gamma * ising.h[i]))
        for (i, k) in interactions:
            gates.append(("CNOT", i, k))
            gates.append(("RZ", k, 2.0 * gamma * ising.J[(i, k)]))
            gates.append(("CNOT", i, k))
        for i in range(m):
            gates.append(("RX", i, 2.0 * beta))
    return CircuitDescription(qubits=m, gates=tuple(gates))


def _apply_one_qubit(state: np.ndarray, m: int, q: int, matrix: np.ndarray) -> None:
    psi = state.reshape(1 << (m - q - 1), 2, 1 << q)
    top = psi[:, 0, :].copy()
    bot = psi[:, 1, :]
    psi[:, 0, :] = matrix[0, 0] * top + matrix[0, 1] * bot
    psi[:, 1, :] = matrix[1, 0] * top + matrix[1, 1] * bot


def _apply_rz(state: np.ndarray, m: int, q: int, angle: float) -> None:
    psi = state.reshape(1 << (m - q - 1), 2, 1 << q)
    psi[:, 0, :] *= np.exp(-0.5j * angle)
    psi[:, 1, :] *= np.exp(0.5j * angle)


def _apply_cnot(state: np.ndarray, m: int, control: int, target: int) -> None:
    lo, hi = (control, target) if control < target else (target, control)
    psi = state.reshape(1 << (m - hi - 1), 2, 1 << (hi - lo - 1), 2, 1 << lo)
    if control == hi:
        tmp = psi[:, 1, :, 0, :].copy()
        psi[:, 1, :, 0, :] = psi[:, 1, :, 1, :]
        psi[:, 1, :, 1, :] = tmp
    else:
        tmp = psi[:, 0, :, 1, :].copy()
        psi[:, 0, :, 1, :] = psi[:, 1, :, 1, :]
        psi[:, 1, :, 1, :] = tmp


def simulate(circuit: CircuitDescription) -> np.ndarray:
    """Apply the gate list to |0...0> and return the final amplitude vector."""
    m = circuit.qubits
    state = np.zeros(1 << m, dtype=np.complex128)
    state[0] = 1.0
    for gate in circuit.gates:
        kind = gate[0]
        if kind == "H":
            _apply_one_qubit(state, m, gate[1], _H_MATRIX)
        elif kind == "RZ":
            _apply_rz(state, m, gate[1], gate[2])
        elif kind == "RX":
            half = 0.5 * gate[2]
            matrix = np.array(
                [[math.cos(half), -1j * math.sin(half)], [-1j * math.sin(half), math.cos(half)]],
                dtype=np.complex128,
            )
            _apply_one_qubit(state, m, gate[1], matrix)
        elif kind == "CNOT":
            _apply_cnot(state, m, gate[1], gate[2])
        else:
            raise ConfigError(f"unknown gate kind {kind!r}")
    return state


def energy_table(ising: IsingInstance) -> np.ndarray:
    """Ising energy of every basis state, indexed by basis-state integer: with z = 1 - 2b,
    the quadratic_table of linear -2(h_i + sum_j J_ij), quadratic 4 J_ij, start sum h + sum J."""
    _check_qubits(ising.m)
    couple = np.zeros((ising.m, ising.m))
    pairs = np.array(list(ising.J), dtype=np.int64).reshape(-1, 2)
    couple[pairs[:, 0], pairs[:, 1]] = list(ising.J.values())
    linear = -2.0 * (np.asarray(ising.h) + couple.sum(0) + couple.sum(1))
    return quadratic_table(linear, 4.0 * couple, math.fsum([*ising.h, *ising.J.values()]))


def expectation(state: np.ndarray, ising: IsingInstance) -> float:
    """Analytic mean cost energy of the state, sum_b |amp_b|^2 E(z(b))."""
    if state.shape != (1 << ising.m,):
        raise ConfigError(
            f"state has shape {state.shape}, expected ({1 << ising.m},) for m={ising.m}"
        )
    probs = np.abs(state) ** 2
    return float(probs @ energy_table(ising))


def assignment_string(index: int, m: int) -> str:
    """Variable-assignment string for a measured basis state (x = (1+z)/2)."""
    return "".join("0" if index >> k & 1 else "1" for k in range(m))


def assignment_index(x: str) -> int:
    """Basis-state integer whose readout is the assignment string x."""
    index = 0
    for k, ch in enumerate(x):
        if ch == "0":
            index |= 1 << k
        elif ch != "1":
            raise ConfigError(f"assignment strings are binary, got {x!r}")
    return index


def sample(state: np.ndarray, shots: int, seed: int) -> dict[str, int]:
    """Multinomial measurement; keys are assignment strings, values shot counts."""
    check_shots(shots)
    m = int(round(math.log2(state.shape[0])))
    probs = np.abs(state) ** 2
    probs = probs / probs.sum()
    draws = np.random.default_rng(seed).multinomial(shots, probs)
    return {assignment_string(b, m): int(draws[b]) for b in np.flatnonzero(draws).tolist()}


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start L-BFGS-B settings: the number of starts and each start's
    iteration cap (its tolerances are LBFGS_FTOL and LBFGS_GTOL)."""

    starts: int = 10
    maxiter: int = 500

    def __post_init__(self) -> None:
        if self.starts < 1:
            raise ConfigError(f"starts must be >= 1, got {self.starts}")
        if self.maxiter < 1:
            raise ConfigError(f"maxiter must be >= 1, got {self.maxiter}")


@dataclass(frozen=True)
class QaoaResult:
    """Outcome of one optimized run at a fixed layer count."""

    best_params: QaoaParams
    expectation: float
    counts: dict[str, int]
    best_bitstring: str
    optimizer_trace: tuple[tuple[QaoaParams, float], ...]
    metadata: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)

    def to_json(self, include_timing: bool = True) -> dict:
        doc = {
            "p": self.best_params.p,
            "betas": list(self.best_params.betas),
            "gammas": list(self.best_params.gammas),
            "expectation": self.expectation,
            "counts": self.counts,
            "best_bitstring": self.best_bitstring,
            "optimizer_trace": [
                {"betas": list(prm.betas), "gammas": list(prm.gammas), "expectation": f}
                for prm, f in self.optimizer_trace
            ],
            "metadata": self.metadata,
        }
        if include_timing:
            doc["timing"] = self.timing
        return doc


def _flipped(state: np.ndarray, m: int, q: int) -> np.ndarray:
    """X_q state as a view, not a copy: the (2^(m-q-1), 2, 2^q) reshape of
    state with its middle axis reversed."""
    return state.reshape(1 << (m - q - 1), 2, 1 << q)[:, ::-1, :]


def _mix(state: np.ndarray, scratch: np.ndarray, m: int, beta: float) -> None:
    """Apply RX(2*beta) to every qubit of state, in place.

    Qubit q gets cos(beta)*psi - i*sin(beta)*X_q psi: three ufunc calls per
    qubit into the scratch buffer.  RX(-2*beta) undoes it.
    """
    diag, off = math.cos(beta), -1j * math.sin(beta)  # RX(2*beta)'s entries
    for q in range(m):
        flipped = _flipped(state, m, q)
        np.multiply(flipped, off, out=scratch.reshape(flipped.shape))
        state *= diag
        state += scratch


def _phase(out: np.ndarray, table: np.ndarray, gamma: float) -> np.ndarray:
    """The cost layer's diagonal exp(-i*gamma*table), written into out."""
    return np.exp(np.multiply(-1j * gamma, table, out=out), out=out)


def _qaoa_state(m: int, table: np.ndarray, betas, gammas) -> np.ndarray:
    """Ansatz state from the uniform superposition: per layer, one multiply by
    _phase, then _mix, both through one scratch buffer.

    Equals simulate(build_circuit(...)) amplitude by amplitude, not just up
    to a global phase: the table excludes the Ising offset, as the gates do.
    """
    state = np.full(1 << m, 1.0 / math.sqrt(1 << m), dtype=np.complex128)
    scratch = np.empty_like(state)
    for beta, gamma in zip(betas, gammas):
        state *= _phase(scratch, table, gamma)
        _mix(state, scratch, m, beta)
    return state


def _value_and_grad(m: int, table: np.ndarray, betas, gammas) -> tuple[float, np.ndarray]:
    """Expectation <psi|E|psi> of the _qaoa_state and its gradient over
    (betas, gammas), by one adjoint sweep (Jones & Gacon, arXiv:2009.02823).

    After the forward pass, lam = E psi; the sweep walks the layers backwards,
    un-applying each mixer and cost phase to both psi and lam.  With
    B = sum_q X_q, d/dbeta_l = 2 Im<lam|B|psi> is read at the end of layer l
    (B commutes with its mixer), with B psi summed from the flipped views
    into the scratch buffer, and d/dgamma_l = 2 Im<lam|E|psi> once that
    mixer is undone.  The value is computed as optimize reports it, from the
    same forward state, so the two agree bitwise.
    """
    p = len(betas)
    psi = _qaoa_state(m, table, betas, gammas)
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
        grad[layer] = 2.0 * np.vdot(lam, scratch).imag  # scratch holds B psi
        _mix(psi, scratch, m, -betas[layer])
        _mix(lam, scratch, m, -betas[layer])
        grad[p + layer] = 2.0 * np.vdot(lam, np.multiply(table, psi, out=scratch)).imag
        if layer:
            _phase(scratch, table, -gammas[layer])
            psi *= scratch
            lam *= scratch
    return value, grad


def optimize(
    ising: IsingInstance,
    p: int,
    config: OptimizerConfig = OptimizerConfig(),
    seed: int = 0,
    shots: int = 1024,
) -> QaoaResult:
    """Multi-start L-BFGS-B search over the 2p angles.

    The objective is the analytic expectation (no shot noise) of the
    _qaoa_state kernel, with its gradient from _value_and_grad.  The search
    runs on the energy table divided by scale = max|E| (1 when the table is
    all zero): its variables are beta and scale * gamma, its objective the
    expectation divided by scale.  Angles are drawn uniformly from beta in
    [0, pi) and gamma in [0, 2*pi), so scale * gamma spans [0, 2*pi*scale):
    the deep minima of penalty-dominated tables lie there, among many shallow
    ones, not in the table's first period.  Each start is the draw with the
    lowest expectation out of START_DRAWS (one forward pass each) and runs
    L-BFGS-B for at most config.maxiter iterations.  The best angles any
    evaluation saw win; the reported expectation is theirs on the unscaled
    table, and the sample of `shots` draws is taken once, from the same kernel
    at those angles.
    metadata["evals"] counts value+gradient calls over all starts,
    metadata["converged"] says whether the winning start's L-BFGS-B run
    reported success and metadata["converged_starts"] how many starts did.
    """
    check_depth(p)
    check_shots(shots)
    from scipy.optimize import minimize  # here, so that only QAOA loads scipy

    start = time.perf_counter()
    table = energy_table(ising)
    scale = float(np.max(np.abs(table))) or 1.0

    start_seq, sample_seq = np.random.SeedSequence(seed).spawn(2)
    start_rng = np.random.default_rng(start_seq)
    best = None
    evals_total = 0
    converged_starts = 0
    for s in range(config.starts):
        draws = [
            (start_rng.uniform(0.0, math.pi, size=p), start_rng.uniform(0.0, 2.0 * math.pi, size=p))
            for _ in range(START_DRAWS)
        ]
        betas0, gammas0 = min(
            draws, key=lambda d: float(np.abs(_qaoa_state(ising.m, table, *d)) ** 2 @ table)
        )
        theta0 = np.concatenate([betas0, scale * gammas0])
        trace: list[tuple[QaoaParams, float]] = []

        def fun(theta: np.ndarray) -> tuple[float, np.ndarray]:
            nonlocal evals_total
            evals_total += 1
            gammas = theta[p:] / scale
            val, grad = _value_and_grad(ising.m, table, theta[:p], gammas)
            if not trace or val < trace[-1][1]:
                trace.append((QaoaParams(p=p, betas=tuple(theta[:p]), gammas=tuple(gammas)), val))
            # d/dbeta and d/d(scale * gamma) of val / scale
            grad[:p] /= scale
            grad[p:] /= scale * scale
            return val / scale, grad

        res = minimize(
            fun,
            theta0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": config.maxiter, "ftol": LBFGS_FTOL, "gtol": LBFGS_GTOL},
        )
        converged_starts += bool(res.success)
        if best is None or trace[-1][1] < best[0]:
            best = (trace[-1][1], trace[-1][0], bool(res.success), tuple(trace), s)

    fbest, params, converged, trace, start_index = best
    state = _qaoa_state(ising.m, table, params.betas, params.gammas)
    sample_seed = int(sample_seq.generate_state(1)[0])
    counts = sample(state, shots, sample_seed)

    best_bitstring = None
    best_energy = math.inf
    for x in counts:
        e = float(table[assignment_index(x)])
        if e < best_energy or (e == best_energy and x < best_bitstring):
            best_energy = e
            best_bitstring = x
    elapsed = (time.perf_counter() - start) * 1e3
    metadata = {
        "m": ising.m,
        "p": p,
        "shots": shots,
        "seed": seed,
        "starts": config.starts,
        "maxiter": config.maxiter,
        "evals": evals_total,
        "best_start": start_index,
        "converged": converged,
        "converged_starts": converged_starts,
        "offset": ising.offset,
        "best_sampled_energy": best_energy,
        "best_sampled_qubo_energy": best_energy + ising.offset,
    }
    return QaoaResult(
        best_params=params,
        expectation=fbest,
        counts=counts,
        best_bitstring=best_bitstring,
        optimizer_trace=trace,
        metadata=metadata,
        timing={"wall_ms": elapsed},
    )


def optimize_layer(
    ising: IsingInstance, p: int, shots: int, seed: int, target_energy=None
) -> tuple[QaoaResult, bool]:
    """optimize at depth p under a seed derived from (seed, p), and whether the
    sample reached ``target_energy`` (QUBO units; None never matches)."""
    check_depth(p)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    seed_p = int(np.random.SeedSequence([seed, p]).generate_state(1)[0])
    result = optimize(ising, p, seed=seed_p, shots=shots)
    matched = target_energy is not None and math.isclose(
        result.metadata["best_sampled_qubo_energy"], target_energy, rel_tol=1e-9, abs_tol=1e-9
    )
    return result, matched


def scan_layers(
    ising: IsingInstance,
    p_max: int = 12,
    shots: int = 1024,
    seed: int = 0,
    target_energy: float | None = None,
) -> tuple[list[QaoaResult], int | None]:
    """Optimize at p = 1..p_max, stopping early once the target is sampled.

    ``target_energy`` is in QUBO units (offset folded in, constant c
    excluded).  Each p runs optimize_layer with its own derived seed, so
    a scan prefix is identical to a standalone shorter scan.  Returns all
    results plus the first matching p, or None when no p matched.
    """
    check_depth(p_max, "p_max")
    results: list[QaoaResult] = []
    chosen: int | None = None
    for p in range(1, p_max + 1):
        result, matched = optimize_layer(ising, p, shots, seed, target_energy)
        results.append(result)
        if matched:
            chosen = p
            break
    return results, chosen


def gate_count(n: int, p: int, s: int) -> int:
    """Closed-form circuit size: (2^n - 1)(2p + 1) + 3ps.

    One H per qubit, p RX per qubit, p RZ per qubit for the fields, and
    per interaction per layer a CNOT/RZ/CNOT triple.
    """
    if n < 1:
        raise ConfigError(f"agent count must be >= 1, got {n}")
    if p < 1:
        raise ConfigError(f"layer count must be >= 1, got {p}")
    if s < 0:
        raise ConfigError(f"interaction count must be >= 0, got {s}")
    return ((1 << n) - 1) * (2 * p + 1) + 3 * p * s
