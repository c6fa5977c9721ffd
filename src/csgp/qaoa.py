"""QAOA on the coalition Ising model: circuit build, state-vector simulation,
sampling, and classical angle optimization.

The optimizer evaluates angles with a diagonal-phase kernel: each cost layer
is one elementwise multiply by exp(-i*gamma*E) over the energy table (built
once per optimize call, in O(2^m), by transform.quadratic_table), each mixer
layer applies RX(2*beta) to every qubit q as cos(beta)*psi - i*sin(beta)*X_q psi,
with X_q a flipped view of a buffer, not a copy.  L-BFGS-B gets the
expectation and all 2p derivatives from one adjoint sweep through the same
kernel, forwards and then backwards (_Workspace.value_and_grad).  Each
optimize call allocates one _Workspace: its psi, lam and scratch buffers and
every qubit's views are built once and serve the start screening (many
states per pass at small m), every value+gradient call and the sampled
state.  The gate list from build_circuit, replayed by simulate, is the
gate-exact reference the kernel is tested against and the source of gate
counts; the optimizer never builds it.

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

from .errors import ConfigError, ResourceLimitError, check_int
from .transform import IsingInstance, quadratic_table

SIMULATOR_MAX_QUBITS = 20
OPTIMIZER_MAX_LAYERS = 64  # each value+gradient call costs O(p * m * 2^m)
LBFGS_FTOL = 1e-12  # L-BFGS-B stops when a step lowers the scaled expectation by less
LBFGS_GTOL = 1e-6  # or when no gradient entry exceeds this
START_DRAWS = 16  # each L-BFGS-B start is the lowest-expectation one of this many draws
FLIP_RUN = 1 << 13  # inner loop of the q = 0 and 1 flips: shorter runs hit numpy's buffering, longer leave cache
SCREEN_AMPLITUDES = 1 << 12  # the draws are screened max(1, this >> m) states at a time
MAX_SHOTS = np.iinfo(np.int64).max  # the most draws numpy's multinomial takes

_H_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)


@dataclass(frozen=True)
class QaoaParams:
    """Angle schedule for p alternating cost/mixer layers."""

    p: int
    betas: tuple[float, ...]
    gammas: tuple[float, ...]

    def __post_init__(self) -> None:
        check_int(self.p, "layer count", 1)
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
    """Refuse a depth that check_int(p, name, 1) refuses (ConfigError) or one above
    OPTIMIZER_MAX_LAYERS (ResourceLimitError)."""
    if check_int(p, name, 1) > OPTIMIZER_MAX_LAYERS:
        raise ResourceLimitError(
            f"QAOA is limited to {OPTIMIZER_MAX_LAYERS} layers, got {name} {p}"
        )


def check_shots(shots: int) -> None:
    """Refuse a shot count that is not an integer in 1..MAX_SHOTS (ConfigError)."""
    if check_int(shots, "shots", 1) > MAX_SHOTS:
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
    return _draw(np.square(np.abs(state)), shots, seed)


def _draw(probs: np.ndarray, shots: int, seed: int) -> dict[str, int]:
    """sample's counts from the squared amplitudes, normalized in place."""
    m = int(round(math.log2(probs.shape[0])))
    probs /= probs.sum()
    draws = np.random.default_rng(seed).multinomial(shots, probs)
    return {assignment_string(b, m): int(draws[b]) for b in np.flatnonzero(draws).tolist()}


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start L-BFGS-B settings: the number of starts and each start's
    iteration cap (its tolerances are LBFGS_FTOL and LBFGS_GTOL)."""

    starts: int = 10
    maxiter: int = 500

    def __post_init__(self) -> None:
        check_int(self.starts, "starts", 1)
        check_int(self.maxiter, "maxiter", 1)


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


def _flip_pairs(buf: np.ndarray, scratch: np.ndarray, m: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each qubit q, the views (X_q scratch, buf) over rows of 2^m amplitudes:
    the (-1, 2, 2^q) reshape of each, scratch's with its middle axis reversed.

    Flipping bit q never crosses a row, so the rows and the 2^(m-q-1) blocks
    share one long axis.  For q = 0 and 1 that axis is cut into runs of at
    most FLIP_RUN and moved last, which with order="C" makes it numpy's inner
    loop instead of the axis of length 2^q.
    """
    pairs = []
    for q in range(m):
        if q < 2:
            shape = (-1, min(buf.size >> (q + 1), FLIP_RUN), 2, 1 << q)
            flipped = scratch.reshape(shape)[:, :, ::-1, :].transpose(0, 2, 3, 1)
            view = buf.reshape(shape).transpose(0, 2, 3, 1)
        else:
            flipped = scratch.reshape(-1, 2, 1 << q)[:, ::-1, :]
            view = buf.reshape(-1, 2, 1 << q)
        pairs.append((flipped, view))
    return pairs


def _rx(beta: float) -> tuple[complex, complex]:
    """RX(2*beta)'s diagonal and off-diagonal entries (complex, as numpy would cast them)."""
    return complex(math.cos(beta)), -1j * math.sin(beta)


def _mix(buf: np.ndarray, scratch: np.ndarray, pairs, diag, off) -> None:
    """Apply RX(2*beta) to every qubit of buf, in place, given _rx(beta) as
    scalars or as one (rows, 1) column per entry.

    Qubit q gets cos(beta)*psi - i*sin(beta)*X_q psi: scratch = off*psi,
    psi *= diag, then psi += X_q scratch through the pair's views, three
    ufunc calls per qubit.  RX(-2*beta) undoes it.
    """
    for flipped, view in pairs:
        np.multiply(buf, off, out=scratch)
        np.multiply(buf, diag, out=buf)
        np.add(view, flipped, out=view, order="C")


def _phase(out: np.ndarray, table: np.ndarray, coef) -> np.ndarray:
    """The cost layer's diagonal exp(coef*table), coef = -i*gamma, written into out."""
    return np.exp(np.multiply(coef, table, out=out), out=out)


class _Workspace:
    """The buffers of the ansatz kernel for one table, allocated once.

    psi and scratch hold `rows` states of 2^m amplitudes and lam one; the
    X_q view pairs are built for all rows of psi (the screening) and for the
    first row of psi and lam (the value+gradient calls and the final state).
    """

    def __init__(self, m: int, table: np.ndarray, rows: int = 1) -> None:
        self.m, self.table, self.rows = m, table, rows
        self.psi, self.scratch = (np.empty((rows, 1 << m), dtype=np.complex128) for _ in range(2))
        self.lam = np.empty((1, 1 << m), dtype=np.complex128)
        self.batch_pairs = _flip_pairs(self.psi, self.scratch, m)
        self.psi_pairs = _flip_pairs(self.psi[:1], self.scratch[:1], m)
        self.lam_pairs = _flip_pairs(self.lam[:1], self.scratch[:1], m)

    def _forward(self, rows: int, pairs, layers) -> np.ndarray:
        """psi[:rows] from the uniform superposition: per layer (diag, off, coef),
        one multiply by _phase, then _mix, both through the scratch rows.  The
        first layer writes amp * phase, the product the uniform state gives."""
        psi, scratch = self.psi[:rows], self.scratch[:rows]
        for layer, (diag, off, coef) in enumerate(layers):
            _phase(scratch, self.table, coef)
            if layer:
                psi *= scratch
            else:
                np.multiply(1.0 / math.sqrt(1 << self.m), scratch, out=psi)
            _mix(psi, scratch, pairs, diag, off)
        return psi

    def probabilities(self, psi: np.ndarray) -> np.ndarray:
        """|psi|^2 of psi's rows, written into the scratch rows' memory."""
        probs = self.scratch.view(np.float64)[: len(psi), : psi.shape[1]]
        return np.square(np.abs(psi, out=probs), out=probs)

    def state(self, betas, gammas) -> np.ndarray:
        """The ansatz state at one angle schedule, as psi's first row."""
        layers = [(*_rx(b), -1j * g) for b, g in zip(betas, gammas)]
        return self._forward(1, self.psi_pairs, layers)[0]

    def screen(self, betas: np.ndarray, gammas: np.ndarray) -> list[float]:
        """Expectation of each row's (betas, gammas), `rows` states per pass.

        Each row's layers get the scalars state() would use, as (rows, 1)
        columns; the rows of the last pass that no draw fills get zeros and
        are dropped.  Each value is its row's 1-D dot with the table, as
        value_and_grad computes it.
        """
        count, p = betas.shape
        terms = np.zeros((-(-count // self.rows) * self.rows, p, 3), dtype=np.complex128)
        terms[:count] = [
            [(*_rx(b), -1j * g) for b, g in zip(*row)] for row in zip(betas.tolist(), gammas.tolist())
        ]
        values = []
        for first in range(0, len(terms), self.rows):
            block = terms[first : first + self.rows, :, :, None]
            layers = [(block[:, k, 0], block[:, k, 1], block[:, k, 2]) for k in range(p)]
            probs = self.probabilities(self._forward(self.rows, self.batch_pairs, layers))
            values += [float(row @ self.table) for row in probs]
        return values[:count]

    def value_and_grad(self, betas, gammas) -> tuple[float, np.ndarray]:
        """Expectation <psi|E|psi> of the ansatz state and its gradient over
        (betas, gammas), by one adjoint sweep (Jones & Gacon, arXiv:2009.02823).

        After the forward pass, lam = E psi; the sweep walks the layers
        backwards, un-applying each mixer and cost phase to both psi and lam.
        With B = sum_q X_q, d/dbeta_l = 2 Im<lam|B|psi> is read at the end of
        layer l (B commutes with its mixer), with B psi summed from the
        flipped views into the scratch row, and d/dgamma_l = 2 Im<lam|E|psi>
        once that mixer is undone.  The value is computed as optimize reports
        it, from the same forward state, so the two agree bitwise.
        """
        p = len(betas)
        table = self.table
        psi = self.state(betas, gammas)
        value = float(self.probabilities(psi[None])[0] @ table)
        lam, scratch = self.lam[0], self.scratch[0]
        np.multiply(table, psi, out=lam)
        grad = np.empty(2 * p)
        for layer in reversed(range(p)):
            scratch.fill(0.0)
            for flipped, view in self.psi_pairs:
                np.add(flipped, view, out=flipped, order="C")
            grad[layer] = 2.0 * np.vdot(lam, scratch).imag  # scratch holds B psi
            diag, off = _rx(-betas[layer])
            _mix(psi, scratch, self.psi_pairs, diag, off)
            _mix(lam, scratch, self.lam_pairs, diag, off)
            grad[p + layer] = 2.0 * np.vdot(lam, np.multiply(table, psi, out=scratch)).imag
            if layer:
                _phase(scratch, table, -1j * -gammas[layer])
                psi *= scratch
                lam *= scratch
        return value, grad


def _qaoa_state(m: int, table: np.ndarray, betas, gammas) -> np.ndarray:
    """Ansatz state from the uniform superposition, through a one-row _Workspace.

    Equals simulate(build_circuit(...)) amplitude by amplitude, not just up
    to a global phase: the table excludes the Ising offset, as the gates do.
    """
    return _Workspace(m, table).state(betas, gammas)


def _value_and_grad(m: int, table: np.ndarray, betas, gammas) -> tuple[float, np.ndarray]:
    """_Workspace.value_and_grad through a one-row workspace."""
    return _Workspace(m, table).value_and_grad(betas, gammas)


def optimize(
    ising: IsingInstance,
    p: int,
    config: OptimizerConfig = OptimizerConfig(),
    seed: int = 0,
    shots: int = 1024,
) -> QaoaResult:
    """Multi-start L-BFGS-B search over the 2p angles.

    The objective is the analytic expectation (no shot noise) of the
    ansatz state, with its gradient from _Workspace.value_and_grad.  The search
    runs on the energy table divided by scale = max|E| (1 when the table is
    all zero): its variables are beta and scale * gamma, its objective the
    expectation divided by scale.  Angles are drawn uniformly from beta in
    [0, pi) and gamma in [0, 2*pi), so scale * gamma spans [0, 2*pi*scale):
    the deep minima of penalty-dominated tables lie there, among many shallow
    ones, not in the table's first period.  Each start is the draw with the
    lowest expectation out of START_DRAWS and runs L-BFGS-B for at most
    config.maxiter iterations.  All starts * START_DRAWS draws are taken up
    front, in the order per-draw calls would take them, and screened
    max(1, SCREEN_AMPLITUDES >> m) states per forward pass; a start takes the
    first of its lowest values.  The best angles any evaluation saw win; the
    reported expectation is theirs on the unscaled table, and the sample of
    `shots` draws is taken once, from the same kernel at those angles.  One
    _Workspace serves the screening, every evaluation and that last state.
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
    draws = config.starts * START_DRAWS
    work = _Workspace(ising.m, table, rows=min(max(1, SCREEN_AMPLITUDES >> ising.m), draws))
    # Draw by draw, p betas in [0, pi) then p gammas in [0, 2*pi), as two
    # uniform calls per draw would take them.
    angles = np.random.default_rng(start_seq).uniform(
        0.0, [[math.pi], [2.0 * math.pi]], size=(draws, 2, p)
    )
    screened = work.screen(angles[:, 0], angles[:, 1])
    best = None
    evals_total = 0
    converged_starts = 0
    for s in range(config.starts):
        first = s * START_DRAWS
        pick = first + min(range(START_DRAWS), key=lambda k: screened[first + k])
        theta0 = np.concatenate([angles[pick, 0], scale * angles[pick, 1]])
        steps: list[tuple[tuple, tuple, float]] = []  # (betas, gammas, value) at each new low

        def fun(theta: np.ndarray) -> tuple[float, np.ndarray]:
            nonlocal evals_total
            evals_total += 1
            gammas = theta[p:] / scale
            val, grad = work.value_and_grad(theta[:p], gammas)
            if not steps or val < steps[-1][2]:
                steps.append((tuple(theta[:p]), tuple(gammas), val))
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
        if best is None or steps[-1][2] < best[0]:
            best = (steps[-1][2], bool(res.success), steps, s)

    fbest, converged, steps, start_index = best
    trace = tuple((QaoaParams(p=p, betas=b, gammas=g), val) for b, g, val in steps)
    params = trace[-1][0]
    # The sample's |amplitude|^2 reuses the scratch row, so it needs no buffer of its own.
    probs = work.probabilities(work.state(params.betas, params.gammas)[None])[0]
    counts = _draw(probs, shots, int(sample_seq.generate_state(1)[0]))

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
    check_int(seed, "seed", 0)
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
    check_int(n, "agent count", 1)
    check_int(p, "layer count", 1)
    check_int(s, "interaction count", 0)
    return ((1 << n) - 1) * (2 * p + 1) + 3 * p * s
