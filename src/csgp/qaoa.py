"""QAOA on the coalition Ising model: circuit build, state-vector simulation,
sampling, and classical angle optimization.

The optimizer evaluates angles in one of two ways, chosen by p alone.  At
p = 1 the expectation has a closed form in the Ising fields and couplings
(_ClosedForm: O((m + couplings) * m) cosines per angle pair, no state of
2^m amplitudes), which serves the start screening and every L-BFGS-B
value+gradient call; the reported expectation is that closed form.  At
p >= 2 it runs a diagonal-phase kernel: each cost layer is one elementwise
multiply by exp(-i*gamma*E) over the energy table (built once per optimize
call, in O(2^m), by transform.quadratic_table), each mixer layer applies
RX(2*beta) to every qubit q as cos(beta)*psi - i*sin(beta)*X_q psi, with
X_q a flipped view of a buffer, not a copy.  L-BFGS-B gets the expectation
and all 2p derivatives from one adjoint sweep through the same kernel,
forwards and then backwards (_Workspace.value_and_grad).  Each optimize
call allocates one _Workspace: its psi, lam and scratch buffers of one
state each and every qubit's views are built once and serve the start
screening (one state per draw), every value+gradient call and, at every p,
the sampled state.  The gate list from build_circuit, replayed by simulate, is
the gate-exact reference both are tested against and the source of gate
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
from functools import cached_property

import numpy as np

from .errors import ConfigError, ResourceLimitError, check_int, check_real
from .game import left_sum
from .transform import IsingInstance, quadratic_table

SIMULATOR_MAX_QUBITS = 20
OPTIMIZER_MAX_LAYERS = 64  # each value+gradient call costs O(p * m * 2^m)
LBFGS_FTOL = 1e-12  # L-BFGS-B stops when a step lowers the scaled expectation by less
LBFGS_GTOL = 1e-6  # or when no gradient entry exceeds this
START_DRAWS = 16  # each L-BFGS-B start is the lowest-expectation one of this many draws
FLIP_RUN = 1 << 13  # inner loop of the q = 0 and 1 flips: shorter runs hit numpy's buffering, longer leave cache
SCREEN_ENTRIES = 1 << 14  # at p = 1 they are screened at most this many closed-form cosines at a time
GAMMA_STEP = 1e-30  # the imaginary step of the closed form's d/dgamma
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


def _check_qubits(m: int) -> None:
    if m > SIMULATOR_MAX_QUBITS:
        raise ResourceLimitError(
            f"simulator is limited to {SIMULATOR_MAX_QUBITS} qubits, got {m}"
        )


def check_depth(p: int, name: str = "layer count") -> int:
    """check_int(p, name, 1), which refuses with a ConfigError; a depth above
    OPTIMIZER_MAX_LAYERS is a ResourceLimitError."""
    if check_int(p, name, 1) > OPTIMIZER_MAX_LAYERS:
        raise ResourceLimitError(
            f"QAOA is limited to {OPTIMIZER_MAX_LAYERS} layers, got {name} {p}"
        )
    return int(p)


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
    the quadratic_table of linear -2(h_i + sum_j J_ij), quadratic 4 J_ij, start sum h + sum J.
    Before the table, an offset or 3 sum|h| + 9 sum|J| that is not finite is a ConfigError:
    that sum is at least |start| + sum|linear| + sum|quadratic|, a bound on every partial sum."""
    _check_qubits(ising.m)
    reach = 3.0 * left_sum(map(abs, ising.h)) + 9.0 * left_sum(map(abs, ising.J.values()))
    if not (math.isfinite(reach) and math.isfinite(ising.offset)):
        raise ConfigError(f"Ising offset and 3 sum|h| + 9 sum|J| must be finite, got {ising.offset} and {reach}")
    couple = np.zeros((ising.m, ising.m))
    pairs = np.array(list(ising.J), dtype=np.int64).reshape(-1, 2)
    couple[pairs[:, 0], pairs[:, 1]] = list(ising.J.values())
    linear = -2.0 * (np.asarray(ising.h) + couple.sum(0) + couple.sum(1))
    return quadratic_table(linear, 4.0 * couple, math.fsum([*ising.h, *ising.J.values()]))


def assignment_string(index: int, m: int) -> str:
    """Variable-assignment string for a measured basis state (x = (1+z)/2), m <= SIMULATOR_MAX_QUBITS;
    an index that is not an integer in [0, 2^m) is a ConfigError."""
    _check_qubits(check_int(m, "qubit count", 0))
    if check_int(index, "basis index", 0) >= 1 << m:
        raise ConfigError(f"basis index must be < 2^{m} = {1 << m}, got {index}")
    return _assignment(index, m)


def _assignment(index: int, m: int) -> str:
    return "".join("0" if index >> k & 1 else "1" for k in range(m))


def sample(state: np.ndarray, shots: int, seed: int) -> dict[str, int]:
    """Multinomial measurement; keys are assignment strings in ascending
    basis-index order, values shot counts.  A seed that is not an integer
    >= 0, and a state that is not 1-D, whose length is not a power of two or
    whose squared norm is not positive and finite, are ConfigErrors."""
    check_shots(shots)
    check_int(seed, "seed", 0)
    size = len(state) if np.ndim(state) == 1 else 0
    if size & (size - 1) or not size:
        raise ConfigError(f"state must be a 1-D array of 2^m amplitudes, got shape {np.shape(state)}")
    with np.errstate(over="ignore"):  # an overflow is refused below
        probs = np.square(np.abs(state))
    if not 0.0 < probs.sum() < math.inf:
        raise ConfigError(f"state must have a positive finite norm, got squared norm {probs.sum()}")
    return {_assignment(b, size.bit_length() - 1): c for b, c in _draw(probs, shots, seed).items()}


def _draw(probs: np.ndarray, shots: int, seed: int) -> dict[int, int]:
    """{basis index: shot count} of the states drawn, in ascending index order,
    from the squared amplitudes, normalized in place."""
    probs /= probs.sum()
    draws = np.random.default_rng(seed).multinomial(shots, probs)
    drawn = np.flatnonzero(draws)
    return dict(zip(drawn.tolist(), draws[drawn].tolist()))


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
    """For each qubit q, the views (X_q scratch, buf) over 2^m amplitudes: the
    (-1, 2, 2^q) reshape of each, scratch's with its middle axis reversed.

    For q = 0 and 1 the axis of the 2^(m-q-1) blocks is cut into runs of at
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


def _mix(buf: np.ndarray, scratch: np.ndarray, pairs, diag: complex, off: complex) -> None:
    """Apply RX(2*beta) to every qubit of buf, in place, given (diag, off) = _rx(beta).

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

    psi, scratch and lam each hold one state of 2^m amplitudes; the X_q view
    pairs of psi and of lam over scratch are built once.  lam and its pairs
    are allocated by the first value_and_grad call, so a workspace that only
    builds states (at p = 1) holds psi and scratch alone.
    """

    def __init__(self, m: int, table: np.ndarray) -> None:
        self.m, self.table = m, table
        self.psi, self.scratch = (np.empty(1 << m, dtype=np.complex128) for _ in range(2))
        self.psi_pairs = _flip_pairs(self.psi, self.scratch, m)

    @cached_property
    def lam(self) -> np.ndarray:
        return np.empty(1 << self.m, dtype=np.complex128)

    @cached_property
    def lam_pairs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return _flip_pairs(self.lam, self.scratch, self.m)

    def probabilities(self, psi: np.ndarray) -> np.ndarray:
        """|psi|^2, written into the scratch buffer's memory."""
        probs = self.scratch.view(np.float64)[: len(psi)]
        return np.square(np.abs(psi, out=probs), out=probs)

    def state(self, betas, gammas) -> np.ndarray:
        """The ansatz state at one angle schedule, as psi.

        From the uniform superposition, each layer is one multiply by _phase,
        then _mix, both through scratch; the first layer writes amp * phase,
        the product the uniform state gives.  Equals
        simulate(build_circuit(...)) amplitude by amplitude, not just up to a
        global phase: the table excludes the Ising offset, as the gates do.
        """
        psi, scratch = self.psi, self.scratch
        for layer, (beta, gamma) in enumerate(zip(betas, gammas)):
            _phase(scratch, self.table, -1j * gamma)
            if layer:
                psi *= scratch
            else:
                np.multiply(1.0 / math.sqrt(1 << self.m), scratch, out=psi)
            _mix(psi, scratch, self.psi_pairs, *_rx(beta))
        return psi

    def screen(self, betas: np.ndarray, gammas: np.ndarray) -> list[float]:
        """Expectation of each row's (betas, gammas): one state per draw, whose
        probabilities are dotted with the table as value_and_grad does it."""
        draws = zip(betas.tolist(), gammas.tolist())
        return [float(self.probabilities(self.state(b, g)) @ self.table) for b, g in draws]

    def value_and_grad(self, betas, gammas) -> tuple[float, np.ndarray]:
        """Expectation <psi|E|psi> of the ansatz state and its gradient over
        (betas, gammas), by one adjoint sweep (Jones & Gacon, arXiv:2009.02823).

        After the forward pass, lam = E psi; the sweep walks the layers
        backwards, un-applying each mixer and cost phase to both psi and lam.
        With B = sum_q X_q, d/dbeta_l = 2 Im<lam|B|psi> is read at the end of
        layer l (B commutes with its mixer), with B psi summed from the
        flipped views into scratch, and d/dgamma_l = 2 Im<lam|E|psi> once
        that mixer is undone.  The value is computed as optimize reports it,
        from the same forward state, so the two agree bitwise.
        """
        p = len(betas)
        table, lam, scratch = self.table, self.lam, self.scratch
        psi = self.state(betas, gammas)
        value = float(self.probabilities(psi) @ table)
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


class _ClosedForm:
    """The p = 1 expectation of the ansatz, in closed form from the model's h and J.

    With C(a) = cos(2*gamma*a), S(a) = sin(2*gamma*a), s = sin(2*beta) and
    c = cos(2*beta) (Ozaeta, van Dam & McMahon, arXiv:2012.03421):
    <Z_u> = s S(h_u) prod_{w != u} C(J_uw) and <Z_u Z_v> = c s S(J_uv)
    [C(h_u) prod C(J_uw) + C(h_v) prod C(J_vw)] + s^2/2 [C(h_u - h_v)
    prod C(J_uw - J_vw) - C(h_u + h_v) prod C(J_uw + J_vw)], each prod over
    w not in {u, v}.  The expectation of the table (the energies without the
    offset) is then s X + c s Y + s^2 Z: X = sum h_u <Z_u> / s, and c s Y and
    s^2 Z are the two parts of sum J_uv <Z_u Z_v>, with X, Y and Z functions
    of gamma alone.

    Every product is one row of `coef`: m rows for the <Z_u> and four per
    coupling, twice the arguments of C, with the entries of u and v that a
    product skips held at 0 (cos 0 = 1) and the one-field factor written
    into u's entry.  Nothing of size 2^m is built: a gamma costs
    O((m + couplings) * m) cosines.
    """

    def __init__(self, ising: IsingInstance) -> None:
        m = ising.m
        self.h = np.asarray(ising.h, dtype=np.float64)
        u, v = np.array(list(ising.J), dtype=np.int64).reshape(-1, 2).T
        self.j = np.array(list(ising.J.values()), dtype=np.float64)
        couple = np.zeros((m, m))
        couple[u, v] = couple[v, u] = self.j
        rows = [couple]
        k = np.arange(len(self.j))
        for a, b in ((1.0, 0.0), (0.0, 1.0), (1.0, -1.0), (1.0, 1.0)):
            block = a * couple[u] + b * couple[v]
            block[k, u] = a * self.h[u] + b * self.h[v]
            block[k, v] = 0.0
            rows.append(block)
        self.coef = 2.0 * np.concatenate(rows)

    def _xyz(self, gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """X, Y and Z at each of the gammas, real or complex, elementwise (no BLAS)."""
        m, pairs = len(self.h), len(self.j)
        prods = np.cos(gammas[:, None, None] * self.coef).prod(-1)
        single, one, other, minus, plus = np.split(prods, [m, m + pairs, m + 2 * pairs, m + 3 * pairs], -1)
        x = (single * np.sin(gammas[:, None] * (2.0 * self.h)) * self.h).sum(-1)
        y = ((one + other) * np.sin(gammas[:, None] * (2.0 * self.j)) * self.j).sum(-1)
        z = ((minus - plus) * (0.5 * self.j)).sum(-1)
        return x, y, z

    def screen(self, betas: np.ndarray, gammas: np.ndarray) -> list[float]:
        """Expectation of each row's (beta, gamma), as _Workspace.screen returns
        it, with at most SCREEN_ENTRIES cosines per pass."""
        step = max(1, SCREEN_ENTRIES // (self.coef.size or 1))  # m = 0 has no cosines
        values = []
        for first in range(0, len(betas), step):
            x, y, z = self._xyz(gammas[first : first + step, 0])
            twice = 2.0 * betas[first : first + step, 0]
            s, c = np.sin(twice), np.cos(twice)
            values += (s * x + c * s * y + s * s * z).tolist()
        return values

    def value_and_grad(self, betas, gammas) -> tuple[float, np.ndarray]:
        """The expectation and its gradient over (beta, gamma), as
        _Workspace.value_and_grad returns them.

        d/dbeta = 2c X + 2 cos(4 beta) Y + 4 s c Z.  d/dgamma is the complex
        step Im f(gamma + i*GAMMA_STEP) / GAMMA_STEP (Squire & Trapp, SIAM
        Rev. 40, 1998): no difference is taken, so nothing cancels, and the
        same complex evaluation gives the value as its real part.
        """
        x, y, z = (t[0] for t in self._xyz(np.array([gammas[0] + 1j * GAMMA_STEP])))
        s, c = math.sin(2.0 * betas[0]), math.cos(2.0 * betas[0])
        value = s * x + c * s * y + s * s * z
        d_beta = 2.0 * c * x.real + 2.0 * math.cos(4.0 * betas[0]) * y.real + 4.0 * s * c * z.real
        return float(value.real), np.array([d_beta, value.imag / GAMMA_STEP])


def optimize(
    ising: IsingInstance,
    p: int,
    config: OptimizerConfig = OptimizerConfig(),
    seed: int = 0,
    shots: int = 1024,
) -> QaoaResult:
    """Multi-start L-BFGS-B search over the 2p angles.

    The objective is the analytic expectation (no shot noise) of the
    ansatz state with its gradient: at p = 1 from _ClosedForm, which never
    builds the state, and at p >= 2 from _Workspace.value_and_grad.  The search
    runs on the energy table divided by scale = max|E| (1 when the table is
    all zero): its variables are beta and scale * gamma, its objective the
    expectation divided by scale.  Angles are drawn uniformly from beta in
    [0, pi) and gamma in [0, 2*pi), so scale * gamma spans [0, 2*pi*scale):
    the deep minima of penalty-dominated tables lie there, among many shallow
    ones, not in the table's first period.  Each start is the draw with the
    lowest expectation out of START_DRAWS and runs L-BFGS-B for at most
    config.maxiter iterations.  All starts * START_DRAWS draws are taken up
    front, in the order per-draw calls would take them, and screened by the
    same evaluator (at p >= 2, one state per draw); a start takes the first
    of its lowest values.  The best angles any evaluation saw win; the
    reported expectation is theirs on the unscaled table, and the sample of
    `shots` draws is taken once, from the kernel's state at those angles.
    One _Workspace is built at every p: it serves the screening and every
    evaluation at p >= 2, and that last state at every p.
    metadata["evals"] counts value+gradient calls over all starts,
    metadata["converged"] says whether the winning start's L-BFGS-B run
    reported success and metadata["converged_starts"] how many starts did;
    metadata["optimum_probability"] is that last state's probability mass on
    the basis states of the lowest table energy.
    """
    check_depth(p)
    check_shots(shots)
    check_int(seed, "seed", 0)
    from scipy.optimize import minimize  # here, so that only QAOA loads scipy

    start = time.perf_counter()
    table = energy_table(ising)
    scale = float(np.max(np.abs(table))) or 1.0

    start_seq, sample_seq = np.random.SeedSequence(seed).spawn(2)
    work = _Workspace(ising.m, table)
    evaluator = _ClosedForm(ising) if p == 1 else work
    # Draw by draw, p betas in [0, pi) then p gammas in [0, 2*pi), as two
    # uniform calls per draw would take them.
    angles = np.random.default_rng(start_seq).uniform(
        0.0, [[math.pi], [2.0 * math.pi]], size=(config.starts * START_DRAWS, 2, p)
    )
    screened = evaluator.screen(angles[:, 0], angles[:, 1])
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
            val, grad = evaluator.value_and_grad(theta[:p], gammas)
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
    # The sample's |amplitude|^2 reuses scratch's memory, so it needs no buffer of its own.
    probs = work.probabilities(work.state(params.betas, params.gammas))
    optimum_probability = float(probs[table == table.min()].sum())
    drawn = _draw(probs, shots, int(sample_seq.generate_state(1)[0]))
    keys = [_assignment(b, ising.m) for b in drawn]
    counts = dict(zip(keys, drawn.values()))
    # The lowest table energy drawn; among equal energies, the smallest string.
    best_energy, best_bitstring = min(zip(table[list(drawn)].tolist(), keys))
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
        "optimum_probability": optimum_probability,
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


def scan_layers(
    ising: IsingInstance,
    depths: range,
    shots: int = 1024,
    seed: int = 0,
    target_energy: float | None = None,
) -> tuple[list[QaoaResult], int | None]:
    """Optimize at each p of ``depths``, range(p, p + 1) or range(1, p_max + 1), under
    the seed SeedSequence([seed, p]), so a scan prefix is a standalone shorter scan.

    ``depths`` (a range), its first and last (as p_max) depths, the seed and
    ``target_energy`` (None or a number) are checked first.  Returns all results
    and the first p whose sample reached ``target_energy`` (QUBO units, offset
    folded in, constant c excluded), or None if none did or it is None.
    """
    if not isinstance(depths, range):
        raise ConfigError(f"depths must be a range, got {depths!r}")
    if not depths:
        raise ConfigError(f"the depth range is empty: {depths!r}")
    check_depth(depths[0])
    check_depth(depths[-1], "p_max")
    check_int(seed, "seed", 0)
    if target_energy is not None:
        check_real(target_energy, "target energy")
    results: list[QaoaResult] = []
    for p in depths:
        seed_p = int(np.random.SeedSequence([seed, p]).generate_state(1)[0])
        results.append(optimize(ising, p, seed=seed_p, shots=shots))
        if target_energy is not None and math.isclose(
            results[-1].metadata["best_sampled_qubo_energy"], target_energy, rel_tol=1e-9, abs_tol=1e-9
        ):
            return results, p
    return results, None
