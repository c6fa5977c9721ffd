"""Game -> BILP -> QUBO -> Ising transform chain.

The BILP has one binary variable per nonempty coalition (maximize total
value subject to covering each agent exactly once).  The QUBO folds the
covering constraints in as quadratic penalties and flips to minimization;
the Ising form substitutes x = (1 + z) / 2.

Variable ``j`` of the QUBO corresponds to ``columns[j]``, the j-th
surviving coalition index in ascending order.  With no exclusions this
makes variable ``j`` the coalition with index ``j + 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InfeasibleError
from .game import CoalitionGame, CoalitionStructure, n_coalitions

ENERGY_BLOCK = 1 << 20  # coupling entries matrix_energy reads per numpy pass


@dataclass(frozen=True)
class BilpInstance:
    """Set-partition integer program: max v.x subject to Sx = 1.

    The constraint matrix S is not materialized; row i is recoverable
    from ``row_masks[i]``, a bitmask over variables with bit j set iff
    agent a_{i+1} belongs to coalition ``columns[j]``.
    """

    n: int
    columns: tuple[int, ...]
    values: tuple[float, ...]
    excluded: frozenset[int] = frozenset()
    row_masks: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        masks = []
        for agent_bit in range(self.n):
            mask = 0
            for j, c in enumerate(self.columns):
                if c >> agent_bit & 1:
                    mask |= 1 << j
            masks.append(mask)
        object.__setattr__(self, "row_masks", tuple(masks))

    @property
    def num_variables(self) -> int:
        return len(self.columns)


def build_bilp(game: CoalitionGame, exclude: set[int] | frozenset[int] = frozenset()) -> BilpInstance:
    """Build the covering program, optionally dropping some coalitions.

    Raises InfeasibleError if the exclusions leave some agent with no
    coalition containing it (so no partition can exist).
    """
    full = n_coalitions(game.n)
    exclude = frozenset(int(c) for c in exclude)
    for c in exclude:
        if not 1 <= c <= full:
            raise ConfigError(f"excluded coalition {c} out of range 1..{full}")
    columns = tuple(c for c in range(1, full + 1) if c not in exclude)
    covered = 0
    for c in columns:
        covered |= c
    if covered != full:
        uncovered = [i + 1 for i in range(game.n) if not covered >> i & 1]
        raise InfeasibleError(f"agents {uncovered} appear in no remaining coalition")
    values = tuple(game.values[c] for c in columns)
    return BilpInstance(n=game.n, columns=columns, values=values, excluded=exclude)


@dataclass(frozen=True)
class QuboInstance:
    """Minimization QUBO: energy(x) = sum_i diag[i] x_i + sum_{i<j} offdiag[i,j] x_i x_j.

    The additive constant ``c`` is tracked but deliberately excluded
    from qubo_energy so that reported energies stay comparable with the
    Ising form, which carries the same constant split into its offset.
    """

    m: int
    diag: tuple[float, ...]
    offdiag: dict[tuple[int, int], float]
    c: float
    lam: float | None = None

    def __post_init__(self) -> None:
        if len(self.diag) != self.m:
            raise ConfigError(f"diag has {len(self.diag)} entries, expected m={self.m}")
        for (i, j) in self.offdiag:
            if not (0 <= i < j < self.m):
                raise ConfigError(f"off-diagonal key ({i}, {j}) violates 0 <= i < j < m={self.m}")

    @property
    def interaction_count(self) -> int:
        """Number of nonzero off-diagonal couplings (the sparsity s)."""
        return len(self.offdiag)


def default_penalty(bilp: BilpInstance) -> float:
    """Penalty weight large enough that every infeasible x costs more than any feasible one."""
    return 1.0 + 2.0 * sum(abs(v) for v in bilp.values)


def coupling_matrix(bilp: BilpInstance, lam: float) -> np.ndarray:
    """Couplings 2*lam*|C_i & C_j| as a dense symmetric m x m array, zero on the
    diagonal: the one place that rule is evaluated (build_qubo and the solvers)."""
    cols = np.array(bilp.columns, dtype=np.int64)
    couple = (2.0 * lam) * np.bitwise_count(cols[:, None] & cols)
    np.fill_diagonal(couple, 0.0)
    return couple


def check_penalty(lam: float) -> float:
    """lam as a float; one that is not a positive finite number is a ConfigError."""
    lam = float(lam)
    if not 0 < lam < math.inf:
        raise ConfigError(f"penalty weight must be positive and finite, got {lam}")
    return lam


def penalty_diagonal(bilp: BilpInstance, lam: float | None = None) -> tuple[float, tuple[float, ...]]:
    """The checked penalty weight (default_penalty(bilp) when None) and the QUBO
    diagonal -v_j - lam*|C_j|, in O(n + m): the checks every coupling build waits for.

    A penalty that is not a positive finite number is a ConfigError, and so
    is one whose coefficients' magnitudes, which bound every energy, sum to
    more than a float holds.
    """
    lam = check_penalty(default_penalty(bilp) if lam is None else lam)
    diag = tuple(-v - lam * c.bit_count() for v, c in zip(bilp.values, bilp.columns))
    # The couplings sum to lam times the ordered pairs of columns that share an agent.
    shared = sum(c * (c - 1) for c in map(int.bit_count, bilp.row_masks))
    if not math.isfinite(sum(map(abs, diag)) + lam * shared + 2.0 * lam * bilp.n):
        raise ConfigError(f"penalty weight {lam} makes the QUBO's coefficients overflow a float")
    return lam, diag


def build_qubo(bilp: BilpInstance, lam: float | None = None) -> QuboInstance:
    """Fold Sx = 1 into the objective with penalty weight lam.

    Minimizes lam * ||Sx - 1||^2 - v.x.  Expanding the square gives
    diagonal terms -v_j - lam*|C_j| (penalty_diagonal, which also checks
    lam), off-diagonal terms 2*lam*|C_i & C_j| for intersecting pairs
    (coupling_matrix), and the constant lam*n.
    """
    lam, diag = penalty_diagonal(bilp, lam)
    offdiag = {}
    for i, row in enumerate(coupling_matrix(bilp, lam)):
        j = np.flatnonzero(row[i + 1 :]) + (i + 1)
        offdiag.update(zip(zip([i] * len(j), j.tolist()), row[j].tolist()))
    return QuboInstance(m=len(diag), diag=diag, offdiag=offdiag, c=lam * bilp.n, lam=lam)


def quadratic_table(linear, quadratic, start: float = 0.0) -> np.ndarray:
    """start + sum_j linear[j] b_j + sum_{i<j} quadratic[i, j] b_i b_j, b_j = bit j of b, for
    every b < 2^m, by doubling: E[b | 2^j] = E[b] + linear[j] + sum_{i<j} quadratic[i, j] b_i,
    the last sum doubled in the half it fills.  O(2^m); the table is its only allocation."""
    table = np.empty(1 << len(linear))
    table[0] = start
    for j, d in enumerate(linear):
        half = table[1 << j : 2 << j]
        half[0] = d
        for i, q in enumerate(quadratic[:j, j]):
            np.add(half[: 1 << i], q, out=half[1 << i : 2 << i])
        half += table[: 1 << j]
    return table


def _as_bits(x, m: int) -> list[int]:
    if isinstance(x, str):
        bits = [int(ch) for ch in x]
    else:
        bits = [int(b) for b in x]
    if len(bits) != m:
        raise ConfigError(f"assignment has {len(bits)} bits, expected {m}")
    if any(b not in (0, 1) for b in bits):
        raise ConfigError("assignment bits must be 0 or 1")
    return bits


def qubo_energy(qubo: QuboInstance, x) -> float:
    """Energy of an assignment, excluding the constant c.

    ``x`` may be a bitstring or a 0/1 sequence; position k is variable k.
    """
    bits = _as_bits(x, qubo.m)
    energy = sum(d for d, b in zip(qubo.diag, bits) if b)
    for (i, j), val in qubo.offdiag.items():
        if bits[i] and bits[j]:
            energy += val
    return energy


def matrix_energy(diag, couple: np.ndarray, x) -> float:
    """qubo_energy of the QUBO with this diagonal and coupling_matrix ``couple``,
    bit for bit, without its offdiag dict.

    The selected diagonal entries are summed as qubo_energy sums them; the
    nonzero couplings among the set bits are then added one at a time in
    row-major upper-triangle order, which is the order build_qubo inserts
    them in (np.cumsum adds sequentially).  Rows are read about ENERGY_BLOCK
    entries at a time, so the temporaries stay small next to ``couple``.
    An all-zero x gives the int 0.
    """
    bits = _as_bits(x, len(diag))
    energy = sum(d for d, b in zip(diag, bits) if b)
    on = np.flatnonzero(bits)
    step = max(1, ENERGY_BLOCK // (len(on) or 1))
    for first in range(0, len(on), step):
        rows = couple[np.ix_(on[first : first + step], on)]
        # Row r is set bit first + r: keep its couplings to later set bits only.
        rows[np.arange(first, first + len(rows))[:, None] >= np.arange(len(on))] = 0.0
        pairs = rows[rows != 0.0]
        if len(pairs):
            energy = np.cumsum(np.concatenate(([energy], pairs)))[-1].item()
    return energy


@dataclass(frozen=True)
class IsingInstance:
    """Spin model: energy(z) = sum_i h[i] z_i + sum_{i<j} J[i,j] z_i z_j.

    Satisfies energy(z) + offset == qubo_energy(x) for x = (1 + z) / 2,
    with the QUBO constant c kept outside on both sides.
    """

    m: int
    h: tuple[float, ...]
    J: dict[tuple[int, int], float]
    offset: float

    def __post_init__(self) -> None:
        if len(self.h) != self.m:
            raise ConfigError(f"h has {len(self.h)} entries, expected m={self.m}")
        for (i, j) in self.J:
            if not (0 <= i < j < self.m):
                raise ConfigError(f"coupling key ({i}, {j}) violates 0 <= i < j < m={self.m}")


def qubo_to_ising(qubo: QuboInstance) -> IsingInstance:
    """Substitute x_i = (1 + z_i) / 2 and collect terms by spin degree."""
    h = [d / 2.0 for d in qubo.diag]
    J = {}
    offset = sum(qubo.diag) / 2.0
    for (i, j), val in qubo.offdiag.items():
        J[(i, j)] = val / 4.0
        h[i] += val / 4.0
        h[j] += val / 4.0
        offset += val / 4.0
    return IsingInstance(m=qubo.m, h=tuple(h), J=J, offset=offset)


def ising_energy(ising: IsingInstance, z) -> float:
    """Energy of a spin assignment; entries of z must be +1 or -1."""
    spins = [int(s) for s in z]
    if len(spins) != ising.m:
        raise ConfigError(f"assignment has {len(spins)} spins, expected {ising.m}")
    if any(s not in (-1, 1) for s in spins):
        raise ConfigError("spins must be +1 or -1")
    energy = sum(hi * s for hi, s in zip(ising.h, spins))
    for (i, j), val in ising.J.items():
        energy += val * spins[i] * spins[j]
    return energy


@dataclass(frozen=True)
class DecodedSolution:
    """A QUBO assignment read back as a candidate coalition structure."""

    x: str
    feasible: bool
    cs: CoalitionStructure | None
    violation: tuple[int, ...] | None


def decode_solution(bilp: BilpInstance, x) -> DecodedSolution:
    """Map an assignment to the selected coalitions and check the covering rows.

    ``violation`` holds (Sx - 1) per agent when infeasible, None when feasible.
    """
    bits = _as_bits(x, bilp.num_variables)
    selected = 0
    for j, b in enumerate(bits):
        if b:
            selected |= 1 << j
    counts = [(bilp.row_masks[i] & selected).bit_count() for i in range(bilp.n)]
    xs = "".join(str(b) for b in bits)
    if all(count == 1 for count in counts):
        blocks = [bilp.columns[j] for j, b in enumerate(bits) if b]
        return DecodedSolution(x=xs, feasible=True, cs=CoalitionStructure(blocks), violation=None)
    return DecodedSolution(x=xs, feasible=False, cs=None, violation=tuple(c - 1 for c in counts))


def encode_structure(cs: CoalitionStructure, bilp: BilpInstance) -> str:
    """Bitstring selecting exactly the blocks of cs; inverse of decode_solution."""
    index = {c: j for j, c in enumerate(bilp.columns)}
    bits = ["0"] * bilp.num_variables
    for block in cs.blocks:
        if block not in index:
            raise ConfigError(f"block {block} is not a variable of this program (excluded?)")
        bits[index[block]] = "1"
    return "".join(bits)
