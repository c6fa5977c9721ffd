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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasibleError, check_int, check_real
from .game import CoalitionGame, CoalitionStructure, n_coalitions

ENERGY_BLOCK = 1 << 16  # coupling entries one numpy pass reads or builds


@dataclass(frozen=True, eq=False)
class BilpInstance:
    """Set-partition integer program: max v.x subject to Sx = 1.

    Variable j is coalition ``columns[j]`` (int64, ascending), worth
    ``values[j]`` (float64).  The constraint matrix S is not materialized:
    row i holds the variables whose coalition has bit i set (agent_counts).
    """

    n: int
    columns: np.ndarray
    values: np.ndarray

    @property
    def num_variables(self) -> int:
        return len(self.columns)


def agent_counts(columns: np.ndarray, n: int) -> list[int]:
    """For each of the n agents, how many of ``columns`` contain it."""
    return [int(np.count_nonzero(columns & (1 << a))) for a in range(n)]


def check_exclusions(n: int, exclude) -> frozenset[int]:
    """``exclude`` as a frozenset of coalition indices for n agents, checked in
    O(n * |exclude|): a str, bytes or other non-collection, an index that is not an integer
    (check_int) or outside 1..2^n - 1 is a ConfigError, and excluding all 2^(n-1) coalitions
    of some agent (so no partition exists) an InfeasibleError."""
    if isinstance(exclude, (str, bytes)) or not hasattr(exclude, "__iter__"):
        raise ConfigError(f"exclude must be a collection of coalition indices, got {exclude!r}")
    full = n_coalitions(n)
    exclude = frozenset(check_int(c, "excluded coalition", 1) for c in exclude)
    for c in exclude:
        if c > full:
            raise ConfigError(f"excluded coalition {c} out of range 1..{full}")
    counts = agent_counts(np.fromiter(exclude, np.int64, len(exclude)), n)
    uncovered = [a + 1 for a, count in enumerate(counts) if count == 1 << (n - 1)]
    if uncovered:
        raise InfeasibleError(f"agents {uncovered} appear in no remaining coalition")
    return exclude


def build_bilp(game: CoalitionGame, exclude: set[int] | frozenset[int] = frozenset()) -> BilpInstance:
    """Build the covering program without the ``exclude`` coalitions (see check_exclusions)."""
    exclude = check_exclusions(game.n, exclude)
    keep = np.ones(len(game.values), dtype=bool)
    keep[[0, *exclude]] = False
    columns = np.flatnonzero(keep)
    values = game.values[columns]
    columns.flags.writeable = values.flags.writeable = False
    return BilpInstance(n=game.n, columns=columns, values=values)


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
    return 1.0 + 2.0 * sum(np.abs(bilp.values).tolist())


def coupling_counts(bilp: BilpInstance) -> np.ndarray:
    """|C_i & C_j| as a symmetric m x m uint8 array, zero on the diagonal (counts are
    at most n): the one place the coupling rule reads the columns.  Coupling (i, j)
    of the QUBO is 2*lam times entry (i, j).  Rows are filled about ENERGY_BLOCK
    entries at a time, so no m x m int64 temporary is held."""
    cols = bilp.columns
    m = len(cols)
    counts = np.empty((m, m), dtype=np.uint8)
    step = max(1, ENERGY_BLOCK // m)
    for first in range(0, m, step):
        block = counts[first : first + step]
        np.bitwise_count(cols[first : first + step, None] & cols, out=block)
        np.fill_diagonal(block[:, first:], 0)
    return counts


def upper_couplings(counts: np.ndarray):
    """(i, j, counts[i, j]) for the nonzero counts of each row i with j > i, row by
    row and j ascending: the order build_qubo inserts its couplings in."""
    for i, row in enumerate(counts):
        j = np.flatnonzero(row[i + 1 :]) + (i + 1)
        yield i, j, row[j]


def check_penalty(lam: float) -> float:
    """lam as a float; one that is not a positive finite number is a ConfigError."""
    lam = check_real(lam, "penalty weight")
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
    with np.errstate(over="ignore"):  # an overflow is refused below
        diag = tuple((-bilp.values - lam * np.bitwise_count(bilp.columns)).tolist())
    # The couplings sum to lam times the ordered pairs of columns that share an agent.
    shared = sum(k * (k - 1) for k in agent_counts(bilp.columns, bilp.n))
    if not math.isfinite(sum(map(abs, diag)) + lam * shared + 2.0 * lam * bilp.n):
        raise ConfigError(f"penalty weight {lam} makes the QUBO's coefficients overflow a float")
    return lam, diag


def penalty_terms(bilp: BilpInstance, lam: float | None = None):
    """penalty_diagonal's lam and diag, then coupling_counts and the n + 1 levels[k] =
    (2*lam)*k: coupling (i, j) of the QUBO is levels[counts[i, j]], the one array form
    that SA, qubo-brute and the export writers read."""
    lam, diag = penalty_diagonal(bilp, lam)
    return lam, diag, coupling_counts(bilp), (2.0 * lam) * np.arange(bilp.n + 1)


def build_qubo(bilp: BilpInstance, lam: float | None = None) -> QuboInstance:
    """Fold Sx = 1 into the objective with penalty weight lam.

    Minimizes lam * ||Sx - 1||^2 - v.x.  Expanding the square gives
    diagonal terms -v_j - lam*|C_j| (penalty_diagonal, which also checks
    lam), off-diagonal terms 2*lam*|C_i & C_j| for intersecting pairs
    (levels[counts] of penalty_terms), and the constant lam*n.
    """
    lam, diag, counts, levels = penalty_terms(bilp, lam)
    offdiag = {}
    for i, j, k in upper_couplings(counts):
        offdiag.update(zip(zip([i] * len(j), j.tolist()), levels[k].tolist()))
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


def matrix_energy(diag, counts: np.ndarray, levels: np.ndarray, x) -> float:
    """qubo_energy of the QUBO with this diagonal and couplings levels[counts] (see
    penalty_terms), bit for bit, without its offdiag dict.

    The selected diagonal entries are summed as qubo_energy sums them; the
    nonzero couplings among the set bits are then added one at a time in
    row-major upper-triangle order, which is the order build_qubo inserts
    them in (np.cumsum adds sequentially).  Rows are read about ENERGY_BLOCK
    entries at a time, so the temporaries stay small next to ``counts``.
    An all-zero x gives the int 0.
    """
    bits = _as_bits(x, len(diag))
    energy = sum(d for d, b in zip(diag, bits) if b)
    on = np.flatnonzero(bits)
    step = max(1, ENERGY_BLOCK // (len(on) or 1))
    for first in range(0, len(on), step):
        rows = counts[np.ix_(on[first : first + step], on)]
        # Row r is set bit first + r: keep its couplings to later set bits only.
        rows[np.arange(first, first + len(rows))[:, None] >= np.arange(len(on))] = 0
        pairs = levels[rows[rows != 0]]
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


def ising_fields(diag, counts: np.ndarray, quarters) -> tuple[list[float], float]:
    """h and offset of qubo_to_ising, bit for bit, for the QUBO with this diagonal and
    coupling_counts matrix, where quarters[k] is the Ising coupling of count k.

    qubo_to_ising adds to h[i] the quarters of row i's couplings in ascending
    column order, and to the offset those of the upper triangle in row-major
    order.  np.cumsum adds sequentially.  Each row is summed over its zero
    entries too: adding 0.0 changes no sum except a start of -0.0, so a row with
    no coupling keeps d_i / 2 as it is.  Rows are read about ENERGY_BLOCK entries
    at a time.
    """
    quarters = np.asarray(quarters, dtype=float)
    halves = np.asarray(diag, dtype=float) / 2.0
    h = []
    offset = sum(diag) / 2.0
    step = max(1, ENERGY_BLOCK // len(counts))
    for first in range(0, len(counts), step):
        block = counts[first : first + step]
        start = halves[first : first + len(block)]
        q = quarters[block]
        sums = np.cumsum(np.concatenate((start[:, None], q), axis=1), axis=1)[:, -1]
        h += np.where(block.any(axis=1), sums, start).tolist()
        upper = q[np.triu(block, first + 1) != 0]
        offset = np.cumsum(np.concatenate(([offset], upper)))[-1].item()
    return h, offset


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
    selected = bilp.columns[np.flatnonzero(bits)]
    counts = agent_counts(selected, bilp.n)
    xs = "".join(str(b) for b in bits)
    if all(count == 1 for count in counts):
        return DecodedSolution(x=xs, feasible=True, cs=CoalitionStructure(selected.tolist()), violation=None)
    return DecodedSolution(x=xs, feasible=False, cs=None, violation=tuple(c - 1 for c in counts))


def encode_structure(cs: CoalitionStructure, bilp: BilpInstance) -> str:
    """Bitstring selecting exactly the blocks of cs; inverse of decode_solution."""
    index = {c: j for j, c in enumerate(bilp.columns.tolist())}
    bits = ["0"] * bilp.num_variables
    for block in cs.blocks:
        if block not in index:
            raise ConfigError(f"block {block} is not a variable of this program (excluded?)")
        bits[index[block]] = "1"
    return "".join(bits)
