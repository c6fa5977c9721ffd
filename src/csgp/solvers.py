"""Classical solvers: exact oracles over partitions and QUBO-space search.

Every solver returns a SolveReport.  Reports are deterministic for a
fixed input and seed; wall-clock time lives in a separate ``timing``
block so that serialized reports can be compared byte-for-byte with the
timing stripped.

Tie-breaking is uniform across solvers: among equal-value optima the
structure whose ascending block-index tuple is lexicographically
smallest wins, and in QUBO space a feasible assignment beats an
infeasible one of equal energy.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sized
from dataclasses import dataclass, field, replace

import numpy as np

from . import qaoa
from .errors import ConfigError, ResourceLimitError, check_int, check_real
from .game import CoalitionGame, CoalitionStructure, n_coalitions
from .transform import (
    BilpInstance,
    QuboInstance,
    build_bilp,
    build_qubo,
    check_exclusions,
    check_penalty,
    decode_solution,
    matrix_energy,
    penalty_terms,
    quadratic_table,
    qubo_energy,
    qubo_to_ising,
)

ENUM_MAX_AGENTS = 12
DP_MAX_AGENTS = 20
DP_CHUNK = 1 << 15  # splits solve_dp evaluates per numpy pass
ENUM_CHUNK = 1 << 12  # partitions of agents 0..n-2 solve_enum extends and scores per pass
BRUTE_MAX_VARIABLES = 24
SA_MAX_VARIABLES = 1 << 15
# sweeps * restarts: every sweep keeps a temperature, and a trace entry per restart.
SA_MAX_SWEEPS = 1 << 23

METHODS = ("enum", "dp", "qubo-brute", "sa", "qaoa")
# Largest game each exact method accepts, in agents.
AGENT_LIMITS = {"enum": ENUM_MAX_AGENTS, "dp": DP_MAX_AGENTS}
# Largest QUBO each QUBO method accepts, checked before the BILP and its O(m^2) couplings are built.
VARIABLE_LIMITS = {
    "qubo-brute": BRUTE_MAX_VARIABLES,
    "sa": SA_MAX_VARIABLES,
    "qaoa": qaoa.SIMULATOR_MAX_QUBITS,
}


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solver run.

    ``best_cs`` and ``best_value`` are None when the run ended on an
    infeasible assignment (possible for sampling solvers).  ``metadata``
    holds solver-specific counters and parameters; ``timing`` holds
    wall-clock measurements and nothing else.  ``qaoa_results`` holds the
    QaoaResult of every depth a QAOA run optimized; ``to_json`` leaves it out.
    """

    method: str
    best_cs: CoalitionStructure | None
    best_value: float | None
    feasible: bool
    metadata: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)
    qaoa_results: tuple = ()

    def to_json(self, include_timing: bool = True) -> dict:
        doc = {
            "method": self.method,
            "feasible": self.feasible,
            "best_value": self.best_value,
            "best_blocks": list(self.best_cs.blocks) if self.best_cs is not None else None,
            "metadata": self.metadata,
        }
        if include_timing:
            doc["timing"] = self.timing
        return doc


def partitions(n: int):
    """Yield every partition of n agents as a tuple of coalition masks.

    Agents are placed one at a time into an existing block or a fresh
    one, so blocks appear in order of their lowest member and the whole
    sequence is deterministic.
    """

    def place(agent: int, blocks: list[int]):
        if agent == n:
            yield tuple(blocks)
            return
        bit = 1 << agent
        for k in range(len(blocks)):
            blocks[k] |= bit
            yield from place(agent + 1, blocks)
            blocks[k] ^= bit
        blocks.append(bit)
        yield from place(agent + 1, blocks)
        blocks.pop()

    yield from place(0, [])


def _smallest_blocks(part: np.ndarray) -> tuple[int, ...]:
    """The lexicographically smallest ascending block tuple among the
    partitions in the columns of ``part`` (block masks, 0 for an unused slot)."""
    # Two partitions of one agent set never have one ascending tuple as a
    # proper prefix of the other, so padding with a mask above every block
    # compares as the tuples do.
    keys = np.sort(np.where(part, part, np.uint16(0xFFFF)), axis=0)
    for s in range(len(keys)):
        keys = keys[:, keys[s] == keys[s].min()]
    return tuple(b for b in keys[:, 0].tolist() if b != 0xFFFF)


def solve_enum(game: CoalitionGame) -> SolveReport:
    """Exact solver by full partition enumeration (Bell-number cost).

    Every partition that ``partitions`` yields is built and scored, in numpy.
    The partitions of agents 0..n-2 are held as columns of uint16 block masks,
    one slot per block in order of the block's lowest member (the order
    ``partitions`` gives) and 0 in unused slots: Bell(n - 1) * n * 2 bytes,
    16 MB at n = 12.  They are grown one agent at a time: for each slot s,
    every partition with at least s blocks, with the agent added to block s
    (a new block when it has exactly s).  The last agent is placed the same
    way while scoring, ENUM_CHUNK prefix partitions per pass.

    A partition's value is 0.0 plus v(block) for each block in slot order,
    left to right, as ``sum(values[b] for b in blocks)`` adds on Python 3.11.
    The running sum over slots 0..k-1 is shared by the placements in slots
    k, k+1, ..., so best_value is bitwise that loop's.  The partitions tied at a
    pass's maximum are narrowed to their smallest ascending block tuple in
    numpy, and that tuple is compared with the best so far: ties resolve to
    the lexicographically smallest tuple, as the loop's did.
    """
    if game.n > ENUM_MAX_AGENTS:
        raise ResourceLimitError(
            f"enumeration is limited to {ENUM_MAX_AGENTS} agents, got {game.n}"
        )
    start = time.perf_counter()
    n = game.n
    fv = game.values
    blocks = np.zeros((n, 1), dtype=np.uint16)  # the one partition of no agents
    count = np.zeros(1, dtype=np.uint8)  # blocks per partition
    for agent in range(n - 1):
        grown = np.empty((n, int(count.sum()) + len(count)), dtype=np.uint16)
        grown_count = np.empty(grown.shape[1], dtype=np.uint8)
        end = 0
        for s in range(agent + 1):
            keep = count >= s
            first, end = end, end + np.count_nonzero(keep)
            grown[:, first:end] = blocks[:, keep]
            grown[s, first:end] |= 1 << agent
            np.maximum(count[keep], s + 1, out=grown_count[first:end])
        blocks, count = grown, grown_count

    bit = 1 << (n - 1)
    best_value = -math.inf
    best_blocks: tuple[int, ...] | None = None
    examined = 0
    for first in range(0, len(count), ENUM_CHUNK):
        # Most blocks first, so the partitions with at least k blocks are the
        # first at_least[k].
        chunk = count[first : first + ENUM_CHUNK]
        order = np.argsort(chunk, kind="stable")[::-1]
        part = blocks[:, first : first + ENUM_CHUNK].take(order, axis=1)
        most = int(chunk[order[0]])
        at_least = np.bincount(chunk, minlength=most + 2)[::-1].cumsum()[::-1].tolist()
        vals = fv.take(part)
        head = np.zeros(len(order))  # 0.0 plus the values of slots 0..k-1
        for k in range(most + 1):
            placed = at_least[k]
            examined += placed
            value = head[:placed] + fv.take(part[k, :placed] | bit)
            for c in range(k + 1, most):
                value[: at_least[c + 1]] += vals[c, : at_least[c + 1]]
            head[: at_least[k + 1]] += vals[k, : at_least[k + 1]]
            top = value.max().item()
            if top >= best_value:
                tied = part[:, np.flatnonzero(value == top)]
                tied[k] |= bit
                key = _smallest_blocks(tied)
                if top > best_value or key < best_blocks:
                    best_value = top
                    best_blocks = key
    elapsed = (time.perf_counter() - start) * 1e3
    return SolveReport(
        method="enum",
        best_cs=CoalitionStructure(best_blocks),
        best_value=best_value,
        feasible=True,
        metadata={"n": game.n, "partitions_examined": examined},
        timing={"wall_ms": elapsed},
    )


def solve_dp(game: CoalitionGame) -> SolveReport:
    """Exact solver by dynamic programming over agent subsets.

    The best partition value of a subset T is f(T) = max(v(T), max over
    splits f(T1) + f(T \\ T1)), where T1 ranges over the proper subsets of
    T that contain T's lowest agent.  Subsets are taken one popcount layer
    at a time, so a split only reads finished layers.

    As in IDP (Rahwan & Jennings, AAMAS 2008), the layers with 2n/3 < |T| < n
    are not split: there f(T) = v(T), the value of the one-block partition.
    N still reaches every partition.  Build a partition's merge tree by
    always merging its two smallest parts a <= b.  While a third part c >= b
    remains, 3(a + b) / 2 <= a + b + c <= n, so every merge below the root
    has at most 2n/3 agents and is a split of a kept layer.  So f(T) is
    exact only for |T| <= 2n/3 and for T = N (elsewhere a lower bound), and
    `splits` counts C(n, k) (2^(k-1) - 1) for k in 2..floor(2n/3) and k = n.

    Within a layer, numpy evaluates the splits of a block of subsets (about
    DP_CHUNK splits) at once, in the order of a scalar loop that starts from
    v(T), walks the submasks downwards and keeps a split only if it is
    strictly larger.  Every candidate is that loop's float sum, the first
    maximum wins and v(T) stays on equality, so f is bitwise the loop's.

    Ties resolve as in solve_enum, to the lexicographically smallest
    ascending block tuple.  A split that ties v(T) beats the block (T,):
    its smallest block is a proper subset of T, so a smaller index.  The
    smallest tuple of a union of disjoint parts is the union of each part's
    smallest tuple (blocks of disjoint parts never compare equal), so the
    merge tree above also reaches the smallest optimal tuple of N.  Each
    subset keeps only its chosen split and an exact integer key of its
    partition, sum over agents a in T of a! times the index of the lowest
    agent of a's block.  The key adds over disjoint blocks, names the
    partition uniquely (a mixed-radix number with digit a in 0..a) and stays
    below n! <= 20! < 2^63.  Tied splits with one key are one partition
    reached through different splits; block tuples are built (once per
    subset, from the chosen splits) and compared only where tied splits
    differ in key.  The answer's blocks are read back the same way.
    """
    if game.n > DP_MAX_AGENTS:
        raise ResourceLimitError(
            f"subset dynamic programming is limited to {DP_MAX_AGENTS} agents, got {game.n}"
        )
    start = time.perf_counter()
    n = game.n
    full = n_coalitions(n)
    f = game.values.copy()
    masks = np.arange(full + 1)
    size = np.bitwise_count(masks)
    # key[T] starts as the key of the one-block partition (T,): the index of
    # T's lowest agent times the sum of a! over T's agents a.
    key = np.zeros(full + 1, dtype=np.int64)
    for a in range(n):
        np.add(key[: 1 << a], math.factorial(a), out=key[1 << a : 2 << a])
    key *= np.bitwise_count((masks & -masks) - 1)
    split = np.zeros(full + 1, dtype=np.int64)  # chosen T1, or 0 for (T,)
    tuples: dict[int, tuple[int, ...]] = {}

    def blocks(t: int) -> tuple[int, ...]:
        """The ascending block tuple of subset t's chosen partition."""
        if t not in tuples:
            t1 = split.item(t)
            tuples[t] = tuple(sorted(blocks(t1) + blocks(t ^ t1))) if t1 else (t,)
        return tuples[t]

    splits = 0
    for k in range(2, n + 1):
        if 3 * k > 2 * n and k < n:
            continue  # f, split and key keep the one-block partition (T,)
        layer = np.flatnonzero(size == k)
        half = 1 << (k - 1)  # submasks of the k - 1 agents above the lowest
        splits += len(layer) * (half - 1)
        low = layer & -layer
        rest = layer ^ low
        higher = np.empty((k - 1, len(layer)), dtype=np.int64)  # rest's bits, lowest first
        left = rest.copy()
        for i in range(k - 1):
            np.bitwise_and(left, -left, out=higher[i])
            left ^= higher[i]
        step = max(1, DP_CHUNK // half)
        for first in range(0, len(layer), step):
            rows = slice(first, first + step)
            t = layer[rows]
            count = len(t)
            # Column c of sub is rest without the bits set in c: column 0 is
            # rest, column half - 1 - c is rest ^ sub[:, c], and columns 1..
            # are the splits' submasks in the scalar loop's order.
            sub = np.empty((count, half), dtype=np.int64)
            sub[:, 0] = rest[rows]
            for i in range(k - 1):
                w = 1 << i
                np.subtract(sub[:, :w], higher[i, rows, None], out=sub[:, w : 2 * w])
            f_sub = f.take(sub)
            sub += low[rows, None]  # now T1 = low | submask
            cand = f.take(sub)[:, 1:] + f_sub[:, half - 2 :: -1]  # f(T1) + f(T \ T1)
            win = cand.argmax(1)
            at = np.arange(count)
            best = cand[at, win]
            v = f[t]
            # Every split equal to its row's maximum, with the key of the
            # partition it reaches; each row's first maximum is one of them.
            tie_row, tie_col = np.divmod((cand == best[:, None]).ravel().nonzero()[0], half - 1)
            tie_t1 = sub[tie_row, tie_col + 1]
            tie_key = key[tie_t1] + key[t[tie_row] ^ tie_t1]
            win_key = tie_key[tie_col == win[tie_row]]
            win_t1 = sub[at, win + 1]
            chosen = best >= v
            odd = (tie_key != win_key[tie_row]) & chosen[tie_row]
            for row in dict.fromkeys(tie_row[odd].tolist()):
                lo, hi = np.searchsorted(tie_row, (row, row + 1)).tolist()  # tie_row is sorted
                whole = int(t[row])
                # One split per distinct partition; the smallest block tuple wins.
                options = dict(zip(tie_key[lo:hi].tolist(), tie_t1[lo:hi].tolist()))
                win_key[row], win_t1[row] = min(
                    options.items(), key=lambda kv: sorted(blocks(kv[1]) + blocks(whole ^ kv[1]))
                )
            f[t] = np.where(best > v, best, v)
            split[t[chosen]] = win_t1[chosen]
            key[t[chosen]] = win_key[chosen]
    elapsed = (time.perf_counter() - start) * 1e3
    return SolveReport(
        method="dp",
        best_cs=CoalitionStructure(blocks(full)),
        best_value=float(f[full]),
        feasible=True,
        metadata={"n": n, "splits": splits, "subsets": full},
        timing={"wall_ms": elapsed},
    )


def _pick_qubo_winner(bilp: BilpInstance, candidates: list[str]):
    """Resolve energy ties: feasible first, then smallest block tuple / bitstring."""
    best = None
    for x in candidates:
        decoded = decode_solution(bilp, x)
        rank = (
            0 if decoded.feasible else 1,
            tuple(decoded.cs.blocks) if decoded.feasible else (),
            decoded.x,
        )
        if best is None or rank < best[0]:
            best = (rank, decoded)
    return best[1]


def _report_from_assignment(method, bilp, decoded, energy, metadata, elapsed, *, s, lam, c):
    """Report of a decoded assignment to the QUBO of ``bilp`` with s nonzero couplings,
    penalty lam and constant c.  The QUBO fields below follow ``metadata`` in the
    JSON, except those it already holds a key for, which keep its place."""
    if decoded.feasible:
        best_value = sum(bilp.values[np.searchsorted(bilp.columns, decoded.cs.blocks)].tolist())
    else:
        best_value = None
    metadata = dict(metadata)
    metadata.update(
        {
            "m": bilp.num_variables,
            "s": s,
            "lambda": lam,
            "best_x": decoded.x,
            "best_energy": energy,
            "constant": c,
        }
    )
    return SolveReport(
        method=method,
        best_cs=decoded.cs,
        best_value=best_value,
        feasible=decoded.feasible,
        metadata=metadata,
        timing={"wall_ms": elapsed},
    )


def solve_qubo_exhaustive(bilp: BilpInstance, lam: float | None = None) -> SolveReport:
    """Exact minimum over all 2^m energies of the QUBO build_qubo(bilp, lam) would
    give, quadratic_table(diag, levels.take(counts)) of penalty_terms; the QUBO
    is never built.  matrix_energy rescores the winner."""
    m = bilp.num_variables
    if m > BRUTE_MAX_VARIABLES:
        raise ResourceLimitError(
            f"exhaustive QUBO scan is limited to {BRUTE_MAX_VARIABLES} variables, got {m}"
        )
    start = time.perf_counter()
    lam, diag, counts, levels = penalty_terms(bilp, lam)
    table = quadratic_table(diag, levels.take(counts))
    ties = np.flatnonzero(table == table.min()).tolist()
    candidates = [format(k, f"0{m}b")[::-1] for k in ties]  # bit b of k is variable b
    decoded = _pick_qubo_winner(bilp, candidates)
    energy = matrix_energy(diag, counts, levels, decoded.x)
    elapsed = (time.perf_counter() - start) * 1e3
    meta = {"n": bilp.n, "assignments_examined": len(table), "ties": len(candidates)}
    return _report_from_assignment(
        "qubo-brute", bilp, decoded, energy, meta, elapsed,
        s=int(np.count_nonzero(counts)) // 2, lam=lam, c=lam * bilp.n,
    )


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric cooling schedule plus restart/seed bookkeeping."""

    sweeps: int
    temp_hi: float
    temp_lo: float
    restarts: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        check_int(self.sweeps, "sweeps", 1)
        check_int(self.restarts, "restarts", 1)
        if self.sweeps * self.restarts > SA_MAX_SWEEPS:
            raise ResourceLimitError(
                f"annealing is limited to {SA_MAX_SWEEPS} sweeps over all restarts,"
                f" got {self.sweeps} sweeps x {self.restarts} restarts"
            )
        check_real(self.temp_lo, "temp_lo")
        check_real(self.temp_hi, "temp_hi")
        if not (0.0 < self.temp_lo <= self.temp_hi):
            raise ConfigError(
                f"need 0 < temp_lo <= temp_hi, got temp_lo={self.temp_lo}, temp_hi={self.temp_hi}"
            )
        if self.temp_hi == math.inf:
            raise ConfigError("temp_hi must be finite, got inf")
        check_int(self.seed, "seed", 0)

    def temperature(self, sweep: int) -> float:
        if self.sweeps == 1:
            return self.temp_hi
        ratio = self.temp_lo / self.temp_hi
        return self.temp_hi * ratio ** (sweep / (self.sweeps - 1))


def default_schedule(bilp: BilpInstance, seed: int = 0) -> AnnealSchedule:
    """Schedule scaled to the instance: hot enough to flip any single bit freely.

    temp_hi tracks twice the total absolute value mass (with a floor of
    1.0 so all-zero games still anneal); sweeps grow linearly with the
    variable count.
    """
    span = 2.0 * sum(np.abs(bilp.values).tolist())
    return AnnealSchedule(
        sweeps=10 * bilp.num_variables,
        temp_hi=max(1.0, span),
        temp_lo=1e-3,
        seed=seed,
    )


def solve_qubo_sa(bilp: BilpInstance, schedule: AnnealSchedule, lam: float | None = None) -> SolveReport:
    """Single-flip Metropolis annealing on the QUBO build_qubo(bilp, lam) would give.

    Each restart r runs its own PCG64 stream seeded with seed + r.  The
    local field g[i] (energy change contribution of variable i) is kept
    incrementally.  Sweep t visits variables 0..m-1 in order and flips
    variable k when delta <= 0 or u[t, k] < exp(-delta / T_t).

    A rejected attempt changes nothing, so the sweep is screened in
    numpy.  The draws of a block of sweeps (about 2048 attempts) are
    turned into upper bounds, loose by 1e-9, on the deltas the test can
    accept, and one vectorised pass over the rest of the block finds the
    next attempt within its bound.  The exact scalar test above decides
    that attempt, so every draw, flip and running sum, and hence the
    report, is the one a per-attempt loop gives.  The cost is one pass
    of at most about 2048 entries per block plus one per accepted flip,
    instead of one Python iteration per attempt; a schedule so hot that
    almost every attempt flips is slower than a per-attempt loop.
    Restarts are merged under the module tie-breaking rule and the
    winner's energy is recomputed from scratch before reporting.

    The QUBO is never built: penalty_terms checks lam and gives the uint8
    counts.  A flip of k adds sign * (2*lam) * counts[k] to the local field,
    bitwise sign * levels[counts[k]].  The counts give the coupling count s,
    and matrix_energy scores each initial state and the winner as qubo_energy.
    """
    m = bilp.num_variables
    if m > SA_MAX_VARIABLES:
        raise ResourceLimitError(
            f"annealing is limited to {SA_MAX_VARIABLES} variables, got {m}"
        )
    start = time.perf_counter()
    lam, diag, counts, levels = penalty_terms(bilp, lam)
    couple = np.empty(m)  # one row of couplings, sign * (2*lam) * counts[k]
    temps = np.fromiter(map(schedule.temperature, range(schedule.sweeps)), float, schedule.sweeps)
    # Sweeps are drawn and screened in blocks of about 2048 attempts.
    rows = max(1, min(schedule.sweeps, 2048 // m))
    us_block = np.empty((rows, m))
    reach_block = np.empty((rows, m))
    skip_block = np.empty((rows, m), dtype=bool)
    delta = np.empty(m)
    best_s = np.empty(m)
    restart_best: list[tuple[float, str, list[float]]] = []
    for r in range(schedule.restarts):
        rng = np.random.default_rng(schedule.seed + r)
        x = rng.integers(0, 2, size=m)
        g = np.array(diag)
        for i in np.flatnonzero(x).tolist():
            g += np.multiply(counts[i], 2.0 * lam, out=couple)
        energy = float(matrix_energy(diag, counts, levels, x))
        # From here on the state is s = 1 - 2x: flipping k changes the
        # energy by delta_k = s_k * g_k.
        s = 1.0 - 2.0 * x
        best_energy = energy
        best_s[:] = s
        trace: list[float] = []
        for first in range(0, schedule.sweeps, rows):
            count = min(rows, schedule.sweeps - first)
            us = us_block[:count]
            reach = reach_block[:count]
            rng.random(out=us)
            # reach bounds from above every uphill delta the exact test can
            # accept: u < exp(-delta / temp) iff delta < -temp * log(u),
            # widened by a relative and an absolute 1e-9 so that rounding
            # never screens out an accepted flip.  At huge temperatures it
            # overflows to +inf, which lets the attempt through to the exact
            # test.
            with np.errstate(divide="ignore", over="ignore"):
                np.log(us, out=reach)
                np.multiply(reach, -(1.0 + 1e-9), out=reach)
                np.add(reach, 1e-9, out=reach)
                np.multiply(reach, temps[first : first + count, None], out=reach)
            # Attempt pos of the block is variable pos % m in sweep pos // m.
            # A rejected attempt changes nothing, so one pass over the rest
            # of the block finds the next attempt that can be accepted.  The
            # pass skips delta > bound, which is false for a NaN bound (a zero
            # draw at a temperature that underflowed to 0), so such attempts
            # reach the exact test.
            pos, end = 0, count * m
            while pos < end:
                row, i = divmod(pos, m)
                np.multiply(s, g, out=delta)
                skip = skip_block[: count - row]
                np.greater(delta, reach[row:], out=skip)
                rest = skip.reshape(-1)[i:]
                j = int(rest.argmin())
                if rest[j]:
                    break
                pos += j
                row, k = divmod(pos, m)
                d = float(delta[k])
                if d <= 0.0 or us[row, k] < math.exp(-d / temps.item(first + row)):
                    # Close the trace of the sweeps that ended before this one.
                    trace.extend([best_energy] * (first + row - len(trace)))
                    sign = float(s[k])
                    s[k] = -sign
                    g += np.multiply(counts[k], sign * (2.0 * lam), out=couple)
                    energy += d
                    if energy < best_energy:
                        best_energy = energy
                        best_s[:] = s
                pos += 1
            trace.extend([best_energy] * (first + count - len(trace)))
        best_x = "".join("1" if v < 0 else "0" for v in best_s.tolist())
        restart_best.append((best_energy, best_x, trace))

    lowest = min(e for e, _, _ in restart_best)
    near = [cand for cand in restart_best if cand[0] == lowest]
    decoded = _pick_qubo_winner(bilp, [x for _, x, _ in near])
    winner_trace = next(t for e, x, t in restart_best if x == decoded.x and e == lowest)
    energy = matrix_energy(diag, counts, levels, decoded.x)
    elapsed = (time.perf_counter() - start) * 1e3
    meta = {
        "n": bilp.n,
        "sweeps": schedule.sweeps,
        "restarts": schedule.restarts,
        "temp_hi": schedule.temp_hi,
        "temp_lo": schedule.temp_lo,
        "seed": schedule.seed,
        "restart_energies": [e for e, _, _ in restart_best],
        "trace": winner_trace,
    }
    return _report_from_assignment(
        "sa", bilp, decoded, energy, meta, elapsed,
        s=int(np.count_nonzero(counts)) // 2, lam=lam, c=lam * bilp.n,
    )


def check_size(n: int, exclude, limit: int, what: str) -> frozenset[int]:
    """check_exclusions(n, exclude); then a program of more than ``limit`` variables,
    2^n - 1 - |exclude|, is refused as ``what``, before its BILP is built and so
    before a caller's O(m^2) coupling build."""
    exclude = check_exclusions(n, exclude)
    m = n_coalitions(n) - len(exclude)
    if m > limit:
        raise ResourceLimitError(f"{what} is limited to {limit} QUBO variables, got {m}")
    return exclude


def solve_qaoa(
    bilp: BilpInstance, qubo: QuboInstance, *, p=None, p_max=12, shots=1024, seed=0
) -> SolveReport:
    """QAOA on the QUBO's Ising form, at depth p or scanning p = 1..p_max.

    The exhaustive QUBO optimum is the target: a scan stops at the first
    depth whose sample reaches it, and metadata["chosen_p"] names the depth
    that did (None if none did).  The report decodes the lowest sampled
    QUBO energy over every depth run, the smaller p on ties, and recomputes
    its energy with qubo_energy, which qubo-brute's and sa's matrix_energy
    equals bit for bit.
    """
    limit = VARIABLE_LIMITS["qaoa"]  # checked before the reference scan
    if qubo.m > limit:
        raise ResourceLimitError(f"qaoa is limited to {limit} QUBO variables, got {qubo.m}")
    start = time.perf_counter()
    ising = qubo_to_ising(qubo)
    reference = solve_qubo_exhaustive(bilp, qubo.lam)
    target = reference.metadata["best_energy"]
    if p is not None:
        result, matched = qaoa.optimize_layer(ising, p, shots=shots, seed=seed, target_energy=target)
        results, chosen = [result], (p if matched else None)
    else:
        results, chosen = qaoa.scan_layers(
            ising, p_max=p_max, shots=shots, seed=seed, target_energy=target
        )
    winner = min(
        results, key=lambda r: (r.metadata["best_sampled_qubo_energy"], r.best_params.p)
    )
    decoded = decode_solution(bilp, winner.best_bitstring)
    # Key order is the report's; _report_from_assignment fills the None slots.
    meta = {
        "n": bilp.n,
        "m": None,
        "s": None,
        "lambda": None,
        "p_values": [r.best_params.p for r in results],
        "chosen_p": chosen,
        "p": winner.best_params.p,
        "shots": shots,
        "seed": seed,
        "expectation": winner.expectation,
        "best_x": None,
        "best_energy": None,
        "constant": None,
        "reference_value": reference.best_value,
    }
    energy = qubo_energy(qubo, decoded.x)
    elapsed = (time.perf_counter() - start) * 1e3
    report = _report_from_assignment(
        "qaoa", bilp, decoded, energy, meta, elapsed, s=qubo.interaction_count, lam=qubo.lam, c=qubo.c
    )
    return replace(report, qaoa_results=tuple(results))


def check_request(method: str, n: int, *, lam, exclude, seed, p, p_max, shots) -> frozenset[int]:
    """Every refusal solve(game, method, ...) makes for an n-agent game before it
    builds anything, in solve's order, and the checked exclusions: enum and dp take
    none and n up to AGENT_LIMITS; the QUBO methods run check_size and, for a given
    lam, check_penalty.  csgp bench runs it per method at its largest n."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    check_int(seed, "seed", 0)
    if method in AGENT_LIMITS:
        # By length: a numpy array has no truth value.
        if exclude is not None and (not isinstance(exclude, Sized) or len(exclude)):
            raise ConfigError("--exclude applies only to QUBO-based methods (qubo-brute, sa, qaoa)")
        if n > AGENT_LIMITS[method]:
            raise ResourceLimitError(f"{method} is limited to {AGENT_LIMITS[method]} agents, got {n}")
        return frozenset()
    if method == "qaoa":
        if p is not None and p_max is not None:
            raise ConfigError("give either --p or --p-max, not both")
        if p is not None:
            qaoa.check_depth(p)
        if p_max is not None:
            qaoa.check_depth(p_max, "p_max")
        qaoa.check_shots(shots)
    exclude = check_size(n, exclude, VARIABLE_LIMITS[method], method)
    if lam is not None:
        check_penalty(lam)
    return exclude


def solve(
    game: CoalitionGame, method: str, *, lam=None, exclude=frozenset(), seed=0, sweeps=None,
    restarts=None, temp_hi=None, temp_lo=None, p=None, p_max=None, shots=1024,
) -> SolveReport:
    """Solve a game with one of METHODS; the options are the `csgp solve` flags.

    check_request refuses what it can before any work.  The QUBO methods
    then build the BILP.  sa anneals default_schedule(bilp, seed) with each
    given sweeps/restarts/temp_hi/temp_lo replacing its field, refused before
    the coupling build if invalid or over SA_MAX_SWEEPS, and neither it nor
    qubo-brute builds the QUBO dict.  qaoa runs build_qubo, then solve_qaoa at
    depth p, or else up to p_max (default 12).
    """
    exclude = check_request(
        method, game.n, lam=lam, exclude=exclude, seed=seed, p=p, p_max=p_max, shots=shots
    )
    if method in AGENT_LIMITS:
        return solve_enum(game) if method == "enum" else solve_dp(game)
    bilp = build_bilp(game, exclude)
    if method == "sa":
        given = {"sweeps": sweeps, "restarts": restarts, "temp_hi": temp_hi, "temp_lo": temp_lo}
        schedule = replace(
            default_schedule(bilp, seed=seed), **{k: v for k, v in given.items() if v is not None}
        )
        return solve_qubo_sa(bilp, schedule, lam)
    if method == "qubo-brute":
        return solve_qubo_exhaustive(bilp, lam)
    qubo = build_qubo(bilp, lam)
    return solve_qaoa(bilp, qubo, p=p, p_max=12 if p_max is None else p_max, shots=shots, seed=seed)
