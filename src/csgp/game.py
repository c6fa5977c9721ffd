"""Coalition games over bitmask-indexed coalitions.

A coalition of ``n`` agents is encoded as an integer ``1 <= c <= 2**n - 1``
where bit ``i-1`` set means agent ``a_i`` is a member.  This single
convention fixes the variable order of every downstream representation
(BILP columns, QUBO variables, spins, qubits).

All types in this module are immutable after construction and safe to
share across threads.  Instance generation is a pure function of
``(n, spec, seed)``: it uses a single seeded PCG64 stream (numpy's
``default_rng``) and consumes per-coalition draws in coalition-index
order, so games are reproducible across platforms.  Every family but WRC
takes those draws in a few array calls; the stream order, and so
every value, is the one a per-coalition loop of scalar draws gives.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ConfigError, InvalidStructureError, ParseError, ResourceLimitError, SchemaError, check_int

# Hard ceiling for sampling: 2^20 - 1 coalition values is the largest table
# any bundled solver can consume (the subset DP stops at 20 agents too).
GENERATE_MAX_AGENTS = 20

# Canonical order of the ten benchmark families (also the "all" order in the CLI).
DISTRIBUTION_KINDS = (
    "abu",
    "abn",
    "mu",
    "normal",
    "sva_beta",
    "weibull",
    "rayleigh",
    "wrc",
    "f",
    "laplace",
)

# Fixed parameterizations.  The family names are standard benchmark
# vocabulary; the exact shapes below are this artifact's documented
# conventions.  Parameters named *_var are variances (scale = sqrt(var)).
_DEFAULT_PARAMS: dict[str, dict[str, float]] = {
    "abu": {"agent_low": 0.0, "agent_high": 10.0, "coalition_low": 0.0, "coalition_high": 10.0},
    "abn": {"agent_mean": 10.0, "agent_var": 0.01, "coalition_mean": 0.0, "coalition_var": 0.01},
    "mu": {"high_per_agent": 10.0, "spike_prob": 0.2, "spike_high": 50.0},
    "normal": {"mean_per_agent": 10.0, "var": 0.01},
    "sva_beta": {"scale": 10.0, "alpha": 2.0, "beta": 5.0, "valuable_bonus": 9.0},
    "weibull": {"scale": 10.0},
    "rayleigh": {"scale_per_sqrt_size": 10.0},
    "wrc": {"weight_low": 0.0, "weight_high": 1.0, "chi_df": 4.0},
    "f": {"dfnum": 5.0, "dfden": 2.0, "resample_above": 1000.0},
    "laplace": {"loc_per_agent": 10.0, "scale": math.sqrt(0.1)},
}


def n_coalitions(n: int) -> int:
    """Number of nonempty coalitions of n agents."""
    return (1 << n) - 1


@dataclass(frozen=True)
class DistributionSpec:
    """One of the ten value distributions, by normalized name."""

    kind: str

    def __post_init__(self) -> None:
        kind = self.kind.lower().replace("-", "_") if isinstance(self.kind, str) else None
        if kind not in DISTRIBUTION_KINDS:
            raise ConfigError(
                f"unknown distribution kind {self.kind!r}; expected one of {', '.join(DISTRIBUTION_KINDS)}"
            )
        object.__setattr__(self, "kind", kind)


@dataclass(frozen=True, eq=False)
class CoalitionGame:
    """A characteristic-function game: n agents and one value per nonempty coalition.

    ``values`` is a read-only float64 array of 2^n entries: ``values[c]`` is
    v(c), and ``values[0]``, the empty coalition, is 0.0.  The constructor
    takes that array, or a mapping {coalition index: value} over 1..2^n - 1.
    """

    n: int
    values: np.ndarray
    dist_label: str | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        n, given = self.n, self.values
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise SchemaError(f"agent count must be an integer >= 1, got {n!r}")
        is_map = isinstance(given, Mapping)
        full = len(given) - (not is_map)  # the nonempty coalitions given
        # 2^n - 1 has n bits: the count is compared with n by bit length before 2^n
        # is formed, so a small table claiming a huge n fails before anything big.
        if full.bit_length() != n or full != n_coalitions(n):
            raise SchemaError(f"values must cover coalitions 1..2^n - 1 exactly (got {full} for n={n})")
        if is_map:
            # Distinct in-range keys, as many as there are coalitions, cover them exactly.
            extra = [k for k in given if not (isinstance(k, (int, np.integer)) and 1 <= k <= full)]
            if extra:
                raise SchemaError(f"value map keys must be 1..{full} (unexpected {extra[:5]})")
            table = np.zeros(full + 1)
            table[np.fromiter(given, np.int64, full)] = np.fromiter(map(float, given.values()), float, full)
        else:
            table = np.array(given, dtype=np.float64)
            if table.shape != (full + 1,) or table[0] != 0.0:
                raise SchemaError("a value array must be one-dimensional with values[0] = 0.0")
        finite = np.isfinite(table)
        if not finite.all():
            key = int(finite.argmin())  # the smallest coalition with a non-finite value
            raise SchemaError(f"coalition {key} has non-finite value {table[key].item()!r}")
        table.flags.writeable = False
        object.__setattr__(self, "values", table)


@dataclass(frozen=True)
class CoalitionStructure:
    """A partition of the agent set, stored as an ascending tuple of coalition indices."""

    blocks: tuple[int, ...]

    def __init__(self, blocks) -> None:
        blocks = tuple(blocks)
        for b in blocks:
            if isinstance(b, bool) or not isinstance(b, (int, np.integer)):
                raise InvalidStructureError(f"block {b!r} is not an integer coalition index")
        object.__setattr__(self, "blocks", tuple(sorted(int(b) for b in blocks)))

    def validate(self, n: int) -> None:
        full = n_coalitions(n)
        union = 0
        popcount = 0
        for block in self.blocks:
            if not 1 <= block <= full:
                raise InvalidStructureError(f"block {block} is not a coalition index for n={n}")
            union |= block
            popcount += block.bit_count()
        if union != full or popcount != n:
            raise InvalidStructureError(
                f"blocks {list(self.blocks)} do not partition the {n}-agent set"
            )


def left_sum(values, start=0):
    """start + values[0] + values[1] + ..., added left to right as Python 3.11's
    sum() adds.  From Python 3.12 on sum() compensates float rounding, which
    would make reports differ between Python versions."""
    return reduce(operator.add, values, start)


def cs_value(game: CoalitionGame, cs: CoalitionStructure) -> float:
    """Total value of a coalition structure: its blocks' values added left to right."""
    cs.validate(game.n)
    return left_sum(game.values[list(cs.blocks)].tolist())


def _sum_additive(base, bonus, sizes):
    """v(C) = sum of C's baselines + sum of C's bonuses, each summed as one row.

    ``bonus`` holds every coalition's bonuses in coalition-index order,
    |C| of them each.  One popcount k at a time, the members and the bonuses
    of the k-agent coalitions are gathered into (count, k) matrices whose
    row sums are bitwise numpy's ``.sum()`` of each coalition's own row.
    """
    n = len(base)
    counts = sizes.astype(np.int32)
    first = np.cumsum(counts, dtype=np.int32) - counts  # where C's bonuses start
    bits = np.arange(n, dtype=np.int32)
    values = np.empty(len(sizes))
    for k in range(1, n + 1):
        idx = np.flatnonzero(counts == k).astype(np.int32)
        members = np.nonzero((idx[:, None] + 1) >> bits & 1)[1].reshape(-1, k)
        own = first[idx, None] + bits[:k]
        values[idx] = base[members].sum(axis=1) + bonus[own].sum(axis=1)
    return values


def _sample_abu(rng, n, sizes, p):
    base = rng.uniform(p["agent_low"], p["agent_high"], size=n)
    bonus = rng.uniform(p["coalition_low"], p["coalition_high"], size=n << (n - 1))
    return _sum_additive(base, bonus, sizes)


def _sample_abn(rng, n, sizes, p):
    base = rng.normal(p["agent_mean"], math.sqrt(p["agent_var"]), size=n)
    bonus = rng.normal(p["coalition_mean"], math.sqrt(p["coalition_var"]), size=n << (n - 1))
    return _sum_additive(base, bonus, sizes)


def _sample_mu(rng, n, sizes, p):
    # A coalition takes one uniform for its value, one for the spike test
    # and, when the test passes, a third for the spike, so 3N uniforms always
    # suffice.  The coalition that starts at position pos is followed by one
    # at jump[pos] = pos + 2 + spiked[pos + 1].  Pointer doubling lists the
    # starts 0, jump[0], jump[jump[0]], ...: each round appends the next
    # len(starts) of them and squares the jump.
    u = rng.random(3 * len(sizes))
    spiked = u < p["spike_prob"]
    jump = np.arange(2, len(u) + 3, dtype=np.int32)
    jump[:-2] += spiked[1:]
    np.minimum(jump, len(u), out=jump)  # position len(u) is a sink
    starts = np.zeros(1, dtype=np.int32)
    while len(starts) < len(sizes):
        starts = np.concatenate((starts, jump[starts]))
        jump = jump[jump]
    starts = starts[: len(sizes)]
    # Generator.uniform(0.0, high) is 0.0 + high * u, and 0.0 + x == x here.
    values = p["high_per_agent"] * sizes * u[starts]
    spike = spiked[starts + 1]
    values[spike] += p["spike_high"] * u[starts[spike] + 2]
    return values


def _sample_normal(rng, n, sizes, p):
    return rng.normal(p["mean_per_agent"] * sizes, math.sqrt(p["var"]))


def _sample_sva_beta(rng, n, sizes, p):
    # Agent a1 is the valuable one: it is in the odd coalition indices.
    weight = sizes + p["valuable_bonus"] * (np.arange(1, len(sizes) + 1) & 1)
    return p["scale"] * rng.beta(p["alpha"], p["beta"], size=len(sizes)) * weight


def _sample_weibull(rng, n, sizes, p):
    return p["scale"] * rng.weibull(sizes)


def _sample_rayleigh(rng, n, sizes, p):
    return rng.rayleigh(p["scale_per_sqrt_size"] * np.sqrt(sizes))


def _sample_wrc(rng, n, sizes, p):
    # The only per-coalition loop: each weight's uniform and the chi-square
    # draw after it interleave, and a chi-square consumes a variable number
    # of raw draws, so no array call reproduces the stream.
    return np.array(
        [
            rng.uniform(p["weight_low"], p["weight_high"]) * size + rng.chisquare(p["chi_df"])
            for size in sizes.tolist()
        ]
    )


def _sample_f(rng, n, sizes, p):
    # Resampling only discards the draws above the cap, so the accepted
    # values are the draws at or below it, in stream order.
    kept = np.empty(0)
    while len(kept) < len(sizes):
        draws = rng.f(p["dfnum"], p["dfden"], size=len(sizes) - len(kept))
        kept = np.concatenate((kept, draws[draws <= p["resample_above"]]))
    return kept * sizes


def _sample_laplace(rng, n, sizes, p):
    return rng.laplace(p["loc_per_agent"] * sizes, p["scale"])


_SAMPLERS = {
    "abu": _sample_abu,
    "abn": _sample_abn,
    "mu": _sample_mu,
    "normal": _sample_normal,
    "sva_beta": _sample_sva_beta,
    "weibull": _sample_weibull,
    "rayleigh": _sample_rayleigh,
    "wrc": _sample_wrc,
    "f": _sample_f,
    "laplace": _sample_laplace,
}


def generate_game(n: int, spec: DistributionSpec, seed: int) -> CoalitionGame:
    """Sample a benchmark game; deterministic for a fixed (n, spec, seed).

    Draws come from a PCG64 stream seeded with ``seed``.  ABU/ABN first
    draw their per-agent baselines in agent order; every family then
    consumes its per-coalition draws in coalition-index order.  The draws
    are taken in a few array calls (WRC alone makes two per coalition), but
    in the same order as one coalition at a time, so the values are too.
    """
    n = check_int(n, "agent count", 1)
    if n > GENERATE_MAX_AGENTS:
        raise ResourceLimitError(
            f"game generation is limited to {GENERATE_MAX_AGENTS} agents"
            f" ({n_coalitions(GENERATE_MAX_AGENTS)} coalition values), got {n}"
        )
    check_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    sizes = np.bitwise_count(np.arange(1, n_coalitions(n) + 1, dtype=np.int32)).astype(np.float64)
    values = _SAMPLERS[spec.kind](rng, n, sizes, _DEFAULT_PARAMS[spec.kind])
    return CoalitionGame(n=n, values=np.concatenate(([0.0], values)), dist_label=spec.kind, seed=seed)


def save_game(game: CoalitionGame, path) -> None:
    """Write a game as JSON (see README for the schema)."""
    doc = {
        "n": game.n,
        "dist": game.dist_label,
        "seed": game.seed,
        "values": dict(zip(map(str, range(1, len(game.values))), game.values[1:].tolist())),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_game(path) -> CoalitionGame:
    """Read a game JSON file; the inverse of save_game (values bit-identical)."""

    def unique_keys(pairs):
        # json keeps the last of two equal keys; a game file must not repeat one.
        doc = {}
        for key, val in pairs:
            if key in doc:
                raise SchemaError(f"{path}: key {key!r} appears twice in one object")
            doc[key] = val
        return doc

    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=unique_keys)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
        except (ValueError, RecursionError) as exc:  # not UTF-8, an int over 4300 digits, deep nesting
            raise ParseError(f"{path}: unreadable JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top-level value must be an object")
    for key in ("n", "values"):
        if key not in doc:
            raise SchemaError(f"{path}: missing required key {key!r}")
    if isinstance(doc["n"], bool) or not isinstance(doc["n"], int):
        raise SchemaError(f"{path}: 'n' must be an integer")
    if not isinstance(doc["values"], dict):
        raise SchemaError(f"{path}: 'values' must be an object")
    values = {}
    keys = {}  # the key each index was written as
    for key, val in doc["values"].items():
        try:
            index = int(key)
        except ValueError:
            raise SchemaError(f"{path}: value key {key!r} is not a coalition index") from None
        if index in keys:
            raise SchemaError(f"{path}: value keys {keys[index]!r} and {key!r} both name coalition {index}")
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise SchemaError(f"{path}: value for coalition {key} must be a number")
        keys[index] = key
        values[index] = float(val)
    seed = doc.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise SchemaError(f"{path}: 'seed' must be an integer or null")
    return CoalitionGame(n=doc["n"], values=values, dist_label=doc.get("dist"), seed=seed)
