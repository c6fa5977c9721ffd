import json
import math
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csgp import (
    AnnealSchedule,
    BilpInstance,
    CoalitionGame,
    ConfigError,
    DistributionSpec,
    InfeasibleError,
    ResourceLimitError,
    build_bilp,
    build_qubo,
    cs_value,
    default_schedule,
    generate_game,
    solve,
    solve_dp,
    solve_enum,
    solve_qaoa,
    solve_qubo_exhaustive,
    solve_qubo_sa,
)
from csgp.solvers import (
    EXACT,
    LIMITS,
    SA_MAX_SWEEPS,
    SA_MAX_VARIABLES,
    _pick_qubo_winner,
    _report_from_assignment,
)
from csgp.game import left_sum
from csgp.transform import qubo_energy
from oracles import partitions


def _zero_game(n):
    return CoalitionGame(n=n, values={c: 0.0 for c in range(1, (1 << n))})


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{what} was called")

    return refuse


def test_partition_counts():
    bell = [1, 2, 5, 15, 52, 203]
    for n, count in zip(range(1, 7), bell):
        assert sum(1 for _ in partitions(n)) == count


def test_enum_examples(g2):
    report = solve_enum(g2)
    assert report.best_cs.blocks == (3,)
    assert report.best_value == 4.0
    assert report.metadata["partitions_examined"] == 2
    n4 = generate_game(4, DistributionSpec(kind="abu"), seed=1)
    assert solve_enum(n4).metadata["partitions_examined"] == 15


def test_enum_guard():
    with pytest.raises(ResourceLimitError):
        solve_enum(_zero_game(13))


def test_dp_matches_enum_on_g2(g2):
    assert solve_dp(g2).best_value == solve_enum(g2).best_value == 4.0


def test_dp_prefers_split_when_superadditivity_fails():
    game = CoalitionGame(n=2, values={1: 3.0, 2: 3.0, 3: 4.0})
    report = solve_dp(game)
    assert report.best_cs.blocks == (1, 2)
    assert report.best_value == 6.0


def test_dp_guard():
    # solve_dp reads nothing but n before the guard, so no 2^21-value game is built.
    with pytest.raises(ResourceLimitError):
        solve_dp(SimpleNamespace(n=21))


@pytest.mark.parametrize("kind,seed", [("normal", 11), ("mu", 11), ("weibull", 4)])
def test_dp_equals_enum_n6(kind, seed):
    game = generate_game(6, DistributionSpec(kind=kind), seed=seed)
    dp = solve_dp(game)
    enum = solve_enum(game)
    assert math.isclose(dp.best_value, enum.best_value, rel_tol=1e-9)
    assert dp.best_cs.blocks == enum.best_cs.blocks


def _split_layer(n, k):
    """Whether solve_dp splits the subsets of k agents: none with 2n/3 < k < n."""
    return 3 * k <= 2 * n or k == n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_dp_split_counter(n):
    game = _zero_game(n)
    splits = solve_dp(game).metadata["splits"]
    kept = set(range(2, 2 * n // 3 + 1)) | {n}  # k in 2..floor(2n/3), and n
    assert splits == sum(math.comb(n, k) * (2 ** (k - 1) - 1) for k in kept)
    # brute-force recount: pairs (T, T1) with T1 a proper subset of T
    # containing T's lowest agent, T in a layer that is split
    recount = 0
    for t in range(1, 1 << n):
        if not _split_layer(n, t.bit_count()):
            continue
        low = t & -t
        for t1 in range(1, t):
            if t1 & low and t1 | t == t:
                recount += 1
    assert splits == recount


def test_tie_break_is_lexicographic_on_blocks():
    # additive game: every partition has the same value, so the winner must
    # be the lexicographically smallest block tuple, the all-singletons one
    for n in (2, 3, 4):
        game = CoalitionGame(
            n=n, values={c: float(c.bit_count()) for c in range(1, (1 << n))}
        )
        expected = tuple(1 << i for i in range(n))
        assert solve_enum(game).best_cs.blocks == expected
        assert solve_dp(game).best_cs.blocks == expected
        bilp = build_bilp(game)
        assert solve_qubo_exhaustive(bilp).best_cs.blocks == expected


def test_zero_game_ties_resolve_identically():
    game = _zero_game(4)
    assert solve_enum(game).best_cs.blocks == solve_dp(game).best_cs.blocks == (1, 2, 4, 8)


def _scalar_dp(game):
    """solve_dp as one Python iteration per split, in ascending mask order.

    The production DP evaluates a popcount layer's splits in numpy; its
    value must equal this loop's bit for bit, and its blocks and split
    count must equal this loop's.  Both leave the subsets of more than 2n/3
    and fewer than n agents unsplit.
    """
    full = (1 << game.n) - 1
    values = game.values.tolist()
    f = [0.0] * (full + 1)
    opt = [()] * (full + 1)
    splits = 0
    for t in range(1, full + 1):
        best = values[t]
        best_blocks = (t,)
        if not _split_layer(game.n, t.bit_count()):
            f[t], opt[t] = best, best_blocks
            continue
        low = t & -t
        rest = t ^ low
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            t1 = low | sub
            t2 = t ^ t1
            splits += 1
            cand = f[t1] + f[t2]
            if cand > best:
                best = cand
                best_blocks = tuple(sorted(opt[t1] + opt[t2]))
            elif cand == best:
                blocks = tuple(sorted(opt[t1] + opt[t2]))
                if blocks < best_blocks:
                    best_blocks = blocks
            if sub == 0:
                break
        f[t] = best
        opt[t] = best_blocks
    return f[full], opt[full], splits


def _valued_game(n, value):
    return CoalitionGame(n=n, values={c: value(c) for c in range(1, 1 << n)})


DP_ORACLE_PANEL = {
    **{
        kind: [generate_game(n, DistributionSpec(kind=kind), seed) for n in range(1, 10) for seed in range(3)]
        for kind in ("abu", "abn", "mu", "normal", "sva_beta", "weibull", "rayleigh", "wrc", "f", "laplace")
    },
    "n11-n12": [
        generate_game(n, DistributionSpec(kind=kind), 0) for n in (11, 12) for kind in ("mu", "normal")
    ],
    # Every partition ties in the zero and additive games.  Integer values
    # tie many; in size-minus-mod3, tied splits of one subset also reach
    # different partitions, and only the tuple comparison picks the smallest.
    "zero": [_zero_game(n) for n in range(1, 9)],
    "additive": [_valued_game(n, lambda c: float(c.bit_count())) for n in range(1, 9)],
    "mod3": [_valued_game(n, lambda c: float(c % 3)) for n in range(1, 9)],
    "size-minus-mod3": [_valued_game(n, lambda c: float(c.bit_count() - c % 3)) for n in range(1, 9)],
    # 0.0 == -0.0, so only taking the first maximum and keeping v(T) unless a
    # split beats it strictly give the loop's sign of f.
    "signed-zero": [
        _valued_game(n, lambda c: -1.0 if c.bit_count() > 2 else (-0.0 if c % 3 else 0.0))
        for n in range(1, 9)
    ],
}


@pytest.mark.parametrize("case", sorted(DP_ORACLE_PANEL))
def test_dp_equals_scalar_loop(case):
    for game in DP_ORACLE_PANEL[case]:
        value, blocks, splits = _scalar_dp(game)
        report = solve_dp(game)
        assert report.best_value.hex() == value.hex(), (game.n, game.seed)
        assert report.best_cs.blocks == blocks, (game.n, game.seed)
        assert report.metadata["splits"] == splits


@pytest.mark.parametrize("case", sorted(case for case in DP_ORACLE_PANEL if case != "n11-n12"))
def test_dp_equals_enum_on_the_panel(case):
    # Independent of _scalar_dp: the unsplit layers must not lose the optimum
    # or its smallest block tuple, tie panels included (every game has n <= 9).
    for game in DP_ORACLE_PANEL[case]:
        dp = solve_dp(game)
        enum = solve_enum(game)
        assert dp.best_cs.blocks == enum.best_cs.blocks, (game.n, game.seed)
        assert math.isclose(dp.best_value, enum.best_value, rel_tol=1e-12), (game.n, game.seed)


def test_dp_equals_scalar_loop_in_tiny_chunks(monkeypatch):
    # One or two subsets per numpy pass: every layer spans many chunks.
    monkeypatch.setattr("csgp.solvers.DP_CHUNK", 4)
    for game in (
        _valued_game(7, lambda c: float(c.bit_count() - c % 3)),
        generate_game(8, DistributionSpec(kind="wrc"), 1),
    ):
        value, blocks, splits = _scalar_dp(game)
        report = solve_dp(game)
        assert report.best_value.hex() == value.hex()
        assert report.best_cs.blocks == blocks
        assert report.metadata["splits"] == splits


def _scalar_enum(game):
    """solve_enum as one Python iteration per partition, in partitions() order.

    A partition's value is 0.0 plus its block values from left to right, the
    float sum Python 3.11's sum() takes (from 3.12 sum() compensates).  The
    numpy enumeration must give this loop's value bit for bit, and its blocks
    and partition count.
    """
    values = game.values.tolist()
    best_value = -math.inf
    best_blocks = None
    examined = 0
    for blocks in partitions(game.n):
        examined += 1
        value = 0.0
        for b in blocks:
            value += values[b]
        key = tuple(sorted(blocks))
        if value > best_value or (value == best_value and key < best_blocks):
            best_value = value
            best_blocks = key
    return best_value, best_blocks, examined


ENUM_ORACLE_PANEL = {
    **{case: games for case, games in DP_ORACLE_PANEL.items() if case != "n11-n12"},
    "n10-n11": [
        generate_game(n, DistributionSpec(kind=kind), 0) for n in (10, 11) for kind in ("abn", "laplace")
    ],
}


def _assert_enum_equals_scalar_loop(game):
    value, blocks, examined = _scalar_enum(game)
    report = solve_enum(game)
    assert repr(report.best_value) == repr(value), (game.n, game.seed)
    assert report.best_cs.blocks == blocks, (game.n, game.seed)
    assert report.metadata["partitions_examined"] == examined


@pytest.mark.parametrize("case", sorted(ENUM_ORACLE_PANEL))
def test_enum_equals_scalar_loop(case):
    for game in ENUM_ORACLE_PANEL[case]:
        _assert_enum_equals_scalar_loop(game)


def test_enum_tie_goes_to_the_smallest_tuple_not_the_first_found():
    # {0, 3} + {1, 2} and {0, 1, 3} + {2} tie at 5.0, and everything else is
    # lower.  solve_enum scores the first before the second in one numpy pass;
    # the second has the smaller ascending tuple, (4, 11) < (6, 9).
    values = {c: 0.0 for c in range(1, 16)}
    values.update({9: 3.0, 6: 2.0, 11: 4.0, 4: 1.0})
    game = CoalitionGame(n=4, values=values)
    assert _scalar_enum(game) == (5.0, (4, 11), 15)
    report = solve_enum(game)
    assert (report.best_value, report.best_cs.blocks) == (5.0, (4, 11))


def test_enum_equals_scalar_loop_in_tiny_chunks(monkeypatch):
    # One, two or three prefix partitions per pass: every slot spans many passes.
    for chunk in (1, 2, 3):
        monkeypatch.setattr("csgp.solvers.ENUM_CHUNK", chunk)
        for game in (
            _valued_game(6, lambda c: float(c.bit_count() - c % 3)),
            generate_game(7, DistributionSpec(kind="wrc"), 1),
        ):
            _assert_enum_equals_scalar_loop(game)


@pytest.mark.parametrize("kind", ["normal", "weibull"])
def test_enum_equals_dp_at_the_enum_guard(kind):
    game = generate_game(12, DistributionSpec(kind=kind), 0)
    enum = solve_enum(game)
    dp = solve_dp(game)
    assert enum.metadata["partitions_examined"] == 4213597  # Bell(12)
    # One partition, its block values summed in two orders: slot order in
    # enum, DP's split tree in dp.  The sums may differ in the last bits.
    assert math.isclose(enum.best_value, dp.best_value, rel_tol=1e-12)
    assert enum.best_cs.blocks == dp.best_cs.blocks


def test_brute_g2(g2):
    bilp = build_bilp(g2)
    report = solve_qubo_exhaustive(bilp, lam=10.0)
    assert report.best_cs.blocks == (3,)
    assert report.best_value == 4.0
    assert report.metadata["best_x"] == "001"
    assert report.metadata["best_energy"] == -24.0
    assert report.feasible


def test_brute_guard():
    game = generate_game(5, DistributionSpec(kind="abu"), seed=0)  # m = 31
    bilp = build_bilp(game)
    with pytest.raises(ResourceLimitError):
        solve_qubo_exhaustive(bilp)


def _chunked_exhaustive(bilp, qubo):
    """solve_qubo_exhaustive as a chunked scan: the energies of 2^16
    assignments at a time, from a bits matrix and a loop over qubo.offdiag."""
    m = qubo.m
    diag = np.asarray(qubo.diag)
    shifts = np.arange(m, dtype=np.int64)
    best_energy = math.inf
    best_indices = []
    for base in range(0, 1 << m, 1 << 16):
        idx = np.arange(base, min(base + (1 << 16), 1 << m), dtype=np.int64)
        bits = (idx[:, None] >> shifts) & 1
        energy = bits.astype(np.float64) @ diag
        for (i, j), val in qubo.offdiag.items():
            energy += val * (bits[:, i] * bits[:, j])
        lo = float(energy.min())
        if lo < best_energy:
            best_energy, best_indices = lo, []
        if lo == best_energy:
            best_indices.extend(int(k) for k in idx[energy == lo])
    candidates = ["".join(str(k >> b & 1) for b in range(m)) for k in best_indices]
    decoded = _pick_qubo_winner(bilp, candidates)
    meta = {"n": bilp.n, "assignments_examined": 1 << m, "ties": len(candidates)}
    return _report_from_assignment(
        "qubo-brute", bilp, decoded, qubo_energy(qubo, decoded.x), meta, 0.0, **_qubo_fields(qubo)
    )


def _qubo_fields(qubo):
    """The QUBO fields a report prints, read off the built instance."""
    return {"s": qubo.interaction_count, "lam": qubo.lam, "c": qubo.c}


def _weighted_additive(n):
    weights = (0.1, 0.2, 0.3, 0.7)
    return _valued_game(n, lambda c: sum(w for a, w in enumerate(weights) if c >> a & 1))


EXHAUSTIVE_ORACLE_GAMES = {
    **{
        f"{kind}-seed{seed}": (lambda n, kind=kind, seed=seed: generate_game(n, DistributionSpec(kind=kind), seed))
        for kind in ("abu", "abn", "mu", "normal", "sva_beta", "weibull", "rayleigh", "wrc", "f", "laplace")
        for seed in (0, 1)
    },
    # Every partition ties in the zero and additive games.
    "zero": _zero_game,
    "int-additive": lambda n: _valued_game(n, lambda c: float(c.bit_count())),
    "float-additive": lambda n: _valued_game(n, lambda c: 0.1 * c.bit_count()),
    "weighted-additive": _weighted_additive,
}
# (game, n, lambda) where the two scans pick different winners.  The games
# tie every partition in real arithmetic, so which of the tied energies
# rounds lowest depends on the order of summation, in both scans.
EXHAUSTIVE_ROUNDING_TIES = {
    ("weighted-additive", 3, None),
    ("weighted-additive", 3, 0.5),
    ("weighted-additive", 3, 20.0),
    ("weighted-additive", 4, 0.5),
    ("weighted-additive", 4, 20.0),
}


@pytest.mark.parametrize("case", sorted(EXHAUSTIVE_ORACLE_GAMES))
def test_exhaustive_equals_the_chunked_scan(case):
    for n in (2, 3, 4):
        game = EXHAUSTIVE_ORACLE_GAMES[case](n)
        bilp = build_bilp(game)
        for lam in (None, 0.5, 20.0):
            qubo = build_qubo(bilp, lam)
            got = solve_qubo_exhaustive(bilp, lam).to_json(include_timing=False)
            want = _chunked_exhaustive(bilp, qubo).to_json(include_timing=False)
            if (case, n, lam) not in EXHAUSTIVE_ROUNDING_TIES:
                assert json.dumps(got) == json.dumps(want), (n, lam)
                continue
            assert got != want, (n, lam)
            assert got["feasible"] == want["feasible"]
            assert math.isclose(
                got["metadata"]["best_energy"], want["metadata"]["best_energy"], rel_tol=1e-12
            )
            if got["feasible"]:
                assert math.isclose(got["best_value"], want["best_value"], rel_tol=1e-12)


@given(
    st.sampled_from(["abu", "normal", "f", "laplace"]),
    st.integers(min_value=0, max_value=20),
)
@settings(max_examples=20)
def test_brute_equals_dp(kind, seed):
    game = generate_game(3, DistributionSpec(kind=kind), seed=seed)
    bilp = build_bilp(game)
    brute = solve_qubo_exhaustive(bilp)
    dp = solve_dp(game)
    assert math.isclose(brute.best_value, dp.best_value, rel_tol=1e-9)
    assert brute.best_cs.blocks == dp.best_cs.blocks


def test_report_value_consistent_with_cs(g2):
    bilp = build_bilp(g2)
    for report in (solve_enum(g2), solve_dp(g2), solve_qubo_exhaustive(bilp)):
        assert report.best_value == cs_value(g2, report.best_cs)


def test_schedule_validation():
    with pytest.raises(ConfigError):
        AnnealSchedule(sweeps=0, temp_hi=1.0, temp_lo=0.1)
    with pytest.raises(ConfigError):
        AnnealSchedule(sweeps=10, temp_hi=1.0, temp_lo=2.0)
    with pytest.raises(ConfigError):
        AnnealSchedule(sweeps=10, temp_hi=1.0, temp_lo=0.0)
    with pytest.raises(ConfigError):
        AnnealSchedule(sweeps=10, temp_hi=1.0, temp_lo=0.1, restarts=0)


def test_default_schedule_scales(g2):
    bilp = build_bilp(g2)
    sched = default_schedule(bilp, seed=5)
    assert sched.sweeps == 10 * bilp.num_variables
    assert sched.temp_hi == 2.0 * 7.0
    assert sched.temp_lo == 1e-3
    assert sched.restarts == 10
    assert sched.seed == 5
    # all-zero game still gets a positive starting temperature
    zero_bilp = build_bilp(_zero_game(3))
    assert default_schedule(zero_bilp).temp_hi == 1.0


def test_sa_solves_g2(g2):
    bilp = build_bilp(g2)
    sched = AnnealSchedule(sweeps=100, temp_hi=30.0, temp_lo=1e-3, restarts=3, seed=0)
    report = solve_qubo_sa(bilp, sched, lam=10.0)
    assert report.metadata["best_x"] == "001"
    assert report.best_value == 4.0


def test_sa_default_schedule_n5():
    hits = 0
    for seed in range(1, 11):
        game = generate_game(5, DistributionSpec(kind="abu"), seed=seed)
        bilp = build_bilp(game)
        report = solve_qubo_sa(bilp, default_schedule(bilp, seed=seed))
        if report.feasible and math.isclose(
            report.best_value, solve_dp(game).best_value, rel_tol=1e-9
        ):
            hits += 1
    assert hits >= 9


def test_sa_zero_game_returns_feasible():
    bilp = build_bilp(_zero_game(4))
    report = solve_qubo_sa(bilp, default_schedule(bilp))
    assert report.feasible
    assert report.best_value == 0.0


def test_sa_deterministic_and_trace_monotone(g2):
    bilp = build_bilp(g2)
    a = solve_qubo_sa(bilp, default_schedule(bilp, seed=3))
    b = solve_qubo_sa(bilp, default_schedule(bilp, seed=3))
    assert json.dumps(a.to_json(include_timing=False)) == json.dumps(
        b.to_json(include_timing=False)
    )
    trace = a.metadata["trace"]
    assert all(later <= earlier for earlier, later in zip(trace, trace[1:]))


def test_sa_guard(monkeypatch):
    # One variable over SA_MAX_VARIABLES; the O(m^2) couplings must never be built.
    m = SA_MAX_VARIABLES + 1
    big = BilpInstance(n=16, columns=tuple(range(1, m + 1)), values=(0.0,) * m)
    monkeypatch.setattr("csgp.transform.coupling_counts", _refuse("coupling_counts"))
    with pytest.raises(ResourceLimitError, match="sa is limited"):
        solve_qubo_sa(big, AnnealSchedule(sweeps=1, temp_hi=1.0, temp_lo=1.0, restarts=1))


def test_sa_holds_the_uint8_counts_and_no_float_square():
    # m = 1,023: a float64 m x m coupling array is 8 MiB, the uint8 counts 1 MiB.
    bilp = build_bilp(generate_game(10, DistributionSpec(kind="normal"), seed=0))
    m2 = bilp.num_variables**2
    schedule = AnnealSchedule(sweeps=1, temp_hi=1.0, temp_lo=1.0, restarts=1)
    tracemalloc.start()
    try:
        solve_qubo_sa(bilp, schedule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * m2 + 2**20, peak


@pytest.fixture(scope="module")
def game20():
    return generate_game(20, DistributionSpec(kind="normal"), seed=0)


def _direct(method, game, bilp):
    """The solver solve(game, method) calls, called on the game or on its BILP."""
    if method in EXACT:
        return (solve_enum if method == "enum" else solve_dp)(game)
    if method == "sa":
        return solve_qubo_sa(bilp, AnnealSchedule(sweeps=1, temp_hi=1.0, temp_lo=1.0, restarts=1))
    return (solve_qubo_exhaustive if method == "qubo-brute" else solve_qaoa)(bilp)


# (method, agents, highest coalitions excluded): each method one over its limit,
# and the QUBO methods at n = 20, where 2^20 - 1 variables are known from n and
# the exclusions alone.  No excluded coalition is a single agent.
@pytest.mark.parametrize("method,n,excluded", [
    ("enum", 13, 0), ("dp", 21, 0), ("qubo-brute", 5, 6), ("sa", 16, (1 << 15) - 2), ("qaoa", 5, 10),
    *(pytest.param(method, 20, 0, id=f"{method}-n20") for method in ("qubo-brute", "sa", "qaoa")),
])
def test_one_limit_gives_one_message(monkeypatch, method, n, excluded):
    game = CoalitionGame(n=n, values=np.zeros(1 << n))
    exclude = range((1 << n) - excluded, 1 << n)
    size = n if method in EXACT else (1 << n) - 1 - excluded
    unit = "agents" if method in EXACT else "QUBO variables"
    message = f"{method} is limited to {LIMITS[method]} {unit}, got {size}"
    assert size == LIMITS[method] + 1 or n == 20
    # solve refuses before the BILP is built, and the solver before its couplings.
    bilp = None if method in EXACT else build_bilp(game, exclude)
    monkeypatch.setattr("csgp.solvers.build_bilp", _refuse("build_bilp"))
    monkeypatch.setattr("csgp.transform.coupling_counts", _refuse("coupling_counts"))
    with pytest.raises(ResourceLimitError) as direct:
        _direct(method, game, bilp)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError) as through_solve:
        solve(game, method, exclude=exclude)
    assert time.perf_counter() - start < 2.0
    assert str(direct.value) == str(through_solve.value) == message


def test_exclusions_are_checked_before_the_size_guard(game20, monkeypatch):
    monkeypatch.setattr("csgp.solvers.build_bilp", _refuse("build_bilp"))
    with pytest.raises(ConfigError, match="excluded coalition 1048576 out of range"):
        solve(game20, "sa", exclude={1, 1 << 20})
    # Every coalition with agent a20: m = 2^19 - 1 is over every limit, but no
    # partition exists, and that is what the caller hears.
    start = time.perf_counter()
    with pytest.raises(InfeasibleError, match=r"agents \[20\]"):
        solve(game20, "qaoa", exclude=range(1 << 19, 1 << 20))
    assert time.perf_counter() - start < 2.0


def _scalar_sa(bilp, qubo, schedule):
    """solve_qubo_sa with one Python iteration per flip attempt.

    The production sweep screens attempts in numpy and runs this exact
    test only on the attempts that can be accepted; its reports must
    equal this loop's byte for byte.
    """
    m = qubo.m
    diag = np.asarray(qubo.diag)
    neighbor_idx = [[] for _ in range(m)]
    neighbor_val = [[] for _ in range(m)]
    for (i, j), val in qubo.offdiag.items():
        neighbor_idx[i].append(j)
        neighbor_val[i].append(val)
        neighbor_idx[j].append(i)
        neighbor_val[j].append(val)
    nbr_idx = [np.asarray(ix, dtype=np.int64) for ix in neighbor_idx]
    nbr_val = [np.asarray(vs) for vs in neighbor_val]

    temps = [schedule.temperature(s) for s in range(schedule.sweeps)]
    restart_best = []
    for r in range(schedule.restarts):
        rng = np.random.default_rng(schedule.seed + r)
        x = [int(b) for b in rng.integers(0, 2, size=m)]
        g = diag.copy()
        for i in range(m):
            if x[i]:
                g[nbr_idx[i]] += nbr_val[i]
        energy = float(left_sum(d for d, b in zip(qubo.diag, x) if b))
        for (i, j), val in qubo.offdiag.items():
            if x[i] and x[j]:
                energy += val
        best_energy = energy
        best_x = list(x)
        trace = []
        for temp in temps:
            us = rng.random(m)
            for i in range(m):
                delta = (1.0 - 2.0 * x[i]) * float(g[i])
                if delta <= 0.0 or us[i] < math.exp(-delta / temp):
                    sign = 1.0 if x[i] == 0 else -1.0
                    x[i] ^= 1
                    if len(nbr_idx[i]):
                        g[nbr_idx[i]] += sign * nbr_val[i]
                    energy += delta
                    if energy < best_energy:
                        best_energy = energy
                        best_x = list(x)
            trace.append(best_energy)
        restart_best.append((best_energy, "".join(str(b) for b in best_x), trace))

    lowest = min(e for e, _, _ in restart_best)
    near = [cand for cand in restart_best if cand[0] == lowest]
    decoded = _pick_qubo_winner(bilp, [x for _, x, _ in near])
    winner_trace = next(t for e, x, t in restart_best if x == decoded.x and e == lowest)
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
    energy = qubo_energy(qubo, decoded.x)
    return _report_from_assignment("sa", bilp, decoded, energy, meta, 0.0, **_qubo_fields(qubo))


def _sa_case(n, kind, seed=0, lam=None, exclude=frozenset(), **schedule):
    game = _zero_game(n) if kind == "zero" else generate_game(n, DistributionSpec(kind=kind), seed)
    bilp = build_bilp(game, exclude)
    sched = default_schedule(bilp, seed=seed)
    if schedule:
        fields = {"sweeps": sched.sweeps, "temp_hi": sched.temp_hi, "temp_lo": sched.temp_lo}
        fields.update(schedule)
        sched = AnnealSchedule(restarts=2, seed=seed, **fields)
    return bilp, build_qubo(bilp, lam), sched


SA_ORACLE_PANEL = {
    **{
        f"default-{kind}-n{n}": dict(n=n, kind=kind, seed=n)
        for n in range(2, 7)
        for kind in ("abu", "wrc", "laplace")
    },
    "default-f-n7": dict(n=7, kind="f", seed=1),
    "n9-short": dict(n=9, kind="normal", sweeps=50),
    "hot": dict(n=5, kind="mu", seed=2, sweeps=100, temp_hi=1e12, temp_lo=1e12),
    "cold": dict(n=5, kind="mu", seed=2, sweeps=100, temp_hi=1e-6, temp_lo=1e-6),
    "huge-temp": dict(n=5, kind="mu", seed=2, sweeps=100, temp_hi=1e308, temp_lo=1e308),
    "lambda-0.5": dict(n=5, kind="normal", seed=3, lam=0.5),
    "lambda-10": dict(n=5, kind="normal", seed=3, lam=10.0),
    "zero-game": dict(n=4, kind="zero"),
    "tiny-temp-lo": dict(n=4, kind="sva_beta", seed=1, sweeps=60, temp_lo=1e-300),
    # Default temperatures over 2,550 sweeps (319 blocks of 8): both restarts freeze
    # at block 126, and many blocks before that are skipped as cold.
    "default-temps-normal-n8": dict(n=8, kind="normal", sweeps=2550),
    # Blocks of 66 and 34 sweeps at a constant temperature near lam / 2: flips, some
    # found by the one-at-a-time probe, fall in the last attempts of the short block.
    "short-last-block": dict(n=5, kind="wrc", seed=3, sweeps=100, temp_hi=500.0, temp_lo=500.0),
    # temp_hi == temp_lo, warm enough that the walk keeps moving.
    "flat-temp": dict(n=4, kind="abu", seed=1, sweeps=150, temp_hi=200.0, temp_lo=200.0),
    # From just above lam / 751 down to 1.5, where the two restarts' smallest deltas freeze them at
    # blocks 2 and 4 of 10.
    "freeze-apart": dict(n=5, kind="mu", seed=2, sweeps=600, temp_hi=1.65, temp_lo=1.5),
    # Local minima whose smallest delta is about 8 T: the walk leaves them only on
    # rare draws, which a restart stopped at 7.51 T instead of 751 T would miss.
    "rare-escape": dict(n=3, kind="abu", seed=0, sweeps=2000, temp_hi=26.0, temp_lo=26.0),
    # m = 256, the largest QUBO whose coupling rows SA holds as floats, and m = 257 just
    # above it, where a flip multiplies the uint8 counts row: n = 9 without coalitions
    # 2..256 and 2..255.  Twenty sweeps cool from temp_hi to 1e-3; lam = 30 keeps the
    # walk finding lower energies through them, so both flip directions reach the report.
    "float-rows-at-the-cap": dict(n=9, kind="normal", seed=4, lam=30.0, sweeps=20, exclude=range(2, 257)),
    "uint8-rows-above-the-cap": dict(n=9, kind="normal", seed=4, lam=30.0, sweeps=20, exclude=range(2, 256)),
    # m = 255: every attempt flips at T = 1e12, so float rows are both added (a bit
    # set) and subtracted (a bit cleared).
    "hot-n8": dict(n=8, kind="laplace", seed=1, sweeps=3, temp_hi=1e12, temp_lo=1e12),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(SA_ORACLE_PANEL))
def test_sa_sweep_equals_scalar_loop(case):
    bilp, qubo, sched = _sa_case(**SA_ORACLE_PANEL[case])
    fast = solve_qubo_sa(bilp, sched, qubo.lam).to_json(include_timing=False)
    slow = _scalar_sa(bilp, qubo, sched).to_json(include_timing=False)
    assert json.dumps(fast) == json.dumps(slow)


@pytest.mark.parametrize(
    "shape",
    # The stacks SA's initial field reduces: one row (all m = 1 can give),
    # two or more columns, and more rows than its field_rows (8192 // m).
    [(1, 1), (1, 63), (2, 2), (37, 63), (5000, 2), (300, 255), (64, 256)],
)
def test_field_reduce_is_the_cumsum_bit_for_bit(shape):
    rng = np.random.default_rng(shape)
    for _ in range(5):
        rows = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 17, size=shape)
        assert np.add.reduce(rows, axis=0).tobytes() == np.cumsum(rows, axis=0)[-1].tobytes()


class _CountingRng:
    """A Generator that counts its random() calls."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls
        calls.append(0)

    def random(self, *args, **kwargs):
        self._calls[-1] += 1
        return self._rng.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_sa_frozen_restart_draws_no_more_blocks(monkeypatch):
    # 1,000 sweeps at T = 1e-6 are 16 blocks of 66.  Each restart reaches a local
    # minimum within its first block, whose smallest delta is far above 751 * T, so
    # it stops after one draw; the report is still the per-attempt loop's.
    bilp, qubo, sched = _sa_case(n=5, kind="mu", seed=2, sweeps=1000, temp_hi=1e-6, temp_lo=1e-6)
    slow = _scalar_sa(bilp, qubo, sched).to_json(include_timing=False)
    calls = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _CountingRng(default_rng(seed), calls))
    fast = solve_qubo_sa(bilp, sched, qubo.lam).to_json(include_timing=False)
    assert calls == [1, 1]
    assert json.dumps(fast) == json.dumps(slow)


SA_COUNT_CASES = [
    (n, kind, lam, exclude)
    for n, kind in ((1, "abu"), (2, "normal"), (4, "wrc"), (6, "laplace"), (7, "f"))
    for lam in (None, 0.5, 30.0)
    for exclude in (frozenset(), frozenset({3}))
    if not (exclude and n < 2)
]


@pytest.mark.parametrize("n,kind,lam,exclude", SA_COUNT_CASES)
def test_sa_reports_the_qubo_fields_of_build_qubo(n, kind, lam, exclude):
    # SA reports these fields without building the dict; they must be the dict's.
    game = generate_game(n, DistributionSpec(kind=kind), n)
    bilp = build_bilp(game, exclude)
    qubo = build_qubo(bilp, lam)
    sched = AnnealSchedule(sweeps=3, temp_hi=5.0, temp_lo=0.1, restarts=1, seed=n)
    meta = solve_qubo_sa(bilp, sched, lam).metadata
    assert meta["s"] == len(qubo.offdiag)
    assert (meta["m"], meta["lambda"], meta["constant"]) == (qubo.m, qubo.lam, qubo.c)
    assert repr(meta["best_energy"]) == repr(qubo_energy(qubo, meta["best_x"]))


def test_sa_and_brute_force_never_call_qubo_energy(monkeypatch):
    game = generate_game(5, DistributionSpec(kind="abn"), 2)
    small = generate_game(4, DistributionSpec(kind="mu"), 1)
    want_sa = json.dumps(solve(game, "sa", seed=1).to_json(include_timing=False))
    want_brute = json.dumps(solve(small, "qubo-brute").to_json(include_timing=False))
    monkeypatch.setattr("csgp.solvers.qubo_energy", _refuse("qubo_energy"))
    monkeypatch.setattr("csgp.transform.qubo_energy", _refuse("qubo_energy"))
    # Neither builds a QUBO dict at all.
    monkeypatch.setattr("csgp.solvers.build_qubo", _refuse("build_qubo"))
    assert json.dumps(solve(small, "qubo-brute").to_json(include_timing=False)) == want_brute
    assert json.dumps(solve(game, "sa", seed=1).to_json(include_timing=False)) == want_sa


@pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0, 1e308])
def test_sa_checks_the_penalty_before_the_coupling_build(monkeypatch, lam):
    monkeypatch.setattr("csgp.transform.coupling_counts", _refuse("coupling_counts"))
    game = generate_game(3, DistributionSpec(kind="abu"), 0)
    with pytest.raises(ConfigError, match="penalty weight"):
        solve(game, "sa", lam=lam)


def test_sa_sweep_budget():
    # The default schedule at the SA guard, and 200 * m sweeps at n = 12, fit the budget.
    AnnealSchedule(sweeps=10 * SA_MAX_VARIABLES, temp_hi=1.0, temp_lo=0.1, restarts=10)
    AnnealSchedule(sweeps=200 * 4095, temp_hi=1.0, temp_lo=0.1, restarts=10)
    AnnealSchedule(sweeps=SA_MAX_SWEEPS, temp_hi=1.0, temp_lo=0.1, restarts=1)
    with pytest.raises(ResourceLimitError, match="sweeps over all restarts"):
        AnnealSchedule(sweeps=SA_MAX_SWEEPS + 1, temp_hi=1.0, temp_lo=0.1, restarts=1)


def test_sa_schedule_rejects_infinite_temp_hi():
    # temp_hi = inf would make every temperature after the first NaN.
    with pytest.raises(ConfigError, match="finite"):
        _sa_case(n=4, kind="sva_beta", seed=1, sweeps=60, temp_hi=math.inf)


def test_report_json_shape(g2):
    doc = solve_enum(g2).to_json()
    assert doc["method"] == "enum"
    assert doc["feasible"] is True
    assert doc["best_blocks"] == [3]
    assert "wall_ms" in doc["timing"]
    trimmed = solve_enum(g2).to_json(include_timing=False)
    assert "timing" not in trimmed


def test_solve_fixed_depth_is_the_scan_at_that_depth():
    # One derived seed per depth: --p 1 and a scan's first layer agree.
    game = generate_game(2, DistributionSpec(kind="normal"), 0)
    fixed = solve(game, "qaoa", p=1, shots=256)
    scan = solve(game, "qaoa", p_max=1, shots=256)
    assert [r.to_json(include_timing=False) for r in fixed.qaoa_results] == [
        r.to_json(include_timing=False) for r in scan.qaoa_results
    ]
    assert fixed.to_json(include_timing=False) == scan.to_json(include_timing=False)
    assert "qaoa_results" not in fixed.to_json()


def test_qaoa_reports_the_qubo_energy_of_its_answer():
    # As qubo-brute and sa do.  On this game the sampled energy-table value
    # plus the Ising offset is a few ULPs away from it.
    game = generate_game(2, DistributionSpec(kind="mu"), 0)
    report = solve(game, "qaoa", p=1, shots=256)
    qubo = build_qubo(build_bilp(game))
    assert report.metadata["best_energy"] == qubo_energy(qubo, report.metadata["best_x"])


def test_solve_qaoa_guard_fires_before_the_reference_scan(monkeypatch):
    # m = 21: one qubit over the simulator's limit, within the brute-force one.
    game = generate_game(5, DistributionSpec(kind="normal"), 0)
    bilp = build_bilp(game, {3, 5, 6, 7, 9, 10, 11, 12, 13, 14})

    def refuse(*args):
        raise AssertionError("the reference scan ran before the simulator guard")

    monkeypatch.setattr("csgp.solvers.solve_qubo_exhaustive", refuse)
    with pytest.raises(ResourceLimitError):
        solve_qaoa(bilp)


def test_solve_qaoa_takes_the_bilp_and_penalty_as_solve_does():
    # As solve_qubo_exhaustive(bilp, lam) and solve_qubo_sa(bilp, schedule, lam) do.
    game = generate_game(2, DistributionSpec(kind="normal"), 0)
    bilp = build_bilp(game)
    for lam, depth in ((None, {"p_max": 2}), (25.0, {"p": 2})):
        want = solve(game, "qaoa", lam=lam, shots=256, seed=3, **depth)
        got = solve_qaoa(bilp, lam, shots=256, seed=3, **depth)
        assert got.to_json(include_timing=False) == want.to_json(include_timing=False)
        assert [r.to_json(include_timing=False) for r in got.qaoa_results] == [
            r.to_json(include_timing=False) for r in want.qaoa_results
        ]
    with pytest.raises(ConfigError, match="penalty"):
        solve_qaoa(bilp, -1.0, p=1)


@pytest.mark.parametrize(
    "depth, error, match",
    [
        ({"p": 1.5}, ConfigError, "layer count must be an integer"),
        ({"p": 0}, ConfigError, "layer count must be >= 1"),
        ({"p": 65}, ResourceLimitError, "layer count 65"),
        ({"p_max": True}, ConfigError, "p_max must be an integer"),
        ({"p_max": 0}, ConfigError, "p_max must be >= 1"),
        ({"p_max": 65}, ResourceLimitError, "p_max 65"),
    ],
)
def test_solve_qaoa_refuses_a_bad_depth_before_the_reference_scan(monkeypatch, depth, error, match):
    def refuse(*args):
        raise AssertionError("the reference scan ran before the depth check")

    bilp = build_bilp(generate_game(2, DistributionSpec(kind="normal"), 0))
    monkeypatch.setattr("csgp.solvers.solve_qubo_exhaustive", refuse)
    with pytest.raises(error, match=match):
        solve_qaoa(bilp, **depth)


def test_solve_qaoa_refuses_p_with_p_max_before_the_reference_scan(monkeypatch):
    # solve_qaoa ran depth 2 alone and dropped p_max; solve refused the pair.
    game = generate_game(2, DistributionSpec(kind="normal"), 0)
    monkeypatch.setattr("csgp.solvers.solve_qubo_exhaustive", _refuse("the reference scan"))
    for run in (lambda: solve_qaoa(build_bilp(game), p=2, p_max=5), lambda: solve(game, "qaoa", p=2, p_max=5)):
        with pytest.raises(ConfigError, match="give either --p or --p-max, not both"):
            run()


def test_solve_rejects_unknown_method_and_partition_exclusions(g2):
    with pytest.raises(ConfigError, match="unknown method"):
        solve(g2, "bogus")
    with pytest.raises(ConfigError, match="exclude"):
        solve(g2, "dp", exclude={1})


@pytest.mark.parametrize("method", ["enum", "dp"])
def test_partition_solvers_test_an_array_exclude_by_its_length(method):
    # `if exclude:` ended in numpy's "truth value of an array is ambiguous" ValueError.
    game = generate_game(3, DistributionSpec(kind="abu"), 0)
    for exclude in (np.array([1, 2]), np.array([3]), [1, 2], 3):
        with pytest.raises(ConfigError, match="--exclude applies only to QUBO-based methods"):
            solve(game, method, exclude=exclude)
    best = solve(game, method).best_value
    for exclude in (np.array([], dtype=np.int64), [], (), frozenset(), None):
        assert solve(game, method, exclude=exclude).best_value == best


@pytest.mark.parametrize("method", ["enum", "dp", "sa", "qaoa"])
def test_solve_refuses_a_0d_array_exclude(monkeypatch, method):
    # A 0-d array has __iter__ and passes the Sized test, but iterating it or taking
    # its len() raised a TypeError.
    game = generate_game(3, DistributionSpec(kind="abu"), 0)
    monkeypatch.setattr("csgp.solvers.build_bilp", _refuse("build_bilp"))
    message = "applies only to QUBO-based" if method in ("enum", "dp") else "collection of coalition"
    with pytest.raises(ConfigError, match=message):
        solve(game, method, exclude=np.array(5))


def test_solve_checks_qaoa_depths_before_the_chain(g2, monkeypatch):
    def refuse(*args):
        raise AssertionError("build_bilp ran before the depth check")

    monkeypatch.setattr("csgp.solvers.build_bilp", refuse)
    for depths in ({"p": 0}, {"p": -1}, {"p_max": 0}):
        with pytest.raises(ConfigError, match=">= 1"):
            solve(g2, "qaoa", **depths)


def test_solve_checks_shots_before_the_chain(g2, monkeypatch):
    def refuse(*args):
        raise AssertionError("build_bilp ran before the shots check")

    monkeypatch.setattr("csgp.solvers.build_bilp", refuse)
    for shots in (0, -5):
        with pytest.raises(ConfigError, match=f"shots must be >= 1, got {shots}"):
            solve(g2, "qaoa", shots=shots)


@pytest.mark.parametrize(
    "method, options, message",
    [
        ("sa", {"exclude": "12"}, "collection of coalition indices"),
        ("qubo-brute", {"exclude": b"12"}, "collection of coalition indices"),
        ("qaoa", {"p": 1, "shots": 2.5}, "shots must be an integer"),
        ("qaoa", {"p": 1, "shots": "1024"}, "shots must be an integer"),
    ],
)
def test_solve_refuses_a_string_exclude_and_non_integer_shots(g2, monkeypatch, method, options, message):
    # "12" would exclude coalitions 1 and 2, and 2.5 shots would report 2.5 with 2 draws.
    monkeypatch.setattr("csgp.solvers.build_bilp", _refuse("build_bilp"))
    with pytest.raises(ConfigError, match=message):
        solve(g2, method, **options)


@pytest.mark.parametrize(
    "method, options, message",
    [
        ("sa", {"exclude": [1.5]}, "excluded coalition must be an integer, got 1.5"),
        ("sa", {"exclude": 3}, "collection of coalition indices"),
        ("sa", {"lam": "x"}, "penalty weight must be a number"),
        ("sa", {"temp_hi": "x"}, "temp_hi must be a number"),
        ("qaoa", {"p": 1.5}, "layer count must be an integer"),
        ("qaoa", {"p_max": 1.5}, "p_max must be an integer"),
        ("qaoa", {"p": 1, "shots": True}, "shots must be an integer"),
        ("sa", {"seed": 1.5}, "seed must be an integer"),
        ("qubo-brute", {"seed": True}, "seed must be an integer"),
        ("sa", {"sweeps": 2.5}, "sweeps must be an integer"),
        ("sa", {"restarts": 1.5}, "restarts must be an integer"),
    ],
)
def test_solve_refuses_options_of_the_wrong_type(g2, monkeypatch, method, options, message):
    # Each was misread (exclude [1.5] as coalition 1, True as 1) or ended in a
    # TypeError or ValueError traceback.
    monkeypatch.setattr("csgp.transform.coupling_counts", _refuse("coupling_counts"))
    with pytest.raises(ConfigError, match=message):
        solve(g2, method, **options)


def test_solve_checks_sa_overrides_before_the_coupling_build(monkeypatch):
    monkeypatch.setattr("csgp.transform.coupling_counts", _refuse("coupling_counts"))
    game = generate_game(4, DistributionSpec(kind="normal"), 0)
    bad = {
        "sweeps must be >= 1": {"sweeps": 0},
        "restarts must be >= 1": {"restarts": 0},
        "temp_lo <= temp_hi": {"temp_lo": 2.0, "temp_hi": 1.0},
        "0 < temp_lo": {"temp_lo": 0.0},
        "finite": {"temp_hi": math.inf},
    }
    for message, overrides in bad.items():
        with pytest.raises(ConfigError, match=message):
            solve(game, "sa", **overrides)


def test_negative_seeds_are_config_errors():
    with pytest.raises(ConfigError, match="seed"):
        generate_game(2, DistributionSpec(kind="abu"), seed=-1)
    with pytest.raises(ConfigError, match="seed"):
        AnnealSchedule(sweeps=10, temp_hi=1.0, temp_lo=0.1, seed=-1)
