import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csgp import (
    AnnealSchedule,
    CoalitionGame,
    ConfigError,
    DistributionSpec,
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
    SA_MAX_SWEEPS,
    SA_MAX_VARIABLES,
    _pick_qubo_winner,
    _report_from_assignment,
    partitions,
)
from csgp.transform import qubo_energy


def _zero_game(n):
    return CoalitionGame(n=n, values={c: 0.0 for c in range(1, (1 << n))})


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_dp_split_counter(n):
    game = _zero_game(n)
    splits = solve_dp(game).metadata["splits"]
    assert splits == (3 ** n + 1) // 2 - 2 ** n
    # brute-force recount: pairs (T, T1) with T1 a proper subset of T
    # containing T's lowest agent
    recount = 0
    for t in range(1, 1 << n):
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
        assert solve_qubo_exhaustive(bilp, build_qubo(bilp)).best_cs.blocks == expected


def test_zero_game_ties_resolve_identically():
    game = _zero_game(4)
    assert solve_enum(game).best_cs.blocks == solve_dp(game).best_cs.blocks == (1, 2, 4, 8)


def _scalar_dp(game):
    """solve_dp as one Python iteration per split, in ascending mask order.

    The production DP evaluates a popcount layer's splits in numpy; its
    value must equal this loop's bit for bit, and its blocks and split
    count must equal this loop's.
    """
    full = (1 << game.n) - 1
    values = game.values
    f = [0.0] * (full + 1)
    opt = [()] * (full + 1)
    splits = 0
    for t in range(1, full + 1):
        best = values[t]
        best_blocks = (t,)
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


def test_brute_g2(g2):
    bilp = build_bilp(g2)
    report = solve_qubo_exhaustive(bilp, build_qubo(bilp, lam=10.0))
    assert report.best_cs.blocks == (3,)
    assert report.best_value == 4.0
    assert report.metadata["best_x"] == "001"
    assert report.metadata["best_energy"] == -24.0
    assert report.feasible


def test_brute_guard():
    game = generate_game(5, DistributionSpec(kind="abu"), seed=0)  # m = 31
    bilp = build_bilp(game)
    with pytest.raises(ResourceLimitError):
        solve_qubo_exhaustive(bilp, build_qubo(bilp))


@given(
    st.sampled_from(["abu", "normal", "f", "laplace"]),
    st.integers(min_value=0, max_value=20),
)
@settings(max_examples=20)
def test_brute_equals_dp(kind, seed):
    game = generate_game(3, DistributionSpec(kind=kind), seed=seed)
    bilp = build_bilp(game)
    brute = solve_qubo_exhaustive(bilp, build_qubo(bilp))
    dp = solve_dp(game)
    assert math.isclose(brute.best_value, dp.best_value, rel_tol=1e-9)
    assert brute.best_cs.blocks == dp.best_cs.blocks


def test_report_value_consistent_with_cs(g2):
    bilp = build_bilp(g2)
    for report in (solve_enum(g2), solve_dp(g2), solve_qubo_exhaustive(bilp, build_qubo(bilp))):
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
    qubo = build_qubo(bilp, lam=10.0)
    sched = AnnealSchedule(sweeps=100, temp_hi=30.0, temp_lo=1e-3, restarts=3, seed=0)
    report = solve_qubo_sa(bilp, qubo, sched)
    assert report.metadata["best_x"] == "001"
    assert report.best_value == 4.0


def test_sa_default_schedule_n5():
    hits = 0
    for seed in range(1, 11):
        game = generate_game(5, DistributionSpec(kind="abu"), seed=seed)
        bilp = build_bilp(game)
        report = solve_qubo_sa(bilp, build_qubo(bilp), default_schedule(bilp, seed=seed))
        if report.feasible and math.isclose(
            report.best_value, solve_dp(game).best_value, rel_tol=1e-9
        ):
            hits += 1
    assert hits >= 9


def test_sa_zero_game_returns_feasible():
    bilp = build_bilp(_zero_game(4))
    report = solve_qubo_sa(bilp, build_qubo(bilp), default_schedule(bilp))
    assert report.feasible
    assert report.best_value == 0.0


def test_sa_deterministic_and_trace_monotone(g2):
    bilp = build_bilp(g2)
    qubo = build_qubo(bilp)
    a = solve_qubo_sa(bilp, qubo, default_schedule(bilp, seed=3))
    b = solve_qubo_sa(bilp, qubo, default_schedule(bilp, seed=3))
    assert json.dumps(a.to_json(include_timing=False)) == json.dumps(
        b.to_json(include_timing=False)
    )
    trace = a.metadata["trace"]
    assert all(later <= earlier for earlier, later in zip(trace, trace[1:]))


def test_sa_guard():
    bilp = build_bilp(_zero_game(2))
    qubo = build_qubo(bilp)
    big = type(qubo)(m=(1 << 15) + 1, diag=(0.0,) * ((1 << 15) + 1), offdiag={}, c=0.0)
    with pytest.raises(ResourceLimitError):
        solve_qubo_sa(bilp, big, default_schedule(bilp))


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
        energy = float(sum(d for d, b in zip(qubo.diag, x) if b))
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
    decoded = _pick_qubo_winner(bilp, qubo, [x for _, x, _ in near])
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
    return _report_from_assignment("sa", bilp, qubo, decoded, energy, meta, 0.0)


def _sa_case(n, kind, seed=0, lam=None, **schedule):
    game = _zero_game(n) if kind == "zero" else generate_game(n, DistributionSpec(kind=kind), seed)
    bilp = build_bilp(game)
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
    "lambda-0.5": dict(n=5, kind="normal", seed=3, lam=0.5),
    "lambda-10": dict(n=5, kind="normal", seed=3, lam=10.0),
    "zero-game": dict(n=4, kind="zero"),
    "tiny-temp-lo": dict(n=4, kind="sva_beta", seed=1, sweeps=60, temp_lo=1e-300),
}


@pytest.mark.parametrize("case", sorted(SA_ORACLE_PANEL))
def test_sa_sweep_equals_scalar_loop(case):
    bilp, qubo, sched = _sa_case(**SA_ORACLE_PANEL[case])
    fast = solve_qubo_sa(bilp, qubo, sched).to_json(include_timing=False)
    slow = _scalar_sa(bilp, qubo, sched).to_json(include_timing=False)
    assert json.dumps(fast) == json.dumps(slow)


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


def test_solve_qaoa_guard_fires_before_the_reference_scan(monkeypatch):
    # m = 21: one qubit over the simulator's limit, within the brute-force one.
    game = generate_game(5, DistributionSpec(kind="normal"), 0)
    bilp = build_bilp(game, {3, 5, 6, 7, 9, 10, 11, 12, 13, 14})
    qubo = build_qubo(bilp)

    def refuse(*args):
        raise AssertionError("the reference scan ran before the simulator guard")

    monkeypatch.setattr("csgp.solvers.solve_qubo_exhaustive", refuse)
    with pytest.raises(ResourceLimitError):
        solve_qaoa(bilp, qubo)


def test_solve_rejects_unknown_method_and_partition_exclusions(g2):
    with pytest.raises(ConfigError, match="unknown method"):
        solve(g2, "bogus")
    with pytest.raises(ConfigError, match="exclude"):
        solve(g2, "dp", exclude={1})


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


def test_solve_checks_sa_overrides_before_the_coupling_build(monkeypatch):
    def refuse(*args):
        raise AssertionError("build_qubo ran before the schedule check")

    monkeypatch.setattr("csgp.solvers.build_qubo", refuse)
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
