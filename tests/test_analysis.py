"""Sparsity bounds and the exact gate-count comparison table.

The interaction-count formula is cross-checked against a direct pair
count over coalition bitmasks and against the QUBO builder itself.
"""

import io
import math
import re
from pathlib import Path

import pytest

from csgp.analysis import (
    CSV_HEADER,
    S_MODES,
    complexity_table,
    gate_count,
    sparsity_bounds,
    write_complexity_csv,
)
from csgp.errors import ConfigError
from csgp.game import CoalitionGame
from csgp.transform import build_bilp, build_qubo

README = Path(__file__).resolve().parents[1] / "README.md"


def test_sparsity_bounds_small_cases():
    assert sparsity_bounds(2) == (3, 3, 2)
    assert sparsity_bounds(3) == (7, 21, 15)
    # The dense bound at n = 3 saturates every variable pair.
    assert sparsity_bounds(3)[1] == math.comb(7, 2)
    with pytest.raises(ConfigError):
        sparsity_bounds(1)


@pytest.mark.parametrize("n", range(2, 8))
def test_actual_sparsity_counts_intersecting_pairs(n):
    masks = list(range(1, 1 << n))
    brute = sum(
        1
        for i in range(len(masks))
        for j in range(i + 1, len(masks))
        if masks[i] & masks[j]
    )
    assert sparsity_bounds(n)[2] == brute


@pytest.mark.parametrize("n", range(2, 6))
def test_actual_sparsity_matches_built_qubo(n):
    values = {c: 1.0 for c in range(1, 1 << n)}
    qubo = build_qubo(build_bilp(CoalitionGame(n=n, values=values)))
    assert qubo.interaction_count == sparsity_bounds(n)[2]


def test_complexity_rows_exact_values():
    rows = complexity_table(range(2, 4), [1, 50], s_mode="min")
    by_key = {(r.n, r.p): r for r in rows}
    assert by_key[(2, 1)].s == 3
    assert by_key[(2, 1)].ip_cost == 4
    assert by_key[(2, 1)].idp_boss_cost == 9
    assert by_key[(2, 1)].bilpq_gates == 18
    assert by_key[(2, 50)].bilpq_gates == 753
    assert by_key[(3, 50)].bilpq_gates == 1757
    for row in rows:
        assert row.bilpq_gates == gate_count(row.n, row.p, row.s)
        for value in (row.s, row.ip_cost, row.idp_boss_cost, row.bilpq_gates):
            assert isinstance(value, int)


def test_mode_selects_which_bound_is_tabulated():
    for mode in S_MODES:
        rows = complexity_table(range(2, 21), [1, 10], s_mode=mode)
        for row in rows:
            assert row.s_mode == mode
            s_min, s_max, _ = sparsity_bounds(row.n)
            low, high = gate_count(row.n, row.p, s_min), gate_count(row.n, row.p, s_max)
            assert low <= high
            if mode == "min":
                assert row.bilpq_gates == low
            elif mode == "max":
                assert row.bilpq_gates == high
            elif row.n >= 3:
                assert low <= row.bilpq_gates <= high
            else:
                # n = 2 only: the intersecting-pair count dips below the
                # sparse bound, so the actual-regime circuit is smaller.
                assert row.bilpq_gates < low


def test_crossover_against_exhaustive_baseline():
    rows = complexity_table(range(2, 65), [50], s_mode="min")
    for row in rows:
        cheaper = row.bilpq_gates < row.idp_boss_cost
        assert cheaper == (row.n >= 14), row.n


def test_crossover_against_partition_enumeration_baseline():
    rows = complexity_table(range(2, 65), [50], s_mode="min")
    for row in rows:
        cheaper = row.bilpq_gates < row.ip_cost
        assert cheaper == (row.n >= 6), row.n


# (p, n from which the circuit beats 3^n, n from which it beats n^n) at
# s = 2^n - 1 over n = 2..64: README's crossover table.
CROSSOVERS = [(1, 5, 4), (10, 10, 5), (25, 12, 6), (50, 14, 6)]


@pytest.mark.parametrize("p, beats_exhaustive, beats_walk", CROSSOVERS)
def test_crossover_table(p, beats_exhaustive, beats_walk):
    for row in complexity_table(range(2, 65), [p], s_mode="min"):
        assert (row.bilpq_gates < row.idp_boss_cost) == (row.n >= beats_exhaustive), row.n
        assert (row.bilpq_gates < row.ip_cost) == (row.n >= beats_walk), row.n
    assert f"| {p} | {beats_exhaustive} | {beats_walk} |" in README.read_text(encoding="utf-8")


def test_sparse_regime_has_closed_form_at_fixed_depth():
    # At p = 50 and s = 2^n - 1 the count collapses to 251 * (2^n - 1).
    for n in range(2, 30):
        row = complexity_table([n], [50], s_mode="min")[0]
        assert row.bilpq_gates == 251 * ((1 << n) - 1)


def test_table_validation():
    with pytest.raises(ConfigError):
        complexity_table(range(2, 4), [1], s_mode="typical")
    with pytest.raises(ConfigError):
        complexity_table([1], [1])
    with pytest.raises(ConfigError):
        complexity_table([65], [1])
    with pytest.raises(ConfigError):
        complexity_table([4], [0])


@pytest.mark.parametrize("n", [1, 65, 2**70, 2.7, 2.0, True, "3", None])
def test_one_agent_count_check_serves_all_three(n):
    message = re.escape(f"agent counts must be integers in [2, 64], got {n!r}")
    for call in (lambda: gate_count(n, 1, 3), lambda: sparsity_bounds(n), lambda: complexity_table([2, n], [1])):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            call()


def test_csv_layout():
    rows = complexity_table(range(2, 5), [1, 25], s_mode="actual")
    buf = io.StringIO()
    write_complexity_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == (
        "n,p,s_mode,s,ip_cost,idp_boss_cost,bilpq_gates,log10_ip,log10_idp,log10_bilpq"
    )
    assert len(lines) == 1 + len(rows)
    for row, line in zip(rows, lines[1:]):
        fields = line.split(",")
        assert fields[0] == str(row.n)
        assert fields[2] == "actual"
        assert int(fields[6]) == row.bilpq_gates
        assert float(fields[7]) == pytest.approx(math.log10(row.ip_cost), abs=1e-6)
        assert float(fields[9]) == pytest.approx(math.log10(row.bilpq_gates), abs=1e-6)
