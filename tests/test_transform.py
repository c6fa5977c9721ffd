import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from csgp import (
    CoalitionGame,
    CoalitionStructure,
    ConfigError,
    DistributionSpec,
    InfeasibleError,
    QuboInstance,
    build_bilp,
    build_qubo,
    coupling_counts,
    cs_value,
    decode_solution,
    default_penalty,
    generate_game,
    qubo_energy,
    qubo_to_ising,
)
from csgp.game import DISTRIBUTION_KINDS
from csgp import transform
from csgp.game import left_sum
from csgp.qaoa import energy_table
from csgp.solvers import default_schedule
from csgp.transform import (
    agent_counts,
    ising_fields,
    matrix_energy,
    penalty_terms,
    quadratic_table,
)
from oracles import partitions


def test_bilp_columns_and_rows(g2):
    bilp = build_bilp(g2)
    assert bilp.columns.dtype == np.int64 and bilp.columns.tolist() == [1, 2, 3]
    assert bilp.values.dtype == np.float64 and bilp.values.tolist() == [1.0, 2.0, 4.0]
    assert not bilp.columns.flags.writeable and not bilp.values.flags.writeable
    # row i of S holds the variables whose coalition contains agent a_{i+1}:
    # {1} and {1, 2} for a1, {2} and {1, 2} for a2
    assert agent_counts(bilp.columns, bilp.n) == [2, 2]


def _singletons(bilp):
    """The assignment that selects exactly the one-agent coalitions."""
    return "".join("1" if c.bit_count() == 1 else "0" for c in bilp.columns.tolist())


def _readout(b, m):
    """The assignment of basis state b: x_k = 1 - (bit k of b), as z_k = 1 - 2 * bit k."""
    return "".join(str(1 - (b >> k & 1)) for k in range(m))


def _row_masks(bilp):
    """Row i of the constraint matrix as a bitmask over variables, bit j set iff
    agent a_{i+1} is in coalition columns[j], one Python iteration per entry."""
    masks = []
    for agent_bit in range(bilp.n):
        mask = 0
        for j, c in enumerate(bilp.columns.tolist()):
            if c >> agent_bit & 1:
                mask |= 1 << j
        masks.append(mask)
    return masks


@pytest.mark.parametrize("n", range(1, 13))
def test_agent_counts_equal_the_row_mask_loop(n, monkeypatch):
    game = generate_game(n, DistributionSpec(kind="normal"), seed=n)
    composite = frozenset(c for c in range(3, 1 << n, 3) if c.bit_count() > 1)
    rng = np.random.default_rng(n)
    seen = []

    def spy(columns, agents):
        seen.append(agent_counts(columns, agents))
        return seen[-1]

    monkeypatch.setattr(transform, "agent_counts", spy)
    for exclude in (frozenset(), composite):
        bilp = build_bilp(game, exclude)
        m = bilp.num_variables
        masks = _row_masks(bilp)
        seen.clear()
        penalty_terms(bilp)
        assert seen == [[mask.bit_count() for mask in masks]]  # penalty_terms' shared
        singletons = _singletons(bilp)
        draws = [rng.random(m) < share for share in (0.5, n / m, 1 / m) for _ in range(5)]
        for x in [singletons, "0" * m, *("".join(map(str, d.astype(int).tolist())) for d in draws)]:
            selected = int(x[::-1], 2)
            counts = [(mask & selected).bit_count() for mask in masks]
            decoded = decode_solution(bilp, x)
            assert decoded.feasible == (counts == [1] * n)
            assert decoded.violation == (None if decoded.feasible else tuple(c - 1 for c in counts))


def test_bilp_exclusions(g2):
    bilp = build_bilp(g2, exclude={3})
    assert bilp.columns.tolist() == [1, 2]
    with pytest.raises(InfeasibleError):
        build_bilp(g2, exclude={1, 3})
    with pytest.raises(ConfigError):
        build_bilp(g2, exclude={4})


def test_qubo_g2_coefficients(g2):
    qubo = build_qubo(build_bilp(g2), lam=10.0)
    assert qubo.diag == (-11.0, -12.0, -24.0)
    assert qubo.offdiag == {(0, 2): 20.0, (1, 2): 20.0}
    assert qubo.c == 20.0
    assert qubo.interaction_count == 2


def test_default_penalty(g2):
    bilp = build_bilp(g2)
    assert default_penalty(bilp) == 1.0 + 2.0 * 7.0
    assert build_qubo(bilp).lam == 15.0
    with pytest.raises(ConfigError):
        build_qubo(bilp, lam=0.0)
    with pytest.raises(ConfigError):
        build_qubo(bilp, lam=-3.0)


def _pair_loop_offdiag(bilp, lam):
    """build_qubo's couplings as one Python iteration per pair, in row-major order.

    build_qubo reads them off penalty_terms; its dict must equal this
    loop's in keys, insertion order and the bits of every value.
    """
    offdiag = {}
    cols = bilp.columns
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            overlap = (cols[i] & cols[j]).bit_count()
            if overlap:
                offdiag[(i, j)] = 2.0 * lam * overlap
    return offdiag


# Every case runs at the default penalty; all but n = 9 and 10 also at 0.5 and 20.
COUPLING_ORACLE_PANEL = {
    **{
        f"{kind}-n{n}": dict(n=n, kind=kind, lams=(None, 0.5, 20.0))
        for kind in DISTRIBUTION_KINDS
        for n in range(1, 9)
    },
    **{
        f"{kind}-n{n}": dict(n=n, kind=kind, lams=(None,))
        for kind in ("normal", "wrc")
        for n in (9, 10)
    },
    "abu-n5-exclude": dict(
        n=5, kind="abu", lams=(None, 0.5, 20.0), exclude={3, 5, 6, 7, 9, 10, 11, 12, 13, 14}
    ),
}


@pytest.mark.parametrize("case", sorted(COUPLING_ORACLE_PANEL))
def test_couplings_equal_the_pair_loop(case):
    spec = COUPLING_ORACLE_PANEL[case]
    game = generate_game(spec["n"], DistributionSpec(kind=spec["kind"]), seed=0)
    bilp = build_bilp(game, spec.get("exclude", frozenset()))
    for lam in spec["lams"]:
        qubo = build_qubo(bilp, lam)
        expected = _pair_loop_offdiag(bilp, default_penalty(bilp) if lam is None else lam)
        assert list(qubo.offdiag) == list(expected)
        assert [v.hex() for v in qubo.offdiag.values()] == [v.hex() for v in expected.values()]


def test_coupling_matrix_is_symmetric_with_zero_diagonal():
    bilp = build_bilp(generate_game(5, DistributionSpec(kind="mu"), seed=3), {6, 17})
    lam, _, counts, levels = penalty_terms(bilp, 1.5)
    assert lam == 1.5 and levels.tolist() == [0.0, 3.0, 6.0, 9.0, 12.0, 15.0]
    assert counts.dtype == np.uint8 and counts.shape == (29, 29)
    assert (counts == counts.T).all()
    assert not counts.diagonal().any()
    assert counts[0, 2] == 1 and counts[0, 1] == 0  # {1} & {1,2} share one agent


def _one_expression_couplings(bilp, lam):
    """The m x m float couplings as one numpy expression, with its int64 m x m
    temporary."""
    cols = np.array(bilp.columns, dtype=np.int64)
    couple = (2.0 * lam) * np.bitwise_count(cols[:, None] & cols)
    np.fill_diagonal(couple, 0.0)
    return couple


@pytest.mark.parametrize("n", range(1, 11))
def test_coupling_matrix_equals_the_one_expression(n):
    game = generate_game(n, DistributionSpec(kind="normal"), seed=n)
    composite = frozenset(c for c in range(3, 1 << n, 3) if c.bit_count() > 1)
    for exclude in (frozenset(), composite):
        bilp = build_bilp(game, exclude)
        counts = coupling_counts(bilp)
        assert counts.dtype == np.uint8 and counts.shape == (bilp.num_variables,) * 2
        for lam in (default_penalty(bilp), 0.5, 1e300):
            want = _one_expression_couplings(bilp, lam)
            _, _, terms_counts, levels = penalty_terms(bilp, lam)
            assert terms_counts.tobytes() == counts.tobytes()
            assert levels.take(counts).tobytes() == want.tobytes()  # qubo-brute's couplings
            assert ((2.0 * lam) * counts).tobytes() == want.tobytes()


@pytest.mark.parametrize("block", [1, 7, 1 << 20])
def test_coupling_counts_do_not_depend_on_the_block_size(monkeypatch, block):
    bilp = build_bilp(generate_game(6, DistributionSpec(kind="abu"), seed=2), {5, 9, 40})
    want = _one_expression_couplings(bilp, 0.5)
    monkeypatch.setattr("csgp.transform.ENERGY_BLOCK", block)
    assert (1.0 * coupling_counts(bilp)).tobytes() == want.tobytes()


def test_coupling_builds_hold_no_int64_square():
    # m = 1023: an int64 (or float64) m x m array is 8 MiB, the counts 1 MiB, and
    # one block's int64 temporary ENERGY_BLOCK * 8 bytes = 0.5 MiB.
    bilp = build_bilp(generate_game(10, DistributionSpec(kind="normal"), seed=0))
    m2 = bilp.num_variables**2
    tracemalloc.start()
    try:
        coupling_counts(bilp)
        counts_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        penalty_terms(bilp, 1.0)
        terms_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts_peak < 2 * m2, counts_peak
    assert terms_peak < 2 * m2, terms_peak


def _assignments(m):
    return ["".join(str(k >> j & 1) for j in range(m)) for k in range(1 << m)]


def _offdiag_matrix(qubo):
    quad = np.zeros((qubo.m, qubo.m))
    for (i, j), val in qubo.offdiag.items():
        quad[i, j] = val
    return quad


def _random_integer_qubo(m, seed):
    rng = np.random.default_rng(seed)
    offdiag = {
        (i, j): float(rng.integers(-50, 50)) for i in range(m) for j in range(i + 1, m) if rng.random() < 0.6
    }
    diag = tuple(float(d) for d in rng.integers(-100, 100, size=m))
    return QuboInstance(m=m, diag=diag, offdiag=offdiag, c=float(rng.integers(0, 1000)))


def test_quadratic_table_is_bitwise_qubo_energy_on_integer_qubos():
    # Integers far below 2^53 sum exactly in any order.
    integer_game = CoalitionGame(n=3, values={c: float(c % 5 - 2) for c in range(1, 8)})
    qubos = [_random_integer_qubo(m, m) for m in range(1, 11)]
    qubos += [build_qubo(build_bilp(integer_game), lam) for lam in (None, 3.0)]
    for qubo in qubos:
        table = quadratic_table(qubo.diag, _offdiag_matrix(qubo), qubo.c)
        want = [float(qubo_energy(qubo, x) + qubo.c) for x in _assignments(qubo.m)]
        assert [v.hex() for v in table.tolist()] == [v.hex() for v in want], qubo.m


@pytest.mark.parametrize("kind", DISTRIBUTION_KINDS)
def test_quadratic_table_equals_qubo_energy(kind):
    for n in (2, 3):
        bilp = build_bilp(generate_game(n, DistributionSpec(kind=kind), seed=1))
        qubo = build_qubo(bilp)
        _, _, counts, levels = penalty_terms(bilp, qubo.lam)
        couple = levels.take(counts)
        table = quadratic_table(qubo.diag, couple)
        # Only the upper triangle is read.
        assert table.tobytes() == quadratic_table(qubo.diag, np.triu(couple)).tobytes()
        want = np.array([qubo_energy(qubo, x) for x in _assignments(qubo.m)])
        assert np.allclose(table, want, rtol=0, atol=1e-12 * np.abs(want).max())


def _check_matrix_energy(kind, agents):
    # The all-zero x gives the int 0 in both; every other x a float, bit for bit.
    rng = np.random.default_rng(len(kind))
    for n in agents:
        game = generate_game(n, DistributionSpec(kind=kind), seed=n)
        # Excluded below n = 9: every coalition of two or more agents whose index is a multiple of 3.
        exclusions = [frozenset()]
        if 2 <= n <= 8:
            exclusions.append(frozenset(c for c in range(3, 1 << n, 3) if c.bit_count() >= 2))
        for exclude in exclusions:
            bilp = build_bilp(game, exclude)
            m = bilp.num_variables
            singletons = _singletons(bilp)
            xs = ["0" * m, "1" * m, singletons] + ["".join(map(str, rng.integers(0, 2, m))) for _ in range(2)]
            for lam in (None, 0.5, 30.0):
                qubo = build_qubo(bilp, lam)
                _, _, counts, levels = penalty_terms(bilp, qubo.lam)
                for x in xs:
                    want, got = qubo_energy(qubo, x), matrix_energy(qubo.diag, counts, levels, x)
                    assert type(got) is type(want) and repr(got) == repr(want), (n, lam, x)
                    bits = [int(b) for b in x]
                    assert repr(matrix_energy(qubo.diag, counts, levels, bits)) == repr(want)


@pytest.mark.parametrize("kind", DISTRIBUTION_KINDS)
def test_matrix_energy_is_qubo_energy_in_repr_and_type(kind):
    _check_matrix_energy(kind, range(1, 10))


@pytest.mark.parametrize("kind", DISTRIBUTION_KINDS)
def test_matrix_energy_carries_its_sum_across_row_blocks(kind, monkeypatch):
    # Seven entries per pass: from one row per block to several rows per block.
    monkeypatch.setattr("csgp.transform.ENERGY_BLOCK", 7)
    _check_matrix_energy(kind, range(1, 7))


def test_matrix_energy_reads_an_int_array_a_list_and_a_str_alike():
    bilp = build_bilp(generate_game(5, DistributionSpec(kind="normal"), seed=5))
    _, diag, counts, levels = penalty_terms(bilp)
    rng = np.random.default_rng(0)
    for dtype in (np.int64, np.int8, np.uint8):
        for _ in range(10):
            x = rng.integers(0, 2, size=bilp.num_variables).astype(dtype)
            want = repr(matrix_energy(diag, counts, levels, x))
            assert repr(matrix_energy(diag, counts, levels, x.tolist())) == want
            assert repr(matrix_energy(diag, counts, levels, "".join(map(str, x.tolist())))) == want
            assert decode_solution(bilp, x) == decode_solution(bilp, x.astype(bool))
    x[3] = 2
    with pytest.raises(ConfigError, match="bits must be 0 or 1"):
        matrix_energy(diag, counts, levels, x)
    with pytest.raises(ConfigError, match="assignment has 30 bits, expected 31"):
        matrix_energy(diag, counts, levels, x[1:])


def test_float_sums_add_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so a left fold gives 0.0; Python 3.12's
    # compensated sum() gives 1.0.
    values = (1e16, 1.0, -1e16)
    assert left_sum(values) == 0.0 and left_sum(values, 0.5) == 0.0
    assert type(left_sum(())) is int
    qubo = QuboInstance(m=3, diag=values, offdiag={}, c=0.0)
    assert qubo_energy(qubo, "111") == 0.0
    assert matrix_energy(values, np.zeros((3, 3), np.uint8), np.zeros(1), "111") == 0.0
    assert qubo_to_ising(qubo).offset == 0.0
    assert ising_fields(values, np.zeros((3, 3), np.uint8), [0.0])[1] == 0.0
    game = CoalitionGame(n=3, values={c: values[c.bit_length() - 1] if c in (1, 2, 4) else 0.0 for c in range(1, 8)})
    assert cs_value(game, CoalitionStructure([1, 2, 4])) == 0.0
    # |v| summed left to right: 1e16 + 1.0 + 1.0 stays 1e16 (a compensated sum gives 1e16 + 2).
    bilp = build_bilp(CoalitionGame(n=2, values={1: 1e16, 2: 1.0, 3: -1.0}))
    assert default_penalty(bilp) == 1.0 + 2.0 * 1e16
    assert default_schedule(bilp).temp_hi == 2.0 * 1e16


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_build_qubo_rejects_a_penalty_that_is_not_finite(g2, lam):
    with pytest.raises(ConfigError, match="positive and finite"):
        build_qubo(build_bilp(g2), lam)


def test_build_qubo_rejects_coefficients_that_overflow():
    # At n = 4, 2 * lam * n is finite, but the couplings sum to 224 * lam.
    bilp = build_bilp(generate_game(4, DistributionSpec(kind="abu"), seed=0))
    build_qubo(bilp, 1e305)
    with pytest.raises(ConfigError, match="overflow"):
        build_qubo(bilp, 1e307)
    huge = CoalitionGame(n=2, values={1: 1e308, 2: 1e308, 3: 1e308})
    with pytest.raises(ConfigError, match="finite, got inf"):
        build_qubo(build_bilp(huge))


def test_qubo_energy_examples(g2):
    qubo = build_qubo(build_bilp(g2), lam=10.0)
    assert qubo_energy(qubo, "000") == 0.0
    assert qubo_energy(qubo, "001") == -24.0
    assert qubo_energy(qubo, "111") == -7.0
    assert qubo_energy(qubo, [1, 1, 0]) == -23.0
    with pytest.raises(ConfigError):
        qubo_energy(qubo, "01")
    with pytest.raises(ConfigError):
        qubo_energy(qubo, "021")


def test_qubo_rejects_bad_shape():
    with pytest.raises(ConfigError):
        QuboInstance(m=2, diag=(1.0,), offdiag={}, c=0.0)
    with pytest.raises(ConfigError):
        QuboInstance(m=2, diag=(1.0, 2.0), offdiag={(1, 0): 1.0}, c=0.0)
    with pytest.raises(ConfigError):
        QuboInstance(m=2, diag=(1.0, 2.0), offdiag={(0, 2): 1.0}, c=0.0)


@pytest.mark.parametrize("n,kind,seed", [(2, "abu", 0), (3, "mu", 1), (3, "laplace", 2)])
def test_feasible_energy_identity(n, kind, seed):
    game = generate_game(n, DistributionSpec(kind=kind), seed=seed)
    bilp = build_bilp(game)
    qubo = build_qubo(bilp)
    feasible = 0
    for x in _assignments(qubo.m):
        decoded = decode_solution(bilp, x)
        if decoded.feasible:
            feasible += 1
            assert math.isclose(
                qubo_energy(qubo, x) + qubo.c, -cs_value(game, decoded.cs), rel_tol=1e-9, abs_tol=1e-9
            )
    assert feasible == sum(1 for _ in partitions(n))


@pytest.mark.parametrize("n,kind", [(2, "normal"), (3, "wrc"), (4, "laplace")])
def test_penalty_dominance(n, kind):
    """With the default penalty every infeasible assignment costs strictly more
    than the best feasible one; checked exhaustively."""
    game = generate_game(n, DistributionSpec(kind=kind), seed=5)
    bilp = build_bilp(game)
    qubo = build_qubo(bilp)
    m = qubo.m
    best_feasible = math.inf
    worst_gap = math.inf
    for bits in range(1 << m):
        x = "".join(str(bits >> k & 1) for k in range(m))
        e = qubo_energy(qubo, x)
        if decode_solution(bilp, x).feasible:
            best_feasible = min(best_feasible, e)
        else:
            worst_gap = min(worst_gap, e)
    assert worst_gap > best_feasible


def test_ising_single_variable_identity():
    qubo = QuboInstance(m=1, diag=(-3.0,), offdiag={}, c=0.0)
    ising = qubo_to_ising(qubo)
    assert ising.h == (-1.5,)
    assert ising.offset == -1.5
    table = energy_table(ising)
    assert table[0] + ising.offset == -3.0  # z = +1, x = 1
    assert table[1] + ising.offset == 0.0  # z = -1, x = 0


def test_ising_g2_exhaustive(g2):
    qubo = build_qubo(build_bilp(g2), lam=10.0)
    ising = qubo_to_ising(qubo)
    assert set(ising.J) == set(qubo.offdiag)
    for b, e in enumerate(energy_table(ising).tolist()):
        assert math.isclose(
            e + ising.offset, qubo_energy(qubo, _readout(b, 3)), rel_tol=1e-9, abs_tol=1e-9
        )


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=99))
def test_ising_identity_random_games(n, seed):
    game = generate_game(n, DistributionSpec(kind="abn"), seed=seed)
    qubo = build_qubo(build_bilp(game))
    ising = qubo_to_ising(qubo)
    m = qubo.m
    table = energy_table(ising)
    for b in (0, 1, (1 << m) - 1, seed % (1 << m)):
        assert math.isclose(
            table[b] + ising.offset, qubo_energy(qubo, _readout(b, m)), rel_tol=1e-9, abs_tol=1e-9
        )


def test_decode_examples(g2):
    bilp = build_bilp(g2)
    good = decode_solution(bilp, "001")
    assert good.feasible and good.cs.blocks == (3,) and good.violation is None
    over = decode_solution(bilp, "101")
    assert not over.feasible and over.cs is None and over.violation == (1, 0)
    empty = decode_solution(bilp, "000")
    assert not empty.feasible and empty.violation == (-1, -1)


@pytest.mark.parametrize(
    "x", ["01x", [None, 1, 0], [0.5, 1, 1], "\uff1101", [[0], 1, 1], np.array([0.0, 1.0, 0.5])],
    ids=["letter", "none", "half", "fullwidth-1", "list", "float-array"],
)
def test_assignment_entries_other_than_0_and_1_are_refused(g2, x):
    bilp = build_bilp(g2)
    _, diag, counts, levels = penalty_terms(bilp, 10.0)
    qubo = build_qubo(bilp, lam=10.0)
    for call in (
        lambda: decode_solution(bilp, x),
        lambda: qubo_energy(qubo, x),
        lambda: matrix_energy(diag, counts, levels, x),
    ):
        with pytest.raises(ConfigError, match="^assignment bits must be 0 or 1$"):
            call()
    # What compares equal to 0 or 1 reads as that bit.
    for same in ([False, 1.0, True], np.array([0.0, 1.0, 1.0]), ["0", 1, np.int8(1)]):
        assert qubo_energy(qubo, same) == qubo_energy(qubo, "011")
        assert decode_solution(bilp, same) == decode_solution(bilp, "011")


def test_decoding_every_assignment_yields_each_partition_once():
    bilp = build_bilp(generate_game(4, DistributionSpec(kind="f"), seed=3))
    decoded = [decode_solution(bilp, x) for x in _assignments(bilp.num_variables)]
    found = sorted(d.cs.blocks for d in decoded if d.feasible)
    assert found == sorted(tuple(sorted(blocks)) for blocks in partitions(4))


@pytest.mark.parametrize("n,expected_s", [(2, 2), (3, 15)])
def test_interaction_count(n, expected_s):
    game = generate_game(n, DistributionSpec(kind="rayleigh"), seed=0)
    qubo = build_qubo(build_bilp(game))
    assert qubo.interaction_count == expected_s


@pytest.mark.parametrize("factor", [1.0, 2.0, 10.0])
def test_argmin_invariant_under_larger_penalty(factor):
    from csgp.solvers import solve_qubo_exhaustive

    for n, kind in ((3, "abu"), (4, "sva_beta")):
        game = generate_game(n, DistributionSpec(kind=kind), seed=7)
        bilp = build_bilp(game)
        lam = default_penalty(bilp) * factor
        report = solve_qubo_exhaustive(bilp, lam)
        baseline = solve_qubo_exhaustive(bilp)
        assert report.best_cs.blocks == baseline.best_cs.blocks
