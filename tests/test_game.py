import json
import math

import pytest
from hypothesis import given, strategies as st

from csgp import (
    DISTRIBUTION_KINDS,
    CoalitionGame,
    CoalitionStructure,
    ConfigError,
    DistributionSpec,
    InvalidStructureError,
    ParseError,
    ResourceLimitError,
    SchemaError,
    coalition_members,
    cs_value,
    generate_game,
    load_game,
    n_coalitions,
    save_game,
)
from csgp.solvers import partitions


def test_coalition_members_examples():
    assert coalition_members(1, 3) == {1}
    assert coalition_members(5, 3) == {1, 3}
    assert coalition_members(7, 3) == {1, 2, 3}


@pytest.mark.parametrize("index", [0, 8, -1])
def test_coalition_members_range(index):
    with pytest.raises(ConfigError):
        coalition_members(index, 3)


def test_n_coalitions():
    assert [n_coalitions(n) for n in (1, 2, 3, 4)] == [1, 3, 7, 15]


@given(st.integers(min_value=1, max_value=10))
def test_membership_matches_bits(n):
    full = n_coalitions(n)
    for index in (1, full, (full + 1) // 2):
        members = coalition_members(index, n)
        assert members == {i + 1 for i in range(n) if index >> i & 1}


def test_game_requires_complete_value_map():
    with pytest.raises(SchemaError):
        CoalitionGame(n=2, values={1: 1.0, 2: 2.0})
    with pytest.raises(SchemaError):
        CoalitionGame(n=2, values={1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0})
    with pytest.raises(SchemaError):
        CoalitionGame(n=2, values={1: 1.0, 2: math.nan, 3: 3.0})
    with pytest.raises(SchemaError):
        CoalitionGame(n=2, values={1: 1.0, 2: 2.0, 4: 3.0})


def test_game_size_is_checked_before_indices_are_built():
    # 2^34 - 1 coalitions: any structure of that size would exhaust memory.
    with pytest.raises(SchemaError):
        CoalitionGame(n=34, values={1: 1.0})


def test_distribution_spec_normalizes_and_validates():
    assert DistributionSpec(kind="ABU").kind == "abu"
    assert DistributionSpec(kind="sva-beta").kind == "sva_beta"
    with pytest.raises(ConfigError):
        DistributionSpec(kind="cauchy")


@pytest.mark.parametrize("kind", DISTRIBUTION_KINDS)
def test_generate_game_covers_all_coalitions(kind):
    game = generate_game(4, DistributionSpec(kind=kind), seed=0)
    assert set(game.values) == set(range(1, 16))
    assert all(math.isfinite(v) for v in game.values.values())
    assert game.dist_label == kind
    assert game.seed == 0


@pytest.mark.parametrize("kind", DISTRIBUTION_KINDS)
def test_generate_game_deterministic(kind):
    a = generate_game(3, DistributionSpec(kind=kind), seed=42)
    b = generate_game(3, DistributionSpec(kind=kind), seed=42)
    assert a.values == b.values
    c = generate_game(3, DistributionSpec(kind=kind), seed=43)
    assert a.values != c.values


def test_generate_game_guard():
    with pytest.raises(ResourceLimitError):
        generate_game(21, DistributionSpec(kind="abu"), seed=0)
    with pytest.raises(ConfigError):
        generate_game(0, DistributionSpec(kind="abu"), seed=0)


def test_cs_value_g2(g2):
    assert cs_value(g2, CoalitionStructure([3])) == 4.0
    assert cs_value(g2, CoalitionStructure([2, 1])) == 3.0


def test_cs_value_rejects_non_partitions(g2):
    with pytest.raises(InvalidStructureError):
        cs_value(g2, CoalitionStructure([1]))  # agent a2 uncovered
    with pytest.raises(InvalidStructureError):
        cs_value(g2, CoalitionStructure([1, 3]))  # a1 covered twice
    with pytest.raises(InvalidStructureError):
        cs_value(g2, CoalitionStructure([4]))  # not a coalition index for n=2


def test_structure_blocks_are_canonical():
    assert CoalitionStructure([4, 1, 2]).blocks == (1, 2, 4)
    assert CoalitionStructure((3,)).blocks == (3,)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=999))
def test_every_partition_validates_and_sums(n, seed):
    game = generate_game(n, DistributionSpec(kind="wrc"), seed=seed)
    for blocks in partitions(n):
        cs = CoalitionStructure(blocks)
        # Sum in canonical block order so float association matches exactly.
        assert cs_value(game, cs) == sum(game.values[b] for b in sorted(blocks))


def test_save_load_round_trip(tmp_path):
    game = generate_game(3, DistributionSpec(kind="laplace"), seed=9)
    path = tmp_path / "game.json"
    save_game(game, path)
    back = load_game(path)
    assert back.n == game.n
    assert back.values == game.values  # bit-identical floats
    assert back.dist_label == "laplace"
    assert back.seed == 9


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2, "values": {')
    with pytest.raises(ParseError):
        load_game(path)


@pytest.mark.parametrize(
    "doc",
    [
        [1, 2, 3],
        {"values": {"1": 1.0}},
        {"n": 2},
        {"n": "two", "values": {"1": 1, "2": 2, "3": 3}},
        {"n": 2, "values": [1, 2, 3]},
        {"n": 2, "values": {"1": 1.0, "2": 2.0, "x": 3.0}},
        {"n": 2, "values": {"1": 1.0, "2": 2.0, "3": "big"}},
        {"n": 2, "values": {"1": 1.0, "2": 2.0, "3": True}},
        {"n": 2, "values": {"1": 1.0, "2": 2.0}},
        {"n": 2, "values": {"1": 1.0, "2": 2.0, "3": 3.0}, "seed": "zero"},
    ],
)
def test_load_rejects_schema_violations(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_game(path)
