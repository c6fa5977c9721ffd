import json
import math

import numpy as np
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
    cs_value,
    generate_game,
    load_game,
    n_coalitions,
    save_game,
)
from csgp import game as game_module
from csgp.game import _DEFAULT_PARAMS, left_sum
from oracles import partitions


# The samplers as they were when every family drew one coalition at a time:
# the oracle that the array draws of `generate_game` must match bit for bit.
# Each records what it saw in ORACLE_EVENTS, so the panel can show that it
# reaches F resamples and MU spikes.
ORACLE_EVENTS = {"f resample": 0, "mu spike": 0}


def _oracle_abu(rng, n, sizes, p):
    base = rng.uniform(p["agent_low"], p["agent_high"], size=n)
    values = {}
    for c in range(1, n_coalitions(n) + 1):
        members = [i for i in range(n) if c >> i & 1]
        bonus = rng.uniform(p["coalition_low"], p["coalition_high"], size=len(members))
        values[c] = float(base[members].sum() + bonus.sum())
    return values


def _oracle_abn(rng, n, sizes, p):
    base = rng.normal(p["agent_mean"], math.sqrt(p["agent_var"]), size=n)
    values = {}
    for c in range(1, n_coalitions(n) + 1):
        members = [i for i in range(n) if c >> i & 1]
        bonus = rng.normal(p["coalition_mean"], math.sqrt(p["coalition_var"]), size=len(members))
        values[c] = float(base[members].sum() + bonus.sum())
    return values


def _oracle_mu(rng, n, sizes, p):
    values = {}
    for c, size in sizes:
        v = rng.uniform(0.0, p["high_per_agent"] * size)
        if rng.uniform() < p["spike_prob"]:
            ORACLE_EVENTS["mu spike"] += 1
            v += rng.uniform(0.0, p["spike_high"])
        values[c] = float(v)
    return values


def _oracle_normal(rng, n, sizes, p):
    sd = math.sqrt(p["var"])
    return {c: float(rng.normal(p["mean_per_agent"] * size, sd)) for c, size in sizes}


def _oracle_sva_beta(rng, n, sizes, p):
    values = {}
    for c, size in sizes:
        weight = size + p["valuable_bonus"] * (c & 1)  # agent a1 is the valuable one
        values[c] = float(p["scale"] * rng.beta(p["alpha"], p["beta"]) * weight)
    return values


def _oracle_weibull(rng, n, sizes, p):
    return {c: float(p["scale"] * rng.weibull(size)) for c, size in sizes}


def _oracle_rayleigh(rng, n, sizes, p):
    return {c: float(rng.rayleigh(p["scale_per_sqrt_size"] * math.sqrt(size))) for c, size in sizes}


def _oracle_wrc(rng, n, sizes, p):
    values = {}
    for c, size in sizes:
        w = rng.uniform(p["weight_low"], p["weight_high"])
        values[c] = float(w * size + rng.chisquare(p["chi_df"]))
    return values


def _oracle_f(rng, n, sizes, p):
    values = {}
    for c, size in sizes:
        draw = rng.f(p["dfnum"], p["dfden"])
        while draw > p["resample_above"]:
            ORACLE_EVENTS["f resample"] += 1
            draw = rng.f(p["dfnum"], p["dfden"])
        values[c] = float(draw * size)
    return values


def _oracle_laplace(rng, n, sizes, p):
    return {c: float(rng.laplace(p["loc_per_agent"] * size, p["scale"])) for c, size in sizes}


def oracle_values(n, kind, seed):
    rng = np.random.default_rng(seed)
    sizes = [(c, c.bit_count()) for c in range(1, n_coalitions(n) + 1)]
    return globals()[f"_oracle_{kind}"](rng, n, sizes, _DEFAULT_PARAMS[kind])


ORACLE_PANEL = [(n, seed) for n in range(1, 11) for seed in range(5)] + [
    (n, seed) for n in (13, 16) for seed in range(2)
]


def as_hex(pairs):
    """Keys in order with each value's exact bits, so -0.0 differs from 0.0."""
    return [(key, float(value).hex()) for key, value in pairs]


def indexed(values):
    """(coalition, value) for each nonempty coalition of a game's value array."""
    return list(enumerate(values.tolist()))[1:]


def test_n_coalitions():
    assert [n_coalitions(n) for n in (1, 2, 3, 4)] == [1, 3, 7, 15]


def test_game_requires_complete_value_map():
    with pytest.raises(SchemaError):
        CoalitionGame(n=2, values={1: 1.0, 2: 2.0})
    with pytest.raises(SchemaError):
        CoalitionGame(n=2, values={1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0})
    with pytest.raises(SchemaError):
        CoalitionGame(n=2, values={1: 1.0, 2: math.nan, 3: 3.0})
    with pytest.raises(SchemaError):
        CoalitionGame(n=2, values={1: 1.0, 2: 2.0, 4: 3.0})


def test_first_non_finite_value_is_reported_by_smallest_key():
    with pytest.raises(SchemaError, match=r"coalition 2 has non-finite value inf"):
        CoalitionGame(n=2, values={3: math.nan, 1: 1.0, 2: math.inf})
    with pytest.raises(SchemaError, match=r"coalition 1 has non-finite value nan"):
        CoalitionGame(n=2, values={1: math.nan, 2: 2.0, 3: -math.inf})


def test_game_values_come_out_as_floats_in_key_order():
    game = CoalitionGame(n=2, values={3: 3, 1: np.float64(1.5), 2: -0.0})
    assert game.values.dtype == np.float64 and not game.values.flags.writeable
    assert as_hex(enumerate(game.values.tolist())) == as_hex([(0, 0.0), (1, 1.5), (2, -0.0), (3, 3.0)])
    assert math.copysign(1.0, game.values[2]) == -1.0


def test_game_takes_a_value_array_and_keeps_its_own_copy():
    given = np.array([0.0, 1.5, -0.0, 3.0])
    game = CoalitionGame(n=2, values=given)
    assert as_hex(enumerate(game.values.tolist())) == as_hex(enumerate(given.tolist()))
    assert not game.values.flags.writeable and given.flags.writeable
    given[1] = 9.0
    assert game.values[1] == 1.5
    for bad in ([0.0, 1.0, 2.0], [1.0, 1.0, 2.0, 3.0], np.zeros((4, 2)), [0.0, 1.0, 2.0, math.inf]):
        with pytest.raises(SchemaError):
            CoalitionGame(n=2, values=bad)


def test_game_size_is_checked_before_indices_are_built():
    # 2^34 - 1 coalitions: any structure of that size would exhaust memory.
    with pytest.raises(SchemaError):
        CoalitionGame(n=34, values={1: 1.0})


@pytest.mark.parametrize("n", [5000, 10**7, 10**11])
def test_huge_agent_count_is_refused_without_forming_two_to_the_n(n):
    # 2^n itself would be a 1,505-digit message at n = 5000, too long to print
    # at 10^7 and 12 GB at 10^11.
    for values in ({1: 1.0}, np.zeros(2)):
        with pytest.raises(SchemaError) as exc:
            CoalitionGame(n=n, values=values)
        assert "2^n" in str(exc.value) and len(str(exc.value)) < 100


def test_distribution_spec_normalizes_and_validates():
    assert DistributionSpec(kind="ABU").kind == "abu"
    assert DistributionSpec(kind="sva-beta").kind == "sva_beta"
    with pytest.raises(ConfigError):
        DistributionSpec(kind="cauchy")


@pytest.mark.parametrize("kind", DISTRIBUTION_KINDS)
def test_generate_game_covers_all_coalitions(kind):
    game = generate_game(4, DistributionSpec(kind=kind), seed=0)
    assert game.values.shape == (16,) and game.values.dtype == np.float64
    assert math.copysign(1.0, game.values[0]) == 1.0 and game.values[0] == 0.0
    assert np.isfinite(game.values).all()
    assert game.dist_label == kind
    assert game.seed == 0


@pytest.mark.parametrize("kind", DISTRIBUTION_KINDS)
def test_generate_game_deterministic(kind):
    a = generate_game(3, DistributionSpec(kind=kind), seed=42)
    b = generate_game(3, DistributionSpec(kind=kind), seed=42)
    assert as_hex(indexed(a.values)) == as_hex(indexed(b.values))
    c = generate_game(3, DistributionSpec(kind=kind), seed=43)
    assert as_hex(indexed(a.values)) != as_hex(indexed(c.values))


@pytest.mark.parametrize("kind", DISTRIBUTION_KINDS)
def test_array_draws_equal_the_per_coalition_oracle(kind):
    for n, seed in ORACLE_PANEL:
        game = generate_game(n, DistributionSpec(kind=kind), seed=seed)
        assert game.values[0] == 0.0
        assert as_hex(indexed(game.values)) == as_hex(oracle_values(n, kind, seed).items()), (n, seed)


def test_oracle_panel_reaches_f_resamples_and_mu_spikes():
    ORACLE_EVENTS.update({"f resample": 0, "mu spike": 0})
    for n, seed in ORACLE_PANEL:
        oracle_values(n, "f", seed)
        oracle_values(n, "mu", seed)
    assert ORACLE_EVENTS["f resample"] >= 1
    assert ORACLE_EVENTS["mu spike"] >= 1


class CountingRng:
    """A generator that counts the calls made to it."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("kind", DISTRIBUTION_KINDS)
def test_generation_makes_a_handful_of_generator_calls(monkeypatch, kind):
    made = []
    default_rng = np.random.default_rng

    def counting_rng(seed):
        made.append(CountingRng(default_rng(seed)))
        return made[-1]

    monkeypatch.setattr(game_module.np.random, "default_rng", counting_rng)
    generate_game(13, DistributionSpec(kind=kind), seed=0)
    assert len(made) == 1
    if kind == "wrc":  # a uniform and a chi-square per coalition
        assert made[0].calls == 2 * n_coalitions(13)
    else:
        assert made[0].calls <= 4


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
    assert CoalitionStructure(np.array([2, 1])).blocks == (1, 2)


@pytest.mark.parametrize("block", [1.5, 1.0, True, np.True_, "3", None])
def test_structure_refuses_a_block_that_is_not_an_integer(block):
    # 1.5 and True both became block 1.
    with pytest.raises(InvalidStructureError, match="not an integer coalition index"):
        CoalitionStructure([block])


@pytest.mark.parametrize("kind", [None, 3, b"abu", ["abu"]])
def test_distribution_spec_refuses_a_kind_that_is_not_a_string(kind):
    # None and 3 ended in an AttributeError, b"abu" in a TypeError.
    with pytest.raises(ConfigError, match="unknown distribution kind"):
        DistributionSpec(kind=kind)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=999))
def test_every_partition_validates_and_sums(n, seed):
    game = generate_game(n, DistributionSpec(kind="wrc"), seed=seed)
    for blocks in partitions(n):
        cs = CoalitionStructure(blocks)
        # Sum in canonical block order, left to right, so float association matches exactly.
        assert cs_value(game, cs) == left_sum(game.values[b] for b in sorted(blocks))


def test_save_load_round_trip(tmp_path):
    game = generate_game(3, DistributionSpec(kind="laplace"), seed=9)
    path = tmp_path / "game.json"
    save_game(game, path)
    back = load_game(path)
    assert back.n == game.n
    assert as_hex(enumerate(back.values.tolist())) == as_hex(enumerate(game.values.tolist()))
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
        {"n": 2, "values": {"1": 1.0, "2": 2.0, "3": 3.0, "01": 9.0}},
    ],
)
def test_load_rejects_schema_violations(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_game(path)


@pytest.mark.parametrize(
    "text,key",
    [
        ('{"n": 2, "values": {"1": 1.0, "2": 2.0, "3": 3.0, "1": 9.0}}', "'1'"),
        ('{"n": 2, "n": 3, "values": {"1": 1.0, "2": 2.0, "3": 3.0}}', "'n'"),
    ],
)
def test_load_rejects_a_key_written_twice(tmp_path, text, key):
    # json.load alone keeps the last value, here v(1) = 9.0 or n = 3.
    path = tmp_path / "twice.json"
    path.write_text(text)
    with pytest.raises(SchemaError, match=f"key {key} appears twice") as exc:
        load_game(path)
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"n": True, "values": {"1": 1.5}}, "'n' must be an integer"),
        ({"n": 1, "values": {"1": 1.5}, "seed": True}, "'seed' must be an integer or null"),
        ({"n": 1, "values": {"1": 1.5}, "seed": False}, "'seed' must be an integer or null"),
    ],
)
def test_load_refuses_a_bool_agent_count_or_seed(tmp_path, doc, message):
    # json reads true as a bool, which passes isinstance(_, int): n and seed were read as 1.
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=message):
        load_game(path)


@pytest.mark.parametrize("n", [True, False])
def test_game_refuses_a_bool_agent_count(n):
    with pytest.raises(SchemaError, match="agent count must be an integer"):
        CoalitionGame(n=n, values={1: 1.5})
