"""Validation and normalization of GaConfig plus mutation-rate resolution."""

import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gakit.config import (
    AdaptivePair,
    CrossoverKind,
    GaConfig,
    MutationKind,
    NumGenes,
    ParentSelection,
    PercentGenes,
    Probability,
    resolve_mutation_count,
    validate,
)
from gakit.errors import ConfigError, NonFiniteGene
from gakit.genome import (
    UNCONSTRAINED,
    DiscreteSet,
    GeneSchema,
    GeneType,
    ValueRange,
    coerce_gene,
    init_population,
)
from gakit.operators import mutate


def base_config(**overrides):
    base = dict(num_generations=100, sol_per_pop=10, num_parents_mating=5, num_genes=3)
    base.update(overrides)
    return GaConfig(**base)


def test_demo_parameters_validate():
    cfg = validate(base_config())
    assert cfg.num_generations == 100
    assert cfg.sol_per_pop == 10
    assert cfg.num_parents_mating == 5
    assert cfg.num_genes == 3
    assert cfg.parent_selection is ParentSelection.STEADY_STATE
    assert cfg.crossover is CrossoverKind.SINGLE_POINT
    assert cfg.mutation is MutationKind.RANDOM
    assert cfg.mutation_rate == PercentGenes(10.0)
    assert cfg.init_range == (-4.0, 4.0)
    assert cfg.random_delta_range == (-1.0, 1.0)


def test_keep_parents_sentinel_normalized():
    cfg = validate(base_config(keep_parents=-1))
    assert cfg.keep_parents == 5


def test_keep_parents_above_parents_rejected():
    with pytest.raises(ConfigError) as err:
        validate(base_config(keep_parents=6))
    assert err.value.field == "keep_parents"


@pytest.mark.parametrize("keep_parents", [-1, 4])
def test_keep_parents_filling_population_rejected(keep_parents):
    # -1 resolves to num_parents_mating, which here equals sol_per_pop.
    with pytest.raises(ConfigError) as err:
        validate(GaConfig(num_generations=1, sol_per_pop=4, num_parents_mating=4, num_genes=3,
                          keep_parents=keep_parents))
    assert err.value.field == "keep_parents"
    assert "sol_per_pop" in err.value.constraint


def test_too_many_parents_rejected():
    with pytest.raises(ConfigError) as err:
        validate(GaConfig(num_generations=10, sol_per_pop=4, num_parents_mating=5, num_genes=3))
    assert err.value.field == "num_parents_mating"
    assert "sol_per_pop" in err.value.constraint


def test_adaptive_requires_pair():
    with pytest.raises(ConfigError) as err:
        validate(base_config(mutation=MutationKind.ADAPTIVE, mutation_rate=NumGenes(2)))
    assert err.value.field == "mutation_rate"
    assert "AdaptivePair" in err.value.constraint


def test_pair_requires_adaptive():
    pair = AdaptivePair(PercentGenes(20), PercentGenes(5))
    with pytest.raises(ConfigError):
        validate(base_config(mutation=MutationKind.RANDOM, mutation_rate=pair))


def test_pair_sides_same_variant():
    pair = AdaptivePair(PercentGenes(20), NumGenes(1))
    with pytest.raises(ConfigError):
        validate(base_config(mutation=MutationKind.ADAPTIVE, mutation_rate=pair))


def test_pair_never_nests():
    inner = AdaptivePair(PercentGenes(20), PercentGenes(5))
    pair = AdaptivePair(inner, PercentGenes(5))
    with pytest.raises(ConfigError):
        validate(base_config(mutation=MutationKind.ADAPTIVE, mutation_rate=pair))


def test_pair_high_below_low_rejected():
    pair = AdaptivePair(PercentGenes(5), PercentGenes(20))
    with pytest.raises(ConfigError):
        validate(base_config(mutation=MutationKind.ADAPTIVE, mutation_rate=pair))


def test_first_violation_in_declaration_order():
    # Both sol_per_pop and keep_parents are broken; the earlier field reports.
    with pytest.raises(ConfigError) as err:
        validate(GaConfig(num_generations=1, sol_per_pop=0, num_parents_mating=1,
                          num_genes=1, crossover=None, keep_parents=99))
    assert err.value.field == "sol_per_pop"


def test_tournament_k_bounds():
    cfg = validate(base_config(parent_selection=ParentSelection.TOURNAMENT, tournament_k=10))
    assert cfg.tournament_k == 10
    with pytest.raises(ConfigError) as err:
        validate(base_config(parent_selection=ParentSelection.TOURNAMENT, tournament_k=11))
    assert err.value.field == "tournament_k"


def test_crossover_needs_two_parents():
    with pytest.raises(ConfigError):
        validate(GaConfig(num_generations=1, sol_per_pop=4, num_parents_mating=1, num_genes=2))
    cfg = validate(GaConfig(num_generations=1, sol_per_pop=4, num_parents_mating=1,
                            num_genes=2, crossover=None, keep_parents=1))
    assert cfg.crossover is None


@pytest.mark.parametrize("kind", [m.value for m in CrossoverKind])
def test_crossover_needs_two_genes(kind):
    with pytest.raises(ConfigError) as err:
        validate(base_config(num_genes=1, crossover=kind))
    assert err.value.field == "crossover"
    cfg = validate(base_config(num_genes=1, crossover=None))
    assert cfg.crossover is None


def test_zero_generations_accepted():
    assert validate(base_config(num_generations=0)).num_generations == 0


def test_enum_names_accepted_as_strings():
    cfg = validate(base_config(parent_selection="tournament", crossover="two_points",
                                  mutation="swap"))
    assert cfg.parent_selection is ParentSelection.TOURNAMENT
    assert cfg.crossover is CrossoverKind.TWO_POINTS
    assert cfg.mutation is MutationKind.SWAP
    cfg = validate(base_config(crossover="none", mutation="none"))
    assert cfg.crossover is None and cfg.mutation is None


def test_gene_type_name_accepted_as_string():
    assert validate(base_config(gene_type="int8")).gene_type is GeneType.INT8


def test_bad_interval_rejected():
    with pytest.raises(ConfigError) as err:
        validate(base_config(init_range=(4.0, -4.0)))
    assert err.value.field == "init_range"


@pytest.mark.parametrize("field", ["init_range", "random_delta_range"])
@pytest.mark.parametrize("interval", [(-1e308, 1e308), (-math.inf, 0.0)])
def test_interval_of_infinite_width_rejected(field, interval):
    # A width that overflows would make every uniform draw raise OverflowError.
    with pytest.raises(ConfigError) as err:
        validate(base_config(**{field: interval}))
    assert err.value.field == field


@pytest.mark.parametrize("space", [
    ValueRange(1, 1), ValueRange(-1e308, 1e308), ValueRange(0, math.inf),
    ValueRange(0, 1, 0), ValueRange(0, 1, math.nan), ValueRange(0, 1, math.inf),
    ValueRange(0, 1e30, 1e-3),
])
def test_bad_value_range_rejected(space):
    with pytest.raises(ConfigError) as err:
        validate(base_config(gene_space=space))
    assert err.value.field == "gene_space"


@pytest.mark.parametrize("values", [(math.nan,), (0.0, math.inf), (-math.inf, 1.0),
                                    (math.nan, math.nan)])
def test_non_finite_discrete_value_rejected(values):
    # No gene type holds one; NaN also passes a distinctness check, since nan != nan.
    for space in (DiscreteSet(values), [UNCONSTRAINED, DiscreteSet(values), UNCONSTRAINED]):
        with pytest.raises(ConfigError) as err:
            validate(base_config(gene_space=space))
        assert err.value.field == "gene_space" and err.value.constraint == "finite discrete values"


def test_step_wider_than_its_range_is_the_single_point_lo():
    cfg = validate(base_config(gene_space=ValueRange(2, 3, 1e13), gene_type=GeneType.INT8))
    schema = GeneSchema.from_config(cfg)
    assert schema.rules[0].sample(np.random.default_rng(0)) == 2.0
    assert schema.rules[0].contains(2.0) and not schema.rules[0].contains(2.5)


def test_initial_population_shape_checked():
    pop = np.zeros((10, 3))
    cfg = validate(base_config(initial_population=pop))
    assert len(cfg.initial_population) == 10
    with pytest.raises(ConfigError) as err:
        validate(base_config(initial_population=np.zeros((9, 3))))
    assert err.value.field == "initial_population"


def test_per_gene_space_length_checked():
    spaces = [DiscreteSet((0, 1)), ValueRange(0, 5), DiscreteSet((2, 3))]
    cfg = validate(base_config(gene_space=spaces))
    assert len(cfg.gene_space) == 3
    with pytest.raises(ConfigError):
        validate(base_config(gene_space=spaces[:2]))


def test_per_gene_type_length_checked():
    cfg = validate(base_config(gene_type=[GeneType.INT8, "float64", GeneType.FLOAT32]))
    assert cfg.gene_type[1] is GeneType.FLOAT64
    with pytest.raises(ConfigError):
        validate(base_config(gene_type=[GeneType.INT8]))


@pytest.mark.parametrize("overrides, field", [
    (dict(num_generations=2.5), "num_generations"),
    (dict(sol_per_pop="10"), "sol_per_pop"),
    (dict(parent_selection="best"), "parent_selection"),
    (dict(mutation="flip"), "mutation"),
    (dict(init_range=(1.0,)), "init_range"),
    (dict(random_delta_range=5.0), "random_delta_range"),
    (dict(mutation_rate=Probability(0.0)), "mutation_rate"),
    (dict(mutation_rate=Probability(1.5)), "mutation_rate"),
    (dict(mutation_rate=PercentGenes(0.0)), "mutation_rate"),
    (dict(mutation_rate=PercentGenes(100.5)), "mutation_rate"),
    (dict(mutation_rate=NumGenes(0)), "mutation_rate"),
    (dict(mutation_rate=NumGenes(4)), "mutation_rate"),
    (dict(mutation_rate=NumGenes(1.5)), "mutation_rate"),
    (dict(mutation_rate=0.1), "mutation_rate"),
    (dict(gene_space=DiscreteSet(())), "gene_space"),
    (dict(gene_space=[UNCONSTRAINED, 1.5, UNCONSTRAINED]), "gene_space"),
    (dict(gene_type=5), "gene_type"),
    (dict(gene_space=1.5), "gene_space"),
    # Past numpy's index bound: sol_per_pop * num_genes * 8 > 2**63 - 1.
    (dict(num_genes=2**60), "num_genes"),
    (dict(sol_per_pop=2**61), "num_genes"),
    (dict(sol_per_pop=10**23), "num_genes"),
])
def test_malformed_field_rejected(overrides, field):
    # Three genes: a NumGenes rate must lie in [1, 3].
    with pytest.raises(ConfigError) as err:
        validate(base_config(**overrides))
    assert err.value.field == field


@pytest.mark.parametrize("space, gene_type", [
    (DiscreteSet((0, 1)), GeneType.INT8),
    (DiscreteSet((0.1, 0.2, 0.3)), GeneType.INT8),  # all three coerce to 0
    (ValueRange(0, 1.5, 0.5), GeneType.INT8),  # admissible points 0 and 1
    ([DiscreteSet((0, 1)), ValueRange(0, 2, 1), DiscreteSet((1,))], GeneType.FLOAT64),
    # Three values between them, but the first two genes both need 0 (Hall's condition).
    ([DiscreteSet((0,)), DiscreteSet((0,)), DiscreteSet((0, 1, 2))], GeneType.FLOAT64),
])
def test_distinctness_that_cannot_be_met_is_rejected(space, gene_type):
    with pytest.raises(ConfigError) as err:
        validate(base_config(gene_space=space, gene_type=gene_type,
                             allow_duplicate_genes=False))
    assert err.value.field == "gene_space"
    validate(base_config(gene_space=space, gene_type=gene_type))


@pytest.mark.parametrize("space, gene_type", [
    (DiscreteSet((0, 1, 2)), GeneType.INT8),
    (DiscreteSet((0.1, 0.2, 0.3)), GeneType.FLOAT64),
    (ValueRange(0, 2.5, 0.5), GeneType.INT8),  # admissible points 0, 1 and 2
    (ValueRange(0, 1e4, 0.1), GeneType.INT8),  # found only by enumerating past the first points
    ([DiscreteSet((0, 1)), ValueRange(0, 2, 1), ValueRange(0, 1)], GeneType.FLOAT64),
    ([DiscreteSet((0,)), DiscreteSet((1,)), DiscreteSet((0, 1, 2))], GeneType.FLOAT64),
])
def test_distinctness_that_can_be_met_is_accepted(space, gene_type):
    validate(base_config(gene_space=space, gene_type=gene_type, allow_duplicate_genes=False))


# Mostly spaces with a few values each, so both outcomes are common. Past 2**53
# an int64 range holds few doubles: 4 in the first range here, 2 in the second.
_SMALL_SPACES = st.one_of(
    st.sampled_from([UNCONSTRAINED, ValueRange(0, 1), ValueRange(0.5, 3.5), ValueRange(-1.5, 0.5),
                     ValueRange(0.2, 0.4), ValueRange(2.0**60, 2.0**60 + 1024),
                     ValueRange(-2.0**60 - 512, -2.0**60)]),
    st.lists(st.sampled_from([0.0, 0.4, 0.5, 1.0, 1.5]), min_size=1, max_size=3,
             unique=True).map(lambda values: DiscreteSet(tuple(values))),
    st.builds(ValueRange, st.sampled_from([0.0, 0.5]), st.sampled_from([1.0, 2.0]),
              st.sampled_from([0.5, 1.0])),
)


@given(data=st.data())
def test_distinctness_rejection_matches_the_compiled_pools(data):
    num_genes = data.draw(st.integers(2, 5))
    spaces = data.draw(st.lists(_SMALL_SPACES, min_size=num_genes, max_size=num_genes))
    types = data.draw(st.lists(
        st.sampled_from([GeneType.INT8, GeneType.UINT8, GeneType.INT64, GeneType.PYINT,
                         GeneType.FLOAT32, GeneType.FLOAT64]),
        min_size=num_genes, max_size=num_genes))
    # Unconstrained integer-typed genes take the integers their init range rounds to.
    init_range = data.draw(st.sampled_from([(-4.0, 4.0), (0.0, 1.0), (0.5, 2.5), (-1.5, 0.5),
                                            (250.0, 252.0), (-3.0, -1.0)]))
    candidate = base_config(num_genes=num_genes, crossover=None, gene_space=spaces,
                            gene_type=types, init_range=init_range, allow_duplicate_genes=False)
    try:
        schema = GeneSchema.from_config(validate(dataclasses.replace(
            candidate, allow_duplicate_genes=True)))
    except ConfigError:
        return  # a space with no value of its gene's type fails the compile
    # A gene's candidates are its rule's pool; on an integer-typed range, the
    # doubles of the integers around [lo, hi) that its rule's fit keeps unchanged;
    # unconstrained and integer-typed, what its fit makes of a fine grid over
    # the init range.
    pools = []
    for rule, gene_type in zip(schema.rules, schema.types):
        if rule.pool is not None:
            pools.append(rule.pool.tolist())
        elif gene_type in (GeneType.FLOAT32, GeneType.FLOAT64):
            continue
        elif isinstance(rule.space, ValueRange):
            window = range(math.floor(rule.space.lo) - 2, math.ceil(rule.space.hi) + 2)
            pools.append(sorted({v for v in map(float, window) if rule.fit(v) == v}))
        else:
            lo, hi = init_range
            grid = [*np.arange(lo, hi, 1 / 64), math.nextafter(hi, -math.inf)]
            pools.append(sorted({rule.fit(v) for v in grid} - {None}))
    assert all(pools)  # the compile rejected every range that holds no value of its type
    # Brute force: no choice of one candidate per such gene is pairwise distinct.
    short = all(len(set(values)) < len(values) for values in itertools.product(*pools))
    try:
        validate(candidate)
    except ConfigError as err:
        assert short and err.field == "gene_space"
    else:
        assert not short


_FLOAT32_MAX = float(np.finfo(np.float32).max)

# Continuous ranges at the edges of int8 and float32: each holds one value of
# the type near an edge, or none.
_EDGE_RANGES = st.sampled_from([
    ValueRange(126.5, 127.5), ValueRange(127.5, 130.0), ValueRange(-128.5, -127.5),
    ValueRange(-130.0, -128.5), ValueRange(-1.0, -0.5), ValueRange(300.0, 400.0),
    ValueRange(_FLOAT32_MAX, 1e39), ValueRange(1e39, 1e40), ValueRange(-1e39, -_FLOAT32_MAX),
    ValueRange(-1e39, -3e38), ValueRange(16777216.0, 16777217.0),
    ValueRange(16777217.0, 16777218.0), ValueRange(1e9 + 1, 1e9 + 2), ValueRange(1e9, 1e9 + 100),
])

# Every integer type's bounds, and the float32 and PYINT limits.
_TYPE_EDGES = [float(edge) for t in GeneType if t.value not in ("float32", "float64", "int")
               for edge in (np.iinfo(t.value).min, np.iinfo(t.value).max)]
_TYPE_EDGES += [_FLOAT32_MAX, -_FLOAT32_MAX, 2.0**53, -(2.0**53)]


def _holds_a_typed_value(space, gene_type) -> bool:
    """Whether a bounded brute force finds a value of gene_type that space admits.

    Tries the lattice points, or, for a continuous range: lo, a grid over the
    range, the 2048 integers from floor(lo), the float32s around lo, and the
    types' edges. That finds a value in every space drawn here that holds
    one. Unconstrained genes hold the integers of the small init ranges
    drawn here; a set's small values are held by every type.
    """
    if not isinstance(space, ValueRange):
        return True
    lo, hi = space.lo, space.hi
    if space.step is not None:
        points = [lo + k * space.step for k in range(math.ceil((hi - lo) / space.step))]
        candidates = [v for v in points if v < hi]
    else:
        start = math.floor(lo)
        with np.errstate(over="ignore"):
            near = np.float32(min(max(lo, -_FLOAT32_MAX), _FLOAT32_MAX))
            for _ in range(2):
                near = np.nextafter(near, np.float32(-_FLOAT32_MAX))
            float32s = [near]
            for _ in range(64):
                float32s.append(np.nextafter(float32s[-1], np.float32(_FLOAT32_MAX)))
        candidates = [lo, *np.linspace(lo, hi, 65)[:-1].tolist(),
                      *map(float, range(start, start + 2048)), *map(float, float32s),
                      *_TYPE_EDGES]

    def typed(v):
        try:
            return coerce_gene(v, gene_type)
        except NonFiniteGene:
            return None

    return any(lo <= v < hi and typed(v) == v for v in candidates)


@given(genes=st.lists(st.tuples(st.one_of(_SMALL_SPACES, _EDGE_RANGES),
                                st.sampled_from(list(GeneType))), min_size=1, max_size=3),
       init_range=st.sampled_from([(-4.0, 4.0), (0.0, 1.0), (0.5, 2.5), (250.0, 252.0)]),
       seed=st.integers(0, 2**32 - 1))
def test_validate_accepts_exactly_the_spaces_that_hold_a_value_of_their_type(genes, init_range,
                                                                              seed):
    spaces, types = zip(*genes)
    candidate = base_config(num_genes=len(genes), sol_per_pop=4, num_parents_mating=2,
                            crossover=None, mutation=MutationKind.RANDOM, gene_space=spaces,
                            gene_type=types, init_range=init_range, seed=seed)
    holds = all(_holds_a_typed_value(space, gene_type) for space, gene_type in genes)
    try:
        cfg = validate(candidate)
    except ConfigError as err:
        assert not holds and err.field == "gene_space"
        return
    assert holds
    # Neither init nor a mutation finds a space empty: EmptySpace would fail the test.
    rng = np.random.default_rng(seed)
    population = init_population(cfg, rng)
    mutate(population, cfg, rng, schema=GeneSchema.from_config(cfg))


def _random_candidate(rng):
    sol_per_pop = int(rng.integers(2, 30))
    parents = int(rng.integers(2, sol_per_pop + 1))
    mutation = rng.choice(["random", "swap", "inversion", "scramble", "adaptive", "none"])
    if mutation == "adaptive":
        lo = float(rng.uniform(1, 40))
        rate = AdaptivePair(PercentGenes(lo + float(rng.uniform(0, 40))), PercentGenes(lo))
    else:
        rate = PercentGenes(float(rng.uniform(1, 100)))
    num_generations = int(rng.integers(0, 50))
    num_genes = int(rng.integers(1, 20))
    parent_selection = str(rng.choice([m.value for m in ParentSelection]))
    tournament_k = int(rng.integers(1, sol_per_pop + 1))
    crossover = str(rng.choice([m.value for m in CrossoverKind]))
    keep_parents = int(rng.integers(-1, parents + 1))
    if (parents if keep_parents == -1 else keep_parents) >= sol_per_pop:
        # Elites that fill the population leave no room for offspring.
        keep_parents = sol_per_pop - 1
    return GaConfig(
        num_generations=num_generations,
        sol_per_pop=sol_per_pop,
        num_parents_mating=parents,
        num_genes=num_genes,
        parent_selection=parent_selection,
        tournament_k=tournament_k,
        # A 1-gene chromosome has no cut point, so its crossover must be off.
        crossover=crossover if num_genes >= 2 else None,
        mutation=mutation,
        mutation_rate=rate,
        keep_parents=keep_parents,
        seed=int(rng.integers(0, 2**32)),
    )


def test_validate_idempotent_on_accepted_configs():
    rng = np.random.default_rng(7)
    for _ in range(200):
        candidate = _random_candidate(rng)
        once = validate(candidate)
        assert validate(once) == once


def test_accepted_configs_satisfy_invariants():
    rng = np.random.default_rng(11)
    for _ in range(200):
        cfg = validate(_random_candidate(rng))
        assert cfg.num_parents_mating <= cfg.sol_per_pop
        assert 0 <= cfg.keep_parents <= cfg.num_parents_mating
        assert cfg.keep_parents < cfg.sol_per_pop
        if cfg.crossover is not None:
            assert cfg.num_parents_mating >= 2
            assert cfg.num_genes >= 2
        if cfg.parent_selection is ParentSelection.TOURNAMENT:
            assert 1 <= cfg.tournament_k <= cfg.sol_per_pop
        if cfg.mutation is MutationKind.ADAPTIVE:
            assert isinstance(cfg.mutation_rate, AdaptivePair)


def test_a_validated_config_pickles_and_its_copy_compiles_anew():
    cfg = validate(base_config(gene_space=DiscreteSet((0, 1, 2)), gene_type=GeneType.INT8))
    copy = pickle.loads(pickle.dumps(cfg))
    assert copy == cfg
    schema, copied = GeneSchema.from_config(cfg), GeneSchema.from_config(copy)
    assert copied is not schema and copied.rules[0].pool.tolist() == [0.0, 1.0, 2.0]
    assert GeneSchema.from_config(cfg) is schema  # the original keeps its compile


def test_immutable_after_validation():
    cfg = validate(base_config())
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.sol_per_pop = 99


def test_resolve_count_percent_half_of_four():
    rng = np.random.default_rng(0)
    assert resolve_mutation_count(PercentGenes(50), 4, rng) == 2


def test_resolve_count_percent_clamps_to_one():
    rng = np.random.default_rng(0)
    assert resolve_mutation_count(PercentGenes(10), 3, rng) == 1


def test_resolve_count_certain_probability():
    rng = np.random.default_rng(0)
    assert resolve_mutation_count(Probability(1.0), 7, rng) == 7


def test_resolve_count_explicit_number():
    rng = np.random.default_rng(0)
    assert resolve_mutation_count(NumGenes(4), 9, rng) == 4


def test_resolve_count_bounds():
    rng = np.random.default_rng(3)
    for _ in range(500):
        n = int(rng.integers(1, 30))
        count = resolve_mutation_count(Probability(float(rng.uniform(0.01, 1.0))), n, rng)
        assert 0 <= count <= n
        count = resolve_mutation_count(PercentGenes(float(rng.uniform(0.1, 100.0))), n, rng)
        assert 1 <= count <= n
        count = resolve_mutation_count(NumGenes(int(rng.integers(1, n + 1))), n, rng)
        assert 1 <= count <= n


def test_resolve_count_refuses_an_unresolved_adaptive_pair():
    rng = np.random.default_rng(0)
    with pytest.raises(TypeError, match="AdaptivePair"):
        resolve_mutation_count(AdaptivePair(NumGenes(2), NumGenes(1)), 3, rng)


def test_resolve_count_probability_tracks_binomial_mean():
    rng = np.random.default_rng(4)
    draws = [resolve_mutation_count(Probability(0.3), 20, rng) for _ in range(5000)]
    assert abs(np.mean(draws) - 6.0) < 0.15


def test_seed_must_fit_in_unsigned_64_bits():
    assert validate(base_config(seed=2**64 - 1)).seed == 2**64 - 1
    with pytest.raises(ConfigError):
        validate(base_config(seed=2**64))
    with pytest.raises(ConfigError):
        validate(base_config(seed=-1))
