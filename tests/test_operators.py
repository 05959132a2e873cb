"""Selection, crossover, and mutation operator behavior."""

import hashlib
import itertools

import numpy as np
import pytest
from conftest import StubRng

from gakit.config import (
    AdaptivePair,
    CrossoverKind,
    GaConfig,
    MutationKind,
    NumGenes,
    ParentSelection,
    PercentGenes,
    Probability,
    validate,
)
from gakit.errors import NonPositiveFitness
from gakit.genome import (
    UNCONSTRAINED,
    DiscreteSet,
    GeneSchema,
    GeneType,
    ValueRange,
    coerce_gene,
    init_population,
)
from gakit.engine import run
from gakit.operators import ParentSet, mutate, produce_offspring, select_parents


def _pop(rows):
    return np.array(rows, dtype=float)


# --- selection ------------------------------------------------------------------

def test_steady_state_takes_fittest_descending():
    pop = _pop([[0], [1], [2], [3]])
    parents = select_parents(
        ParentSelection.STEADY_STATE, pop, [0.1, 0.9, 0.5, 0.7], 2, np.random.default_rng(0)
    )
    assert parents.indices.tolist() == [1, 3]
    assert parents.rows.tolist() == [[1.0], [3.0]]


def test_steady_state_ties_break_to_lower_index():
    pop = _pop([[0], [1], [2]])
    parents = select_parents(
        ParentSelection.STEADY_STATE, pop, [1.0, 1.0, 0.5], 2, np.random.default_rng(0)
    )
    assert parents.indices.tolist() == [0, 1]


def test_steady_state_fitness_non_increasing():
    rng = np.random.default_rng(1)
    for _ in range(50):
        fit = rng.uniform(0, 10, size=12)
        pop = rng.uniform(-1, 1, size=(12, 3))
        parents = select_parents(ParentSelection.STEADY_STATE, pop, fit, 6, rng)
        ordered = fit[parents.indices]
        assert np.all(np.diff(ordered) <= 0)


def test_tournament_with_full_field_always_picks_best():
    pop = _pop([[i] for i in range(6)])
    fit = [0.2, 0.9, 0.1, 0.4, 0.3, 0.6]
    for seed in range(20):
        parents = select_parents(
            ParentSelection.TOURNAMENT, pop, fit, 4, np.random.default_rng(seed),
            tournament_k=6,
        )
        assert parents.indices.tolist() == [1, 1, 1, 1]


def test_tournament_tie_breaks_to_lower_index():
    pop = _pop([[i] for i in range(4)])
    for seed in range(10):
        parents = select_parents(
            ParentSelection.TOURNAMENT, pop, [1.0, 1.0, 1.0, 1.0], 3,
            np.random.default_rng(seed), tournament_k=4,
        )
        assert parents.indices.tolist() == [0, 0, 0]


def test_roulette_concentrates_on_dominant_mass():
    # Analytic mass of index 0 is 1/(1 + 2e-300), i.e. 1 up to rounding, so the
    # empirical frequency over 10^4 draws must exceed 0.999.
    pop = _pop([[0], [1], [2]])
    fit = [1.0, 1e-300, 1e-300]
    rng = np.random.default_rng(0)
    parents = select_parents(ParentSelection.ROULETTE, pop, fit, 10_000, rng)
    freq = np.mean(parents.indices == 0)
    assert freq >= 0.999


@pytest.mark.parametrize(
    "kind", [ParentSelection.ROULETTE, ParentSelection.STOCHASTIC_UNIVERSAL]
)
def test_proportional_selection_survives_overflowing_fitness_sum(kind):
    # Every value is finite but their sum is not; both selections must still
    # draw, weighting by fitness relative to the maximum.
    pop = _pop([[0], [1], [2], [3]])
    parents = select_parents(kind, pop, [1e308] * 4, 400, np.random.default_rng(0))
    assert set(parents.indices.tolist()) == {0, 1, 2, 3}
    parents = select_parents(kind, pop, [1e308, 1e-300, 1e308, 1e-300], 400,
                             np.random.default_rng(0))
    assert set(parents.indices.tolist()) == {0, 2}
    cfg = validate(GaConfig(num_generations=5, sol_per_pop=6, num_parents_mating=3,
                            num_genes=2, parent_selection=kind))
    result = run(cfg, lambda solution, idx: 1e308)
    assert result.completed_generations == 5
    assert np.all(np.isfinite(result.mean_fitness))


def test_roulette_rejects_non_positive_fitness():
    pop = _pop([[0], [1]])
    with pytest.raises(NonPositiveFitness):
        select_parents(ParentSelection.ROULETTE, pop, [1.0, 0.0], 2, np.random.default_rng(0))
    with pytest.raises(NonPositiveFitness):
        select_parents(ParentSelection.ROULETTE, pop, [1.0, -2.0], 2, np.random.default_rng(0))


def test_stochastic_universal_rejects_non_positive_fitness():
    pop = _pop([[0], [1]])
    with pytest.raises(NonPositiveFitness):
        select_parents(
            ParentSelection.STOCHASTIC_UNIVERSAL, pop, [0.0, 1.0], 2, np.random.default_rng(0)
        )


def test_stochastic_universal_low_variance_quota():
    rng = np.random.default_rng(2)
    n = 100
    for _ in range(20):
        fit = rng.uniform(0.1, 5.0, size=8)
        pop = rng.uniform(-1, 1, size=(8, 2))
        parents = select_parents(ParentSelection.STOCHASTIC_UNIVERSAL, pop, fit, n, rng)
        counts = np.bincount(parents.indices, minlength=8)
        quota = np.ceil(n * fit / fit.sum()) + 1
        assert np.all(counts <= quota)


def test_rank_selection_uses_linear_weights():
    # Two solutions: best gets weight 2, worst weight 1 -> best drawn 2/3 of the time.
    pop = _pop([[0], [1]])
    fit = [5.0, 1.0]
    rng = np.random.default_rng(3)
    parents = select_parents(ParentSelection.RANK, pop, fit, 30_000, rng)
    freq = np.mean(parents.indices == 0)
    assert abs(freq - 2.0 / 3.0) < 0.01


def test_random_selection_is_roughly_uniform():
    pop = _pop([[i] for i in range(4)])
    rng = np.random.default_rng(4)
    parents = select_parents(ParentSelection.RANDOM, pop, [9, 1, 1, 1], 20_000, rng)
    counts = np.bincount(parents.indices, minlength=4) / 20_000
    assert np.all(np.abs(counts - 0.25) < 0.02)


# --- crossover ------------------------------------------------------------------

def _one_child(kind, p1, p2, rng):
    # produce_offspring with two parents and count 1 crosses p1 with p2.
    parents = ParentSet(rows=_pop([p1, p2]), indices=np.array([0, 1]))
    return produce_offspring(kind, parents, 1, rng)[0]


def test_single_point_forced_cut():
    child = _one_child(
        CrossoverKind.SINGLE_POINT, [1, 1, 1, 1], [0, 0, 0, 0], StubRng(ints=[2])
    )
    assert child.tolist() == [1, 1, 0, 0]


def test_two_points_forced_cuts():
    p1 = [10, 11, 12, 13]
    p2 = [20, 21, 22, 23]
    child = _one_child(CrossoverKind.TWO_POINTS, p1, p2, StubRng(ints=[1, 3]))
    assert child.tolist() == [10, 21, 22, 13]


def test_uniform_identical_parents_is_identity():
    rng = np.random.default_rng(0)
    child = _one_child(CrossoverKind.UNIFORM, [5, 6, 7], [5, 6, 7], rng)
    assert child.tolist() == [5, 6, 7]


def test_crossover_identity_on_identical_parents_all_kinds():
    rng = np.random.default_rng(1)
    parent = rng.uniform(-3, 3, size=8)
    for kind in CrossoverKind:
        for _ in range(25):
            child = _one_child(kind, parent, parent, rng)
            assert np.array_equal(child, parent)


def test_crossover_child_mixes_only_parent_genes():
    rng = np.random.default_rng(2)
    p1 = np.arange(0, 6, dtype=float)
    p2 = np.arange(10, 16, dtype=float)
    for kind in CrossoverKind:
        for _ in range(50):
            child = _one_child(kind, p1, p2, rng)
            for j, v in enumerate(child):
                assert v in (p1[j], p2[j])


def test_offspring_copies_cycle_when_crossover_disabled():
    parents = ParentSet(rows=_pop([[1, 1], [2, 2]]), indices=np.array([0, 1]))
    offspring = produce_offspring(None, parents, 3, np.random.default_rng(0))
    assert offspring.tolist() == [[1, 1], [2, 2], [1, 1]]


def test_offspring_pairing_is_modular():
    # With L=2 and a forced cut at 1, child i is [parent_i[0], parent_{i+1}[1]].
    rows = _pop([[i, i] for i in range(5)])
    parents = ParentSet(rows=rows, indices=np.arange(5))
    offspring = produce_offspring(
        CrossoverKind.SINGLE_POINT, parents, 5, StubRng(ints=[1, 1, 1, 1, 1])
    )
    expected = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]
    assert offspring.tolist() == expected


# sha256 over the children and one trailing draw per call, so that a moved
# crossover draw, or a change in how many draws a call consumes, shows.
_CROSSOVER_DIGESTS = {
    None: "18fb5b32a7335ea57ab7073666ff09fb48b3aa945a4bd09e3f60f9fc8c7074ef",
    CrossoverKind.SINGLE_POINT: "d86c8e56eaccabbd32a3ee016ba139dc20d63268eebd95639bdf69ed4e5f6e16",
    CrossoverKind.TWO_POINTS: "1076330259f11318f1b0ad81c0116d617aa4e1e400367d5e35ab39e38f4add6f",
    CrossoverKind.UNIFORM: "779ca53d7ce34b47eb62e56be2554a8a94c9f15c209adf1f1df3e740267af419",
    CrossoverKind.SCATTERED: "12a1522b4e5371d3180dda8b1ab33557ba15edf6d5c308e8fd7b8844cf1bb6bd",
}


@pytest.mark.parametrize("kind", [None, *CrossoverKind])
def test_produce_offspring_replays_pinned_draws(kind):
    digest = hashlib.sha256()
    for n, p, count in itertools.product((2, 3, 9, 100), (2, 5, 25), (1, 3, 48)):
        rng = np.random.default_rng([n, p, count])
        parents = ParentSet(rows=rng.uniform(-10, 10, size=(p, n)), indices=np.arange(p))
        children = produce_offspring(kind, parents, count, rng)
        assert children.shape == (count, n) and children.dtype == np.float64
        digest.update(children.tobytes())
        digest.update(int(rng.integers(0, 2**62)).to_bytes(8, "little"))
    assert digest.hexdigest() == _CROSSOVER_DIGESTS[kind]


# --- mutation -------------------------------------------------------------------

def _cfg(**overrides):
    base = dict(num_generations=1, sol_per_pop=4, num_parents_mating=2, num_genes=4)
    base.update(overrides)
    return validate(GaConfig(**base))


def test_swap_on_pair_exchanges():
    cfg = _cfg(num_genes=2, mutation=MutationKind.SWAP)
    out = mutate(MutationKind.SWAP, [1, 2], cfg, rng=StubRng(ints=[0, 1]),
                 schema=GeneSchema.from_config(cfg))
    assert out.tolist() == [2, 1]


def test_inversion_forced_full_segment():
    cfg = _cfg(mutation=MutationKind.INVERSION)
    out = mutate(MutationKind.INVERSION, [1, 2, 3, 4], cfg, rng=StubRng(ints=[0, 4]),
                 schema=GeneSchema.from_config(cfg))
    assert out.tolist() == [4, 3, 2, 1]


def test_scramble_touches_only_the_segment():
    cfg = _cfg(num_genes=6, mutation=MutationKind.SCRAMBLE)
    out = mutate(
        MutationKind.SCRAMBLE, [0, 1, 2, 3, 4, 5], cfg,
        rng=StubRng(ints=[1, 4, 2, 0, 1]),  # segment [1, 4), permutation order
        schema=GeneSchema.from_config(cfg),
    )
    assert out[0] == 0 and out[4] == 4 and out[5] == 5
    assert sorted(out[1:4].tolist()) == [1, 2, 3]


def test_inversion_outside_segment_untouched():
    cfg = _cfg(num_genes=6, mutation=MutationKind.INVERSION)
    out = mutate(MutationKind.INVERSION, [0, 1, 2, 3, 4, 5], cfg, rng=StubRng(ints=[2, 5]),
                 schema=GeneSchema.from_config(cfg))
    assert out.tolist() == [0, 1, 4, 3, 2, 5]


def test_random_replacement_on_singleton_space_is_identity():
    cfg = _cfg(num_genes=2, mutation=MutationKind.RANDOM, mutation_by_replacement=True,
               mutation_rate=NumGenes(2), gene_space=DiscreteSet((5,)))
    out = mutate(MutationKind.RANDOM, [5, 5], cfg, rng=np.random.default_rng(0),
                 schema=GeneSchema.from_config(cfg))
    assert out.tolist() == [5, 5]


def test_random_changes_at_most_resolved_count():
    cfg = _cfg(num_genes=8, mutation=MutationKind.RANDOM, mutation_rate=NumGenes(3))
    rng = np.random.default_rng(7)
    genes = np.zeros(8)
    schema = GeneSchema.from_config(cfg)
    for _ in range(100):
        out = mutate(MutationKind.RANDOM, genes, cfg, rng=rng, schema=schema)
        assert np.sum(out != genes) <= 3


def test_adaptive_high_branch_below_mean():
    pair = AdaptivePair(NumGenes(3), NumGenes(1))
    cfg = _cfg(mutation=MutationKind.ADAPTIVE, mutation_rate=pair)
    rng = np.random.default_rng(0)
    genes = np.zeros(4)
    out = mutate(MutationKind.ADAPTIVE, genes, cfg, pop_mean_fitness=2.0, own_fitness=1.0, rng=rng,
                 schema=GeneSchema.from_config(cfg))
    assert np.sum(out != genes) == 3


def test_adaptive_low_branch_at_or_above_mean():
    pair = AdaptivePair(NumGenes(3), NumGenes(1))
    cfg = _cfg(mutation=MutationKind.ADAPTIVE, mutation_rate=pair)
    rng = np.random.default_rng(0)
    genes = np.zeros(4)
    out = mutate(MutationKind.ADAPTIVE, genes, cfg, pop_mean_fitness=2.0, own_fitness=2.0, rng=rng,
                 schema=GeneSchema.from_config(cfg))
    assert np.sum(out != genes) == 1


def test_adaptive_branch_invariant_under_affine_rescaling():
    # The below-mean comparison only depends on the ordering, so any positive
    # affine map of the fitness values picks the same branch.
    pair = AdaptivePair(NumGenes(3), NumGenes(1))
    cfg = _cfg(mutation=MutationKind.ADAPTIVE, mutation_rate=pair)
    genes = np.zeros(4)
    schema = GeneSchema.from_config(cfg)
    for a, b in ((1.0, 0.0), (7.5, 3.0), (0.01, -40.0)):
        fit = np.array([1.0, 3.0])
        mean = float(np.mean(a * fit + b))
        low = mutate(MutationKind.ADAPTIVE, genes, cfg, mean, a * 3.0 + b,
                     np.random.default_rng(1), schema=schema)
        high = mutate(MutationKind.ADAPTIVE, genes, cfg, mean, a * 1.0 + b,
                      np.random.default_rng(1), schema=schema)
        assert np.sum(high != genes) == 3
        assert np.sum(low != genes) == 1


def test_swap_changes_two_or_zero_positions():
    cfg = _cfg(num_genes=5, mutation=MutationKind.SWAP)
    rng = np.random.default_rng(11)
    genes = np.arange(5, dtype=float)
    schema = GeneSchema.from_config(cfg)
    for _ in range(100):
        out = mutate(MutationKind.SWAP, genes, cfg, rng=rng, schema=schema)
        assert np.sum(out != genes) in (0, 2)


def test_mutation_closure_fuzz():
    # 10^3 seeded mutate applications across constrained, typed, duplicate-free
    # configurations: outputs stay in space, in type, and distinct. Spaces are
    # sized so the distinctness constraint can always be met.
    spaces = [DiscreteSet(tuple(range(12))), ValueRange(0, 30, step=3),
              DiscreteSet((0.25, 5.5, 9.75, 13.5, 17.25)), ValueRange(-2, 2)]
    types = [GeneType.INT8, GeneType.INT16, GeneType.FLOAT64, GeneType.FLOAT32]
    cfg = validate(GaConfig(
        num_generations=1, sol_per_pop=4, num_parents_mating=2, num_genes=4,
        mutation=MutationKind.RANDOM, mutation_rate=NumGenes(2),
        gene_space=spaces, gene_type=types, allow_duplicate_genes=False,
    ))
    schema = GeneSchema.from_config(cfg)
    rng = np.random.default_rng(13)
    kinds = [MutationKind.RANDOM, MutationKind.SWAP, MutationKind.INVERSION,
             MutationKind.SCRAMBLE]
    applications = 0
    while applications < 1000:
        pop = init_population(cfg, rng)
        for row in pop:
            kind = kinds[applications % len(kinds)]
            out = mutate(kind, row, cfg, rng=rng, schema=schema)
            applications += 1
            assert len(set(out.tolist())) == out.size
            for j, v in enumerate(out):
                assert coerce_gene(float(v), types[j]) == float(v)
                assert schema.contains(j, float(v))


# Mixed per-gene spaces and types: moved or perturbed values often miss the
# type or space of their gene, so every admit branch and repair draws.
_REPLAY_SPACES = [
    UNCONSTRAINED, DiscreteSet((0, 1, 2, 3, 5, 8)), ValueRange(-5, 5), ValueRange(0, 20, step=1),
    ValueRange(-3, 3, step=0.5), DiscreteSet((-1.5, 0.25, 2.0, 7.75)), UNCONSTRAINED,
    ValueRange(0, 100, step=3),
]
_REPLAY_TYPES = [
    GeneType.FLOAT64, GeneType.INT16, GeneType.FLOAT32, GeneType.UINT8,
    GeneType.FLOAT64, GeneType.FLOAT64, GeneType.INT32, GeneType.PYINT,
]

# sha256 over the mutated rows; pinned so that any moved draw shows.
_REPLAY_DIGESTS = {
    MutationKind.RANDOM: "b68a561e8820ed8f16a429d2baaeac818b2355f01ff16bcd39a917fb9fd8acc8",
    MutationKind.SWAP: "e709852e039178f23640f4bacc04503aa15b3bdf22428637a3d4432e828e0581",
    MutationKind.INVERSION: "5d7f528f33c16fa1e4567b0d31977e9219dc199019109b54a7230f11b78d7557",
    MutationKind.SCRAMBLE: "7dbb40f68a854f50c40599f557113328b1f98fcd5f7637215cf39fe8f07c3aa9",
    MutationKind.ADAPTIVE: "d98a007319bf7d332ebbd5aad5369d93f441f2cca6b2348292508b7b46b24fc9",
}


@pytest.mark.parametrize("kind", list(MutationKind))
def test_mutate_replays_pinned_draws(kind):
    digest = hashlib.sha256()
    for by_replacement, duplicates in itertools.product((False, True), repeat=2):
        rate = (AdaptivePair(Probability(0.6), Probability(0.2))
                if kind is MutationKind.ADAPTIVE else Probability(0.4))
        cfg = validate(GaConfig(
            num_generations=1, sol_per_pop=30, num_parents_mating=2, num_genes=8,
            mutation=kind, mutation_rate=rate, mutation_by_replacement=by_replacement,
            random_delta_range=(-2.5, 2.5), allow_duplicate_genes=duplicates,
            gene_space=_REPLAY_SPACES, gene_type=_REPLAY_TYPES,
        ))
        schema = GeneSchema.from_config(cfg)
        rng = np.random.default_rng([by_replacement, duplicates])
        for i, row in enumerate(init_population(cfg, rng)):
            # own fitness -1, 0, 1 against a mean of 0: both adaptive rates
            out = mutate(kind, row, cfg, 0.0, float(i % 3) - 1.0, rng, schema=schema)
            digest.update(out.tobytes())
    assert digest.hexdigest() == _REPLAY_DIGESTS[kind]


# --- whole-generation mutation ------------------------------------------------------

_FREE_SPACES = {
    "mixed": (_REPLAY_SPACES, _REPLAY_TYPES),
    "free float64": ([UNCONSTRAINED] * 8, [GeneType.FLOAT64] * 8),
    "free float32": ([UNCONSTRAINED] * 8, [GeneType.FLOAT32] * 8),
}

_PLAIN_RATES = [Probability(0.4), NumGenes(1), PercentGenes(30)]
_ADAPTIVE_RATES = [
    AdaptivePair(Probability(0.6), Probability(0.2)),
    AdaptivePair(NumGenes(3), NumGenes(1)),
    AdaptivePair(PercentGenes(50), PercentGenes(10)),
]


@pytest.mark.parametrize("schema_name", list(_FREE_SPACES))
@pytest.mark.parametrize("rate_index", range(3))
@pytest.mark.parametrize("kind", list(MutationKind))
def test_mutating_a_generation_equals_stacking_row_calls(kind, rate_index, schema_name):
    spaces, types = _FREE_SPACES[schema_name]
    rate = (_ADAPTIVE_RATES if kind is MutationKind.ADAPTIVE else _PLAIN_RATES)[rate_index]
    for by_replacement, duplicates in itertools.product((False, True), repeat=2):
        cfg = validate(GaConfig(
            num_generations=1, sol_per_pop=40, num_parents_mating=2, num_genes=8,
            mutation=kind, mutation_rate=rate, mutation_by_replacement=by_replacement,
            random_delta_range=(-2.5, 2.5), allow_duplicate_genes=duplicates,
            gene_space=spaces, gene_type=types,
        ))
        schema = GeneSchema.from_config(cfg)
        seed = [rate_index, by_replacement, duplicates]
        pop = init_population(cfg, np.random.default_rng(seed), schema)
        own = np.arange(len(pop)) % 3 - 1.0  # against a mean of 0: both adaptive rates
        whole_rng, row_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        whole = mutate(kind, pop, cfg, 0.0, own, whole_rng, schema=schema)
        rows = np.array([mutate(kind, row, cfg, 0.0, own[i], row_rng, schema=schema)
                         for i, row in enumerate(pop)])
        assert whole.shape == pop.shape
        assert whole.tobytes() == rows.tobytes()
        assert np.array_equal(schema.coerce(whole), whole)
        assert whole_rng.bit_generator.state == row_rng.bit_generator.state


def test_mutate_leaves_its_input_generation_untouched():
    cfg = _cfg(num_genes=6, mutation_rate=NumGenes(3))
    pop = np.random.default_rng(0).uniform(-1, 1, size=(5, 6))
    before = pop.copy()
    out = mutate(MutationKind.RANDOM, pop, cfg, rng=np.random.default_rng(1),
                 schema=GeneSchema.from_config(cfg))
    assert np.array_equal(pop, before) and not np.array_equal(out, before)


# Both sides of numpy's choice split: without replacement it shuffles a full
# index array once n > 10,000 and k > n // 50, and runs Floyd's algorithm
# otherwise (always, for k = 1).
_SWAP_SIZES = (1, 2, 3, 9, 100, 9_999, 10_000, 10_001, 20_000, 2**31, 2**32 + 3)


@pytest.mark.parametrize("seed", range(20))
def test_mutation_draw_swaps_draw_the_same_bits(seed):
    # mutate draws integers(n) for choice(n, 1, replace=False) and
    # lo + (hi - lo) * random() for uniform(lo, hi); each pair must give equal
    # values and leave the generator in the same state. The integers(2) draws
    # in between leave PCG64 holding half of a 64-bit output, so a swap that
    # used or dropped that buffered half would show.
    old, new = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in _SWAP_SIZES:
        for lo, hi in ((-1.0, 1.0), (-3.0, 3.0), (0.0, 0.5), (-1e300, 1e300), (2.5, 1e3)):
            assert old.integers(2) == new.integers(2)
            assert old.choice(n, 1, replace=False)[0] == new.integers(n)
            assert old.integers(2) == new.integers(2)
            assert old.uniform(lo, hi) == lo + (hi - lo) * new.random()
        assert old.bit_generator.state == new.bit_generator.state
