"""Selection, crossover, and mutation operator behavior."""

import dataclasses
import hashlib
import inspect
import itertools
import math
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import StubRng
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gakit
from gakit import cli, draws, operators
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
from gakit.errors import (
    ConfigError,
    EmptySpace,
    GaError,
    InsufficientSpace,
    NonFiniteGene,
    NonPositiveFitness,
)
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


# sha256 over the selected indices and one trailing draw per call, so that a
# changed pick, a moved draw, or a change in how many draws a call consumes
# shows. Fitness values are integers in [1, 4], so ties are common.
_SELECTION_DIGESTS = {
    ParentSelection.STEADY_STATE: "6481962502c31e878540f60cfdecc2d8d0ad5a88cbfdab1f8a85bc29cfc86580",
    ParentSelection.ROULETTE: "ec1c363396ee03e2f88b68cdec0e5aa9c9169a10c96f5592b7340b647ee0d632",
    ParentSelection.STOCHASTIC_UNIVERSAL:
        "925855c215c308a795d1477d0d1667dead704c1c44c69e24cc0f35c23526cf95",
    ParentSelection.RANK: "0f3864208200a00bbc8c504d18d85459e1fa7d5e535137e339a6d82af110c730",
    ParentSelection.TOURNAMENT: "ce76fa92762e9f4001a555af2e661c5d0d23f655b8543ef07c6bfdca89e0531c",
    ParentSelection.RANDOM: "a23c57fa5ab7ddd73b1f0e954caa65db91bd3dada87229f5e26d357b504ffd47",
}


@pytest.mark.parametrize("kind", list(ParentSelection))
def test_select_parents_replays_pinned_draws(kind):
    digest = hashlib.sha256()
    for size, n, k in itertools.product((2, 5, 50), (1, 7, 50), (2, 3, 5)):
        n, k = min(n, size), min(k, size)
        rng = np.random.default_rng([size, n, k])
        pop = rng.uniform(-10, 10, size=(size, 3))
        fitness = rng.integers(1, 5, size=size).astype(float)
        parents = select_parents(kind, pop, fitness, n, rng, tournament_k=k)
        assert np.array_equal(parents.rows, pop[parents.indices])
        digest.update(parents.indices.astype(np.int64).tobytes())
        digest.update(int(rng.integers(0, 2**62)).to_bytes(8, "little"))
    assert digest.hexdigest() == _SELECTION_DIGESTS[kind]


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
    out = mutate([1, 2], cfg, StubRng(ints=[0, 1]), schema=GeneSchema.from_config(cfg))
    assert out.tolist() == [2, 1]


def test_inversion_forced_full_segment():
    cfg = _cfg(mutation=MutationKind.INVERSION)
    out = mutate([1, 2, 3, 4], cfg, StubRng(ints=[0, 4]), schema=GeneSchema.from_config(cfg))
    assert out.tolist() == [4, 3, 2, 1]


def test_scramble_touches_only_the_segment():
    cfg = _cfg(num_genes=6, mutation=MutationKind.SCRAMBLE)
    out = mutate(
        [0, 1, 2, 3, 4, 5], cfg,
        StubRng(ints=[1, 4, 2, 0, 1]),  # segment [1, 4), permutation order
        schema=GeneSchema.from_config(cfg),
    )
    assert out[0] == 0 and out[4] == 4 and out[5] == 5
    assert sorted(out[1:4].tolist()) == [1, 2, 3]


def test_inversion_outside_segment_untouched():
    cfg = _cfg(num_genes=6, mutation=MutationKind.INVERSION)
    out = mutate([0, 1, 2, 3, 4, 5], cfg, StubRng(ints=[2, 5]),
                 schema=GeneSchema.from_config(cfg))
    assert out.tolist() == [0, 1, 4, 3, 2, 5]


def test_random_replacement_on_singleton_space_is_identity():
    cfg = _cfg(num_genes=2, mutation=MutationKind.RANDOM, mutation_by_replacement=True,
               mutation_rate=NumGenes(2), gene_space=DiscreteSet((5,)))
    out = mutate([5, 5], cfg, np.random.default_rng(0), schema=GeneSchema.from_config(cfg))
    assert out.tolist() == [5, 5]


def test_random_changes_at_most_resolved_count():
    cfg = _cfg(num_genes=8, mutation=MutationKind.RANDOM, mutation_rate=NumGenes(3))
    rng = np.random.default_rng(7)
    genes = np.zeros(8)
    schema = GeneSchema.from_config(cfg)
    for _ in range(100):
        out = mutate(genes, cfg, rng, schema=schema)
        assert np.sum(out != genes) <= 3


@pytest.mark.parametrize("stage", ["select_parents", "produce_offspring", "mutate"])
def test_unknown_operator_kind_raises_value_error(stage):
    cfg = _cfg()
    pop = np.zeros((4, 4))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="unknown"):
        if stage == "select_parents":
            select_parents("best", pop, np.ones(4), 2, rng)
        elif stage == "produce_offspring":
            produce_offspring("blend", ParentSet(rows=pop, indices=np.arange(4)), 2, rng)
        else:
            mutate(pop, dataclasses.replace(cfg, mutation="flip"), rng,
                   schema=GeneSchema.from_config(cfg))


def test_adaptive_mutation_needs_the_fitness_proxy():
    cfg = _cfg(mutation=MutationKind.ADAPTIVE,
               mutation_rate=AdaptivePair(NumGenes(3), NumGenes(1)))
    with pytest.raises(ValueError, match="fitness proxy"):
        mutate(np.zeros(4), cfg, np.random.default_rng(0), schema=GeneSchema.from_config(cfg))


def test_adaptive_high_branch_below_mean():
    pair = AdaptivePair(NumGenes(3), NumGenes(1))
    cfg = _cfg(mutation=MutationKind.ADAPTIVE, mutation_rate=pair)
    rng = np.random.default_rng(0)
    genes = np.zeros(4)
    out = mutate(genes, cfg, rng, schema=GeneSchema.from_config(cfg), below_mean=True)
    assert np.sum(out != genes) == 3


def test_adaptive_low_branch_at_or_above_mean():
    pair = AdaptivePair(NumGenes(3), NumGenes(1))
    cfg = _cfg(mutation=MutationKind.ADAPTIVE, mutation_rate=pair)
    rng = np.random.default_rng(0)
    genes = np.zeros(4)
    out = mutate(genes, cfg, rng, schema=GeneSchema.from_config(cfg), below_mean=False)
    assert np.sum(out != genes) == 1


def test_adaptive_rate_follows_each_rows_below_mean_flag():
    cfg = _cfg(mutation=MutationKind.ADAPTIVE,
               mutation_rate=AdaptivePair(NumGenes(3), NumGenes(1)))
    pop = np.zeros((4, 4))
    below = np.array([True, False, False, True])
    out = mutate(pop, cfg, np.random.default_rng(0), schema=GeneSchema.from_config(cfg),
                 below_mean=below)
    assert np.sum(out != pop, axis=1).tolist() == [3, 1, 1, 3]


def test_mutate_takes_its_kind_from_the_config_and_requires_a_stream():
    params = inspect.signature(gakit.mutate).parameters
    assert list(params) == ["chrom", "cfg", "rng", "schema", "below_mean"]
    assert params["rng"].default is inspect.Parameter.empty


def test_disabled_mutation_returns_its_input_and_draws_nothing():
    cfg = _cfg(mutation=None)
    pop = np.random.default_rng(0).uniform(-1, 1, size=(4, 4))
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    assert mutate(pop, cfg, rng, schema=GeneSchema.from_config(cfg), below_mean=True) is pop
    assert rng.bit_generator.state == before


def test_adaptive_branch_invariant_under_affine_rescaling():
    # The below-mean comparison only depends on the ordering, so any positive
    # affine map of the fitness values picks the same rate.
    pair = AdaptivePair(NumGenes(3), NumGenes(1))
    cfg = _cfg(mutation=MutationKind.ADAPTIVE, mutation_rate=pair)
    genes = np.zeros(4)
    schema = GeneSchema.from_config(cfg)
    for a, b in ((1.0, 0.0), (7.5, 3.0), (0.01, -40.0)):
        fit = np.array([1.0, 3.0])
        mean = float(np.mean(a * fit + b))
        low = mutate(genes, cfg, np.random.default_rng(1), schema=schema,
                     below_mean=a * 3.0 + b < mean)
        high = mutate(genes, cfg, np.random.default_rng(1), schema=schema,
                      below_mean=a * 1.0 + b < mean)
        assert np.sum(high != genes) == 3
        assert np.sum(low != genes) == 1


def test_swap_changes_two_or_zero_positions():
    cfg = _cfg(num_genes=5, mutation=MutationKind.SWAP)
    rng = np.random.default_rng(11)
    genes = np.arange(5, dtype=float)
    schema = GeneSchema.from_config(cfg)
    for _ in range(100):
        out = mutate(genes, cfg, rng, schema=schema)
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
    cfgs = [dataclasses.replace(cfg, mutation=kind) for kind in (
        MutationKind.RANDOM, MutationKind.SWAP, MutationKind.INVERSION, MutationKind.SCRAMBLE)]
    applications = 0
    while applications < 1000:
        pop = init_population(cfg, rng)
        for row in pop:
            out = mutate(row, cfgs[applications % len(cfgs)], rng, schema=schema)
            applications += 1
            assert len(set(out.tolist())) == out.size
            for j, v in enumerate(out):
                assert coerce_gene(float(v), types[j]) == float(v)
                assert schema.rules[j].contains(float(v))


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
            # every third row below the mean: both adaptive rates
            out = mutate(row, cfg, rng, schema=schema, below_mean=i % 3 == 0)
            digest.update(out.tobytes())
    assert digest.hexdigest() == _REPLAY_DIGESTS[kind]


# Rates whose rows mutate every gene, or exactly one. choice(n, n, replace=False)
# starts with a Floyd step of bound 0, which draws nothing; a row entered with
# a pending half-word shows a draw that spends it there.
_EDGE_RATES = {
    "every gene by percent": (PercentGenes(100), AdaptivePair(PercentGenes(100), PercentGenes(1))),
    "every gene by count": (NumGenes(8), AdaptivePair(NumGenes(8), NumGenes(1))),
    "one gene": (NumGenes(1), AdaptivePair(NumGenes(1), NumGenes(1))),
}

# sha256 over the mutated rows and the generator's end state. 100 % of 8 genes
# is all 8, and both adaptive sides of the one-gene pair are NumGenes(1), so
# those cases draw alike.
_EVERY_GENE = {
    MutationKind.RANDOM: "20b71e03a807c7752899e052c4759e815d1dd2b71cf525e9f6dab911dac467e5",
    MutationKind.ADAPTIVE: "bd616d28ef7d09fa9d55a16c70facb4373695582faa035a11841789e601b77b5",
}
_ONE_GENE = "f3b95329228acbc352c2e2a2f5def15ea7985a525c64cd4e774a734002da5d54"
_EDGE_DIGESTS = {
    "every gene by percent": _EVERY_GENE,
    "every gene by count": _EVERY_GENE,
    "one gene": dict.fromkeys(_EVERY_GENE, _ONE_GENE),
}


@pytest.mark.parametrize("kind", [MutationKind.RANDOM, MutationKind.ADAPTIVE])
@pytest.mark.parametrize("rates", list(_EDGE_RATES))
def test_mutate_pins_whole_row_and_one_gene_draws(rates, kind):
    rate = _EDGE_RATES[rates][kind is MutationKind.ADAPTIVE]
    digest = hashlib.sha256()
    for by_replacement, duplicates in itertools.product((False, True), repeat=2):
        cfg = validate(GaConfig(
            num_generations=1, sol_per_pop=30, num_parents_mating=2, num_genes=8,
            mutation=kind, mutation_rate=rate, mutation_by_replacement=by_replacement,
            random_delta_range=(-2.5, 2.5), allow_duplicate_genes=duplicates,
            gene_space=_REPLAY_SPACES, gene_type=_REPLAY_TYPES,
        ))
        schema = GeneSchema.from_config(cfg)
        seed = [by_replacement, duplicates]
        pop = init_population(cfg, np.random.default_rng(seed), schema)
        rng = np.random.default_rng(seed)
        rng.integers(2)
        assert rng.bit_generator.state["has_uint32"] == 1
        below = np.arange(len(pop)) % 3 == 0  # both adaptive rates
        out = mutate(pop, cfg, rng, schema=schema, below_mean=below)
        digest.update(out.tobytes())
        digest.update(repr(rng.bit_generator.state).encode())
    assert digest.hexdigest() == _EDGE_DIGESTS[rates][kind]


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
        below = np.arange(len(pop)) % 3 == 0  # both adaptive rates
        whole_rng, row_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        whole = mutate(pop, cfg, whole_rng, schema=schema, below_mean=below)
        rows = np.array([mutate(row, cfg, row_rng, schema=schema, below_mean=below[i])
                         for i, row in enumerate(pop)])
        assert whole.shape == pop.shape
        assert whole.tobytes() == rows.tobytes()
        assert np.array_equal(schema.coerce(whole), whole)
        assert whole_rng.bit_generator.state == row_rng.bit_generator.state


def test_mutate_leaves_its_input_generation_untouched():
    cfg = _cfg(num_genes=6, mutation_rate=NumGenes(3))
    pop = np.random.default_rng(0).uniform(-1, 1, size=(5, 6))
    before = pop.copy()
    out = mutate(pop, cfg, np.random.default_rng(1), schema=GeneSchema.from_config(cfg))
    assert np.array_equal(pop, before) and not np.array_equal(out, before)


# --- mutation against its per-call reference ------------------------------------------

def _reference_mutate(chrom, cfg, rng, *, schema, below_mean=None):
    """mutate as it was before its draws were replayed: each draw one numpy call.

    It spells one position as choice(n, 1) and a delta as uniform(lo, hi),
    the numpy calls whose bits the per-row loop's integers(n) and
    lo + (hi - lo) * random() drew (test_mutation_draw_swaps_draw_the_same_bits in
    tests/test_draws.py).
    """
    kind = cfg.mutation
    genes = np.array(chrom, dtype=float)
    rows = genes.reshape(-1, genes.shape[-1])
    rules = schema.rules
    if kind not in (MutationKind.RANDOM, MutationKind.ADAPTIVE):
        for row in rows:
            if row.size >= 2:
                for j in operators._MOVES[kind](row, rng):
                    row[j] = rules[j].admit(row[j], rng)
            if not cfg.allow_duplicate_genes:
                row[:] = schema.repair(row, rng)
        return genes
    if kind is MutationKind.ADAPTIVE:
        sides = (cfg.mutation_rate.low, cfg.mutation_rate.high)
        side_of = np.broadcast_to(below_mean, rows.shape[:1]).astype(int).tolist()
    else:
        sides = (cfg.mutation_rate,)
        side_of = [0] * rows.shape[0]
    n = cfg.num_genes
    fixed = [None if isinstance(rate, Probability) else resolve_mutation_count(rate, n, rng)
             for rate in sides]
    lo, hi = cfg.random_delta_range
    for i, side in enumerate(side_of):
        count = fixed[side]
        if count is None:
            count = resolve_mutation_count(sides[side], n, rng)
        row = rows[i]
        for j in rng.choice(row.size, size=count, replace=False).tolist():
            if cfg.mutation_by_replacement and schema.spaces[j] != UNCONSTRAINED:
                row[j] = rules[j].sample(rng)
                continue
            v = rng.uniform(lo, hi)
            if not cfg.mutation_by_replacement:
                v += row.item(j)
            row[j] = rules[j].admit(v, rng)
        if not cfg.allow_duplicate_genes:
            rows[i] = schema.repair(row, rng)
    return genes


# Every rule kind: unconstrained, discrete sets, ranges, enumerated lattices
# and a lattice too large to enumerate, each under any gene type.
_MUTATED_GENES = st.tuples(
    st.one_of(
        st.just(UNCONSTRAINED),
        st.lists(st.sampled_from([0.0, 0.2, 0.5, 1.0, 2.5, -3.0, 7.0, 300.0]),
                 min_size=1, max_size=5, unique=True).map(lambda v: DiscreteSet(tuple(v))),
        st.sampled_from([ValueRange(-1, 1), ValueRange(0, 100), ValueRange(0, 10, 1),
                         ValueRange(-2, 2, 0.5), ValueRange(0, 2**21, 1)]),
    ),
    st.sampled_from(list(GeneType)),
)

# (variant, high, low): one side is a plain rate, both make an adaptive pair.
# Probability rates on rows of over 30 genes reach numpy's BTPE binomial, the
# rest its inversion; counts over 16 genes reach numpy's own choice.
_MUTATION_RATES = st.one_of(
    st.tuples(st.just(Probability), *[st.sampled_from([0.05, 0.2, 0.45, 0.6, 0.95])] * 2),
    st.tuples(st.just(PercentGenes), *[st.sampled_from([1.0, 10.0, 50.0, 100.0])] * 2),
    st.tuples(st.just(NumGenes), *[st.integers(1, 40)] * 2),
)


def _rate(kind, variant, high, low, num_genes):
    if variant is NumGenes:
        high, low = min(high, num_genes), min(low, num_genes)
    high, low = max(high, low), min(high, low)
    if kind is MutationKind.ADAPTIVE:
        return AdaptivePair(variant(high), variant(low))
    return variant(high)


@contextmanager
def _mutation_draws_spy():
    """Words.mutation_draws, recording for each call whether it drew (True) or gave up."""
    taken = []
    original = draws.Words.mutation_draws

    def spy(self, length, counts, *admits):
        drawn = original(self, length, counts, *admits)
        taken.append(drawn is not None)
        return drawn

    with mock.patch.object(draws.Words, "mutation_draws", spy):
        yield taken


def _one_pull_calls(cfg, schema, pop, below):
    """What _mutation_draws_spy sees on one mutate call with these below-mean flags.

    mutate asks for one pull exactly when every gene's admit draws at most once,
    duplicates are allowed, every rate the rows take is a fixed count and no
    written value can pass the largest double; the pull draws unless a row
    takes more than 16 picks (a Lemire rejection is about 1e-9 a step here).
    """
    if cfg.mutation not in (MutationKind.RANDOM, MutationKind.ADAPTIVE):
        return []
    rates = {cfg.mutation_rate}
    if cfg.mutation is MutationKind.ADAPTIVE:  # a row below the mean fitness takes the high rate
        rates = {(cfg.mutation_rate.low, cfg.mutation_rate.high)[b] for b in below.tolist()}
    lo, hi = cfg.random_delta_range
    in_range = math.isfinite(abs(lo) + (hi - lo) + (
        0.0 if cfg.mutation_by_replacement else float(np.abs(pop).max())))
    if (schema.one_step_admits and cfg.allow_duplicate_genes and in_range
            and not any(isinstance(r, Probability) for r in rates)):
        return [max(resolve_mutation_count(r, cfg.num_genes, None) for r in rates) <= 16]
    return []


@settings(max_examples=250)
@given(kind=st.sampled_from(list(MutationKind)),
       genes=st.lists(_MUTATED_GENES, min_size=1, max_size=6),
       copies=st.sampled_from([1, 1, 8, 40]), rate=_MUTATION_RATES,
       by_replacement=st.booleans(), distinct=st.booleans(), half_word=st.booleans(),
       delta=st.sampled_from([(-1.0, 1.0), (-2.5, 2.5), (-1000.0, 1000.0)]),
       rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
@example(kind=MutationKind.RANDOM, genes=[(ValueRange(0, 10, 1), GeneType.INT8)] * 2, copies=40,
         rate=(Probability, 0.45, 0.45), by_replacement=False, distinct=False, half_word=True,
         delta=(-1.0, 1.0), rows=3, seed=5)
def test_mutate_draws_what_the_per_call_reference_draws(kind, genes, copies, rate, by_replacement,
                                                       distinct, half_word, delta, rows, seed):
    spaces, types = zip(*(genes * copies))
    try:
        cfg = validate(GaConfig(
            num_generations=1, sol_per_pop=rows, num_parents_mating=1, num_genes=len(spaces),
            crossover=None, keep_parents=0, mutation=kind,
            mutation_rate=_rate(kind, *rate, len(spaces)),
            mutation_by_replacement=by_replacement, random_delta_range=delta,
            allow_duplicate_genes=not distinct, gene_space=list(spaces), gene_type=list(types),
        ))
        schema = GeneSchema.from_config(cfg)
        pop = init_population(cfg, np.random.default_rng(seed + 1), schema)
    except (ConfigError, EmptySpace, NonFiniteGene, InsufficientSpace):
        assume(False)
    below = np.random.default_rng(seed + 2).uniform(-1.0, 1.0, size=rows) < 0.0

    def outcome(mutation):
        rng = np.random.default_rng(seed)
        if half_word:
            rng.integers(2)  # a 32-bit draw leaves the other half of its word buffered
        try:
            out = mutation(pop, cfg, rng, schema=schema, below_mean=below).tobytes()
        except GaError as err:
            out = type(err)
        return out, rng.bit_generator.state

    with _mutation_draws_spy() as taken:
        assert outcome(mutate) == outcome(_reference_mutate)
    assert taken == _one_pull_calls(cfg, schema, pop, below)


# --- a generation mutated from one pull ------------------------------------------------

_NEVER_MISSING_TYPES = [t for t in GeneType if t is not GeneType.PYINT]


@settings(max_examples=150)
@given(kind=st.sampled_from([MutationKind.RANDOM, MutationKind.ADAPTIVE]),
       types=st.one_of(st.lists(st.sampled_from(_NEVER_MISSING_TYPES), min_size=1, max_size=20),
                       st.lists(st.sampled_from(list(GeneType)), min_size=1, max_size=20)),
       rate=st.one_of(_MUTATION_RATES, st.tuples(st.just(NumGenes), st.just(17), st.just(1))),
       by_replacement=st.booleans(), distinct=st.booleans(), half_word=st.booleans(),
       delta=st.sampled_from([(-1.0, 1.0), (-2.5, 2.5), (-300.0, 300.0), (-1e307, 1e307),
                              (1e308, 1.5e308)]),
       scale=st.sampled_from([1.0, 1e40, 4e307]), rows=st.integers(1, 60),
       seed=st.integers(0, 2**32 - 1))
@example(kind=MutationKind.RANDOM, types=[GeneType.FLOAT64] * 18, rate=(NumGenes, 17, 1),
         by_replacement=False, distinct=False, half_word=True, delta=(-1.0, 1.0), scale=1.0,
         rows=3, seed=0)
@example(kind=MutationKind.ADAPTIVE, types=[GeneType.INT8], rate=(NumGenes, 1, 1),
         by_replacement=True, distinct=False, half_word=True, delta=(-300.0, 300.0), scale=1e40,
         rows=60, seed=1)
# Near the largest double (about 1.797e308), on both sides of the overflow check:
# genes up to 1.6e308 plus deltas of 300 stay in range and are drawn at once;
@example(kind=MutationKind.RANDOM, types=[GeneType.FLOAT64, GeneType.FLOAT32] * 3,
         rate=(NumGenes, 2, 1), by_replacement=False, distinct=False, half_word=True,
         delta=(-300.0, 300.0), scale=4e307, rows=40, seed=2)
# so are replacements up to 1.5e308, whatever the genes hold;
@example(kind=MutationKind.ADAPTIVE, types=[GeneType.FLOAT64, GeneType.INT64] * 3,
         rate=(NumGenes, 3, 1), by_replacement=True, distinct=False, half_word=False,
         delta=(1e308, 1.5e308), scale=4e307, rows=40, seed=3)
# deltas of 1e307 could overflow (3e307 + 1.6e308) but do not: the loop runs, and writes;
@example(kind=MutationKind.RANDOM, types=[GeneType.FLOAT64] * 6, rate=(NumGenes, 2, 1),
         by_replacement=False, distinct=False, half_word=True, delta=(-1e307, 1e307),
         scale=4e307, rows=40, seed=4)
# deltas of 1e308 or more on genes up to 1.6e308 do: the loop runs, and raises.
@example(kind=MutationKind.RANDOM, types=[GeneType.FLOAT64] * 6, rate=(NumGenes, 2, 1),
         by_replacement=False, distinct=False, half_word=False, delta=(1e308, 1.5e308),
         scale=4e307, rows=40, seed=5)
def test_never_missing_genes_mutate_as_the_reference_does(kind, types, rate, by_replacement,
                                                          distinct, half_word, delta, scale,
                                                          rows, seed):
    n = len(types)
    # A wide init_range leaves distinct integer-typed genes values enough to
    # pass validate; it moves only repair's resamples, alike on both sides.
    cfg = validate(GaConfig(
        num_generations=1, sol_per_pop=rows, num_parents_mating=1, num_genes=n,
        crossover=None, keep_parents=0, mutation=kind, mutation_rate=_rate(kind, *rate, n),
        mutation_by_replacement=by_replacement, random_delta_range=delta,
        allow_duplicate_genes=not distinct, gene_type=list(types), init_range=(-1000.0, 1000.0),
    ))
    schema = GeneSchema.from_config(cfg)
    # 1e40 is past float32's range and every integer type's, so coercion clamps;
    # 4e307 puts genes within 1.6e308 of zero, near the largest double.
    pop = np.random.default_rng(seed + 1).uniform(-4.0, 4.0, size=(rows, n)) * scale
    below = np.random.default_rng(seed + 2).uniform(-1.0, 1.0, size=rows) < 0.0

    def outcome(mutation):
        rng = np.random.default_rng(seed)
        if half_word:
            rng.integers(2)  # a 32-bit draw leaves the other half of its word buffered
        try:
            out = mutation(pop, cfg, rng, schema=schema, below_mean=below).tobytes()
        except GaError as err:
            out = type(err)  # the reference's repair errors do not name the row
        return out, rng.bit_generator.state

    with _mutation_draws_spy() as taken:
        assert outcome(mutate) == outcome(_reference_mutate)
    assert taken == _one_pull_calls(cfg, schema, pop, below)


@pytest.mark.parametrize("half_word", [False, True])
def test_a_value_that_overflows_raises_where_the_reference_raises(half_word):
    cfg = _cfg(num_genes=3, sol_per_pop=5, mutation_rate=NumGenes(2),
               random_delta_range=(1e308, 1.5e308))
    schema = GeneSchema.from_config(cfg)
    pop = np.ones((5, 3))
    pop[3] = 1.7e308  # 1e308 or more added to it is past the largest double

    def outcome(mutation):
        rng = np.random.default_rng(4)
        if half_word:
            rng.integers(2)
        with pytest.raises(NonFiniteGene) as err:
            mutation(pop, cfg, rng, schema=schema)
        return str(err.value), rng.bit_generator.state

    with _mutation_draws_spy() as taken:
        assert outcome(mutate) == outcome(_reference_mutate)
    assert taken == []  # 1.5e308 + 1.7e308 could overflow: the per-row loop runs, and raises


# Genes the one pull mutates: unconstrained ones of any type but int, and sets
# and lattices of every integer type and int, whose deltas often miss.
_ONE_PULL_GENES = st.one_of(
    st.tuples(st.just(UNCONSTRAINED), st.sampled_from(_NEVER_MISSING_TYPES)),
    st.tuples(
        st.one_of(
            st.lists(st.sampled_from([0.0, 1.0, -2.0, 0.5, 3.0, 250.0, -129.0]),
                     min_size=1, max_size=4, unique=True).map(lambda v: DiscreteSet(tuple(v))),
            st.sampled_from([ValueRange(0, 2, 1), ValueRange(-3, 3, 1), ValueRange(0, 300, 7),
                             ValueRange(-1, 1, 0.5)]),
        ),
        st.sampled_from([t for t in GeneType if t not in (GeneType.FLOAT32, GeneType.FLOAT64)]),
    ),
)


@contextmanager
def _direct_draws():
    """mutate with every draw one numpy call on the Generator itself: no word replay."""
    @contextmanager
    def unreplayed(rng):
        yield rng

    with mock.patch.object(operators, "replayed", unreplayed):
        yield


@settings(max_examples=200)
@given(genes=st.lists(_ONE_PULL_GENES, min_size=1, max_size=8),
       kind=st.sampled_from([MutationKind.RANDOM, MutationKind.ADAPTIVE]),
       rate=st.sampled_from([(NumGenes, 3, 1), (PercentGenes, 50.0, 20.0),
                             (PercentGenes, 100.0, 100.0)]),
       by_replacement=st.booleans(), crossover=st.sampled_from([None, *CrossoverKind]),
       delta=st.sampled_from([(-1.0, 1.0), (-2.5, 2.5), (-300.0, 300.0)]),
       pop=st.integers(2, 8), generations=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_runs_mutated_from_one_pull_equal_runs_of_direct_draws(genes, kind, rate, by_replacement,
                                                               crossover, delta, pop,
                                                               generations, seed):
    spaces, types = zip(*genes)
    try:
        cfg = validate(GaConfig(
            num_generations=generations, sol_per_pop=pop, num_parents_mating=2,
            num_genes=len(spaces), crossover=crossover, mutation=kind,
            mutation_rate=_rate(kind, *rate, len(spaces)), mutation_by_replacement=by_replacement,
            random_delta_range=delta, gene_space=list(spaces), gene_type=list(types), seed=seed,
        ))
        GeneSchema.from_config(cfg)
    except (ConfigError, EmptySpace, NonFiniteGene):
        assume(False)

    def fitness(solution, _idx):
        return float(np.sum(solution))

    def bits(result):
        return [np.asarray(field).tobytes() if isinstance(field, np.ndarray) else field
                for field in vars(result).values()]

    with _mutation_draws_spy() as taken:
        one_pull = bits(run(cfg, fitness))
    assert taken == [True] * generations
    with _direct_draws():
        assert bits(run(cfg, fitness)) == one_pull


def _preset_run(argv):
    cfg, fitness = cli.build_solve_config(cli.parse_invocation(["solve", *argv]))
    with _mutation_draws_spy() as taken:
        run(cfg, fitness)
    return cfg.num_generations, taken


@pytest.mark.parametrize("problem", ["xor", "linear"])
def test_unconstrained_presets_mutate_every_generation_at_once(problem):
    generations, taken = _preset_run(["--problem", problem, "--generations", "40"])
    assert taken == [True] * generations


_LATTICE_CFG = Path(__file__).parent.parent / "perfbench" / "lattice.cfg"


def test_onemax_mutates_every_generation_at_once():
    # Its {0, 1} genes miss about a quarter of their admits; each miss draws in turn.
    generations, taken = _preset_run(["--problem", "onemax", "--generations", "200"])
    assert taken == [True] * generations


def test_repaired_duplicates_never_mutate_at_once():
    argv = ["--problem", "onemax", "--genes", "40", "--pop", "20", "--parents", "6",
            "--generations", "10", "--config", str(_LATTICE_CFG)]
    assert _preset_run(argv)[1] == []


# The benchmark's workloads (perfbench/harness.py): onemax, xor and lattice.
@pytest.mark.parametrize("argv", [
    ["--problem", "onemax", "--generations", "200"],
    ["--problem", "xor"],
    ["--problem", "onemax", "--genes", "40", "--pop", "20", "--parents", "6",
     "--generations", "100", "--config", str(_LATTICE_CFG)],
])
def test_benchmark_presets_hand_no_draw_to_numpy(argv):
    # Words replays only the draws these runs make; a draw outside that set goes to numpy.
    words = draws.Words
    with mock.patch.object(words, "_numpy", autospec=True, side_effect=words._numpy) as handed, \
            mock.patch.object(words, "close", autospec=True, side_effect=words.close) as closed:
        generations = _preset_run(argv)[0]
    assert handed.call_args_list == []
    assert closed.call_count == generations  # every generation's mutation ran on the replay
