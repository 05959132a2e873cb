"""Evolution loop behavior: lifecycle, stop control, determinism, records."""

import dataclasses
import hashlib
import re
import time
from unittest import mock

import numpy as np
import pytest
from conftest import FINITE_BOUND, gene_spaces
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gakit
from gakit import draws, engine
from gakit.cli import build_solve_config, parse_invocation
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
from gakit.engine import (
    GaControl,
    LifecycleHooks,
    RunResult,
    StopReason,
    best_solution,
    evaluate_population,
    fitness_history,
    run,
)
from gakit.errors import (
    ConfigError,
    DimensionMismatch,
    EmptySpace,
    FitnessError,
    GaError,
    HookError,
    InsufficientSpace,
    NonFiniteGene,
    NonPositiveFitness,
)
from gakit.genome import UNCONSTRAINED, DiscreteSet, GeneSchema, GeneType, ValueRange
from gakit.operators import mutate
from gakit.problems import DEFAULT_EQUATION, linear_fitness


def demo_config(**overrides):
    base = dict(num_generations=10, sol_per_pop=10, num_parents_mating=5, num_genes=3, seed=3)
    base.update(overrides)
    return validate(GaConfig(**base))


def sum_fitness(solution, _idx):
    return float(np.sum(solution))


def test_callback_order_is_exact():
    events = []
    hooks = LifecycleHooks(
        on_start=lambda s: events.append("start"),
        on_fitness=lambda s: events.append("fitness"),
        on_parents=lambda s: events.append("parents"),
        on_crossover=lambda s: events.append("crossover"),
        on_mutation=lambda s: events.append("mutation"),
        on_generation=lambda s: events.append("generation"),
        on_stop=lambda s: events.append("stop"),
    )
    run(demo_config(), sum_fitness, hooks)
    expected = ["start"]
    expected += ["fitness", "parents", "crossover", "mutation", "generation"] * 10
    expected += ["stop"]
    assert events == expected


def test_callbacks_fire_even_with_operators_disabled():
    events = []
    hooks = LifecycleHooks(
        on_crossover=lambda s: events.append("crossover"),
        on_mutation=lambda s: events.append("mutation"),
    )
    cfg = demo_config(num_generations=3, crossover=None, mutation=None)
    run(cfg, sum_fitness, hooks)
    assert events == ["crossover", "mutation"] * 3


def test_stop_control_value():
    def stop_at_five(state):
        if state.generation + 1 == 5:
            return GaControl.STOP

    result = run(demo_config(num_generations=50), sum_fitness,
                 LifecycleHooks(on_generation=stop_at_five))
    assert result.completed_generations == 5
    assert len(result.best_solutions_fitness) == 6
    assert result.stop_reason is StopReason.CALLBACK_STOP


def test_stop_string_is_accepted():
    result = run(demo_config(num_generations=50), sum_fitness,
                 LifecycleHooks(on_generation=lambda s: "stop"))
    assert result.completed_generations == 1
    assert result.stop_reason is StopReason.CALLBACK_STOP


def test_other_return_values_continue():
    result = run(demo_config(num_generations=4), sum_fitness,
                 LifecycleHooks(on_generation=lambda s: GaControl.CONTINUE))
    assert result.completed_generations == 4
    assert result.stop_reason is StopReason.EXHAUSTED


def test_a_hook_returning_an_array_continues_every_generation():
    seen = []

    def best_row(state):
        seen.append(state.generation)
        return state.last_record.best_solution  # three genes: no truth value

    result = run(demo_config(num_generations=4), sum_fitness,
                 LifecycleHooks(on_generation=best_row))
    assert seen == [0, 1, 2, 3]
    assert result.stop_reason is StopReason.EXHAUSTED


def test_zero_generations_reports_initial_population():
    result = run(demo_config(num_generations=0), sum_fitness)
    assert result.completed_generations == 0
    assert len(result.best_solutions_fitness) == 1
    assert result.stop_reason is StopReason.EXHAUSTED


def test_history_length_counts_initial_entry():
    result = run(demo_config(num_generations=3), sum_fitness)
    assert len(result.best_solutions_fitness) == 4
    assert len(fitness_history(result)) == 4


def test_identical_seeds_replay_identically():
    fitness = linear_fitness(DEFAULT_EQUATION)
    r1 = run(demo_config(num_generations=25), fitness)
    r2 = run(demo_config(num_generations=25), fitness)
    assert np.array_equal(r1.best_solutions, r2.best_solutions)
    assert np.array_equal(r1.best_solutions_fitness, r2.best_solutions_fitness)
    assert fitness_history(r1) == fitness_history(r2)


def test_population_size_constant_at_every_boundary():
    sizes = []
    hooks = LifecycleHooks(on_generation=lambda s: sizes.append(s.population.shape))
    run(demo_config(num_generations=8, keep_parents=3), sum_fitness, hooks)
    assert sizes == [(10, 3)] * 8


def test_elites_are_first_keep_rows_of_parent_set():
    captured = {}

    def grab_parents(state):
        captured["parents"] = state.last_generation_parents.copy()

    def check_next_population(state):
        elites = captured["parents"][:2]
        assert np.array_equal(state.population[:2], elites)

    cfg = demo_config(num_generations=4, keep_parents=2)
    run(cfg, sum_fitness, LifecycleHooks(on_parents=grab_parents,
                                         on_generation=check_next_population))


def test_hook_overwrite_of_crossover_feeds_mutation():
    # With mutation disabled the sentinel array must flow through to assembly.
    sentinel = np.full((8, 3), 42.0)
    seen = {}

    def overwrite(state):
        state.last_generation_offspring_crossover = sentinel.copy()

    def capture_mutation_input(state):
        seen["mutation_input"] = np.asarray(state.last_generation_offspring_mutation).copy()

    def check_population(state):
        assert np.array_equal(state.population[2:], sentinel)
        return GaControl.STOP

    cfg = demo_config(num_generations=1, keep_parents=2, mutation=None)
    run(cfg, sum_fitness, LifecycleHooks(on_crossover=overwrite,
                                         on_mutation=capture_mutation_input,
                                         on_generation=check_population))
    assert np.array_equal(seen["mutation_input"], sentinel)


def test_hook_overwrite_of_mutation_feeds_assembly():
    sentinel = np.full((8, 3), -7.0)

    def overwrite(state):
        state.last_generation_offspring_mutation = sentinel.copy()

    def check_population(state):
        assert np.array_equal(state.population[2:], sentinel)

    cfg = demo_config(num_generations=2, keep_parents=2)
    run(cfg, sum_fitness, LifecycleHooks(on_mutation=overwrite,
                                         on_generation=check_population))


def test_hook_overwrite_with_wrong_shape_rejected():
    def overwrite(state):
        state.last_generation_offspring_mutation = np.zeros((3, 3))

    with pytest.raises(DimensionMismatch):
        run(demo_config(num_generations=1, keep_parents=2), sum_fitness,
            LifecycleHooks(on_mutation=overwrite))


@pytest.mark.parametrize("hook", ["on_crossover", "on_mutation"])
def test_wrong_offspring_shape_names_the_hook_and_generation(hook):
    def overwrite(state):
        if state.generation == 1:
            setattr(state, f"last_generation_offspring_{hook[3:]}", np.zeros((2, 3)))

    message = rf"^generation 1, {hook} hook: offspring array shape \(2, 3\) != \(8, 3\)$"
    with pytest.raises(DimensionMismatch, match=message):
        run(demo_config(keep_parents=2), sum_fitness, LifecycleHooks(**{hook: overwrite}))


@pytest.mark.parametrize("hook, generation", [
    ("on_start", None), ("on_fitness", 0), ("on_parents", 0), ("on_crossover", 0),
    ("on_mutation", 0), ("on_generation", 0), ("on_stop", 0),
])
def test_hook_error_names_its_hook_and_generation(hook, generation):
    def broken(state):
        raise KeyError("missing")

    with pytest.raises(HookError) as err:
        run(demo_config(num_generations=1), sum_fitness, LifecycleHooks(**{hook: broken}))
    assert (err.value.hook, err.value.generation) == (hook, generation)
    assert isinstance(err.value.__cause__, KeyError)
    assert hook in str(err.value)


def test_ga_error_from_a_hook_passes_through_unwrapped():
    def broken(state):
        raise DimensionMismatch("a hook's own library error")

    with pytest.raises(DimensionMismatch, match="^a hook's own library error$"):
        run(demo_config(num_generations=1), sum_fitness, LifecycleHooks(on_parents=broken))


def test_hook_error_is_exported():
    assert gakit.HookError is HookError and issubclass(HookError, GaError)


def test_engine_mutates_a_generation_in_one_call(monkeypatch):
    shapes = []

    def counting(chrom, *args, **kwargs):
        shapes.append(np.shape(chrom))
        return mutate(chrom, *args, **kwargs)

    monkeypatch.setattr(engine, "mutate", counting)
    run(demo_config(num_generations=4, keep_parents=2), sum_fitness)
    assert shapes == [(8, 3)] * 4


def test_fitness_error_carries_location():
    def broken(solution, idx):
        if idx == 4:
            raise RuntimeError("boom")
        return 1.0

    with pytest.raises(FitnessError) as err:
        run(demo_config(num_generations=2), broken)
    assert err.value.solution_index == 4
    assert err.value.generation == 0


@pytest.mark.parametrize("batched", [False, True])
def test_fitness_error_from_the_fitness_passes_through_unwrapped(batched):
    raised = FitnessError("out of budget", generation=99, solution_index=7)

    def give_up(*_args):
        raise raised

    fitness = _batch_fitness(give_up) if batched else give_up
    with pytest.raises(FitnessError) as err:
        run(demo_config(num_generations=2), fitness)
    assert err.value is raised and err.value.__cause__ is None
    assert (err.value.generation, err.value.solution_index) == (99, 7)


def test_non_finite_fitness_rejected():
    def nan_fitness(solution, idx):
        return float("nan")

    with pytest.raises(FitnessError):
        run(demo_config(num_generations=1), nan_fitness)


def _result_bits(result):
    arrays = (result.best_solutions, result.best_solutions_fitness,
              result.best_solution_indices, result.mean_fitness)
    return [np.asarray(a).tobytes() for a in arrays] + [
        result.completed_generations, result.stop_reason]


@pytest.mark.parametrize("problem", ["linear", "onemax", "xor"])
def test_batch_fitness_run_equals_per_row_run(problem):
    cfg, fitness = build_solve_config(parse_invocation(
        ["solve", "--problem", problem, "--generations", "40", "--seed", "5"]))
    assert callable(fitness.batch)
    calls = []

    def per_row(solution, idx):
        calls.append(idx)
        return fitness(solution, idx)

    batched = run(cfg, fitness)
    assert _result_bits(run(cfg, per_row)) == _result_bits(batched)
    assert len(calls) == 41 * cfg.sol_per_pop


def _batch_fitness(batch):
    def fitness(solution, idx):
        raise AssertionError("per-row call on the batch path")

    fitness.batch = batch
    return fitness


def test_batch_is_called_once_per_generation_instead_of_each_row():
    shapes = []

    def scored(pop):
        shapes.append(pop.shape)
        return np.sum(pop, axis=1)

    result = run(demo_config(num_generations=3), _batch_fitness(scored))
    assert shapes == [(10, 3)] * 4
    assert result.completed_generations == 3


def test_fitness_with_a_non_callable_batch_attribute_runs_per_row():
    # A batch size, say, is not a batch function: the per-row path runs as before.
    calls = []

    def fitness(solution, idx):
        calls.append(idx)
        return float(np.sum(solution))

    fitness.batch = 4
    result = run(demo_config(num_generations=3), fitness)
    assert calls == list(range(10)) * 4
    assert result.completed_generations == 3


def _failing_at(generation, batch):
    # Scores like sum_fitness until the given generation's evaluation.
    seen = []

    def scored(pop):
        seen.append(None)
        return batch(pop) if len(seen) == generation + 1 else np.sum(pop, axis=1)

    return _batch_fitness(scored)


@pytest.mark.parametrize("bad", [
    lambda pop: np.ones(len(pop) - 1),
    lambda pop: np.ones((len(pop), 1)),
    lambda pop: 1.0,
])
def test_batch_of_wrong_shape_names_the_generation(bad):
    with pytest.raises(FitnessError, match="shape") as err:
        run(demo_config(num_generations=4), _failing_at(2, bad))
    assert err.value.generation == 2
    assert err.value.solution_index is None
    assert "generation 2" in str(err.value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_batch_non_finite_value_names_the_first_bad_row(value):
    def bad(pop):
        out = np.sum(pop, axis=1)
        out[[3, 7]] = value
        return out

    with pytest.raises(FitnessError) as err:
        run(demo_config(num_generations=4), _failing_at(1, bad))
    assert (err.value.generation, err.value.solution_index) == (1, 3)


def test_batch_that_raises_is_wrapped_with_the_generation():
    def bad(pop):
        raise RuntimeError("boom")

    with pytest.raises(FitnessError, match="boom") as err:
        run(demo_config(num_generations=4), _failing_at(4, bad))
    # Generation 4 of a 4-generation run is the final population's evaluation.
    assert (err.value.generation, err.value.solution_index) == (4, None)
    assert isinstance(err.value.__cause__, RuntimeError)


def test_batch_result_is_copied_off_the_fitness():
    kept = np.zeros(10)

    def scored(pop):
        kept[:] = np.sum(pop, axis=1)
        return kept

    values = evaluate_population(np.ones((10, 3)), _batch_fitness(scored))
    kept[:] = -1.0
    assert values.tolist() == [3.0] * 10


def test_evaluate_population_reproduces_demo_values():
    # Independent oracle: the fitness formula evaluated by hand per solution.
    fitness = linear_fitness(DEFAULT_EQUATION)
    pop = np.array([[11.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    values = evaluate_population(pop, fitness)
    oracle = [
        1.0 / (abs(4 * 11.0 - 2 * 0.0 + 3.5 * 0.0 - 44.0) + 1e-6),
        1.0 / (abs(0.0 - 44.0) + 1e-6),
        1.0 / (abs(4 * 1.0 - 2 * 1.0 + 3.5 * 1.0 - 44.0) + 1e-6),
    ]
    assert np.allclose(values, oracle, rtol=1e-12)
    assert values[0] == 1_000_000.0
    assert abs(values[1] - 0.0227272722) < 1e-9
    assert abs(values[2] - 0.0259740253) < 1e-9


def _result_with_history(fits):
    n = len(fits)
    return RunResult(
        best_solutions=np.array([[float(g)] for g in range(n)]),
        best_solutions_fitness=np.array(fits, dtype=float),
        best_solution_indices=np.arange(n),
        mean_fitness=np.array(fits, dtype=float),
        completed_generations=n - 1,
        stop_reason=StopReason.EXHAUSTED,
    )


def test_best_solution_takes_history_argmax():
    result = _result_with_history([0.1, 0.5, 0.3])
    solution, fit, idx = best_solution(result)
    assert solution.tolist() == [1.0]
    assert fit == 0.5
    assert idx == 1


def test_best_solution_ties_break_to_earliest_generation():
    result = _result_with_history([1.0, 1.0, 1.0])
    solution, _, _ = best_solution(result)
    assert solution.tolist() == [0.0]


def test_best_solution_single_entry():
    result = _result_with_history([0.25])
    solution, fit, _ = best_solution(result)
    assert fit == 0.25


def test_best_solution_index_addresses_its_own_generation():
    # The index is the row within the population of the generation that
    # produced the best, which is often not the final one.
    def fitness(solution, _idx):
        return -float(np.sum(np.abs(solution)))

    earlier = 0
    for seed in range(6):
        populations = []

        def capture(state):
            populations.append(state.population)

        # on_fitness sees every evolving generation; on_stop sees the final one.
        result = run(demo_config(num_generations=6, seed=seed), fitness,
                     LifecycleHooks(on_fitness=capture, on_stop=capture))
        solution, fit, idx = best_solution(result)
        g = int(np.argmax(result.best_solutions_fitness))
        assert len(populations) == result.completed_generations + 1
        assert np.array_equal(populations[g][idx], solution)
        assert fit == fitness(populations[g][idx], idx)
        earlier += g < result.completed_generations
    assert earlier > 0


def test_fitness_history_constant_function():
    result = run(demo_config(num_generations=5), lambda s, i: 1.0)
    history = fitness_history(result)
    assert len(history) == 6
    assert all(best == 1.0 and mean == 1.0 for _, best, mean in history)
    assert [g for g, _, _ in history] == list(range(6))


def test_elitism_monotone_with_steady_state():
    fitness = linear_fitness(DEFAULT_EQUATION)
    for seed in range(10):
        cfg = demo_config(num_generations=30, seed=seed, keep_parents=1,
                          parent_selection=ParentSelection.STEADY_STATE)
        result = run(cfg, fitness)
        assert np.all(np.diff(result.best_solutions_fitness) >= 0)


def test_adaptive_mutation_runs_through_engine():
    cfg = demo_config(
        num_generations=5,
        mutation=MutationKind.ADAPTIVE,
        mutation_rate=AdaptivePair(PercentGenes(60), PercentGenes(20)),
    )
    result = run(cfg, sum_fitness)
    assert result.completed_generations == 5


def test_adaptive_mutation_takes_low_rate_when_fitness_sum_overflows():
    # Every solution sits exactly at the mean, so every child takes the low
    # rate (one gene); an overflowing mean must not flip that to the high one.
    changed = []

    def count_changes(state):
        before = state.last_generation_offspring_crossover
        after = state.last_generation_offspring_mutation
        changed.extend(np.sum(before != after, axis=1).tolist())

    cfg = demo_config(num_generations=4, mutation=MutationKind.ADAPTIVE,
                      mutation_rate=AdaptivePair(NumGenes(3), NumGenes(1)))
    result = run(cfg, lambda s, i: 1e308, LifecycleHooks(on_mutation=count_changes))
    assert result.mean_fitness.tolist() == [1e308] * 5
    assert changed and max(changed) == 1


def test_state_handle_exposes_stage_records():
    seen = {}

    def on_fitness(state):
        seen["fitness"] = state.last_generation_fitness.copy()

    def on_parents(state):
        seen["parents"] = state.last_generation_parents.copy()
        seen["indices"] = state.last_generation_parents_indices.copy()

    def on_generation(state):
        seen["generation"] = state.generation
        seen["crossover"] = state.last_generation_offspring_crossover
        seen["record"] = state.last_record
        return GaControl.STOP

    cfg = demo_config(num_generations=3)
    run(cfg, sum_fitness, LifecycleHooks(on_fitness=on_fitness, on_parents=on_parents,
                                         on_generation=on_generation))
    assert seen["fitness"].shape == (10,)
    assert seen["parents"].shape == (5, 3)
    assert seen["indices"].shape == (5,)
    assert seen["generation"] == 0
    assert seen["crossover"].shape == (9, 3)
    record = seen["record"]
    assert record.best_fitness == np.max(seen["fitness"])
    assert record.best_index == int(np.argmax(seen["fitness"]))
    assert record.offspring_mutation.shape == (9, 3)


# --- fuzz: small validated configs --------------------------------------------------

@st.composite
def _small_configs(draw):
    num_genes = draw(st.integers(1, 6))
    sol_per_pop = draw(st.integers(2, 8))
    crossover = draw(st.sampled_from([*CrossoverKind, None])) if num_genes > 1 else None
    parents = draw(st.integers(1 if crossover is None else 2, sol_per_pop))
    # keep_parents=-1 means all parents, which must leave room for offspring.
    keep_parents = draw(st.integers(-1 if parents < sol_per_pop else 0,
                                    min(parents, sol_per_pop - 1)))
    mutation = draw(st.sampled_from([*MutationKind, None]))
    if mutation is MutationKind.ADAPTIVE:
        low = draw(st.integers(1, num_genes))
        rate = AdaptivePair(NumGenes(draw(st.integers(low, num_genes))), NumGenes(low))
    else:
        rate = draw(st.one_of(
            st.floats(0.05, 1.0).map(Probability),
            st.floats(1.0, 100.0).map(PercentGenes),
            st.integers(1, num_genes).map(NumGenes),
        ))
    spaces = gene_spaces(FINITE_BOUND)
    if draw(st.booleans()):
        space = draw(spaces)
        gene_type = draw(st.sampled_from(list(GeneType)))
    else:
        space = draw(st.lists(spaces, min_size=num_genes, max_size=num_genes))
        gene_type = draw(st.lists(st.sampled_from(list(GeneType)),
                                  min_size=num_genes, max_size=num_genes))
    return GaConfig(
        num_generations=draw(st.integers(0, 5)),
        sol_per_pop=sol_per_pop,
        num_parents_mating=parents,
        num_genes=num_genes,
        parent_selection=draw(st.sampled_from(list(ParentSelection))),
        tournament_k=draw(st.integers(1, sol_per_pop)),
        crossover=crossover,
        mutation=mutation,
        mutation_rate=rate,
        mutation_by_replacement=draw(st.booleans()),
        random_delta_range=draw(st.sampled_from([(-1.0, 1.0), (-1e3, 1e3), (0.0, 0.5)])),
        keep_parents=keep_parents,
        allow_duplicate_genes=draw(st.booleans()),
        gene_space=space,
        gene_type=gene_type,
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _positive_count(solution, _idx):
    return 1.0 + float(np.count_nonzero(np.asarray(solution) > 0))


def _positive_count_batch(pop):
    return 1.0 + np.count_nonzero(pop > 0, axis=1)


@settings(max_examples=300)
@given(candidate=_small_configs(), batched=st.booleans())
def test_small_validated_configs_end_in_a_closed_result_or_a_ga_error(candidate, batched):
    try:
        cfg = validate(candidate)
    except ConfigError:
        assume(False)
    fitness = _batch_fitness(_positive_count_batch) if batched else _positive_count
    final = []
    try:
        result = run(cfg, fitness, LifecycleHooks(on_stop=lambda s: final.append(s.population)))
    except GaError:
        return
    assert isinstance(result, RunResult)
    assert result.completed_generations == cfg.num_generations
    schema = GeneSchema.from_config(cfg)
    for row in final[0]:
        assert all(schema.rules[j].contains(v) for j, v in enumerate(row.tolist()))
        if not cfg.allow_duplicate_genes:
            assert len(set(row.tolist())) == cfg.num_genes


def _outcome(cfg, hooks=None):
    """Every RunResult field, as bytes where it is an array, or the GaError's type and message."""
    try:
        result = run(cfg, _positive_count, hooks)
    except GaError as err:
        return type(err), str(err)
    return [np.asarray(field).tobytes() if isinstance(field, np.ndarray) else field
            for field in vars(result).values()]


# Few values each, so that crossover pairs equal genes and typing changes values.
_FEW_VALUE_SPACES = [UNCONSTRAINED, DiscreteSet((0, 1, 2)), DiscreteSet((-1.5, 0.5, 2.25)),
                     ValueRange(-2, 2), ValueRange(0, 6, 1), ValueRange(-1, 1, 0.25)]


@st.composite
def _few_value_configs(draw):
    """Small configs over few-value spaces, some starting from a population outside them."""
    num_genes = draw(st.integers(1, 5))
    sol_per_pop = draw(st.integers(2, 6))
    crossover = draw(st.sampled_from([*CrossoverKind, None])) if num_genes > 1 else None
    mutation = draw(st.sampled_from([*MutationKind, None]))
    plain = st.one_of(st.integers(1, num_genes).map(NumGenes),
                      st.sampled_from([Probability(0.5), PercentGenes(50.0)]))
    rate = (AdaptivePair(NumGenes(num_genes), NumGenes(1)) if mutation is MutationKind.ADAPTIVE
            else draw(plain))
    per_gene = st.lists(st.sampled_from(_FEW_VALUE_SPACES), min_size=num_genes,
                        max_size=num_genes)
    types = st.lists(st.sampled_from(list(GeneType)), min_size=num_genes, max_size=num_genes)
    population = None
    if draw(st.booleans()):
        value = st.sampled_from([0.0, 1.0, 2.0, 0.4, -7.5, 300.7, 1e10])
        population = draw(st.lists(st.lists(value, min_size=num_genes, max_size=num_genes),
                                   min_size=sol_per_pop, max_size=sol_per_pop))
    return GaConfig(
        num_generations=draw(st.integers(1, 4)), sol_per_pop=sol_per_pop,
        num_parents_mating=draw(st.integers(2, sol_per_pop)), num_genes=num_genes,
        parent_selection=draw(st.sampled_from(list(ParentSelection))),
        tournament_k=draw(st.integers(1, sol_per_pop)), crossover=crossover, mutation=mutation,
        mutation_rate=rate, mutation_by_replacement=draw(st.booleans()),
        random_delta_range=draw(st.sampled_from([(-1.0, 1.0), (-3.0, 3.0)])),
        keep_parents=draw(st.integers(0, 1)),
        allow_duplicate_genes=draw(st.booleans()),
        gene_space=draw(st.one_of(st.sampled_from(_FEW_VALUE_SPACES), per_gene)),
        gene_type=draw(st.one_of(st.sampled_from(list(GeneType)), types)),
        initial_population=population, seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=150)
@given(candidate=_few_value_configs())
# The one-pull mutation of unconstrained int8 genes; no mutation, so only
# settle repairs what crossover duplicates; a given population outside its set.
@example(candidate=GaConfig(num_generations=3, sol_per_pop=6, num_parents_mating=3, num_genes=4,
                            gene_type=GeneType.INT8, mutation_rate=NumGenes(2), seed=1))
@example(candidate=GaConfig(num_generations=3, sol_per_pop=6, num_parents_mating=3, num_genes=3,
                            mutation=None, gene_space=DiscreteSet((0, 1, 2, 3)),
                            allow_duplicate_genes=False, seed=1))
@example(candidate=GaConfig(num_generations=3, sol_per_pop=2, num_parents_mating=2, num_genes=2,
                            gene_space=ValueRange(0, 6, 1), gene_type=GeneType.UINT8,
                            initial_population=[[-7.5, 300.7], [0.4, 1e10]], seed=1))
def test_a_run_without_hooks_equals_the_run_that_settles_every_generation(candidate):
    # Without hooks settle skips coercion; a no-op hook restores it, so both
    # must give the same run, or fail alike.
    try:
        cfg = validate(candidate)
    except ConfigError:
        assume(False)
    settled = _outcome(cfg, LifecycleHooks(on_generation=lambda state: None))
    assert _outcome(cfg) == settled


def _seeded_stages(monkeypatch) -> list:
    """The (generation, stage) of every stream the runs started after this call seed."""
    seeded, streams = [], engine.StageStreams

    def recording(seed):
        stage_rng = streams(seed)

        def stream(generation, stage):
            seeded.append((generation, stage))
            return stage_rng(generation, stage)

        return stream

    monkeypatch.setattr(engine, "StageStreams", recording)
    return seeded


@pytest.mark.parametrize("problem", ["onemax", "xor"])
def test_presets_without_hooks_neither_coerce_offspring_nor_seed_selection(monkeypatch, problem):
    cfg, fitness = build_solve_config(parse_invocation(
        ["solve", "--problem", problem, "--generations", "30"]))
    assert cfg.parent_selection is ParentSelection.STEADY_STATE
    seeded = _seeded_stages(monkeypatch)
    with mock.patch.object(GeneSchema, "coerce", autospec=True,
                           side_effect=GeneSchema.coerce) as coerce:
        run(cfg, fitness)
    assert coerce.call_count == 0  # the presets sample their first population
    assert sorted(seeded) == sorted([(0, 0)] + [(g, stage) for g in range(30) for stage in (2, 3)])


def test_a_tournament_seeds_selection_every_generation(monkeypatch):
    seeded = _seeded_stages(monkeypatch)
    run(demo_config(parent_selection=ParentSelection.TOURNAMENT), sum_fitness)
    assert [g for g, stage in seeded if stage == 1] == list(range(10))


# A disabled crossover's run as it was when its stream was still seeded every generation.
_NO_CROSSOVER_DIGESTS = {
    "steady_state": "03e174b7979a26482d7c6e3bb8555c7d8c0fe6ca4dda27fab30e3e2f5424d0c6",
    "tournament": "a9ef3ba96dd130696a248b99f0d40eb3033e7e6711be2d7687592bf5637d4639",
}


@pytest.mark.parametrize("selection", sorted(_NO_CROSSOVER_DIGESTS))
def test_a_disabled_crossover_seeds_no_stream_and_moves_no_draw(monkeypatch, selection):
    cfg, fitness = build_solve_config(parse_invocation(
        ["solve", "--problem", "onemax", "--generations", "20", "--seed", "7",
         "--selection", selection]))
    cfg = validate(dataclasses.replace(cfg, crossover=None))
    seeded = _seeded_stages(monkeypatch)
    result = run(cfg, fitness)
    assert 2 not in {stage for _, stage in seeded}
    assert 3 in {stage for _, stage in seeded}
    digest = hashlib.sha256()
    for array in _result_bits(result)[:4]:
        digest.update(array)
    assert digest.hexdigest() == _NO_CROSSOVER_DIGESTS[selection]


def _onemax_two_genes():
    return build_solve_config(parse_invocation(
        ["solve", "--problem", "onemax", "--genes", "2", "--generations", "5", "--seed", "1"]))


@pytest.mark.parametrize("hook", ["on_parents", "on_crossover", "on_mutation"])
@pytest.mark.parametrize("attribute, value", [
    ("last_generation_parents", (0.5, 7.25)), ("last_generation_parents_indices", 3)])
def test_a_hook_that_writes_into_the_parents_raises_a_hook_error(hook, attribute, value):
    # The keep_parents elites join the next population unsettled, so a write
    # would have put 7.25 into an int8 gene whose space is {0, 1}.
    def write(state):
        getattr(state, attribute)[0] = value

    cfg, fitness = _onemax_two_genes()
    with pytest.raises(HookError) as err:
        run(cfg, fitness, LifecycleHooks(**{hook: write}))
    assert (err.value.hook, err.value.generation) == (hook, 0)
    assert isinstance(err.value.__cause__, ValueError)


def test_an_on_parents_hook_that_only_reads_leaves_the_run_unchanged():
    seen = []

    def read(state):
        parents, indices = state.last_generation_parents, state.last_generation_parents_indices
        assert not parents.flags.writeable and not indices.flags.writeable
        seen.append((parents.copy(), indices.copy()))

    cfg, fitness = _onemax_two_genes()
    assert _result_bits(run(cfg, fitness, LifecycleHooks(on_parents=read))) == \
        _result_bits(run(cfg, fitness))
    assert len(seen) == cfg.num_generations
    assert all(set(parents.ravel().tolist()) <= {0.0, 1.0} for parents, _ in seen)


# --- stage streams ---------------------------------------------------------------------

_B = draws._STREAM_BLOCK


def _copy_gene_0_over_gene_1(state):
    offspring = state.last_generation_offspring_mutation.copy()
    offspring[:, 1] = offspring[:, 0]
    state.last_generation_offspring_mutation = offspring


@pytest.mark.parametrize("mutation, duplicates, hooks", [
    (MutationKind.RANDOM, False, None), (MutationKind.ADAPTIVE, True, None),
    (MutationKind.SCRAMBLE, False, None),
    # Every row then holds a duplicate, which settle repairs from mutation's own Words.
    (MutationKind.RANDOM, False, LifecycleHooks(on_mutation=_copy_gene_0_over_gene_1)),
], ids=["random-False", "adaptive-True", "scramble-False", "random-False-hooked"])
def test_run_draws_what_fresh_default_rng_streams_draw(monkeypatch, mutation, duplicates, hooks):
    # One reused generator must give each stage the draws a fresh generator gives,
    # across a block boundary and with settle drawing after mutate. The fresh side
    # hands mutate the Generator itself, which settle then draws from directly.
    rate = (AdaptivePair(Probability(0.5), Probability(0.2))
            if mutation is MutationKind.ADAPTIVE else Probability(0.3))
    cfg = demo_config(num_generations=_B + 5, num_genes=6, seed=2**64 - 1, mutation=mutation,
                      mutation_rate=rate, allow_duplicate_genes=duplicates,
                      gene_space=[ValueRange(0, 9, step=1)] * 6)
    fast = run(cfg, sum_fitness, hooks)
    monkeypatch.setattr(engine, "StageStreams", lambda seed: (
        lambda generation, stage: np.random.default_rng([seed, generation, stage])))
    monkeypatch.setattr(draws.Words, "_seeded", staticmethod(lambda gen: gen))
    assert _result_bits(run(cfg, sum_fitness, hooks)) == _result_bits(fast)


def test_streams_are_built_as_the_run_reaches_them():
    # A run that may last 10**9 generations and stops at generation 2 costs three
    # generations, and draws what a 3-generation run draws.
    def stop_at_two(state):
        return GaControl.STOP if state.generation == 2 else None

    start = time.perf_counter()
    long_run = run(demo_config(num_generations=10**9), sum_fitness,
                   LifecycleHooks(on_generation=stop_at_two))
    assert time.perf_counter() - start < 5.0
    assert long_run.completed_generations == 3
    assert long_run.stop_reason is StopReason.CALLBACK_STOP
    three = run(demo_config(num_generations=3), sum_fitness)
    assert _result_bits(long_run)[:-1] == _result_bits(three)[:-1]
    assert fitness_history(long_run) == fitness_history(three)


def _one_value_gene_config(population, mutation=None):
    # Gene 1 holds the single value 1.0, so a row whose gene 0 is 1.0 cannot be repaired.
    return validate(GaConfig(
        num_generations=3, sol_per_pop=3, num_parents_mating=2, num_genes=2, crossover=None,
        mutation=mutation, keep_parents=0, gene_space=[DiscreteSet((0, 1)), DiscreteSet((1,))],
        allow_duplicate_genes=False, initial_population=population,
    ))


_NO_VALUE_LEFT = ("gene 1 (float64): space DiscreteSet(values=(1.0,)) has 1 admissible value, "
                  "none outside [1.0]")


def test_failed_repair_of_a_given_population_names_init_and_row():
    cfg = _one_value_gene_config([[0, 1], [1, 1], [0, 1]])
    with pytest.raises(InsufficientSpace, match=f"^init row 1, {re.escape(_NO_VALUE_LEFT)}$"):
        run(cfg, lambda solution, idx: 1.0)


def test_failed_repair_after_the_hooks_names_generation_settle_and_row():
    def duplicate_last_child(state):
        if state.generation == 1:
            offspring = state.last_generation_offspring_mutation.copy()
            offspring[2] = [1, 1]
            state.last_generation_offspring_mutation = offspring

    cfg = _one_value_gene_config([[0, 1]] * 3)
    with pytest.raises(InsufficientSpace,
                       match=f"^generation 1, settle row 2, {re.escape(_NO_VALUE_LEFT)}$"):
        run(cfg, lambda solution, idx: 1.0, LifecycleHooks(on_mutation=duplicate_last_child))


def test_failed_repair_after_a_structural_mutation_names_generation_mutation_and_row():
    # Swapping [0, 1] lands 0 on gene 1, whose admit draws its one value 1.0 back.
    cfg = _one_value_gene_config([[0, 1]] * 3, mutation="swap")
    with pytest.raises(InsufficientSpace,
                       match=f"^generation 0, mutation row 0, {re.escape(_NO_VALUE_LEFT)}$"):
        run(cfg, lambda solution, idx: 1.0)


def test_non_finite_gene_from_a_hook_names_generation_and_settle():
    def write_nan(state):
        if state.generation == 1:
            offspring = state.last_generation_offspring_mutation.copy()
            offspring[0, 0] = np.nan
            state.last_generation_offspring_mutation = offspring

    message = r"^generation 1, settle row 0, gene 0 \(float64\): gene value nan is not finite$"
    with pytest.raises(NonFiniteGene, match=message):
        run(demo_config(), sum_fitness, LifecycleHooks(on_mutation=write_nan))


# int8 holds no value in [0.2, 0.4], so every draw of the range misses.
_NO_INT8 = dict(gene_space=ValueRange(0.2, 0.4), gene_type=GeneType.INT8)
_NO_INT8_FOUND = ("no value of ValueRange(lo=0.2, hi=0.4, step=None) representable as int8 "
                  "found in 100 draws")


@pytest.mark.parametrize("duplicates", [True, False])
def test_space_with_no_value_of_its_type_names_init(duplicates):
    cfg = demo_config(allow_duplicate_genes=duplicates, **_NO_INT8)
    where = re.escape("init row 0, gene 0 (int8): ")
    with pytest.raises(EmptySpace, match=f"^{where}{re.escape(_NO_INT8_FOUND)}$"):
        run(cfg, sum_fitness)


def test_space_with_no_value_of_its_type_names_generation_and_mutation():
    # A given population is coerced, not resampled, so the first draw is mutation's.
    cfg = demo_config(initial_population=[[0, 0, 0]] * 10, **_NO_INT8)
    where = re.escape("generation 0, mutation row 0, gene 0 (int8): ")
    with pytest.raises(EmptySpace, match=f"^{where}{re.escape(_NO_INT8_FOUND)}$"):
        run(cfg, sum_fitness)


@pytest.mark.parametrize("selection, scheme", [
    (ParentSelection.ROULETTE, "fitness-proportional selection"),
    (ParentSelection.STOCHASTIC_UNIVERSAL, "stochastic universal sampling"),
])
def test_non_positive_fitness_names_generation_and_selection(selection, scheme):
    calls = []

    def positive_then_zero(solution, idx):  # generation 0's 10 rows score 1, later rows 0
        calls.append(idx)
        return 1.0 if len(calls) <= 10 else 0.0

    message = f"^generation 1, selection {scheme} requires every fitness value > 0$"
    with pytest.raises(NonPositiveFitness, match=message):
        run(demo_config(parent_selection=selection), positive_then_zero)


@pytest.mark.parametrize("stage, name", [
    ("select_parents", "selection"), ("produce_offspring", "crossover"),
    ("mutate", "mutation"), ("settle", "settle"),
])
@pytest.mark.parametrize("error, text", [
    (MemoryError(), "out of memory"),
    (MemoryError("Unable to allocate 745. GiB"), "Unable to allocate 745. GiB"),
])
def test_memory_error_after_init_is_a_ga_error_naming_generation_and_stage(
        monkeypatch, stage, name, error, text):
    # Raised directly: asking for a size numpy cannot allocate depends on the host.
    real, calls = getattr(engine, stage), []

    def out_of_memory_at_generation_2(*args, **kwargs):
        if len(calls) == 2:
            raise error
        calls.append(stage)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, stage, out_of_memory_at_generation_2)
    # A run with no hook installed has no settle to call; a no-op hook restores it.
    hooks = LifecycleHooks(on_generation=lambda state: None) if stage == "settle" else None
    with pytest.raises(GaError, match=f"^generation 2, {name} {re.escape(text)}$") as err:
        run(demo_config(crossover=CrossoverKind.UNIFORM, mutation=MutationKind.RANDOM),
            sum_fitness, hooks)
    assert type(err.value) is GaError and err.value.__cause__ is error


def test_set_value_past_its_type_names_init_and_gene():
    # validate leaves a set its gene type cannot hold for the schema to report.
    cfg = demo_config(num_genes=2, gene_space=[UNCONSTRAINED, DiscreteSet((1e300, 1, 2))],
                      gene_type=GeneType.PYINT, allow_duplicate_genes=False)
    message = ("init gene 1 (int): gene value 1e+300 exceeds the exact double-precision "
               "integer range")
    with pytest.raises(NonFiniteGene, match=f"^{re.escape(message)}$"):
        run(cfg, sum_fitness)
