"""The evolution loop: lifecycle callbacks, elitism, per-generation records, results.

One run executes on one logical thread; hooks are invoked synchronously on
that thread. One seed replays one run: each stochastic stage draws what
np.random.default_rng([seed, generation, stage]) draws (draws.StageStreams
builds that generator), so toggling one operator never perturbs the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .config import GaConfig, ParentSelection
from .draws import StageStreams, Words
from .errors import (_GENE_ERRORS, DimensionMismatch, FitnessError, GaError, HookError,
                     NonPositiveFitness, context)
from .genome import GeneSchema, init_population, settle
from .operators import mutate, produce_offspring, select_parents, summable

_STAGE_INIT = 0
_STAGE_SELECTION = 1
_STAGE_CROSSOVER = 2
_STAGE_MUTATION = 3

# What a stage after init may raise, re-raised naming the generation and the stage.
_STAGE_ERRORS = _GENE_ERRORS + (NonPositiveFitness, MemoryError)


class GaControl(str, Enum):
    """Control value an on_generation hook may return; STOP equals the string "stop"."""

    CONTINUE = "continue"
    STOP = "stop"


class StopReason(Enum):
    EXHAUSTED = "exhausted"
    CALLBACK_STOP = "callback_stop"


@dataclass
class LifecycleHooks:
    """The seven optional lifecycle callbacks, each receiving the engine state handle.

    on_generation may return GaControl.STOP (or the string "stop") to end
    the run after the current generation; any other value continues it.
    One rule holds at the hook boundary: a hook writes only the offspring.
    on_crossover and on_mutation may replace or edit the corresponding
    last_generation_offspring_* array on the state handle to plug in custom
    operators, and the engine settles the offspring when either is
    installed. Every other array a hook is handed (the population, the
    fitness, the parents, their indices and last_record.best_solution) is
    read-only: a write into one raises, which surfaces as a HookError.
    """

    on_start: Optional[Callable] = None
    on_fitness: Optional[Callable] = None
    on_parents: Optional[Callable] = None
    on_crossover: Optional[Callable] = None
    on_mutation: Optional[Callable] = None
    on_generation: Optional[Callable] = None
    on_stop: Optional[Callable] = None


@dataclass
class GenerationRecord:
    """One generation's best and settled offspring; the rest is the state's last_generation_*.

    best_solution is read-only: it is the row RunResult.best_solutions keeps.
    """

    offspring_mutation: np.ndarray
    best_solution: np.ndarray
    best_fitness: float
    best_index: int


@dataclass
class RunResult:
    """Per-generation best and mean fitness history of one run.

    History entry 0 is the initial population, so the arrays hold
    completed_generations + 1 rows. best_solution(result) picks the best
    solution of the whole run.
    """

    best_solutions: np.ndarray
    best_solutions_fitness: np.ndarray
    best_solution_indices: np.ndarray
    mean_fitness: np.ndarray
    completed_generations: int
    stop_reason: StopReason


class EngineState:
    """Mutable view of a run handed to lifecycle hooks.

    The last_generation_* attributes mirror the most recent stage outputs;
    hooks may replace last_generation_offspring_crossover or
    last_generation_offspring_mutation and the engine consumes the overwritten
    arrays downstream. Every other array on it is read-only.
    """

    def __init__(self, cfg: GaConfig, population: np.ndarray) -> None:
        self.cfg = cfg
        self.population = population
        self.generation = -1
        self.last_generation_fitness: Optional[np.ndarray] = None
        self.last_generation_parents: Optional[np.ndarray] = None
        self.last_generation_parents_indices: Optional[np.ndarray] = None
        self.last_generation_offspring_crossover: Optional[np.ndarray] = None
        self.last_generation_offspring_mutation: Optional[np.ndarray] = None
        self.last_record: Optional[GenerationRecord] = None


def evaluate_population(population, fitness, generation=None) -> np.ndarray:
    """Evaluate fitness(pop[i], i) for every row, in row order.

    A fitness that carries a callable `batch` attribute is called once instead, as
    fitness.batch(pop), and must return one finite value per row, the same
    bits the per-row call gives. A batch that raises, or returns another
    shape, raises FitnessError naming the generation; a non-finite value
    also names its row.
    """
    population = np.asarray(population, dtype=float)
    batch = getattr(fitness, "batch", None)
    if callable(batch):
        return _evaluate_batch(population, batch, generation)

    def eval_one(i: int) -> float:
        try:
            value = float(fitness(population[i], i))
        except FitnessError:
            raise
        except Exception as exc:
            raise FitnessError(
                f"fitness evaluation raised {exc!r}", generation, i
            ) from exc
        if not math.isfinite(value):
            raise FitnessError(
                f"fitness returned non-finite value {value!r}", generation, i
            )
        return value

    return np.array([eval_one(i) for i in range(population.shape[0])], dtype=float)


def _evaluate_batch(population, batch, generation) -> np.ndarray:
    try:
        values = np.array(batch(population), dtype=float)
    except FitnessError:
        raise
    except Exception as exc:
        raise FitnessError(f"batch fitness raised {exc!r}", generation) from exc
    rows = population.shape[0]
    if values.shape != (rows,):
        raise FitnessError(
            f"batch fitness returned shape {values.shape}, expected ({rows},)", generation
        )
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))  # the first non-finite row
        raise FitnessError(
            f"fitness returned non-finite value {float(values[i])!r}", generation, i
        )
    return values


def _fire(hooks: LifecycleHooks, name: str, state):
    """Call the named hook if it is set; any error but a GaError becomes a HookError."""
    hook = getattr(hooks, name)
    if hook is None:
        return None
    try:
        return hook(state)
    except GaError:
        raise
    except Exception as exc:
        generation = state.generation if state.generation >= 0 else None
        raise HookError(name, generation) from exc


def _check_offspring_shape(offspring, shape: tuple, where: str) -> np.ndarray:
    # Hooks may replace offspring arrays but must preserve their shape, or the
    # population would drift away from sol_per_pop rows.
    offspring = np.asarray(offspring, dtype=float)
    if offspring.shape != shape:
        raise DimensionMismatch(f"{where}: offspring array shape {offspring.shape} != {shape}")
    return offspring


def run(cfg: GaConfig, fitness, hooks: Optional[LifecycleHooks] = None) -> RunResult:
    """Evolve a population for cfg.num_generations generations.

    Per generation: evaluate fitness, record the best, select parents, breed
    offspring (plain copies when crossover is disabled), mutate them (pass
    through when mutation is disabled), then assemble the next population from
    keep_parents elites plus the offspring. The crossover and mutation hooks
    fire even when their operator is disabled. After the loop the final
    population is evaluated and appended to the history, so a 0-generation run
    still reports the initial population's best. A gene error, a selection's
    NonPositiveFitness or a MemoryError after init names the generation and
    the stage; a hook's wrong offspring shape names the generation and the hook.

    Steady-state selection and a disabled crossover draw nothing, so their
    streams are not seeded; each stage has its own stream, so skipping one
    moves no draw. Offspring are settled (coerced to their gene types, and
    repaired) before they join the population only when an on_crossover or
    on_mutation hook is installed, since only those may write genes; without
    one, duplicates are repaired only when mutation is disabled, since mutate
    repairs every row it mutates. Mutation and settle draw from
    one draws.Words, opened on the mutation stream just after its seeding and
    never closed (the next generation seeds the generator again); mutate's
    draws.replayed passes it through as it is.
    """
    hooks = hooks or LifecycleHooks()
    settles = hooks.on_crossover is not None or hooks.on_mutation is not None
    repairs = cfg.mutation is None and not cfg.allow_duplicate_genes
    stage_rng = StageStreams(cfg.seed)
    selection_draws = cfg.parent_selection is not ParentSelection.STEADY_STATE
    crossover_draws = cfg.crossover is not None
    with context("init "):
        schema = GeneSchema.from_config(cfg)
        population = init_population(cfg, stage_rng(0, _STAGE_INIT), schema)
    population.flags.writeable = False
    state = EngineState(cfg, population)

    best_rows: list = []
    best_fits: list = []
    best_idxs: list = []
    mean_fits: list = []

    def record_entry(fit_vector: np.ndarray) -> tuple:
        best_index = int(fit_vector.argmax())  # argmax takes the lowest index on ties
        best_row = population[best_index].copy()
        best_row.flags.writeable = False
        best_rows.append(best_row)
        best_fits.append(float(fit_vector[best_index]))
        best_idxs.append(best_index)
        _, scale, total = summable(fit_vector)
        mean_fits.append(total / fit_vector.size * scale)  # the bits of mean(), times scale
        return best_index, best_fits[-1], mean_fits[-1]

    _fire(hooks, "on_start", state)

    stop_reason = StopReason.EXHAUSTED
    completed = 0
    offspring_count = cfg.sol_per_pop - cfg.keep_parents
    # Child i was bred from parent i mod P, whose fitness is its adaptive proxy.
    bred_from = np.arange(offspring_count) % cfg.num_parents_mating
    offspring_shape = (offspring_count, cfg.num_genes)

    for g in range(cfg.num_generations):
        state.generation = g

        fit = evaluate_population(population, fitness, generation=g)
        fit.flags.writeable = False
        state.last_generation_fitness = fit
        _fire(hooks, "on_fitness", state)

        best_index, best_fit, mean_fit = record_entry(fit)

        with context(f"generation {g}, selection ", _STAGE_ERRORS):
            parents = select_parents(cfg.parent_selection, population, fit,
                                     cfg.num_parents_mating,
                                     stage_rng(g, _STAGE_SELECTION) if selection_draws else None,
                                     cfg.tournament_k)
        # The keep_parents elites join the next population unsettled: no hook may write them.
        parents.rows.flags.writeable = parents.indices.flags.writeable = False
        state.last_generation_parents = parents.rows
        state.last_generation_parents_indices = parents.indices
        _fire(hooks, "on_parents", state)

        with context(f"generation {g}, crossover ", _STAGE_ERRORS):
            offspring = produce_offspring(cfg.crossover, parents, offspring_count,
                                          stage_rng(g, _STAGE_CROSSOVER) if crossover_draws
                                          else None)
        state.last_generation_offspring_crossover = offspring
        if hooks.on_crossover is not None:  # only the hook can change the offspring's shape
            _fire(hooks, "on_crossover", state)
            offspring = _check_offspring_shape(state.last_generation_offspring_crossover,
                                               offspring_shape,
                                               f"generation {g}, on_crossover hook")

        mutation_rng = Words._seeded(stage_rng(g, _STAGE_MUTATION))
        with context(f"generation {g}, mutation ", _STAGE_ERRORS):
            mutated = mutate(offspring, cfg, mutation_rng, schema=schema,
                             below_mean=fit[parents.indices[bred_from]] < mean_fit)
        state.last_generation_offspring_mutation = mutated
        if hooks.on_mutation is not None:
            _fire(hooks, "on_mutation", state)
            mutated = _check_offspring_shape(state.last_generation_offspring_mutation,
                                             offspring_shape, f"generation {g}, on_mutation hook")

        # Without an offspring hook every offspring gene is already settled: a
        # settled parent's gene in its own column, or a value mutate admitted.
        # Crossover can still pair equal genes, and mutate repairs every row it
        # mutates, so only unmutated offspring are repaired here.
        with context(f"generation {g}, settle ", _STAGE_ERRORS):
            if settles:
                mutated = settle(cfg, schema, mutated, mutation_rng)
            elif repairs:
                mutated = schema.repair(mutated, mutation_rng)
            population = np.concatenate((parents.rows[: cfg.keep_parents], mutated))
        population.flags.writeable = False
        state.population = population

        completed = g + 1
        state.last_record = GenerationRecord(
            offspring_mutation=mutated,
            best_solution=best_rows[-1],
            best_fitness=best_fit,
            best_index=best_index,
        )
        control = _fire(hooks, "on_generation", state)
        if isinstance(control, str) and control == "stop":
            stop_reason = StopReason.CALLBACK_STOP
            break

    final_fit = evaluate_population(population, fitness, generation=completed)
    final_fit.flags.writeable = False
    record_entry(final_fit)
    state.last_generation_fitness = final_fit
    _fire(hooks, "on_stop", state)

    return RunResult(
        best_solutions=np.array(best_rows),
        best_solutions_fitness=np.array(best_fits),
        best_solution_indices=np.array(best_idxs, dtype=int),
        mean_fitness=np.array(mean_fits),
        completed_generations=completed,
        stop_reason=stop_reason,
    )


def best_solution(result: RunResult) -> tuple:
    """The best solution across the whole history: (chromosome, fitness, index).

    Ties break toward the earliest generation; the index is the solution's row
    in its own generation's population.
    """
    g = int(np.argmax(result.best_solutions_fitness))
    return (
        result.best_solutions[g],
        float(result.best_solutions_fitness[g]),
        int(result.best_solution_indices[g]),
    )


def fitness_history(result: RunResult):
    """Rows of (generation, best_fitness, mean_fitness), generation ascending."""
    return [
        (g, float(result.best_solutions_fitness[g]), float(result.mean_fitness[g]))
        for g in range(len(result.best_solutions_fitness))
    ]
