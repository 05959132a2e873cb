"""The evolution loop: lifecycle callbacks, elitism, per-generation records, results.

One run executes on one logical thread; hooks are invoked synchronously on
that thread. Every stochastic stage draws from its own substream derived from
(seed, generation, stage), so toggling one operator never perturbs the random
draws of the others and identical configs replay bit-identically. Each
substream is bit-identical to np.random.default_rng([seed, generation, stage]);
the engine computes that generator's state directly, a block of generations
at a time, and sets it on one reused generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .config import GaConfig, MutationKind
from .errors import DimensionMismatch, FitnessError, GaError, HookError, InsufficientSpace
from .genome import GeneSchema, init_population, settle
from .operators import mutate, produce_offspring, select_parents, summable

_STAGE_INIT = 0
_STAGE_SELECTION = 1
_STAGE_CROSSOVER = 2
_STAGE_MUTATION = 3
_STAGES = 4

# SeedSequence's hash constants and PCG64's 128-bit LCG multiplier; NEP 19
# keeps numpy's seeding of a bit generator stable across releases.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32 = 2**32 - 1
_MASK128 = 2**128 - 1
# Generations hashed at once. It divides 2**32, so the generations of one
# aligned block have the same number of uint32 words.
_STREAM_BLOCK = 256


class GaControl(Enum):
    """Control value an on_generation hook may return."""

    CONTINUE = "continue"
    STOP = "stop"


class StopReason(Enum):
    EXHAUSTED = "exhausted"
    CALLBACK_STOP = "callback_stop"


@dataclass
class LifecycleHooks:
    """The seven optional lifecycle callbacks, each receiving the engine state handle.

    on_generation may return GaControl.STOP (or the string "stop") to end the
    run after the current generation. on_crossover and on_mutation may
    overwrite the corresponding last_generation_offspring_* array on the state
    handle to plug in custom operators.
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
    """One generation's best and settled offspring; the rest is the state's last_generation_*."""

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
    arrays downstream.
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


def _uint32_words(n: int) -> list:
    """n as SeedSequence reads an int: little-endian uint32 words, [0] for 0."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's running hash: xor the constant, step it, multiply, fold the high half."""
    const = init

    def step(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return step


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_MULT_L * x - _MIX_MULT_R * y
    return mixed ^ (mixed >> _XSHIFT)


def _block_seed_words(seed: int, first: int) -> np.ndarray:
    """SeedSequence([seed, g, stage]).generate_state(4, uint64) for one block of generations.

    Returns shape (_STREAM_BLOCK, _STAGES, 4): generation first + row, every
    stage. The uint32 arithmetic wraps as SeedSequence's C code does.
    """
    shape = (_STREAM_BLOCK, _STAGES)
    g_words = _uint32_words(first)
    low = np.arange(g_words[0], g_words[0] + _STREAM_BLOCK, dtype=np.uint32)[:, None]
    entropy = ([np.full(shape, w, np.uint32) for w in _uint32_words(seed)]
               + [np.broadcast_to(low, shape)]
               + [np.full(shape, w, np.uint32) for w in g_words[1:]]
               + [np.broadcast_to(np.arange(_STAGES, dtype=np.uint32), shape)])

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(shape, np.uint32))
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))

    output = _hasher(_INIT_B, _MULT_B)
    state = np.empty(shape + (8,), "<u4")
    for i in range(8):
        state[..., i] = output(pool[i % 4])
    return state.view("<u8")


class _StageStreams:
    """One reused generator, set per call to the state of default_rng([seed, g, stage]).

    The stages of a generation draw one after another, and none keeps its
    generator past its turn, so one generator serves them all. Seeds are hashed
    one aligned block of generations at a time, when the run first reaches it.
    """

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)
        self._bit_generator = np.random.PCG64(0)
        self._rng = np.random.Generator(self._bit_generator)
        self._block = -1
        self._words: Optional[np.ndarray] = None

    def __call__(self, generation: int, stage: int) -> np.random.Generator:
        block, row = divmod(generation, _STREAM_BLOCK)
        if block != self._block:
            self._words = _block_seed_words(self._seed, block * _STREAM_BLOCK)
            self._block = block
        # PCG64's srandom: the 4 words are (state high, low, increment high, low).
        s_hi, s_lo, i_hi, i_lo = self._words[row, stage].tolist()
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        self._bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0,
        }
        return self._rng


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
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
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


def _should_stop(control) -> bool:
    return control is GaControl.STOP or control == "stop"


def _check_offspring_shape(offspring, count: int, num_genes: int) -> np.ndarray:
    # Hooks may replace offspring arrays but must preserve their shape, or the
    # population would drift away from sol_per_pop rows.
    offspring = np.asarray(offspring, dtype=float)
    if offspring.shape != (count, num_genes):
        raise DimensionMismatch(
            f"offspring array shape {offspring.shape} != ({count}, {num_genes})"
        )
    return offspring


def run(cfg: GaConfig, fitness, hooks: Optional[LifecycleHooks] = None) -> RunResult:
    """Evolve a population for cfg.num_generations generations.

    Per generation: evaluate fitness, record the best, select parents, breed
    offspring (plain copies when crossover is disabled), mutate them (pass
    through when mutation is disabled), then assemble the next population from
    keep_parents elites plus the offspring. The crossover and mutation hooks
    fire even when their operator is disabled. After the loop the final
    population is evaluated and appended to the history, so a 0-generation run
    still reports the initial population's best.
    """
    hooks = hooks or LifecycleHooks()
    schema = GeneSchema.from_config(cfg)
    stage_rng = _StageStreams(cfg.seed)

    population = init_population(cfg, stage_rng(0, _STAGE_INIT), schema)
    population.flags.writeable = False
    state = EngineState(cfg, population)

    best_rows: list = []
    best_fits: list = []
    best_idxs: list = []
    mean_fits: list = []

    def record_entry(fit_vector: np.ndarray) -> tuple:
        best_index = int(np.argmax(fit_vector))  # argmax takes the lowest index on ties
        best_rows.append(population[best_index].copy())
        best_fits.append(float(fit_vector[best_index]))
        best_idxs.append(best_index)
        scaled, scale = summable(fit_vector)
        mean_fits.append(float(scaled.mean()) * scale)
        return best_index, best_fits[-1], mean_fits[-1]

    _fire(hooks, "on_start", state)

    stop_reason = StopReason.EXHAUSTED
    completed = 0
    adaptive = cfg.mutation is MutationKind.ADAPTIVE
    offspring_count = cfg.sol_per_pop - cfg.keep_parents

    for g in range(cfg.num_generations):
        state.generation = g

        fit = evaluate_population(population, fitness, generation=g)
        state.last_generation_fitness = fit
        _fire(hooks, "on_fitness", state)

        best_index, best_fit, mean_fit = record_entry(fit)

        parents = select_parents(
            cfg.parent_selection, population, fit, cfg.num_parents_mating,
            stage_rng(g, _STAGE_SELECTION), cfg.tournament_k,
        )
        state.last_generation_parents = parents.rows
        state.last_generation_parents_indices = parents.indices
        _fire(hooks, "on_parents", state)

        offspring = produce_offspring(
            cfg.crossover, parents, offspring_count,
            stage_rng(g, _STAGE_CROSSOVER),
        )
        state.last_generation_offspring_crossover = offspring
        _fire(hooks, "on_crossover", state)
        offspring = _check_offspring_shape(
            state.last_generation_offspring_crossover, offspring_count, cfg.num_genes
        )

        mutation_rng = stage_rng(g, _STAGE_MUTATION)
        if cfg.mutation is not None:
            # Child i was bred from parent i mod P, whose fitness is its adaptive proxy.
            own = (fit[parents.indices[np.arange(offspring_count) % len(parents.indices)]]
                   if adaptive else None)
            try:
                mutated = mutate(cfg.mutation, offspring, cfg, mean_fit, own, mutation_rng,
                                 schema=schema)
            except InsufficientSpace as err:
                raise InsufficientSpace(f"generation {g}, {err}") from None
        else:
            mutated = offspring
        state.last_generation_offspring_mutation = mutated
        _fire(hooks, "on_mutation", state)
        mutated = _check_offspring_shape(
            state.last_generation_offspring_mutation, offspring_count, cfg.num_genes
        )

        # Crossover (and hook overwrites, which may also edit an array in place)
        # can break typing or distinctness even though mutate() repairs its own
        # output; settle before assembly, every generation.
        try:
            mutated = settle(cfg, schema, mutated, mutation_rng)
        except InsufficientSpace as err:
            raise InsufficientSpace(f"generation {g}, settle {err}") from None
        population = np.vstack([parents.rows[: cfg.keep_parents], mutated])
        population.flags.writeable = False
        state.population = population

        completed = g + 1
        state.last_record = GenerationRecord(
            offspring_mutation=mutated,
            best_solution=best_rows[-1],
            best_fitness=best_fit,
            best_index=best_index,
        )
        if _should_stop(_fire(hooks, "on_generation", state)):
            stop_reason = StopReason.CALLBACK_STOP
            break

    final_fit = evaluate_population(population, fitness, generation=completed)
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
