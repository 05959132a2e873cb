"""Run configuration: every GA parameter, its defaults, validation, and normalization.

A GaConfig is plain data. `validate` checks every constraint in field
declaration order, fills defaults, rewrites the keep_parents=-1 sentinel, and
returns an immutable normalized copy; downstream modules only ever see
validated configs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .errors import ConfigError
from .genome import (
    DiscreteSet,
    GeneSpace,
    GeneType,
    Unconstrained,
    ValueRange,
    distinct_values_fall_short,
)


class ParentSelection(str, Enum):
    STEADY_STATE = "steady_state"
    ROULETTE = "roulette"
    STOCHASTIC_UNIVERSAL = "stochastic_universal"
    RANK = "rank"
    TOURNAMENT = "tournament"
    RANDOM = "random"


class CrossoverKind(str, Enum):
    SINGLE_POINT = "single_point"
    TWO_POINTS = "two_points"
    UNIFORM = "uniform"
    SCATTERED = "scattered"


class MutationKind(str, Enum):
    RANDOM = "random"
    SWAP = "swap"
    INVERSION = "inversion"
    SCRAMBLE = "scramble"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class Probability:
    """Each gene mutates independently with probability p in (0, 1]."""

    p: float


@dataclass(frozen=True)
class PercentGenes:
    """A fixed percentage of genes mutates, rounded half-up and clamped to >= 1."""

    pct: float


@dataclass(frozen=True)
class NumGenes:
    """An explicit number of genes mutates."""

    n: int


@dataclass(frozen=True)
class AdaptivePair:
    """Two plain rates of the same variant: high for below-mean solutions, low otherwise."""

    high: "RateSpec"
    low: "RateSpec"


RateSpec = Union[Probability, PercentGenes, NumGenes, AdaptivePair]


@dataclass(frozen=True)
class GaConfig:
    """The complete parameter set of one GA run.

    Only the first four fields are required; everything else has a working
    default. Instances are immutable; build modified copies with
    dataclasses.replace.
    """

    num_generations: int
    sol_per_pop: int
    num_parents_mating: int
    num_genes: int
    parent_selection: ParentSelection = ParentSelection.STEADY_STATE
    tournament_k: int = 3
    crossover: Optional[CrossoverKind] = CrossoverKind.SINGLE_POINT
    mutation: Optional[MutationKind] = MutationKind.RANDOM
    mutation_rate: RateSpec = PercentGenes(10.0)
    mutation_by_replacement: bool = False
    random_delta_range: tuple = (-1.0, 1.0)
    init_range: tuple = (-4.0, 4.0)
    keep_parents: int = 1
    allow_duplicate_genes: bool = True
    gene_space: object = None
    gene_type: object = GeneType.FLOAT64
    initial_population: Optional[tuple] = None
    seed: int = 0


def _as_int(field: str, value, minimum=None, maximum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(field, "an integer", value)
    value = int(value)
    if minimum is not None and value < minimum:
        raise ConfigError(field, f">= {minimum}", value)
    if maximum is not None and value > maximum:
        raise ConfigError(field, f"<= {maximum}", value)
    return value


def _as_enum(field: str, value, enum_cls):
    if isinstance(value, enum_cls):
        return value
    try:
        return enum_cls(value)
    except ValueError:
        names = ", ".join(m.value for m in enum_cls)
        raise ConfigError(field, f"one of {{{names}}}", value) from None


def _as_optional_enum(field: str, value, enum_cls):
    if value is None or (isinstance(value, str) and value.lower() == "none"):
        return None
    return _as_enum(field, value, enum_cls)


def _as_interval(field: str, value) -> tuple:
    try:
        lo, hi = (float(value[0]), float(value[1]))
    except (TypeError, ValueError, IndexError):
        raise ConfigError(field, "a (lo, hi) pair", value) from None
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ConfigError(field, "lo < hi with a finite width hi - lo", value)
    return (lo, hi)


def _check_plain_rate(field: str, rate, num_genes: int) -> float:
    """Check a Probability, PercentGenes or NumGenes rate; return its magnitude."""
    if isinstance(rate, Probability):
        if not (0.0 < rate.p <= 1.0):
            raise ConfigError(field, "probability in (0, 1]", rate)
        return rate.p
    if isinstance(rate, PercentGenes):
        if not (0.0 < rate.pct <= 100.0):
            raise ConfigError(field, "percentage in (0, 100]", rate)
        return rate.pct
    if isinstance(rate, NumGenes):
        if not isinstance(rate.n, (int, np.integer)) or not (1 <= rate.n <= num_genes):
            raise ConfigError(field, f"gene count in [1, {num_genes}]", rate)
        return float(rate.n)
    raise ConfigError(field, "a Probability, PercentGenes, or NumGenes rate", rate)


def _check_rate(field: str, rate, num_genes: int, mutation) -> RateSpec:
    if mutation is MutationKind.ADAPTIVE and not isinstance(rate, AdaptivePair):
        raise ConfigError(field, "Adaptive requires AdaptivePair", rate)
    if isinstance(rate, AdaptivePair):
        # The rate is unused while mutation is disabled, so a leftover pair is
        # only an error when a non-adaptive mutation would consume it.
        if mutation is not None and mutation is not MutationKind.ADAPTIVE:
            raise ConfigError(field, "AdaptivePair requires Adaptive mutation", rate)
        if isinstance(rate.high, AdaptivePair) or isinstance(rate.low, AdaptivePair):
            raise ConfigError(field, "AdaptivePair sides must not nest", rate)
        if type(rate.high) is not type(rate.low):
            raise ConfigError(field, "AdaptivePair sides of the same variant", rate)
        high = _check_plain_rate(field, rate.high, num_genes)
        if high < _check_plain_rate(field, rate.low, num_genes):
            raise ConfigError(field, "AdaptivePair.high >= AdaptivePair.low", rate)
        return rate
    _check_plain_rate(field, rate, num_genes)
    return rate


def _check_one_space(field: str, space) -> GeneSpace:
    if isinstance(space, Unconstrained):
        return space
    if isinstance(space, DiscreteSet):
        if len(space.values) == 0:
            raise ConfigError(field, "a non-empty discrete set", space)
        if not all(map(math.isfinite, space.values)):
            raise ConfigError(field, "finite discrete values", space)
        if len(set(space.values)) != len(space.values):
            raise ConfigError(field, "distinct discrete values", space)
        return space
    if isinstance(space, ValueRange):
        if not (space.lo < space.hi and math.isfinite(space.hi - space.lo)):
            raise ConfigError(field, "range lo < hi with a finite width hi - lo", space)
        if space.step is not None and not (
                0 < space.step < math.inf and (space.hi - space.lo) / space.step <= 2**53):
            raise ConfigError(field, "a finite positive step, at most 2**53 lattice points", space)
        return space
    raise ConfigError(field, "an Unconstrained, DiscreteSet, or ValueRange", space)


def _check_space(field: str, space, num_genes: int):
    if space is None:
        return None
    if isinstance(space, (Unconstrained, DiscreteSet, ValueRange)):
        return _check_one_space(field, space)
    try:
        entries = list(space)
    except TypeError:
        raise ConfigError(field, "a gene space or a per-gene list of them", space) from None
    if len(entries) != num_genes:
        raise ConfigError(field, f"{num_genes} per-gene entries", space)
    return tuple(_check_one_space(field, s) for s in entries)


def _check_types(field: str, value, num_genes: int):
    if isinstance(value, GeneType):
        return value
    if isinstance(value, str):
        return _as_enum(field, value, GeneType)
    try:
        entries = list(value)
    except TypeError:
        raise ConfigError(field, "a gene type or a per-gene list of them", value) from None
    if len(entries) != num_genes:
        raise ConfigError(field, f"{num_genes} per-gene entries", value)
    return tuple(_as_enum(field, t, GeneType) for t in entries)


def _check_initial_population(value, sol_per_pop: int, num_genes: int):
    if value is None:
        return None
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2 or arr.shape != (sol_per_pop, num_genes):
        raise ConfigError(
            "initial_population", f"shape ({sol_per_pop}, {num_genes})",
            getattr(arr, "shape", value),
        )
    return tuple(tuple(float(v) for v in row) for row in arr)


def validate(raw: GaConfig) -> GaConfig:
    """Validate a candidate config and return its normalized form.

    Raises ConfigError for the first violated constraint in field declaration
    order. Normalization rewrites keep_parents=-1 to num_parents_mating and
    canonicalizes enums, intervals, and the initial population, so validate is
    idempotent on accepted configs.
    """
    num_generations = _as_int("num_generations", raw.num_generations, minimum=0)
    sol_per_pop = _as_int("sol_per_pop", raw.sol_per_pop, minimum=1)
    num_parents_mating = _as_int("num_parents_mating", raw.num_parents_mating, minimum=1)
    if num_parents_mating > sol_per_pop:
        raise ConfigError("num_parents_mating", "<= sol_per_pop", raw.num_parents_mating)
    num_genes = _as_int("num_genes", raw.num_genes, minimum=1)
    max_bytes = np.iinfo(np.intp).max  # numpy indexes no larger float64 population
    if sol_per_pop * num_genes * 8 > max_bytes:
        got = (sol_per_pop, num_genes)
        raise ConfigError("num_genes", f"sol_per_pop * num_genes * 8 <= {max_bytes}", got)
    parent_selection = _as_enum("parent_selection", raw.parent_selection, ParentSelection)
    tournament_k = _as_int("tournament_k", raw.tournament_k, minimum=1)
    if parent_selection is ParentSelection.TOURNAMENT and tournament_k > sol_per_pop:
        raise ConfigError("tournament_k", "<= sol_per_pop", raw.tournament_k)
    crossover = _as_optional_enum("crossover", raw.crossover, CrossoverKind)
    if crossover is not None and num_parents_mating < 2:
        raise ConfigError(
            "num_parents_mating", ">= 2 when crossover is enabled", num_parents_mating
        )
    if crossover is not None and num_genes < 2:
        # Every crossover cuts between two genes; one gene leaves no cut point.
        raise ConfigError("crossover", "None when num_genes < 2", crossover.value)
    mutation = _as_optional_enum("mutation", raw.mutation, MutationKind)
    mutation_rate = _check_rate("mutation_rate", raw.mutation_rate, num_genes, mutation)
    mutation_by_replacement = bool(raw.mutation_by_replacement)
    random_delta_range = _as_interval("random_delta_range", raw.random_delta_range)
    init_range = _as_interval("init_range", raw.init_range)
    keep_parents = _as_int("keep_parents", raw.keep_parents, minimum=-1)
    if keep_parents == -1:
        keep_parents = num_parents_mating
    elif keep_parents > num_parents_mating:
        raise ConfigError("keep_parents", "<= num_parents_mating", raw.keep_parents)
    if keep_parents >= sol_per_pop:
        # Elites must leave room for at least one offspring per generation.
        raise ConfigError("keep_parents", "< sol_per_pop", raw.keep_parents)
    allow_duplicate_genes = bool(raw.allow_duplicate_genes)
    gene_space = _check_space("gene_space", raw.gene_space, num_genes)
    gene_type = _check_types("gene_type", raw.gene_type, num_genes)
    drawn_range = init_range if raw.initial_population is None else None
    if not allow_duplicate_genes and distinct_values_fall_short(gene_space, gene_type, num_genes,
                                                                drawn_range):
        # Without init's draws the shortfall is gone: it is init_range's integers.
        from_init = not distinct_values_fall_short(gene_space, gene_type, num_genes, None)
        raise ConfigError(
            "gene_space",
            "a distinct admissible value for each gene whose space, type and init_range "
            "leave it few values, when allow_duplicate_genes is false"
            + (f"; init_range {init_range} leaves the unconstrained integer genes too few "
               "integers" if from_init else ""),
            raw.gene_space,
        )
    initial_population = _check_initial_population(
        raw.initial_population, sol_per_pop, num_genes
    )
    seed = _as_int("seed", raw.seed, minimum=0, maximum=2**64 - 1)
    return dataclasses.replace(
        raw,
        num_generations=num_generations,
        sol_per_pop=sol_per_pop,
        num_parents_mating=num_parents_mating,
        num_genes=num_genes,
        parent_selection=parent_selection,
        tournament_k=tournament_k,
        crossover=crossover,
        mutation=mutation,
        mutation_rate=mutation_rate,
        mutation_by_replacement=mutation_by_replacement,
        random_delta_range=random_delta_range,
        init_range=init_range,
        keep_parents=keep_parents,
        allow_duplicate_genes=allow_duplicate_genes,
        gene_space=gene_space,
        gene_type=gene_type,
        initial_population=initial_population,
        seed=seed,
    )


def resolve_mutation_count(rate: RateSpec, num_genes: int, rng) -> int:
    """Number of genes to mutate in one offspring under a non-adaptive rate.

    PercentGenes rounds half-up and never resolves below 1, so a nonzero
    percentage cannot silently disable mutation; Probability resolves to a
    fresh binomial draw per offspring.
    """
    if isinstance(rate, NumGenes):
        return int(rate.n)
    if isinstance(rate, PercentGenes):
        return max(1, math.floor(num_genes * rate.pct / 100.0 + 0.5))
    if isinstance(rate, Probability):
        return int(rng.binomial(num_genes, rate.p))
    raise TypeError("an AdaptivePair must be resolved to one side before counting")
