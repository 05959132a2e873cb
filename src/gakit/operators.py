"""Variation operators: parent selection, crossover, and mutation.

All operators are pure functions over explicit arguments plus a numpy
Generator; ties anywhere break toward the lower population index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import (
    AdaptivePair,
    CrossoverKind,
    GaConfig,
    MutationKind,
    ParentSelection,
    resolve_mutation_count,
)
from .errors import LengthMismatch, NonPositiveFitness
from .genome import GeneSchema, Unconstrained


@dataclass
class ParentSet:
    """Selected parents (row values) plus their indices in the source population."""

    rows: np.ndarray
    indices: np.ndarray


def _ranked_indices(fitness: np.ndarray) -> np.ndarray:
    # Stable sort on -fitness: descending fitness, lower index first on ties.
    return np.argsort(-fitness, kind="stable")


def select_parents(kind: ParentSelection, population, fitness, n: int, rng,
                   tournament_k: int = 3) -> ParentSet:
    """Pick n parents from the population according to the selection scheme."""
    population = np.asarray(population, dtype=float)
    fitness = np.asarray(fitness, dtype=float)
    size = population.shape[0]

    if kind is ParentSelection.STEADY_STATE:
        indices = _ranked_indices(fitness)[:n]
    elif kind is ParentSelection.ROULETTE:
        indices = rng.choice(size, size=n, replace=True, p=_fitness_weights(fitness))
    elif kind is ParentSelection.STOCHASTIC_UNIVERSAL:
        indices = _sus_indices(fitness, n, rng)
    elif kind is ParentSelection.RANK:
        order = _ranked_indices(fitness)
        weights = np.empty(size)
        weights[order] = np.arange(size, 0, -1)  # best gets weight size, worst 1
        indices = rng.choice(size, size=n, replace=True, p=weights / weights.sum())
    elif kind is ParentSelection.TOURNAMENT:
        indices = np.empty(n, dtype=int)
        for i in range(n):
            entrants = rng.choice(size, size=tournament_k, replace=False)
            best = entrants[np.argsort(-fitness[entrants], kind="stable")]
            # np.argsort on the entrant order breaks fitness ties by draw order,
            # not index; re-break toward the lower population index.
            top = best[0]
            tied = entrants[fitness[entrants] == fitness[top]]
            indices[i] = tied.min()
    elif kind is ParentSelection.RANDOM:
        indices = rng.integers(0, size, size=n)
    else:
        raise ValueError(f"unknown parent selection {kind!r}")

    indices = np.asarray(indices, dtype=int)
    return ParentSet(rows=population[indices].copy(), indices=indices)


def _summable(fitness: np.ndarray) -> np.ndarray:
    # Finite fitness values can still overflow their sum; only then rescale by
    # the maximum, so every run whose sum is finite keeps its exact draws.
    with np.errstate(over="ignore"):
        total = fitness.sum()
    if np.isfinite(total):
        return fitness
    return fitness / fitness.max()


def _fitness_weights(fitness: np.ndarray) -> np.ndarray:
    if np.any(fitness <= 0.0):
        raise NonPositiveFitness(
            "fitness-proportional selection requires every fitness value > 0"
        )
    fitness = _summable(fitness)
    return fitness / fitness.sum()


def _sus_indices(fitness: np.ndarray, n: int, rng) -> np.ndarray:
    if np.any(fitness <= 0.0):
        raise NonPositiveFitness(
            "stochastic universal sampling requires every fitness value > 0"
        )
    cumulative = np.cumsum(_summable(fitness))
    spacing = cumulative[-1] / n
    points = rng.uniform(0.0, spacing) + spacing * np.arange(n)
    return np.searchsorted(cumulative, points, side="right")


def crossover_pair(kind: CrossoverKind, p1, p2, rng) -> np.ndarray:
    """Produce one child from two parents."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != p2.shape:
        raise LengthMismatch(f"parent lengths differ: {p1.shape} vs {p2.shape}")
    length = p1.size

    if kind is CrossoverKind.SINGLE_POINT:
        cut = int(rng.integers(1, length))
        return np.concatenate([p1[:cut], p2[cut:]])
    if kind is CrossoverKind.TWO_POINTS:
        c1, c2 = _two_cut_points(length, rng)
        child = p1.copy()
        child[c1:c2] = p2[c1:c2]
        return child
    if kind is CrossoverKind.UNIFORM:
        mask = rng.random(length) < 0.5
        return np.where(mask, p1, p2)
    if kind is CrossoverKind.SCATTERED:
        mask = rng.integers(0, 2, size=length)
        return np.where(mask == 1, p1, p2)
    raise ValueError(f"unknown crossover kind {kind!r}")


def _two_cut_points(length: int, rng):
    # Uniform over cut pairs 0 <= c1 < c2 <= length, excluding the full-range
    # pair (0, length) which would copy p2 wholesale.
    while True:
        a = int(rng.integers(0, length + 1))
        b = int(rng.integers(0, length + 1))
        if a == b:
            continue
        c1, c2 = (a, b) if a < b else (b, a)
        if (c1, c2) != (0, length):
            return c1, c2


def produce_offspring(kind, parents: ParentSet, count: int, rng) -> np.ndarray:
    """Breed `count` children by pairing parents cyclically; copies when disabled.

    Child i comes from parents (i mod P, (i+1) mod P); with crossover disabled
    it is a plain copy of parent i mod P.
    """
    rows = parents.rows
    p = rows.shape[0]
    if kind is None:
        return np.array([rows[i % p] for i in range(count)])
    return np.array(
        [crossover_pair(kind, rows[i % p], rows[(i + 1) % p], rng) for i in range(count)]
    )


def _pick_segment(length: int, rng):
    # Uniform over contiguous index windows [a, b) spanning at least 2 genes.
    while True:
        a = int(rng.integers(0, length + 1))
        b = int(rng.integers(0, length + 1))
        if a > b:
            a, b = b, a
        if b - a >= 2:
            return a, b


def mutate(kind: MutationKind, chrom, cfg: GaConfig, pop_mean_fitness: float = 0.0,
           own_fitness=None, rng=None, *, schema: Optional[GeneSchema] = None) -> np.ndarray:
    """Mutate one offspring chromosome and return the repaired result.

    Random mutation perturbs (or replaces) a resolved number of genes; swap,
    inversion, and scramble are structural single-application operators that
    ignore the rate spec. Adaptive resolves the high rate when the offspring's
    fitness proxy falls below the population mean, the low rate otherwise, and
    then applies Random semantics. Output genes always satisfy their type,
    space, and (when configured) distinctness constraints. The schema defaults
    to the one compiled from cfg; a run passes its own so the compiled
    constraints are shared by every call.
    """
    if schema is None:
        schema = GeneSchema.from_config(cfg)
    genes = np.array(chrom, dtype=float, copy=True)
    length = genes.size
    moved = ()  # positions whose values a structural mutation moved

    if kind in (MutationKind.RANDOM, MutationKind.ADAPTIVE):
        rate = cfg.mutation_rate
        if kind is MutationKind.ADAPTIVE:
            if own_fitness is None:
                raise ValueError("adaptive mutation needs the offspring's fitness proxy")
            pair: AdaptivePair = rate
            rate = pair.high if own_fitness < pop_mean_fitness else pair.low
        count = resolve_mutation_count(rate, cfg.num_genes, rng)
        if count > 0:
            positions = rng.choice(length, size=count, replace=False)
            lo, hi = cfg.random_delta_range
            for j in positions.tolist():
                if not cfg.mutation_by_replacement:
                    genes[j] = schema.admit(j, genes[j] + rng.uniform(lo, hi), rng)
                elif isinstance(schema.spaces[j], Unconstrained):
                    genes[j] = schema.admit(j, rng.uniform(lo, hi), rng)
                else:
                    genes[j] = schema.sample(j, rng)
    elif kind is MutationKind.SWAP:
        if length >= 2:
            i, j = (int(v) for v in rng.choice(length, size=2, replace=False))
            genes[i], genes[j] = genes[j], genes[i]
            moved = (i, j)
    elif kind is MutationKind.INVERSION:
        if length >= 2:
            a, b = _pick_segment(length, rng)
            genes[a:b] = genes[a:b][::-1]
            moved = range(a, b)
    elif kind is MutationKind.SCRAMBLE:
        if length >= 2:
            a, b = _pick_segment(length, rng)
            genes[a:b] = rng.permutation(genes[a:b])
            moved = range(a, b)
    else:
        raise ValueError(f"unknown mutation kind {kind!r}")

    # A moved value may not fit the type and space of the gene it landed on.
    for j in moved:
        genes[j] = schema.admit(j, genes[j], rng)

    if not cfg.allow_duplicate_genes:
        genes = schema.repair(genes, rng)
    return genes
