"""Variation operators: parent selection, crossover, and mutation.

All operators are pure functions over explicit arguments plus a numpy
Generator; ties anywhere break toward the lower population index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import (
    AdaptivePair,
    CrossoverKind,
    GaConfig,
    MutationKind,
    ParentSelection,
    Probability,
    resolve_mutation_count,
)
from .errors import NonPositiveFitness
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


def summable(fitness: np.ndarray) -> tuple:
    """(fitness / scale, scale): scale is 1.0 unless the plain sum overflows.

    Finite fitness values can still overflow their sum; only then divide by
    the largest magnitude, so every sum that is finite keeps its exact bits.
    """
    with np.errstate(over="ignore"):
        total = fitness.sum()
    if np.isfinite(total):
        return fitness, 1.0
    scale = float(np.abs(fitness).max())
    return fitness / scale, scale


def _fitness_weights(fitness: np.ndarray) -> np.ndarray:
    if np.any(fitness <= 0.0):
        raise NonPositiveFitness(
            "fitness-proportional selection requires every fitness value > 0"
        )
    fitness, _ = summable(fitness)
    return fitness / fitness.sum()


def _sus_indices(fitness: np.ndarray, n: int, rng) -> np.ndarray:
    if np.any(fitness <= 0.0):
        raise NonPositiveFitness(
            "stochastic universal sampling requires every fitness value > 0"
        )
    cumulative = np.cumsum(summable(fitness)[0])
    spacing = cumulative[-1] / n
    points = rng.uniform(0.0, spacing) + spacing * np.arange(n)
    return np.searchsorted(cumulative, points, side="right")


def _two_cut_points(length: int, rng):
    # Uniform over cut pairs 0 <= c1 < c2 <= length, excluding the full-range
    # pair (0, length) which would copy the second parent wholesale.
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

    Child i takes each gene from parent i mod P or parent (i+1) mod P; with
    crossover disabled it is a plain copy of parent i mod P. The whole
    generation is bred at once from one mask, drawn in the order one child
    at a time would draw it: single_point one cut per child, uniform and
    scattered one value per gene, two_points its rejection loop per child.
    """
    rows = np.asarray(parents.rows, dtype=float)
    p, length = rows.shape
    first = rows[np.arange(count) % p]
    if kind is None:
        return first
    second = rows[(np.arange(count) + 1) % p]
    if kind is CrossoverKind.SINGLE_POINT:
        take_first = np.arange(length) < rng.integers(1, length, size=count)[:, None]
    elif kind is CrossoverKind.TWO_POINTS:
        take_first = np.ones((count, length), dtype=bool)
        for mask in take_first:
            c1, c2 = _two_cut_points(length, rng)
            mask[c1:c2] = False
    elif kind is CrossoverKind.UNIFORM:
        take_first = rng.random((count, length)) < 0.5
    elif kind is CrossoverKind.SCATTERED:
        take_first = rng.integers(0, 2, size=(count, length)) == 1
    else:
        raise ValueError(f"unknown crossover kind {kind!r}")
    return np.where(take_first, first, second)


def _pick_segment(length: int, rng):
    # Uniform over contiguous index windows [a, b) spanning at least 2 genes.
    while True:
        a = int(rng.integers(0, length + 1))
        b = int(rng.integers(0, length + 1))
        if a > b:
            a, b = b, a
        if b - a >= 2:
            return a, b


def _swap(row, rng):
    i, j = (int(v) for v in rng.choice(row.size, size=2, replace=False))
    row[i], row[j] = row[j], row[i]
    return (i, j)


def _invert(row, rng):
    a, b = _pick_segment(row.size, rng)
    row[a:b] = row[a:b][::-1]
    return range(a, b)


def _scramble(row, rng):
    a, b = _pick_segment(row.size, rng)
    row[a:b] = rng.permutation(row[a:b])
    return range(a, b)


# Structural mutations: each moves values within one row and returns the
# positions it moved them to.
_MOVES = {MutationKind.SWAP: _swap, MutationKind.INVERSION: _invert,
          MutationKind.SCRAMBLE: _scramble}


def mutate(kind: MutationKind, chrom, cfg: GaConfig, pop_mean_fitness: float = 0.0,
           own_fitness=None, rng=None, *, schema: GeneSchema) -> np.ndarray:
    """Mutate one chromosome, or every row of a (rows, genes) generation, and return a copy.

    Random mutation perturbs (or replaces) a resolved number of genes; swap,
    inversion, and scramble are structural single-application operators that
    ignore the rate spec. Adaptive resolves the high rate for a row whose
    fitness proxy (own_fitness: one value, or one per row) falls below the
    population mean, the low rate otherwise, and then applies Random
    semantics. Output genes always satisfy their type, space, and (when
    configured) distinctness constraints, as compiled in schema
    (GeneSchema.from_config(cfg)); a run compiles it once.

    Rows are mutated in order, and each row makes exactly the draws one call
    on that row alone would make, so mutating a generation at once gives the
    same rows and leaves rng in the same state as stacking per-row calls.
    """
    genes = np.array(chrom, dtype=float)
    rows = genes.reshape(-1, genes.shape[-1])
    if kind in (MutationKind.RANDOM, MutationKind.ADAPTIVE):
        _mutate_random(kind, rows, cfg, pop_mean_fitness, own_fitness, rng, schema)
        return genes
    move = _MOVES.get(kind)
    if move is None:
        raise ValueError(f"unknown mutation kind {kind!r}")
    for row in rows:
        if row.size >= 2:
            # A moved value may not fit the type and space of the gene it landed on.
            for j in move(row, rng):
                row[j] = schema.admit(j, row[j], rng)
        if not cfg.allow_duplicate_genes:
            row[:] = schema.repair(row, rng)
    return genes


def _mutate_random(kind, rows, cfg, pop_mean_fitness, own_fitness, rng, schema) -> None:
    # Each row draws, in order: a Probability rate's binomial count, the
    # positions, then per position its delta (or replacement) and any
    # resample that admitting it needs; a duplicate repair comes last.
    if kind is MutationKind.ADAPTIVE:
        if own_fitness is None:
            raise ValueError("adaptive mutation needs the offspring's fitness proxy")
        pair: AdaptivePair = cfg.mutation_rate
        sides = (pair.low, pair.high)
        below = np.asarray(own_fitness, dtype=float) < pop_mean_fitness
        side_of = np.broadcast_to(below, rows.shape[:1]).astype(int).tolist()
    else:
        sides = (cfg.mutation_rate,)
        side_of = [0] * rows.shape[0]
    n = cfg.num_genes
    # Fixed rates resolve once; a Probability rate draws per row.
    fixed = [None if isinstance(rate, Probability) else resolve_mutation_count(rate, n, rng)
             for rate in sides]
    length = rows.shape[1]
    lo, hi = cfg.random_delta_range
    width = hi - lo  # lo + width * random() draws the same bits as uniform(lo, hi)
    by_replacement = cfg.mutation_by_replacement
    unconstrained = [isinstance(space, Unconstrained) for space in schema.spaces]
    repair = not cfg.allow_duplicate_genes
    for i, side in enumerate(side_of):
        count = fixed[side]
        if count is None:
            count = resolve_mutation_count(sides[side], n, rng)
        if count == 1:
            # integers(length) draws the same bits as choice(length, 1, replace=False).
            positions = (int(rng.integers(length)),)
        elif count > 1:
            positions = rng.choice(length, size=count, replace=False).tolist()
        else:
            positions = ()
        row = rows[i]
        for j in positions:
            if by_replacement and not unconstrained[j]:
                row[j] = schema.sample(j, rng)
                continue
            v = lo + width * rng.random()
            if not by_replacement:
                v += row.item(j)
            row[j] = schema.admit(j, v, rng)
        if repair:
            rows[i] = schema.repair(row, rng)
