"""Variation operators: parent selection, crossover, and mutation.

All operators are pure functions over explicit arguments plus a numpy
Generator; ties anywhere break toward the lower population index.

Selection and crossover call the Generator directly. Mutation draws through
draws.Words (see draws.replayed): for one call, the Generator's raw words are
pulled in bulk and numpy's draws rebuilt from them, so the rules' samples,
admits and repairs it calls cost a few integer operations each instead of a
call into numpy, and the Generator ends in the state the direct calls leave.
A draw outside the set Words replays (see draws) is numpy's own call, made
from the replay's position.

A generation whose genes each never miss or hold their values
(GeneSchema.one_step_admits) is mutated from one pull of words
(Words.mutation_draws): genes that never miss draw nothing in admit, so
their positions and deltas are written in a few numpy calls, and a miss of
a gene that holds its values draws one integers() in turn with the rows'
other draws, inside the replay's loop. The per-row loop runs instead where
a written value could be past the largest double (decided before drawing,
from the delta range and the rows' largest magnitude; the loop raises where
one is), where that pull gives up (a Lemire rejection, more than 16 picks,
over 2**32 - 1 genes), and for redrawing rules, repaired duplicates,
Probability rates and other generators.
"""

from __future__ import annotations

import math
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
from .draws import Words, replayed
from .errors import EmptySpace, NonPositiveFitness, context
from .genome import GeneSchema


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
        indices = _ranked_indices(fitness)[:n]  # argsort's indices: already an int array
        return ParentSet(rows=population[indices], indices=indices)
    if kind is ParentSelection.ROULETTE:
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
            scores = fitness[entrants]
            indices[i] = entrants[scores == scores.max()].min()
    elif kind is ParentSelection.RANDOM:
        indices = rng.integers(0, size, size=n)
    else:
        raise ValueError(f"unknown parent selection {kind!r}")

    indices = np.asarray(indices, dtype=int)
    return ParentSet(rows=population[indices], indices=indices)  # fancy indexing copies


def summable(fitness: np.ndarray) -> tuple:
    """(fitness / scale, scale, their sum): scale is 1.0 unless the plain sum overflows.

    Finite fitness values can still overflow their sum; only then divide by
    the largest magnitude, so every sum that is finite keeps its exact bits.
    """
    with np.errstate(over="ignore"):
        total = float(fitness.sum())
    if math.isfinite(total):
        return fitness, 1.0, total
    scale = float(np.abs(fitness).max())
    scaled = fitness / scale
    return scaled, scale, float(scaled.sum())


def _positive(fitness: np.ndarray, selection: str) -> np.ndarray:
    """The fitness values as summable scales them, once every one is checked to be positive."""
    if np.any(fitness <= 0.0):
        raise NonPositiveFitness(f"{selection} requires every fitness value > 0")
    return summable(fitness)[0]


def _fitness_weights(fitness: np.ndarray) -> np.ndarray:
    fitness = _positive(fitness, "fitness-proportional selection")
    return fitness / fitness.sum()


def _sus_indices(fitness: np.ndarray, n: int, rng) -> np.ndarray:
    cumulative = np.cumsum(_positive(fitness, "stochastic universal sampling"))
    spacing = cumulative[-1] / n
    points = rng.uniform(0.0, spacing) + spacing * np.arange(n)
    return np.searchsorted(cumulative, points, side="right")


def _cut_pair(length: int, rng) -> tuple:
    """Two cut points drawn uniformly from 0..length, in ascending order."""
    a = int(rng.integers(0, length + 1))
    b = int(rng.integers(0, length + 1))
    return (a, b) if a <= b else (b, a)


def _two_cut_points(length: int, rng):
    # Uniform over cut pairs 0 <= c1 < c2 <= length, excluding the full-range
    # pair (0, length) which would copy the second parent wholesale.
    while True:
        c1, c2 = _cut_pair(length, rng)
        if 0 < c2 - c1 < length:
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
    cycle = np.arange(count + 1) % p  # child i's parents: cycle[i] and cycle[i + 1]
    first = rows[cycle[:-1]]
    if kind is None:
        return first
    second = rows[cycle[1:]]
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
        a, b = _cut_pair(length, rng)
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


def mutate(chrom, cfg: GaConfig, rng, *, schema: GeneSchema, below_mean=None) -> np.ndarray:
    """Mutate one chromosome, or every row of a (rows, genes) generation, as cfg.mutation says.

    Returns a copy, or chrom itself, drawing nothing, when cfg.mutation is
    None. Random mutation perturbs (or replaces) a resolved number of genes;
    swap, inversion, and scramble are structural single-application operators
    that ignore the rate spec. Adaptive takes the high rate where below_mean
    (one bool, or one per row: the fitness proxy is below the population
    mean) is true, the low rate elsewhere, then applies Random semantics;
    other kinds ignore below_mean. Output genes always satisfy their type,
    space, and (when configured) distinctness constraints, as compiled in
    schema (GeneSchema.from_config(cfg)); a run compiles it once. A row whose
    duplicates cannot be repaired raises InsufficientSpace naming the row,
    and a gene whose rule finds no value raises EmptySpace naming its row and
    the gene.

    Rows are mutated in order, and each row makes exactly the draws one call
    on that row alone would make, so mutating a generation at once gives the
    same rows and leaves rng in the same state as stacking per-row calls.
    Every draw, the rules' and the repair's included, goes through
    draws.replayed(rng), which gives the values and end state of the direct
    numpy calls. An rng that is already a draws.Words (the engine opens one a
    generation) is drawn from as it is and left open.
    """
    if cfg.mutation is None:
        return chrom
    genes = np.array(chrom, dtype=float)
    rows = genes.reshape(-1, genes.shape[-1])
    with replayed(rng) as rng:
        if cfg.mutation in (MutationKind.RANDOM, MutationKind.ADAPTIVE):
            _mutate_random(rows, cfg, below_mean, rng, schema)
        else:
            _mutate_structure(rows, cfg, rng, schema)
    return genes


def _mutate_structure(rows, cfg, rng, schema) -> None:
    move = _MOVES.get(cfg.mutation)
    if move is None:
        raise ValueError(f"unknown mutation kind {cfg.mutation!r}")
    rules = schema.rules
    for i, row in enumerate(rows):
        if row.size >= 2:
            # A moved value may not fit the type and space of the gene it landed on.
            try:
                for j in move(row, rng):
                    row[j] = rules[j].admit(row[j], rng)
            except EmptySpace:  # a redraw rule found no value: name its row and gene
                with context(f"row {i}, gene {j} ({schema.types[j].value}): "):
                    raise
        if not cfg.allow_duplicate_genes:
            with context(f"row {i}, "):
                row[:] = schema.repair(row, rng)


def _mutate_random(rows, cfg, below_mean, rng, schema) -> None:
    # Each row draws, in order: a Probability rate's binomial count, the
    # positions, then per position its delta (or replacement) and any
    # resample that admitting it needs; a duplicate repair comes last.
    if cfg.mutation is MutationKind.ADAPTIVE:
        if below_mean is None:
            raise ValueError("adaptive mutation needs below_mean, each row's fitness proxy "
                             "against the population mean")
        pair: AdaptivePair = cfg.mutation_rate
        sides = (pair.low, pair.high)
        side_of = np.full(rows.shape[0], below_mean, dtype=bool).tolist()
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
    repair = not cfg.allow_duplicate_genes
    if (schema.one_step_admits and not repair and None not in fixed and isinstance(rng, Words)
            and _mutate_at_once(rows, [fixed[side] for side in side_of], cfg, schema, rng)):
        return
    rules = schema.rules
    unconstrained = schema.unconstrained
    for i, side in enumerate(side_of):
        count = fixed[side]
        if count is None:
            count = resolve_mutation_count(sides[side], n, rng)
        row = rows[i]
        try:
            for j in rng.choice(length, count, replace=False):
                if by_replacement and not unconstrained[j]:
                    row[j] = rules[j].sample(rng)
                    continue
                v = lo + width * rng.random()
                if not by_replacement:
                    v += row.item(j)
                row[j] = rules[j].admit(v, rng)
        except EmptySpace:  # a redraw rule found no value: name its row and gene
            with context(f"row {i}, gene {j} ({schema.types[j].value}): "):
                raise
        if repair:
            with context(f"row {i}, "):
                rows[i] = schema.repair(row, rng)


def _mutate_at_once(rows, counts, cfg, schema, rng) -> bool:
    """The per-row loop's result for genes whose admits draw at most once, from one pull of words.

    False, with nothing written or drawn, where the loop must run instead.
    """
    lo, hi = cfg.random_delta_range
    # |lo + (hi - lo) * u| <= |lo| + (hi - lo), plus the old gene's magnitude
    # unless by replacement; rounding is monotone, so a finite bound (NaN and
    # inf genes make it not finite) leaves every written value finite.
    bound = abs(lo) + (hi - lo)
    if not cfg.mutation_by_replacement:
        bound += float(np.abs(rows).max(initial=0.0))
    if not math.isfinite(bound):
        return False
    flat = rows.reshape(-1)  # a view: mutate's rows are its own contiguous copy
    old = None if cfg.mutation_by_replacement else flat
    # A miss draws in turn with the rows' choices, so the replay admits each value itself.
    admits = () if schema.never_misses else (schema.rules, old, lo, hi - lo)
    drawn = rng.mutation_draws(rows.shape[1], counts, *admits)
    if drawn is None:
        return False
    at, values = drawn
    if schema.never_misses:  # values holds each delta's random()
        values = lo + (hi - lo) * values
        if old is not None:
            values += flat[at]
        values = schema.coerce_at(values, at)
    flat[at] = values
    return True
