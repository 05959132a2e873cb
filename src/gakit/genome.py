"""Chromosomes and populations: gene value spaces, gene data types, sampling, duplicate repair.

All gene values are stored as double-precision floats regardless of their
declared gene type; the type is enforced by coercion at creation and after
every mutation. Populations are plain 2-D numpy arrays of shape
(sol_per_pop, num_genes).

validate compiles a config's gene constraints once into a GeneSchema, which
the run reuses: each discrete set coerced to its gene's type, each typed step
lattice enumerated, and the gene columns grouped by type, so a whole
population is coerced with one numpy pass per type. `coerce_gene` stays the
scalar definition that the vectorized coercion reproduces bit for bit.

The schema also compiles a row sampler: the initial population is drawn in
whole-row numpy calls that consume the stream exactly as one scalar draw per
gene, row by row, would, so every gene gets the value its rule's scalar
sample gives. Only rules that redraw (continuous ranges, lattices too large
to enumerate, unconstrained PYINT genes) still draw one gene at a time.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from .errors import (DimensionMismatch, EmptySpace, GaError, InsufficientSpace, NonFiniteGene,
                     context)

if TYPE_CHECKING:
    from .config import GaConfig


class GeneType(Enum):
    """Storage type enforced on a gene after sampling, crossover, and mutation."""

    FLOAT32 = "float32"
    FLOAT64 = "float64"
    INT8 = "int8"
    INT16 = "int16"
    INT32 = "int32"
    INT64 = "int64"
    UINT8 = "uint8"
    UINT16 = "uint16"
    UINT32 = "uint32"
    UINT64 = "uint64"
    PYINT = "int"


_INT_BOUNDS = {t: (int(np.iinfo(t.value).min), int(np.iinfo(t.value).max))
               for t in GeneType if t is not GeneType.PYINT and np.dtype(t.value).kind in "iu"}

# Each integer type's bounds as the doubles nearest to them inside the range:
# float(2**63 - 1) rounds up to 2**63, which an int64 cannot hold.
_FLOAT_BOUNDS = {
    t: (float(lo), float(hi) if int(float(hi)) <= hi else math.nextafter(float(hi), 0.0))
    for t, (lo, hi) in _INT_BOUNDS.items()
}

# Doubles beyond this magnitude round to an infinite float32.
_FLOAT32_MAX = float(np.finfo(np.float32).max)

# Integers survive a round trip through a float64 only below 2**53.
_EXACT_INT_LIMIT = 2**53

# The integers each integer type holds, PYINT's as doubles.
_WHOLE_BOUNDS = {**_INT_BOUNDS, GeneType.PYINT: (-_EXACT_INT_LIMIT, _EXACT_INT_LIMIT)}

# Every double of at least this magnitude is an integer; adding 0.5 to one
# would round to an even neighbour, so integer coercion leaves them as they are.
_INTEGRAL_MAGNITUDE = 2.0**52

# Step lattices up to this many points are enumerated when a schema is
# compiled; larger ones are sampled by redrawing, like continuous ranges.
_LATTICE_ENUM_CAP = 1 << 20

_REDRAW_BUDGET = 100


@dataclass(frozen=True)
class Unconstrained:
    """Any finite value; initial samples are drawn from the configured init range."""


@dataclass(frozen=True)
class DiscreteSet:
    """A sparse, finite set of admissible gene values."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))


@dataclass(frozen=True)
class ValueRange:
    """A half-open range [lo, hi), optionally restricted to the lattice lo, lo+step, ..."""

    lo: float
    hi: float
    step: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if self.step is not None:
            object.__setattr__(self, "step", float(self.step))


GeneSpace = Union[Unconstrained, DiscreteSet, ValueRange]

UNCONSTRAINED = Unconstrained()


def _coerce_float64(v: float) -> float:
    return v


def _coerce_float32(v: float) -> float:
    return float(np.float32(min(max(v, -_FLOAT32_MAX), _FLOAT32_MAX)))


def _coerce_pyint(v: float) -> Optional[float]:
    if abs(v) < _INTEGRAL_MAGNITUDE:  # round half away from zero
        return float(math.floor(v + 0.5) if v >= 0 else math.ceil(v - 0.5))
    return None if abs(v) > _EXACT_INT_LIMIT else v


def _integer_coercer(lo: float, hi: float):
    def coerce(v: float) -> float:
        if abs(v) < _INTEGRAL_MAGNITUDE:  # round half away from zero
            v = float(math.floor(v + 0.5) if v >= 0 else math.ceil(v - 0.5))
        return lo if v < lo else hi if v > hi else v

    return coerce


# coerce_gene for each type, on a finite float, except that a value the type
# cannot hold (PYINT beyond 2**53) gives None: the type dispatch happens once,
# when a rule picks its coercer.
_COERCERS = {
    GeneType.FLOAT64: _coerce_float64,
    GeneType.FLOAT32: _coerce_float32,
    GeneType.PYINT: _coerce_pyint,
    **{t: _integer_coercer(*bounds) for t, bounds in _FLOAT_BOUNDS.items()},
}


def coerce_gene(v, gene_type: GeneType) -> float:
    """Force a raw value into the given gene type.

    Floats round to their storage precision, FLOAT32 after clamping to its
    finite range; integer types round half away from zero (a double past
    2**52 is already an integer and stays as it is) and clamp into the
    representable range; PYINT rounds without clamping but rejects magnitudes
    beyond the exact double-integer range.
    """
    v = float(v)
    if not math.isfinite(v):
        raise NonFiniteGene(f"gene value {v!r} is not finite")
    coerced = _COERCERS[gene_type](v)
    if coerced is None:
        raise NonFiniteGene(f"gene value {v!r} exceeds the exact double-precision integer range")
    return coerced


def _coerce_array(values: np.ndarray, gene_type: GeneType) -> np.ndarray:
    """coerce_gene on every element of an array of finite values (PYINT ones within 2**53)."""
    if gene_type is GeneType.FLOAT64:
        return values
    if gene_type is GeneType.FLOAT32:
        return np.clip(values, -_FLOAT32_MAX, _FLOAT32_MAX).astype(np.float32).astype(float)
    rounded = np.where(values >= 0, np.floor(values + 0.5), np.ceil(values - 0.5))
    rounded = np.where(np.abs(values) < _INTEGRAL_MAGNITUDE, rounded, values)
    if gene_type in _FLOAT_BOUNDS:
        rounded = np.clip(rounded, *_FLOAT_BOUNDS[gene_type])
    # ceil gives -0.0 on (-0.5, 0) where float(int) gives 0.0; adding 0.0 fixes the sign.
    return rounded + 0.0


def _lattice_size(space: ValueRange) -> int:
    # Number of points lo, lo+step, ... strictly below hi; lo < hi is always one.
    return max(1, int(math.ceil((space.hi - space.lo) / space.step - 1e-12)))


def _typed_lattice(space: ValueRange, gene_type: GeneType) -> np.ndarray:
    """The step-lattice points that _GeneRule.contains accepts, sorted and distinct.

    A point lo + k*step counts when rounding has left it below hi (the last
    one can round up to hi), the type can hold it (PYINT holds no integer
    beyond 2**53) and it survives coercion to the gene type unchanged.
    """
    points = space.lo + np.arange(_lattice_size(space)) * space.step
    points = points[points < space.hi]
    if gene_type is GeneType.PYINT:
        points = points[np.abs(points) <= _EXACT_INT_LIMIT]
    return np.unique(points[_coerce_array(points, gene_type) == points])


def _least_at_or_above(lo: float, gene_type: GeneType) -> float:
    """The least value of gene_type at or above lo: [lo, hi) holds one iff fit keeps this.

    An integer type's is ceil(lo) raised to its lower bound (PYINT's is
    -2**53); FLOAT32's, the float32 nearest lo, or the next one up, which
    stops at the largest float32 rather than overflow with a RuntimeWarning.
    """
    if gene_type is GeneType.FLOAT64:
        return lo
    if gene_type is GeneType.FLOAT32:
        v = _coerce_float32(lo)
        return v if v >= lo else float(np.nextafter(np.float32(v), np.float32(_FLOAT32_MAX)))
    return float(max(math.ceil(lo), _WHOLE_BOUNDS[gene_type][0]))


class _GeneRule:
    """The admissible values of one (space, type) pair, derived once and shared by its genes.

    The space and the type's coercer are picked once, into one fit step:
    fit(v) coerces finite v and keeps it if contains accepts it, or gives None
    (a PYINT value beyond 2**53 is always a miss). kind says how it samples.
    A "held" rule, over a discrete set or a step lattice of at most
    _LATTICE_ENUM_CAP points, holds its values as float64 arrays only:
    array in draw order (a discrete set's coerced values, repeats kept),
    pool sorted and distinct (for an enumerated lattice, the same array).
    It samples array at one drawn index. Any other rule samples by drawing
    from its range and keeping the first draw fit keeps: an "open" one
    (unconstrained, any type but PYINT) keeps every finite value, and a
    "redraw" one raises EmptySpace after _REDRAW_BUDGET misses. admit keeps
    what fit keeps and samples otherwise; NaN and infinities raise
    NonFiniteGene. No call dispatches on the space or the type. A held rule
    or a continuous range with no value of the type raises EmptySpace here.
    """

    __slots__ = ("space", "kind", "pool", "array", "contains", "fit", "sample", "admit")

    def __init__(self, space: GeneSpace, gene_type: GeneType, init_range) -> None:
        self.space = space
        coerce = _COERCERS[gene_type]
        pool = array = least = None
        if isinstance(space, DiscreteSet):
            values = tuple(coerce_gene(v, gene_type) for v in space.values)
            array, pool = np.array(values), np.array(sorted(set(values)))
            contains = frozenset(values).__contains__
        elif isinstance(space, Unconstrained):
            lo, hi = init_range
            contains = lambda v: True
            draw = lambda rng: rng.uniform(lo, hi)
        elif space.step is None:
            lo, hi = space.lo, space.hi
            contains = lambda v: lo <= v < hi
            draw = lambda rng: rng.uniform(lo, hi)
            least = _least_at_or_above(lo, gene_type)
        else:
            lo, hi, step, size = space.lo, space.hi, space.step, _lattice_size(space)

            def contains(v) -> bool:
                if not (lo <= v < hi):
                    return False
                k = int(round((v - lo) / step))
                return 0 <= k < size and lo + k * step == v and coerce(v) == v

            def draw(rng) -> float:
                return lo + int(rng.integers(size)) * step

            if size <= _LATTICE_ENUM_CAP:
                array = pool = _typed_lattice(space, gene_type)

        def fit(v: float) -> Optional[float]:
            v = coerce(v)
            return None if v is None or not contains(v) else v

        if (array is not None and not array.size) or (least is not None and fit(least) is None):
            raise EmptySpace(f"no value of {space!r} is representable as {gene_type.value}")
        if array is None:
            def sample(rng) -> float:
                for _ in range(_REDRAW_BUDGET):
                    v = fit(draw(rng))
                    if v is not None:
                        return v
                raise EmptySpace(
                    f"no value of {space!r} representable as {gene_type.value} "
                    f"found in {_REDRAW_BUDGET} draws"
                )
        else:
            def sample(rng) -> float:
                return array.item(int(rng.integers(array.size)))

        def admit(v, rng) -> float:
            v = float(v)
            if not math.isfinite(v):
                raise NonFiniteGene(f"gene value {v!r} is not finite")
            v = fit(v)
            return sample(rng) if v is None else v

        self.kind = "held" if array is not None else "open" if (
            isinstance(space, Unconstrained) and gene_type is not GeneType.PYINT) else "redraw"
        self.pool, self.array = pool, array
        self.contains, self.fit, self.sample, self.admit = contains, fit, sample, admit

    def resample_excluding(self, exclude, rng) -> float:
        pool = self.pool
        if pool is not None:
            # One draw indexes the pool without the excluded values: it moves
            # past each excluded place at or below it, in ascending order.
            values = np.fromiter(exclude, float, len(exclude))
            places = np.searchsorted(pool, values)
            places = np.sort(places[pool[np.minimum(places, pool.size - 1)] == values])
            free = pool.size - places.size
            if not free:
                raise InsufficientSpace(
                    f"space {self.space!r} has {pool.size} admissible "
                    f"value{'s' * (pool.size != 1)}, none outside {sorted(exclude)}"
                )
            k = int(rng.integers(free))
            for place in places.tolist():
                if place > k:
                    break
                k += 1
            return pool.item(k)
        for _ in range(_REDRAW_BUDGET):
            v = self.sample(rng)
            if v not in exclude:
                return v
        raise InsufficientSpace(
            f"no distinct value found in {self.space!r} after {_REDRAW_BUDGET} redraws"
        )


def _per_gene(gene_space, gene_type, n: int) -> tuple:
    """A validated config's gene_space and gene_type as one entry per gene each."""
    if gene_space is None:
        gene_space = UNCONSTRAINED
    if isinstance(gene_space, (Unconstrained, DiscreteSet, ValueRange)):
        gene_space = [gene_space] * n
    if isinstance(gene_type, GeneType):
        gene_type = [gene_type] * n
    return gene_space, gene_type


def distinct_values_fall_short(schema: "GeneSchema", init_draws: bool) -> bool:
    """Whether the genes of few-valued rules cannot all hold pairwise-distinct values.

    Takes a validated config's schema, whose compile has rejected every
    rule with no value, and whether init draws the rows (no initial
    population is given). Held rules' genes take their values from their
    pools, and integer-typed genes from the integers the type holds: in
    [lo, hi) for a continuous range; for an unconstrained gene, from the
    schema's init_range lo to the largest double below its hi, each rounded
    half away from zero, clamped into the type's bounds. Unconstrained genes
    are left out when init draws nothing: repairing a given row needs only a
    value its other genes do not hold, and those may lie outside init_range.
    Only integers that are doubles count: beyond 2**53 they are sparse.
    Distinct values exist exactly when each such gene can be matched to a
    pool value of its own (Hall's condition). A gene whose pool holds at
    least as many values as there are such genes always finds one the others
    left, so only genes with smaller pools are matched, and integers are
    listed only that far.
    """
    keys = [(rule, t) for rule, t in zip(schema.rules, schema.types)
            if rule.kind == "held" or (t in _WHOLE_BOUNDS and (
                rule.space.step is None if isinstance(rule.space, ValueRange)
                else init_draws))]
    finite = len(keys)
    groups = []
    for (rule, t), genes in Counter(keys).items():
        pool = rule.pool
        if pool is None:
            low, high = _WHOLE_BOUNDS[t]
            if isinstance(rule.space, Unconstrained):
                coerce = _integer_coercer(low, high)
                ends = (schema.init_range[0], math.nextafter(schema.init_range[1], -math.inf))
                first, last = (int(coerce(v)) for v in ends)
                stop = last + 1
            else:
                first = max(math.ceil(rule.space.lo), low)
                stop = min(math.ceil(rule.space.hi), high + 1)
            exact = -_EXACT_INT_LIMIT <= first and stop <= _EXACT_INT_LIMIT
            if exact and stop - first >= finite:
                continue  # each of these integers is a double
            pool = np.fromiter(itertools.islice(_integral_doubles(first, stop), finite), float)
        if pool.size < finite:
            groups.append((pool.tolist(), genes))
    return not _matched(groups)


def _integral_doubles(first: int, stop: int):
    """The doubles in [first, stop) that are integers, ascending.

    first must not round down as a double: float(first) >= first. Every
    caller's first is the ceiling of a double, a type's lower bound, or a
    double coerced into a type's bounds; of these only the upper bounds
    2**63 - 1 and 2**64 - 1 are not doubles, and both round up.
    """
    v = float(first)
    while v < stop:
        yield v
        v = max(v + 1.0, math.nextafter(v, math.inf))  # past 2**53, v + 1.0 rounds to v


def _matched(groups: list) -> bool:
    """Whether every group (values, genes) can give each of its genes a value of its own.

    Kuhn's augmenting paths, with the genes of one group as one node that
    holds as many values as it has genes. owner maps each taken value to
    its group. A value, once taken, stays taken, so each group's free
    values are found by one pass over its values across all searches.
    """
    owner: dict = {}
    free = [iter(values) for values, _ in groups]
    for g, (_, genes) in enumerate(groups):
        for _ in range(genes):
            # Search from g: path[i] is a group on the path, via[i] the value
            # path[i + 1] holds and would hand to path[i].
            path, via, seen, h = [], [], {g}, g
            while True:
                v = next((v for v in free[h] if v not in owner), None)
                if v is not None:  # the path ends here: h takes v, each group the next's value
                    owner[v] = h
                    for (group, _), w in zip(path, via):
                        owner[w] = group
                    break
                path.append((h, iter(groups[h][0])))
                while path:
                    w = next((w for w in path[-1][1] if owner[w] not in seen), None)
                    if w is not None:
                        break
                    path.pop()
                    if via:
                        via.pop()
                else:
                    return False
                h = owner[w]
                seen.add(h)
                via.append(w)
    return True


def _type_groups(slot_types: Sequence[GeneType], slots: np.ndarray) -> tuple:
    """(type, column indices) for each type but FLOAT64, whose coercion is the identity.

    Gene j's type is slot_types[slots[j]].
    """
    codes: dict = {}
    slot_codes = [codes.setdefault(gene_type, len(codes)) for gene_type in slot_types]
    if len(codes) == 1:  # one type: every column
        gene_type, = codes
        return () if gene_type is GeneType.FLOAT64 else ((gene_type, np.arange(len(slots))),)
    codes.pop(GeneType.FLOAT64, None)
    if not codes:
        return ()
    gene_codes = np.array(slot_codes, np.intp)[slots]
    groups = ((gene_type, np.flatnonzero(gene_codes == code)) for gene_type, code in codes.items())
    return tuple((gene_type, cols) for gene_type, cols in groups if cols.size)


# A segment fill draws its genes of every row of a (rows, genes) block in
# row-major order, with the draws the rules' scalar samples would make; row
# is the block's first row in its population.

def _finite_fill(table: np.ndarray, sizes: np.ndarray, offsets: np.ndarray):
    """Finite rules: the draws of integers(0, sizes) pick each gene's index into one flat table.

    Gene j's values are table[offsets[j]:offsets[j] + sizes[j]]. When every
    gene has the same number of values the bound is that number, a Python
    int: numpy's scalar-bound call takes the same Lemire step per element on
    the same 32-bit halves as its array-bound one, and is faster. Genes of
    different sizes take the array-bound call.
    """
    shift = offsets if offsets.any() else None  # a lone held rule's table is its own array
    bound = int(sizes[0]) if (sizes == sizes[0]).all() else sizes

    def fill(rng, out: np.ndarray, row: int) -> None:
        picks = rng.integers(0, bound, size=out.shape)
        if shift is not None:
            picks += shift
        out[...] = table[picks]

    return fill


def _uniform_fill(groups: tuple, init_range):
    """Rules that never miss: one uniform call over init_range, coerced one numpy pass per type."""
    lo, hi = init_range

    def fill(rng, out: np.ndarray, row: int) -> None:
        out[...] = rng.uniform(lo, hi, size=out.shape)
        for gene_type, cols in groups:
            out[:, cols] = _coerce_array(out[:, cols], gene_type)

    return fill


def _redraw_fill(rules: Sequence[_GeneRule], types: Sequence[GeneType], start: int):
    """Rules that may miss and redraw: one scalar sample per gene, the first being gene start.

    A sample that finds no value names its row and gene.
    """
    def fill(rng, out: np.ndarray, row: int) -> None:
        drawn = [0.0] * len(rules)
        for i, values in enumerate(out, row):
            try:
                for j, rule in enumerate(rules):
                    drawn[j] = rule.sample(rng)
            except EmptySpace:
                with context(f"row {i}, gene {start + j} ({types[j].value}): "):
                    raise
            values[...] = drawn

    return fill


def _row_segments(slot_rules: Sequence[_GeneRule], slot_types: Sequence[GeneType],
                  slots: np.ndarray, init_range) -> tuple:
    """A row split into (columns, fill) segments of consecutive genes of one rule kind.

    Gene j's rule is slot_rules[slots[j]], and its type slot_types[slots[j]].
    """
    held = [rule for rule in dict.fromkeys(slot_rules) if rule.kind == "held"]
    if held:
        # One table holds the values of every distinct held rule; a lone rule's
        # own array is the table, so a 2**20-point lattice is not copied.
        table = held[0].array if len(held) == 1 else np.concatenate([r.array for r in held])
        starts = dict(zip(held, itertools.accumulate([0] + [rule.array.size for rule in held])))
        sizes = np.array([0 if rule.array is None else rule.array.size for rule in slot_rules])
        offsets = np.array([starts.get(rule, 0) for rule in slot_rules])
    kinds = [rule.kind for rule in slot_rules]
    if len(set(kinds)) == 1:  # one kind: one segment
        runs = [(kinds[0], len(slots))]
    else:
        runs = [(kind, len(list(genes)))
                for kind, genes in itertools.groupby(slots.tolist(), key=kinds.__getitem__)]
    segments = []
    start = 0
    for kind, genes in runs:
        stop = start + genes
        cols, at = slice(start, stop), slots[start:stop]
        if kind == "held":
            fill = _finite_fill(table, sizes[at], offsets[at])
        elif kind == "open":
            fill = _uniform_fill(_type_groups(slot_types, at), init_range)
        else:
            fill = _redraw_fill([slot_rules[s] for s in at.tolist()],
                                [slot_types[s] for s in at.tolist()], start)
        segments.append((cols, fill))
        start = stop
    return tuple(segments)


class GeneSchema:
    """Per-gene constraints of one config, compiled once, by validate.

    Holds each gene's space and type, the gene columns grouped by type, and
    rules: one entry per gene, the rule compiled once for each distinct
    (space, type) pair and shared by its genes; genes are keyed by the
    identity of their objects, so each distinct pair of objects is hashed
    once, not each gene, and genes that all share one pair of objects are
    one slot, found and expanded with no Python step per gene.
    rules[j].contains(v), .fit(v), .sample(rng) and .admit(v, rng) answer
    for gene j, and .kind says how it samples; a held rule's float64 .array
    and .pool hold its coerced discrete set or enumerated typed step lattice.
    Compiling raises EmptySpace for an enumerated lattice or a continuous
    range with no value of its gene type, or NonFiniteGene for a set value
    it cannot hold, naming the gene; validate makes either a ConfigError.
    unconstrained[j] tells whether gene j's space is Unconstrained;
    never_misses, whether every rule is open, so that admit keeps every
    finite value as coerced and never draws; one_step_admits, whether no
    rule redraws, so that mutating a gene draws at most one integers()
    after its delta.

    The compiled row sampler splits a row into segments of consecutive genes
    of one rule kind: held rules draw one integers(0, sizes) per segment,
    with the one size as a scalar bound when all the segment's genes share
    it, open ones one uniform call, and redrawing rules one scalar sample
    per gene (one that finds no value raises EmptySpace naming its row and
    gene). numpy's vector draws consume the stream exactly as the matching
    sequence of scalar calls does, so the rows hold what rules[j].sample(rng)
    gives gene by gene, row by row, and leave the generator in the same
    state. Every draw of sample, admit and repair is scalar, so a run replays
    bit-identically whichever path it takes.
    """

    def __init__(self, spaces: Sequence[GeneSpace], types: Sequence[GeneType],
                 init_range) -> None:
        if len(spaces) != len(types):
            raise DimensionMismatch(f"{len(spaces)} gene spaces for {len(types)} gene types")
        self.spaces = tuple(spaces)
        self.types = tuple(types)
        self.init_range = (float(init_range[0]), float(init_range[1]))
        # Genes are keyed by the identity of their space and type objects:
        # each distinct pair of objects is a slot. When every gene shares one
        # pair, a check in C finds the one slot; otherwise one pass over the
        # genes looks up their pairs of ids. Only a slot's (space, type) is
        # hashed and compared by value, so equal but distinct objects still
        # share one rule. Every per-gene answer is its slot's.
        n = len(self.spaces)
        if n and (all(map(operator.is_, self.spaces, itertools.repeat(self.spaces[0])))
                  and all(map(operator.is_, self.types, itertools.repeat(self.types[0])))):
            firsts, slots = [0], np.zeros(n, np.intp)
            per_gene = lambda slot_values: slot_values * n
        else:
            pairs = list(zip(map(id, self.spaces), map(id, self.types)))
            slot_of: dict = {}
            firsts = []  # each slot's first gene
            for j, pair in enumerate(pairs):
                if pair not in slot_of:
                    slot_of[pair] = len(firsts)
                    firsts.append(j)
            gene_slots = list(map(slot_of.__getitem__, pairs))
            slots = np.array(gene_slots, np.intp)
            per_gene = lambda slot_values: tuple(map(slot_values.__getitem__, gene_slots))
        compiled: dict = {}
        slot_rules = []
        for j in firsts:
            key = (self.spaces[j], self.types[j])
            rule = compiled.get(key)
            if rule is None:
                with context(f"gene {j} ({key[1].value}): "):
                    rule = compiled[key] = _GeneRule(*key, self.init_range)
            slot_rules.append(rule)
        slot_types = [self.types[j] for j in firsts]
        self.rules = per_gene(tuple(slot_rules))
        self.unconstrained = per_gene(tuple(isinstance(rule.space, Unconstrained)
                                            for rule in slot_rules))
        self.never_misses = all(rule.kind == "open" for rule in slot_rules)
        self.one_step_admits = all(rule.kind != "redraw" for rule in slot_rules)
        self._groups = _type_groups(slot_types, slots)
        self._segments = _row_segments(slot_rules, slot_types, slots, self.init_range)

    @classmethod
    def from_config(cls, cfg: "GaConfig") -> "GeneSchema":
        """The compile that validate kept on cfg, or, on a copy that dropped it, a new one."""
        return getattr(cfg, "_gene_schema", None) or cls(
            *_per_gene(cfg.gene_space, cfg.gene_type, cfg.num_genes), cfg.init_range)

    def coerce(self, values) -> np.ndarray:
        """coerce_gene applied to every gene of a chromosome or (rows, genes) array, as a copy."""
        out = np.array(values, dtype=float)
        bad = ~np.isfinite(out)
        for gene_type, cols in self._groups:
            if gene_type is GeneType.PYINT:
                bad[..., cols] |= np.abs(out[..., cols]) > _EXACT_INT_LIMIT
        if bad.any():
            *row, j = np.argwhere(bad)[0].tolist()  # the first, row by row
            where = "".join(f"row {i}, " for i in row)
            with context(f"{where}gene {j} ({self.types[j].value}): "):
                coerce_gene(out[(*row, j)], self.types[j])  # raises NonFiniteGene
        for gene_type, cols in self._groups:
            out[..., cols] = _coerce_array(out[..., cols], gene_type)
        return out

    def coerce_at(self, values: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """coerce_gene, in place, on finite values bound for flat positions of (rows, genes)."""
        for gene_type, cols in self._groups:
            at = np.isin(positions % len(self.types), cols)
            values[at] = _coerce_array(values[at], gene_type)
        return values

    def _sample_rows(self, rng, rows: int, first: int = 0) -> np.ndarray:
        """rows chromosomes from the row sampler, each gene drawn from its rule.

        first is the first row's index in its population, which a failed
        sample names.
        """
        out = np.empty((rows, len(self.rules)))
        # With one segment the rows' draws are contiguous: the whole block is one call.
        if len(self._segments) == 1:
            blocks = ((first, out),)
        else:
            blocks = enumerate(out[:, np.newaxis], first)
        for row, block in blocks:
            for cols, fill in self._segments:
                fill(rng, block[:, cols], row)
        return out

    def repair(self, genes, rng) -> np.ndarray:
        """Resample duplicated genes until each chromosome's values are pairwise distinct.

        Takes one chromosome or a (rows, genes) population and returns a
        repaired copy. Each row is scanned left to right keeping the first
        occurrence of each value; a later duplicate is redrawn from its own
        admissible set excluding every value currently present in the row.
        Rows are repaired in order, and a row that is already distinct draws
        nothing, so one sort finds the rows that need the scan. A gene with no
        distinct value left raises InsufficientSpace naming the gene, its type
        and, for a population, its row.
        """
        out = np.array(genes, dtype=float)
        rows = out.reshape(-1, out.shape[-1])
        ordered = np.sort(rows, axis=1)
        for i in np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1)):
            with context(f"row {i}, " if out.ndim > 1 else ""):
                rows[i] = self._repair_row(rows[i].tolist(), rng)
        return out

    def _repair_row(self, values: list, rng) -> list:
        seen, present = set(), set(values)  # a duplicate's value stays present earlier on
        for j, v in enumerate(values):
            if v in seen:
                with context(f"gene {j} ({self.types[j].value}): "):
                    v = values[j] = self.rules[j].resample_excluding(present, rng)
                present.add(v)
            seen.add(v)
        return values


def settle(cfg: "GaConfig", schema: GeneSchema, genes, rng) -> np.ndarray:
    """Coerce every gene to its type and, unless cfg allows duplicate genes, repair duplicates.

    Every row the sampler did not draw (a user's initial population, offspring)
    goes through this one step; it returns a copy.
    """
    genes = schema.coerce(genes)
    return genes if cfg.allow_duplicate_genes else schema.repair(genes, rng)


def init_population(cfg: "GaConfig", rng, schema: Optional[GeneSchema] = None) -> np.ndarray:
    """Build the starting population for a validated config.

    A user-supplied initial population is coerced to the gene types (and repaired
    for duplicates when required) but is never rejected for lying outside the
    gene space. Otherwise every gene is sampled from its admissible set by the
    schema's row sampler; without duplicate genes each row is repaired before
    the next is drawn. A population the host cannot allocate raises GaError;
    a failed repair names its row, and a failed sample its row and gene. The
    schema defaults to the one from cfg.
    """
    schema = schema or GeneSchema.from_config(cfg)
    if cfg.initial_population is not None:
        pop = np.array(cfg.initial_population, dtype=float)
        if pop.shape != (cfg.sol_per_pop, cfg.num_genes):
            raise DimensionMismatch(
                f"initial population shape {pop.shape} != "
                f"({cfg.sol_per_pop}, {cfg.num_genes})"
            )
        return settle(cfg, schema, pop, rng)
    shape = (cfg.sol_per_pop, cfg.num_genes)
    try:
        if cfg.allow_duplicate_genes:
            return schema._sample_rows(rng, cfg.sol_per_pop)
        pop = np.empty(shape)
    except MemoryError as err:
        raise GaError(f"init: cannot allocate a population of shape {shape}") from err
    for i, row in enumerate(pop):
        row[...] = schema._sample_rows(rng, 1, i)[0]
        with context(f"row {i}, "):
            row[...] = schema.repair(row, rng)
    return pop


def population_from_csv(text: str) -> np.ndarray:
    """Parse a population from CSV text: one chromosome per line, genes as comma-separated numbers.

    Blank lines are skipped; every row must have the same number of genes.
    """
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append([float(cell) for cell in line.split(",")])
    if not rows:
        raise DimensionMismatch("population CSV holds no rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DimensionMismatch("population CSV rows have unequal lengths")
    return np.array(rows, dtype=float)
