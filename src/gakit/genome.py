"""Chromosomes and populations: gene value spaces, gene data types, sampling, duplicate repair.

All gene values are stored as double-precision floats regardless of their
declared gene type; the type is enforced by coercion at creation and after
every mutation. Populations are plain 2-D numpy arrays of shape
(sol_per_pop, num_genes).

A run compiles its gene constraints once into a GeneSchema: each discrete set
already coerced to its gene's type, each typed step lattice enumerated, and
the gene columns grouped by type, so a whole population is coerced with one
numpy pass per type. `coerce_gene` stays the scalar definition that the
vectorized coercion reproduces bit for bit.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatch, EmptySpace, InsufficientSpace, NonFiniteGene

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


_INT_BOUNDS = {
    GeneType.INT8: (-(2**7), 2**7 - 1),
    GeneType.INT16: (-(2**15), 2**15 - 1),
    GeneType.INT32: (-(2**31), 2**31 - 1),
    GeneType.INT64: (-(2**63), 2**63 - 1),
    GeneType.UINT8: (0, 2**8 - 1),
    GeneType.UINT16: (0, 2**16 - 1),
    GeneType.UINT32: (0, 2**32 - 1),
    GeneType.UINT64: (0, 2**64 - 1),
}

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


def _coerce_pyint(v: float) -> float:
    if abs(v) < _INTEGRAL_MAGNITUDE:  # round half away from zero
        return float(math.floor(v + 0.5) if v >= 0 else math.ceil(v - 0.5))
    if abs(v) > _EXACT_INT_LIMIT:
        raise NonFiniteGene(f"gene value {v!r} exceeds the exact double-precision integer range")
    return v


def _integer_coercer(lo: float, hi: float):
    def coerce(v: float) -> float:
        if abs(v) < _INTEGRAL_MAGNITUDE:  # round half away from zero
            v = float(math.floor(v + 0.5) if v >= 0 else math.ceil(v - 0.5))
        return lo if v < lo else hi if v > hi else v

    return coerce


# coerce_gene for each type, on a finite float: the type dispatch happens once,
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
    return _COERCERS[gene_type](v)


def _coerce_array(values: np.ndarray, gene_type: GeneType) -> np.ndarray:
    """coerce_gene on every element of an array of finite values."""
    if gene_type is GeneType.FLOAT64:
        return values
    if gene_type is GeneType.FLOAT32:
        return np.clip(values, -_FLOAT32_MAX, _FLOAT32_MAX).astype(np.float32).astype(float)
    if gene_type is GeneType.PYINT:
        too_large = np.abs(values) > _EXACT_INT_LIMIT
        if too_large.any():
            raise NonFiniteGene(
                f"gene value {float(values[too_large][0])!r} exceeds the exact "
                "double-precision integer range"
            )
    rounded = np.where(values >= 0, np.floor(values + 0.5), np.ceil(values - 0.5))
    rounded = np.where(np.abs(values) < _INTEGRAL_MAGNITUDE, rounded, values)
    if gene_type in _FLOAT_BOUNDS:
        rounded = np.clip(rounded, *_FLOAT_BOUNDS[gene_type])
    # ceil gives -0.0 on (-0.5, 0) where float(int) gives 0.0; adding 0.0 fixes the sign.
    return rounded + 0.0


def _lattice_size(space: ValueRange) -> int:
    # Number of points lo, lo+step, ... strictly below hi; lo < hi is always one.
    return max(1, int(math.ceil((space.hi - space.lo) / space.step - 1e-12)))


def _typed_lattice(space: ValueRange, gene_type: GeneType) -> list:
    """The step-lattice points that _GeneRule.contains accepts, sorted and distinct."""
    return _typed_points(space, gene_type, _lattice_size(space))


def _typed_points(space: ValueRange, gene_type: GeneType, count: int) -> list:
    """The admissible points among the first count of the lattice, sorted and distinct.

    A point lo + k*step counts when rounding has left it below hi (the last
    one can round up to hi), the type can hold it (PYINT holds no integer
    beyond 2**53) and it survives coercion to the gene type unchanged.
    """
    points = space.lo + np.arange(count) * space.step
    points = points[points < space.hi]
    if gene_type is GeneType.PYINT:
        points = points[np.abs(points) <= _EXACT_INT_LIMIT]
    return np.unique(points[_coerce_array(points, gene_type) == points]).tolist()


class _GeneRule:
    """The admissible values of one (space, type) pair, derived once and shared by its genes.

    A finite rule (a discrete set, or a step lattice of at most
    _LATTICE_ENUM_CAP points) holds its admissible values; any other rule
    draws from its range and keeps the first coerced value contains accepts.
    contains and admit are compiled here: the membership test and the type's
    coercer are picked once, so no call dispatches on the space or the type.
    """

    __slots__ = ("space", "type", "init_range", "size", "values", "pool", "contains", "admit")

    def __init__(self, space: GeneSpace, gene_type: GeneType, init_range) -> None:
        self.space = space
        self.type = gene_type
        self.init_range = init_range
        self.size = None  # number of step-lattice points
        self.values = None  # a finite rule's admissible values, in draw order
        self.pool = None  # the same values, distinct and sorted, for repair
        members = None  # discrete values coerced to the type, for O(1) membership
        if isinstance(space, DiscreteSet):
            self.values = tuple(coerce_gene(v, gene_type) for v in space.values)
            members = frozenset(self.values)
            self.pool = sorted(members)
        elif isinstance(space, ValueRange) and space.step is not None:
            self.size = _lattice_size(space)
            if self.size <= _LATTICE_ENUM_CAP:
                self.values = self.pool = _typed_lattice(space, gene_type)
        if self.values is not None and not self.values:
            raise EmptySpace(f"no value of {space!r} is representable as {gene_type.value}")
        self.contains = self._membership(members)
        self.admit = self._compile_admit()

    def _membership(self, members):
        """contains(v): whether v is an admissible (post-coercion) value."""
        space = self.space
        if members is not None:
            return members.__contains__
        if isinstance(space, Unconstrained):
            return lambda v: True
        lo, hi, step, size = space.lo, space.hi, space.step, self.size
        if size is None:
            return lambda v: lo <= v < hi
        coerce = _COERCERS[self.type]

        def on_lattice(v) -> bool:
            if not (lo <= v < hi):
                return False
            k = int(round((v - lo) / step))
            return 0 <= k < size and lo + k * step == v and coerce(v) == v

        return on_lattice

    def _compile_admit(self):
        """admit(v, rng): v coerced if that is admissible, else a fresh sample."""
        coerce, contains, sample = _COERCERS[self.type], self.contains, self.sample
        pyint = self.type is GeneType.PYINT

        def admit(v, rng) -> float:
            v = float(v)
            if not math.isfinite(v):
                raise NonFiniteGene(f"gene value {v!r} is not finite")
            if pyint and abs(v) > _EXACT_INT_LIMIT:
                return sample(rng)
            v = coerce(v)
            return v if contains(v) else sample(rng)

        return admit

    def holds(self, v: float) -> bool:
        """Whether the type can hold finite v; PYINT holds no integer beyond 2**53."""
        return self.type is not GeneType.PYINT or abs(v) <= _EXACT_INT_LIMIT

    def sample(self, rng) -> float:
        if self.values is not None:
            return self.values[int(rng.integers(len(self.values)))]
        space = self.space
        for _ in range(_REDRAW_BUDGET):
            if isinstance(space, Unconstrained):
                v = rng.uniform(self.init_range[0], self.init_range[1])
            elif self.size is None:
                v = rng.uniform(space.lo, space.hi)
            else:
                v = space.lo + int(rng.integers(self.size)) * space.step
            if not self.holds(v):
                continue
            v = coerce_gene(v, self.type)
            if self.contains(v):
                return v
        raise EmptySpace(
            f"no value of {space!r} representable as {self.type.value} "
            f"found in {_REDRAW_BUDGET} draws"
        )

    def resample_excluding(self, exclude, rng) -> float:
        if self.pool is not None:
            pool = [v for v in self.pool if v not in exclude]
            if not pool:
                raise InsufficientSpace(
                    f"space {self.space!r} has no admissible value outside {sorted(exclude)}"
                )
            return pool[int(rng.integers(len(pool)))]
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


def distinct_values_fall_short(gene_space, gene_type, n: int) -> bool:
    """Whether the genes of finite rules have fewer admissible values between them than genes.

    Takes a validated config's gene_space and gene_type. Genes whose rules
    are finite (discrete sets, enumerated lattices) draw from the union of
    their pools, so with fewer distinct values than such genes no chromosome
    can hold pairwise-distinct genes. Each lattice's first points are tried
    before any lattice is enumerated in full: once they supply enough values,
    compiling the schema stays the only full enumeration of a run. A rule
    that holds no value of its type is left for the schema to report.
    """
    keys, genes = set(), 0
    for key in zip(*_per_gene(gene_space, gene_type, n)):
        space = key[0]
        if isinstance(space, DiscreteSet) or (
            isinstance(space, ValueRange) and space.step is not None
            and _lattice_size(space) <= _LATTICE_ENUM_CAP
        ):
            keys.add(key)
            genes += 1
    lattices = [key for key in keys if isinstance(key[0], ValueRange)]
    union: set = set()
    try:
        for key in keys.difference(lattices):
            union.update(_GeneRule(*key, None).pool)  # a finite rule never draws init values
    except (EmptySpace, NonFiniteGene):
        return False
    for space, t in lattices:
        union.update(_typed_points(space, t, min(_lattice_size(space), genes)))
    for space, t in lattices:
        if len(union) >= genes:
            return False
        pool = _typed_lattice(space, t)
        if not pool:
            return False
        union.update(pool)
    return len(union) < genes


class GeneSchema:
    """Per-gene constraints of one run, compiled once from a validated config.

    Holds each gene's space and type, the gene columns grouped by type, and
    one rule per distinct (space, type) pair with its coerced discrete set or
    its enumerated typed step lattice. Compiling raises EmptySpace for a set
    or lattice that holds no value of its gene type. Every random
    draw of sample and repair is scalar and in the same order as one gene at a
    time, so a run replays bit-identically whichever path it takes.
    """

    def __init__(self, spaces: Sequence[GeneSpace], types: Sequence[GeneType],
                 init_range) -> None:
        if len(spaces) != len(types):
            raise DimensionMismatch(f"{len(spaces)} gene spaces for {len(types)} gene types")
        self.spaces = tuple(spaces)
        self.types = tuple(types)
        self.init_range = (float(init_range[0]), float(init_range[1]))
        rules: dict = {}
        for key in zip(self.spaces, self.types):
            if key not in rules:
                rules[key] = _GeneRule(*key, self.init_range)
        self._rules = tuple(rules[key] for key in zip(self.spaces, self.types))
        columns: dict = {}
        for j, gene_type in enumerate(self.types):
            columns.setdefault(gene_type, []).append(j)
        # FLOAT64 coercion is the identity; a type covering every gene indexes
        # with a slice so its pass works on a view.
        self._groups = tuple(
            (gene_type, slice(None) if len(cols) == len(self.types) else np.array(cols))
            for gene_type, cols in columns.items()
            if gene_type is not GeneType.FLOAT64
        )

    @classmethod
    def from_config(cls, cfg: "GaConfig") -> "GeneSchema":
        """Compile a validated config's gene space, gene type, and init range."""
        return cls(*_per_gene(cfg.gene_space, cfg.gene_type, cfg.num_genes), cfg.init_range)

    def coerce(self, values) -> np.ndarray:
        """coerce_gene applied to every gene of a chromosome or (rows, genes) array, as a copy."""
        out = np.array(values, dtype=float)
        finite = np.isfinite(out)
        if not finite.all():
            raise NonFiniteGene(f"gene value {float(out[~finite][0])!r} is not finite")
        for gene_type, cols in self._groups:
            out[..., cols] = _coerce_array(out[..., cols], gene_type)
        return out

    def contains(self, j: int, v: float) -> bool:
        """Whether v is an admissible (post-coercion) value for gene j."""
        return self._rules[j].contains(v)

    def admit(self, j: int, v: float, rng) -> float:
        """Coerce v to gene j's type and keep it if admissible, else draw a fresh value of gene j.

        A finite value the type cannot hold (PYINT beyond 2**53) is inadmissible;
        NaN and infinities raise NonFiniteGene.
        """
        return self._rules[j].admit(v, rng)

    def sample(self, j: int, rng) -> float:
        """Draw one admissible value of gene j.

        Discrete sets and enumerated step lattices pick one of their admissible
        values uniformly. Other genes draw uniformly from init_range
        (unconstrained), [lo, hi) or the step lattice, coerce the draw, and
        redraw until contains accepts it (a PYINT draw beyond 2**53 is a
        miss); after _REDRAW_BUDGET misses they raise EmptySpace.
        """
        return self._rules[j].sample(rng)

    def repair(self, genes, rng) -> np.ndarray:
        """Resample duplicated genes until each chromosome's values are pairwise distinct.

        Takes one chromosome or a (rows, genes) population and returns a
        repaired copy. Each row is scanned left to right keeping the first
        occurrence of each value; a later duplicate is redrawn from its own
        admissible set excluding every value currently present in the row.
        Rows are repaired in order, and a row that is already distinct draws
        nothing, so one sort finds the rows that need the scan.
        """
        out = np.array(genes, dtype=float)
        rows = out.reshape(-1, out.shape[-1])
        ordered = np.sort(rows, axis=1)
        for i in np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1)):
            rows[i] = self._repair_row(rows[i].tolist(), rng)
        return out

    def _repair_row(self, values: list, rng) -> list:
        seen = set()
        for j, v in enumerate(values):
            if v in seen:
                exclude = set(values[:j] + values[j + 1:])
                v = values[j] = self._rules[j].resample_excluding(exclude, rng)
            seen.add(v)
        return values


def init_population(cfg: "GaConfig", rng, schema: Optional[GeneSchema] = None) -> np.ndarray:
    """Build the starting population for a validated config.

    A user-supplied initial population is coerced to the gene types (and repaired
    for duplicates when required) but is never rejected for lying outside the
    gene space. Otherwise every gene is sampled from its admissible set. The
    schema defaults to the one compiled from cfg.
    """
    if schema is None:
        schema = GeneSchema.from_config(cfg)
    if cfg.initial_population is not None:
        pop = np.array(cfg.initial_population, dtype=float)
        if pop.shape != (cfg.sol_per_pop, cfg.num_genes):
            raise DimensionMismatch(
                f"initial population shape {pop.shape} != "
                f"({cfg.sol_per_pop}, {cfg.num_genes})"
            )
        pop = schema.coerce(pop)
        return pop if cfg.allow_duplicate_genes else schema.repair(pop, rng)
    pop = np.empty((cfg.sol_per_pop, cfg.num_genes))
    for i in range(cfg.sol_per_pop):
        pop[i] = [schema.sample(j, rng) for j in range(cfg.num_genes)]
        if not cfg.allow_duplicate_genes:
            pop[i] = schema.repair(pop[i], rng)
    return pop


def population_to_csv(pop) -> str:
    """Serialize a population, one chromosome per row, genes as decimal literals."""
    out = io.StringIO()
    for row in np.asarray(pop, dtype=float):
        out.write(",".join(repr(float(v)) for v in row))
        out.write("\n")
    return out.getvalue()


def population_from_csv(text: str) -> np.ndarray:
    """Parse a population serialized by population_to_csv."""
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
