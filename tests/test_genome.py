"""Gene coercion, sampling, duplicate repair, and population construction."""

import dataclasses
import itertools
import math
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import gene_spaces
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gakit import genome
from gakit.cli import build_solve_config, parse_invocation
from gakit.config import GaConfig, PercentGenes, validate
from gakit.engine import run
from gakit.errors import (
    ConfigError,
    DimensionMismatch,
    EmptySpace,
    GaError,
    InsufficientSpace,
    NonFiniteGene,
)
from gakit.genome import (
    UNCONSTRAINED,
    DiscreteSet,
    GeneSchema,
    GeneType,
    Unconstrained,
    ValueRange,
    coerce_gene,
    init_population,
    population_from_csv,
)

INIT_RANGE = (-4.0, 4.0)


def _schema(space, gene_type, n=1):
    """A schema of n genes that share one space and one type."""
    return GeneSchema([space] * n, [gene_type] * n, INIT_RANGE)


# --- coercion -----------------------------------------------------------------

def test_coerce_rounds_half_away_from_zero():
    assert coerce_gene(2.5, GeneType.INT32) == 3.0
    assert coerce_gene(-2.5, GeneType.INT32) == -3.0
    assert coerce_gene(2.4, GeneType.INT32) == 2.0


def test_coerce_clamps_to_type_bounds():
    assert coerce_gene(-1, GeneType.UINT8) == 0.0
    assert coerce_gene(300, GeneType.UINT8) == 255.0
    assert coerce_gene(40000, GeneType.INT16) == 32767.0


@pytest.mark.parametrize("gene_type", [GeneType.INT64, GeneType.UINT64])
def test_coerce_clamps_64_bit_types_to_a_value_they_hold(gene_type):
    # float(2**63 - 1) and float(2**64 - 1) round up past the type's maximum;
    # the clamp is the largest double at or below it.
    lo, hi = genome._INT_BOUNDS[gene_type]
    top = coerce_gene(1e30, gene_type)
    assert int(top) <= hi < int(math.nextafter(top, math.inf))
    assert coerce_gene(-1e30, gene_type) == lo
    schema = _schema(UNCONSTRAINED, gene_type, 2)
    assert schema.coerce([1e30, -1e30]).tolist() == [top, float(lo)]


def test_coerce_float32_clamps_to_its_finite_range():
    top = float(np.finfo(np.float32).max)
    assert coerce_gene(1e300, GeneType.FLOAT32) == top
    assert coerce_gene(-1e300, GeneType.FLOAT32) == -top
    assert coerce_gene(3.5e38, GeneType.FLOAT32) == top
    schema = _schema(UNCONSTRAINED, GeneType.FLOAT32, 3)
    assert schema.coerce([1e300, -1e300, 0.1]).tolist() == [
        top, -top, float(np.float32(0.1))]


def test_coerce_float32_rounds_to_single_precision():
    assert coerce_gene(0.1, GeneType.FLOAT32) == float(np.float32(0.1))
    assert coerce_gene(1.5, GeneType.FLOAT32) == 1.5


def test_coerce_float64_passthrough():
    assert coerce_gene(0.1, GeneType.FLOAT64) == 0.1


def test_coerce_pyint_unclamped_but_bounded_by_exact_range():
    assert coerce_gene(1e12 + 0.4, GeneType.PYINT) == 1e12
    with pytest.raises(NonFiniteGene):
        coerce_gene(2.0**60, GeneType.PYINT)


@pytest.mark.parametrize("gene_type", [GeneType.PYINT, GeneType.INT64, GeneType.UINT64])
def test_coerce_keeps_integers_past_2_52(gene_type):
    # Doubles of magnitude 2**52 and up are integers; rounding them as
    # floor(v + 0.5) moved an odd one to its even neighbour.
    values = [2.0**52 + 1, 2.0**53 - 9, 2.0**53 - 1, 2.0**53]
    if gene_type is not GeneType.UINT64:
        values += [-v for v in values]
    assert [coerce_gene(v, gene_type) for v in values] == values
    assert _schema(UNCONSTRAINED, gene_type, len(values)).coerce(values).tolist() == values


def test_pyint_step_lattice_near_2_53_keeps_odd_points():
    schema = _schema(ValueRange(2**53 - 10, 2**53 + 10, 1), GeneType.PYINT)
    assert schema.rules[0].array.tolist() == [2.0**53 - k for k in range(10, -1, -1)]


def test_coerce_rejects_non_finite():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(NonFiniteGene):
            coerce_gene(bad, GeneType.FLOAT64)


@pytest.mark.parametrize("values, message", [
    ([1.0, float("inf"), float("nan")], "gene 1 (float32): gene value inf is not finite"),
    ([[1.0, 2.0, 3.0], [4.0, 5.0, float("-inf")], [float("nan")] * 3],
     "row 1, gene 2 (float32): gene value -inf is not finite"),
])
def test_schema_coerce_names_the_first_non_finite_gene(values, message):
    # A chromosome names only the gene; a (rows, genes) array names its row too.
    with pytest.raises(NonFiniteGene, match=f"^{re.escape(message)}$"):
        _schema(UNCONSTRAINED, GeneType.FLOAT32, 3).coerce(values)


def test_schema_coerce_names_a_pyint_gene_past_2_53():
    schema = GeneSchema([UNCONSTRAINED] * 3, [GeneType.PYINT] * 3, (-4, 4))
    message = ("row 1, gene 1 (int): gene value 1.152921504606847e+18 exceeds the exact "
               "double-precision integer range")
    with pytest.raises(NonFiniteGene, match=f"^{re.escape(message)}$"):
        schema.coerce([[1, 2, 3], [1, 2.0**60, 1]])


def test_coerce_idempotent():
    rng = np.random.default_rng(5)
    types = list(GeneType)
    for _ in range(2000):
        v = float(rng.uniform(-1e6, 1e6))
        t = types[int(rng.integers(len(types)))]
        once = coerce_gene(v, t)
        assert coerce_gene(once, t) == once


# Values where a vectorized coercion could part from the scalar one: ties at
# k.5, signed zeros, each integer type's bounds and one past them, the PYINT
# 2**53 limit, float32 rounding, overflow and underflow, and non-finite input.
_COERCE_EDGES = [
    0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49999999999999994, -0.49999999999999994,
    0.0, -0.0, -0.3, 0.3, -1e-300,
    127.0, 127.5, -128.0, -128.5, 255.0, 255.5, 32767.5, -32768.5, 65535.5, 65536.0,
    2.0**31 - 0.5, -(2.0**31) - 0.5, 2.0**32 - 0.5, 2.0**32,
    2.0**63, -(2.0**63), 2.0**64, -(2.0**64), 1e300, -1e300,
    2.0**53, -(2.0**53), 2.0**53 + 2, -(2.0**53 + 2), 2.0**52 + 1.0, 4503599627370495.5,
    0.1, 16777217.0, 3.4028235e38, 3.5e38, -3.5e38, 1e-46, 1.4e-45,
    float("nan"), float("inf"), float("-inf"),
]

_coerce_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(_COERCE_EDGES),
    st.integers(-10**4, 10**4).map(lambda k: k + 0.5),
    st.integers(-(2**65), 2**65).map(float),
    st.integers(2**52 + 1, 2**53).map(float),
    st.integers(-(2**53), -(2**52) - 1).map(float),
)


def _assert_coerce_matches_scalar(schema, values):
    try:
        expected = np.array([
            [coerce_gene(v, t) for v, t in zip(row, schema.types)]
            for row in values.tolist()
        ])
    except NonFiniteGene:
        with pytest.raises(NonFiniteGene):
            schema.coerce(values)
        return
    got = schema.coerce(values)
    # Bit-identical, so 0.0 and -0.0 count as different.
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("gene_type", list(GeneType))
@given(values=hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                         elements=_coerce_values))
def test_schema_coerce_matches_coerce_gene(gene_type, values):
    n = values.shape[1]
    schema = GeneSchema([UNCONSTRAINED] * n, [gene_type] * n, INIT_RANGE)
    _assert_coerce_matches_scalar(schema, values)


@given(data=st.data())
def test_schema_coerce_matches_coerce_gene_mixed_types(data):
    types = data.draw(st.lists(st.sampled_from(list(GeneType)), min_size=1, max_size=8))
    rows = data.draw(st.integers(1, 5))
    values = data.draw(hnp.arrays(float, (rows, len(types)), elements=_coerce_values))
    schema = GeneSchema([UNCONSTRAINED] * len(types), types, INIT_RANGE)
    _assert_coerce_matches_scalar(schema, values)


# --- sampling -----------------------------------------------------------------

def test_sample_singleton_set():
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert _schema(DiscreteSet((7,)), GeneType.FLOAT64).rules[0].sample(rng) == 7.0


def test_sample_step_lattice_with_int_type():
    rng = np.random.default_rng(1)
    seen = {
        _schema(ValueRange(0, 10, step=5), GeneType.INT32).rules[0].sample(rng) for _ in range(200)
    }
    assert seen == {0.0, 5.0}


def test_sample_unconstrained_respects_init_range():
    rng = np.random.default_rng(2)
    schema = _schema(UNCONSTRAINED, GeneType.FLOAT64)
    draws = np.array([schema.rules[0].sample(rng) for _ in range(10_000)])
    assert np.all(draws >= -4.0) and np.all(draws < 4.0)
    # the draws should actually spread over the range
    assert draws.min() < -3.5 and draws.max() > 3.5


def test_sample_discrete_set_membership():
    rng = np.random.default_rng(3)
    values = (0.25, 1.5, -3.0, 2.0)
    for _ in range(200):
        assert _schema(DiscreteSet(values), GeneType.FLOAT64).rules[0].sample(rng) in values


def test_sample_continuous_range_half_open():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        v = _schema(ValueRange(2.0, 3.0), GeneType.FLOAT64).rules[0].sample(rng)
        assert 2.0 <= v < 3.0


def test_sample_empty_typed_lattice_raises():
    # lattice {0.5, 1.5, 2.5} holds no representable int32 value, which
    # compiling the schema finds before any draw
    message = ("gene 0 (int32): no value of ValueRange(lo=0.5, hi=3.0, step=1.0) is "
               "representable as int32")
    with pytest.raises(EmptySpace, match=f"^{re.escape(message)}$"):
        _schema(ValueRange(0.5, 3.0, step=1.0), GeneType.INT32)


def test_compiling_a_set_value_past_its_type_names_the_rules_first_gene():
    spaces = [UNCONSTRAINED] + [DiscreteSet((1e300, 1, 2))] * 2
    message = ("gene 1 (int): gene value 1e+300 exceeds the exact double-precision "
               "integer range")
    with pytest.raises(NonFiniteGene, match=f"^{re.escape(message)}$"):
        GeneSchema(spaces, [GeneType.PYINT] * 3, INIT_RANGE)


@pytest.mark.parametrize("space, gene_type", [
    (ValueRange(0, 1), GeneType.INT8),
    (ValueRange(0, 1, step=0.1), GeneType.FLOAT32),
    (ValueRange(1e9, 1e9 + 100), GeneType.FLOAT32),
    (ValueRange(1.0, 1.0011, step=0.0001), GeneType.FLOAT64),
])
def test_typed_range_draws_only_admissible_values(space, gene_type):
    # Coercing a draw can leave the range (1.0 for int8 on [0, 1)) or the
    # lattice (float32 rounds 0.1), and the last of the 12 points of
    # 1.0 + k * 0.0001 rounds up to hi; such a value is never returned.
    schema = _schema(space, gene_type)
    rng = np.random.default_rng(0)
    assert all(schema.rules[0].contains(schema.rules[0].sample(rng)) for _ in range(1000))


def test_typed_range_without_admissible_value_raises():
    # [0.2, 0.4) holds no int8, which compiling the schema finds before any draw.
    message = ("gene 0 (int8): no value of ValueRange(lo=0.2, hi=0.4, step=None) is "
               "representable as int8")
    with pytest.raises(EmptySpace, match=f"^{re.escape(message)}$"):
        _schema(ValueRange(0.2, 0.4), GeneType.INT8)


_FLOAT32_MAX = float(np.finfo(np.float32).max)


# Each range's least value of its type, or None when the type holds none in it.
@pytest.mark.parametrize("lo, hi, gene_type, least", [
    (126.5, 127.5, GeneType.INT8, 127.0),
    (127.5, 300.0, GeneType.INT8, None),  # 128 and up clamp to 127, below lo
    (-128.5, -127.5, GeneType.INT8, -128.0),
    (-200.0, -128.5, GeneType.INT8, None),  # -129 and down clamp to -128, at or above hi
    (-1.0, 0.0, GeneType.UINT8, None),  # 0 is hi
    (-1.0, 0.5, GeneType.UINT8, 0.0),
    (0.2, 0.4, GeneType.UINT64, None),
    (2.0**53, 1e300, GeneType.PYINT, 2.0**53),  # nonempty, though a draw almost never keeps
    (2.0**53 + 2, 1e300, GeneType.PYINT, None),
    (-1e300, -(2.0**53), GeneType.PYINT, None),  # -2**53 is hi
    (-1e300, 1e300, GeneType.PYINT, -(2.0**53)),
    (16777217.0, 16777218.0, GeneType.FLOAT32, None),  # float32 holds 2**24 and 2**24 + 2
    (16777216.0, 16777217.0, GeneType.FLOAT32, 16777216.0),
    (16777215.5, 16777216.0, GeneType.FLOAT32, None),
    (1e9 + 1, 1e9 + 64, GeneType.FLOAT32, None),  # float32 holds 1e9 and 1e9 + 64
    (1e9 + 1, 1e9 + 64.5, GeneType.FLOAT32, 1e9 + 64),
    (_FLOAT32_MAX, 1e39, GeneType.FLOAT32, _FLOAT32_MAX),
    (1e39, 1e40, GeneType.FLOAT32, None),  # no step may overflow to inf
    (-1e40, -1e39, GeneType.FLOAT32, None),
    (-1e40, -_FLOAT32_MAX, GeneType.FLOAT32, None),
    (-1e40, 0.0, GeneType.FLOAT32, -_FLOAT32_MAX),
    (0.2, 0.2000000000000001, GeneType.FLOAT64, 0.2),
])
def test_a_continuous_range_compiles_exactly_when_it_holds_a_value_of_its_type(lo, hi, gene_type,
                                                                              least):
    space = ValueRange(lo, hi)
    if least is None:
        message = f"gene 0 ({gene_type.value}): no value of {space!r} is representable as "
        with pytest.raises(EmptySpace, match=f"^{re.escape(message)}"):
            _schema(space, gene_type)
    else:
        rule = _schema(space, gene_type).rules[0]
        assert rule.fit(least) == least and genome._least_at_or_above(lo, gene_type) == least


@pytest.mark.parametrize("space", [
    ValueRange(0, 50, step=2.5), ValueRange(-10, 10, step=5), ValueRange(0, 1, step=0.1),
    ValueRange(0.5, 3.0, step=1.0), ValueRange(0, 2**21, step=1),
])
def test_float64_lattice_draws_follow_the_step_formula(space):
    # An enumerated lattice (and one too large to enumerate) draws the same
    # values as lo + k * step with k uniform, from the same stream.
    rule = _schema(space, GeneType.FLOAT64).rules[0]
    size = genome._lattice_size(space)
    enumerated, formula = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(500):
        assert rule.sample(enumerated) == space.lo + int(formula.integers(size)) * space.step


@pytest.mark.parametrize("gene_type", list(GeneType))
@given(space=gene_spaces(), seed=st.integers(0, 2**32 - 1),
       values=st.lists(st.one_of(st.floats(-1e4, 1e4), st.floats(-(2.0**52), 2.0**52)),
                       max_size=5))
def test_every_drawn_admitted_or_repaired_value_is_admissible(gene_type, space, seed, values):
    try:
        cfg = validate(GaConfig(num_generations=1, sol_per_pop=10, num_parents_mating=5,
                                num_genes=3, gene_space=space, gene_type=gene_type))
    except ConfigError:
        assume(False)
    try:
        schema = GeneSchema.from_config(cfg)
    except EmptySpace:
        # Only an enumerated lattice can be found empty when compiling.
        assert isinstance(space, ValueRange) and space.step is not None
        return
    except NonFiniteGene:
        # A discrete value the type cannot hold: validate rejects non-finite ones, so an
        # int beyond 2**53.
        assert isinstance(space, DiscreteSet)
        return
    rng = np.random.default_rng(seed)
    outputs = []
    try:
        outputs += [schema.rules[0].sample(rng) for _ in range(10)]
        outputs += [schema.rules[0].admit(v, rng) for v in values]
        outputs += schema.repair([outputs[0]] * 3, rng).tolist()
    except EmptySpace:
        # A rule that redraws may find no admissible value within its budget.
        assert schema.rules[0].array is None
    except InsufficientSpace:
        pass
    for v in outputs:
        assert schema.rules[0].contains(v) and coerce_gene(v, gene_type) == v


def test_pyint_draws_beyond_exact_integers_are_misses():
    # Most of [0, 1e17) lies beyond 2**53, where PYINT holds no integer: those
    # draws are redrawn (and those values resampled by admit), not raised.
    schema = _schema(ValueRange(0, 1e17), GeneType.PYINT)
    rng = np.random.default_rng(0)
    drawn = [schema.rules[0].sample(rng) for _ in range(200)]
    drawn += [schema.rules[0].admit(v, rng) for v in (2.0**60, -(2.0**60))]
    assert all(schema.rules[0].contains(v) and v <= 2.0**53 for v in drawn)
    assert schema.rules[0].admit(1e12 + 0.4, rng) == 1e12
    with pytest.raises(NonFiniteGene):
        schema.rules[0].admit(float("inf"), rng)
    with pytest.raises(EmptySpace):
        _schema(ValueRange(-1e300, 1e300), GeneType.PYINT).rules[0].sample(rng)


@pytest.mark.parametrize("space, top", [
    (ValueRange(2**53 - 10, 2**53 + 10, 1), 2.0**53),
    (ValueRange(2**53 - 20, 2**53 + 20, 4), 2.0**53),
    (ValueRange(0, 1e17, 1e11), 90071 * 1e11),  # the last multiple of 1e11 below 2**53
])
def test_pyint_lattice_keeps_only_exact_integers(space, top):
    # An enumerated lattice drops the points PYINT cannot hold when compiled,
    # and keeps every other point that coerces to itself.
    schema = _schema(space, GeneType.PYINT)
    points = [space.lo + k * space.step for k in range(genome._lattice_size(space))]
    expected = sorted({p for p in points if p <= 2.0**53 and coerce_gene(p, GeneType.PYINT) == p})
    assert schema.rules[0].array.tolist() == expected and expected[-1] == top
    rng = np.random.default_rng(0)
    assert all(schema.rules[0].contains(schema.rules[0].sample(rng)) for _ in range(100))
    assert schema.rules[0].admit(2.0**60, rng) in expected


@pytest.mark.parametrize("space, held, beyond", [
    (ValueRange(2**53 - 10, 2**53 + 10, 1), 2.0**53, 2.0**53 + 2),
    (ValueRange(0, 2**60, 2**40), 2.0**40, 2.0**54),  # 2**20 points: enumerated
    (ValueRange(0, 2**61, 2**40), 2.0**40, 2.0**54),  # too many points to enumerate
    (DiscreteSet((0, 2**53)), 2.0**53, 2.0**53 + 2),
])
def test_pyint_contains_is_false_beyond_exact_integers(space, held, beyond):
    # A lattice point PYINT cannot hold is not admissible; asking must not raise.
    schema = _schema(space, GeneType.PYINT)
    assert schema.rules[0].contains(held)
    assert not schema.rules[0].contains(beyond)


def test_pyint_lattice_beyond_exact_integers_is_empty():
    with pytest.raises(EmptySpace):
        _schema(ValueRange(2**53 + 2, 2**53 + 20, 2), GeneType.PYINT)


def test_space_contains_basics():
    def contains(space, v):
        return _schema(space, GeneType.FLOAT64).rules[0].contains(v)

    assert contains(UNCONSTRAINED, 123.0)
    assert contains(DiscreteSet((1, 2)), 2.0)
    assert not contains(DiscreteSet((1, 2)), 3.0)
    assert contains(ValueRange(0, 1), 0.0)
    assert not contains(ValueRange(0, 1), 1.0)
    assert contains(ValueRange(0, 10, 2.5), 7.5)
    assert not contains(ValueRange(0, 10, 2.5), 7.0)


def test_admit_keeps_admissible_values_and_resamples_the_rest():
    schema = GeneSchema([ValueRange(0, 10, step=2), DiscreteSet((1.5, 2.5)), UNCONSTRAINED],
                        [GeneType.INT8, GeneType.FLOAT64, GeneType.UINT8], INIT_RANGE)
    rng = np.random.default_rng(0)
    assert schema.rules[0].admit(3.6, rng) == 4.0  # rounds onto the lattice and stays
    assert schema.rules[2].admit(300.0, rng) == 255.0  # clamps; any uint8 is admissible
    assert schema.rules[1].admit(2.5, rng) == 2.5
    kept = schema.rules[1].admit(np.float32(2.5), rng)  # comes back a float, as from coerce_gene
    assert kept == 2.5 and type(kept) is float
    # An inadmissible value draws exactly what sample would, from the same stream.
    for j, v in ((0, 5.0), (0, 10.0), (1, 2.0)):
        assert schema.rules[j].admit(v, np.random.default_rng(7)) == schema.rules[j].sample(
            np.random.default_rng(7))
    with pytest.raises(NonFiniteGene):
        schema.rules[0].admit(float("nan"), rng)


# --- duplicate repair -----------------------------------------------------------

def test_repair_keeps_first_occurrence():
    rng = np.random.default_rng(0)
    schema = _schema(DiscreteSet((1, 2, 3, 4)), GeneType.FLOAT64, 3)
    for _ in range(50):
        repaired = schema.repair([2, 2, 3], rng)
        assert repaired[0] == 2.0 and repaired[2] == 3.0
        assert repaired[1] in (1.0, 4.0)
        assert len(set(repaired.tolist())) == 3


def test_repair_identity_when_distinct():
    rng = np.random.default_rng(0)
    schema = _schema(DiscreteSet((1, 2, 3)), GeneType.FLOAT64, 2)
    assert schema.repair([1, 2], rng).tolist() == [1.0, 2.0]


def test_repair_pigeonhole_raises():
    rng = np.random.default_rng(0)
    schema = _schema(DiscreteSet((1, 2)), GeneType.FLOAT64, 3)
    with pytest.raises(InsufficientSpace):
        schema.repair([1, 1, 2], rng)


def test_repair_continuous_space():
    rng = np.random.default_rng(0)
    schema = _schema(UNCONSTRAINED, GeneType.FLOAT64, 2)
    repaired = schema.repair([1.5, 1.5], rng)
    assert repaired[0] == 1.5
    assert repaired[1] != 1.5


def test_repair_changes_only_left_duplicates():
    rng = np.random.default_rng(9)
    space = DiscreteSet(tuple(range(20)))
    schema = _schema(space, GeneType.INT16, 6)
    for _ in range(200):
        genes = rng.integers(0, 20, size=6).astype(float)
        seen = set()
        duplicate_positions = set()
        for j, v in enumerate(genes.tolist()):
            if v in seen:
                duplicate_positions.add(j)
            seen.add(v)
        repaired = schema.repair(genes, rng)
        changed = {j for j in range(6) if repaired[j] != genes[j]}
        assert changed <= duplicate_positions
        assert len(set(repaired.tolist())) == 6


def test_schema_repair_of_population_matches_row_scan():
    # Skipping already-distinct rows must not move any draw of the rows that
    # are repaired: compare against a scan of every row with the same stream.
    schema = GeneSchema([DiscreteSet(tuple(range(12)))] * 5 + [UNCONSTRAINED],
                        [GeneType.INT8] * 5 + [GeneType.FLOAT32], INIT_RANGE)
    pick = np.random.default_rng(4)
    for seed in range(50):
        pop = pick.integers(0, 12, size=(8, 6)).astype(float)
        rng = np.random.default_rng(seed)
        expected = np.array([schema._repair_row(row, rng) for row in pop.tolist()])
        assert np.array_equal(schema.repair(pop, np.random.default_rng(seed)), expected)


# --- population construction ----------------------------------------------------

def test_init_population_shape_and_range():
    cfg = validate(GaConfig(num_generations=1, sol_per_pop=10, num_parents_mating=5, num_genes=3))
    pop = init_population(cfg, np.random.default_rng(0))
    assert pop.shape == (10, 3)
    assert np.all(pop >= -4.0) and np.all(pop < 4.0)


def test_init_population_discrete_membership():
    cfg = validate(GaConfig(num_generations=1, sol_per_pop=8, num_parents_mating=2, num_genes=5,
                            gene_space=DiscreteSet((0, 1)), gene_type=GeneType.INT8))
    pop = init_population(cfg, np.random.default_rng(1))
    assert set(np.unique(pop)) <= {0.0, 1.0}


def test_init_population_user_rows_returned():
    rows = np.arange(30, dtype=float).reshape(10, 3)
    cfg = validate(GaConfig(num_generations=1, sol_per_pop=10, num_parents_mating=5, num_genes=3,
                            initial_population=rows))
    pop = init_population(cfg, np.random.default_rng(0))
    assert np.array_equal(pop, rows)


def test_init_population_user_rows_coerced():
    rows = [[2.4, -1.6], [0.5, 3.49]]
    cfg = validate(GaConfig(num_generations=1, sol_per_pop=2, num_parents_mating=2, num_genes=2,
                            gene_type=GeneType.INT8, initial_population=rows))
    pop = init_population(cfg, np.random.default_rng(0))
    assert pop.tolist() == [[2.0, -2.0], [1.0, 3.0]]


def test_init_population_wrong_shape_rejected():
    import dataclasses

    cfg = validate(GaConfig(num_generations=1, sol_per_pop=2, num_parents_mating=2, num_genes=2))
    bad = dataclasses.replace(cfg, initial_population=((1.0, 2.0),))
    with pytest.raises(DimensionMismatch):
        init_population(bad, np.random.default_rng(0))


def test_init_population_distinct_genes_when_required():
    cfg = validate(GaConfig(num_generations=1, sol_per_pop=20, num_parents_mating=5, num_genes=6,
                            gene_space=DiscreteSet(tuple(range(10))),
                            gene_type=GeneType.INT8, allow_duplicate_genes=False))
    for seed in range(10):
        pop = init_population(cfg, np.random.default_rng(seed))
        for row in pop:
            assert len(set(row.tolist())) == 6


def test_membership_closure_over_seeded_populations():
    spaces = [DiscreteSet((0, 1, 2)), ValueRange(0, 10, step=2.5), UNCONSTRAINED,
              ValueRange(-1, 1)]
    types = [GeneType.INT8, GeneType.FLOAT64, GeneType.FLOAT32, GeneType.FLOAT64]
    cfg = validate(GaConfig(num_generations=1, sol_per_pop=25, num_parents_mating=5, num_genes=4,
                            gene_space=spaces, gene_type=types))
    schema = GeneSchema.from_config(cfg)
    for seed in range(20):
        pop = init_population(cfg, np.random.default_rng(seed))
        for row in pop:
            for j, v in enumerate(row):
                assert schema.rules[j].contains(float(v))
                assert coerce_gene(float(v), types[j]) == float(v)


def _per_gene_init(cfg, schema, rng):
    """The per-gene init loop the row sampler replaced: the reference it must match."""
    pop = np.empty((cfg.sol_per_pop, cfg.num_genes))
    for i in range(cfg.sol_per_pop):
        pop[i] = [rule.sample(rng) for rule in schema.rules]
        if not cfg.allow_duplicate_genes:
            pop[i] = schema.repair(pop[i], rng)
    return pop


_NON_PYINT = [t for t in GeneType if t is not GeneType.PYINT]

# Genes by how the row sampler draws them: an index into a finite rule's values
# (size-1 sets, sets whose values coerce to repeats, enumerated lattices), one
# uniform draw (an unconstrained gene of any type but int), or scalar redraws.
_FINITE_GENES = st.tuples(
    st.one_of(
        st.lists(st.sampled_from([0.0, 0.2, 0.5, 1.0, 2.5, -3.0, 7.0, 300.0]),
                 min_size=1, max_size=4, unique=True).map(lambda v: DiscreteSet(tuple(v))),
        st.sampled_from([ValueRange(0, 10, 1), ValueRange(-2, 2, 0.5), ValueRange(0, 3000, 7)]),
    ),
    st.sampled_from(list(GeneType)),
)
_UNIFORM_GENES = st.tuples(st.just(UNCONSTRAINED), st.sampled_from(_NON_PYINT))
_REDRAW_GENES = st.one_of(
    st.tuples(st.sampled_from([ValueRange(-1, 1), ValueRange(0, 100)]),
              st.sampled_from(list(GeneType))),
    st.tuples(st.just(ValueRange(0, 2**21, 1)),  # too many points to enumerate
              st.sampled_from([GeneType.FLOAT64, GeneType.INT32, GeneType.PYINT])),
    st.just((UNCONSTRAINED, GeneType.PYINT)),
)
_ANY_GENES = st.one_of(_FINITE_GENES, _UNIFORM_GENES, _REDRAW_GENES)
# Rows of one kind draw the whole population in one call; mixed rows, segment by segment.
_GENE_ROWS = st.one_of(*(st.lists(genes, min_size=1, max_size=8)
                         for genes in (_FINITE_GENES, _UNIFORM_GENES, _REDRAW_GENES, _ANY_GENES)))

_LATTICE = ValueRange(0, 200, 1)
_LATTICE_TYPES = (GeneType.INT32, GeneType.INT16, GeneType.UINT16, GeneType.INT64)


@settings(max_examples=300)
@given(genes=_GENE_ROWS, shared=st.booleans(),
       rows=st.integers(1, 6), distinct=st.booleans(), half_word=st.booleans(),
       init_range=st.sampled_from([(-4.0, 4.0), (-1000.0, 1000.0), (-1e300, 1e300)]),
       seed=st.integers(0, 2**32 - 1))
# The lattice workload's shape: four integer types on one 200-point lattice, so
# four held rules of one size at different offsets into the table.
@example(genes=[(_LATTICE, t) for t in _LATTICE_TYPES] * 2, shared=False, rows=3, distinct=True,
         half_word=True, init_range=(-4.0, 4.0), seed=0)
def test_init_population_draws_what_the_per_gene_loop_draws(genes, shared, rows, distinct,
                                                           half_word, init_range, seed):
    if shared:  # every gene on the first gene's own space and type objects
        genes = [genes[0]] * len(genes)
    spaces, types = zip(*genes)
    try:
        cfg = validate(GaConfig(num_generations=1, sol_per_pop=rows, num_parents_mating=1,
                                num_genes=len(genes), crossover=None, mutation=None,
                                keep_parents=0, init_range=init_range,
                                allow_duplicate_genes=not distinct,
                                gene_space=list(spaces), gene_type=list(types)))
        schema = GeneSchema.from_config(cfg)
    except (ConfigError, EmptySpace, NonFiniteGene):
        assume(False)

    def outcome(init):
        rng = np.random.default_rng(seed)
        if half_word:
            rng.integers(2)  # a 32-bit draw leaves the other half of its word buffered
            assert rng.bit_generator.state["has_uint32"] == 1
        try:
            pop = init(rng).tobytes()
        except GaError as err:
            pop = type(err)
        return pop, rng.bit_generator.state

    expected = outcome(lambda rng: _per_gene_init(cfg, schema, rng))
    assert outcome(lambda rng: init_population(cfg, rng, schema)) == expected
    if shared:
        # Equal but distinct space objects: a slot per gene, and still one rule drawing the same.
        copies = dataclasses.replace(
            cfg, gene_space=tuple(dataclasses.replace(space) for space in spaces))
        copied = GeneSchema.from_config(copies)
        for rules in (schema.rules, copied.rules):
            assert all(rule is rules[0] for rule in rules)
        assert _rule_answers(copied.rules[0]) == _rule_answers(schema.rules[0])
        assert outcome(lambda rng: init_population(copies, rng, copied)) == expected


def _rule_answers(rule) -> tuple:
    """What a compiled rule holds, comparable across compiles."""
    return (rule.space, rule.kind, *(None if a is None else a.tobytes() for a in (rule.array, rule.pool)))


class _IntegersCalls:
    """A PCG64 Generator that records the arguments of each integers call it passes on."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self.calls: list = []

    def integers(self, *args, **kwargs):
        self.calls.append((args, kwargs))
        return self._rng.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


_LATTICE_CFG = Path(__file__).parent.parent / "perfbench" / "lattice.cfg"


@pytest.mark.parametrize("argv, high, size, rows", [
    (["--problem", "onemax"], 2, (50, 100), 1),
    (["--problem", "onemax", "--genes", "40", "--pop", "20", "--parents", "6",
      "--config", str(_LATTICE_CFG)], 200, (1, 40), 20),  # duplicates repaired row by row
])
def test_held_presets_draw_init_with_one_scalar_bound_call_per_block(argv, high, size, rows):
    # Both workloads' held genes share one size, so each block of rows is one
    # integers call with that size as a Python int: numpy's own scalar-bound call.
    cfg, _ = build_solve_config(parse_invocation(["solve", *argv]))
    rng = _IntegersCalls(7)
    pop = init_population(cfg, rng)
    assert pop.tobytes() == init_population(cfg, np.random.default_rng(7)).tobytes()
    blocks = [(args, kwargs) for args, kwargs in rng.calls if "size" in kwargs]
    assert blocks == [((0, high), {"size": size})] * rows
    assert all(type(args[1]) is int for args, _ in blocks)
    if rows == 1:  # no repair, so no other draw
        assert rng.calls == blocks


def test_held_genes_of_different_sizes_draw_init_with_the_array_bound_call():
    spaces = [DiscreteSet((0, 1)), DiscreteSet((0, 1, 2))] * 3
    cfg = validate(GaConfig(num_generations=1, sol_per_pop=4, num_parents_mating=2, num_genes=6,
                            gene_space=spaces, gene_type=GeneType.INT8))
    rng = _IntegersCalls(7)
    init_population(cfg, rng)
    [((low, high), kwargs)] = rng.calls
    assert low == 0 and kwargs == {"size": (4, 6)}
    assert isinstance(high, np.ndarray) and high.tolist() == [2, 3] * 3


def test_unallocatable_population_raises_ga_error_naming_init_and_shape():
    # 710 PiB is past any 64-bit address space, so the allocation fails before
    # any memory is touched whatever the host's overcommit policy.
    cfg = validate(GaConfig(num_generations=1, sol_per_pop=10**12, num_parents_mating=2,
                            num_genes=100_000))
    for start in (lambda: init_population(cfg, np.random.default_rng(0)),
                  lambda: run(cfg, lambda solution, idx: 0.0)):
        with pytest.raises(GaError, match=r"^init: .*\(1000000000000, 100000\)$") as info:
            start()
        assert type(info.value) is GaError


# --- CSV ------------------------------------------------------------------------

def test_population_csv_round_trip():
    # One chromosome per line, comma-separated decimal genes, blank lines skipped.
    text = "0.1,-2.5,3\n\n 1e-3, 4.0 ,-0.0\n-7,1.7976931348623157e308,5e-324\n"
    pop = population_from_csv(text)
    assert pop.dtype == float and pop.shape == (3, 3)
    assert pop.tolist() == [[0.1, -2.5, 3.0], [0.001, 4.0, -0.0],
                            [-7.0, 1.7976931348623157e308, 5e-324]]
    again = population_from_csv("\n".join(",".join(map(repr, row)) for row in pop.tolist()))
    assert np.array_equal(again, pop)


def test_population_csv_rejects_ragged_rows():
    with pytest.raises(DimensionMismatch):
        population_from_csv("1.0,2.0\n3.0\n")


def test_population_csv_rejects_empty():
    with pytest.raises(DimensionMismatch):
        population_from_csv("\n")


# --- per-run compilation ----------------------------------------------------------

_FILLS = {"held": "_finite_fill", "open": "_uniform_fill", "redraw": "_redraw_fill"}


@pytest.mark.parametrize("gene_type", list(GeneType))
@given(data=st.data())
def test_each_compiled_rule_keeps_the_promise_of_its_kind(gene_type, data):
    # Gene 0 takes the parametrized type; any further genes take drawn ones.
    count = data.draw(st.integers(1, 4))
    spaces = data.draw(st.lists(gene_spaces(), min_size=count, max_size=count))
    types = [gene_type] + data.draw(st.lists(st.sampled_from(list(GeneType)),
                                             min_size=count - 1, max_size=count - 1))
    try:
        schema = GeneSchema.from_config(validate(GaConfig(
            num_generations=1, sol_per_pop=2, num_parents_mating=2, num_genes=count,
            crossover=None, gene_space=spaces, gene_type=types)))
    except (ConfigError, EmptySpace, NonFiniteGene):
        return
    for rule, t in zip(schema.rules, types):
        if rule.kind == "held":
            assert rule.array.size
            # Every value of a small array; an even spread of a large one.
            values = rule.array[::max(1, rule.array.size // 2048)].tolist() + [rule.array[-1]]
            assert all(rule.contains(v) and coerce_gene(v, t) == v for v in values)
            assert np.array_equal(rule.pool, np.unique(rule.array))
        else:
            assert rule.kind in ("open", "redraw") and rule.array is None
        if rule.kind == "open":
            for v in data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                        min_size=1, max_size=4)):
                assert rule.fit(v) is not None and rule.fit(v) == coerce_gene(v, t)
    kinds = [rule.kind for rule in schema.rules]
    assert schema.never_misses == all(kind == "open" for kind in kinds)
    assert schema.one_step_admits == ("redraw" not in kinds)
    segments = [(kinds[cols], fill) for cols, fill in schema._segments]
    assert [kind for segment, _ in segments for kind in segment] == kinds
    for (segment, fill), (after, _) in zip(segments, segments[1:] + [([None], None)]):
        assert set(segment) == {segment[0]} != {after[0]}
        assert fill.__qualname__.split(".")[0] == _FILLS[segment[0]]


def test_typed_lattice_enumerated_once_per_distinct_space_and_type(monkeypatch):
    calls = Counter()
    enumerate_lattice = genome._typed_lattice

    def counting(space, gene_type):
        calls[(space, gene_type)] += 1
        return enumerate_lattice(space, gene_type)

    monkeypatch.setattr(genome, "_typed_lattice", counting)
    wide, narrow = ValueRange(0, 200, 1), ValueRange(-50, 50, 2)
    spaces = [wide, wide, narrow, wide, narrow, ValueRange(0, 200, 1)]
    types = [GeneType.INT32, GeneType.INT32, GeneType.INT16, GeneType.UINT16,
             GeneType.INT16, GeneType.INT32]
    cfg = validate(GaConfig(num_generations=20, sol_per_pop=10, num_parents_mating=4,
                            num_genes=6, gene_space=spaces, gene_type=types,
                            allow_duplicate_genes=False, mutation_by_replacement=True,
                            mutation_rate=PercentGenes(50)))
    run(cfg, lambda solution, idx: float(np.sum(solution)))
    assert calls == {(wide, GeneType.INT32): 1, (narrow, GeneType.INT16): 1,
                     (wide, GeneType.UINT16): 1}


def _reference_compile(spaces, types, init_range):
    """Each gene's rule compiled on its own, as a lone gene would be, or the first error."""
    rules = []
    for j, (space, gene_type) in enumerate(zip(spaces, types)):
        try:
            rules.append(genome._GeneRule(space, gene_type, init_range))
        except (EmptySpace, NonFiniteGene) as err:
            return type(err), f"gene {j} ({gene_type.value}): {err}"
    return rules


def _reference_rows(rules, types, rng, rows: int) -> np.ndarray:
    """rows chromosomes drawn gene by gene, row by row; a failed sample names its place."""
    out = np.empty((rows, len(rules)))
    for i in range(rows):
        for j, rule in enumerate(rules):
            try:
                out[i, j] = rule.sample(rng)
            except EmptySpace as err:
                raise EmptySpace(f"row {i}, gene {j} ({types[j].value}): {err}") from None
    return out


# Pairs whose compile fails: a set value past int's exact range, a lattice with
# no int32 point, a range with no int8 value.
_FAILING_GENES = st.sampled_from([(DiscreteSet((1e300,)), GeneType.PYINT),
                                  (ValueRange(0.5, 3, 1), GeneType.INT32),
                                  (ValueRange(0.2, 0.4), GeneType.INT8)])


@settings(max_examples=300)
@given(pool=st.lists(st.one_of(_ANY_GENES, _FAILING_GENES), min_size=1, max_size=4),
       picks=st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=10),
       shared=st.booleans(), rows=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
# Every gene on one space object but not one type object, and on one type but not one space.
@example(pool=[(UNCONSTRAINED, GeneType.INT8), (UNCONSTRAINED, GeneType.FLOAT32)],
         picks=[(0, False), (1, False), (0, False)], shared=False, rows=2, seed=0)
@example(pool=[(DiscreteSet((0, 1)), GeneType.INT8), (DiscreteSet((2, 3)), GeneType.INT8)],
         picks=[(0, False), (0, False), (1, False)], shared=False, rows=2, seed=0)
def test_schema_shares_a_rule_exactly_between_equal_pairs_and_answers_as_per_gene(pool, picks,
                                                                                 shared, rows,
                                                                                 seed):
    # Shared, every gene takes the first entry's own objects, and then each gene an equal copy.
    layouts = [picks] if not shared else [[(0, False)] * len(picks), [(0, True)] * len(picks)]
    answers = [_schema_answers_as_per_gene(pool, layout, rows, seed) for layout in layouts]
    assert answers[-1] == answers[0]


def _schema_answers_as_per_gene(pool, picks, rows, seed):
    """Assert that the schema of the picked genes answers as each gene's own rule; its answers."""
    # A gene takes a pool entry's space itself, or an equal space that is another object.
    genes = [pool[i % len(pool)] for i, _ in picks]
    spaces = [dataclasses.replace(space) if fresh else space
              for (space, _), (_, fresh) in zip(genes, picks)]
    types = [gene_type for _, gene_type in genes]
    reference = _reference_compile(spaces, types, INIT_RANGE)
    try:
        schema = GeneSchema(spaces, types, INIT_RANGE)
    except (EmptySpace, NonFiniteGene) as err:
        assert (type(err), str(err)) == reference
        return reference
    pairs = list(zip(spaces, types))
    for j, k in itertools.product(range(len(pairs)), repeat=2):
        assert (schema.rules[j] is schema.rules[k]) == (pairs[j] == pairs[k])
    for rule, expected, space in zip(schema.rules, reference, spaces):
        assert rule.space == space and rule.kind == expected.kind
        for got, want in ((rule.array, expected.array), (rule.pool, expected.pool)):
            assert got is want is None or got.tobytes() == want.tobytes()
    kinds = [rule.kind for rule in reference]
    assert schema.unconstrained == tuple(isinstance(space, Unconstrained) for space in spaces)
    assert schema.never_misses == all(kind == "open" for kind in kinds)
    assert schema.one_step_admits == ("redraw" not in kinds)
    columns: dict = {}
    for j, gene_type in enumerate(types):
        columns.setdefault(gene_type, []).append(j)
    assert [(t, cols.tolist()) for t, cols in schema._groups] == [
        (t, cols) for t, cols in columns.items() if t is not GeneType.FLOAT64]
    assert all(cols.dtype == np.intp for _, cols in schema._groups)
    runs = [len(list(run)) for _, run in itertools.groupby(kinds)]
    starts = list(itertools.accumulate([0] + runs))
    segments = [(cols.start, cols.stop) for cols, _ in schema._segments]
    assert segments == list(zip(starts, starts[1:]))

    def outcome(sample):
        rng = np.random.default_rng(seed)
        try:
            out = sample(rng).tobytes()
        except EmptySpace as err:
            out = (EmptySpace, str(err))
        return out, rng.bit_generator.state

    sampled = outcome(lambda rng: schema._sample_rows(rng, rows))
    assert sampled == outcome(lambda rng: _reference_rows(reference, types, rng, rows))
    return ([_rule_answers(rule) for rule in schema.rules], [rule.kind for rule in reference],
            [(t, cols.tolist()) for t, cols in schema._groups], segments, sampled)


def test_a_validated_config_is_compiled_once_and_a_replaced_copy_again(monkeypatch):
    built = []
    compile_rule = genome._GeneRule
    monkeypatch.setattr(genome, "_GeneRule",
                        lambda *args: built.append(args) or compile_rule(*args))
    spaces = [DiscreteSet((0, 1, 2, 3)), ValueRange(0, 10), UNCONSTRAINED, ValueRange(0, 10, 1)]
    cfg = validate(GaConfig(num_generations=3, sol_per_pop=6, num_parents_mating=2,
                            num_genes=4, gene_space=spaces, gene_type=GeneType.INT8,
                            allow_duplicate_genes=False))
    assert len(built) == 4
    schema = GeneSchema.from_config(cfg)
    init_population(cfg, np.random.default_rng(0))
    run(cfg, lambda solution, idx: float(np.sum(solution)))
    assert len(built) == 4 and GeneSchema.from_config(cfg) is schema
    # dataclasses.replace drops the compile: the copy's fields may differ, so it compiles anew.
    copy = dataclasses.replace(cfg, init_range=(-2.0, 2.0))
    assert GeneSchema.from_config(copy).init_range == (-2.0, 2.0) and len(built) == 8


def test_onemax_compiles_one_rule_and_hashes_no_space_or_type_per_gene(monkeypatch):
    built, hashes = [], Counter()
    compile_rule = genome._GeneRule
    space_hash, type_hash = DiscreteSet.__hash__, GeneType.__hash__

    def counting(*args):
        built.append(args)
        return compile_rule(*args)

    def compile_counting(genes: int) -> tuple:
        # validate compiles the schema; from_config hands that compile back.
        built.clear()
        hashes.clear()
        cfg, _ = build_solve_config(parse_invocation(["solve", "--problem", "onemax",
                                                      "--genes", str(genes)]))
        counts = len(built), dict(hashes)
        schema = GeneSchema.from_config(cfg)
        assert len(built) == counts[0]
        assert len(schema.rules) == genes
        assert all(rule is schema.rules[0] for rule in schema.rules)
        return counts

    monkeypatch.setattr(genome, "_GeneRule", counting)
    monkeypatch.setattr(DiscreteSet, "__hash__",
                        lambda self: hashes.update(["space"]) or space_hash(self))
    monkeypatch.setattr(GeneType, "__hash__",
                        lambda self: hashes.update(["type"]) or type_hash(self))
    few = compile_counting(10)
    # One rule, and the same hash counts for 10 genes and for 100: none is paid per gene.
    assert few[0] == 1 and few == compile_counting(100)
    # Nor is any Python line: compiling runs as many for 10 genes as for 10,000.
    assert _lines_run_compiling_onemax(10) == _lines_run_compiling_onemax(10_000)


def _lines_run_compiling_onemax(genes: int) -> int:
    cfg, _ = build_solve_config(parse_invocation(["solve", "--problem", "onemax",
                                                  "--genes", str(genes)]))
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return trace

    copy = dataclasses.replace(cfg)  # a copy drops validate's compile, so it compiles again
    sys.settrace(trace)
    try:
        GeneSchema.from_config(copy)
    finally:
        sys.settrace(None)
    return lines


def test_a_failed_sample_names_its_row_and_gene(monkeypatch):
    # Two distinct redraw rules, then a held one: the row sampler draws row by row.
    spaces = [ValueRange(0, 1), ValueRange(0, 2), DiscreteSet((5,))]
    types = [GeneType.FLOAT64, GeneType.INT8, GeneType.FLOAT64]
    calls = []

    def failing_third(rng):
        calls.append(None)
        if len(calls) == 3:
            raise EmptySpace("no value")
        return 1.0

    for distinct, gene_count in ((False, 3), (True, 3), (False, 2)):
        schema = GeneSchema(spaces[:gene_count], types[:gene_count], INIT_RANGE)
        monkeypatch.setattr(schema.rules[1], "sample", failing_third)
        calls.clear()
        cfg = validate(GaConfig(num_generations=1, sol_per_pop=4, num_parents_mating=2,
                                num_genes=gene_count, gene_space=spaces[:gene_count],
                                gene_type=types[:gene_count],
                                allow_duplicate_genes=not distinct))
        with pytest.raises(EmptySpace, match=r"^row 2, gene 1 \(int8\): no value$"):
            init_population(cfg, np.random.default_rng(0), schema)


def test_schema_rejects_unequal_space_and_type_counts():
    with pytest.raises(DimensionMismatch):
        GeneSchema([UNCONSTRAINED] * 3, [GeneType.FLOAT64] * 2, INIT_RANGE)
