"""numpy's RNG as gakit rebuilds it or relies on it, against numpy: values and end state.

The run's stage streams (draws.StageStreams) against default_rng, the word
replay (draws.Words) method by method, and the numpy equalities the init row
sampler and mutation's draws rest on. This file is the guard on every numpy
algorithm gakit depends on: if a numpy release changes one, it fails here.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gakit import draws
from gakit.draws import StageStreams, Words, replayed
from gakit.genome import UNCONSTRAINED, DiscreteSet, GeneSchema, GeneType, ValueRange

_SEEDS = range(12)


def _replays(draw, seed, half_word):
    """Assert that draw gives the same values and end state through Words as on the Generator."""
    direct, words_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if half_word:
        # a 32-bit draw leaves the other half of its word buffered
        direct.integers(2)
        words_rng.integers(2)
        assert direct.bit_generator.state["has_uint32"] == 1
    expected = draw(direct)
    words = Words(words_rng)
    got = draw(words)
    words.close()
    assert got == expected
    assert words_rng.bit_generator.state == direct.bit_generator.state


# Bounds 2**31 + 1 reject about half of their 32-bit draws; 2**32 is the
# largest span replayed, one raw half a draw. numpy draws a wider span and a
# bound of numpy's own integer type.
@pytest.mark.parametrize("n", [1, 2, 3, 100, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 3, 2**62, 2**63,
                               np.uint64(5)])
@pytest.mark.parametrize("half_word", [False, True])
def test_integers_replay(n, half_word):
    for seed in _SEEDS:
        # 150 draws run past one pull of words
        _replays(lambda g: [int(g.integers(n)) for _ in range(150)], seed, half_word)
        _replays(lambda g: [int(g.integers(-3, n)) for _ in range(20)], seed, half_word)


@pytest.mark.parametrize("half_word", [False, True])
def test_full_int64_span_replays(half_word):
    # span 2**64, the largest, which numpy draws
    for seed in _SEEDS:
        _replays(lambda g: [int(g.integers(-2**63, 2**63)) for _ in range(150)], seed, half_word)


@pytest.mark.parametrize("half_word", [False, True])
def test_numpy_integer_bounds_replay(half_word):
    # numpy's own integers as bounds, which numpy draws
    for seed in _SEEDS:
        _replays(lambda g: [int(g.integers(np.int64(2**32 - 1))) for _ in range(20)],
                 seed, half_word)
        _replays(lambda g: [int(g.integers(np.uint32(0), np.uint64(7))) for _ in range(20)],
                 seed, half_word)
        for k in (1, 3):
            _replays(lambda g: [int(v) for v in g.choice(np.int64(2**32 - 1), k, replace=False)],
                     seed, half_word)


@pytest.mark.parametrize("half_word", [False, True])
def test_random_and_uniform_replay(half_word):
    bounds = [(-1.0, 1.0), (-2.5, 2.5), (0.0, 0.5), (-1e300, 1e300), (3.0, 3.0)]
    for seed in _SEEDS:
        _replays(lambda g: [float(g.random()) for _ in range(150)], seed, half_word)
        _replays(lambda g: [float(g.uniform(lo, hi)) for lo, hi in bounds * 30], seed, half_word)


# numpy's choice without replacement runs Floyd's algorithm and shuffles the
# picks unless n > 10,000 and k > n // 50, when it shuffles the tail of
# arange(n). Words draws k <= 16 itself and hands longer choices to numpy;
# with n near 2**31 about half of its 32-bit draws are rejected.
@pytest.mark.parametrize("n, k", [
    (2, 2), (9, 2), (9, 9), (16, 16), (17, 16), (17, 17), (100, 2), (100, 16), (100, 17),
    (100, 100), (10_000, 16), (10_000, 201), (10_001, 200), (10_001, 201), (20_000, 16),
    (2**31 + 1, 2), (2**31 + 1, 16), (2**32 - 1, 16), (2**32, 2), (2**32 + 3, 2), (1, 0), (5, 0),
])
@pytest.mark.parametrize("half_word", [False, True])
def test_choice_without_replacement_replays(n, k, half_word):
    for seed in _SEEDS:
        _replays(lambda g: [[int(v) for v in g.choice(n, k, replace=False)] for _ in range(4)],
                 seed, half_word)


@pytest.mark.parametrize("half_word", [False, True])
def test_permutation_replays(half_word):
    for length in range(41):
        values = np.arange(length) * 1.5
        for seed in _SEEDS:
            _replays(lambda g: [g.permutation(values).tolist() for _ in range(3)], seed, half_word)


# numpy draws binomial(n, p) by inversion when min(p, 1 - p) * n <= 30 and by
# BTPE otherwise; half-word draws around it show whether the buffer survives.
@pytest.mark.parametrize("n, p", [(100, 0.05), (10, 0.9), (1000, 0.2), (1000, 0.99),
                                  (100, 0.6), (0, 0.5), (50, 0.0)])
@pytest.mark.parametrize("half_word", [False, True])
def test_binomial_replays_between_other_draws(n, p, half_word):
    def draw(g):
        return [int(g.integers(3)), int(g.binomial(n, p)), float(g.random()),
                int(g.integers(7)), int(g.binomial(n, p)), int(g.binomial(n, p)),
                int(g.integers(5))]

    for seed in _SEEDS:
        _replays(draw, seed, half_word)


def test_interleaved_draws_replay():
    def draw(g):
        out = []
        for i in range(40):
            out += [int(g.integers(1 + i)), float(g.random()), int(g.binomial(50, 0.1)),
                    int(g.integers(2**40)), float(g.uniform(-1.0, 2.0))]
            out += [int(v) for v in g.choice(30, i % 20, replace=False)]
            out += g.permutation(np.arange(i % 25)).tolist()
        return out

    for seed in _SEEDS:
        for half_word in (False, True):
            _replays(draw, seed, half_word)


@pytest.mark.parametrize("call", [
    lambda g: g.integers(0), lambda g: g.integers(5, 5), lambda g: g.integers(2**63 + 1),
    lambda g: g.uniform(1.0, 0.0), lambda g: g.uniform(-1e308, 1e308),
    lambda g: g.choice(3, 4, replace=False), lambda g: g.choice(3, -1, replace=False),
    lambda g: g.integers(2**63, 2**63 + 5), lambda g: g.integers(-2**63 - 2, -2**63 + 3),
    lambda g: g.uniform(np.nan, 1.0), lambda g: g.uniform(0.0, np.inf),
])
def test_rejected_draws_raise_what_numpy_raises_and_draw_nothing(call):
    direct, words_rng = np.random.default_rng(1), np.random.default_rng(1)
    with pytest.raises(Exception) as expected:
        call(direct)
    words = Words(words_rng)
    with pytest.raises(type(expected.value)):
        call(words)
    words.close()
    assert words_rng.bit_generator.state == direct.bit_generator.state


def test_only_pcg64_generators_are_replayed():
    pcg = np.random.default_rng(0)
    with replayed(pcg) as rng:
        assert isinstance(rng, Words)
    other = np.random.Generator(np.random.MT19937(0))
    with replayed(other) as rng:
        assert rng is other
    stand_in = object()
    with replayed(stand_in) as rng:
        assert rng is stand_in
    words = Words(np.random.default_rng(0))  # passed through, and left open
    with mock.patch.object(Words, "close") as closed, replayed(words) as rng:
        assert rng is words
    assert not closed.called


def test_replay_closes_when_the_block_raises():
    direct, words_rng = np.random.default_rng(3), np.random.default_rng(3)
    direct.integers(2)
    direct.random()
    with pytest.raises(KeyError):
        with replayed(words_rng) as rng:
            rng.integers(2)
            rng.random()
            raise KeyError
    assert words_rng.bit_generator.state == direct.bit_generator.state


# --- a generation's mutation draws from one pull ------------------------------------

def _prepared(seed, half_word, lead):
    """A generator after lead random() draws, with a pending half-word if half_word."""
    rng = np.random.default_rng(seed)
    if half_word:
        rng.integers(2)
    for _ in range(lead):
        rng.random()
    return rng


@settings(max_examples=80)
@given(length=st.integers(1, 20), ks=st.lists(st.integers(0, 16), max_size=30),
       half_word=st.booleans(), lead=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_mutation_draws_are_each_rows_choice_then_randoms(length, ks, half_word, lead, seed):
    counts = [min(k, length) for k in ks]
    direct = _prepared(seed, half_word, lead)
    positions, units = [], []
    for row, k in enumerate(counts):
        positions += (row * length + direct.choice(length, k, replace=False)).tolist()
        units += [direct.random() for _ in range(k)]
    words_rng = _prepared(seed, half_word, 0)
    words = Words(words_rng)
    for _ in range(lead):
        words.random()  # leaves pulled words unread, which the pull must first rewind
    got = words.mutation_draws(length, counts)
    words.close()
    assert got is not None
    assert got[0].tolist() == positions and got[1].tolist() == units
    assert words_rng.bit_generator.state == direct.bit_generator.state


# A bound of 2**31 rejects about half of its 32-bit draws, so 64 rows of one
# pick reject somewhere; 17 picks, a length past 2**32 - 1 and more picks than
# genes are choices that Words.choice hands to numpy.
@pytest.mark.parametrize("length, counts", [
    (2**31 + 1, [1] * 64), (2**31 + 1, [2, 16] * 8), (20, [1, 17]), (2**32, [1]), (3, [4]),
])
@pytest.mark.parametrize("half_word", [False, True])
def test_mutation_draws_give_up_having_drawn_nothing(length, counts, half_word):
    rng, direct = _prepared(7, half_word, 0), _prepared(7, half_word, 0)
    entry = rng.bit_generator.state
    words = Words(rng)
    assert words.mutation_draws(length, counts) is None
    assert rng.bit_generator.state == entry  # has_uint32 and uinteger included
    assert [words.random(), words.integers(5)] == [direct.random(), direct.integers(5)]
    words.close()
    assert rng.bit_generator.state == direct.bit_generator.state


# Genes whose admits can miss. Deltas in [-1, 1) on genes of 0.0 or 1.0 never
# land in the sets of "every admit misses" (of 3, 1 and 7 values: a set of one
# value draws nothing) and always land on the int16 lattice of "no admit misses";
# "mixed" is onemax's {0, 1} int8 genes beside unconstrained float32 genes and
# a pyint lattice, so some admits miss and some genes never do.
_ADMITS = {
    "every admit misses": ([DiscreteSet((10, 20, 30)), DiscreteSet((5,)),
                            DiscreteSet(tuple(range(40, 47)))], [GeneType.FLOAT64] * 3),
    "no admit misses": ([ValueRange(-100, 100, 1)], [GeneType.INT16]),
    "mixed": ([DiscreteSet((0, 1)), UNCONSTRAINED, DiscreteSet((0, 1)), ValueRange(-2, 2, 1)],
              [GeneType.INT8, GeneType.FLOAT32, GeneType.INT8, GeneType.PYINT]),
}


def _admitted_directly(rng, length, counts, rules, old):
    """mutate's per-row loop in direct numpy calls: flat positions and values in draw order,
    and the number of misses."""
    positions, values, misses = [], [], 0
    for row, k in enumerate(counts):
        for j in rng.choice(length, k, replace=False).tolist():
            positions.append(row * length + j)
            rule = rules[j]
            if old is None and rule.array is not None:
                v = None  # by replacement: sampled, with no delta
            else:
                v = -1.0 + 2.0 * rng.random()
                if old is not None:
                    v += old[row * length + j]
                v = rule.fit(v)
                misses += v is None
            values.append(rule.array[rng.integers(rule.array.size)] if v is None else v)
    return positions, values, misses


@pytest.mark.parametrize("case", list(_ADMITS))
@pytest.mark.parametrize("by_replacement", [False, True])
@pytest.mark.parametrize("half_word", [False, True])
def test_mutation_draws_admit_as_the_direct_calls_do(case, by_replacement, half_word):
    spaces, types = _ADMITS[case]
    length = 3 * len(spaces)
    rules = GeneSchema(spaces * 3, types * 3, (-1.0, 1.0)).rules
    for seed in range(20):
        counts = np.random.default_rng(seed).integers(0, length + 1, size=12).tolist()
        old = None if by_replacement else np.random.default_rng(seed).integers(
            0, 2, size=len(counts) * length).astype(float)
        direct = _prepared(seed, half_word, 1)
        positions, values, misses = _admitted_directly(direct, length, counts, rules, old)
        if not by_replacement and case != "mixed":
            assert misses == (sum(counts) if case == "every admit misses" else 0)
        words_rng = _prepared(seed, half_word, 0)
        words = Words(words_rng)
        words.random()  # leaves pulled words unread, which the pull must first rewind
        got = words.mutation_draws(length, counts, rules, old, -1.0, 2.0)
        words.close()
        assert got is not None
        assert got[0].tolist() == positions and got[1].tolist() == values
        assert words_rng.bit_generator.state == direct.bit_generator.state


class _ZeroedHalf:
    """A PCG64 whose next pull of raw words has one half of word `index` zeroed, low by default."""

    def __init__(self, bits, index, high=False):
        self._bits, self._index = bits, index
        self._keep = np.uint64(0x00000000FFFFFFFF if high else 0xFFFFFFFF00000000)

    def random_raw(self, n):
        words = self._bits.random_raw(n)
        words[self._index] &= self._keep
        return words

    def advance(self, delta):
        return self._bits.advance(delta)

    @property
    def state(self):
        return self._bits.state

    @state.setter
    def state(self, value):
        self._bits.state = value


@pytest.mark.parametrize("half_word", [False, True])
def test_mutation_draws_give_up_where_a_miss_would_redraw(half_word):
    # One gene of 0.0 and a 3-value set: choice(1, 1) draws nothing, the delta
    # reads word 0 and misses, and the miss's Lemire step on span 3 redraws where
    # its half-word is 0: a crafted low half of word 1, or a buffered 0.
    rules = GeneSchema([DiscreteSet((10, 20, 30))], [GeneType.FLOAT64], (-1.0, 1.0)).rules
    rng, direct = np.random.default_rng(5), np.random.default_rng(5)
    for gen in (rng, direct):
        if half_word:
            state = gen.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, 0
            gen.bit_generator.state = state
    entry = rng.bit_generator.state
    words = Words(rng)
    if not half_word:
        words._bits = _ZeroedHalf(rng.bit_generator, 1)
    assert words.mutation_draws(1, [1], rules, np.zeros(1), -1.0, 2.0) is None
    assert rng.bit_generator.state == entry  # has_uint32 and uinteger included
    words._bits = rng.bit_generator
    assert [words.random(), words.integers(5)] == [direct.random(), direct.integers(5)]
    words.close()
    assert rng.bit_generator.state == direct.bit_generator.state


# Rows of 11 genes. A k = 3 row's Lemire steps have spans 9, 10, 11 (Floyd's)
# and 3, 2 (the shuffle's); a k = 1 row's one step has span 11. A zero half
# rejects on every span here but 2 (2**32 % span > 0). Halves are read
# in order: the buffered one, if any, then low and high of each fresh word; a
# row's random()s read whole words after its steps. Each case zeroes the half
# (word, high?) that one step reads, with and without a buffered half-word.
_REJECTING_STEPS = {
    # counts, buffered: word and half read by the step
    "floyd": ([3], {False: (0, False), True: (0, False)}),  # step 1 unbuffered, step 2 buffered
    "shuffle": ([3], {False: (1, True), True: (1, False)}),  # the shuffle's step on span 3
    "k == 1": ([1, 1], {False: (0, True), True: (1, False)}),  # row 1's one step
}


@pytest.mark.parametrize("step", list(_REJECTING_STEPS))
@pytest.mark.parametrize("half_word", [False, True])
@pytest.mark.parametrize("with_rules", [False, True])
def test_mutation_draws_give_up_at_a_rejecting_step(step, half_word, with_rules):
    counts, zeroed = _REJECTING_STEPS[step]
    # Genes that never miss take the rules branch and read exactly what the plain one does.
    admits = ((GeneSchema([UNCONSTRAINED] * 11, [GeneType.FLOAT64] * 11, (-1.0, 1.0)).rules,
               np.zeros(11 * len(counts)), -1.0, 2.0) if with_rules else ())
    rng, direct = np.random.default_rng(11), np.random.default_rng(11)
    for gen in (rng, direct):
        if half_word:  # a buffered half that no step rejects
            state = gen.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, 0x89ABCDEF
            gen.bit_generator.state = state
    entry = rng.bit_generator.state
    plain = np.random.default_rng()
    plain.bit_generator.state = entry
    assert Words(plain).mutation_draws(11, counts, *admits) is not None  # the zero rejects
    words = Words(rng)
    words._bits = _ZeroedHalf(rng.bit_generator, *zeroed[half_word])
    assert words.mutation_draws(11, counts, *admits) is None
    assert rng.bit_generator.state == entry  # has_uint32 and uinteger included
    words._bits = rng.bit_generator
    assert [words.random(), words.integers(5)] == [direct.random(), direct.integers(5)]
    words.close()
    assert rng.bit_generator.state == direct.bit_generator.state


# --- stage streams ---------------------------------------------------------------------

_B = draws._STREAM_BLOCK


def _assert_stream_is_default_rng(streams, seed, generation, stage):
    rng = streams(generation, stage)
    reference = np.random.default_rng([seed, generation, stage])
    assert rng.bit_generator.state == reference.bit_generator.state
    assert np.array_equal(rng.random(3), reference.random(3))
    assert np.array_equal(rng.integers(0, 2**40, 3), reference.integers(0, 2**40, 3))
    assert np.array_equal(rng.choice(9, 4, replace=False), reference.choice(9, 4, replace=False))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_stage_streams_equal_default_rng_on_the_edge_grid(seed):
    # Seeds and generations at 2**32 take a second entropy word; both together take five.
    streams = StageStreams(seed)
    for generation in (0, 1, _B - 1, _B, 2**32 - 1, 2**32):
        for stage in range(4):
            _assert_stream_is_default_rng(streams, seed, generation, stage)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), generation=st.integers(0, 2**33),
       stage=st.integers(0, 3))
def test_stage_streams_equal_default_rng(seed, generation, stage):
    _assert_stream_is_default_rng(StageStreams(seed), seed, generation, stage)


# --- numpy equalities the draws rest on ------------------------------------------------

def _state(rng) -> dict:
    """rng's full bit generator state, comparable with == (MT19937 keeps its key in an array)."""
    state = rng.bit_generator.state
    inner = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in state["state"].items()}
    return {**state, "state": inner}


# Spans by how a Lemire step draws on them: 1 draws nothing, a power of two
# never rejects, 2**31 + 1 rejects about half its steps and 2**32 reads a bare
# half; the rest reject at about span / 2**32 a step.
_SPANS = (1, 2, 3, 7, 200, 2**20, 2**31 + 1, 2**32)


@pytest.mark.parametrize("sizes", [[2] * 7, [1, 2, 3, 7, 2**20, 1, 100]])
@pytest.mark.parametrize("half_word", [False, True])
def test_vector_draws_consume_the_stream_as_scalar_draws(sizes, half_word):
    # The row sampler rests on this numpy contract; there is no fallback if a
    # numpy release breaks it.
    for bit_generator in (np.random.PCG64, np.random.MT19937):
        def prepared(seed):
            rng = np.random.Generator(bit_generator(seed))
            if half_word:
                rng.integers(2)  # on PCG64, leaves the other half of its word buffered
            return rng

        for seed in range(100):
            vector, scalar = prepared(seed), prepared(seed)
            drawn = vector.integers(0, np.array(sizes), size=(4, len(sizes)))
            assert drawn.tolist() == [[int(scalar.integers(n)) for n in sizes] for _ in range(4)]
            assert _state(vector) == _state(scalar)
            drawn = vector.uniform(-4.0, 4.0, size=(3, len(sizes)))
            assert drawn.tolist() == [[scalar.uniform(-4.0, 4.0) for _ in sizes] for _ in range(3)]
            assert _state(vector) == _state(scalar)
        # A segment whose genes share one size draws with that size as a
        # scalar bound: the array-bound call's draws, values and end state.
        for n, rows, seed in itertools.product(_SPANS, range(1, 7), range(10)):
            block, array_bound, scalar = prepared(seed), prepared(seed), prepared(seed)
            drawn = block.integers(0, n, size=(rows, len(sizes)))
            expected = array_bound.integers(0, np.full(len(sizes), n), size=(rows, len(sizes)))
            assert drawn.dtype == expected.dtype == np.int64
            assert drawn.tolist() == expected.tolist()
            assert drawn.tolist() == [[int(scalar.integers(n)) for _ in sizes]
                                      for _ in range(rows)]
            assert _state(block) == _state(array_bound) == _state(scalar)


# Both sides of numpy's choice split: without replacement it shuffles a full
# index array once n > 10,000 and k > n // 50, and runs Floyd's algorithm
# otherwise (always, for k = 1).
_SWAP_SIZES = (1, 2, 3, 9, 100, 9_999, 10_000, 10_001, 20_000, 2**31, 2**32 + 3)


@pytest.mark.parametrize("seed", range(20))
def test_mutation_draw_swaps_draw_the_same_bits(seed):
    # mutate draws integers(n) for choice(n, 1, replace=False) and
    # lo + (hi - lo) * random() for uniform(lo, hi); each pair must give equal
    # values and leave the generator in the same state. The integers(2) draws
    # in between leave PCG64 holding half of a 64-bit output, so a swap that
    # used or dropped that buffered half would show.
    old, new = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in _SWAP_SIZES:
        for lo, hi in ((-1.0, 1.0), (-3.0, 3.0), (0.0, 0.5), (-1e300, 1e300), (2.5, 1e3)):
            assert old.integers(2) == new.integers(2)
            assert old.choice(n, 1, replace=False)[0] == new.integers(n)
            assert old.integers(2) == new.integers(2)
            assert old.uniform(lo, hi) == lo + (hi - lo) * new.random()
        assert old.bit_generator.state == new.bit_generator.state
