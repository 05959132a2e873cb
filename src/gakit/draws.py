"""numpy's RNG rebuilt bit for bit: the stage streams' seeding and mutation's draws.

StageStreams sets one reused PCG64 generator to the state of
np.random.default_rng([seed, g, stage]), hashing SeedSequence for a block of
generations at once in uint32 numpy arithmetic.

A scalar draw from a numpy Generator costs a call into numpy: over 1 us for
integers(n) and about 10 us for choice(n, k, replace=False), while the work
behind it is a few integer operations on one 64-bit output word, or on a
32-bit half of one. Words pulls the words in bulk with
bit_generator.random_raw and rebuilds from them what these Generator calls
return and consume:

- random(): the top 53 bits of a word times 2**-53; uniform(lo, hi) is
  lo + (hi - lo) * random() for a finite, non-negative hi - lo.
- integers(n) and integers(lo, hi) for Python-int bounds within int64 and a
  span of at most 2**32: Lemire's bounded integers on 32-bit halves, served
  low half first with the high half kept for the next one, as PCG64's
  next_uint32 does.
- choice(n, k, replace=False) for k <= _SHORT: Floyd's algorithm (step j
  draws from [0, j], so a step with bound 0 draws nothing), then the
  Lemire shuffle of the k picks.
- permutation(x) for len(x) <= _SHORT: Fisher-Yates on masked rejection
  (numpy's random_interval).

numpy draws, or rejects with its own error, every other call of these
methods from the replay's position: the unread words are rewound with
advance, and the half-word buffer is handed over and read back. Longer
choices and permutations cost more in Python than numpy's one call; the
other calls are ones no workload makes. numpy also draws every
binomial(n, p), after the rewind alone: it reads whole words only and
leaves the buffer alone.

mutation_draws serves a generation of rows that each draw
choice(length, k, replace=False), then per pick one random() and, where
its gene's rule misses the delta, one integers() on the rule's values. The
choice's steps and a miss take 32-bit halves and the deltas whole words, in
the order numpy reads them, so one pull sized for every pick missing covers
them; with no gene that can miss, the words read follow from the rows' k
and the half-word buffer alone, and the pull is exact. numpy splits the
pulled words once into their low halves, high halves and random() values;
one Python loop then steps Lemire inline over them, with no call per step,
and admits each delta with its rule's fit. It gives up, having drawn
nothing, where a Lemire step would reject (about span / 2**32 a step) or
choice() would hand the choice to numpy. Its draws are final: mutate rules
out a value past the largest double before the call.

close() rewinds the unread words and hands the buffer back, so the
Generator ends in exactly the state the direct calls leave. The engine
needs neither end: it opens its mutation stage's Words (Words._seeded) on
the stream it has just seeded, whose half-word buffer is empty, so nothing
is read; settle draws from that same Words; and nothing hands it back,
since the next generation seeds the generator afresh. NEP 19 keeps
these algorithms stable across numpy releases; tests/test_draws.py compares
each with numpy, values and end state, so a release that changes one fails
there.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = 2**128 - 1
_INT64 = 2**63
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53

# SeedSequence's hash constants and PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
# Generations hashed at once. It divides 2**32, so the generations of one
# aligned block have the same number of uint32 words.
_STREAM_BLOCK = 256
# Streams per generation: one for each of the engine's stages.
_STAGES = 4

# Words per pull from the bit generator; close() rewinds what is left over.
_PULL = 64

# choice and permutation replay at most this many values in Python. A longer
# one costs more than numpy's own call plus the hand-over of the generator:
# about 0.6 us a value against about 12 us, on a 2-vCPU x86-64 host.
_SHORT = 16


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


class StageStreams:
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


class _Rejected(Exception):
    """A Lemire step of Words.mutation_draws would redraw."""


class Words:
    """A numpy Generator over PCG64 whose scalar draws are rebuilt from its raw words.

    Stands in for the Generator across the calls of one mutation step; close()
    then leaves the Generator where the direct calls would have.
    """

    __slots__ = ("_gen", "_bits", "_words", "_next", "_has_half", "_half")

    def __init__(self, gen: np.random.Generator) -> None:
        self._gen = gen
        self._bits = gen.bit_generator
        self._words: list = []
        self._next = 0
        self._take_back()

    @classmethod
    def _seeded(cls, gen: np.random.Generator) -> "Words":
        """A Words on gen, just seeded: its half-word buffer is empty, so no state is read."""
        words = cls.__new__(cls)
        words._gen, words._bits = gen, gen.bit_generator
        words._words, words._next, words._has_half, words._half = [], 0, 0, 0
        return words

    def _take_back(self) -> None:
        state = self._bits.state
        self._has_half, self._half = state["has_uint32"], state["uinteger"]

    def _rewind(self) -> None:
        """Move the generator back over the words pulled but not read."""
        unread = len(self._words) - self._next
        if unread:
            self._bits.advance(-unread)
        self._words, self._next = [], 0

    def close(self) -> None:
        """Leave the generator at the replay's position, holding its half-word buffer."""
        self._rewind()
        state = self._bits.state
        state["has_uint32"], state["uinteger"] = self._has_half, self._half
        self._bits.state = state

    def _numpy(self, draw, *args, **kwargs):
        """draw, a method of the generator, called from the replay's position and buffer."""
        self.close()
        out = draw(*args, **kwargs)
        self._take_back()
        return out

    def _half_word(self) -> int:
        # PCG64's next_uint32: the low half of a fresh word, then its high half.
        if self._has_half:
            self._has_half = 0
            return self._half
        i = self._next
        if i == len(self._words):
            self._words, i = self._bits.random_raw(_PULL).tolist(), 0
        self._next = i + 1
        word = self._words[i]
        self._has_half, self._half = 1, word >> 32
        return word & _MASK32

    def _bounded(self, top: int) -> int:
        """numpy's random_bounded_uint64(0, top) for top < 2**32: Lemire's method on [0, top]."""
        if not top:
            return 0
        span = top + 1
        m = self._half_word() * span
        if m & _MASK32 < span:
            threshold = (_MASK32 - top) % span  # 2**32 % span: 0 for span 2**32
            while m & _MASK32 < threshold:
                m = self._half_word() * span
        return m >> 32

    def random(self) -> float:
        """Generator.random()."""
        i = self._next
        if i == len(self._words):
            self._words, i = self._bits.random_raw(_PULL).tolist(), 0
        self._next = i + 1
        return (self._words[i] >> 11) * _DOUBLE_UNIT

    def uniform(self, low: float, high: float) -> float:
        """Generator.uniform(low, high) for scalar bounds; numpy takes a width not in [0, inf)."""
        width = high - low
        if 0 <= width < np.inf:
            return low + width * self.random()
        return self._numpy(self._gen.uniform, low, high)

    def integers(self, low: int, high=None) -> int:
        """Generator.integers(low, high): a draw from [low, high).

        Python-int bounds within int64 and a span of at most 2**32 are
        replayed; numpy draws (or rejects) every other call.
        """
        lo, hi = (0, low) if high is None else (low, high)
        if (type(lo) is int and type(hi) is int
                and -_INT64 <= lo < hi <= _INT64 and hi - lo <= 1 << 32):
            return lo + self._bounded(hi - lo - 1)
        return self._numpy(self._gen.integers, low, high)

    def choice(self, a: int, size: int, replace: bool = True) -> list:
        """Generator.choice(a, size, replace) for an int a, as a list.

        numpy draws a choice with replacement, of more than _SHORT picks, or
        with bounds that are not Python ints (numpy's own integers, say).
        """
        if (replace or type(a) is not int or type(size) is not int
                or not 0 <= size <= min(a, _SHORT) or a > _MASK32):
            return self._numpy(self._gen.choice, a, size, replace=replace).tolist()
        # Floyd's steps j = a - size .. a - 1 draw from [0, j], then the shuffle's
        # steps i = size - 1 .. 1 from [0, i]; a bound of 0 draws nothing.
        picks: list = []
        for top in range(a - size, a):
            v = self._bounded(top)
            picks.append(top if v in picks else v)
        for top in range(size - 1, 0, -1):
            v = self._bounded(top)
            picks[top], picks[v] = picks[v], picks[top]
        return picks

    def mutation_draws(self, length: int, counts: list, rules=None, old=None, lo=0.0, width=1.0):
        """choice(length, k, replace=False), then each pick's draws, for each row's k in counts.

        Returns the flat positions (row * length + gene, in draw order), and
        without rules each one's random(), from one pull of exactly the words
        they read. With rules, one per gene that never misses or holds its
        values in .array, it returns each pick's value as mutate's per-row
        loop writes it: lo + width * random(), plus old.item(position) unless
        old is None, kept by the gene's rule.fit or else replaced by its
        array at one integers() draw; with old None (by replacement) a gene
        whose rule holds values draws only that integers(). The pull counts
        on every pick missing, and the words left unread are rewound.
        Either way None, having drawn nothing, where the replay gives up (see
        the module's docstring).
        """
        if length > _MASK32 or max(counts, default=0) > min(length, _SHORT):
            return None
        self._rewind()
        has_half, half = self._has_half, self._half
        picked = sum(counts)
        # A row's nonzero bounds: k of Floyd's (not j = 0 when k == length), k - 1 of the
        # shuffle's; with rules, at most one more for each pick
        halves = 2 * picked - len(counts) + counts.count(0) - counts.count(length)
        if rules is not None:
            halves += picked
            fits = [rule.fit for rule in rules]
            arrays = [rule.array for rule in rules]
        total = max(0, halves - has_half + 1) // 2 + picked
        words = self._bits.random_raw(total)
        # Word i split three ways, as a Lemire step or random() reads it.
        lows = (words & _MASK32).tolist()
        highs = (words >> 32).tolist()
        units = ((words >> 11) * _DOUBLE_UNIT).tolist()
        i = 0  # the next unread word
        mask = _MASK32
        # Every Lemire step on [0, top] below is Words._bounded written out: the
        # buffered half, or the low half of the next word (keeping its high
        # half), times span = top + 1. It gives up where the step would redraw:
        # the low 32 bits of the product are below 2**32 % span, which is
        # (mask - top) % span and less than span. A bound of 0 draws nothing.
        threshold = 2**32 % max(length, 1)  # of a row's one Floyd step, on [0, length - 1]
        positions: list = []
        values: list = []
        try:
            for base, k in zip(range(0, len(counts) * length, length), counts):
                if k == 1:  # Floyd's one step, with no list: most rows, at a low rate
                    if length == 1:
                        j = 0
                    else:
                        if has_half:
                            has_half, m = 0, half * length
                        else:
                            has_half, half, m = 1, highs[i], lows[i] * length
                            i += 1
                        if m & mask < threshold:
                            raise _Rejected
                        j = m >> 32
                    if rules is None:
                        positions.append(base + j)
                        values.append(units[i])
                        i += 1
                        continue
                    picks = [j]
                else:
                    picks = []
                    for top in range(length - k, length):
                        if not top:  # k == length: the first step draws from [0, 0]
                            picks.append(0)
                            continue
                        span = top + 1
                        if has_half:
                            has_half, m = 0, half * span
                        else:
                            has_half, half, m = 1, highs[i], lows[i] * span
                            i += 1
                        if m & mask < span and m & mask < (mask - top) % span:
                            raise _Rejected
                        v = m >> 32
                        picks.append(top if v in picks else v)
                    for top in range(k - 1, 0, -1):
                        span = top + 1
                        if has_half:
                            has_half, m = 0, half * span
                        else:
                            has_half, half, m = 1, highs[i], lows[i] * span
                            i += 1
                        if m & mask < span and m & mask < (mask - top) % span:
                            raise _Rejected
                        v = m >> 32
                        picks[top], picks[v] = picks[v], picks[top]
                if rules is None:
                    positions += [base + j for j in picks]
                    values += units[i:i + k]
                    i += k
                    continue
                for j in picks:
                    array, p = arrays[j], base + j
                    positions.append(p)
                    if old is None and array is not None:
                        v = None
                    else:
                        v = lo + width * units[i]
                        i += 1
                        if old is not None:
                            v += old.item(p)
                        v = fits[j](v)
                    if v is None:  # a miss: integers(array.size)
                        span = array.size
                        if span == 1:
                            v = array.item(0)
                        else:
                            if has_half:
                                has_half, m = 0, half * span
                            else:
                                has_half, half, m = 1, highs[i], lows[i] * span
                                i += 1
                            if m & mask < span and m & mask < (mask - span + 1) % span:
                                raise _Rejected
                            v = array.item(m >> 32)
                    values.append(v)
        except _Rejected:
            self._bits.advance(-total)
            self.close()  # advance clears the generator's half-word buffer: hand it back
            return None
        if i < total:
            self._bits.advance(i - total)  # clears the buffer, which close() hands back
        self._has_half, self._half = has_half, half
        return np.array(positions, dtype=np.intp), np.array(values)

    def permutation(self, x) -> np.ndarray:
        """Generator.permutation(x): a shuffled copy; numpy draws one of more than _SHORT values."""
        x = np.asarray(x)
        if x.ndim != 1 or x.size > _SHORT:
            return self._numpy(self._gen.permutation, x)
        order = list(range(x.size))
        for i in range(x.size - 1, 0, -1):
            # random_interval(i): the masked low bits of a half, redrawn while above i
            mask = (1 << i.bit_length()) - 1
            j = self._half_word() & mask
            while j > i:
                j = self._half_word() & mask
            order[i], order[j] = order[j], order[i]
        return x[order]

    def binomial(self, n: int, p: float) -> int:
        """Generator.binomial(n, p), drawn by numpy from the replay's position."""
        self._rewind()
        return self._gen.binomial(n, p)


@contextmanager
def replayed(rng):
    """rng as a Words for the block, then closed; rng itself unless it runs on PCG64.

    Words rebuilds PCG64's own output words and half-word buffer, so any
    other generator (another bit generator, or a stand-in that scripts its
    draws) is used as it is. A Words is passed through as it is too, and
    left open: whoever opened it decides whether to close it.
    """
    if not isinstance(getattr(rng, "bit_generator", None), np.random.PCG64):
        yield rng
        return
    words = Words(rng)
    try:
        yield words
    finally:
        words.close()
