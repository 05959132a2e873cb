"""The draws mutation makes, replayed bit for bit from raw PCG64 words.

A scalar draw from a numpy Generator costs a call into numpy: over 1 us for
integers(n) and about 10 us for choice(n, k, replace=False), while the work
behind it is a few integer operations on one 64-bit output word, or on a
32-bit half of one. Words pulls the words in bulk with
bit_generator.random_raw and rebuilds from them what these Generator methods
return and consume:

- random(): the top 53 bits of a word times 2**-53; uniform(lo, hi) is
  lo + (hi - lo) * random(), with numpy's checks on hi - lo.
- integers(n) and integers(lo, hi): Lemire's bounded integers. A bound
  below 2**32 - 1 draws 32-bit halves, served low half first with the high
  half kept for the next one, as PCG64's next_uint32 does; a bound of
  exactly 2**32 - 1 is one raw half; larger bounds draw whole words.
- choice(n, k, replace=False) for k <= _SHORT: Floyd's algorithm (step j
  draws from [0, j], so a step with bound 0 draws nothing), then the
  Lemire shuffle of the k picks.
- permutation(x) for len(x) <= _SHORT: Fisher-Yates on masked rejection
  (numpy's random_interval).

Longer choices and permutations cost more in Python than numpy's one call,
so numpy draws them, and every binomial(n, p), from the replay's position:
the unread words are rewound with advance, and for choice and permutation
the half-word buffer is handed over and read back. binomial reads whole
words only and leaves the buffer alone.

close() rewinds the unread words and hands the buffer back, so the
Generator ends in exactly the state the direct calls leave. NEP 19 keeps
PCG64's word stream stable across numpy releases; the algorithms above are
numpy's own, and tests/test_draws.py compares each method with numpy,
values and end state, so a numpy release that changes one fails there.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_INT64 = 2**63
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53

# Words per pull from the bit generator; close() rewinds what is left over.
_PULL = 64

# choice and permutation replay at most this many values in Python. A longer
# one costs more than numpy's own call plus the hand-over of the generator:
# about 0.6 us a value against about 12 us, on a 2-vCPU x86-64 host.
_SHORT = 16


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

    def _word(self) -> int:
        i = self._next
        if i == len(self._words):
            self._words, i = self._bits.random_raw(_PULL).tolist(), 0
        self._next = i + 1
        return self._words[i]

    def _half_word(self) -> int:
        # PCG64's next_uint32: the low half of a fresh word, then its high half.
        if self._has_half:
            self._has_half = 0
            return self._half
        word = self._word()
        self._has_half, self._half = 1, word >> 32
        return word & _MASK32

    def _bounded(self, top: int) -> int:
        """numpy's random_bounded_uint64(0, top): Lemire's method on [0, top]."""
        if top < _MASK32:
            if not top:
                return 0
            span = top + 1
            m = self._half_word() * span
            if m & _MASK32 < span:
                threshold = (_MASK32 - top) % span  # 2**32 % span
                while m & _MASK32 < threshold:
                    m = self._half_word() * span
            return m >> 32
        if top == _MASK32:
            return self._half_word()
        if top == _MASK64:
            return self._word()
        span = top + 1
        m = self._word() * span
        if m & _MASK64 < span:
            threshold = (_MASK64 - top) % span
            while m & _MASK64 < threshold:
                m = self._word() * span
        return m >> 64

    def random(self) -> float:
        """Generator.random()."""
        i = self._next  # _word, inlined: a mutated gene's delta is the most common draw
        if i == len(self._words):
            self._words, i = self._bits.random_raw(_PULL).tolist(), 0
        self._next = i + 1
        return (self._words[i] >> 11) * _DOUBLE_UNIT

    def uniform(self, low: float, high: float) -> float:
        """Generator.uniform(low, high) for scalar bounds."""
        width = high - low
        if not math.isfinite(width):
            raise OverflowError("high - low range exceeds valid bounds")
        if width < 0:
            raise ValueError("high - low < 0")
        return low + width * self.random()

    def integers(self, low: int, high=None) -> int:
        """Generator.integers(low, high) for scalar int64 bounds: a draw from [low, high)."""
        low, high = (0, int(low)) if high is None else (int(low), int(high))
        if not -_INT64 <= low < high <= _INT64:
            raise ValueError(f"integers({low}, {high}) holds no int64")
        return low + self._bounded(high - low - 1)

    def choice(self, a: int, size: int, replace: bool = True) -> list:
        """Generator.choice(a, size, replace) for an int a, as a list.

        numpy draws a choice with replacement, of more than _SHORT picks, or
        with bounds that are not Python ints (numpy's own integers, say).
        """
        if (replace or type(a) is not int or type(size) is not int
                or not 0 <= size <= min(a, _SHORT) or a > _MASK32):
            return self._numpy(self._gen.choice, a, size, replace=replace).tolist()
        if size == 1:  # Floyd's one step, with no shuffle after it: a third of the loop's cost
            return [self._bounded(a - 1)]
        # Floyd's steps j = a - size .. a - 1 draw from [0, j], then the
        # shuffle's steps i = size - 1 .. 1 from [0, i]; a bound of 0 draws
        # nothing. Each draw is _bounded's 32-bit path, inlined on local state.
        words, at, has_half, half = self._words, self._next, self._has_half, self._half
        picks: list = []
        steps = itertools.chain(range(a - size, a), range(size - 1, 0, -1))
        for step, top in enumerate(steps):
            v = 0
            if top:
                span = top + 1
                if has_half:
                    has_half, m = 0, half * span
                else:
                    if at == len(words):
                        words, at = self._bits.random_raw(_PULL).tolist(), 0
                    word = words[at]
                    at += 1
                    has_half, half, m = 1, word >> 32, (word & _MASK32) * span
                if m & _MASK32 < span:  # Lemire may reject: redraw on the shared state
                    self._words, self._next, self._has_half, self._half = words, at, has_half, half
                    threshold = (_MASK32 - top) % span
                    while m & _MASK32 < threshold:
                        m = self._half_word() * span
                    words, at, has_half, half = self._words, self._next, self._has_half, self._half
                v = m >> 32
            if step < size:
                picks.append(top if v in picks else v)
            else:
                picks[top], picks[v] = picks[v], picks[top]
        self._words, self._next, self._has_half, self._half = words, at, has_half, half
        return picks

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
    draws) is used as it is.
    """
    if not isinstance(getattr(rng, "bit_generator", None), np.random.PCG64):
        yield rng
        return
    words = Words(rng)
    try:
        yield words
    finally:
        words.close()
