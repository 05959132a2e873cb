"""Shared test helpers and the hypothesis profile every test runs under."""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from gakit.genome import UNCONSTRAINED, DiscreteSet, ValueRange

# Derandomized search: every run of the suite tries the same examples, so a
# property test passes or fails alike on every machine and rerun. Example
# generation can be slow for numpy arrays, so no per-example deadline.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


class StubRng:
    """Replays queued draws so operator internals can be forced in tests.

    Only the generator methods the operators actually call are implemented;
    integer draws come from `ints` in order, uniform draws from `uniforms`.
    """

    def __init__(self, ints=(), uniforms=()):
        self._ints = list(ints)
        self._uniforms = list(uniforms)

    def integers(self, low, high=None, size=None):
        if size is not None:
            return np.array([self._ints.pop(0) for _ in range(int(size))])
        return self._ints.pop(0)

    def uniform(self, low=0.0, high=1.0, size=None):
        if size is not None:
            return np.array([self._uniforms.pop(0) for _ in range(int(size))])
        return self._uniforms.pop(0)

    def choice(self, n, size=None, replace=True, p=None):
        if size is None:
            return self._ints.pop(0)
        return np.array([self._ints.pop(0) for _ in range(int(size))])

    def random(self, size=None):
        if size is None:
            return self._uniforms.pop(0)
        return np.array([self._uniforms.pop(0) for _ in range(int(size))])

    def permutation(self, values):
        order = [self._ints.pop(0) for _ in range(len(values))]
        return np.asarray(values)[order]

    def binomial(self, n, p):
        return self._ints.pop(0)


ANY_BOUND = st.one_of(
    st.floats(allow_nan=False),
    st.floats(-300, 300),
    st.integers(-300, 300).map(float),
)

FINITE_BOUND = st.one_of(
    st.floats(-1e300, 1e300),
    st.floats(-300, 300),
    st.integers(-300, 300).map(float),
)


@st.composite
def gene_spaces(draw, bounds=ANY_BOUND):
    """Any gene space with bounds drawn from `bounds`; validate rejects some of them."""
    kind = draw(st.sampled_from(["unconstrained", "set", "range", "lattice"]))
    if kind == "unconstrained":
        return UNCONSTRAINED
    if kind == "set":
        return DiscreteSet(tuple(draw(st.lists(bounds, min_size=1, max_size=6))))
    lo, hi = sorted(draw(st.tuples(bounds, bounds)))
    step = None
    if kind == "lattice":
        step = draw(st.one_of(st.floats(1e-4, 1e3), st.sampled_from([0.1, 0.25, 1.0, 3.0])))
    return ValueRange(lo, hi, step)
