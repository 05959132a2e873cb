"""Built-in benchmark problems: fitness formulas, the MLP encoding, datasets."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gakit import problems
from gakit.errors import LengthMismatch
from gakit.problems import (
    DEFAULT_EQUATION,
    Activation,
    Dataset,
    LinearEquationProblem,
    MlpSpec,
    OneMaxProblem,
    classification_fitness,
    linear_fitness,
    mlp_forward,
    mlp_parameter_count,
    mlp_unflatten,
    onemax_fitness,
    xor_dataset,
)


# --- linear equation --------------------------------------------------------------

def test_linear_exact_solution_value():
    fitness = linear_fitness(DEFAULT_EQUATION)
    assert fitness([11.0, 0.0, 0.0], 0) == 1_000_000.0


def test_linear_zero_solution_value():
    fitness = linear_fitness(DEFAULT_EQUATION)
    oracle = 1.0 / (44.0 + 1e-6)
    assert abs(fitness([0.0, 0.0, 0.0], 0) - oracle) < 1e-15
    assert abs(oracle - 0.0227272722) < 1e-9


def test_linear_ones_solution_value():
    fitness = linear_fitness(DEFAULT_EQUATION)
    oracle = 1.0 / (abs(5.5 - 44.0) + 1e-6)
    assert abs(fitness([1.0, 1.0, 1.0], 0) - oracle) < 1e-15


def test_linear_single_input_zero_target():
    fitness = linear_fitness(LinearEquationProblem(inputs=(1.0,), target=0.0))
    assert fitness([0.0], 0) == 1_000_000.0


def test_linear_length_mismatch():
    fitness = linear_fitness(DEFAULT_EQUATION)
    with pytest.raises(LengthMismatch):
        fitness([1.0, 2.0], 0)


def test_linear_peaks_on_solution_hyperplane():
    # Finite-difference style check: perturbing any weight of an exact solution
    # by +-0.1 strictly decreases the fitness.
    fitness = linear_fitness(DEFAULT_EQUATION)
    exact = np.array([11.0, 0.0, 0.0])
    peak = fitness(exact, 0)
    for j in range(3):
        for delta in (0.1, -0.1):
            perturbed = exact.copy()
            perturbed[j] += delta
            assert fitness(perturbed, 0) < peak


# --- onemax -----------------------------------------------------------------------

def test_onemax_counts_ones():
    fitness = onemax_fitness(OneMaxProblem(20))
    assert fitness(np.ones(20), 0) == 20.0
    assert fitness(np.zeros(20), 0) == 0.0
    assert fitness(np.array([1, 0, 1, 1]), 0) == 3.0


def test_onemax_flip_increases_by_one():
    fitness = onemax_fitness(OneMaxProblem(12))
    rng = np.random.default_rng(0)
    for _ in range(100):
        genes = rng.integers(0, 2, size=12).astype(float)
        zeros = np.flatnonzero(genes == 0)
        if zeros.size == 0:
            continue
        flipped = genes.copy()
        flipped[zeros[0]] = 1.0
        assert fitness(flipped, 0) == fitness(genes, 0) + 1.0


def test_onemax_constraints():
    problem = OneMaxProblem(16)
    assert problem.gene_space.values == (0.0, 1.0)
    assert problem.gene_type.value == "int8"


# --- MLP --------------------------------------------------------------------------

def test_parameter_count_formula():
    assert mlp_parameter_count(MlpSpec((2, 2, 1))) == 9
    assert mlp_parameter_count(MlpSpec((3, 1))) == 4
    assert mlp_parameter_count(MlpSpec((2, 3, 3, 1))) == 25


def test_forward_zero_weights_gives_half():
    spec = MlpSpec((2, 2, 1))
    out = mlp_forward(spec, np.zeros(9), [0.3, -1.2])
    assert np.allclose(out, [0.5])


def test_forward_scalar_network():
    # One input, one output: sigmoid(w*x + b) with w=2, b=1, x=3.
    spec = MlpSpec((1, 1))
    out = mlp_forward(spec, [2.0, 1.0], [3.0])
    oracle = 1.0 / (1.0 + math.exp(-7.0))
    assert abs(out[0] - oracle) < 1e-12
    assert abs(oracle - 0.9990889488) < 1e-9


def test_forward_relu_hidden_clamps_negatives():
    spec = MlpSpec((1, 2, 1), hidden_activation=Activation.RELU)
    # hidden pre-activations are -x-1 and -2x-3: negative for x=1, so the
    # output reduces to sigmoid of its bias.
    weights = [-1.0, -2.0, -1.0, -3.0, 5.0, 5.0, 0.25]
    out = mlp_forward(spec, weights, [1.0])
    assert abs(out[0] - 1.0 / (1.0 + math.exp(-0.25))) < 1e-12


def test_forward_output_strictly_inside_unit_interval():
    # Weights are kept moderate so the sigmoid cannot saturate to exactly 0.0
    # or 1.0 in double precision.
    spec = MlpSpec((2, 2, 1))
    rng = np.random.default_rng(1)
    for _ in range(200):
        weights = rng.uniform(-4, 4, size=9)
        out = mlp_forward(spec, weights, rng.uniform(-5, 5, size=2))
        assert 0.0 < out[0] < 1.0


def test_forward_length_checks():
    spec = MlpSpec((2, 2, 1))
    with pytest.raises(LengthMismatch):
        mlp_forward(spec, np.zeros(8), [0.0, 0.0])
    with pytest.raises(LengthMismatch):
        mlp_forward(spec, np.zeros(9), [0.0, 0.0, 0.0])
    with pytest.raises(LengthMismatch):  # a stack of networks is not one network
        mlp_forward(spec, np.zeros((2, 9)), [0.0, 0.0])


def test_unflatten_round_trip_preserves_function():
    # Oracle: compose the layers by hand from the unflattened pieces and check
    # the packaged forward pass agrees on random inputs.
    spec = MlpSpec((3, 4, 2))
    rng = np.random.default_rng(2)
    weights = rng.uniform(-2, 2, size=mlp_parameter_count(spec))
    layers = mlp_unflatten(spec, weights)
    for _ in range(50):
        x = rng.uniform(-3, 3, size=3)
        h = 1.0 / (1.0 + np.exp(-(x @ layers[0][0] + layers[0][1])))
        y = 1.0 / (1.0 + np.exp(-(h @ layers[1][0] + layers[1][1])))
        assert np.allclose(mlp_forward(spec, weights, x), y, rtol=1e-12)


# --- classification ----------------------------------------------------------------

def _xor_solution_weights():
    # h₁ ~ OR gate, h₂ ~ AND gate, output ~ h₁ AND NOT h₂.
    w1 = np.array([[20.0, 20.0], [20.0, 20.0]])
    b1 = np.array([-10.0, -30.0])
    w2 = np.array([[20.0], [-20.0]])
    b2 = np.array([-10.0])
    return np.concatenate([w1.ravel(), b1, w2.ravel(), b2])


def test_perfect_xor_classifier_scores_one():
    spec = MlpSpec((2, 2, 1))
    fitness = classification_fitness(spec, xor_dataset())
    assert fitness(_xor_solution_weights(), 0) == 1.0


def test_zero_weights_score_half_on_xor():
    # Constant 0.5 output thresholds to class 1 everywhere, matching exactly the
    # two positive XOR labels.
    spec = MlpSpec((2, 2, 1))
    fitness = classification_fitness(spec, xor_dataset())
    assert fitness(np.zeros(9), 0) == 0.5


def test_all_wrong_scores_zero():
    # NOT-XOR weights: flip the output layer of the perfect solution.
    spec = MlpSpec((2, 2, 1))
    weights = _xor_solution_weights()
    weights[6:] = -weights[6:]
    fitness = classification_fitness(spec, xor_dataset())
    assert fitness(weights, 0) == 0.0


# --- datasets ----------------------------------------------------------------------

def test_xor_dataset_shape():
    data = xor_dataset()
    assert len(data) == 4
    assert data.features.shape == (4, 2)
    assert data.labels.shape == (4, 1)


@pytest.mark.parametrize("features, labels", [
    ([], []),  # atleast_2d makes this one sample of no features
    (np.empty((0, 2)), np.empty((0, 1))),
])
def test_dataset_rejects_an_empty_dataset(features, labels):
    with pytest.raises(LengthMismatch, match="no samples"):
        Dataset(features=features, labels=labels)


def test_dataset_rejects_mismatched_rows():
    with pytest.raises(LengthMismatch):
        Dataset(features=[[0, 0], [1, 1]], labels=[[0]])


# --- batch fitness -----------------------------------------------------------------

def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _population(seed: int, rows: int, genes: int, scale: float) -> np.ndarray:
    # Each gene gets its own magnitude, from 1e-6 up to `scale`.
    rng = np.random.default_rng(seed)
    magnitude = 10.0 ** rng.uniform(-6, np.log10(scale), size=(rows, genes))
    return rng.uniform(-1, 1, size=(rows, genes)) * magnitude


def _assert_batch_matches_rows(fitness, pop):
    rows = [fitness(row, i) for i, row in enumerate(pop)]
    assert all(type(v) is float for v in rows)
    batch = fitness.batch(pop)
    assert batch.shape == (len(pop),)
    assert _bits(batch) == _bits(rows)


_SCALES = st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6, 1e12])


@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 12), scale=_SCALES,
       n_inputs=st.integers(1, 40), exact_row=st.booleans())
def test_linear_batch_equals_per_row_bits(seed, rows, scale, n_inputs, exact_row):
    rng = np.random.default_rng(seed)
    problem = LinearEquationProblem(
        inputs=tuple(rng.uniform(-5, 5, size=n_inputs)), target=float(rng.uniform(-50, 50)))
    fitness = linear_fitness(problem)
    pop = _population(seed, rows, n_inputs, scale)
    _assert_batch_matches_rows(fitness, pop)
    # Both equal the per-row np.dot formula, and the default equation's exact
    # solution still scores 1e6 in a batch.
    inputs = np.array(problem.inputs)
    oracle = [1.0 / (abs(float(np.dot(row, inputs)) - problem.target) + 1e-6) for row in pop]
    assert _bits(fitness.batch(pop)) == _bits(oracle)
    if exact_row:
        default = linear_fitness(DEFAULT_EQUATION)
        pop3 = _population(seed, rows, 3, scale)
        pop3[0] = [11.0, 0.0, 0.0]
        _assert_batch_matches_rows(default, pop3)
        assert default.batch(pop3)[0] == 1_000_000.0


@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 12), scale=_SCALES,
       n=st.integers(1, 600), binary=st.booleans())
@example(seed=0, rows=5, scale=1e12, n=1000, binary=False)
def test_onemax_batch_equals_per_row_bits(seed, rows, scale, n, binary):
    # Past 128 genes numpy sums in recursive pairwise blocks; n reaches them.
    pop = _population(seed, rows, n, scale)
    if binary:
        pop = (pop > 0).astype(float)
    _assert_batch_matches_rows(onemax_fitness(OneMaxProblem(n)), pop)


_SPECS = [
    MlpSpec((2, 2, 1)),
    MlpSpec((2, 2, 1), hidden_activation=Activation.RELU),
    MlpSpec((2, 3, 3, 1)),
    MlpSpec((3, 4, 2), hidden_activation=Activation.RELU),
    MlpSpec((3, 4, 3, 2), hidden_activation=Activation.RELU),
    MlpSpec((2, 1)),
]


def _reference_outputs(spec, features, weights):
    # One network's forward pass with plain 2-D matrices, layer by layer.
    a = features
    layers = mlp_unflatten(spec, weights)
    for i, (w, b) in enumerate(layers):
        z = a @ w + b
        if i == len(layers) - 1 or spec.hidden_activation is Activation.SIGMOID:
            with np.errstate(over="ignore"):
                a = 1.0 / (1.0 + np.exp(-z))
        else:
            a = np.maximum(z, 0.0)
    return a


@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 12),
       scale=st.sampled_from([1e-6, 1e-3, 1.0, 10.0, 1e3, 1e12]),
       spec=st.sampled_from(_SPECS), samples=st.integers(1, 9))
def test_classification_batch_equals_per_row_bits(seed, rows, scale, spec, samples):
    rng = np.random.default_rng(seed)
    if spec.layer_sizes[0] == 2 and samples == 4:
        data = xor_dataset()
    else:
        data = Dataset(features=rng.uniform(-3, 3, size=(samples, spec.layer_sizes[0])),
                       labels=rng.integers(0, 2, size=(samples, spec.layer_sizes[-1])))
    fitness = classification_fitness(spec, data)
    pop = _population(seed, rows, mlp_parameter_count(spec), scale)
    _assert_batch_matches_rows(fitness, pop)
    # The stacked forward pass gives every row the bits of its own network.
    stacked = problems._forward(spec, mlp_unflatten(spec, pop), data.features)
    alone = [_reference_outputs(spec, data.features, row) for row in pop]
    assert _bits(stacked) == _bits(alone)
    accuracy = [np.mean(np.all((a >= 0.5) == (data.labels >= 0.5), axis=1)) for a in alone]
    assert _bits(fitness.batch(pop)) == _bits(accuracy)


def test_classification_batch_scores_known_xor_networks():
    spec = MlpSpec((2, 2, 1))
    fitness = classification_fitness(spec, xor_dataset())
    flipped = _xor_solution_weights()
    flipped[6:] = -flipped[6:]
    pop = np.array([_xor_solution_weights(), np.zeros(9), flipped])
    assert fitness.batch(pop).tolist() == [1.0, 0.5, 0.0]


def test_batch_rejects_wrong_gene_count():
    with pytest.raises(LengthMismatch):
        linear_fitness(DEFAULT_EQUATION).batch(np.zeros((4, 2)))
    with pytest.raises(LengthMismatch):
        classification_fitness(MlpSpec((2, 2, 1)), xor_dataset()).batch(np.zeros((4, 8)))


def test_mlp_unflatten_stacks_the_layers_of_each_row():
    spec = MlpSpec((3, 4, 2))
    pop = np.arange(3 * mlp_parameter_count(spec), dtype=float).reshape(3, -1)
    stacked = mlp_unflatten(spec, pop)
    for i, row in enumerate(pop):
        for (w_all, b_all), (w, b) in zip(stacked, mlp_unflatten(spec, row)):
            assert np.array_equal(w_all[i], w) and np.array_equal(b_all[i], b)
