"""Built-in benchmark problems: linear-equation fit, OneMax, and MLP weight evolution.

Each fitness factory returns a per-row callable `fitness(solution, index)`
that also carries `fitness.batch(population)`, which scores every row of a
(rows, genes) population in one numpy call. The per-row callable runs the
batch code on its one row, and each batch kernel computes a row exactly as it
would alone, so both give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import LengthMismatch
from .genome import DiscreteSet, GeneType


def _per_row(batch):
    """The per-row fitness(solution, index) that scores its one row with batch, carrying batch."""

    def fitness(solution, _solution_idx) -> float:
        return float(batch(solution))

    fitness.batch = batch
    return fitness


@dataclass(frozen=True)
class LinearEquationProblem:
    """Fit weights w so that sum(w_i * inputs_i) hits the target."""

    inputs: tuple
    target: float

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(float(v) for v in self.inputs))
        object.__setattr__(self, "target", float(self.target))


# Three-input demo equation: 4*w1 - 2*w2 + 3.5*w3 = 44.
DEFAULT_EQUATION = LinearEquationProblem(inputs=(4.0, -2.0, 3.5), target=44.0)


def linear_fitness(problem: LinearEquationProblem):
    """Fitness 1 / (|residual| + 1e-6); maxes out at 1e6 on an exact solution."""
    inputs = np.array(problem.inputs)
    target = problem.target

    def batch(population) -> np.ndarray:
        population = np.ascontiguousarray(population, dtype=float)
        if population.shape[-1] != inputs.size:
            raise LengthMismatch(
                f"solution length {population.shape[-1]} != {inputs.size} equation inputs"
            )
        # A stack of (1, n) @ (n,) products takes one BLAS dot per row, the
        # bits np.dot gives that row alone; population @ inputs takes a
        # matrix-vector kernel whose sums can differ in the last bit. A
        # residual that overflows scores 0; a NaN one is left for the engine,
        # which rejects it naming its row.
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.matmul(population[..., None, :], inputs)[..., 0]
            return 1.0 / (np.abs(out - target) + 1e-6)

    return _per_row(batch)


@dataclass(frozen=True)
class OneMaxProblem:
    """Maximize the number of 1-bits in a binary chromosome of length n."""

    n: int
    gene_space = DiscreteSet((0.0, 1.0))  # class attributes, not dataclass fields
    gene_type = GeneType.INT8


def onemax_fitness(problem: OneMaxProblem):
    """Fitness is the plain sum of the genes; the optimum is n at all-ones."""

    def batch(population) -> np.ndarray:
        return np.sum(np.ascontiguousarray(population, dtype=float), axis=-1)

    return _per_row(batch)


class Activation(Enum):
    SIGMOID = "sigmoid"
    RELU = "relu"


@dataclass(frozen=True)
class MlpSpec:
    """Dense network shape: layer sizes plus the hidden activation (output is sigmoid)."""

    layer_sizes: tuple
    hidden_activation: Activation = Activation.SIGMOID

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))


def mlp_parameter_count(spec: MlpSpec) -> int:
    """Total weights plus biases: sum of fan_in*fan_out + fan_out over layer pairs."""
    sizes = spec.layer_sizes
    return sum(a * b + b for a, b in zip(sizes, sizes[1:]))


def mlp_unflatten(spec: MlpSpec, weights):
    """Split a flat weight vector into per-layer (W, b) pairs.

    Layout is layer-major: for each layer the (fan_in, fan_out) weight matrix
    in row-major order, then the bias vector. A (rows, n) stack of weight
    vectors gives stacked pairs, W of shape (rows, fan_in, fan_out) and b of
    shape (rows, fan_out).
    """
    weights = np.ascontiguousarray(weights, dtype=float)
    expected = mlp_parameter_count(spec)
    if weights.shape[-1] != expected:
        raise LengthMismatch(f"weight vector length {weights.shape[-1]} != {expected}")
    stack = weights.shape[:-1]
    layers = []
    pos = 0
    for fan_in, fan_out in zip(spec.layer_sizes, spec.layer_sizes[1:]):
        w = weights[..., pos:pos + fan_in * fan_out].reshape(*stack, fan_in, fan_out)
        pos += fan_in * fan_out
        b = weights[..., pos:pos + fan_out]
        pos += fan_out
        layers.append((w, b))
    return layers


def _sigmoid(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _forward(spec: MlpSpec, layers, x: np.ndarray) -> np.ndarray:
    """Outputs (samples, out) for one network, (rows, samples, out) for stacked layers.

    A stacked matmul runs the same BLAS kernel on each row's matrices as an
    unstacked one does on a single network, so every row gets the same bits
    either way; einsum gives no such guarantee.
    """
    a = x
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = a @ w + b[..., None, :]
        if i == last or spec.hidden_activation is Activation.SIGMOID:
            a = _sigmoid(z)
        else:
            a = np.maximum(z, 0.0)
    return a


def mlp_forward(spec: MlpSpec, weights, x) -> np.ndarray:
    """Forward pass for one feature vector (or a batch, one sample per row)."""
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1:
        raise LengthMismatch(f"weights of shape {weights.shape} are not one flat vector")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if x.shape[-1] != spec.layer_sizes[0]:
        raise LengthMismatch(
            f"input length {x.shape[-1]} != {spec.layer_sizes[0]} network inputs"
        )
    out = _forward(spec, mlp_unflatten(spec, weights), np.atleast_2d(x))
    return out[0] if single else out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature rows and aligned label rows for a classification problem."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "features", np.atleast_2d(np.asarray(self.features, float)))
        object.__setattr__(self, "labels", np.atleast_2d(np.asarray(self.labels, float)))
        if self.features.size == 0:  # [] becomes one sample of no features
            raise LengthMismatch("dataset holds no samples or no features")
        if self.features.shape[0] != self.labels.shape[0]:
            raise LengthMismatch(
                f"{self.features.shape[0]} feature rows vs {self.labels.shape[0]} label rows"
            )

    def __len__(self) -> int:
        return self.features.shape[0]


def xor_dataset() -> Dataset:
    """The four XOR samples with two binary features and one binary label."""
    return Dataset(
        features=[[0, 0], [0, 1], [1, 0], [1, 1]],
        labels=[[0], [1], [1], [0]],
    )


def classification_fitness(spec: MlpSpec, data: Dataset):
    """Accuracy in [0, 1]: fraction of samples whose thresholded outputs match.

    Outputs at or above 0.5 count as class 1, so an exact 0.5 tie resolves to 1.
    """
    features = data.features
    targets = data.labels >= 0.5
    samples = len(data)

    def batch(population) -> np.ndarray:
        outputs = _forward(spec, mlp_unflatten(spec, population), features)
        correct = ((outputs >= 0.5) == targets).all(axis=-1)
        return correct.sum(axis=-1, dtype=float) / samples  # np.mean's steps, so its bits

    return _per_row(batch)
