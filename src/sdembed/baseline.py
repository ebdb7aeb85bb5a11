"""Conventional supervised baseline: dataset generation plus backprop training.

The comparison pipeline labels uniformly sampled start points with moments
evaluated from solved dual coefficients (far cheaper than Monte Carlo
labeling), then trains the same one-hidden-layer sigmoid architecture on
mean squared error with mini-batch Adam.  The result is an ordinary
data-trained network of the exact same type the coefficient-matching fit
produces, so all evaluation code is shared.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dual import DualCoefficients, eval_moment
from .network import _FORWARD_BLOCK, SigmoidNet, forward, param_views, sigmoid
from .polynomial import _csv_text, _freeze

__all__ = [
    "Dataset",
    "TrainConfig",
    "TrainResult",
    "TrainingError",
    "generate_dataset",
    "train_backprop",
    "dataset_csv_text",
]


class TrainingError(RuntimeError):
    """Training diverged; the message names the epoch."""


@dataclass(frozen=True)
class Dataset:
    """(start point, target moment) pairs drawn from an axis-aligned box."""

    inputs: np.ndarray  # (size, dim)
    targets: np.ndarray  # (size,)
    generator_fingerprint: str

    def __post_init__(self):
        _freeze(self, inputs=float, targets=float)
        if self.inputs.ndim != 2 or self.targets.shape != (self.inputs.shape[0],):
            raise ValueError("inputs must be (size, dim) with one target per row")
        if self.inputs.shape[0] < 1:
            raise ValueError("dataset must be non-empty")
        bad = np.flatnonzero(~(np.isfinite(self.inputs).all(axis=1) & np.isfinite(self.targets)))
        if bad.size:
            row = bad[0]
            raise ValueError(f"dataset row {row} is not finite: {self.inputs[row].tolist()} -> {self.targets[row]}")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


# Adam moment decay rates and denominator guard (Kingma & Ba defaults)
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    hidden: int
    epochs: int = 50
    batch_size: int = 256
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.hidden < 1:
            raise ValueError("hidden node count must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning rate must be > 0 and finite, got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TrainResult:
    net: SigmoidNet
    loss_trace: np.ndarray  # full-dataset MSE after each epoch
    config: TrainConfig

    def __post_init__(self):
        _freeze(self, loss_trace=float)


def generate_dataset(coeffs: DualCoefficients, region, size: int, seed: int = 0) -> Dataset:
    """Uniform inputs over the box, targets from the dual moment evaluation."""
    region = tuple((float(a), float(b)) for a, b in region)
    if len(region) != coeffs.dim:
        raise ValueError(f"region has {len(region)} axes, expected {coeffs.dim}")
    if not all(a <= b and math.isfinite(b - a) for a, b in region):
        raise ValueError(f"region bounds must be finite with lo <= hi, got {list(region)}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    lo = np.array([a for a, _ in region])
    hi = np.array([b for _, b in region])
    inputs = rng.uniform(lo, hi, size=(size, coeffs.dim))
    targets = eval_moment(coeffs, inputs)
    inputs.flags.writeable = targets.flags.writeable = False  # the dataset keeps them as is
    return Dataset(inputs, targets, coeffs.fingerprint())


def train_backprop(data: Dataset, config: TrainConfig) -> TrainResult:
    """Mini-batch Adam on mean squared error over the dataset.

    The network has `config.hidden` nodes and the dataset's input
    dimension.  Its weights are one flat vector read through its
    `network.param_views`; the gradient fills the same views of one buffer,
    and each step is one Adam update of the whole vector.  Initial weights
    are uniform on [-1, 1); shuffling and initialization both derive from
    the seed, so training is reproducible.  Each epoch shuffles an index
    array (int32 below 2**31 rows; `rng.permutation`'s order and state),
    and gathers each batch by it into two buffers allocated once per call,
    of at most the dataset's rows, so the dataset is never copied.  The loss
    trace records the full-dataset MSE after each epoch, through
    `network.forward` of the weight views, summed over its row blocks: the
    trace is the same for any BLAS thread count, and training holds O(size)
    memory beside the dataset (the index array), never O(size * hidden).
    One `SigmoidNet` is built, for the result.
    """
    hidden, dim = config.hidden, data.dim
    rng = np.random.default_rng(config.seed)
    theta = rng.uniform(-1.0, 1.0, hidden * (dim + 2))
    out_w, in_w, biases = param_views(theta, hidden, dim)
    grad = np.empty_like(theta)
    d_out, d_in, d_bias = param_views(grad, hidden, dim)
    first, second = np.zeros_like(theta), np.zeros_like(theta)
    adam_step = 0
    trace = np.empty(config.epochs)
    loss_rows = max(1, _FORWARD_BLOCK // hidden)  # one block of `forward` each
    batch_rows = min(config.batch_size, data.size)
    batch_x, batch_y = np.empty((batch_rows, dim)), np.empty(batch_rows)
    # divergence surfaces through the per-epoch finite-loss check, so the
    # intermediate overflow warnings carry no extra information
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = np.arange(data.size, dtype=np.int32 if data.size < 2**31 else np.int64)
            rng.shuffle(order)
            for lo_idx in range(0, data.size, config.batch_size):
                idx = order[lo_idx : lo_idx + config.batch_size]
                x = np.take(data.inputs, idx, axis=0, out=batch_x[: idx.size])
                y = np.take(data.targets, idx, out=batch_y[: idx.size])
                hidden_act = sigmoid(x @ in_w.T + biases)
                scaled = (2.0 / y.size) * (hidden_act @ out_w - y)
                d_hidden = scaled[:, None] * out_w[None, :] * hidden_act * (1.0 - hidden_act)
                d_out[:] = hidden_act.T @ scaled
                d_in[:] = d_hidden.T @ x
                d_bias[:] = d_hidden.sum(axis=0)
                adam_step += 1
                correct1 = 1.0 - _BETA1**adam_step
                correct2 = 1.0 - _BETA2**adam_step
                first += (1.0 - _BETA1) * (grad - first)
                second += (1.0 - _BETA2) * (grad * grad - second)
                theta -= config.learning_rate * (first / correct1) / (np.sqrt(second / correct2) + _EPS)
            del order  # so two epochs' index arrays are never alive at once
            total = 0.0
            for lo_idx in range(0, data.size, loss_rows):
                err = forward((out_w, in_w, biases), data.inputs[lo_idx : lo_idx + loss_rows])
                err -= data.targets[lo_idx : lo_idx + loss_rows]
                total += float(err @ err)
            trace[epoch] = total / data.size
            if not np.isfinite(trace[epoch]):
                raise TrainingError(f"non-finite training loss at epoch {epoch}")
    return TrainResult(SigmoidNet(out_w, in_w, biases), trace, config)


def dataset_csv_text(data: Dataset) -> Iterator[str]:
    return _csv_text([*(f"x_{d + 1}" for d in range(data.dim)), "target"], data.inputs, data.targets)
