"""Conventional supervised baseline: dataset generation plus backprop training.

The comparison pipeline labels uniformly sampled start points with moments
evaluated from solved dual coefficients (far cheaper than Monte Carlo
labeling), then trains the same one-hidden-layer sigmoid architecture on
mean squared error with mini-batch Adam.  The result is an ordinary
data-trained network of the exact same type the coefficient-matching fit
produces, so all evaluation code is shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

from .dual import DualCoefficients, eval_moment
from .network import SigmoidNet

__all__ = [
    "Dataset",
    "TrainConfig",
    "TrainResult",
    "TrainingError",
    "generate_dataset",
    "train_backprop",
    "dataset_csv_text",
    "write_dataset_csv",
]


class TrainingError(RuntimeError):
    """Training diverged; the message names the epoch."""


@dataclass(frozen=True)
class Dataset:
    """(start point, target moment) pairs drawn from an axis-aligned box."""

    inputs: np.ndarray  # (size, dim)
    targets: np.ndarray  # (size,)
    region: tuple[tuple[float, float], ...]
    generator_fingerprint: str
    seed: int

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        if inputs.ndim != 2 or targets.shape != (inputs.shape[0],):
            raise ValueError("inputs must be (size, dim) with one target per row")
        if inputs.shape[0] < 1:
            raise ValueError("dataset must be non-empty")
        inputs.flags.writeable = False
        targets.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "region", tuple((float(a), float(b)) for a, b in self.region))

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
    epochs: int = 50
    batch_size: int = 256
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be > 0")


@dataclass(frozen=True)
class TrainResult:
    net: SigmoidNet
    loss_trace: np.ndarray  # full-dataset MSE after each epoch
    config: TrainConfig

    def __post_init__(self):
        trace = np.asarray(self.loss_trace, dtype=float).copy()
        trace.flags.writeable = False
        object.__setattr__(self, "loss_trace", trace)


def generate_dataset(coeffs: DualCoefficients, region, size: int, seed: int = 0) -> Dataset:
    """Uniform inputs over the box, targets from the dual moment evaluation."""
    region = tuple((float(a), float(b)) for a, b in region)
    if len(region) != coeffs.dim:
        raise ValueError(f"region has {len(region)} axes, expected {coeffs.dim}")
    if any(b < a for a, b in region):
        raise ValueError("region bounds must satisfy lo <= hi")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    rng = np.random.default_rng(seed)
    lo = np.array([a for a, _ in region])
    hi = np.array([b for _, b in region])
    inputs = rng.uniform(lo, hi, size=(size, coeffs.dim))
    targets = np.asarray(eval_moment(coeffs, inputs), dtype=float).reshape(size)
    return Dataset(inputs, targets, region, coeffs.fingerprint(), seed)


def _mse(net_params, inputs, targets):
    out_w, in_w, biases = net_params
    pred = expit(inputs @ in_w.T + biases) @ out_w
    err = pred - targets
    return float(err @ err) / err.size


def train_backprop(data: Dataset, arch: tuple[int, int], config: TrainConfig) -> TrainResult:
    """Mini-batch Adam on mean squared error over the dataset.

    arch is (hidden nodes, input dimension).  Initial weights are uniform
    on [-1, 1); shuffling and initialization both derive from the seed, so
    training is reproducible.  The loss trace records the full-dataset MSE
    after each epoch.
    """
    hidden, dim = arch
    if dim != data.dim:
        raise ValueError(f"architecture dimension {dim} != dataset dimension {data.dim}")
    if hidden < 1:
        raise ValueError("hidden node count must be >= 1")
    rng = np.random.default_rng(config.seed)
    out_w = rng.uniform(-1.0, 1.0, hidden)
    in_w = rng.uniform(-1.0, 1.0, (hidden, dim))
    biases = rng.uniform(-1.0, 1.0, hidden)

    params = [out_w, in_w, biases]
    first = [np.zeros_like(p) for p in params]
    second = [np.zeros_like(p) for p in params]
    adam_step = 0
    trace = np.empty(config.epochs)
    # divergence surfaces through the per-epoch finite-loss check, so the
    # intermediate overflow warnings carry no extra information
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(data.size)
            for lo_idx in range(0, data.size, config.batch_size):
                batch = order[lo_idx : lo_idx + config.batch_size]
                x = data.inputs[batch]
                y = data.targets[batch]
                hidden_act = expit(x @ in_w.T + biases)
                err = hidden_act @ out_w - y
                scale = 2.0 / batch.size
                d_hidden = (scale * err)[:, None] * out_w[None, :] * hidden_act * (1.0 - hidden_act)
                grads = [hidden_act.T @ (scale * err), d_hidden.T @ x, d_hidden.sum(axis=0)]
                adam_step += 1
                correct1 = 1.0 - _BETA1**adam_step
                correct2 = 1.0 - _BETA2**adam_step
                for p, m, v, g in zip(params, first, second, grads):
                    m += (1.0 - _BETA1) * (g - m)
                    v += (1.0 - _BETA2) * (g * g - v)
                    p -= config.learning_rate * (m / correct1) / (np.sqrt(v / correct2) + _EPS)
            loss = _mse(params, data.inputs, data.targets)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite training loss at epoch {epoch}")
            trace[epoch] = loss
    return TrainResult(SigmoidNet(out_w, in_w, biases), trace, config)


def dataset_csv_text(data: Dataset) -> str:
    lines = [",".join([f"x_{d + 1}" for d in range(data.dim)] + ["target"])]
    for row, target in zip(data.inputs, data.targets):
        lines.append(",".join([repr(float(v)) for v in row] + [repr(float(target))]))
    return "\n".join(lines) + "\n"


def write_dataset_csv(data: Dataset, path) -> None:
    Path(path).write_text(dataset_csv_text(data))
