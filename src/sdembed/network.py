"""Single-hidden-layer sigmoid network and its exact Taylor structure.

The network computes y = sum_i w_out[i] * sigmoid(w_in[i] . x + b[i]).
Because the logistic sigmoid is analytic, the output has an exact Taylor
expansion around the origin whose coefficient at the multi-index l is

    T(l) = sum_{k=|l|}^{N} multinomial(k; l_1..l_D, k-|l|)
           * sigmoid_deriv(k) / k!
           * sum_i w_out[i] * w_in[i]^l * b[i]^(k-|l|)

truncated at order N.  These coefficients, and their closed-form partial
derivatives with respect to every weight, are what the coefficient-matching
fit optimizes over.  The sigmoid derivatives at zero are computed in exact
rational arithmetic via the polynomial-in-sigmoid recurrence, so no float
error enters the tables.

Parameter flattening order (used by the Jacobian columns and the
optimizer) is: output weights (n), then input weights row-major
(node-major, axis-minor; n*D), then biases (n).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.special import expit

from .polynomial import multi_index_set

__all__ = [
    "MAX_SIGMOID_ORDER",
    "SigmoidNet",
    "SigmoidDerivativeTable",
    "NetworkTaylorCoefficients",
    "sigmoid",
    "sigmoid_derivatives",
    "forward",
    "network_taylor",
    "taylor_jacobian",
    "flatten_params",
    "unflatten_params",
    "net_to_dict",
    "dict_to_net",
    "read_network",
    "write_network",
]

MAX_SIGMOID_ORDER = 20


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)), stable for large |x|."""
    return expit(x)


@dataclass(frozen=True)
class SigmoidDerivativeTable:
    """sigmoid^(k)(0) for k = 0..order, exact rationals plus float copies."""

    order: int
    rationals: tuple[Fraction, ...]
    floats: np.ndarray


@lru_cache(maxsize=None)
def sigmoid_derivatives(order: int = MAX_SIGMOID_ORDER) -> SigmoidDerivativeTable:
    """Derivatives of the sigmoid at zero, by the polynomial recurrence.

    Writing sigmoid^(k) = p_k(sigmoid) with integer-coefficient p_k,
    p_0(u) = u and p_{k+1}(u) = p_k'(u) * (u - u^2); evaluating at u = 1/2
    in rational arithmetic gives the exact values.  All even orders >= 2
    vanish by the odd symmetry of sigmoid(x) - 1/2.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if order > MAX_SIGMOID_ORDER:
        raise ValueError(f"order {order} exceeds the supported maximum {MAX_SIGMOID_ORDER}")
    coeffs = [0, 1]  # p_0(u) = u, ascending powers
    half = Fraction(1, 2)
    rationals = []
    for _ in range(order + 1):
        value = sum(c * half**p for p, c in enumerate(coeffs))
        rationals.append(Fraction(value))
        dcoeffs = [p * c for p, c in enumerate(coeffs)][1:]  # p_k'
        nxt = [0] * (len(coeffs) + 1)
        for p, c in enumerate(dcoeffs):  # multiply by u - u^2
            nxt[p + 1] += c
            nxt[p + 2] -= c
        coeffs = nxt
    floats = np.array([float(r) for r in rationals])
    floats.flags.writeable = False
    return SigmoidDerivativeTable(order, tuple(rationals), floats)


@dataclass(frozen=True)
class SigmoidNet:
    """Weights of a one-hidden-layer sigmoid network mapping R^dim -> R."""

    out_weights: np.ndarray  # (hidden,)
    in_weights: np.ndarray  # (hidden, dim)
    biases: np.ndarray  # (hidden,)

    def __post_init__(self):
        out_w = np.array(self.out_weights, dtype=float)
        in_w = np.array(self.in_weights, dtype=float)
        b = np.array(self.biases, dtype=float)
        if in_w.ndim != 2:
            raise ValueError("in_weights must be a (hidden, dim) matrix")
        n = in_w.shape[0]
        if out_w.shape != (n,) or b.shape != (n,):
            raise ValueError("out_weights and biases must have one entry per hidden node")
        for arr in (out_w, in_w, b):
            if not np.all(np.isfinite(arr)):
                raise ValueError("network weights must be finite")
            arr.flags.writeable = False
        object.__setattr__(self, "out_weights", out_w)
        object.__setattr__(self, "in_weights", in_w)
        object.__setattr__(self, "biases", b)

    @property
    def hidden(self) -> int:
        return self.in_weights.shape[0]

    @property
    def dim(self) -> int:
        return self.in_weights.shape[1]


def forward(net: SigmoidNet, x) -> float | np.ndarray:
    """Network output at a point (dim,) or batch (..., dim) of points."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != net.dim:
        raise ValueError(f"input dimension {x.shape[-1]} != network dimension {net.dim}")
    hidden = expit(x @ net.in_weights.T + net.biases)
    out = hidden @ net.out_weights
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class NetworkTaylorCoefficients:
    """Taylor coefficients of the network output over a total-degree index set."""

    index_set: np.ndarray  # (L, dim) int64, read-only, grlex order
    values: np.ndarray
    order: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


@lru_cache(maxsize=None)
def _taylor_tables(dim: int, order: int):
    """Weight-independent tables for the expansion at (dim, order).

    Returns the total-degree index set (L, dim) and the rational factor
    table c[l, j] = sigmoid_deriv(|l|+j) / (l! * j!) for j <= order - |l|
    (zero beyond), already combining the multinomial and 1/k! factors of
    the coefficient formula.
    """
    table = sigmoid_derivatives(order).rationals
    exps = multi_index_set(dim, order, "total-degree")
    factors = np.zeros((len(exps), order + 1))
    for row, l in enumerate(exps.tolist()):
        lfact = math.prod(math.factorial(e) for e in l)
        deg = sum(l)
        for j in range(order - deg + 1):
            factors[row, j] = float(table[deg + j] / (lfact * math.factorial(j)))
    factors.flags.writeable = False
    return exps, factors


def _power_tables(net: SigmoidNet, order: int):
    """Per-axis tables w_in[:, d]^p and bias^j, with the 0**0 = 1 convention."""
    powers = np.arange(order + 1)[:, None]
    bias_pow = net.biases[None, :] ** powers  # (order+1, hidden)
    axis_pow = [net.in_weights[:, d][None, :] ** powers for d in range(net.dim)]
    return bias_pow, axis_pow


def network_taylor(net: SigmoidNet, order: int) -> NetworkTaylorCoefficients:
    """Exact order-N Taylor coefficients of the network output at the origin."""
    exps, factors = _taylor_tables(net.dim, order)
    bias_pow, axis_pow = _power_tables(net, order)
    bias_sum = factors @ bias_pow  # (L, hidden)
    weight_pow = axis_pow[0][exps[:, 0], :]
    for d in range(1, net.dim):
        weight_pow = weight_pow * axis_pow[d][exps[:, d], :]
    values = (weight_pow * bias_sum) @ net.out_weights
    return NetworkTaylorCoefficients(exps, values, order)


def taylor_jacobian(net: SigmoidNet, order: int) -> np.ndarray:
    """Partial derivatives of every Taylor coefficient w.r.t. every weight.

    Shape (L, hidden * (dim + 2)); columns follow the documented flattening
    (out_weights, then in_weights row-major, then biases).
    """
    exps, factors = _taylor_tables(net.dim, order)
    n, dim = net.hidden, net.dim
    bias_pow, axis_pow = _power_tables(net, order)
    bias_sum = factors @ bias_pow  # (L, n)

    gathered = [axis_pow[d][exps[:, d], :] for d in range(dim)]  # each (L, n)
    weight_pow = gathered[0]
    for d in range(1, dim):
        weight_pow = weight_pow * gathered[d]

    d_out = weight_pow * bias_sum  # d/d out_weights

    # d/d biases: differentiate the bias power series term-wise
    dbias_factors = factors[:, 1:] * np.arange(1, order + 1)[None, :]
    dbias_sum = dbias_factors @ bias_pow[:order]
    d_bias = (weight_pow * dbias_sum) * net.out_weights[None, :]

    # d/d in_weights[:, d]: lower the exponent on axis d, keep the others
    d_in = np.empty((len(exps), n * dim))
    for d in range(dim):
        lowered = axis_pow[d][np.maximum(exps[:, d] - 1, 0), :]
        dpow = exps[:, d][:, None] * lowered
        for other in range(dim):
            if other != d:
                dpow = dpow * gathered[other]
        d_in[:, d::dim] = (dpow * bias_sum) * net.out_weights[None, :]

    return np.hstack([d_out, d_in, d_bias])


def flatten_params(net: SigmoidNet) -> np.ndarray:
    """Concatenate (out_weights, in_weights row-major, biases)."""
    return np.concatenate([net.out_weights, net.in_weights.ravel(), net.biases])


def unflatten_params(theta: np.ndarray, hidden: int, dim: int) -> SigmoidNet:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (hidden * (dim + 2),):
        raise ValueError(f"parameter vector has {theta.size} entries, expected {hidden * (dim + 2)}")
    out_w = theta[:hidden]
    in_w = theta[hidden : hidden + hidden * dim].reshape(hidden, dim)
    biases = theta[hidden + hidden * dim :]
    return SigmoidNet(out_w, in_w, biases)


# -- serialization -----------------------------------------------------------


def net_to_dict(net: SigmoidNet) -> dict:
    return {
        "hidden": net.hidden,
        "dim": net.dim,
        "q": net.out_weights.tolist(),
        "R": net.in_weights.tolist(),
        "s": net.biases.tolist(),
    }


def dict_to_net(doc: dict) -> SigmoidNet:
    try:
        net = SigmoidNet(doc["q"], doc["R"], doc["s"])
    except KeyError as exc:
        raise ValueError(f"network document is missing key {exc}") from exc
    if net.hidden != doc.get("hidden", net.hidden) or net.dim != doc.get("dim", net.dim):
        raise ValueError("network document shape fields disagree with the weight arrays")
    return net


def read_network(path) -> SigmoidNet:
    """Load a network JSON file; fit-result documents embedding one also work."""
    doc = json.loads(Path(path).read_text())
    if "network" in doc and "q" not in doc:
        doc = doc["network"]
    return dict_to_net(doc)


def write_network(net: SigmoidNet, path) -> None:
    Path(path).write_text(json.dumps(net_to_dict(net)) + "\n")
