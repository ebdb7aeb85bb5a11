"""Single-hidden-layer sigmoid network and its exact Taylor structure.

The network computes y = sum_i w_out[i] * sigmoid(w_in[i] . x + b[i]).
Because the logistic sigmoid is analytic, the output has an exact Taylor
expansion around the origin whose coefficient at the multi-index l is

    T(l) = sum_{k=|l|}^{N} multinomial(k; l_1..l_D, k-|l|)
           * sigmoid_deriv(k) / k!
           * sum_i w_out[i] * w_in[i]^l * b[i]^(k-|l|)

truncated at order N.  These coefficients, and their closed-form partial
derivatives with respect to every weight, are what the coefficient-matching
fit optimizes over; both come from one expansion, which `network_taylor`
returns as a record and `taylor_jacobian` differentiates, so the fit's
Jacobian at an accepted step reuses the one its trial built.
The sigmoid derivatives at zero are computed in exact rational arithmetic
via the polynomial-in-sigmoid recurrence, so no float error enters the
tables.

Parameter flattening order (used by the Jacobian columns, the fit and the
backprop baseline) is: output weights (n), then input weights row-major
(node-major, axis-minor; n*D), then biases (n); `param_views` writes it and
returns, as views, the weight triple (q, R, s) that `forward` and
`network_taylor` take.  A `SigmoidNet` unpacks to it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .polynomial import _freeze, multi_index_set, power_table

__all__ = [
    "MAX_SIGMOID_ORDER",
    "SigmoidNet",
    "TaylorExpansion",
    "sigmoid",
    "sigmoid_derivatives",
    "sigmoid_derivatives_at",
    "forward",
    "network_taylor",
    "taylor_jacobian",
    "own_taylor_coefficients",
    "param_views",
    "net_to_dict",
    "dict_to_net",
    "read_network",
]

MAX_SIGMOID_ORDER = 20
# `forward` runs in row blocks of at most this many hidden activations (64 KiB),
# below the sizes at which OpenBLAS threads a GEMV (9216) or a dot (10 000): no
# helper thread is woken, and the result is the same for any thread count.
_FORWARD_BLOCK = 8192


def sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-z)), elementwise: 0.0 at -inf and
    below about -709.8 (where exp(-z) overflows to inf, quietly), 1.0 at
    +inf, nan at nan.  It differs from `scipy.special.expit` by at most
    5.1e-16 relative where that is a normal float (numpy's exp is not libm's)."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


@lru_cache(maxsize=None)
def sigmoid_derivatives(order: int = MAX_SIGMOID_ORDER) -> tuple[Fraction, ...]:
    """Derivatives sigmoid^(k)(0) for k = 0..order, as a tuple of exact
    `Fraction`s, by the polynomial recurrence.

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
    return tuple(rationals)


@lru_cache(maxsize=None)
def _tanh_basis(order: int) -> np.ndarray:
    """Coefficients of p_n, n = 0..order, with sigmoid^(n)(b) = p_n(tanh(b / 2)),
    as an (order + 2, order + 1) float array, row j the coefficients of w^j:
    p_0(w) = (1 + w) / 2 and p_{n+1}(w) = (1 - w^2) / 2 * p_n'(w), exact in
    rationals before the one rounding to float."""
    table = np.zeros((order + 2, order + 1))
    coeffs = [Fraction(1, 2), Fraction(1, 2)]  # p_0, ascending powers of w
    for n in range(order + 1):
        table[: len(coeffs), n] = [float(c) for c in coeffs]
        dcoeffs = [p * c for p, c in enumerate(coeffs)][1:]  # p_n'
        coeffs = [Fraction(0)] * (len(coeffs) + 1)
        for p, c in enumerate(dcoeffs):  # times (1 - w^2) / 2
            coeffs[p] += c / 2
            coeffs[p + 2] -= c / 2
    table.setflags(write=False)
    return table


def sigmoid_derivatives_at(b, order: int) -> np.ndarray:
    """sigmoid^(n)(b) for n = 0..order at float points b, as an array
    (order + 1, *b.shape): each a polynomial in w = tanh(b / 2) (`_tanh_basis`),
    by Horner's rule.  In w the values keep about 1e-10 of the peak up to
    n = 21 on [-6, 6], where the same recurrence in sigmoid(b) loses 5e-3."""
    w = np.tanh(np.asarray(b, dtype=float) / 2)
    table = _tanh_basis(order)
    out = np.broadcast_to(table[-1].reshape((-1,) + (1,) * w.ndim), (order + 1, *w.shape)).copy()
    for row in table[-2::-1]:
        out *= w
        out += row.reshape((-1,) + (1,) * w.ndim)
    return out


@dataclass(frozen=True)
class SigmoidNet:
    """Weights of a one-hidden-layer sigmoid network mapping R^dim -> R."""

    out_weights: np.ndarray  # (hidden,)
    in_weights: np.ndarray  # (hidden, dim)
    biases: np.ndarray  # (hidden,)

    def __post_init__(self):
        _freeze(self, out_weights=float, in_weights=float, biases=float)
        if self.in_weights.ndim != 2:
            raise ValueError("in_weights must be a (hidden, dim) matrix")
        n = self.in_weights.shape[0]
        if self.out_weights.shape != (n,) or self.biases.shape != (n,):
            raise ValueError("out_weights and biases must have one entry per hidden node")
        if not all(np.isfinite(arr).all() for arr in (self.out_weights, self.in_weights, self.biases)):
            raise ValueError("network weights must be finite")

    def __iter__(self):
        """Unpack to the weight triple (q, R, s) the network functions take."""
        return iter((self.out_weights, self.in_weights, self.biases))

    @property
    def hidden(self) -> int:
        return self.in_weights.shape[0]

    @property
    def dim(self) -> int:
        return self.in_weights.shape[1]


def forward(params, x) -> float | np.ndarray:
    """Output of the network with weights (q, R, s) at a point (dim,) or a
    batch (..., dim) of points, `_FORWARD_BLOCK` hidden activations at a time."""
    out_w, in_w, biases = params
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != in_w.shape[1]:
        raise ValueError(f"input dimension {x.shape[-1]} != network dimension {in_w.shape[1]}")
    flat = x.reshape(-1, x.shape[-1])
    out = np.empty(len(flat))
    rows = max(1, _FORWARD_BLOCK // len(biases))
    for lo in range(0, len(flat), rows):
        out[lo : lo + rows] = sigmoid(flat[lo : lo + rows] @ in_w.T + biases) @ out_w
    out = out.reshape(x.shape[:-1])
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=None)
def _taylor_tables(dim: int, order: int):
    """Weight-independent tables for the expansion at (dim, order): the
    total-degree index set (L, dim); the factors c[l, j] = sigmoid_deriv(|l|+j)
    / (l! * j!) for j <= order - |l| (zero beyond), which combine the
    multinomial and 1/k! factors of the coefficient formula; the bias-derivative
    factors j * c[l, j], j >= 1; per axis d the exponent column (L, 1); and the
    `power_table` rows (dim, L) of w_in[:, d]^l_d and w_in[:, d]^max(l_d - 1, 0).
    """
    table = sigmoid_derivatives(order)
    exps = multi_index_set(dim, order, "total-degree")
    factors = np.zeros((len(exps), order + 1))
    for row, l in enumerate(exps.tolist()):
        lfact = math.prod(math.factorial(e) for e in l)
        deg = sum(l)
        for j in range(order - deg + 1):
            factors[row, j] = float(table[deg + j] / (lfact * math.factorial(j)))
    rows = (dim + 1) * exps.T + np.arange(1, dim + 1)[:, None]
    tables = (exps, factors, factors[:, 1:] * np.arange(1, order + 1), exps.T[:, :, None], rows,
              np.maximum(rows - dim - 1, rows % (dim + 1)))
    for array in tables:
        array.setflags(write=False)
    return tables


class TaylorExpansion(NamedTuple):
    """The expansion `network_taylor` builds and `taylor_jacobian` reuses: the (L,)
    coefficients, the given out_weights, and new arrays of the nodes' `power_table` as rows
    k * (dim + 1) + a (a = 0: b^k, d + 1: w_in[:, d]^k), its rows gathered at every
    index (dim, L, hidden), their product over the axes, and the bias sums."""

    coefficients: np.ndarray
    out_weights: np.ndarray
    powers: np.ndarray
    gathered: np.ndarray
    weight_pow: np.ndarray
    bias_sum: np.ndarray


def network_taylor(params, order: int) -> TaylorExpansion:
    """Exact order-N Taylor coefficients at the origin of the output of the
    network with weights (q, R, s), with what their Jacobian reuses.

    `.coefficients` is an (L,) float array, one coefficient per row of
    `multi_index_set(dim, order, "total-degree")`, in that order.
    """
    out_w, in_w, biases = (np.asarray(w, dtype=float) for w in params)
    dim = in_w.shape[1]
    _, factors, _, _, rows, _ = _taylor_tables(dim, order)
    powers = power_table(np.concatenate([biases[:, None], in_w], axis=1), [order] * (dim + 1)).reshape(-1, len(biases))
    gathered = np.take(powers, rows, axis=0)
    weight_pow = np.multiply.reduce(gathered)  # from axis 0 upwards
    bias_sum = factors @ powers[:: dim + 1]
    return TaylorExpansion((weight_pow * bias_sum) @ out_w, out_w, powers, gathered, weight_pow, bias_sum)


def taylor_jacobian(expansion: TaylorExpansion) -> np.ndarray:
    """Partial derivatives of every Taylor coefficient w.r.t. every weight of
    (q, R, s), from the expansion `network_taylor` built at those weights.

    Shape (L, hidden * (dim + 2)); columns follow `param_views`.
    """
    _, out_w, powers, gathered, weight_pow, bias_sum = expansion
    dim, _, n = gathered.shape
    exps, _, dbias_factors, columns, _, lowered = _taylor_tables(dim, len(powers) // (dim + 1) - 1)
    jac = np.empty((len(exps), n * (dim + 2)))
    np.multiply(weight_pow, bias_sum, out=jac[:, :n])  # d/d out_weights

    # d/d in_weights[:, d]: lower the exponent on axis d, keep the others
    for d in range(dim):
        dpow = columns[d] * np.take(powers, lowered[d], axis=0)
        for other in range(dim):
            if other != d:
                dpow = dpow * gathered[other]
        np.multiply(dpow * bias_sum, out_w, out=jac[:, n + d : n * (dim + 1) : dim])

    # d/d biases: differentiate the bias power series term-wise (b^0 .. b^(order-1))
    np.multiply(weight_pow * (dbias_factors @ powers[: -dim - 1 : dim + 1]), out_w, out=jac[:, n * (dim + 1) :])
    return jac


def own_taylor_coefficients(expansion: TaylorExpansion, biases) -> np.ndarray:
    """The network's own Taylor coefficients at the origin, one per row of
    the expansion's index set: T*(l) = sum_i q_i R_i^l / l! * sigmoid^(|l|)(b_i),
    from the weight powers R_i^l of the expansion `network_taylor` built at
    biases b, with no second expansion.  The record's coefficients are the
    truncated series in x and b together, which equals T* at zero biases
    and converges to it only for |b_i| < pi."""
    dim = expansion.gathered.shape[0]
    exps = _taylor_tables(dim, len(expansion.powers) // (dim + 1) - 1)[0]
    degree = exps.sum(axis=1)
    factorials = np.array([math.prod(map(math.factorial, l)) for l in exps.tolist()], dtype=float)
    derivatives = sigmoid_derivatives_at(biases, int(degree.max()))[degree]  # (L, hidden)
    return (expansion.weight_pow * derivatives) @ expansion.out_weights / factorials


def param_views(theta: np.ndarray, hidden: int, dim: int):
    """(out_weights, in_weights (hidden, dim), biases) as views of a flat
    parameter vector: the one place the flattening order is written."""
    split = hidden * (dim + 1)
    return theta[:hidden], theta[hidden:split].reshape(hidden, dim), theta[split:]


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
    if not isinstance(doc, dict):
        raise ValueError(f"network document must be a JSON object, got {type(doc).__name__}")
    try:
        net = SigmoidNet(doc["q"], doc["R"], doc["s"])
    except KeyError as exc:
        raise ValueError(f"network document is missing key {exc}") from exc
    except TypeError as exc:  # e.g. an object where a list of numbers belongs
        raise ValueError(f"network document weights must be numbers ({exc})") from None
    if net.hidden != doc.get("hidden", net.hidden) or net.dim != doc.get("dim", net.dim):
        raise ValueError("network document shape fields disagree with the weight arrays")
    return net


def read_network(path) -> SigmoidNet:
    """Load a network JSON file; fit-result documents embedding one also work."""
    doc = json.loads(Path(path).read_text())
    if isinstance(doc, dict) and "network" in doc and "q" not in doc:
        doc = doc["network"]
    return dict_to_net(doc)
