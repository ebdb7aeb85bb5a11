"""Single-hidden-layer sigmoid network and its exact Taylor structure.

The network computes y = sum_i w_out[i] * sigmoid(w_in[i] . x + b[i]).
Because the logistic sigmoid is analytic, the output has an exact Taylor
expansion around the origin whose coefficient at the multi-index l is

    T*(l) = sum_i w_out[i] * w_in[i]^l / l! * sigmoid^(|l|)(b[i]).

Every sigmoid derivative is a polynomial in w = tanh(b / 2):
sigmoid^(n)(b) = p_n(w), with p_0(w) = (1 + w) / 2 and
p_{n+1}(w) = (1 - w^2) / 2 * p_n'(w).  2^(n+1) p_n has integer
coefficients, so every table entry [w^j] p_|l| / l! is one correctly
rounded division, and the values keep about 1e-10 of the peak up to n = 21
on [-6, 6] (the same recurrence in sigmoid(b) loses 5e-3 there).  At
b = 0 the derivative is p_n's constant term: exact, and zero for every even
n >= 2.  The coefficients, and their closed-form partial derivatives with
respect to every weight (d/db_i raises sigmoid^(n) to sigmoid^(n+1)), are
what the coefficient-matching fit optimizes over; both come from one
expansion, which `network_taylor` returns as a record and `taylor_jacobian`
differentiates, so the fit's Jacobian at an accepted step reuses the one
its trial built.

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
    "forward",
    "network_taylor",
    "taylor_jacobian",
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


def _sigmoid_polynomials(order: int) -> tuple[tuple[int, ...], ...]:
    """The integer coefficients of 2^(n+1) p_n for n = 0..order, in ascending
    powers of w, where sigmoid^(n)(b) = p_n(tanh(b / 2)).  The recurrence is
    exact in integers: 2^(n+2) p_{n+1} = (1 - w^2) * (2^(n+1) p_n)'.  So
    sigmoid^(n)(0) is the constant term over 2^(n+1)."""
    polys = [(1, 1)]  # 2 p_0(w) = 1 + w
    for _ in range(order):
        deriv = [p * c for p, c in enumerate(polys[-1])][1:]
        nxt = deriv + [0, 0]
        for p, c in enumerate(deriv):  # times 1 - w^2
            nxt[p + 2] -= c
        polys.append(tuple(nxt))
    return tuple(polys)


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
    total-degree index set (L, dim); the factors [w^j] p_|l| / l! (L, order + 2)
    and their bias derivatives [w^j] p_(|l|+1) / l! (L, order + 3), zero beyond
    each polynomial's degree; per axis d the exponent column (L, 1); and the
    `power_table` rows (dim, L) of w_in[:, d]^l_d and w_in[:, d]^max(l_d - 1, 0).
    """
    if order > MAX_SIGMOID_ORDER:
        raise ValueError(f"Taylor order {order} exceeds the supported maximum {MAX_SIGMOID_ORDER}")
    exps = multi_index_set(dim, order, "total-degree")
    polys = _sigmoid_polynomials(order + 1)
    factors, dfactors = np.zeros((len(exps), order + 2)), np.zeros((len(exps), order + 3))
    for row, l in enumerate(exps.tolist()):
        lfact = math.prod(map(math.factorial, l))
        for table, n in ((factors, sum(l)), (dfactors, sum(l) + 1)):
            denominator = lfact << (n + 1)
            table[row, : n + 2] = [c / denominator for c in polys[n]]  # int / int rounds once
    rows = (dim + 1) * exps.T + np.arange(1, dim + 1)[:, None]
    tables = (exps, factors, dfactors, exps.T[:, :, None], rows, np.maximum(rows - dim - 1, rows % (dim + 1)))
    for array in tables:
        array.setflags(write=False)
    return tables


class TaylorExpansion(NamedTuple):
    """The expansion `network_taylor` builds and `taylor_jacobian` reuses: the (L,)
    coefficients, the given out_weights, and new arrays of the nodes' `power_table` as rows
    k * (dim + 1) + a for k <= order + 2 (a = 0: tanh(b / 2)^k, d + 1: w_in[:, d]^k), its rows
    gathered at every index (dim, L, hidden), their product over the axes, and the
    derivative terms sigmoid^(|l|)(b) / l! (L, hidden)."""

    coefficients: np.ndarray
    out_weights: np.ndarray
    powers: np.ndarray
    gathered: np.ndarray
    weight_pow: np.ndarray
    derivative_terms: np.ndarray


def network_taylor(params, order: int) -> TaylorExpansion:
    """The network's own order-N Taylor coefficients T* at the origin, for
    the weights (q, R, s), with what their Jacobian reuses.

    `.coefficients` is an (L,) float array, one coefficient per row of
    `multi_index_set(dim, order, "total-degree")`, in that order.
    """
    out_w, in_w, biases = (np.asarray(w, dtype=float) for w in params)
    dim = in_w.shape[1]
    _, factors, _, _, rows, _ = _taylor_tables(dim, order)
    base = np.concatenate([np.tanh(biases / 2)[:, None], in_w], axis=1)
    # every axis up to order + 2, though only w needs it: no per-axis tail in `power_table`
    powers = power_table(base, [order + 2] * (dim + 1)).reshape(-1, len(biases))
    gathered = np.take(powers, rows, axis=0)
    weight_pow = np.multiply.reduce(gathered)  # from axis 0 upwards
    derivative_terms = factors @ powers[: -dim - 1 : dim + 1]
    return TaylorExpansion(
        (weight_pow * derivative_terms) @ out_w, out_w, powers, gathered, weight_pow, derivative_terms
    )


def taylor_jacobian(expansion: TaylorExpansion) -> np.ndarray:
    """Partial derivatives of every Taylor coefficient w.r.t. every weight of
    (q, R, s), from the expansion `network_taylor` built at those weights.

    Shape (L, hidden * (dim + 2)); columns follow `param_views`.
    """
    _, out_w, powers, gathered, weight_pow, derivative_terms = expansion
    dim, _, n = gathered.shape
    exps, _, dfactors, columns, _, lowered = _taylor_tables(dim, len(powers) // (dim + 1) - 3)
    jac = np.empty((len(exps), n * (dim + 2)))
    np.multiply(weight_pow, derivative_terms, out=jac[:, :n])  # d/d out_weights

    # d/d in_weights[:, d]: lower the exponent on axis d, keep the others
    for d in range(dim):
        dpow = columns[d] * np.take(powers, lowered[d], axis=0)
        for other in range(dim):
            if other != d:
                dpow = dpow * gathered[other]
        np.multiply(dpow * derivative_terms, out_w, out=jac[:, n + d : n * (dim + 1) : dim])

    # d/d biases: sigmoid^(|l|) becomes sigmoid^(|l|+1)
    np.multiply(weight_pow * (dfactors @ powers[:: dim + 1]), out_w, out=jac[:, n * (dim + 1) :])
    return jac


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
    """Load a network JSON file; fit-result documents embedding one also work.
    Every error it raises is a `ValueError` that starts with the path."""
    try:
        doc = json.loads(Path(path).read_text())
        if isinstance(doc, dict) and "network" in doc and "q" not in doc:
            doc = doc["network"]
        return dict_to_net(doc)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError among them
        raise ValueError(f"{path}: {exc}") from None
