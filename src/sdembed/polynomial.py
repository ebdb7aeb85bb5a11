"""Sparse multivariate polynomials over exponent multi-indices.

A multi-index is a tuple of non-negative integer exponents, one per
coordinate, naming the monomial x^n = prod_i x_i^{n_i}.  A Polynomial maps
multi-indices to float coefficients.  Terms whose coefficient is exactly
0.0 are never stored, and pruning uses an exact-zero test only, so the
sparsity pattern is never altered by epsilon thresholds.  Instances are
immutable after construction; every operation returns a new value.

An index set is a read-only (K, dim) int64 array of exponent rows in graded
lexicographic order (total degree first, then x_1 before x_2 before ...),
which fixes the vector layout used by the coefficient solver and the
least-squares residuals.  Tuples remain only as `Polynomial` term keys.

`monomials` is the one evaluator of monomials at points: `Polynomial` compiles
its terms for it once, and `dual.eval_moment` and `mc.simulate` call it too.
"""

from __future__ import annotations

import itertools
import math
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

MultiIndex = tuple[int, ...]

__all__ = [
    "MultiIndex",
    "Polynomial",
    "grlex_order",
    "index_positions",
    "multi_index_set",
    "multinomial",
    "monomials",
]


def grlex_order(exps: np.ndarray) -> np.ndarray:
    """Permutation sorting exponent rows (K, dim) by degree, then x_1 > x_2 > ..."""
    # lexsort's last key is the primary one
    return np.lexsort(np.vstack([-exps[:, ::-1].T, exps.sum(axis=1)]))


def multi_index_set(dim: int, order: int, mode: str = "total-degree") -> np.ndarray:
    """Enumerate multi-indices up to an order cap, as a read-only (K, dim)
    int64 array in graded lexicographic order.

    mode "total-degree" keeps sum(n) <= order, giving C(order+dim, dim)
    indices; mode "max-degree" keeps max(n) <= order, giving (order+1)**dim.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if mode not in ("total-degree", "max-degree"):
        raise ValueError(f"unknown mode {mode!r}")
    exps = np.indices((order + 1,) * dim, dtype=np.int64).reshape(dim, -1).T
    if mode == "total-degree":
        exps = exps[exps.sum(axis=1) <= order]
    exps = exps[grlex_order(exps)]
    exps.flags.writeable = False
    return exps


def index_positions(index_set: np.ndarray, indices) -> np.ndarray:
    """Rows of the index set (K, dim) holding the multi-indices (..., dim).

    This is the package's one lookup of multi-indices, through a dense
    (max + 1)**dim table over the set; an index outside the set raises
    KeyError carrying the first such index as a tuple.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.shape[-1:] != index_set.shape[1:]:
        raise ValueError(f"indices of shape {indices.shape} need {index_set.shape[1]} exponents each")
    grid = (int(index_set.max()) + 1,) * index_set.shape[1]
    table = np.zeros(math.prod(grid), dtype=np.int64)
    table[np.ravel_multi_index(index_set.T, grid)] = np.arange(len(index_set))
    flat = indices.reshape(-1, index_set.shape[1])
    # "clip" maps an index off the table to some row, which the comparison rejects
    rows = table[np.ravel_multi_index(flat.T, grid, mode="clip")]
    missing = np.flatnonzero(np.any(index_set[rows] != flat, axis=1))
    if missing.size:
        raise KeyError(tuple(flat[missing[0]].tolist()))
    return rows.reshape(indices.shape[:-1])


def multinomial(k: int, parts: Iterable[int]) -> int:
    """Number of ways to split k items into groups of the given sizes.

    Exact integer k! / prod(parts_i!); the parts must be non-negative and
    sum to k.
    """
    parts = tuple(int(p) for p in parts)
    if any(p < 0 for p in parts):
        raise ValueError(f"parts must be non-negative, got {parts}")
    if sum(parts) != k:
        raise ValueError(f"parts {parts} do not sum to k={k}")
    out = math.factorial(k)
    for p in parts:
        out //= math.factorial(p)
    return out


def monomials(x: np.ndarray, exps: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Monomials x^n of float points x (..., dim) for the int exponent rows
    of exps (K, dim), as an array (..., K); `out`, of that shape, receives
    them if given, so a caller working in blocks can reuse one buffer.

    This is the package's one monomial evaluator.  Per-axis power tables
    built by repeated multiplication (x^0 = 1, 0 included) cost one multiply
    per (point, index); the product runs from axis 0 upwards.
    """
    tables = []
    for d, top in enumerate(exps.max(axis=0, initial=0)):
        table = np.empty((top + 1,) + x.shape[:-1])
        table[0], table[1:] = 1.0, x[..., d]
        tables.append(np.cumprod(table, axis=0, out=table))
    rows = np.empty((len(exps),) + x.shape[:-1]) if out is None else np.moveaxis(out, -1, 0)
    # "clip" is a no-op (exponents fit their tables) that spares take's buffered copy
    np.take(tables[0], exps[:, 0], axis=0, out=rows, mode="clip")
    for d in range(1, len(tables)):
        rows *= tables[d][exps[:, d]]
    return np.moveaxis(rows, 0, -1)


class Polynomial:
    """Immutable sparse polynomial with float coefficients."""

    # _exps (K, dim) and _coefs (K,) hold the terms compiled for `monomials`
    __slots__ = ("_dim", "_terms", "_exps", "_coefs")

    def __init__(self, dim: int, terms: Mapping[MultiIndex, float] | None = None):
        dim = int(dim)
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        clean: dict[MultiIndex, float] = {}
        for index, coef in (terms or {}).items():
            index = tuple(int(e) for e in index)
            if len(index) != dim:
                raise ValueError(f"index {index} has length {len(index)}, expected {dim}")
            if any(e < 0 for e in index):
                raise ValueError(f"negative exponent in index {index}")
            coef = float(coef)
            if coef != 0.0:
                clean[index] = coef
        self._dim = dim
        exps = np.array(list(clean), dtype=np.int64).reshape(-1, dim)
        # canonical term order makes evaluation and repr deterministic
        self._exps = exps[grlex_order(exps)]
        self._terms = {n: clean[n] for n in map(tuple, self._exps.tolist())}
        self._coefs = np.array(list(self._terms.values()), dtype=float)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def terms(self) -> Mapping[MultiIndex, float]:
        return MappingProxyType(self._terms)

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, value: float) -> "Polynomial":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def variable(cls, dim: int, axis: int) -> "Polynomial":
        """The coordinate polynomial x_axis (axis is 0-based)."""
        if not 0 <= axis < dim:
            raise ValueError(f"axis {axis} out of range for dimension {dim}")
        index = tuple(1 if d == axis else 0 for d in range(dim))
        return cls(dim, {index: 1.0})

    @classmethod
    def monomial(cls, dim: int, index: MultiIndex, coef: float = 1.0) -> "Polynomial":
        return cls(dim, {tuple(index): coef})

    def coefficient(self, index: MultiIndex) -> float:
        return self._terms.get(tuple(index), 0.0)

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial reports degree 0."""
        return max((sum(n) for n in self._terms), default=0)

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other._dim != self._dim:
                raise ValueError(f"dimension mismatch: {self._dim} vs {other._dim}")
            return other
        if isinstance(other, (int, float)):
            return Polynomial.constant(self._dim, other)
        return None

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self._terms)
        for index, coef in other._terms.items():
            acc[index] = acc.get(index, 0.0) + coef
        return Polynomial(self._dim, acc)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self._dim, {n: -c for n, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, float)):
            return Polynomial(self._dim, {n: c * other for n, c in self._terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc: dict[MultiIndex, list[float]] = {}
        for na, ca in self._terms.items():
            for nb, cb in other._terms.items():
                key = tuple(a + b for a, b in zip(na, nb))
                acc.setdefault(key, []).append(ca * cb)
        # fsum is exactly rounded, so the result is independent of term order
        # and multiplication commutes bit-for-bit
        return Polynomial(self._dim, {key: math.fsum(vals) for key, vals in acc.items()})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = Polynomial.constant(self._dim, 1.0)
        for _ in range(exponent):
            out = out * self
        return out

    def derivative(self, axis: int) -> "Polynomial":
        """Partial derivative with respect to x_axis (axis is 0-based)."""
        if not 0 <= axis < self._dim:
            raise ValueError(f"axis {axis} out of range for dimension {self._dim}")
        acc: dict[MultiIndex, float] = {}
        for index, coef in self._terms.items():
            e = index[axis]
            if e == 0:
                continue
            lowered = tuple(v - 1 if d == axis else v for d, v in enumerate(index))
            acc[lowered] = acc.get(lowered, 0.0) + coef * e
        return Polynomial(self._dim, acc)

    def shift(self, offset) -> "Polynomial":
        """Re-expand around a translated origin: returns q with q(y) = p(y + offset)."""
        offset = tuple(float(c) for c in offset)
        if len(offset) != self._dim:
            raise ValueError(f"offset length {len(offset)} != dimension {self._dim}")
        acc: dict[MultiIndex, float] = {}
        for index, coef in self._terms.items():
            for sub in itertools.product(*(range(e + 1) for e in index)):
                w = coef
                for e, j, c in zip(index, sub, offset):
                    w *= math.comb(e, j) * c ** (e - j)
                if w != 0.0:
                    acc[sub] = acc.get(sub, 0.0) + w
        return Polynomial(self._dim, acc)

    def evaluate(self, x) -> float | np.ndarray:
        """Evaluate at a point (dim,) or a batch (..., dim) of points."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self._dim:
            raise ValueError(f"point dimension {x.shape[-1]} != polynomial dimension {self._dim}")
        out = monomials(x, self._exps) @ self._coefs
        return float(out) if out.ndim == 0 else out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._dim == other._dim and self._terms == other._terms

    __hash__ = None  # mutable-looking value semantics; not hashable

    def allclose(self, other: "Polynomial", rel_tol: float = 1e-12, abs_tol: float = 0.0) -> bool:
        """Coefficient-wise closeness over the union of term indices."""
        if self._dim != other._dim:
            return False
        for index in self._terms.keys() | other._terms.keys():
            a = self._terms.get(index, 0.0)
            b = other._terms.get(index, 0.0)
            if abs(a - b) > max(abs_tol, rel_tol * max(abs(a), abs(b))):
                return False
        return True

    def __repr__(self) -> str:
        if not self._terms:
            return f"Polynomial({self._dim}, 0)"
        bits = []
        for index, coef in self._terms.items():
            mono = "*".join(f"x{d + 1}^{e}" for d, e in enumerate(index) if e > 0)
            bits.append(f"{coef:g}*{mono}" if mono else f"{coef:g}")
        return f"Polynomial({self._dim}, {' + '.join(bits)})"
