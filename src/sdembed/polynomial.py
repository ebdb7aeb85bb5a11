"""Multivariate polynomials as term tables over exponent multi-indices.

A multi-index is a row of non-negative integer exponents, one per
coordinate, naming the monomial x^n = prod_i x_i^{n_i}.  An index set is a
read-only (K, dim) int64 array of distinct exponent rows in graded
lexicographic order (total degree first, then x_1 before x_2 before ...),
which fixes the vector layout used by the coefficient solver and the
least-squares residuals; `index_order` is the one check of such rows.

A `Polynomial` is one such table with a coefficient row per exponent row,
so a column holds one polynomial and a model's whole drift and diffusion
share one table.  Only exact zeros are pruned, so the sparsity pattern is
never altered by epsilon thresholds.  One `power_table` of points feeds
two reductions: `monomials` gathers its rows per exponent, the kernel of
sparse term tables (`Polynomial.evaluate` and, through it, `mc.simulate`),
and `dual.eval_moment` contracts a dense coefficient box with it axis by
axis.  `simulate` through the contraction was slower: 1.5 s or more
against 1.0 s for 100k vdp paths (2 vCPUs).  The table is (top + 1, dim,
...): the row of x_d^k over all points is contiguous, so the gather (over
the table's rows read as one contiguous block) and the contraction's matrix
product read it in place instead of copying a strided [..., d] slice, and
all axes of one power are one contiguous multiplication.  Rows grouped by
axis, (dim, top + 1, ...), make that multiplication a strided 2-D one:
eval_moment took 7.4 ms against 5.4 ms on the N = 60 grid, and 240 us
against 175 us at one point (one thread, 2 vCPUs).  `Polynomial.evaluate`
can write its table and rows into one caller-owned buffer
(`Polynomial.workspace`) and its values into `out`, which is how
`simulate` allocates once per call.

Two private helpers serve the modules above this leaf one: `_freeze`, how
every result record stores its arrays, and `_csv_text`, the one CSV writer,
which yields the text in chunks of `_CSV_ROWS` rows.  `_freeze` keeps an
array nothing else can write to as is, and copies any other.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

import numpy as np

__all__ = [
    "Polynomial",
    "grlex_order",
    "index_order",
    "index_positions",
    "multi_index_set",
    "monomials",
    "power_table",
]


def grlex_order(exps: np.ndarray) -> np.ndarray:
    """Permutation sorting exponent rows (K, dim) by degree, then x_1 > x_2 > ..."""
    # lexsort's last key is the primary one
    return np.lexsort(np.vstack([-exps[:, ::-1].T, exps.sum(axis=1)]))


def index_order(exps: np.ndarray) -> np.ndarray:
    """`grlex_order` of exponent rows (K, dim) that must be non-negative and
    distinct: the one check of a table's index rows."""
    negative = np.any(exps < 0, axis=1)
    if negative.any():
        raise ValueError(f"negative exponent in index {tuple(exps[negative][0].tolist())}")
    order = grlex_order(exps)
    ordered = exps[order]
    repeated = np.flatnonzero(np.all(ordered[1:] == ordered[:-1], axis=1))
    if repeated.size:
        raise ValueError(f"index {tuple(ordered[repeated[0]].tolist())} appears more than once")
    return order


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
    (top + 1)**dim table, top the smaller of the set's and the queries'
    largest exponent: set rows off the table match no query, and queries
    off it are missing.  An index outside the set raises KeyError carrying
    the first such index as a tuple.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.shape[-1:] != index_set.shape[1:]:
        raise ValueError(f"indices of shape {indices.shape} need {index_set.shape[1]} exponents each")
    flat = indices.reshape(-1, index_set.shape[1])
    grid = (int(min(index_set.max(), flat.max(initial=0))) + 1,) * index_set.shape[1]
    on_table = np.flatnonzero(np.all(index_set < grid[0], axis=1))
    table = np.zeros(math.prod(grid), dtype=np.int64)
    table[np.ravel_multi_index(index_set[on_table].T, grid)] = on_table
    # "clip" maps an index off the table to some row, which the comparison rejects
    rows = table[np.ravel_multi_index(flat.T, grid, mode="clip")]
    missing = np.flatnonzero(np.any(index_set[rows] != flat, axis=1))
    if missing.size:
        raise KeyError(tuple(flat[missing[0]].tolist()))
    return rows.reshape(indices.shape[:-1])


def power_table(x: np.ndarray, tops, out: np.ndarray | None = None) -> np.ndarray:
    """Powers x_d^k of float points x (..., dim) for k up to axis d's largest
    exponent tops[d], as a table (max(tops) + 1, dim, ...) whose row [k, d]
    holds x_d^k at every point, contiguously.  Powers come by repeated
    multiplication (x^0 = 1, 0 included), up to min(tops) one call per power
    or, for a narrow table, one accumulate call; an entry above its axis's
    top is left unset, so a power no exponent needs cannot overflow.  The
    table is written into `out`, of that shape, and returned when given."""
    shape = (max(tops) + 1, x.shape[-1]) + x.shape[:-1]
    table = np.empty(shape) if out is None else out
    if table.shape != shape:
        raise ValueError(f"power table out= has shape {table.shape}, expected {shape}")
    table[0] = 1.0
    rows = x.transpose(-1, *range(x.ndim - 1))  # np.moveaxis, at a seventh of the call cost
    low = min(tops)
    if rows.size < 4 * low:  # narrow: accumulate's C loop runs down each of its columns
        table[1 : low + 1] = rows
        np.multiply.accumulate(table[1 : low + 1], axis=0, out=table[1 : low + 1])
    elif shape[0] > 1:
        table[1] = rows
        for k in range(2, low + 1):
            np.multiply(table[k - 1], table[1], out=table[k])
    for k in range(max(2, low + 1), shape[0]):  # only the axes that use x_d^k
        # the Ellipsis keeps a single point's entry [k, d] a 0-d array that out= takes, not a scalar
        for d in [d for d, top in enumerate(tops) if top >= k]:
            np.multiply(table[k - 1, d, ...], table[1, d, ...], out=table[k, d, ...])
    return table


def _kernel_floats(tops, terms: int, points: int) -> int:
    """Floats of `monomials`'s work buffer: a power table and two
    (terms, points) row blocks."""
    return (len(tops) * (max(tops) + 1) + 2 * terms) * points


def _gather_plan(exps: np.ndarray) -> tuple[list[int], np.ndarray]:
    """What `monomials` derives from the exponent rows exps (K, dim): each
    axis's largest exponent (0 if none), and per axis d the `power_table`
    row k * dim + d holding x_d^k for each exponent row, as (dim, K)."""
    dim = exps.shape[1]
    # column by column: a reduction over axis 0 of a (K, dim) array is ten times slower
    tops = [int(exps[:, d].max(initial=0)) for d in range(dim)]
    return tops, np.ascontiguousarray((exps * dim + np.arange(dim)).T)


def monomials(x: np.ndarray, exps: np.ndarray, work: np.ndarray | None = None, plan=None) -> np.ndarray:
    """Monomials x^n of float points x (..., dim) for the int exponent rows
    of exps (K, dim), as an array (..., K): the product of the `power_table`
    rows gathered per exponent, from axis 0 upwards.  The power table, the
    monomial rows and each axis's gathered rows are contiguous prefix views
    of consecutive parts of the 1-D buffer `work` (fresh when None), so a
    short block of points lays them out as fresh arrays would.  `plan` is
    `_gather_plan(exps)`, derived when None."""
    tops, at = _gather_plan(exps) if plan is None else plan
    batch, (terms, dim) = x.shape[:-1], exps.shape
    points = math.prod(batch)
    if work is None:
        work = np.empty(_kernel_floats(tops, terms, points))
    cut = (max(tops) + 1) * dim * points
    table = power_table(x, tops, out=work[:cut].reshape((max(tops) + 1, dim) + batch))
    rows = work[cut : cut + terms * points].reshape((terms,) + batch)
    gathered = work[cut + terms * points : cut + 2 * terms * points].reshape((terms,) + batch)
    # the table as (top + 1) * dim contiguous rows: np.take would copy a strided
    # source such as table[:, d] whole first.  "clip" is a no-op (exponents fit
    # the table) that spares take's buffered copy of its output
    flat = table.reshape((-1,) + batch)
    np.take(flat, at[0], axis=0, out=rows, mode="clip")
    for d in range(1, dim):
        np.take(flat, at[d], axis=0, out=gathered, mode="clip")
        rows *= gathered
    return rows.transpose(*range(1, rows.ndim), 0)


class Polynomial:
    """Term table of m polynomials in dim variables: distinct exponent rows
    `exps` (T, dim) in grlex order and coefficient rows `coefs` (T, m),
    column c holding polynomial c's coefficients.  Both arrays are
    read-only, and a row whose coefficients are all exactly 0.0 is not kept.
    """

    __slots__ = ("exps", "coefs", "_plan")

    def __init__(self, exps, coefs):
        exps, coefs = np.array(exps, dtype=np.int64), np.array(coefs, dtype=float)
        if exps.ndim != 2 or exps.shape[1] < 1 or coefs.ndim != 2 or len(coefs) != len(exps):
            raise ValueError(f"need (T, dim) exponents, (T, m) coefficients, got {exps.shape}, {coefs.shape}")
        order = index_order(exps)
        order = order[np.any(coefs[order] != 0.0, axis=1)]
        # + 0.0 turns a stored -0.0 into 0.0, the value of an absent term
        self.exps, self.coefs = exps[order], coefs[order] + 0.0
        self.exps.flags.writeable = self.coefs.flags.writeable = False
        self._plan = _gather_plan(self.exps)

    @property
    def dim(self) -> int:
        return self.exps.shape[1]

    def shift(self, offset) -> "Polynomial":
        """Re-expand around a translated origin: column c of the result is q_c
        with q_c(y) = p_c(y + offset).  A power of the offset beyond the float
        range raises OverflowError; an overflowing coefficient becomes inf or nan."""
        offset = tuple(float(c) for c in offset)
        if len(offset) != self.dim:
            raise ValueError(f"offset length {len(offset)} != dimension {self.dim}")
        acc: dict[tuple[int, ...], np.ndarray] = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for index, coef in zip(self.exps.tolist(), self.coefs):
                for sub in itertools.product(*(range(e + 1) for e in index)):
                    w = coef
                    for e, j, c in zip(index, sub, offset):
                        w = w * (math.comb(e, j) * c ** (e - j))
                    acc[sub] = acc.get(sub, 0.0) + w
        exps = np.array(list(acc), dtype=np.int64).reshape(-1, self.dim)
        return Polynomial(exps, np.array(list(acc.values())).reshape(-1, self.coefs.shape[1]))

    def workspace(self, points: int) -> np.ndarray:
        """A 1-D scratch buffer for `evaluate(x, work=...)` at up to `points` points."""
        return np.empty(_kernel_floats(self._plan[0], len(self.exps), points))

    def evaluate(self, x: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
        """The m polynomials at float points x (..., dim), as an array (..., m)
        written into `out` when given.  The power table and monomial rows go
        into `work`, a buffer from `workspace`, when given, and are fresh
        otherwise; either way the values are the same bits."""
        if x.shape[-1] != self.dim:
            raise ValueError(f"point dimension {x.shape[-1]} != polynomial dimension {self.dim}")
        return np.matmul(monomials(x, self.exps, work, self._plan), self.coefs, out=out)


def _freeze(record, **dtypes) -> None:
    """Store each named field of the frozen dataclass `record` read-only in
    the given dtype: as is when nothing else can write to it (read-only, of
    that dtype, no view of a writeable array), else as a copy of its own."""
    for name, dtype in dtypes.items():
        array = base = getattr(record, name)
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if base is not None or array.dtype != dtype:
            array = np.array(array, dtype=dtype)
            array.flags.writeable = False
        object.__setattr__(record, name, array)


_CSV_ROWS = 4096  # rows per chunk of `_csv_text`


def _csv_text(names, *columns) -> Iterator[str]:
    """CSV text in chunks: the header line `names`, then `_CSV_ROWS` rows at
    a time, one row per entry of the columns, each 1-D or 2-D (a CSV column
    per array column).  One row template writes integer columns %d and the
    rest %r (a float's shortest round-trip repr), from each slice's own
    `tolist` cells, so no integer passes through a float and no text or
    cells beyond one chunk's are ever held."""
    columns = [column[:, None] if column.ndim == 1 else column for column in map(np.asarray, columns)]
    formats = ["%d" if column.dtype.kind in "iu" else "%r" for column in columns for _ in column.T]
    row, width = ",".join(formats) + "\n", len(formats)
    yield ",".join(names) + "\n"
    for start in range(0, len(columns[0]), _CSV_ROWS):
        fields = [field for column in columns for field in column[start : start + _CSV_ROWS].T]
        rows = len(fields[0])
        cells = [None] * (rows * width)
        for k, field in enumerate(fields):
            cells[k::width] = field.tolist()
        yield row * rows % tuple(cells)
