"""Truncated coefficient dynamics of the backward equation.

Expanding the backward-equation solution in monomials, phi(x, t) =
sum_n P(n, t) x^n, and matching coefficients of the generator image turns
the PDE into linear ODEs dP/dt = A P.  Truncating to the max-degree index
set {n : max_i n_i <= N} (sources outside the set read as zero, targets
outside the set dropped) gives a finite system whose solution evaluates
the moment E[x_i^m] at horizon t for any start point x0 as
sum_n P(n, t) x0^n — no sampling involved.

The delta initial condition P(n, 0) = 1 at n = m e_i selects which moment
is propagated.  A system closes under truncation when no nonzero generator
entry leaves the set (`closed`); then the truncated solution is exact up
to the integrator.  For systems that do not close, the truncation error is
not estimated.
"""

from __future__ import annotations

import hashlib
import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

from .polynomial import _csv_text, _freeze, index_order, index_positions, multi_index_set, power_table
from .sde import SdeModel, check_moment, diffusion_product

__all__ = [
    "SolverError",
    "GeneratorMatrix",
    "DualCoefficients",
    "build_generator",
    "initial_coefficients",
    "solve_dual",
    "solve_moment",
    "eval_moment",
    "coefficients_csv_text",
    "read_coefficients_csv",
]


# the paper's Runge-Kutta 5(4) pair; solve_ivp's default max_step (inf) applies
_IVP_METHOD = "RK45"
# adaptive step tolerances, tight enough that truncation is the dominant error
_RTOL = 1e-10
_ATOL = 1e-12


# bytes per eval_moment block: peak memory is O(block + points), not O(points * K)
_EVAL_BLOCK_BYTES = 16 << 20


def _check_box(shape: tuple[int, ...]) -> None:
    """Reject a dense coefficient box (`eval_moment`'s) above one evaluation block."""
    if 8 * math.prod(shape) > _EVAL_BLOCK_BYTES:
        raise ValueError(f"index set needs a {shape} coefficient box of {8 * math.prod(shape)} bytes, "
                         f"above the {_EVAL_BLOCK_BYTES}-byte evaluation block")


class SolverError(RuntimeError):
    """ODE integration failure, carrying the integrator diagnostics, or a
    moment that float arithmetic cannot evaluate at a point."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class GeneratorMatrix:
    """Sparse truncated generator A with A[k, n] = coeff of x^k in L x^n;
    `closed` tells whether every nonzero entry of L x^n landed in the set."""

    index_set: np.ndarray  # (K, dim) int64, read-only, grlex order
    matrix: sparse.csr_array
    model_fingerprint: str = ""
    closed: bool | None = None


@dataclass(frozen=True)
class DualCoefficients:
    """Solved coefficient vector P(n, t) over a max-degree index set, whose
    rows are checked once, here: distinct, non-negative, one per value."""

    index_set: np.ndarray
    values: np.ndarray
    t: float
    observable: tuple[int, int] | None = None  # (axis, power), axis 1-based
    model_fingerprint: str = ""
    closed: bool | None = None  # the generator's closure; None when unknown (read from a file)

    def __post_init__(self):
        index_set = np.asarray(self.index_set)
        if index_set.ndim != 2 or 0 in index_set.shape or index_set.dtype.kind not in "iu":
            shape = f"{index_set.dtype} array of shape {index_set.shape}"
            raise ValueError(f"index set must be a non-empty (K, dim) integer array, got {shape}")
        index_order(index_set)
        _freeze(self, index_set=np.int64, values=float)
        if self.values.shape != (len(index_set),):
            raise ValueError(f"values shape {self.values.shape} != index count {len(index_set)}")

    @property
    def dim(self) -> int:
        return self.index_set.shape[1]

    @property
    def max_degree(self) -> int:
        return int(self.index_set.max())

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        # hashed as nested tuples, the form recorded dataset fingerprints were made from
        h.update(repr(tuple(map(tuple, self.index_set.tolist()))).encode())
        h.update(self.values.tobytes())
        h.update(repr((self.t, self.observable, self.model_fingerprint)).encode())
        return h.hexdigest()[:16]


def build_generator(model: SdeModel, max_degree: int) -> GeneratorMatrix:
    """Assemble the truncated generator over the max-degree index set.

    Column n holds the polynomial L x^n restricted to in-set target
    indices; entries are exact (integer combinations of the model
    coefficients).  The columns are built together by index arithmetic on
    the (K, dim) exponent array: a drift term c x^e on axis i maps x^n to
    c n_i x^(n - e_i + e), and a [BB^T]_ij term c x^e maps x^n to
    (c / 2) n_i (n_j - delta_ij) x^(n - e_i - e_j + e).  Each entry is the
    running sum of one exponent move (shift + e), added in the order of the
    operator's terms (drift axes, then (i, j) row-major), so the matrix is
    bit-for-bit the one built column by column from the reference action on
    one monomial, `adjoint_apply` in `tests/helpers.py`.  The generator is
    `closed` when no nonzero entry was dropped for leaving the set.  A set
    `eval_moment` could not evaluate is a ValueError, raised before it is built.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    dim = model.dim
    _check_box((max_degree + 1,) * dim)
    exps = multi_index_set(dim, max_degree, "max-degree")  # (K, dim)
    size = len(exps)
    unit = np.eye(dim, dtype=np.int64)
    product = diffusion_product(model)
    # (term exponents, coefficient column, scale, exponent shift, integer multiplier per column)
    slots = [(model.terms.exps, model.drift[:, i], 1.0, -unit[i], exps[:, i]) for i in range(dim)]
    slots += [
        (product.exps, product.coefs[:, i * dim + j], 0.5, -unit[i] - unit[j],
         exps[:, i] * (exps[:, j] - (i == j)))
        for i in range(dim)
        for j in range(dim)
    ]
    # one running sum per exponent move shift + e, which sends each column to one target
    sums: defaultdict[tuple[int, ...], np.ndarray] = defaultdict(lambda: np.zeros(size))
    # a 1e308 coefficient must still reach the matrix as inf (SolverError later)
    with np.errstate(over="ignore", invalid="ignore"):
        for terms, column, scale, shift, multiplier in slots:
            live = np.flatnonzero(multiplier)
            factor = multiplier[live].astype(float)
            for e, c in zip(terms.tolist(), column.tolist()):
                if c != 0.0:
                    sums[tuple((shift + e).tolist())][live] += (c * scale) * factor
    entries = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
    closed = True
    for move, total in sums.items():
        moved = exps + move
        nonzero, inside = total != 0.0, np.all(moved <= max_degree, axis=1)
        closed = closed and not np.any(nonzero & ~inside)
        keep = np.flatnonzero(nonzero & inside)
        entries.append((index_positions(exps, moved[keep]), keep, total[keep]))
    rows, cols, data = map(np.concatenate, zip(*entries))
    matrix = sparse.csr_array((data, (rows, cols)), shape=(size, size))
    return GeneratorMatrix(exps, matrix, model.fingerprint, closed)


def initial_coefficients(index_set: np.ndarray, axis: int, power: int) -> np.ndarray:
    """Delta start vector: 1 at the index power * e_axis, 0 elsewhere.

    axis is 1-based; the target index must lie inside the set.
    """
    dim = index_set.shape[1]
    check_moment(dim, axis, power)
    target = tuple(power if d == axis - 1 else 0 for d in range(dim))
    try:
        where = index_positions(index_set, target)
    except KeyError:
        raise ValueError(
            f"moment power {power} exceeds the truncation (index {target} not in set)"
        ) from None
    out = np.zeros(len(index_set))
    out[where] = 1.0
    return out


def solve_dual(
    generator: GeneratorMatrix,
    start: np.ndarray,
    t: float,
    observable: tuple[int, int] | None = None,
) -> DualCoefficients:
    """Integrate dP/dt = A P from the start vector to time t (RK45, rtol
    `_RTOL`, atol `_ATOL`)."""
    start = np.asarray(start, dtype=float)
    if start.shape != (len(generator.index_set),):
        raise ValueError(f"start shape {start.shape} does not match the index set")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if not np.all(np.isfinite(generator.matrix.data)):
        raise SolverError("generator matrix contains non-finite entries", {"t": t})
    if t == 0.0:
        values = start.copy()
    else:
        matrix = generator.matrix

        def rhs(_t, y):
            return matrix @ y

        sol = solve_ivp(
            rhs,
            (0.0, t),
            start,
            method=_IVP_METHOD,
            rtol=_RTOL,
            atol=_ATOL,
            t_eval=[t],
        )
        if not sol.success:
            raise SolverError(
                f"coefficient integration failed: {sol.message}",
                {"status": sol.status, "nfev": sol.nfev, "t": t},
            )
        values = sol.y[:, -1]
    if not np.all(np.isfinite(values)):
        raise SolverError("coefficient integration produced non-finite values", {"t": t})
    return DualCoefficients(
        generator.index_set, values, float(t), observable, generator.model_fingerprint, generator.closed
    )


def solve_moment(
    model: SdeModel,
    *,
    axis: int,
    power: int,
    t: float,
    max_degree: int,
) -> DualCoefficients:
    """Build the generator, apply the delta start for E[x_axis^power], solve to t."""
    generator = build_generator(model, max_degree)
    start = initial_coefficients(generator.index_set, axis, power)
    return solve_dual(generator, start, t, observable=(axis, power))


def eval_moment(coeffs: DualCoefficients, x) -> float | np.ndarray:
    """Moment estimate sum_n P(n, t) x^n at one point (dim,) or a batch (..., dim).

    The sum is factorised over a dense box of coefficients, one axis per
    coordinate up to its largest exponent, 0.0 off the index set: the last
    axis is one matrix product with its `power_table` rows, and each other
    axis, last to first, a multiply and sum.  Points go in blocks of about
    `_EVAL_BLOCK_BYTES` of power table, coefficients or partial sums,
    whichever is largest per point, so memory stays bounded by twice the
    block plus the output.  A power table of one point or a box above the
    block is a ValueError, raised before any work, and a non-finite moment
    (a power of x overflows) a SolverError.
    """
    x = np.asarray(x, dtype=float)
    dim = coeffs.dim
    if x.shape[-1] != dim:
        raise ValueError(f"point dimension {x.shape[-1]} != coefficient dimension {dim}")
    exps = coeffs.index_set
    flat = x.reshape(-1, dim)
    out = np.empty(flat.shape[0])
    # per point: the (top + 1) x dim power table `power_table` builds
    table = 8 * (coeffs.max_degree + 1) * dim
    if table > _EVAL_BLOCK_BYTES:
        raise ValueError(
            f"exponent {coeffs.max_degree} needs a {table}-byte power table per point, "
            f"above the {_EVAL_BLOCK_BYTES}-byte evaluation block"
        )
    tops = exps.max(axis=0).tolist()
    shape = tuple(top + 1 for top in tops)
    _check_box(shape)
    box = np.zeros(shape)
    box[tuple(exps.T)] = coeffs.values
    # (rest, last) -> (last, rest): the matrix the last axis's powers multiply
    last = box.reshape(-1, shape[-1]).T
    block = max(1, _EVAL_BLOCK_BYTES // max(8 * exps.shape[0], table, 8 * last.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, flat.shape[0], block):
            points = flat[start : start + block]
            powers = power_table(points, tops)
            partial = powers[: shape[-1], -1].T @ last
            for d in range(dim - 2, -1, -1):
                partial = partial.reshape(len(points), -1, shape[d])
                partial *= powers[: shape[d], d].T[:, None, :]
                partial = partial.sum(axis=-1)
            out[start : start + block] = partial[:, 0]
            del powers  # so two blocks' power tables are never alive at once
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise SolverError(f"moment at x = {flat[bad[0]].tolist()} is not finite in float arithmetic")
    out = out.reshape(x.shape[:-1])
    return float(out) if out.ndim == 0 else out


# -- CSV interchange ---------------------------------------------------------


def coefficients_csv_text(coeffs: DualCoefficients) -> str:
    return _csv_text([*(f"n_{d + 1}" for d in range(coeffs.dim)), "value"], coeffs.index_set, coeffs.values)


def read_coefficients_csv(path) -> DualCoefficients:
    """Load a coefficient CSV; time and observable metadata are not stored there."""
    path = Path(path)
    lines = path.read_text().strip().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty coefficient file")
    header = lines[0].split(",")
    if header[-1] != "value" or any(not h.startswith("n_") for h in header[:-1]):
        raise ValueError(f"{path}: expected header n_1,...,n_D,value")
    dim = len(header) - 1
    indices, values = [], []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != dim + 1:
            raise ValueError(f"{path}:{ln}: expected {dim + 1} fields")
        try:
            indices.append([int(p) for p in parts[:-1]])
            values.append(float(parts[-1]))
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from None
        if not math.isfinite(values[-1]):
            raise ValueError(f"{path}:{ln}: non-finite value {parts[-1]!r}")
    try:
        return DualCoefficients(indices, np.array(values), t=math.nan, observable=None)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
