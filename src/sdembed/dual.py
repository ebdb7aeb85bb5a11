"""Truncated coefficient dynamics of the backward equation.

Expanding the backward-equation solution in monomials, phi(x, t) =
sum_n P(n, t) x^n, and matching coefficients of the generator image turns
the PDE into linear ODEs dP/dt = A P.  Truncating to the max-degree index
set {n : max_i n_i <= N} (sources outside the set read as zero, targets
outside the set dropped) gives a finite system whose solution evaluates
the moment E[x_i^m] at horizon t for any start point x0 as
sum_n P(n, t) x0^n — no sampling involved.

The delta initial condition P(n, 0) = 1 at n = m e_i selects which moment
is propagated.  For systems that do not close under truncation the
boundary mass sum |P(n, t)| over indices touching the cutoff
(`spill_mass`) flags horizons where the truncation is unreliable.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

from .polynomial import MultiIndex, grlex_order, index_positions, monomials, multi_index_set
from .sde import SdeModel, diffusion_product

__all__ = [
    "IntegratorConfig",
    "SolverError",
    "GeneratorMatrix",
    "DualCoefficients",
    "build_generator",
    "initial_coefficients",
    "solve_dual",
    "solve_moment",
    "eval_moment",
    "coefficients_csv_text",
    "write_coefficients_csv",
    "read_coefficients_csv",
]


# the paper's Runge-Kutta 5(4) pair; solve_ivp's default max_step (inf) applies
_IVP_METHOD = "RK45"


@dataclass(frozen=True)
class IntegratorConfig:
    """Adaptive IVP tolerances; defaults make truncation the dominant error."""

    rtol: float = 1e-10
    atol: float = 1e-12


class SolverError(RuntimeError):
    """ODE integration failure, carrying the integrator diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class GeneratorMatrix:
    """Sparse truncated generator A with A[k, n] = coeff of x^k in L x^n."""

    index_set: np.ndarray  # (K, dim) int64, read-only, grlex order
    matrix: sparse.csr_array
    model_fingerprint: str = ""


@dataclass(frozen=True)
class DualCoefficients:
    """Solved coefficient vector P(n, t) over a max-degree index set, whose
    rows are checked once, here: distinct, non-negative, one per value."""

    index_set: np.ndarray
    values: np.ndarray
    t: float
    observable: tuple[int, int] | None = None  # (axis, power), axis 1-based
    model_fingerprint: str = ""

    def __post_init__(self):
        index_set = np.array(self.index_set)
        if index_set.ndim != 2 or 0 in index_set.shape or index_set.dtype.kind not in "iu":
            shape = f"{index_set.dtype} array of shape {index_set.shape}"
            raise ValueError(f"index set must be a non-empty (K, dim) integer array, got {shape}")
        negative = np.any(index_set < 0, axis=1)
        if negative.any():
            raise ValueError(f"negative exponent in index {tuple(index_set[negative][0].tolist())}")
        ordered = index_set[grlex_order(index_set)]
        repeated = np.flatnonzero(np.all(ordered[1:] == ordered[:-1], axis=1))
        if repeated.size:
            raise ValueError(f"index {tuple(ordered[repeated[0]].tolist())} appears more than once")
        values = np.array(self.values, dtype=float)
        if values.shape != (len(index_set),):
            raise ValueError(f"values shape {values.shape} != index count {len(index_set)}")
        index_set = index_set.astype(np.int64, copy=False)
        values.flags.writeable = index_set.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "index_set", index_set)

    @property
    def dim(self) -> int:
        return self.index_set.shape[1]

    @property
    def max_degree(self) -> int:
        return int(self.index_set.max())

    def value_at(self, index: MultiIndex) -> float:
        return float(self.values[index_positions(self.index_set, index)])

    def spill_mass(self) -> float:
        """Sum of |P(n, t)| over indices with any exponent >= max_degree - 1.

        A non-negligible value means coefficient mass reached the cutoff
        boundary and the truncated solution should not be trusted.
        """
        mask = self.index_set.max(axis=1) >= self.max_degree - 1
        return float(np.sum(np.abs(self.values[mask])))

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
    (c / 2) n_i (n_j - delta_ij) x^(n - e_i - e_j + e).  Each entry is
    summed in the term order of `sde.adjoint_apply` (drift axes, then
    (i, j) row-major), so the matrix is bit-for-bit the one built column
    by column from that reference action.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    dim = model.dim
    exps = multi_index_set(dim, max_degree, "max-degree")  # (K, dim)
    size = len(exps)
    unit = np.eye(dim, dtype=np.int64)
    product = diffusion_product(model)
    # (polynomial, coefficient scale, exponent shift, integer multiplier per column)
    slots = [(model.drift[i], 1.0, -unit[i], exps[:, i]) for i in range(dim)]
    slots += [
        (product[i, j], 0.5, -unit[i] - unit[j], exps[:, i] * (exps[:, j] - (i == j)))
        for i in range(dim)
        for j in range(dim)
    ]
    targets, cols, vals = [np.empty((0, dim), np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    # a 1e308 coefficient must still reach the matrix as inf (SolverError later)
    with np.errstate(over="ignore", invalid="ignore"):
        for poly, scale, shift, multiplier in slots:
            live = np.flatnonzero(multiplier)
            factor = multiplier[live].astype(float)
            for e, c in poly.terms.items():
                moved = exps[live] + (shift + np.asarray(e, dtype=np.int64))
                inside = np.all(moved <= max_degree, axis=1)
                targets.append(moved[inside])
                cols.append(live[inside])
                vals.append((c * scale) * factor[inside])
        rows = index_positions(exps, np.concatenate(targets))
        # one target per column and term, so each += below hits a key once;
        # the running sums therefore add in adjoint_apply's order
        entries, where = np.unique(rows * size + np.concatenate(cols), return_inverse=True)
        data = np.zeros(entries.size)
        start = 0
        for v in vals:
            data[where[start : start + v.size]] += v
            start += v.size
    kept = data != 0.0
    entries, data = entries[kept], data[kept]
    indptr = np.searchsorted(entries // size, np.arange(size + 1))
    matrix = sparse.csr_array((data, entries % size, indptr), shape=(size, size))
    return GeneratorMatrix(exps, matrix, model.fingerprint)


def initial_coefficients(index_set: np.ndarray, axis: int, power: int) -> np.ndarray:
    """Delta start vector: 1 at the index power * e_axis, 0 elsewhere.

    axis is 1-based; the target index must lie inside the set.
    """
    dim = index_set.shape[1]
    if not 1 <= axis <= dim:
        raise ValueError(f"axis {axis} out of range for dimension {dim}")
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power}")
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
    config: IntegratorConfig | None = None,
    observable: tuple[int, int] | None = None,
) -> DualCoefficients:
    """Integrate dP/dt = A P from the start vector to time t."""
    config = config or IntegratorConfig()
    start = np.asarray(start, dtype=float)
    if start.shape != (len(generator.index_set),):
        raise ValueError(f"start shape {start.shape} does not match the index set")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
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
            rtol=config.rtol,
            atol=config.atol,
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
        generator.index_set, values, float(t), observable, generator.model_fingerprint
    )


def solve_moment(
    model: SdeModel,
    *,
    axis: int,
    power: int,
    t: float,
    max_degree: int,
    config: IntegratorConfig | None = None,
) -> DualCoefficients:
    """Build the generator, apply the delta start for E[x_axis^power], solve to t."""
    generator = build_generator(model, max_degree)
    start = initial_coefficients(generator.index_set, axis, power)
    return solve_dual(generator, start, t, config, observable=(axis, power))


# monomial bytes per eval_moment block: peak memory is O(block + points), not O(points * K)
_EVAL_BLOCK_BYTES = 16 << 20


def eval_moment(coeffs: DualCoefficients, x) -> float | np.ndarray:
    """Moment estimate sum_n P(n, t) x^n at one point (dim,) or a batch (..., dim).

    Points are evaluated in blocks of about `_EVAL_BLOCK_BYTES` of
    monomials, so memory stays bounded by the block plus the output.
    """
    x = np.asarray(x, dtype=float)
    dim = coeffs.dim
    if x.shape[-1] != dim:
        raise ValueError(f"point dimension {x.shape[-1]} != coefficient dimension {dim}")
    exps = coeffs.index_set
    flat = x.reshape(-1, dim)
    out = np.empty(flat.shape[0])
    block = max(1, _EVAL_BLOCK_BYTES // (8 * exps.shape[0]))
    # one buffer for all blocks: a fresh 16 MiB array each made malloc unmap and re-fault it
    work = np.empty((exps.shape[0], min(block, flat.shape[0])))
    for start in range(0, flat.shape[0], block):
        points = flat[start : start + block]
        terms = monomials(points, exps, out=work[:, : points.shape[0]].T)
        out[start : start + block] = terms @ coeffs.values
    out = out.reshape(x.shape[:-1])
    return float(out) if out.ndim == 0 else out


# -- CSV interchange ---------------------------------------------------------


def coefficients_csv_text(coeffs: DualCoefficients) -> str:
    dim = coeffs.dim
    lines = [",".join([f"n_{d + 1}" for d in range(dim)] + ["value"])]
    for index, value in zip(coeffs.index_set.tolist(), coeffs.values):
        lines.append(",".join([str(e) for e in index] + [repr(float(value))]))
    return "\n".join(lines) + "\n"


def write_coefficients_csv(coeffs: DualCoefficients, path) -> None:
    Path(path).write_text(coefficients_csv_text(coeffs))


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
        indices.append([int(p) for p in parts[:-1]])
        values.append(float(parts[-1]))
    try:
        return DualCoefficients(indices, np.array(values), t=math.nan, observable=None)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
