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

The system is integrated with the paper's explicit Runge-Kutta 5(4)
(Dormand-Prince) pair: `solve_ivp(product, y0, t)` here is scipy's RK45
repeated in the package, operation for operation, for y' = A y over
[0, t].  Its value is the last step's dense output at t, scipy's
`t_eval=[t]` interpolant, so the coefficients are the bits
`scipy.integrate.solve_ivp(method="RK45", t_eval=[t])` gives, with numpy
as the one runtime dependency; `_MAX_STEPS` step attempts bound a solve.
The generator is stored as one slot per exponent move (`MoveSlots`), whose
product adds each row's terms in the order a CSR matrix-vector product
does.

Coefficients travel as CSV: `coefficients_csv_text` yields the table in
chunks of rows, and `read_coefficients_csv` reads it back in blocks of
lines, its errors naming the file's own line numbers.
"""

from __future__ import annotations

import functools
import hashlib
import math
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path

import numpy as np

from .polynomial import _csv_text, _freeze, index_order, index_positions, multi_index_set, power_table
from .sde import SdeModel, check_moment, diffusion_product

__all__ = [
    "SolverError",
    "MoveSlots",
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


# adaptive step tolerances, tight enough that truncation is the dominant error
_RTOL = 1e-10
_ATOL = 1e-12

# the Dormand-Prince 5(4) pair as scipy's RK45 writes it (stages A, weights B,
# error weights E, dense-output polynomial P), the same floats; the right-hand
# side ignores time, so the stage nodes C are not needed
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_ERROR_ORDER = 4  # of the embedded error estimate
# step-size control: a new step is SAFETY * error^(-1/5) times the last, within [MIN, MAX]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
# step attempts before a solve gives up: a stable system's step stays bounded, so attempts grow
# with t and a huge t would never end (the tests, README and benchmark take at most 5 754)
_MAX_STEPS = 100_000


# bytes per eval_moment block: peak memory is O(block + points), not O(points * K)
_EVAL_BLOCK_BYTES = 16 << 20
# rows x box entries (multiply-adds) per matrix product, in whole 64-row groups where one fits (a
# row rounds by its place mod 4), below the ~450 000 (one column) and 524 288 (dgemm) at which
# OpenBLAS threads: no helper thread is woken, and every thread count gives the same bits
_EVAL_GEMM = 400_000
# lines `read_coefficients_csv` converts at a time
_READ_BLOCK = 1024


def _check_box(shape: tuple[int, ...]) -> None:
    """Reject a dense coefficient box (`eval_moment`'s) above one evaluation block."""
    if 8 * math.prod(shape) > _EVAL_BLOCK_BYTES:
        raise ValueError(f"index set needs a {shape} coefficient box of {8 * math.prod(shape)} bytes, "
                         f"above the {_EVAL_BLOCK_BYTES}-byte evaluation block")


@dataclass(frozen=True)
class IvpResult:
    """What `solve_ivp` returns: y (K,) at the horizon, status 0 (reached it),
    -1 (the step fell below float spacing) or -2 (`_MAX_STEPS` attempts ran
    out first), and the integrator's counters."""

    y: np.ndarray
    status: int
    nfev: int  # right-hand side evaluations
    accepted: int  # steps
    rejected: int  # step attempts that failed the error test


def _rms(x: np.ndarray):
    return np.linalg.norm(x) / x.size ** 0.5


def solve_ivp(product, y0, t: float) -> IvpResult:
    """Integrate y' = product(y) over [0, t], t > 0, with the Dormand-Prince
    5(4) pair at `_RTOL`, `_ATOL` and report y at t.

    This is `scipy.integrate.solve_ivp(lambda _t, y: product(y), (0, t), y0,
    method="RK45", rtol=_RTOL, atol=_ATOL, t_eval=[t])` repeated with the
    same numpy calls in the same order (`select_initial_step`, then
    `RungeKutta._step_impl`), so the value and nfev are scipy's bit for bit:
    the value is the last step's dense output at t, where that step ends,
    not its end value, which differs in the last bits.  A diverging solve
    ends in status -1 (a non-finite error norm rejects the step).
    """
    y = np.asarray(y0, dtype=float)
    exponent = -1 / (_ERROR_ORDER + 1)
    slopes = np.empty((len(_B) + 1, y.size))  # the stage derivatives, scipy's K
    t_now = 0.0
    accepted = rejected = 0
    with np.errstate(over="ignore", invalid="ignore"):
        f = product(y)
        # select_initial_step
        scale = _ATOL + np.abs(y) * _RTOL
        d0, d1 = _rms(y / scale), _rms(f / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, t)
        d2 = _rms((product(y + h0 * f) - f) / scale) / h0
        nfev = 2
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / (_ERROR_ORDER + 1))
        h_abs = min(100 * h0, h1, t)
        while True:
            min_step = 10 * np.abs(np.nextafter(t_now, np.inf) - t_now)
            h_abs = max(h_abs, min_step)
            step_rejected = False
            while True:
                if h_abs < min_step:
                    return IvpResult(y, -1, nfev, accepted, rejected)
                if accepted + rejected == _MAX_STEPS:
                    return IvpResult(y, -2, nfev, accepted, rejected)
                t_new = min(t_now + h_abs, t)
                h = t_new - t_now
                h_abs = np.abs(h)
                slopes[0] = f
                for s, a in enumerate(_A[1:], start=1):
                    slopes[s] = product(y + np.dot(slopes[:s].T, a[:s]) * h)
                y_new = y + h * np.dot(slopes[:-1].T, _B)
                f_new = product(y_new)
                slopes[-1] = f_new
                nfev += 6
                scale = _ATOL + np.maximum(np.abs(y), np.abs(y_new)) * _RTOL
                error_norm = _rms(np.dot(slopes.T, _E) * h / scale)
                if error_norm < 1:
                    factor = _MAX_FACTOR if error_norm == 0 else min(_MAX_FACTOR, _SAFETY * error_norm**exponent)
                    h_abs *= min(1, factor) if step_rejected else factor
                    accepted += 1
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**exponent)
                step_rejected = True
                rejected += 1
            if t_new == t:
                # the step's quartic interpolant (RkDenseOutput) at t, where sigma = 1
                value = y + h * slopes.T.dot(_P).dot(np.ones(_P.shape[1]))
                return IvpResult(value, 0, nfev, accepted, rejected)
            t_now, y, f = t_new, y_new, f_new


class SolverError(RuntimeError):
    """ODE integration failure, carrying the integrator diagnostics, or a
    moment that float arithmetic cannot evaluate at a point."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class MoveSlots:
    """A square sparse matrix as w slots over its K rows: slot j of row k
    holds one entry, value vals[j, k] in column cols[j, k] (0.0 in column 0
    where the row has no entry in that slot).  Each row's entries lie in
    increasing column order across the slots, so the product adds them in
    the order a CSR matrix-vector product does, and gives its bits."""

    cols: np.ndarray  # (w, K) int64, read-only
    vals: np.ndarray  # (w, K) float, read-only

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.vals))

    def product(self, y: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        """The product with y (K,), through a (w, K) float buffer `work` when
        given: a repeated product then allocates no slot-sized temporaries,
        which at vdp N=60 (178 KB each) cost page faults on every call."""
        # "clip" takes into out= directly (every column index is in range);
        # "raise" would copy through a temporary
        work = np.take(y, self.cols, mode="clip", out=work)
        np.multiply(self.vals, work, out=work)
        # initial=0.0: each row's sum starts at +0.0, as CSR's does, whatever numpy's default
        # start, so a row of -0.0 products gives +0.0
        return np.add.reduce(work, axis=0, initial=0.0)


@dataclass(frozen=True)
class GeneratorMatrix:
    """Truncated generator A with A[k, n] = coeff of x^k in L x^n, one
    `MoveSlots` slot per exponent move; `closed` tells whether every nonzero
    entry of L x^n landed in the set."""

    index_set: np.ndarray  # (K, dim) int64, read-only, grlex order
    matrix: MoveSlots
    model_fingerprint: str
    closed: bool


@dataclass(frozen=True)
class DualCoefficients:
    """Solved coefficient vector P(n, t) over any set of distinct
    non-negative indices, whose rows are checked once, here: distinct,
    non-negative, one finite value each."""

    index_set: np.ndarray
    values: np.ndarray
    t: float
    observable: tuple[int, int] | None = None  # (axis, power), axis 1-based
    model_fingerprint: str = ""
    closed: bool | None = None  # the generator's closure; None when unknown (read from a file)
    # the integrator's nfev, accepted and rejected steps and status; None when read from a file
    solve_stats: dict | None = None

    def __post_init__(self):
        index_set = np.asarray(self.index_set)
        if index_set.ndim != 2 or 0 in index_set.shape or index_set.dtype.kind not in "iu":
            shape = f"{index_set.dtype} array of shape {index_set.shape}"
            raise ValueError(f"index set must be a non-empty (K, dim) integer array, got {shape}")
        index_order(index_set)
        _freeze(self, index_set=np.int64, values=float)
        if self.values.shape != (len(index_set),):
            raise ValueError(f"values shape {self.values.shape} != index count {len(index_set)}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("coefficient values must be finite")

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
    one monomial, `adjoint_apply` in `tests/helpers.py`.  A move m sends
    column n to row n + m, so each move's sums fill one `MoveSlots` slot.
    The slots go by the key (-|m|, m_1, ..., m_D): the source n = k - m of
    row k then rises in grlex order from slot to slot, the column order of
    a CSR row.  The generator is `closed` when no nonzero entry was dropped
    for leaving the set.  A set `eval_moment` could not evaluate is a
    ValueError, raised before it is built.
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
    # the set's row of each exponent, as a dense (max_degree + 1)**dim table
    position = np.empty((max_degree + 1,) * dim, dtype=np.int64)
    position[tuple(exps.T)] = np.arange(size)
    moves = sorted(sums, key=lambda move: (-sum(move), *move))
    cols = np.zeros((len(moves), size), dtype=np.int64)
    vals = np.zeros((len(moves), size))
    closed = True
    for slot, move in enumerate(moves):
        total = sums[move]
        moved = exps + move
        nonzero, inside = total != 0.0, np.all(moved <= max_degree, axis=1)
        closed = closed and not np.any(nonzero & ~inside)
        keep = np.flatnonzero(nonzero & inside)
        rows = position[tuple(moved[keep].T)]
        cols[slot, rows] = keep
        vals[slot, rows] = total[keep]
    cols.flags.writeable = vals.flags.writeable = False
    return GeneratorMatrix(exps, MoveSlots(cols, vals), model.fingerprint, closed)


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
    """Integrate dP/dt = A P from the start vector to time t (`solve_ivp`),
    recording its counters as `solve_stats`.  A failed integration (the step
    fell below float spacing, or `_MAX_STEPS` attempts did not reach t) is a
    SolverError carrying them."""
    start = np.asarray(start, dtype=float)
    if start.shape != (len(generator.index_set),):
        raise ValueError(f"start shape {start.shape} does not match the index set")
    if not np.all(np.isfinite(start)):
        raise ValueError("start vector must be finite")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if not np.all(np.isfinite(generator.matrix.vals)):
        raise SolverError("generator matrix contains non-finite entries", {"t": t})
    if t == 0.0:
        values = start.copy()
        stats = {"nfev": 0, "accepted": 0, "rejected": 0, "status": 0}
    else:
        buffer = np.empty(generator.matrix.cols.shape)
        sol = solve_ivp(functools.partial(generator.matrix.product, work=buffer), start, t)
        stats = {"nfev": sol.nfev, "accepted": sol.accepted, "rejected": sol.rejected, "status": sol.status}
        if sol.status != 0:
            reason = ("Required step size is less than spacing between numbers." if sol.status == -1
                      else f"{_MAX_STEPS} step attempts did not reach t = {t}")
            raise SolverError(f"coefficient integration failed: {reason}", {**stats, "t": t})
        values = sol.y
    if not np.all(np.isfinite(values)):
        raise SolverError("coefficient integration produced non-finite values", {**stats, "t": t})
    return DualCoefficients(
        generator.index_set, values, float(t), observable, generator.model_fingerprint, generator.closed, stats
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
    axis is a matrix product with its `power_table` rows, `_EVAL_GEMM` at a
    time, and each other axis, last to first, a multiply and sum.  Points go
    in blocks of about `_EVAL_BLOCK_BYTES` of power table, coefficients or
    partial sums, whichever is largest per point, so memory stays bounded by
    twice the block plus the output.  A power table of one point or a box
    above the block is a ValueError, raised before any work, and a non-finite
    moment (a power of x overflows) a SolverError.
    """
    x = np.asarray(x, dtype=float)
    dim = coeffs.dim
    if x.shape[-1] != dim:
        raise ValueError(f"point dimension {x.shape[-1]} != coefficient dimension {dim}")
    exps = coeffs.index_set
    flat = x.reshape(-1, dim)
    moments = np.empty(x.shape[:-1])
    out = moments.reshape(-1)  # a view, so the array returned owns its values and a record can keep it
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
    rows = max(1, _EVAL_GEMM // last.size // 64 * 64 or _EVAL_GEMM // last.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, flat.shape[0], block):
            points = flat[start : start + block]
            powers = power_table(points, tops)
            partial = np.empty((len(points), last.shape[1]))
            for lo in range(0, len(points), rows):
                np.matmul(powers[: shape[-1], -1, lo : lo + rows].T, last, out=partial[lo : lo + rows])
            for d in range(dim - 2, -1, -1):
                partial = partial.reshape(len(points), -1, shape[d])
                partial *= powers[: shape[d], d].T[:, None, :]
                partial = partial.sum(axis=-1)
            out[start : start + block] = partial[:, 0]
            del powers  # so two blocks' power tables are never alive at once
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise SolverError(f"moment at x = {flat[bad[0]].tolist()} is not finite in float arithmetic")
    return float(moments) if moments.ndim == 0 else moments


# -- CSV interchange ---------------------------------------------------------


def coefficients_csv_text(coeffs: DualCoefficients) -> Iterator[str]:
    """The coefficients as CSV chunks: header n_1,...,n_D,value, one row per index."""
    return _csv_text([*(f"n_{d + 1}" for d in range(coeffs.dim)), "value"], coeffs.index_set, coeffs.values)


def _parse_block(path, lines: list[str], first: int, dim: int, blank: int | None):
    """The flat exponents and the values of a block of stripped lines, the first of them
    line `first` of the file, with the first blank line after the header so far.  A block
    of rows is one join and split and one `int` and `float` map; where any check fails
    (a blank line before or in it, a field count, a conversion, a non-finite value) the
    block is read line by line, so its first error in file order is the one raised."""
    if blank is None and "" not in lines and set(map(str.count, lines, repeat(","))) == {dim}:
        fields = ",".join(lines).split(",")
        try:
            values = list(map(float, fields[dim :: dim + 1]))
            del fields[dim :: dim + 1]
            exponents = list(map(int, fields))
        except ValueError:
            pass
        else:
            if all(map(math.isfinite, values)):
                return exponents, values, blank
    exponents, values = [], []
    for ln, line in enumerate(lines, start=first):
        if not line:
            if blank is None:
                blank = ln
            continue
        parts = line.split(",")
        if blank is not None or len(parts) != dim + 1:
            raise ValueError(f"{path}:{blank or ln}: expected {dim + 1} fields")
        try:
            exponents.extend([int(p) for p in parts[:-1]])
            values.append(float(parts[-1]))
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from None
        if not math.isfinite(values[-1]):
            raise ValueError(f"{path}:{ln}: non-finite value {parts[-1]!r}")
    return exponents, values, blank


def read_coefficients_csv(path) -> DualCoefficients:
    """Load a coefficient CSV; time and observable metadata are not stored there.

    The rows are read `_READ_BLOCK` lines at a time, each block converted
    at once, and errors name the file's own line numbers: the first error
    in the file is the one reported, as a line-by-line reader would.
    Blank lines may lead and trail; one between rows is an error."""
    path = Path(path)
    dim, ln = None, 0
    index_blocks, value_blocks = [], []
    try:
        with path.open() as handle:
            for ln, line in enumerate(handle, start=1):
                if line := line.strip():
                    dim = line.count(",")
                    if line.split(",") != [*(f"n_{d + 1}" for d in range(dim)), "value"]:
                        raise ValueError(f"{path}:{ln}: expected header n_1,...,n_D,value")
                    break
            if dim is None:
                raise ValueError(f"{path}: empty coefficient file")
            blank = None  # the first blank line after the header
            while True:
                lines = []
                try:
                    lines.extend(map(str.strip, islice(handle, _READ_BLOCK)))
                except UnicodeDecodeError:
                    _parse_block(path, lines, ln + 1, dim, blank)  # an error in the lines before it comes first
                    raise
                if not lines:
                    break
                exponents, values, blank = _parse_block(path, lines, ln + 1, dim, blank)
                ln += len(lines)
                if values:
                    try:
                        exponents = np.array(exponents, dtype=np.int64)
                    except OverflowError:
                        exponents = np.array(exponents, dtype=object)
                    index_blocks.append(exponents.reshape(len(values), dim))
                    value_blocks.append(np.array(values))
    except UnicodeDecodeError as exc:  # the header's bytes, or a row's after the lines before it passed
        raise ValueError(f"{path}: {exc}") from None
    if not value_blocks:
        raise ValueError(f"{path}: no coefficient rows")
    index_set, values = np.concatenate(index_blocks), np.concatenate(value_blocks)
    if index_set.dtype == object or dim == 0:
        # exponents outside int64, or none: numpy types the rows as it types any list of them
        index_set = np.asarray(index_set.tolist())
    index_set.flags.writeable = values.flags.writeable = False  # the record keeps them, uncopied
    try:
        return DualCoefficients(index_set, values, t=math.nan, observable=None)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
