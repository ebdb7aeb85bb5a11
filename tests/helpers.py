"""Shared test oracles, independent of the library's own computation paths.

Finite differences are built from Fornberg interpolation weights, so the
derivative estimates here never touch the exact-rational or closed-form
code they are used to check.  The polynomial, generator, network and fit
references below (`adjoint_apply`, `multinomial`, `flatten_params`,
`residuals`, `reference_train_backprop`, ...) are what the tests compare
the library against; no library code calls them.

A polynomial here is a term map {exponent tuple: coefficient} holding no
exact zeros.  `add` and `mul` are its whole algebra: `add` adds the second
map's terms to the first's, and `mul` sums each product coefficient with
`math.fsum`, so it is exactly rounded and commutes bit for bit.  `table`,
`terms` and `make_model` convert between term maps and the library's term
tables (`Polynomial`) and models.

scipy is a test-only dependency.  Its `solve_ivp` (RK45), `csr_array` and
`expit` are the references that `dual.solve_ivp`, the generator's
`MoveSlots` product and `network.sigmoid` are held to: `dual.solve_ivp(
product, y0, t)` gives the bits of scipy's RK45 from 0 to t with
`t_eval=[t]`, its value at the horizon.  `generator_csr` turns a generator
into the CSR matrix the library once built.
"""

import functools
import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp  # noqa: F401 (a reference, imported by the tests)
from scipy.sparse import csr_array
from scipy.special import expit  # noqa: F401 (a reference, imported by the tests)

from sdembed.baseline import _BETA1, _BETA2, _EPS
from sdembed.dual import DualCoefficients
from sdembed.fit import _target_vector
from sdembed.network import SigmoidNet, network_taylor, sigmoid
from sdembed.polynomial import Polynomial, index_positions, monomials, multi_index_set
from sdembed.sde import diffusion_product, parse_model


def fd_weights(order, nodes, center=0.0):
    """Finite-difference weights for the order-th derivative at `center`.

    Fornberg's recursion over the given nodes; exact for polynomials of
    degree < len(nodes).
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    if order >= n:
        raise ValueError("need more nodes than the derivative order")
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - center
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - center
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


def fd_derivative(f, order, h=0.1, points=None):
    """Central finite-difference estimate of f^(order)(0) for scalar f."""
    if points is None:
        points = order + 6 if (order + 6) % 2 == 1 else order + 7
    half = points // 2
    nodes = h * np.arange(-half, half + 1)
    w = fd_weights(order, nodes)
    return float(sum(wi * f(x) for wi, x in zip(w, nodes)))


def fd_taylor_coefficients(f, dim, order, h=0.15, pad=6):
    """Taylor coefficients of f at the origin by tensorized finite differences.

    f maps a length-dim sequence to a scalar.  Returns a dict from exponent
    tuple (total degree <= order) to the estimated coefficient
    d^|l| f / dx^l (0) / l!.  The defaults were tuned on small sigmoid
    networks (weights within [-0.5, 0.5]) to a worst error below 1e-10
    relative to the largest coefficient.
    """
    half = (order + pad) // 2 + 1
    nodes = h * np.arange(-half, half + 1)
    grid_values = np.empty((nodes.size,) * dim)
    for idx in np.ndindex(grid_values.shape):
        grid_values[idx] = f([nodes[k] for k in idx])
    weights = {k: fd_weights(k, nodes) for k in range(order + 1)}
    out = {}
    for l in np.ndindex(*(order + 1,) * dim):
        if sum(l) > order:
            continue
        acc = grid_values
        for k in l:
            acc = np.tensordot(weights[k], acc, axes=([0], [0]))
        scale = math.prod(math.factorial(k) for k in l)
        out[tuple(int(v) for v in l)] = float(acc) / scale
    return out


def scaled_max_error(approx: dict, exact: dict) -> float:
    """Max absolute disagreement over shared keys, relative to the largest
    exact magnitude (a plain relative error is meaningless near sign
    cancellations of individual coefficients)."""
    scale = max(max(abs(v) for v in exact.values()), 1e-300)
    return max(abs(approx[k] - exact[k]) for k in exact) / scale


def grlex_key(index):
    """Sort key for graded lexicographic order: degree, then x_1 > x_2 > ..."""
    return (sum(index), tuple(-e for e in index))


def reference_index_set(dim, order, mode):
    """Multi-index set as a list of tuples, enumerated with itertools and
    sorted with `grlex_key`, one index at a time."""
    indices = itertools.product(range(order + 1), repeat=dim)
    if mode == "total-degree":
        indices = (n for n in indices if sum(n) <= order)
    return sorted(indices, key=grlex_key)


def term_sum(poly, x):
    """Polynomial value at points x (..., dim) the direct way: each term as
    coef * np.prod(x ** e), added up in the polynomial's term order."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1])
    for index, coef in poly.items():
        out = out + coef * np.prod(x ** np.asarray(index, dtype=np.int64), axis=-1)
    return out


def step_noise(seed, step, paths, dim):
    """Standard normals (paths, dim) of Euler step `step`, by the keying rule
    `mc.simulate` documents: one SFC64 stream per step, keyed by
    SeedSequence(entropy=seed, spawn_key=(step,)), drawn in path order."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(step,))
    return np.random.Generator(np.random.SFC64(seq)).standard_normal((paths, dim))


def cumprod_monomials(x, exps):
    """Monomials (..., K) by the earlier formulation of `monomials`: one
    power table per axis, up to that axis's largest exponent, built with
    `np.cumprod`; the gathered powers are multiplied from axis 0 upwards."""
    tables = []
    for d, top in enumerate(exps.max(axis=0, initial=0)):
        table = np.empty((top + 1,) + x.shape[:-1])
        table[0], table[1:] = 1.0, x[..., d]
        tables.append(np.cumprod(table, axis=0, out=table))
    rows = np.empty((len(exps),) + x.shape[:-1])
    np.take(tables[0], exps[:, 0], axis=0, out=rows)
    for d in range(1, len(tables)):
        rows *= tables[d][exps[:, d]]
    return np.moveaxis(rows, 0, -1)


def reference_simulate(model, x0, config, block=8192):
    """Final states (paths, dim) and blow-up flags (paths,) by `mc.simulate`'s
    block loop before its one workspace per call: fresh noise, monomials
    (`cumprod_monomials`), field values and increments at every step and
    block of `block` paths, on the same SFC64 stream per step."""
    dim = model.dim
    sqrt_dt = math.sqrt(config.dt)
    pairs = [(i, j) for i in range(dim) for j in range(dim) if np.any(model.diffusion[:, i, j])]
    columns = [model.drift, *(model.diffusion[:, i, j, None] for i, j in pairs)]
    field = Polynomial(model.terms.exps, np.hstack(columns))
    final = np.tile(np.asarray(x0, dtype=float), (config.paths, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.steps):
            seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(k,))
            gen = np.random.Generator(np.random.SFC64(seq))
            for start in range(0, config.paths, block):
                states = final[start : start + block]
                xi = gen.standard_normal(states.shape)
                values = cumprod_monomials(states, field.exps) @ field.coefs
                incr = values[:, :dim] * config.dt
                for col, (i, j) in enumerate(pairs, start=dim):
                    incr[:, i] += values[:, col] * (sqrt_dt * xi[:, j])
                states += incr
    return final, ~np.all(np.isfinite(final), axis=1)


def reference_eval_moment(coeffs, x, block=4096):
    """sum_n P(n, t) x^n at points x (..., dim) by the earlier formulation
    of `dual.eval_moment`: the (points, K) monomial matrix, `monomials(x,
    exps) @ values`, formed `block` points at a time."""
    flat = np.asarray(x, dtype=float).reshape(-1, coeffs.dim)
    out = np.empty(len(flat))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(flat), block):
            out[start : start + block] = monomials(flat[start : start + block], coeffs.index_set) @ coeffs.values
    return out.reshape(np.shape(x)[:-1])


def reference_states_csv_text(final):
    """The states CSV of final states (paths, dim) as the writer before
    `mc.final_states_csv_text` wrote it: one join per row."""
    lines = [",".join(["path"] + [f"x_{d + 1}" for d in range(final.shape[1])])]
    lines += [",".join([str(p), *map(repr, row)]) for p, row in enumerate(final.tolist())]
    return "\n".join(lines) + "\n"


def reference_grid_csv_text(table):
    """A grid table (rows, dim + 1) as CSV as the writer before
    `evaluate.grid_csv_text` wrote it: one join per row."""
    dim = table.shape[1] - 1
    names = ["x"] if dim == 1 else [f"x{d + 1}" for d in range(dim)]
    lines = [",".join([*names, "value"])]
    lines += [",".join(map(repr, row)) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def reference_coefficients_csv_text(index_set, values):
    """A coefficient CSV as the writer before `dual.coefficients_csv_text`
    wrote it: one join per row, str of each exponent, repr of each value."""
    lines = [",".join([f"n_{d + 1}" for d in range(np.shape(index_set)[1])] + ["value"])]
    for index, value in zip(np.asarray(index_set).tolist(), values):
        lines.append(",".join([str(e) for e in index] + [repr(float(value))]))
    return "\n".join(lines) + "\n"


def reference_read_coefficients_csv(path):
    """A coefficient CSV read as `dual.read_coefficients_csv` read it before
    it converted blocks of lines: line by line, an `int` and a `float` per
    field, errors naming the file's own line numbers.  A header with no rows
    is "no coefficient rows", as the reader now reports it."""
    header, blank = None, None  # blank: the first blank line after the header
    indices, values = [], []
    with open(path) as handle:
        for ln, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                if header is not None and blank is None:
                    blank = ln
                continue
            if header is None:
                header = line.split(",")
                dim = len(header) - 1
                if header != [*(f"n_{d + 1}" for d in range(dim)), "value"]:
                    raise ValueError(f"{path}:{ln}: expected header n_1,...,n_D,value")
                continue
            parts = line.split(",")
            if blank is not None or len(parts) != dim + 1:
                raise ValueError(f"{path}:{blank or ln}: expected {dim + 1} fields")
            try:
                indices.append([int(p) for p in parts[:-1]])
                values.append(float(parts[-1]))
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: {exc}") from None
            if not math.isfinite(values[-1]):
                raise ValueError(f"{path}:{ln}: non-finite value {parts[-1]!r}")
    if header is None:
        raise ValueError(f"{path}: empty coefficient file")
    if not values:
        raise ValueError(f"{path}: no coefficient rows")
    try:
        return DualCoefficients(indices, np.array(values), t=math.nan)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def reference_profile_csv_text(band_edges, mse):
    """A radial profile CSV as the writer before `evaluate.profile_csv_text`
    wrote it: one f-string per ring."""
    lines = ["r_lo,r_hi,mse"]
    for lo, hi, err in zip(band_edges[:-1], band_edges[1:], mse):
        lines.append(f"{float(lo)!r},{float(hi)!r},{float(err)!r}")
    return "\n".join(lines) + "\n"


def reference_dataset_csv_text(inputs, targets):
    """A dataset CSV as the writer before `baseline.dataset_csv_text` wrote
    it: one join per row."""
    lines = [",".join([f"x_{d + 1}" for d in range(inputs.shape[1])] + ["target"])]
    for row, target in zip(inputs, targets):
        lines.append(",".join([repr(float(v)) for v in row] + [repr(float(target))]))
    return "\n".join(lines) + "\n"


def table(dim, *columns):
    """The term table (`Polynomial`) whose column c holds the term map columns[c]."""
    rows = sorted({n for column in columns for n in column}, key=grlex_key)
    coefs = np.array([[column.get(n, 0.0) for column in columns] for n in rows], dtype=float)
    return Polynomial(np.array(rows, dtype=np.int64).reshape(-1, dim), coefs.reshape(-1, len(columns)))


def terms(poly, column=0):
    """One column of a term table as a term map, in the table's row order."""
    rows = map(tuple, poly.exps.tolist())
    return {n: c for n, c in zip(rows, poly.coefs[:, column].tolist()) if c != 0.0}


def make_model(drift, diffusion, name=None):
    """The model with drift term maps a_i and diffusion term maps B_ij
    (nested row lists), built through the JSON model format."""
    def cell(poly):
        return [{"coef": c, "powers": list(n)} for n, c in poly.items()]

    doc = {"dim": len(drift), "drift": [cell(p) for p in drift]}
    doc["diffusion"] = [[cell(p) for p in row] for row in diffusion]
    return parse_model(doc if name is None else {**doc, "name": name})


def drift_terms(model, i):
    return terms(model.terms, i)


def diffusion_terms(model, i, j):
    return terms(model.terms, model.dim * (i + 1) + j)


def add(p, q):
    """p + q: q's terms added to p's in q's order; exact zeros dropped."""
    acc = dict(p)
    for index, coef in q.items():
        acc[index] = acc.get(index, 0.0) + coef
    return {n: c for n, c in acc.items() if c != 0.0}


def mul(p, q):
    """p * q, each coefficient a `math.fsum` over its term pairs; exact zeros dropped."""
    acc = {}
    for na, ca in p.items():
        for nb, cb in q.items():
            acc.setdefault(tuple(a + b for a, b in zip(na, nb, strict=True)), []).append(ca * cb)
    return {n: c for n, c in ((n, math.fsum(v)) for n, v in acc.items()) if c != 0.0}


def scale(poly, factor):
    """The term map with every coefficient multiplied by a float factor."""
    return {n: c for n, c in ((n, c * factor) for n, c in poly.items()) if c != 0.0}


def total_degree(poly):
    """Largest total degree of a term; the zero polynomial reports 0."""
    return max((sum(n) for n in poly), default=0)


def allclose(p, q, rel_tol=1e-12, abs_tol=0.0):
    """Coefficient-wise closeness of two term maps over the union of their terms."""
    for index in p.keys() | q.keys():
        a, b = p.get(index, 0.0), q.get(index, 0.0)
        if abs(a - b) > max(abs_tol, rel_tol * max(abs(a), abs(b))):
            return False
    return True


def derivative(poly, axis):
    """Partial derivative of a term map with respect to x_axis (0-based)."""
    acc = {}
    for index, coef in poly.items():
        e = index[axis]
        if e == 0:
            continue
        lowered = tuple(v - 1 if d == axis else v for d, v in enumerate(index))
        acc[lowered] = acc.get(lowered, 0.0) + coef * e
    return {n: c for n, c in acc.items() if c != 0.0}


def adjoint_apply(model, index, product=None):
    """Image of the monomial x^index under the backward-equation generator.

    Returns sum_i a_i(x) d(x^n)/dx_i + 1/2 sum_{i,j} [BB^T]_{i,j}(x)
    d2(x^n)/dx_i dx_j as an exact term map, adding the terms in that order
    (drift axes, then (i, j) row-major).  BB^T is `sde.diffusion_product`;
    pass it as `product` to reuse it across many monomials.
    """
    d = model.dim
    index = tuple(int(e) for e in index)
    if len(index) != d:
        raise ValueError(f"index length {len(index)} != model dimension {d}")
    if product is None:
        product = diffusion_product(model)
    out = {}
    firsts = [derivative({index: 1.0}, i) for i in range(d)]
    for i in range(d):
        if firsts[i]:
            out = add(out, mul(drift_terms(model, i), firsts[i]))
    for i in range(d):
        for j in range(d):
            entry = terms(product, i * d + j)
            second = derivative(firsts[i], j)
            if entry and second:
                out = add(out, mul(scale(entry, 0.5), second))
    return out


def multinomial(k, parts):
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


def flatten_params(net):
    """Concatenate (out_weights, in_weights row-major, biases): the layout of
    `network.param_views` and of the Jacobian columns."""
    return np.concatenate([net.out_weights, net.in_weights.ravel(), net.biases])


def residuals(target, net, order):
    """P(l, t) - T_net(l) over the total-degree set, in canonical order: the
    residual vector whose squared norm `fit_network` minimises."""
    if target.dim != net.dim:
        raise ValueError(f"target dimension {target.dim} != network dimension {net.dim}")
    return _target_vector(target, net.dim, order) - network_taylor(net, order).coefficients


def taylor_terms(net, order):
    """The network's order-N Taylor coefficients keyed by exponent tuple, in
    the total-degree order `network_taylor` returns them in."""
    index_set = multi_index_set(net.dim, order, "total-degree")
    return dict(zip(map(tuple, index_set.tolist()), network_taylor(net, order).coefficients.tolist()))


@functools.lru_cache(maxsize=None)
def stirling2(n, k):
    """Stirling number of the second kind S(n, k), an exact integer."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def sigmoid_derivative(n, s):
    """sigmoid^(n) as a polynomial in the sigmoid's value s,
    sum_k (-1)^k k! S(n+1, k+1) s^(k+1), summed in the arithmetic of s
    (a `Fraction`, an mpmath number)."""
    return sum((-1) ** k * math.factorial(k) * stirling2(n + 1, k + 1) * s ** (k + 1) for k in range(n + 1))


@functools.lru_cache(maxsize=None)
def tanh_polynomial(n):
    """The coefficients [w^j] p_n, j = 0..n+1, of sigmoid^(n)(b) = p_n(w) with
    w = tanh(b / 2), as `Fraction`s: `sigmoid_derivative` at s = (1 + w) / 2."""
    coeffs, power = [Fraction(0)] * (n + 2), [Fraction(1)]  # power: s^k in w
    for k in range(n + 1):
        power = [(a + b) / 2 for a, b in zip([*power, 0], [0, *power])]
        for j, c in enumerate(power):
            coeffs[j] += (-1) ** k * math.factorial(k) * stirling2(n + 1, k + 1) * c
    return tuple(coeffs)


def reference_own_expansion(params, order, magnitude=False):
    """The network's own coefficients T*(l) = sum_i q_i R_i^l / l! * sigmoid^(|l|)(b_i)
    and their Jacobian at the weights (q, R, s), from `np.power` weight powers and
    sigmoid derivatives summed at 60 digits (`sigmoid_derivative`).  Returns
    (coefficients (L,), Jacobian (L, hidden * (dim + 2))).  With `magnitude`, every
    weight enters by its absolute value and each sigmoid^(n)(b) by the sum of the
    absolute values of its terms in w = tanh(b / 2), sum_j |[w^j] p_n| |w|^j, so each
    entry is the sum of the absolute values of the terms that make it up: its scale."""
    out_w, in_w, biases = (np.asarray(w, dtype=float) for w in params)
    n, dim = in_w.shape
    exps = multi_index_set(dim, order, "total-degree")
    degree = exps.sum(axis=1)
    lfact = np.array([math.prod(map(math.factorial, l)) for l in exps.tolist()], dtype=float)[:, None]
    if magnitude:
        out_w, in_w, w = np.abs(out_w), np.abs(in_w), np.abs(np.tanh(biases / 2))
        deriv = np.array([[sum(abs(float(c)) * x**j for j, c in enumerate(tanh_polynomial(k))) for x in w]
                          for k in range(order + 2)])
    else:
        with mp.workdps(60):
            sigmas = [1 / (1 + mp.exp(-mp.mpf(b))) for b in biases.tolist()]
            deriv = np.array([[float(sigmoid_derivative(k, s)) for s in sigmas] for k in range(order + 2)])
    powers = np.power(in_w.T[:, None, :], np.arange(order + 1)[:, None])  # (dim, order + 1, hidden)
    gathered = [powers[d][exps[:, d]] for d in range(dim)]
    weight_pow = functools.reduce(np.multiply, gathered)
    terms = deriv[degree] / lfact
    d_in = np.empty((len(exps), n * dim))
    for d in range(dim):
        dpow = exps[:, d][:, None] * powers[d][np.maximum(exps[:, d] - 1, 0)]
        for other in range(dim):
            if other != d:
                dpow = dpow * gathered[other]
        d_in[:, d::dim] = dpow * terms * out_w
    d_bias = weight_pow * deriv[degree + 1] / lfact * out_w
    return (weight_pow * terms) @ out_w, np.hstack([weight_pow * terms, d_in, d_bias])


def reference_taylor_expansion(params, order):
    """The paper's truncated form of the network's coefficients at the weights
    (q, R, s): the expansion in x and in the biases together, cut at total order N,

        T(l) = sum_{k=|l|}^{N} multinomial(k; l, k - |l|) sigmoid^(k)(0) / k!
               * sum_i q_i R_i^l s_i^(k - |l|),

    from its own factor table (`sigmoid_derivative` at s = 1/2) and `np.power`
    powers.  It is the network's own T* at zero biases only."""
    out_w, in_w, biases = (np.asarray(w, dtype=float) for w in params)
    dim = in_w.shape[1]
    exps = multi_index_set(dim, order, "total-degree")
    at_zero = [sigmoid_derivative(k, Fraction(1, 2)) for k in range(order + 1)]
    factors = np.zeros((len(exps), order + 1))
    for row, l in enumerate(exps.tolist()):
        for j in range(order - sum(l) + 1):
            k = sum(l) + j
            factors[row, j] = float(multinomial(k, [*l, j]) * at_zero[k] / math.factorial(k))
    powers = np.power(np.concatenate([biases[None], in_w.T])[:, None, :], np.arange(order + 1)[:, None])
    weight_pow = functools.reduce(np.multiply, [powers[d + 1][exps[:, d]] for d in range(dim)])
    return (weight_pow * (factors @ powers[0])) @ out_w


def generator_csr(matrix):
    """A generator's `MoveSlots` as a canonical scipy CSR matrix: its nonzero
    entries, each row's in increasing column order.  `.toarray()` gives the
    dense matrix."""
    width, size = matrix.cols.shape
    rows = np.broadcast_to(np.arange(size), (width, size))
    entry = matrix.vals != 0.0
    return csr_array((matrix.vals[entry], (rows[entry], matrix.cols[entry])), shape=(size, size))


def value_at(coeffs, index):
    """The solved coefficient P(index, t) of a `DualCoefficients`."""
    return float(coeffs.values[index_positions(coeffs.index_set, index)])


def reference_train_backprop(data, config):
    """Mini-batch Adam by the earlier formulation of `train_backprop`: q, R
    and s drawn as three arrays, each with its own Adam moments, updated one
    after another, and the epoch loss computed inline.  Returns the trained
    `SigmoidNet` and the loss trace."""
    hidden, dim = config.hidden, data.dim
    rng = np.random.default_rng(config.seed)
    out_w = rng.uniform(-1.0, 1.0, hidden)
    in_w = rng.uniform(-1.0, 1.0, (hidden, dim))
    biases = rng.uniform(-1.0, 1.0, hidden)
    params = [out_w, in_w, biases]
    first = [np.zeros_like(p) for p in params]
    second = [np.zeros_like(p) for p in params]
    adam_step = 0
    trace = np.empty(config.epochs)
    for epoch in range(config.epochs):
        order = rng.permutation(data.size)
        for lo_idx in range(0, data.size, config.batch_size):
            batch = order[lo_idx : lo_idx + config.batch_size]
            x = data.inputs[batch]
            y = data.targets[batch]
            hidden_act = sigmoid(x @ in_w.T + biases)
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
        err = sigmoid(data.inputs @ in_w.T + biases) @ out_w - data.targets
        trace[epoch] = float(err @ err) / err.size
    return SigmoidNet(out_w, in_w, biases), trace
