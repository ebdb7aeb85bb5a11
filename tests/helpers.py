"""Shared test oracles, independent of the library's own computation paths.

Finite differences are built from Fornberg interpolation weights, so the
derivative estimates here never touch the exact-rational or closed-form
code they are used to check.
"""

import itertools
import math

import numpy as np


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
    for index, coef in poly.terms.items():
        out = out + coef * np.prod(x ** np.asarray(index, dtype=np.int64), axis=-1)
    return out


def step_noise(seed, step, paths, dim):
    """Standard normals (paths, dim) of Euler step `step`, by the keying rule
    `mc.simulate` documents: one Philox stream per step, keyed by
    SeedSequence(entropy=seed, spawn_key=(step,)), drawn in path order."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(step,))
    return np.random.Generator(np.random.Philox(seq)).standard_normal((paths, dim))


def cumprod_monomials(x, exps, out=None):
    """Monomials (..., K) by the earlier formulation of `monomials`: one
    power table per axis, up to that axis's largest exponent, built with
    `np.cumprod`; the gathered powers are multiplied from axis 0 upwards."""
    tables = []
    for d, top in enumerate(exps.max(axis=0, initial=0)):
        table = np.empty((top + 1,) + x.shape[:-1])
        table[0], table[1:] = 1.0, x[..., d]
        tables.append(np.cumprod(table, axis=0, out=table))
    rows = np.empty((len(exps),) + x.shape[:-1]) if out is None else np.moveaxis(out, -1, 0)
    np.take(tables[0], exps[:, 0], axis=0, out=rows)
    for d in range(1, len(tables)):
        rows *= tables[d][exps[:, d]]
    return np.moveaxis(rows, 0, -1)
