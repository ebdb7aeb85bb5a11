"""Evaluation oracles and error geometry.

Holds the closed-form Ornstein-Uhlenbeck moments (the only analytic
reference among the builtin systems), rectangular grid tabulation in any
dimension (curves and heatmap data), and the radial error profile: mean
squared difference of two predictors over a polar mesh, one band per ring
of the mesh (`RadialErrorProfile.band_mean` averages rings into wider
bands).
Predictors are vectorized callables mapping an (M, dim) array of points to
an (M,) array of values; rendering of the emitted CSV tables is left to
external tooling.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .polynomial import _csv_text, _freeze

__all__ = [
    "RadialErrorProfile",
    "analytic_ou_moment",
    "grid_eval",
    "radial_error_profile",
    "grid_csv_text",
    "profile_csv_text",
]


def analytic_ou_moment(gamma: float, sigma: float, x0, t: float, power: int):
    """Closed-form first or second moment of the Ornstein-Uhlenbeck process.

    E[x(t)]   = x0 exp(-gamma t)
    E[x(t)^2] = (x0 exp(-gamma t))^2 + sigma^2 / (2 gamma) (1 - exp(-2 gamma t))

    x0 may be a scalar or an array; the result matches its shape.
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be > 0 and finite, got {gamma}")
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    x0 = np.asarray(x0, dtype=float)
    decayed = x0 * math.exp(-gamma * t)
    if power == 1:
        out = decayed
    elif power == 2:
        out = decayed**2 + sigma**2 / (2.0 * gamma) * (1.0 - math.exp(-2.0 * gamma * t))
    else:
        raise ValueError(f"analytic moments available for powers 1 and 2, got {power}")
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class RadialErrorProfile:
    """Mean squared difference of two predictors per ring of a polar mesh;
    each ring is one band, bounded by consecutive `band_edges`."""

    band_edges: np.ndarray  # (rings + 1,)
    mse: np.ndarray  # (rings,)

    def __post_init__(self):
        _freeze(self, band_edges=float, mse=float)
        if self.band_edges.shape != (self.mse.shape[0] + 1,):
            raise ValueError("band_edges must have one more entry than mse")
        if np.any(np.diff(self.band_edges) <= 0):
            raise ValueError("band_edges must be strictly increasing")
        if np.any(self.mse < 0):
            raise ValueError("band MSE must be non-negative")

    def band_mean(self, r_lo: float, r_hi: float) -> float:
        """Average MSE over the rings whose centers fall in [r_lo, r_hi]."""
        centers = 0.5 * (self.band_edges[:-1] + self.band_edges[1:])
        mask = (centers >= r_lo) & (centers <= r_hi)
        if not mask.any():
            raise ValueError(f"no bands with centers in [{r_lo}, {r_hi}]")
        return float(self.mse[mask].mean())


def grid_eval(predictor, box, resolution) -> np.ndarray:
    """Tabulate a predictor on a rectangular grid of any dimension, corners included.

    box holds one (lo, hi) pair and resolution one point count per axis.
    Returns rows (x_1, ..., x_dim, value) in row-major order (first axis
    outermost).
    """
    if len(box) != len(resolution):
        raise ValueError(f"box has {len(box)} axes but resolution has {len(resolution)}")
    if min(resolution) < 2:
        raise ValueError("resolution must be at least 2 per axis")
    if not np.all(np.isfinite(box)):
        raise ValueError("box bounds must be finite")
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(box, resolution)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    values = np.asarray(predictor(points), dtype=float).reshape(points.shape[0])
    return np.column_stack([points, values])


def radial_error_profile(
    predictor, reference, r_max: float, mesh: tuple[int, int] = (100, 100)
) -> RadialErrorProfile:
    """Squared predictor-reference differences averaged over each ring.

    The mesh places radii at ring centers (uniform spacing r_max / n_r,
    first ring at half a spacing) and angles uniformly on [0, 2pi); every
    mesh point weighs equally within its ring.  The profile has one band
    per ring; `RadialErrorProfile.band_mean` averages rings into wider
    bands.  A non-finite predictor or reference value is a ValueError
    naming the first mesh point that has one.
    """
    n_r, n_theta = mesh
    if n_r < 2 or n_theta < 2:
        raise ValueError("mesh must have at least 2 points per coordinate")
    if not (math.isfinite(r_max) and r_max > 0):
        raise ValueError(f"r_max must be > 0 and finite, got {r_max}")
    radii = (np.arange(n_r) + 0.5) * (r_max / n_r)
    angles = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    rr, tt = np.meshgrid(radii, angles, indexing="ij")
    points = np.column_stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()])
    pred = np.asarray(predictor(points), dtype=float).reshape(points.shape[0])
    ref = np.asarray(reference(points), dtype=float).reshape(points.shape[0])
    bad = np.flatnonzero(~(np.isfinite(pred) & np.isfinite(ref)))
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"non-finite value at mesh point ({float(points[i, 0])!r}, {float(points[i, 1])!r}): "
            f"predictor {float(pred[i])!r}, reference {float(ref[i])!r}"
        )
    ring_mse = ((pred - ref).reshape(n_r, n_theta) ** 2).mean(axis=1)
    return RadialErrorProfile(np.linspace(0.0, r_max, n_r + 1), ring_mse)


# -- CSV interchange ---------------------------------------------------------


class _DistinctText:
    """A column as the repr of its cells, sliced into lists of str: a slice
    formats each of its distinct values once, told apart by bit pattern, so
    -0.0 keeps its own text."""

    def __init__(self, column: np.ndarray):
        self.column = column

    def __len__(self) -> int:
        return len(self.column)

    def __getitem__(self, rows: slice) -> list[str]:
        # distinct bit patterns through a dict, not `np.unique`, whose sort and
        # inverse arrays lift a 101 x 101 grid's peak RSS by about 0.35 MB
        cells = self.column[rows]
        bits = cells.view(f"u{cells.itemsize}")
        keys = bits.tolist()
        distinct = np.array(list(dict.fromkeys(keys)), dtype=bits.dtype)
        text = dict(zip(distinct.tolist(), map(repr, distinct.view(cells.dtype).tolist())))
        return list(map(text.__getitem__, keys))


def grid_csv_text(table: np.ndarray) -> Iterator[str]:
    """A `grid_eval` table as CSV chunks: header x,value in 1-D, else
    x1,...,xD,value.  A grid repeats each coordinate of an axis along the
    others, so the coordinate columns go as pre-formatted text, each
    distinct value formatted once per chunk (`_DistinctText`).  The bytes
    are those of array columns, for any table, mesh or not."""
    dim = table.shape[1] - 1
    names = ["x"] if dim == 1 else [f"x{d}" for d in range(1, dim + 1)]
    return _csv_text([*names, "value"], *(_DistinctText(table[:, d]) for d in range(dim)), table[:, -1])


def profile_csv_text(profile: RadialErrorProfile) -> Iterator[str]:
    return _csv_text(["r_lo", "r_hi", "mse"], profile.band_edges[:-1], profile.band_edges[1:], profile.mse)
