"""Euler-Maruyama sampling of the SDE and moment estimation.

Each path advances by x += a(x) dt + B(x) sqrt(dt) xi with standard
normal increments xi.  The loop runs steps outside and blocks of paths
inside.  Step k draws from one counter-based Philox stream keyed by
SeedSequence(entropy=seed, spawn_key=(k,)), and the blocks take their
normals from it in path order.  Consecutive draws from one stream
concatenate exactly, so path j reproduces bit-for-bit no matter how the
ensemble is split into blocks or how many paths run.  There is one
workspace per call: the power table, monomial rows, field values, noise
and increments of one block are allocated once, and every step and block
writes into views of them.  So memory does not grow with the horizon, and
no step maps fresh pages: with glibc's mmap threshold pinned at 128 KiB
(MALLOC_MMAP_THRESHOLD_=131072), a warmed 16 384-path, 100-step van der
Pol run makes 438 minor page faults, against 68 427 when every step and
block allocated its own.  Paths whose state goes non-finite (possible for
the cubic van der Pol drift at coarse steps) are flagged and excluded from
moment estimates instead of aborting the run.  Only final-time states are
kept.  `final_states_csv_text` yields their CSV in chunks of rows
(`polynomial._csv_text`), so writing the states holds one chunk's cells
and text at a time, never the whole file's.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .polynomial import Polynomial, _csv_text, _freeze
from .sde import SdeModel, check_moment

__all__ = [
    "SimConfig",
    "TrajectoryEnsemble",
    "EstimationError",
    "simulate",
    "mc_moment",
    "final_states_csv_text",
]

_CHUNK_PATHS = 8192


class EstimationError(RuntimeError):
    """Moment estimation impossible (every path diverged)."""


@dataclass(frozen=True)
class SimConfig:
    dt: float
    horizon: float
    paths: int
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if not (math.isfinite(self.horizon) and self.horizon >= 0):
            raise ValueError(f"horizon must be finite and >= 0, got {self.horizon}")
        if self.paths < 1:
            raise ValueError(f"paths must be >= 1, got {self.paths}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(f"horizon {self.horizon} is not an integer multiple of dt {self.dt}")

    @property
    def steps(self) -> int:
        return round(self.horizon / self.dt)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Final-time states of all paths, with per-path blow-up flags."""

    final: np.ndarray  # (paths, dim)
    blown: np.ndarray  # (paths,) bool
    config: SimConfig

    def __post_init__(self):
        _freeze(self, final=float, blown=bool)

    @property
    def n_excluded(self) -> int:
        return int(self.blown.sum())


def simulate(model: SdeModel, x0, config: SimConfig) -> TrajectoryEnsemble:
    """Euler-Maruyama ensemble from a common start point."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (model.dim,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({model.dim},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"x0 must be finite, got {x0.tolist()}")
    dim, steps = model.dim, config.steps
    sqrt_dt = math.sqrt(config.dt)
    # one table per call, so a step is one evaluation: a column per a_i, then per nonzero B_ij
    pairs = [(i, j) for i in range(dim) for j in range(dim) if np.any(model.diffusion[:, i, j])]
    columns = [model.drift, *(model.diffusion[:, i, j, None] for i, j in pairs)]
    field = Polynomial(model.terms.exps, np.hstack(columns))
    final = np.full((config.paths, dim), x0)
    # one workspace per call; a block of n paths takes contiguous prefix views
    # buf[:n * w].reshape(n, w), the layout of fresh arrays, so a short last
    # block's GEMM sees the same operands and gives the same bits
    block, width = min(config.paths, _CHUNK_PATHS), dim + len(pairs)
    work = field.workspace(block)
    fields, noise, step, kick = (np.empty(block * w) for w in (width, dim, dim, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(k,))
            gen = np.random.Generator(np.random.Philox(seq))
            for start in range(0, config.paths, block):
                states = final[start : start + block]
                n = len(states)
                xi = gen.standard_normal(out=noise[: n * dim].reshape(n, dim))
                xi *= sqrt_dt  # once per block, not per diffusion column: the same bits
                values = field.evaluate(states, out=fields[: n * width].reshape(n, width), work=work)
                incr = step[: n * dim].reshape(n, dim)
                # column by column: numpy walks an (n, dim) slice of the wider
                # values array dim elements at a time, several times slower
                for i in range(dim):
                    np.multiply(values[:, i], config.dt, out=incr[:, i])
                for col, (i, j) in enumerate(pairs, start=dim):
                    incr[:, i] += np.multiply(values[:, col], xi[:, j], out=kick[:n])
                states += incr
    blown = ~np.all(np.isfinite(final), axis=1)
    final.flags.writeable = blown.flags.writeable = False  # the record keeps them as is
    return TrajectoryEnsemble(final, blown, config)


def mc_moment(ensemble: TrajectoryEnsemble, axis: int, power: int) -> tuple[float, float]:
    """Sample estimate and standard error of E[x_axis^power] (axis 1-based)."""
    check_moment(ensemble.final.shape[1], axis, power)
    ok = ~ensemble.blown
    n = int(ok.sum())
    if n == 0:
        raise EstimationError("all paths diverged; no samples to average")
    samples = ensemble.final[ok, axis - 1] ** power
    estimate = float(samples.mean())
    std_error = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan
    return estimate, std_error


def final_states_csv_text(ensemble: TrajectoryEnsemble) -> Iterator[str]:
    """The final states as CSV chunks: header path,x_1,...,x_D, one row per path."""
    paths, dim = ensemble.final.shape
    return _csv_text(["path", *(f"x_{d + 1}" for d in range(dim))], np.arange(paths), ensemble.final)
