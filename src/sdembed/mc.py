"""Euler-Maruyama sampling of the SDE and moment estimation.

Each path advances by x += a(x) dt + B(x) sqrt(dt) xi with standard
normal increments xi.  Every path owns a counter-based Philox stream
derived from (seed, path index), so path j reproduces bit-for-bit no
matter how the ensemble is split into batches or how many paths run.
Paths whose state goes non-finite (possible for the cubic van der Pol
drift at coarse steps) are flagged and excluded from moment estimates
instead of aborting the run.  Only final-time states are kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .sde import SdeModel

__all__ = [
    "SimConfig",
    "TrajectoryEnsemble",
    "EstimationError",
    "simulate",
    "mc_moment",
    "final_states_csv_text",
    "write_final_states_csv",
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
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
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
    x0: tuple[float, ...]

    def __post_init__(self):
        final = np.asarray(self.final, dtype=float)
        blown = np.asarray(self.blown, dtype=bool)
        final.flags.writeable = False
        blown.flags.writeable = False
        object.__setattr__(self, "final", final)
        object.__setattr__(self, "blown", blown)
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))

    @property
    def n_excluded(self) -> int:
        return int(self.blown.sum())


def _path_noise(seed: int, first_path: int, count: int, steps: int, dim: int) -> np.ndarray:
    out = np.empty((count, steps, dim))
    for p in range(count):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(first_path + p,))
        gen = np.random.Generator(np.random.Philox(seq))
        out[p] = gen.standard_normal((steps, dim))
    return out


def simulate(model: SdeModel, x0, config: SimConfig) -> TrajectoryEnsemble:
    """Euler-Maruyama ensemble from a common start point."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (model.dim,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({model.dim},)")
    dim, steps = model.dim, config.steps
    sqrt_dt = math.sqrt(config.dt)
    diffusion_terms = [
        (i, j, model.diffusion[i][j])
        for i in range(dim)
        for j in range(dim)
        if not model.diffusion[i][j].is_zero()
    ]
    final = np.empty((config.paths, dim))
    for start in range(0, config.paths, _CHUNK_PATHS):
        count = min(_CHUNK_PATHS, config.paths - start)
        states = np.tile(x0, (count, 1))
        if steps:
            noise = _path_noise(config.seed, start, count, steps, dim)
            with np.errstate(over="ignore", invalid="ignore"):
                for k in range(steps):
                    xi = noise[:, k, :]
                    incr = np.empty_like(states)
                    for i in range(dim):
                        incr[:, i] = model.drift[i].evaluate(states) * config.dt
                    for i, j, poly in diffusion_terms:
                        incr[:, i] += poly.evaluate(states) * (sqrt_dt * xi[:, j])
                    states = states + incr
        final[start : start + count] = states
    blown = ~np.all(np.isfinite(final), axis=1)
    return TrajectoryEnsemble(final, blown, config, tuple(x0))


def mc_moment(ensemble: TrajectoryEnsemble, axis: int, power: int) -> tuple[float, float]:
    """Sample estimate and standard error of E[x_axis^power] (axis 1-based)."""
    dim = ensemble.final.shape[1]
    if not 1 <= axis <= dim:
        raise ValueError(f"axis {axis} out of range for dimension {dim}")
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power}")
    ok = ~ensemble.blown
    n = int(ok.sum())
    if n == 0:
        raise EstimationError("all paths diverged; no samples to average")
    samples = ensemble.final[ok, axis - 1] ** power
    estimate = float(samples.mean())
    std_error = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan
    return estimate, std_error


def final_states_csv_text(ensemble: TrajectoryEnsemble) -> str:
    dim = ensemble.final.shape[1]
    lines = [",".join(["path"] + [f"x_{d + 1}" for d in range(dim)])]
    for p, row in enumerate(ensemble.final):
        lines.append(",".join([str(p)] + [repr(float(v)) for v in row]))
    return "\n".join(lines) + "\n"


def write_final_states_csv(ensemble: TrajectoryEnsemble, path) -> None:
    Path(path).write_text(final_states_csv_text(ensemble))
