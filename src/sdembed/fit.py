"""Coefficient-matching fit of the sigmoid network to solved dual coefficients.

The cost is the plain sum of squared differences between the solved
coefficients P(l, t) and the network Taylor coefficients, taken over the
total-degree index set {l : sum l_j <= N}.  Minimization uses damped
Gauss-Newton (Levenberg-Marquardt) steps with the analytic Jacobian from
the network module, restarted from several random initializations; the
lowest-cost restart wins.  Everything is deterministic for a fixed seed.

The default iteration budget (30) is deliberately modest, and it is not
the one `sdembed fit` uses (200); neither serves both fits below.  On
these small matching systems LM reaches costs below the truncation error
of the expansion within a few dozen iterations.  When the hidden layer
can interpolate the target, the infimum is approached only as weights
diverge along a flat valley.  For the OU second moment (h=4, N=12, t=1)
longer budgets therefore trade invisible cost gains for inflated weights
that evaluate poorly away from the origin: at 200 iterations the maximum
error on [-1, 1] is 0.137 instead of 0.007.  The van der Pol second
moment (h=8, N=17, t=0.1) goes the other way: 200 iterations lower the
worst cost over seeds 0-5 from 1.2e-2 to 2.7e-3 and the error in every
radial band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import DualCoefficients
from .network import (
    SigmoidNet,
    flatten_params,
    net_to_dict,
    network_taylor,
    taylor_jacobian,
    unflatten_params,
)
from .polynomial import index_positions, multi_index_set

__all__ = [
    "FitConfig",
    "FitResult",
    "FitError",
    "residuals",
    "fit_network",
    "fit_result_to_dict",
]

# Levenberg-Marquardt damping: start, factors after rejected/accepted steps, range
_DAMPING_INIT = 1e-3
_DAMPING_UP = 10.0
_DAMPING_DOWN = 0.1
_DAMPING_FLOOR = 1e-15
_DAMPING_CEIL = 1e15


class FitError(RuntimeError):
    """Fit could not start (e.g. non-finite residuals at the initial point)."""


@dataclass(frozen=True)
class FitConfig:
    """Fit settings; defaults follow the builtin demonstration setups."""

    hidden: int
    order: int
    restarts: int = 10
    init_range: tuple[float, float] = (-1.0, 1.0)
    max_iterations: int = 30
    gradient_tol: float = 1e-10
    cost_tol: float = 1e-15
    seed: int = 0

    def __post_init__(self):
        if self.hidden < 1:
            raise ValueError("hidden node count must be >= 1")
        if self.order < 0:
            raise ValueError("Taylor order must be >= 0")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.gradient_tol <= 0 or self.cost_tol <= 0:
            raise ValueError("tolerances must be > 0")
        lo, hi = self.init_range
        if not lo < hi:
            raise ValueError("init_range must be a nonempty interval")


@dataclass(frozen=True)
class FitResult:
    """Best network over all restarts plus per-restart diagnostics."""

    net: SigmoidNet
    cost: float
    restart_costs: tuple[float, ...]
    iterations: int
    converged: bool
    seed: int


def _target_vector(target: DualCoefficients, dim: int, order: int) -> np.ndarray:
    try:
        rows = index_positions(target.index_set, multi_index_set(dim, order, "total-degree"))
    except KeyError as exc:
        raise ValueError(
            f"Taylor order {order} exceeds the solved coefficient set (missing index {exc})"
        ) from None
    return target.values[rows]


def residuals(target: DualCoefficients, net: SigmoidNet, order: int) -> np.ndarray:
    """P(l, t) - T_net(l) over the total-degree set, in canonical order."""
    if target.dim != net.dim:
        raise ValueError(f"target dimension {target.dim} != network dimension {net.dim}")
    return _target_vector(target, net.dim, order) - network_taylor(net, order).values


def _lm_minimize(theta0, target_values, hidden, dim, config):
    """One damped Gauss-Newton descent; returns (theta, cost, iterations, converged)."""

    def cost_and_residual(theta):
        net = unflatten_params(theta, hidden, dim)
        r = target_values - network_taylor(net, config.order).values
        return r, float(r @ r)

    def gradient_norm(theta, r):
        jac = -taylor_jacobian(unflatten_params(theta, hidden, dim), config.order)
        return jac, float(np.max(np.abs(jac.T @ r)))

    theta = theta0
    r, cost = cost_and_residual(theta)
    if not np.isfinite(cost):
        raise FitError("non-finite residuals at the initial point")
    damping = _DAMPING_INIT
    converged = False
    iterations = 0
    while iterations < config.max_iterations:
        jac, gnorm = gradient_norm(theta, r)
        if gnorm <= config.gradient_tol:
            converged = True
            break
        gradient = jac.T @ r
        hess = jac.T @ jac
        # identity damping (classic Levenberg): resists motion along flat
        # directions of the cost, which keeps fitted weights in the basin
        # where the truncated expansion also controls off-origin values
        identity = np.eye(hess.shape[0])
        accepted = False
        while damping <= _DAMPING_CEIL:
            try:
                step = np.linalg.solve(hess + damping * identity, -gradient)
            except np.linalg.LinAlgError:
                damping *= _DAMPING_UP
                continue
            r_new, cost_new = cost_and_residual(theta + step)
            if np.isfinite(cost_new) and cost_new < cost:
                accepted = True
                break
            damping *= _DAMPING_UP
        if not accepted:
            break  # damping exhausted without a downhill step
        iterations += 1
        drop = cost - cost_new
        theta, r, cost = theta + step, r_new, cost_new
        damping = max(damping * _DAMPING_DOWN, _DAMPING_FLOOR)
        if drop <= config.cost_tol * max(cost, _DAMPING_FLOOR):
            _, gnorm = gradient_norm(theta, r)
            converged = gnorm <= config.gradient_tol
            break
    return theta, cost, iterations, converged


def fit_network(target: DualCoefficients, config: FitConfig) -> FitResult:
    """Multi-start Levenberg-Marquardt minimization of the matching cost.

    Each restart draws initial weights uniformly from init_range using an
    independent per-restart stream of the configured seed, so restart k is
    reproducible regardless of how many restarts run.  The lowest-cost
    restart is returned (ties break toward the earlier restart).
    """
    dim = target.dim
    target_values = _target_vector(target, dim, config.order)
    if not np.all(np.isfinite(target_values)):
        raise FitError("target coefficients contain non-finite values")
    n_params = config.hidden * (dim + 2)
    lo, hi = config.init_range

    best = None
    costs = []
    for restart in range(config.restarts):
        rng = np.random.default_rng([config.seed, restart])
        theta0 = rng.uniform(lo, hi, n_params)
        theta, cost, iterations, converged = _lm_minimize(
            theta0, target_values, config.hidden, dim, config
        )
        costs.append(cost)
        if best is None or cost < best[1]:
            best = (theta, cost, iterations, converged)
    theta, cost, iterations, converged = best
    return FitResult(
        net=unflatten_params(theta, config.hidden, dim),
        cost=cost,
        restart_costs=tuple(costs),
        iterations=iterations,
        converged=converged,
        seed=config.seed,
    )


def fit_result_to_dict(result: FitResult) -> dict:
    return {
        "network": net_to_dict(result.net),
        "cost": result.cost,
        "restart_costs": list(result.restart_costs),
        "iterations": result.iterations,
        "converged": result.converged,
        "seed": result.seed,
    }
