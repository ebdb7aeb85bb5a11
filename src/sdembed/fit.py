"""Coefficient-matching fit of the sigmoid network to solved dual coefficients.

The cost is the plain sum of squared differences between the solved
coefficients P(l, t) and the network Taylor coefficients, taken over the
total-degree index set {l : sum l_j <= N}.  Minimization uses damped
Gauss-Newton (Levenberg-Marquardt) steps with the analytic Jacobian from
the network module, on the expansion its accepted trial built, restarted from
several random initializations; the lowest-cost restart wins.  Everything is
deterministic for a fixed seed.  Each restart draws its initial weights
uniformly from [-1, 1] and stops at a gradient norm of 1e-10, at a relative
cost drop of 1e-15 or on its iteration budget; only the budget is a setting,
the rest are the module constants `_INIT_RANGE`, `_GRADIENT_TOL` and
`_COST_TOL`.

The default iteration budget, 200, is the one the van der Pol second
moment (h=8, N=17, t=0.1) needs: it brings the worst cost over seeds 0-5
to 2.7e-3, against 1.2e-2 at 30, and lowers the error in every radial
band.  No budget serves every fit.  When the hidden layer can interpolate
the target, the infimum is approached only as weights diverge along a
flat valley, so a longer budget can trade invisible cost gains for
inflated weights that evaluate poorly away from the origin.  The OU
moments (h=4, N=12, t=1) are fitted at 30 for that reason: for m=2 and
seeds 0-5 the maximum error on [-1, 1] is 0.006-0.025 at 30 iterations
and 0.005-0.376 at 200.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dual import DualCoefficients
from .network import (
    MAX_SIGMOID_ORDER,
    SigmoidNet,
    net_to_dict,
    network_taylor,
    param_views,
    taylor_jacobian,
)
from .polynomial import index_positions, multi_index_set

__all__ = [
    "FitConfig",
    "FitResult",
    "FitError",
    "fit_network",
    "fit_result_to_dict",
]

# initial weights are drawn uniformly from this interval
_INIT_RANGE = (-1.0, 1.0)
# a restart stops when max |J^T r| falls to _GRADIENT_TOL, or when an accepted
# step lowers the cost by no more than _COST_TOL relative
_GRADIENT_TOL = 1e-10
_COST_TOL = 1e-15
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
    """Fit settings; defaults follow the builtin demonstration setups.

    The initial-weight interval and the stopping tolerances are the module
    constants `_INIT_RANGE`, `_GRADIENT_TOL` and `_COST_TOL`.
    """

    hidden: int
    order: int | None = None  # Taylor order; None means the target's truncation
    restarts: int = 10
    max_iterations: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.hidden < 1:
            raise ValueError("hidden node count must be >= 1")
        # capped here, before any index set is built: a huge order would size one first
        if self.order is not None and not 0 <= self.order <= MAX_SIGMOID_ORDER:
            raise ValueError(f"Taylor order must be >= 0 and <= {MAX_SIGMOID_ORDER}, got {self.order}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


def _lm_minimize(theta0, target_values, hidden, dim, config):
    """One damped Gauss-Newton descent on the flat weight vector, read through
    `param_views`; returns (theta, cost, iterations, converged)."""

    def cost_and_residual(theta):
        r = target_values - network_taylor(param_views(theta, hidden, dim), config.order)
        return r, float(r @ r)

    def jacobian_and_gradient(theta, r):  # J, J^T r (computed once) and its max norm
        jac = -taylor_jacobian(param_views(theta, hidden, dim), config.order)
        gradient = jac.T @ r
        return jac, gradient, float(np.max(np.abs(gradient)))

    theta = theta0
    r, cost = cost_and_residual(theta)
    if not np.isfinite(cost):
        raise FitError("non-finite residuals at the initial point")
    damping = _DAMPING_INIT
    # identity damping (classic Levenberg): resists motion along flat
    # directions of the cost, which keeps fitted weights in the basin
    # where the truncated expansion also controls off-origin values
    identity = np.eye(len(theta))
    converged = False
    iterations = 0
    while iterations < config.max_iterations:
        jac, gradient, gnorm = jacobian_and_gradient(theta, r)
        if gnorm <= _GRADIENT_TOL:
            converged = True
            break
        hess = jac.T @ jac
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
        if drop <= _COST_TOL * max(cost, _DAMPING_FLOOR):
            converged = jacobian_and_gradient(theta, r)[2] <= _GRADIENT_TOL
            break
    return theta, cost, iterations, converged


def fit_network(target: DualCoefficients, config: FitConfig) -> FitResult:
    """Multi-start Levenberg-Marquardt minimization of the matching cost.

    Each restart draws initial weights uniformly from `_INIT_RANGE` using an
    independent per-restart stream of the configured seed, so restart k is
    reproducible regardless of how many restarts run.  The lowest-cost
    restart is returned (ties break toward the earlier restart).  An unset
    `config.order` matches up to the target's truncation, `max_degree`,
    which `FitConfig` then checks like a given order.
    """
    if config.order is None:
        config = replace(config, order=target.max_degree)
    dim = target.dim
    target_values = _target_vector(target, dim, config.order)
    n_params = config.hidden * (dim + 2)

    best = None
    costs = []
    for restart in range(config.restarts):
        rng = np.random.default_rng([config.seed, restart])
        theta0 = rng.uniform(*_INIT_RANGE, n_params)
        theta, cost, iterations, converged = _lm_minimize(
            theta0, target_values, config.hidden, dim, config
        )
        costs.append(cost)
        if best is None or cost < best[1]:
            best = (theta, cost, iterations, converged)
    theta, cost, iterations, converged = best
    return FitResult(
        net=SigmoidNet(*param_views(theta, config.hidden, dim)),
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
