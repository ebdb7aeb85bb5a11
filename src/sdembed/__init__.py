"""Data-free moment networks for polynomial SDEs.

Solve the truncated coefficient system of the backward Kolmogorov equation
to get moment maps of a stochastic differential equation, then embed those
maps into a one-hidden-layer sigmoid network by matching the network's
exact Taylor coefficients — no training data needed.  Monte Carlo and
backprop-trained baselines are included for validation and comparison.
"""

__version__ = "0.1.0"

from .baseline import Dataset, TrainConfig, TrainResult, generate_dataset, train_backprop
from .dual import (
    DualCoefficients,
    GeneratorMatrix,
    IntegratorConfig,
    SolverError,
    build_generator,
    eval_moment,
    initial_coefficients,
    solve_dual,
    solve_moment,
)
from .evaluate import RadialErrorProfile, analytic_ou_moment, grid_eval, radial_error_profile
from .fit import FitConfig, FitError, FitResult, fit_network, residuals
from .mc import SimConfig, TrajectoryEnsemble, mc_moment, simulate
from .network import (
    SigmoidNet,
    forward,
    network_taylor,
    read_network,
    sigmoid_derivatives,
    taylor_jacobian,
    write_network,
)
from .polynomial import MultiIndex, Polynomial, monomials, multi_index_set, multinomial
from .sde import (
    ModelParseError,
    SdeModel,
    adjoint_apply,
    builtin_model,
    diffusion_product,
    parse_model,
    read_model,
    shift_model_origin,
    write_model,
)

__all__ = [
    "__version__",
    "MultiIndex",
    "Polynomial",
    "multi_index_set",
    "multinomial",
    "monomials",
    "SdeModel",
    "ModelParseError",
    "builtin_model",
    "diffusion_product",
    "adjoint_apply",
    "shift_model_origin",
    "parse_model",
    "read_model",
    "write_model",
    "GeneratorMatrix",
    "DualCoefficients",
    "IntegratorConfig",
    "SolverError",
    "build_generator",
    "initial_coefficients",
    "solve_dual",
    "solve_moment",
    "eval_moment",
    "SigmoidNet",
    "forward",
    "sigmoid_derivatives",
    "network_taylor",
    "taylor_jacobian",
    "read_network",
    "write_network",
    "FitConfig",
    "FitResult",
    "FitError",
    "residuals",
    "fit_network",
    "SimConfig",
    "TrajectoryEnsemble",
    "simulate",
    "mc_moment",
    "Dataset",
    "TrainConfig",
    "TrainResult",
    "generate_dataset",
    "train_backprop",
    "RadialErrorProfile",
    "analytic_ou_moment",
    "grid_eval",
    "radial_error_profile",
]
