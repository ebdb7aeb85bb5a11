"""Command-line pipelines over the library, with reproducible run manifests.

Commands compose through files only: models and networks travel as JSON,
coefficients, datasets, states and profiles as CSV.  Every command that
writes an output also writes `<out>.manifest.json` capturing the resolved
configuration, seeds, input hashes and produced files, so a run can be
reproduced bit-for-bit from its manifest.  Outputs are written atomically
(temp file + rename).

Exit codes: 0 success, 1 runtime or solver failure, 2 usage or parse error.
The SDEMBED_SEED environment variable overrides the default seed of all
commands; explicit --seed flags win over it.  A value that is not an
integer is a usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import TrainConfig, dataset_csv_text, generate_dataset, train_backprop
from .dual import (
    DualCoefficients,
    IntegratorConfig,
    SolverError,
    coefficients_csv_text,
    eval_moment,
    read_coefficients_csv,
    solve_moment,
)
from .evaluate import (
    analytic_ou_moment,
    grid_csv_text,
    grid_eval,
    line_csv_text,
    line_eval,
    profile_csv_text,
    radial_error_profile,
)
from .fit import FitConfig, FitError, fit_network, fit_result_to_dict
from .mc import EstimationError, SimConfig, final_states_csv_text, mc_moment, simulate
from .network import forward, net_to_dict, read_network
from .sde import (
    BUILTIN_ALIASES,
    BUILTIN_PARAMS,
    SdeModel,
    builtin_model,
    read_model,
    shift_model_origin,
)

__all__ = ["main"]

# the parameter names of every builtin, each once
_PARAM_NAMES = tuple(dict.fromkeys(name for names in BUILTIN_PARAMS.values() for name in names))


def _default_seed() -> int:
    raw = os.environ.get("SDEMBED_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"SDEMBED_SEED must be an integer, got {raw!r}") from None


def _atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Run:
    """One command's manifest: everything needed to reproduce its outputs.

    Collects the resolved configuration, seeds, input hashes and outputs
    while the command runs; `finish` writes `<anchor>.manifest.json`.
    """

    def __init__(self, command: str, args: argparse.Namespace, seed_keys: tuple[str, ...]):
        # an output path that is a directory fails the final rename: reject it before any work
        for flag in ("out", "dataset_out"):
            path = getattr(args, flag, None)
            if path is not None and Path(path).is_dir():
                raise ValueError(f"--{flag.replace('_', '-')} names a directory: {path}")
        self.started = time.perf_counter()
        self.manifest = {
            "command": command,
            "version": __version__,
            "config": {k: v for k, v in vars(args).items() if k != "func"},
            "seeds": {k: getattr(args, k) for k in seed_keys if hasattr(args, k)},
            "input_hashes": {},
            "outputs": [],
        }

    def input_file(self, ref, what: str) -> Path:
        """The path of an existing regular file, its hash recorded; else a usage error."""
        path = Path(ref)
        if not path.is_file():
            raise ValueError(f"{what} not found: {path}")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.manifest["input_hashes"][str(path)] = digest
        return path

    def write_output(self, path, text: str) -> None:
        _atomic_write_text(Path(path), text)
        self.manifest["outputs"].append(str(path))

    def finish(self, anchor) -> None:
        if anchor is None:
            return
        duration = round(time.perf_counter() - self.started, 6)
        doc = dict(self.manifest, duration_seconds=duration)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        _atomic_write_text(Path(str(anchor) + ".manifest.json"), text)

    def model(self, ref: str, params: dict[str, float], origin=None) -> SdeModel:
        """A builtin (unset parameters 1.0) or a model JSON, whose hash is recorded."""
        key = BUILTIN_ALIASES.get(ref.lower(), ref.lower())
        if key in BUILTIN_PARAMS:
            wanted = BUILTIN_PARAMS[key]
            unknown = [k for k in params if k not in wanted]
            if unknown:
                raise ValueError(f"parameters {unknown} do not apply to model {key!r}")
            model = builtin_model(key, {name: params.get(name, 1.0) for name in wanted})
        else:
            if params:
                raise ValueError("builtin parameter flags do not apply to model files")
            model = read_model(self.input_file(ref, "model file"))
        if origin:
            if len(origin) != model.dim:
                raise ValueError(f"--origin needs {model.dim} components for this model")
            model = shift_model_origin(model, origin)
        return model


def _param_flags(args) -> dict[str, float]:
    return {name: getattr(args, name) for name in _PARAM_NAMES if getattr(args, name) is not None}


def _solve_target(args, run: _Run) -> DualCoefficients:
    model = run.model(args.model, _param_flags(args), getattr(args, "origin", None))
    config = IntegratorConfig(rtol=args.rtol, atol=args.atol)
    return solve_moment(
        model,
        axis=args.axis,
        power=args.order,
        t=args.t,
        max_degree=args.N,
        config=config,
    )


# -- commands ----------------------------------------------------------------


def _cmd_dual(args) -> int:
    run = _Run("dual", args, ())
    coeffs = _solve_target(args, run)
    run.write_output(args.out, coefficients_csv_text(coeffs))
    run.finish(args.out)
    print(
        f"wrote {args.out}: {len(coeffs.index_set)} coefficients at t={coeffs.t}, "
        f"boundary spill mass {coeffs.spill_mass():.3e}"
    )
    return 0


def _target_from_args(args, run: _Run) -> tuple[DualCoefficients, int]:
    """Coefficient target plus the Taylor order to use."""
    if args.dual is not None:
        ignored = [f"--{flag}" for flag in ("order", "t", *_PARAM_NAMES)
                   if getattr(args, flag) is not None]
        if args.model is not None:
            ignored.insert(0, f"model {args.model!r}")
        if ignored:
            raise ValueError(f"--dual fixes the target; {', '.join(ignored)} would be ignored")
        coeffs = read_coefficients_csv(run.input_file(args.dual, "coefficient file"))
    else:
        if args.model is None:
            raise ValueError("either --dual or a model reference is required")
        missing = [flag for flag in ("order", "t", "N") if getattr(args, flag) is None]
        if missing:
            raise ValueError(f"a model reference also needs --{', --'.join(missing)}")
        coeffs = _solve_target(args, run)
    order = args.N if args.N is not None else coeffs.max_degree
    return coeffs, order


def _cmd_fit(args) -> int:
    run = _Run("fit", args, ("seed",))
    coeffs, order = _target_from_args(args, run)
    config = FitConfig(
        hidden=args.hidden,
        order=order,
        restarts=args.restarts,
        init_range=(args.init_low, args.init_high),
        max_iterations=args.max_iterations,
        gradient_tol=args.gtol,
        cost_tol=args.ctol,
        seed=args.seed,
    )
    result = fit_network(coeffs, config)
    run.write_output(args.out, json.dumps(fit_result_to_dict(result), indent=2) + "\n")
    run.finish(args.out)
    print(f"final cost: {result.cost:.6e} (best of {config.restarts} restarts, converged={result.converged})")
    return 0


def _cmd_mc(args) -> int:
    run = _Run("mc", args, ("seed",))
    model = run.model(args.model, _param_flags(args))
    config = SimConfig(dt=args.dt, horizon=args.t, paths=args.paths, seed=args.seed)
    ensemble = simulate(model, args.x0, config)
    estimate, std_error = mc_moment(ensemble, args.axis, args.m)
    if args.out:
        run.write_output(args.out, final_states_csv_text(ensemble))
        run.finish(args.out)
    print(f"estimate: {estimate!r}  std_error: {std_error!r}  excluded_paths: {ensemble.n_excluded}")
    return 0


def _cmd_train_baseline(args) -> int:
    run = _Run("train-baseline", args, ("seed", "data_seed"))
    coeffs, _ = _target_from_args(args, run)
    lo, hi = args.box
    region = tuple((lo, hi) for _ in range(coeffs.dim))
    data_seed = args.data_seed if args.data_seed is not None else args.seed
    dataset = generate_dataset(coeffs, region, args.size, data_seed)
    config = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
        seed=args.seed,
    )
    result = train_backprop(dataset, (args.hidden, coeffs.dim), config)
    doc = {
        "network": net_to_dict(result.net),
        "final_mse": float(result.loss_trace[-1]),
        "loss_trace": result.loss_trace.tolist(),
        "dataset_fingerprint": dataset.generator_fingerprint,
    }
    run.write_output(args.out, json.dumps(doc, indent=2) + "\n")
    if args.dataset_out:
        run.write_output(args.dataset_out, dataset_csv_text(dataset))
    run.finish(args.out)
    print(f"final training MSE: {result.loss_trace[-1]:.6e} over {dataset.size} examples")
    return 0


# -- eval predictors ---------------------------------------------------------


def _parse_kv(body: str, where: str) -> dict[str, str]:
    out = {}
    if not body:
        return out
    for chunk in body.split(","):
        if "=" not in chunk:
            raise ValueError(f"{where}: expected key=value, got {chunk!r}")
        key, value = chunk.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _pop(kv: dict[str, str], key: str, where: str, convert, default=None):
    """Remove and convert one key; a key without a default is required."""
    if key in kv:
        return convert(kv.pop(key))
    if default is None:
        raise ValueError(f"{where}: missing required key {key!r}")
    return default


@dataclass
class _Predictor:
    fn: object
    dim: int
    label: str


def _build_predictor(spec: str, run: _Run) -> _Predictor:
    if ":" in spec and spec.split(":", 1)[0] in ("net", "dual", "ou", "mc"):
        kind, body = spec.split(":", 1)
    elif spec.endswith(".json"):
        kind, body = "net", spec
    elif spec.endswith(".csv"):
        kind, body = "dual", spec
    else:
        raise ValueError(f"cannot interpret predictor spec {spec!r}")

    if kind == "net":
        path = run.input_file(body, "network file")
        net = read_network(path)
        return _Predictor(lambda pts: forward(net, pts), net.dim, f"net:{path.name}")
    if kind == "dual":
        path = run.input_file(body, "coefficient file")
        coeffs = read_coefficients_csv(path)
        return _Predictor(lambda pts: eval_moment(coeffs, pts), coeffs.dim, f"dual:{path.name}")
    if kind == "ou":
        where = "ou predictor"
        kv = _parse_kv(body, where)
        gamma = _pop(kv, "gamma", where, float, 1.0)
        sigma = _pop(kv, "sigma", where, float, 1.0)
        t = _pop(kv, "t", where, float)
        power = _pop(kv, "m", where, int)
        if kv:
            raise ValueError(f"{where}: unknown keys {sorted(kv)}")
        fn = lambda pts: analytic_ou_moment(gamma, sigma, np.asarray(pts)[:, 0], t, power)
        return _Predictor(fn, 1, f"ou-analytic:m={power}")
    # kind == "mc": Monte Carlo estimate at every requested point (slow)
    where = "mc predictor"
    kv = _parse_kv(body, where)
    ref = _pop(kv, "model", where, str)
    params = {name: float(kv.pop(name)) for name in _PARAM_NAMES if name in kv}
    model = run.model(ref, params)
    axis = _pop(kv, "axis", where, int, 1)
    power = _pop(kv, "m", where, int)
    t = _pop(kv, "t", where, float)
    dt = _pop(kv, "dt", where, float, 1e-3)
    paths = _pop(kv, "paths", where, int, 10000)
    seed = _pop(kv, "seed", where, int, _default_seed())
    if kv:
        raise ValueError(f"{where}: unknown keys {sorted(kv)}")
    config = SimConfig(dt=dt, horizon=t, paths=paths, seed=seed)

    def fn(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.empty(pts.shape[0])
        for i, point in enumerate(pts):
            out[i] = mc_moment(simulate(model, point, config), axis, power)[0]
        return out

    return _Predictor(fn, model.dim, f"mc:{model.name or ref}:m={power}")


_GNUPLOT = {
    "polar": (
        "set datafile separator ','\nset key off\nset xlabel 'distance from origin'\n"
        "set ylabel 'mean squared error'\nset logscale y\n"
        "plot '{csv}' every ::1 using (($1+$2)/2):3 with lines\n"
    ),
    "grid": (
        "set datafile separator ','\nset key off\nset view map\n"
        "splot '{csv}' every ::1 using 1:2:3 with image\n"
    ),
    "line": (
        "set datafile separator ','\nset key off\n"
        "plot '{csv}' every ::1 using 1:2 with lines\n"
    ),
}


def _count(value: float, name: str) -> int:
    """A mesh count given as a float flag; a fractional count is a usage error."""
    if not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _cmd_eval(args) -> int:
    run = _Run("eval", args, ())
    predictor = _build_predictor(args.pred, run)
    modes = [name for name in ("polar", "grid", "line") if getattr(args, name) is not None]
    if len(modes) != 1:
        raise ValueError("exactly one of --polar, --grid, --line is required")
    mode = modes[0]
    if mode == "polar":
        if args.ref is None:
            raise ValueError("--polar requires --ref")
        reference = _build_predictor(args.ref, run)
        if predictor.dim != reference.dim:
            raise ValueError(
                f"predictor dimension {predictor.dim} != reference dimension {reference.dim}"
            )
        if predictor.dim != 2:
            raise ValueError("--polar requires 2-D predictors")
        r_max, n_r, n_theta = args.polar
        profile = radial_error_profile(
            predictor.fn,
            reference.fn,
            r_max,
            (_count(n_r, "NR"), _count(n_theta, "NTHETA")),
            bands=args.bands,
            labels=(predictor.label, reference.label),
        )
        text = profile_csv_text(profile)
    else:
        if args.ref is not None:
            raise ValueError("--ref only applies to --polar profiles")
        if mode == "grid":
            if predictor.dim != 2:
                raise ValueError("--grid requires a 2-D predictor")
            x1_lo, x1_hi, x2_lo, x2_hi, n1, n2 = args.grid
            table = grid_eval(
                predictor.fn, ((x1_lo, x1_hi), (x2_lo, x2_hi)), (_count(n1, "N1"), _count(n2, "N2"))
            )
            text = grid_csv_text(table)
        else:
            if predictor.dim != 1:
                raise ValueError("--line requires a 1-D predictor")
            lo, hi, count = args.line
            table = line_eval(predictor.fn, lo, hi, _count(count, "COUNT"))
            text = line_csv_text(table)
    run.write_output(args.out, text)
    if args.gnuplot:
        script = _GNUPLOT[mode].format(csv=Path(args.out).name)
        run.write_output(str(args.out) + ".gp", script)
    run.finish(args.out)
    print(f"wrote {args.out}")
    return 0


# -- parser ------------------------------------------------------------------


def _add_model_arguments(parser: argparse.ArgumentParser, required: bool = True) -> None:
    """The model reference and the builtin parameter flags."""
    nargs = None if required else "?"
    parser.add_argument("model", nargs=nargs, help="builtin model name (ou, vdp) or model JSON path")
    group = parser.add_argument_group("builtin model parameters (default 1.0)")
    for name in _PARAM_NAMES:
        group.add_argument(f"--{name}", type=float, default=None)


def _add_solve_arguments(parser: argparse.ArgumentParser, required: bool = True) -> None:
    """The coefficient-solve flags; optional where --dual can supply the target."""
    parser.add_argument("--axis", type=int, default=1, help="coordinate of the moment (1-based)")
    parser.add_argument("--order", type=int, required=required, help="moment power m")
    parser.add_argument(
        "--N", type=int, required=required, help="truncation: max exponent per axis (fit: Taylor order)"
    )
    parser.add_argument("--t", type=float, required=required, help="time horizon")
    parser.add_argument("--rtol", type=float, default=IntegratorConfig.rtol)
    parser.add_argument("--atol", type=float, default=IntegratorConfig.atol)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdembed",
        description="Moment pipelines for polynomial SDEs: dual-coefficient solves, "
        "coefficient-matched network fits, Monte Carlo checks, backprop baselines.",
    )
    parser.add_argument("--version", action="version", version=f"sdembed {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    dual = sub.add_parser("dual", help="solve the truncated coefficient ODEs, write CSV")
    _add_model_arguments(dual)
    _add_solve_arguments(dual)
    dual.add_argument("--origin", type=float, nargs="+", help="shift the expansion origin")
    dual.add_argument("--out", required=True)
    dual.set_defaults(func=_cmd_dual)

    fit = sub.add_parser("fit", help="fit a network to coefficients by Taylor matching")
    _add_model_arguments(fit, required=False)
    _add_solve_arguments(fit, required=False)
    fit.add_argument("--dual", help="solved coefficient CSV to match against")
    fit.add_argument("--hidden", type=int, required=True)
    fit.add_argument("--restarts", type=int, default=FitConfig.restarts)
    fit.add_argument("--seed", type=int, default=_default_seed())
    fit.add_argument("--init-low", type=float, default=FitConfig.init_range[0])
    fit.add_argument("--init-high", type=float, default=FitConfig.init_range[1])
    # Deliberately not FitConfig.max_iterations (30): the vdp m=2 fit (h=8,
    # N=17) needs about 200 to reach a cost below 1e-2 on every seed, while
    # the library default keeps the OU m=2 embedding accurate on [-1, 1].
    fit.add_argument("--max-iterations", type=int, default=200)
    fit.add_argument("--gtol", type=float, default=FitConfig.gradient_tol)
    fit.add_argument("--ctol", type=float, default=FitConfig.cost_tol)
    fit.add_argument("--out", required=True)
    fit.set_defaults(func=_cmd_fit)

    mc = sub.add_parser("mc", help="Euler-Maruyama moment estimate with standard error")
    _add_model_arguments(mc)
    mc.add_argument("--x0", type=float, nargs="+", required=True)
    mc.add_argument("--t", type=float, required=True)
    mc.add_argument("--dt", type=float, required=True)
    mc.add_argument("--paths", type=int, required=True)
    mc.add_argument("--axis", type=int, default=1)
    mc.add_argument("--m", type=int, required=True, help="moment power")
    mc.add_argument("--seed", type=int, default=_default_seed())
    mc.add_argument("--out", help="optional CSV of final states")
    mc.set_defaults(func=_cmd_mc)

    train = sub.add_parser("train-baseline", help="label a dataset from coefficients, train by backprop")
    _add_model_arguments(train, required=False)
    _add_solve_arguments(train, required=False)
    train.add_argument("--dual", help="solved coefficient CSV supplying the targets")
    train.add_argument("--size", type=int, required=True)
    train.add_argument("--box", type=float, nargs=2, required=True, metavar=("LO", "HI"))
    train.add_argument("--hidden", type=int, required=True)
    train.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    train.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    train.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    train.add_argument("--seed", type=int, default=_default_seed())
    train.add_argument("--data-seed", type=int, default=None)
    train.add_argument("--dataset-out")
    train.add_argument("--out", required=True)
    train.set_defaults(func=_cmd_train_baseline)

    ev = sub.add_parser("eval", help="tabulate predictors or compare two on a polar mesh")
    ev.add_argument("--pred", required=True, help="net:PATH | dual:PATH | ou:KV | mc:KV")
    ev.add_argument("--ref", help="reference predictor (for --polar)")
    ev.add_argument("--polar", type=float, nargs=3, metavar=("RMAX", "NR", "NTHETA"))
    ev.add_argument("--bands", type=int, default=None)
    ev.add_argument(
        "--grid", type=float, nargs=6, metavar=("X1LO", "X1HI", "X2LO", "X2HI", "N1", "N2")
    )
    ev.add_argument("--line", type=float, nargs=3, metavar=("LO", "HI", "COUNT"))
    ev.add_argument("--gnuplot", action="store_true", help="also write a plot script")
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    try:
        # building the parser reads SDEMBED_SEED, so a malformed value exits 2 here
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:  # ModelParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, FitError, EstimationError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
