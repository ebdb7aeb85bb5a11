"""Command-line pipelines over the library, with reproducible run manifests.

Commands compose through files only: models and networks travel as JSON,
coefficients, datasets, states and profiles as CSV.  Every command that
writes an output also writes `<out>.manifest.json` capturing the resolved
configuration, seeds, input hashes and produced files, so a run can be
reproduced bit-for-bit from its manifest.  Outputs are written atomically
(temp file + rename), tables in chunks of rows as their writers yield them,
so no whole-file text is built.

Exit codes: 0 success, 1 runtime or solver failure, 2 usage or parse error.
A setting the library has takes its default from there: the seeds, budgets
and training settings from `FitConfig`, `SimConfig` and `TrainConfig`, the
builtin model parameters (1.0) from `sde.builtin_params`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import tempfile
import time
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import TrainConfig, dataset_csv_text, generate_dataset, train_backprop
from .dual import (
    coefficients_csv_text,
    eval_moment,
    read_coefficients_csv,
    solve_moment,
)
from .evaluate import (
    analytic_ou_moment,
    grid_csv_text,
    grid_eval,
    profile_csv_text,
    radial_error_profile,
)
from .fit import FitConfig, fit_network, fit_result_to_dict
from .mc import SimConfig, final_states_csv_text, mc_moment, simulate
from .network import forward, net_to_dict, read_network
from .sde import (
    BUILTIN_ALIASES,
    BUILTIN_PARAMS,
    SdeModel,
    builtin_model,
    builtin_params,
    check_moment,
    read_model,
    shift_model_origin,
)

__all__ = ["main"]

_HASH_BLOCK = 1 << 20  # bytes an input file is hashed in at a time

# the parameter names of every builtin, each once
_PARAM_NAMES = tuple(dict.fromkeys(name for names in BUILTIN_PARAMS.values() for name in names))


def _atomic_write_text(path: Path, chunks: Iterable[str]) -> None:
    """Write the text chunks to a temp file beside `path`, then rename it
    over `path`: a chunk iterator that raises leaves the target as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Run:
    """One command's manifest: everything needed to reproduce its outputs.

    `main` creates one per invocation and passes it to the command, which
    records input hashes and outputs through it; `main` then calls
    `finish`, which writes `<anchor>.manifest.json`.
    """

    def __init__(self, args: argparse.Namespace):
        # an output path that is a directory fails the final rename: reject it before any work
        out = getattr(args, "out", None)
        targets = {"--out": out, "--dataset-out": getattr(args, "dataset_out", None)}
        if out is not None:
            targets["the manifest path"] = f"{out}.manifest.json"
            if getattr(args, "gnuplot", False):
                targets["the plot script path"] = f"{out}.gp"
        for what, path in targets.items():
            if path is not None and Path(path).is_dir():
                raise ValueError(f"{what} names a directory: {path}")
        self.started = time.perf_counter()
        self.manifest = {
            "command": args.command,
            "version": __version__,
            "config": {k: v for k, v in vars(args).items() if k != "func"},
            "seeds": {k: getattr(args, k) for k in ("seed", "data_seed") if hasattr(args, k)},
            "input_hashes": {},
            "outputs": [],
        }

    def input_file(self, ref, what: str) -> Path:
        """The path of an existing regular file, its hash recorded; else a usage error."""
        path = Path(ref)
        if not path.is_file():
            raise ValueError(f"{what} not found: {path}")
        digest = hashlib.sha256()
        with path.open("rb") as handle:
            for block in iter(lambda: handle.read(_HASH_BLOCK), b""):
                digest.update(block)
        self.manifest["input_hashes"][str(path)] = digest.hexdigest()
        return path

    def write_output(self, path, chunks: Iterable[str]) -> None:
        _atomic_write_text(Path(path), chunks)
        self.manifest["outputs"].append(str(path))

    def finish(self, anchor) -> None:
        if anchor is None:
            return
        duration = round(time.perf_counter() - self.started, 6)
        doc = dict(self.manifest, duration_seconds=duration)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        _atomic_write_text(Path(str(anchor) + ".manifest.json"), (text,))

    def model(self, ref: str, params: dict[str, float], origin=None) -> SdeModel:
        """A builtin or a model JSON, whose hash is recorded."""
        if ref.lower() in (*BUILTIN_PARAMS, *BUILTIN_ALIASES):
            model = builtin_model(ref, params)
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


def _param_keys(kv: dict[str, str]) -> dict[str, float]:
    """Remove and convert the builtin parameter keys of a predictor spec."""
    return {name: float(kv.pop(name)) for name in _PARAM_NAMES if name in kv}


# -- commands ----------------------------------------------------------------


def _cmd_dual(args, run: _Run) -> str:
    model = run.model(args.model, _param_flags(args), args.origin)
    coeffs = solve_moment(model, axis=args.axis, power=args.order, t=args.t, max_degree=args.N)
    run.manifest["stages"] = [{"name": "solve", **coeffs.solve_stats, "closed": coeffs.closed}]
    run.write_output(args.out, coefficients_csv_text(coeffs))
    closure = "closed: truncation exact" if coeffs.closed else "not closed: truncation error not estimated"
    return f"wrote {args.out}: {len(coeffs.index_set)} coefficients at t={coeffs.t}, {closure}"


def _cmd_fit(args, run: _Run) -> str:
    config = FitConfig(
        hidden=args.hidden,
        order=args.N,
        restarts=args.restarts,
        max_iterations=args.max_iterations,
        seed=args.seed,
    )
    coeffs = read_coefficients_csv(run.input_file(args.dual, "coefficient file"))
    result = fit_network(coeffs, config)
    run.write_output(args.out, (json.dumps(fit_result_to_dict(result), indent=2) + "\n",))
    return f"final cost: {result.cost:.6e} (best of {config.restarts} restarts, converged={result.converged})"


def _cmd_mc(args, run: _Run) -> str:
    model = run.model(args.model, _param_flags(args))
    check_moment(model.dim, args.axis, args.m)
    config = SimConfig(dt=args.dt, horizon=args.t, paths=args.paths, seed=args.seed)
    ensemble = simulate(model, args.x0, config)
    estimate, std_error = mc_moment(ensemble, args.axis, args.m)
    if args.out:
        run.write_output(args.out, final_states_csv_text(ensemble))
    return f"estimate: {estimate!r}  std_error: {std_error!r}  excluded_paths: {ensemble.n_excluded}"


def _cmd_train_baseline(args, run: _Run) -> str:
    config = TrainConfig(
        hidden=args.hidden,
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
        seed=args.seed,
    )
    coeffs = read_coefficients_csv(run.input_file(args.dual, "coefficient file"))
    lo, hi = args.box
    region = tuple((lo, hi) for _ in range(coeffs.dim))
    data_seed = args.data_seed if args.data_seed is not None else args.seed
    run.manifest["seeds"]["data_seed"] = data_seed
    dataset = generate_dataset(coeffs, region, args.size, data_seed)
    result = train_backprop(dataset, config)
    doc = {
        "network": net_to_dict(result.net),
        "final_mse": float(result.loss_trace[-1]),
        "loss_trace": result.loss_trace.tolist(),
        "dataset_fingerprint": dataset.generator_fingerprint,
    }
    run.write_output(args.out, (json.dumps(doc, indent=2) + "\n",))
    if args.dataset_out:
        run.write_output(args.dataset_out, dataset_csv_text(dataset))
    return f"final training MSE: {result.loss_trace[-1]:.6e} over {dataset.size} examples"


# -- eval predictors ---------------------------------------------------------


def _parse_kv(body: str, where: str) -> dict[str, str]:
    out = {}
    if not body:
        return out
    for chunk in body.split(","):
        if "=" not in chunk:
            raise ValueError(f"{where}: expected key=value, got {chunk!r}")
        key, value = (part.strip() for part in chunk.split("=", 1))
        if key in out:
            raise ValueError(f"{where}: key {key!r} given more than once")
        out[key] = value
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


def _build_predictor(spec: str, run: _Run) -> _Predictor:
    kind, colon, body = spec.partition(":")
    if not colon or kind not in ("net", "dual", "ou", "mc"):
        raise ValueError(f"cannot interpret predictor spec {spec!r}")

    if kind == "net":
        net = read_network(run.input_file(body, "network file"))
        return _Predictor(lambda pts: forward(net, pts), net.dim)
    if kind == "dual":
        coeffs = read_coefficients_csv(run.input_file(body, "coefficient file"))
        return _Predictor(lambda pts: eval_moment(coeffs, pts), coeffs.dim)
    if kind == "ou":
        where = "ou predictor"
        kv = _parse_kv(body, where)
        p = builtin_params("ou", _param_keys(kv))[1]
        t = _pop(kv, "t", where, float)
        power = _pop(kv, "m", where, int)
        if kv:
            raise ValueError(f"{where}: unknown keys {sorted(kv)}")
        fn = lambda pts: analytic_ou_moment(p["gamma"], p["sigma"], np.asarray(pts)[:, 0], t, power)
        return _Predictor(fn, 1)
    # kind == "mc": Monte Carlo estimate at every requested point (slow)
    where = "mc predictor"
    kv = _parse_kv(body, where)
    ref = _pop(kv, "model", where, str)
    model = run.model(ref, _param_keys(kv))
    axis = _pop(kv, "axis", where, int, 1)
    power = _pop(kv, "m", where, int)
    t = _pop(kv, "t", where, float)
    dt = _pop(kv, "dt", where, float)
    paths = _pop(kv, "paths", where, int)
    seed = _pop(kv, "seed", where, int, SimConfig.seed)
    if kv:
        raise ValueError(f"{where}: unknown keys {sorted(kv)}")
    check_moment(model.dim, axis, power)
    config = SimConfig(dt=dt, horizon=t, paths=paths, seed=seed)

    def fn(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.empty(pts.shape[0])
        for i, point in enumerate(pts):
            out[i] = mc_moment(simulate(model, point, config), axis, power)[0]
        return out

    return _Predictor(fn, model.dim)


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


def _cmd_eval(args, run: _Run) -> str:
    modes = [name for name in ("polar", "grid", "line") if getattr(args, name) is not None]
    if len(modes) != 1:
        raise ValueError("exactly one of --polar, --grid, --line is required")
    mode = modes[0]
    if (mode == "polar") != (args.ref is not None):
        raise ValueError("--ref is required with --polar and applies only to it")
    predictor = _build_predictor(args.pred, run)
    if mode == "polar":
        reference = _build_predictor(args.ref, run)
        if predictor.dim != reference.dim:
            raise ValueError(
                f"predictor dimension {predictor.dim} != reference dimension {reference.dim}"
            )
        if predictor.dim != 2:
            raise ValueError("--polar requires 2-D predictors")
        r_max, n_r, n_theta = args.polar
        profile = radial_error_profile(
            predictor.fn, reference.fn, r_max, (_count(n_r, "NR"), _count(n_theta, "NTHETA"))
        )
        chunks = profile_csv_text(profile)
    else:
        # --line LO HI COUNT, --grid X1LO X1HI X2LO X2HI N1 N2: bounds per axis, then counts
        flags = getattr(args, mode)
        dim = len(flags) // 3
        if predictor.dim != dim:
            raise ValueError(f"--{mode} requires a {dim}-D predictor")
        names = ["COUNT"] if dim == 1 else [f"N{d + 1}" for d in range(dim)]
        counts = [_count(n, name) for n, name in zip(flags[-dim:], names)]
        chunks = grid_csv_text(grid_eval(predictor.fn, np.reshape(flags[:-dim], (dim, 2)), counts))
    run.write_output(args.out, chunks)
    if args.gnuplot:
        script = _GNUPLOT[mode].format(csv=Path(args.out).name)
        run.write_output(str(args.out) + ".gp", (script,))
    return f"wrote {args.out}"


# -- parser ------------------------------------------------------------------


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    """The model reference and the builtin parameter flags."""
    parser.add_argument("model", help="builtin model name (ou, vdp) or model JSON path")
    group = parser.add_argument_group("builtin model parameters (default 1.0)")
    for name in _PARAM_NAMES:
        group.add_argument(f"--{name}", type=float, default=None)


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
    dual.add_argument("--axis", type=int, default=1, help="coordinate of the moment (1-based)")
    dual.add_argument("--order", type=int, required=True, help="moment power m")
    dual.add_argument("--N", type=int, required=True, help="truncation: max exponent per axis")
    dual.add_argument("--t", type=float, required=True, help="time horizon")
    dual.add_argument("--origin", type=float, nargs="+", help="shift the expansion origin")
    dual.add_argument("--out", required=True)
    dual.set_defaults(func=_cmd_dual)

    fit = sub.add_parser("fit", help="fit a network to coefficients by Taylor matching")
    fit.add_argument("--dual", required=True, help="coefficient CSV written by `dual`")
    fit.add_argument("--N", type=int, help="Taylor order (default: the file's truncation)")
    fit.add_argument("--hidden", type=int, required=True)
    fit.add_argument("--restarts", type=int, default=FitConfig.restarts)
    fit.add_argument("--seed", type=int, default=FitConfig.seed)
    fit.add_argument("--max-iterations", type=int, default=FitConfig.max_iterations)
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
    mc.add_argument("--seed", type=int, default=SimConfig.seed)
    mc.add_argument("--out", help="optional CSV of final states")
    mc.set_defaults(func=_cmd_mc)

    train = sub.add_parser("train-baseline", help="label a dataset from coefficients, train by backprop")
    train.add_argument("--dual", required=True, help="coefficient CSV written by `dual`")
    train.add_argument("--size", type=int, required=True)
    train.add_argument("--box", type=float, nargs=2, required=True, metavar=("LO", "HI"))
    train.add_argument("--hidden", type=int, required=True)
    train.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    train.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    train.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    train.add_argument("--seed", type=int, default=TrainConfig.seed)
    train.add_argument("--data-seed", type=int, default=None)
    train.add_argument("--dataset-out")
    train.add_argument("--out", required=True)
    train.set_defaults(func=_cmd_train_baseline)

    ev = sub.add_parser("eval", help="tabulate predictors or compare two on a polar mesh")
    ev.add_argument("--pred", required=True, help="net:PATH | dual:PATH | ou:KV | mc:KV")
    ev.add_argument("--ref", help="reference predictor (for --polar)")
    ev.add_argument("--polar", type=float, nargs=3, metavar=("RMAX", "NR", "NTHETA"))
    ev.add_argument(
        "--grid", type=float, nargs=6, metavar=("X1LO", "X1HI", "X2LO", "X2HI", "N1", "N2")
    )
    ev.add_argument("--line", type=float, nargs=3, metavar=("LO", "HI", "COUNT"))
    ev.add_argument("--gnuplot", action="store_true", help="also write a plot script")
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=_cmd_eval)

    # argparse's negative-number pattern has no exponent: "--x0 -1e-3" would read "-1e-3" as an option
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        run = _Run(args)
        summary = args.func(args, run)
        run.finish(args.out)
    except (ValueError, FileNotFoundError) as exc:  # ModelParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # SolverError, FitError, EstimationError, TrainingError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
