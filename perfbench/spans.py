"""Outside-in tracing of the sdembed layers, for the benchmark's traced runs.

The library is never edited.  A traced worker calls `install`, which, in that
process only, rebinds every module attribute through which callers reach a
public sdembed function (`from .dual import eval_moment` gives `sdembed.cli`
its own binding, so each binding is replaced), plus `Polynomial.evaluate`
and the `solve_ivp` binding inside `sdembed.dual`.  Each wrapper records a
span (name, start, end, parent span) in memory; the run id is stored once
per trace.  Layers are the modules: a span named `dual.eval_moment` belongs
to the `dual` layer.  Untraced workers never import this module.

A span's self time is its duration minus the part of it that its child
spans cover.  Summed per layer, self times plus the harness time (traced
wall time outside every root span) add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import resource
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("polynomial", "sde", "dual", "network", "fit", "mc", "baseline", "evaluate", "cli")
COMMANDS = ("dual", "fit", "mc", "train-baseline", "eval")
NEAR_BAND, FAR_BAND = (0.0, 1.0), (3.0, 4.0)  # radial bands of criterion 8
MB = 1024.0 * 1024.0  # "MB" throughout is MiB, as in ru_maxrss / 1024

# (metric, unit, better, end-to-end metric it should move, workloads)
LAYER_METRICS = (
    ("polynomial.evaluate_calls", "count", "lower", "wall_s", "mc-validate"),
    ("polynomial.evaluate_s", "s", "lower", "wall_s", "mc-validate"),
    ("polynomial.self_s", "s", "lower", "wall_s", "mc-validate"),
    ("sde.adjoint_apply_calls", "count", "lower", "wall_s", "dual-scale"),
    ("sde.adjoint_apply_s", "s", "lower", "wall_s", "dual-scale"),
    ("sde.self_s", "s", "lower", "wall_s", "dual-scale"),
    ("dual.build_generator_calls", "count", "lower", "wall_s", "dual-scale"),
    ("dual.build_generator_s", "s", "lower", "wall_s", "dual-scale"),
    ("dual.build_generator_self_s", "s", "lower", "wall_s", "dual-scale"),
    ("dual.basis_size", "count", "lower", "wall_s", "dual-scale"),
    ("dual.generator_nnz", "count", "lower", "wall_s", "dual-scale"),
    ("dual.solve_dual_s", "s", "lower", "wall_s", "dual-scale"),
    ("dual.solve_nfev", "count", "lower", "wall_s", "dual-scale"),
    ("dual.eval_moment_s", "s", "lower", "wall_s", "paper-compare dual-scale"),
    ("dual.eval_points", "count", "lower", "wall_s", "paper-compare dual-scale"),
    ("dual.eval_terms", "count", "lower", "wall_s", "paper-compare dual-scale"),
    ("dual.eval_bytes_computed", "bytes", "lower", "peak_rss_mb", "paper-compare dual-scale"),
    ("dual.eval_peak_mb", "MB", "lower", "peak_rss_mb", "paper-compare dual-scale"),
    ("dual.csv_s", "s", "lower", "wall_s", "dual-scale"),
    ("dual.self_s", "s", "lower", "wall_s", "dual-scale"),
    ("network.taylor_calls", "count", "lower", "wall_s", "paper-compare"),
    ("network.taylor_s", "s", "lower", "wall_s", "paper-compare"),
    ("network.jacobian_calls", "count", "lower", "wall_s", "paper-compare"),
    ("network.jacobian_s", "s", "lower", "wall_s", "paper-compare"),
    ("network.forward_s", "s", "lower", "wall_s", "paper-compare"),
    ("network.self_s", "s", "lower", "wall_s", "paper-compare"),
    ("fit.fit_network_s", "s", "lower", "wall_s", "paper-compare"),
    ("fit.self_s", "s", "lower", "wall_s", "paper-compare"),
    ("fit.restarts", "count", "lower", "wall_s", "paper-compare"),
    ("fit.jacobians_per_taylor", "ratio", "higher", "wall_s", "paper-compare"),
    ("fit.best_cost", "cost", "lower", "none (diagnostic)", "paper-compare"),
    ("mc.simulate_s", "s", "lower", "wall_s", "mc-validate"),
    ("mc.self_s", "s", "lower", "wall_s", "mc-validate"),
    ("mc.path_steps", "count", "lower", "wall_s", "mc-validate"),
    ("mc.path_steps_per_s", "1/s", "higher", "wall_s", "mc-validate"),
    ("mc.excluded_paths", "count", "lower", "none (diagnostic)", "mc-validate"),
    ("mc.peak_mb", "MB", "lower", "peak_rss_mb", "mc-validate"),
    ("mc.states_csv_s", "s", "lower", "wall_s", "mc-validate"),
    ("baseline.generate_dataset_s", "s", "lower", "wall_s", "paper-compare"),
    ("baseline.train_s", "s", "lower", "wall_s", "paper-compare"),
    ("baseline.examples_per_s", "1/s", "higher", "wall_s", "paper-compare"),
    ("baseline.final_mse", "mse", "lower", "none (diagnostic)", "paper-compare"),
    ("baseline.peak_mb", "MB", "lower", "peak_rss_mb", "paper-compare"),
    ("baseline.self_s", "s", "lower", "wall_s", "paper-compare"),
    ("evaluate.profile_s", "s", "lower", "wall_s", "paper-compare"),
    ("evaluate.grid_s", "s", "lower", "wall_s", "dual-scale"),
    ("evaluate.near_mse", "mse", "lower", "none (diagnostic)", "paper-compare"),
    ("evaluate.far_mse", "mse", "lower", "none (diagnostic)", "paper-compare"),
    ("evaluate.self_s", "s", "lower", "wall_s", "paper-compare dual-scale"),
    *((f"cli.{c}_s", "s", "lower", "wall_s", "all") for c in COMMANDS),
    ("cli.self_s", "s", "lower", "wall_s", "all"),
    ("trace.wall_s", "s", "lower", "none (traced wall time)", "all"),
    ("trace.harness_s", "s", "lower", "none (time outside every span)", "all"),
    ("trace.overhead_frac", "ratio", "lower", "none (tracing cost)", "all"),
)


class Tracer:
    """In-memory span recorder plus counters, for one worker process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._peaks: list[list[int]] = []  # [base bytes, peak bytes] per open frame

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def peak_enter(self) -> None:
        """Start a tracemalloc frame; frames nest and report their own peak."""
        if self._peaks:
            self._peaks[-1][1] = max(self._peaks[-1][1], tracemalloc.get_traced_memory()[1])
        else:
            tracemalloc.start()
        tracemalloc.reset_peak()
        self._peaks.append([tracemalloc.get_traced_memory()[0], 0])

    def peak_exit(self) -> float:
        """Close the innermost frame; its peak above its start, in MB."""
        base, best = self._peaks.pop()
        peak = max(best, tracemalloc.get_traced_memory()[1])
        if self._peaks:
            self._peaks[-1][1] = max(self._peaks[-1][1], peak)
        else:
            tracemalloc.stop()
        return (peak - base) / MB

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
        }


# -- observers: counts read from arguments and results at layer boundaries ---


def _obs_build_generator(c, args, kwargs, result):
    c["dual.basis_size"] += len(result.index_set)
    c["dual.generator_nnz"] += result.matrix.nnz


def _obs_solve_ivp(c, args, kwargs, result):
    c["dual.solve_nfev"] += result.nfev


def _obs_eval_moment(c, args, kwargs, result):
    import numpy as np  # the driver imports this module without numpy

    coeffs = args[0] if args else kwargs["coeffs"]
    points = int(np.prod(np.shape(args[1] if len(args) > 1 else kwargs["x"])[:-1]))
    terms = points * len(coeffs.index_set)
    c["dual.eval_points"] += points
    c["dual.eval_terms"] += terms
    # computed, not measured: the float64 (points x coefficients) monomial
    # matrix that dense evaluation implies
    c["dual.eval_bytes_computed"] += 8 * terms


def _obs_fit_network(c, args, kwargs, result):
    c["fit.restarts"] += len(result.restart_costs)
    # the worst of the pipeline's fits, each reporting its best restart
    c["fit.best_cost"] = max(c["fit.best_cost"], result.cost)


def _obs_simulate(c, args, kwargs, result):
    c["mc.path_steps"] += result.config.paths * result.config.steps
    c["mc.excluded_paths"] += result.n_excluded


def _obs_train_backprop(c, args, kwargs, result):
    c["baseline.examples"] += args[0].size * result.config.epochs
    c["baseline.final_mse"] = float(result.loss_trace[-1])


def _obs_radial_profile(c, args, kwargs, result):
    edges = result.band_edges
    if edges[-1] >= FAR_BAND[1]:
        c["evaluate.near_mse"] = result.band_mean(*NEAR_BAND)
        c["evaluate.far_mse"] = result.band_mean(*FAR_BAND)


OBSERVERS = {
    "dual.build_generator": _obs_build_generator,
    "dual.solve_ivp": _obs_solve_ivp,
    "dual.eval_moment": _obs_eval_moment,
    "fit.fit_network": _obs_fit_network,
    "mc.simulate": _obs_simulate,
    "baseline.train_backprop": _obs_train_backprop,
    "evaluate.radial_error_profile": _obs_radial_profile,
}
# Memory peaks, each kept as the maximum over calls.  tracemalloc (heap peak
# above the heap at entry) suits eval_moment, which allocates few, large
# arrays; around simulate and train_backprop it triples their run time, so
# those use the process RSS high-water mark at exit minus the RSS at entry
# (exact when the call sets a new high-water mark, an upper bound otherwise).
HEAP_PEAKS = {"dual.eval_moment": "dual.eval_peak_mb"}
RSS_PEAKS = {
    "mc.simulate": "mc.peak_mb",
    "baseline.generate_dataset": "baseline.peak_mb",
    "baseline.train_backprop": "baseline.peak_mb",
}
SKIP = {
    "cli.main",  # the worker opens one `cli.<command>` span per call of main
    "polynomial.grlex_key",  # a sort key, ~600k calls per dual-scale run: no layer boundary
}
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * _PAGE


def _max_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _wrap(fn, name: str, tracer: Tracer):
    observe = OBSERVERS.get(name)
    heap_key, rss_key = HEAP_PEAKS.get(name), RSS_PEAKS.get(name)
    counters = tracer.counters

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        if rss_key:
            rss_at_entry = _rss_bytes()
        if heap_key:
            tracer.peak_enter()
        try:
            result = fn(*args, **kwargs)
            if observe:
                observe(counters, args, kwargs, result)
            return result
        finally:
            if heap_key:
                counters[heap_key] = max(counters[heap_key], tracer.peak_exit())
            if rss_key:
                peak = (_max_rss_bytes() - rss_at_entry) / MB
                counters[rss_key] = max(counters[rss_key], peak)
            tracer.end(index)

    return traced


def install(tracer: Tracer) -> list[tuple]:
    """Rebind every caller-visible binding of the traced functions.

    Returns the (owner, attribute, original) triples that `uninstall` restores.
    """
    wrappers = {}  # id(original) -> wrapper
    for layer in LAYERS:
        module = importlib.import_module(f"sdembed.{layer}")
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and name not in SKIP
            ):
                wrappers[id(obj)] = _wrap(obj, name, tracer)
    dual = sys.modules["sdembed.dual"]
    wrappers[id(dual.solve_ivp)] = _wrap(dual.solve_ivp, "dual.solve_ivp", tracer)

    saved = []
    for modname, module in list(sys.modules.items()):
        if modname != "sdembed" and not modname.startswith("sdembed."):
            continue
        for attr, obj in list(vars(module).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                saved.append((module, attr, obj))
                setattr(module, attr, wrapper)
    polynomial = sys.modules["sdembed.polynomial"].Polynomial
    saved.append((polynomial, "evaluate", polynomial.evaluate))
    polynomial.evaluate = _wrap(polynomial.evaluate, "polynomial.evaluate", tracer)
    return saved


def uninstall(saved: list[tuple]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# -- span arithmetic ----------------------------------------------------------


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Per span: duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children[i], start, end)
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def layer_self_times(spans) -> dict[str, float]:
    out = dict.fromkeys(LAYERS, 0.0)
    for (name, *_), own in zip(spans, self_times(spans)):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own
    return out


def harness_time(spans, t0: float, t1: float) -> float:
    """Time in [t0, t1] outside every root span."""
    roots = [(start, end) for name, start, end, parent in spans if parent < 0]
    return (t1 - t0) - _covered(roots, t0, t1)


def layer_metrics(spans, counters, t0: float, t1: float) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_frac, for one traced run."""
    counters = defaultdict(float, counters)
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    for name, start, end, parent in spans:
        calls[name] += 1
        inclusive[name] += end - start
    own = self_times(spans)
    build_self = sum(s for (name, *_), s in zip(spans, own) if name == "dual.build_generator")
    layers = layer_self_times(spans)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m = {
        "polynomial.evaluate_calls": calls["polynomial.evaluate"],
        "polynomial.evaluate_s": inclusive["polynomial.evaluate"],
        "sde.adjoint_apply_calls": calls["sde.adjoint_apply"],
        "sde.adjoint_apply_s": inclusive["sde.adjoint_apply"],
        "dual.build_generator_calls": calls["dual.build_generator"],
        "dual.build_generator_s": inclusive["dual.build_generator"],
        "dual.build_generator_self_s": build_self,
        "dual.solve_dual_s": inclusive["dual.solve_dual"],
        "dual.eval_moment_s": inclusive["dual.eval_moment"],
        "dual.csv_s": inclusive["dual.coefficients_csv_text"]
        + inclusive["dual.read_coefficients_csv"],
        "network.taylor_calls": calls["network.network_taylor"],
        "network.taylor_s": inclusive["network.network_taylor"],
        "network.jacobian_calls": calls["network.taylor_jacobian"],
        "network.jacobian_s": inclusive["network.taylor_jacobian"],
        "network.forward_s": inclusive["network.forward"],
        "fit.fit_network_s": inclusive["fit.fit_network"],
        "fit.jacobians_per_taylor": rate(
            calls["network.taylor_jacobian"], calls["network.network_taylor"]
        ),
        "mc.simulate_s": inclusive["mc.simulate"],
        "mc.path_steps_per_s": rate(counters["mc.path_steps"], inclusive["mc.simulate"]),
        "mc.states_csv_s": inclusive["mc.final_states_csv_text"],
        "baseline.generate_dataset_s": inclusive["baseline.generate_dataset"],
        "baseline.train_s": inclusive["baseline.train_backprop"],
        "baseline.examples_per_s": rate(
            counters["baseline.examples"], inclusive["baseline.train_backprop"]
        ),
        "evaluate.profile_s": inclusive["evaluate.radial_error_profile"],
        "evaluate.grid_s": inclusive["evaluate.grid_eval"],
        "trace.wall_s": t1 - t0,
        "trace.harness_s": harness_time(spans, t0, t1),
    }
    for key in (
        "dual.basis_size", "dual.generator_nnz", "dual.solve_nfev", "dual.eval_points",
        "dual.eval_terms", "dual.eval_bytes_computed", "dual.eval_peak_mb", "fit.restarts",
        "fit.best_cost", "mc.path_steps", "mc.excluded_paths", "mc.peak_mb",
        "baseline.final_mse", "baseline.peak_mb", "evaluate.near_mse", "evaluate.far_mse",
    ):
        m[key] = counters[key]
    for layer, seconds in layers.items():
        m[f"{layer}.self_s"] = seconds
    for command in COMMANDS:
        m[f"cli.{command}_s"] = inclusive[f"cli.{command}"]
    return m
