"""Benchmark of the sdembed CLI pipelines, end to end and per layer.

Run it from the root of a source tree (the directory holding `src/sdembed`):

    python3 perfbench/run.py --workload all --seconds 20            # end-to-end metrics
    python3 perfbench/run.py --workload all --seconds 20 --trace 1  # per-layer metrics
    python3 perfbench/run.py --workload mc-validate --seed 3 --seconds 20 --trace 0
    python3 perfbench/selftest.py                                   # the benchmark's own tests

Each repetition runs one workload's pipeline (see workloads.py) in a fresh
worker interpreter and a fresh work directory under `.bench_work/`: a closed
loop with one client, commands back to back, OpenBLAS and OpenMP capped at
`nproc` threads.  Repetitions continue while another one still fits in
--seconds; repetition k uses the seed 1000 * (seed mod 2**31) + k for the fit,
MC and training seeds, so a run averages over several fit and sampling
streams.  Timings are reported as median [first quartile, third quartile]
over the repetitions, with the sample count.

With --trace 0 the metrics are the end-to-end ones: wall_s and cpu_s
(worker wall and user+sys CPU seconds from the first command to the end of
the last), peak_rss_mb (the worker's ru_maxrss) and setup_s (interpreter
launch until `sdembed.cli` is imported, in every repetition and in
set-up-only launches that fill the run's leftover time; a warm-up launch
before the repetitions is discarded).  failed_ops_frac,
failed operations over attempted ones, is printed and also carried by the
`attempted` and `failed` fields; an operation is one CLI command (failed
on a non-zero exit) or one output check.

With --trace 1 every repetition pairs a traced worker (see spans.py) with an
untraced one, alternating which runs first; per-layer metrics are medians
over the traced workers, trace.overhead_frac is traced over untraced median
wall time minus 1, and the per-layer self times plus trace.harness_s are
checked to add up to each traced wall time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record, including the
environment (git revision, Python, numpy and scipy versions, nproc, BLAS
thread cap), every repetition's raw numbers and the last traced run's spans,
is written to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import LAYER_METRICS, LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_DIR, OUT_DIR = ".bench_work", ".bench_out"
MIN_SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # a run must end within 180 s, builds aside
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
UNITS = {m: u for m, u, *_ in LAYER_METRICS} | dict(END_TO_END)
SUM_TOLERANCE_S = 1e-6


class BenchError(RuntimeError):
    """The benchmark itself could not run (a worker crashed or timed out)."""


def _parse(argv):
    parser = argparse.ArgumentParser(description="sdembed CLI pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _worker_env(root: Path) -> dict:
    env = dict(os.environ)
    threads = str(_nproc())
    env.update(
        PYTHONPATH=str(root / "src"),
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        PYTHONHASHSEED="0",
    )
    env.pop("SDEMBED_SEED", None)  # every seeded command gets an explicit --seed
    return env


def _environment(root: Path) -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    revision = None  # a source tree without its own git metadata has none
    try:
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if len(lines) == 2 and Path(lines[0]).resolve() == root.resolve():
            revision = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": _nproc(),
        "blas_threads": _nproc(),
        "machine": platform.machine(),
        "system": platform.platform(),
    }


class Runner:
    """Launches workers one at a time and enforces the run's deadline."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.env = _worker_env(root)
        self.deadline = deadline
        self.scratch = root / WORK_DIR
        self.scratch.mkdir(exist_ok=True)

    def launch(self, extra: list[str], keep: Path | None = None) -> dict:
        work = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            result_file = work / "result.json"
            remaining = self.deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError("run deadline reached")
            launched = time.clock_gettime(time.CLOCK_MONOTONIC)
            try:
                proc = subprocess.run(
                    [
                        sys.executable, str(HERE / "worker.py"), "--root", str(self.root),
                        "--work", str(work), "--result", str(result_file),
                        "--launched", repr(launched), *extra,
                    ],
                    cwd=work, env=self.env, capture_output=True, text=True, timeout=remaining,
                )
            except subprocess.TimeoutExpired:
                raise BenchError(f"worker {' '.join(extra)} passed the run deadline") from None
            if proc.returncode != 0 or not result_file.exists():
                raise BenchError(
                    f"worker {' '.join(extra)} exited {proc.returncode}: {proc.stderr[-2000:]}"
                )
            if keep is not None and (work / "spans.json").exists():
                shutil.move(str(work / "spans.json"), keep)
            return json.loads(result_file.read_text())
        finally:
            shutil.rmtree(work, ignore_errors=True)


def _summary(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _ops(rep: dict) -> tuple[int, int]:
    commands, checks = rep["commands"], rep["checks"]
    failed = sum(c["rc"] != 0 for c in commands) + sum(not ok for _, ok, _ in checks)
    return len(commands) + len(checks), failed


def run_workload(runner: Runner, name: str, seed: int, seconds: float, trace: bool) -> dict:
    spans_file = runner.root / OUT_DIR / f"{name}-seed{seed}-spans.json"
    started = time.monotonic()  # the set-up launches count against --seconds too
    if not trace:
        runner.launch(["--setup-only"])  # warm-up: byte-code and file caches
    plain, traced = [], []
    longest = 0.0
    rep = 0
    while True:
        begun = time.monotonic()
        rep_args = ["--workload", name, "--seed", str((seed % 2**31) * 1000 + rep)]
        if trace:
            order = (1, 0) if rep % 2 == 0 else (0, 1)
            for flag in order:
                result = runner.launch(
                    [*rep_args, "--trace", str(flag)], keep=spans_file if flag else None
                )
                (traced if flag else plain).append(result)
        else:
            plain.append(runner.launch([*rep_args, "--trace", "0"]))
        rep += 1
        now = time.monotonic()
        longest = max(longest, now - begun)
        if now - started + longest > seconds:
            break
    setup = [r["setup_s"] for r in plain]
    if not trace:  # set-up-only launches fill the leftover time
        while len(setup) < MIN_SETUP_SAMPLES or time.monotonic() - started + max(setup) < seconds:
            setup.append(runner.launch(["--setup-only"])["setup_s"])

    attempted = failed = 0
    for result in plain + traced:
        a, f = _ops(result)
        attempted, failed = attempted + a, failed + f
    out = {
        "workload": name,
        "seed": seed,
        "repetitions": rep,
        "attempted": attempted,
        "failed": failed,
        "failed_checks": [
            [check, detail] for r in plain + traced for check, ok, detail in r["checks"] if not ok
        ],
        "failed_commands": [
            [c["argv"], c["rc"], c["stderr"][-500:]]
            for r in plain + traced for c in r["commands"] if c["rc"] != 0
        ],
        "raw": plain + traced,
    }
    if trace:
        out["layers"] = _layer_summaries(plain, traced)
        out["sum_errors_s"] = [
            sum(r["layers"][f"{layer}.self_s"] for layer in LAYERS)
            + r["layers"]["trace.harness_s"] - r["layers"]["trace.wall_s"]
            for r in traced
        ]
    else:
        out["end_to_end"] = {
            "wall_s": _summary([r["wall_s"] for r in plain]),
            "cpu_s": _summary([r["cpu_s"] for r in plain]),
            "peak_rss_mb": _summary([r["peak_rss_mb"] for r in plain]),
            "setup_s": _summary(setup),
        }
    out["correct"] = failed == 0 and all(
        abs(e) <= SUM_TOLERANCE_S for e in out.get("sum_errors_s", [])
    )
    return out


def _layer_summaries(plain: list[dict], traced: list[dict]) -> dict:
    out = {}
    for name, *_ in LAYER_METRICS:
        if name != "trace.overhead_frac":
            out[name] = _summary([r["layers"][name] for r in traced])
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    out["trace.overhead_frac"] = _summary([traced_wall / plain_wall - 1.0])
    return out


def _print_report(res: dict, trace: bool) -> None:
    name = res["workload"]
    print(
        f"== {name}: seed {res['seed']}, {res['repetitions']} repetitions "
        f"(closed loop, 1 client), median [q1, q3] n"
    )
    table = res["layers"] if trace else res["end_to_end"]
    moves = {m: f"-> {e2e} on {where}" for m, _, _, e2e, where in LAYER_METRICS}
    for metric, s in table.items():
        print(
            f"  {metric:30s} {s['median']:14.6g} {UNITS[metric]:5s} "
            f"[{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}  {moves.get(metric, '')}".rstrip()
        )
    frac = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"  {'failed_ops_frac':30s} {frac:14.6g} ratio ({res['failed']} of {res['attempted']})")
    if trace:
        worst = max((abs(e) for e in res["sum_errors_s"]), default=0.0)
        print(f"  layer self times + harness vs traced wall: worst gap {worst:.3g} s")
    for check, detail in res["failed_checks"]:
        print(f"  FAILED check {check}: {detail}")
    for argv, rc, err in res["failed_commands"]:
        print(f"  FAILED command (exit {rc}): sdembed {' '.join(argv)}\n    {err.strip()}")


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "sdembed" / "cli.py").is_file():
        print(f"error: {root} holds no src/sdembed to benchmark; run from the source root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.workload == "all":
        deadline += DEADLINE_S * (len(names) - 1)
    environment = _environment(root)
    print(f"environment: {json.dumps(environment)}")
    runner = Runner(root, deadline)
    (root / OUT_DIR).mkdir(exist_ok=True)
    results = []
    try:
        for name in names:
            res = run_workload(runner, name, args.seed, args.seconds, bool(args.trace))
            res["environment"] = environment
            out_file = root / OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
            out_file.write_text(json.dumps(res, indent=1) + "\n")
            _print_report(res, bool(args.trace))
            results.append(res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    key = "layers" if args.trace else "end_to_end"
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else f"{res['workload']}."
        for metric, s in res[key].items():
            metrics[prefix + metric] = {"value": s["median"], "unit": UNITS[metric]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
