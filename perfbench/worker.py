"""One benchmark repetition, in a fresh interpreter and a fresh work directory.

Launched by run.py with the CLOCK_MONOTONIC reading taken just before the
launch, so the set-up time covers interpreter start-up plus the import of
`sdembed.cli`.  The pipeline's commands run back to back through
`sdembed.cli.main(argv)` in this one process (a closed loop with one client
and no added thread).  Wall and CPU time cover the first command to the end
of the last; output checks run afterwards, outside that interval.  The
result is written as JSON to the path given by --result.

Usage (normally only run.py calls it):
    python3 perfbench/worker.py --root ROOT --work DIR --result FILE
        --launched T [--setup-only | --workload NAME --seed N --trace 0|1]
"""

import time  # first, so nothing else is imported before the clock is read

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import traceback
from pathlib import Path


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--launched", required=True, type=float)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_command(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is one failed operation; the pipeline goes on
        rc = -1
        err.write(traceback.format_exc())
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main(argv=None) -> int:
    args = _parse(argv)
    from sdembed import cli

    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.launched
    import sdembed

    src = (args.root / "src").resolve()
    if src not in Path(sdembed.__file__).resolve().parents:
        print(f"error: imported sdembed from {sdembed.__file__}, not from {src}", file=sys.stderr)
        return 3
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(_repetition(cli, args))
    args.result.write_text(json.dumps(result) + "\n")
    return 0


def _repetition(cli, args) -> dict:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    commands = workload.commands(args.seed, args.work)  # writes input files, untimed
    tracer = saved = None
    if args.trace:
        import spans

        tracer = spans.Tracer(run_id=f"{args.workload}-{args.seed}")
        saved = spans.install(tracer)
    gc.collect()

    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    records = []
    for argv in commands:
        span = tracer.begin(f"cli.{argv[0]}") if tracer else None
        records.append(_run_command(cli, argv))
        if tracer:
            tracer.end(span)
    t1 = time.perf_counter()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer:
        spans.uninstall(saved)

    out = {
        "wall_s": t1 - t0,
        "cpu_s": (usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "commands": [{k: r[k] for k in ("argv", "rc", "stderr")} for r in records],
        "checks": _checks(args, records, workload.checks),
    }
    if tracer:
        out["layers"] = spans.layer_metrics(tracer.spans, tracer.counters, t0, t1)
        (args.work / "spans.json").write_text(json.dumps(tracer.to_json()) + "\n")
    return out


def _checks(args, records, expected: int) -> list:
    from checks import CHECKS

    try:
        results = CHECKS[args.workload](args.work, records, args.seed)
    except Exception:  # a missing or unreadable output fails every check
        detail = traceback.format_exc(limit=1).strip().splitlines()[-1]
        results = [("checks", False, detail)] * expected
    return [list(r) for r in results]


if __name__ == "__main__":
    sys.exit(main())
