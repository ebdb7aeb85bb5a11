"""Self-tests of the benchmark: span arithmetic, tracer wiring and output checks.

Every output check must pass on real pipeline output and fail once that
output is deliberately perturbed (for example one value of a coefficient
CSV changed).  Run from the source root (about 10 s):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
import tracemalloc
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END, WORK_DIR  # noqa: E402
from sdembed import cli  # noqa: E402


def _run(argv: list[str]) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"sdembed {' '.join(argv)} exited {rc}")
    return {"argv": argv, "rc": rc, "stdout": "", "stderr": ""}


def _retruncate(argv: list[str]) -> list[str]:
    if "--N" not in argv:
        return argv
    i = argv.index("--N") + 1
    return [*argv[:i], "20" if argv[1] == "vdp" else "11", *argv[i + 1:]]


def _perturb_csv(path: Path, factor: float = 1.01) -> None:
    """Scale the largest-magnitude value of a coefficient CSV by `factor`."""
    lines = path.read_text().splitlines()
    values = [abs(float(line.rsplit(",", 1)[1])) for line in lines[1:]]
    row = 1 + int(np.argmax(values))
    head, value = lines[row].rsplit(",", 1)
    lines[row] = f"{head},{float(value) * factor!r}"
    path.write_text("\n".join(lines) + "\n")


def _edit_json(path: Path, **changes) -> None:
    doc = json.loads(path.read_text())
    doc.update(changes)
    path.write_text(json.dumps(doc))


def _passed(results) -> dict[str, bool]:
    return {name: ok for name, ok, _ in results}


class SpanArithmetic(unittest.TestCase):
    # cli.fit [0, 10]
    #   fit.fit_network [1, 9]
    #     network.network_taylor [2, 4]
    #     network.taylor_jacobian [4.5, 6]
    #   dual.read_coefficients_csv [9, 9.5]
    # cli.eval [11, 12]
    # harness: [-1, 0], [10, 11] and [12, 13] of the traced interval [-1, 13]
    TREE = [
        ["cli.fit", 0.0, 10.0, -1],
        ["fit.fit_network", 1.0, 9.0, 0],
        ["network.network_taylor", 2.0, 4.0, 1],
        ["network.taylor_jacobian", 4.5, 6.0, 1],
        ["dual.read_coefficients_csv", 9.0, 9.5, 0],
        ["cli.eval", 11.0, 12.0, -1],
    ]

    def test_self_time_is_duration_minus_children(self):
        self.assertEqual(spans.self_times(self.TREE), [1.5, 4.5, 2.0, 1.5, 0.5, 1.0])

    def test_layer_self_times_and_harness_add_up_to_wall(self):
        layers = spans.layer_self_times(self.TREE)
        self.assertEqual(
            {k: v for k, v in layers.items() if v},
            {"cli": 2.5, "fit": 4.5, "network": 3.5, "dual": 0.5},
        )
        harness = spans.harness_time(self.TREE, -1.0, 13.0)
        self.assertEqual(harness, 3.0)
        metrics = spans.layer_metrics(self.TREE, {}, -1.0, 13.0)
        total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
        self.assertEqual(total + metrics["trace.harness_s"], metrics["trace.wall_s"])
        self.assertEqual(metrics["cli.fit_s"], 10.0)
        self.assertEqual(metrics["fit.jacobians_per_taylor"], 1.0)

    def test_overlapping_children_count_once(self):
        self.assertEqual(spans._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0), 4.0)
        self.assertEqual(spans._covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0), 3.0)

    def test_memory_peaks_nest(self):
        tracer = spans.Tracer("peaks")
        tracer.peak_enter()
        outer = np.ones(2_000_000)  # 16 MB
        tracer.peak_enter()
        inner = np.ones(4_000_000)  # 32 MB, freed before the inner frame closes
        del inner
        inner_peak = tracer.peak_exit()
        outer_peak = tracer.peak_exit()
        del outer
        self.assertFalse(tracemalloc.is_tracing())
        self.assertGreaterEqual(inner_peak, 30.0)  # MiB
        self.assertLess(inner_peak, 40.0)
        self.assertGreaterEqual(outer_peak, 45.0)


class TracerWiring(unittest.TestCase):
    def test_install_rebinds_every_binding_and_uninstall_restores(self):
        import sdembed
        import sdembed.dual as dual
        from sdembed.polynomial import Polynomial

        owners = ((sdembed, "eval_moment"), (cli, "eval_moment"), (dual, "eval_moment"),
                  (dual, "solve_ivp"), (Polynomial, "evaluate"))
        before = [getattr(owner, attr) for owner, attr in owners]
        tracer = spans.Tracer("wiring")
        saved = spans.install(tracer)
        try:
            for (owner, attr), original in zip(owners, before):
                self.assertIsNot(getattr(owner, attr), original, f"{owner}.{attr}")
            self.assertIs(cli.eval_moment, dual.eval_moment)
            with tempfile.TemporaryDirectory(dir=ROOT / WORK_DIR) as tmp:
                _run(f"dual ou --order 2 --N 6 --t 1 --out {tmp}/ou.csv".split())
        finally:
            spans.uninstall(saved)
        for (owner, attr), original in zip(owners, before):
            self.assertIs(getattr(owner, attr), original, f"{owner}.{attr}")
        names = {name for name, *_ in tracer.spans}
        self.assertTrue(
            {"dual.solve_moment", "dual.build_generator", "sde.adjoint_apply",
             "dual.solve_ivp", "dual.coefficients_csv_text"} <= names
        )
        self.assertEqual(tracer.counters["dual.basis_size"], 7)
        self.assertGreater(tracer.counters["dual.solve_nfev"], 0)

    def test_metric_catalogue_matches_benchmark_json(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
            [(name, unit, better) for name, unit, better, *_ in spans.LAYER_METRICS],
        )
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]], list(END_TO_END))
        self.assertEqual(
            {w["name"]: w["why"] for w in doc["workloads"]},
            {w.name: w.why for w in workloads.WORKLOADS.values()},
        )


class OutputChecks(unittest.TestCase):
    """Each check passes on real output and fails on a perturbed copy."""

    @classmethod
    def setUpClass(cls):
        (ROOT / WORK_DIR).mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(dir=ROOT / WORK_DIR))
        cls.cwd = os.getcwd()
        cls.paper = cls.tmp / "paper"
        cls.paper.mkdir()
        os.chdir(cls.paper)
        try:
            # the paper-compare pipeline without its 2 GB baseline training,
            # whose output document is written by hand instead
            commands = workloads.WORKLOADS["paper-compare"].commands(0, cls.paper)
            cls.paper_records = [_run(a) for a in commands if a[0] != "train-baseline"]
            (cls.paper / "baseline_net.json").write_text(json.dumps({"final_mse": 0.5}))
            cls.scale = cls.tmp / "scale"
            cls.scale.mkdir()
            os.chdir(cls.scale)
            # the dual-scale checks at smaller truncations (N=20 for vdp, N=11
            # for Lorenz), written under the file names the workload uses
            commands = workloads.WORKLOADS["dual-scale"].commands(0, cls.scale)
            cls.scale_records = [_run(_retruncate(a)) for a in commands]
        finally:
            os.chdir(cls.cwd)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def _copy(self, src: Path) -> Path:
        dst = Path(tempfile.mkdtemp(dir=self.tmp))
        shutil.copytree(src, dst, dirs_exist_ok=True)
        return dst

    def test_check_counts_match_workloads(self):
        self.assertEqual(len(checks.check_paper_compare(self.paper, self.paper_records, 0)),
                         workloads.WORKLOADS["paper-compare"].checks)
        self.assertEqual(len(checks.check_dual_scale(self.scale, self.scale_records, 0)),
                         workloads.WORKLOADS["dual-scale"].checks)

    def test_paper_compare(self):
        self.assertTrue(all(_passed(checks.check_paper_compare(self.paper, [], 0)).values()))
        perturbations = {
            "ou-dual-vs-analytic": lambda w: _perturb_csv(w / "ou.csv"),
            "ou-fit-cost": lambda w: _edit_json(w / "ou_net.json", cost=1e-3),
            "vdp-fit-cost": lambda w: _edit_json(w / "vdp_net.json", cost=math.nan),
            "near-mse-below-far": lambda w: (w / "profile.csv").write_text(
                "r_lo,r_hi,mse\n0.0,1.0,5.0\n1.0,3.0,1.0\n3.0,4.0,0.1\n"
            ),
            "baseline-below-constant": lambda w: _edit_json(w / "baseline_net.json", final_mse=1e6),
        }
        for check, perturb in perturbations.items():
            work = self._copy(self.paper)
            perturb(work)
            passed = _passed(checks.check_paper_compare(work, [], 0))
            self.assertFalse(passed[check], check)
            self.assertEqual(sum(not ok for ok in passed.values()), 1, check)

    def test_mc(self):
        ref = 0.5
        line = "estimate: {!r}  std_error: 0.01  excluded_paths: {}"
        self.assertTrue(checks.mc_agrees(line.format(ref + 0.04, 0), ref, "x")[1])
        self.assertFalse(checks.mc_agrees(line.format(ref + 0.06, 0), ref, "x")[1])
        self.assertFalse(checks.mc_agrees(line.format(ref, 1), ref, "x")[1])
        self.assertFalse(checks.mc_agrees("", ref, "x")[1])
        work = self._copy(self.paper)  # holds the vdp.csv that mc-validate compares against
        want = float(checks.eval_moment(checks.read_coefficients_csv(work / "vdp.csv"), [1, 1]))
        ou = checks.analytic_ou_moment(1.0, 1.0, 1.0, 2.0, 2)
        line = line.replace("0.01", "0.002")  # about the standard error of the real runs
        records = [{}, {"stdout": line.format(want, 0)}, {"stdout": line.format(ou, 0)}]
        self.assertTrue(all(_passed(checks.check_mc_validate(work, records, 0)).values()))
        _perturb_csv(work / "vdp.csv", 1.1)
        self.assertFalse(_passed(checks.check_mc_validate(work, records, 0))["vdp-mc"])

    def test_dual_scale(self):
        self.assertTrue(all(_passed(checks.check_dual_scale(self.scale, [], 0)).values()))
        for name, check in (
            ("vdp60_a1m1.csv", "vdp-a1m1-N60-vs-N17"),
            ("lorenz12_a3m1.csv", "lorenz-a3m1-N12-vs-N10"),
        ):
            work = self._copy(self.scale)
            _perturb_csv(work / name)
            passed = _passed(checks.check_dual_scale(work, [], 0))
            self.assertFalse(passed[check], check)
            self.assertEqual(sum(not ok for ok in passed.values()), 1, check)
        work = self._copy(self.scale)
        grid = (work / "grid.csv").read_text().splitlines()
        center = 1 + 50 * 101 + 50
        x1, x2, value = grid[center].split(",")
        grid[center] = f"{x1},{x2},{float(value) * 1.01!r}"
        (work / "grid.csv").write_text("\n".join(grid) + "\n")
        self.assertFalse(_passed(checks.check_dual_scale(work, [], 0))["grid-vs-N17"])


if __name__ == "__main__":
    unittest.main()
