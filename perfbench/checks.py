"""Output checks for each workload, run by the worker after the timed interval.

Every check is one operation in the benchmark's `attempted` count and, when
it fails, in `failed`.  A workload's check function reads the files its
pipeline wrote in the work directory (and the printed `mc` summaries) and
returns (name, passed, detail) triples.  The thresholds are fixed here and
stated next to each check.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from sdembed.dual import eval_moment, read_coefficients_csv, solve_moment
from sdembed.evaluate import analytic_ou_moment
from sdembed.sde import builtin_model, parse_model

from spans import FAR_BAND, NEAR_BAND
from workloads import LORENZ_TARGETS, VDP_SCALE_TARGETS, lorenz_model_doc

OU_POINTS = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)
OU_RTOL = 1e-6  # the OU system closes under truncation: only the RK45 error remains
OU_FIT_COST_BOUND = 1e-6  # criterion 7's bound; seeds 0-39 reach at most 4e-8
VDP_FIT_COST_BOUND = 1e-2  # seeds 0-39 reach at most 2.7e-3
MC_Z_BOUND = 5.0  # |estimate - reference| in standard errors; Euler bias is < 0.1 SE here
BASELINE_PROBE_POINTS = 20_000  # sample for the constant-predictor MSE
SCALE_RTOL = 1e-6  # N=60 vs N=17 (vdp) and N=12 vs N=10 (Lorenz) near the origin
VDP_NEAR_POINT = (0.5, 0.5)
LORENZ_NEAR_POINT = (0.5, -0.5, 0.5)
VDP = {"epsilon": 1.0, "nu11": 1.0, "nu22": 1.0}


def _relative_gap(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-12)


def ou_dual_matches_analytic(csv: Path, t: float, power: int) -> tuple[str, bool, str]:
    coeffs = read_coefficients_csv(csv)
    x = np.array(OU_POINTS)
    got = eval_moment(coeffs, x[:, None])
    want = analytic_ou_moment(1.0, 1.0, x, t, power)
    gap = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-12)))
    return "ou-dual-vs-analytic", bool(gap <= OU_RTOL), f"max relative gap {gap:.2e}"


def fit_cost_below(doc: Path, bound: float, label: str) -> tuple[str, bool, str]:
    cost = float(json.loads(doc.read_text())["cost"])
    passed = math.isfinite(cost) and cost < bound
    return f"{label}-fit-cost", passed, f"cost {cost:.3e} (bound {bound:.0e})"


def near_band_beats_far(profile_csv: Path) -> tuple[str, bool, str]:
    rows = np.loadtxt(profile_csv, delimiter=",", skiprows=1, ndmin=2)
    centers = 0.5 * (rows[:, 0] + rows[:, 1])

    def band(lo, hi):
        mask = (centers >= lo) & (centers <= hi)
        return float(rows[mask, 2].mean()) if mask.any() else math.nan

    near, far = band(*NEAR_BAND), band(*FAR_BAND)
    return "near-mse-below-far", bool(near < far), f"near {near:.3e}, far {far:.3e}"


_MC_LINE = re.compile(r"estimate: (\S+)\s+std_error: (\S+)\s+excluded_paths: (\d+)")


def mc_agrees(stdout: str, reference: float, label: str) -> tuple[str, bool, str]:
    match = _MC_LINE.search(stdout)
    if match is None:
        return f"{label}-mc", False, "no estimate line in the mc output"
    estimate, std_error, excluded = float(match[1]), float(match[2]), int(match[3])
    z = abs(estimate - reference) / std_error if std_error > 0 else math.inf
    passed = z <= MC_Z_BOUND and excluded == 0
    return f"{label}-mc", passed, f"z = {z:.2f} (bound {MC_Z_BOUND}), {excluded} excluded paths"


def baseline_beats_constant(doc: Path, csv: Path, box, seed: int) -> tuple[str, bool, str]:
    """Trained MSE below the MSE of the best constant predictor (criterion 9).

    The constant predictor's MSE is the target variance over the box,
    estimated from an independent uniform sample.
    """
    final_mse = float(json.loads(doc.read_text())["final_mse"])
    coeffs = read_coefficients_csv(csv)
    rng = np.random.default_rng([seed, 1])
    probe = rng.uniform(box[0], box[1], size=(BASELINE_PROBE_POINTS, coeffs.dim))
    constant_mse = float(np.var(eval_moment(coeffs, probe)))
    passed = math.isfinite(final_mse) and final_mse < constant_mse
    detail = f"trained {final_mse:.4e} vs constant {constant_mse:.4e}"
    return "baseline-below-constant", passed, detail


def agrees_with_lower_n(csv: Path, reference, point, label: str) -> tuple[str, bool, str]:
    value = float(eval_moment(read_coefficients_csv(csv), point))
    want = float(eval_moment(reference, point))
    gap = _relative_gap(value, want)
    return label, bool(gap <= SCALE_RTOL), f"relative gap {gap:.2e} at {point}"


def grid_matches_reference(grid_csv: Path, reference, label: str) -> tuple[str, bool, str]:
    rows = np.loadtxt(grid_csv, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (101 * 101, 3) or not np.all(np.isfinite(rows)):
        return label, False, f"grid has shape {rows.shape} or non-finite values"
    x1, x2, value = rows[np.argmin(np.abs(rows[:, 0]) + np.abs(rows[:, 1]))]
    gap = _relative_gap(value, float(eval_moment(reference, [x1, x2])))
    return label, bool(gap <= SCALE_RTOL), f"relative gap {gap:.2e} at ({x1:.2g}, {x2:.2g})"


# -- per-workload check lists --------------------------------------------------


def check_paper_compare(work: Path, records, seed: int):
    return [
        ou_dual_matches_analytic(work / "ou.csv", t=1.0, power=2),
        fit_cost_below(work / "ou_net.json", OU_FIT_COST_BOUND, "ou"),
        fit_cost_below(work / "vdp_net.json", VDP_FIT_COST_BOUND, "vdp"),
        near_band_beats_far(work / "profile.csv"),
        baseline_beats_constant(work / "baseline_net.json", work / "vdp.csv", (-4.0, 4.0), seed),
    ]


def check_mc_validate(work: Path, records, seed: int):
    vdp_reference = float(eval_moment(read_coefficients_csv(work / "vdp.csv"), [1.0, 1.0]))
    ou_reference = analytic_ou_moment(1.0, 1.0, 1.0, 2.0, 2)
    return [
        mc_agrees(records[1]["stdout"], vdp_reference, "vdp"),
        mc_agrees(records[2]["stdout"], ou_reference, "ou"),
    ]


def check_dual_scale(work: Path, records, seed: int):
    vdp = builtin_model("vdp", VDP)
    lorenz = parse_model(lorenz_model_doc())
    out = []
    references = {}
    for axis, power in VDP_SCALE_TARGETS:
        references[axis, power] = solve_moment(vdp, axis=axis, power=power, t=0.1, max_degree=17)
        out.append(
            agrees_with_lower_n(
                work / f"vdp60_a{axis}m{power}.csv", references[axis, power], VDP_NEAR_POINT,
                f"vdp-a{axis}m{power}-N60-vs-N17",
            )
        )
    for axis, power in LORENZ_TARGETS:
        reference = solve_moment(lorenz, axis=axis, power=power, t=0.05, max_degree=10)
        out.append(
            agrees_with_lower_n(
                work / f"lorenz12_a{axis}m{power}.csv", reference, LORENZ_NEAR_POINT,
                f"lorenz-a{axis}m{power}-N12-vs-N10",
            )
        )
    out.append(grid_matches_reference(work / "grid.csv", references[2, 2], "grid-vs-N17"))
    return out


CHECKS = {
    "paper-compare": check_paper_compare,
    "mc-validate": check_mc_validate,
    "dual-scale": check_dual_scale,
}
