"""The three benchmark pipelines, as argv lists for `sdembed.cli.main`.

Stdlib only: the driver imports this module to learn workload names and
operation counts without paying for numpy or scipy.  Each pipeline is the
README / acceptance command sequence at the sizes the ROADMAP names; the
`why` line says which layer the workload exists to stress.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# classical Lorenz parameters with unit additive noise on every axis; the
# t=0.05 truncated solves at N=10 and N=12 agree to about 1e-10 relative
LORENZ_SIGMA, LORENZ_RHO, LORENZ_BETA, LORENZ_NOISE = 10.0, 28.0, 8.0 / 3.0, 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (seed, work directory) -> commands; may write input files first.  The
    # commands name files relative to the work directory, the worker's cwd.
    commands: Callable[[int, Path], list[list[str]]]
    checks: int  # output checks the worker runs after the timed interval


def _paper_compare(seed: int, work: Path) -> list[list[str]]:
    return [
        "dual ou --order 2 --N 12 --t 1 --out ou.csv".split(),
        f"fit --dual ou.csv --hidden 4 --N 12 --restarts 10 --seed {seed} --out ou_net.json".split(),
        "dual vdp --axis 2 --order 2 --N 17 --t 0.1 --out vdp.csv".split(),
        f"fit --dual vdp.csv --hidden 8 --N 17 --restarts 10 --seed {seed} --out vdp_net.json".split(),
        "eval --pred net:vdp_net.json --ref dual:vdp.csv --polar 4 100 100 --out profile.csv".split(),
        "train-baseline --dual vdp.csv --size 250000 --box -4 4 --hidden 8 --epochs 10 "
        f"--seed {seed} --out baseline_net.json".split(),
    ]


def _mc_validate(seed: int, work: Path) -> list[list[str]]:
    return [
        "dual vdp --axis 2 --order 2 --N 17 --t 0.1 --out vdp.csv".split(),
        "mc vdp --x0 1 1 --t 0.1 --dt 1e-3 --paths 100000 --axis 2 --m 2 "
        f"--seed {seed} --out vdp_states.csv".split(),
        f"mc ou --x0 1 --t 2 --dt 1e-3 --paths 16384 --m 2 --seed {seed} --out ou_states.csv".split(),
    ]


VDP_SCALE_TARGETS = ((1, 1), (1, 2), (2, 1), (2, 2))  # (axis, power) at N=60
LORENZ_TARGETS = ((1, 2), (3, 1))  # (axis, power) at N=12


def lorenz_model_doc() -> dict:
    def term(coef, powers):
        return {"coef": coef, "powers": powers}

    noise = [[[term(LORENZ_NOISE, [0, 0, 0])] if i == j else [] for j in range(3)] for i in range(3)]
    return {
        "dim": 3,
        "name": "stochastic-lorenz",
        "drift": [
            [term(-LORENZ_SIGMA, [1, 0, 0]), term(LORENZ_SIGMA, [0, 1, 0])],
            [term(LORENZ_RHO, [1, 0, 0]), term(-1.0, [1, 0, 1]), term(-1.0, [0, 1, 0])],
            [term(1.0, [1, 1, 0]), term(-LORENZ_BETA, [0, 0, 1])],
        ],
        "diffusion": noise,
    }


def _dual_scale(seed: int, work: Path) -> list[list[str]]:
    del seed  # no command of this pipeline draws randomness
    model = work / "lorenz.json"
    model.write_text(json.dumps(lorenz_model_doc(), indent=2) + "\n")
    commands = [
        f"dual vdp --axis {axis} --order {power} --N 60 --t 0.1 "
        f"--out vdp60_a{axis}m{power}.csv".split()
        for axis, power in VDP_SCALE_TARGETS
    ]
    commands += [
        f"dual {model.name} --axis {axis} --order {power} --N 12 --t 0.05 "
        f"--out lorenz12_a{axis}m{power}.csv".split()
        for axis, power in LORENZ_TARGETS
    ]
    commands.append(
        "eval --pred dual:vdp60_a2m2.csv --grid -2 2 -2 2 101 101 --out grid.csv".split()
    )
    return commands


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-compare",
            "the paper's comparison on one vdp moment: Taylor-matching fits (fit, network) vs "
            "the backprop baseline (250k eval_moment labels, ~2 GB, 10 Adam epochs)",
            _paper_compare,
            checks=5,
        ),
        Workload(
            "mc-validate",
            "Monte Carlo baseline: 100k short vdp paths stress Polynomial.evaluate, "
            "long-horizon OU paths stress noise generation and its buffer",
            _mc_validate,
            checks=2,
        ),
        Workload(
            "dual-scale",
            "scale-up: vdp N=60 and 3-D Lorenz N=12 solves where generator assembly "
            "dominates, plus eval_moment with few points and 3721 coefficients",
            _dual_scale,
            checks=7,
        ),
    )
}
