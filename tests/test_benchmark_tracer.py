"""The benchmark's traced runs still see every layer of the paper-compare and
mc-validate pipelines.

`perfbench/spans.py` rebinds library functions by name, from outside.  A
library change that removes or bypasses a traced name leaves its per-layer
metrics reading zero, or makes `install` fail; this test notices either.
The tracer module is loaded read-only from its file.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from sdembed.cli import main

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every loaded sdembed module, and `Polynomial.evaluate`."""
    out = {
        (name, attr): obj
        for name, module in list(sys.modules.items())
        if name == "sdembed" or name.startswith("sdembed.")
        for attr, obj in vars(module).items()
    }
    polynomial = sys.modules["sdembed.polynomial"].Polynomial
    out[("Polynomial", "evaluate")] = polynomial.__dict__["evaluate"]
    return out


def test_traced_fit_and_baseline_record_every_layer(spans, tmp_path):
    before = _bindings()
    tracer = spans.Tracer("test")
    saved = spans.install(tracer)
    try:
        dual = tmp_path / "vdp.csv"
        commands = [
            f"dual vdp --axis 2 --order 2 --N 6 --t 0.1 --out {dual}",
            f"fit --dual {dual} --hidden 2 --restarts 2 --max-iterations 3 --out {tmp_path / 'fit.json'}",
            f"train-baseline --dual {dual} --size 100 --box -1 1 --hidden 2 --epochs 2 "
            f"--out {tmp_path / 'baseline.json'}",
        ]
        for argv in commands:
            assert main(argv.split()) == 0
    finally:
        spans.uninstall(saved)

    recorded = {name for name, *_ in tracer.spans}
    expected = {
        "network.network_taylor",
        "network.taylor_jacobian",
        "network.forward",
        "fit.fit_network",
        "baseline.generate_dataset",
        "baseline.train_backprop",
    }
    assert expected <= recorded
    assert tracer.counters["fit.restarts"] > 0
    assert tracer.counters["baseline.examples"] > 0

    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, obj in before.items() if after[key] is not obj] == []


def test_traced_monte_carlo_records_its_step_evaluation(spans, tmp_path):
    before = _bindings()
    tracer = spans.Tracer("test")
    saved = spans.install(tracer)
    try:
        argv = f"mc vdp --x0 1 1 --t 0.002 --dt 0.001 --paths 10 --axis 2 --m 2 --out {tmp_path / 's.csv'}"
        assert main(argv.split()) == 0
    finally:
        spans.uninstall(saved)

    names = [name for name, *_ in tracer.spans]
    assert "mc.simulate" in names
    # one evaluation of the drift and diffusion per step and block of paths
    assert names.count("polynomial.evaluate") == 2

    after = _bindings()
    assert [key for key, obj in before.items() if after[key] is not obj] == []
