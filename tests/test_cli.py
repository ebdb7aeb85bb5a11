import argparse
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sdembed import cli
from sdembed.baseline import TrainConfig
from sdembed.cli import main
from sdembed.dual import coefficients_csv_text, solve_moment
from sdembed.fit import FitConfig
from sdembed.mc import SimConfig
from sdembed.sde import builtin_model


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def ou_dual_csv(tmp_path):
    out = tmp_path / "ou_dual.csv"
    code = run(["dual", "ou", "--axis", 1, "--order", 1, "--N", 12, "--t", 1.0, "--out", out])
    assert code == 0
    return out


@pytest.fixture
def vdp_dual_csv(tmp_path):
    out = tmp_path / "vdp_dual.csv"
    code = run(["dual", "vdp", "--axis", 2, "--order", 2, "--N", 8, "--t", 0.1, "--out", out])
    assert code == 0
    return out


class TestDualCommand:
    def test_ou_csv_contents(self, ou_dual_csv):
        lines = ou_dual_csv.read_text().strip().splitlines()
        assert lines[0] == "n_1,value"
        assert len(lines) == 14
        by_index = {line.split(",")[0]: float(line.split(",")[1]) for line in lines[1:]}
        assert by_index["1"] == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_manifest_written(self, ou_dual_csv):
        manifest = json.loads((ou_dual_csv.parent / (ou_dual_csv.name + ".manifest.json")).read_text())
        assert manifest["command"] == "dual"
        assert str(ou_dual_csv) in manifest["outputs"]
        assert manifest["config"]["N"] == 12
        assert "version" in manifest and "duration_seconds" in manifest
        assert manifest["stages"] == [
            {"name": "solve", "nfev": 134, "accepted": 22, "rejected": 0, "status": 0, "closed": True}
        ]

    def test_huge_horizon_ends_on_the_step_budget(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("sdembed.dual._MAX_STEPS", 1000)
        out = tmp_path / "x.csv"
        assert run(["dual", "ou", "--order", 2, "--N", 4, "--t", 1e308, "--out", out]) == 1
        assert "1000 step attempts did not reach t = 1e+308" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_reproduces_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["dual", "ou", "--order", 2, "--N", 10, "--t", 0.5, "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_vdp_row_count(self, tmp_path):
        out = tmp_path / "vdp.csv"
        assert run(["dual", "vdp", "--axis", 2, "--order", 2, "--N", 17, "--t", 0.1, "--out", out]) == 0
        assert len(out.read_text().strip().splitlines()) == 18 * 18 + 1

    def test_origin_shift_changes_coefficients(self, tmp_path):
        plain = tmp_path / "plain.csv"
        shifted = tmp_path / "shifted.csv"
        assert run(["dual", "ou", "--order", 1, "--N", 8, "--t", 1.0, "--out", plain]) == 0
        assert run(["dual", "ou", "--order", 1, "--N", 8, "--t", 1.0, "--origin", 1.0, "--out", shifted]) == 0
        assert plain.read_bytes() != shifted.read_bytes()

    def test_missing_model_file_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run(["dual", str(tmp_path / "nope.json"), "--order", 1, "--N", 4, "--t", 1.0, "--out", out])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_model_file_round_trip(self, tmp_path):
        from sdembed.sde import model_to_dict

        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(builtin_model("ou", {"gamma": 1.0, "sigma": 1.0}))))
        out_file = tmp_path / "file.csv"
        out_builtin = tmp_path / "builtin.csv"
        assert run(["dual", path, "--order", 1, "--N", 6, "--t", 1.0, "--out", out_file]) == 0
        assert run(["dual", "ou", "--order", 1, "--N", 6, "--t", 1.0, "--out", out_builtin]) == 0
        assert out_file.read_bytes() == out_builtin.read_bytes()

    @pytest.mark.parametrize(
        "argv, closure",
        [
            (["ou", "--order", 2, "--N", 12, "--t", 1.0], "closed: truncation exact"),
            (["ou", "--order", 2, "--N", 12, "--t", 1.0, "--origin", 1.5], "closed: truncation exact"),
            (["vdp", "--axis", 2, "--order", 2, "--N", 17, "--t", 0.1], "not closed: truncation error not estimated"),
        ],
        ids=["ou", "ou-shifted", "vdp"],
    )
    def test_summary_states_closure(self, argv, closure, tmp_path, capsys):
        assert run(["dual", *argv, "--out", tmp_path / "out.csv"]) == 0
        summary = capsys.readouterr().out.strip()
        assert re.search(r"coefficients at t=\S+, " + closure + "$", summary)


    def test_truncation_above_eval_block_is_usage_error(self, tmp_path, capsys, monkeypatch):
        forbid_work(monkeypatch, "sdembed.dual.multi_index_set")
        out = tmp_path / "big.csv"
        assert run(["dual", "vdp", "--order", 2, "--N", 100_000, "--t", 0.1, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "error: index set needs a (100001, 100001) coefficient box of 80001600008 bytes" in err
        assert not out.exists()


class TestFitCommand:
    def test_fit_from_dual_csv(self, ou_dual_csv, tmp_path, capsys):
        net_path = tmp_path / "net.json"
        code = run([
            "fit", "--dual", ou_dual_csv, "--hidden", 2, "--N", 6,
            "--restarts", 2, "--seed", 0, "--max-iterations", 15, "--out", net_path,
        ])
        assert code == 0
        assert "final cost" in capsys.readouterr().out
        doc = json.loads(net_path.read_text())
        assert doc["network"]["hidden"] == 2
        assert len(doc["restart_costs"]) == 2

    def test_zero_restarts_is_usage_error(self, ou_dual_csv, tmp_path):
        code = run([
            "fit", "--dual", ou_dual_csv, "--hidden", 2, "--restarts", 0,
            "--out", tmp_path / "net.json",
        ])
        assert code == 2

    def test_needs_dual_or_model(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(["fit", "--hidden", 2, "--out", tmp_path / "net.json"])
        assert exit_info.value.code == 2
        assert "required: --dual" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, extra",
    [
        (["fit", "--hidden", 2], []),
        (["train-baseline", "--size", 10, "--box", -1, 1, "--hidden", 2], []),
    ],
    ids=["fit", "train-baseline"],
)
@pytest.mark.parametrize(
    "target",
    [["vdp"], ["--order", 2], ["--t", 5], ["--epsilon", 3], ["--axis", 2]],
    ids=["model", "order", "t", "param", "axis"],
)
def test_dual_rejects_target_flags(command, extra, target, ou_dual_csv, tmp_path, capsys, monkeypatch):
    # the coefficient file fixes the target; the solve flags belong to `dual` alone
    forbid_work(monkeypatch, "sdembed.cli.read_coefficients_csv")
    out = tmp_path / "net.json"
    with pytest.raises(SystemExit) as exit_info:
        run([*command, "--dual", ou_dual_csv, *target, "--out", out])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--dual", "{dir}", "--hidden", 2],
        ["train-baseline", "--dual", "{dir}", "--size", 10, "--box", -1, 1, "--hidden", 2],
        ["eval", "--pred", "net:{dir}", "--line", -1, 1, 3],
        ["eval", "--pred", "dual:{dir}", "--line", -1, 1, 3],
        ["dual", "{dir}", "--order", 1, "--N", 4, "--t", 1.0],
    ],
    ids=["fit-dual", "train-baseline-dual", "eval-net", "eval-dual", "dual-model"],
)
def test_directory_input_is_usage_error(argv, tmp_path, capsys):
    folder = tmp_path / "inputs"
    folder.mkdir()
    out = tmp_path / "out.json"
    code = run([str(a).replace("{dir}", str(folder)) for a in argv] + ["--out", out])
    assert code == 2
    assert f"not found: {folder}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["dual", "ou", "--order", 1, "--N", 4, "--t", 1.0, "--out", "{dir}"],
        [
            "train-baseline", "--dual", "{csv}", "--size", 10,
            "--box", -1, 1, "--hidden", 2, "--dataset-out", "{dir}", "--out", "{file}",
        ],
    ],
    ids=["dual-out", "train-baseline-dataset-out"],
)
def test_directory_output_is_usage_error_before_any_work(argv, ou_dual_csv, tmp_path, capsys, monkeypatch):
    forbid_work(monkeypatch, "sdembed.cli.solve_moment", "sdembed.cli.read_coefficients_csv")
    folder = tmp_path / "outputs"
    folder.mkdir()
    out = tmp_path / "net.json"
    code = run([
        str(a).replace("{dir}", str(folder)).replace("{file}", str(out)).replace("{csv}", str(ou_dual_csv))
        for a in argv
    ])
    assert code == 2
    assert f"names a directory: {folder}" in capsys.readouterr().err
    assert list(folder.iterdir()) == [] and not out.exists()


@pytest.mark.parametrize(
    "argv, suffix",
    [
        (["dual", "ou", "--order", 1, "--N", 4, "--t", 1.0], ".manifest.json"),
        (["eval", "--pred", "ou:m=1,t=1", "--line", -1, 1, 3, "--gnuplot"], ".gp"),
    ],
    ids=["manifest", "gnuplot-script"],
)
def test_directory_at_derived_output_is_usage_error_before_any_work(
    argv, suffix, tmp_path, capsys, monkeypatch
):
    def no_work(*args, **kwargs):
        raise AssertionError("the command started working")

    monkeypatch.setattr("sdembed.cli.solve_moment", no_work)
    monkeypatch.setattr("sdembed.cli.grid_eval", no_work)
    out = tmp_path / "out.csv"
    folder = tmp_path / f"out.csv{suffix}"
    folder.mkdir()
    code = run(argv + ["--out", out])
    assert code == 2
    assert f"names a directory: {folder}" in capsys.readouterr().err
    assert list(folder.iterdir()) == [] and not out.exists()


def test_train_baseline_dual_rejects_truncation_flag(ou_dual_csv, tmp_path, capsys, monkeypatch):
    # the truncation is a setting of `dual`; the coefficient file already fixes it
    def no_work(*args, **kwargs):
        raise AssertionError("the command started working")

    monkeypatch.setattr("sdembed.cli.read_coefficients_csv", no_work)
    monkeypatch.setattr("sdembed.cli.generate_dataset", no_work)
    out = tmp_path / "net.json"
    argv = ["train-baseline", "--dual", ou_dual_csv, "--N", 5, "--size", 10, "--box", -1, 1]
    with pytest.raises(SystemExit) as exit_info:
        run([*argv, "--hidden", 2, "--out", out])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --N" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["mc", "vdp", "--x0", 1, 1, "--t", 0.1, "--dt", 1e-3, "--paths", 100_000, "--axis", 3, "--m", 2],
            "axis 3 out of range for dimension 2",
        ),
        (
            ["mc", "ou", "--x0", 1, "--t", 0.1, "--dt", 1e-3, "--paths", 100_000, "--m", -1],
            "power must be >= 0, got -1",
        ),
        (
            ["eval", "--pred", "mc:model=vdp,axis=3,m=2,t=0.1,dt=1e-3,paths=10000", "--grid", -1, 1, -1, 1, 2, 2],
            "axis 3 out of range for dimension 2",
        ),
        (
            ["eval", "--pred", "mc:model=ou,m=-1,t=0.1,dt=1e-3,paths=10000", "--line", -1, 1, 3],
            "power must be >= 0, got -1",
        ),
    ],
    ids=["mc-axis", "mc-power", "eval-mc-axis", "eval-mc-power"],
)
def test_bad_moment_is_usage_error_before_simulating(argv, message, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the command simulated before checking the moment")

    monkeypatch.setattr("sdembed.cli.simulate", no_work)
    out = tmp_path / "out.csv"
    code = run([*argv, "--out", out])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def forbid_work(monkeypatch, *targets):
    def no_work(*args, **kwargs):
        raise AssertionError("the command started working")

    for target in targets:
        monkeypatch.setattr(target, no_work)


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--dual", "{csv}", "--hidden", 0],
        ["fit", "--dual", "{csv}", "--hidden", 2, "--restarts", 0],
        ["fit", "--dual", "{csv}", "--hidden", 2, "--max-iterations", 0],
        ["fit", "--dual", "{csv}", "--hidden", 2, "--seed", -1],
        *(
            ["train-baseline", "--dual", "{csv}", "--size", 10, "--box", -1, 1, "--hidden", 2, *setting]
            for setting in (["--hidden", 0], ["--epochs", 0], ["--batch", 0], ["--lr", 0],
                            ["--seed", -1, "--data-seed", 3])
        ),
    ],
    ids=[
        "fit-hidden", "fit-restarts", "fit-max-iterations", "fit-seed",
        *(f"train-baseline-dual-{flag}" for flag in ("hidden", "epochs", "batch", "lr", "seed")),
    ],
)
def test_bad_setting_is_usage_error_before_any_work(argv, ou_dual_csv, tmp_path, capsys, monkeypatch):
    forbid_work(
        monkeypatch, "sdembed.cli.solve_moment", "sdembed.cli.read_coefficients_csv",
        "sdembed.cli.generate_dataset",
    )
    out = tmp_path / "net.json"
    code = run([str(a).replace("{csv}", str(ou_dual_csv)) for a in argv] + ["--out", out])
    assert code == 2
    assert re.search(r"must be >=? ?[01]", capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, forbidden, message",
    [
        # a data seed is checked once the coefficients are read, before any point is labelled
        (["train-baseline", "--dual", "{csv}", "--size", 10, "--box", -1, 1, "--hidden", 2, "--data-seed", -1],
         "sdembed.baseline.eval_moment", "got -1"),
    ],
    ids=["train-baseline-data-seed"],
)
def test_negative_seed_is_usage_error_before_any_work(argv, forbidden, message, ou_dual_csv, tmp_path, capsys,
                                                      monkeypatch):
    forbid_work(monkeypatch, forbidden)
    out = tmp_path / "net.json"
    code = run([str(a).replace("{csv}", str(ou_dual_csv)) for a in argv] + ["--out", out])
    assert code == 2
    assert f"seed must be >= 0, {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dual", "ou", "--order", 1, "--N", 4, "--t", "nan"], "t must be finite"),
        (["dual", "ou", "--order", 1, "--N", 4, "--t", "inf"], "t must be finite"),
        (["mc", "ou", "--x0", 1, "--t", 1, "--dt", "inf", "--paths", 10, "--m", 1], "dt must be finite"),
        (["mc", "ou", "--x0", 1, "--t", 1, "--dt", "nan", "--paths", 10, "--m", 1], "dt must be finite"),
        (["mc", "ou", "--x0", 1, "--t", "inf", "--dt", 0.1, "--paths", 10, "--m", 1], "horizon must be finite"),
        (["eval", "--pred", "mc:model=ou,m=1,t=inf,dt=0.1,paths=10", "--line", -1, 1, 3], "horizon must be finite"),
    ],
    ids=["dual-nan", "dual-inf", "mc-dt-inf", "mc-dt-nan", "mc-t-inf", "eval-mc-t-inf"],
)
def test_non_finite_horizon_or_step_is_usage_error(argv, message, tmp_path, capsys, monkeypatch):
    # a stubbed integrator fails the test instead of running without end on t = nan
    forbid_work(monkeypatch, "sdembed.dual.solve_ivp", "sdembed.cli.simulate")
    out = tmp_path / "out.csv"
    code = run([*argv, "--out", out])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


_NAN_MODEL_JSON = '{"dim": 1, "drift": [[{"coef": NaN, "powers": [1]}]], "diffusion": [[[{"coef": 1.0, "powers": [0]}]]]}'
_MC_OU = ["--t", 0.1, "--dt", 0.01, "--paths", 10, "--m", 1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dual", "ou", "--gamma", "nan", "--order", 1, "--N", 4, "--t", 1], "coefficients must be finite"),
        (["dual", "vdp", "--epsilon", "inf", "--order", 1, "--N", 4, "--t", 0.1], "coefficients must be finite"),
        (["dual", "{json}", "--order", 1, "--N", 4, "--t", 1], "coefficients must be finite"),
        (["mc", "ou", "--gamma", "inf", "--x0", 1, *_MC_OU], "coefficients must be finite"),
        (["mc", "{json}", "--x0", 1, *_MC_OU], "coefficients must be finite"),
        (["dual", "ou", "--origin", "nan", "--order", 1, "--N", 4, "--t", 1], "origin must be finite"),
        (
            ["dual", "vdp", "--origin", 1e200, 1, "--axis", 2, "--order", 2, "--N", 4, "--t", 0.1],
            "origin [1e+200, 1.0] overflows",
        ),
    ],
    ids=["dual-gamma-nan", "dual-epsilon-inf", "dual-json-nan", "mc-gamma-inf", "mc-json-nan",
         "dual-origin-nan", "dual-origin-overflow"],
)
def test_non_finite_model_is_usage_error_before_any_work(argv, message, tmp_path, capsys, monkeypatch):
    # json.loads accepts NaN and Infinity, so a model file can carry them
    model = tmp_path / "nan.json"
    model.write_text(_NAN_MODEL_JSON)
    forbid_work(monkeypatch, "sdembed.cli.solve_moment", "sdembed.cli.simulate")
    out = tmp_path / "out.csv"
    code = run([str(a).replace("{json}", str(model)) for a in argv] + ["--out", out])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mc", "ou", "--x0", "nan", *_MC_OU], "x0 must be finite"),
        (["mc", "ou", "--x0", "inf", *_MC_OU], "x0 must be finite"),
        (
            ["train-baseline", "--dual", "{ou}", "--size", 10, "--box", "nan", 1, "--hidden", 2],
            "region bounds must be finite",
        ),
        (
            ["train-baseline", "--dual", "{ou}", "--size", 10, "--box", -1, 1, "--hidden", 2, "--lr", "nan"],
            "learning rate must be > 0 and finite",
        ),
        (
            ["train-baseline", "--dual", "{ou}", "--size", 10, "--box", -1, 1, "--hidden", 2, "--lr", "inf"],
            "learning rate must be > 0 and finite",
        ),
        (["eval", "--pred", "dual:{ou}", "--line", "nan", 1, 3], "box bounds must be finite"),
        (["eval", "--pred", "dual:{vdp}", "--ref", "dual:{vdp}", "--polar", "nan", 3, 3], "r_max must be > 0 and finite"),
        (["eval", "--pred", "dual:{vdp}", "--ref", "dual:{vdp}", "--polar", "inf", 3, 3], "r_max must be > 0 and finite"),
        (["eval", "--pred", "ou:t=1,m=1,gamma=nan", "--line", -1, 1, 3], "gamma must be > 0 and finite"),
        (["eval", "--pred", "ou:t=1,m=2,sigma=inf", "--line", -1, 1, 3], "sigma must be finite"),
    ],
    ids=["mc-x0-nan", "mc-x0-inf", "train-baseline-box-nan", "train-baseline-lr-nan", "train-baseline-lr-inf",
         "eval-line-nan", "eval-polar-nan", "eval-polar-inf", "eval-ou-gamma-nan", "eval-ou-sigma-inf"],
)
def test_non_finite_setting_is_usage_error(argv, message, ou_dual_csv, vdp_dual_csv, tmp_path, capsys, monkeypatch):
    # `simulate` checks x0 itself, so its step evaluation is what must not run
    forbid_work(monkeypatch, "sdembed.polynomial.Polynomial.evaluate", "sdembed.cli.train_backprop")
    out = tmp_path / "out.csv"
    argv = [str(a).replace("{ou}", str(ou_dual_csv)).replace("{vdp}", str(vdp_dual_csv)) for a in argv]
    code = run([*argv, "--out", out])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], "network document must be a JSON object, got list"),
        ({"network": [1]}, "network document must be a JSON object, got list"),
        (["network"], "network document must be a JSON object, got list"),
        ({"q": {}, "R": [[1.0]], "s": [0.0]}, "network document weights must be numbers"),
    ],
    ids=["list", "embedded-list", "list-of-key", "object-weights"],
)
def test_malformed_network_document_is_usage_error(doc, message, tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "line.csv"
    code = run(["eval", "--pred", f"net:{path}", "--line", -1, 1, 3, "--out", out])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


REMOVED_FLAGS = ["--rtol", "--atol", "--init-low", "--init-high", "--gtol", "--ctol"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        *((["fit", "--dual", "{csv}", "--hidden", 2], flag) for flag in REMOVED_FLAGS),
        (["dual", "ou", "--order", 1, "--N", 4, "--t", 1.0], "--rtol"),
        (["train-baseline", "--dual", "{csv}", "--size", 10, "--box", -1, 1, "--hidden", 2], "--rtol"),
    ],
    ids=[*(f"fit{flag}" for flag in REMOVED_FLAGS), "dual--rtol", "train-baseline--rtol"],
)
def test_removed_tolerance_flags_are_usage_errors(argv, flag, ou_dual_csv, tmp_path, capsys):
    # the solver tolerances and fit start/stop settings are fixed constants
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exit_info:
        run([str(a).replace("{csv}", str(ou_dual_csv)) for a in argv] + [flag, 5, "--out", out])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, exponent, decimal",
    [
        (["mc", "vdp", "--x0", "{v}", 1, "--t", 0.01, "--dt", 1e-3, "--paths", 10, "--m", 2], "-1e-3", "-0.001"),
        (["eval", "--pred", "dual:{vdp}", "--grid", "{v}", 1, -1, 1, 3, 3], "-1e0", "-1"),
        (["eval", "--pred", "ou:m=1,t=1,gamma=1,sigma=1", "--line", "{v}", 1, 5], "-1e0", "-1"),
        (["train-baseline", "--dual", "{ou}", "--size", 20, "--box", "{v}", 4, "--hidden", 2, "--epochs", 1],
         "-4e0", "-4"),
        (["dual", "vdp", "--axis", 2, "--order", 2, "--N", 4, "--t", 0.1, "--origin", "{v}", 0], "-5E-1", "-.5"),
    ],
    ids=["mc--x0", "eval--grid", "eval--line", "train-baseline--box", "dual--origin"],
)
def test_exponent_form_negative_numbers_are_values(argv, exponent, decimal, ou_dual_csv, vdp_dual_csv, tmp_path):
    # argparse alone reads "-1e-3" as an unknown option: "--x0: expected at least one argument"
    outputs = []
    for value in (exponent, decimal):
        out = tmp_path / f"out{value}.csv"
        args = [str(a).format(v=value, ou=ou_dual_csv, vdp=vdp_dual_csv) for a in argv]
        assert run([*args, "--out", out]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flag", ["--bogus", "-1e", "-e5"])
def test_unknown_option_stays_a_usage_error(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(["mc", "vdp", "--x0", 1, 1, flag, "--t", 0.01, "--dt", 1e-3, "--paths", 10, "--m", 2])
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err


def test_readme_command_lines_parse():
    # every `sdembed ...` line of the README's code blocks is a valid command line
    from sdembed.cli import _build_parser

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", readme, flags=re.M | re.S)
    lines = [line.strip() for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("sdembed ")]
    assert len(commands) >= 10
    parser = _build_parser()
    for argv in commands:
        assert parser.parse_args(argv).func is not None, argv


NEGATIVE_ROW_CSV = "n_1,n_2,value\n0,0,1.0\n-1,0,2.0\n1,0,3.0\n"
REPEATED_ROW_CSV = "n_1,value\n0,1.0\n1,2.0\n1,5.0\n"
NAN_VALUE_CSV = "n_1,value\n0,1.0\n1,nan\n"
FRACTIONAL_EXPONENT_CSV = "n_1,value\n0,1.0\n1.5,2.0\n"
EVAL_LINE = ["eval", "--pred", "dual:{csv}", "--line", -1, 1, 3]
FIT_DUAL = ["fit", "--dual", "{csv}", "--hidden", 2]


@pytest.mark.parametrize(
    "text, argv, message",
    [
        (NEGATIVE_ROW_CSV, ["eval", "--pred", "dual:{csv}", "--grid", 0, 2, 0, 2, 3, 3], ": negative exponent"),
        (REPEATED_ROW_CSV, ["eval", "--pred", "dual:{csv}", "--line", 0, 2, 3], ": index (1,) appears more than once"),
        (REPEATED_ROW_CSV, FIT_DUAL, ": index (1,) appears more than once"),
        (NAN_VALUE_CSV, EVAL_LINE, ":3: non-finite value 'nan'"),
        (NAN_VALUE_CSV, FIT_DUAL, ":3: non-finite value 'nan'"),
        (FRACTIONAL_EXPONENT_CSV, EVAL_LINE, ":3: invalid literal for int() with base 10: '1.5'"),
        (FRACTIONAL_EXPONENT_CSV, FIT_DUAL, ":3: invalid literal for int() with base 10: '1.5'"),
    ],
    ids=["negative-eval", "repeated-eval", "repeated-fit", "nan-eval", "nan-fit", "fractional-eval",
         "fractional-fit"],
)
def test_bad_coefficient_rows_are_usage_errors(text, argv, message, tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text(text)
    out = tmp_path / "out.csv"
    code = run([str(a).replace("{csv}", str(csv)) for a in argv] + ["--out", out])
    assert code == 2
    assert f"{csv}{message}" in capsys.readouterr().err
    assert not out.exists()


def test_taylor_order_above_cap_is_usage_error_before_reading(vdp_dual_csv, tmp_path, capsys, monkeypatch):
    # an order of a million would size a total-degree index set of terabytes
    forbid_work(monkeypatch, "sdembed.cli.read_coefficients_csv")
    out = tmp_path / "net.json"
    code = run(["fit", "--dual", vdp_dual_csv, "--hidden", 2, "--N", 1000000, "--out", out])
    assert code == 2
    assert "Taylor order must be >= 0 and <= 20, got 1000000" in capsys.readouterr().err
    assert not out.exists()


def test_truncation_above_cap_is_usage_error_without_order(tmp_path, capsys):
    # without --N the order is the file's largest exponent, checked before any index set
    csv = tmp_path / "wide.csv"
    csv.write_text("n_1,n_2,value\n0,0,1.0\n1000000,0,2.0\n")
    out = tmp_path / "net.json"
    code = run(["fit", "--dual", csv, "--hidden", 2, "--out", out])
    assert code == 2
    assert "got 1000000" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [csv]


def test_large_exponent_row_does_not_size_the_lookup(tmp_path):
    # the fit queries exponents up to 1; the 1e9 row must not size a table of (1e9 + 1)**2
    csv = tmp_path / "wide.csv"
    csv.write_text("n_1,n_2,value\n0,0,1.0\n1,0,0.5\n0,1,0.25\n1000000000,0,2.0\n")
    out = tmp_path / "net.json"
    code = run(["fit", "--dual", csv, "--hidden", 2, "--N", 1, "--restarts", 1, "--out", out])
    assert code == 0
    assert json.loads(out.read_text())["network"]["hidden"] == 2


_TERM = {"coef": 1.0, "powers": [1]}


@pytest.mark.parametrize(
    "doc, location",
    [
        ({"dim": True, "drift": [[_TERM]], "diffusion": [[[]]]}, "dim"),
        ({"dim": 1, "drift": [[{"coef": True, "powers": [1]}]], "diffusion": [[[]]]}, "drift[0][0].coef"),
        ({"dim": 1, "drift": [[{"coef": 1.0, "powers": [True]}]], "diffusion": [[[]]]}, "drift[0][0].powers"),
    ],
    ids=["dim", "coef", "powers"],
)
def test_boolean_in_model_json_is_usage_error(doc, location, tmp_path, capsys, monkeypatch):
    # json.loads gives true as a bool, which Python counts as the int 1
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    forbid_work(monkeypatch, "sdembed.cli.solve_moment")
    out = tmp_path / "out.csv"
    code = run(["dual", model, "--order", 1, "--N", 4, "--t", 1, "--out", out])
    assert code == 2
    assert f"error: {location}:" in capsys.readouterr().err
    assert not out.exists()


# 0.5 + 0.25 x^2 with a zero x^400 term: x^400 overflows to inf for |x| >= 6, and 0 * inf is nan
_OVERFLOWING_CSV = "n_1,value\n0,0.5\n2,0.25\n400,0.0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--pred", "dual:{csv}", "--line", -10, 10, 3],
        ["train-baseline", "--dual", "{csv}", "--size", 20, "--box", -10, 10, "--hidden", 2, "--epochs", 1],
    ],
    ids=["eval", "train-baseline"],
)
def test_overflowing_moment_is_an_error_not_a_value(argv, tmp_path, capsys):
    csv = tmp_path / "ou400.csv"
    csv.write_text(_OVERFLOWING_CSV)
    out = tmp_path / "out.csv"
    code = run([str(a).replace("{csv}", str(csv)) for a in argv] + ["--out", out])
    assert code == 1
    err = capsys.readouterr().err
    assert re.search(r"error: moment at x = \[-?\d[\d.e+-]*\] is not finite", err)
    assert "training loss" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--pred", "dual:{csv}", "--grid", -1, 1, -1, 1, 2, 2],
        ["train-baseline", "--dual", "{csv}", "--size", 4, "--box", -1, 1, "--hidden", 2, "--epochs", 1],
    ],
    ids=["eval", "train-baseline"],
)
def test_power_table_above_eval_block_is_usage_error(argv, tmp_path, capsys, monkeypatch):
    # one point's table of x_1^0 ... x_1^100 (and x_2's) is 1616 bytes, above a 1 KiB block
    monkeypatch.setattr("sdembed.dual._EVAL_BLOCK_BYTES", 1024)
    forbid_work(monkeypatch, "sdembed.dual.power_table")
    csv = tmp_path / "wide.csv"
    csv.write_text("n_1,n_2,value\n0,0,1.0\n100,0,2.0\n")
    out = tmp_path / "out.csv"
    code = run([str(a).replace("{csv}", str(csv)) for a in argv] + ["--out", out])
    assert code == 2
    assert "error: exponent 100 needs a 1616-byte power table per point" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--pred", "dual:{csv}", "--grid", -1, 1, -1, 1, 2, 2],
        ["train-baseline", "--dual", "{csv}", "--size", 4, "--box", -1, 1, "--hidden", 2, "--epochs", 1],
    ],
    ids=["eval", "train-baseline"],
)
def test_coefficient_box_above_eval_block_is_usage_error(argv, tmp_path, capsys, monkeypatch):
    # a 656-byte power table per point fits a 1 KiB block, but the 41 x 41 box is 13448 bytes
    monkeypatch.setattr("sdembed.dual._EVAL_BLOCK_BYTES", 1024)
    forbid_work(monkeypatch, "sdembed.dual.power_table")
    csv = tmp_path / "corners.csv"
    csv.write_text("n_1,n_2,value\n0,0,1.0\n40,0,2.0\n0,40,3.0\n")
    out = tmp_path / "out.csv"
    code = run([str(a).replace("{csv}", str(csv)) for a in argv] + ["--out", out])
    assert code == 2
    assert "error: index set needs a (41, 41) coefficient box of 13448 bytes" in capsys.readouterr().err
    assert not out.exists()


class TestMcCommand:
    def test_estimate_printed(self, capsys):
        code = run(["mc", "ou", "--x0", 1.0, "--t", 0.1, "--dt", 0.01, "--paths", 500, "--m", 1, "--seed", 3])
        assert code == 0
        out = capsys.readouterr().out
        assert "estimate:" in out and "std_error:" in out

    def test_states_csv_and_manifest(self, tmp_path):
        out = tmp_path / "states.csv"
        code = run([
            "mc", "vdp", "--x0", 1.0, 1.0, "--t", 0.05, "--dt", 0.01,
            "--paths", 20, "--m", 2, "--axis", 2, "--seed", 1, "--out", out,
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "path,x_1,x_2"
        assert len(lines) == 21
        assert (tmp_path / "states.csv.manifest.json").exists()

    def test_wrong_x0_dimension(self):
        code = run(["mc", "vdp", "--x0", 1.0, "--t", 0.1, "--dt", 0.01, "--paths", 10, "--m", 1])
        assert code == 2


class TestTrainBaselineCommand:
    def test_trains_and_writes_network(self, ou_dual_csv, tmp_path, capsys):
        out = tmp_path / "baseline.json"
        data_out = tmp_path / "data.csv"
        code = run([
            "train-baseline", "--dual", ou_dual_csv, "--size", 400, "--box", -2, 2,
            "--hidden", 3, "--epochs", 4, "--batch", 64, "--seed", 0,
            "--dataset-out", data_out, "--out", out,
        ])
        assert code == 0
        assert "final training MSE" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["network"]["dim"] == 1
        assert len(doc["loss_trace"]) == 4
        assert len(data_out.read_text().strip().splitlines()) == 401

    @pytest.mark.parametrize("flags, data_seed", [([], 5), (["--data-seed", 9], 9)], ids=["seed", "data-seed"])
    def test_manifest_records_the_labelling_seed(self, flags, data_seed, ou_dual_csv, tmp_path):
        out = tmp_path / "baseline.json"
        code = run([
            "train-baseline", "--dual", ou_dual_csv, "--size", 20, "--box", -1, 1,
            "--hidden", 2, "--epochs", 1, "--seed", 5, *flags, "--out", out,
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "baseline.json.manifest.json").read_text())
        assert manifest["seeds"] == {"seed": 5, "data_seed": data_seed}
        assert manifest["config"]["data_seed"] == (flags[1] if flags else None)


class TestEvalCommand:
    def test_line_eval_of_network(self, ou_dual_csv, tmp_path):
        net_path = tmp_path / "net.json"
        assert run([
            "fit", "--dual", ou_dual_csv, "--hidden", 2, "--N", 6,
            "--restarts", 2, "--max-iterations", 10, "--out", net_path,
        ]) == 0
        out = tmp_path / "line.csv"
        assert run(["eval", "--pred", f"net:{net_path}", "--line", -2, 2, 21, "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 22

    @pytest.mark.skipif(
        len(os.sched_getaffinity(0)) < 2, reason="a second BLAS thread needs a second CPU to run on"
    )
    def test_network_grid_same_for_any_blas_thread_count(self, tmp_path):
        rng = np.random.default_rng(0)
        net = tmp_path / "net.json"
        weights = {"q": rng.uniform(-20, 20, 8), "R": rng.uniform(-1.5, 1.5, (8, 2)), "s": rng.uniform(-1.5, 1.5, 8)}
        net.write_text(json.dumps({key: value.tolist() for key, value in weights.items()}))
        src = str(Path(__file__).resolve().parents[1] / "src")
        tables = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"grid_{threads}.csv"
            argv = ["eval", "--pred", f"net:{net}", "--grid", "-4", "4", "-4", "4", "301", "301", "--out", str(out)]
            subprocess.run(
                [sys.executable, "-m", "sdembed.cli", *argv], env=env, capture_output=True, check=True, timeout=300
            )
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]

    @pytest.mark.skipif(
        len(os.sched_getaffinity(0)) < 2, reason="a second BLAS thread needs a second CPU to run on"
    )
    def test_dual_grid_same_for_any_blas_thread_count(self, tmp_path):
        # the benchmark's N=60 grid, whose moment products ran threaded in 1109-point blocks
        coeffs = tmp_path / "vdp60.csv"
        assert run(["dual", "vdp", "--axis", 2, "--order", 2, "--N", 60, "--t", 0.1, "--out", coeffs]) == 0
        src = str(Path(__file__).resolve().parents[1] / "src")
        tables = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"grid_{threads}.csv"
            argv = ["eval", "--pred", f"dual:{coeffs}", "--grid", "-2", "2", "-2", "2", "101", "101", "--out", str(out)]
            subprocess.run(
                [sys.executable, "-m", "sdembed.cli", *argv], env=env, capture_output=True, check=True, timeout=300
            )
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]

    def test_analytic_predictor_line(self, tmp_path):
        out = tmp_path / "analytic.csv"
        assert run(["eval", "--pred", "ou:m=1,t=1,gamma=1,sigma=1", "--line", -1, 1, 9, "--out", out]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        for x_str, value_str in rows:
            assert float(value_str) == pytest.approx(float(x_str) * math.exp(-1.0), rel=1e-12)

    def test_polar_profile_and_gnuplot(self, vdp_dual_csv, tmp_path):
        net_path = tmp_path / "net.json"
        assert run([
            "fit", "--dual", vdp_dual_csv, "--hidden", 3, "--N", 6,
            "--restarts", 2, "--max-iterations", 10, "--out", net_path,
        ]) == 0
        out = tmp_path / "profile.csv"
        code = run([
            "eval", "--pred", f"net:{net_path}", "--ref", f"dual:{vdp_dual_csv}",
            "--polar", 4, 20, 16, "--gnuplot", "--out", out,
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "r_lo,r_hi,mse"
        assert len(lines) == 21
        assert (tmp_path / "profile.csv.gp").exists()
        manifest = json.loads((tmp_path / "profile.csv.manifest.json").read_text())
        assert len(manifest["input_hashes"]) == 2

    def test_grid_eval_of_dual(self, vdp_dual_csv, tmp_path):
        out = tmp_path / "grid.csv"
        code = run([
            "eval", "--pred", f"dual:{vdp_dual_csv}", "--grid", -4, 4, -4, 4, 5, 5, "--out", out,
        ])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 26

    @pytest.mark.parametrize("t", ["nan", "-1"])
    def test_analytic_predictor_rejects_bad_horizon(self, t, tmp_path, capsys):
        out = tmp_path / "analytic.csv"
        code = run(["eval", "--pred", f"ou:t={t},m=2", "--line", -1, 1, 3, "--out", out])
        assert code == 2
        assert "t must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["net", "dual"])
    def test_bare_path_is_not_a_predictor(self, kind, ou_dual_csv, tmp_path, capsys):
        # each predictor has one spelling, `kind:PATH`; a bare file name is not one
        path = ou_dual_csv
        if kind == "net":
            path = tmp_path / "net.json"
            fit = ["fit", "--dual", ou_dual_csv, "--hidden", 2, "--restarts", 1, "--max-iterations", 2]
            assert run([*fit, "--out", path]) == 0
        out = tmp_path / "line.csv"
        code = run(["eval", "--pred", path, "--line", -1, 1, 3, "--out", out])
        assert code == 2
        assert "cannot interpret predictor spec" in capsys.readouterr().err
        assert not out.exists()

    def test_swapped_coefficient_header_is_usage_error(self, tmp_path, capsys):
        # read as n_1,n_2, this file once gave 3.0 at (1, 0), the value its header puts at x2 = 1
        csv = tmp_path / "swapped.csv"
        csv.write_text("n_2,n_1,value\n0,0,1.0\n1,0,2.0\n")
        out = tmp_path / "grid.csv"
        assert run(["eval", "--pred", f"dual:{csv}", "--grid", 0, 1, 0, 1, 2, 2, "--out", out]) == 2
        assert "swapped.csv:1: expected header n_1,...,n_D,value" in capsys.readouterr().err
        assert not out.exists()

    def test_dimension_mismatch_is_usage_error(self, ou_dual_csv, vdp_dual_csv, tmp_path):
        code = run([
            "eval", "--pred", f"dual:{ou_dual_csv}", "--ref", f"dual:{vdp_dual_csv}",
            "--polar", 4, 10, 10, "--out", tmp_path / "x.csv",
        ])
        assert code == 2

    def test_mc_predictor_line(self, tmp_path):
        out = tmp_path / "mc_line.csv"
        code = run([
            "eval", "--pred", "mc:model=ou,m=1,t=0.1,dt=0.01,paths=200,seed=0",
            "--line", -1, 1, 5, "--out", out,
        ])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 6

    def test_mc_predictor_takes_model_json(self, tmp_path):
        from sdembed.sde import model_to_dict

        model = tmp_path / "ou.json"
        model.write_text(json.dumps(model_to_dict(builtin_model("ou", {"gamma": 1.0, "sigma": 1.0}))))
        from_file, from_builtin = tmp_path / "file.csv", tmp_path / "builtin.csv"
        for ref, out in ((model, from_file), ("ou", from_builtin)):
            code = run([
                "eval", "--pred", f"mc:model={ref},m=1,t=0.1,dt=0.01,paths=50,seed=0",
                "--line", -1, 1, 3, "--out", out,
            ])
            assert code == 0
        assert from_file.read_bytes() == from_builtin.read_bytes()
        manifest = json.loads((tmp_path / "file.csv.manifest.json").read_text())
        assert manifest["input_hashes"] == {str(model): hashlib.sha256(model.read_bytes()).hexdigest()}

    def test_mc_predictor_rejects_foreign_parameter(self, tmp_path, capsys):
        code = run([
            "eval", "--pred", "mc:model=ou,m=1,t=0.1,epsilon=2,dt=0.01,paths=10",
            "--line", -1, 1, 3, "--out", tmp_path / "x.csv",
        ])
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, key",
        [
            ("ou:m=1,gamma=1", "'t'"), ("mc:m=1,t=0.1", "'model'"), ("mc:model=ou,t=0.1", "'m'"),
            # like `mc --dt/--paths` and SimConfig, the spec has no default step or path count
            ("mc:model=ou,m=1,t=0.1,paths=10", "'dt'"), ("mc:model=ou,m=1,t=0.1,dt=0.01", "'paths'"),
        ],
    )
    def test_predictor_missing_key_is_usage_error(self, spec, key, tmp_path, capsys):
        code = run(["eval", "--pred", spec, "--line", -1, 1, 3, "--out", tmp_path / "x.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert "missing required key" in err and key in err

    @pytest.mark.parametrize(
        "spec, key",
        [
            ("ou:m=1,t=1,t=2", "'t'"),
            ("ou:m=1, m=2,t=1", "'m'"),
            ("mc:model=ou,m=1,t=0.1,m=2", "'m'"),
            ("mc:model=vdp,epsilon=1,epsilon=2,m=1,t=0.1", "'epsilon'"),
        ],
        ids=["ou", "ou-spaced", "mc", "mc-parameter"],
    )
    def test_predictor_repeated_key_is_usage_error(self, spec, key, tmp_path, capsys, monkeypatch):
        forbid_work(monkeypatch, "sdembed.cli.simulate", "sdembed.cli.grid_eval")
        out = tmp_path / "x.csv"
        code = run(["eval", "--pred", spec, "--line", -1, 1, 3, "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert f"key {key} given more than once" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode",
        [
            ["--line", -1, 1, 2.7],
            ["--grid", -1, 1, -1, 1, 5, 2.5],
            ["--polar", 4, 10.5, 8],
        ],
        ids=["line", "grid", "polar"],
    )
    def test_fractional_mesh_count_is_usage_error(self, mode, vdp_dual_csv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        pred = ["--pred", "ou:m=1,t=1"] if mode[0] == "--line" else ["--pred", f"dual:{vdp_dual_csv}"]
        if mode[0] == "--polar":
            pred += ["--ref", f"dual:{vdp_dual_csv}"]
        code = run(["eval", *pred, *mode, "--out", out])
        assert code == 2
        assert "must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_exactly_one_mode_required(self, ou_dual_csv, tmp_path):
        code = run(["eval", "--pred", f"dual:{ou_dual_csv}", "--out", tmp_path / "x.csv"])
        assert code == 2


FIT_ARGV = "fit --dual c.csv --hidden 2 --out o"
MC_ARGV = "mc ou --x0 1 --t 1 --dt 0.1 --paths 2 --m 1"
TRAIN_ARGV = "train-baseline --dual c.csv --size 8 --box -1 1 --hidden 2 --out o"


def _flag_default(argv, dest):
    return lambda monkeypatch, tmp_path: getattr(cli._build_parser().parse_args(argv.split()), dest)


def _mc_spec_seed(monkeypatch, tmp_path):
    # stand-ins hand back the config the spec's simulation would draw with
    monkeypatch.setattr("sdembed.cli.simulate", lambda model, x0, config: config)
    monkeypatch.setattr("sdembed.cli.mc_moment", lambda config, axis, power: (config.seed, 0.0))
    run_record = cli._Run(argparse.Namespace(command="eval"))
    return cli._build_predictor("mc:model=ou,m=1,t=0.1,dt=0.1,paths=2", run_record).fn(np.zeros((1, 1)))[0]


def _dual_text(name, axis, power, degree, t):
    """`dual NAME` without parameter flags, against `builtin_model(NAME)`."""

    def command(monkeypatch, tmp_path):
        out = tmp_path / "coeffs.csv"
        assert run(["dual", name, "--axis", axis, "--order", power, "--N", degree, "--t", t, "--out", out]) == 0
        return out.read_text()

    def library():
        model = builtin_model(name)
        return "".join(coefficients_csv_text(solve_moment(model, axis=axis, power=power, t=t, max_degree=degree)))

    return command, library


@pytest.mark.parametrize(
    "cli_default, library_default",
    [
        (_flag_default(FIT_ARGV, "restarts"), lambda: FitConfig.restarts),
        (_flag_default(FIT_ARGV, "max_iterations"), lambda: FitConfig.max_iterations),
        (_flag_default(FIT_ARGV, "seed"), lambda: FitConfig.seed),
        (_flag_default(MC_ARGV, "seed"), lambda: SimConfig.seed),
        (_mc_spec_seed, lambda: SimConfig.seed),
        (_flag_default(TRAIN_ARGV, "epochs"), lambda: TrainConfig.epochs),
        (_flag_default(TRAIN_ARGV, "batch"), lambda: TrainConfig.batch_size),
        (_flag_default(TRAIN_ARGV, "lr"), lambda: TrainConfig.learning_rate),
        (_flag_default(TRAIN_ARGV, "seed"), lambda: TrainConfig.seed),
        _dual_text("ou", 1, 2, 6, 1.0),
        _dual_text("vdp", 2, 2, 4, 0.1),
    ],
    ids=["fit-restarts", "fit-max-iterations", "fit-seed", "mc-seed", "mc-spec-seed", "train-baseline-epochs",
         "train-baseline-batch", "train-baseline-lr", "train-baseline-seed", "dual-ou-params", "dual-vdp-params"],
)
def test_parser_defaults_match_library(cli_default, library_default, monkeypatch, tmp_path):
    """Every default the CLI shares with the library is the library's: the
    config classes' fields, and `builtin_model`'s parameters."""
    assert cli_default(monkeypatch, tmp_path) == library_default()
