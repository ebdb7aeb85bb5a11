import hashlib
import json
import math

import numpy as np
import pytest

from sdembed.cli import main


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
        from sdembed.sde import builtin_model, write_model

        path = tmp_path / "model.json"
        write_model(builtin_model("ou", {"gamma": 1.0, "sigma": 1.0}), path)
        out_file = tmp_path / "file.csv"
        out_builtin = tmp_path / "builtin.csv"
        assert run(["dual", path, "--order", 1, "--N", 6, "--t", 1.0, "--out", out_file]) == 0
        assert run(["dual", "ou", "--order", 1, "--N", 6, "--t", 1.0, "--out", out_builtin]) == 0
        assert out_file.read_bytes() == out_builtin.read_bytes()


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

    def test_fit_from_model_reference(self, tmp_path):
        net_path = tmp_path / "net.json"
        code = run([
            "fit", "ou", "--order", 1, "--t", 1.0, "--N", 8,
            "--hidden", 2, "--restarts", 2, "--max-iterations", 10, "--out", net_path,
        ])
        assert code == 0
        assert net_path.exists()

    def test_zero_restarts_is_usage_error(self, ou_dual_csv, tmp_path):
        code = run([
            "fit", "--dual", ou_dual_csv, "--hidden", 2, "--restarts", 0,
            "--out", tmp_path / "net.json",
        ])
        assert code == 2

    def test_needs_dual_or_model(self, tmp_path):
        assert run(["fit", "--hidden", 2, "--out", tmp_path / "net.json"]) == 2

    def test_model_reference_needs_solve_flags(self, tmp_path, capsys):
        code = run(["fit", "ou", "--hidden", 2, "--out", tmp_path / "net.json"])
        assert code == 2
        assert "--order" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, extra",
    [
        (["fit", "--hidden", 2], []),
        (["train-baseline", "--size", 10, "--box", -1, 1, "--hidden", 2], []),
    ],
    ids=["fit", "train-baseline"],
)
@pytest.mark.parametrize(
    "target", [["vdp"], ["--order", 2], ["--t", 5], ["--epsilon", 3]], ids=["model", "order", "t", "param"]
)
def test_dual_rejects_target_flags(command, extra, target, ou_dual_csv, tmp_path, capsys):
    out = tmp_path / "net.json"
    code = run([*command, "--dual", ou_dual_csv, *target, "--out", out])
    assert code == 2
    assert "ignored" in capsys.readouterr().err
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
            "train-baseline", "ou", "--order", 1, "--N", 4, "--t", 1.0, "--size", 10,
            "--box", -1, 1, "--hidden", 2, "--dataset-out", "{dir}", "--out", "{file}",
        ],
    ],
    ids=["dual-out", "train-baseline-dataset-out"],
)
def test_directory_output_is_usage_error_before_any_work(argv, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the command started working")

    monkeypatch.setattr("sdembed.cli.solve_moment", no_work)
    folder = tmp_path / "outputs"
    folder.mkdir()
    out = tmp_path / "net.json"
    code = run([str(a).replace("{dir}", str(folder)).replace("{file}", str(out)) for a in argv])
    assert code == 2
    assert f"names a directory: {folder}" in capsys.readouterr().err
    assert list(folder.iterdir()) == [] and not out.exists()


NEGATIVE_ROW_CSV = "n_1,n_2,value\n0,0,1.0\n-1,0,2.0\n1,0,3.0\n"
REPEATED_ROW_CSV = "n_1,value\n0,1.0\n1,2.0\n1,5.0\n"


@pytest.mark.parametrize(
    "text, argv",
    [
        (NEGATIVE_ROW_CSV, ["eval", "--pred", "dual:{csv}", "--grid", 0, 2, 0, 2, 3, 3]),
        (REPEATED_ROW_CSV, ["eval", "--pred", "dual:{csv}", "--line", 0, 2, 3]),
        (REPEATED_ROW_CSV, ["fit", "--dual", "{csv}", "--hidden", 2]),
    ],
    ids=["negative-eval", "repeated-eval", "repeated-fit"],
)
def test_bad_coefficient_rows_are_usage_errors(text, argv, tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text(text)
    out = tmp_path / "out.csv"
    code = run([str(a).replace("{csv}", str(csv)) for a in argv] + ["--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{csv}: " in err and ("negative exponent" in err or "more than once" in err)
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

    def test_solves_target_when_given_model(self, tmp_path):
        out = tmp_path / "baseline.json"
        code = run([
            "train-baseline", "vdp", "--axis", 2, "--order", 2, "--t", 0.1, "--N", 6,
            "--size", 300, "--box", -4, 4, "--hidden", 4, "--epochs", 2, "--out", out,
        ])
        assert code == 0
        assert json.loads(out.read_text())["network"]["dim"] == 2


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
        from sdembed.sde import builtin_model, write_model

        model = tmp_path / "ou.json"
        write_model(builtin_model("ou", {"gamma": 1.0, "sigma": 1.0}), model)
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
        [("ou:m=1,gamma=1", "'t'"), ("mc:m=1,t=0.1", "'model'"), ("mc:model=ou,t=0.1", "'m'")],
    )
    def test_predictor_missing_key_is_usage_error(self, spec, key, tmp_path, capsys):
        code = run(["eval", "--pred", spec, "--line", -1, 1, 3, "--out", tmp_path / "x.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert "missing required key" in err and key in err

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


def test_parser_defaults_match_library():
    from sdembed.baseline import TrainConfig
    from sdembed.cli import _build_parser
    from sdembed.dual import IntegratorConfig
    from sdembed.fit import FitConfig

    parser = _build_parser()
    dual = parser.parse_args(["dual", "ou", "--order", "1", "--N", "4", "--t", "1", "--out", "o"])
    fit = parser.parse_args(["fit", "--dual", "c.csv", "--hidden", "2", "--out", "o"])
    train = parser.parse_args(
        ["train-baseline", "--dual", "c.csv", "--size", "8", "--box", "-1", "1", "--hidden", "2", "--out", "o"]
    )
    solve, fitting, training = IntegratorConfig(), FitConfig(hidden=2, order=1), TrainConfig()
    for args in (dual, fit, train):
        assert (args.rtol, args.atol) == (solve.rtol, solve.atol)
    assert fit.restarts == fitting.restarts
    assert (fit.init_low, fit.init_high) == fitting.init_range
    assert (fit.gtol, fit.ctol) == (fitting.gradient_tol, fitting.cost_tol)
    assert (train.epochs, train.batch, train.lr) == (
        training.epochs,
        training.batch_size,
        training.learning_rate,
    )
    # the one documented divergence: vdp m=2 needs the longer CLI budget,
    # the OU m=2 embedding needs the library's shorter one
    assert (fit.max_iterations, fitting.max_iterations) == (200, 30)


class TestSeedEnvironmentOverride:
    def test_env_seed_used_as_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SDEMBED_SEED", "123")
        out = tmp_path / "states.csv"
        code = run(["mc", "ou", "--x0", 1.0, "--t", 0.02, "--dt", 0.01, "--paths", 10, "--m", 1, "--out", out])
        assert code == 0
        manifest = json.loads((tmp_path / "states.csv.manifest.json").read_text())
        assert manifest["seeds"]["seed"] == 123

    def test_malformed_env_seed_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SDEMBED_SEED", "abc")
        out = tmp_path / "states.csv"
        code = run(["mc", "ou", "--x0", 1.0, "--t", 0.02, "--dt", 0.01, "--paths", 10, "--m", 1, "--out", out])
        assert code == 2
        assert "SDEMBED_SEED" in capsys.readouterr().err
        assert not out.exists()
