import math

import numpy as np
import pytest

import sdembed.mc as mc_module
from sdembed.evaluate import analytic_ou_moment
from sdembed.mc import (
    EstimationError,
    SimConfig,
    TrajectoryEnsemble,
    final_states_csv_text,
    mc_moment,
    simulate,
    write_final_states_csv,
)
from sdembed.sde import builtin_model


@pytest.fixture
def ou():
    return builtin_model("ou", {"gamma": 1.0, "sigma": 1.0})


@pytest.fixture
def vdp():
    return builtin_model("vdp", {"epsilon": 1.0, "nu11": 1.0, "nu22": 1.0})


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0, horizon=1.0, paths=10)
        with pytest.raises(ValueError):
            SimConfig(dt=0.1, horizon=1.0, paths=0)
        with pytest.raises(ValueError):
            SimConfig(dt=0.1, horizon=-1.0, paths=10)

    def test_step_count_must_be_integral(self):
        with pytest.raises(ValueError, match="integer multiple"):
            SimConfig(dt=0.3, horizon=1.0, paths=10)
        assert SimConfig(dt=0.1, horizon=1.0, paths=10).steps == 10
        assert SimConfig(dt=1e-3, horizon=0.1, paths=1).steps == 100


class TestSimulate:
    def test_deterministic_drift_step(self):
        model = builtin_model("ou", {"gamma": 1.0, "sigma": 0.0})
        ens = simulate(model, [1.0], SimConfig(dt=0.01, horizon=0.01, paths=3, seed=0))
        assert np.array_equal(ens.final, np.full((3, 1), 0.99))

    def test_zero_horizon_returns_start(self, vdp):
        ens = simulate(vdp, [1.5, -0.5], SimConfig(dt=0.01, horizon=0.0, paths=4, seed=0))
        assert np.array_equal(ens.final, np.tile([1.5, -0.5], (4, 1)))

    def test_seed_determinism(self, ou):
        config = SimConfig(dt=0.01, horizon=0.2, paths=50, seed=9)
        a = simulate(ou, [1.0], config)
        b = simulate(ou, [1.0], config)
        assert np.array_equal(a.final, b.final)

    def test_different_seeds_differ(self, ou):
        a = simulate(ou, [1.0], SimConfig(dt=0.01, horizon=0.2, paths=50, seed=1))
        b = simulate(ou, [1.0], SimConfig(dt=0.01, horizon=0.2, paths=50, seed=2))
        assert not np.array_equal(a.final, b.final)

    def test_batch_invariance(self, vdp, monkeypatch):
        config = SimConfig(dt=0.01, horizon=0.1, paths=40, seed=4)
        monkeypatch.setattr(mc_module, "_CHUNK_PATHS", 7)
        chunked = simulate(vdp, [1.0, 1.0], config)
        monkeypatch.setattr(mc_module, "_CHUNK_PATHS", 4096)
        whole = simulate(vdp, [1.0, 1.0], config)
        assert np.array_equal(chunked.final, whole.final)

    def test_ou_mean_within_sampling_error(self, ou):
        ens = simulate(ou, [1.0], SimConfig(dt=1e-3, horizon=1.0, paths=20_000, seed=12))
        estimate, std_error = mc_moment(ens, 1, 1)
        assert abs(estimate - math.exp(-1.0)) < 4.0 * std_error
        estimate2, std_error2 = mc_moment(ens, 1, 2)
        assert abs(estimate2 - analytic_ou_moment(1, 1, 1.0, 1.0, 2)) < 4.0 * std_error2

    def test_wrong_start_dimension(self, vdp):
        with pytest.raises(ValueError):
            simulate(vdp, [1.0], SimConfig(dt=0.01, horizon=0.1, paths=2, seed=0))

    def test_blowup_paths_flagged_not_fatal(self, vdp):
        # cubic drift at a huge step size overflows most but not all paths
        config = SimConfig(dt=0.5, horizon=10.0, paths=64, seed=3)
        ens = simulate(vdp, [2.2, 2.2], config)
        assert 0 < ens.n_excluded < 64
        estimate, _ = mc_moment(ens, 1, 1)
        assert math.isfinite(estimate)


class TestMcMoment:
    @staticmethod
    def constant_ensemble(value, paths=8):
        final = np.tile(np.atleast_1d(value), (paths, 1))
        config = SimConfig(dt=0.1, horizon=0.0, paths=paths, seed=0)
        return TrajectoryEnsemble(final, np.zeros(paths, bool), config, tuple(np.atleast_1d(value)))

    def test_identical_states(self):
        ens = self.constant_ensemble(2.0)
        assert mc_moment(ens, 1, 2) == (4.0, 0.0)

    def test_zeroth_power(self):
        ens = self.constant_ensemble([1.5, 2.5])
        assert mc_moment(ens, 2, 0) == (1.0, 0.0)

    def test_excludes_flagged_paths(self):
        final = np.array([[1.0], [math.nan], [3.0]])
        config = SimConfig(dt=0.1, horizon=0.0, paths=3, seed=0)
        ens = TrajectoryEnsemble(final, np.array([False, True, False]), config, (0.0,))
        estimate, _ = mc_moment(ens, 1, 1)
        assert estimate == 2.0
        assert ens.n_excluded == 1

    def test_all_flagged_raises(self):
        final = np.full((3, 1), math.inf)
        config = SimConfig(dt=0.1, horizon=0.0, paths=3, seed=0)
        ens = TrajectoryEnsemble(final, np.ones(3, bool), config, (0.0,))
        with pytest.raises(EstimationError):
            mc_moment(ens, 1, 1)

    def test_axis_validation(self):
        ens = self.constant_ensemble([1.0, 2.0])
        with pytest.raises(ValueError):
            mc_moment(ens, 3, 1)
        with pytest.raises(ValueError):
            mc_moment(ens, 1, -1)


class TestCsvExport:
    def test_layout_and_values(self, ou, tmp_path):
        ens = simulate(ou, [1.0], SimConfig(dt=0.01, horizon=0.05, paths=5, seed=8))
        path = tmp_path / "states.csv"
        write_final_states_csv(ens, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "path,x_1"
        assert len(lines) == 6
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert np.array_equal(values, ens.final[:, 0])

    def test_text_matches_file(self, vdp, tmp_path):
        ens = simulate(vdp, [0.5, 0.5], SimConfig(dt=0.01, horizon=0.02, paths=3, seed=1))
        path = tmp_path / "states.csv"
        write_final_states_csv(ens, path)
        assert path.read_text() == final_states_csv_text(ens)


@pytest.mark.slow
def test_weak_convergence_improves_with_smaller_steps():
    ou = builtin_model("ou", {"gamma": 1.0, "sigma": 1.0})
    exact = math.exp(-1.0)
    errors = {}
    for dt in (1e-2, 1e-3):
        ens = simulate(ou, [1.0], SimConfig(dt=dt, horizon=1.0, paths=1_000_000, seed=77))
        estimate, _ = mc_moment(ens, 1, 1)
        errors[dt] = abs(estimate - exact)
    assert errors[1e-3] < errors[1e-2]
