import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sdembed.mc as mc_module
from helpers import (
    diffusion_terms,
    drift_terms,
    make_model,
    reference_simulate,
    reference_states_csv_text,
    step_noise,
    term_sum,
)
from sdembed.cli import main
from sdembed.evaluate import analytic_ou_moment
from sdembed.mc import (
    EstimationError,
    SimConfig,
    TrajectoryEnsemble,
    final_states_csv_text,
    mc_moment,
    simulate,
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

    @pytest.mark.parametrize(
        "dt, horizon, match",
        [
            (math.inf, 1.0, "dt must be finite"),
            (math.nan, 1.0, "dt must be finite"),
            (0.1, math.inf, "horizon must be finite"),
            (0.1, math.nan, "horizon must be finite"),
        ],
        ids=["dt-inf", "dt-nan", "horizon-inf", "horizon-nan"],
    )
    def test_non_finite_step_or_horizon_rejected(self, dt, horizon, match):
        with pytest.raises(ValueError, match=match):
            SimConfig(dt=dt, horizon=horizon, paths=10)

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

    def test_path_count_prefix_invariance(self, vdp):
        more = simulate(vdp, [1.0, 1.0], SimConfig(dt=0.01, horizon=0.1, paths=40, seed=4))
        fewer = simulate(vdp, [1.0, 1.0], SimConfig(dt=0.01, horizon=0.1, paths=25, seed=4))
        assert np.array_equal(more.final[:25], fewer.final)

    def test_noise_memory_flat_in_horizon(self, ou):
        def peak(horizon):
            config = SimConfig(dt=0.01, horizon=horizon, paths=4096, seed=2)
            tracemalloc.start()
            try:
                simulate(ou, [1.0], config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(10.0) <= 1.5 * peak(1.0)

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


def random_model(seed):
    """1-3-D model with multi-term drift and a full diffusion matrix whose
    off-diagonal entries depend on the state."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))

    def poly(n_terms, state_dependent):
        terms = {}
        while len(terms) < n_terms:
            index = tuple(int(e) for e in rng.integers(0, 3, dim))
            if not (state_dependent and not any(index)):
                terms[index] = float(rng.normal())
        return terms

    drift = [poly(3, False) for _ in range(dim)]
    diffusion = [[poly(2, i != j) for j in range(dim)] for i in range(dim)]
    return make_model(drift, diffusion)


def reference_euler(model, x0, config):
    """Euler-Maruyama on simulate's noise stream, evaluating every drift and
    diffusion entry on its own with the per-term oracle."""
    dim = model.dim
    sqrt_dt = math.sqrt(config.dt)
    states = np.tile(x0, (config.paths, 1))
    for k in range(config.steps):
        xi = step_noise(config.seed, k, config.paths, dim)
        incr = np.empty_like(states)
        for i in range(dim):
            incr[:, i] = term_sum(drift_terms(model, i), states) * config.dt
            for j in range(dim):
                incr[:, i] += term_sum(diffusion_terms(model, i, j), states) * (sqrt_dt * xi[:, j])
        states = states + incr
    return states


def assert_paths_close(got, want):
    """Within 1e-14 relative to each path's largest state component (a
    component that the noise carried near 0 has no relative accuracy)."""
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


class TestCompiledStepMatchesReference:
    """simulate's one-kernel-call step against polynomial-by-polynomial Euler."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_models(self, seed):
        model = random_model(seed)
        rng = np.random.default_rng(1000 + seed)
        x0 = rng.uniform(0.5, 1.5, model.dim) * rng.choice([-1.0, 1.0], model.dim)
        config = SimConfig(dt=1e-3, horizon=5e-3, paths=64, seed=seed)
        got = simulate(model, x0, config).final
        assert_paths_close(got, reference_euler(model, x0, config))

    def test_vdp(self, vdp):
        config = SimConfig(dt=1e-3, horizon=0.02, paths=32, seed=5)
        got = simulate(vdp, np.array([1.0, 1.0]), config).final
        assert_paths_close(got, reference_euler(vdp, np.array([1.0, 1.0]), config))


class TestWorkspaceMatchesFreshBlocks:
    """simulate bit for bit (NaN for NaN) against the block loop that
    allocated fresh arrays at every step and block, `reference_simulate`:
    one path, a few, exactly one block, and a short last block of one path."""

    @staticmethod
    def assert_identical(model, x0, config):
        ens = simulate(model, x0, config)
        final, blown = reference_simulate(model, x0, config)
        assert np.array_equal(ens.final, final, equal_nan=True)
        assert np.array_equal(ens.blown, blown)
        return ens

    @pytest.mark.parametrize("paths", [1, 5, 8192, 8193, 16385])
    def test_vdp_and_ou(self, vdp, ou, paths):
        config = SimConfig(dt=1e-3, horizon=0.01, paths=paths, seed=21)
        self.assert_identical(vdp, [1.0, 1.0], config)
        self.assert_identical(ou, [1.0], config)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_models(self, seed):
        model = random_model(seed)
        rng = np.random.default_rng(1000 + seed)
        x0 = rng.uniform(0.5, 1.5, model.dim) * rng.choice([-1.0, 1.0], model.dim)
        self.assert_identical(model, x0, SimConfig(dt=1e-2, horizon=0.5, paths=8193, seed=seed))

    def test_blow_up(self, vdp):
        ens = self.assert_identical(vdp, [2.2, 2.2], SimConfig(dt=0.5, horizon=10.0, paths=8193, seed=3))
        assert 0 < ens.n_excluded < 8193


@pytest.mark.skipif(sys.platform != "linux", reason="counts glibc heap behaviour through ru_minflt")
def test_steps_map_no_fresh_pages():
    # with the mmap threshold pinned at 128 KiB, every freed block-sized
    # temporary goes back to the kernel, and the next one faults its pages in
    # afresh: fresh arrays per step and block made 68 427 faults in this run, the one
    # workspace per call about 440
    script = (
        "import resource\n"
        "from sdembed.mc import SimConfig, simulate\n"
        "from sdembed.sde import builtin_model\n"
        "vdp = builtin_model('vdp', {'epsilon': 1.0, 'nu11': 1.0, 'nu22': 1.0})\n"
        "config = SimConfig(dt=1e-3, horizon=0.1, paths=16384, seed=3)\n"
        "simulate(vdp, [1.0, 1.0], config)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "simulate(vdp, [1.0, 1.0], config)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "MALLOC_MMAP_THRESHOLD_": "131072"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=300)
    assert int(run.stdout) < 2000


class TestMcMoment:
    @staticmethod
    def constant_ensemble(value, paths=8):
        final = np.tile(np.atleast_1d(value), (paths, 1))
        config = SimConfig(dt=0.1, horizon=0.0, paths=paths, seed=0)
        return TrajectoryEnsemble(final, np.zeros(paths, bool), config)

    def test_identical_states(self):
        ens = self.constant_ensemble(2.0)
        assert mc_moment(ens, 1, 2) == (4.0, 0.0)

    def test_zeroth_power(self):
        ens = self.constant_ensemble([1.5, 2.5])
        assert mc_moment(ens, 2, 0) == (1.0, 0.0)

    def test_excludes_flagged_paths(self):
        final = np.array([[1.0], [math.nan], [3.0]])
        config = SimConfig(dt=0.1, horizon=0.0, paths=3, seed=0)
        ens = TrajectoryEnsemble(final, np.array([False, True, False]), config)
        estimate, _ = mc_moment(ens, 1, 1)
        assert estimate == 2.0
        assert ens.n_excluded == 1

    def test_all_flagged_raises(self):
        final = np.full((3, 1), math.inf)
        config = SimConfig(dt=0.1, horizon=0.0, paths=3, seed=0)
        ens = TrajectoryEnsemble(final, np.ones(3, bool), config)
        with pytest.raises(EstimationError):
            mc_moment(ens, 1, 1)

    def test_axis_validation(self):
        ens = self.constant_ensemble([1.0, 2.0])
        with pytest.raises(ValueError):
            mc_moment(ens, 3, 1)
        with pytest.raises(ValueError):
            mc_moment(ens, 1, -1)


class TestCsvExport:
    def test_layout_and_values(self, ou):
        ens = simulate(ou, [1.0], SimConfig(dt=0.01, horizon=0.05, paths=5, seed=8))
        lines = "".join(final_states_csv_text(ens)).strip().splitlines()
        assert lines[0] == "path,x_1"
        assert len(lines) == 6
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert np.array_equal(values, ens.final[:, 0])

    def test_text_bytes_of_special_values(self):
        final = np.array([[math.inf, math.nan], [-0.0, 5e-324], [-math.inf, 2.5e-310], [0.1, -1e300]])
        config = SimConfig(dt=0.1, horizon=0.0, paths=4, seed=0)
        ens = TrajectoryEnsemble(final, np.array([True, False, True, False]), config)
        assert "".join(final_states_csv_text(ens)) == (
            "path,x_1,x_2\n0,inf,nan\n1,-0.0,5e-324\n2,-inf,2.5e-310\n3,0.1,-1e+300\n"
        )

    def test_text_bytes_of_the_per_row_writer(self, vdp):
        # the one-template writer gives the sha256 of the join-per-row writer it replaced
        ens = simulate(vdp, [1.0, 1.0], SimConfig(dt=0.01, horizon=0.1, paths=3000, seed=4))
        special = np.array([[math.inf, math.nan], [-0.0, 5e-324], [-math.inf, 2.5e-310], [1e300, -1e300]])
        for final in (ens.final, special, ens.final[:0], ens.final[:, :1]):
            got = "".join(final_states_csv_text(TrajectoryEnsemble(final, np.zeros(len(final), bool), ens.config)))
            want = reference_states_csv_text(final)
            assert hashlib.sha256(got.encode()).hexdigest() == hashlib.sha256(want.encode()).hexdigest()

    def test_text_matches_file(self, vdp, tmp_path):
        # the states file `sdembed mc --out` writes is this text
        ens = simulate(vdp, [0.5, 0.5], SimConfig(dt=0.01, horizon=0.02, paths=3, seed=1))
        path = tmp_path / "states.csv"
        argv = "mc vdp --x0 0.5 0.5 --t 0.02 --dt 0.01 --paths 3 --m 1 --seed 1 --out".split()
        assert main([*argv, str(path)]) == 0
        assert path.read_text() == "".join(final_states_csv_text(ens))


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
