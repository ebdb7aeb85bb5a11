import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sdembed.baseline import (
    Dataset,
    TrainConfig,
    TrainingError,
    dataset_csv_text,
    generate_dataset,
    train_backprop,
)
from sdembed.cli import main
from sdembed.dual import coefficients_csv_text, solve_moment
from sdembed.evaluate import analytic_ou_moment
from sdembed.mc import SimConfig, TrajectoryEnsemble, final_states_csv_text
from sdembed.network import SigmoidNet, forward
from sdembed.sde import builtin_model

from helpers import reference_dataset_csv_text, reference_states_csv_text, reference_train_backprop


@pytest.fixture(scope="module")
def ou_coeffs():
    model = builtin_model("ou", {"gamma": 1.0, "sigma": 1.0})
    return solve_moment(model, axis=1, power=1, t=1.0, max_degree=12)


class TestGenerateDataset:
    def test_targets_match_analytic_ou(self, ou_coeffs):
        data = generate_dataset(ou_coeffs, [(-2.0, 2.0)], size=5, seed=0)
        expected = analytic_ou_moment(1, 1, data.inputs[:, 0], 1.0, 1)
        assert np.allclose(data.targets, expected, atol=1e-8)

    def test_inputs_inside_region(self, ou_coeffs):
        data = generate_dataset(ou_coeffs, [(-2.0, 2.0)], size=500, seed=1)
        assert data.inputs.min() >= -2.0 and data.inputs.max() <= 2.0

    def test_point_region_degenerates(self, ou_coeffs):
        data = generate_dataset(ou_coeffs, [(0.7, 0.7)], size=4, seed=2)
        assert np.array_equal(data.inputs, np.full((4, 1), 0.7))
        assert np.all(data.targets == data.targets[0])

    def test_seed_determinism(self, ou_coeffs):
        a = generate_dataset(ou_coeffs, [(-1.0, 1.0)], size=50, seed=3)
        b = generate_dataset(ou_coeffs, [(-1.0, 1.0)], size=50, seed=3)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)
        assert a.generator_fingerprint == b.generator_fingerprint

    def test_bad_size(self, ou_coeffs):
        with pytest.raises(ValueError):
            generate_dataset(ou_coeffs, [(-1.0, 1.0)], size=0, seed=0)

    def test_negative_seed_rejected_before_labelling(self, ou_coeffs, monkeypatch):
        def no_work(*args):
            raise AssertionError("points were labelled")

        monkeypatch.setattr("sdembed.baseline.eval_moment", no_work)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            generate_dataset(ou_coeffs, [(-1.0, 1.0)], size=3, seed=-1)

    def test_region_dimension_mismatch(self, ou_coeffs):
        with pytest.raises(ValueError):
            generate_dataset(ou_coeffs, [(-1.0, 1.0), (-1.0, 1.0)], size=3, seed=0)

    def test_labelling_peak_below_dataset_and_one_label_block(self):
        # the dataset keeps the inputs and targets labelling built, with no
        # copy of either: 1.48 times the held arrays at vdp N=17, 250k rows,
        # where a copy of both took it to 2.0
        vdp = builtin_model("vdp", {"epsilon": 1.0, "nu11": 1.0, "nu22": 1.0})
        coeffs = solve_moment(vdp, axis=2, power=2, t=0.1, max_degree=17)
        box = [(-4.0, 4.0), (-4.0, 4.0)]
        generate_dataset(coeffs, box, size=10, seed=7)  # first-call imports are not the dataset's
        tracemalloc.start()
        try:
            data = generate_dataset(coeffs, box, size=250_000, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = data.inputs.nbytes + data.targets.nbytes
        assert peak < 1.6 * held, f"peak traced memory {peak / held:.2f} times the dataset"


@pytest.mark.parametrize(
    "inputs, targets, row",
    [
        ([[math.nan], [1.0]], [1.0, math.inf], 0),
        ([[0.0], [1.0]], [1.0, -math.inf], 1),
        ([[0.0, 1.0], [2.0, 3.0], [math.inf, 0.0]], [1.0, 2.0, 3.0], 2),
    ],
    ids=["nan-input", "inf-target", "inf-input"],
)
def test_dataset_rejects_non_finite_rows(inputs, targets, row):
    # before training, not as a non-finite loss that blames it
    with pytest.raises(ValueError, match=f"dataset row {row} is not finite"):
        Dataset(np.array(inputs), np.array(targets), "bad")


class TestTrainBackprop:
    def test_teacher_student_recovery(self):
        rng = np.random.default_rng(0)
        teacher = SigmoidNet(
            rng.uniform(-1, 1, 4), rng.uniform(-1, 1, (4, 2)), rng.uniform(-1, 1, 4)
        )
        inputs = rng.uniform(-2, 2, (20_000, 2))
        data = Dataset(inputs, forward(teacher, inputs), "teacher")
        result = train_backprop(data, TrainConfig(hidden=4, epochs=60, batch_size=128, seed=3))
        assert result.loss_trace[-1] < 1e-4

    def test_constant_target_learned(self):
        rng = np.random.default_rng(1)
        inputs = rng.uniform(-1, 1, (5_000, 1))
        data = Dataset(inputs, np.full(5_000, 0.7), "const")
        result = train_backprop(data, TrainConfig(hidden=3, epochs=100, batch_size=128, seed=1))
        probe = np.linspace(-1, 1, 41)[:, None]
        assert np.max(np.abs(forward(result.net, probe) - 0.7)) < 1e-3

    def test_loss_trace_smoothed_non_increasing(self, ou_coeffs):
        data = generate_dataset(ou_coeffs, [(-2.0, 2.0)], size=4_000, seed=4)
        result = train_backprop(data, TrainConfig(hidden=4, epochs=40, batch_size=128, seed=4))
        window = 10
        smoothed = np.convolve(result.loss_trace, np.ones(window) / window, mode="valid")
        assert np.all(np.diff(smoothed) <= 1e-12)

    def test_seed_determinism(self, ou_coeffs):
        data = generate_dataset(ou_coeffs, [(-2.0, 2.0)], size=1_000, seed=5)
        config = TrainConfig(hidden=3, epochs=5, batch_size=64, seed=5)
        a = train_backprop(data, config)
        b = train_backprop(data, config)
        assert np.array_equal(a.net.out_weights, b.net.out_weights)
        assert np.array_equal(a.net.in_weights, b.net.in_weights)
        assert np.array_equal(a.net.biases, b.net.biases)
        assert np.array_equal(a.loss_trace, b.loss_trace)

    def test_result_is_shared_network_type(self, ou_coeffs):
        data = generate_dataset(ou_coeffs, [(-1.0, 1.0)], size=200, seed=6)
        result = train_backprop(data, TrainConfig(hidden=2, epochs=2, batch_size=32, seed=6))
        assert isinstance(result.net, SigmoidNet)

    def test_divergence_raises_with_epoch(self):
        inputs = np.linspace(-1, 1, 64)[:, None]
        data = Dataset(inputs, np.full(64, 1e200), "huge")
        with pytest.raises(TrainingError, match="epoch"):
            train_backprop(data, TrainConfig(hidden=2, epochs=3, batch_size=16, seed=0))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_flat_adam_matches_three_array_reference(self, dim, seed):
        # 203 examples in batches of 32 leave a last batch of 11
        rng = np.random.default_rng([dim, seed])
        inputs = rng.uniform(-2, 2, (203, dim))
        data = Dataset(inputs, np.sin(inputs).sum(axis=1), "reference")
        config = TrainConfig(hidden=3 + dim, epochs=4, batch_size=32, learning_rate=0.05, seed=seed)
        result = train_backprop(data, config)
        net, trace = reference_train_backprop(data, config)
        assert np.array_equal(result.net.out_weights, net.out_weights)
        assert np.array_equal(result.net.in_weights, net.in_weights)
        assert np.array_equal(result.net.biases, net.biases)
        assert np.array_equal(result.loss_trace, trace)

    @pytest.mark.skipif(
        len(os.sched_getaffinity(0)) < 2, reason="a second BLAS thread needs a second CPU to run on"
    )
    def test_loss_trace_same_for_any_blas_thread_count(self):
        script = (
            "import numpy as np\n"
            "from sdembed.baseline import Dataset, TrainConfig, train_backprop\n"
            "rng = np.random.default_rng(1)\n"
            "inputs = rng.uniform(-2, 2, (20_000, 2))\n"
            "data = Dataset(inputs, np.sin(inputs).sum(axis=1), 'threads')\n"
            "result = train_backprop(data, TrainConfig(hidden=4, epochs=2, seed=1))\n"
            "print(' '.join(float(v).hex() for v in result.loss_trace))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        traces = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=300
            )
            traces.append(run.stdout.split())
        assert len(traces[0]) == 2
        assert traces[0] == traces[1]

    @pytest.mark.skipif(
        sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
        reason="a woken BLAS helper needs a second CPU to spin on, counted here as Linux process CPU time",
    )
    def test_labelling_wakes_no_blas_thread(self):
        # a threaded OpenBLAS call leaves its helper spinning for about 0.135 s of
        # CPU; with one 6472-point product per block these labels did so
        script = (
            "import time\n"
            "from sdembed.baseline import generate_dataset\n"
            "from sdembed.dual import solve_moment\n"
            "from sdembed.sde import builtin_model\n"
            "vdp = builtin_model('vdp', {'epsilon': 1.0, 'nu11': 1.0, 'nu22': 1.0})\n"
            "coeffs = solve_moment(vdp, axis=2, power=2, t=0.1, max_degree=17)\n"
            "generate_dataset(coeffs, [(-4.0, 4.0), (-4.0, 4.0)], size=250_000, seed=7)\n"
            "start = time.process_time()\n"
            "time.sleep(0.3)\n"
            "print(time.process_time() - start)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=300)
        assert float(run.stdout) < 0.02

    def test_one_network_built_per_training(self, ou_coeffs, net_builds):
        data = generate_dataset(ou_coeffs, [(-2.0, 2.0)], size=1_000, seed=6)
        result = train_backprop(data, TrainConfig(hidden=3, epochs=3, batch_size=64, seed=6))
        assert len(net_builds) == 1 and net_builds[0] is result.net

    def test_epoch_memory_below_one_activation_array(self):
        rng = np.random.default_rng(2)
        inputs = rng.uniform(-2, 2, (100_000, 2))
        data = Dataset(inputs, np.sin(inputs).sum(axis=1), "memory")
        config = TrainConfig(hidden=8, epochs=1, seed=2)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train_backprop(data, config)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # 1 MiB, a sixth of one (size, hidden) float64 array, which the full-dataset
        # forward pass formed twice: the batches are gathered in place, so no
        # shuffled copy of the dataset (2.3 MiB here) is made
        assert peak < 2**20, f"peak traced memory {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize(
        "settings",
        [{"hidden": 0}, {"epochs": 0}, {"batch_size": 0}, {"learning_rate": 0.0}, {"seed": -1}],
        ids=["hidden", "epochs", "batch", "lr", "seed"],
    )
    def test_config_rejects_bad_settings(self, settings):
        with pytest.raises(ValueError):
            TrainConfig(**{"hidden": 2, **settings})


class TestDatasetCsv:
    def test_layout_and_round_trip_values(self, ou_coeffs):
        data = generate_dataset(ou_coeffs, [(-2.0, 2.0)], size=7, seed=8)
        lines = "".join(dataset_csv_text(data)).strip().splitlines()
        assert lines[0] == "x_1,target"
        assert len(lines) == 8
        first = lines[1].split(",")
        assert float(first[0]) == data.inputs[0, 0]
        assert float(first[1]) == data.targets[0]

    def test_text_bytes_of_the_per_row_writer(self):
        # the shared writer gives the sha256 of the join-per-row writer it replaced
        vdp = builtin_model("vdp", {"epsilon": 1.0, "nu11": 1.0, "nu22": 1.0})
        coeffs = solve_moment(vdp, axis=2, power=2, t=0.1, max_degree=10)
        labelled = generate_dataset(coeffs, [(-4.0, 4.0), (-4.0, 4.0)], size=3000, seed=5)
        special = np.array([[math.inf, math.nan], [-0.0, 5e-324], [-math.inf, 1e300], [0.1, -1e300]])
        finite = np.nan_to_num(special)  # a dataset rejects inf and nan: the largest floats and 0.0 instead
        cases = [(labelled.inputs, labelled.targets), (finite, finite[::-1, 1]), (finite[:, :1], finite[:, 0])]
        for inputs, targets in cases:
            got = "".join(dataset_csv_text(Dataset(inputs, targets, "")))
            want = reference_dataset_csv_text(inputs, targets)
            assert hashlib.sha256(got.encode()).hexdigest() == hashlib.sha256(want.encode()).hexdigest()
        # the writer's inf and nan cells, through the one table that holds them: blown paths' states
        blown = TrajectoryEnsemble(special, ~np.isfinite(special).all(axis=1), SimConfig(dt=0.1, horizon=0.0, paths=4))
        assert "".join(final_states_csv_text(blown)) == reference_states_csv_text(special)

    def test_text_matches_file(self, ou_coeffs, tmp_path):
        # the dataset file `sdembed train-baseline --dataset-out` writes is this text
        data = generate_dataset(ou_coeffs, [(-1.0, 1.0)], size=3, seed=9)
        path = tmp_path / "data.csv"
        coeffs = tmp_path / "ou.csv"
        coeffs.write_text("".join(coefficients_csv_text(ou_coeffs)))
        argv = "train-baseline --size 3 --box -1 1 --hidden 2 --epochs 1"
        outs = ["--data-seed", "9", "--dataset-out", str(path), "--out", str(tmp_path / "net.json")]
        assert main([*argv.split(), "--dual", str(coeffs), *outs]) == 0
        assert path.read_text() == "".join(dataset_csv_text(data))
