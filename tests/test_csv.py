"""The CSV tables as the CLI writes them: every writer yields its text in
chunks of `_CSV_ROWS` rows, and `_Run.write_output` streams the chunks into
the atomic temp file, so no whole-file text is built."""

import argparse
import hashlib
import tracemalloc

import numpy as np
import pytest

from helpers import (
    reference_coefficients_csv_text,
    reference_dataset_csv_text,
    reference_grid_csv_text,
    reference_profile_csv_text,
    reference_states_csv_text,
)
from sdembed import cli
from sdembed.baseline import Dataset, dataset_csv_text
from sdembed.dual import DualCoefficients, coefficients_csv_text
from sdembed.evaluate import RadialErrorProfile, grid_csv_text, profile_csv_text
from sdembed.mc import SimConfig, TrajectoryEnsemble, final_states_csv_text, simulate
from sdembed.polynomial import _CSV_ROWS
from sdembed.sde import builtin_model

SPECIAL = [-0.0, 5e-324, 1e300, -1e300]
CONFIG = SimConfig(dt=0.1, horizon=0.1, paths=1)


def _floats(rows, cols=None):
    """Floats of many magnitudes, the special values first and last."""
    rng = np.random.default_rng(rows)
    shape = (rows,) if cols is None else (rows, cols)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    flat = values.reshape(-1)
    flat[: len(SPECIAL)] = SPECIAL[: flat.size]
    flat[-len(SPECIAL) :] = SPECIAL[-min(flat.size, len(SPECIAL)) :]
    return values


def _states(rows):
    final = _floats(rows, 2)
    record = TrajectoryEnsemble(final, np.zeros(rows, bool), CONFIG)
    return final_states_csv_text(record), reference_states_csv_text(final)


def _grid(rows):
    table = _floats(rows, 3)
    return grid_csv_text(table), reference_grid_csv_text(table)


def _coefficients(rows):
    # integer exponents up to 2**62, which no float holds exactly
    index_set = [[k] for k in range(rows - 1)] + [[2**62]]
    values = _floats(rows)
    want = reference_coefficients_csv_text(index_set, values)
    return coefficients_csv_text(DualCoefficients(index_set, values, t=0.0)), want


def _profile(rows):
    edges = np.append(np.concatenate([[-1e300, -0.0, 5e-324], 1.0 + 0.37 * np.arange(rows)])[:rows], 1e300)
    mse = np.abs(_floats(rows))
    mse[:2] = [-0.0, 5e-324][:rows]
    profile = RadialErrorProfile(edges, mse)
    return profile_csv_text(profile), reference_profile_csv_text(profile.band_edges, profile.mse)


def _dataset(rows):
    inputs, targets = _floats(rows, 2), _floats(rows)
    return dataset_csv_text(Dataset(inputs, targets, "")), reference_dataset_csv_text(inputs, targets)


@pytest.mark.parametrize("rows", [1, _CSV_ROWS - 1, _CSV_ROWS, _CSV_ROWS + 1, 2 * _CSV_ROWS + 3])
@pytest.mark.parametrize("writer", [_states, _grid, _coefficients, _profile, _dataset],
                         ids=["states", "grid", "coefficients", "profile", "dataset"])
def test_chunks_join_to_the_per_row_writer_bytes(writer, rows):
    chunks, want = writer(rows)
    chunks = list(chunks)
    # the header line, then full chunks of _CSV_ROWS rows and one last partial one
    full, rest = divmod(rows, _CSV_ROWS)
    assert [chunk.count("\n") for chunk in chunks] == [1] + [_CSV_ROWS] * full + [rest] * (rest > 0)
    got = "".join(chunks)
    assert hashlib.sha256(got.encode()).hexdigest() == hashlib.sha256(want.encode()).hexdigest()


def test_raising_chunks_leave_the_target_untouched(tmp_path):
    target = tmp_path / "states.csv"
    target.write_text("previous\n")
    run = cli._Run(argparse.Namespace(command="mc"))

    def chunks():
        yield "path,x_1\n"
        yield "0,1.0\n" * _CSV_ROWS
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        run.write_output(target, chunks())
    assert target.read_text() == "previous\n"
    assert list(tmp_path.iterdir()) == [target]
    assert run.manifest["outputs"] == []


def test_states_csv_streams_in_bounded_memory(tmp_path):
    """Writing 100k paths' states holds one chunk's cells and text at a time,
    not the whole file's (about 17 MB traced when the text is built whole)."""
    config = SimConfig(dt=0.001, horizon=0.001, paths=100_000, seed=3)
    ensemble = simulate(builtin_model("vdp"), [1.0, 1.0], config)
    run = cli._Run(argparse.Namespace(command="mc"))
    out = tmp_path / "states.csv"
    tracemalloc.start()
    try:
        run.write_output(out, final_states_csv_text(ensemble))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak traced memory {peak / 2**20:.1f} MB"
    assert out.read_text() == reference_states_csv_text(ensemble.final)


def test_input_hash_over_several_blocks(tmp_path):
    data = np.random.default_rng(5).bytes(3 * cli._HASH_BLOCK + 7)
    path = tmp_path / "input.bin"
    path.write_bytes(data)
    run = cli._Run(argparse.Namespace(command="fit"))
    assert run.input_file(path, "input") == path
    assert run.manifest["input_hashes"] == {str(path): hashlib.sha256(data).hexdigest()}
