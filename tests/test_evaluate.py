import hashlib
import math

import numpy as np
import pytest

from helpers import reference_grid_csv_text, reference_profile_csv_text
from sdembed.evaluate import (
    RadialErrorProfile,
    analytic_ou_moment,
    grid_csv_text,
    grid_eval,
    profile_csv_text,
    radial_error_profile,
)


class TestAnalyticOuMoment:
    def test_first_moment_value(self):
        assert analytic_ou_moment(1.0, 1.0, 1.0, 1.0, 1) == pytest.approx(
            0.36787944117144233, rel=1e-15
        )

    def test_second_moment_value(self):
        assert analytic_ou_moment(1.0, 1.0, 0.0, 1.0, 2) == pytest.approx(
            0.43233235838169365, rel=1e-15
        )

    def test_time_zero_is_initial_power(self):
        for x0 in (-2.0, 0.5, 3.0):
            assert analytic_ou_moment(0.8, 1.3, x0, 0.0, 1) == x0
            assert analytic_ou_moment(0.8, 1.3, x0, 0.0, 2) == x0**2

    def test_vectorized_over_start_points(self):
        xs = np.linspace(-2, 2, 9)
        out = analytic_ou_moment(1.0, 1.0, xs, 1.0, 2)
        assert out.shape == xs.shape
        assert np.allclose(out, [analytic_ou_moment(1.0, 1.0, x, 1.0, 2) for x in xs])

    def test_rejects_unknown_power(self):
        with pytest.raises(ValueError):
            analytic_ou_moment(1.0, 1.0, 0.0, 1.0, 3)

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            analytic_ou_moment(0.0, 1.0, 0.0, 1.0, 1)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_rejects_bad_horizon(self, t):
        # a NaN horizon gave NaN moments and a negative one a negative variance
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            analytic_ou_moment(1.0, 1.0, 0.0, t, 2)


class TestGridEval:
    def test_constant_predictor(self):
        table = grid_eval(lambda p: np.full(len(p), 2.5), ((-1, 1), (-1, 1)), (3, 3))
        assert table.shape == (9, 3)
        assert np.all(table[:, 2] == 2.5)

    def test_coordinate_predictor_corners(self):
        table = grid_eval(lambda p: p[:, 0], ((0, 1), (0, 1)), (2, 2))
        assert np.array_equal(
            table,
            np.array([[0, 0, 0], [0, 1, 0], [1, 0, 1], [1, 1, 1]], dtype=float),
        )

    def test_row_major_ordering(self):
        table = grid_eval(lambda p: p[:, 1], ((0, 1), (0, 2)), (2, 3))
        assert np.array_equal(table[:3, 1], [0.0, 1.0, 2.0])
        assert np.all(table[:3, 0] == 0.0)

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            grid_eval(lambda p: p[:, 0], ((0, 1), (0, 1)), (1, 5))

    def test_three_dimensional_box(self):
        table = grid_eval(lambda p: p.sum(axis=1), ((0, 1), (0, 2), (0, 3)), (2, 3, 4))
        assert table.shape == (24, 4)
        assert np.array_equal(table[:4, :3], [[0, 0, 0], [0, 0, 1], [0, 0, 2], [0, 0, 3]])
        assert np.array_equal(table[:, 3], table[:, :3].sum(axis=1))

    def test_box_and_resolution_must_agree(self):
        with pytest.raises(ValueError, match="axes"):
            grid_eval(lambda p: p[:, 0], ((0, 1), (0, 1)), (3,))


class TestLineEval:
    # `eval --line` tabulates through grid_eval with a one-axis box
    def test_linear_function(self):
        table = grid_eval(lambda p: 3.0 * p[:, 0], [(-1.0, 1.0)], [5])
        assert table.shape == (5, 2)
        assert np.allclose(table[:, 1], 3.0 * table[:, 0])
        assert table[0, 0] == -1.0 and table[-1, 0] == 1.0


class TestRadialErrorProfile:
    def test_identical_functions_zero(self):
        f = lambda p: p[:, 0] ** 2 - p[:, 1]
        profile = radial_error_profile(f, f, 4.0, (20, 16))
        assert np.array_equal(profile.mse, np.zeros(20))

    def test_constant_offset(self):
        f = lambda p: np.zeros(len(p))
        g = lambda p: np.full(len(p), 0.25)
        profile = radial_error_profile(f, g, 4.0, (10, 8))
        assert np.allclose(profile.mse, 0.0625, rtol=1e-12)

    def test_symmetric_in_arguments(self):
        f = lambda p: p[:, 0] ** 2
        g = lambda p: p[:, 1]
        a = radial_error_profile(f, g, 3.0, (15, 12))
        b = radial_error_profile(g, f, 3.0, (15, 12))
        assert np.array_equal(a.mse, b.mse)

    def test_scaling_is_quadratic(self):
        f = lambda p: p[:, 0]
        g = lambda p: p[:, 0] + p[:, 1] ** 2
        base = radial_error_profile(f, g, 2.0, (12, 10))
        scaled = radial_error_profile(
            lambda p: 3.0 * f(p), lambda p: 3.0 * g(p), 2.0, (12, 10)
        )
        assert np.allclose(scaled.mse, 9.0 * base.mse, rtol=1e-12)

    def test_rotation_invariance_on_matching_mesh(self):
        quarter = math.pi / 2.0

        def f(p):
            return p[:, 0] ** 2 + 0.3 * p[:, 1]

        def g(p):
            return np.sin(p[:, 0]) + p[:, 1] ** 2

        def rotate(fn):
            cos, sin = math.cos(quarter), math.sin(quarter)

            def rotated(p):
                q = np.column_stack([cos * p[:, 0] + sin * p[:, 1], -sin * p[:, 0] + cos * p[:, 1]])
                return fn(q)

            return rotated

        base = radial_error_profile(f, g, 4.0, (25, 100))
        turned = radial_error_profile(rotate(f), rotate(g), 4.0, (25, 100))
        assert np.allclose(turned.mse, base.mse, rtol=1e-12)

    def test_band_mean_selects_by_center(self):
        profile = RadialErrorProfile(np.linspace(0, 4, 5), np.array([1.0, 2.0, 3.0, 4.0]))
        assert profile.band_mean(0.0, 1.0) == 1.0
        assert profile.band_mean(3.0, 4.0) == 4.0
        assert profile.band_mean(0.0, 4.0) == 2.5

    @pytest.mark.parametrize("side", ["predictor", "reference"])
    def test_non_finite_value_names_first_mesh_point(self, side):
        # NaN at ring 2 (radius 2.5), angle 0 of a (4, 4) mesh of radius 4, and at a later point
        def holed(p):
            out = p[:, 0] + p[:, 1]
            out[[2 * 4, 3 * 4 + 1]] = math.nan
            return out

        f = lambda p: p[:, 0] + p[:, 1]
        pair = (holed, f) if side == "predictor" else (f, holed)
        with pytest.raises(ValueError, match=rf"mesh point \(2\.5, 0\.0\): .*{side} nan"):
            radial_error_profile(*pair, 4.0, (4, 4))

    def test_mesh_validation(self):
        f = lambda p: np.zeros(len(p))
        with pytest.raises(ValueError):
            radial_error_profile(f, f, 0.0, (10, 10))
        with pytest.raises(ValueError):
            radial_error_profile(f, f, 1.0, (1, 10))


class TestCsvFormats:
    def test_grid_csv_round_trips(self):
        table = grid_eval(lambda p: p[:, 0] * p[:, 1], ((0, 1), (0, 1)), (3, 3))
        text = "".join(grid_csv_text(table))
        lines = text.strip().splitlines()
        assert lines[0] == "x1,x2,value"
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(parsed, table)

    def test_line_csv(self):
        table = grid_eval(lambda p: p[:, 0] ** 2, [(0.0, 2.0)], [3])
        lines = "".join(grid_csv_text(table)).strip().splitlines()
        assert lines[0] == "x,value"
        assert [float(v) for v in lines[2].split(",")] == [1.0, 1.0]

    def test_tables_keep_the_bytes_of_the_per_mode_tabulators(self):
        # the text the former line_eval/line_csv_text and 2-D grid_eval/grid_csv_text wrote
        line = "".join(grid_csv_text(grid_eval(lambda p: np.exp(-p[:, 0]), [(-1.0, 1.0)], [4])))
        assert line == (
            "x,value\n-1.0,2.718281828459045\n-0.33333333333333337,1.3956124250860895\n"
            "0.33333333333333326,0.7165313105737893\n1.0,0.36787944117144233\n"
        )
        grid = "".join(grid_csv_text(grid_eval(lambda p: p[:, 0] - p[:, 1] / 3, ((0, 1), (-1, 1)), (2, 3))))
        assert grid == (
            "x1,x2,value\n0.0,-1.0,0.3333333333333333\n0.0,0.0,0.0\n0.0,1.0,-0.3333333333333333\n"
            "1.0,-1.0,1.3333333333333333\n1.0,0.0,1.0\n1.0,1.0,0.6666666666666667\n"
        )

    def test_grid_text_bytes_of_the_per_row_writer(self):
        # the one-template writer gives the sha256 of the join-per-row writer it replaced
        tables = [
            grid_eval(lambda p: np.exp(p[:, 0]) * np.sin(3 * p[:, 1]), ((-2, 2), (-2, 2)), (101, 101)),
            grid_eval(lambda p: 1 / p[:, 0], [(-1.0, 1.0)], [4]),
            grid_eval(lambda p: p.sum(axis=1) * 1e300, ((0, 1), (0, 1), (-1, 1)), (3, 4, 5)),
            np.array([[-0.0, math.nan], [5e-324, -math.inf], [math.inf, 1e300]]),
            np.empty((0, 3)),
        ]
        for table in tables:
            got, want = "".join(grid_csv_text(table)), reference_grid_csv_text(table)
            assert hashlib.sha256(got.encode()).hexdigest() == hashlib.sha256(want.encode()).hexdigest()

    def test_profile_text_bytes_of_the_per_row_writer(self):
        # the shared writer gives the sha256 of the f-string-per-ring writer it replaced
        wave = radial_error_profile(lambda p: np.sin(3 * p[:, 0]), lambda p: p[:, 1] ** 2, 4.0, (100, 30))
        profiles = [
            wave,
            RadialErrorProfile([-math.inf, -0.0, 5e-324, 1e300, math.inf], [math.nan, -0.0, math.inf, 5e-324]),
            RadialErrorProfile([0.0], []),
        ]
        for profile in profiles:
            got = "".join(profile_csv_text(profile))
            want = reference_profile_csv_text(profile.band_edges, profile.mse)
            assert hashlib.sha256(got.encode()).hexdigest() == hashlib.sha256(want.encode()).hexdigest()

    def test_profile_csv(self):
        profile = RadialErrorProfile(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.125]))
        lines = "".join(profile_csv_text(profile)).strip().splitlines()
        assert lines[0] == "r_lo,r_hi,mse"
        assert lines[1] == "0.0,1.0,0.5"
        assert lines[2] == "1.0,2.0,0.125"
