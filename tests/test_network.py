import json
import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from helpers import (
    expit,
    fd_taylor_coefficients,
    flatten_params,
    multinomial,
    reference_taylor_expansion,
    scaled_max_error,
    taylor_terms,
)
from sdembed.network import (
    MAX_SIGMOID_ORDER,
    _expansion,
    SigmoidNet,
    dict_to_net,
    forward,
    net_to_dict,
    network_taylor,
    param_views,
    read_network,
    sigmoid,
    sigmoid_derivatives,
    taylor_jacobian,
)


def random_net(rng, hidden, dim, scale=0.5, zero_bias=False):
    return SigmoidNet(
        rng.uniform(-scale, scale, hidden),
        rng.uniform(-scale, scale, (hidden, dim)),
        np.zeros(hidden) if zero_bias else rng.uniform(-scale, scale, hidden),
    )


def central_difference_sigmoid(order, h="1e-5", dps=60):
    """Plain central difference quotient of the sigmoid at 0, evaluated in
    extended precision so the quotient itself is the only approximation."""
    with mp.workdps(dps):
        h = mp.mpf(h)
        acc = mp.mpf(0)
        for j in range(order + 1):
            x = (mp.mpf(order) / 2 - j) * h
            acc += (-1) ** j * mp.binomial(order, j) / (1 + mp.e**-x)
        return float(acc / h**order)


class TestSigmoid:
    def test_matches_expit(self):
        # 5.1e-16 relative where expit's value is a normal float, one subnormal step below
        rng = np.random.default_rng(0)
        z = np.concatenate([rng.normal(scale=8.0, size=500_000), rng.uniform(-760.0, 40.0, 500_000)])
        got, want = sigmoid(z), expit(z)
        assert np.all(np.abs(got - want) <= np.maximum(5.1e-16 * want, np.finfo(float).smallest_subnormal))

    def test_limits_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid(np.array([-np.inf, np.inf, np.nan, -800.0, 800.0, 0.0]))
        assert got[[0, 1, 3, 4, 5]].tolist() == [0.0, 1.0, 0.0, 1.0, 0.5] and np.isnan(got[2])


class TestSigmoidDerivatives:
    def test_value_at_zero(self):
        assert sigmoid_derivatives(0) == (Fraction(1, 2),)

    def test_low_orders_exact(self):
        table = sigmoid_derivatives(3)
        assert table[1] == Fraction(1, 4)
        assert table[2] == 0
        assert table[3] == Fraction(-1, 8)

    def test_even_orders_vanish(self):
        table = sigmoid_derivatives(MAX_SIGMOID_ORDER)
        for k in range(2, MAX_SIGMOID_ORDER + 1, 2):
            assert table[k] == 0

    def test_odd_orders_alternate_in_sign(self):
        table = sigmoid_derivatives(MAX_SIGMOID_ORDER)
        for k in range(1, MAX_SIGMOID_ORDER + 1, 2):
            expected_sign = 1 if (k - 1) // 2 % 2 == 0 else -1
            assert math.copysign(1, float(table[k])) == expected_sign

    @pytest.mark.parametrize("order", [1, 3, 5, 7])
    def test_matches_central_differences(self, order):
        table = sigmoid_derivatives(order)
        estimate = central_difference_sigmoid(order)
        assert estimate == pytest.approx(float(table[order]), rel=1e-6)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sigmoid_derivatives(MAX_SIGMOID_ORDER + 1)
        with pytest.raises(ValueError):
            sigmoid_derivatives(-1)


class TestForward:
    def test_zero_output_weights(self):
        net = SigmoidNet([0.0, 0.0], [[1.0], [2.0]], [0.3, -0.4])
        for x in (-3.0, 0.0, 2.5):
            assert forward(net, [x]) == 0.0

    def test_sigmoid_at_zero(self):
        net = SigmoidNet([1.0], [[0.0]], [0.0])
        assert forward(net, [5.0]) == 0.5

    def test_single_node_value(self):
        net = SigmoidNet([1.0], [[1.0]], [0.0])
        assert forward(net, [1.0]) == pytest.approx(0.7310585786300049, rel=1e-15)

    def test_large_arguments_stable(self):
        net = SigmoidNet([1.0], [[700.0]], [0.0])
        assert forward(net, [1.0]) == 1.0
        assert forward(net, [-1.0]) == pytest.approx(0.0, abs=1e-300)
        assert math.isfinite(forward(net, [-1.0]))

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(0)
        net = random_net(rng, 3, 2)
        pts = rng.uniform(-1, 1, (11, 2))
        batched = forward(net, pts)
        assert np.allclose(batched, [forward(net, p) for p in pts], rtol=1e-15)

    def test_dimension_check(self):
        net = SigmoidNet([1.0], [[1.0, 2.0]], [0.0])
        with pytest.raises(ValueError):
            forward(net, [1.0])

    def test_batch_over_several_row_blocks_keeps_its_shape(self):
        rng = np.random.default_rng(1)
        net = random_net(rng, 4, 2)
        pts = rng.uniform(-2, 2, (3, 1500, 2))  # 4500 rows: three blocks of 2048 at hidden 4
        direct = expit(pts @ net.in_weights.T + net.biases) @ net.out_weights
        batched = forward(net, pts)
        assert batched.shape == (3, 1500)
        np.testing.assert_allclose(batched, direct, rtol=1e-14)


class TestNetworkTaylor:
    def test_constant_node(self):
        net = SigmoidNet([1.0], [[0.0]], [0.0])
        values = network_taylor(net, 5)
        assert values[0] == 0.5
        assert np.array_equal(values[1:], np.zeros(5))

    def test_unit_node_collapses_to_derivative_table(self):
        net = SigmoidNet([1.0], [[1.0]], [0.0])
        values = network_taylor(net, 3)
        assert values.shape == (4,)
        assert np.allclose(values, [0.5, 0.25, 0.0, -1.0 / 48.0], rtol=1e-15)

    def test_linear_in_output_weights(self):
        rng = np.random.default_rng(1)
        net = random_net(rng, 3, 2)
        doubled = SigmoidNet(2.0 * net.out_weights, net.in_weights, net.biases)
        assert np.allclose(
            network_taylor(doubled, 4), 2.0 * network_taylor(net, 4), rtol=1e-15
        )

    def test_matches_finite_differences_zero_bias(self):
        # with zero biases the order-N truncation equals the true Taylor
        # coefficients, so tensorized FD is an exact-target oracle
        rng = np.random.default_rng(2)
        for _ in range(20):
            hidden = int(rng.integers(1, 5))
            dim = int(rng.integers(1, 3))
            order = int(rng.integers(2, 6))
            net = random_net(rng, hidden, dim, zero_bias=True)
            fd = fd_taylor_coefficients(lambda x: forward(net, x), dim, order)
            assert scaled_max_error(fd, taylor_terms(net, order)) < 1e-6

    def test_matches_the_documented_formula_in_exact_arithmetic(self):
        # the module docstring's T(l), summed in rationals term by term;
        # dyadic weights make every Fraction(weight) exact
        order = 7
        net = SigmoidNet(
            [0.75, -1.25, 0.5], [[0.5, -0.25], [-0.375, 1.0], [0.125, 0.625]], [0.25, -0.5, 0.0]
        )
        q = [Fraction(v) for v in net.out_weights.tolist()]
        r = [[Fraction(v) for v in row] for row in net.in_weights.tolist()]
        s = [Fraction(v) for v in net.biases.tolist()]
        rationals = sigmoid_derivatives(order)
        approx = taylor_terms(net, order)
        exact = {}
        for l in approx:
            deg, total = sum(l), Fraction(0)
            for k in range(deg, order + 1):
                factor = multinomial(k, [*l, k - deg]) * rationals[k] / math.factorial(k)
                total += factor * sum(
                    q[i] * math.prod(w**e for w, e in zip(r[i], l)) * s[i] ** (k - deg)
                    for i in range(net.hidden)
                )
            exact[l] = float(total)
        assert scaled_max_error(approx, exact) < 1e-14

    def test_truncated_series_tracks_forward_near_origin(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            net = random_net(rng, int(rng.integers(1, 5)), int(rng.integers(1, 3)))
            pts = rng.uniform(-0.3, 0.3, (40, net.dim))
            series = np.zeros(len(pts))
            for index, value in taylor_terms(net, 8).items():
                series += value * np.prod(pts ** np.array(index), axis=1)
            assert np.max(np.abs(series - forward(net, pts))) < 1e-6


class TestTaylorJacobian:
    def test_output_weight_columns_are_per_node_coefficients(self):
        rng = np.random.default_rng(4)
        net = random_net(rng, 3, 2)
        jac = taylor_jacobian(net, 4)
        for i in range(net.hidden):
            solo = SigmoidNet(
                np.eye(net.hidden)[i], net.in_weights, net.biases
            )
            assert np.allclose(jac[:, i], network_taylor(solo, 4), rtol=1e-14)

    def test_all_zero_net_bias_gradient(self):
        net = SigmoidNet([0.0, 0.0], [[0.0], [0.0]], [0.0, 0.0])
        jac = taylor_jacobian(net, 3)
        constant_row = jac[0]
        for i in range(2):
            assert constant_row[i] == 0.5  # d/d out_weights
        assert np.array_equal(constant_row[2:], np.zeros(4))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        stencil = ((-2, 1.0 / 12.0), (-1, -8.0 / 12.0), (1, 8.0 / 12.0), (2, -1.0 / 12.0))
        for _ in range(20):
            hidden = int(rng.integers(1, 5))
            dim = int(rng.integers(1, 3))
            order = int(rng.integers(2, 6))
            net = random_net(rng, hidden, dim)
            jac = taylor_jacobian(net, order)
            theta = flatten_params(net)
            h = 1e-3
            fd = np.zeros_like(jac)
            for p in range(theta.size):
                acc = np.zeros(jac.shape[0])
                for mult, weight in stencil:
                    bumped = theta.copy()
                    bumped[p] += mult * h
                    acc += weight * network_taylor(param_views(bumped, hidden, dim), order)
                fd[:, p] = acc / h
            scale = max(np.abs(jac).max(), 1e-12)
            assert np.abs(fd - jac).max() / scale < 1e-6

    def test_column_layout_matches_flattening(self):
        rng = np.random.default_rng(6)
        net = random_net(rng, 2, 2)
        jac = taylor_jacobian(net, 3)
        assert jac.shape == (len(network_taylor(net, 3)), 2 * (2 + 2))


class TestMatchesPowerReference:
    """The expansion, built from `power_table`'s repeated products, against the
    `np.power` formulation it replaced, within 1e-13 of each entry's scale."""

    @pytest.mark.parametrize("seed", range(24))
    def test_random_weights(self, seed):
        rng = np.random.default_rng([11, seed])
        dim, hidden, order = 1 + seed % 3, int(rng.integers(1, 9)), int(rng.integers(0, MAX_SIGMOID_ORDER + 1))
        spread = (0.5, 1.5, 3.0)[seed // 3 % 3]  # weights beyond 1 in magnitude for two of three
        params = (rng.uniform(-spread, spread, hidden), rng.uniform(-spread, spread, (hidden, dim)),
                  rng.uniform(-spread, spread, hidden))
        taylor, jac = reference_taylor_expansion(params, order)
        taylor_scale, jac_scale = reference_taylor_expansion(params, order, magnitude=True)
        got_taylor, got_jac = network_taylor(params, order), taylor_jacobian(params, order)
        assert got_jac.shape == jac.shape
        assert np.all(np.abs(got_taylor - taylor) <= 1e-13 * taylor_scale)
        assert np.all(np.abs(got_jac - jac) <= 1e-13 * jac_scale)


class TestExpansionCache:
    def test_jacobian_at_the_last_weights_reuses_their_expansion(self):
        net = random_net(np.random.default_rng(12), 3, 2)
        _expansion.cache_clear()
        network_taylor(net, 6)
        taylor_jacobian(net, 6)
        info = _expansion.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        moved = SigmoidNet(net.out_weights, net.in_weights, net.biases + 0.25)
        taylor_jacobian(moved, 6)
        assert _expansion.cache_info().misses == 2

    def test_output_weights_are_not_part_of_the_key(self):
        net = random_net(np.random.default_rng(13), 3, 2)
        doubled = SigmoidNet(2.0 * net.out_weights, net.in_weights, net.biases)
        _expansion.cache_clear()
        assert np.array_equal(network_taylor(doubled, 5), network_taylor(net, 5) * 2.0)
        assert _expansion.cache_info().hits == 1

    def test_cached_arrays_are_read_only(self):
        net = random_net(np.random.default_rng(14), 2, 3)
        expansion = _expansion(net.in_weights.tobytes(), net.biases.tobytes(), 3, 4)
        for array in (*expansion[0], *expansion[1:]):
            assert not array.flags.writeable
        # what the callers return is their own
        assert network_taylor(net, 4).flags.writeable and taylor_jacobian(net, 4).flags.writeable


class TestParamsRoundTrip:
    def test_flatten_unflatten(self):
        rng = np.random.default_rng(7)
        net = random_net(rng, 3, 2)
        again = SigmoidNet(*param_views(flatten_params(net), 3, 2))
        assert np.array_equal(again.out_weights, net.out_weights)
        assert np.array_equal(again.in_weights, net.in_weights)
        assert np.array_equal(again.biases, net.biases)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            SigmoidNet(*param_views(np.zeros(7), 2, 2))

    @pytest.mark.parametrize(
        "apply",
        [
            lambda params: forward(params, np.linspace(-2, 2, 10_000).reshape(5_000, 2)),
            lambda params: network_taylor(params, 5),
            lambda params: taylor_jacobian(params, 5),
        ],
        ids=["forward", "network_taylor", "taylor_jacobian"],
    )
    def test_record_and_weight_views_agree_bit_for_bit(self, apply):
        net = random_net(np.random.default_rng(9), 4, 2)
        views = param_views(flatten_params(net), 4, 2)
        assert np.array_equal(apply(net), apply(views))


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        net = random_net(rng, 4, 2, scale=3.0)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(net_to_dict(net)) + "\n")
        again = read_network(path)
        assert np.array_equal(again.out_weights, net.out_weights)
        assert np.array_equal(again.in_weights, net.in_weights)
        assert np.array_equal(again.biases, net.biases)

    def test_wire_format_keys(self):
        net = SigmoidNet([1.0], [[2.0]], [3.0])
        doc = net_to_dict(net)
        assert set(doc) == {"hidden", "dim", "q", "R", "s"}
        assert doc["hidden"] == 1 and doc["dim"] == 1

    def test_reads_fit_result_documents(self, tmp_path):
        net = SigmoidNet([1.0, -1.0], [[0.5], [0.25]], [0.0, 0.1])
        path = tmp_path / "fit.json"
        path.write_text(json.dumps({"network": net_to_dict(net), "cost": 0.0}))
        again = read_network(path)
        assert np.array_equal(again.out_weights, net.out_weights)

    def test_inconsistent_shape_fields(self):
        with pytest.raises(ValueError):
            dict_to_net({"hidden": 3, "dim": 1, "q": [1.0], "R": [[1.0]], "s": [0.0]})

    def test_nonfinite_weights_rejected(self):
        with pytest.raises(ValueError):
            SigmoidNet([math.inf], [[1.0]], [0.0])
