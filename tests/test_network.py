import json
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from helpers import fd_taylor_coefficients, scaled_max_error
from sdembed.network import (
    MAX_SIGMOID_ORDER,
    SigmoidNet,
    dict_to_net,
    flatten_params,
    forward,
    net_to_dict,
    network_taylor,
    read_network,
    sigmoid_derivatives,
    taylor_jacobian,
    unflatten_params,
    write_network,
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


class TestSigmoidDerivatives:
    def test_value_at_zero(self):
        table = sigmoid_derivatives(0)
        assert table.rationals[0] == Fraction(1, 2)

    def test_low_orders_exact(self):
        table = sigmoid_derivatives(3)
        assert table.rationals[1] == Fraction(1, 4)
        assert table.rationals[2] == 0
        assert table.rationals[3] == Fraction(-1, 8)

    def test_even_orders_vanish(self):
        table = sigmoid_derivatives(MAX_SIGMOID_ORDER)
        for k in range(2, MAX_SIGMOID_ORDER + 1, 2):
            assert table.rationals[k] == 0

    def test_odd_orders_alternate_in_sign(self):
        table = sigmoid_derivatives(MAX_SIGMOID_ORDER)
        for k in range(1, MAX_SIGMOID_ORDER + 1, 2):
            expected_sign = 1 if (k - 1) // 2 % 2 == 0 else -1
            assert math.copysign(1, table.floats[k]) == expected_sign

    @pytest.mark.parametrize("order", [1, 3, 5, 7])
    def test_matches_central_differences(self, order):
        table = sigmoid_derivatives(order)
        estimate = central_difference_sigmoid(order)
        assert estimate == pytest.approx(float(table.floats[order]), rel=1e-6)

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


class TestNetworkTaylor:
    def test_constant_node(self):
        net = SigmoidNet([1.0], [[0.0]], [0.0])
        coeffs = network_taylor(net, 5)
        assert coeffs.values[0] == 0.5
        assert np.array_equal(coeffs.values[1:], np.zeros(5))

    def test_unit_node_collapses_to_derivative_table(self):
        net = SigmoidNet([1.0], [[1.0]], [0.0])
        coeffs = network_taylor(net, 3)
        assert tuple(map(tuple, coeffs.index_set.tolist())) == ((0,), (1,), (2,), (3,))
        assert np.allclose(coeffs.values, [0.5, 0.25, 0.0, -1.0 / 48.0], rtol=1e-15)

    def test_index_set_is_the_cached_read_only_array(self):
        first = network_taylor(SigmoidNet([1.0, -0.5], [[0.3, 0.2], [0.1, -0.4]], [0.0, 0.2]), 4)
        second = network_taylor(SigmoidNet([2.0], [[1.0, 1.0]], [0.5]), 4)
        first, second = first.index_set, second.index_set
        assert first is second
        assert first.dtype == np.int64 and first.shape == (15, 2)
        assert not first.flags.writeable

    def test_linear_in_output_weights(self):
        rng = np.random.default_rng(1)
        net = random_net(rng, 3, 2)
        doubled = SigmoidNet(2.0 * net.out_weights, net.in_weights, net.biases)
        assert np.allclose(
            network_taylor(doubled, 4).values, 2.0 * network_taylor(net, 4).values, rtol=1e-15
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
            coeffs = network_taylor(net, order)
            exact = dict(zip(map(tuple, coeffs.index_set.tolist()), coeffs.values))
            assert scaled_max_error(fd, exact) < 1e-6

    def test_truncated_series_tracks_forward_near_origin(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            net = random_net(rng, int(rng.integers(1, 5)), int(rng.integers(1, 3)))
            coeffs = network_taylor(net, 8)
            pts = rng.uniform(-0.3, 0.3, (40, net.dim))
            series = np.zeros(len(pts))
            for index, value in zip(coeffs.index_set, coeffs.values):
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
            assert np.allclose(jac[:, i], network_taylor(solo, 4).values, rtol=1e-14)

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
                    acc += weight * network_taylor(
                        unflatten_params(bumped, hidden, dim), order
                    ).values
                fd[:, p] = acc / h
            scale = max(np.abs(jac).max(), 1e-12)
            assert np.abs(fd - jac).max() / scale < 1e-6

    def test_column_layout_matches_flattening(self):
        rng = np.random.default_rng(6)
        net = random_net(rng, 2, 2)
        jac = taylor_jacobian(net, 3)
        assert jac.shape == (len(network_taylor(net, 3).index_set), 2 * (2 + 2))


class TestParamsRoundTrip:
    def test_flatten_unflatten(self):
        rng = np.random.default_rng(7)
        net = random_net(rng, 3, 2)
        again = unflatten_params(flatten_params(net), 3, 2)
        assert np.array_equal(again.out_weights, net.out_weights)
        assert np.array_equal(again.in_weights, net.in_weights)
        assert np.array_equal(again.biases, net.biases)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            unflatten_params(np.zeros(7), 2, 2)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        net = random_net(rng, 4, 2, scale=3.0)
        path = tmp_path / "net.json"
        write_network(net, path)
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
