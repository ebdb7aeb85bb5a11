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
    reference_own_expansion,
    reference_taylor_expansion,
    scaled_max_error,
    sigmoid_derivative,
    taylor_terms,
)
from sdembed.network import (
    MAX_SIGMOID_ORDER,
    SigmoidNet,
    _sigmoid_polynomials,
    dict_to_net,
    forward,
    net_to_dict,
    network_taylor,
    param_views,
    read_network,
    sigmoid,
    taylor_jacobian,
)
from sdembed.polynomial import multi_index_set


def random_net(rng, hidden, dim, scale=0.5, zero_bias=False):
    return SigmoidNet(
        rng.uniform(-scale, scale, hidden),
        rng.uniform(-scale, scale, (hidden, dim)),
        np.zeros(hidden) if zero_bias else rng.uniform(-scale, scale, hidden),
    )


def derivatives_at_zero(order):
    """sigmoid^(k)(0) for k = 0..order, exact: the constant term of the integer
    polynomial 2^(k+1) p_k over 2^(k+1)."""
    return [Fraction(poly[0], 2 ** (k + 1)) for k, poly in enumerate(_sigmoid_polynomials(order))]


def one_node(bias):
    """The 1-D net sigmoid(x + bias): its coefficient T*(n) is sigmoid^(n)(bias) / n!."""
    return SigmoidNet([1.0], [[1.0]], [bias])


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
        assert derivatives_at_zero(0) == [Fraction(1, 2)]

    def test_low_orders_exact(self):
        table = derivatives_at_zero(3)
        assert table[1] == Fraction(1, 4)
        assert table[2] == 0
        assert table[3] == Fraction(-1, 8)

    def test_even_orders_vanish(self):
        table = derivatives_at_zero(MAX_SIGMOID_ORDER)
        for k in range(2, MAX_SIGMOID_ORDER + 1, 2):
            assert table[k] == 0

    def test_odd_orders_alternate_in_sign(self):
        table = derivatives_at_zero(MAX_SIGMOID_ORDER)
        for k in range(1, MAX_SIGMOID_ORDER + 1, 2):
            expected_sign = 1 if (k - 1) // 2 % 2 == 0 else -1
            assert math.copysign(1, float(table[k])) == expected_sign

    @pytest.mark.parametrize("order", [1, 3, 5, 7])
    def test_matches_central_differences(self, order):
        table = derivatives_at_zero(order)
        estimate = central_difference_sigmoid(order)
        assert estimate == pytest.approx(float(table[order]), rel=1e-6)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            network_taylor(one_node(0.0), MAX_SIGMOID_ORDER + 1)
        with pytest.raises(ValueError):
            network_taylor(one_node(0.0), -1)


class TestSigmoidDerivativesAt:
    def test_matches_mpmath_to_order_21(self):
        # sigma^(n)(b) = n! T*(n) of the one-node net for n <= 20, and sigma^(21)(b)
        # = 20! dT*(20)/db from its bias column; the Stirling form summed at 50 digits
        # is the reference.  The same recurrence in sigmoid(b) instead of tanh(b/2)
        # misses by 5e-3 at n = 21
        points = np.linspace(-6.0, 6.0, 49)
        got = np.empty((22, 49))
        for col, b in enumerate(points.tolist()):
            expansion = network_taylor(one_node(b), 20)
            got[:21, col] = expansion.coefficients * [math.factorial(n) for n in range(21)]
            got[21, col] = taylor_jacobian(expansion)[20, 2] * math.factorial(20)
        with mp.workdps(50):
            sigmas = [1 / (1 + mp.exp(-mp.mpf(b))) for b in points.tolist()]
            for n in range(22):
                want = [sigmoid_derivative(n, s) for s in sigmas]
                peak = max(map(abs, want))
                worst = max(abs(g - w) for g, w in zip(got[n].tolist(), want))
                assert worst <= 1e-9 * peak, (n, float(worst / peak))

    def test_at_zero_the_rational_table(self):
        # at b = 0 only p_n's constant term is left: each coefficient is sigma^(n)(0) / n!, rounded once
        got = network_taylor(one_node(0.0), 12).coefficients
        assert got.tolist() == [float(d / math.factorial(n)) for n, d in enumerate(derivatives_at_zero(12))]


class TestOwnTaylorCoefficients:
    def test_equal_the_expansion_at_zero_biases(self):
        # the paper's series truncated in x and b together is the network's own at b = 0
        rng = np.random.default_rng(4)
        for dim, order in ((1, 9), (2, 7), (3, 4)):
            net = random_net(rng, 4, dim, zero_bias=True)
            own = network_taylor(net, order).coefficients
            assert np.allclose(own, reference_taylor_expansion(net, order), rtol=1e-14, atol=1e-16)

    def test_match_finite_differences_at_nonzero_biases(self):
        # where the series truncated in b too is not the network's coefficient
        rng = np.random.default_rng(5)
        for _ in range(10):
            net = random_net(rng, int(rng.integers(1, 5)), int(rng.integers(1, 3)))
            net = SigmoidNet(net.out_weights, net.in_weights, 4 * net.biases)
            own = network_taylor(net, 5).coefficients
            fd = fd_taylor_coefficients(lambda x: forward(net, x), net.dim, 5)
            keys = map(tuple, multi_index_set(net.dim, 5, "total-degree").tolist())
            assert scaled_max_error(fd, dict(zip(keys, own.tolist()))) < 1e-6

    def test_constant_term_is_forward_at_the_origin(self):
        net = SigmoidNet([0.75, -1.5], [[0.5, 1.0], [-0.25, 2.0]], [2.5, -3.0])
        own = network_taylor(net, 6).coefficients
        assert own[0] == pytest.approx(forward(net, [0.0, 0.0]), rel=1e-15)


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
        values = network_taylor(net, 5).coefficients
        assert values[0] == 0.5
        assert np.array_equal(values[1:], np.zeros(5))

    def test_unit_node_collapses_to_derivative_table(self):
        net = SigmoidNet([1.0], [[1.0]], [0.0])
        values = network_taylor(net, 3).coefficients
        assert values.shape == (4,)
        assert np.allclose(values, [0.5, 0.25, 0.0, -1.0 / 48.0], rtol=1e-15)

    def test_linear_in_output_weights(self):
        rng = np.random.default_rng(1)
        net = random_net(rng, 3, 2)
        doubled = SigmoidNet(2.0 * net.out_weights, net.in_weights, net.biases)
        assert np.allclose(
            network_taylor(doubled, 4).coefficients, 2.0 * network_taylor(net, 4).coefficients, rtol=1e-15
        )

    def test_matches_finite_differences_zero_bias(self):
        # tensorized FD of the network itself is an exact-target oracle
        rng = np.random.default_rng(2)
        for _ in range(20):
            hidden = int(rng.integers(1, 5))
            dim = int(rng.integers(1, 3))
            order = int(rng.integers(2, 6))
            net = random_net(rng, hidden, dim, zero_bias=True)
            fd = fd_taylor_coefficients(lambda x: forward(net, x), dim, order)
            assert scaled_max_error(fd, taylor_terms(net, order)) < 1e-6

    def test_matches_the_documented_formula_in_exact_arithmetic(self):
        # the module docstring's T*(l), summed in rationals term by term at the
        # sigmoid values (1 + w_i) / 2 of the float w_i = tanh(b_i / 2) the expansion
        # reads; dyadic weights make every Fraction(weight) exact
        order = 7
        net = SigmoidNet(
            [0.75, -1.25, 0.5], [[0.5, -0.25], [-0.375, 1.0], [0.125, 0.625]], [0.25, -0.5, 0.0]
        )
        q = [Fraction(v) for v in net.out_weights.tolist()]
        r = [[Fraction(v) for v in row] for row in net.in_weights.tolist()]
        sigmas = [(1 + Fraction(w)) / 2 for w in np.tanh(net.biases / 2).tolist()]
        approx = taylor_terms(net, order)
        exact = {}
        for l in approx:
            lfact = math.prod(map(math.factorial, l))
            exact[l] = float(sum(
                q[i] * math.prod(w**e for w, e in zip(r[i], l)) * sigmoid_derivative(sum(l), sigmas[i]) / lfact
                for i in range(net.hidden)
            ))
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
        jac = taylor_jacobian(network_taylor(net, 4))
        for i in range(net.hidden):
            solo = SigmoidNet(
                np.eye(net.hidden)[i], net.in_weights, net.biases
            )
            assert np.allclose(jac[:, i], network_taylor(solo, 4).coefficients, rtol=1e-14)

    def test_all_zero_net_bias_gradient(self):
        net = SigmoidNet([0.0, 0.0], [[0.0], [0.0]], [0.0, 0.0])
        jac = taylor_jacobian(network_taylor(net, 3))
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
            jac = taylor_jacobian(network_taylor(net, order))
            theta = flatten_params(net)
            h = 1e-3
            fd = np.zeros_like(jac)
            for p in range(theta.size):
                acc = np.zeros(jac.shape[0])
                for mult, weight in stencil:
                    bumped = theta.copy()
                    bumped[p] += mult * h
                    acc += weight * network_taylor(param_views(bumped, hidden, dim), order).coefficients
                fd[:, p] = acc / h
            scale = max(np.abs(jac).max(), 1e-12)
            assert np.abs(fd - jac).max() / scale < 1e-6

    def test_column_layout_matches_flattening(self):
        rng = np.random.default_rng(6)
        net = random_net(rng, 2, 2)
        jac = taylor_jacobian(network_taylor(net, 3))
        assert jac.shape == (len(network_taylor(net, 3).coefficients), 2 * (2 + 2))


class TestMatchesPowerReference:
    """The expansion, built from `power_table`'s repeated products and the tanh(b/2)
    polynomials, against T* from `np.power` weight powers and sigmoid derivatives summed
    at 60 digits, within 1e-13 of each entry's scale."""

    @pytest.mark.parametrize("seed", range(24))
    def test_random_weights(self, seed):
        rng = np.random.default_rng([11, seed])
        dim, hidden, order = 1 + seed % 3, int(rng.integers(1, 9)), int(rng.integers(0, MAX_SIGMOID_ORDER + 1))
        spread = (0.5, 1.5, 3.0)[seed // 3 % 3]  # weights beyond 1 in magnitude for two of three
        params = (rng.uniform(-spread, spread, hidden), rng.uniform(-spread, spread, (hidden, dim)),
                  rng.uniform(-spread, spread, hidden))
        taylor, jac = reference_own_expansion(params, order)
        taylor_scale, jac_scale = reference_own_expansion(params, order, magnitude=True)
        expansion = network_taylor(params, order)
        got_taylor, got_jac = expansion.coefficients, taylor_jacobian(expansion)
        assert got_jac.shape == jac.shape
        assert np.all(np.abs(got_taylor - taylor) <= 1e-13 * taylor_scale)
        assert np.all(np.abs(got_jac - jac) <= 1e-13 * jac_scale)


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
            lambda params: network_taylor(params, 5).coefficients,
            lambda params: taylor_jacobian(network_taylor(params, 5)),
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

    def test_file_errors_start_with_the_path(self, tmp_path):
        # truncated JSON, undecodable bytes and a bad document alike
        path = tmp_path / "net.json"
        for data in (b'{"q": [1.0], "R": [[', b'{"q": [\xff]}', b'{"q": [1.0]}'):
            path.write_bytes(data)
            with pytest.raises(ValueError) as raised:
                read_network(path)
            assert str(raised.value).startswith(f"{path}: ")

    def test_inconsistent_shape_fields(self):
        with pytest.raises(ValueError):
            dict_to_net({"hidden": 3, "dim": 1, "q": [1.0], "R": [[1.0]], "s": [0.0]})

    def test_nonfinite_weights_rejected(self):
        with pytest.raises(ValueError):
            SigmoidNet([math.inf], [[1.0]], [0.0])
