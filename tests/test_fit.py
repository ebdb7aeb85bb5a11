import math

import numpy as np
import pytest

from sdembed.dual import DualCoefficients, solve_moment
from sdembed.evaluate import analytic_ou_moment
from sdembed.fit import FitConfig, FitError, fit_network, fit_result_to_dict, residuals
from sdembed.network import SigmoidNet, flatten_params, forward, network_taylor, taylor_jacobian
from sdembed.polynomial import multi_index_set
from sdembed.sde import builtin_model


def synthetic_target(net, order, extra=0):
    """Max-degree coefficient container whose total-degree entries are the
    network's own expansion; everything else zero."""
    dim = net.dim
    index_set = multi_index_set(dim, order + extra, "max-degree")
    coeffs = network_taylor(net, order)
    lookup = dict(zip(map(tuple, coeffs.index_set.tolist()), coeffs.values))
    values = np.array([lookup.get(n, 0.0) for n in map(tuple, index_set.tolist())])
    return DualCoefficients(index_set, values, t=0.0)


@pytest.fixture(scope="module")
def ou_first_moment():
    model = builtin_model("ou", {"gamma": 1.0, "sigma": 1.0})
    return solve_moment(model, axis=1, power=1, t=1.0, max_degree=12)


class TestResiduals:
    def test_zero_for_self_target(self):
        rng = np.random.default_rng(0)
        net = SigmoidNet(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, 3))
        target = synthetic_target(net, 4)
        assert np.array_equal(residuals(target, net, 4), np.zeros(15))

    def test_zero_output_weights_reproduce_target(self, ou_first_moment):
        net = SigmoidNet(np.zeros(4), np.ones((4, 1)), np.ones(4))
        index_set = multi_index_set(1, 12, "total-degree")
        expected = np.array([ou_first_moment.value_at(l) for l in index_set])
        assert np.array_equal(residuals(ou_first_moment, net, 12), expected)

    def test_ordering_matches_total_degree_enumeration(self):
        index_set = tuple(multi_index_set(2, 2, "max-degree"))
        values = np.arange(len(index_set), dtype=float)
        target = DualCoefficients(index_set, values, t=0.0)
        net = SigmoidNet(np.zeros(1), np.zeros((1, 2)), np.zeros(1))
        out = residuals(target, net, 2)
        expected = [target.value_at(l) for l in multi_index_set(2, 2, "total-degree")]
        assert np.array_equal(out, expected)

    def test_order_beyond_target_rejected(self, ou_first_moment):
        net = SigmoidNet(np.zeros(2), np.zeros((2, 1)), np.zeros(2))
        with pytest.raises(ValueError, match="exceeds"):
            residuals(ou_first_moment, net, 13)

    def test_order_beyond_target_message_names_the_index(self):
        target = DualCoefficients(multi_index_set(2, 3, "max-degree"), np.zeros(16), t=0.0)
        net = SigmoidNet(np.zeros(1), np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(
            ValueError,
            match=r"^Taylor order 4 exceeds the solved coefficient set \(missing index \(4, 0\)\)$",
        ):
            residuals(target, net, 4)

    def test_dimension_mismatch(self, ou_first_moment):
        net = SigmoidNet(np.zeros(2), np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="dimension"):
            residuals(ou_first_moment, net, 4)


class TestFitConfigValidation:
    def test_bad_restarts(self):
        with pytest.raises(ValueError):
            FitConfig(hidden=2, order=4, restarts=0)

    def test_bad_tolerances(self):
        with pytest.raises(ValueError):
            FitConfig(hidden=2, order=4, gradient_tol=0.0)
        with pytest.raises(ValueError):
            FitConfig(hidden=2, order=4, cost_tol=-1.0)

    def test_empty_init_range(self):
        with pytest.raises(ValueError):
            FitConfig(hidden=2, order=4, init_range=(1.0, 1.0))


class TestFitNetwork:
    def test_zero_target_reachable(self):
        index_set = tuple(multi_index_set(1, 4, "max-degree"))
        target = DualCoefficients(index_set, np.zeros(len(index_set)), t=0.0)
        result = fit_network(target, FitConfig(hidden=2, order=4, restarts=3, seed=1))
        assert result.cost < 1e-12

    def test_gradient_small_when_converged(self):
        index_set = tuple(multi_index_set(1, 4, "max-degree"))
        target = DualCoefficients(index_set, np.zeros(len(index_set)), t=0.0)
        config = FitConfig(hidden=2, order=4, restarts=3, seed=1, max_iterations=200)
        result = fit_network(target, config)
        if result.converged:
            jac = -taylor_jacobian(result.net, 4)
            r = residuals(target, result.net, 4)
            assert np.max(np.abs(jac.T @ r)) <= config.gradient_tol

    def test_deterministic(self, ou_first_moment):
        config = FitConfig(hidden=3, order=8, restarts=3, seed=7, max_iterations=15)
        a = fit_network(ou_first_moment, config)
        b = fit_network(ou_first_moment, config)
        assert a.cost == b.cost
        assert np.array_equal(flatten_params(a.net), flatten_params(b.net))
        assert a.restart_costs == b.restart_costs

    def test_restart_monotonicity(self, ou_first_moment):
        base = dict(hidden=3, order=8, seed=3, max_iterations=15)
        three = fit_network(ou_first_moment, FitConfig(restarts=3, **base))
        four = fit_network(ou_first_moment, FitConfig(restarts=4, **base))
        assert four.cost <= three.cost
        assert four.restart_costs[:3] == three.restart_costs

    def test_ou_first_moment_quality(self, ou_first_moment):
        result = fit_network(ou_first_moment, FitConfig(hidden=4, order=12, restarts=4, seed=0))
        assert result.cost < 1e-6
        xs = np.linspace(-2.0, 2.0, 101)
        errors = np.abs(forward(result.net, xs[:, None]) - analytic_ou_moment(1, 1, xs, 1.0, 1))
        assert errors.max() < 0.01

    def test_permutation_symmetry_of_cost(self):
        rng = np.random.default_rng(5)
        net = SigmoidNet(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, (3, 1)), rng.uniform(-1, 1, 3))
        target = synthetic_target(net, 6, extra=1)
        perm = [2, 0, 1]
        permuted = SigmoidNet(net.out_weights[perm], net.in_weights[perm], net.biases[perm])
        r_orig = residuals(target, net, 6)
        r_perm = residuals(target, permuted, 6)
        assert float(r_orig @ r_orig) == pytest.approx(float(r_perm @ r_perm), rel=1e-12, abs=1e-18)

    def test_nonfinite_target_raises(self):
        index_set = tuple(multi_index_set(1, 3, "max-degree"))
        values = np.array([0.0, math.nan, 0.0, 0.0])
        target = DualCoefficients(index_set, values, t=0.0)
        with pytest.raises(FitError):
            fit_network(target, FitConfig(hidden=2, order=3, restarts=1))

    def test_result_serialization(self, ou_first_moment):
        result = fit_network(ou_first_moment, FitConfig(hidden=2, order=6, restarts=2, seed=2, max_iterations=10))
        doc = fit_result_to_dict(result)
        assert set(doc) == {"network", "cost", "restart_costs", "iterations", "converged", "seed"}
        assert len(doc["restart_costs"]) == 2
        assert doc["cost"] == min(doc["restart_costs"])
