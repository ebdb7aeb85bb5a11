import math

import numpy as np
import pytest

from helpers import flatten_params, residuals, taylor_terms, value_at
from sdembed import fit
from sdembed.dual import DualCoefficients, solve_moment
from sdembed.evaluate import analytic_ou_moment
from sdembed.fit import FitConfig, fit_network, fit_result_to_dict
from sdembed.network import SigmoidNet, _expansion, forward, taylor_jacobian
from sdembed.polynomial import multi_index_set
from sdembed.sde import builtin_model


def synthetic_target(net, order, extra=0):
    """Max-degree coefficient container whose total-degree entries are the
    network's own expansion; everything else zero."""
    dim = net.dim
    index_set = multi_index_set(dim, order + extra, "max-degree")
    lookup = taylor_terms(net, order)
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
        expected = np.array([value_at(ou_first_moment, l) for l in index_set])
        assert np.array_equal(residuals(ou_first_moment, net, 12), expected)

    def test_ordering_matches_total_degree_enumeration(self):
        index_set = tuple(multi_index_set(2, 2, "max-degree"))
        values = np.arange(len(index_set), dtype=float)
        target = DualCoefficients(index_set, values, t=0.0)
        net = SigmoidNet(np.zeros(1), np.zeros((1, 2)), np.zeros(1))
        out = residuals(target, net, 2)
        expected = [value_at(target, l) for l in multi_index_set(2, 2, "total-degree")]
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

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            FitConfig(hidden=2, seed=-1)

    def test_order_above_sigmoid_cap(self):
        FitConfig(hidden=2, order=20)
        with pytest.raises(ValueError, match="Taylor order must be >= 0 and <= 20, got 21"):
            FitConfig(hidden=2, order=21)

    def test_target_truncation_above_cap_rejected_before_matching(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("the target vector was built")

        monkeypatch.setattr(fit, "_target_vector", no_work)
        target = DualCoefficients([[0, 0], [1000000, 0]], np.ones(2), t=0.0)
        with pytest.raises(ValueError, match="got 1000000"):
            fit_network(target, FitConfig(hidden=2))



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
            assert np.max(np.abs(jac.T @ r)) <= fit._GRADIENT_TOL

    def test_deterministic(self, ou_first_moment):
        config = FitConfig(hidden=3, order=8, restarts=3, seed=7, max_iterations=15)
        a = fit_network(ou_first_moment, config)
        b = fit_network(ou_first_moment, config)
        assert a.cost == b.cost
        assert np.array_equal(flatten_params(a.net), flatten_params(b.net))
        assert a.restart_costs == b.restart_costs

    def test_one_network_built_per_fit(self, ou_first_moment, net_builds):
        result = fit_network(ou_first_moment, FitConfig(hidden=3, order=8, restarts=2, max_iterations=5))
        assert len(net_builds) == 1 and net_builds[0] is result.net

    @pytest.mark.parametrize("model", ["ou", "vdp"])
    def test_each_jacobian_reuses_its_trials_expansion(self, model, ou_first_moment, monkeypatch):
        # every Jacobian is taken at weights a trial has just expanded: it adds
        # one cache hit and no miss, while every trial expands afresh
        if model == "ou":
            target, config = ou_first_moment, FitConfig(hidden=4, restarts=2, max_iterations=40)
        else:
            vdp = builtin_model("vdp", {"epsilon": 1.0, "nu11": 1.0, "nu22": 1.0})
            target = solve_moment(vdp, axis=2, power=2, t=0.1, max_degree=9)
            config = FitConfig(hidden=5, restarts=2, max_iterations=40, seed=2)
        counts = {"network_taylor": 0, "taylor_jacobian": 0}

        def counted(name):
            original = getattr(fit, name)

            def call(params, order):
                before = _expansion.cache_info()
                result = original(params, order)
                after = _expansion.cache_info()
                counts[name] += 1
                if name == "taylor_jacobian":
                    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
                return result

            return call

        for name in counts:
            monkeypatch.setattr(fit, name, counted(name))
        _expansion.cache_clear()
        fit_network(target, config)
        info = _expansion.cache_info()
        assert counts["taylor_jacobian"] > 0
        assert info.misses == counts["network_taylor"]
        assert info.hits == counts["taylor_jacobian"]

    def test_restart_monotonicity(self, ou_first_moment):
        base = dict(hidden=3, order=8, seed=3, max_iterations=15)
        three = fit_network(ou_first_moment, FitConfig(restarts=3, **base))
        four = fit_network(ou_first_moment, FitConfig(restarts=4, **base))
        assert four.cost <= three.cost
        assert four.restart_costs[:3] == three.restart_costs

    def test_order_defaults_to_target_truncation(self, ou_first_moment):
        settings = dict(hidden=2, restarts=2, seed=4, max_iterations=5)
        implicit = fit_network(ou_first_moment, FitConfig(**settings))
        explicit = fit_network(ou_first_moment, FitConfig(order=ou_first_moment.max_degree, **settings))
        assert implicit.restart_costs == explicit.restart_costs
        assert np.array_equal(flatten_params(implicit.net), flatten_params(explicit.net))

    def test_ou_first_moment_quality(self, ou_first_moment):
        # the OU fits' short budget (see the fit module docstring)
        result = fit_network(ou_first_moment, FitConfig(hidden=4, order=12, restarts=4, seed=0, max_iterations=30))
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
        # the coefficient record refuses it, so no fit can start from one
        index_set = tuple(multi_index_set(1, 3, "max-degree"))
        values = np.array([0.0, math.nan, 0.0, 0.0])
        with pytest.raises(ValueError, match="coefficient values must be finite"):
            DualCoefficients(index_set, values, t=0.0)

    def test_result_serialization(self, ou_first_moment):
        result = fit_network(ou_first_moment, FitConfig(hidden=2, order=6, restarts=2, seed=2, max_iterations=10))
        doc = fit_result_to_dict(result)
        assert set(doc) == {"network", "cost", "restart_costs", "iterations", "converged", "seed"}
        assert len(doc["restart_costs"]) == 2
        assert doc["cost"] == min(doc["restart_costs"])
