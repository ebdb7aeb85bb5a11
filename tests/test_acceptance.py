"""Acceptance suite: one test per criterion, each ending in a PASS line.

Heavy artifacts (the Monte Carlo ensemble, the network fits, the trained
baseline) are produced once per session by builder functions; the
determinism criterion re-runs the same builders and compares every emitted
text artifact byte-for-byte.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import json
import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from helpers import fd_taylor_coefficients, flatten_params, generator_csr, scaled_max_error, taylor_terms
from sdembed.baseline import TrainConfig, dataset_csv_text, generate_dataset, train_backprop
from sdembed.dual import build_generator, coefficients_csv_text, eval_moment, solve_moment
from sdembed.evaluate import analytic_ou_moment, profile_csv_text, radial_error_profile
from sdembed.fit import FitConfig, fit_network, fit_result_to_dict
from sdembed.mc import SimConfig, final_states_csv_text, mc_moment, simulate
from sdembed.network import (
    SigmoidNet,
    _sigmoid_polynomials,
    forward,
    net_to_dict,
    network_taylor,
    param_views,
    taylor_jacobian,
)
from sdembed.polynomial import multi_index_set
from sdembed.sde import builtin_model

MC_SEED = 20260809
FIT_SEED = 0
BASELINE_SEED = 5

OU = builtin_model("ou", {"gamma": 1.0, "sigma": 1.0})
VDP = builtin_model("vdp", {"epsilon": 1.0, "nu11": 1.0, "nu22": 1.0})


def report(number, detail):
    print(f"\nCRITERION {number:02d}: PASS — {detail}")


def ou_generator_oracle(gamma, sigma, max_degree):
    size = max_degree + 1
    a = np.zeros((size, size))
    for n in range(size):
        a[n, n] = -gamma * n
        if n + 2 <= max_degree:
            a[n, n + 2] = 0.5 * sigma**2 * ((n + 2) * (n + 1))
    return a


def vdp_generator_oracle(eps, nu11, nu22, max_degree):
    basis = list(map(tuple, multi_index_set(2, max_degree, "max-degree").tolist()))
    pos = {n: i for i, n in enumerate(basis)}
    a = np.zeros((len(basis), len(basis)))

    def add(row, source, value):
        if value != 0.0 and all(0 <= e <= max_degree for e in source):
            a[pos[row], pos[source]] += value

    for n1, n2 in basis:
        row = (n1, n2)
        add(row, (n1 + 1, n2 - 1), n1 + 1)
        add(row, (n1, n2), eps * n2)
        add(row, (n1 - 2, n2), -eps * n2)
        add(row, (n1 - 1, n2 + 1), -(n2 + 1))
        add(row, (n1 + 2, n2), 0.5 * nu11 * ((n1 + 2) * (n1 + 1)))
        add(row, (n1, n2 + 2), 0.5 * nu22 * ((n2 + 2) * (n2 + 1)))
    return a


# -- artifact builders (run once via fixtures, re-run by the determinism test)


def build_mc_comparison():
    """Criterion 4 artifacts: vdP moments from the dual solve vs sampling."""
    x0 = (1.0, 1.0)
    ensemble = simulate(VDP, x0, SimConfig(dt=1e-3, horizon=0.1, paths=100_000, seed=MC_SEED))
    texts = {"final_states.csv": "".join(final_states_csv_text(ensemble))}
    comparisons = {}
    for axis in (1, 2):
        for power in (1, 2):
            coeffs = solve_moment(VDP, axis=axis, power=power, t=0.1, max_degree=17)
            texts[f"dual_x{axis}_m{power}.csv"] = "".join(coefficients_csv_text(coeffs))
            estimate, std_error = mc_moment(ensemble, axis, power)
            comparisons[(axis, power)] = (float(eval_moment(coeffs, x0)), estimate, std_error)
    return {"comparisons": comparisons, "excluded": ensemble.n_excluded}, texts


def build_ou_fits():
    """Criterion 7 artifacts: OU fits at the published parameter set."""
    payload, texts = {}, {}
    for power in (1, 2):
        target = solve_moment(OU, axis=1, power=power, t=1.0, max_degree=12)
        result = fit_network(target, FitConfig(hidden=4, order=12, restarts=10, seed=FIT_SEED))
        payload[power] = result
        texts[f"fit_m{power}.json"] = json.dumps(fit_result_to_dict(result), indent=2) + "\n"
        xs = np.linspace(-3.0, 3.0, 121)
        rows = "\n".join(
            f"{float(x)!r},{float(v)!r}" for x, v in zip(xs, forward(result.net, xs[:, None]))
        )
        texts[f"curve_m{power}.csv"] = "x,value\n" + rows + "\n"
    return payload, texts


def build_vdp_fit_profile():
    """Criterion 8 artifacts: vdP second-moment fit and its radial profile."""
    target = solve_moment(VDP, axis=2, power=2, t=0.1, max_degree=17)
    result = fit_network(target, FitConfig(hidden=8, order=17, restarts=10, seed=FIT_SEED))
    profile = radial_error_profile(
        lambda pts: forward(result.net, pts),
        lambda pts: eval_moment(target, pts),
        4.0,
        (100, 100),
    )
    texts = {
        "vdp_fit.json": json.dumps(fit_result_to_dict(result), indent=2) + "\n",
        "vdp_profile.csv": "".join(profile_csv_text(profile)),
    }
    return {"result": result, "profile": profile, "target": target}, texts


def build_baseline_run():
    """Criterion 9 artifacts: dataset, trained baseline, baseline profile."""
    target = solve_moment(VDP, axis=2, power=2, t=0.1, max_degree=17)
    dataset = generate_dataset(target, ((-4.0, 4.0), (-4.0, 4.0)), 10_000, seed=BASELINE_SEED)
    trained = train_backprop(
        dataset, TrainConfig(hidden=8, epochs=50, batch_size=256, seed=BASELINE_SEED)
    )
    profile = radial_error_profile(
        lambda pts: forward(trained.net, pts),
        lambda pts: eval_moment(target, pts),
        4.0,
        (100, 100),
    )
    texts = {
        "baseline_dataset.csv": "".join(dataset_csv_text(dataset)),
        "baseline_net.json": json.dumps(net_to_dict(trained.net), indent=2) + "\n",
        "baseline_profile.csv": "".join(profile_csv_text(profile)),
    }
    payload = {"dataset": dataset, "trained": trained, "profile": profile}
    return payload, texts


@pytest.fixture(scope="session")
def mc_comparison():
    return build_mc_comparison()


@pytest.fixture(scope="session")
def ou_fits():
    return build_ou_fits()


@pytest.fixture(scope="session")
def vdp_fit_profile():
    return build_vdp_fit_profile()


@pytest.fixture(scope="session")
def baseline_run():
    return build_baseline_run()


# -- criteria ----------------------------------------------------------------


def test_criterion_01_generator_exactness_ou():
    started = time.perf_counter()
    generator = build_generator(OU, 12)
    elapsed = time.perf_counter() - started
    assert np.array_equal(generator_csr(generator.matrix).toarray(), ou_generator_oracle(1.0, 1.0, 12))
    assert elapsed < 0.1
    report(1, f"13x13 generator equals the coefficient recurrence exactly ({elapsed:.4f}s)")


def test_criterion_02_generator_exactness_vdp():
    started = time.perf_counter()
    generator = build_generator(VDP, 17)
    elapsed = time.perf_counter() - started
    oracle = vdp_generator_oracle(1.0, 1.0, 1.0, 17)
    dense = generator_csr(generator.matrix).toarray()
    assert dense.shape == (324, 324)
    assert np.array_equal(dense, oracle)
    assert elapsed < 1.0
    report(2, f"324x324 generator equals the six-term recurrence exactly ({elapsed:.3f}s)")


def test_criterion_03_dual_vs_analytic_ou():
    started = time.perf_counter()
    worst = 0.0
    for power in (1, 2):
        coeffs = solve_moment(OU, axis=1, power=power, t=1.0, max_degree=12)
        for x0 in (-2.0, -1.0, 0.0, 1.0, 2.0):
            err = abs(eval_moment(coeffs, [x0]) - analytic_ou_moment(1.0, 1.0, x0, 1.0, power))
            worst = max(worst, err)
            assert err <= 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(3, f"moment error vs closed form <= {worst:.2e} over both powers ({elapsed:.2f}s)")


def test_criterion_04_dual_vs_mc_vdp(mc_comparison):
    started = time.perf_counter()
    payload, _ = mc_comparison
    worst_z = 0.0
    for (axis, power), (dual_value, estimate, std_error) in payload["comparisons"].items():
        z = abs(dual_value - estimate) / std_error
        worst_z = max(worst_z, z)
        assert z < 4.0, f"axis {axis} power {power}: |z| = {z:.2f}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(4, f"all four moments within {worst_z:.2f} standard errors of sampling "
              f"({payload['excluded']} paths excluded)")


def test_criterion_05_taylor_machinery():
    started = time.perf_counter()
    rng = np.random.default_rng(1234)
    stencil = ((-2, 1.0 / 12.0), (-1, -8.0 / 12.0), (1, 8.0 / 12.0), (2, -1.0 / 12.0))
    worst_value, worst_jac = 0.0, 0.0
    for _ in range(100):
        hidden = int(rng.integers(1, 5))
        dim = int(rng.integers(1, 3))
        order = int(rng.integers(1, 6))

        # value check against finite differences of the forward map, at zero
        # biases (tests/test_network.py checks values at nonzero ones)
        net = SigmoidNet(
            rng.uniform(-0.5, 0.5, hidden), rng.uniform(-0.5, 0.5, (hidden, dim)), np.zeros(hidden)
        )
        fd = fd_taylor_coefficients(lambda x: forward(net, x), dim, order)
        worst_value = max(worst_value, scaled_max_error(fd, taylor_terms(net, order)))

        # jacobian check at fully random weights (biases exercised here)
        net = SigmoidNet(
            rng.uniform(-0.5, 0.5, hidden),
            rng.uniform(-0.5, 0.5, (hidden, dim)),
            rng.uniform(-0.5, 0.5, hidden),
        )
        jac = taylor_jacobian(network_taylor(net, order))
        theta = flatten_params(net)
        h = 1e-3
        fd_jac = np.zeros_like(jac)
        for p in range(theta.size):
            acc = np.zeros(jac.shape[0])
            for mult, weight in stencil:
                bumped = theta.copy()
                bumped[p] += mult * h
                acc += weight * network_taylor(param_views(bumped, hidden, dim), order).coefficients
            fd_jac[:, p] = acc / h
        worst_jac = max(worst_jac, np.abs(fd_jac - jac).max() / max(np.abs(jac).max(), 1e-12))
    elapsed = time.perf_counter() - started
    assert worst_value < 1e-6
    assert worst_jac < 1e-6
    assert elapsed < 10.0
    report(5, f"100 nets: coefficients within {worst_value:.1e}, jacobian within "
              f"{worst_jac:.1e} of finite differences ({elapsed:.1f}s)")


def test_criterion_06_sigmoid_table():
    # sigmoid^(k)(0) = p_k(0), the constant term of the integer polynomial
    # 2^(k+1) p_k over 2^(k+1): every value is an integer over a power of two
    table = [Fraction(poly[0], 2 ** (k + 1)) for k, poly in enumerate(_sigmoid_polynomials(20))]
    assert len(table) == 21
    for k in range(2, 21, 2):
        assert table[k] == 0
    for value in table:
        assert value.denominator & (value.denominator - 1) == 0
    worst = 0.0
    with mp.workdps(60):
        h = mp.mpf(1) / 100_000
        for k in (1, 3, 5, 7):
            acc = mp.mpf(0)
            for j in range(k + 1):
                x = (mp.mpf(k) / 2 - j) * h
                acc += (-1) ** j * mp.binomial(k, j) / (1 + mp.e**-x)
            estimate = float(acc / h**k)
            rel = abs(estimate - float(table[k])) / abs(float(table[k]))
            worst = max(worst, rel)
            assert rel < 1e-6
    report(6, f"even orders vanish exactly; odd orders within {worst:.1e} of central differences")


def test_criterion_07_ou_embedding(ou_fits):
    started = time.perf_counter()
    payload, _ = ou_fits

    first = payload[1]
    assert first.cost < 1e-6, f"first-moment cost {first.cost:.2e}"
    xs = np.linspace(-2.0, 2.0, 401)
    err_first = np.abs(
        forward(first.net, xs[:, None]) - analytic_ou_moment(1.0, 1.0, xs, 1.0, 1)
    ).max()
    assert err_first < 0.01

    second = payload[2]
    xs_inner = np.linspace(-1.0, 1.0, 201)
    err_second = np.abs(
        forward(second.net, xs_inner[:, None]) - analytic_ou_moment(1.0, 1.0, xs_inner, 1.0, 2)
    ).max()
    assert err_second < 0.05

    def point_error(x0):
        return abs(forward(second.net, [x0]) - analytic_ou_moment(1.0, 1.0, x0, 1.0, 2))

    assert point_error(3.0) > point_error(0.0)
    assert point_error(-3.0) > point_error(0.0)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(7, f"m=1 cost {first.cost:.1e}, max errors {err_first:.4f} on [-2,2] (m=1) "
              f"and {err_second:.4f} on [-1,1] (m=2); error grows toward |x0|=3")


def test_criterion_08_vdp_near_origin_advantage(vdp_fit_profile):
    started = time.perf_counter()
    payload, _ = vdp_fit_profile
    profile = payload["profile"]
    near = profile.band_mean(0.0, 1.0)
    far = profile.band_mean(3.0, 4.0)
    assert near < far
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    report(8, f"mean MSE {near:.2e} on r in [0,1] vs {far:.2e} on r in [3,4]")


def test_criterion_09_baseline_smoke(baseline_run, vdp_fit_profile, tmp_path):
    started = time.perf_counter()
    payload, texts = baseline_run
    final_mse = float(payload["trained"].loss_trace[-1])
    constant_mse = float(np.var(payload["dataset"].targets))
    assert final_mse < constant_mse
    # emit the method comparison (not asserted: training is stochastic)
    comparison_dir = tmp_path
    (comparison_dir / "baseline_profile.csv").write_text(texts["baseline_profile.csv"])
    proposed_profile = vdp_fit_profile[0]["profile"]
    (comparison_dir / "proposed_profile.csv").write_text("".join(profile_csv_text(proposed_profile)))
    baseline_near = payload["profile"].band_mean(0.0, 1.0)
    proposed_near = proposed_profile.band_mean(0.0, 1.0)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(9, f"trained MSE {final_mse:.3f} < constant-predictor MSE {constant_mse:.3f}; "
              f"near-origin MSE: proposed {proposed_near:.2e} vs baseline {baseline_near:.2e} "
              f"(profiles in {comparison_dir})")


def test_criterion_10_determinism(mc_comparison, ou_fits, vdp_fit_profile, baseline_run):
    reruns = {
        "mc": (mc_comparison[1], build_mc_comparison()[1]),
        "ou-fit": (ou_fits[1], build_ou_fits()[1]),
        "vdp-fit": (vdp_fit_profile[1], build_vdp_fit_profile()[1]),
        "baseline": (baseline_run[1], build_baseline_run()[1]),
    }
    for name, (first, second) in reruns.items():
        assert first.keys() == second.keys()
        for artifact, text in first.items():
            assert text == second[artifact], f"{name}:{artifact} differs between runs"
    total = sum(len(texts) for texts, _ in reruns.values())
    report(10, f"{total} artifacts byte-identical across two seeded runs")
