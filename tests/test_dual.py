import hashlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import (
    adjoint_apply,
    csr_array,
    generator_csr,
    make_model,
    reference_coefficients_csv_text,
    reference_eval_moment,
    reference_read_coefficients_csv,
    solve_ivp,
    value_at,
)
from sdembed import dual
from sdembed.dual import (
    DualCoefficients,
    SolverError,
    build_generator,
    coefficients_csv_text,
    eval_moment,
    initial_coefficients,
    read_coefficients_csv,
    solve_dual,
    solve_moment,
)
from sdembed.mc import SimConfig, mc_moment, simulate
from sdembed.polynomial import multi_index_set, power_table
from sdembed.sde import builtin_model, diffusion_product, shift_model_origin


def ou_generator_oracle(gamma, sigma, max_degree):
    """Dense generator from the one-dimensional coefficient recurrence:
    dP(n)/dt = -gamma n P(n) + (sigma^2/2)(n+2)(n+1) P(n+2)."""
    size = max_degree + 1
    a = np.zeros((size, size))
    for n in range(size):
        a[n, n] = -gamma * n
        if n + 2 <= max_degree:
            # integer factor first: both routes then round identically
            a[n, n + 2] = 0.5 * sigma**2 * ((n + 2) * (n + 1))
    return a


def vdp_generator_oracle(eps, nu11, nu22, max_degree):
    """Dense generator from the two-dimensional six-term recurrence."""
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
        add(row, (n1 + 2, n2), 0.5 * nu11 * (n1 + 2) * (n1 + 1))
        add(row, (n1, n2 + 2), 0.5 * nu22 * (n2 + 2) * (n2 + 1))
    return a


def generator_by_columns(model, max_degree):
    """The generator assembled column by column from the reference action
    adjoint_apply: column n holds L x^n restricted to in-set targets."""
    basis = list(map(tuple, multi_index_set(model.dim, max_degree, "max-degree").tolist()))
    pos = {n: i for i, n in enumerate(basis)}
    product = diffusion_product(model)
    rows, cols, vals = [], [], []
    for col, source in enumerate(basis):
        for target, coef in adjoint_apply(model, source, product=product).items():
            row = pos.get(target)
            if row is not None:
                rows.append(row)
                cols.append(col)
                vals.append(coef)
    size = len(basis)
    return csr_array((np.array(vals, dtype=float), (rows, cols)), shape=(size, size))


def random_model(seed):
    """1-3-D model with multi-term drift and a full, state-dependent diffusion
    matrix, so several generator terms land on the same matrix entry."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))

    def poly(min_terms):
        terms = {}
        for _ in range(int(rng.integers(min_terms, 4))):
            index = tuple(int(e) for e in rng.integers(0, 3, dim))
            terms[index] = float(rng.normal() * 10.0 ** rng.integers(-3, 3))
        return terms

    drift = [poly(0) for _ in range(dim)]
    diffusion = [[poly(1) for _ in range(dim)] for _ in range(dim)]
    return make_model(drift, diffusion)


def lorenz_model(sigma=10.0, rho=28.0, beta=8.0 / 3.0, noise=1.0):
    """Stochastic Lorenz system with additive noise on every axis."""
    drift = [
        {(1, 0, 0): -sigma, (0, 1, 0): sigma},
        {(1, 0, 0): rho, (1, 0, 1): -1.0, (0, 1, 0): -1.0},
        {(1, 1, 0): 1.0, (0, 0, 1): -beta},
    ]
    diffusion = [[{(0, 0, 0): noise} if i == j else {} for j in range(3)] for i in range(3)]
    return make_model(drift, diffusion, name="stochastic-lorenz")


def assert_same_csr(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


@pytest.fixture
def ou():
    return builtin_model("ou", {"gamma": 1.0, "sigma": 1.0})


@pytest.fixture
def vdp():
    return builtin_model("vdp", {"epsilon": 1.0, "nu11": 1.0, "nu22": 1.0})


class TestBuildGenerator:
    def test_ou_matches_recurrence_exactly(self, ou):
        gen = build_generator(ou, 12)
        assert np.array_equal(generator_csr(gen.matrix).toarray(), ou_generator_oracle(1.0, 1.0, 12))

    def test_ou_nonunit_parameters(self):
        model = builtin_model("ou", {"gamma": 0.7, "sigma": 1.3})
        gen = build_generator(model, 8)
        assert np.array_equal(generator_csr(gen.matrix).toarray(), ou_generator_oracle(0.7, 1.3, 8))

    def test_vdp_matches_recurrence_exactly(self, vdp):
        gen = build_generator(vdp, 5)
        assert np.array_equal(generator_csr(gen.matrix).toarray(), vdp_generator_oracle(1.0, 1.0, 1.0, 5))

    def test_zero_model_gives_zero_matrix(self):
        model = make_model([{}], [[{}]])
        gen = build_generator(model, 4)
        assert gen.matrix.nnz == 0 and gen.matrix.cols.shape == (0, 5)
        assert gen.matrix.product(np.full(5, -1.0)).tobytes() == np.zeros(5).tobytes()

    def test_index_set_is_canonical(self, vdp):
        gen = build_generator(vdp, 3)
        assert np.array_equal(gen.index_set, multi_index_set(2, 3, "max-degree"))

    def test_negative_degree_rejected(self, ou):
        with pytest.raises(ValueError):
            build_generator(ou, -1)


class TestGeneratorMatchesReferenceAction:
    """build_generator is bit-for-bit the column-by-column adjoint_apply assembly."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_models(self, seed):
        model = random_model(seed)
        max_degree = 4 if model.dim == 3 else 7
        want = generator_by_columns(model, max_degree)
        assert_same_csr(generator_csr(build_generator(model, max_degree).matrix), want)

    def test_shifted_origin_vdp(self, vdp):
        model = shift_model_origin(vdp, (0.5, -1.0))
        assert_same_csr(generator_csr(build_generator(model, 12).matrix), generator_by_columns(model, 12))

    def test_lorenz(self):
        model = lorenz_model()
        assert_same_csr(generator_csr(build_generator(model, 8).matrix), generator_by_columns(model, 8))


@pytest.mark.parametrize(
    "model, max_degree, digest",
    [
        ("vdp", 60, "6ebd7ad9a0af978301a338ac81a681e733d95f4eaf15bcdbfbc6eb82ef885426"),
        ("lorenz", 12, "62b0bfe2a9fa853d4b9824dd9e48089c67c6c44194d03c6321734805a61d5c34"),
    ],
)
def test_generator_bits_at_benchmark_scale(model, max_degree, digest, vdp):
    # the dual-scale workload's sizes; assembly uses no BLAS, so the bits are machine-independent
    model = vdp if model == "vdp" else lorenz_model()
    matrix = generator_csr(build_generator(model, max_degree).matrix)
    h = hashlib.sha256()
    for part in (matrix.indptr.astype(np.int64), matrix.indices.astype(np.int64), matrix.data):
        h.update(part.tobytes())
    assert h.hexdigest() == digest


class TestMoveSlots:
    """The move-slot product gives the bits of the CSR product, -0.0 included."""

    @pytest.mark.parametrize("seed", range(10))
    def test_product_matches_csr(self, seed):
        model = random_model(seed)
        matrix = build_generator(model, 4 if model.dim == 3 else 7).matrix
        rng = np.random.default_rng(seed)
        size = matrix.cols.shape[1]
        y = rng.normal(size=size) * 10.0 ** rng.integers(-6, 6, size)
        assert matrix.product(y).tobytes() == (generator_csr(matrix) @ y).tobytes()
        assert matrix.nnz == generator_csr(matrix).nnz

    def test_row_of_negative_zero_products_sums_to_positive_zero(self, vdp):
        matrix = build_generator(vdp, 6).matrix
        row = int(np.argmax(np.count_nonzero(matrix.vals, axis=0)))
        slots = np.flatnonzero(matrix.vals[:, row])
        y = np.ones(matrix.cols.shape[1])
        y[matrix.cols[slots, row]] = np.copysign(0.0, -matrix.vals[slots, row])
        assert len(slots) > 1 and np.all(np.signbit(matrix.vals[slots, row] * y[matrix.cols[slots, row]]))
        got, want = matrix.product(y), generator_csr(matrix) @ y
        assert got[row] == 0.0 and not np.signbit(got[row])
        assert got.tobytes() == want.tobytes()

    def test_product_through_a_work_buffer(self, vdp):
        matrix = build_generator(vdp, 9).matrix
        y = np.random.default_rng(3).normal(size=matrix.cols.shape[1])
        work = np.full(matrix.cols.shape, np.nan)
        assert matrix.product(y, work).tobytes() == matrix.product(y).tobytes()


def scipy_rk45(matrix, start, t):
    """scipy's RK45 on the CSR form of a generator, with the solver's tolerances."""
    reference = generator_csr(matrix)
    return solve_ivp(lambda _t, y: reference @ y, (0.0, t), start, method="RK45",
                     rtol=dual._RTOL, atol=dual._ATOL, t_eval=[t])


class TestSolveIvpIsScipyRK45:
    """`dual.solve_ivp` repeats scipy's RK45: the bits of its `t_eval=[t]`
    value and the same nfev."""

    @staticmethod
    def assert_same(matrix, start, t):
        want = scipy_rk45(matrix, start, t)
        got = dual.solve_ivp(matrix.product, start, t)
        assert want.success and got.status == 0
        assert got.y.tobytes() == want.y[:, -1].tobytes() and got.nfev == want.nfev
        assert got.nfev == 2 + 6 * (got.accepted + got.rejected)
        return got

    # random 1-3-D models, N, horizons and start vectors; most seeds from 4 on reject steps
    @pytest.mark.parametrize("seed", range(16))
    def test_random_models(self, seed):
        rng = np.random.default_rng(100 + seed)
        model = random_model(seed)
        generator = build_generator(model, int(rng.integers(1, 5 if model.dim == 3 else 8)))
        start = rng.normal(size=len(generator.index_set))
        self.assert_same(generator.matrix, start, float(rng.uniform(0.01, 0.3)))

    def test_rejected_steps(self):
        generator = build_generator(random_model(4), 3)
        start = np.random.default_rng(104).normal(size=len(generator.index_set))
        assert self.assert_same(generator.matrix, start, 0.086).rejected > 0

    # the benchmark's own sizes (dual-scale): vdp N=60 and the 3-D Lorenz model at N=12
    @pytest.mark.parametrize("name, N, axis, power, t", [("vdp", 60, 2, 2, 0.1), ("lorenz", 12, 1, 2, 0.05)])
    def test_benchmark_sizes(self, request, name, N, axis, power, t):
        model = lorenz_model() if name == "lorenz" else request.getfixturevalue(name)
        generator = build_generator(model, N)
        self.assert_same(generator.matrix, initial_coefficients(generator.index_set, axis, power), t)

    def test_vdp_long_horizon(self, vdp):
        generator = build_generator(vdp, 17)
        start = initial_coefficients(generator.index_set, 2, 2)
        got = self.assert_same(generator.matrix, start, 1.0)
        assert got.nfev == 1982
        assert solve_dual(generator, start, 1.0).values.tobytes() == got.y.tobytes()

    def test_solve_dual_records_the_counters(self, vdp):
        coeffs = solve_moment(vdp, axis=2, power=2, t=0.1, max_degree=17)
        assert coeffs.solve_stats == {"nfev": 134, "accepted": 22, "rejected": 0, "status": 0}
        assert solve_moment(vdp, axis=2, power=2, t=0.0, max_degree=4).solve_stats["nfev"] == 0

    def test_diverging_solve_is_a_solver_error_without_warnings(self):
        # scipy's loop warns on the overflow (3-4 RuntimeWarnings) before it gives up
        generator = build_generator(builtin_model("ou", {"gamma": -1e300}), 4)
        start = initial_coefficients(generator.index_set, 1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="less than spacing between numbers") as info:
                solve_dual(generator, start, 1.0)
        stats = info.value.diagnostics
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = scipy_rk45(generator.matrix, start, 1.0)
        assert want.status == stats["status"] == -1 and stats["t"] == 1.0
        assert stats["nfev"] == want.nfev == 2 + 6 * (stats["accepted"] + stats["rejected"])
        assert stats["rejected"] > 0

    def test_step_budget_ends_a_huge_horizon(self, ou, monkeypatch):
        # a stable system keeps its step bounded, so t = 1e308 would take ~1e307 attempts
        monkeypatch.setattr(dual, "_MAX_STEPS", 1000)
        generator = build_generator(ou, 4)
        start = initial_coefficients(generator.index_set, 1, 2)
        with pytest.raises(SolverError, match="1000 step attempts did not reach t = 1e[+]308") as info:
            solve_dual(generator, start, 1e308)
        stats = info.value.diagnostics
        assert stats["accepted"] + stats["rejected"] == 1000 and stats["nfev"] == 2 + 6 * 1000
        assert stats["status"] == -2 and stats["t"] == 1e308


class TestInitialCoefficients:
    def test_first_moment_unit_vector(self):
        index_set = multi_index_set(1, 12, "max-degree")
        vec = initial_coefficients(index_set, axis=1, power=1)
        assert vec[index_set.tolist().index([1])] == 1.0
        assert vec.sum() == 1.0

    def test_second_moment_unit_vector(self):
        index_set = multi_index_set(1, 12, "max-degree")
        vec = initial_coefficients(index_set, axis=1, power=2)
        assert vec[index_set.tolist().index([2])] == 1.0
        assert vec.sum() == 1.0

    def test_second_axis(self):
        index_set = multi_index_set(2, 17, "max-degree")
        vec = initial_coefficients(index_set, axis=2, power=2)
        assert vec[index_set.tolist().index([0, 2])] == 1.0
        assert vec.sum() == 1.0

    def test_power_beyond_truncation(self):
        index_set = multi_index_set(1, 4, "max-degree")
        with pytest.raises(ValueError, match="exceeds the truncation"):
            initial_coefficients(index_set, axis=1, power=5)

    def test_power_beyond_truncation_message_names_the_index(self):
        index_set = multi_index_set(2, 3, "max-degree")
        with pytest.raises(
            ValueError,
            match=r"^moment power 4 exceeds the truncation \(index \(0, 4\) not in set\)$",
        ):
            initial_coefficients(index_set, axis=2, power=4)

    def test_axis_out_of_range(self):
        index_set = multi_index_set(2, 3, "max-degree")
        with pytest.raises(ValueError, match="axis"):
            initial_coefficients(index_set, axis=3, power=1)


class TestSolveDual:
    def test_time_zero_is_identity(self, ou):
        gen = build_generator(ou, 6)
        start = initial_coefficients(gen.index_set, 1, 2)
        out = solve_dual(gen, start, 0.0)
        assert np.array_equal(out.values, start)

    def test_ou_first_moment_closed_form(self, ou):
        coeffs = solve_moment(ou, axis=1, power=1, t=1.0, max_degree=12)
        assert value_at(coeffs, (1,)) == pytest.approx(math.exp(-1.0), abs=1e-10)
        others = [value_at(coeffs, (n,)) for n in range(13) if n != 1]
        assert np.allclose(others, 0.0, atol=1e-15)

    def test_ou_second_moment_closed_form(self, ou):
        coeffs = solve_moment(ou, axis=1, power=2, t=1.0, max_degree=12)
        assert value_at(coeffs, (2,)) == pytest.approx(math.exp(-2.0), abs=1e-10)
        assert value_at(coeffs, (0,)) == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, abs=1e-10)
        others = [value_at(coeffs, (n,)) for n in range(13) if n not in (0, 2)]
        assert np.allclose(others, 0.0, atol=1e-15)

    def test_semigroup_property(self, vdp):
        gen = build_generator(vdp, 6)
        start = initial_coefficients(gen.index_set, 2, 2)
        direct = solve_dual(gen, start, 0.1)
        half = solve_dual(gen, start, 0.05)
        stitched = solve_dual(gen, half.values, 0.05)
        assert np.allclose(stitched.values, direct.values, rtol=1e-9, atol=1e-11)

    def test_linearity(self, ou):
        gen = build_generator(ou, 8)
        p0 = initial_coefficients(gen.index_set, 1, 1)
        q0 = initial_coefficients(gen.index_set, 1, 2)
        combo = solve_dual(gen, 2.0 * p0 - 0.5 * q0, 0.7)
        separate = 2.0 * solve_dual(gen, p0, 0.7).values - 0.5 * solve_dual(gen, q0, 0.7).values
        assert np.allclose(combo.values, separate, rtol=1e-9, atol=1e-11)

    def test_observable_and_fingerprint_recorded(self, ou):
        coeffs = solve_moment(ou, axis=1, power=2, t=0.5, max_degree=6)
        assert coeffs.observable == (1, 2)
        assert coeffs.model_fingerprint == ou.fingerprint

    def test_overflowing_generator_raises(self):
        # drift coefficient large enough that assembly overflows to inf
        model = make_model([{(1,): -1e308}], [[{}]])
        gen = build_generator(model, 4)
        start = initial_coefficients(gen.index_set, 1, 2)
        with pytest.raises(SolverError, match="non-finite"):
            solve_dual(gen, start, 1.0)

    def test_integrator_failure_maps_to_solver_error(self, ou, monkeypatch):
        gen = build_generator(ou, 4)
        start = initial_coefficients(gen.index_set, 1, 1)

        failed = dual.IvpResult(start, status=-1, nfev=7, accepted=2, rejected=3)
        monkeypatch.setattr("sdembed.dual.solve_ivp", lambda *a, **k: failed)
        with pytest.raises(SolverError, match="less than spacing between numbers") as info:
            solve_dual(gen, start, 1.0)
        assert info.value.diagnostics == {"status": -1, "nfev": 7, "accepted": 2, "rejected": 3, "t": 1.0}

    def test_non_finite_start_rejected(self, ou):
        gen = build_generator(ou, 4)
        start = initial_coefficients(gen.index_set, 1, 1)
        start[0] = math.nan
        with pytest.raises(ValueError, match="start vector must be finite"):
            solve_dual(gen, start, 1.0)

    def test_negative_time_rejected(self, ou):
        gen = build_generator(ou, 4)
        start = initial_coefficients(gen.index_set, 1, 1)
        with pytest.raises(ValueError):
            solve_dual(gen, start, -0.5)

    @pytest.mark.parametrize("t", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_time_rejected_before_integrating(self, ou, t, monkeypatch):
        # an unbounded horizon used to send the adaptive integrator on an endless run
        def no_work(*args, **kwargs):
            raise AssertionError("integration started")

        monkeypatch.setattr("sdembed.dual.solve_ivp", no_work)
        gen = build_generator(ou, 4)
        start = initial_coefficients(gen.index_set, 1, 1)
        with pytest.raises(ValueError, match="t must be finite"):
            solve_dual(gen, start, t)


class TestEvalMoment:
    def test_origin_reads_constant_coefficient(self, ou):
        coeffs = solve_moment(ou, axis=1, power=2, t=1.0, max_degree=12)
        expected = (1.0 - math.exp(-2.0)) / 2.0
        assert eval_moment(coeffs, [0.0]) == pytest.approx(expected, abs=1e-8)

    def test_first_moment_at_one(self, ou):
        coeffs = solve_moment(ou, axis=1, power=1, t=1.0, max_degree=12)
        assert eval_moment(coeffs, [1.0]) == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_delta_start_reproduces_monomial(self, ou):
        gen = build_generator(ou, 6)
        start = initial_coefficients(gen.index_set, 1, 3)
        coeffs = solve_dual(gen, start, 0.0)
        for x0 in (-2.0, -0.5, 0.0, 1.5):
            assert eval_moment(coeffs, [x0]) == x0**3

    def test_batched_evaluation(self, vdp):
        coeffs = solve_moment(vdp, axis=1, power=1, t=0.05, max_degree=6)
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [-0.5, 2.0]])
        batched = eval_moment(coeffs, pts)
        single = [eval_moment(coeffs, p) for p in pts]
        assert np.allclose(batched, single, rtol=1e-14)

    def test_dimension_mismatch(self, ou):
        coeffs = solve_moment(ou, axis=1, power=1, t=0.1, max_degree=4)
        with pytest.raises(ValueError):
            eval_moment(coeffs, [1.0, 2.0])

    def test_large_batch_memory_is_bounded(self, vdp):
        coeffs = solve_moment(vdp, axis=2, power=2, t=0.1, max_degree=17)
        pts = np.random.default_rng(0).uniform(-4.0, 4.0, (250_000, 2))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = eval_moment(coeffs, pts)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.shape == (250_000,)
        assert peak < 64 * 2**20

    def test_power_table_memory_is_bounded(self):
        # one coefficient but a 101-row power table per point: blocks are sized by the table
        coeffs = DualCoefficients([[100, 0]], [1.0], t=0.0)
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, (60_000, 2))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = eval_moment(coeffs, pts)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.allclose(out, pts[:, 0] ** 100, rtol=1e-12, atol=0.0)
        assert peak < 2 * dual._EVAL_BLOCK_BYTES + out.nbytes

    def test_partial_sums_memory_is_bounded(self):
        # four coefficients but 41 x 41 partial sums per point after the last axis: blocks are sized by those
        coeffs = DualCoefficients([[0, 0, 0], [40, 0, 0], [0, 40, 0], [0, 0, 40]], [1.0, 2.0, 3.0, 4.0], t=0.0)
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, (60_000, 3))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = eval_moment(coeffs, pts)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.allclose(out, 1.0 + 2.0 * pts[:, 0] ** 40 + 3.0 * pts[:, 1] ** 40 + 4.0 * pts[:, 2] ** 40)
        assert peak < 2 * dual._EVAL_BLOCK_BYTES + out.nbytes

    def test_overflowing_moment_raises_naming_the_point(self):
        # x^400 overflows at |x| = 10, and the zero coefficient turns inf into nan
        coeffs = DualCoefficients([[0], [2], [400]], [0.5, 0.25, 0.0], t=0.0)
        assert eval_moment(coeffs, [2.0]) == 1.5
        with pytest.raises(SolverError, match=r"^moment at x = \[10.0\] is not finite"):
            eval_moment(coeffs, [[0.0], [10.0], [-10.0]])

    def test_power_table_above_block_rejected_before_work(self, monkeypatch):
        monkeypatch.setattr(dual, "_EVAL_BLOCK_BYTES", 1024)
        monkeypatch.setattr(dual, "power_table", None)  # a call would raise TypeError
        coeffs = DualCoefficients([[0, 0], [100, 0]], [1.0, 2.0], t=0.0)
        with pytest.raises(ValueError, match=r"^exponent 100 needs a 1616-byte power table per point, above"):
            eval_moment(coeffs, np.zeros((3, 2)))

    def test_box_above_block_rejected_before_work(self, monkeypatch):
        # each axis's power table is small, but the dense box is 100001^2 cells, 80 GB
        monkeypatch.setattr(dual, "power_table", None)  # a call would raise TypeError
        coeffs = DualCoefficients([[0, 0], [100_000, 0], [0, 100_000]], [1.0, 2.0, 3.0], t=0.0)
        with pytest.raises(ValueError, match=r"^index set needs a \(100001, 100001\) coefficient box of 80001600008 bytes, above"):
            eval_moment(coeffs, np.zeros((3, 2)))

    def test_blocks_agree_with_single_points(self, vdp, monkeypatch):
        coeffs = solve_moment(vdp, axis=2, power=2, t=0.1, max_degree=60)
        # a block of about 64 points, so that the points span at least three blocks
        monkeypatch.setattr(dual, "_EVAL_BLOCK_BYTES", 64 * 8 * len(coeffs.index_set))
        sizes = []

        def spy(points, tops):
            sizes.append(len(points))
            return power_table(points, tops)

        monkeypatch.setattr(dual, "power_table", spy)
        count = 2 * 64 + 3
        pts = np.random.default_rng(1).uniform(-2.0, 2.0, (count, 2))
        batched = eval_moment(coeffs, pts)
        assert len(sizes) >= 3 and sum(sizes) == count
        # every block edge, the short last block, and a spread of interior points
        starts = np.cumsum(sizes)[:-1].tolist()
        edges = {0, count - 1} | {s + k for s in starts for k in (-1, 0, 1)}
        picks = sorted(edges | set(range(0, count, 7)))
        single = np.array([eval_moment(coeffs, pts[i]) for i in picks])
        assert np.allclose(batched[picks], single, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("dim, order", [(1, 22), (2, 17)])
    def test_products_split_in_whole_row_groups_keep_every_bit(self, dim, order, monkeypatch):
        coeffs = random_coefficients(dim, order, "max-degree", 8)
        pts = np.random.default_rng(3).uniform(-1.2, 1.2, (20_000, dim))
        whole = eval_moment(coeffs, pts)  # one product per block
        # 1001 rows per product would put rows off their place mod 4 in the next product
        monkeypatch.setattr(dual, "_EVAL_GEMM", 1001 * (order + 1) ** dim)
        rows = []
        matmul = np.matmul

        def spy(a, b, out):
            rows.append(len(a))
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", spy)
        split = eval_moment(coeffs, pts)
        monkeypatch.undo()
        # 1001 rounded down to whole 64-row groups; a block's last product may be shorter
        assert max(rows) == 960 and sum(rows) == len(pts) and len(rows) > len(pts) // 960
        assert np.array_equal(split, whole)

    def test_result_shapes(self, vdp):
        coeffs = solve_moment(vdp, axis=1, power=1, t=0.05, max_degree=6)
        assert isinstance(eval_moment(coeffs, [0.5, -0.5]), float)
        pts = np.random.default_rng(2).uniform(-1.0, 1.0, (3, 4, 2))
        out = eval_moment(coeffs, pts)
        assert out.shape == (3, 4)
        assert np.array_equal(out[1], eval_moment(coeffs, pts[1]))


def sparse_coefficients(rows, seed):
    rows = np.array(rows, dtype=np.int64)
    return DualCoefficients(rows, np.random.default_rng(seed).standard_normal(len(rows)), t=0.0)


def random_coefficients(dim, order, mode, seed):
    return sparse_coefficients(multi_index_set(dim, order, mode), seed)


class TestEvalMomentAgainstMonomialMatrix:
    """The sum-factorised kernel against the (points, K) monomial matrix it
    replaced, within 1e-14 of sum_n |P(n) x^n| at every point."""

    @staticmethod
    def assert_matches(coeffs, pts):
        absolute = DualCoefficients(coeffs.index_set, np.abs(coeffs.values), t=0.0)
        bound = 1e-14 * reference_eval_moment(absolute, np.abs(pts))
        assert np.all(np.abs(eval_moment(coeffs, pts) - reference_eval_moment(coeffs, pts)) <= bound)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_coefficients(1, 25, "max-degree", 1),
            lambda: sparse_coefficients([[0], [3], [17]], 2),
            lambda: random_coefficients(2, 17, "max-degree", 3),
            lambda: random_coefficients(2, 20, "total-degree", 4),
            lambda: sparse_coefficients([[0, 0], [5, 0], [0, 7], [3, 4], [12, 1]], 5),
            lambda: random_coefficients(3, 6, "max-degree", 6),
            lambda: random_coefficients(3, 9, "total-degree", 7),
            lambda: sparse_coefficients([[0, 0, 0], [4, 0, 1], [0, 6, 0], [1, 2, 3], [0, 0, 8]], 8),
        ],
        ids=["1d-max", "1d-sparse", "2d-max", "2d-total", "2d-sparse", "3d-max", "3d-total", "3d-sparse"],
    )
    def test_matches_monomial_matrix(self, make):
        coeffs = make()
        corners = np.array(list(itertools.product((-4.0, 4.0), repeat=coeffs.dim)))
        pts = np.vstack([corners, np.random.default_rng(coeffs.dim).uniform(-4.0, 4.0, (3000, coeffs.dim))])
        self.assert_matches(coeffs, pts)

    def test_matches_on_the_scale_up_grid(self, vdp):
        # the dual-scale benchmark's table: vdp N=60 on a 101 x 101 grid over [-2, 2]^2
        coeffs = solve_moment(vdp, axis=2, power=2, t=0.1, max_degree=60)
        axis = np.linspace(-2.0, 2.0, 101)
        self.assert_matches(coeffs, np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2))


class TestClosure:
    @pytest.mark.parametrize(
        "name, max_degree, closed",
        [("ou", 12, True), ("ou-shifted", 12, True), ("vdp", 17, False), ("lorenz", 12, False)],
    )
    def test_generator_records_dropped_entries(self, name, max_degree, closed, ou, vdp):
        model = {"ou": ou, "ou-shifted": shift_model_origin(ou, (1.5,)), "vdp": vdp, "lorenz": lorenz_model()}[name]
        generator = build_generator(model, max_degree)
        assert generator.closed is closed
        start = initial_coefficients(generator.index_set, 1, 2)
        assert solve_dual(generator, start, 0.1).closed is closed

    def test_unknown_when_read_from_a_file(self, ou, tmp_path):
        coeffs = solve_moment(ou, axis=1, power=2, t=1.0, max_degree=6)
        path = tmp_path / "ou.csv"
        path.write_text("".join(coefficients_csv_text(coeffs)))
        assert coeffs.closed is True and read_coefficients_csv(path).closed is None

    def test_fingerprint_ignores_closure(self, ou):
        coeffs = solve_moment(ou, axis=1, power=2, t=1.0, max_degree=4)
        unknown = DualCoefficients(coeffs.index_set, coeffs.values, coeffs.t, coeffs.observable,
                                   coeffs.model_fingerprint)
        assert unknown.closed is None and unknown.fingerprint() == coeffs.fingerprint()


class TestDualCoefficientsIndexSet:
    def test_fields_are_read_only_int64_arrays(self, vdp):
        gen = build_generator(vdp, 4)
        coeffs = solve_dual(gen, initial_coefficients(gen.index_set, 1, 1), 0.1)
        for index_set in (gen.index_set, coeffs.index_set):
            assert index_set.dtype == np.int64 and index_set.shape == (25, 2)
            assert not index_set.flags.writeable
        assert coeffs.dim == 2 and coeffs.max_degree == 4

    def test_keeps_its_own_copy(self):
        rows = np.array([[0], [1], [2]])
        coeffs = DualCoefficients(rows, [1.0, 2.0, 3.0], t=0.0)
        rows[1, 0] = 7
        assert coeffs.index_set.tolist() == [[0], [1], [2]]

    # digests of the parent format (repr of the tuple-of-tuples index set);
    # the train-baseline dataset_fingerprint is one of these
    @pytest.mark.parametrize(
        "name, axis, power, t, max_degree, digest",
        [
            ("ou", 1, 2, 1.0, 4, "6689876597cf423d"),
            ("vdp", 2, 2, 0.1, 3, "877f299889ad4794"),
        ],
    )
    def test_fingerprint_pinned(self, name, axis, power, t, max_degree, digest, request):
        model = request.getfixturevalue(name)
        coeffs = solve_moment(model, axis=axis, power=power, t=t, max_degree=max_degree)
        assert coeffs.fingerprint() == digest

    @pytest.mark.parametrize(
        "index_set, values, match",
        [
            ([[0, 0], [-1, 0], [1, 0]], [1.0, 2.0, 3.0], r"negative exponent in index \(-1, 0\)"),
            ([[0], [1], [1]], [1.0, 2.0, 5.0], r"index \(1,\) appears more than once"),
            ([[0.0], [1.0]], [1.0, 2.0], "integer array, got float64"),
            ([0, 1, 2], [1.0, 2.0, 3.0], r"\(K, dim\)"),
            (np.empty((0, 2), np.int64), [], r"\(K, dim\)"),
            ([[0], [1]], [1.0, 2.0, 3.0], "index count"),
        ],
        ids=["negative", "repeated", "float", "flat", "empty", "count"],
    )
    def test_bad_index_set_rejected(self, index_set, values, match):
        with pytest.raises(ValueError, match=match):
            DualCoefficients(index_set, np.array(values), t=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, value):
        # a record holds only what read_coefficients_csv accepts back from its CSV
        with pytest.raises(ValueError, match="coefficient values must be finite"):
            DualCoefficients([[0], [1]], [value, 1.0], t=0.0)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("n_1,n_2,value\n0,0,1.0\n-1,0,2.0\n1,0,3.0\n", "bad.csv: negative exponent"),
            ("n_1,value\n0,1.0\n1,2.0\n1,5.0\n", r"bad.csv: index \(1,\) appears more than once"),
            ("n_1,value\n0,1.0\n1.5,2.0\n", r"bad.csv:3: invalid literal for int\(\) with base 10: '1.5'"),
            ("n_1,n_2,value\n0,0,1.0\n0,x,2.0\n", r"bad.csv:3: invalid literal for int\(\)"),
            ("n_1,value\n0,1.0\n1,abc\n", "bad.csv:3: could not convert string to float: 'abc'"),
            ("n_1,value\n0,nan\n1,2.0\n", "bad.csv:2: non-finite value 'nan'"),
            ("n_1,value\n0,1.0\n1,-inf\n", "bad.csv:3: non-finite value '-inf'"),
        ],
        ids=["negative", "repeated", "fractional-exponent", "word-exponent", "word-value", "nan-value",
             "inf-value"],
    )
    def test_bad_csv_rows_rejected_with_path(self, text, match, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            read_coefficients_csv(path)

    def test_errors_name_the_files_own_line_numbers(self, tmp_path):
        path = tmp_path / "lead.csv"
        path.write_text("\n\nn_1,value\n0,1.0\n1,abc\n")
        with pytest.raises(ValueError, match="lead.csv:5: could not convert string to float: 'abc'"):
            read_coefficients_csv(path)

    def test_leading_and_trailing_blank_lines_accepted(self, tmp_path):
        path = tmp_path / "padded.csv"
        path.write_text("\n \nn_1,value\n0,1.0\n1,2.5\n\n\n")
        coeffs = read_coefficients_csv(path)
        assert coeffs.index_set.tolist() == [[0], [1]] and coeffs.values.tolist() == [1.0, 2.5]

    @pytest.mark.parametrize("text", ["", "\n\n", "  \n"], ids=["empty", "blank", "spaces"])
    def test_file_without_a_header_rejected(self, text, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="empty.csv: empty coefficient file"):
            read_coefficients_csv(path)

    def test_blank_line_between_rows_rejected_at_that_line(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("\nn_1,value\n0,1.0\n\n\n1,2.0\n")
        with pytest.raises(ValueError, match="gap.csv:4: expected 2 fields"):
            read_coefficients_csv(path)


class TestCsvInterchange:
    def test_round_trip_bit_exact(self, vdp, tmp_path):
        coeffs = solve_moment(vdp, axis=2, power=1, t=0.1, max_degree=5)
        path = tmp_path / "coeffs.csv"
        path.write_text("".join(coefficients_csv_text(coeffs)))
        again = read_coefficients_csv(path)
        assert np.array_equal(again.index_set, coeffs.index_set)
        assert np.array_equal(again.values, coeffs.values)

    def test_header_shape(self, ou, tmp_path):
        coeffs = solve_moment(ou, axis=1, power=1, t=1.0, max_degree=12)
        path = tmp_path / "ou.csv"
        path.write_text("".join(coefficients_csv_text(coeffs)))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n_1,value"
        assert len(lines) == 14

    def test_text_bytes_of_the_per_row_writer(self, vdp):
        # the shared writer gives the sha256 of the join-per-row writer it replaced
        solved = solve_moment(vdp, axis=2, power=2, t=0.1, max_degree=17)
        special = [-0.0, 5e-324, 1e300, -1e300]
        cases = [
            (solved.index_set, solved.values),
            (multi_index_set(1, len(special) - 1, "max-degree"), special),
            ([[0, 0], [2**53 + 1, 0], [3, 2**62]], [1.0, 2.0, 3.0]),
        ]
        for index_set, values in cases:
            got = "".join(coefficients_csv_text(DualCoefficients(index_set, values, t=0.0)))
            want = reference_coefficients_csv_text(index_set, values)
            assert hashlib.sha256(got.encode()).hexdigest() == hashlib.sha256(want.encode()).hexdigest()

    def test_large_exponent_written_back_exactly(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("n_1,value\n0,1.0\n9007199254740993,2.0\n")
        assert "".join(coefficients_csv_text(read_coefficients_csv(path))) == path.read_text()

    def test_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_coefficients_csv(path)

    @pytest.mark.parametrize("header", ["n_2,n_1,value", "n_1,n_1,value", "n_1, n_2,value", "n_1,n_2,Value"])
    def test_only_the_written_header_accepted(self, header, tmp_path):
        # "n_2,n_1" was once read as n_1,n_2: the value at x = (1, 0) came from the x2 exponent
        path = tmp_path / "swapped.csv"
        path.write_text(f"\n{header}\n0,0,1.0\n1,0,2.0\n")
        with pytest.raises(ValueError, match=r"swapped.csv:2: expected header n_1,...,n_D,value"):
            read_coefficients_csv(path)


BLOCK = dual._READ_BLOCK
# line numbers in a file whose header is line 1: the first row, the last row of
# the first block, the first row of the second and the last row of a 2.5-block file
ROW_LINES = [2, BLOCK + 1, BLOCK + 2, 5 * BLOCK // 2 + 1]


def _rows_file(path, rows=5 * BLOCK // 2, edits=(), eol="\n"):
    """A 2-D coefficient CSV of `rows` distinct rows, header on line 1, with the
    lines in `edits` ({line number: text}) put in place of theirs."""
    lines = ["n_1,n_2,value", *(f"{k},{k % 3},{0.25 * k - 1.5!r}" for k in range(rows))]
    for ln, text in dict(edits).items():
        lines[ln - 1] = text
    path.write_bytes((eol.join(lines) + eol).encode())
    return path


def _same_outcome(path):
    """Read `path` with the reader and with the line-by-line reference: the
    same records, or the same error text."""
    try:
        want = reference_read_coefficients_csv(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            read_coefficients_csv(path)
        assert str(got.value) == str(exc)
        return str(exc)
    got = read_coefficients_csv(path)
    assert got.index_set.dtype == want.index_set.dtype
    assert np.array_equal(got.index_set, want.index_set)
    assert got.values.tobytes() == want.values.tobytes()
    return None


class TestBlockReader:
    """`read_coefficients_csv` converts `_READ_BLOCK` lines at a time and reports
    what the line-by-line reader it replaced reported, at the same line."""

    @pytest.mark.parametrize("ln", ROW_LINES, ids=["first-row", "block-end", "next-block", "last-row"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,2", "expected 3 fields"),
            ("1,2,3.0,4", "expected 3 fields"),
            ("1,x,3.0", "invalid literal for int() with base 10: 'x'"),
            ("1,2,abc", "could not convert string to float: 'abc'"),
            ("1,2,inf", "non-finite value 'inf'"),
        ],
        ids=["few-fields", "many-fields", "integer", "float", "non-finite"],
    )
    def test_a_bad_row_is_reported_at_its_line(self, text, message, ln, tmp_path):
        path = _rows_file(tmp_path / "bad.csv", edits={ln: text})
        assert _same_outcome(path) == f"{path}:{ln}: {message}"

    def test_the_earlier_of_two_errors_in_a_block_wins(self, tmp_path):
        # the later line's error would be found first by a whole-field pass
        path = _rows_file(tmp_path / "two.csv", edits={BLOCK + 9: "1,2,nan", BLOCK + 30: "1.5,2,3.0"})
        assert _same_outcome(path) == f"{path}:{BLOCK + 9}: non-finite value 'nan'"
        path = _rows_file(tmp_path / "two.csv", edits={40: "7,x,3.0", 41: "1,2"})
        assert _same_outcome(path) == f"{path}:40: invalid literal for int() with base 10: 'x'"

    @pytest.mark.parametrize("ln", [BLOCK + 1, BLOCK + 2], ids=["block-end", "next-block"])
    def test_a_blank_line_on_a_block_boundary(self, ln, tmp_path):
        path = _rows_file(tmp_path / "gap.csv", edits={ln: "  "})
        assert _same_outcome(path) == f"{path}:{ln}: expected 3 fields"
        # as the file's last lines, the blank line and what follows it are trailing
        path = _rows_file(tmp_path / "tail.csv", rows=ln - 2)
        path.write_bytes(path.read_bytes() + b"  \n\n")
        assert _same_outcome(path) is None
        assert len(read_coefficients_csv(path).values) == ln - 2

    def test_crlf_line_ends(self, tmp_path):
        crlf = _rows_file(tmp_path / "crlf.csv", eol="\r\n")
        lf = _rows_file(tmp_path / "lf.csv")
        assert _same_outcome(crlf) is None
        assert read_coefficients_csv(crlf).values.tobytes() == read_coefficients_csv(lf).values.tobytes()
        bad = _rows_file(tmp_path / "bad.csv", edits={BLOCK + 2: "1,2,x"}, eol="\r\n")
        assert _same_outcome(bad) == f"{bad}:{BLOCK + 2}: could not convert string to float: 'x'"

    def test_trailing_blank_lines_over_several_blocks(self, tmp_path):
        path = tmp_path / "tail.csv"
        path.write_text("\n n_1,value\n0,1.0\n1,2.5\n" + "\n \t\n" * BLOCK)
        assert _same_outcome(path) is None
        assert read_coefficients_csv(path).values.tolist() == [1.0, 2.5]

    def test_python_literals_are_read_as_python_reads_them(self, tmp_path):
        # numpy's string casts would refuse "1_0" or read " 2" otherwise
        path = tmp_path / "literals.csv"
        path.write_text("n_1,n_2,value\n1_0, 2,+3.5\n-0,0x1,1e5\n")
        assert _same_outcome(path) == f"{path}:3: invalid literal for int() with base 10: '0x1'"
        path.write_text("n_1,n_2,value\n1_0, 2,+3.5\n-0,4, 1_0.5 \n")
        assert _same_outcome(path) is None
        assert read_coefficients_csv(path).index_set.tolist() == [[10, 2], [0, 4]]

    def test_an_error_before_undecodable_bytes_comes_first(self, tmp_path):
        # the text layer decodes ahead of the rows, so a block can end at a decode error
        path = _rows_file(tmp_path / "bytes.csv", edits={5: "1,2,x"})
        data = path.read_bytes()
        cut = data.index(b"\n", 9_000) + 1  # past the first 8 KiB the text layer decodes
        path.write_bytes(data[:cut] + b"\xff" + data[cut:])
        assert _same_outcome(path) == f"{path}:5: could not convert string to float: 'x'"
        path.write_bytes(data.replace(b"1,2,x", b"4,1,0.5")[:cut] + b"\xff" + data[cut:])
        with pytest.raises(ValueError) as raised:
            read_coefficients_csv(path)
        assert str(raised.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize(
        "data", [b"n_1,value\n0,1.0\n1,\xff2.0\n", b"n_\xff1,value\n0,1.0\n"], ids=["row", "header"]
    )
    def test_undecodable_bytes_name_the_file(self, tmp_path, data):
        path = tmp_path / "bytes.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError) as raised:
            read_coefficients_csv(path)
        assert str(raised.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")

    def test_exponents_beyond_int64_as_the_rows_list(self, tmp_path):
        path = tmp_path / "huge.csv"
        for exponent in (2**63 - 1, 2**63, 2**64, -(2**63) - 1):
            path.write_text(f"n_1,value\n0,1.0\n{exponent},2.0\n")
            _same_outcome(path)

    def test_header_without_rows(self, tmp_path):
        path = tmp_path / "header.csv"
        for text in ("n_1,value\n", "\nn_1,n_2,value\n\n  \n"):
            path.write_text(text)
            with pytest.raises(ValueError) as got:
                read_coefficients_csv(path)
            assert str(got.value) == f"{path}: no coefficient rows"

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_random_files_as_the_line_by_line_reader(self, block, tmp_path, monkeypatch):
        monkeypatch.setattr(dual, "_READ_BLOCK", block)
        rng = np.random.default_rng(block)
        fields = ["x", "", " ", "1_0", "nan", "-inf", "1e400", "-0", "+3", "\t2", "0x10", str(2**63), "1.5"]
        path = tmp_path / "random.csv"
        for _ in range(150):
            dim = int(rng.integers(1, 4))
            lines = [""] * int(rng.integers(0, 2)) + [",".join([*(f"n_{d + 1}" for d in range(dim)), "value"])]
            for k in range(int(rng.integers(0, 10))):
                row = [str(k), *(str(int(e)) for e in rng.integers(0, 4, dim - 1)), repr(float(rng.normal()))]
                roll = rng.random()
                if roll < 0.05:
                    row[int(rng.integers(len(row)))] = str(rng.choice(fields))
                elif roll < 0.08:
                    row = []
                elif roll < 0.1:
                    row.append("")
                lines.append(",".join(row))
            lines += [""] * int(rng.integers(0, 3))
            path.write_text("\n".join(lines) + "\n")
            _same_outcome(path)


class TestMonteCarloCrossCheck:
    def test_vdp_dual_within_sampling_error(self, vdp):
        x0 = [1.0, 1.0]
        ensemble = simulate(vdp, x0, SimConfig(dt=1e-3, horizon=0.1, paths=20_000, seed=42))
        for axis, power in ((1, 1), (2, 2)):
            coeffs = solve_moment(vdp, axis=axis, power=power, t=0.1, max_degree=12)
            estimate, std_error = mc_moment(ensemble, axis, power)
            assert abs(eval_moment(coeffs, x0) - estimate) < 4.0 * std_error
