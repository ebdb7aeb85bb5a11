import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from sdembed import dual
from sdembed.dual import (
    DualCoefficients,
    SolverError,
    build_generator,
    eval_moment,
    initial_coefficients,
    read_coefficients_csv,
    solve_dual,
    solve_moment,
    write_coefficients_csv,
)
from sdembed.mc import SimConfig, mc_moment, simulate
from sdembed.polynomial import Polynomial, multi_index_set
from sdembed.sde import (
    SdeModel,
    adjoint_apply,
    builtin_model,
    diffusion_product,
    shift_model_origin,
)


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
        for target, coef in adjoint_apply(model, source, product=product).terms.items():
            row = pos.get(target)
            if row is not None:
                rows.append(row)
                cols.append(col)
                vals.append(coef)
    size = len(basis)
    return sparse.csr_array(sparse.coo_array((vals, (rows, cols)), shape=(size, size), dtype=float))


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
        return Polynomial(dim, terms)

    drift = tuple(poly(0) for _ in range(dim))
    diffusion = tuple(tuple(poly(1) for _ in range(dim)) for _ in range(dim))
    return SdeModel(dim, drift, diffusion)


def lorenz_model(sigma=10.0, rho=28.0, beta=8.0 / 3.0, noise=1.0):
    """Stochastic Lorenz system with additive noise on every axis."""
    drift = (
        Polynomial(3, {(1, 0, 0): -sigma, (0, 1, 0): sigma}),
        Polynomial(3, {(1, 0, 0): rho, (1, 0, 1): -1.0, (0, 1, 0): -1.0}),
        Polynomial(3, {(1, 1, 0): 1.0, (0, 0, 1): -beta}),
    )
    diffusion = tuple(
        tuple(Polynomial.constant(3, noise) if i == j else Polynomial.zero(3) for j in range(3))
        for i in range(3)
    )
    return SdeModel(3, drift, diffusion, name="stochastic-lorenz")


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
        assert np.array_equal(gen.matrix.toarray(), ou_generator_oracle(1.0, 1.0, 12))

    def test_ou_nonunit_parameters(self):
        model = builtin_model("ou", {"gamma": 0.7, "sigma": 1.3})
        gen = build_generator(model, 8)
        assert np.array_equal(gen.matrix.toarray(), ou_generator_oracle(0.7, 1.3, 8))

    def test_vdp_matches_recurrence_exactly(self, vdp):
        gen = build_generator(vdp, 5)
        assert np.array_equal(gen.matrix.toarray(), vdp_generator_oracle(1.0, 1.0, 1.0, 5))

    def test_zero_model_gives_zero_matrix(self):
        zero = Polynomial.zero(1)
        model = SdeModel(1, (zero,), ((zero,),))
        gen = build_generator(model, 4)
        assert gen.matrix.nnz == 0

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
        assert_same_csr(build_generator(model, max_degree).matrix, want)

    def test_shifted_origin_vdp(self, vdp):
        model = shift_model_origin(vdp, (0.5, -1.0))
        assert_same_csr(build_generator(model, 12).matrix, generator_by_columns(model, 12))

    def test_lorenz(self):
        model = lorenz_model()
        assert_same_csr(build_generator(model, 8).matrix, generator_by_columns(model, 8))


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
        assert coeffs.value_at((1,)) == pytest.approx(math.exp(-1.0), abs=1e-10)
        others = [coeffs.value_at((n,)) for n in range(13) if n != 1]
        assert np.allclose(others, 0.0, atol=1e-15)

    def test_ou_second_moment_closed_form(self, ou):
        coeffs = solve_moment(ou, axis=1, power=2, t=1.0, max_degree=12)
        assert coeffs.value_at((2,)) == pytest.approx(math.exp(-2.0), abs=1e-10)
        assert coeffs.value_at((0,)) == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, abs=1e-10)
        others = [coeffs.value_at((n,)) for n in range(13) if n not in (0, 2)]
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
        model = SdeModel(1, (Polynomial(1, {(1,): -1e308}),), ((Polynomial.zero(1),),))
        gen = build_generator(model, 4)
        start = initial_coefficients(gen.index_set, 1, 2)
        with pytest.raises(SolverError, match="non-finite"):
            solve_dual(gen, start, 1.0)

    def test_integrator_failure_maps_to_solver_error(self, ou, monkeypatch):
        gen = build_generator(ou, 4)
        start = initial_coefficients(gen.index_set, 1, 1)

        class _Failed:
            success = False
            message = "step size underflow"
            status = -1
            nfev = 7

        monkeypatch.setattr("sdembed.dual.solve_ivp", lambda *a, **k: _Failed())
        with pytest.raises(SolverError, match="underflow") as info:
            solve_dual(gen, start, 1.0)
        assert info.value.diagnostics["nfev"] == 7

    def test_negative_time_rejected(self, ou):
        gen = build_generator(ou, 4)
        start = initial_coefficients(gen.index_set, 1, 1)
        with pytest.raises(ValueError):
            solve_dual(gen, start, -0.5)


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

    def test_blocks_agree_with_single_points(self, vdp):
        coeffs = solve_moment(vdp, axis=2, power=2, t=0.1, max_degree=60)
        block = dual._EVAL_BLOCK_BYTES // (8 * len(coeffs.index_set))
        count = 2 * block + 3
        pts = np.random.default_rng(1).uniform(-2.0, 2.0, (count, 2))
        batched = eval_moment(coeffs, pts)
        # every block edge, the short last block, and a spread of interior points
        edges = [0, block - 1, block, block + 1, 2 * block - 1, 2 * block, count - 1]
        picks = sorted(set(edges) | set(range(0, count, 37)))
        single = np.array([eval_moment(coeffs, pts[i]) for i in picks])
        assert np.allclose(batched[picks], single, rtol=1e-13, atol=0.0)

    def test_result_shapes(self, vdp):
        coeffs = solve_moment(vdp, axis=1, power=1, t=0.05, max_degree=6)
        assert isinstance(eval_moment(coeffs, [0.5, -0.5]), float)
        pts = np.random.default_rng(2).uniform(-1.0, 1.0, (3, 4, 2))
        out = eval_moment(coeffs, pts)
        assert out.shape == (3, 4)
        assert np.array_equal(out[1], eval_moment(coeffs, pts[1]))


class TestSpillDiagnostic:
    def test_closed_system_has_zero_spill(self, ou):
        coeffs = solve_moment(ou, axis=1, power=2, t=1.0, max_degree=12)
        assert coeffs.spill_mass() == pytest.approx(0.0, abs=1e-14)

    def test_tight_truncation_spills(self, vdp):
        generous = solve_moment(vdp, axis=2, power=2, t=0.5, max_degree=12)
        tight = solve_moment(vdp, axis=2, power=2, t=0.5, max_degree=4)
        assert tight.spill_mass() > generous.spill_mass()
        assert tight.spill_mass() > 1e-4


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

    @pytest.mark.parametrize(
        "text",
        ["n_1,n_2,value\n0,0,1.0\n-1,0,2.0\n1,0,3.0\n", "n_1,value\n0,1.0\n1,2.0\n1,5.0\n"],
        ids=["negative", "repeated"],
    )
    def test_bad_csv_rows_rejected_with_path(self, text, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="bad.csv: "):
            read_coefficients_csv(path)


class TestCsvInterchange:
    def test_round_trip_bit_exact(self, vdp, tmp_path):
        coeffs = solve_moment(vdp, axis=2, power=1, t=0.1, max_degree=5)
        path = tmp_path / "coeffs.csv"
        write_coefficients_csv(coeffs, path)
        again = read_coefficients_csv(path)
        assert np.array_equal(again.index_set, coeffs.index_set)
        assert np.array_equal(again.values, coeffs.values)

    def test_header_shape(self, ou, tmp_path):
        coeffs = solve_moment(ou, axis=1, power=1, t=1.0, max_degree=12)
        path = tmp_path / "ou.csv"
        write_coefficients_csv(coeffs, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n_1,value"
        assert len(lines) == 14

    def test_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_coefficients_csv(path)


class TestMonteCarloCrossCheck:
    def test_vdp_dual_within_sampling_error(self, vdp):
        x0 = [1.0, 1.0]
        ensemble = simulate(vdp, x0, SimConfig(dt=1e-3, horizon=0.1, paths=20_000, seed=42))
        for axis, power in ((1, 1), (2, 2)):
            coeffs = solve_moment(vdp, axis=axis, power=power, t=0.1, max_degree=12)
            estimate, std_error = mc_moment(ensemble, axis, power)
            assert abs(eval_moment(coeffs, x0) - estimate) < 4.0 * std_error
