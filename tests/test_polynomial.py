import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    add,
    allclose,
    cumprod_monomials,
    derivative,
    grlex_key,
    mul,
    multinomial,
    reference_index_set,
    scale,
    table,
    term_sum,
    terms,
    total_degree,
)
from sdembed.polynomial import (
    Polynomial,
    grlex_order,
    index_order,
    index_positions,
    monomials,
    multi_index_set,
    power_table,
)


def poly_strategy(dim, max_terms=5, max_exp=4, coef_range=3.0):
    """Term maps {exponent tuple: coefficient} without exact zeros."""
    index = st.tuples(*(st.integers(0, max_exp) for _ in range(dim)))
    coef = st.floats(-coef_range, coef_range, allow_nan=False, allow_infinity=False).filter(bool)
    return st.dictionaries(index, coef, max_size=max_terms)


class TestMultiIndexSet:
    def test_total_degree_enumeration(self):
        assert list(map(tuple, multi_index_set(2, 2, "total-degree").tolist())) == [
            (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
        ]

    def test_max_degree_1d_count(self):
        idx = multi_index_set(1, 12, "max-degree")
        assert list(map(tuple, idx.tolist())) == [(k,) for k in range(13)]

    def test_max_degree_2d(self):
        idx = multi_index_set(2, 1, "max-degree")
        assert set(map(tuple, idx.tolist())) == {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert len(idx) == 4

    @pytest.mark.parametrize("dim,order", [(1, 5), (2, 4), (3, 3)])
    def test_counts(self, dim, order):
        assert len(multi_index_set(dim, order, "total-degree")) == math.comb(order + dim, dim)
        assert len(multi_index_set(dim, order, "max-degree")) == (order + 1) ** dim

    def test_canonical_order_is_graded(self):
        idx = list(map(tuple, multi_index_set(2, 3, "max-degree").tolist()))
        assert idx == sorted(idx, key=grlex_key)
        degrees = [sum(n) for n in idx]
        assert degrees == sorted(degrees)

    @pytest.mark.parametrize("mode", ["total-degree", "max-degree"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_reference_enumeration(self, dim, mode):
        for order in range(9):
            want = np.array(reference_index_set(dim, order, mode), dtype=np.int64).reshape(-1, dim)
            assert np.array_equal(multi_index_set(dim, order, mode), want)

    def test_read_only_int64_array(self):
        idx = multi_index_set(3, 2, "total-degree")
        assert idx.dtype == np.int64 and idx.shape == (10, 3)
        assert not idx.flags.writeable

    def test_grlex_order_matches_reference_sort(self):
        rng = np.random.default_rng(0)
        for dim in (1, 2, 3):
            rows = sorted({tuple(r) for r in rng.integers(0, 6, (40, dim)).tolist()})
            rng.shuffle(rows)
            exps = np.array(rows, dtype=np.int64)
            got = list(map(tuple, exps[grlex_order(exps)].tolist()))
            assert got == sorted(rows, key=grlex_key)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            multi_index_set(0, 2)
        with pytest.raises(ValueError):
            multi_index_set(2, -1)
        with pytest.raises(ValueError):
            multi_index_set(2, 2, "grevlex")


class TestIndexPositions:
    @pytest.mark.parametrize("mode", ["total-degree", "max-degree"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_every_row_resolves_to_its_position(self, dim, mode):
        index_set = multi_index_set(dim, 5, mode)
        assert np.array_equal(index_positions(index_set, index_set), np.arange(len(index_set)))

    def test_single_index_and_batch_shapes(self):
        index_set = multi_index_set(2, 3, "max-degree")
        where = index_set.tolist().index([2, 1])
        assert index_positions(index_set, (2, 1)) == where
        batch = np.array([[[2, 1], [0, 0]], [[3, 3], [2, 1]]])
        assert index_positions(index_set, batch).shape == (2, 2)
        assert index_positions(index_set, batch)[1, 1] == where

    @pytest.mark.parametrize("missing", [(0, 4), (-1, 0), (2, 2)])
    def test_missing_index_raises_key_error(self, missing):
        index_set = multi_index_set(2, 3, "total-degree")
        with pytest.raises(KeyError) as info:
            index_positions(index_set, [(0, 0), missing, (1, 0)])
        assert info.value.args == (missing,)

    def test_wrong_index_length_rejected(self):
        with pytest.raises(ValueError, match="need 2 exponents each"):
            index_positions(multi_index_set(2, 3, "max-degree"), (1, 1, 1))


class TestArithmetic:
    """The term-map algebra of `helpers` (`add`, `mul`) that the reference
    generator action and the diffusion-product check are built from."""

    def test_mul_monomials(self):
        x1 = {(1,): 1.0}
        assert mul(x1, x1) == {(2,): 1.0}

    def test_add_cancels_to_zero(self):
        x2 = {(0, 1): 1.0}
        assert add(x2, scale(x2, -1.0)) == {}

    def test_van_der_pol_drift_expansion(self):
        x1, x2 = {(1, 0): 1.0}, {(0, 1): 1.0}
        product = mul(add({(0, 0): 1.0}, scale(mul(x1, x1), -1.0)), x2)
        assert product == {(0, 1): 1.0, (2, 1): -1.0}

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mul({(1,): 1.0}, {(0, 1): 1.0})

    @given(poly_strategy(2), poly_strategy(2))
    def test_mul_commutes(self, p, q):
        assert mul(p, q) == mul(q, p)

    @given(poly_strategy(2), poly_strategy(2), poly_strategy(2))
    def test_add_associative_commutative(self, p, q, r):
        # commutativity is bit-exact; associativity only up to one rounding
        # of each coefficient sum, which float addition cannot avoid
        assert add(p, q) == add(q, p)
        assert allclose(add(add(p, q), r), add(p, add(q, r)), rel_tol=1e-12, abs_tol=1e-9)

    def test_derivative(self):
        p = {(2, 1): 4.0, (0, 1): 1.0}
        assert derivative(p, 0) == {(1, 1): 8.0}
        assert derivative(p, 1) == {(2, 0): 4.0, (0, 0): 1.0}

    def test_zero_pruning_is_exact(self):
        # a tiny coefficient must survive; only rows of exact zeros are dropped
        p = table(1, {(1,): 1e-300, (0,): 0.0})
        assert p.exps.tolist() == [[1]] and p.coefs.tolist() == [[1e-300]]
        assert table(1, {(1,): 0.0}).exps.shape == (0, 1)


class TestTermTable:
    def test_rows_sorted_grlex_and_read_only(self):
        p = Polynomial([[0, 2], [1, 0], [0, 0]], [[1.0, 0.0], [2.0, 3.0], [0.0, 4.0]])
        assert p.exps.tolist() == [[0, 0], [1, 0], [0, 2]]
        assert p.coefs.tolist() == [[0.0, 4.0], [2.0, 3.0], [1.0, 0.0]]
        assert p.dim == 2
        assert not p.exps.flags.writeable and not p.coefs.flags.writeable

    def test_keeps_its_own_copy(self):
        exps, coefs = np.array([[1], [0]]), np.array([[1.0], [2.0]])
        p = Polynomial(exps, coefs)
        exps[0, 0], coefs[0, 0] = 5, 9.0
        assert p.exps.tolist() == [[0], [1]] and p.coefs.tolist() == [[2.0], [1.0]]

    def test_negative_zero_reads_as_zero(self):
        p = Polynomial([[1], [0]], [[-0.0, 1.0], [2.0, -0.0]])
        assert not np.any(np.signbit(p.coefs))

    @pytest.mark.parametrize(
        "exps, coefs, match",
        [
            ([[0, 0], [-1, 0], [1, 0]], [[1.0], [2.0], [3.0]], r"negative exponent in index \(-1, 0\)"),
            ([[0], [1], [1]], [[1.0], [2.0], [5.0]], r"index \(1,\) appears more than once"),
            ([0, 1], [[1.0], [2.0]], r"need \(T, dim\) exponents"),
            ([[0], [1]], [[1.0]], r"need \(T, dim\) exponents"),
            ([[0], [1]], [1.0, 2.0], r"need \(T, dim\) exponents"),
        ],
        ids=["negative", "repeated", "flat", "count", "flat-coefs"],
    )
    def test_bad_rows_rejected(self, exps, coefs, match):
        with pytest.raises(ValueError, match=match):
            Polynomial(exps, coefs)

    def test_index_order_is_grlex_order(self):
        exps = np.array([[2, 0], [0, 0], [1, 1], [0, 1]])
        assert np.array_equal(index_order(exps), grlex_order(exps))


class TestShift:
    def test_square_binomial(self):
        p = table(1, {(2,): 1.0})
        assert terms(p.shift([1.0])) == {(0,): 1.0, (1,): 2.0, (2,): 1.0}

    def test_zero_offset_identity(self):
        p = table(2, {(2, 1): -0.5, (0, 0): 3.0}, {(1, 0): 2.0})
        shifted = p.shift([0.0, 0.0])
        assert np.array_equal(shifted.exps, p.exps) and np.array_equal(shifted.coefs, p.coefs)

    def test_linear_drift_substitution(self):
        # p = -gamma x shifted by c is -gamma y - gamma c (direct substitution)
        gamma, c = 1.5, 0.7
        p = table(1, {(1,): -gamma})
        shifted = p.shift([c])
        assert terms(shifted) == {(0,): -gamma * c, (1,): -gamma}
        for y in (-2.0, 0.3, 1.1):
            assert shifted.evaluate(np.array([y])) == pytest.approx(p.evaluate(np.array([y + c])), rel=1e-14)

    @given(poly_strategy(2, max_exp=3), st.tuples(st.floats(-2, 2), st.floats(-2, 2)))
    def test_round_trip(self, p, offset):
        back = table(2, p).shift(offset).shift([-c for c in offset])
        assert allclose(terms(back), p, rel_tol=1e-12, abs_tol=1e-12)

    def test_degree_preserved(self):
        p = {(3, 2): 1.0, (1, 0): -2.0}
        assert total_degree(terms(table(2, p).shift([0.5, -1.5]))) == total_degree(p)

    @given(poly_strategy(2, max_exp=3), poly_strategy(2, max_exp=3),
           st.tuples(st.floats(-2, 2), st.floats(-2, 2)))
    def test_columns_shift_independently(self, p, q, offset):
        both = table(2, p, q).shift(offset)
        assert terms(both, 0) == terms(table(2, p).shift(offset))
        assert terms(both, 1) == terms(table(2, q).shift(offset))

    def test_power_overflow_raises_without_warning(self):
        # pytest turns a RuntimeWarning into an error, so a warning would fail here too
        with pytest.raises(OverflowError):
            table(1, {(2,): 1.0}).shift([1e200])

    def test_coefficient_overflow_is_not_finite(self):
        # 1e154^2 is finite, times 1e154 is not: the caller's finiteness check sees it
        shifted = table(2, {(2, 1): -1.0}, {(0, 0): 1.0}).shift([1e154, 1e154])
        assert not np.all(np.isfinite(shifted.coefs))


class TestMultinomial:
    """The `helpers` reference for the network's documented Taylor formula."""

    def test_examples(self):
        assert multinomial(3, [1, 1, 1]) == 6
        assert multinomial(4, [4]) == 1
        assert multinomial(5, [2, 3]) == 10

    def test_matches_binomial(self):
        for k in range(9):
            for j in range(k + 1):
                assert multinomial(k, [j, k - j]) == math.comb(k, j)

    def test_bad_parts(self):
        with pytest.raises(ValueError):
            multinomial(4, [1, 2])
        with pytest.raises(ValueError):
            multinomial(3, [-1, 4])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_multinomial_theorem(self, dim, k):
        # sum over (dim+1)-part compositions of k equals (dim+1)^k
        total = 0
        for parts in multi_index_set(dim + 1, k, "max-degree"):
            if sum(parts) == k:
                total += multinomial(k, parts)
        assert total == (dim + 1) ** k


class TestMonomialEval:
    """The monomial kernel: points (..., dim), exponent rows (K, dim) -> (..., K)."""

    def test_zero_exponent_convention(self):
        exps = np.array([[0, 0], [1, 0], [0, 2]])
        out = monomials(np.array([[3.0, 7.0], [0.0, 0.0]]), exps)
        assert np.array_equal(out, [[1.0, 3.0, 49.0], [1.0, 0.0, 0.0]])
        assert np.array_equal(monomials(np.array([0.0]), np.array([[0]])), [1.0])

    def test_simple(self):
        assert np.array_equal(monomials(np.array([2.0, 3.0]), np.array([[2, 1]])), [12.0])
        assert np.array_equal(monomials(np.array([-1.5]), np.array([[1], [3]])), [-1.5, -3.375])

    def test_batched(self):
        rng = np.random.default_rng(0)
        for dim in (1, 2, 3):
            exps = np.array(multi_index_set(dim, 3, "max-degree"))
            pts = rng.uniform(-2.0, 2.0, (3, 4, dim))
            out = monomials(pts, exps)
            assert out.shape == (3, 4, len(exps))
            for where in np.ndindex(3, 4):
                assert np.array_equal(out[where], monomials(pts[where], exps))

    def test_empty_exponent_set(self):
        assert monomials(np.ones((5, 2)), np.empty((0, 2), dtype=np.int64)).shape == (5, 0)

    @given(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
    )
    def test_product_rule(self, n, m, x):
        x = np.array(x)
        left = monomials(x, np.array([n, m])).prod()
        right = monomials(x, np.array([n]) + np.array([m]))[0]
        assert left == pytest.approx(right, rel=1e-12, abs=1e-300)

    def test_unused_power_does_not_overflow(self):
        # x_1^5 would overflow, but only x_2 is raised that high
        exps = np.array([[0, 0], [1, 0], [0, 5]])
        assert np.array_equal(monomials(np.array([1e200, 2.0]), exps), [1.0, 1e200, 32.0])


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPowerTable:
    """`power_table`'s table (top + 1, dim, ...) and its out= buffer."""

    def test_axis_rows_are_contiguous_repeated_products(self):
        x = np.random.default_rng(0).normal(size=(7, 3)) * 3.0
        tops = [3, 1, 4]
        got = power_table(x, tops)
        assert got.shape == (5, 3, 7)
        for d, top in enumerate(tops):
            power = np.ones(7)
            for k in range(top + 1):
                assert same_bits(got[k, d], power) and got[k, d].flags.c_contiguous
                power = power * x[:, d]

    @pytest.mark.parametrize(
        "shape, tops",
        [((6, 2), [3, 5]), ((2, 3, 3), [2, 0, 4]), ((2,), [4, 1]), ((3,), [0, 0, 0]), ((5, 1), [0]), ((1,), [6])],
        ids=["points", "batch", "one-point", "one-point-top-0", "top-0", "one-point-1-d"],
    )
    def test_out_buffer_is_filled_and_returned(self, shape, tops):
        x = np.random.default_rng(1).normal(size=shape) * 3.0
        fresh = power_table(x, tops)
        buf = np.full(fresh.shape, np.nan)
        assert power_table(x, tops, out=buf) is buf
        # an entry above its axis's top is left unset in both
        for d, top in enumerate(tops):
            assert same_bits(buf[: top + 1, d], fresh[: top + 1, d])

    def test_out_buffer_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match=r"out= has shape \(3, 2, 4\), expected \(3, 2, 5\)"):
            power_table(np.ones((5, 2)), [2, 1], out=np.empty((3, 2, 4)))


class TestMatchesCumprodReference:
    """`monomials` bit for bit against the per-axis cumprod tables it replaced."""

    @staticmethod
    def random_exps(rng):
        dim = int(rng.integers(1, 4))
        tops = rng.integers(0, 9, dim)  # unequal per-axis tops
        return rng.integers(0, tops + 1, (int(rng.integers(1, 15)), dim))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_exponent_sets(self, seed):
        rng = np.random.default_rng(seed)
        exps = self.random_exps(rng)
        dim = exps.shape[1]
        for shape in [(dim,), (6, dim), (2, 3, dim)]:
            x = rng.normal(size=shape) * 10.0 ** rng.integers(-2, 3)
            assert np.array_equal(monomials(x, exps), cumprod_monomials(x, exps))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_empty_exponent_set(self, dim):
        exps = np.empty((0, dim), dtype=np.int64)
        for shape in [(dim,), (4, dim)]:
            x = np.ones(shape)
            got, want = monomials(x, exps), cumprod_monomials(x, exps)
            assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(5))
    def test_non_finite_points(self, seed):
        rng = np.random.default_rng(100 + seed)
        exps = self.random_exps(rng)
        x = rng.choice([np.inf, -np.inf, np.nan, 0.0, -0.0, 1.5], size=(30, exps.shape[1]))
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = monomials(x, exps), cumprod_monomials(x, exps)
        assert np.array_equal(got, want, equal_nan=True)


class TestEvaluate:
    def test_matches_term_sum(self):
        p = table(2, {(2, 0): 1.5, (0, 1): -2.0, (0, 0): 0.25})
        x = np.array([0.5, -1.0])
        assert p.evaluate(x) == pytest.approx([1.5 * 0.25 + 2.0 + 0.25], rel=1e-14)

    def test_batch_shape(self):
        p = table(1, {(3,): 1.0}, {(1,): 2.0})
        pts = np.linspace(-1, 1, 7)[:, None]
        assert p.evaluate(pts).shape == (7, 2)
        assert np.allclose(p.evaluate(pts), np.hstack([pts**3, 2.0 * pts]))

    def test_point_dimension_checked(self):
        # the kernel reads only the axes the exponents name, so a 3-D point would pass silently
        with pytest.raises(ValueError, match="point dimension 3 != polynomial dimension 2"):
            table(2, {(1, 0): 1.0}).evaluate(np.ones((4, 3)))

    def test_zero_polynomial_batch(self):
        assert np.array_equal(table(2, {}).evaluate(np.ones((4, 2))), np.zeros((4, 1)))

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_per_term_reference(self, seed):
        # relative to the sum of |term| values, the scale a sum's rounding
        # error is bounded by when its terms cancel
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        columns = []
        for _ in range(int(rng.integers(1, 4))):
            column = {}
            for _ in range(int(rng.integers(0, 8))):
                index = tuple(int(e) for e in rng.integers(0, 6, dim))
                column[index] = float(rng.normal() * 10.0 ** rng.integers(-3, 3))
            columns.append(column)
        p = table(dim, *columns)
        x = rng.uniform(-2.0, 2.0, (40, dim))
        got = p.evaluate(x)
        for c, column in enumerate(columns):
            scale = term_sum({n: abs(v) for n, v in column.items()}, np.abs(x))
            assert np.all(np.abs(got[:, c] - term_sum(column, x)) <= 1e-14 * scale)
            assert abs(p.evaluate(x[0])[c] - term_sum(column, x[0])) <= 1e-14 * scale[0]

    def test_zero_polynomial_matches_reference(self):
        for dim in (1, 2, 3):
            x = np.full((3, 4, dim), 2.0)
            assert np.array_equal(table(dim, {}).evaluate(x)[..., 0], term_sum({}, x))
            assert table(dim, {}, {}).evaluate(x[0, 0]).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("seed", range(10))
    def test_out_and_work_buffers_give_the_fresh_bits(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        columns = [
            {tuple(int(e) for e in rng.integers(0, 5, dim)): float(rng.normal()) for _ in range(int(rng.integers(1, 6)))}
            for _ in range(int(rng.integers(1, 4)))
        ]
        p = table(dim, *columns)
        x = rng.normal(size=(40, dim)) * 2.0
        work = p.workspace(40)
        # a shorter block, and a single point, reuse the front of the one buffer
        for points in (x, x[:5], x[:1], x[0]):
            out = np.empty(points.shape[:-1] + (len(columns),))
            assert p.evaluate(points, out=out, work=work) is out
            assert same_bits(out, p.evaluate(points))

    def test_huge_coefficient_still_overflows(self):
        column = {(2,): 1e308, (0,): 1.0}
        x = np.array([[10.0], [0.5], [-20.0]])
        with np.errstate(over="ignore"):
            got, want = table(1, column).evaluate(x)[:, 0], term_sum(column, x)
        assert np.array_equal(got, want)
        assert np.array_equal(np.isinf(got), [True, False, True])
