import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import grlex_key, reference_index_set, term_sum
from sdembed.polynomial import (
    Polynomial,
    grlex_order,
    index_positions,
    monomials,
    multi_index_set,
    multinomial,
)


def poly_strategy(dim, max_terms=5, max_exp=4, coef_range=3.0):
    index = st.tuples(*(st.integers(0, max_exp) for _ in range(dim)))
    coef = st.floats(-coef_range, coef_range, allow_nan=False, allow_infinity=False)
    return st.dictionaries(index, coef, max_size=max_terms).map(lambda d: Polynomial(dim, d))


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
    def test_mul_monomials(self):
        x1 = Polynomial.variable(1, 0)
        assert x1 * x1 == Polynomial(1, {(2,): 1.0})

    def test_add_cancels_to_zero(self):
        x2 = Polynomial.variable(2, 1)
        assert (x2 + (-x2)).is_zero()
        assert len((x2 - x2).terms) == 0

    def test_van_der_pol_drift_expansion(self):
        x1 = Polynomial.variable(2, 0)
        x2 = Polynomial.variable(2, 1)
        product = (1.0 - x1 * x1) * x2
        assert product == Polynomial(2, {(0, 1): 1.0, (2, 1): -1.0})

    def test_scalar_scale(self):
        p = Polynomial(1, {(2,): 3.0, (0,): -1.0})
        assert 2.0 * p == Polynomial(1, {(2,): 6.0, (0,): -2.0})
        assert p * 0.0 == Polynomial.zero(1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Polynomial.variable(1, 0) + Polynomial.variable(2, 0)
        with pytest.raises(ValueError):
            Polynomial.variable(1, 0) * Polynomial.variable(2, 1)

    def test_power(self):
        x = Polynomial.variable(1, 0)
        assert (1.0 + x) ** 2 == Polynomial(1, {(0,): 1.0, (1,): 2.0, (2,): 1.0})

    @given(poly_strategy(2), poly_strategy(2))
    def test_mul_commutes(self, p, q):
        assert p * q == q * p

    @given(poly_strategy(2), poly_strategy(2), poly_strategy(2))
    def test_add_associative_commutative(self, p, q, r):
        # commutativity is bit-exact; associativity only up to one rounding
        # of each coefficient sum, which float addition cannot avoid
        assert p + q == q + p
        assert ((p + q) + r).allclose(p + (q + r), rel_tol=1e-12, abs_tol=1e-9)

    def test_derivative(self):
        p = Polynomial(2, {(2, 1): 4.0, (0, 1): 1.0})
        assert p.derivative(0) == Polynomial(2, {(1, 1): 8.0})
        assert p.derivative(1) == Polynomial(2, {(2, 0): 4.0, (0, 0): 1.0})

    def test_zero_pruning_is_exact(self):
        # a tiny coefficient must survive; only exact zeros are dropped
        p = Polynomial(1, {(1,): 1e-300})
        assert (1,) in p.terms
        assert Polynomial(1, {(1,): 0.0}).is_zero()


class TestShift:
    def test_square_binomial(self):
        p = Polynomial(1, {(2,): 1.0})
        assert p.shift([1.0]) == Polynomial(1, {(2,): 1.0, (1,): 2.0, (0,): 1.0})

    def test_zero_offset_identity(self):
        p = Polynomial(2, {(2, 1): -0.5, (0, 0): 3.0})
        assert p.shift([0.0, 0.0]) == p

    def test_linear_drift_substitution(self):
        # p = -gamma x shifted by c is -gamma y - gamma c (direct substitution)
        gamma, c = 1.5, 0.7
        p = Polynomial(1, {(1,): -gamma})
        shifted = p.shift([c])
        assert shifted == Polynomial(1, {(1,): -gamma, (0,): -gamma * c})
        for y in (-2.0, 0.3, 1.1):
            assert shifted.evaluate([y]) == pytest.approx(p.evaluate([y + c]), rel=1e-14)

    @given(poly_strategy(2, max_exp=3), st.tuples(st.floats(-2, 2), st.floats(-2, 2)))
    def test_round_trip(self, p, offset):
        back = p.shift(offset).shift([-c for c in offset])
        assert back.allclose(p, rel_tol=1e-12, abs_tol=1e-12)

    def test_degree_preserved(self):
        p = Polynomial(2, {(3, 2): 1.0, (1, 0): -2.0})
        assert p.shift([0.5, -1.5]).degree == p.degree


class TestMultinomial:
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

    def test_out_buffer(self):
        exps = np.array(multi_index_set(2, 5, "max-degree"))
        pts = np.random.default_rng(1).uniform(-2.0, 2.0, (7, 2))
        want = monomials(pts, exps)
        work = np.empty((len(exps), 10))
        for buffer in (np.empty_like(want), work[:, :7].T):
            got = monomials(pts, exps, out=buffer)
            assert np.shares_memory(got, buffer)
            assert np.array_equal(got, want)

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


class TestEvaluate:
    def test_matches_term_sum(self):
        p = Polynomial(2, {(2, 0): 1.5, (0, 1): -2.0, (0, 0): 0.25})
        x = [0.5, -1.0]
        assert p.evaluate(x) == pytest.approx(1.5 * 0.25 + 2.0 + 0.25, rel=1e-14)

    def test_batch_shape(self):
        p = Polynomial(1, {(3,): 1.0})
        pts = np.linspace(-1, 1, 7)[:, None]
        assert np.allclose(p.evaluate(pts), pts[:, 0] ** 3)

    def test_zero_polynomial_batch(self):
        assert np.array_equal(Polynomial.zero(2).evaluate(np.ones((4, 2))), np.zeros(4))

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_per_term_reference(self, seed):
        # relative to the sum of |term| values, the scale a sum's rounding
        # error is bounded by when its terms cancel
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        terms = {}
        for _ in range(int(rng.integers(0, 8))):
            index = tuple(int(e) for e in rng.integers(0, 6, dim))
            terms[index] = float(rng.normal() * 10.0 ** rng.integers(-3, 3))
        p = Polynomial(dim, terms)
        x = rng.uniform(-2.0, 2.0, (40, dim))
        scale = term_sum(Polynomial(dim, {n: abs(c) for n, c in terms.items()}), np.abs(x))
        assert np.all(np.abs(p.evaluate(x) - term_sum(p, x)) <= 1e-14 * scale)
        assert abs(p.evaluate(x[0]) - term_sum(p, x[0])) <= 1e-14 * scale[0]

    def test_zero_polynomial_matches_reference(self):
        for dim in (1, 2, 3):
            zero = Polynomial.zero(dim)
            x = np.full((3, 4, dim), 2.0)
            assert np.array_equal(zero.evaluate(x), term_sum(zero, x))
            assert zero.evaluate(x[0, 0]) == 0.0

    def test_huge_coefficient_still_overflows(self):
        p = Polynomial(1, {(2,): 1e308, (0,): 1.0})
        x = np.array([[10.0], [0.5], [-20.0]])
        with np.errstate(over="ignore"):
            got, want = p.evaluate(x), term_sum(p, x)
        assert np.array_equal(got, want)
        assert np.array_equal(np.isinf(got), [True, False, True])
