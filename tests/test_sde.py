import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    add,
    adjoint_apply,
    allclose,
    derivative,
    diffusion_terms,
    drift_terms,
    make_model,
    mul,
    scale,
    terms,
    total_degree,
)
from sdembed.polynomial import Polynomial
from sdembed.sde import (
    ModelParseError,
    SdeModel,
    builtin_model,
    diffusion_product,
    model_to_dict,
    parse_model,
    read_model,
    shift_model_origin,
)


@pytest.fixture
def ou():
    return builtin_model("ornstein-uhlenbeck", {"gamma": 1.0, "sigma": 1.0})


@pytest.fixture
def vdp():
    return builtin_model("van-der-pol", {"epsilon": 1.0, "nu11": 1.0, "nu22": 1.0})


class TestBuiltins:
    def test_ou_structure(self, ou):
        assert ou.dim == 1
        assert drift_terms(ou, 0) == {(1,): -1.0}
        assert diffusion_terms(ou, 0, 0) == {(0,): 1.0}

    def test_vdp_structure(self, vdp):
        assert vdp.dim == 2
        assert drift_terms(vdp, 0) == {(0, 1): 1.0}
        assert drift_terms(vdp, 1) == {(0, 1): 1.0, (2, 1): -1.0, (1, 0): -1.0}
        assert diffusion_terms(vdp, 0, 0) == {(0, 0): 1.0}
        assert diffusion_terms(vdp, 0, 1) == {}
        assert diffusion_terms(vdp, 1, 0) == {}

    def test_one_table_in_column_order(self, vdp):
        # columns a_1, a_2, then B row-major, over one grlex set of exponent rows
        assert vdp.terms.exps.tolist() == [[0, 0], [1, 0], [0, 1], [2, 1]]
        assert vdp.terms.coefs.tolist() == [
            [0.0, 0.0, 1.0, 0.0, 0.0, 1.0],
            [0.0, -1.0, 0.0, 0.0, 0.0, 0.0],
            [1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0, 0.0, 0.0],
        ]
        assert vdp.drift.shape == (4, 2) and vdp.diffusion.shape == (4, 2, 2)
        assert np.array_equal(vdp.diffusion[:, 1, 1], vdp.terms.coefs[:, 5])
        for view in (vdp.drift, vdp.diffusion):
            assert not view.flags.writeable and np.shares_memory(view, vdp.terms.coefs)

    def test_column_count_must_match_dimension(self):
        two_d = Polynomial([[1, 0]], [[1.0, 0.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="2-D model needs 6 coefficient columns, got 5"):
            SdeModel(two_d)

    def test_aliases(self):
        assert builtin_model("ou", {"gamma": 2.0, "sigma": 0.5}).name == "ornstein-uhlenbeck"
        assert builtin_model("vdp", {"epsilon": 1, "nu11": 1, "nu22": 1}).name == "van-der-pol"

    def test_missing_parameter(self):
        # an unset parameter is 1.0, so the bare names build the paper's models
        pairs = [
            (("van-der-pol", {"epsilon": 2.0}), ("vdp", {"epsilon": 2.0, "nu11": 1.0, "nu22": 1.0})),
            (("vdp", None), ("vdp", {"epsilon": 1.0, "nu11": 1.0, "nu22": 1.0})),
            (("ou", None), ("ou", {"gamma": 1.0, "sigma": 1.0})),
        ]
        for short, spelled_out in pairs:
            assert builtin_model(*short).fingerprint == builtin_model(*spelled_out).fingerprint

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown"):
            builtin_model("heston", {})

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            builtin_model("ou", {"gamma": 1, "sigma": 1, "theta": 2})


def random_diffusion_model(rng, dim, max_exp=2):
    """A model with zero drift and a full diffusion matrix of 1-2 random terms per entry."""
    def entry():
        return {
            tuple(int(e) for e in rng.integers(0, max_exp, dim)): float(rng.uniform(-2, 2))
            for _ in range(rng.integers(1, 3))
        }

    return make_model([{}] * dim, [[entry() for _ in range(dim)] for _ in range(dim)])


class TestDiffusionProduct:
    def test_ou_unit(self, ou):
        assert terms(diffusion_product(ou)) == {(0,): 1.0}

    def test_ou_sigma_squared(self):
        model = builtin_model("ou", {"gamma": 1.0, "sigma": 2.0})
        assert terms(diffusion_product(model)) == {(0,): 4.0}

    def test_vdp_diagonal(self, vdp):
        product = diffusion_product(vdp)
        assert product.coefs.shape == (1, 4)  # column i * d + j holds [BB^T]_ij
        assert terms(product, 0) == terms(product, 3) == {(0, 0): 1.0}
        assert terms(product, 1) == terms(product, 2) == {}

    def test_zero_diffusion(self):
        model = make_model([{(1,): 1.0}], [[{}]])
        product = diffusion_product(model)
        assert product.exps.shape == (0, 1) and product.coefs.shape == (0, 1)

    @given(st.integers(0, 2**32 - 1))
    def test_symmetric_for_random_polynomial_diffusion(self, seed):
        product = diffusion_product(random_diffusion_model(np.random.default_rng(seed), 2))
        assert terms(product, 1) == terms(product, 2)

    def test_each_k_rounded_before_adding_over_k(self):
        # [BB^T]_12 at x_1: B_11 B_21 gives 1 + 2^-53, which rounds to 1, then B_12 B_22
        # adds 2^-53, which rounds away again; one fsum over both k would give 1 + 2^-52
        half_ulp = 2.0**-53
        model = make_model(
            [{}, {}],
            [[{(0, 0): 1.0, (1, 0): half_ulp}, {(1, 0): half_ulp}], [{(0, 0): 1.0, (1, 0): 1.0}, {(0, 0): 1.0}]],
        )
        assert terms(diffusion_product(model), 1)[(1, 0)] == 1.0

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    def test_fsum_per_k_then_added_over_k(self, seed, dim):
        # bit for bit: each B_ik B_jk exactly rounded, the products added in k order
        model = random_diffusion_model(np.random.default_rng(seed), dim, max_exp=3)
        product = diffusion_product(model)
        for i in range(dim):
            for j in range(dim):
                want = {}
                for k in range(dim):
                    want = add(want, mul(diffusion_terms(model, i, k), diffusion_terms(model, j, k)))
                assert terms(product, i * dim + j) == want


class TestAdjointApply:
    """The reference generator action of `helpers`, which the assembled
    generator is checked against column by column."""

    def test_ou_first_moment_chain(self, ou):
        assert adjoint_apply(ou, (1,)) == {(1,): -1.0}

    def test_ou_second_moment_chain(self, ou):
        # -gamma*2*x^2 + (sigma^2/2)*2 with gamma = sigma = 1
        assert adjoint_apply(ou, (2,)) == {(2,): -2.0, (0,): 1.0}

    def test_vdp_x2_image_is_second_drift(self, vdp):
        assert adjoint_apply(vdp, (0, 1)) == drift_terms(vdp, 1)

    def test_vdp_mixed_index(self, vdp):
        # hand application to x1*x2: x2*d/dx1 + drift2*d/dx2, no second-order term survives
        image = adjoint_apply(vdp, (1, 1))
        assert image == add({(0, 2): 1.0}, mul(drift_terms(vdp, 1), {(1, 0): 1.0}))

    def test_linearity_over_monomials(self, vdp):
        # applying the operator definition to x^n + x^m directly must equal
        # the sum of the per-monomial images
        p = {(2, 1): 1.0, (0, 3): 1.0}
        product = diffusion_product(vdp)
        direct = {}
        for i in range(2):
            direct = add(direct, mul(drift_terms(vdp, i), derivative(p, i)))
        for i in range(2):
            for j in range(2):
                second = derivative(derivative(p, i), j)
                direct = add(direct, mul(scale(terms(product, 2 * i + j), 0.5), second))
        assert direct == add(adjoint_apply(vdp, (2, 1)), adjoint_apply(vdp, (0, 3)))

    @pytest.mark.parametrize("index", [(0,), (1,), (3,), (4,)])
    def test_degree_preservation_linear_drift_1d(self, index):
        model = make_model([{(1,): -0.7}], [[{}]])
        image = adjoint_apply(model, index)
        if index[0] == 0:
            assert image == {}
        else:
            assert total_degree(image) == sum(index)

    @pytest.mark.parametrize("index", [(1, 0), (2, 1), (1, 3), (2, 2)])
    def test_degree_preservation_linear_drift_2d(self, index):
        drift = [{(1, 0): 0.3, (0, 1): -1.2}, {(1, 0): 0.5, (0, 1): 0.1}]
        model = make_model(drift, [[{}, {}], [{}, {}]])
        assert total_degree(adjoint_apply(model, index)) == sum(index)

    def test_index_dimension_mismatch(self, ou):
        with pytest.raises(ValueError):
            adjoint_apply(ou, (1, 0))


class TestShiftOrigin:
    def test_ou_shift(self, ou):
        shifted = shift_model_origin(ou, [1.0])
        assert drift_terms(shifted, 0) == {(1,): -1.0, (0,): -1.0}
        assert diffusion_terms(shifted, 0, 0) == diffusion_terms(ou, 0, 0)

    def test_zero_shift_identity(self, vdp):
        shifted = shift_model_origin(vdp, [0.0, 0.0])
        assert np.array_equal(shifted.terms.exps, vdp.terms.exps)
        assert np.array_equal(shifted.terms.coefs, vdp.terms.coefs)

    def test_vdp_shift_matches_polynomial_shift(self, vdp):
        offset = [1.0, 0.0]
        shifted = shift_model_origin(vdp, offset)
        assert shifted.name == vdp.name
        assert np.array_equal(shifted.terms.coefs, vdp.terms.shift(offset).coefs)
        # x2 - (y1 + 1)^2 x2 - (y1 + 1): the x2 terms cancel exactly
        assert drift_terms(shifted, 1) == {(0, 0): -1.0, (1, 0): -1.0, (1, 1): -2.0, (2, 1): -1.0}

    def test_round_trip(self, vdp):
        offset = [0.8, -1.3]
        back = shift_model_origin(shift_model_origin(vdp, offset), [-c for c in offset])
        for i in range(2):
            assert allclose(drift_terms(back, i), drift_terms(vdp, i), rel_tol=1e-12, abs_tol=1e-12)

    def test_wrong_offset_length(self, ou):
        with pytest.raises(ValueError):
            shift_model_origin(ou, [1.0, 2.0])


_NAN_DRIFT_DOC = '{"dim": 1, "drift": [[{"coef": NaN, "powers": [1]}]], "diffusion": [[[]]]}'
_VDP_PARAMS = dict.fromkeys(("epsilon", "nu11", "nu22"), 1.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: builtin_model("ou", {"gamma": math.nan, "sigma": 1.0}), "coefficients must be finite"),
        (lambda: builtin_model("vdp", {**_VDP_PARAMS, "epsilon": math.inf}), "coefficients must be finite"),
        (
            lambda: make_model([{}], [[{(0,): -math.inf}]]),
            "coefficients must be finite",
        ),
        (lambda: parse_model(json.loads(_NAN_DRIFT_DOC)), "coefficients must be finite"),
        (lambda: shift_model_origin(builtin_model("ou", {"gamma": 1.0, "sigma": 1.0}), [math.nan]), "origin must be finite"),
        (lambda: shift_model_origin(builtin_model("vdp", _VDP_PARAMS), [1e200, 1.0]), r"origin \[1e\+200, 1.0\] overflows"),
    ],
    ids=["builtin-nan", "builtin-inf", "diffusion-inf", "json-nan", "origin-nan", "origin-overflow"],
)
def test_non_finite_model_coefficients_are_rejected(build, message):
    # a finite coefficient that overflows in assembly stays a SolverError
    # (test_dual.py::test_overflowing_generator_raises)
    with pytest.raises(ValueError, match=message):
        build()


class TestSerialization:
    def test_round_trip_builtins(self, ou, vdp):
        for model in (ou, vdp):
            again = parse_model(model_to_dict(model))
            assert np.array_equal(again.terms.exps, model.terms.exps)
            assert np.array_equal(again.terms.coefs, model.terms.coefs)
            assert again.dim == model.dim

    def test_bit_exact_coefficients(self, tmp_path):
        model = make_model([{(1,): -1.0 / 3.0, (0,): math.pi}], [[{(0,): math.sqrt(2)}]], name="custom")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(model), indent=2) + "\n")
        again = read_model(path)
        assert again.name == "custom"
        assert drift_terms(again, 0) == {(0,): math.pi, (1,): -1.0 / 3.0}
        assert diffusion_terms(again, 0, 0) == {(0,): math.sqrt(2)}

    def test_entries_written_in_grlex_order(self, vdp):
        doc = model_to_dict(vdp)
        assert [t["powers"] for t in doc["drift"][1]] == [[1, 0], [0, 1], [2, 1]]
        unit = [{"coef": 1.0, "powers": [0, 0]}]
        assert doc["diffusion"] == [[unit, []], [[], unit]]

    def test_repeated_powers_are_summed_in_file_order(self):
        doc = {"dim": 1, "drift": [[{"coef": 0.1, "powers": [1]}, {"coef": 0.2, "powers": [1]},
                                    {"coef": -0.3, "powers": [1]}]], "diffusion": [[[]]]}
        assert drift_terms(parse_model(doc), 0) == {(1,): 0.1 + 0.2 - 0.3}

    def test_fingerprint_stable_and_name_free(self, ou):
        same = builtin_model("ou", {"gamma": 1.0, "sigma": 1.0})
        assert ou.fingerprint == same.fingerprint
        other = builtin_model("ou", {"gamma": 2.0, "sigma": 1.0})
        assert ou.fingerprint != other.fingerprint

    def test_drift_length_mismatch(self):
        doc = {"dim": 2, "drift": [[]], "diffusion": [[[], []], [[], []]]}
        with pytest.raises(ModelParseError, match="drift"):
            parse_model(doc)

    def test_negative_exponent_rejected(self):
        doc = {
            "dim": 1,
            "drift": [[{"coef": 1.0, "powers": [-1]}]],
            "diffusion": [[[]]],
        }
        with pytest.raises(ModelParseError, match="powers"):
            parse_model(doc)

    def test_parse_error_carries_location(self):
        doc = {
            "dim": 2,
            "drift": [[], [{"coef": "x", "powers": [0, 0]}]],
            "diffusion": [[[], []], [[], []]],
        }
        with pytest.raises(ModelParseError, match=r"drift\[1\]\[0\]\.coef"):
            parse_model(doc)

    @pytest.mark.parametrize(
        "dim, term, location",
        [
            (True, {"coef": 1.0, "powers": [1]}, "dim"),
            (1, {"coef": False, "powers": [1]}, r"drift\[0\]\[0\]\.coef"),
            (1, {"coef": 1.0, "powers": [True]}, r"drift\[0\]\[0\]\.powers"),
        ],
        ids=["dim", "coef", "powers"],
    )
    def test_booleans_are_not_numbers(self, dim, term, location):
        doc = {"dim": dim, "drift": [[term]], "diffusion": [[[]]]}
        with pytest.raises(ModelParseError, match=rf"^{location}:"):
            parse_model(doc)

    def test_invalid_json_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ModelParseError, match="invalid JSON"):
            read_model(bad)

    def test_unreadable_file_errors_start_with_the_path(self, tmp_path):
        # undecodable bytes and truncated JSON
        bad = tmp_path / "bad.json"
        for data in (b'{"dim": 1, "drift": [[\xff]]}', b'{"dim": 1'):
            bad.write_bytes(data)
            with pytest.raises(ModelParseError) as raised:
                read_model(bad)
            assert str(raised.value).startswith(f"{bad}: ")
