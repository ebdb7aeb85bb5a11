import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import adjoint_apply, allclose, derivative, scale, total_degree
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
        assert ou.drift[0] == Polynomial(1, {(1,): -1.0})
        assert ou.diffusion[0][0] == Polynomial(1, {(0,): 1.0})

    def test_vdp_structure(self, vdp):
        assert vdp.dim == 2
        assert vdp.drift[0] == Polynomial(2, {(0, 1): 1.0})
        assert vdp.drift[1] == Polynomial(2, {(0, 1): 1.0, (2, 1): -1.0, (1, 0): -1.0})
        assert vdp.diffusion[0][0] == Polynomial(2, {(0, 0): 1.0})
        assert vdp.diffusion[0][1].is_zero()
        assert vdp.diffusion[1][0].is_zero()

    def test_aliases(self):
        assert builtin_model("ou", {"gamma": 2.0, "sigma": 0.5}).name == "ornstein-uhlenbeck"
        assert builtin_model("vdp", {"epsilon": 1, "nu11": 1, "nu22": 1}).name == "van-der-pol"

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="missing"):
            builtin_model("van-der-pol", {"epsilon": 1.0})

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown"):
            builtin_model("heston", {})

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            builtin_model("ou", {"gamma": 1, "sigma": 1, "theta": 2})


class TestDiffusionProduct:
    def test_ou_unit(self, ou):
        assert diffusion_product(ou)[0][0] == Polynomial(1, {(0,): 1.0})

    def test_ou_sigma_squared(self):
        model = builtin_model("ou", {"gamma": 1.0, "sigma": 2.0})
        assert diffusion_product(model)[0][0] == Polynomial(1, {(0,): 4.0})

    def test_vdp_diagonal(self, vdp):
        product = diffusion_product(vdp)
        assert product[0][0] == Polynomial(2, {(0, 0): 1.0})
        assert product[1][1] == Polynomial(2, {(0, 0): 1.0})
        assert product[0][1].is_zero()
        assert product[1][0].is_zero()

    def test_zero_diffusion(self):
        model = SdeModel(
            1, (Polynomial(1, {(1,): 1.0}),), ((Polynomial.zero(1),),)
        )
        assert diffusion_product(model)[0][0].is_zero()

    @given(st.integers(0, 2**32 - 1))
    def test_symmetric_for_random_polynomial_diffusion(self, seed):
        rng = np.random.default_rng(seed)
        cells = []
        for _ in range(2):
            row = []
            for _ in range(2):
                terms = {
                    (int(rng.integers(0, 2)), int(rng.integers(0, 2))): float(rng.uniform(-2, 2))
                    for _ in range(rng.integers(1, 3))
                }
                row.append(Polynomial(2, terms))
            cells.append(tuple(row))
        model = SdeModel(2, (Polynomial.zero(2), Polynomial.zero(2)), tuple(cells))
        product = diffusion_product(model)
        assert product[0][1] == product[1][0]


class TestAdjointApply:
    """The reference generator action of `helpers`, which the assembled
    generator is checked against column by column."""

    def test_ou_first_moment_chain(self, ou):
        assert adjoint_apply(ou, (1,)) == Polynomial(1, {(1,): -1.0})

    def test_ou_second_moment_chain(self, ou):
        # -gamma*2*x^2 + (sigma^2/2)*2 with gamma = sigma = 1
        assert adjoint_apply(ou, (2,)) == Polynomial(1, {(2,): -2.0, (0,): 1.0})

    def test_vdp_x2_image_is_second_drift(self, vdp):
        assert adjoint_apply(vdp, (0, 1)) == vdp.drift[1]

    def test_vdp_mixed_index(self, vdp):
        # hand application to x1*x2: x2*d/dx1 + drift2*d/dx2, no second-order term survives
        image = adjoint_apply(vdp, (1, 1))
        expected = Polynomial(2, {(0, 2): 1.0}) + vdp.drift[1] * Polynomial(2, {(1, 0): 1.0})
        assert image == expected

    def test_linearity_over_monomials(self, vdp):
        # applying the operator definition to x^n + x^m directly must equal
        # the sum of the per-monomial images
        p = Polynomial(2, {(2, 1): 1.0, (0, 3): 1.0})
        product = diffusion_product(vdp)
        direct = Polynomial.zero(2)
        for i in range(2):
            direct = direct + vdp.drift[i] * derivative(p, i)
        for i in range(2):
            for j in range(2):
                direct = direct + scale(product[i][j], 0.5) * derivative(derivative(p, i), j)
        assert direct == adjoint_apply(vdp, (2, 1)) + adjoint_apply(vdp, (0, 3))

    @pytest.mark.parametrize("index", [(0,), (1,), (3,), (4,)])
    def test_degree_preservation_linear_drift_1d(self, index):
        model = SdeModel(1, (Polynomial(1, {(1,): -0.7}),), ((Polynomial.zero(1),),))
        image = adjoint_apply(model, index)
        if index[0] == 0:
            assert image.is_zero()
        else:
            assert total_degree(image) == sum(index)

    @pytest.mark.parametrize("index", [(1, 0), (2, 1), (1, 3), (2, 2)])
    def test_degree_preservation_linear_drift_2d(self, index):
        drift = (
            Polynomial(2, {(1, 0): 0.3, (0, 1): -1.2}),
            Polynomial(2, {(1, 0): 0.5, (0, 1): 0.1}),
        )
        zero_row = (Polynomial.zero(2), Polynomial.zero(2))
        model = SdeModel(2, drift, (zero_row, zero_row))
        assert total_degree(adjoint_apply(model, index)) == sum(index)

    def test_index_dimension_mismatch(self, ou):
        with pytest.raises(ValueError):
            adjoint_apply(ou, (1, 0))


class TestShiftOrigin:
    def test_ou_shift(self, ou):
        shifted = shift_model_origin(ou, [1.0])
        assert shifted.drift[0] == Polynomial(1, {(1,): -1.0, (0,): -1.0})
        assert shifted.diffusion[0][0] == ou.diffusion[0][0]

    def test_zero_shift_identity(self, vdp):
        shifted = shift_model_origin(vdp, [0.0, 0.0])
        assert shifted.drift == vdp.drift
        assert shifted.diffusion == vdp.diffusion

    def test_vdp_shift_matches_polynomial_shift(self, vdp):
        offset = [1.0, 0.0]
        shifted = shift_model_origin(vdp, offset)
        for i in range(2):
            assert shifted.drift[i] == vdp.drift[i].shift(offset)

    def test_round_trip(self, vdp):
        offset = [0.8, -1.3]
        back = shift_model_origin(shift_model_origin(vdp, offset), [-c for c in offset])
        for i in range(2):
            assert allclose(back.drift[i], vdp.drift[i], rel_tol=1e-12, abs_tol=1e-12)

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
            lambda: SdeModel(1, (Polynomial.zero(1),), ((Polynomial.constant(1, -math.inf),),)),
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
            assert again.drift == model.drift
            assert again.diffusion == model.diffusion
            assert again.dim == model.dim

    def test_bit_exact_coefficients(self, tmp_path):
        drift = (Polynomial(1, {(1,): -1.0 / 3.0, (0,): math.pi}),)
        model = SdeModel(1, drift, ((Polynomial(1, {(0,): math.sqrt(2)}),),), name="custom")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(model), indent=2) + "\n")
        again = read_model(path)
        assert again.drift[0].terms == model.drift[0].terms
        assert again.diffusion[0][0].terms == model.diffusion[0][0].terms

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
