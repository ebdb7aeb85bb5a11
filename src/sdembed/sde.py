"""Polynomial-coefficient SDE models dx = a(x) dt + B(x) dW.

The drift vector a and diffusion matrix B are polynomials, which keeps
the image of any monomial under the backward-equation generator a finite
polynomial.  A model holds them as one term table (`Polynomial`) whose
columns are a_1 ... a_d, then B row-major.  The generator acting on
observables is

    L = sum_i a_i(x) d/dx_i + 1/2 sum_{i,j} [B(x) B(x)^T]_{i,j} d2/dx_i dx_j

and `dual.build_generator` assembles its action on a whole monomial basis
from the drift terms and the `diffusion_product` entries.
Two builtin models are provided: the Ornstein-Uhlenbeck process (1-D,
linear) and the noisy van der Pol oscillator (2-D, cubic drift).
`BUILTIN_PARAMS` and `BUILTIN_ALIASES` name them and their parameters,
which default to 1.0.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .polynomial import Polynomial

__all__ = [
    "BUILTIN_PARAMS",
    "BUILTIN_ALIASES",
    "SdeModel",
    "ModelParseError",
    "check_moment",
    "builtin_params",
    "builtin_model",
    "diffusion_product",
    "shift_model_origin",
    "parse_model",
    "model_to_dict",
    "read_model",
]


# builtin model name -> its parameter names, and the short aliases
BUILTIN_PARAMS = {
    "ornstein-uhlenbeck": ("gamma", "sigma"),
    "van-der-pol": ("epsilon", "nu11", "nu22"),
}
BUILTIN_ALIASES = {"ou": "ornstein-uhlenbeck", "vdp": "van-der-pol"}


class ModelParseError(ValueError):
    """Malformed model document; the message carries the failing location."""


@dataclass(frozen=True)
class SdeModel:
    """SDE whose drift vector and diffusion matrix share one term table:
    columns a_1 ... a_d, then B_11, B_12, ... row-major."""

    terms: Polynomial
    name: str | None = None

    def __post_init__(self):
        d, columns = self.dim, self.terms.coefs.shape[1]
        if columns != d * (d + 1):
            raise ValueError(f"a {d}-D model needs {d * (d + 1)} coefficient columns, got {columns}")
        if not np.all(np.isfinite(self.terms.coefs)):
            raise ValueError("drift and diffusion coefficients must be finite")

    @property
    def dim(self) -> int:
        return self.terms.dim

    @property
    def drift(self) -> np.ndarray:
        """Read-only (T, d) view: column i holds a_i over the exponent rows."""
        return self.terms.coefs[:, : self.dim]

    @property
    def diffusion(self) -> np.ndarray:
        """Read-only (T, d, d) view: [:, i, j] holds B_ij over the exponent rows."""
        return self.terms.coefs[:, self.dim :].reshape(-1, self.dim, self.dim)

    @cached_property
    def fingerprint(self) -> str:
        """Stable hex digest of the model content (name excluded)."""
        doc = model_to_dict(self)
        doc.pop("name", None)
        blob = json.dumps(doc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def check_moment(dim: int, axis: int, power: int) -> None:
    """Reject a moment E[x_axis^power] (axis 1-based) that a dim-dimensional
    state does not have."""
    if not 1 <= axis <= dim:
        raise ValueError(f"axis {axis} out of range for dimension {dim}")
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power}")


def builtin_params(name: str, params: dict | None = None) -> tuple[str, dict[str, float]]:
    """The canonical name of a builtin model (an alias resolved) and its
    parameters, each unset one 1.0; an unknown model or parameter is a
    ValueError."""
    key = name.strip().lower()
    key = BUILTIN_ALIASES.get(key, key)
    if key not in BUILTIN_PARAMS:
        raise ValueError(f"unknown builtin model {name!r}")
    params = dict(params or {})
    extra = [k for k in params if k not in BUILTIN_PARAMS[key]]
    if extra:
        raise ValueError(f"model {name!r} got unknown parameters {extra}")
    return key, {k: float(params.get(k, 1.0)) for k in BUILTIN_PARAMS[key]}


def builtin_model(name: str, params: dict | None = None) -> SdeModel:
    """Construct one of the builtin models by name, unset parameters 1.0.

    "ornstein-uhlenbeck" (alias "ou") takes gamma and sigma:
        dx = -gamma x dt + sigma dW.
    "van-der-pol" (alias "vdp") takes epsilon, nu11, nu22:
        dx1 = x2 dt,  dx2 = (epsilon x2 (1 - x1^2) - x1) dt,
        with diffusion diag(nu11, nu22).
    """
    key, p = builtin_params(name, params)
    if key == "ornstein-uhlenbeck":
        return SdeModel(_table(1, [{(1,): -p["gamma"]}, {(0,): p["sigma"]}]), key)
    eps = p["epsilon"]
    columns = [{(0, 1): 1.0}, {(0, 1): eps, (2, 1): -eps, (1, 0): -1.0}]
    columns += [{(0, 0): p["nu11"]}, {}, {}, {(0, 0): p["nu22"]}]
    return SdeModel(_table(2, columns), key)


def _table(dim: int, columns: list[dict]) -> Polynomial:
    """One term table from per-column maps {exponent tuple: coefficient}."""
    rows = list(dict.fromkeys(n for column in columns for n in column))
    coefs = [[column.get(n, 0.0) for column in columns] for n in rows]
    exps = np.array(rows, dtype=np.int64).reshape(-1, dim)
    return Polynomial(exps, np.array(coefs, dtype=float).reshape(-1, len(columns)))


def _columns(table: Polynomial) -> list[dict]:
    """Each column's nonzero terms {exponent tuple: coefficient}, in grlex order."""
    rows = list(map(tuple, table.exps.tolist()))
    return [{n: c for n, c in zip(rows, column) if c != 0.0} for column in table.coefs.T.tolist()]


def diffusion_product(model: SdeModel) -> Polynomial:
    """B B^T as exact polynomial products: column i * d + j holds [B B^T]_ij,
    symmetric by construction.  Each product B_ik B_jk is a math.fsum over
    its term pairs per exponent, and the products are added over k in order."""
    d = model.dim
    entries = _columns(model.terms)[d:]  # B_ik at i * d + k
    columns = []
    for i in range(d):
        for j in range(d):
            acc: dict[tuple[int, ...], float] = {}
            for k in range(d):
                pairs: dict[tuple[int, ...], list[float]] = {}
                for na, ca in entries[i * d + k].items():
                    for nb, cb in entries[j * d + k].items():
                        pairs.setdefault(tuple(a + b for a, b in zip(na, nb)), []).append(ca * cb)
                for n, values in pairs.items():
                    acc[n] = acc.get(n, 0.0) + math.fsum(values)
            columns.append(acc)
    return _table(d, columns)


def shift_model_origin(model: SdeModel, offset) -> SdeModel:
    """Model expressed in translated coordinates y = x - offset.

    A pure translation leaves the noise term structure unchanged, so both
    drift and diffusion are simply re-expanded around the new origin.
    """
    offset = tuple(float(c) for c in offset)
    if len(offset) != model.dim:
        raise ValueError(f"offset length {len(offset)} != model dimension {model.dim}")
    if not all(map(math.isfinite, offset)):
        raise ValueError(f"origin must be finite, got {list(offset)}")
    try:
        return SdeModel(model.terms.shift(offset), model.name)
    except OverflowError:  # a power of the offset exceeds the float range
        raise ValueError(f"origin {list(offset)} overflows the shifted model's coefficients") from None


# -- serialization -----------------------------------------------------------


def _terms_from_list(doc, dim: int, where: str) -> dict:
    if not isinstance(doc, list):
        raise ModelParseError(f"{where}: expected a list of terms")
    acc: dict[tuple[int, ...], float] = {}
    for t, term in enumerate(doc):
        loc = f"{where}[{t}]"
        if not isinstance(term, dict) or "coef" not in term or "powers" not in term:
            raise ModelParseError(f"{loc}: expected an object with 'coef' and 'powers'")
        powers = term["powers"]
        if not isinstance(powers, list) or len(powers) != dim:
            raise ModelParseError(f"{loc}.powers: expected {dim} entries")
        # JSON true/false load as bool, an int subclass: they are not numbers here
        if any(not isinstance(e, int) or isinstance(e, bool) or e < 0 for e in powers):
            raise ModelParseError(f"{loc}.powers: exponents must be non-negative integers")
        if not isinstance(term["coef"], (int, float)) or isinstance(term["coef"], bool):
            raise ModelParseError(f"{loc}.coef: expected a number")
        key = tuple(powers)
        acc[key] = acc.get(key, 0.0) + float(term["coef"])
    return acc


def model_to_dict(model: SdeModel) -> dict:
    d = model.dim
    terms = [[{"coef": c, "powers": list(n)} for n, c in column.items()] for column in _columns(model.terms)]
    doc = {"dim": d, "drift": terms[:d], "diffusion": [terms[d * (i + 1) : d * (i + 2)] for i in range(d)]}
    if model.name is not None:
        doc["name"] = model.name
    return doc


def parse_model(doc: dict) -> SdeModel:
    """Build an SdeModel from a parsed config document.

    Raises ModelParseError with the offending location for malformed input.
    """
    if not isinstance(doc, dict):
        raise ModelParseError("top level: expected an object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ModelParseError("dim: expected a positive integer")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ModelParseError("name: expected a string")
    drift_doc = doc.get("drift")
    if not isinstance(drift_doc, list) or len(drift_doc) != dim:
        raise ModelParseError(f"drift: expected a list of {dim} term lists")
    diff_doc = doc.get("diffusion")
    if not isinstance(diff_doc, list) or len(diff_doc) != dim:
        raise ModelParseError(f"diffusion: expected a {dim}x{dim} matrix of term lists")
    columns = [_terms_from_list(row, dim, f"drift[{i}]") for i, row in enumerate(drift_doc)]
    for i, row in enumerate(diff_doc):
        if not isinstance(row, list) or len(row) != dim:
            raise ModelParseError(f"diffusion[{i}]: expected {dim} term lists")
        columns += [_terms_from_list(cell, dim, f"diffusion[{i}][{j}]") for j, cell in enumerate(row)]
    return SdeModel(_table(dim, columns), name)


def read_model(path) -> SdeModel:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ModelParseError(f"{path}: invalid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ModelParseError(f"{path}: {exc}") from None
    return parse_model(doc)
