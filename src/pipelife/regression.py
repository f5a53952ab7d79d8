"""Closed-form deterioration models and a multivariate polynomial fitter.

A deterioration model maps (age A in years, wall thickness loss W in percent)
to remaining useful life Y in years through a polynomial of total degree at
most three.  Four built-in models ship with the package, one per material
class; they are implemented exactly as published, which
means the CI model goes negative for ages above roughly 12 years and the DI
and AC models grow with age.  The clamped output exists for consumers that
need a physically sensible floor.

fit_polynomial reproduces the construction procedure on data: least squares
over the monomial basis (degrees 1-3), optionally with greedy term selection
that keeps adding the best term while R² improves by at least 0.005.  The
greedy search is forward selection by orthogonal reduction: the full basis is
QR-factored once and every candidate is scored by its drop in residual sum of
squares from that one factorization.  A candidate whose drop is within
1e-12·SST of the best one loses to the term that comes earlier in basis
order (intercept, A, W, A^2, A*W, W^2, A^3, ...).  The chosen terms are then
solved by least squares, as the full basis is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import NonpositiveBaseline, OutOfDomain, Underdetermined, UnsupportedMaterial

GREEDY_R2_GAIN = 0.005
GREEDY_TIE = 1e-12  # drops within this share of SST tie; the earlier term wins
MAX_DEGREE = 3


@dataclass(frozen=True)
class DeteriorationModel:
    """Polynomial RUL model: terms are (coefficient, age_power, wtl_power)."""

    material: str          # CI | DI | AC | Steel | Custom
    terms: tuple
    r2_fit: float
    degenerate: bool = False  # rank-deficient design or constant target
    # (age_power, wtl_power, R² after it) in the order the fit added the
    # terms; a diagnostic of fit_polynomial, not part of the document
    selection: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if not self.terms:
            raise ValueError("term list must be non-empty")
        for coef, a_pow, w_pow in self.terms:
            if a_pow < 0 or w_pow < 0 or a_pow + w_pow > MAX_DEGREE:
                raise ValueError(f"bad monomial exponents ({a_pow}, {w_pow})")

    def to_dict(self) -> dict:
        return {
            "material": self.material,
            "terms": [list(t) for t in self.terms],
            "r2_fit": self.r2_fit,
            "degenerate": self.degenerate,
        }

    def to_json(self) -> str:
        return json.dumps({"format": "pipelife-deterioration-v1", **self.to_dict()}, indent=2)

    def formula(self) -> str:
        parts = []
        for coef, a_pow, w_pow in self.terms:
            mono = monomial(a_pow, w_pow)
            parts.append(f"{coef:+g}" + (f"*{mono}" if mono else ""))
        return "Y = " + " ".join(parts)


def monomial(a_pow: int, w_pow: int) -> str:
    """A^a*W^w with unit powers and zero-power factors left out; "" for 1."""
    mono = ""
    if a_pow:
        mono += "A" + (f"^{a_pow}" if a_pow > 1 else "")
    if w_pow:
        mono += ("*" if mono else "") + "W" + (f"^{w_pow}" if w_pow > 1 else "")
    return mono


_BUILTIN = {
    "CI": ((-0.342, 2, 0), (0.0548, 0, 1), (48.163, 0, 0)),
    "DI": ((0.004, 3, 0), (-0.025, 0, 2), (0.11, 1, 1), (51.0, 0, 0)),
    "AC": ((0.0038, 2, 0), (-0.49, 0, 1), (195.92, 0, 0)),
    "Steel": ((0.005, 3, 0), (-0.012, 0, 2), (-0.989, 1, 1), (-0.012, 0, 0)),
}
_BUILTIN_R2 = {"CI": 0.78, "DI": 0.74, "AC": 0.80, "Steel": 0.73}

BUILTIN_MATERIALS = tuple(_BUILTIN)


def builtin(material: str) -> DeteriorationModel:
    """The published deterioration model for CI, DI, AC or Steel pipes."""
    key = material.strip()
    lookup = {m.lower(): m for m in _BUILTIN}
    if key.lower() not in lookup:
        raise UnsupportedMaterial(
            f"no built-in model for {material!r}; choose one of {', '.join(_BUILTIN)}"
        )
    key = lookup[key.lower()]
    return DeteriorationModel(material=key, terms=_BUILTIN[key], r2_fit=_BUILTIN_R2[key])


def predict_rul(model: DeteriorationModel, age, wtl) -> tuple:
    """Evaluate the polynomial at (age, wtl), scalars or arrays of one shape.

    Returns (raw, clamped_at_zero): floats for scalar inputs, arrays
    otherwise.  Any element out of the domain raises OutOfDomain.
    """
    age = np.asarray(age, dtype=float)
    wtl = np.asarray(wtl, dtype=float)
    if np.any(age < 0):
        raise OutOfDomain(f"age must be >= 0, got {age[age < 0].flat[0]}")
    outside = ~((wtl >= 0.0) & (wtl <= 100.0))
    if outside.any():
        raise OutOfDomain(f"wall thickness loss must be in [0, 100], got {wtl[outside].flat[0]}")
    raw = sum(c * age**a * wtl**w for c, a, w in model.terms)
    if raw.ndim == 0:
        return float(raw), max(float(raw), 0.0)
    return raw, np.maximum(raw, 0.0)


def _basis_exponents(degree: int):
    """All (age_power, wtl_power) with total degree <= degree, intercept first."""
    return [
        (a, w)
        for total in range(degree + 1)
        for a in range(total, -1, -1)
        for w in (total - a,)
    ]


def _design(age: np.ndarray, wtl: np.ndarray, exponents, a_scale: float, w_scale: float):
    cols = [
        (age / a_scale) ** a * (wtl / w_scale) ** w
        for a, w in exponents
    ]
    return np.column_stack(cols)


def _solve(phi: np.ndarray, y: np.ndarray):
    theta, _, rank, _ = np.linalg.lstsq(phi, y, rcond=None)
    return theta, bool(rank < phi.shape[1])


def _forward_path(phi_full: np.ndarray, y: np.ndarray, greedy: bool) -> list:
    """The columns a fit adds, in order, each with the R² after it.

    Full selection adds, in basis order, every column outside the span of
    the columns before it.  Greedy selection starts from the intercept and
    adds the column with the largest drop in residual sum of squares, while
    that drop is at least GREEDY_R2_GAIN·SST and fewer terms than rows are
    chosen.  A drop within GREEDY_TIE·SST of the best loses to the column
    that comes earlier in basis order.

    Both run on one QR factorization of the full basis with y beside it:
    [phi, y] = Q [R, z].  Every column of R and z have the chosen columns
    projected off, and a column u then drops the residual sum of squares by
    (uᵀz)²/(uᵀu).  A column left with less than √ε of its own length lies,
    as far as rounding can tell, in the span of the chosen ones; it drops
    nothing and is never added.  A constant target has R² = 1 throughout:
    full selection keeps every column, greedy selection the intercept alone.
    """
    dev = y - y.mean()
    sst = float(dev @ dev)
    if sst == 0.0:
        return [(idx, 1.0) for idx in range(1 if greedy else phi_full.shape[1])]
    factor = np.linalg.qr(np.column_stack([phi_full, y]), mode="r")
    cols, resid = factor[:, :-1], factor[:, -1]
    floors = np.sqrt(np.finfo(float).eps) * np.linalg.norm(cols, axis=0)
    left = np.ones(cols.shape[1], dtype=bool)
    path, r2, idx = [], 0.0, 0  # the intercept explains no variance
    while True:
        norm = np.linalg.norm(cols[:, idx])
        if norm > floors[idx]:
            u = cols[:, idx] / norm
            along = float(u @ resid)
            resid -= along * u
            cols -= np.outer(u, u @ cols)
            if path:
                r2 += along * along / sst
            path.append((idx, r2))
        left[idx] = False
        if not left.any():
            return path
        if not greedy:
            idx += 1
            continue
        if len(path) >= y.size:
            return path
        norms = np.linalg.norm(cols, axis=0)
        drops = np.zeros_like(norms)
        np.divide((cols.T @ resid) ** 2, norms * norms, out=drops, where=left & (norms > floors))
        best = drops.max()
        if best < GREEDY_R2_GAIN * sst:
            return path
        idx = int(np.flatnonzero(drops >= best - GREEDY_TIE * sst)[0])


def _r2(y: np.ndarray, fitted: np.ndarray):
    dev = y - y.mean()
    sst = float(dev @ dev)
    if sst == 0.0:
        # constant target: the intercept reproduces it exactly
        return 1.0, True
    resid = y - fitted
    return 1.0 - float(resid @ resid) / sst, False


def fit_polynomial(
    age, wtl, rul, degree: int = 2, term_selection: str = "full", material: str = "Custom"
) -> DeteriorationModel:
    """Least-squares polynomial fit of RUL on (age, wtl).

    Ages and losses are rescaled by their ranges before solving so the
    degree-3 basis stays well conditioned; reported coefficients are in raw
    units.  `term_selection` is "full" for the complete basis or "greedy" to
    add terms one at a time while R² improves by at least 0.005.  A full fit
    leaves out every term in the span of the terms before it in basis order
    and is then degenerate: a minimum-norm solve would spread the intercept
    over, say, the powers of a wall loss that never varies.  A term
    whose gain ties the best one within 1e-12 of SST loses to the term that
    comes earlier in basis order.  The model's `selection` lists the terms
    in the order they were added with the R² after each.
    """
    age = np.asarray(age, dtype=float)
    wtl = np.asarray(wtl, dtype=float)
    y = np.asarray(rul, dtype=float)
    if not (age.size == wtl.size == y.size):
        raise ValueError("age, wtl and rul must have equal lengths")
    if not (np.isfinite(age).all() and np.isfinite(wtl).all() and np.isfinite(y).all()):
        raise ValueError("age, wtl and rul must be finite")
    if degree not in (1, 2, 3):
        raise ValueError(f"degree must be 1, 2 or 3, got {degree}")
    if term_selection not in ("full", "greedy"):
        raise ValueError(f"unknown term_selection: {term_selection!r}")
    exponents = _basis_exponents(degree)
    if y.size < len(exponents) and term_selection == "full":
        raise Underdetermined(
            f"{y.size} observations cannot determine {len(exponents)} terms"
        )
    a_scale = float(np.abs(age).max()) or 1.0
    w_scale = float(np.abs(wtl).max()) or 1.0
    phi_full = _design(age, wtl, exponents, a_scale, w_scale)

    path = _forward_path(phi_full, y, greedy=term_selection == "greedy")
    chosen = [idx for idx, _ in path]
    phi = phi_full[:, chosen]
    theta, degenerate = _solve(phi, y)
    r2_fit, constant_target = _r2(y, phi @ theta)
    terms = []
    for coef, idx in zip(theta, chosen):
        a_pow, w_pow = exponents[idx]
        terms.append((float(coef / (a_scale**a_pow * w_scale**w_pow)), a_pow, w_pow))
    return DeteriorationModel(
        material=material,
        terms=tuple(terms),
        r2_fit=float(r2_fit),
        # a full fit that left out a column in the span of the others
        degenerate=degenerate or constant_target or (
            term_selection == "full" and len(chosen) < len(exponents)),
        selection=tuple((*exponents[idx], r2) for idx, r2 in path),
    )


def halflife_check(
    model: DeteriorationModel, age: float, delta_wtl: float, baseline_wtl: float = 0.0
) -> float:
    """Fractional RUL drop when wall loss rises from baseline by delta.

    Returns (Y(age, w0) - Y(age, w0 + delta)) / Y(age, w0) on the raw
    polynomial; the baseline RUL must be positive.
    """
    base, _ = predict_rul(model, age, baseline_wtl)
    if base <= 0:
        raise NonpositiveBaseline(
            f"baseline RUL {base:.3f} at (age={age}, wtl={baseline_wtl}) is not positive"
        )
    bumped, _ = predict_rul(model, age, baseline_wtl + delta_wtl)
    return (base - bumped) / base
