import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipelife import regression, synth
from pipelife.anfis import contour_grid, sensitivity_ranking
from pipelife.data import MATERIALS, FeatureMatrix, encode_material
from pipelife.errors import (
    DimensionMismatch,
    NonpositiveBaseline,
    OutOfDomain,
    Underdetermined,
    UnsupportedMaterial,
)
from pipelife.regression import (
    BUILTIN_MATERIALS,
    DeteriorationModel,
    builtin,
    fit_polynomial,
    halflife_check,
    predict_rul,
)

from oracles import deterioration_from_dict, fit_greedy_by_refit

# Hand-evaluated grid points for the four published models, exact to 1e-9.
# CI:    Y = -0.342 A^2 + 0.0548 W + 48.163
# DI:    Y = 0.004 A^3 - 0.025 W^2 + 0.11 A W + 51
# AC:    Y = 0.0038 A^2 - 0.49 W + 195.92
# Steel: Y = 0.005 A^3 - 0.012 W^2 - 0.989 A W - 0.012
HAND_VALUES = {
    "CI": [
        (0, 0, 48.163),
        (10, 10, 14.511),            # -34.2 + 0.548 + 48.163
        (5, 20, 40.709),             # -8.55 + 1.096 + 48.163
        (12, 40, 1.107),             # -49.248 + 2.192 + 48.163
        (20, 59, -85.4038),          # -136.8 + 3.2332 + 48.163
    ],
    "DI": [
        (0, 0, 51.0),
        (10, 10, 63.5),              # 4 - 2.5 + 11 + 51
        (5, 20, 52.5),               # 0.5 - 10 + 11 + 51
        (20, 30, 126.5),             # 32 - 22.5 + 66 + 51
        (50, 50, 763.5),             # 500 - 62.5 + 275 + 51
    ],
    "AC": [
        (0, 0, 195.92),
        (10, 10, 191.4),             # 0.38 - 4.9 + 195.92
        (50, 30, 190.72),            # 9.5 - 14.7 + 195.92
        (100, 59, 205.01),           # 38 - 28.91 + 195.92
        (25, 45, 176.245),           # 2.375 - 22.05 + 195.92
    ],
    "Steel": [
        (0, 0, -0.012),
        (10, 10, -95.112),           # 5 - 1.2 - 98.9 - 0.012
        (30, 5, -13.662),            # 135 - 0.3 - 148.35 - 0.012
        (50, 2, 526.04),             # 625 - 0.048 - 98.9 - 0.012
        (20, 1, 20.196),             # 40 - 0.012 - 19.78 - 0.012
    ],
}

PUBLISHED_R2 = {"CI": 0.78, "DI": 0.74, "AC": 0.80, "Steel": 0.73}


def test_builtin_models_match_hand_values():
    for material, cases in HAND_VALUES.items():
        model = builtin(material)
        for age, wtl, expected in cases:
            raw, clamped = predict_rul(model, age, wtl)
            assert raw == pytest.approx(expected, abs=1e-9), (material, age, wtl)
            assert clamped == max(raw, 0.0)


def test_builtin_fit_quality_and_terms():
    assert builtin("CI").r2_fit == 0.78
    assert len(builtin("CI").terms) == 3
    assert builtin("Steel").r2_fit == 0.73
    assert len(builtin("Steel").terms) == 4
    assert len(builtin("DI").terms) == 4
    assert builtin("AC").r2_fit == 0.80


def test_builtin_case_insensitive():
    assert builtin("ci").material == "CI"
    assert builtin("STEEL").material == "Steel"


def test_builtin_unsupported():
    with pytest.raises(UnsupportedMaterial):
        builtin("PVC")


def test_predict_rul_domain():
    model = builtin("CI")
    with pytest.raises(OutOfDomain):
        predict_rul(model, -1.0, 10.0)
    with pytest.raises(OutOfDomain):
        predict_rul(model, 10.0, 150.0)


def test_steel_zero_case_clamps():
    raw, clamped = predict_rul(builtin("Steel"), 0, 0)
    assert raw == pytest.approx(-0.012, abs=1e-12)
    assert clamped == 0.0


# -- polynomial fitting -----------------------------------------------------------

def eval_terms(terms, age, wtl):
    return sum(c * age**a * wtl**w for c, a, w in terms)


def test_fit_recovers_planted_degree1():
    rng = np.random.default_rng(0)
    age = rng.uniform(0, 100, size=40)
    wtl = rng.uniform(0, 60, size=40)
    y = 2.0 * age + 3.0 * wtl + 1.0
    model = fit_polynomial(age, wtl, y, degree=1)
    coeffs = {(a, w): c for c, a, w in model.terms}
    assert coeffs[(1, 0)] == pytest.approx(2.0, abs=1e-8)
    assert coeffs[(0, 1)] == pytest.approx(3.0, abs=1e-8)
    assert coeffs[(0, 0)] == pytest.approx(1.0, abs=1e-8)
    assert model.r2_fit == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("degree", [2, 3])
def test_fit_recovers_planted_higher_degree(degree):
    rng = np.random.default_rng(degree)
    age = rng.uniform(1, 120, size=80)
    wtl = rng.uniform(1, 59, size=80)
    if degree == 2:
        y = 0.01 * age**2 - 0.03 * wtl**2 + 0.05 * age * wtl - 2.0 * age + 40.0
        planted = {(2, 0): 0.01, (0, 2): -0.03, (1, 1): 0.05, (1, 0): -2.0,
                   (0, 1): 0.0, (0, 0): 40.0}
    else:
        y = 0.004 * age**3 - 0.025 * wtl**2 + 0.11 * age * wtl + 51.0
        planted = {(3, 0): 0.004, (0, 2): -0.025, (1, 1): 0.11, (0, 0): 51.0}
    model = fit_polynomial(age, wtl, y, degree=degree)
    coeffs = {(a, w): c for c, a, w in model.terms}
    for key, value in planted.items():
        assert coeffs[key] == pytest.approx(value, abs=1e-8), key
    assert model.r2_fit == pytest.approx(1.0, abs=1e-9)


def test_fit_constant_target_convention():
    age = np.array([1.0, 2.0, 3.0, 4.0])
    wtl = np.array([5.0, 6.0, 7.0, 8.0])
    y = np.full(4, 9.0)
    model = fit_polynomial(age, wtl, y, degree=1)
    assert [(a, w) for _, a, w in model.terms] == [(0, 0), (1, 0), (0, 1)]
    assert model.r2_fit == 1.0
    assert model.degenerate
    assert eval_terms(model.terms, 2.5, 6.5) == pytest.approx(9.0, abs=1e-8)


def test_fit_underdetermined():
    with pytest.raises(Underdetermined):
        fit_polynomial([1.0, 2.0], [3.0, 4.0], [5.0, 6.0], degree=3)


def test_fit_greedy_selects_true_terms():
    rng = np.random.default_rng(5)
    age = rng.uniform(1, 100, size=200)
    wtl = rng.uniform(1, 59, size=200)
    y = 50.0 - 0.5 * age - 1.5 * wtl + rng.normal(0, 0.5, size=200)
    model = fit_polynomial(age, wtl, y, degree=3, term_selection="greedy")
    powers = {(a, w) for _, a, w in model.terms}
    assert (1, 0) in powers and (0, 1) in powers
    assert model.r2_fit > 0.99
    assert len(model.terms) <= 5  # no need for most of the cubic basis


def test_fit_degenerate_design_flagged():
    # wtl is an exact affine function of age, so the degree-1 basis is rank 2
    age = np.linspace(1, 50, 30)
    wtl = 2.0 * age + 1.0
    y = 10.0 + age
    model = fit_polynomial(age, wtl, y, degree=1)
    assert model.degenerate
    fitted = [eval_terms(model.terms, a, w) for a, w in zip(age, wtl)]
    assert fitted == pytest.approx(list(y), abs=1e-8)
    payload = json.loads(model.to_json())
    assert payload["degenerate"] is True
    assert deterioration_from_dict(payload) == model


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_full_fit_on_a_constant_wall_loss_has_no_wall_loss_term(degree):
    # W is the intercept times 20: a minimum-norm solve over the whole basis
    # spread the intercept over W, W^2 and W^3, and 10 more points of wall
    # loss then raised RUL by ~110%
    age = 5.0 + 3.0 * np.arange(30)
    y = 60.0 - np.arange(30)
    model = fit_polynomial(age, np.full(30, 20.0), y, degree=degree, material="CI")
    assert model.degenerate
    assert all(w == 0 for _, _, w in model.terms)
    assert [(a, w) for a, w, _ in model.selection] == [(a, w) for _, a, w in model.terms]
    assert halflife_check(model, 40, 10, 20) == 0.0
    fitted = [eval_terms(model.terms, a, 20.0) for a in age]
    assert fitted == pytest.approx(list(y), abs=1e-8)


# -- greedy term selection -----------------------------------------------------------

def test_fit_records_the_selection_path():
    rng = np.random.default_rng(5)
    age = rng.uniform(1, 100, size=200)
    wtl = rng.uniform(1, 59, size=200)
    y = 50.0 - 0.5 * age - 1.5 * wtl + rng.normal(0, 0.5, size=200)
    greedy = fit_polynomial(age, wtl, y, degree=3, term_selection="greedy")
    assert [(a, w) for a, w, _ in greedy.selection] == [(a, w) for _, a, w in greedy.terms]
    r2s = [r2 for _, _, r2 in greedy.selection]
    assert r2s[0] == 0.0
    assert all(later - earlier >= regression.GREEDY_R2_GAIN
               for earlier, later in zip(r2s, r2s[1:]))
    assert r2s[-1] == pytest.approx(greedy.r2_fit, abs=1e-12)
    full = fit_polynomial(age, wtl, y, degree=2)
    assert [(a, w) for a, w, _ in full.selection] == [(a, w) for _, a, w in full.terms]
    assert full.selection[-1][2] == pytest.approx(full.r2_fit, abs=1e-12)


@settings(deadline=None, max_examples=25)
@given(n=st.integers(200, 5000), seed=st.integers(0, 2**32 - 1),
       degree=st.sampled_from([1, 2, 3]))
def test_greedy_fit_equals_the_refit_oracle(n, seed, degree):
    """On generated inventories, every material's greedy model document is
    the one that refitting each candidate by lstsq gives, byte for byte.  A
    material with no more rows than the cubic basis has terms is left out:
    its fit can be exact, and then every candidate ties."""
    dataset = synth.generate(synth.GeneratorConfig(n=n, seed=seed))
    age, wtl, rul = (dataset.column(c)
                     for c in ("age_years", "wall_thickness_loss_pct", "rul_years"))
    for tag in BUILTIN_MATERIALS:
        mask = dataset.materials == MATERIALS.index(encode_material(tag))
        if mask.sum() <= len(regression._basis_exponents(3)):
            continue
        ours = fit_polynomial(age[mask], wtl[mask], rul[mask], degree, "greedy", tag)
        oracle = fit_greedy_by_refit(age[mask], wtl[mask], rul[mask], degree, tag)
        assert ours.to_json() == oracle.to_json(), (tag, ours.selection)


@pytest.mark.parametrize("age, wtl, rul, degree", [
    ([30.0, 55.0], [20.0, 45.5], [30.0, 12.0], 2),
    ([5.0, 55.0], [45.5, 45.5], [3.0, 50.0], 3),  # rounding puts A^3 a hair ahead of A
])
def test_greedy_tie_goes_to_the_earlier_term_for_two_rows(age, wtl, rul, degree):
    # on two points every term that varies reaches R² = 1; A is first in basis order
    model = fit_polynomial(age, wtl, rul, degree=degree, term_selection="greedy")
    assert [(a, w) for _, a, w in model.terms] == [(0, 0), (1, 0)]
    assert model.r2_fit == pytest.approx(1.0, abs=1e-12)


def test_greedy_tie_goes_to_the_earlier_term_for_equal_columns():
    # wall loss in {0, 1} makes W, W^2 and W^3 the same column
    rng = np.random.default_rng(3)
    age = rng.uniform(1, 100, size=50)
    wtl = rng.integers(0, 2, size=50).astype(float)
    model = fit_polynomial(age, wtl, 10.0 - 5.0 * wtl, degree=3, term_selection="greedy")
    assert [(a, w) for _, a, w in model.terms] == [(0, 0), (0, 1)]
    assert eval_terms(model.terms, 7.0, 1.0) == pytest.approx(5.0, abs=1e-9)


def _refit_r2(age, wtl, y, powers):
    a_scale = float(np.abs(age).max()) or 1.0
    w_scale = float(np.abs(wtl).max()) or 1.0
    phi = regression._design(age, wtl, powers, a_scale, w_scale)
    theta, _ = regression._solve(phi, y)
    return regression._r2(y, phi @ theta)[0]


@settings(deadline=None, max_examples=200)
@given(rows=st.lists(st.tuples(st.sampled_from([0.0, 1.0, 2.0, 5.0, 40.0]),
                               st.sampled_from([0.0, 0.5, 1.0, 20.0]),
                               st.sampled_from([0.0, 3.0, 10.0, 11.0])),
                     min_size=1, max_size=11),
       degree=st.sampled_from([1, 2, 3]))
def test_greedy_steps_are_best_up_to_ties_on_tiny_designs(rows, degree):
    """Repeated values make ties and rank-deficient designs.  Each added term
    gains the most R² by an lstsq refit, up to rounding, and at least
    GREEDY_R2_GAIN; the search stops only when no term gains that much,
    every term is in, or there are as many terms as rows."""
    age, wtl, y = (np.array(column) for column in zip(*rows))
    model = fit_polynomial(age, wtl, y, degree=degree, term_selection="greedy")
    powers = [(a, w) for _, a, w in model.terms]
    assert powers[0] == (0, 0)
    for k in range(1, len(powers) + 1):
        r2 = _refit_r2(age, wtl, y, powers[:k])
        gains = [_refit_r2(age, wtl, y, powers[:k] + [cand]) - r2
                 for cand in regression._basis_exponents(degree) if cand not in powers[:k]]
        if k < len(powers):
            gain = _refit_r2(age, wtl, y, powers[:k + 1]) - r2
            assert gain >= max(gains) - 1e-9
            assert gain >= regression.GREEDY_R2_GAIN - 1e-9
        elif gains and k < len(rows):
            assert max(gains) < regression.GREEDY_R2_GAIN + 1e-9


def test_fit_rejects_bad_args():
    with pytest.raises(ValueError):
        fit_polynomial([1.0], [1.0], [1.0], degree=4)
    with pytest.raises(ValueError):
        fit_polynomial([1.0, 2.0], [1.0], [1.0, 2.0], degree=1)
    for selection in ("full", "greedy"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                fit_polynomial([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 5.0], [1.0, bad, 3.0, 4.0],
                               degree=1, term_selection=selection)


# -- half-life check ------------------------------------------------------------

def test_halflife_planted_linear_model():
    model = DeteriorationModel("Custom", ((100.0, 0, 0), (-5.0, 0, 1)), 1.0)
    change = halflife_check(model, age=10.0, delta_wtl=10.0, baseline_wtl=0.0)
    assert change == pytest.approx(0.5, abs=1e-12)


def test_halflife_zero_wtl_coefficient():
    model = DeteriorationModel("Custom", ((80.0, 0, 0), (-0.5, 1, 0)), 1.0)
    assert halflife_check(model, 20.0, 10.0) == 0.0


def test_halflife_nonpositive_baseline():
    model = DeteriorationModel("Custom", ((-5.0, 0, 0),), 1.0)
    with pytest.raises(NonpositiveBaseline):
        halflife_check(model, 0.0, 10.0)


def test_halflife_checks_the_domain_before_the_baseline():
    # both rows are predicted in one call, so the bumped row's wall loss
    # is refused before the nonpositive baseline is
    model = DeteriorationModel("Custom", ((-5.0, 0, 0),), 1.0)
    with pytest.raises(OutOfDomain):
        halflife_check(model, 0.0, 10.0, baseline_wtl=95.0)


# -- the prediction contract --------------------------------------------------------

def test_predict_batch_checks_width_and_domain():
    model = builtin("CI")
    assert model.input_columns == ("age_years", "wall_thickness_loss_pct")
    with pytest.raises(DimensionMismatch):
        model.predict_batch(np.ones((4, 3)))
    with pytest.raises(OutOfDomain):
        model.predict_batch([[10.0, 20.0], [10.0, 101.0]])
    # the raw polynomial, not clamped: CI is negative at age 20
    assert model.predict_batch([[20.0, 59.0]])[0] == pytest.approx(-85.4038, abs=1e-9)


def test_sensitivity_ranking_of_a_polynomial_is_its_analytic_slope():
    # Y = -0.342 A^2 + 0.0548 W + 48.163: a central difference is exact
    # for a quadratic, so each slope is mean |dY/dx| times the input's range
    rng = np.random.default_rng(7)
    age, wtl = rng.uniform(10.0, 60.0, 200), rng.uniform(10.0, 60.0, 200)
    fm = FeatureMatrix(np.column_stack([age, wtl, np.zeros(200)]),
                       ("age_years", "wall_thickness_loss_pct", "rul_years"))
    ranking = sensitivity_ranking(builtin("CI"), fm)
    assert [name for name, _ in ranking] == ["age_years", "wall_thickness_loss_pct"]
    expected = [0.684 * age.mean() * np.ptp(age), 0.0548 * np.ptp(wtl)]
    assert [slope for _, slope in ranking] == pytest.approx(expected, rel=1e-9)
    grid = contour_grid(builtin("CI"), fm, "age_years", "wall_thickness_loss_pct")
    a, w, y = np.array(grid).T
    assert np.array_equal(y, predict_rul(builtin("CI"), a, w)[0])


# -- serialization ----------------------------------------------------------------

def test_model_json_round_trip():
    model = builtin("DI")
    payload = json.loads(model.to_json())
    back = deterioration_from_dict(payload)
    assert back.terms == model.terms
    assert back.r2_fit == model.r2_fit
    assert back.material == "DI"


def test_formula_rendering():
    text = builtin("CI").formula()
    assert text.startswith("Y = ")
    assert "A^2" in text and "W" in text


# -- array evaluation ---------------------------------------------------------------

monomials = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda p: sum(p) <= 3)
polynomials = st.one_of(
    st.sampled_from(BUILTIN_MATERIALS).map(builtin),
    st.lists(
        st.tuples(st.floats(-100, 100, allow_nan=False), monomials), min_size=1, max_size=6
    ).map(lambda terms: DeteriorationModel(
        "Custom", tuple((c, a, w) for c, (a, w) in terms), 1.0)),
)
ages = st.floats(0.0, 150.0, allow_nan=False)
losses = st.floats(0.0, 100.0, allow_nan=False)


@given(polynomials, st.lists(st.tuples(ages, losses), min_size=1, max_size=30))
def test_predict_rul_array_matches_scalar(model, points):
    age = np.array([a for a, _ in points])
    wtl = np.array([w for _, w in points])
    raw, clamped = predict_rul(model, age, wtl)
    for i, (a, w) in enumerate(points):
        raw_i, clamped_i = predict_rul(model, a, w)
        assert isinstance(raw_i, float) and isinstance(clamped_i, float)
        assert raw[i] == raw_i and clamped[i] == clamped_i
    assert np.array_equal(model.predict_batch(np.column_stack([age, wtl])), raw)


@given(
    st.lists(st.tuples(ages, losses), min_size=1, max_size=20),
    st.data(),
)
def test_predict_rul_rejects_any_element_out_of_domain(points, data):
    age = np.array([a for a, _ in points])
    wtl = np.array([w for _, w in points])
    i = data.draw(st.integers(0, len(points) - 1))
    if data.draw(st.booleans()):
        age[i] = data.draw(st.floats(max_value=-1e-9, allow_nan=False, allow_infinity=False))
    else:
        wtl[i] = data.draw(st.one_of(
            st.floats(max_value=-1e-9, allow_nan=False),
            st.floats(min_value=100.0 + 1e-9, allow_nan=False),
            st.just(float("nan")),
        ))
    with pytest.raises(OutOfDomain):
        predict_rul(builtin("CI"), age, wtl)
