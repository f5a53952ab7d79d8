import dataclasses
import json
import math

import numpy as np
import pytest

from pipelife import synth
from pipelife.errors import (
    ConstantSeries,
    EmptySeries,
    LengthMismatch,
    TooFewGroups,
    TooShort,
)
from pipelife.stats import (
    anova_one_way,
    f_sf,
    pearson,
    regularized_incomplete_beta,
    significance_report,
    summarize,
    t_sf_two_sided,
    t_test_two_sample,
)

# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def test_summarize_hand_example():
    s = summarize([5, 5, 7])
    assert s.min == 5 and s.max == 7
    assert s.mean == pytest.approx(5.667, abs=1e-3)
    assert s.mode == 5


def test_summarize_single_value():
    s = summarize([3])
    assert s.min == s.max == s.mean == s.mode == 3
    assert s.std == 0.0


def test_summarize_mode_ties_break_small():
    s = summarize([2, 2, 9, 9, 5])
    assert s.mode == 2


def test_summarize_mode_rounds_to_precision():
    s = summarize([1.1, 1.4, 7.0])  # rounds to 1, 1, 7
    assert s.mode == 1.0


def test_summarize_empty():
    with pytest.raises(EmptySeries):
        summarize([])


def test_summarize_synthetic_age_matches_targets():
    dataset = synth.generate(synth.GeneratorConfig(n=5000, seed=0))
    s = summarize(dataset.column("age_years"))
    assert s.mean == pytest.approx(49.78, rel=0.05)
    assert s.std == pytest.approx(30.31, rel=0.10)


def test_summary_invariants_on_synthetic_columns():
    dataset = synth.generate(synth.GeneratorConfig(n=500, seed=3))
    for name in ("age_years", "wall_thickness_loss_pct", "rul_years", "breaks"):
        s = summarize(dataset.column(name))
        assert s.min <= s.mean <= s.max
        assert s.min <= s.mode <= s.max
        assert s.std >= 0


# ---------------------------------------------------------------------------
# pearson
# ---------------------------------------------------------------------------

def test_pearson_perfect_lines():
    x = np.arange(10.0)
    assert pearson(x, 2 * x + 1) == pytest.approx(1.0, abs=1e-12)
    assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_hand_value():
    # dx=(-1,0,1), dy=(-1,1,0): cov=0.5, sx=sy=1 -> r=0.5
    assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)


def test_pearson_symmetry_and_affine_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.normal(size=30)
        y = rng.normal(size=30) + 0.5 * x
        assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-12)
        assert pearson(3.0 * x + 7.0, y) == pytest.approx(pearson(x, y), abs=1e-9)
        assert pearson(x, 0.25 * y - 2.0) == pytest.approx(pearson(x, y), abs=1e-9)


def test_pearson_errors():
    with pytest.raises(LengthMismatch):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ConstantSeries):
        pearson([1, 1, 1], [1, 2, 3])


# ---------------------------------------------------------------------------
# special functions: frozen scipy.special / scipy.stats oracle values
# ---------------------------------------------------------------------------

# (df_num, df_den, F critical value, alpha from the published tables,
#  upper-tail probability computed independently with scipy.stats.f.sf)
F_TABLE = [
    (1, 2, 18.513, 0.05, 0.04999955099087705),
    (2, 10, 4.103, 0.05, 0.04999508464705948),
    (5, 20, 2.711, 0.05, 0.04999323380566577),
    (3, 15, 5.417, 0.01, 0.009999759481852614),
    (10, 30, 2.165, 0.05, 0.04995780717443036),
    (4, 8, 3.838, 0.05, 0.04999545050271005),
]


def test_f_tail_matches_textbook_quantiles():
    for df1, df2, f_crit, alpha, oracle in F_TABLE:
        p = f_sf(f_crit, df1, df2)
        assert p == pytest.approx(oracle, abs=1e-6)
        assert p == pytest.approx(alpha, abs=5e-4)  # table rounding slack


# (t, df, two-sided p from scipy.stats.t.sf)
T_TABLE = [
    (2.0, 10, 0.07338803477074039),
    (1.5, 3, 0.23058386524482283),
    (2.776, 4, 0.0500227783199764),
    (0.7, 25, 0.49039053678613),
]


def test_t_tail_matches_oracle():
    for t, df, oracle in T_TABLE:
        assert t_sf_two_sided(t, df) == pytest.approx(oracle, abs=1e-9)


def test_incomplete_beta_basics():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    # I_x(1, 1) = x
    for x in (0.1, 0.35, 0.9):
        assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)
    # symmetry: I_x(a, b) = 1 - I_{1-x}(b, a)
    assert regularized_incomplete_beta(2.5, 4.0, 0.3) == pytest.approx(
        1.0 - regularized_incomplete_beta(4.0, 2.5, 0.7), abs=1e-12
    )


# ---------------------------------------------------------------------------
# ANOVA
# ---------------------------------------------------------------------------

def test_anova_identical_groups():
    f, p = anova_one_way([[1, 2, 3], [1, 2, 3]])
    assert f == 0.0
    assert p == 1.0


def test_anova_hand_value():
    # SSB = 2*(1.5-3.5)^2 + 2*(5.5-3.5)^2 = 16, SSW = 1, so F = 16 / 0.5 = 32
    # (verified against scipy.stats.f_oneway: F = 32.0, p = 0.029857...)
    f, p = anova_one_way([[1, 2], [5, 6]])
    assert f == pytest.approx(32.0, abs=1e-9)
    assert p == pytest.approx(0.02985749985466811, abs=1e-9)


def test_anova_too_few_groups():
    with pytest.raises(TooFewGroups):
        anova_one_way([[1, 2, 3]])
    with pytest.raises(TooFewGroups):
        anova_one_way([[1, 2], [5]])


def test_anova_f_equals_t_squared_pooled():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = rng.normal(0, 1, size=8)
        b = rng.normal(0.5, 1, size=11)
        f, pf = anova_one_way([a, b])
        t = t_test_two_sample(a, b, equal_var=True)
        assert f == pytest.approx(t.t**2, abs=1e-9)
        assert pf == pytest.approx(t.p, abs=1e-9)


def test_anova_p_bounds_and_f_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(25):
        groups = [rng.normal(rng.uniform(-1, 1), 1, size=rng.integers(2, 12))
                  for _ in range(rng.integers(2, 5))]
        f, p = anova_one_way(groups)
        assert f >= 0
        assert 0.0 <= p <= 1.0


# ---------------------------------------------------------------------------
# t-test
# ---------------------------------------------------------------------------

def test_t_identical_samples():
    r = t_test_two_sample([4.0, 5.0, 6.0], [4.0, 5.0, 6.0])
    assert r.t == 0.0
    assert r.p == 1.0


def test_t_zero_variance_convention():
    r = t_test_two_sample([0.0, 0.0], [1.0, 1.0])
    assert math.isinf(r.t)
    assert r.p == 0.0
    assert r.degenerate
    same = t_test_two_sample([2.0, 2.0], [2.0, 2.0])
    assert same.t == 0.0 and same.p == 1.0 and same.degenerate


def test_t_welch_seeded_oracle():
    # frozen from scipy.stats.ttest_ind(equal_var=False) on the same draws
    rng = np.random.default_rng(42)
    a = rng.normal(0, 1, 50)
    b = rng.normal(1, 1, 50)
    r = t_test_two_sample(a, b)
    assert r.t == pytest.approx(-4.671653167599494, abs=1e-9)
    assert r.p == pytest.approx(9.520861760805819e-06, rel=1e-6)
    assert r.p < 0.05


def test_t_pooled_matches_oracle():
    # scipy.stats.ttest_ind(equal_var=True) on these lists
    r = t_test_two_sample([3.1, 4.5, 2.2, 5.5], [6.1, 7.0, 5.9], equal_var=True)
    assert r.t == pytest.approx(-2.7532765576202127, abs=1e-9)
    assert r.p == pytest.approx(0.04015371712778421, abs=1e-9)


def test_t_too_short():
    with pytest.raises(TooShort):
        t_test_two_sample([1.0], [2.0, 3.0])


# ---------------------------------------------------------------------------
# significance report
# ---------------------------------------------------------------------------

def test_significance_flags_age_and_wtl():
    dataset = synth.generate(synth.GeneratorConfig(n=5000, seed=0))
    report = significance_report(dataset)
    assert report.for_feature("age_years").significant
    assert report.for_feature("wall_thickness_loss_pct").significant
    assert report.for_feature("age_years").anova_p < 0.05
    assert abs(report.for_feature("age_years").pearson_r) > 0.5


def test_significance_independent_feature_rarely_flagged():
    # length is generated independently of RUL; over 20 seeds at n=1000 the
    # false-positive count should look like a 5%-level test
    hits = 0
    for seed in range(20):
        dataset = synth.generate(synth.GeneratorConfig(n=1000, seed=seed))
        report = significance_report(dataset)
        if report.for_feature("length_ft").significant:
            hits += 1
    assert hits <= 3


def test_significance_requires_rul():
    dataset = synth.generate(synth.GeneratorConfig(n=50, seed=1))
    no_rul = np.full(len(dataset), np.nan)
    stripped = dataclasses.replace(dataset, numeric={**dataset.numeric, "rul_years": no_rul})
    with pytest.raises(EmptySeries):
        significance_report(stripped)


def test_significance_report_serializes():
    dataset = synth.generate(synth.GeneratorConfig(n=300, seed=2))
    report = significance_report(dataset)
    text = json.dumps(report.to_dict(), indent=2)
    assert '"features"' in text
    rendered = report.render()
    assert "age_years" in rendered


def test_significance_notes_name_each_degenerate_step():
    dataset = synth.generate(synth.GeneratorConfig(n=40, seed=3))
    constant = dict(dataset.numeric, diameter_in=np.full(40, 6.0))
    report = significance_report(dataclasses.replace(dataset, numeric=constant))
    assert report.for_feature("diameter_in").note == (
        "constant feature; too few distinct bins; degenerate median split")
    assert report.for_feature("age_years").note == ""
    # the row with 0 breaks is alone in its quartile bin, which is left out,
    # and the target is one value in the other three bins
    breaks = np.repeat([0.0, 1.0, 2.0, 3.0], [1, 13, 13, 13])
    flat = dict(dataset.numeric, breaks=breaks, rul_years=np.where(breaks == 0, 50.0, 30.0))
    screened = significance_report(dataclasses.replace(dataset, numeric=flat)).for_feature("breaks")
    assert screened.note == "degenerate ANOVA"
    assert (screened.anova_f, screened.anova_p) == (0.0, 1.0)


def test_significance_notes_name_a_constant_target():
    dataset = synth.generate(synth.GeneratorConfig(n=40, seed=1))
    flat = dict(dataset.numeric, rul_years=np.full(40, 30.0))
    report = significance_report(dataclasses.replace(dataset, numeric=flat))
    for row in report.features:
        # the features vary; it is the target that leaves r and F undefined
        assert row.pearson_r is None, row.feature
        assert row.note.startswith("constant target; degenerate ANOVA"), row
        assert "constant feature" not in row.note, row


def test_anova_degenerate_group_conventions():
    # constant but separated groups: infinite separation, zero p
    f, p = anova_one_way([[1.0, 1.0], [2.0, 2.0]])
    assert math.isinf(f)
    assert p == 0.0
    # constant and identical groups: F is undefined
    from pipelife.errors import DegenerateWithinVariance

    with pytest.raises(DegenerateWithinVariance):
        anova_one_way([[1.0, 1.0], [1.0, 1.0]])
