"""Descriptive statistics and significance screening for pipe inventories.

Covers column summaries (min/max/mean/std/mode), Pearson correlation,
one-way ANOVA and the two-sample t-test, plus a per-feature significance
report against the RUL target.  A feature counts as significant
when its ANOVA p-value is below 0.05.

Tail probabilities come from the regularized incomplete beta function,
evaluated with a continued fraction (Numerical Recipes style) to an absolute
tolerance well below 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .data import COLUMN_MODE_PRECISION, CSV_COLUMNS, REQUIRED_COLUMNS, TARGET_COLUMN, Dataset
from .errors import (
    ConstantSeries,
    DegenerateWithinVariance,
    EmptySeries,
    LengthMismatch,
    TooFewGroups,
    TooShort,
)

# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

_BETACF_MAX_ITER = 300
_BETACF_EPS = 1e-15
_TINY = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    return h  # converged to float precision in practice long before this


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # use the symmetry that keeps the continued fraction rapidly convergent
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_sf(f_value: float, df_num: float, df_den: float) -> float:
    """Upper-tail probability of the F distribution."""
    if f_value <= 0.0:
        return 1.0
    x = df_den / (df_den + df_num * f_value)
    return regularized_incomplete_beta(df_den / 2.0, df_num / 2.0, x)


def t_sf_two_sided(t_value: float, df: float) -> float:
    """Two-sided tail probability of Student's t."""
    if math.isinf(t_value):
        return 0.0
    if t_value == 0.0:
        return 1.0
    x = df / (df + t_value * t_value)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SummaryStats:
    min: float
    max: float
    mean: float
    std: float   # sample std, n-1 denominator
    mode: float


def summarize(series, precision: int = 0) -> SummaryStats:
    """Sample statistics of one column.

    The mode is the most frequent value after rounding to `precision`
    decimals (inventory tables report integer modes); ties break toward the
    smallest value.  A single observation has std 0 by convention.
    """
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        raise EmptySeries("cannot summarize an empty series")
    rounded = np.round(x, precision)
    values, counts = np.unique(rounded, return_counts=True)
    mode = float(values[np.argmax(counts)])  # unique() sorts, argmax takes first
    std = float(x.std(ddof=1)) if x.size > 1 else 0.0
    return SummaryStats(
        min=float(x.min()),
        max=float(x.max()),
        mean=float(x.mean()),
        std=std,
        mode=mode,
    )


def summarize_columns(dataset: Dataset) -> list:
    """[(column, SummaryStats)] for every CSV column in schema order;
    rul_years is left out when some record lacks it."""
    return [
        (name, summarize(dataset.column(name), COLUMN_MODE_PRECISION.get(name, 0)))
        for name in CSV_COLUMNS
        if name != TARGET_COLUMN or dataset.has_rul()
    ]


def pearson(x, y) -> float:
    """Sample Pearson correlation of two equal-length series."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise LengthMismatch(f"series lengths differ: {x.size} vs {y.size}")
    if x.size < 2:
        raise LengthMismatch("need at least two observations")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = math.sqrt(float(dx @ dx))
    sy = math.sqrt(float(dy @ dy))
    if sx == 0.0 or sy == 0.0:
        raise ConstantSeries("correlation undefined for a constant series")
    return float(dx @ dy) / (sx * sy)


# ---------------------------------------------------------------------------
# hypothesis tests
# ---------------------------------------------------------------------------

def anova_one_way(groups: Sequence) -> tuple:
    """One-way ANOVA.  Returns (F, p) with p from the F upper tail."""
    arrays = [np.asarray(g, dtype=float) for g in groups]
    if len(arrays) < 2:
        raise TooFewGroups("ANOVA needs at least two groups")
    if any(a.size < 2 for a in arrays):
        raise TooFewGroups("each group needs at least two observations")
    n = sum(a.size for a in arrays)
    k = len(arrays)
    grand = sum(float(a.sum()) for a in arrays) / n
    ss_between = sum(a.size * (float(a.mean()) - grand) ** 2 for a in arrays)
    ss_within = sum(float(((a - a.mean()) ** 2).sum()) for a in arrays)
    df_between = k - 1
    df_within = n - k
    if ss_within == 0.0:
        if ss_between == 0.0:
            raise DegenerateWithinVariance(
                "all groups constant and identical; F undefined"
            )
        return math.inf, 0.0
    ms_between = ss_between / df_between
    ms_within = ss_within / df_within
    f_value = ms_between / ms_within
    return f_value, f_sf(f_value, df_between, df_within)


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    df: float
    degenerate: bool = False  # zero variance in both samples


def t_test_two_sample(a, b, equal_var: bool = False) -> TTestResult:
    """Two-sample t-test; Welch by default, pooled variance on request.

    Zero variance in both samples yields t = +/-inf and p = 0 (flagged) when
    the means differ, and t = 0, p = 1 when they coincide, so callers can
    always complete a significance sweep.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise TooShort("each sample needs at least two observations")
    n1, n2 = a.size, b.size
    m1, m2 = float(a.mean()), float(b.mean())
    v1 = float(a.var(ddof=1))
    v2 = float(b.var(ddof=1))
    if equal_var:
        df = n1 + n2 - 2
        pooled = ((n1 - 1) * v1 + (n2 - 1) * v2) / df
        denom_sq = pooled * (1.0 / n1 + 1.0 / n2)
    else:
        se1 = v1 / n1
        se2 = v2 / n2
        denom_sq = se1 + se2
        if denom_sq > 0.0:
            df = denom_sq**2 / (
                se1**2 / (n1 - 1) + se2**2 / (n2 - 1)
            )
        else:
            df = n1 + n2 - 2
    if denom_sq == 0.0:
        if m1 == m2:
            return TTestResult(t=0.0, p=1.0, df=df, degenerate=True)
        t = math.inf if m1 > m2 else -math.inf
        return TTestResult(t=t, p=0.0, df=df, degenerate=True)
    t = (m1 - m2) / math.sqrt(denom_sq)
    return TTestResult(t=t, p=t_sf_two_sided(t, df), df=df)


# ---------------------------------------------------------------------------
# significance report
# ---------------------------------------------------------------------------

SIGNIFICANCE_ALPHA = 0.05
ANOVA_BINS = 4  # quartile bins for continuous features


@dataclass(frozen=True)
class FeatureSignificance:
    feature: str
    pearson_r: Optional[float]
    anova_f: float
    anova_p: float
    t_stat: float
    t_p: float
    significant: bool
    note: str = ""


@dataclass(frozen=True)
class SignificanceReport:
    features: tuple

    def for_feature(self, name: str) -> FeatureSignificance:
        for f in self.features:
            if f.feature == name:
                return f
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"alpha": SIGNIFICANCE_ALPHA, "features": [asdict(f) for f in self.features]}

    def render(self) -> str:
        header = (
            f"{'feature':<24}{'pearson_r':>10}{'anova_F':>12}{'anova_p':>12}"
            f"{'t':>10}{'t_p':>12}  significant"
        )
        lines = [header, "-" * len(header)]
        for f in self.features:
            r = f"{f.pearson_r:+.3f}" if f.pearson_r is not None else "   n/a"
            lines.append(
                f"{f.feature:<24}{r:>10}{f.anova_f:>12.3f}{f.anova_p:>12.4g}"
                f"{f.t_stat:>10.3f}{f.t_p:>12.4g}  {'yes' if f.significant else 'no'}"
            )
        return "\n".join(lines)


def _quantile_groups(feature: np.ndarray, target: np.ndarray):
    """Split target values by ANOVA_BINS quantile bins of the feature."""
    edges = np.unique(np.quantile(feature, np.linspace(0, 1, ANOVA_BINS + 1)[1:-1]))
    assignment = np.searchsorted(edges, feature, side="right")
    groups = [target[assignment == g] for g in range(len(edges) + 1)]
    return [g for g in groups if g.size >= 2]


def significance_report(dataset: Dataset) -> SignificanceReport:
    """Screen every input feature against the RUL target.

    Per feature: Pearson correlation with RUL, one-way ANOVA of RUL over
    ANOVA_BINS quantile bins of the feature, and a t-test of RUL between the
    below- and above-median halves.  significant <=> anova_p <
    SIGNIFICANCE_ALPHA.  A feature whose correlation is undefined is noted
    "constant feature", or "constant target" for every feature when the
    target is constant.
    """
    if not dataset.has_rul():
        raise EmptySeries("significance report requires rul targets")
    target = dataset.column("rul_years")
    results = []
    for name in REQUIRED_COLUMNS:
        feature = dataset.column(name)
        notes = []
        try:
            r = pearson(feature, target)
        except ConstantSeries:
            r = None
            # a constant target leaves every feature's correlation undefined
            notes.append("constant target" if np.ptp(target) == 0.0 else "constant feature")
        groups = _quantile_groups(feature, target)
        f_value, p_value = 0.0, 1.0
        if len(groups) < 2:
            notes.append("too few distinct bins")
        else:
            try:
                f_value, p_value = anova_one_way(groups)
            except DegenerateWithinVariance:
                notes.append("degenerate ANOVA")
        median = float(np.median(feature))
        low = target[feature <= median]
        high = target[feature > median]
        if low.size >= 2 and high.size >= 2:
            tt = t_test_two_sample(low, high)
            t_stat, t_p = tt.t, tt.p
        else:
            t_stat, t_p = 0.0, 1.0
            notes.append("degenerate median split")
        results.append(
            FeatureSignificance(
                feature=name,
                pearson_r=r,
                anova_f=f_value,
                anova_p=p_value,
                t_stat=t_stat,
                t_p=t_p,
                significant=p_value < SIGNIFICANCE_ALPHA,
                note="; ".join(notes),
            )
        )
    return SignificanceReport(tuple(results))
