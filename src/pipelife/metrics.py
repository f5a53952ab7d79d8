"""Model-quality measures: MAE, RMSE, MAPE, RAE, RRSE and R².

Definitions (n paired values, residual e_i = p_i - a_i, actual mean ā):

    MAE  = (1/n) Σ|e_i|
    RMSE = sqrt((1/n) Σ e_i²)
    MAPE = (100/n') Σ|e_i| / |a_i|   over the n' terms with a_i != 0
    RAE  = Σ|e_i| / Σ|a_i - ā|
    RRSE = sqrt(Σ e_i² / Σ(a_i - ā)²)
    R²   = 1 - Σ e_i² / Σ(a_i - ā)²   (may be negative on held-out data)

MAPE terms with a zero actual are skipped and counted instead of failing;
synthetic RUL targets can legitimately sit at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllMapeTermsSkipped,
    ConstantActuals,
    LengthMismatch,
    NegativeMape,
)

HIGH_ACCURACY_MAPE = 10.0


@dataclass(frozen=True)
class MetricsReport:
    mae: float
    rrse: float
    mape: float
    rae: float
    r2: float
    rmse: float
    n: int
    mape_skipped: int = 0


def evaluate(predicted, actual) -> MetricsReport:
    """Score predictions against actuals with all six measures."""
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.size != a.size:
        raise LengthMismatch(f"series lengths differ: {p.size} vs {a.size}")
    if p.size < 2:
        raise LengthMismatch("need at least two pairs")
    e = p - a
    abs_e = np.abs(e)
    n = p.size
    mae = float(abs_e.mean())
    rmse = math.sqrt(float((e * e).mean()))
    nonzero = a != 0.0
    skipped = int(n - nonzero.sum())
    if skipped == n:
        raise AllMapeTermsSkipped("every actual value is zero")
    dev = a - a.mean()
    ss_dev = float(dev @ dev)
    abs_dev_sum = float(np.abs(dev).sum())
    if ss_dev == 0.0:
        raise ConstantActuals("relative measures undefined for constant actuals")
    sse = float(e @ e)
    rae = float(abs_e.sum()) / abs_dev_sum
    rrse = math.sqrt(sse / ss_dev)
    r2 = 1.0 - sse / ss_dev
    mape = float((abs_e[nonzero] / np.abs(a[nonzero])).mean()) * 100.0
    return MetricsReport(
        mae=mae, rrse=rrse, mape=mape, rae=rae, r2=r2, rmse=rmse,
        n=n, mape_skipped=skipped,
    )


def classify_accuracy(mape: float) -> str:
    """Two-class accuracy label: MAPE below 10 counts as high accuracy."""
    if mape < 0:
        raise NegativeMape(f"MAPE cannot be negative, got {mape}")
    return "high-accuracy" if mape < HIGH_ACCURACY_MAPE else "not high-accuracy"
