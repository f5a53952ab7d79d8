"""Reference computations that the ANFIS consequent solve is checked against,
the five layers of one ANFIS inference pass, the rule lists that an ANFIS
model document must not load with, and greedy term selection by one
least-squares refit per candidate."""

from dataclasses import dataclass

import numpy as np

from pipelife import anfis, regression
from pipelife.errors import DimensionMismatch


@dataclass(frozen=True)
class LayerTrace:
    """Intermediate values of one inference pass."""

    memberships: np.ndarray      # d x m
    firing: np.ndarray           # R
    normalized: np.ndarray       # R
    rule_outputs: np.ndarray     # R
    weighted_outputs: np.ndarray  # R
    output: float


def infer(model, x) -> tuple:
    """Evaluate one normalized feature row through all five layers with the
    batch forward pass: (y_hat, LayerTrace)."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != model.n_inputs:
        raise DimensionMismatch(f"expected {model.n_inputs} inputs, got {x.size}")
    batch = x[None, :]
    y, wbar, w = anfis._forward(model, batch)
    f = anfis._rule_outputs(model, batch)[0]
    y = float(y[0])
    return y, LayerTrace(
        memberships=anfis._gaussians(x, model.centers, model.sigmas),
        firing=w[0],
        normalized=wbar[0],
        rule_outputs=f,
        weighted_outputs=wbar[0] * f,
        output=y,
    )


def consequent_design(model, x):
    """The full design Phi: row n holds the blocks wbar_nr * [x_n, 1] for
    every rule r, R (d + 1) columns in all."""
    _, wbar, _ = anfis._forward(model, x)
    x1 = np.hstack([x, np.ones((x.shape[0], 1))])
    blocks = wbar[:, :, None] * x1[:, None, :]
    return blocks.reshape(x.shape[0], -1)


# edits of a 3 x 3 grid's rule list that are not the grid, each index in range
NOT_THE_GRID = {
    "permuted": lambda rules: rules[::-1],
    "halved": lambda rules: rules[: len(rules) // 2],
    "repeated_rule": lambda rules: rules + rules[-1:],
    "in_range_index": lambda rules: [[2] + rules[0][1:]] + rules[1:],
}


def ridge_lstsq(phi, y):
    """The oracle of the consequent solve: lstsq on the full design stacked
    over sqrt(RIDGE n) I against [y, 0], which minimizes
    mean((phi theta - y)^2) + RIDGE |theta|^2."""
    n, columns = phi.shape
    stacked = np.vstack([phi, np.sqrt(anfis.RIDGE * n) * np.eye(columns)])
    return np.linalg.lstsq(stacked, np.concatenate([y, np.zeros(columns)]), rcond=None)[0]


def greedy_terms_by_refit(phi_full, y):
    """The oracle of greedy term selection: from the intercept, refit the
    chosen columns plus each remaining one by lstsq and add the best while
    R² rises by at least GREEDY_R2_GAIN and fewer terms than rows are
    chosen.  Equal R² goes to the later column."""
    chosen = [0]
    remaining = list(range(1, phi_full.shape[1]))
    theta, _ = regression._solve(phi_full[:, chosen], y)
    best_r2, _ = regression._r2(y, phi_full[:, chosen] @ theta)
    while remaining and len(chosen) < y.size:
        scores = []
        for idx in remaining:
            cand = chosen + [idx]
            theta, _ = regression._solve(phi_full[:, cand], y)
            r2, _ = regression._r2(y, phi_full[:, cand] @ theta)
            scores.append((r2, idx))
        r2, idx = max(scores)
        if r2 - best_r2 < regression.GREEDY_R2_GAIN:
            break
        chosen.append(idx)
        remaining.remove(idx)
        best_r2 = r2
    return chosen


def fit_greedy_by_refit(age, wtl, rul, degree, material="Custom"):
    """fit_polynomial(..., "greedy") with the terms chosen by
    greedy_terms_by_refit."""
    age, wtl, y = (np.asarray(v, dtype=float) for v in (age, wtl, rul))
    exponents = regression._basis_exponents(degree)
    a_scale = float(np.abs(age).max()) or 1.0
    w_scale = float(np.abs(wtl).max()) or 1.0
    phi_full = regression._design(age, wtl, exponents, a_scale, w_scale)
    chosen = greedy_terms_by_refit(phi_full, y)
    phi = phi_full[:, chosen]
    theta, degenerate = regression._solve(phi, y)
    r2_fit, constant_target = regression._r2(y, phi @ theta)
    terms = []
    for coef, idx in zip(theta, chosen):
        a_pow, w_pow = exponents[idx]
        terms.append((float(coef / (a_scale**a_pow * w_scale**w_pow)), a_pow, w_pow))
    return regression.DeteriorationModel(
        material=material, terms=tuple(terms), r2_fit=float(r2_fit),
        degenerate=degenerate or constant_target,
    )
