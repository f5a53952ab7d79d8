"""Reference computations that the ANFIS consequent solve is checked against,
the five layers of one ANFIS inference pass, and the rule lists that an ANFIS
model document must not load with."""

from dataclasses import dataclass

import numpy as np

from pipelife import anfis
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
