"""First-order Sugeno adaptive neuro-fuzzy inference system.

Five layers over d inputs with m Gaussian membership functions each and a
full grid partition of m^d rules, last input fastest (derived from m and d,
never stored; a model document must hold exactly this grid):

    layer 1 (fuzzy):          mu_ij(x_i) = exp(-(x_i - c_ij)^2 / (2 sigma_ij^2))
    layer 2 (production):     w_r = prod_i mu_i,r(i)
    layer 3 (normalization):  wbar_r = w_r / sum_r w_r
    layer 4 (de-fuzzy):       wbar_r * (theta_r . [x, 1])
    layer 5 (total output):   y = sum_r of layer 4

Hybrid learning alternates a batch least-squares solve for the linear
consequents theta (premises frozen) with a gradient-descent step on the
Gaussian centers and widths.  Row n of the design Phi is wbar_n (x) [x_n, 1],
the row-wise Khatri-Rao product of the firing matrix Wbar and the inputs, so
a null direction of either factor is one of Phi.  Both occur on the default
inputs: install year = reference year - age makes [x, 1] rank deficient, and
the product of an age and an install-year Gaussian is one Gaussian in age,
so Wbar repeats columns.  The solve finds the right singular vectors of each,
[x, 1] = U S V^T (kept: V_k) and Wbar = U_W S_W V_W^T (kept: V_W,r), by the
tall-skinny QR (Demmel, Grigori, Hoemmen and Langou, arXiv:0808.2664): each
block of QR_BLOCK_ROWS rows is factored as QR, and the SVD of the stacked
triangular factors, whose Gram matrix is that of the whole factor, has its
singular values and right vectors, so neither the tall U nor a whole copy
of Wbar is formed.  Each factor keeps its singular values above
eps max(shape) s_1, the rule of numpy.linalg.matrix_rank.  The solve runs
on the r k columns Psi, rows g_n (x) z_n with g_n = V_W,r wbar_n and
z_n = V_k [x_n, 1], rather than the R (d + 1) of Phi, and maps back with
theta = V_W,r^T C V_k.  Both maps have orthonormal columns, so
|theta| = |C| and the ridge solution on Psi is the one on Phi; the ridge,
not the cutoff, keeps the solve well posed.

The solve is a ridge, min mean((Phi theta - y)^2) + RIDGE |theta|^2, from
the r k x r k system (Psi^T Psi + RIDGE n I) c = Psi^T y.  An exact
minimum-norm solve keeps directions down to a design condition number of
~1e17 on collinear inputs: its consequents reach |theta| ~1e5-1e8 and
cancel each other, so one premise step, or one sparse grid cell, throws the
output off by whole target ranges.  RIDGE is Jang's sequential-LSE start
S0 = gamma I with gamma = 1 / (RIDGE n) large (~2.7e4 at n = 3750).  Its
value 1e-8 sits in the middle of the 1e-10..1e-6 range over which the
validation RMSE is flat, and it bounds the condition number of the system
by 1 + (d + 1) / RIDGE for inputs in [0, 1], so the normal equations lose
at most ~1e-7 relative.  A solve's rank (lse_rank) is the r k directions
kept, and it is degenerate (lse_degenerate) when r k < R (d + 1).

An epoch of hybrid training makes one firing pass (`_firing`), which builds
Wbar for the solve, and after the solve one pass of the rule outputs
(`_output_pass`), which gives the train output and, when a premise step
follows, the premise gradient.  That pass is the only code that forms rule
outputs for layer 5 or the gradient, so `_forward` and `_premise_gradients`
go through it too.  Training ends at its epoch cap or once the validation
RMSE stops improving (`hybrid_train`).

Arrays with a row axis are laid out rules-first: the row axis is last and
contiguous, so the memberships are d x m x n and the firing w, the
normalized firing Wbar and the rule outputs F are R x n, all in C order.
Every elementwise product and every sum over rules or MFs then runs along
the rows, and a sum over the leading rule axis adds the rules one at a
time, in rule order, for each row.  `_firing` hands Wbar out as its (n, R)
transpose, so the layer trace and the solve's design keep their n x R
shape.  F comes from einsum over the contiguous d x n inputs, not from
BLAS, which keeps a row's bits in every batch only as x Theta^T, n x R,
whose transposed copy costs more than the layout saves, while Theta x^T,
R x n, changes bits with the batch.  einsum's loop gives each output the
same bits in every batch of two or more rows, but other loops for a single
row.  So `_row_blocks` never leaves a row alone in a block (a lone last row
joins the block before it), and `predict_batch` predicts a lone row as a
pair: a row's prediction does not depend on its batch.

Training memory is counted in R x n arrays (7.7 MB at 3,750 rows and 256
rules).  An epoch keeps one, the normalized firing Wbar: the firing pass
normalizes the firing in place, and Wbar is released before the next
epoch's pass.  Every other pass over the rows works on blocks of rows.  The
output pass forms the R x B rule outputs of one block of LSE_BLOCK_ROWS
rows at a time; the gradient turns them in place into dL/dw_r w_r =
(2/n) e (f_r - y) wbar_r and reduces each block with one product against
every input's MF indicators.  Psi is never formed whole: its r k columns,
up to R (d + 1), would make it 2.3 R x n arrays at the 600 columns of a
256-rule, 4-input solve, so each block's Psi^T is built as (k, r, B) from
that block's rows of Wbar and [x, 1], and Psi^T Psi and Psi^T y are summed
over the blocks, each block's Psi^T Psi through one r k x r k buffer.  The
QR copies one block of QR_BLOCK_ROWS rows of Wbar at a time.  hybrid_train
peaks near 2.3 R x n (tracemalloc, 3,750 rows and 256 rules; 2.1 at 15,000
rows and 32 rules) and `predict_batch` near 1.3 R x n (256 rules).

The sensitivity ranking moves one input at a time.  For an ANFIS model it
makes one pass per input of sums over the rules that both moves share (the
other inputs' firing product, weighted by the rule outputs and by the
moved input's consequent), instead of two full forward passes.  Rules
with the same MFs on the other inputs, a line of the grid along the moved
input, share that firing product: m^(d-1) products rather than m^d.

A model works in normalized units; it keeps the scaling constants of its
inputs and target, and `predict_batch` scales with `data.scaled_inputs` and
`data.raw_target`, as the MLP does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .data import TARGET_COLUMN, FeatureMatrix, check_inputs, check_shapes, normalize, raw_target
from .data import read_scaling, scaled_inputs, scaling_block, whole_number
from .errors import (
    AllRulesZero,
    DimensionMismatch,
    EmptySplit,
    InvalidConfig,
    RuleExplosion,
    TooFewMfs,
    UntrainedModel,
)

DEFAULT_INPUTS = ("age_years", "wall_thickness_loss_pct", "install_year")
DEFAULT_MFS = 2
DEFAULT_EPOCHS = 50  # the cap on hybrid training's epochs
DEFAULT_LEARNING_RATE = 0.02
RULE_CAP = 256  # init_grid refuses a grid of more rules
SIGMA_FLOOR = 1e-4
FIRING_FLOOR = 1e-300
SENSITIVITY_STEP = 0.01  # central-difference step, as a fraction of the input's range
CONTOUR_GRID_SIZE = 25    # contour points along each of its two inputs
RIDGE = 1e-8  # ridge lambda of hybrid training's consequent solve; see the module docstring
# hybrid training stops once the validation RMSE of STOP_PATIENCE epochs in a
# row has not fallen below the best before them by STOP_TOLERANCE of it.  On
# the default inputs it falls by ~1e-7 of itself an epoch after the first;
# five epochs is Prechelt's strip length
STOP_TOLERANCE = 1e-4
STOP_PATIENCE = 5
# rows of the solve's design Psi formed at a time, and of the rule outputs
# in layer 5 and the premise gradient.  A Psi block holds at most
# 512 R (d + 1) numbers (2.4 MB at the 600 columns of a 256-rule, 4-input
# solve), small beside the n x R firing matrix, and is still tall enough
# that each Psi_b^T Psi_b is one efficient BLAS product; shorter blocks ran
# slower and longer ones no faster
LSE_BLOCK_ROWS = 512
# rows of Wbar (and of [x, 1]) that each QR of the solve factors.  On one
# core, the span of a 3,750 x 256 Wbar took 100-112 ms in 512-row blocks,
# 69-74 in 1,024-row blocks and 53-58 in 2,048-row blocks, against 51-60
# whole; that of a 15,000 x 32 Wbar took 4.6-6.2 ms in 2,048-row blocks
# against 7.4-8.4 whole.  numpy's qr holds ~1.1 copies of what it is given
# (tracemalloc), so the QR holds ~1.1 x 2,048 R numbers, not a copy of Wbar
QR_BLOCK_ROWS = 2048


@dataclass
class AnfisModel:
    """Premise and consequent parameters plus normalization constants."""

    input_columns: tuple          # feature column names, length d
    centers: np.ndarray           # d x m Gaussian centers (normalized units)
    sigmas: np.ndarray            # d x m Gaussian widths, > 0
    consequents: np.ndarray       # R x (d + 1), one row per rule; last column is the constant
    feature_constants: tuple = ()  # per input: (min, max) as in FeatureMatrix
    target_constants: tuple = (0.0, 1.0)
    trained: bool = False
    lse_rank: int = -1             # rank of the last solve (not saved); -1 before any

    @property
    def n_inputs(self) -> int:
        return len(self.input_columns)

    @property
    def n_rules(self) -> int:
        return self.centers.shape[1] ** self.n_inputs

    @property
    def rules(self) -> np.ndarray:
        """R x d membership indices: the m^d grid, last input fastest."""
        d = self.n_inputs
        return np.indices((self.centers.shape[1],) * d).reshape(d, -1).T

    @property
    def lse_degenerate(self) -> bool:
        """The last solve kept fewer directions than the R (d + 1) design
        columns; False before any solve, as on a loaded model."""
        return 0 <= self.lse_rank < self.n_rules * (self.n_inputs + 1)

    def copy(self) -> "AnfisModel":
        return replace(self, centers=self.centers.copy(), sigmas=self.sigmas.copy(),
                       consequents=self.consequents.copy())

    # -- raw-unit prediction --------------------------------------------------

    def predict_batch(self, raw: np.ndarray) -> np.ndarray:
        """RUL years for an n x d matrix of raw-unit inputs, clamped to the
        trained target range."""
        x = scaled_inputs(self, raw)
        # numpy takes other loops for one row than for two or more, which
        # may change the last bits, so a lone row is predicted as a pair
        y, _ = _forward(self, np.repeat(x, 2, axis=0) if len(x) == 1 else x)
        return raw_target(self, y[:len(x)])

    def predict_dataset(self, dataset) -> np.ndarray:
        return self.predict_batch(dataset.matrix(self.input_columns))

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "format": "pipelife-anfis-v1",
                "inputs": list(self.input_columns),
                "centers": self.centers.tolist(),
                "sigmas": self.sigmas.tolist(),
                "rules": self.rules.tolist(),
                "consequents": self.consequents.tolist(),
                **scaling_block(self),
                "trained": self.trained,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "AnfisModel":
        """Load a model document: DimensionMismatch for a wrong array shape or
        rules other than the m^d grid; InvalidConfig for a fractional or bool
        rule index, inputs that `check_inputs` refuses, a norm_mode other
        than "minmax", a number that is not finite or a width that is not > 0."""
        payload = json.loads(text)
        if payload.get("format") != "pipelife-anfis-v1":
            raise ValueError(f"not an ANFIS model document: {payload.get('format')!r}")
        rules = np.array(payload["rules"], dtype=object)
        indices = [whole_number("rules", v) for v in rules.flat]
        check_inputs(payload["inputs"], "inputs")
        model = cls(
            input_columns=tuple(payload["inputs"]),
            centers=np.array(payload["centers"], dtype=float),
            sigmas=np.array(payload["sigmas"], dtype=float),
            consequents=np.array(payload["consequents"], dtype=float),
            **read_scaling(payload),
            trained=bool(payload.get("trained", False)),
        )
        d = model.n_inputs
        m = model.centers.shape[1] if model.centers.ndim == 2 else -1
        check_shapes(model, centers=(d, m), sigmas=(d, m), consequents=(m**d, d + 1))
        if not (model.sigmas > 0).all():
            raise InvalidConfig("sigmas must all be > 0")
        if rules.shape != (m**d, d) or indices != model.rules.ravel().tolist():
            raise DimensionMismatch(f"rules are not the {m}^{d} grid, last input fastest")
        return model


def init_grid(
    inputs: Sequence[str],
    mfs_per_input: int,
    features: FeatureMatrix,
) -> AnfisModel:
    """Grid-partition model over the observed range of each input.

    Centers are equally spaced across [0, 1], the range of every
    normalized column (a constant column, all 0, gets the same grid); every
    width starts at spacing / sqrt(2).  Consequents start at zero.
    Inputs that `data.check_inputs` refuses (none, one named twice, or the
    target) raise InvalidConfig; a grid of more than RULE_CAP rules raises
    RuleExplosion.
    """
    inputs = tuple(inputs)
    check_inputs(inputs, "inputs")
    d = len(inputs)
    m = int(mfs_per_input)
    if m < 2:
        raise TooFewMfs(f"need at least 2 membership functions per input, got {m}")
    n_rules = m**d
    if n_rules > RULE_CAP:
        raise RuleExplosion(
            f"{m}^{d} = {n_rules} rules exceeds the cap of {RULE_CAP}; "
            "reduce inputs or membership functions"
        )
    return AnfisModel(
        input_columns=inputs,
        centers=np.tile(np.linspace(0.0, 1.0, m), (d, 1)),
        sigmas=np.full((d, m), 1.0 / (m - 1) / np.sqrt(2.0)),
        consequents=np.zeros((n_rules, d + 1)),
        feature_constants=features.column_constants(inputs),
        target_constants=(0.0, 1.0),
    )


def _gaussian(x, centers, sigmas) -> np.ndarray:
    """The Gaussian membership exp(-(x - c)^2 / (2 sigma^2)), broadcast."""
    diff = x - centers
    # a far-out x squares to inf, and exp(-inf) = 0 is its correct membership
    with np.errstate(over="ignore"):
        return np.exp(-(diff * diff) / (2.0 * sigmas**2))


def _memberships(model: AnfisModel, x: np.ndarray) -> np.ndarray:
    """Layer 1 for n x d rows, rules-first: d x m x n in C order."""
    return _gaussian(x.T[:, None, :], model.centers[:, :, None], model.sigmas[:, :, None])


def _grid_product(mu: Sequence[np.ndarray]) -> np.ndarray:
    """prod_k mu[k][j_k, :] for every MF tuple (j_0, j_1, ...) of the
    (m, n) blocks mu, last block fastest, multiplied in list order: an
    (m^len(mu), n) array in C order."""
    w = mu[0]
    for mu_k in mu[1:]:
        w = (w[:, None, :] * mu_k).reshape(-1, mu_k.shape[1])
    return w


def _checked_total(total: np.ndarray) -> np.ndarray:
    """total, each row's firing strength summed over the rules; a row below
    FIRING_FLOOR raises AllRulesZero naming the first such row."""
    low = total < FIRING_FLOOR
    if np.any(low):
        raise AllRulesZero(f"total firing strength underflowed at row {int(np.argmax(low))}")
    return total


def _row_blocks(n: int, size: int) -> list:
    """Slices of at most size consecutive rows that cover range(n) in order,
    except that a lone last row joins the block before it: a block of one
    row would take numpy's one-row loops (see the module docstring)."""
    bounds = list(range(0, n, size))
    if len(bounds) > 1 and n - bounds[-1] == 1:
        bounds.pop()
    bounds.append(n)
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _firing(model: AnfisModel, x: np.ndarray) -> np.ndarray:
    """Layers 1-3 for a batch of normalized rows: the normalized firing
    wbar, (n, R), the transpose of an R x n array in C order (see the module
    docstring), normalized in place."""
    w = _grid_product(_memberships(model, x))         # R x n
    # a sum over the leading axis adds the rules one at a time, in rule order
    w /= _checked_total(w.sum(axis=0))
    return w.T


def _forward(model: AnfisModel, x: np.ndarray):
    """Layers 1-5 for a batch of normalized rows: (y, wbar) with shapes (n,)
    and (n, R), wbar as `_firing` returns it."""
    wbar = _firing(model, x)
    return _output_pass(model, x, wbar)[0], wbar


def _rule_outputs(model: AnfisModel, x: np.ndarray) -> np.ndarray:
    """Layer-4 linear rule outputs theta_r . [x, 1]: (n, R), the transpose
    of an R x n array in C order, from einsum for the reason the module
    docstring gives."""
    f = np.einsum("rk,kn->rn", model.consequents[:, :-1], np.ascontiguousarray(x.T))
    f += model.consequents[:, -1:]
    return f.T


def _output_pass(model: AnfisModel, x: np.ndarray, wbar: np.ndarray, t=None):
    """Layer 5, y = sum_r wbar_r f_r, for wbar as `_firing` returns it and,
    given targets t, the analytic gradient of the MSE against t with respect
    to the centers and the sigmas: (y, (grad_c, grad_s)), or (y, None)
    without t.

    The R x B rule outputs f of one `_row_blocks` block of LSE_BLOCK_ROWS
    rows are formed once and serve both.  Each product runs along the rows
    and the sum adds the rules one at a time for each row, so a row's output
    does not depend on the batch or block of two or more rows it is in (see
    the module docstring).
    """
    n = len(x)
    y = np.empty(n)
    if t is not None:
        d, m = model.centers.shape
        # row (i, j) of the indicators is 1 on the rules that use MF j of input i
        indicators = np.eye(m)[model.rules].reshape(-1, d * m).T
        acc = np.empty((d * m, n))
    for rows in _row_blocks(n, LSE_BLOCK_ROWS):
        f = _rule_outputs(model, x[rows]).T
        wb = wbar[rows].T
        if t is None:
            f *= wb
            y[rows] = f.sum(axis=0)
            continue
        yb = y[rows] = (f * wb).sum(axis=0)
        # dL/dw_r = (2/n) e (f_r - y) / S; chained onto w_r itself for the
        # log-derivative form, w_r / S = wbar_r; built in place in f
        f -= yb
        f *= wb
        f *= (2.0 / n) * (yb - t[rows])
        acc[:, rows] = indicators @ f
    if t is None:
        return y, None
    acc = acc.reshape(d, m, n)
    diff = x.T[:, None, :] - model.centers[:, :, None]     # d x m x n
    acc *= diff
    grad_c = acc.sum(axis=2) / model.sigmas**2
    acc *= diff
    grad_s = acc.sum(axis=2) / model.sigmas**3
    return y, (grad_c, grad_s)


def _row_span(a: np.ndarray) -> np.ndarray:
    """V_r^T, the leading right singular vectors of the thin SVD a = U S V^T.

    r counts the singular values above eps max(a.shape) s[0], the rank that
    numpy.linalg.matrix_rank gives.  Each block of QR_BLOCK_ROWS rows of a
    is factored as QR, and the SVD of the stacked triangular factors, whose
    Gram matrix is a^T a, has the singular values and right vectors of a
    (the tall-skinny QR), so neither the tall U nor a whole copy of a is
    formed.
    """
    factors = [np.linalg.qr(a[rows], mode="r") for rows in _row_blocks(len(a), QR_BLOCK_ROWS)]
    _, s, vt = np.linalg.svd(np.vstack(factors), full_matrices=False)
    r = int(np.count_nonzero(s > np.finfo(float).eps * max(a.shape) * s[0]))
    return vt[:r]


def lse_consequents(
    model: AnfisModel, x: np.ndarray, y: np.ndarray, wbar: np.ndarray | None = None
) -> AnfisModel:
    """Solve the consequents by ridge least squares with premises frozen.

    The problem is solved in the span of the firing matrix and of the inputs,
    each found by `_row_span` (QR over row blocks, then an SVD of the
    stacked R factors); the module docstring gives the method and the
    reason for the ridge RIDGE.  wbar, the normalized firing strengths of x
    under the model's premises, is computed when not given.  The model is
    updated in place and returned.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if wbar is None:
        wbar = _firing(model, x)
    n = wbar.shape[0]
    x1 = np.hstack([x, np.ones((n, 1))])
    v_k, v_r = _row_span(x1), _row_span(wbar)
    k, r = len(v_k), len(v_r)
    gram, rhs = np.zeros((k * r, k * r)), np.zeros(k * r)
    product = np.empty_like(gram)   # one buffer for every block's Psi_b^T Psi_b
    for rows in _row_blocks(n, LSE_BLOCK_ROWS):
        # Psi_b^T as (k, r, B): z_b (x) g_b with g_b = V_r Wbar_b^T and
        # z_b = V_k [x_b, 1]^T, the row axis last
        g = v_r @ wbar[rows].T
        psi_t = ((v_k @ x1[rows].T)[:, None, :] * g).reshape(k * r, -1)
        np.matmul(psi_t, psi_t.T, out=product)
        gram += product
        rhs += psi_t @ y[rows]
        del g, psi_t   # so that the next block's are not built beside them
    gram.flat[::k * r + 1] += RIDGE * n
    c = np.linalg.solve(gram, rhs)
    model.consequents = v_r.T @ c.reshape(k, r).T @ v_k
    model.lse_rank = k * r
    return model


def _premise_gradients(model: AnfisModel, x: np.ndarray, t: np.ndarray):
    """Analytic d(MSE)/d(center), d(MSE)/d(sigma) through all five layers."""
    return _output_pass(model, x, _firing(model, x), t)[1]


def _premise_step(model: AnfisModel, grads, lr: float) -> None:
    """One gradient-descent step on centers and sigmas along grads, as
    `_premise_gradients` gives them, widths floored."""
    grad_c, grad_s = grads
    model.centers -= lr * grad_c
    model.sigmas -= lr * grad_s
    np.clip(model.sigmas, SIGMA_FLOOR, None, out=model.sigmas)


@dataclass
class AnfisHistory:
    train_rmse: list = field(default_factory=list)
    val_rmse: list = field(default_factory=list)
    lse_rank: list = field(default_factory=list)   # rank of each solve
    best_epoch: int = -1
    stop: str = "cap"             # cap | patience

    def __len__(self) -> int:
        return len(self.train_rmse)


def _rmse_of(y: np.ndarray, t: np.ndarray) -> float:
    return float(np.sqrt(np.mean((y - t) ** 2)))


def _rmse(model: AnfisModel, x: np.ndarray, t: np.ndarray) -> float:
    y, _ = _forward(model, x)
    return _rmse_of(y, t)


def _stalled(scores: list) -> bool:
    """No score of the last STOP_PATIENCE epochs is below the best score
    before them by more than STOP_TOLERANCE of it."""
    if len(scores) <= STOP_PATIENCE:
        return False
    before = min(scores[:-STOP_PATIENCE])
    return min(scores[-STOP_PATIENCE:]) >= (1.0 - STOP_TOLERANCE) * before


def hybrid_train(
    model: AnfisModel,
    features: FeatureMatrix,
    epochs: int = DEFAULT_EPOCHS,
    learning_rate: float = DEFAULT_LEARNING_RATE,
):
    """Hybrid learning: per epoch, ridge least-squares consequents then a
    gradient step on the Gaussian premises.

    An epoch makes one firing pass over the train split, which builds Wbar;
    the consequent solve; and one pass of the rule outputs (`_output_pass`),
    which gives the train output and, when a premise step follows, the
    premise gradient.  RMSE (normalized target units) is logged per epoch on
    the train and validation splits right after the solve, and the snapshot
    with the best validation RMSE is returned (the first epoch's, unless a
    later one is strictly lower).  Without a validation split the train RMSE
    stands in for it.  Training stops at `epochs` ("cap"), or once the
    validation RMSE of STOP_PATIENCE epochs in a row has not improved on the
    best before them by STOP_TOLERANCE, relative ("patience"; L. Prechelt,
    "Early stopping -- but when?", 1998); history.stop says which.  Widths
    are clamped at 1e-4.  The rank of every solve is logged;
    history.lse_rank[history.best_epoch] is the returned model's.  Epochs
    below 1, and a learning rate that is negative or not finite, raise
    InvalidConfig; a rate of 0 trains the consequents only.
    """
    if epochs < 1:
        raise InvalidConfig(f"epochs must be >= 1, got {epochs}")
    if not (np.isfinite(learning_rate) and learning_rate >= 0.0):
        raise InvalidConfig(f"learning_rate must be finite and >= 0, got {learning_rate}")
    x_train, t_train, x_val, t_val = features.split_arrays(model.input_columns)

    model = model.copy()
    model.target_constants = features.column_constants((TARGET_COLUMN,))[0]
    history = AnfisHistory()
    best, best_score = None, np.inf
    for epoch in range(epochs):
        wbar = _firing(model, x_train)
        lse_consequents(model, x_train, t_train, wbar=wbar)
        history.lse_rank.append(model.lse_rank)
        # a step after the last epoch would change nothing that is returned;
        # the validation RMSE, when there is one, tells before the train pass
        # whether this epoch is the last
        step = learning_rate > 0.0 and epoch + 1 < epochs
        if t_val.size:
            val_rmse = _rmse(model, x_val, t_val)
            step = step and not _stalled(history.val_rmse + [val_rmse])
        y, grads = _output_pass(model, x_train, wbar, t_train if step else None)
        del wbar   # so that the next epoch's pass is not built beside it
        train_rmse = _rmse_of(y, t_train)
        if not t_val.size:
            val_rmse = train_rmse
        history.train_rmse.append(train_rmse)
        history.val_rmse.append(val_rmse)
        if best is None or val_rmse < best_score:
            best_score = val_rmse
            best = model.copy()
            history.best_epoch = epoch
        if _stalled(history.val_rmse):
            history.stop = "patience"
            break
        if step:
            _premise_step(model, grads, learning_rate)
    best.trained = True
    return best, history


# ---------------------------------------------------------------------------
# sensitivity analysis
# ---------------------------------------------------------------------------

def sensitivity_ranking(model, features: FeatureMatrix):
    """Rank inputs by the mean absolute output slope over the data rows.

    The slope of input i is the central difference of the model output with
    step h = SENSITIVITY_STEP of that input's observed raw range, all other
    inputs held at each row's observed values.  Slopes are taken with respect
    to the range-normalized coordinate (raw slope times the input's range), so
    features measured in feet, inches and years rank on a common scale; an
    input with a zero range keeps its raw slope.  An AnfisModel is
    evaluated in one pass of sums shared by each input's two perturbations
    (`_perturbed_outputs`); any other model exposing input_columns and
    predict_batch gets two predict_batch calls per input.  Returns
    [(feature, slope)] descending.
    """
    if not getattr(model, "trained", True):
        raise UntrainedModel("sensitivity analysis requires a trained model")
    columns = tuple(model.input_columns)
    raw = features.raw_matrix(columns)
    if raw.shape[0] == 0:
        raise EmptySplit("no data rows for sensitivity analysis")
    spans = raw.max(axis=0) - raw.min(axis=0)
    steps = [SENSITIVITY_STEP * float(span) if span > 0 else SENSITIVITY_STEP
             for span in spans]
    if isinstance(model, AnfisModel):
        pairs = _perturbed_outputs(model, raw, steps)
    else:
        pairs = ((model.predict_batch(_moved(raw, i, h)), model.predict_batch(_moved(raw, i, -h)))
                 for i, h in enumerate(steps))
    slopes = []
    for name, span, h, (hi, lo) in zip(columns, spans, steps, pairs):
        slope = np.abs(hi - lo) / (2.0 * h)
        scale = float(span) if span > 0 else 1.0
        slopes.append((name, float(slope.mean()) * scale))
    slopes.sort(key=lambda item: item[1], reverse=True)
    return slopes


def _moved(raw: np.ndarray, i: int, h: float) -> np.ndarray:
    """raw with column i moved by h."""
    moved = raw.copy()
    moved[:, i] = raw[:, i] + h
    return moved


def _perturbed_outputs(model: AnfisModel, raw: np.ndarray, steps):
    """Yield predict_batch of raw with column i moved by +h_i and by -h_i.

    Moving input i changes only its memberships mu_i and, in the rule
    outputs F = theta [x, 1], the term theta_ri x_i.  So with W the product
    of the other inputs' memberships and, over the rules r using MF j of
    input i, P_j = sum W_r F_r, Q_j = sum W_r theta_ri and S_j = sum W_r,
    the output at x_i' is sum_j mu_ij(x_i') (P_j + (x_i' - x_i) Q_j) /
    sum_j mu_ij(x_i') S_j.  P, Q and S serve both signs.

    Rules that take the same MFs on the other inputs share W.  On the m^d
    grid such a group g is a line along axis i, with one rule per MF j, so
    B_gj = [theta_r, 1] of that rule, and one product W_g B gives
    [sum W theta, S] per MF, from which P = (sum W theta) [x, 1] and Q is
    column i: m^(d-1) products, not m^d.

    The arrays are rules-first, with the rows last: W is G x n, the sums
    m x (d + 2) x n, and P, Q, S and mu_i are m x n, so each elementwise
    product and each sum over the m MFs runs along the rows, not over an
    axis of length m, which is 2 on the default grid.
    """
    x = scaled_inputs(model, raw)
    mu = _memberships(model, x)
    n, d = x.shape
    m = model.centers.shape[1]
    x1 = np.vstack([x.T, np.ones((1, n))])
    theta1 = np.hstack([model.consequents, np.ones((model.n_rules, 1))]).reshape((m,) * d + (-1,))
    for i, h in enumerate(steps):
        others = [mu[k] for k in range(d) if k != i]
        w = _grid_product(others) if others else np.ones((1, n))   # G x n
        sums = np.moveaxis(theta1, i, -2).reshape(len(w), m * (d + 2))
        totals = (sums.T @ w).reshape(m, d + 2, n)
        del w   # so that the next input's product is not built beside this one
        p = np.einsum("jkn,kn->jn", totals[:, :-1], x1)
        q, s = totals[:, i], totals[:, -1]
        outputs = []
        for moved in (raw[:, i] + h, raw[:, i] - h):
            xi = normalize(moved[:, None], model.feature_constants[i:i + 1])[:, 0]
            mu_i = _gaussian(xi, model.centers[i, :, None], model.sigmas[i, :, None])
            total = _checked_total((mu_i * s).sum(axis=0))
            y = (mu_i * (p + (xi - x[:, i]) * q)).sum(axis=0) / total
            outputs.append(raw_target(model, y))
        yield outputs


def contour_grid(
    model,
    features: FeatureMatrix,
    x_input: str,
    y_input: str,
):
    """Surface data (x1, x2, y) over two inputs, others held at their medians.

    Each input takes CONTOUR_GRID_SIZE evenly spaced values across its
    observed range.  Rows run over y for each x in turn; the whole grid is
    one predict_batch.  The same input on both axes raises InvalidConfig.
    """
    columns = tuple(model.input_columns)
    if x_input not in columns or y_input not in columns:
        raise DimensionMismatch(
            f"contour inputs must be among the model inputs {columns}"
        )
    if x_input == y_input:
        raise InvalidConfig(f"contour inputs must be two different inputs, got {x_input!r} twice")
    raw = features.raw_matrix(columns)
    medians = np.median(raw, axis=0)
    xi = columns.index(x_input)
    yi = columns.index(y_input)
    size = CONTOUR_GRID_SIZE
    xs = np.linspace(raw[:, xi].min(), raw[:, xi].max(), size)
    ys = np.linspace(raw[:, yi].min(), raw[:, yi].max(), size)
    grid_x, grid_y = np.repeat(xs, size), np.tile(ys, size)
    batch = np.tile(medians, (size * size, 1))
    batch[:, xi] = grid_x
    batch[:, yi] = grid_y
    out = model.predict_batch(batch)
    return [(float(xv), float(yv), float(o)) for xv, yv, o in zip(grid_x, grid_y, out)]
