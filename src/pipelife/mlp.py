"""Single-hidden-layer feedforward regressor trained by Levenberg–Marquardt.

The network is y = w2 . act(W1 x + b1) + b2 with a sigmoid (or tanh) hidden
layer and a linear output, fitted by least squares over normalized features
and target.  Weights start Glorot-uniform from a seeded generator, biases at
zero, so identical (config, data, seed) reproduce the same model bit for
bit.

A network's P = (d + 2) h + 1 parameters are one flat vector: [W1; b1] as a
(d + 1) x h matrix, then [w2; b2].  The inputs and the hidden activations
carry a ones row, so the biases ride inside the two matmuls of a forward
pass (`_forward`).  `_jacobian` writes the n x P derivatives of the outputs
in place: x1 (outer) w2 act'(z) for [W1; b1] and the hidden activations
[a, 1] for [w2; b2].  `forward`, `loss_and_gradient` (e.e / n and
2 J^T e / n) and training all call these two.

Training (`train`, one config at a time) fits a network by
Levenberg–Marquardt (D. W. Marquardt, SIAM J. Appl. Math. 11(2), 1963;
M. T. Hagan and M. B. Menhaj, IEEE Trans. Neural Networks 5(6), 1994,
MATLAB's `trainlm`) on the whole train split.  An iteration forms J^T J
and J^T e once and tries (J^T J + mu I) delta = -J^T e with trainlm's
schedule: mu starts at MU_START, is multiplied by MU_INC after a trial that
does not lower the training SSE and by MU_DEC after one that does, and the
accepted trial's activations give the next Jacobian.  A network stops at
the first of `epochs` iterations ("cap"), PATIENCE iterations without a
strictly lower validation MSE ("patience"), or mu above MU_MAX, when no
trial lowers the SSE ("damping"); `TrainingHistory.stop` names which.  The
patience rule is ANFIS's, `metrics.stalled`, at tolerance 0, and the
parameters of the first iteration with the strictly lowest validation MSE
are kept (`metrics.TrainingHistory.record`).  A config with
restarts = k becomes k members seeded seed, seed + 1, ..., and the first
member with the strictly lowest validation MSE wins.

A model keeps the scaling constants of its inputs and target, and
`predict_batch` scales with `data.scaled_inputs` and `data.raw_target`, as
ANFIS does.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .data import SPLITS, Dataset, FeatureMatrix, Split, build_features, split_dataset
from .data import TARGET_COLUMN, check_inputs, check_shapes, raw_target, read_scaling
from .data import scaled_inputs, scaling_block, whole_number
from .errors import (
    ConstantSeries,
    DimensionMismatch,
    EmptyBatch,
    EmptySplit,
    InvalidConfig,
)
from .metrics import MetricsReport, TrainingHistory, evaluate, stalled

DEFAULT_INPUT_COLUMNS = (
    "material",
    "wall_thickness_loss_pct",
    "length_ft",
    "diameter_in",
    "age_years",
)
DEFAULT_SPLIT_RATIOS = (0.75, 0.10, 0.15)
DEFAULT_EPOCHS = 500

# trainlm's damping schedule
MU_START, MU_DEC, MU_INC, MU_MAX = 1e-3, 0.1, 10.0, 1e10
PATIENCE = 10       # iterations without a strictly lower validation MSE


@dataclass(frozen=True)
class MlpConfig:
    input_columns: tuple = DEFAULT_INPUT_COLUMNS
    hidden_neurons: int = 5
    activation: str = "sigmoid"      # sigmoid | tanh
    epochs: int = DEFAULT_EPOCHS     # the cap on Levenberg–Marquardt iterations
    restarts: int = 1                # independent initializations, best kept
    seed: int = 0
    name: str = ""

    def validate(self) -> None:
        if self.hidden_neurons < 1:
            raise InvalidConfig(f"hidden_neurons must be >= 1, got {self.hidden_neurons}")
        if self.epochs < 1:
            raise InvalidConfig(f"epochs must be >= 1, got {self.epochs}")
        if self.activation not in _ACTIVATIONS:
            raise InvalidConfig(f"unknown activation: {self.activation!r}")
        if self.restarts < 1:
            raise InvalidConfig(f"restarts must be >= 1, got {self.restarts}")
        check_inputs(self.input_columns, "input_columns")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "MlpConfig":
        """A config from its to_dict document; an integer field that holds
        a fraction or a bool (2.5, true) raises InvalidConfig rather than
        being truncated.  The SGD keys of older documents, `batch_size` and
        `learning_rate`, are ignored."""
        return cls(
            input_columns=tuple(payload["input_columns"]),
            hidden_neurons=whole_number("hidden_neurons", payload["hidden_neurons"]),
            activation=payload.get("activation", "sigmoid"),
            epochs=whole_number("epochs", payload.get("epochs", DEFAULT_EPOCHS)),
            restarts=whole_number("restarts", payload.get("restarts", 1)),
            seed=whole_number("seed", payload.get("seed", 0)),
            name=payload.get("name", ""),
        )


# act(z) = scale * (offset + tanh(scale * z)): sigmoid is 0.5 (1 + tanh(z / 2)),
# tanh is scale 1, offset 0.  tanh saturates without overflow at any z.  The
# derivative through the activation value a is (hi - a) (a + lo) with
# hi = scale (1 + offset) and lo = scale (1 - offset): a (1 - a) for the
# sigmoid, (1 - a) (1 + a) for tanh.
_ACTIVATIONS = {"sigmoid": (0.5, 1.0), "tanh": (1.0, 0.0)}


@dataclass
class MlpModel:
    """Weights plus the normalization constants they were trained under."""

    config: MlpConfig
    w1: np.ndarray               # d x h
    b1: np.ndarray               # h
    w2: np.ndarray               # h
    b2: float
    feature_constants: tuple = ()   # per input column: (min, max) as in FeatureMatrix
    target_constants: tuple = ()    # (min, max) of rul_years

    @property
    def input_columns(self) -> tuple:
        return tuple(self.config.input_columns)

    # -- raw-unit prediction ------------------------------------------------

    def predict_batch(self, raw: np.ndarray) -> np.ndarray:
        """RUL years for an n x d matrix of raw-unit inputs, clamped to the
        trained target range."""
        return raw_target(self, forward(self, scaled_inputs(self, raw)))

    # -- serialization --------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "format": "pipelife-mlp-v1",
                "config": self.config.to_dict(),
                "w1": self.w1.tolist(),
                "b1": self.b1.tolist(),
                "w2": self.w2.tolist(),
                "b2": self.b2,
                **scaling_block(self),
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "MlpModel":
        """Load a model document; an invalid config, a norm_mode other than
        "minmax" or a number that is not finite raises InvalidConfig and
        wrong array shapes raise DimensionMismatch."""
        payload = json.loads(text)
        if payload.get("format") != "pipelife-mlp-v1":
            raise InvalidConfig(f"not an MLP model document: {payload.get('format')!r}")
        config = MlpConfig.from_dict(payload["config"])
        config.validate()
        model = cls(
            config=config,
            w1=np.array(payload["w1"], dtype=float),
            b1=np.array(payload["b1"], dtype=float),
            w2=np.array(payload["w2"], dtype=float),
            b2=float(payload["b2"]),
            **read_scaling(payload),
        )
        d, h = len(model.input_columns), len(model.b1)
        check_shapes(model, w1=(d, h), b1=(h,), w2=(h,), b2=())
        return model


def init(config: MlpConfig) -> MlpModel:
    """Fresh model: Glorot-uniform weights from the config seed, zero biases."""
    config.validate()
    d = len(config.input_columns)
    h = config.hidden_neurons
    rng = np.random.default_rng(config.seed)
    r1 = np.sqrt(6.0 / (d + h))
    r2 = np.sqrt(6.0 / (h + 1))
    return MlpModel(
        config=config,
        w1=rng.uniform(-r1, r1, size=(d, h)),
        b1=np.zeros(h),
        w2=rng.uniform(-r2, r2, size=h),
        b2=0.0,
    )


# -- one network as a flat parameter vector -------------------------------------
#
# theta holds w1 (d*h), b1 (h), w2 (h), b2 (1): its first (d + 1) h entries
# are [W1; b1] as a (d + 1) x h matrix and the last h + 1 are [w2; b2].
# Rows run along the last axis: inputs x1 are (d + 1, n) with a ones row,
# hidden activations (h + 1, n) with a ones row, and the Jacobian is stored
# as J^T, (P, n), so every elementwise pass runs over n contiguous values.

def _pack(model: MlpModel) -> np.ndarray:
    return np.concatenate((model.w1.ravel(), model.b1, model.w2, [model.b2]))


def _unpack(theta: np.ndarray, d: int, h: int) -> tuple:
    """(w1, b1, w2, b2) of a parameter vector, as copies."""
    w1 = theta[:(d + 1) * h].reshape(d + 1, h)
    return w1[:d].copy(), w1[d].copy(), theta[(d + 1) * h:-1].copy(), float(theta[-1])


def _with_ones(x: np.ndarray) -> np.ndarray:
    """x (n, d) transposed, with the bias input, a ones row, appended."""
    out = np.empty((x.shape[1] + 1, x.shape[0]))
    out[:-1] = x.T
    out[-1] = 1.0
    return out


def _forward(theta: np.ndarray, x1: np.ndarray, activation: str) -> tuple:
    """(hidden, y): the hidden activations above a ones row, (h + 1, n), and
    the outputs (n,)."""
    d1, n = x1.shape
    h = (theta.size - 1) // (d1 + 1)
    hidden = np.empty((h + 1, n))
    units = np.matmul(theta[:d1 * h].reshape(d1, h).T, x1, out=hidden[:h])
    scale, offset = _ACTIVATIONS[activation]
    units *= scale
    np.tanh(units, out=units)
    units += offset
    units *= scale
    hidden[h] = 1.0
    return hidden, theta[d1 * h:] @ hidden


def _jacobian(theta: np.ndarray, x1: np.ndarray, hidden: np.ndarray, activation: str,
              jac_t: np.ndarray) -> np.ndarray:
    """Write the transposed Jacobian of the outputs, (P, n), into `jac_t`.

    The rows of b1 are d y / d z, since the bias input is 1; those of w1
    are the same times each input, and those of [w2; b2] are `hidden`.
    """
    d1, n = x1.shape
    h = hidden.shape[0] - 1
    d = d1 - 1
    scale, offset = _ACTIVATIONS[activation]
    a, slope = hidden[:h], jac_t[d * h:d1 * h]
    np.subtract(scale * (1.0 + offset), a, out=slope)
    slope *= a + scale * (1.0 - offset)
    slope *= theta[d1 * h:-1, None]
    np.multiply(x1[:d, None], slope, out=jac_t[:d * h].reshape(d, h, n))
    jac_t[d1 * h:] = hidden
    return jac_t


def _sse(theta: np.ndarray, x1: np.ndarray, y: np.ndarray, activation: str) -> tuple:
    """(hidden, residuals y_hat - y, their sum of squares)."""
    hidden, err = _forward(theta, x1, activation)
    err -= y
    return hidden, err, float(err @ err)


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Network output for normalized inputs (single row or n x d matrix)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x2 = np.atleast_2d(x)
    d = model.w1.shape[0]
    if x2.shape[1] != d:
        raise DimensionMismatch(f"expected {d} inputs, got {x2.shape[1]}")
    y = _forward(_pack(model), _with_ones(x2), model.config.activation)[1]
    return float(y[0]) if single else y


def loss_and_gradient(model: MlpModel, x: np.ndarray, y: np.ndarray):
    """MSE over the batch and its exact gradients for every parameter.

    The gradient is 2 J^T e / n, with the Jacobian that training builds.
    Returns (loss, {"w1": ..., "b1": ..., "w2": ..., "b2": ...}).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if x.shape[0] == 0:
        raise EmptyBatch("gradient evaluation needs at least one row")
    if x.shape[0] != y.size:
        raise DimensionMismatch(f"{x.shape[0]} rows vs {y.size} targets")
    d, h = model.w1.shape
    theta, x1 = _pack(model), _with_ones(x)
    hidden, err, sse = _sse(theta, x1, y, model.config.activation)
    jac_t = _jacobian(theta, x1, hidden, model.config.activation, np.empty((theta.size, y.size)))
    w1, b1, w2, b2 = _unpack(jac_t @ err * (2.0 / y.size), d, h)
    return sse / y.size, {"w1": w1, "b1": b1, "w2": w2, "b2": b2}


def train(config: MlpConfig, features: FeatureMatrix):
    """Levenberg–Marquardt training on the matrix's train split.

    A config with restarts = k trains k members seeded seed, seed + 1, ...;
    the first member with the strictly lowest validation MSE wins.  Returns
    (model, TrainingHistory).
    """
    config.validate()
    arrays = features.split_arrays(config.input_columns)
    chosen = None
    for r in range(config.restarts):
        model, history = _train_member(replace(config, restarts=1, seed=config.seed + r), arrays)
        history.restart = r
        if chosen is None or history.best < chosen[1].best:
            chosen = (model, history)
    model = chosen[0]
    model.feature_constants = features.column_constants(config.input_columns)
    model.target_constants = features.column_constants((TARGET_COLUMN,))[0]
    return chosen


def _train_member(config: MlpConfig, arrays: tuple) -> tuple:
    """Levenberg–Marquardt for one network on `FeatureMatrix.split_arrays`,
    whose train rows validate when no row is labelled validation.

    The history's `record` says when to keep the snapshot.  An iteration in
    which no trial lowers the SSE leaves the parameters as they were.
    """
    x_train, y_train, x_val, y_val = arrays
    x_train, x_val = _with_ones(x_train), _with_ones(x_val)
    activation, n = config.activation, y_train.size
    theta = _pack(init(config))
    p = theta.size
    jac_t = np.empty((p, n))
    hidden, err, sse = _sse(theta, x_train, y_train, activation)
    history, mu = TrainingHistory(), MU_START
    for _ in range(config.epochs):
        _jacobian(theta, x_train, hidden, activation, jac_t)
        jtj, jte = jac_t @ jac_t.T, jac_t @ err
        diagonal = jtj.diagonal().copy()
        while mu <= MU_MAX:
            jtj.flat[::p + 1] = diagonal + mu
            trial = theta - np.linalg.solve(jtj, jte)
            trial_hidden, trial_err, trial_sse = _sse(trial, x_train, y_train, activation)
            if trial_sse < sse:
                theta, hidden, err, sse = trial, trial_hidden, trial_err, trial_sse
                mu *= MU_DEC
                break
            mu *= MU_INC
        if history.record(sse / n, _sse(theta, x_val, y_val, activation)[2] / y_val.size):
            best = theta
        if mu > MU_MAX:
            history.stop = "damping"
            break
        if stalled(history.val, PATIENCE, 0.0):
            history.stop = "patience"
            break
    d = len(config.input_columns)
    w1, b1, w2, b2 = _unpack(best, d, config.hidden_neurons)
    return MlpModel(config, w1, b1, w2, b2), history


# ---------------------------------------------------------------------------
# experiment harness
# ---------------------------------------------------------------------------

def default_registry(seed: int = 0) -> tuple:
    """Eight configurations: hidden sizes 3,4,5,6,7,10 on the full feature
    set, plus sizes 5 and 7 without wall thickness loss."""
    no_wtl = tuple(c for c in DEFAULT_INPUT_COLUMNS if c != "wall_thickness_loss_pct")
    configs = []
    for i, h in enumerate((3, 4, 5, 6, 7, 10)):
        configs.append(
            MlpConfig(hidden_neurons=h, seed=seed + i, name=f"ann{i + 1}_h{h}")
        )
    for j, h in enumerate((5, 7)):
        configs.append(
            MlpConfig(
                input_columns=no_wtl,
                hidden_neurons=h,
                seed=seed + 6 + j,
                name=f"ann{7 + j}_h{h}_nowtl",
            )
        )
    return tuple(configs)


@dataclass
class ExperimentRow:
    name: str
    config: MlpConfig
    model: MlpModel
    reports: dict  # phase name -> MetricsReport
    history: TrainingHistory
    predicted: np.ndarray  # raw-unit predictions for every row of the split

    def phase(self, label: Split) -> MetricsReport:
        return self.reports[label.value]


@dataclass
class ExperimentResult:
    rows: list
    best: ExperimentRow
    labeled: Dataset  # the dataset with the shared split labels

    def table(self) -> list:
        """Rows of (model, phase, mae, rrse, mape, rae, r2) for CSV export."""
        out = []
        for row in self.rows:
            for label in SPLITS:
                rep = row.phase(label)
                out.append(
                    (row.name, label.value, rep.mae, rep.rrse, rep.mape, rep.rae, rep.r2)
                )
        return out


def run_experiment_suite(
    dataset: Dataset,
    registry: Sequence[MlpConfig] | None = None,
    split_seed: int = 0,
) -> ExperimentResult:
    """Train every registry entry on one shared split and rank the models.

    `registry=None` is `default_registry(split_seed)`; an empty registry,
    or any invalid config in it, raises InvalidConfig before a model is
    trained.  One FeatureMatrix covers the union of the registry's inputs;
    min-max constants are per column, so each model scales as if built
    alone.  The best model minimizes test MAPE, with test MAE as the
    tie-break.
    """
    if not dataset.has_rul():
        raise EmptySplit("experiment suite requires rul targets")
    registry = default_registry(split_seed) if registry is None else tuple(registry)
    if not registry:
        raise InvalidConfig("the registry holds no model configs")
    for config in registry:
        config.validate()
    labeled = split_dataset(dataset, DEFAULT_SPLIT_RATIOS, split_seed)
    inputs = tuple(dict.fromkeys(c for config in registry for c in config.input_columns))
    features = build_features(labeled, inputs + (TARGET_COLUMN,))
    actual = features.raw_column(TARGET_COLUMN)
    phases = [(label, features.rows_for(label)) for label in SPLITS]
    rows = []
    for config in registry:
        model, history = train(config, features)
        predicted = model.predict_batch(features.raw_matrix(config.input_columns))
        reports = {label.value: evaluate(predicted[idx], actual[idx]) for label, idx in phases}
        name = config.name or f"h{config.hidden_neurons}"
        rows.append(ExperimentRow(name, config, model, reports, history, predicted))
    best = min(
        rows, key=lambda r: (r.phase(Split.TEST).mape, r.phase(Split.TEST).mae)
    )
    return ExperimentResult(rows=rows, best=best, labeled=labeled)


def scatter_fit(predicted, actual):
    """Least-squares line of predicted on actual: (slope, intercept, r2)."""
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.size != a.size or p.size < 2:
        raise ConstantSeries("need two equal-length series")
    da = a - a.mean()
    ss_a = float(da @ da)
    if ss_a == 0.0:
        raise ConstantSeries("actuals are constant; no line is defined")
    slope = float(da @ (p - p.mean())) / ss_a
    intercept = float(p.mean() - slope * a.mean())
    resid = p - (slope * a + intercept)
    dp = p - p.mean()
    ss_p = float(dp @ dp)
    r2 = 1.0 if ss_p == 0.0 else 1.0 - float(resid @ resid) / ss_p
    return slope, intercept, r2
