"""Single-hidden-layer feedforward regressor trained by backpropagation.

The network is y = w2 . act(W1 x + b1) + b2 with a sigmoid (or tanh) hidden
layer and a linear output, trained on mean squared error over normalized
features and target.  Weights start Glorot-uniform from a seeded generator,
biases at zero, so identical (config, data, seed) reproduce the same model
bit for bit.

Training keeps the parameter snapshot with the lowest validation MSE seen
across the epoch budget; the experiment harness trains a registry of
configurations on one shared split and ranks them by test error.

A model keeps the scaling constants of its inputs and target and scales with
`data.normalize`/`data.denormalize`, as ANFIS does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .data import Dataset, FeatureMatrix, Split, build_features, split_dataset
from .data import TARGET_COLUMN, check_shapes, denormalize, normalize
from .errors import (
    ConstantSeries,
    DimensionMismatch,
    EmptyBatch,
    EmptySplit,
    InvalidConfig,
)
from .metrics import MetricsReport, evaluate

DEFAULT_INPUT_COLUMNS = (
    "material",
    "wall_thickness_loss_pct",
    "length_ft",
    "diameter_in",
    "age_years",
)
DEFAULT_SPLIT_RATIOS = (0.75, 0.10, 0.15)
DEFAULT_EPOCHS = 500


@dataclass(frozen=True)
class MlpConfig:
    input_columns: tuple = DEFAULT_INPUT_COLUMNS
    hidden_neurons: int = 5
    activation: str = "sigmoid"      # sigmoid | tanh
    learning_rate: float = 0.2
    epochs: int = DEFAULT_EPOCHS
    batch_size: Optional[int] = 16   # None = full batch
    restarts: int = 1                # independent initializations, best kept
    seed: int = 0
    name: str = ""

    def validate(self) -> None:
        if self.hidden_neurons < 1:
            raise InvalidConfig(f"hidden_neurons must be >= 1, got {self.hidden_neurons}")
        if self.learning_rate <= 0:
            raise InvalidConfig(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise InvalidConfig(f"epochs must be >= 1, got {self.epochs}")
        if self.activation not in ("sigmoid", "tanh"):
            raise InvalidConfig(f"unknown activation: {self.activation!r}")
        if self.batch_size is not None and self.batch_size < 1:
            raise InvalidConfig(f"batch_size must be >= 1, got {self.batch_size}")
        if self.restarts < 1:
            raise InvalidConfig(f"restarts must be >= 1, got {self.restarts}")
        if not self.input_columns:
            raise InvalidConfig("input_columns must be non-empty")

    def to_dict(self) -> dict:
        return {
            "input_columns": list(self.input_columns),
            "hidden_neurons": self.hidden_neurons,
            "activation": self.activation,
            "learning_rate": self.learning_rate,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "restarts": self.restarts,
            "seed": self.seed,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MlpConfig":
        return cls(
            input_columns=tuple(payload["input_columns"]),
            hidden_neurons=int(payload["hidden_neurons"]),
            activation=payload.get("activation", "sigmoid"),
            learning_rate=float(payload.get("learning_rate", 0.2)),
            epochs=int(payload.get("epochs", DEFAULT_EPOCHS)),
            batch_size=payload.get("batch_size", 16),
            restarts=int(payload.get("restarts", 1)),
            seed=int(payload.get("seed", 0)),
            name=payload.get("name", ""),
        )


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "sigmoid":
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    return np.tanh(z)


def _act_grad(a: np.ndarray, kind: str) -> np.ndarray:
    # derivative expressed through the activation value itself
    if kind == "sigmoid":
        return a * (1.0 - a)
    return 1.0 - a * a


@dataclass
class MlpModel:
    """Weights plus the normalization constants they were trained under."""

    config: MlpConfig
    w1: np.ndarray               # d x h
    b1: np.ndarray               # h
    w2: np.ndarray               # h
    b2: float
    feature_constants: tuple = ()   # per input column: (a, b) as in FeatureMatrix
    target_constants: tuple = ()    # (a, b) for rul_years
    norm_mode: str = "minmax"

    @property
    def input_columns(self) -> tuple:
        return tuple(self.config.input_columns)

    def parameters(self):
        return [self.w1, self.b1, self.w2, np.atleast_1d(self.b2)]

    def copy(self) -> "MlpModel":
        return replace(self, w1=self.w1.copy(), b1=self.b1.copy(), w2=self.w2.copy(),
                       b2=float(self.b2))

    # -- raw-unit prediction ------------------------------------------------

    def predict_batch(self, raw: np.ndarray) -> np.ndarray:
        """RUL years for an n x d matrix of raw-unit inputs, clamped to the
        trained target range under min-max normalization."""
        raw = np.atleast_2d(np.asarray(raw, dtype=float))
        if raw.shape[1] != self.w1.shape[0]:
            raise DimensionMismatch(
                f"expected {self.w1.shape[0]} inputs, got {raw.shape[1]}"
            )
        y = forward(self, normalize(raw, self.feature_constants, self.norm_mode))
        y = denormalize(y[:, None], (self.target_constants,), self.norm_mode)[:, 0]
        if self.norm_mode == "minmax":
            # the target was scaled from [a, b]; predictions outside that
            # range are extrapolations, so pin them to the trained bounds
            return np.clip(y, *self.target_constants)
        return y

    def predict_dataset(self, dataset: Dataset) -> np.ndarray:
        return self.predict_batch(dataset.matrix(self.input_columns))

    # -- serialization --------------------------------------------------------

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(
            {
                "format": "pipelife-mlp-v1",
                "config": self.config.to_dict(),
                "w1": self.w1.tolist(),
                "b1": self.b1.tolist(),
                "w2": self.w2.tolist(),
                "b2": self.b2,
                "feature_constants": [list(c) for c in self.feature_constants],
                "target_constants": list(self.target_constants),
                "norm_mode": self.norm_mode,
            },
            indent=indent,
        )

    @classmethod
    def from_json(cls, text: str) -> "MlpModel":
        """Load a model document; wrong array shapes raise DimensionMismatch."""
        payload = json.loads(text)
        if payload.get("format") != "pipelife-mlp-v1":
            raise InvalidConfig(f"not an MLP model document: {payload.get('format')!r}")
        model = cls(
            config=MlpConfig.from_dict(payload["config"]),
            w1=np.array(payload["w1"], dtype=float),
            b1=np.array(payload["b1"], dtype=float),
            w2=np.array(payload["w2"], dtype=float),
            b2=float(payload["b2"]),
            feature_constants=tuple(tuple(c) for c in payload["feature_constants"]),
            target_constants=tuple(payload["target_constants"]),
            norm_mode=payload.get("norm_mode", "minmax"),
        )
        d, h = len(model.input_columns), len(model.b1)
        check_shapes(model, d, w1=(d, h), b1=(h,), w2=(h,))
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


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Network output for normalized inputs (single row or n x d matrix)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x2 = np.atleast_2d(x)
    if x2.shape[1] != model.w1.shape[0]:
        raise DimensionMismatch(
            f"expected {model.w1.shape[0]} inputs, got {x2.shape[1]}"
        )
    hidden = _act(x2 @ model.w1 + model.b1, model.config.activation)
    y = hidden @ model.w2 + model.b2
    return float(y[0]) if single else y


def loss_and_gradient(model: MlpModel, x: np.ndarray, y: np.ndarray):
    """MSE over the batch and its exact gradients for every parameter.

    Returns (loss, {"w1": ..., "b1": ..., "w2": ..., "b2": ...}).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if x.shape[0] == 0:
        raise EmptyBatch("gradient evaluation needs at least one row")
    if x.shape[0] != y.size:
        raise DimensionMismatch(f"{x.shape[0]} rows vs {y.size} targets")
    n = x.shape[0]
    z1 = x @ model.w1 + model.b1
    a1 = _act(z1, model.config.activation)
    y_hat = a1 @ model.w2 + model.b2
    err = y_hat - y
    loss = float(err @ err) / n
    g_out = (2.0 / n) * err                      # dL/dy_hat
    g_w2 = a1.T @ g_out
    g_b2 = float(g_out.sum())
    g_hidden = np.outer(g_out, model.w2) * _act_grad(a1, model.config.activation)
    g_w1 = x.T @ g_hidden
    g_b1 = g_hidden.sum(axis=0)
    return loss, {"w1": g_w1, "b1": g_b1, "w2": g_w2, "b2": g_b2}


@dataclass
class TrainingHistory:
    train_mse: list = field(default_factory=list)
    val_mse: list = field(default_factory=list)
    best_epoch: int = -1

    def __len__(self) -> int:
        return len(self.train_mse)


def train(config: MlpConfig, features: FeatureMatrix):
    """Gradient-descent training on the matrix's train split.

    Validation MSE is tracked each epoch and the best-epoch snapshot is
    returned; without a validation split the train loss is used instead.
    With restarts > 1 the run is repeated from fresh seeds (seed, seed+1,
    ...) and the restart with the lowest validation MSE wins.  Returns
    (model, TrainingHistory).
    """
    config.validate()
    if config.restarts > 1:
        best = None
        for k in range(config.restarts):
            attempt = replace(config, restarts=1, seed=config.seed + k)
            model, history = train(attempt, features)
            score = min(history.val_mse)
            if best is None or score < best[0]:
                best = (score, model, history)
        return best[1], best[2]
    x_train, y_train, x_val, y_val = features.split_arrays(config.input_columns)

    model = init(config)
    model.feature_constants = features.column_constants(config.input_columns)
    model.target_constants = features.column_constants((TARGET_COLUMN,))[0]
    model.norm_mode = features.mode

    rng = np.random.default_rng(config.seed + 1)  # batch shuffling stream
    history = TrainingHistory()
    best = model.copy()
    best_score = np.inf
    for epoch in range(config.epochs):
        if config.batch_size is None:
            _sgd_step(model, x_train, y_train, config.learning_rate)
        else:
            order = rng.permutation(y_train.size)
            for start in range(0, y_train.size, config.batch_size):
                rows = order[start:start + config.batch_size]
                _sgd_step(model, x_train[rows], y_train[rows], config.learning_rate)
        train_mse = _mse(model, x_train, y_train)
        val_mse = _mse(model, x_val, y_val) if y_val.size else train_mse
        history.train_mse.append(train_mse)
        history.val_mse.append(val_mse)
        if val_mse < best_score:
            best_score = val_mse
            best = model.copy()
            history.best_epoch = epoch
    return best, history


def _sgd_step(model, x, y, lr):
    _, grads = loss_and_gradient(model, x, y)
    model.w1 -= lr * grads["w1"]
    model.b1 -= lr * grads["b1"]
    model.w2 -= lr * grads["w2"]
    model.b2 -= lr * grads["b2"]


def _mse(model, x, y) -> float:
    if len(y) == 0:
        return np.inf
    err = forward(model, x) - y
    return float(err @ err) / len(y)


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

    def phase(self, label: Split) -> MetricsReport:
        return self.reports[label.value]


@dataclass
class ExperimentResult:
    rows: list
    best: ExperimentRow
    split_seed: int

    def table(self) -> list:
        """Rows of (model, phase, mae, rrse, mape, rae, r2) for CSV export."""
        out = []
        for row in self.rows:
            for label in (Split.TRAIN, Split.VALIDATION, Split.TEST):
                rep = row.phase(label)
                out.append(
                    (row.name, label.value, rep.mae, rep.rrse, rep.mape, rep.rae, rep.r2)
                )
        return out


def run_experiment_suite(
    dataset: Dataset,
    registry: Sequence[MlpConfig] = (),
    split_seed: int = 0,
    ratios=DEFAULT_SPLIT_RATIOS,
) -> ExperimentResult:
    """Train every registry entry on one shared split and rank the models.

    The best model minimizes test MAPE, with test MAE as the tie-break.
    """
    if not dataset.has_rul():
        raise EmptySplit("experiment suite requires rul targets")
    registry = tuple(registry) or default_registry(split_seed)
    labeled = split_dataset(dataset, ratios, split_seed)
    rows = []
    for config in registry:
        columns = tuple(config.input_columns) + ("rul_years",)
        features = build_features(labeled, columns)
        model, _ = train(config, features)
        actual = labeled.column("rul_years")
        predicted = model.predict_dataset(labeled)
        reports = {}
        for label in (Split.TRAIN, Split.VALIDATION, Split.TEST):
            idx = features.rows_for(label)
            reports[label.value] = evaluate(predicted[idx], actual[idx])
        name = config.name or f"h{config.hidden_neurons}"
        rows.append(ExperimentRow(name, config, model, reports))
    best = min(
        rows, key=lambda r: (r.phase(Split.TEST).mape, r.phase(Split.TEST).mae)
    )
    return ExperimentResult(rows=rows, best=best, split_seed=split_seed)


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
