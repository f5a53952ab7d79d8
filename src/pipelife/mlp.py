"""Single-hidden-layer feedforward regressor trained by backpropagation.

The network is y = w2 . act(W1 x + b1) + b2 with a sigmoid (or tanh) hidden
layer and a linear output, trained on mean squared error over normalized
features and target.  Weights start Glorot-uniform from a seeded generator,
biases at zero, so identical (config, data, seed) reproduce the same model
bit for bit.

Training keeps the parameter snapshot with the lowest validation MSE seen
across the epoch budget; the experiment harness trains a registry of
configurations on one shared split and ranks them by test error.

The registry trains in lockstep (`train_registry`).  A config with
restarts = k becomes k members seeded seed, seed + 1, ..., and the first
member with the strictly lowest validation MSE wins.  Members sharing
(batch_size, epochs) form one stack: K parameter vectors in one array,
hidden units zero-padded to the largest h, inputs laid out on the union of
the members' columns, and a per-parameter learning rate that is zero on the
padding and on each member's absent inputs.  Each vector is laid out as
[W1; b1] ((d + 1) x h) then [w2; b2] (h + 1), and the inputs and hidden
activations carry a ones column, so the biases ride inside the matmuls: a
forward pass is two matmuls and the activation, and a backward pass two
matmuls for all four gradients.  One gradient kernel (`_kernel`) does this
for (K, B, d + 1) batches, with its temporaries allocated once per batch
size, so an SGD step is a fixed list of numpy calls instead of K separate
loops.  Each member keeps its own Glorot initialization from rng(seed), its
own batch order from rng(seed + 1), its learning rate, its activation and
its best-epoch snapshot, so it ends where training it alone ends, up to the
order of floating-point sums.  `train` is the one-config case, and
`loss_and_gradient` is the K = 1 call of the same kernel.

A model keeps the scaling constants of its inputs and target, and
`predict_batch` scales with `data.scaled_inputs` and `data.raw_target`, as
ANFIS does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .data import SPLITS, Dataset, FeatureMatrix, Split, build_features, split_dataset
from .data import TARGET_COLUMN, check_shapes, raw_target, scaled_inputs, whole_number
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
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InvalidConfig(
                f"learning_rate must be finite and positive, got {self.learning_rate}")
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
        if len(set(self.input_columns)) != len(self.input_columns):
            raise InvalidConfig(f"input_columns repeat a column: {self.input_columns}")
        if TARGET_COLUMN in self.input_columns:
            raise InvalidConfig(f"the target {TARGET_COLUMN} cannot be an input")

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
        """A config from its to_dict document; an integer field that holds
        a fraction or a bool (2.5, true) raises InvalidConfig rather than
        being truncated."""
        batch_size = payload.get("batch_size", 16)
        return cls(
            input_columns=tuple(payload["input_columns"]),
            hidden_neurons=whole_number("hidden_neurons", payload["hidden_neurons"]),
            activation=payload.get("activation", "sigmoid"),
            learning_rate=float(payload.get("learning_rate", 0.2)),
            epochs=whole_number("epochs", payload.get("epochs", DEFAULT_EPOCHS)),
            batch_size=None if batch_size is None else whole_number("batch_size", batch_size),
            restarts=whole_number("restarts", payload.get("restarts", 1)),
            seed=whole_number("seed", payload.get("seed", 0)),
            name=payload.get("name", ""),
        )


# act(z) = scale * (offset + tanh(scale * z)): sigmoid is 0.5 (1 + tanh(z / 2)),
# tanh is scale 1, offset 0.  tanh saturates without overflow at any z.
_ACTIVATIONS = {"sigmoid": (0.5, 1.0), "tanh": (1.0, 0.0)}


def _activation(kinds) -> tuple:
    """(scale, offset, hi, lo) of K activations as K x 1 x 1 arrays, or as
    floats when all K are one kind (a scalar operand makes a cheaper ufunc call).

    The derivative through the activation value a is (hi - a) * (a + lo):
    a (1 - a) for the sigmoid, (1 - a) (1 + a) for tanh.
    """
    if len(set(kinds)) == 1:
        scale, offset = _ACTIVATIONS[kinds[0]]
    else:
        scale, offset = np.array([_ACTIVATIONS[k] for k in kinds]).T.reshape(2, -1, 1, 1)
    return scale, offset, scale * (1.0 + offset), scale * (1.0 - offset)


def _act(z: np.ndarray, act: tuple) -> np.ndarray:
    """The activation of the pre-activations z, computed in place."""
    scale, offset = act[:2]
    z *= scale
    np.tanh(z, out=z)
    z += offset
    z *= scale
    return z


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

    # -- raw-unit prediction ------------------------------------------------

    def predict_batch(self, raw: np.ndarray) -> np.ndarray:
        """RUL years for an n x d matrix of raw-unit inputs, clamped to the
        trained target range under min-max normalization."""
        return raw_target(self, forward(self, scaled_inputs(self, raw)))

    def predict_dataset(self, dataset: Dataset) -> np.ndarray:
        return self.predict_batch(dataset.matrix(self.input_columns))

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
                "feature_constants": [list(c) for c in self.feature_constants],
                "target_constants": list(self.target_constants),
                "norm_mode": self.norm_mode,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "MlpModel":
        """Load a model document; an invalid config or norm_mode raises
        InvalidConfig and wrong array shapes raise DimensionMismatch."""
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


# -- stacked networks ----------------------------------------------------------
#
# K networks with d inputs and h hidden units live in one K x P array, one
# flat parameter vector per row: w1 (d*h), b1 (h), w2 (h), b2 (1).  Its first
# (d + 1) h entries are [W1; b1] as a (d + 1) x h matrix and the last h + 1
# are [w2; b2], so with a ones column after the inputs and after the hidden
# activations each layer is one matmul, and each bias gradient comes out of
# its layer's weight-gradient matmul.  Inputs carry that ones column: (B,
# d + 1) shared by every network, or (1, B, d + 1) / (K, B, d + 1) batches.

def _layers(theta: np.ndarray, d: int, h: int) -> tuple:
    """([W1; b1], [w2; b2]) views of a K x P stack: (K, d + 1, h) and (K, h + 1)."""
    k, cut = theta.shape[0], (d + 1) * h
    return theta[:, :cut].reshape(k, d + 1, h), theta[:, cut:]


def _pack(model: MlpModel) -> np.ndarray:
    """One model as the 1 x P stack."""
    return np.concatenate((model.w1.ravel(), model.b1, model.w2, [model.b2]))[None]


def _with_ones(x: np.ndarray) -> np.ndarray:
    """x (..., d) with the bias input, a ones column, appended."""
    out = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
    out[..., :-1] = x
    out[..., -1] = 1.0
    return out


def _buffers(k: int, b: int, h: int) -> tuple:
    """(units, hidden, out) of a forward pass of K networks on b rows: the
    activations (K, b, h), the same beside the bias input 1 (K, b, h + 1),
    and the outputs (K, b, 1)."""
    return np.empty((k, b, h)), np.ones((k, b, h + 1)), np.empty((k, b, 1))


def _forward(layers: tuple, x: np.ndarray, act: tuple, buffers=None) -> np.ndarray:
    """Outputs (K, B, 1) of stacked networks on inputs x with their ones
    column, written into `buffers` (allocated when not given)."""
    w1, w2 = layers
    units, hidden, out = buffers or _buffers(w1.shape[0], x.shape[-2], w1.shape[2])
    _act(np.matmul(x, w1, out=units), act)
    hidden[..., :-1] = units     # the activation runs on contiguous memory
    return np.matmul(hidden, w2[..., None], out=out)


def _kernel(theta: np.ndarray, grad: np.ndarray, d: int, h: int, act: tuple, b: int):
    """The gradient of each stacked network's MSE on batches of b rows.

    Returns gradient(x, x_t, y) for inputs x with their ones column, x_t
    their (0, 2, 1) transpose and (K or 1, b, 1) targets y.  It writes the
    gradient into `grad` and returns the (K, b, 1) residuals y_hat - y.  Its
    temporaries and views are built here, once per batch size.
    """
    k = theta.shape[0]
    layers, (g1, g2) = _layers(theta, d, h), _layers(grad, d, h)
    w2_units, g2 = layers[1][:, None, :h], g2[..., None]
    buffers = units, hidden, err = _buffers(k, b, h)
    hidden_t = hidden.transpose(0, 2, 1)
    g_out, slope, g_hidden = np.empty((k, b, 1)), np.empty((k, b, h)), np.empty((k, b, h))
    hi, lo = act[2:]
    two_over_b = 2.0 / b

    def gradient(x, x_t, y):
        np.subtract(_forward(layers, x, act, buffers), y, out=err)
        np.multiply(err, two_over_b, out=g_out)             # dL/dy_hat
        np.matmul(hidden_t, g_out, out=g2)
        np.subtract(hi, units, out=slope)
        np.add(units, lo, out=g_hidden)
        np.multiply(slope, g_hidden, out=slope)
        np.multiply(g_out, w2_units, out=g_hidden)
        np.multiply(g_hidden, slope, out=g_hidden)
        np.matmul(x_t, g_hidden, out=g1)
        return err

    return gradient


def _mse(layers: tuple, x: np.ndarray, y: np.ndarray, act: tuple, buffers=None) -> np.ndarray:
    err = _forward(layers, x, act, buffers)
    err -= y
    return np.einsum("kn,kn->k", err[..., 0], err[..., 0]) / y.size


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Network output for normalized inputs (single row or n x d matrix)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x2 = np.atleast_2d(x)
    d, h = model.w1.shape
    if x2.shape[1] != d:
        raise DimensionMismatch(f"expected {d} inputs, got {x2.shape[1]}")
    y = _forward(_layers(_pack(model), d, h), _with_ones(x2),
                 _activation([model.config.activation]))[0, :, 0]
    return float(y[0]) if single else y


def loss_and_gradient(model: MlpModel, x: np.ndarray, y: np.ndarray):
    """MSE over the batch and its exact gradients for every parameter.

    This is the K = 1 case of the stacked gradient kernel that training runs.
    Returns (loss, {"w1": ..., "b1": ..., "w2": ..., "b2": ...}).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if x.shape[0] == 0:
        raise EmptyBatch("gradient evaluation needs at least one row")
    if x.shape[0] != y.size:
        raise DimensionMismatch(f"{x.shape[0]} rows vs {y.size} targets")
    d, h = model.w1.shape
    theta = _pack(model)
    grad = np.empty_like(theta)
    x1 = _with_ones(x)[None]
    gradient = _kernel(theta, grad, d, h, _activation([model.config.activation]), y.size)
    err = gradient(x1, x1.transpose(0, 2, 1), y[None, :, None])[0, :, 0]
    g1, g2 = (g[0] for g in _layers(grad, d, h))
    return float(err @ err) / y.size, {"w1": g1[:d], "b1": g1[d], "w2": g2[:h], "b2": float(g2[h])}


@dataclass
class TrainingHistory:
    train_mse: list = field(default_factory=list)
    val_mse: list = field(default_factory=list)
    best_epoch: int = -1
    restart: int = 0             # index of the winning restart (seed + restart)

    def __len__(self) -> int:
        return len(self.train_mse)


def train(config: MlpConfig, features: FeatureMatrix):
    """Gradient-descent training on the matrix's train split.

    The one-config case of `train_registry`.  Returns (model, TrainingHistory).
    """
    return train_registry((config,), features)[0]


def train_registry(configs: Sequence[MlpConfig], features: FeatureMatrix) -> list:
    """Train every config on the matrix's train split, in lockstep.

    A config with restarts = k becomes k members seeded seed, seed + 1, ...;
    the first member with the strictly lowest validation MSE wins.  Members
    sharing (batch_size, epochs) train as one stacked program.  Returns
    [(model, TrainingHistory)] in config order.
    """
    members = []                   # (config index, restart, member config)
    for i, config in enumerate(configs):
        config.validate()
        for r in range(config.restarts):
            members.append((i, r, replace(config, restarts=1, seed=config.seed + r)))
    groups = {}
    for pos, (_, _, member) in enumerate(members):
        groups.setdefault((member.batch_size, member.epochs), []).append(pos)
    trained = [None] * len(members)
    for positions in groups.values():
        group = _train_group([members[pos][2] for pos in positions], features)
        for pos, result in zip(positions, group):
            trained[pos] = result
    chosen = {}
    for (i, r, _), (model, history) in zip(members, trained):
        history.restart = r
        if i not in chosen or min(history.val_mse) < min(chosen[i][1].val_mse):
            chosen[i] = (model, history)
    return [chosen[i] for i in range(len(configs))]


def _init_stack(configs: Sequence[MlpConfig], columns: tuple) -> tuple:
    """(theta, rate, places) of members laid out on the union `columns`.

    Member i holds its d_i inputs on its rows of W1 and its h_i units on the
    first of the largest h: `places[i]` is (rows, h_i).  theta holds each
    member's Glorot initialization there and zeros elsewhere; rate holds its
    learning rate on its own parameters and zero on the padding.
    """
    k, d, h = len(configs), len(columns), max(c.hidden_neurons for c in configs)
    theta = np.zeros((k, (d + 2) * h + 1))
    rate = np.zeros_like(theta)
    (w1, w2), (r1, r2) = _layers(theta, d, h), _layers(rate, d, h)
    places = []
    for i, config in enumerate(configs):
        rows, units = [columns.index(c) for c in config.input_columns], config.hidden_neurons
        fresh = init(config)
        w1[i, rows, :units] = fresh.w1
        w2[i, :units] = fresh.w2
        r1[i, rows + [d], :units] = r2[i, :units] = r2[i, h] = config.learning_rate
        places.append((rows, units))
    return theta, rate, places


def _train_group(configs: Sequence[MlpConfig], features: FeatureMatrix) -> list:
    """SGD for members sharing batch size and epochs, as one K-network stack.

    The learning rate is zero on each member's padding (`_init_stack`), so
    the padding stays zero and adds exact zeros to every sum.  Validation
    MSE is tracked each epoch and each member's best-epoch snapshot is kept;
    without a validation split the train loss is used instead.
    """
    wanted = {c for config in configs for c in config.input_columns}
    columns = tuple(c for c in features.column_names if c in wanted)
    x_train, y_train, x_val, y_val = features.split_arrays(columns)
    theta, rate, places = _init_stack(configs, columns)
    grad = np.empty_like(theta)
    k, d, h = len(configs), len(columns), max(c.hidden_neurons for c in configs)
    layers = _layers(theta, d, h)
    act = _activation([c.activation for c in configs])
    rngs = [np.random.default_rng(c.seed + 1) for c in configs]  # batch shuffling streams
    batch_size, epochs = configs[0].batch_size, configs[0].epochs
    x_train, x_val = _with_ones(x_train), _with_ones(x_val)
    y_train, y_val = y_train[:, None], y_val[:, None]
    n = y_train.size
    step = batch_size or n
    if batch_size is None:
        x_epoch, y_epoch = x_train[None], y_train[None]
    else:
        x_epoch, y_epoch = np.empty((k, n, d + 1)), np.empty((k, n, 1))
    kernels = {b: _kernel(theta, grad, d, h, act, b) for b in {step, n % step} - {0}}
    batches = []
    for start in range(0, n, step):
        x = x_epoch[:, start:start + step]
        batches.append((kernels[x.shape[1]], x, x.transpose(0, 2, 1), y_epoch[:, start:start + step]))

    train_buffers, val_buffers = _buffers(k, n, h), _buffers(k, y_val.size, h)
    best = theta.copy()
    best_score = np.full(k, np.inf)
    best_epoch = np.full(k, -1)
    train_mse, val_mse = np.empty((epochs, k)), np.empty((epochs, k))
    for epoch in range(epochs):
        if batch_size is not None:
            orders = np.array([rng.permutation(n) for rng in rngs])
            np.take(x_train, orders, axis=0, out=x_epoch)
            np.take(y_train, orders, axis=0, out=y_epoch)
        for gradient, x, x_t, y in batches:
            gradient(x, x_t, y)
            grad *= rate
            theta -= grad
        train_mse[epoch] = _mse(layers, x_train, y_train, act, train_buffers)
        val_mse[epoch] = (_mse(layers, x_val, y_val, act, val_buffers) if y_val.size
                          else train_mse[epoch])
        better = val_mse[epoch] < best_score
        best[better] = theta[better]
        best_score[better] = val_mse[epoch, better]
        best_epoch[better] = epoch

    w1, w2 = _layers(best, d, h)
    target_constants = features.column_constants((TARGET_COLUMN,))[0]
    out = []
    for i, (config, (rows, units)) in enumerate(zip(configs, places)):
        model = MlpModel(
            config=config,
            w1=w1[i, rows, :units],
            b1=w1[i, d, :units].copy(),
            w2=w2[i, :units].copy(),
            b2=float(w2[i, h]),
            feature_constants=features.column_constants(config.input_columns),
            target_constants=target_constants,
            norm_mode=features.mode,
        )
        history = TrainingHistory(
            train_mse[:, i].tolist(), val_mse[:, i].tolist(), int(best_epoch[i])
        )
        out.append((model, history))
    return out


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
    registry: Sequence[MlpConfig] = (),
    split_seed: int = 0,
) -> ExperimentResult:
    """Train every registry entry on one shared split and rank the models.

    One FeatureMatrix covers the union of the registry's inputs; min-max
    constants are per column, so each model scales as if built alone.  The
    best model minimizes test MAPE, with test MAE as the tie-break.
    """
    if not dataset.has_rul():
        raise EmptySplit("experiment suite requires rul targets")
    registry = tuple(registry) or default_registry(split_seed)
    labeled = split_dataset(dataset, DEFAULT_SPLIT_RATIOS, split_seed)
    inputs = tuple(dict.fromkeys(c for config in registry for c in config.input_columns))
    features = build_features(labeled, inputs + (TARGET_COLUMN,))
    actual = features.raw_column(TARGET_COLUMN)
    phases = [(label, features.rows_for(label)) for label in SPLITS]
    rows = []
    for config, (model, history) in zip(registry, train_registry(registry, features)):
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
