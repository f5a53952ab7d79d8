from dataclasses import replace

import numpy as np
import pytest

from pipelife import mlp, synth
from pipelife.data import SPLITS, FeatureMatrix, Split, build_features, split_dataset
from pipelife.errors import (
    ConstantSeries,
    DimensionMismatch,
    EmptyBatch,
    EmptySplit,
    InvalidConfig,
)
from pipelife.mlp import (
    MlpConfig,
    MlpModel,
    default_registry,
    forward,
    init,
    loss_and_gradient,
    run_experiment_suite,
    scatter_fit,
    train,
)


def toy_config(**kwargs):
    defaults = dict(
        input_columns=("x",),
        hidden_neurons=4,
        epochs=10,
        seed=0,
    )
    defaults.update(kwargs)
    return MlpConfig(**defaults)


def toy_matrix(fn, n=50, seed=0, as_split=True):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=n)
    y = fn(x)
    values = np.column_stack([x, y])
    split = None
    if as_split:
        split = np.full(n, SPLITS.index(Split.TRAIN))
        split[::5] = SPLITS.index(Split.VALIDATION)
    return FeatureMatrix(values, ("x", "rul_years"), split)


# -- init ------------------------------------------------------------------------

def test_init_deterministic_per_seed():
    a = init(toy_config(seed=42))
    b = init(toy_config(seed=42))
    c = init(toy_config(seed=43))
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
    assert not np.array_equal(a.w1, c.w1)


def test_init_biases_zero_and_glorot_range():
    m = init(toy_config(hidden_neurons=8))
    assert np.all(m.b1 == 0.0) and m.b2 == 0.0
    r1 = np.sqrt(6.0 / (1 + 8))
    assert np.all(np.abs(m.w1) <= r1)


def test_init_invalid_config():
    with pytest.raises(InvalidConfig):
        init(toy_config(hidden_neurons=0))
    with pytest.raises(InvalidConfig):
        init(toy_config(activation="relu"))


def test_config_with_a_repeated_input_column_is_invalid():
    # each input column has one row of w1
    with pytest.raises(InvalidConfig):
        init(toy_config(input_columns=("x", "x")))


def test_config_from_dict_loads_whole_floats_as_ints():
    config = MlpConfig.from_dict({"input_columns": ["x"], "hidden_neurons": 3.0,
                                  "epochs": 2.0, "restarts": 2, "seed": 7.0})
    assert (config.hidden_neurons, config.epochs, config.restarts, config.seed) == (3, 2, 2, 7)
    assert all(type(v) is int for v in (config.hidden_neurons, config.epochs, config.seed))


# -- forward ------------------------------------------------------------------------

def test_forward_constant_network():
    m = init(toy_config(hidden_neurons=3))
    m.w1[:] = 0.0
    m.w2[:] = 0.0
    m.b2 = 0.3
    for x in ([0.0], [0.5], [1.0]):
        assert forward(m, np.array(x)) == pytest.approx(0.3, abs=1e-15)


def test_forward_sigmoid_midpoint():
    # one sigmoid unit at zero input doubled: 2 * sigmoid(0) = 1
    m = init(toy_config(hidden_neurons=1))
    m.w1[:] = 0.0
    m.b1[:] = 0.0
    m.w2[:] = 2.0
    m.b2 = 0.0
    assert forward(m, np.array([0.7])) == pytest.approx(1.0, abs=1e-15)


def test_forward_matches_manual_matrix_arithmetic():
    cfg = MlpConfig(input_columns=("a", "b", "c"), hidden_neurons=5, seed=3)
    m = init(cfg)
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, size=3)
    z1 = m.w1.T @ x + m.b1
    hidden = 1.0 / (1.0 + np.exp(-z1))
    expected = float(m.w2 @ hidden + m.b2)
    assert forward(m, x) == pytest.approx(expected, abs=1e-12)


def test_forward_dimension_mismatch():
    m = init(toy_config())
    with pytest.raises(DimensionMismatch):
        forward(m, np.array([1.0, 2.0]))


def test_forward_finite_on_unit_cube():
    cfg = MlpConfig(input_columns=("a", "b"), hidden_neurons=6, seed=9)
    m = init(cfg)
    rng = np.random.default_rng(2)
    xs = rng.uniform(0, 1, size=(200, 2))
    out = forward(m, xs)
    assert np.all(np.isfinite(out))


# -- gradients -----------------------------------------------------------------------

def numeric_gradients(model, x, y, h=1e-5):
    grads = {}
    for name in ("w1", "b1", "w2", "b2"):
        param = getattr(model, name)
        if name == "b2":
            orig = model.b2
            model.b2 = orig + h
            up = loss_and_gradient(model, x, y)[0]
            model.b2 = orig - h
            dn = loss_and_gradient(model, x, y)[0]
            model.b2 = orig
            grads[name] = np.array((up - dn) / (2 * h))
            continue
        g = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + h
            up = loss_and_gradient(model, x, y)[0]
            param[idx] = orig - h
            dn = loss_and_gradient(model, x, y)[0]
            param[idx] = orig
            g[idx] = (up - dn) / (2 * h)
            it.iternext()
        grads[name] = g
    return grads


@pytest.mark.parametrize("activation", ["sigmoid", "tanh"])
def test_gradients_match_finite_differences(activation):
    for seed in range(10):
        cfg = MlpConfig(
            input_columns=("a", "b", "c"), hidden_neurons=4,
            activation=activation, seed=seed,
        )
        m = init(cfg)
        rng = np.random.default_rng(100 + seed)
        x = rng.uniform(0, 1, size=(12, 3))
        y = rng.uniform(0, 1, size=12)
        _, analytic = loss_and_gradient(m, x, y)
        numeric = numeric_gradients(m, x, y)
        for name in analytic:
            a = np.asarray(analytic[name], dtype=float)
            n = np.asarray(numeric[name], dtype=float)
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
            rel = np.abs(a - n) / denom
            assert rel.max() < 1e-6, (name, seed, rel.max())


def test_gradients_zero_at_perfect_fit():
    cfg = toy_config(hidden_neurons=3)
    m = init(cfg)
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, size=(8, 1))
    y = forward(m, x)  # targets equal outputs
    loss, grads = loss_and_gradient(m, x, y)
    assert loss == pytest.approx(0.0, abs=1e-24)
    for g in grads.values():
        assert np.max(np.abs(g)) < 1e-12


def test_gradient_empty_batch():
    m = init(toy_config())
    with pytest.raises(EmptyBatch):
        loss_and_gradient(m, np.empty((0, 1)), np.empty(0))


def test_single_step_decreases_loss():
    for seed in range(5):
        cfg = MlpConfig(input_columns=("a", "b"), hidden_neurons=5, seed=seed)
        m = init(cfg)
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, size=(30, 2))
        y = rng.uniform(0, 1, size=30)
        loss0, grads = loss_and_gradient(m, x, y)
        lr = 1e-3
        m.w1 -= lr * grads["w1"]
        m.b1 -= lr * grads["b1"]
        m.w2 -= lr * grads["w2"]
        m.b2 -= lr * grads["b2"]
        loss1, _ = loss_and_gradient(m, x, y)
        assert loss1 < loss0


# -- training -------------------------------------------------------------------------

def test_train_learns_linear_function():
    fm = toy_matrix(lambda x: 0.5 * x, n=60)
    cfg = toy_config(hidden_neurons=4, epochs=200)
    model, history = train(cfg, fm)
    assert history.train_mse[-1] < 1e-3


def test_train_history_length_matches_epochs():
    fm = toy_matrix(lambda x: x, n=20)
    _, history = train(toy_config(epochs=1), fm)
    assert len(history) == 1
    _, history = train(toy_config(epochs=7), fm)
    assert len(history) == 7


def test_train_constant_target():
    fm = toy_matrix(lambda x: np.full_like(x, 0.0) + 5.0, n=40)
    cfg = toy_config(hidden_neurons=2, epochs=300)
    model, history = train(cfg, fm)
    assert min(history.val_mse) < 1e-6


def test_train_deterministic():
    dataset = synth.generate(synth.GeneratorConfig(n=300, seed=4))
    labeled = split_dataset(dataset, (0.75, 0.1, 0.15), 3)
    cfg = MlpConfig(hidden_neurons=4, epochs=20, seed=11)
    fm = build_features(labeled, tuple(cfg.input_columns) + ("rul_years",))
    m1, h1 = train(cfg, fm)
    m2, h2 = train(cfg, fm)
    assert np.array_equal(m1.w1, m2.w1)
    assert np.array_equal(m1.b1, m2.b1)
    assert np.array_equal(m1.w2, m2.w2)
    assert m1.b2 == m2.b2
    assert h1 == h2


def test_train_empty_split():
    values = np.column_stack([np.linspace(0, 1, 10), np.linspace(0, 1, 10)])
    fm = FeatureMatrix(values, ("x", "rul_years"), np.full(10, SPLITS.index(Split.TEST)))
    with pytest.raises(EmptySplit):
        train(toy_config(), fm)


def test_model_json_round_trip_and_prediction_consistency():
    dataset = synth.generate(synth.GeneratorConfig(n=400, seed=8))
    labeled = split_dataset(dataset, (0.75, 0.1, 0.15), 5)
    cfg = MlpConfig(hidden_neurons=3, epochs=30, seed=2)
    fm = build_features(labeled, tuple(cfg.input_columns) + ("rul_years",))
    model, _ = train(cfg, fm)
    clone = MlpModel.from_json(model.to_json())
    a = model.predict_dataset(dataset)
    b = clone.predict_dataset(dataset)
    assert a == pytest.approx(b, abs=0)


# -- registry training -----------------------------------------------------------------

NO_WTL = tuple(c for c in MlpConfig().input_columns if c != "wall_thickness_loss_pct")


def mixed_registry():
    """5 and 8 iterations, sigmoid and tanh, restarts, and members without
    wall thickness loss (one listing its inputs in reverse)."""
    return [
        MlpConfig(hidden_neurons=3, epochs=5, seed=1, name="a"),
        MlpConfig(hidden_neurons=6, epochs=5, seed=2, activation="tanh", name="b"),
        MlpConfig(hidden_neurons=4, epochs=5, seed=3, restarts=3, name="c"),
        MlpConfig(hidden_neurons=5, epochs=5, seed=4, input_columns=NO_WTL[::-1], name="d"),
        MlpConfig(hidden_neurons=4, epochs=8, seed=5, name="e"),
        MlpConfig(hidden_neurons=3, epochs=8, seed=6, activation="tanh",
                  input_columns=NO_WTL, name="f"),
        MlpConfig(hidden_neurons=2, epochs=8, seed=7, name="g"),
    ]


@pytest.fixture(scope="module")
def registry_features():
    dataset = synth.generate(synth.GeneratorConfig(n=400, seed=12))
    labeled = split_dataset(dataset, (0.75, 0.1, 0.15), 4)
    return build_features(labeled, MlpConfig().input_columns + ("rul_years",))


def test_lockstep_results_do_not_depend_on_registry_order():
    # the union feature matrix orders its columns by first use, so each run
    # below lays the inputs out differently
    dataset = synth.generate(synth.GeneratorConfig(n=400, seed=12))
    registry = mixed_registry()
    runs = [run_experiment_suite(dataset, [config], split_seed=4) for config in registry]
    runs += [run_experiment_suite(dataset, registry, split_seed=4),
             run_experiment_suite(dataset, registry[::-1], split_seed=4)]
    reference = {row.name: row for result in runs[:len(registry)] for row in result.rows}
    for result in runs[len(registry):]:
        assert sorted(row.name for row in result.rows) == sorted(reference)
        for row in result.rows:
            ref = reference[row.name]
            for name in ("w1", "b1", "w2"):
                assert np.array_equal(getattr(row.model, name), getattr(ref.model, name))
            assert row.model.b2 == ref.model.b2
            assert row.model.feature_constants == ref.model.feature_constants
            assert row.model.target_constants == ref.model.target_constants
            assert row.history == ref.history
            assert np.array_equal(row.predicted, ref.predicted)


def test_lockstep_restarts_keep_the_first_best_member(registry_features):
    config = mixed_registry()[2]
    model, history = train(config, registry_features)
    assert model.config.seed == config.seed + history.restart
    scores = [min(train(replace(config, restarts=1, seed=config.seed + r),
                        registry_features)[1].val_mse)
              for r in range(config.restarts)]
    assert history.restart == scores.index(min(scores))
    assert min(history.val_mse) == min(scores)


@pytest.mark.parametrize("activation", ["sigmoid", "tanh"])
def test_jacobian_matches_central_differences_of_forward(activation):
    step = 1e-6
    for seed in range(5):
        model = init(MlpConfig(input_columns=("a", "b", "c"), hidden_neurons=4,
                               activation=activation, seed=seed))
        rng = np.random.default_rng(200 + seed)
        model.b1[:] = rng.normal(0.0, 0.5, 4)
        model.b2 = float(rng.normal())
        x = rng.uniform(0, 1, size=(15, 3))
        theta, x1 = mlp._pack(model), mlp._with_ones(x)
        hidden, _ = mlp._forward(theta, x1, activation)
        jac_t = mlp._jacobian(theta, x1, hidden, activation, np.empty((theta.size, 15)))
        for j in range(theta.size):
            moved = []
            for sign in (1.0, -1.0):
                shifted = theta.copy()
                shifted[j] += sign * step
                w1, b1, w2, b2 = mlp._unpack(shifted, 3, 4)
                moved.append(forward(replace(model, w1=w1, b1=b1, w2=w2, b2=b2), x))
            numeric = (moved[0] - moved[1]) / (2 * step)
            np.testing.assert_allclose(jac_t[j], numeric, rtol=1e-6, atol=1e-9,
                                       err_msg=f"seed {seed}, column {j}")


def test_train_mse_never_increases(registry_features):
    for config in mixed_registry():
        _, history = train(replace(config, epochs=40), registry_features)
        assert all(b <= a for a, b in zip(history.train_mse, history.train_mse[1:])), config.name


def stop_matrix(n=60):
    """Inputs x and z; the target is a one-unit sigmoid network of x, so a
    network of x alone fits it to rounding, and z is noise."""
    rng = np.random.default_rng(3)
    x, z = rng.uniform(0, 1, size=(2, n))
    y = 0.2 + 0.5 / (1.0 + np.exp(2.0 - 4.0 * x))
    split = np.full(n, SPLITS.index(Split.TRAIN))
    split[::5] = SPLITS.index(Split.VALIDATION)
    return FeatureMatrix(np.column_stack([x, z, y]), ("x", "z", "rul_years"), split)


def test_each_stop_reason():
    registry = [
        MlpConfig(input_columns=("x",), hidden_neurons=2, epochs=3, name="cap"),
        MlpConfig(input_columns=("z",), hidden_neurons=3, epochs=300, name="patience"),
        MlpConfig(input_columns=("x",), hidden_neurons=1, epochs=300, name="damping"),
    ]
    histories = [train(config, stop_matrix())[1] for config in registry]
    assert [h.stop for h in histories] == ["cap", "patience", "damping"]
    cap, patience, damping = histories
    assert len(cap) == 3
    assert len(patience) == patience.best_epoch + mlp.PATIENCE + 1
    # no trial lowered the SSE, so the last iteration left it as it was
    assert len(damping) < 300 and damping.train_mse[-1] == damping.train_mse[-2]
    assert damping.train_mse[-1] < 1e-25


# -- experiment suite ----------------------------------------------------------------

def test_default_registry_shape():
    registry = default_registry(0)
    assert len(registry) == 8
    sizes = [c.hidden_neurons for c in registry]
    assert sizes == [3, 4, 5, 6, 7, 10, 5, 7]
    without = [c for c in registry if "wall_thickness_loss_pct" not in c.input_columns]
    assert len(without) == 2


def test_suite_refuses_an_empty_registry():
    dataset = synth.generate(synth.GeneratorConfig(n=100, seed=1))
    for registry in ([], ()):
        with pytest.raises(InvalidConfig):
            run_experiment_suite(dataset, registry)


def test_suite_without_a_registry_trains_the_default_one(monkeypatch):
    dataset = synth.generate(synth.GeneratorConfig(n=200, seed=1))
    trained = []

    def record(config, features):
        trained.append(config)
        return train(replace(config, epochs=1), features)

    monkeypatch.setattr(mlp, "train", record)
    result = run_experiment_suite(dataset, split_seed=3)
    assert trained == list(default_registry(3))
    assert [row.name for row in result.rows] == [c.name for c in default_registry(3)]


def test_suite_validates_every_config_before_training_any(monkeypatch):
    dataset = synth.generate(synth.GeneratorConfig(n=100, seed=1))
    trained = []
    monkeypatch.setattr(mlp, "train", lambda config, features: trained.append(config))
    registry = [MlpConfig(hidden_neurons=3, epochs=2), MlpConfig(hidden_neurons=0, epochs=2)]
    with pytest.raises(InvalidConfig):
        run_experiment_suite(dataset, registry)
    assert trained == []


def test_suite_single_config():
    dataset = synth.generate(synth.GeneratorConfig(n=400, seed=1))
    cfg = MlpConfig(hidden_neurons=3, epochs=30, seed=0, name="only")
    result = run_experiment_suite(dataset, [cfg], split_seed=2)
    assert len(result.rows) == 1
    assert result.best.name == "only"
    table = result.table()
    assert len(table) == 3  # one row per phase
    assert {row[1] for row in table} == {"train", "validation", "test"}


def test_suite_carries_the_split_and_the_best_predictions():
    dataset = synth.generate(synth.GeneratorConfig(n=400, seed=1))
    registry = [MlpConfig(hidden_neurons=3, epochs=5, seed=0, name="x"),
                MlpConfig(hidden_neurons=4, epochs=5, seed=1, input_columns=NO_WTL, name="y")]
    result = run_experiment_suite(dataset, registry, split_seed=2)
    labeled = split_dataset(dataset, (0.75, 0.10, 0.15), 2)
    assert np.array_equal(result.labeled.split, labeled.split)
    for row in result.rows:
        # bit for bit what re-predicting over every row gives
        assert np.array_equal(row.predicted, row.model.predict_dataset(labeled))
        assert len(row.history) == row.config.epochs


def test_suite_wtl_exclusion_hurts():
    dataset = synth.generate(synth.GeneratorConfig(n=1500, seed=0))
    with_wtl = MlpConfig(hidden_neurons=5, epochs=150, seed=4, name="with")
    without = MlpConfig(
        hidden_neurons=5, epochs=150, seed=4, name="without",
        input_columns=tuple(
            c for c in with_wtl.input_columns if c != "wall_thickness_loss_pct"
        ),
    )
    result = run_experiment_suite(dataset, [with_wtl, without], split_seed=6)
    by_name = {row.name: row for row in result.rows}
    assert (
        by_name["without"].phase(Split.TEST).mae
        >= by_name["with"].phase(Split.TEST).mae
    )


# -- scatter fit -----------------------------------------------------------------------

def test_scatter_fit_identity():
    actual = np.linspace(0, 10, 20)
    slope, intercept, r2 = scatter_fit(actual, actual)
    assert slope == pytest.approx(1.0, abs=1e-9)
    assert intercept == pytest.approx(0.0, abs=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-9)


def test_scatter_fit_planted_line():
    actual = np.linspace(5, 50, 30)
    predicted = 0.9 * actual + 4.0
    slope, intercept, r2 = scatter_fit(predicted, actual)
    assert slope == pytest.approx(0.9, abs=1e-9)
    assert intercept == pytest.approx(4.0, abs=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-9)


def test_scatter_fit_constant_actuals():
    with pytest.raises(ConstantSeries):
        scatter_fit([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])


def test_train_restarts_picks_best_validation():
    fm = toy_matrix(lambda x: 0.3 + 0.4 * x, n=50, seed=2)
    single = toy_config(hidden_neurons=3, epochs=20, seed=5)
    multi = toy_config(hidden_neurons=3, epochs=20, seed=5, restarts=4)
    _, h_single = train(single, fm)
    _, h_multi = train(multi, fm)
    assert min(h_multi.val_mse) <= min(h_single.val_mse)
    with pytest.raises(InvalidConfig):
        init(toy_config(restarts=0))


def test_untrained_model_predicts_from_its_inputs():
    # fresh from init there are no feature constants: inputs pass unscaled
    model = init(MlpConfig(input_columns=("a", "b", "c"), hidden_neurons=4, seed=2))
    model.target_constants = (0.0, 1.0)
    x = np.array([[0.5, 3.0, -2.0], [0.5, 3.0, -2.0], [0.1, 0.2, 0.3]])
    assert np.array_equal(model.predict_batch(x), np.clip(forward(model, x), 0.0, 1.0))


def test_feature_constants_must_cover_every_input():
    model = init(MlpConfig(input_columns=("a", "b"), hidden_neurons=3, seed=0))
    model.feature_constants = ((0.0, 1.0),)
    model.target_constants = (0.0, 1.0)
    with pytest.raises(DimensionMismatch):
        model.predict_batch(np.zeros((2, 2)))
