import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipelife import anfis, mlp
from pipelife.data import SPLITS, FeatureMatrix, Split
from pipelife.errors import (
    AllMapeTermsSkipped,
    ConstantActuals,
    LengthMismatch,
    NegativeMape,
)
from pipelife.metrics import TrainingHistory, classify_accuracy, evaluate, stalled

from oracles import patience_stop


def brute_force(predicted, actual):
    """Independent per-term re-summation of every metric definition."""
    n = len(actual)
    abs_err = [abs(p - a) for p, a in zip(predicted, actual)]
    sq_err = [(p - a) ** 2 for p, a in zip(predicted, actual)]
    mean_a = sum(actual) / n
    abs_dev = [abs(a - mean_a) for a in actual]
    sq_dev = [(a - mean_a) ** 2 for a in actual]
    mape_terms = [abs(p - a) / abs(a) for p, a in zip(predicted, actual) if a != 0]
    return {
        "mae": sum(abs_err) / n,
        "rmse": math.sqrt(sum(sq_err) / n),
        "mape": 100.0 * sum(mape_terms) / len(mape_terms),
        "rae": sum(abs_err) / sum(abs_dev),
        "rrse": math.sqrt(sum(sq_err) / sum(sq_dev)),
        "r2": 1.0 - sum(sq_err) / sum(sq_dev),
    }


def test_perfect_prediction():
    r = evaluate([10.0, 20.0, 30.0], [10.0, 20.0, 30.0])
    assert r.mae == 0 and r.rmse == 0 and r.mape == 0
    assert r.rae == 0 and r.rrse == 0
    assert r.r2 == 1.0


def test_mean_predictor_baseline():
    actual = [3.0, 7.0, 11.0, 19.0]
    predicted = [10.0] * 4
    r = evaluate(predicted, actual)
    assert r.rae == pytest.approx(1.0, abs=1e-12)
    assert r.rrse == pytest.approx(1.0, abs=1e-12)
    assert r.r2 == pytest.approx(0.0, abs=1e-12)


def test_mape_hand_term():
    # |110-100|/100 contributes exactly 10% for that term
    r = evaluate([110.0, 50.0, 50.0], [100.0, 50.0, 50.0])
    assert r.mape == pytest.approx(10.0 / 3.0, abs=1e-12)


def test_matches_brute_force_on_random_vectors():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(2, 101))
        actual = rng.uniform(-50, 50, size=n)
        while np.allclose(actual, actual[0]):
            actual = rng.uniform(-50, 50, size=n)
        predicted = actual + rng.normal(0, 5, size=n)
        r = evaluate(predicted, actual)
        oracle = brute_force(list(predicted), list(actual))
        for key, value in oracle.items():
            assert getattr(r, key) == pytest.approx(value, abs=1e-12), key


def test_r2_is_one_minus_rrse_squared():
    rng = np.random.default_rng(9)
    for _ in range(20):
        actual = rng.uniform(0, 10, size=15)
        predicted = actual + rng.normal(0, 2, size=15)
        r = evaluate(predicted, actual)
        assert r.r2 == pytest.approx(1.0 - r.rrse**2, abs=1e-12)


def test_shift_invariance_of_relative_measures():
    rng = np.random.default_rng(11)
    actual = rng.uniform(1, 9, size=30)
    predicted = actual + rng.normal(0, 1, size=30)
    base = evaluate(predicted, actual)
    shifted = evaluate(predicted + 100.0, actual + 100.0)
    assert shifted.rae == pytest.approx(base.rae, abs=1e-9)
    assert shifted.rrse == pytest.approx(base.rrse, abs=1e-9)


def test_mae_scales_linearly():
    rng = np.random.default_rng(13)
    actual = rng.uniform(1, 9, size=25)
    predicted = actual + rng.normal(0, 1, size=25)
    base = evaluate(predicted, actual)
    for c in (-3.0, 0.5, 7.0):
        scaled = evaluate(c * predicted, c * actual)
        assert scaled.mae == pytest.approx(abs(c) * base.mae, abs=1e-9)


def test_mae_le_rmse():
    rng = np.random.default_rng(21)
    for _ in range(20):
        actual = rng.uniform(-5, 5, size=12)
        predicted = actual + rng.normal(0, 3, size=12)
        r = evaluate(predicted, actual)
        assert r.mae <= r.rmse + 1e-12


def test_mape_skips_zero_actuals():
    r = evaluate([1.0, 11.0, 22.0], [0.0, 10.0, 20.0])
    assert r.mape_skipped == 1
    assert r.mape == pytest.approx(10.0, abs=1e-12)


def test_mape_all_zero_actuals():
    with pytest.raises(AllMapeTermsSkipped):
        evaluate([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])


def test_constant_actuals_rejected():
    with pytest.raises(ConstantActuals):
        evaluate([1.0, 2.0], [5.0, 5.0])


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        evaluate([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(LengthMismatch):
        evaluate([1.0], [1.0])


def test_classify_accuracy():
    assert classify_accuracy(5.431) == "high-accuracy"
    assert classify_accuracy(9.999) == "high-accuracy"
    assert classify_accuracy(10.0) == "not high-accuracy"
    assert classify_accuracy(42.0) == "not high-accuracy"
    with pytest.raises(NegativeMape):
        classify_accuracy(-1.0)


def test_report_serializes():
    r = evaluate([1.0, 2.0, 4.0], [1.0, 2.5, 3.5])
    payload = dataclasses.asdict(r)
    assert set(payload) == {"mae", "rrse", "mape", "rae", "r2", "rmse", "n", "mape_skipped"}
    assert payload["n"] == 3


# -- early stopping ---------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(
    # a few small whole numbers make ties between scores common
    scores=st.lists(st.one_of(st.integers(0, 4).map(float), st.floats(0.0, 10.0)),
                    min_size=1, max_size=40),
    patience=st.integers(1, 12),
)
def test_the_stop_rule_at_tolerance_zero_fires_where_the_mlp_rule_did(scores, patience):
    stop, bests = patience_stop(scores, patience)
    history = TrainingHistory()
    for epoch, score in enumerate(scores[:len(bests)]):
        assert history.record(score + 1.0, score) == (bests[epoch] == epoch)
        assert history.best_epoch == bests[epoch]
        assert stalled(history.val, patience, 0.0) == (epoch == stop), epoch


def no_validation_matrix(split):
    """Inputs a, b and c on 60 rows, none of them labelled validation.  The
    target is a one-unit sigmoid network of a, which the MLP fits until no
    step lowers its error; to ANFIS on b and c it is noise."""
    a, b, c = np.random.default_rng(8).uniform(0, 1, size=(3, 60))
    y = 0.2 + 0.5 / (1.0 + np.exp(2.0 - 4.0 * a))
    return FeatureMatrix(np.column_stack([a, b, c, y]), ("a", "b", "c", "rul_years"), split)


def train_mlp(fm, epochs=300):
    model, history = mlp.train(
        mlp.MlpConfig(input_columns=("a",), hidden_neurons=1, epochs=epochs, seed=1), fm)
    return (model.w1, model.b1, model.w2, model.b2), history


def train_anfis(fm, epochs=30):
    model, history = anfis.hybrid_train(anfis.init_grid(("b", "c"), 3, fm), fm, epochs=epochs,
                                        learning_rate=5.0)
    return (model.centers, model.sigmas, model.consequents), history


@pytest.mark.parametrize("trainer", [train_mlp, train_anfis])
@pytest.mark.parametrize("split", [None, "train and test"])
def test_without_validation_rows_the_train_rows_validate(trainer, split):
    if split is not None:
        split = np.full(60, SPLITS.index(Split.TRAIN), dtype=np.int8)
        split[::4] = SPLITS.index(Split.TEST)
    fm = no_validation_matrix(split)
    params, history = trainer(fm)
    assert history.val == history.train
    # the best epoch is not the last, and the run capped there ends on the
    # snapshot that the whole run returned
    assert history.best_epoch < len(history) - 1
    snapshot, capped = trainer(fm, history.best_epoch + 1)
    assert capped.best_epoch == history.best_epoch
    for got, want in zip(params, snapshot):
        assert np.array_equal(got, want)
