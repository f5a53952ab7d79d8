import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pipelife import anfis, synth
from pipelife.anfis import (
    AnfisModel,
    contour_grid,
    hybrid_train,
    init_grid,
    lse_consequents,
    sensitivity_ranking,
    _forward,
    _premise_gradients,
    _premise_step,
    _rmse,
)
from pipelife.data import SPLITS, FeatureMatrix, Split, build_features, split_dataset
from pipelife.errors import (
    AllRulesZero,
    DimensionMismatch,
    InvalidConfig,
    RuleExplosion,
    TooFewMfs,
    UntrainedModel,
)
from pipelife.mlp import MlpConfig, init as mlp_init, train as mlp_train

from oracles import NOT_THE_GRID, consequent_design, infer, ridge_lstsq, two_pass_gradients


def matrix_from_columns(named_columns, split=None):
    names = tuple(named_columns)
    values = np.column_stack([np.asarray(v, dtype=float) for v in named_columns.values()])
    return FeatureMatrix(values, names, split)


def toy_sine_matrix(n=50, with_split=False):
    x = np.linspace(0, 1, n)
    y = 0.5 + 0.4 * np.sin(2 * np.pi * x)
    split = None
    if with_split:
        split = np.full(n, SPLITS.index(Split.TRAIN))
        split[::5] = SPLITS.index(Split.VALIDATION)
    return matrix_from_columns({"x": x, "rul_years": y}, split)


def single_rule_model(center=0.4, sigma=0.2, coeffs=(2.0, 0.5)):
    """One input, one membership function, one rule (built directly)."""
    return AnfisModel(
        input_columns=("x",),
        centers=np.array([[center]]),
        sigmas=np.array([[sigma]]),
        consequents=np.array([list(coeffs)]),
    )


# -- grid construction -----------------------------------------------------------

def test_init_grid_rule_counts():
    fm = matrix_from_columns({"a": [0.0, 1.0], "b": [0.0, 1.0], "rul_years": [0.0, 1.0]})
    model = init_grid(("a", "b"), 2, fm)
    assert model.n_rules == 4
    assert model.rules.shape == (4, 2)
    assert sorted(map(tuple, model.rules)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_init_grid_rule_cap():
    cols = {name: np.linspace(0, 1, 10) for name in "abcdefg"}
    cols["rul_years"] = np.linspace(0, 1, 10)
    fm = matrix_from_columns(cols)
    model = init_grid(("a", "b", "c", "d", "e"), 3, fm)  # 243 <= 256
    assert model.n_rules == 243
    with pytest.raises(RuleExplosion):
        init_grid(tuple("abcdefg"), 3, fm)  # 2187 > 256


def test_init_grid_too_few_mfs():
    fm = toy_sine_matrix()
    with pytest.raises(TooFewMfs):
        init_grid(("x",), 1, fm)


def test_init_grid_repeated_input_is_invalid():
    fm = toy_sine_matrix()
    assert init_grid(("x",), 2, fm).input_columns == ("x",)  # one input is a model
    with pytest.raises(InvalidConfig):
        init_grid(("x", "x"), 2, fm)


def test_init_grid_centers_and_sigmas():
    fm = toy_sine_matrix()
    model = init_grid(("x",), 3, fm)
    assert model.centers[0] == pytest.approx([0.0, 0.5, 1.0])
    assert model.sigmas[0] == pytest.approx([0.5 / np.sqrt(2)] * 3)
    assert np.all(model.consequents == 0.0)


def test_gaussian_membership_properties():
    fm = toy_sine_matrix()
    model = init_grid(("x",), 3, fm)
    c = model.centers[0][1]
    at_center = anfis._gaussian(np.array([[c]])[..., None], model.centers, model.sigmas)[0, 0, 1]
    assert at_center == pytest.approx(1.0, abs=0)
    offsets = np.array([0.05, 0.1, 0.2, 0.4])
    left = anfis._gaussian((c - offsets)[:, None, None], model.centers, model.sigmas)[:, 0, 1]
    right = anfis._gaussian((c + offsets)[:, None, None], model.centers, model.sigmas)[:, 0, 1]
    assert left == pytest.approx(right, abs=1e-12)     # symmetry
    assert np.all(np.diff(left) < 0)                   # decreasing in |x - c|
    assert np.all((left > 0) & (left <= 1))


def test_far_out_input_has_membership_zero_without_a_warning():
    model = single_rule_model(center=0.5, sigma=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu = anfis._gaussian(np.array([[1e200], [-1e200], [0.5]])[..., None], model.centers,
                             model.sigmas)
    assert mu[:, 0, 0].tolist() == [0.0, 0.0, 1.0]


# -- inference ---------------------------------------------------------------------

def test_infer_single_rule_normalization():
    model = single_rule_model(center=0.4, coeffs=(2.0, 0.5))
    y, trace = infer(model, [0.4])
    assert trace.normalized == pytest.approx([1.0])
    assert y == pytest.approx(2.0 * 0.4 + 0.5)


def test_infer_symmetric_rules_share_weight():
    model = AnfisModel(
        input_columns=("x",),
        centers=np.array([[0.3, 0.7]]),
        sigmas=np.array([[0.2, 0.2]]),
        consequents=np.array([[1.0, 0.0], [3.0, 0.0]]),
    )
    y, trace = infer(model, [0.5])  # equidistant from both centers
    assert trace.normalized == pytest.approx([0.5, 0.5], abs=1e-12)
    assert y == pytest.approx(0.5 * (1.0 * 0.5) + 0.5 * (3.0 * 0.5), abs=1e-12)


def test_infer_matches_manual_five_layer_evaluation():
    rng = np.random.default_rng(3)
    fm = matrix_from_columns(
        {"a": rng.uniform(0, 1, 30), "b": rng.uniform(0, 1, 30),
         "rul_years": rng.uniform(0, 1, 30)}
    )
    model = init_grid(("a", "b"), 3, fm)
    model.consequents = rng.normal(0, 1, model.consequents.shape)
    model.centers += rng.normal(0, 0.05, model.centers.shape)
    x = np.array([0.37, 0.81])
    y, trace = infer(model, x)
    # independent re-evaluation of all five layers
    mu = np.exp(-((x[:, None] - model.centers) ** 2) / (2 * model.sigmas**2))
    w = np.array([mu[0, r0] * mu[1, r1] for r0, r1 in model.rules])
    wbar = w / w.sum()
    f = np.array([c[0] * x[0] + c[1] * x[1] + c[2] for c in model.consequents])
    expected = float((wbar * f).sum())
    assert trace.memberships == pytest.approx(mu, abs=1e-12)
    assert trace.firing == pytest.approx(w, abs=1e-12)
    assert trace.normalized == pytest.approx(wbar, abs=1e-12)
    assert trace.rule_outputs == pytest.approx(f, abs=1e-12)
    assert y == pytest.approx(expected, abs=1e-12)


def test_infer_dimension_mismatch():
    model = single_rule_model()
    with pytest.raises(DimensionMismatch):
        infer(model, [0.1, 0.2])


def test_infer_all_rules_zero():
    model = single_rule_model(center=0.0, sigma=1e-4)
    with pytest.raises(AllRulesZero):
        infer(model, [1e6])


def test_normalized_firing_sums_to_one_randomized():
    rng = np.random.default_rng(0)
    checked = 0
    for trial in range(50):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(2, 4))
        cols = {f"f{i}": rng.uniform(0, 1, 20) for i in range(d)}
        cols["rul_years"] = rng.uniform(0, 1, 20)
        fm = matrix_from_columns(cols)
        model = init_grid(tuple(f"f{i}" for i in range(d)), m, fm)
        model.centers += rng.normal(0, 0.1, model.centers.shape)
        model.sigmas *= rng.uniform(0.5, 1.5, model.sigmas.shape)
        xs = rng.uniform(0, 1, (20, d))
        _, wbar = _forward(model, xs)
        assert np.abs(wbar.sum(axis=1) - 1.0).max() < 1e-9
        checked += 20
    assert checked == 1000


# the row counts B - 1, B, B + 1 and 2B + 1 at each block constant B, named
# by the offset from B: no prefix for LSE_BLOCK_ROWS, "qr" for QR_BLOCK_ROWS
BLOCK_EDGES = [
    pytest.param(b + offset, id=prefix + label)
    for prefix, b in (("", anfis.LSE_BLOCK_ROWS), ("qr", anfis.QR_BLOCK_ROWS))
    for offset, label in ((-1, "-1"), (0, "0"), (1, "1"), (b + 1, "2B+1"))
]
EDGE_ROWS = [edge.values[0] for edge in BLOCK_EDGES]


def test_forward_firing_equals_the_gathered_product():
    for n in [60] + EDGE_ROWS:
        rng = np.random.default_rng(13)
        x = rng.uniform(0, 1, (n, 3))
        fm = matrix_from_columns(
            {"a": x[:, 0], "b": x[:, 1], "c": x[:, 2], "rul_years": np.zeros(n)}
        )
        model = init_grid(("a", "b", "c"), 3, fm)
        model.centers += rng.normal(0, 0.05, model.centers.shape)
        model.sigmas *= rng.uniform(0.5, 1.5, model.sigmas.shape)
        mu = anfis._gaussian(x[..., None], model.centers, model.sigmas)
        gathered = mu[:, np.arange(3)[:, None], model.rules.T].prod(axis=1)
        w = anfis._grid_product(anfis._memberships(model, x)).T
        assert np.array_equal(w, gathered)


def test_forward_normalizes_by_the_rule_by_rule_total():
    # the total adds the rules one at a time, in rule order, so trained
    # models and their outputs keep their bytes across releases
    for n in [200] + EDGE_ROWS:
        rng = np.random.default_rng(14)
        x = rng.uniform(0, 1, (n, 3))
        fm = matrix_from_columns(
            {"a": x[:, 0], "b": x[:, 1], "c": x[:, 2], "rul_years": np.zeros(n)}
        )
        model = init_grid(("a", "b", "c"), 3, fm)
        model.sigmas *= rng.uniform(0.5, 1.5, model.sigmas.shape)
        w = anfis._grid_product(anfis._memberships(model, x)).T
        _, wbar = _forward(model, x)
        total = np.zeros(len(x))
        for r in range(model.n_rules):
            total += w[:, r]
        assert np.array_equal(wbar, w / total[:, None])


@pytest.mark.parametrize("d, m", [(1, 3), (3, 3), (4, 4), (5, 2)])
def test_rules_are_the_grid_last_input_fastest(d, m):
    names = tuple(f"f{i}" for i in range(d))
    fm = matrix_from_columns({**{name: [0.0, 1.0] for name in names}, "rul_years": [0.0, 1.0]})
    model = init_grid(names, m, fm)
    assert model.n_rules == m**d
    assert model.rules.tolist() == [list(r) for r in itertools.product(range(m), repeat=d)]


# the benchmark's two ANFIS set-ups: inputs, MFs per input and train rows
WORKLOAD_SHAPES = {"models_5k": (4, 4, 3750), "inventory_20k": (5, 2, 15000)}


@pytest.mark.parametrize("rows", ["block-1", "block", "block+1", "workload"])
@pytest.mark.parametrize("shape", sorted(WORKLOAD_SHAPES))
def test_output_pass_equals_the_two_pass_oracle_bit_for_bit(shape, rows):
    # one pass forms each block's rule outputs once for layer 5 and the
    # premise gradient; a pass for each gave these same bits
    d, m, n_train = WORKLOAD_SHAPES[shape]
    block = anfis.LSE_BLOCK_ROWS
    n = {"block-1": block - 1, "block": block, "block+1": block + 1, "workload": n_train}[rows]
    rng = np.random.default_rng(n * 10 + d)
    model = AnfisModel(
        input_columns=tuple(f"f{i}" for i in range(d)),
        centers=np.linspace(0.0, 1.0, m) + rng.normal(0, 0.05, (d, m)),
        sigmas=rng.uniform(0.2, 0.6, (d, m)),
        consequents=rng.normal(0, 1, (m**d, d + 1)),
    )
    x, t = rng.uniform(0, 1, (n, d)), rng.uniform(0, 1, n)
    y_oracle, grads_oracle = two_pass_gradients(model, x, t)
    wbar = anfis._firing(model, x)
    y, grads = anfis._output_pass(model, x, wbar, t)
    assert np.array_equal(y, y_oracle)
    assert all(np.array_equal(g, g_oracle) for g, g_oracle in zip(grads, grads_oracle))
    assert all(np.array_equal(g, g_oracle)
               for g, g_oracle in zip(_premise_gradients(model, x, t), grads_oracle))
    assert np.array_equal(anfis._output_pass(model, x, wbar)[0], y_oracle)
    assert np.array_equal(_forward(model, x)[0], y_oracle)


# -- least squares -----------------------------------------------------------------

def test_lse_recovers_planted_consequents():
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, (200, 2))
    fm = matrix_from_columns(
        {"a": x[:, 0], "b": x[:, 1], "rul_years": np.zeros(200)}
    )
    model = init_grid(("a", "b"), 2, fm)
    planted = rng.normal(0, 1, model.consequents.shape)
    model.consequents = planted
    y, _ = _forward(model, x)
    model.consequents = np.zeros_like(planted)
    lse_consequents(model, x, y)
    # the ridge shrinks the planted consequents by (Phi^T Phi + RIDGE n I)^-1
    # RIDGE n planted, up to 0.02 here; the oracle holds that shrinkage
    oracle = ridge_lstsq(consequent_design(model, x), y)
    assert model.consequents.ravel() == pytest.approx(oracle, abs=1e-8)


def test_lse_residual_orthogonality():
    rng = np.random.default_rng(8)
    for trial in range(5):
        x = rng.uniform(0, 1, (60, 2))
        y = rng.normal(0, 1, 60)
        fm = matrix_from_columns(
            {"a": x[:, 0], "b": x[:, 1], "rul_years": y}
        )
        model = init_grid(("a", "b"), 2, fm)
        lse_consequents(model, x, y)
        # the residual of the design stacked over sqrt(RIDGE n) I is orthogonal
        # to it: Phi^T r + RIDGE n theta = 0, the ridge's normal equations
        phi = consequent_design(model, x)
        theta = model.consequents.ravel()
        resid = phi @ theta - y
        assert np.abs(phi.T @ resid + anfis.RIDGE * len(y) * theta).max() < 1e-8


def test_lse_zero_targets_give_zero_consequents():
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 1, (50, 1))
    fm = matrix_from_columns({"a": x[:, 0], "rul_years": np.zeros(50)})
    model = init_grid(("a",), 3, fm)
    lse_consequents(model, x, np.zeros(50))
    assert np.abs(model.consequents).max() < 1e-10


def test_lse_never_increases_training_mse():
    rng = np.random.default_rng(10)
    fm = toy_sine_matrix(60, with_split=True)
    model = init_grid(("x",), 4, fm)
    _, history = hybrid_train(model, fm, epochs=15, learning_rate=0.05)
    # the training solve is a ridge: it minimizes MSE + RIDGE |theta|^2, not MSE
    x, t, _, _ = fm.split_arrays(model.input_columns)
    replay = model.copy()
    for rmse in history.train_rmse:
        pre = _rmse(replay, x, t) ** 2
        penalty_pre = anfis.RIDGE * np.sum(replay.consequents ** 2)
        lse_consequents(replay, x, t)
        penalty_post = anfis.RIDGE * np.sum(replay.consequents ** 2)
        assert rmse ** 2 + penalty_post <= pre + penalty_pre + 1e-12
        _premise_step(replay, _premise_gradients(replay, x, t), 0.05)


def collinear_or_full_rank(collinear, n=80, seed=12):
    """Two-input problem; b = 1 - a makes [x, 1] rank deficient."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0, 1, n)
    b = 1.0 - a if collinear else rng.uniform(0, 1, n)
    y = 0.3 + 0.5 * a * a + 0.1 * np.sin(3 * b) + rng.normal(0, 0.01, n)
    return matrix_from_columns({"a": a, "b": b, "rul_years": y})


@pytest.mark.parametrize("collinear", [True, False])
def test_lse_matches_lstsq_on_the_full_design(collinear):
    fm = collinear_or_full_rank(collinear)
    norm = fm.normalized()
    x, y = norm[:, :2], norm[:, 2]
    model = init_grid(("a", "b"), 3, fm)
    lse_consequents(model, x, y)
    phi = consequent_design(model, x)
    theta = ridge_lstsq(phi, y)
    assert model.consequents.ravel() == pytest.approx(theta, abs=1e-8)
    assert phi @ model.consequents.ravel() == pytest.approx(phi @ theta, abs=1e-10)
    # the rank is the r k directions kept.  b = 1 - a leaves k = 2, and an
    # a-Gaussian times a b-Gaussian of equal width is one Gaussian in a,
    # centered at one of 5 points, so the 9 rules give r = 5
    rank = np.linalg.matrix_rank(phi)
    assert model.lse_rank == rank == (5 * 2 if collinear else 9 * 3)
    assert model.lse_degenerate == (rank < phi.shape[1]) == collinear


def equal_width_collinear(n=120, seed=14):
    """b = 1 - a at 4 MFs of equal width: an a-Gaussian times a b-Gaussian is
    one Gaussian in a, so the 16 rules fire along only 7 distinct directions.

    The targets are the outputs of random planted consequents.  With noisy
    targets this design (kept condition number ~2e6) moves lstsq's own
    minimum-norm consequents by ~1e-7 under a mere row permutation.
    """
    fm = collinear_or_full_rank(True, n=n, seed=seed)
    x = fm.normalized()[:, :2]
    model = init_grid(("a", "b"), 4, fm)
    assert np.array_equal(model.sigmas[0], model.sigmas[1])
    model.consequents = np.random.default_rng(seed).normal(0, 1, model.consequents.shape)
    y, _ = _forward(model, x)
    model.consequents = np.zeros_like(model.consequents)
    return model, x, y


def test_lse_on_a_rank_deficient_firing_matrix_matches_the_full_design():
    model, x, y = equal_width_collinear()
    _, wbar = _forward(model, x)
    assert np.linalg.matrix_rank(wbar) == 7
    lse_consequents(model, x, y)
    phi = consequent_design(model, x)
    theta = ridge_lstsq(phi, y)
    assert phi @ model.consequents.ravel() == pytest.approx(phi @ theta, abs=1e-9)
    assert model.consequents.ravel() == pytest.approx(theta, abs=1e-8)
    assert model.lse_rank == np.linalg.matrix_rank(phi) == 7 * 2
    assert model.lse_degenerate


def test_lse_matches_the_full_design_where_the_firing_spectrum_has_no_gap():
    # the models_5k set-up at epoch 1 on 1000 rows: one premise step splits
    # the columns that the collinear age and install year repeat in Wbar, so
    # its singular values run past the rank cutoff without a gap
    inputs = anfis.DEFAULT_INPUTS + ("diameter_in",)
    dataset = synth.generate(synth.GeneratorConfig(n=1000, seed=11))
    fm = build_features(split_dataset(dataset, (0.75, 0.1, 0.15), 11), inputs + ("rul_years",))
    x, y, _, _ = fm.split_arrays(inputs)
    model = init_grid(inputs, 4, fm)
    lse_consequents(model, x, y)
    _premise_step(model, _premise_gradients(model, x, y), 0.02)
    _, wbar = _forward(model, x)
    s = np.linalg.svd(wbar, compute_uv=False)
    r = np.linalg.matrix_rank(wbar)
    assert r < model.n_rules and s[r - 1] < 10 * s[r]
    lse_consequents(model, x, y)
    assert model.lse_rank == r * 4    # [x, 1] keeps 4 of its 5 directions
    phi = consequent_design(model, x)
    theta = ridge_lstsq(phi, y)
    assert model.consequents.ravel() == pytest.approx(theta, abs=1e-8)
    assert phi @ model.consequents.ravel() == pytest.approx(phi @ theta, abs=1e-10)


@pytest.mark.parametrize("collinear", [True, False])
@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_lse_blocks_match_the_full_design_at_the_block_edges(n, collinear):
    # one partial block, one whole block, a whole block plus one row, and two
    # whole blocks plus one row, for the design's blocks and for the QR's
    fm = collinear_or_full_rank(collinear, n=n)
    norm = fm.normalized()
    x, y = norm[:, :2], norm[:, 2]
    model = init_grid(("a", "b"), 3, fm)
    lse_consequents(model, x, y)
    phi = consequent_design(model, x)
    theta = ridge_lstsq(phi, y)
    assert model.consequents.ravel() == pytest.approx(theta, abs=1e-8)
    assert phi @ model.consequents.ravel() == pytest.approx(phi @ theta, abs=1e-10)
    # the directions kept by the two spans, whatever the blocks
    _, wbar = _forward(model, x)
    spans = len(anfis._row_span(wbar)) * len(anfis._row_span(np.hstack([x, np.ones((n, 1))])))
    assert model.lse_rank == spans == np.linalg.matrix_rank(phi)


@pytest.mark.parametrize("which, n", [
    pytest.param(which, n, id=which if n is None else f"{which}-{edge_id}")
    for which in ("collinear_firing", "random_full_rank")
    for n, edge_id in [(None, "")] + [(edge.values[0], edge.id) for edge in BLOCK_EDGES]
])
def test_qr_first_span_keeps_the_thin_svd_directions(which, n, monkeypatch):
    if which == "collinear_firing":
        model, x, _ = equal_width_collinear() if n is None else equal_width_collinear(n=n)
        _, a = _forward(model, x)
    else:
        a = np.random.default_rng(21).normal(0, 1, (n or 300, 20))
    s_svd = np.linalg.svd(a, compute_uv=False)
    seen = []
    svd = np.linalg.svd

    def recording_svd(*args, **kwargs):
        result = svd(*args, **kwargs)
        seen.append(result[1])
        return result

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    vt = anfis._row_span(a)
    monkeypatch.undo()
    g = a @ vt.T
    (s,) = seen
    r = len(vt)
    assert r == np.linalg.matrix_rank(a) == (7 if which == "collinear_firing" else 20)
    assert s[:r] == pytest.approx(s_svd[:r], rel=1e-12, abs=0)
    assert np.abs(s - s_svd).max() <= 1e-12 * s_svd[0]
    gram = g.T @ g
    assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-12 * s[0] ** 2
    assert np.sqrt(np.diag(gram)) == pytest.approx(s[:r], rel=1e-12, abs=0)
    assert np.linalg.norm(g @ vt - a) <= 1e-12 * np.linalg.norm(a)


@pytest.mark.parametrize("collinear", [True, False])
def test_hybrid_logged_mse_matches_recomputed(collinear):
    fm = collinear_or_full_rank(collinear)
    norm = fm.normalized()
    x, t = norm[:, :2], norm[:, 2]
    model = init_grid(("a", "b"), 2, fm)
    _, history = hybrid_train(model, fm, epochs=3, learning_rate=0.02)
    replay = model.copy()
    for epoch in range(3):
        lse_consequents(replay, x, t)
        assert history.train_rmse[epoch] == _rmse(replay, x, t)
        _premise_step(replay, _premise_gradients(replay, x, t), 0.02)


# -- hybrid training ------------------------------------------------------------------

def test_hybrid_learns_smooth_function():
    fm = toy_sine_matrix(50, with_split=True)
    model = init_grid(("x",), 4, fm)
    trained, history = hybrid_train(model, fm, epochs=100, learning_rate=0.05)
    assert min(history.train_rmse) < 0.05
    assert trained.trained


def test_hybrid_one_epoch_is_single_lse_pass():
    fm = toy_sine_matrix(40, with_split=True)
    model = init_grid(("x",), 3, fm)
    trained, history = hybrid_train(model, fm, epochs=1, learning_rate=0.05)
    assert len(history) == 1
    assert np.array_equal(trained.centers, model.centers)
    assert np.array_equal(trained.sigmas, model.sigmas)
    # consequents equal one direct least-squares solve
    reference = model.copy()
    norm = fm.normalized()
    train_rows = fm.rows_for(Split.TRAIN)
    lse_consequents(reference, norm[train_rows][:, [0]], norm[train_rows][:, 1])
    assert trained.consequents == pytest.approx(reference.consequents, abs=1e-12)


def test_hybrid_negative_epochs_is_invalid():
    fm = toy_sine_matrix(40, with_split=True)
    for epochs in (-1, 0):
        with pytest.raises(InvalidConfig):
            hybrid_train(init_grid(("x",), 3, fm), fm, epochs=epochs)


def test_hybrid_lse_only_rmse_monotone():
    fm = toy_sine_matrix(45, with_split=True)
    model = init_grid(("x",), 4, fm)
    _, history = hybrid_train(model, fm, epochs=10, learning_rate=0.0)
    diffs = np.diff(history.train_rmse)
    assert np.all(diffs <= 1e-10)


def test_premise_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    fm = toy_sine_matrix(30)
    worst = 0.0
    for seed in range(5):
        model = init_grid(("x",), 3, fm)
        r = np.random.default_rng(seed)
        model.consequents = r.normal(0, 0.5, model.consequents.shape)
        model.centers += r.normal(0, 0.05, model.centers.shape)
        norm = fm.normalized()
        xs, ts = norm[:, [0]], norm[:, 1]
        grad_c, grad_s = _premise_gradients(model, xs, ts)

        def mse(m):
            out, _ = _forward(m, xs)
            return float(np.mean((out - ts) ** 2))

        h = 1e-6
        for i in range(model.centers.shape[0]):
            for j in range(model.centers.shape[1]):
                for arr, g in ((model.centers, grad_c), (model.sigmas, grad_s)):
                    orig = arr[i, j]
                    arr[i, j] = orig + h
                    up = mse(model)
                    arr[i, j] = orig - h
                    dn = mse(model)
                    arr[i, j] = orig
                    fd = (up - dn) / (2 * h)
                    rel = abs(fd - g[i, j]) / max(abs(fd), abs(g[i, j]), 1e-10)
                    worst = max(worst, rel)
    assert worst < 1e-5


def test_hybrid_training_deterministic():
    fm = toy_sine_matrix(40, with_split=True)
    a, ha = hybrid_train(init_grid(("x",), 3, fm), fm, epochs=20, learning_rate=0.03)
    b, hb = hybrid_train(init_grid(("x",), 3, fm), fm, epochs=20, learning_rate=0.03)
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.consequents, b.consequents)
    assert ha.train_rmse == hb.train_rmse


def test_sigma_floor_enforced():
    from pipelife.anfis import _premise_step

    fm = toy_sine_matrix(30)
    model = init_grid(("x",), 3, fm)
    rng = np.random.default_rng(2)
    model.consequents = rng.normal(0, 1.0, model.consequents.shape)
    norm = fm.normalized()
    xs, ts = norm[:, [0]], norm[:, 1]
    _, grad_s = _premise_gradients(model, xs, ts)
    positive = np.argwhere(grad_s > 0)
    assert positive.size, "need a width the step wants to shrink"
    i, j = positive[0]
    # a step this large would drive the width negative without the floor
    lr = float(2.0 * model.sigmas[i, j] / grad_s[i, j])
    _premise_step(model, _premise_gradients(model, xs, ts), lr)
    assert np.all(model.sigmas >= 1e-4)
    assert model.sigmas[i, j] == pytest.approx(1e-4)


def test_hybrid_logs_the_rank_of_every_solve():
    fm = collinear_or_full_rank(True)
    model = init_grid(("a", "b"), 2, fm)
    trained, history = hybrid_train(model, fm, epochs=3, learning_rate=0.02)
    assert len(history.lse_rank) == 3
    assert history.lse_rank[history.best_epoch] == trained.lse_rank
    # b = 1 - a leaves [x, 1] two independent directions per rule
    assert all(0 < rank <= 4 * 2 for rank in history.lse_rank)
    once, single = hybrid_train(model, fm, epochs=1)
    assert single.lse_rank == [once.lse_rank]


def traced_peak(call) -> int:
    """The tracemalloc peak of call(), in bytes above what was held before."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def models_5k_shape(n=4000):
    """The models_5k training set-up (4 inputs x 4 MFs, 256 rules) on n rows."""
    inputs = anfis.DEFAULT_INPUTS + ("diameter_in",)
    dataset = synth.generate(synth.GeneratorConfig(n=n, seed=11))
    fm = build_features(split_dataset(dataset, (0.75, 0.1, 0.15), 11), inputs + ("rul_years",))
    return init_grid(inputs, 4, fm), fm


def test_hybrid_training_peaks_below_2_75_n_by_r_arrays():
    # an epoch holds the normalized firing; the rule outputs, the solve's
    # design and each QR work on blocks of rows; numpy's qr copies the
    # 2,048-row block it factors, and the solve's r k x r k system is summed
    # beside the design's block.  Keeping the
    # unnormalized firing, the n x r span of the firing and a whole copy of
    # it for the QR peaked at ~3.0 n x R arrays here, and the whole design
    # at ~6
    model, fm = models_5k_shape()
    n = fm.split_arrays(model.input_columns)[0].shape[0]
    assert n >= 3000
    peak = traced_peak(lambda: hybrid_train(model, fm, epochs=2))
    assert peak <= 2.75 * n * model.n_rules * 8


def test_row_span_peaks_below_half_a_copy_of_its_matrix():
    # the QR factors QR_BLOCK_ROWS rows at a time, and numpy's qr copies
    # what it is given, so a QR of the whole matrix held ~1.1 copies of it
    n = 4 * anfis.QR_BLOCK_ROWS
    a = np.ascontiguousarray(np.random.default_rng(22).uniform(0, 1, (64, n))).T
    peak = traced_peak(lambda: anfis._row_span(a))
    assert peak <= 0.5 * a.nbytes


def test_predict_batch_peaks_below_1_5_n_by_r_arrays():
    # the forward pass normalizes the firing in place and forms the rule
    # outputs a block of rows at a time, so it holds one n x R array, with
    # the (R / m) x n product it is built from; holding the unnormalized
    # firing, the normalized one and the whole rule outputs peaked at ~3.0
    model, fm = models_5k_shape()
    raw = fm.raw_matrix(model.input_columns)
    peak = traced_peak(lambda: model.predict_batch(raw))
    assert peak <= 1.5 * len(raw) * model.n_rules * 8


def test_hybrid_stays_bounded_on_collinear_default_inputs():
    # age and install year are collinear; the exact minimum-norm solve left
    # |theta| ~5e5 here and one premise step threw the train MSE to ~1e16
    dataset = synth.generate(synth.GeneratorConfig(n=2000, seed=3))
    labeled = split_dataset(dataset, (0.75, 0.1, 0.15), 3)
    fm = build_features(labeled, anfis.DEFAULT_INPUTS + ("rul_years",))
    model = init_grid(anfis.DEFAULT_INPUTS, 3, fm)
    trained, history = hybrid_train(model, fm, epochs=4)
    x, t, _, _ = fm.split_arrays(model.input_columns)
    replay, pre_lse_mse = model.copy(), []
    for _ in history.train_rmse:
        pre_lse_mse.append(_rmse(replay, x, t) ** 2)
        lse_consequents(replay, x, t)
        _premise_step(replay, _premise_gradients(replay, x, t), anfis.DEFAULT_LEARNING_RATE)
    assert all(mse < 1e-2 for mse in pre_lse_mse[1:])
    assert max(history.val_rmse[1:]) <= 1.01 * history.val_rmse[0]
    assert np.abs(trained.consequents).max() < 100


def test_stop_rule_counts_only_improvements_beyond_the_tolerance():
    tau, patience = anfis.STOP_TOLERANCE, anfis.STOP_PATIENCE
    # patience epochs that lower the score by tau / 2 in all
    creep = [1.0 - 0.5 * tau * k / patience for k in range(patience + 1)]
    assert not any(anfis._stalled(creep[:k]) for k in range(1, patience + 1))
    assert anfis._stalled(creep)
    # the last epoch beats the best before the window by more than tau
    assert not anfis._stalled(creep[:-1] + [1.0 - 2.0 * tau])


def test_training_stops_after_patience_epochs_of_flat_validation():
    # with the premises fixed every epoch solves the same consequents, so
    # the validation RMSE is flat from the first epoch on
    fm = toy_sine_matrix(60, with_split=True)
    model = init_grid(("x",), 3, fm)
    _, history = hybrid_train(model, fm, epochs=50, learning_rate=0.0)
    assert len(set(history.val_rmse)) == 1
    assert (len(history), history.stop) == (anfis.STOP_PATIENCE + 1, "patience")
    assert history.best_epoch == 0
    # a 2-epoch run, as the benchmark's, never stops early
    assert anfis.STOP_PATIENCE >= 2
    _, history = hybrid_train(model, fm, epochs=2, learning_rate=0.0)
    assert (len(history), history.stop) == (2, "cap")


def test_training_that_keeps_improving_reaches_the_cap():
    x = np.linspace(0, 1, 60)
    split = np.full(60, SPLITS.index(Split.TRAIN))
    split[::5] = SPLITS.index(Split.VALIDATION)
    fm = matrix_from_columns({"x": x, "rul_years": np.tanh(12 * (x - 0.3))}, split)
    _, history = hybrid_train(init_grid(("x",), 3, fm), fm, epochs=30, learning_rate=0.5)
    val = np.array(history.val_rmse)
    assert np.all(val[1:] < (1.0 - anfis.STOP_TOLERANCE) * val[:-1])
    assert (len(history), history.stop, history.best_epoch) == (30, "cap", 29)


def test_a_patience_stop_returns_what_a_cap_at_its_epoch_returns():
    dataset = synth.generate(synth.GeneratorConfig(n=2000, seed=3))
    fm = build_features(split_dataset(dataset, (0.75, 0.1, 0.15), 3),
                        anfis.DEFAULT_INPUTS + ("rul_years",))
    model = init_grid(anfis.DEFAULT_INPUTS, 3, fm)
    stopped, history = hybrid_train(model, fm, epochs=50)
    assert history.stop == "patience" and len(history) < 50
    capped, capped_history = hybrid_train(model, fm, epochs=len(history))
    for name in ("centers", "sigmas", "consequents"):
        assert np.array_equal(getattr(stopped, name), getattr(capped, name)), name
    assert capped_history == history


# -- model persistence -----------------------------------------------------------------

def test_anfis_json_round_trip():
    dataset = synth.generate(synth.GeneratorConfig(n=300, seed=5))
    labeled = split_dataset(dataset, (0.75, 0.1, 0.15), 2)
    inputs = ("age_years", "wall_thickness_loss_pct")
    fm = build_features(labeled, inputs + ("rul_years",))
    model = init_grid(inputs, 2, fm)
    trained, _ = hybrid_train(model, fm, epochs=10, learning_rate=0.02)
    clone = AnfisModel.from_json(trained.to_json())
    a = trained.predict_dataset(dataset)
    b = clone.predict_dataset(dataset)
    assert a == pytest.approx(b, abs=0)


@pytest.mark.parametrize("flag", [True, False])
def test_anfis_document_with_the_old_lse_degenerate_key_loads_the_same(flag):
    # documents once saved the flag; it is now read from lse_rank, which a
    # loaded model does not have, so the key is ignored
    dataset = synth.generate(synth.GeneratorConfig(n=300, seed=5))
    labeled = split_dataset(dataset, (0.75, 0.1, 0.15), 2)
    inputs = ("age_years", "install_year")
    fm = build_features(labeled, inputs + ("rul_years",))
    trained, _ = hybrid_train(init_grid(inputs, 2, fm), fm, epochs=2)
    assert trained.lse_degenerate
    text = trained.to_json()
    payload = json.loads(text)
    assert "lse_degenerate" not in payload
    payload["lse_degenerate"] = flag
    old, new = AnfisModel.from_json(json.dumps(payload)), AnfisModel.from_json(text)
    assert np.array_equal(old.predict_dataset(dataset), new.predict_dataset(dataset))
    assert old.to_json() == new.to_json()
    assert old.lse_degenerate is new.lse_degenerate is False


@pytest.mark.parametrize("case", NOT_THE_GRID)
def test_anfis_document_refuses_rules_that_are_not_the_grid(case):
    rng = np.random.default_rng(3)
    fm = matrix_from_columns({"a": rng.uniform(0, 1, 20), "b": rng.uniform(0, 1, 20),
                              "rul_years": rng.uniform(0, 1, 20)})
    text = init_grid(("a", "b"), 3, fm).to_json()
    assert AnfisModel.from_json(text).to_json() == text
    payload = json.loads(text)
    payload["rules"] = NOT_THE_GRID[case](payload["rules"])
    with pytest.raises(DimensionMismatch, match="rules are not the 3\\^2 grid"):
        AnfisModel.from_json(json.dumps(payload))


@pytest.mark.parametrize("index", [0.5, 1.9, True], ids=["half", "one_point_nine", "true"])
def test_anfis_document_refuses_a_rule_index_that_is_not_whole(index):
    rng = np.random.default_rng(3)
    fm = matrix_from_columns({"a": rng.uniform(0, 1, 20), "b": rng.uniform(0, 1, 20),
                              "rul_years": rng.uniform(0, 1, 20)})
    payload = json.loads(init_grid(("a", "b"), 2, fm).to_json())
    payload["rules"][0][0] = index
    with pytest.raises(InvalidConfig, match="rules must be a whole number"):
        AnfisModel.from_json(json.dumps(payload))


# -- sensitivity --------------------------------------------------------------------

def test_sensitivity_ignored_input_ranks_last():
    cfg = MlpConfig(input_columns=("a", "b"), hidden_neurons=3, seed=1)
    model = mlp_init(cfg)
    model.w1[1, :] = 0.0  # second input disconnected
    model.feature_constants = ((0.0, 1.0), (0.0, 1.0))
    model.target_constants = (0.0, 1.0)
    rng = np.random.default_rng(1)
    fm = matrix_from_columns(
        {"a": rng.uniform(0, 1, 40), "b": rng.uniform(0, 1, 40),
         "rul_years": rng.uniform(0, 1, 40)}
    )
    ranking = sensitivity_ranking(model, fm)
    assert ranking[-1][0] == "b"
    assert ranking[-1][1] == pytest.approx(0.0, abs=1e-12)


def test_sensitivity_linear_model_slope():
    class LinearModel:
        input_columns = ("x",)
        trained = True

        def predict_batch(self, raw):
            return 3.0 * np.asarray(raw)[:, 0]

    x = np.linspace(0.0, 1.0, 21)  # unit range so raw and per-range agree
    fm = matrix_from_columns({"x": x, "rul_years": x})
    ranking = sensitivity_ranking(LinearModel(), fm)
    assert ranking[0][1] == pytest.approx(3.0, abs=1e-6)


def test_sensitivity_untrained_model_rejected():
    fm = toy_sine_matrix(20)
    model = init_grid(("x",), 2, fm)
    with pytest.raises(UntrainedModel):
        sensitivity_ranking(model, fm)


def test_sensitivity_synthetic_age_and_wtl_top_three():
    inputs = (
        "age_years", "wall_thickness_loss_pct", "install_year",
        "diameter_in", "length_ft",
    )
    for seed in range(3):
        dataset = synth.generate(synth.GeneratorConfig(n=3000, seed=seed))
        labeled = split_dataset(dataset, (0.75, 0.1, 0.15), seed)
        fm = build_features(labeled, inputs + ("rul_years",))
        model = init_grid(inputs, 2, fm)
        trained, _ = hybrid_train(model, fm, epochs=20, learning_rate=0.02)
        ranking = sensitivity_ranking(trained, fm)
        top_three = {name for name, _ in ranking[:3]}
        assert "age_years" in top_three, (seed, ranking)
        assert "wall_thickness_loss_pct" in top_three, (seed, ranking)


class PredictBatchOnly:
    """A model seen only through predict_batch: the generic ranking path."""

    def __init__(self, model):
        self.model = model
        self.input_columns = model.input_columns

    def predict_batch(self, raw):
        return self.model.predict_batch(raw)


@pytest.fixture(scope="module")
def sensitivity_cases():
    dataset = synth.generate(synth.GeneratorConfig(n=600, seed=9))
    labeled = split_dataset(dataset, (0.75, 0.1, 0.15), 9)
    collinear = ("age_years", "wall_thickness_loss_pct", "install_year")
    fm = build_features(labeled, collinear + ("rul_years",))
    grid4, _ = hybrid_train(init_grid(collinear, 4, fm), fm, epochs=2)
    fm_one = toy_sine_matrix(40)
    one_input, _ = hybrid_train(init_grid(("x",), 3, fm_one), fm_one, epochs=2)
    five_inputs = collinear + ("diameter_in", "length_ft")   # the inventory_20k shape
    fm_five = build_features(labeled, five_inputs + ("rul_years",))
    five_by_two, _ = hybrid_train(init_grid(five_inputs, 2, fm_five), fm_five, epochs=2)
    clipped = grid4.copy()
    clipped.consequents *= 2.0     # normalized outputs 2 y - 0.5: clipped below 0.25
    clipped.consequents[:, -1] -= 0.5
    return {
        "collinear_4mf": (grid4, fm),
        "one_input": (one_input, fm_one),
        "five_inputs_2mf": (five_by_two, fm_five),
        "clipped": (clipped, fm),
    }


@pytest.mark.parametrize("case", ["collinear_4mf", "one_input", "five_inputs_2mf", "clipped"])
def test_anfis_sensitivity_matches_predict_batch_differences(sensitivity_cases, case):
    model, fm = sensitivity_cases[case]
    if case == "clipped":
        raw = fm.raw_matrix(model.input_columns)
        at_bound = np.isin(model.predict_batch(raw), model.target_constants).mean()
        assert 0.1 < at_bound < 0.9
    ranking = sensitivity_ranking(model, fm)
    reference = sensitivity_ranking(PredictBatchOnly(model), fm)
    assert [name for name, _ in ranking] == [name for name, _ in reference]
    for (_, slope), (_, expected) in zip(ranking, reference):
        assert slope == pytest.approx(expected, rel=1e-10, abs=0)


def test_anfis_sensitivity_raises_where_predict_batch_does(sensitivity_cases):
    model, fm = sensitivity_cases["collinear_4mf"]
    raw = fm.raw_matrix(model.input_columns)[:5].copy()
    raw[3, 1] = 1e6        # far outside the trained wall-loss range
    far = matrix_from_columns(dict(zip(model.input_columns, raw.T)))
    errors = []
    for candidate in (model, PredictBatchOnly(model)):
        with pytest.raises(AllRulesZero) as exc:
            sensitivity_ranking(candidate, far)
        errors.append(str(exc.value))
    assert errors[0] == errors[1] == "total firing strength underflowed at row 3"


def test_contour_grid_shape_and_medians():
    dataset = synth.generate(synth.GeneratorConfig(n=500, seed=6))
    labeled = split_dataset(dataset, (0.75, 0.1, 0.15), 1)
    inputs = ("age_years", "wall_thickness_loss_pct")
    fm = build_features(labeled, inputs + ("rul_years",))
    model = init_grid(inputs, 2, fm)
    trained, _ = hybrid_train(model, fm, epochs=5, learning_rate=0.02)
    rows = contour_grid(trained, fm, "age_years", "wall_thickness_loss_pct")
    assert len(rows) == 625
    ages = {r[0] for r in rows}
    assert len(ages) == 25
    assert all(np.isfinite(r[2]) for r in rows)


@pytest.fixture(scope="module")
def minmax_models():
    dataset = synth.generate(synth.GeneratorConfig(n=400, seed=8))
    labeled = split_dataset(dataset, (0.75, 0.1, 0.15), 8)
    inputs = ("age_years", "wall_thickness_loss_pct", "install_year")
    fm = build_features(labeled, inputs + ("rul_years",))
    fuzzy, _ = hybrid_train(init_grid(inputs, 2, fm), fm, epochs=3)
    neural, _ = mlp_train(MlpConfig(input_columns=inputs, epochs=5, seed=8), fm)
    return fuzzy, neural


@settings(deadline=None)
@given(arrays(float, st.tuples(st.integers(1, 8), st.just(3)),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_minmax_predictions_lie_inside_the_target_range(minmax_models, raw):
    for model in minmax_models:
        lo, hi = model.target_constants
        try:
            predicted = model.predict_batch(raw)
        except AllRulesZero:
            # no ANFIS rule fires this far outside the trained inputs
            assert model is minmax_models[0]
            continue
        assert np.all((lo <= predicted) & (predicted <= hi)), (raw, predicted)


def test_contour_grid_equals_one_predict_batch_per_x(sensitivity_cases):
    model, fm = sensitivity_cases["collinear_4mf"]
    x_input, y_input = "age_years", "wall_thickness_loss_pct"
    raw = fm.raw_matrix(model.input_columns)
    medians = np.median(raw, axis=0)
    xi, yi = model.input_columns.index(x_input), model.input_columns.index(y_input)
    xs = np.linspace(raw[:, xi].min(), raw[:, xi].max(), 25)
    ys = np.linspace(raw[:, yi].min(), raw[:, yi].max(), 25)
    expected = []
    for xv in xs:
        batch = np.tile(medians, (25, 1))
        batch[:, xi] = xv
        batch[:, yi] = ys
        out = model.predict_batch(batch)
        expected.extend((float(xv), float(yv), float(o)) for yv, o in zip(ys, out))
    assert contour_grid(model, fm, x_input, y_input) == expected


def test_contour_grid_refuses_the_same_input_on_both_axes(sensitivity_cases):
    model, fm = sensitivity_cases["collinear_4mf"]
    with pytest.raises(InvalidConfig, match="'age_years' twice"):
        contour_grid(model, fm, "age_years", "age_years")


@pytest.mark.parametrize("inputs, mfs", [
    (("age_years", "wall_thickness_loss_pct", "install_year", "diameter_in"), 4),
    (("age_years", "wall_thickness_loss_pct", "install_year", "diameter_in", "length_ft"), 2),
    (("age_years", "wall_thickness_loss_pct", "install_year"), 3),
], ids=["4x4", "5x2", "3x3"])
def test_predict_batch_gives_each_row_the_same_bits_in_every_batch(inputs, mfs):
    dataset = synth.generate(synth.GeneratorConfig(n=500, seed=4))
    labeled = split_dataset(dataset, (0.75, 0.1, 0.15), 4)
    fm = build_features(labeled, inputs + ("rul_years",))
    model, _ = hybrid_train(init_grid(inputs, mfs, fm), fm, epochs=2)
    raw = fm.raw_matrix(inputs)[:300]
    whole = model.predict_batch(raw)
    for cut in range(1, len(raw)):
        for rows in (slice(None, cut), slice(cut, None)):
            # the slice as it is, and as a copy in C order, as contour_grid builds one
            for part in (raw[rows], np.ascontiguousarray(raw[rows])):
                assert np.array_equal(model.predict_batch(part), whole[rows]), (cut, rows)


@pytest.mark.parametrize("n", [anfis.LSE_BLOCK_ROWS + 1, 2 * anfis.LSE_BLOCK_ROWS + 1])
def test_predict_batch_gives_a_row_its_bits_alone_in_a_pair_and_at_every_block_position(n):
    # layer 5 works on blocks of LSE_BLOCK_ROWS rows; at these sizes the last
    # block would hold one row, which joins the block before it
    inputs = anfis.DEFAULT_INPUTS
    dataset = synth.generate(synth.GeneratorConfig(n=n, seed=5))
    fm = build_features(split_dataset(dataset, (0.75, 0.1, 0.15), 5), inputs + ("rul_years",))
    model, _ = hybrid_train(init_grid(inputs, 3, fm), fm, epochs=2)
    raw = fm.raw_matrix(inputs)
    whole = model.predict_batch(raw)
    for i in range(n):
        assert np.array_equal(model.predict_batch(raw[i:i + 1]), whole[i:i + 1]), i
        assert np.array_equal(model.predict_batch(raw[i:i + 2]), whole[i:i + 2]), i
    # every row at every position of the batch
    for shift in range(1, n):
        assert np.array_equal(model.predict_batch(np.roll(raw, shift, axis=0)),
                              np.roll(whole, shift)), shift
