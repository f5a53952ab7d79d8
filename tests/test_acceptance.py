"""Acceptance suite: every release criterion, one pass/fail line per check.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and runtimes.  The default synthetic dataset is a shared fixture; the
experiment-suite run happens inside criterion 4's timed block.
"""

import contextlib
import json
import time

import numpy as np
import pytest

from pipelife import anfis, mlp, regression, stats, synth
from pipelife.cli import main as cli_main
from pipelife.data import (
    MATERIALS, SPLITS, FeatureMatrix, Material, Split, build_features, split_dataset,
)
from pipelife.metrics import evaluate

from oracles import consequent_design

DEFAULT_SEED = 0


@contextlib.contextmanager
def criterion(number, description, budget_seconds):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:2d}: {description}", flush=True)
        raise
    elapsed = time.time() - started
    print(
        f"PASS criterion {number:2d}: {description} ({elapsed:.1f}s, budget {budget_seconds}s)",
        flush=True,
    )
    assert elapsed < budget_seconds, f"criterion {number} exceeded its runtime budget"


@pytest.fixture(scope="module")
def default_dataset():
    return synth.generate(synth.GeneratorConfig(n=5000, seed=DEFAULT_SEED))


def test_criterion_01_builtin_model_exactness():
    hand_values = {
        "CI": [(0, 0, 48.163), (10, 10, 14.511), (5, 20, 40.709),
               (12, 40, 1.107), (20, 59, -85.4038)],
        "DI": [(0, 0, 51.0), (10, 10, 63.5), (5, 20, 52.5),
               (20, 30, 126.5), (50, 50, 763.5)],
        "AC": [(0, 0, 195.92), (10, 10, 191.4), (50, 30, 190.72),
               (100, 59, 205.01), (25, 45, 176.245)],
        "Steel": [(0, 0, -0.012), (10, 10, -95.112), (30, 5, -13.662),
                  (50, 2, 526.04), (20, 1, 20.196)],
    }
    with criterion(1, "published deterioration models reproduce hand values", 1):
        for material, cases in hand_values.items():
            model = regression.builtin(material)
            for age, wtl, expected in cases:
                raw, _ = regression.predict_rul(model, age, wtl)
                assert abs(raw - expected) < 1e-9, (material, age, wtl)


def test_criterion_02_metric_oracle_suite():
    with criterion(2, "metrics match brute-force re-summation to 1e-12", 1):
        rng = np.random.default_rng(202)
        for _ in range(100):
            n = int(rng.integers(2, 101))
            actual = rng.uniform(-40, 60, size=n)
            while np.allclose(actual, actual[0]) or np.any(actual == 0):
                actual = rng.uniform(-40, 60, size=n)
            predicted = actual + rng.normal(0, 4, size=n)
            r = evaluate(predicted, actual)
            abs_err = [abs(p - a) for p, a in zip(predicted, actual)]
            sq_err = [(p - a) ** 2 for p, a in zip(predicted, actual)]
            mean_a = sum(actual) / n
            abs_dev = [abs(a - mean_a) for a in actual]
            sq_dev = [(a - mean_a) ** 2 for a in actual]
            assert abs(r.mae - sum(abs_err) / n) < 1e-12
            assert abs(r.rmse - np.sqrt(sum(sq_err) / n)) < 1e-12
            assert abs(r.rae - sum(abs_err) / sum(abs_dev)) < 1e-12
            assert abs(r.rrse - np.sqrt(sum(sq_err) / sum(sq_dev))) < 1e-12
            assert abs(r.r2 - (1 - sum(sq_err) / sum(sq_dev))) < 1e-12
            mape_terms = [abs(p - a) / abs(a) for p, a in zip(predicted, actual)]
            assert abs(r.mape - 100 * sum(mape_terms) / n) < 1e-12
        # mean-predictor baselines are exact
        actual = np.array([4.0, 9.0, 14.0, 21.0])
        r = evaluate(np.full(4, actual.mean()), actual)
        assert abs(r.rae - 1.0) < 1e-12
        assert abs(r.rrse - 1.0) < 1e-12
        assert abs(r.r2) < 1e-12


def test_criterion_03_mlp_gradient_check():
    with criterion(3, "MLP analytic gradients match finite differences", 10):
        h = 1e-5
        for seed in range(10):
            cfg = mlp.MlpConfig(
                input_columns=("a", "b", "c"), hidden_neurons=4, seed=seed,
            )
            model = mlp.init(cfg)
            rng = np.random.default_rng(300 + seed)
            x = rng.uniform(0, 1, size=(10, 3))
            y = rng.uniform(0, 1, size=10)
            _, grads = mlp.loss_and_gradient(model, x, y)
            for name in ("w1", "b1", "w2", "b2"):
                param = getattr(model, name)
                if name == "b2":
                    model.b2 = param + h
                    up = mlp.loss_and_gradient(model, x, y)[0]
                    model.b2 = param - h
                    dn = mlp.loss_and_gradient(model, x, y)[0]
                    model.b2 = param
                    fd = np.array((up - dn) / (2 * h))
                    analytic = np.array(grads[name])
                else:
                    fd = np.zeros_like(param)
                    it = np.nditer(param, flags=["multi_index"])
                    while not it.finished:
                        idx = it.multi_index
                        orig = param[idx]
                        param[idx] = orig + h
                        up = mlp.loss_and_gradient(model, x, y)[0]
                        param[idx] = orig - h
                        dn = mlp.loss_and_gradient(model, x, y)[0]
                        param[idx] = orig
                        fd[idx] = (up - dn) / (2 * h)
                        it.iternext()
                    analytic = grads[name]
                denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
                assert (np.abs(analytic - fd) / denom).max() < 1e-6, (seed, name)


def test_criterion_04_ann_synthetic_performance(default_dataset):
    with criterion(4, "best ANN: test R2 >= 0.85, MAPE < 10, slope in [0.8, 1.1]", 300):
        suite_result = mlp.run_experiment_suite(default_dataset, split_seed=DEFAULT_SEED)
        best = suite_result.best
        test_report = best.phase(Split.TEST)
        assert test_report.r2 >= 0.85, test_report
        assert test_report.mape < 10.0, test_report
        labeled = split_dataset(default_dataset, mlp.DEFAULT_SPLIT_RATIOS, DEFAULT_SEED)
        actual = labeled.column("rul_years")
        predicted = best.model.predict_batch(labeled.matrix(best.model.input_columns))
        idx = labeled.rows_for(Split.TEST)
        slope, _, _ = mlp.scatter_fit(predicted[idx], actual[idx])
        assert 0.8 <= slope <= 1.1, slope


def test_criterion_05_anfis_structural_invariants():
    with criterion(5, "ANFIS firing-strength, LSE orthogonality and monotonicity", 30):
        rng = np.random.default_rng(500)
        # 1000 random (model, input) pairs: normalized strengths sum to one
        pairs = 0
        while pairs < 1000:
            d = int(rng.integers(1, 4))
            m = int(rng.integers(2, 4))
            model = anfis.AnfisModel(
                input_columns=tuple(f"f{i}" for i in range(d)),
                centers=rng.uniform(0, 1, (d, m)),
                sigmas=rng.uniform(0.05, 0.6, (d, m)),
                consequents=rng.normal(0, 1, (m**d, d + 1)),
            )
            xs = rng.uniform(0, 1, (25, d))
            _, wbar = anfis._forward(model, xs)
            assert np.abs(wbar.sum(axis=1) - 1.0).max() < 1e-9
            pairs += 25
        # LSE residual orthogonality on random instances: the solve is a ridge,
        # so the residual of the design stacked over sqrt(RIDGE n) I, i.e.
        # Phi^T r + RIDGE n theta, is orthogonal to it
        for trial in range(5):
            x = rng.uniform(0, 1, (80, 2))
            y = rng.normal(0, 1, 80)
            values = np.column_stack([x, y])
            fm = FeatureMatrix(values, ("a", "b", "rul_years"))
            model = anfis.init_grid(("a", "b"), 2, fm)
            anfis.lse_consequents(model, x, y)
            phi = consequent_design(model, x)
            theta = model.consequents.ravel()
            resid = phi @ theta - y
            assert np.abs(phi.T @ resid + anfis.RIDGE * len(y) * theta).max() < 1e-8
        # LSE-only training RMSE is monotone non-increasing
        x = np.linspace(0, 1, 60)
        y = 0.5 + 0.4 * np.sin(2 * np.pi * x)
        labels = np.full(60, SPLITS.index(Split.TRAIN))
        labels[::5] = SPLITS.index(Split.VALIDATION)
        fm = FeatureMatrix(np.column_stack([x, y]), ("x", "rul_years"), labels)
        model = anfis.init_grid(("x",), 4, fm)
        _, history = anfis.hybrid_train(model, fm, epochs=10, learning_rate=0.0)
        assert np.all(np.diff(history.train) <= 1e-10)


def test_criterion_06_anfis_learning():
    with criterion(6, "ANFIS toy RMSE < 0.05 and premise gradients exact", 60):
        x = np.linspace(0, 1, 50)
        y = 0.5 + 0.4 * np.sin(2 * np.pi * x)
        labels = np.full(50, SPLITS.index(Split.TRAIN))
        labels[::5] = SPLITS.index(Split.VALIDATION)
        fm = FeatureMatrix(np.column_stack([x, y]), ("x", "rul_years"), labels)
        model = anfis.init_grid(("x",), 4, fm)
        trained, history = anfis.hybrid_train(model, fm, epochs=100, learning_rate=0.05)
        assert min(history.train) < 0.05
        # premise gradient finite-difference check
        norm = fm.normalized()
        xs, ts = norm[:, [0]], norm[:, 1]
        worst = 0.0
        for seed in range(3):
            probe = anfis.init_grid(("x",), 3, fm)
            rng = np.random.default_rng(seed)
            probe.consequents = rng.normal(0, 0.5, probe.consequents.shape)
            probe.centers += rng.normal(0, 0.05, probe.centers.shape)
            grad_c, grad_s = anfis._premise_gradients(probe, xs, ts)

            def mse(m):
                out, _ = anfis._forward(m, xs)
                return float(np.mean((out - ts) ** 2))

            h = 1e-6
            for i in range(probe.centers.shape[0]):
                for j in range(probe.centers.shape[1]):
                    for arr, g in ((probe.centers, grad_c), (probe.sigmas, grad_s)):
                        orig = arr[i, j]
                        arr[i, j] = orig + h
                        up = mse(probe)
                        arr[i, j] = orig - h
                        dn = mse(probe)
                        arr[i, j] = orig
                        fd = (up - dn) / (2 * h)
                        rel = abs(fd - g[i, j]) / max(abs(fd), abs(g[i, j]), 1e-10)
                        worst = max(worst, rel)
        assert worst < 1e-5


def test_criterion_07_sensitivity_conclusion():
    with criterion(7, "ANFIS ranks age and wall loss in the top three, 3 seeds", 300):
        inputs = (
            "age_years", "wall_thickness_loss_pct", "install_year",
            "diameter_in", "length_ft",
        )
        for seed in range(3):
            dataset = synth.generate(synth.GeneratorConfig(n=5000, seed=seed))
            labeled = split_dataset(dataset, mlp.DEFAULT_SPLIT_RATIOS, seed)
            fm = build_features(labeled, inputs + ("rul_years",))
            model = anfis.init_grid(inputs, 2, fm)
            trained, _ = anfis.hybrid_train(model, fm, epochs=20, learning_rate=0.02)
            ranking = anfis.sensitivity_ranking(trained, fm)
            top_three = {name for name, _ in ranking[:3]}
            assert "age_years" in top_three, (seed, ranking)
            assert "wall_thickness_loss_pct" in top_three, (seed, ranking)


def test_criterion_08_polynomial_fit_recovery(default_dataset):
    with criterion(8, "planted-coefficient recovery and material fits R2 >= 0.7", 30):
        rng = np.random.default_rng(800)
        age = rng.uniform(1, 120, size=100)
        wtl = rng.uniform(1, 59, size=100)
        planted = {(3, 0): 0.004, (0, 2): -0.025, (1, 1): 0.11, (0, 0): 51.0}
        y = sum(c * age**a * wtl**w for (a, w), c in planted.items())
        model = regression.fit_polynomial(age, wtl, y, degree=3)
        coeffs = {(a, w): c for c, a, w in model.terms}
        for key, value in planted.items():
            assert abs(coeffs[key] - value) < 1e-8, key
        assert abs(model.r2_fit - 1.0) < 1e-9
        # per-material fits on the synthetic inventory
        ages = default_dataset.column("age_years")
        losses = default_dataset.column("wall_thickness_loss_pct")
        ruls = default_dataset.column("rul_years")
        mats = default_dataset.materials
        for tag, mat in (("CI", Material.CAST_IRON), ("DI", Material.DUCTILE_IRON),
                         ("AC", Material.ASBESTOS), ("Steel", Material.STEEL)):
            mask = mats == MATERIALS.index(mat)
            fitted = regression.fit_polynomial(
                ages[mask], losses[mask], ruls[mask], degree=2, material=tag
            )
            assert fitted.r2_fit >= 0.7, (tag, fitted.r2_fit)


def test_criterion_09_generator_calibration(default_dataset):
    with criterion(9, "synthetic moments hit the published targets", 30):
        age = default_dataset.column("age_years")
        wtl = default_dataset.column("wall_thickness_loss_pct")
        rul = default_dataset.column("rul_years")
        assert abs(age.mean() - 49.78) / 49.78 < 0.05
        assert abs(age.std(ddof=1) - 30.31) / 30.31 < 0.10
        assert abs(wtl.mean() - 29.64) / 29.64 < 0.10
        assert abs(rul.mean() - 40.65) / 40.65 < 0.10
        coef = np.polyfit(age, rul, 2)
        fitted = np.polyval(coef, age)
        r2 = 1.0 - ((rul - fitted) ** 2).sum() / ((rul - rul.mean()) ** 2).sum()
        assert 0.70 <= r2 <= 0.92, r2


def test_criterion_10_headline_halflife(default_dataset):
    with criterion(10, "ten points of wall loss cuts fitted RUL 30-70 percent", 60):
        ages = default_dataset.column("age_years")
        losses = default_dataset.column("wall_thickness_loss_pct")
        ruls = default_dataset.column("rul_years")
        mats = default_dataset.materials
        changes = []
        for tag, mat in (("CI", Material.CAST_IRON), ("DI", Material.DUCTILE_IRON),
                         ("AC", Material.ASBESTOS), ("Steel", Material.STEEL)):
            mask = mats == MATERIALS.index(mat)
            model = regression.fit_polynomial(
                ages[mask], losses[mask], ruls[mask], degree=2, material=tag
            )
            baseline = float(losses[mask].mean())
            for rep_age in (40.0, 50.0, 60.0):
                changes.append(
                    regression.halflife_check(model, rep_age, 10.0, baseline)
                )
        average = float(np.mean(changes))
        assert 0.3 <= average <= 0.7, (average, changes)


def test_criterion_11_statistics_correctness(default_dataset):
    with criterion(11, "F = t^2, textbook F-tails, age and wall loss significant", 30):
        rng = np.random.default_rng(1100)
        for _ in range(10):
            a = rng.normal(0, 1, size=9)
            b = rng.normal(0.4, 1, size=12)
            f, pf = stats.anova_one_way([a, b])
            t = stats.t_test_two_sample(a, b, equal_var=True)
            assert abs(f - t.t**2) < 1e-9
            assert abs(pf - t.p) < 1e-9
        table = [
            (1, 2, 18.513, 0.04999955099087705),
            (2, 10, 4.103, 0.04999508464705948),
            (5, 20, 2.711, 0.04999323380566577),
            (3, 15, 5.417, 0.009999759481852614),
            (10, 30, 2.165, 0.04995780717443036),
            (4, 8, 3.838, 0.04999545050271005),
        ]
        for df1, df2, f_crit, oracle in table:
            assert abs(stats.f_sf(f_crit, df1, df2) - oracle) < 1e-6
        report = stats.significance_report(default_dataset)
        assert report.for_feature("age_years").significant
        assert report.for_feature("wall_thickness_loss_pct").significant


def test_criterion_12_cli_reproducibility(tmp_path):
    with criterion(12, "identical CLI invocations produce byte-identical outputs", 120):
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        for out in (first, second):
            assert cli_main(
                ["generate", "--n", "500", "--seed", "3", "--out", str(out)]
            ) == 0
        assert first.read_bytes() == second.read_bytes()

        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps([
            {
                "input_columns": ["material", "wall_thickness_loss_pct",
                                   "length_ft", "diameter_in", "age_years"],
                "hidden_neurons": 3,
                "epochs": 25,
                "seed": 1,
                "name": "repro",
            }
        ]))
        outputs = []
        for run_dir in ("run_a", "run_b"):
            out_dir = tmp_path / run_dir
            assert cli_main([
                "train-ann", "--in", str(first), "--seed", "2",
                "--registry", str(registry), "--out-dir", str(out_dir),
            ]) == 0
            outputs.append((out_dir / "ann_metrics.csv").read_bytes())
            outputs.append((out_dir / "ann_best_model.json").read_bytes())
        assert outputs[0] == outputs[2]
        assert outputs[1] == outputs[3]

        fits = []
        for run_dir in ("fit_a", "fit_b"):
            out_dir = tmp_path / run_dir
            assert cli_main([
                "fit-regression", "--in", str(first), "--degree", "2",
                "--out-dir", str(out_dir),
            ]) == 0
            fits.append((out_dir / "deterioration_models.txt").read_bytes())
        assert fits[0] == fits[1]
