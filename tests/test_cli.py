import csv
import hashlib
import io
import json
import os
import string
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipelife import anfis, mlp, regression, synth
from pipelife.cli import build_parser, main
from pipelife.data import CSV_COLUMNS, ingest_csv
from pipelife.regression import builtin, predict_rul
from pipelife.synth import DEFAULT_REFERENCE_YEAR

from oracles import NOT_THE_GRID


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "pipes.csv"
    code = run(["generate", "--n", "600", "--seed", "5", "--out", str(path)])
    assert code == 0
    return path


def test_generate_writes_rows_and_report(tmp_path):
    out = tmp_path / "pipes.csv"
    assert run(["generate", "--n", "50", "--seed", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 51  # header + rows
    assert out.with_suffix(".csv.report.txt").exists()
    manifest = json.loads((tmp_path / "pipes_manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["outputs"]


def test_generate_missing_out_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["generate", "--n", "10"])
    assert exc.value.code == 2


def test_generate_invalid_n_is_runtime_error(tmp_path, capsys):
    # a count above the cap is refused before any array is allocated
    out = tmp_path / "gen" / "x.csv"
    for n in ("0", "99999999999999999999", str(synth.MAX_RECORDS + 1)):
        assert run(["generate", "--n", n, "--out", str(out)]) == 1
        assert_one_error_line(capsys, f"got {n}")
        assert not out.parent.exists()


def test_generated_csv_round_trips(small_csv):
    dataset, report = ingest_csv(small_csv, DEFAULT_REFERENCE_YEAR)
    assert report.rows_dropped == 0
    assert len(dataset) == 600


def test_stats_text_output(small_csv, capsys):
    assert run(["stats", "--in", str(small_csv)]) == 0
    out = capsys.readouterr().out
    for column in ("age_years", "rul_years", "wall_thickness_loss_pct"):
        assert column in out
    assert "significant" in out


def test_stats_json_schema(small_csv, capsys):
    import jsonschema

    assert run(["stats", "--in", str(small_csv), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    schema = {
        "type": "object",
        "required": ["cleaning", "summary", "significance"],
        "properties": {
            "cleaning": {
                "type": "object",
                "required": ["rows_read", "rows_kept", "rows_dropped"],
            },
            "summary": {
                "type": "object",
                "additionalProperties": {
                    "type": "object",
                    "required": ["min", "max", "mean", "std", "mode"],
                },
            },
            "significance": {
                "type": "object",
                "required": ["alpha", "features"],
                "properties": {
                    "features": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": [
                                "feature", "anova_f", "anova_p",
                                "t_stat", "t_p", "significant",
                            ],
                        },
                    }
                },
            },
        },
    }
    jsonschema.validate(payload, schema)
    assert len(payload["summary"]) == 8  # seven inputs plus RUL


def test_stats_missing_file():
    assert run(["stats", "--in", "/nonexistent/pipes.csv"]) == 1


def test_stats_on_one_row_notes_it_on_every_feature(small_csv, tmp_path, capsys):
    one_row = tmp_path / "one.csv"
    one_row.write_text("".join(small_csv.read_text().splitlines(keepends=True)[:2]))
    assert run(["stats", "--in", str(one_row)]) == 0
    out = capsys.readouterr().out
    assert "rows kept:    1" in out and "significant" in out
    assert run(["stats", "--in", str(one_row), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {s["std"] for s in payload["summary"].values()} == {0.0}
    features = payload["significance"]["features"]
    assert len(features) == 7
    for feature in features:
        assert feature["pearson_r"] is None and not feature["significant"]
        assert feature["note"].startswith("one observation"), feature


def test_text_stats_prints_each_note_under_the_table(small_csv, tmp_path, capsys):
    one_row = tmp_path / "one.csv"
    one_row.write_text("".join(small_csv.read_text().splitlines(keepends=True)[:2]))
    assert run(["stats", "--in", str(one_row), "--json"]) == 0
    features = json.loads(capsys.readouterr().out)["significance"]["features"]
    assert run(["stats", "--in", str(one_row)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-7:] == [f"note: {f['feature']}: {f['note']}" for f in features]
    assert lines[-8].startswith(features[-1]["feature"])  # the last table row
    assert "note: age_years: one observation; too few distinct bins; " \
        "degenerate median split" in lines
    # a feature with an empty note adds no line
    assert run(["stats", "--in", str(small_csv)]) == 0
    assert "note:" not in capsys.readouterr().out


def test_train_ann_registry_of_one(small_csv, tmp_path):
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps([
        {
            "input_columns": ["material", "wall_thickness_loss_pct",
                               "length_ft", "diameter_in", "age_years"],
            "hidden_neurons": 3,
            "epochs": 30,
            "seed": 1,
            "name": "tiny",
        }
    ]))
    out_dir = tmp_path / "ann"
    code = run(["train-ann", "--in", str(small_csv), "--seed", "2",
                "--registry", str(registry), "--out-dir", str(out_dir)])
    assert code == 0
    metrics = (out_dir / "ann_metrics.csv").read_text().splitlines()
    assert metrics[0] == "model,phase,mae,rrse,mape,rae,r2"
    assert len(metrics) == 4  # header + 3 phases for one model
    assert (out_dir / "ann_best_model.json").exists()
    assert (out_dir / "ann_scatter.csv").exists()
    fit = json.loads((out_dir / "ann_scatter_fit.json").read_text())
    assert set(fit) == {"slope", "intercept", "r2"}


def test_train_ann_manifest_records_training(small_csv, tmp_path):
    registry = [
        mlp.MlpConfig(hidden_neurons=3, epochs=4, seed=1, name="plain"),
        mlp.MlpConfig(hidden_neurons=2, epochs=6, seed=3, restarts=3, name="restarted"),
    ]
    registry_path = tmp_path / "registry.json"
    registry_path.write_text(json.dumps([c.to_dict() for c in registry]))
    out_dir = tmp_path / "ann"
    assert run(["train-ann", "--in", str(small_csv), "--seed", "2",
                "--registry", str(registry_path), "--out-dir", str(out_dir)]) == 0
    training = json.loads((out_dir / "train_ann_manifest.json").read_text())["training"]
    dataset, _ = ingest_csv(small_csv, DEFAULT_REFERENCE_YEAR)
    result = mlp.run_experiment_suite(dataset, registry, split_seed=2)
    # no timings: the block is the same on every run
    assert training == [
        {"name": row.name, "best_epoch": row.history.best_epoch,
         "epochs": len(row.history), "restart": row.history.restart,
         "stop": row.history.stop}
        for row in result.rows
    ]
    assert [(t["epochs"], t["stop"]) for t in training] == [(4, "cap"), (6, "cap")]
    assert all(0 <= t["best_epoch"] < t["epochs"] for t in training)
    assert training[1]["restart"] in range(3)


def test_sgd_keys_of_older_documents_are_ignored(small_csv, tmp_path):
    # registries and model documents written before Levenberg–Marquardt
    # training carry batch_size and learning_rate
    old_keys = {"batch_size": 16, "learning_rate": 0.2}
    entry = mlp.MlpConfig(hidden_neurons=3, epochs=4, seed=1, name="m").to_dict()
    outputs = ("ann_metrics.csv", "ann_best_model.json", "ann_scatter.csv",
               "ann_scatter_fit.json")
    written = []
    for label, document in (("new", entry), ("old", dict(entry, **old_keys))):
        registry = tmp_path / f"{label}.json"
        registry.write_text(json.dumps([document]))
        out_dir = tmp_path / label
        assert run(["train-ann", "--in", str(small_csv), "--seed", "2",
                    "--registry", str(registry), "--out-dir", str(out_dir)]) == 0
        written.append([(out_dir / name).read_bytes() for name in outputs])
    assert written[0] == written[1]

    model = json.loads(written[0][1])
    assert not set(old_keys) & set(model["config"])
    model["config"].update(old_keys)
    old_model = tmp_path / "old_model.json"
    old_model.write_text(json.dumps(model))
    predicted = []
    for doc in (tmp_path / "new" / "ann_best_model.json", old_model):
        out = tmp_path / f"{doc.stem}.csv"
        assert run(["predict", "--model", str(doc), "--in", str(small_csv),
                    "--out", str(out)]) == 0
        predicted.append(out.read_bytes())
    assert predicted[0] == predicted[1]


def test_train_ann_requires_rul(tmp_path):
    bare = tmp_path / "norul.csv"
    dataset_path = tmp_path / "full.csv"
    assert run(["generate", "--n", "30", "--seed", "3", "--out", str(dataset_path)]) == 0
    lines = dataset_path.read_text().splitlines()
    header = lines[0].rsplit(",", 1)[0]
    rows = [line.rsplit(",", 1)[0] + "," for line in lines[1:]]
    bare.write_text("\n".join([header + ",rul_years"] + rows) + "\n")
    code = run(["train-ann", "--in", str(bare), "--out-dir", str(tmp_path / "out")])
    assert code == 1


def test_train_anfis_outputs(small_csv, tmp_path):
    out_dir = tmp_path / "anfis"
    code = run([
        "train-anfis", "--in", str(small_csv), "--seed", "4",
        "--inputs", "age_years,wall_thickness_loss_pct,install_year",
        "--mfs", "3", "--epochs", "5", "--out-dir", str(out_dir),
    ])
    assert code == 0
    model = json.loads((out_dir / "anfis_model.json").read_text())
    assert model["format"] == "pipelife-anfis-v1"
    assert len(model["rules"]) == 27  # 3 inputs at 3 MFs each
    training = json.loads((out_dir / "train_anfis_manifest.json").read_text())["training"]
    assert 1 <= training["epochs"] <= 5
    rmse_lines = (out_dir / "anfis_rmse.csv").read_text().splitlines()
    assert len(rmse_lines) == 1 + training["epochs"]  # header + one row per epoch run
    sens = (out_dir / "anfis_sensitivity.csv").read_text().splitlines()
    assert len(sens) == 4  # header + 3 configured inputs
    assert (out_dir / "anfis_contour.csv").exists()


def test_train_anfis_stops_before_the_default_cap_when_validation_stalls(small_csv, tmp_path):
    out_dir = tmp_path / "anfis"
    assert run([
        "train-anfis", "--in", str(small_csv), "--seed", "4",
        "--inputs", "age_years,wall_thickness_loss_pct", "--mfs", "3", "--out-dir", str(out_dir),
    ]) == 0
    training = json.loads((out_dir / "train_anfis_manifest.json").read_text())["training"]
    assert (training["epochs"], training["stop"]) == (anfis.STOP_PATIENCE + 1, "patience")
    assert training["epochs"] < anfis.DEFAULT_EPOCHS
    rows = (out_dir / "anfis_rmse.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [str(e) for e in range(training["epochs"])]


def test_train_anfis_rule_cap(small_csv, tmp_path, capsys):
    code = run([
        "train-anfis", "--in", str(small_csv),
        "--inputs",
        "age_years,wall_thickness_loss_pct,install_year,diameter_in,length_ft,breaks,material",
        "--mfs", "3", "--epochs", "2", "--out-dir", str(tmp_path / "x"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "rules" in err and "cap" in err


def test_train_anfis_takes_in_from_config(small_csv, tmp_path):
    out_dir = tmp_path / "anfis"
    config = tmp_path / "pipelife.conf"
    config.write_text(
        f"in={small_csv}\nout-dir={out_dir}\n"
        "inputs=age_years,wall_thickness_loss_pct\nmfs=2\nepochs=1\n"
    )
    assert run(["--config", str(config), "train-anfis"]) == 0
    assert (out_dir / "anfis_model.json").exists()


def test_train_anfis_manifest_records_training(small_csv, tmp_path):
    out_dir = tmp_path / "anfis"
    assert run([
        "train-anfis", "--in", str(small_csv), "--seed", "4",
        "--inputs", "age_years,wall_thickness_loss_pct,install_year",
        "--mfs", "2", "--epochs", "4", "--out-dir", str(out_dir),
    ]) == 0
    training = json.loads((out_dir / "train_anfis_manifest.json").read_text())["training"]
    assert list(training) == ["best_epoch", "epochs", "stop", "lse_rank", "lse_columns", "ridge"]
    assert (training["epochs"], training["stop"]) == (4, "cap")
    rows = (out_dir / "anfis_rmse.csv").read_text().splitlines()[1:]
    val = [float(row.split(",")[2]) for row in rows]
    assert training["best_epoch"] == int(np.argmin(val))
    # install year = reference year - age: the consequent design is rank deficient
    assert training["lse_rank"] < training["lse_columns"]
    model = json.loads((out_dir / "anfis_model.json").read_text())
    assert "lse_degenerate" not in training and "lse_degenerate" not in model


def test_train_anfis_manifest_records_the_solve_rank(small_csv, tmp_path):
    out_dir = tmp_path / "anfis"
    assert run([
        "train-anfis", "--in", str(small_csv), "--seed", "4",
        "--inputs", "age_years,wall_thickness_loss_pct,install_year",
        "--mfs", "2", "--epochs", "3", "--out-dir", str(out_dir),
    ]) == 0
    training = json.loads((out_dir / "train_anfis_manifest.json").read_text())["training"]
    assert training["lse_columns"] == 8 * 4  # 2^3 rules, d + 1 = 4
    # install year = reference year - age leaves [x, 1] three directions per rule
    assert 0 < training["lse_rank"] <= 8 * 3


def test_train_anfis_manifest_records_the_ridge(small_csv, tmp_path):
    out_dir = tmp_path / "anfis"
    assert run([
        "train-anfis", "--in", str(small_csv), "--seed", "4",
        "--inputs", "age_years,wall_thickness_loss_pct",
        "--mfs", "2", "--epochs", "1", "--learning-rate", "0.5",
        "--out-dir", str(out_dir),
    ]) == 0
    manifest = json.loads((out_dir / "train_anfis_manifest.json").read_text())
    assert manifest["training"]["ridge"] == anfis.RIDGE
    assert manifest["arguments"]["learning_rate"] == 0.5


@pytest.fixture(scope="module")
def anfis_doc(small_csv, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("anfis_doc")
    assert run([
        "train-anfis", "--in", str(small_csv), "--seed", "4",
        "--inputs", "age_years,wall_thickness_loss_pct",
        "--mfs", "2", "--epochs", "1", "--out-dir", str(out_dir),
    ]) == 0
    return (out_dir / "anfis_model.json").read_text()


def test_predict_model_missing_key_is_runtime_error(small_csv, anfis_doc, tmp_path, capsys):
    payload = json.loads(anfis_doc)
    del payload["centers"]
    doc = tmp_path / "model.json"
    doc.write_text(json.dumps(payload))
    code = run(["predict", "--model", str(doc), "--in", str(small_csv),
                "--out", str(tmp_path / "o.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "centers" in err


def test_predict_truncated_model_is_runtime_error(small_csv, anfis_doc, tmp_path, capsys):
    doc = tmp_path / "model.json"
    doc.write_text(anfis_doc[: len(anfis_doc) // 2])
    code = run(["predict", "--model", str(doc), "--in", str(small_csv),
                "--out", str(tmp_path / "o.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_predict_anfis_consequents_of_wrong_width_is_runtime_error(
    small_csv, anfis_doc, tmp_path, capsys
):
    payload = json.loads(anfis_doc)
    payload["consequents"] = [row[:-1] for row in payload["consequents"]]
    doc = tmp_path / "model.json"
    doc.write_text(json.dumps(payload))
    code = run(["predict", "--model", str(doc), "--in", str(small_csv),
                "--out", str(tmp_path / "o.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "consequents" in err


def test_predict_mlp_w1_with_an_extra_row_is_runtime_error(small_csv, tmp_path, capsys):
    model = mlp.init(mlp.MlpConfig(hidden_neurons=3))
    model.feature_constants = ((0.0, 1.0),) * len(model.input_columns)
    model.target_constants = (0.0, 100.0)
    payload = json.loads(model.to_json())
    payload["w1"].append(payload["w1"][0])
    doc = tmp_path / "model.json"
    doc.write_text(json.dumps(payload))
    code = run(["predict", "--model", str(doc), "--in", str(small_csv),
                "--out", str(tmp_path / "o.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "w1" in err


def test_predict_echoes_exactly_the_kept_rows(tmp_path):
    header = ("age_years,diameter_in,length_ft,material,breaks,install_year,"
              "wall_thickness_loss_pct,rul_years")
    kept = [
        "10,8,100,CastIron,0,2001,5,40",
        "20,8.0,250,CI,1,1991,12.5,30",    # alias material, 8.0 diameter
        "15,12,300,Steel,2,1996,7",         # short row: no rul_years cell
        "5,6,50,PVC,0,2006,1,60",
    ]
    invalid = "30,40,100,PVC,0,1981,5,20"  # diameter outside [4, 24]
    path = tmp_path / "mixed.csv"
    path.write_text("\n".join([header, kept[0], kept[1], invalid, "", kept[2], kept[3]]) + "\n")
    out = tmp_path / "pred.csv"
    assert run(["predict", "--builtin", "CI", "--in", str(path), "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header.split(",") + ["predicted_rul"]
    expected = [line.split(",") for line in kept]
    expected[2].append("")
    assert [row[:-1] for row in rows[1:]] == expected
    for row in rows[1:]:
        want, _ = predict_rul(builtin("CI"), float(row[0]), float(row[6]))
        assert float(row[-1]) == want


def test_predict_cuts_a_row_with_more_fields_than_the_header(tmp_path):
    header = ("age_years,diameter_in,length_ft,material,breaks,install_year,"
              "wall_thickness_loss_pct,rul_years")
    rows = ["10,8,100,CastIron,0,2001,5,40,extra,cells", "", "20,8,250,CI,1,1991,12.5,30"]
    path = tmp_path / "wide.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    out = tmp_path / "pred.csv"
    assert run(["predict", "--builtin", "CI", "--in", str(path), "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        echoed = [row[:-1] for row in csv.reader(fh)][1:]
    assert echoed == [rows[0].split(",")[:8], rows[2].split(",")]


def test_predict_builtin_constant_term(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text(
        "age_years,diameter_in,length_ft,material,breaks,install_year,"
        "wall_thickness_loss_pct,rul_years\n"
        "0,8,100,CastIron,0,2011,0,\n"
    )
    out = tmp_path / "pred.csv"
    assert run(["predict", "--builtin", "CI", "--in", str(path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].endswith("predicted_rul")
    assert float(lines[1].rsplit(",", 1)[1]) == pytest.approx(48.163, abs=1e-9)


def test_predict_model_round_trip_matches_training_metrics(small_csv, tmp_path):
    out_dir = tmp_path / "ann"
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps([
        {
            "input_columns": ["material", "wall_thickness_loss_pct",
                               "length_ft", "diameter_in", "age_years"],
            "hidden_neurons": 4,
            "epochs": 40,
            "seed": 7,
            "name": "rt",
        }
    ]))
    assert run(["train-ann", "--in", str(small_csv), "--seed", "9",
                "--registry", str(registry), "--out-dir", str(out_dir)]) == 0
    pred_path = tmp_path / "pred.csv"
    assert run(["predict", "--model", str(out_dir / "ann_best_model.json"),
                "--in", str(small_csv), "--out", str(pred_path)]) == 0

    # recompute MAE over the whole file and compare with the per-phase report
    rows = pred_path.read_text().splitlines()[1:]
    predicted, actual = [], []
    for row in rows:
        cells = row.split(",")
        actual.append(float(cells[7]))
        predicted.append(float(cells[8]))
    whole_mae = float(np.abs(np.array(predicted) - np.array(actual)).mean())

    metrics_rows = (out_dir / "ann_metrics.csv").read_text().splitlines()[1:]
    phase_mae = {}
    for line in metrics_rows:
        cells = line.split(",")
        phase_mae[cells[1]] = float(cells[2])
    # the dataset-wide MAE is a 75/10/15 blend of the phase MAEs
    blend = 0.75 * phase_mae["train"] + 0.10 * phase_mae["validation"] + 0.15 * phase_mae["test"]
    assert whole_mae == pytest.approx(blend, rel=1e-9)


def test_predict_schema_mismatch(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("age_years,material\n10,CastIron\n")
    code = run(["predict", "--builtin", "CI", "--in", str(bad),
                "--out", str(tmp_path / "o.csv")])
    assert code == 1
    assert "column" in capsys.readouterr().err


def test_fit_regression_outputs(small_csv, tmp_path):
    out_dir = tmp_path / "reg"
    assert run(["fit-regression", "--in", str(small_csv), "--degree", "2",
                "--out-dir", str(out_dir)]) == 0
    table = (out_dir / "deterioration_models.txt").read_text()
    for tag in ("CI", "DI", "AC", "Steel"):
        assert tag in table
        model = json.loads((out_dir / f"deterioration_{tag}.json").read_text())
        assert model["r2_fit"] >= 0.7


@pytest.mark.parametrize("greedy", [False, True])
def test_fit_regression_manifest_lists_the_selection(small_csv, tmp_path, greedy):
    out_dir = tmp_path / "reg"
    assert run(["fit-regression", "--in", str(small_csv), "--degree", "3", "--greedy",
                str(greedy).lower(), "--out-dir", str(out_dir)]) == 0
    selection = json.loads((out_dir / "fit_regression_manifest.json").read_text())["selection"]
    assert list(selection) == ["CI", "DI", "AC", "Steel"]
    for tag, steps in selection.items():
        model = json.loads((out_dir / f"deterioration_{tag}.json").read_text())
        assert [step["term"] for step in steps] == [
            regression.monomial(a, w) or "1" for _, a, w in model["terms"]]
        r2s = [step["r2"] for step in steps]
        assert r2s[0] == 0.0 and r2s == sorted(r2s)
        assert r2s[-1] == pytest.approx(model["r2_fit"], abs=1e-9)
    if not greedy:
        assert all(len(steps) == 10 for steps in selection.values())


def test_fit_regression_table_lines_up_every_r2_under_the_header(small_csv, tmp_path, capsys):
    out_dir = tmp_path / "reg"
    assert run(["fit-regression", "--in", str(small_csv), "--degree", "3",
                "--out-dir", str(out_dir)]) == 0
    table = (out_dir / "deterioration_models.txt").read_text()
    assert capsys.readouterr().out.startswith(table)
    header, rule, *rows = table.splitlines()
    assert rule == "-" * len(header) and header.endswith("R2")
    assert len(rows) == 4
    # a degree-3 fit of the full basis writes formulas longer than 72 characters
    assert max(len(row) for row in rows) > 10 + 72 + 8
    for row in rows:
        tag = row.split()[0]
        r2 = json.loads((out_dir / f"deterioration_{tag}.json").read_text())["r2_fit"]
        assert len(row) == len(header) and row.endswith(f"{r2:.3f}"), row


def _write_ci_rows(path, rows):
    """A CSV file of CI records, each row (age, wall loss, rul)."""
    lines = [f"{age},6,100,CI,1,{DEFAULT_REFERENCE_YEAR - age},{wtl},{rul}"
             for age, wtl, rul in rows]
    path.write_bytes(inventory_bytes(*lines))


@pytest.mark.parametrize("degree", ["2", "3"])
def test_fit_regression_on_a_constant_wall_loss_flags_a_degenerate_fit(tmp_path, degree):
    # W is the intercept times 20, so the full basis is rank-deficient
    path = tmp_path / "pipes.csv"
    _write_ci_rows(path, [(5 + 3 * i, 20, 60 - i) for i in range(30)])
    out_dir = tmp_path / "reg"
    assert run(["fit-regression", "--in", str(path), "--degree", degree,
                "--out-dir", str(out_dir)]) == 0
    document = (out_dir / "deterioration_CI.json").read_text()
    assert '"degenerate": true' in document
    # and the fit has no wall-loss term to spread the intercept over
    assert not any(w > 0 for _, _, w in json.loads(document)["terms"])


def test_the_greedy_search_writes_the_same_files_in_two_processes(small_csv, tmp_path):
    # each run is its own interpreter, with its own hash seed
    src = Path(regression.__file__).parents[1]
    for run_id in ("1", "2"):
        argv = ["fit-regression", "--in", str(small_csv), "--greedy", "--degree", "3",
                "--out-dir", str(tmp_path / f"reg{run_id}")]
        subprocess.run([sys.executable, "-c", "import sys; from pipelife.cli import main; "
                        "sys.exit(main(sys.argv[1:]))", *argv], check=True,
                       env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": run_id})
    written = sorted(p.name for p in (tmp_path / "reg1").glob("deterioration_*"))
    assert written and written == sorted(p.name for p in (tmp_path / "reg2").glob("deterioration_*"))
    for name in written:
        assert (tmp_path / "reg1" / name).read_bytes() == (tmp_path / "reg2" / name).read_bytes()


def test_fit_regression_greedy_tie_goes_to_the_earlier_term(tmp_path):
    # on two records every candidate term reaches R² = 1; A is first in basis order
    path = tmp_path / "pipes.csv"
    _write_ci_rows(path, [(30, 20, 30), (55, 45.5, 12)])
    out_dir = tmp_path / "reg"
    assert run(["fit-regression", "--in", str(path), "--degree", "2", "--greedy",
                "--out-dir", str(out_dir)]) == 0
    model = json.loads((out_dir / "deterioration_CI.json").read_text())
    assert [(a, w) for _, a, w in model["terms"]] == [(0, 0), (1, 0)]
    selection = json.loads((out_dir / "fit_regression_manifest.json").read_text())["selection"]
    assert [step["term"] for step in selection["CI"]] == ["1", "A"]


def test_fit_regression_degree_4_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["fit-regression", "--in", "x.csv", "--degree", "4", "--out-dir", "y"])
    assert exc.value.code == 2


def test_config_file_provides_defaults(tmp_path, small_csv, capsys):
    config = tmp_path / "pipelife.conf"
    config.write_text(f"in={small_csv}\njson=true\n")
    assert run(["--config", str(config), "stats"]) == 0
    assert json.loads(capsys.readouterr().out)


def test_config_file_with_a_byte_order_mark_reads_its_first_line(tmp_path, small_csv, capsys):
    # Notepad and Excel save UTF-8 text with a leading mark
    config = tmp_path / "pipelife.conf"
    config.write_bytes(b"\xef\xbb\xbf" + f"in={small_csv}\njson=true\n".encode("utf-8"))
    assert run(["--config", str(config), "stats"]) == 0
    assert json.loads(capsys.readouterr().out)


def test_cli_reproducibility(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        assert run(["generate", "--n", "400", "--seed", "11", "--out", str(out)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    report_a = out_a.with_suffix(".csv.report.txt").read_bytes()
    report_b = out_b.with_suffix(".csv.report.txt").read_bytes()
    assert report_a == report_b
    dirs = (tmp_path / "anfis_a", tmp_path / "anfis_b")
    for out_dir in dirs:
        assert run(["train-anfis", "--in", str(out_a), "--seed", "11",
                    "--inputs", "age_years,wall_thickness_loss_pct,diameter_in",
                    "--mfs", "3", "--epochs", "2", "--out-dir", str(out_dir)]) == 0
    for out_dir in dirs:
        assert run(["predict", "--model", str(out_dir / "anfis_model.json"), "--in", str(out_a),
                    "--out", str(out_dir / "predicted.csv")]) == 0
    for name in ("anfis_model.json", "anfis_rmse.csv", "anfis_sensitivity.csv",
                 "anfis_contour.csv", "predicted.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps([{
        "input_columns": ["material", "length_ft", "diameter_in", "age_years"],
        "hidden_neurons": 5, "activation": "tanh", "epochs": 3, "seed": 1, "name": "tanh_h5"}]))
    dirs = (tmp_path / "ann_a", tmp_path / "ann_b")
    for out_dir in dirs:
        assert run(["train-ann", "--in", str(out_a), "--registry", str(registry),
                    "--out-dir", str(out_dir)]) == 0
    for name in ("ann_metrics.csv", "ann_best_model.json", "ann_scatter.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_env_seed_default(tmp_path, monkeypatch):
    monkeypatch.setenv("PIPELIFE_SEED", "77")
    out_env = tmp_path / "env.csv"
    assert run(["generate", "--n", "50", "--out", str(out_env)]) == 0
    out_flag = tmp_path / "flag.csv"
    assert run(["generate", "--n", "50", "--seed", "77", "--out", str(out_flag)]) == 0
    assert out_env.read_bytes() == out_flag.read_bytes()


def test_predict_output_reingests(small_csv, tmp_path):
    out = tmp_path / "pred.csv"
    assert run(["predict", "--builtin", "DI", "--in", str(small_csv),
                "--out", str(out)]) == 0
    dataset, report = ingest_csv(out, DEFAULT_REFERENCE_YEAR)
    assert report.rows_dropped == 0
    assert len(dataset) == 600


@pytest.fixture(scope="module")
def dirty_csv(small_csv, tmp_path_factory):
    """small_csv with invalid cells, non-finite numbers among them, in some rows."""
    lines = small_csv.read_text().splitlines()
    col = {name: j for j, name in enumerate(lines[0].split(","))}
    edits = [("length_ft", "nan"), ("breaks", "inf"), ("rul_years", "nan"),
             ("length_ft", "-inf"), ("diameter_in", "40"), ("material", "Clay"),
             ("wall_thickness_loss_pct", "")]
    for i, (name, value) in enumerate(edits * 3):
        cells = lines[1 + 17 * (i + 1)].split(",")
        cells[col[name]] = value
        lines[1 + 17 * (i + 1)] = ",".join(cells)
    path = tmp_path_factory.mktemp("dirty") / "dirty.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


CLEANING_KEYS = ["rows_read", "rows_kept", "rows_dropped", "drops_by_column"]


def test_json_outputs_keep_their_key_order(small_csv, tmp_path, capsys):
    # these blocks are written from dataclass fields, so their key order is
    # the order of the fields; reordering a field changes the documents
    assert run(["stats", "--json", "--in", str(small_csv)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["cleaning", "summary", "significance"]
    assert list(payload["cleaning"]) == CLEANING_KEYS
    assert list(payload["summary"]) == list(CSV_COLUMNS)
    for summary in payload["summary"].values():
        assert list(summary) == ["min", "max", "mean", "std", "mode"]
    assert list(payload["significance"]) == ["alpha", "features"]
    for feature in payload["significance"]["features"]:
        assert list(feature) == ["feature", "pearson_r", "anova_f", "anova_p", "t_stat", "t_p",
                                 "significant", "note"]
    out_dir = tmp_path / "fit"
    assert run(["fit-regression", "--in", str(small_csv), "--out-dir", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "fit_regression_manifest.json").read_text())
    assert list(manifest["cleaning"]) == CLEANING_KEYS
    assert list(mlp.MlpConfig().to_dict()) == ["input_columns", "hidden_neurons", "activation",
                                                "epochs", "restarts", "seed", "name"]


def test_stats_drops_non_finite_cells(dirty_csv, capsys):
    assert run(["stats", "--json", "--in", str(dirty_csv)]) == 0
    cleaning = json.loads(capsys.readouterr().out)["cleaning"]
    assert cleaning["rows_dropped"] == 21
    assert cleaning["drops_by_column"] == {
        "length_ft": 6, "breaks": 3, "rul_years": 3, "diameter_in": 3,
        "material": 3, "wall_thickness_loss_pct": 3,
    }


def test_manifests_carry_the_cleaning_report(dirty_csv, tmp_path, capsys):
    assert run(["stats", "--json", "--in", str(dirty_csv)]) == 0
    expected = json.loads(capsys.readouterr().out)["cleaning"]
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps([{"input_columns": ["age_years"], "hidden_neurons": 2,
                                     "epochs": 2}]))
    src = ["--in", str(dirty_csv)]
    runs = {
        "train_ann": ["train-ann", "--registry", str(registry)] + src,
        "train_anfis": ["train-anfis", "--inputs", "age_years,wall_thickness_loss_pct",
                        "--epochs", "1"] + src,
        "predict": ["predict", "--builtin", "CI", "--out", str(tmp_path / "predict" / "p.csv")]
        + src,
        "fit_regression": ["fit-regression"] + src,
    }
    for command, argv in runs.items():
        out_dir = tmp_path / command
        if command != "predict":
            argv = argv + ["--out-dir", str(out_dir)]
        assert run(argv) == 0, command
        name = "p" if command == "predict" else command  # named after --out p.csv
        manifest = json.loads((out_dir / f"{name}_manifest.json").read_text())
        assert manifest["cleaning"] == expected, command


# a manifest-writing run per command; {csv}, {registry}, {model} and {out}
# stand for the files the test makes, and the reading commands keep the
# generator's rows (age + install year = 2011) at reference year 2012
MANIFEST_RUNS = {
    "generate": ["generate", "--n", "40", "--seed", "3", "--out", "{out}/gen.csv"],
    "train-ann": ["train-ann", "--in", "{csv}", "--reference-year", "2012", "--seed", "2",
                  "--registry", "{registry}", "--out-dir", "{out}"],
    "train-anfis": ["train-anfis", "--in", "{csv}", "--reference-year", "2012",
                    "--inputs", "age_years,wall_thickness_loss_pct", "--mfs", "2",
                    "--epochs", "1", "--out-dir", "{out}"],
    "predict-model": ["predict", "--in", "{csv}", "--reference-year", "2012",
                      "--model", "{model}", "--out", "{out}/p.csv"],
    "predict-builtin": ["predict", "--in", "{csv}", "--reference-year", "2012",
                        "--builtin", "CI", "--out", "{out}/p.csv"],
    "fit-regression": ["fit-regression", "--in", "{csv}", "--reference-year", "2012",
                       "--greedy", "--out-dir", "{out}"],
}


@pytest.mark.parametrize("case", MANIFEST_RUNS)
def test_the_manifest_records_every_parsed_flag_and_digests_every_file_flag(
        case, small_csv, anfis_doc, tmp_path):
    registry, model = tmp_path / "registry.json", tmp_path / "model.json"
    registry.write_text(json.dumps([{"input_columns": ["age_years"], "hidden_neurons": 2,
                                     "epochs": 2}]))
    model.write_text(anfis_doc)
    out = tmp_path / "out"
    argv = [arg.format(csv=small_csv, registry=registry, model=model, out=out)
            for arg in MANIFEST_RUNS[case]]
    assert run(argv) == 0
    command = argv[0]
    # generate and predict name the manifest after their --out file
    name = (Path(argv[argv.index("--out") + 1]).stem if "--out" in argv
            else command.replace("-", "_"))
    manifest = json.loads((out / f"{name}_manifest.json").read_text())
    assert manifest["command"] == command
    parsed = vars(build_parser().parse_args(argv))
    assert manifest["arguments"] == {"in" if key == "infile" else key: value
                                     for key, value in parsed.items()
                                     if key not in ("func", "command", "config")}
    if command != "generate":
        assert manifest["arguments"]["reference_year"] == 2012
        assert manifest["cleaning"]["rows_dropped"] == 0
    files = [argv[i + 1] for i, arg in enumerate(argv) if arg in ("--in", "--model", "--registry")]
    assert manifest["input_digests"] == {
        path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in files}


def test_two_predicts_into_one_directory_keep_both_manifests(small_csv, mlp_doc, tmp_path,
                                                            monkeypatch):
    # the README's two predict runs, each writing its --out file into "."
    monkeypatch.chdir(tmp_path)
    model = tmp_path / "model.json"
    model.write_text(mlp_doc)
    assert run(["predict", "--model", str(model), "--in", str(small_csv),
                "--out", "predicted.csv"]) == 0
    assert run(["predict", "--builtin", "CI", "--in", str(small_csv),
                "--out", "ci_predicted.csv"]) == 0
    assert sorted(path.name for path in tmp_path.glob("*_manifest.json")) == [
        "ci_predicted_manifest.json", "predicted_manifest.json"]
    for stem, flag, value in (("predicted", "model", str(model)),
                              ("ci_predicted", "builtin", "CI")):
        manifest = json.loads((tmp_path / f"{stem}_manifest.json").read_text())
        assert manifest["outputs"] == [f"{stem}.csv"]
        assert manifest["arguments"][flag] == value


def csv_module_text(rows) -> str:
    text = io.StringIO(newline="")
    csv.writer(text).writerows(rows)
    return text.getvalue()


def read_csv_text(path) -> str:
    with open(path, newline="", encoding="utf-8") as fh:
        return fh.read()


def test_generate_and_predict_write_what_the_csv_module_writes(small_csv, anfis_doc, tmp_path):
    # pipelife writes CSV text itself; each file equals the csv module's re-serialization
    model = tmp_path / "model.json"
    model.write_text(anfis_doc)
    out = tmp_path / "predicted.csv"
    assert run(["predict", "--model", str(model), "--in", str(small_csv), "--out", str(out)]) == 0
    for written in (small_csv, out):
        text = read_csv_text(written)
        assert text == csv_module_text(csv.reader(io.StringIO(text, newline=""))), written


def _dirty_copy(header, rows):
    """A byte-order mark, a blank line, a short row, a long row, a quoted
    material, a wall loss that is not finite and an empty length."""
    rows[1] = rows[1][:3]
    rows[2] += ["extra", "7"]
    rows[3][3] = '"CI"'
    rows[4][6] = "nan"
    rows[5][2] = ""
    body = [",".join(row) for row in rows]
    body.insert(1, "")
    return "\ufeff" + "\r\n".join([header] + body) + "\r\n"


def _blocks_copy(header, rows):
    """Three 1,024-row blocks with invalid rows in each."""
    rows[100][3] = "Unobtainium"
    rows[1100][6] = "nan"
    rows[1500][2] = ""
    rows[2500][1] = "30"
    return "\r\n".join([header] + [",".join(row) for row in rows]) + "\r\n"


# rows generated, the edited copy, its cleaning (rows read, rows kept, drops
# by column in file order) and the data rows it drops
EDITED_FILES = {
    "dirty": (50, _dirty_copy, (50, 47, [("material", 1), ("wall_thickness_loss_pct", 1),
                                         ("length_ft", 1)]), {1, 4, 5}),
    "blocks": (3000, _blocks_copy, (3000, 2996, [("material", 1), ("wall_thickness_loss_pct", 1),
                                                 ("length_ft", 1), ("diameter_in", 1)]),
               {100, 1100, 1500, 2500}),
}


@pytest.mark.parametrize("case", EDITED_FILES)
def test_predict_echoes_the_kept_rows_of_an_edited_file(case, tmp_path, capsys):
    n, edit, cleaning, dropped = EDITED_FILES[case]
    generated = tmp_path / "pipes.csv"
    assert run(["generate", "--n", str(n), "--seed", "0", "--out", str(generated)]) == 0
    header, *lines = generated.read_text().splitlines()
    path = tmp_path / f"{case}.csv"
    path.write_bytes(edit(header, [line.split(",") for line in lines]).encode("utf-8"))
    capsys.readouterr()
    assert run(["stats", "--json", "--in", str(path)]) == 0
    got = json.loads(capsys.readouterr().out)["cleaning"]
    assert (got["rows_read"], got["rows_kept"], list(got["drops_by_column"].items())) == cleaning
    out = tmp_path / "predicted.csv"
    assert run(["predict", "--builtin", "CI", "--in", str(path), "--out", str(out)]) == 0
    # the output is what the csv module writes, and it echoes the kept rows
    # as csv.reader reads them, padded or cut to the header's width
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header, *rows = [row for row in csv.reader(fh) if row]
    text = read_csv_text(out)
    written = list(csv.reader(io.StringIO(text, newline="")))
    assert text == csv_module_text(written)
    width = len(header)
    kept = [(row + [""] * width)[:width] for i, row in enumerate(rows) if i not in dropped]
    assert written[0] == header + ["predicted_rul"]
    assert [row[:-1] for row in written[1:]] == kept


def test_train_anfis_negative_epochs_is_runtime_error(small_csv, tmp_path, capsys):
    out_dir = tmp_path / "anfis"
    for epochs in ("-1", "0"):
        code = run(["train-anfis", "--in", str(small_csv), "--epochs", epochs,
                    "--out-dir", str(out_dir)])
        assert code == 1
        assert_one_error_line(capsys, "epochs must be >= 1")
        assert not out_dir.exists()


@pytest.mark.parametrize("document", [
    '[{"input_columns": ["age_years"], "hidden_neu',
    '[{"input_columns": ["age_years"], "epochs": 2}]',
    # an empty list names no configs; it is not the default registry
    '[]',
], ids=["truncated", "no_hidden_neurons", "empty"])
def test_train_ann_malformed_registry_is_runtime_error(small_csv, tmp_path, capsys, document):
    registry = tmp_path / "registry.json"
    registry.write_text(document)
    code = run(["train-ann", "--in", str(small_csv), "--registry", str(registry),
                "--out-dir", str(tmp_path / "ann")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "ann").exists()


@pytest.mark.parametrize("inputs", ["age_years", ""])
def test_train_anfis_needs_two_inputs(small_csv, tmp_path, capsys, inputs):
    out_dir = tmp_path / "anfis"
    # checked before the input is read: an absent file gives the same error
    for infile in (small_csv, tmp_path / "absent.csv"):
        code = run(["train-anfis", "--in", str(infile), "--inputs", inputs,
                    "--out-dir", str(out_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "at least two --inputs" in err
        assert len(err.strip().splitlines()) == 1
        assert not out_dir.exists()


def test_train_anfis_repeated_input_is_runtime_error(small_csv, tmp_path, capsys):
    out_dir = tmp_path / "anfis"
    code = run(["train-anfis", "--in", str(small_csv), "--inputs", "age_years,age_years",
                "--epochs", "1", "--out-dir", str(out_dir)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "repeat" in err and len(err.strip().splitlines()) == 1
    assert not out_dir.exists()


def test_train_anfis_refuses_the_target_as_an_input(small_csv, tmp_path, capsys):
    out_dir = tmp_path / "anfis"
    code = run(["train-anfis", "--in", str(small_csv), "--inputs", "age_years,rul_years",
                "--epochs", "1", "--out-dir", str(out_dir)])
    assert code == 1
    assert_one_error_line(capsys, "rul_years cannot be an input")
    assert not out_dir.exists()


@pytest.mark.parametrize("rate", ["-1", "nan", "inf"])
def test_train_anfis_refuses_a_learning_rate_that_is_negative_or_not_finite(
        small_csv, tmp_path, capsys, rate):
    out_dir = tmp_path / "anfis"
    code = run(["train-anfis", "--in", str(small_csv), "--inputs",
                "age_years,wall_thickness_loss_pct", "--epochs", "1",
                f"--learning-rate={rate}", "--out-dir", str(out_dir)])
    assert code == 1
    assert_one_error_line(capsys, "learning_rate must be finite and >= 0")
    assert not out_dir.exists()


@pytest.mark.parametrize("entry, message", [
    ({"input_columns": ["age_years", "rul_years"]}, "rul_years cannot be an input"),
    ({"input_columns": ["age_years"], "restarts": "x"}, "malformed document"),
], ids=["target_as_input", "restarts_not_a_number"])
def test_train_ann_refuses_a_bad_registry_entry(small_csv, tmp_path, capsys, entry, message):
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps([dict(entry, hidden_neurons=2, epochs=1)]))
    out_dir = tmp_path / "ann"
    code = run(["train-ann", "--in", str(small_csv), "--registry", str(registry),
                "--out-dir", str(out_dir)])
    assert code == 1
    assert_one_error_line(capsys, message)
    assert not out_dir.exists()


@pytest.mark.parametrize("field, value", [
    ("hidden_neurons", 2.7), ("epochs", 2.5), ("restarts", 1.5), ("seed", True),
])
def test_train_ann_refuses_a_registry_count_that_is_not_whole(
        small_csv, tmp_path, capsys, field, value):
    registry = tmp_path / "registry.json"
    entry = {"input_columns": ["age_years"], "hidden_neurons": 2, "epochs": 1}
    registry.write_text(json.dumps([dict(entry, **{field: value})]))
    out_dir = tmp_path / "ann"
    code = run(["train-ann", "--in", str(small_csv), "--registry", str(registry),
                "--out-dir", str(out_dir)])
    assert code == 1
    assert_one_error_line(capsys, f"{field} must be a whole number")
    assert not out_dir.exists()


def test_predict_reads_its_input_once(small_csv, tmp_path, monkeypatch):
    readers = []
    make_reader = csv.reader

    def counting_reader(fh, *args, **kwargs):
        readers.append(getattr(fh, "name", None))
        return make_reader(fh, *args, **kwargs)

    monkeypatch.setattr(csv, "reader", counting_reader)
    assert run(["predict", "--builtin", "CI", "--in", str(small_csv),
                "--out", str(tmp_path / "p.csv")]) == 0
    assert readers.count(str(small_csv)) == 1


@pytest.fixture
def latin1_csv(small_csv, tmp_path):
    """small_csv's header and first two rows, the second's material spelled
    with a Latin-1 e-acute."""
    with open(small_csv, newline="") as fh:
        header, first, second = list(csv.reader(fh))[:3]
    second[header.index("material")] = "Caf\xe9"
    path = tmp_path / "latin1.csv"
    path.write_bytes("".join(",".join(row) + "\n" for row in (header, first, second))
                     .encode("latin-1"))
    return path


def assert_one_error_line(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1, err
    for fragment in fragments:
        assert fragment in err


def test_stats_on_a_file_that_is_not_utf8_is_runtime_error(latin1_csv, capsys):
    assert run(["stats", "--in", str(latin1_csv)]) == 1
    assert_one_error_line(capsys, str(latin1_csv), "UTF-8", "0xe9")


@pytest.fixture
def huge_field_csv(small_csv, tmp_path):
    """small_csv's header and first row, then a row whose material cell is
    one character longer than csv.field_size_limit()."""
    with open(small_csv, newline="") as fh:
        header, first, second = list(csv.reader(fh))[:3]
    second[header.index("material")] = "x" * (csv.field_size_limit() + 1)
    path = tmp_path / "huge.csv"
    path.write_text("".join(",".join(row) + "\n" for row in (header, first, second)))
    return path


def test_stats_on_a_field_over_the_csv_limit_is_runtime_error(huge_field_csv, capsys):
    assert run(["stats", "--in", str(huge_field_csv)]) == 1
    assert_one_error_line(capsys, str(huge_field_csv), "field larger than field limit")


def test_predict_on_a_field_over_the_csv_limit_is_runtime_error(huge_field_csv, tmp_path, capsys):
    out = tmp_path / "out" / "p.csv"
    code = run(["predict", "--builtin", "CI", "--in", str(huge_field_csv), "--out", str(out)])
    assert code == 1
    assert_one_error_line(capsys, str(huge_field_csv), "field larger than field limit")
    assert not out.parent.exists()


def test_predict_reads_a_file_with_a_byte_order_mark_as_without(small_csv, tmp_path):
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + small_csv.read_bytes())
    outputs = []
    for source in (small_csv, marked):
        out = tmp_path / source.stem / "predicted.csv"
        assert run(["predict", "--builtin", "CI", "--in", str(source), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[1].startswith(b"age_years,")


def test_predict_with_a_model_that_is_not_utf8_is_runtime_error(small_csv, anfis_doc, tmp_path, capsys):
    doc = tmp_path / "model.json"
    doc.write_bytes(anfis_doc.replace('"inputs"', '"inputs\xe9"', 1).encode("latin-1"))
    code = run(["predict", "--model", str(doc), "--in", str(small_csv),
                "--out", str(tmp_path / "o.csv")])
    assert code == 1
    assert_one_error_line(capsys, str(doc), "UTF-8")
    assert not (tmp_path / "o.csv").exists()


def test_config_file_that_is_not_utf8_is_runtime_error(small_csv, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_bytes(f"in={small_csv}\n# caf\xe9\n".encode("latin-1"))
    assert run(["--config", str(config), "stats"]) == 1
    assert_one_error_line(capsys, "0xe9")


@pytest.fixture(scope="module")
def mlp_doc():
    model = mlp.init(mlp.MlpConfig(hidden_neurons=3))
    model.feature_constants = ((0.0, 1.0),) * len(model.input_columns)
    model.target_constants = (0.0, 100.0)
    return model.to_json()


def _set(*path_and_value):
    """An edit that sets payload[path[0]][path[1]]... to the value."""
    *path, value = path_and_value

    def edit(payload):
        for key in path[:-1]:
            payload = payload[key]
        payload[path[-1]] = value
    return edit


@pytest.mark.parametrize("doc_name, edit, fragment", [
    ("mlp_doc", _set("config", "activation", "relu"), "activation"),
    ("mlp_doc", _set("norm_mode", "bogus"), "norm_mode"),
    ("anfis_doc", _set("norm_mode", "bogus"), "norm_mode"),
    ("mlp_doc", _set("norm_mode", "zscore"), "norm_mode"),
    ("anfis_doc", _set("norm_mode", "zscore"), "norm_mode"),
    ("anfis_doc", _set("inputs", 0, []), "column names"),
    ("anfis_doc", _set("inputs", 0, "rul_years"), "cannot be an input"),
    ("anfis_doc", _set("inputs", 1, "age_years"), "repeat a column"),
    ("mlp_doc", _set("w1", 0, 0, float("nan")), "w1"),
    ("mlp_doc", _set("b2", float("inf")), "b2"),
    ("mlp_doc", _set("target_constants", 0, float("nan")), "target_constants"),
    ("mlp_doc", _set("feature_constants", 0, 1, float("-inf")), "feature_constants"),
    ("mlp_doc", _set("feature_constants", 1, [-1e308, 1e308]), "feature_constants"),
    ("anfis_doc", _set("target_constants", [50.0, 10.0]), "target_constants"),
    ("anfis_doc", _set("consequents", 0, 0, float("nan")), "consequents"),
    ("anfis_doc", _set("centers", 0, 0, float("inf")), "centers"),
    ("anfis_doc", _set("sigmas", 0, 0, 0.0), "sigmas"),
    ("anfis_doc", _set("sigmas", 1, 1, -0.5), "sigmas"),
], ids=["mlp_activation", "mlp_norm_mode", "anfis_norm_mode", "mlp_zscore", "anfis_zscore",
        "anfis_input_not_a_name", "anfis_target_as_input", "anfis_input_twice", "mlp_w1_nan",
        "mlp_b2_inf", "mlp_target_constant_nan", "mlp_feature_constant_inf",
        "mlp_feature_range_overflows", "anfis_target_min_above_max",
        "anfis_consequent_nan", "anfis_center_inf", "anfis_sigma_zero", "anfis_sigma_negative"])
def test_predict_rejects_an_invalid_model_document(small_csv, tmp_path, capsys, request,
                                                   doc_name, edit, fragment):
    payload = json.loads(request.getfixturevalue(doc_name))
    edit(payload)
    doc = tmp_path / "model.json"
    doc.write_text(json.dumps(payload))
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["predict", "--model", str(doc), "--in", str(small_csv), "--out", str(out)])
    assert code == 1
    assert_one_error_line(capsys, fragment)
    assert not out.exists()


@pytest.mark.parametrize("index", [0.5, 1.9, True], ids=["half", "one_point_nine", "true"])
def test_predict_refuses_an_anfis_rule_index_that_is_not_whole(small_csv, anfis_doc, tmp_path,
                                                                capsys, index):
    payload = json.loads(anfis_doc)
    payload["rules"][0][0] = index
    doc = tmp_path / "model.json"
    doc.write_text(json.dumps(payload))
    out = tmp_path / "o.csv"
    assert run(["predict", "--model", str(doc), "--in", str(small_csv), "--out", str(out)]) == 1
    assert_one_error_line(capsys, "whole number")
    assert not out.exists()


@pytest.fixture(scope="module")
def anfis_doc_3mf(small_csv, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("anfis_doc_3mf")
    assert run([
        "train-anfis", "--in", str(small_csv), "--seed", "4",
        "--inputs", "age_years,wall_thickness_loss_pct",
        "--mfs", "3", "--epochs", "1", "--out-dir", str(out_dir),
    ]) == 0
    return (out_dir / "anfis_model.json").read_text()


@pytest.mark.parametrize("case", NOT_THE_GRID)
def test_predict_refuses_anfis_rules_that_are_not_the_grid(small_csv, anfis_doc_3mf, tmp_path,
                                                           capsys, case):
    payload = json.loads(anfis_doc_3mf)
    payload["rules"] = NOT_THE_GRID[case](payload["rules"])
    doc = tmp_path / "model.json"
    doc.write_text(json.dumps(payload))
    out = tmp_path / "o.csv"
    assert run(["predict", "--model", str(doc), "--in", str(small_csv), "--out", str(out)]) == 1
    assert_one_error_line(capsys, "rules are not the 3^2 grid")
    assert not out.exists()


@pytest.mark.parametrize("doc_name, path, value", [
    ("anfis_doc", ("rules", 0, 0), 1e300),
    ("anfis_doc", ("rules", 0, 0), 10**30),
    ("anfis_doc", ("centers", 0, 0), 10**400),
    ("anfis_doc", ("target_constants", 0), 10**400),
    ("anfis_doc", ("feature_constants", 0, 0), 10**400),
    ("anfis_doc", ("target_constants", 0), "x"),
    ("mlp_doc", ("b2",), 10**400),
    ("mlp_doc", ("w2", 0), 10**400),
    ("mlp_doc", ("target_constants", 1), 10**400),
], ids=["anfis_rule_1e300", "anfis_rule_10_to_30", "anfis_center", "anfis_target_constant",
        "anfis_feature_constant", "anfis_target_constant_text", "mlp_b2", "mlp_w2",
        "mlp_target_constant"])
def test_a_document_value_that_is_not_a_float_is_runtime_error(small_csv, tmp_path, capsys, request,
                                                             doc_name, path, value):
    payload = json.loads(request.getfixturevalue(doc_name))
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(payload))
    out = tmp_path / "out"
    argv = ["predict", "--model", str(doc), "--in", str(small_csv), "--out", str(out / "o.csv")]
    assert run(argv) == 1
    assert_one_error_line(capsys)
    assert not out.exists()


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny") / "tiny.csv"
    assert run(["generate", "--n", "40", "--seed", "3", "--out", str(path)]) == 0
    return str(path)


# subcommand: (its flags, the KEY=VALUE settings every run gives it, None
# standing for the input file); outputs are written relative to the working
# directory
CONFIGURABLE = {
    "generate": ({"--n", "--seed", "--out"}, {"n": "30", "out": "gen.csv"}),
    "stats": ({"--in", "--json", "--reference-year"}, {"in": None}),
    "fit-regression": ({"--in", "--degree", "--greedy", "--out-dir", "--reference-year"},
                       {"in": None, "out_dir": "reg"}),
    "predict": ({"--in", "--model", "--builtin", "--out", "--reference-year"},
                {"in": None, "builtin": "CI", "out": "pred.csv"}),
    "train-anfis": ({"--in", "--inputs", "--mfs", "--epochs", "--out-dir"},
                    {"in": None, "inputs": "age_years,wall_thickness_loss_pct",
                     "epochs": "0", "out_dir": "anfis"}),
}
KEYS = ["n", "seed", "out", "in", "json", "reference_year", "reference-year", "degree",
        "greedy", "out_dir", "out-dir", "model", "builtin", "mfs", "inputs", "bogus"]
VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats(-5, 50).map(repr),
    st.sampled_from(["", "true", "false", "TRUE", "yes", "XX", "CI", "Steel", "2024", "2.5"]),
    st.text(string.ascii_letters + string.digits + "-_,", min_size=1, max_size=6),
)


def _outcome(argv, cwd):
    """(exit code, stdout, stderr, {file: content}) of main(argv) run in cwd."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(stdout), redirect_stderr(stderr):
        mp.chdir(cwd)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    files = {}
    for path in sorted(Path(cwd).rglob("*")):
        if path.is_file():
            content = path.read_bytes()
            if path.name.endswith("_manifest.json"):
                content = json.loads(content)
                del content["duration_seconds"]
            files[str(path.relative_to(cwd))] = content
    return code, stdout.getvalue(), stderr.getvalue(), files


@settings(deadline=None, max_examples=60)
@given(command=st.sampled_from(["generate", "stats", "fit-regression", "predict"]),
       key=st.sampled_from(KEYS), value=VALUES,
       env_seed=st.sampled_from([None, "7", "-2", "", "abc", "1.5"]))
@example(command="generate", key="out", value="2024", env_seed=None)
@example(command="fit-regression", key="degree", value="4", env_seed=None)
@example(command="generate", key="seed", value="5", env_seed="abc")
@example(command="generate", key="n", value="20", env_seed="abc")
@example(command="train-anfis", key="mfs", value="2.5", env_seed=None)
@example(command="predict", key="builtin", value="XX", env_seed=None)
@example(command="stats", key="json", value="yes", env_seed=None)
def test_a_config_line_behaves_like_its_flag(tiny_csv, command, key, value, env_seed):
    flags, base = CONFIGURABLE[command]
    lines = {k: tiny_csv if v is None else v for k, v in base.items()}
    flag = "--" + key.replace("_", "-")
    explicit = [f"--{k.replace('_', '-')}={v}" for k, v in lines.items()]
    explicit += [f"{flag}={value}"] if flag in flags else []
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
        if env_seed is None:
            mp.delenv("PIPELIFE_SEED", raising=False)
        else:
            mp.setenv("PIPELIFE_SEED", env_seed)
        config = Path(root) / "run.conf"
        config.write_text("".join(f"{k}={v}\n" for k, v in lines.items()) + f"{key}={value}\n")
        via_config, via_flags = Path(root) / "config", Path(root) / "flags"
        via_config.mkdir()
        via_flags.mkdir()
        assert (_outcome(["--config", str(config), command], via_config)
                == _outcome([command] + explicit, via_flags))


# valid inventory rows at the default reference year, in CSV_COLUMNS order
VALID_ROWS = (
    ("30", "6", "100", "CI", "1", str(DEFAULT_REFERENCE_YEAR - 30), "20", "30"),
    ("55", "12", "2500", "DuctileIron", "4", str(DEFAULT_REFERENCE_YEAR - 55), "45.5", "12"),
    ("3", "24", "80", "Steel", "0", str(DEFAULT_REFERENCE_YEAR - 3), "1", "70"),
)
ODD_CELLS = st.sampled_from(["", "nan", "inf", "9e15", "1e308", "-1e308", "1e400", "-0", "CI", "x",
                             '"', "\0"])


def inventory_bytes(*rows):
    """A CSV file of the real header and the given lines."""
    return "".join(line + "\n" for line in (",".join(CSV_COLUMNS),) + rows).encode()


@st.composite
def inventory_texts(draw):
    """Valid rows with up to two cells each replaced by an odd one."""
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        cells = list(draw(st.sampled_from(VALID_ROWS)))
        for j in draw(st.lists(st.integers(0, len(cells) - 1), max_size=2)):
            cells[j] = draw(ODD_CELLS)
        rows.append(",".join(cells))
    return inventory_bytes(*rows)


@settings(deadline=None, max_examples=150)
@given(command=st.sampled_from([["stats"], ["stats", "--json"],
                                ["predict", "--builtin", "CI", "--out", "pred.csv"],
                                ["fit-regression", "--out-dir", "reg"]]),
       content=st.one_of(st.binary(max_size=300), inventory_texts()))
@example(command=["predict", "--builtin", "CI", "--out", "pred.csv"],
         content=inventory_bytes("30,6,100,CI,1,1981,20,30", "1e308,6,100,CI,1,-1e308,20,30"))
@example(command=["stats"], content=inventory_bytes("1e308,6,100,CI,1,1e308,20,30"))
@example(command=["fit-regression", "--out-dir", "reg"],
         content=inventory_bytes(*["30,6,100,CI,1,1981,20,30"] * 6))
@example(command=["stats"],
         content=inventory_bytes("30,6,100,CI,1,1981,20,30", "30,6,1e308,CI,1,1981,20,30"))
def test_a_command_on_any_input_file_exits_cleanly(command, content):
    """Exit 0, or exit 1 or 2 with one error line; a numpy RuntimeWarning,
    which would reach the user's stderr, fails the test."""
    with tempfile.TemporaryDirectory() as root, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        (Path(root) / "in.csv").write_bytes(content)
        code, _, err, _ = _outcome(command[:1] + ["--in", "in.csv"] + command[1:], root)
    if code:
        assert code in (1, 2)
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1, err
