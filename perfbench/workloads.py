"""Workload definitions, input set-up, and the checks on every output.

Each workload is the same analyst session, the eight CLI operations in
`OPS` run one after another on one inventory; workloads differ in the
inventory size and in which commands carry the weight.  Inputs
come from the seeded synthetic generator: one inventory CSV with 1% of its
rows made invalid (so cleaning and the row alignment in `predict` have work
to do), a `train-ann` registry file, and MLP and ANFIS model documents for
`predict --model`.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

# seed that a claimed gain must also hold on, besides the seeds it was
# developed against
HOLDOUT_SEED = 7919

OPS = (
    "generate",
    "stats",
    "fit_regression",
    "predict_builtin",
    "predict_mlp",
    "predict_anfis",
    "train_ann",
    "train_anfis",
)

# published cast-iron deterioration model, RUL = -0.342 A^2 + 0.0548 W + 48.163,
# held here independently of the program's own copy
CI_MODEL = ((-0.342, 2, 0), (0.0548, 0, 1), (48.163, 0, 0))
SIGNIFICANCE_FEATURES = 7
CORRUPT_SHARE = 100       # one row in this many is made invalid
BUILTIN_SAMPLE = 256      # predict --builtin rows checked against CI_MODEL
DOC_ROWS = 5000           # inventory size the model documents are trained on


# the six operations that each take well under a second at these sizes
SHORT_OPS = OPS[:6]


@dataclasses.dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json records why each was chosen."""

    name: str
    rows: int
    ann_configs: int              # leading entries of the default registry
    ann_epochs: int
    anfis_inputs: tuple
    anfis_mfs: int
    anfis_epochs: int
    # operations of one timed repetition, in order; each of OPS at least once
    schedule: tuple = OPS


WORKLOADS = {
    w.name: w
    for w in (
        # The machine's speed drifts by up to 2x over a few seconds, so an
        # operation's median time is only steady when its calls are spread
        # over many separate moments of the run.  Here the two training
        # commands take most of a repetition: the short operations and
        # train-ann run twice in it, with train-anfis between them.
        Workload(
            "models_5k", 5000,
            ann_configs=8, ann_epochs=10,
            anfis_inputs=("age_years", "wall_thickness_loss_pct", "install_year",
                          "diameter_in"),
            anfis_mfs=4, anfis_epochs=2,
            schedule=SHORT_OPS + ("train_ann", "train_anfis") + SHORT_OPS + ("train_ann",),
        ),
        # 20k rows keep one repetition near 4 s, so a run times every
        # operation at a dozen or more separate moments.
        Workload(
            "inventory_20k", 20000,
            ann_configs=2, ann_epochs=6,
            anfis_inputs=("age_years", "wall_thickness_loss_pct", "install_year",
                          "diameter_in", "length_ft"),
            anfis_mfs=2, anfis_epochs=2,
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """The same workload at smoke-test size."""
    return dataclasses.replace(
        workload, rows=600, ann_epochs=1, anfis_epochs=1,
        ann_configs=min(workload.ann_configs, 2),
    )


@dataclasses.dataclass
class Inputs:
    workdir: Path
    inventory: Path
    clean_sha: str           # digest of the generated CSV before corruption
    rows_kept: int
    kept_rows_sha: str       # digest of the rows cleaning must keep, in order
    registry: Path
    mlp_doc: Path
    anfis_doc: Path


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _corrupt(clean: Path, out: Path, seed: int):
    """Copy `clean`, making one row in CORRUPT_SHARE fail validation.

    Returns (rows kept, digest of the kept rows in file order).
    """
    with open(clean, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    n_bad = max(1, len(body) // CORRUPT_SHARE)
    bad = np.sort(np.random.default_rng(seed).choice(len(body), n_bad, replace=False))
    col = {name: i for i, name in enumerate(header)}
    edits = (("length_ft", ""), ("diameter_in", "40"), ("material", "Clay"))
    for k, i in enumerate(bad):
        name, value = edits[k % len(edits)]
        body[i][col[name]] = value
    bad_set = set(bad.tolist())
    kept = hashlib.sha256()
    for i, row in enumerate(body):
        if i not in bad_set:
            kept.update(",".join(row).encode() + b"\n")
    with open(out, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + body)
    return len(body) - n_bad, kept.hexdigest()


def set_up(pl, workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Write the workload's inputs with the library modules in `pl`."""
    inputs_dir = workdir / "inputs"
    shutil.rmtree(inputs_dir, ignore_errors=True)
    inputs_dir.mkdir(parents=True)
    dataset = pl.synth.generate(pl.synth.GeneratorConfig(n=workload.rows, seed=seed))
    clean = inputs_dir / "clean.csv"
    pl.data.write_csv(dataset, clean)
    inventory = inputs_dir / "inventory.csv"
    rows_kept, kept_sha = _corrupt(clean, inventory, seed)

    registry = inputs_dir / "registry.json"
    configs = pl.mlp.default_registry(seed)[: workload.ann_configs]
    registry.write_text(json.dumps(
        [dict(c.to_dict(), epochs=workload.ann_epochs) for c in configs], indent=2
    ))

    doc_data = dataset if workload.rows == DOC_ROWS else pl.synth.generate(
        pl.synth.GeneratorConfig(n=min(DOC_ROWS, workload.rows), seed=seed))
    labeled = pl.data.split_dataset(doc_data, pl.mlp.DEFAULT_SPLIT_RATIOS, seed)
    features = pl.data.build_features(
        labeled, pl.mlp.DEFAULT_INPUT_COLUMNS + ("rul_years",))
    mlp_model, _ = pl.mlp.train(pl.mlp.MlpConfig(epochs=3, seed=seed), features)
    mlp_doc = inputs_dir / "mlp_model.json"
    mlp_doc.write_text(mlp_model.to_json() + "\n")

    anfis_inputs = pl.anfis.DEFAULT_INPUTS
    features = pl.data.build_features(labeled, anfis_inputs + ("rul_years",))
    grid = pl.anfis.init_grid(anfis_inputs, 3, features)
    anfis_model, _ = pl.anfis.hybrid_train(grid, features, epochs=2)
    anfis_doc = inputs_dir / "anfis_model.json"
    anfis_doc.write_text(anfis_model.to_json() + "\n")

    return Inputs(workdir, inventory, sha256_file(clean), rows_kept, kept_sha,
                  registry, mlp_doc, anfis_doc)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def out_dir(inp: Inputs, op: str) -> Path:
    return inp.workdir / "out" / op


def argv(op: str, workload: Workload, inp: Inputs, seed: int) -> list:
    """The CLI arguments of one operation, writing under its own directory."""
    out = out_dir(inp, op)
    src = ["--in", str(inp.inventory)]
    if op == "generate":
        return ["generate", "--n", str(workload.rows), "--seed", str(seed),
                "--out", str(out / "generated.csv")]
    if op == "stats":
        return ["stats", "--json"] + src
    if op == "fit_regression":
        return ["fit-regression", "--degree", "3", "--greedy"] + src + ["--out-dir", str(out)]
    if op == "predict_builtin":
        return ["predict", "--builtin", "CI"] + src + ["--out", str(out / "predicted.csv")]
    if op == "predict_mlp":
        return ["predict", "--model", str(inp.mlp_doc)] + src + [
            "--out", str(out / "predicted.csv")]
    if op == "predict_anfis":
        return ["predict", "--model", str(inp.anfis_doc)] + src + [
            "--out", str(out / "predicted.csv")]
    if op == "train_ann":
        return ["train-ann", "--registry", str(inp.registry), "--seed", str(seed)] + src + [
            "--out-dir", str(out)]
    if op == "train_anfis":
        return ["train-anfis", "--inputs", ",".join(workload.anfis_inputs),
                "--mfs", str(workload.anfis_mfs), "--epochs", str(workload.anfis_epochs),
                "--seed", str(seed)] + src + ["--out-dir", str(out)]
    raise KeyError(op)


def digest(out: Path, stdout: str) -> str:
    """Hash of an operation's outputs: its files and its standard output.

    Manifests are hashed without their wall-clock duration.
    """
    h = hashlib.sha256(stdout.encode())
    for path in sorted(out.rglob("*")) if out.exists() else ():
        if not path.is_file():
            continue
        h.update(path.name.encode())
        if path.name.endswith("_manifest.json"):
            manifest = json.loads(path.read_text(encoding="utf-8"))
            manifest.pop("duration_seconds", None)
            h.update(json.dumps(manifest, sort_keys=True).encode())
        else:
            h.update(sha256_file(path).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# output checks: each returns (problems, accuracy figures)
# ---------------------------------------------------------------------------

def _read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _poly(terms, age, wtl) -> float:
    return sum(c * age ** a * wtl ** w for c, a, w in terms)


def _check_predict(op, inp, seed, problems):
    header, rows = _read_csv(out_dir(inp, op) / "predicted.csv")
    if len(rows) != inp.rows_kept:
        problems.append(f"{len(rows)} predictions for {inp.rows_kept} kept rows")
        return
    kept = hashlib.sha256()
    for row in rows:
        kept.update(",".join(row[:-1]).encode() + b"\n")
    if kept.hexdigest() != inp.kept_rows_sha:
        problems.append("predicted rows are not the kept input rows in order")
    if not _finite(row[-1] for row in rows):
        problems.append("non-finite prediction")
    if op != "predict_builtin":
        return
    age_i, wtl_i = header.index("age_years"), header.index("wall_thickness_loss_pct")
    sample = np.random.default_rng(seed).choice(len(rows), min(BUILTIN_SAMPLE, len(rows)),
                                                replace=False)
    for i in sample:
        row = rows[i]
        want = _poly(CI_MODEL, int(float(row[age_i])), float(row[wtl_i]))
        if not math.isclose(float(row[-1]), want, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"builtin CI prediction {row[-1]} != {want!r} at row {i}")
            return


def check(op: str, workload: Workload, inp: Inputs, seed: int, stdout: str):
    """Validate one operation's outputs; returns (problems, accuracy dict)."""
    problems, accuracy = [], {}
    out = out_dir(inp, op)
    try:
        if op == "generate":
            if sha256_file(out / "generated.csv") != inp.clean_sha:
                problems.append("generate output differs from the seeded library inventory")
        elif op == "stats":
            payload = json.loads(stdout)
            if payload["cleaning"]["rows_kept"] != inp.rows_kept:
                problems.append(f"stats kept {payload['cleaning']['rows_kept']} rows, "
                                f"expected {inp.rows_kept}")
            n_sig = len((payload.get("significance") or {}).get("features", ()))
            if n_sig != SIGNIFICANCE_FEATURES:
                problems.append(f"{n_sig} significance entries, expected "
                                f"{SIGNIFICANCE_FEATURES}")
        elif op == "fit_regression":
            fits = sorted(out.glob("deterioration_*.json"))
            if not fits or not (out / "deterioration_models.txt").is_file():
                problems.append("fit-regression wrote no models")
            for path in fits:
                model = json.loads(path.read_text(encoding="utf-8"))
                if not _finite([model["r2_fit"]] + [t[0] for t in model["terms"]]):
                    problems.append(f"non-finite coefficient in {path.name}")
        elif op.startswith("predict_"):
            _check_predict(op, inp, seed, problems)
        elif op == "train_ann":
            _, rows = _read_csv(out / "ann_metrics.csv")
            if len(rows) != 3 * workload.ann_configs:
                problems.append(f"{len(rows)} metric rows for {workload.ann_configs} models")
            mape = min(float(r[4]) for r in rows if r[1] == "test")
            r2 = max(float(r[6]) for r in rows if r[1] == "test")
            if not _finite([mape, r2]):
                problems.append("non-finite ann test MAPE or R2")
            if not (out / "ann_best_model.json").is_file():
                problems.append("no ann_best_model.json")
            accuracy["ann_test_mape"] = mape
            accuracy["ann_test_r2"] = r2
        elif op == "train_anfis":
            _, rows = _read_csv(out / "anfis_rmse.csv")
            if len(rows) != workload.anfis_epochs:
                problems.append(f"{len(rows)} RMSE rows for {workload.anfis_epochs} epochs")
            rmse = min(float(r[2]) for r in rows)
            if not math.isfinite(rmse):
                problems.append("non-finite anfis validation RMSE")
            for name in ("anfis_model.json", "anfis_sensitivity.csv", "anfis_contour.csv"):
                if not (out / name).is_file():
                    problems.append(f"no {name}")
            accuracy["anfis_val_rmse"] = rmse
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    return problems, accuracy
