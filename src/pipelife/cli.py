"""Command-line entry point wiring the library into reproducible workflows.

Subcommands: generate, stats, train-ann, train-anfis, predict,
fit-regression.  Every command that writes files writes a manifest beside
them, built from the parsed command line: the subcommand, every flag it
takes (`null` for one not given), the sha256 of each file flag given
(--in, --model, --registry), the outputs, the duration and the input CSV's
cleaning report.  Identical flags and files reproduce byte-identical
numeric outputs.

CSV text goes through the column-wise layer in `data`: every input is read
by one `ingest_csv` pass, which parses it block by block (a byte-order mark
is dropped; a file csv.reader refuses is a runtime error), and every other
CSV output is one `write_columns` call, which writes what Python's csv
writer would.  `predict` takes a model from `--model FILE` or `--builtin
NAME` and makes one `predict_batch` call on its `input_columns`.  It echoes
each kept row, padded or cut to the header's width, then adds
`predicted_rul`; it takes each row as one line of text from the same
`ingest_csv` pass (`echo=True`), the only command that keeps its input's
text, and writes the lines with `write_lines`, the writer that
`write_columns` ends in.  `generate` and `predict`, which write one `--out
FILE`, name their manifest `<FILE stem>_manifest.json`, so two runs into one
directory keep both; the other commands name it after themselves.

argparse is the one parser.  `--config FILE`, given before the subcommand,
reads each KEY=VALUE line as the flag --KEY=VALUE (`_` reads as `-`); the
flags the subcommand takes go in front of the explicit ones, so an explicit
flag wins, and the rest are skipped.  $PIPELIFE_SEED is the string default
of --seed, parsed as the flag would be.

Exit codes: 0 success, 1 runtime or domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import anfis, mlp, regression, stats, synth
from .data import (
    MATERIALS,
    SPLITS,
    TARGET_COLUMN,
    Split,
    build_features,
    encode_material,
    ingest_csv,
    quoted,
    split_dataset,
    write_columns,
    write_csv,
    write_lines,
)
from .errors import FileUnreadable, InvalidConfig, PipeLifeError
from .metrics import classify_accuracy

SEED_ENV_VAR = "PIPELIFE_SEED"
EXIT_OK = 0
EXIT_RUNTIME = 1


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(args, out_dir: Path, outputs, started: float, **sections):
    """The manifest of the run that parsed `args`: every flag of its
    subcommand, `infile` under its flag name `in`, and the digest of every
    file flag given.  `--config` is left out, as its lines are flags.
    `started` is a time.perf_counter() reading; each keyword adds a section."""
    arguments = {"in" if key == "infile" else key: value for key, value in vars(args).items()
                 if key not in ("func", "command", "config")}
    inputs = [arguments[key] for key in ("in", "model", "registry") if arguments.get(key)]
    manifest = {
        "command": args.command,
        "arguments": arguments,
        "input_digests": {path: _sha256(path) for path in inputs},
        "outputs": [str(p) for p in outputs],
        "duration_seconds": round(time.perf_counter() - started, 3),
        **sections,
    }
    # a command that writes one --out FILE names its manifest after it, so
    # runs into one directory keep theirs apart
    name = Path(args.out).stem if "out" in args else args.command.replace("-", "_")
    path = out_dir / f"{name}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def _nums(values) -> list:
    # the shortest repr that round-trips each double exactly
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    started = time.perf_counter()
    config = synth.GeneratorConfig(n=args.n, seed=args.seed)
    dataset = synth.generate(config)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(dataset, out)
    report = synth.moment_report(dataset)
    report_path = out.with_suffix(out.suffix + ".report.txt")
    report_path.write_text(report.render() + "\n", encoding="utf-8")
    manifest = _write_manifest(args, out.parent, [out, report_path], started)
    print(f"wrote {len(dataset)} records to {out}")
    print(f"moment report: {report_path}")
    print(f"manifest: {manifest}")
    return EXIT_OK


def cmd_stats(args) -> int:
    dataset, cleaning = ingest_csv(args.infile, args.reference_year)
    report_rows = stats.summarize_columns(dataset)
    significance = stats.significance_report(dataset) if dataset.has_rul() else None
    if args.json:
        payload = {
            "cleaning": asdict(cleaning),
            "summary": {name: asdict(s) for name, s in report_rows},
            "significance": significance.to_dict() if significance else None,
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(cleaning.render())
    print()
    header = f"{'column':<26}{'min':>10}{'max':>12}{'mean':>12}{'std':>12}{'mode':>10}"
    print(header)
    print("-" * len(header))
    for name, s in report_rows:
        print(f"{name:<26}{s.min:>10.2f}{s.max:>12.2f}{s.mean:>12.2f}{s.std:>12.2f}{s.mode:>10.2f}")
    if significance is not None:
        print()
        print(significance.render())
    return EXIT_OK


def cmd_train_ann(args) -> int:
    started = time.perf_counter()
    dataset, cleaning = ingest_csv(args.infile, args.reference_year)
    registry = None
    if args.registry:
        registry = _load_document(args.registry, lambda text: tuple(
            mlp.MlpConfig.from_dict(entry) for entry in json.loads(text)))
    result = mlp.run_experiment_suite(dataset, registry, split_seed=args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    metrics_path = out_dir / "ann_metrics.csv"
    names, phases, *values = zip(*result.table())
    write_columns(
        metrics_path,
        ("model", "phase", "mae", "rrse", "mape", "rae", "r2"),
        [list(names), list(phases), *map(_nums, values)],
    )
    model_path = out_dir / "ann_best_model.json"
    model_path.write_text(result.best.model.to_json() + "\n", encoding="utf-8")

    test_rows = result.labeled.rows_for(Split.TEST)
    actual = result.labeled.column(TARGET_COLUMN)[test_rows]
    predicted = result.best.predicted[test_rows]
    slope, intercept, r2 = mlp.scatter_fit(predicted, actual)
    scatter_path = out_dir / "ann_scatter.csv"
    write_columns(scatter_path, ("actual_rul", "predicted_rul"), [_nums(actual), _nums(predicted)])
    fit_path = out_dir / "ann_scatter_fit.json"
    fit_path.write_text(
        json.dumps({"slope": slope, "intercept": intercept, "r2": r2}, indent=2) + "\n",
        encoding="utf-8",
    )
    manifest = _write_manifest(
        args, out_dir, [metrics_path, model_path, scatter_path, fit_path], started,
        cleaning=asdict(cleaning),
        training=[{"name": row.name, "best_epoch": row.history.best_epoch,
                   "epochs": len(row.history), "restart": row.history.restart,
                   "stop": row.history.stop}
                  for row in result.rows],
    )
    best_test = result.best.phase(Split.TEST)
    print(f"trained {len(result.rows)} models; best: {result.best.name}")
    header = f"{'phase':<12}{'MAE':>10}{'RRSE':>10}{'MAPE':>10}{'RAE':>10}{'R2':>10}"
    print(header)
    print("-" * len(header))
    for label in SPLITS:
        rep = result.best.phase(label)
        print(f"{label.value:<12}{rep.mae:>10.3f}{rep.rrse:>10.3f}"
              f"{rep.mape:>10.3f}{rep.rae:>10.3f}{rep.r2:>10.4f}")
    print(f"  test MAPE {best_test.mape:.3f} ({classify_accuracy(best_test.mape)}), "
          f"R2 {best_test.r2:.4f}, scatter y = {slope:.4f}x + {intercept:.4f}")
    print(f"outputs in {out_dir} (manifest: {manifest.name})")
    return EXIT_OK


def cmd_train_anfis(args) -> int:
    started = time.perf_counter()
    inputs = tuple(args.inputs.split(","))
    if len(inputs) < 2:
        # the contour grid spans the two highest-ranked inputs
        raise InvalidConfig(f"train-anfis needs at least two --inputs, got {args.inputs!r}")
    dataset, cleaning = ingest_csv(args.infile, args.reference_year)
    labeled = split_dataset(dataset, mlp.DEFAULT_SPLIT_RATIOS, args.seed)
    features = build_features(labeled, inputs + (TARGET_COLUMN,))
    model = anfis.init_grid(inputs, args.mfs, features)
    trained, history = anfis.hybrid_train(
        model, features, epochs=args.epochs, learning_rate=args.learning_rate
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    model_path = out_dir / "anfis_model.json"
    model_path.write_text(trained.to_json() + "\n", encoding="utf-8")
    rmse_path = out_dir / "anfis_rmse.csv"
    write_columns(
        rmse_path,
        ("epoch", "train_rmse", "validation_rmse"),
        [list(map(str, range(len(history)))), _nums(history.train), _nums(history.val)],
    )
    ranking = anfis.sensitivity_ranking(trained, features)
    rank_path = out_dir / "anfis_sensitivity.csv"
    names, slopes = zip(*ranking)
    write_columns(rank_path, ("feature", "mean_abs_slope"), [list(names), _nums(slopes)])
    top_two = [name for name, _ in ranking[:2]]
    grid = anfis.contour_grid(trained, features, top_two[0], top_two[1])
    grid_path = out_dir / "anfis_contour.csv"
    write_columns(grid_path, (top_two[0], top_two[1], "predicted_rul"),
                  [_nums(cells) for cells in zip(*grid)])
    manifest = _write_manifest(
        args, out_dir, [model_path, rmse_path, rank_path, grid_path], started,
        cleaning=asdict(cleaning),
        training={"best_epoch": history.best_epoch, "epochs": len(history),
                  "stop": history.stop,
                  "lse_rank": trained.lse_rank,
                  "lse_columns": trained.n_rules * (trained.n_inputs + 1),
                  "ridge": anfis.RIDGE},
    )
    print(f"trained ANFIS with {trained.n_rules} rules on {inputs}")
    print("sensitivity ranking:")
    for name, slope in ranking:
        print(f"  {name:<26}{slope:.6f}")
    print(f"outputs in {out_dir} (manifest: {manifest.name})")
    return EXIT_OK


def _load_document(path, parse):
    """parse(text) of a JSON file; a malformed document is a runtime error."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise FileUnreadable(f"cannot read {path} as UTF-8: {exc}") from exc
    except KeyError as exc:
        raise PipeLifeError(f"document {path} lacks the key {exc}") from exc
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise PipeLifeError(f"malformed document {path}: {exc}") from exc


def _parse_model(text):
    kind = json.loads(text).get("format", "")
    if kind == "pipelife-mlp-v1":
        return mlp.MlpModel.from_json(text)
    if kind == "pipelife-anfis-v1":
        return anfis.AnfisModel.from_json(text)
    raise PipeLifeError(f"unrecognized model document: {kind!r}")


def cmd_predict(args) -> int:
    started = time.perf_counter()
    dataset, cleaning, (header, echoed) = ingest_csv(args.infile, args.reference_year, echo=True)
    model = (regression.builtin(args.builtin) if args.builtin
             else _load_document(args.model, _parse_model))
    predicted = model.predict_batch(dataset.matrix(model.input_columns))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_lines(out, ",".join(quoted(header + ["predicted_rul"])),
                map(",".join, zip(echoed, _nums(predicted))))
    manifest = _write_manifest(args, out.parent, [out], started, cleaning=asdict(cleaning))
    print(f"wrote {len(predicted)} predictions to {out} (manifest: {manifest.name})")
    return EXIT_OK


def cmd_fit_regression(args) -> int:
    started = time.perf_counter()
    dataset, cleaning = ingest_csv(args.infile, args.reference_year)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    age, wtl = map(dataset.column, regression.DeteriorationModel.input_columns)
    rul = dataset.column(TARGET_COLUMN)
    outputs = []
    selection = {}
    fitted = []
    for tag in regression.BUILTIN_MATERIALS:
        mask = dataset.materials == MATERIALS.index(encode_material(tag))
        if not mask.any():
            print(f"no {tag} records; skipped", file=sys.stderr)
            continue
        try:
            model = regression.fit_polynomial(
                age[mask], wtl[mask], rul[mask],
                degree=args.degree, term_selection="greedy" if args.greedy else "full",
                material=tag,
            )
        except PipeLifeError as exc:
            print(f"{tag}: {exc}", file=sys.stderr)
            continue
        path = out_dir / f"deterioration_{tag}.json"
        path.write_text(model.to_json() + "\n", encoding="utf-8")
        outputs.append(path)
        selection[tag] = [{"term": regression.monomial(a_pow, w_pow) or "1", "r2": r2}
                          for a_pow, w_pow, r2 in model.selection]
        fitted.append((tag, model.formula(), model.r2_fit))
    # the formula column is as wide as the longest formula, so the R2 values line up
    width = max([72] + [len(formula) for _, formula, _ in fitted])
    lines = [f"{'material':<10}{'model':<{width}}{'R2':>8}"]
    lines.append("-" * len(lines[0]))
    lines += [f"{tag:<10}{formula:<{width}}{r2:>8.3f}" for tag, formula, r2 in fitted]
    table = "\n".join(lines) + "\n"
    table_path = out_dir / "deterioration_models.txt"
    table_path.write_text(table, encoding="utf-8")
    outputs.append(table_path)
    manifest = _write_manifest(args, out_dir, outputs, started,
                               cleaning=asdict(cleaning), selection=selection)
    print(table, end="")
    print(f"outputs in {out_dir} (manifest: {manifest.name})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _config_flags(path) -> dict:
    """{flag: "--KEY=VALUE"} for the KEY=VALUE lines of a config file.

    `_` in a key reads as `-`, so `out_dir` and `out-dir` are both
    `--out-dir`; a later line for the same flag replaces an earlier one.
    A leading byte-order mark is read as no mark, as in a CSV file.
    """
    flags = {}
    for line in Path(path).read_text(encoding="utf-8-sig").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise PipeLifeError(f"bad config line (expected KEY=VALUE): {line!r}")
        key, value = line.split("=", 1)
        flag = "--" + key.strip().replace("_", "-")
        flags[flag] = f"{flag}={value.strip()}"
    return flags


class _Subcommands(argparse._SubParsersAction):
    """Runs the chosen subcommand's parser on the `--config` file's flags
    that it takes, then the explicit ones, so an explicit flag wins."""

    def __call__(self, parser, namespace, values, option_string=None):
        name, *explicit = values
        if namespace.config:
            known = self.choices[name]._option_string_actions
            config = _config_flags(namespace.config)
            explicit = [arg for flag, arg in config.items() if flag in known] + explicit
        super().__call__(parser, namespace, [name, *explicit], option_string)


def _switch(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")
    return text.lower() == "true"


def _seed(text: str) -> int:
    # numpy refuses a negative seed
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("expected a path, got ''")
    return text


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser; `--seed` defaults to $PIPELIFE_SEED, else 0."""
    parser = argparse.ArgumentParser(
        prog="pipelife",
        description="Remaining-useful-life prediction toolkit for water pipes.",
    )
    parser.add_argument(
        "--config", help="plain-text file of KEY=VALUE lines, each read as --KEY=VALUE"
    )
    sub = parser.add_subparsers(dest="command", required=True, action=_Subcommands)
    seed = dict(type=_seed, default=os.environ.get(SEED_ENV_VAR, "0"),
                help=f"default: ${SEED_ENV_VAR}, else 0")
    # every subcommand but generate reads an inventory CSV
    reads = argparse.ArgumentParser(add_help=False)
    reads.add_argument("--in", dest="infile", type=_path, required=True)
    reads.add_argument("--reference-year", type=int, default=synth.DEFAULT_REFERENCE_YEAR)
    switch = dict(type=_switch, nargs="?", const=True, default=False, metavar="BOOL")

    p = sub.add_parser("generate", help="write a calibrated synthetic dataset CSV")
    p.add_argument("--n", type=int, default=synth.GeneratorConfig.n)
    p.add_argument("--seed", **seed)
    p.add_argument("--out", type=_path, required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("stats", parents=[reads], help="summary table and significance report")
    p.add_argument("--json", **switch)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train-ann", parents=[reads],
                       help="run the neural-network experiment suite")
    p.add_argument("--seed", **seed)
    p.add_argument("--registry", help="JSON file with a list of model configs")
    p.add_argument("--out-dir", type=_path, required=True)
    p.set_defaults(func=cmd_train_ann)

    p = sub.add_parser("train-anfis", parents=[reads], help="train the neuro-fuzzy model")
    p.add_argument(
        "--inputs",
        default=",".join(anfis.DEFAULT_INPUTS),
        help="comma-separated feature columns",
    )
    p.add_argument("--mfs", type=int, default=anfis.DEFAULT_MFS)
    p.add_argument("--epochs", type=int, default=anfis.DEFAULT_EPOCHS)
    p.add_argument("--learning-rate", type=float, default=anfis.DEFAULT_LEARNING_RATE)
    p.add_argument("--seed", **seed)
    p.add_argument("--out-dir", type=_path, required=True)
    p.set_defaults(func=cmd_train_anfis)

    p = sub.add_parser("predict", parents=[reads], help="append predicted_rul to a dataset CSV")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", type=_path, help="path to a saved model JSON")
    group.add_argument("--builtin", choices=regression.BUILTIN_MATERIALS)
    p.add_argument("--out", type=_path, required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("fit-regression", parents=[reads],
                       help="fit per-material deterioration models")
    p.add_argument("--degree", type=int, choices=(1, 2, 3), default=2)
    p.add_argument("--greedy", **switch)
    p.add_argument("--out-dir", type=_path, required=True)
    p.set_defaults(func=cmd_fit_regression)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # reads the --config file
        return args.func(args)
    except (PipeLifeError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
