"""pipelife benchmark: CLI workloads timed in one process.

Run from the repository root:

    python3 perfbench/run.py --workload models_5k --seed 1 --seconds 55 --trace 0

Set-up writes the workload's inputs from the seeded generator, five times.
The run then repeats the workload's schedule of its eight CLI operations,
each called in-process through `pipelife.cli.main` as a user runs them,
until `--seconds` is spent (at least three repetitions).  Other tenants of
the machine change its speed by up to 2x within a run and between runs, so
a fixed piece of work, the gauge, is timed between every two calls and
set-ups; each time is rescaled to the machine speed at which the gauge takes
GAUGE_REFERENCE_S, and every end-to-end time is the median of its rescaled
samples.  Every operation's outputs are checked and hashed; a failed check
or an output that differs between repetitions counts as a failed operation.

With `--trace 1` the run alternates untraced and traced repetitions and
reports per-layer metrics instead: spans and counts recorded by wrapping
the program's public functions from `tracing.py`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The full result, with every
sample, the machine facts and the trace tree, is written to
`.perfbench_work/<workload>/result_trace<0|1>.json`.  `--tiny` shrinks the
workload to smoke-test size.
"""

import os

# BLAS threads are fixed before numpy loads, identically for every commit
BLAS_THREADS = 1
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import csv
import ctypes
import gc
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import workloads as wl
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("cli", "data", "synth", "stats", "regression", "metrics", "mlp", "anfis")
SETUP_REPS = 5
MIN_REPS = 3

OP_METRICS = {op: op + "_s" for op in wl.OPS}

# per-layer metrics read straight off the trace: span name -> statistics
LAYER_STATS = (
    ("cli.main", ("self_s",)),
    ("data.ingest_csv", ("calls", "s")),
    ("data.write_csv", ("s",)),
    ("data.split_dataset", ("s",)),
    ("data.build_features", ("calls", "s")),
    ("synth.generate", ("s",)),
    ("synth.moment_report", ("s",)),
    ("stats.summarize", ("calls", "s")),
    ("stats.significance_report", ("s",)),
    ("regression.predict_rul", ("calls", "s")),
    ("regression.fit_polynomial", ("calls", "s")),
    ("metrics.evaluate", ("calls", "s")),
    ("mlp.run_experiment_suite", ("s",)),
    ("mlp.train", ("calls", "self_s")),
    ("mlp.loss_and_gradient", ("calls", "s")),
    ("mlp.forward", ("calls", "s")),
    ("mlp.predict_batch", ("calls", "s")),
    ("anfis.init_grid", ("s",)),
    ("anfis.hybrid_train", ("s", "self_s")),
    ("anfis.lse_consequents", ("calls", "s")),
    ("anfis.sensitivity_ranking", ("s",)),
    ("anfis.contour_grid", ("s",)),
    ("anfis.predict_batch", ("calls", "s")),
)
# the gauge's time with this 2-core machine at its fastest (about 16 ms with
# OpenBLAS 0.3.31 and one thread); end-to-end times are reported at that speed
GAUGE_REFERENCE_S = 0.016

STAT_INDEX = {"calls": 0, "s": 1, "self_s": 2}

# layer shares: (metric, (span, stat) parts summed, operation they are a share of)
SHARES = (
    ("share.lse_consequents.train_anfis", (("anfis.lse_consequents", "s"),), "train_anfis"),
    ("share.loss_and_gradient.train_ann", (("mlp.loss_and_gradient", "s"),), "train_ann"),
    ("share.ingest_and_cli_self.predict_builtin",
     (("data.ingest_csv", "s"), ("cli.main", "self_s")), "predict_builtin"),
)

UNITS = {"calls": "count", "s": "s", "self_s": "s", "rows_per_s": "rows/s",
         "us_per_call": "us", "ms_per_call": "ms", "design_mb": "MB-computed"}


def _unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    if name.startswith("share.") or suffix.endswith("ratio"):
        return "ratio"
    return UNITS[suffix]


# ---------------------------------------------------------------------------
# the program under test
# ---------------------------------------------------------------------------

def import_program() -> SimpleNamespace:
    """Import pipelife afresh from this checkout's source tree."""
    for name in [m for m in sys.modules if m == "pipelife" or m.startswith("pipelife.")]:
        del sys.modules[name]
    pl = SimpleNamespace(**{
        name: importlib.import_module(f"pipelife.{name}") for name in MODULES
    })
    if Path(pl.cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"pipelife imported from {pl.cli.__file__}, not from {SRC}")
    return pl


def run_op(pl, op, workload, inp, seed):
    """One CLI operation: (seconds, exit code or crash text, stdout, stderr)."""
    out = wl.out_dir(inp, op)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    args = wl.argv(op, workload, inp, seed)
    stdout, stderr = io.StringIO(), io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = pl.cli.main(args)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed operation, not a failed benchmark
        code = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return seconds, code, stdout.getvalue(), stderr.getvalue()


class Gauge:
    """A fixed piece of work, no part of the program, timed between calls.

    It parses CSV text, runs small-array numpy updates and one least-squares
    solve: the same kinds of work as the CLI operations.  Its time measures
    how fast the machine runs at that moment.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.text = "\n".join(",".join(f"{v:.6f}" for v in row) for row in rng.random((3000, 6)))
        self.a, self.b = rng.random((16, 5)), rng.random((5, 5))
        self.design, self.target = rng.random((1500, 120)), rng.random(1500)

    def __call__(self) -> float:
        gc.collect()
        t0 = time.perf_counter()
        total = 0.0
        for row in csv.reader(io.StringIO(self.text)):
            total += sum(float(v) for v in row)
        for _ in range(1200):
            total += float((1.0 / (1.0 + np.exp(-(self.a @ self.b)))).sum())
        np.linalg.lstsq(self.design, self.target, rcond=None)
        return time.perf_counter() - t0


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between two gauges, rescaled to the machine speed
    at which the gauge takes GAUGE_REFERENCE_S."""
    return seconds / ((before + after) / 2) * GAUGE_REFERENCE_S


class Session:
    """Repetitions of one workload, with the checks on every operation."""

    def __init__(self, pl, workload, inp, seed, gauge):
        self.pl, self.workload, self.inp, self.seed, self.gauge = pl, workload, inp, seed, gauge
        self.reference = {}       # op -> digest of its first call
        self.attempted = 0
        self.problems = []        # (call label, op, problem)
        self.accuracy = {}
        self.gauges = []          # every gauge time, in order
        self.calls = []           # untraced (op, seconds, index of the gauge before)

    def repetition(self, label, tracer=None, once=False) -> dict:
        """One call of each operation in `Workload.schedule` order, or in OPS
        order with one call each if `once` or traced.

        Returns op -> list of seconds, one per call.
        """
        times = {}
        for op in wl.OPS if once or tracer is not None else self.workload.schedule:
            if tracer is not None:
                tracer.op = op
            times.setdefault(op, []).append(self.call(label, op, tracer is not None))
        return times

    def call(self, label, op, traced) -> float:
        self.gauges.append(self.gauge())
        seconds, code, stdout, stderr = run_op(self.pl, op, self.workload, self.inp, self.seed)
        if not traced:
            self.calls.append((op, seconds, len(self.gauges) - 1))
        self.attempted += 1
        if code != 0:
            problems = [f"exit {code}: {stderr.strip()[-300:]}"]
        else:
            problems, accuracy = wl.check(op, self.workload, self.inp, self.seed, stdout)
            self.accuracy.update(accuracy)
        digest = wl.digest(wl.out_dir(self.inp, op), stdout)
        if digest != self.reference.setdefault(op, digest):
            problems.append("output differs from the first call"
                            + (" (traced)" if traced else ""))
        self.problems += [(f"{label}/{self.attempted}", op, p) for p in problems]
        return seconds

    @property
    def failed(self) -> int:
        return len({(label, op) for label, op, _ in self.problems})


def repeat(step, seconds: float, min_reps: int) -> list:
    """Call `step` until `seconds` would be overrun, at least `min_reps` times."""
    start = time.perf_counter()
    results = []
    while True:
        results.append(step(len(results)))
        elapsed = time.perf_counter() - start
        if len(results) >= min_reps and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(session, reps, setup_times, setup_gauges) -> dict:
    """Times are medians of samples rescaled to the gauge's reference speed.

    Set-up i ran between `setup_gauges[i]` and `setup_gauges[i + 1]`.
    """
    session.gauges.append(session.gauge())  # the gauge after the last call
    gauges = session.gauges
    ops = {}
    for op, name in OP_METRICS.items():
        samples = [at_reference_speed(t, gauges[i], gauges[i + 1])
                   for o, t, i in session.calls if o == op]
        ops[name] = (statistics.median(samples), "s", len(samples))
    setup = [at_reference_speed(t, setup_gauges[i], setup_gauges[i + 1])
             for i, t in enumerate(setup_times)]
    metrics = {"setup_s": (statistics.median(setup), "s", len(setup)),
               "wall_s": (sum(v for v, _, _ in ops.values()), "s", len(reps)),
               **ops}
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kib / 1024.0, "MB", 1)
    ok = (session.attempted - session.failed) / session.attempted
    metrics["op_ok_ratio"] = (ok, "ratio", session.attempted)
    metrics["ann_test_r2"] = (session.accuracy.get("ann_test_r2"), "R2", 1)
    return metrics


def _ratio(num, den):
    return num / den if den else 0.0


def layer_sample(tracer, times) -> dict:
    """Per-layer figures of one traced repetition."""
    fn = tracer.by_function()
    counts = tracer.counters()
    sample = {}
    for name, stats in LAYER_STATS:
        rec = fn.get(name, (0, 0.0, 0.0))
        for stat in stats:
            sample[f"{name}.{stat}"] = rec[STAT_INDEX[stat]]

    def rate(name, counter):
        return _ratio(counts.get(counter, 0), fn.get(name, (0, 0.0))[1])

    sample["data.ingest_csv.rows_per_s"] = rate("data.ingest_csv", "data.ingest_csv.rows")
    sample["mlp.predict_batch.rows_per_s"] = rate("mlp.predict_batch", "mlp.predict_batch.rows")
    sample["anfis.predict_batch.rows_per_s"] = rate(
        "anfis.predict_batch", "anfis.predict_batch.rows")
    lg = fn.get("mlp.loss_and_gradient", (0, 0.0))
    sample["mlp.loss_and_gradient.us_per_call"] = _ratio(lg[1], lg[0]) * 1e6
    lse = fn.get("anfis.lse_consequents", (0, 0.0))
    sample["anfis.lse_consequents.ms_per_call"] = _ratio(lse[1], lse[0]) * 1e3
    sample["anfis.lse_consequents.design_mb"] = (
        counts.get("anfis.lse_consequents.design_bytes", 0) / 1e6)
    sample["anfis.lse_degenerate_ratio"] = _ratio(
        counts.get("anfis.lse_consequents.degenerate", 0), lse[0])
    for prefix in ("mlp", "anfis"):
        sample[f"{prefix}.useful_epoch_ratio"] = _ratio(
            counts.get(f"{prefix}.useful_epochs", 0), counts.get(f"{prefix}.epochs", 0))
    for metric, parts, op in SHARES:
        per_op = tracer.by_function(op)
        part = sum(per_op.get(span, (0, 0.0, 0.0))[STAT_INDEX[stat]] for span, stat in parts)
        sample[metric] = _ratio(part, times[op][0])
    return sample


def per_layer(samples, plain_walls, traced_walls, accuracy) -> dict:
    metrics = {}
    for name in samples[0]:
        values = [s[name] for s in samples]
        if name.endswith(".calls"):
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = (value, _unit(name), len(values))
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics["trace.overhead_s"] = (overhead, "s", len(traced_walls))
    metrics["anfis.best_val_rmse"] = (accuracy.get("anfis_val_rmse"), "norm", 1)
    metrics["mlp.best_test_mape"] = (accuracy.get("ann_test_mape"), "%", 1)
    return metrics


EXACT_SUFFIXES = (".calls", ".design_mb", "_ratio")


def count_mismatches(samples) -> list:
    """Exact counts that differ between traced repetitions."""
    return [name for name in samples[0]
            if name.endswith(EXACT_SUFFIXES) and not name.startswith("share.")
            and any(s[name] != samples[0][name] for s in samples)]


# ---------------------------------------------------------------------------
# machine and build facts
# ---------------------------------------------------------------------------

def _blas_threads_in_effect():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def _git(*args):
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=30, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_facts(seed) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = dirty = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain")
        dirty = None if status is None else bool(status)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_in_effect": _blas_threads_in_effect(),
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
        "holdout_seed": wl.HOLDOUT_SEED,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="scratch directory (default .perfbench_work/<workload>)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pipelife" / "__init__.py").is_file():
        print(f"error: no pipelife source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = wl.WORKLOADS[args.workload]
    if args.tiny:
        workload = wl.tiny(workload)
    workdir = (args.workdir or ROOT / ".perfbench_work" / workload.name).resolve()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    gauge = Gauge()
    setup_times, setup_gauges = [], [gauge()]
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        pl = import_program()
        inp = wl.set_up(pl, workload, args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)
        setup_gauges.append(gauge())
    session = Session(pl, workload, inp, args.seed, gauge)

    result = {"workload": workload.name, "tiny": args.tiny, "facts": machine_facts(args.seed)}
    if args.trace:
        tracer = Tracer()
        plain, traced, samples = [], [], []

        def pair(i):
            plain.append(session.repetition(f"plain{i}", once=True))
            tracer.reset()
            tracer.install()
            try:
                times = session.repetition(f"traced{i}", tracer)
            finally:
                tracer.uninstall()
            traced.append(times)
            samples.append(layer_sample(tracer, times))
            if i == 0:
                result["trace_tree"] = tracer.tree()

        repeat(pair, args.seconds, 1)
        for name in count_mismatches(samples):
            session.problems.append(
                ("traced", "exact-counts", f"{name} differs between repetitions"))
        metrics = per_layer(samples, [sum(t[0] for t in rep.values()) for rep in plain],
                            [sum(t[0] for t in rep.values()) for rep in traced],
                            session.accuracy)
        result["samples"] = {"plain": plain, "traced": traced, "layers": samples}
    else:
        reps = repeat(lambda i: session.repetition(f"rep{i}"), args.seconds, MIN_REPS)
        metrics = end_to_end(session, reps, setup_times, setup_gauges)
        result["samples"] = {"setup_s": setup_times, "setup_gauges": setup_gauges,
                             "calls": session.calls, "gauges": session.gauges}

    result["problems"] = session.problems
    result["metrics"] = {k: {"value": v, "unit": u, "samples": n}
                         for k, (v, u, n) in metrics.items()}
    out_path = workdir / f"result_trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"facts {json.dumps(result['facts'], sort_keys=True)}")
    for label, op, problem in session.problems:
        print(f"FAILED {label} {op}: {problem}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<44} {value!s:>24} {unit:<12} n={n}")
    if session.calls:
        gauge_ms = statistics.median(session.gauges) * 1e3
        print(f"  gauge median {gauge_ms:.2f} ms (reference {GAUGE_REFERENCE_S * 1e3:g} ms)")
    print(f"  op_fail_ratio {session.failed}/{session.attempted}  (result: {out_path})")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
