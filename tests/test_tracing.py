"""The benchmark's tracer (perfbench/tracing.py) wraps the functions it
names in `TRACED` by name, and its set-up (perfbench/workloads.py) calls
library functions and constants by name, so renaming or deleting one of
them breaks every benchmark run; these tests catch that with the unit
tests.  A traced benchmark run must also see each call it counts, which a
call through a name the tracer does not replace would hide."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from pipelife import anfis, cli, data, mlp, synth

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def traced_function(module: str, attr: str):
    owner = importlib.import_module(f"pipelife.{module}")
    for name in attr.split("."):
        owner = getattr(owner, name)
    return owner


def test_the_benchmark_tracer_installs_and_uninstalls():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from tracing import TRACED, Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    originals = {key: traced_function(*key) for key in TRACED}
    tracer = Tracer()
    tracer.install()
    try:
        for key, original in originals.items():
            assert traced_function(*key).__wrapped__ is original, key
    finally:
        tracer.uninstall()
    for key, original in originals.items():
        assert traced_function(*key) is original, key


def benchmark_workloads():
    """perfbench/workloads.py, loaded from its file (its dataclasses look
    their module up in sys.modules)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", WORKLOADS)
def test_the_benchmark_set_up_and_operations_pass_their_checks(tmp_path, capsys, name):
    wl = benchmark_workloads()
    workload = wl.tiny(wl.WORKLOADS[name])
    pl = SimpleNamespace(anfis=anfis, data=data, mlp=mlp, synth=synth)
    inp = wl.set_up(pl, workload, 11, tmp_path)
    for op in wl.OPS:
        capsys.readouterr()
        assert cli.main(wl.argv(op, workload, inp, 11)) == 0, op
        problems, _ = wl.check(op, workload, inp, 11, capsys.readouterr().out)
        assert problems == [], op


def test_a_traced_run_counts_mlp_training_and_one_solve_per_anfis_epoch(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "models_5k", "--seed", "3",
         "--seconds", "0.1", "--trace", "1", "--tiny", "--workdir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert metrics["mlp.train.calls"]["value"] > 0
    manifest = tmp_path / "out" / "train_anfis" / "train_anfis_manifest.json"
    epochs = json.loads(manifest.read_text())["training"]["epochs"]
    assert metrics["anfis.lse_consequents.calls"]["value"] == epochs
