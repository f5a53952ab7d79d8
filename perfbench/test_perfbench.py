"""Tests of the benchmark itself, at smoke-test sizes.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
EXACT = (".calls", ".design_mb", "_ratio")


def run_bench(workdir, workload, seed=3, trace=0, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace), "--tiny",
         "--workdir", str(workdir)],
        cwd=root, capture_output=True, text=True, timeout=300, check=False)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(tmp_path, workload):
    result = last_json(run_bench(tmp_path, workload))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3 * 8
    assert list(result["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    for spec in BENCH["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert math.isfinite(metric["value"]) and metric["value"] > 0, spec["name"]


def test_traced_runs_repeat_exact_counts(tmp_path):
    first = last_json(run_bench(tmp_path / "a", "models_5k", trace=1))
    second = last_json(run_bench(tmp_path / "b", "models_5k", trace=1))
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    for spec in BENCH["per_layer"]:
        assert first["metrics"][spec["name"]]["unit"] == spec["unit"]
    exact = [n for n in first["metrics"] if n.endswith(EXACT) and not n.startswith("share.")]
    assert "mlp.loss_and_gradient.calls" in exact
    assert "regression.predict_rul.calls" in exact
    assert "anfis.lse_consequents.design_mb" in exact
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name


def test_every_schedule_times_every_operation():
    sys.path.insert(0, str(HERE))
    try:
        import workloads as wl
    finally:
        sys.path.remove(str(HERE))
    assert sorted(WORKLOADS) == sorted(wl.WORKLOADS)
    for workload in wl.WORKLOADS.values():
        assert set(workload.schedule) == set(wl.OPS), workload.name


def test_checks_catch_a_wrong_prediction(tmp_path):
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads as wl
        from pipelife import anfis, cli, data, mlp, synth
    finally:
        sys.path[:2] = []
    pl = SimpleNamespace(anfis=anfis, data=data, mlp=mlp, synth=synth)
    workload = wl.tiny(wl.WORKLOADS["inventory_20k"])
    inp = wl.set_up(pl, workload, 5, tmp_path)
    assert cli.main(wl.argv("predict_builtin", workload, inp, 5)) == 0
    assert wl.check("predict_builtin", workload, inp, 5, "") == ([], {})

    predicted = wl.out_dir(inp, "predict_builtin") / "predicted.csv"
    lines = predicted.read_text().splitlines()
    for i in range(1, len(lines)):  # perturb every prediction in the last digits
        head, value = lines[i].rsplit(",", 1)
        lines[i] = f"{head},{float(value) * (1 + 1e-6)!r}"
    predicted.write_text("\n".join(lines) + "\n")
    problems, _ = wl.check("predict_builtin", workload, inp, 5, "")
    assert any("builtin CI prediction" in p for p in problems)

    predicted.write_text("\n".join(lines[:-1]) + "\n")  # drop a row
    problems, _ = wl.check("predict_builtin", workload, inp, 5, "")
    assert any("kept rows" in p for p in problems)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path / "work", WORKLOADS[0], root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
