"""The benchmark's tracer (perfbench/tracing.py) wraps the functions it
names in `TRACED` by name, so renaming or deleting one of them breaks every
traced benchmark run; this test catches that with the unit tests."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
