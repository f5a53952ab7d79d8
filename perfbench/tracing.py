"""Span tracing installed from outside the program.

`Tracer.install` replaces the public functions named in `TRACED` with
wrappers that time each call and then call the original.  A function is
replaced under every name any `pipelife` module binds it to, so
`from .data import ingest_csv` inside the CLI is traced too.  `uninstall`
puts the originals back.

Spans are aggregated in memory by call path (operation, then the traced
functions from the outermost inward), which gives calls, inclusive time and
self time (inclusive minus the time of child spans) for every node of the
call tree.  A few wrappers also read counts off the arguments or the
return value, such as rows ingested or the size of an ANFIS design matrix.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute) of every traced function; "Class.method" for methods
TRACED = (
    ("cli", "main"),
    ("data", "ingest_csv"),
    ("data", "write_csv"),
    ("data", "split_dataset"),
    ("data", "build_features"),
    ("synth", "generate"),
    ("synth", "moment_report"),
    ("stats", "summarize"),
    ("stats", "significance_report"),
    ("regression", "predict_rul"),
    ("regression", "fit_polynomial"),
    ("metrics", "evaluate"),
    ("mlp", "run_experiment_suite"),
    ("mlp", "train"),
    ("mlp", "loss_and_gradient"),
    ("mlp", "forward"),
    ("mlp", "MlpModel.predict_batch"),
    ("anfis", "init_grid"),
    ("anfis", "hybrid_train"),
    ("anfis", "lse_consequents"),
    ("anfis", "sensitivity_ranking"),
    ("anfis", "contour_grid"),
    ("anfis", "AnfisModel.predict_batch"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _rows(arr) -> int:
    shape = getattr(arr, "shape", None)
    return shape[0] if shape else 1


# counters read at a traced call: (tracer, args, result, nested) -> None
def _count_ingest(tr, args, result, nested):
    tr.count("data.ingest_csv.rows", result[1].rows_read)


def _count_batch(prefix):
    def hook(tr, args, result, nested):
        tr.count(prefix + ".rows", _rows(args[1]))
    return hook


def _count_epochs(prefix):
    def hook(tr, args, result, nested):
        history = result[1]
        if nested or len(history) == 0:
            return
        tr.count(prefix + ".useful_epochs", history.best_epoch + 1)
        tr.count(prefix + ".epochs", len(history))
    return hook


def _count_lse(tr, args, result, nested):
    model, x = args[0], args[1]
    columns = model.n_rules * (model.n_inputs + 1)
    tr.peak("anfis.lse_consequents.design_bytes", _rows(x) * columns * 8)
    tr.count("anfis.lse_consequents.degenerate", int(bool(result.lse_degenerate)))


HOOKS = {
    "data.ingest_csv": _count_ingest,
    "mlp.predict_batch": _count_batch("mlp.predict_batch"),
    "anfis.predict_batch": _count_batch("anfis.predict_batch"),
    "mlp.train": _count_epochs("mlp"),
    "anfis.hybrid_train": _count_epochs("anfis"),
    "anfis.lse_consequents": _count_lse,
}


class Tracer:
    """Aggregated spans and counts, keyed by the operation being run."""

    def __init__(self):
        self.op = ""
        self._stack = []          # [path, child_seconds] per open span
        self._patched = []        # (owner, attr, original)
        self.nodes = defaultdict(lambda: [0, 0.0, 0.0])  # path -> calls, s, self_s
        self.counts = defaultdict(int)                    # (op, name) -> count

    # -- counters ---------------------------------------------------------

    def count(self, name: str, n: int) -> None:
        self.counts[(self.op, name)] += n

    def peak(self, name: str, n: int) -> None:
        key = (self.op, name)
        self.counts[key] = max(self.counts[key], n)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        nodes = self.nodes
        hook = HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else (self.op,)
            frame = [parent + (name,), 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                node = nodes[frame[0]]
                node[0] += 1
                node[1] += dt
                node[2] += dt - frame[1]
            if hook is not None:
                hook(self, args, result, name in parent)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "pipelife") -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for mod_name, attr in TRACED:
            owner = sys.modules[f"{package}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(span_name(mod_name, attr), original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name(mod_name, attr), original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- aggregation ------------------------------------------------------

    def by_function(self, op=None) -> dict:
        """name -> (calls, s, self_s), over one operation or all of them.

        Inclusive time counts only the outermost span of a name on a path,
        so recursion is not counted twice.
        """
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for path, (calls, s, self_s) in self.nodes.items():
            if op is not None and path[0] != op:
                continue
            name = path[-1]
            rec = out[name]
            rec[0] += calls
            rec[2] += self_s
            if name not in path[1:-1]:
                rec[1] += s
        return {k: tuple(v) for k, v in out.items()}

    def counters(self, op=None) -> dict:
        out = defaultdict(int)
        for (o, name), n in self.counts.items():
            if op is None or o == op:
                if name.endswith("_bytes"):
                    out[name] = max(out[name], n)
                else:
                    out[name] += n
        return dict(out)

    def tree(self) -> list:
        """Every call path with its totals, for writing out after the run."""
        return [
            {"path": list(path), "calls": c, "s": s, "self_s": self_s}
            for path, (c, s, self_s) in sorted(self.nodes.items())
        ]

    def reset(self) -> None:
        self.nodes.clear()
        self.counts.clear()
