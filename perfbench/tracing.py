"""Per-layer tracing from outside the program.

The tracer swaps each module's public boundary functions for wrappers
that record a span (name, start, end, parent, instance id) and a few
work counts, then restores the originals.  Spans stay in memory until
`write_spans`.  A layer's self time is its spans' durations minus the
durations of their direct child spans.

`kernels.orient` is not wrapped: it is called millions of times, so a
wrapper would dominate what it measures; its cost shows in `geometry`
and in its callers.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

# (module, attribute, span).  A function is wrapped in the namespace its
# caller looks it up in, so a name imported with `from x import f` is
# wrapped in the importing module.
TARGETS = (
    ("hpcolor.model", "Instance.from_json", "read"),
    ("hpcolor.cli", "solve_detailed", "solve"),
    ("hpcolor.cli", "coloring_to_json", "write"),
    ("hpcolor.engine", "cheap_position_ok", "screen"),
    ("hpcolor.model", "cheap_position_ok", "screen"),
    ("hpcolor.engine", "perturb", "perturb"),
    ("hpcolor.engine", "dualize", "dualize"),
    ("hpcolor.engine", "coverage", "coverage"),
    ("hpcolor.engine", "find_pivot", "pivot"),
    ("hpcolor.engine", "color_covered", "cases"),
    ("hpcolor.engine", "hull_from_sorted", "hull"),
    ("hpcolor.engine", "second_layer", "hull"),
    ("hpcolor.engine", "uncovered_witness", "witness"),
    ("hpcolor.uncovered", "polarize", "polarize"),
    ("hpcolor.uncovered", "enumerate_point_hyperedges", "enumerate"),
    ("hpcolor.uncovered", "solve_nae", "nae"),
    ("hpcolor.engine", "verify", "verify"),
)

ROOT = "color"  # the span the benchmark opens around each `color` call

# span -> per-layer self-time metric
SELF_METRICS = {
    ROOT: "cli.self_s",
    "read": "cli.read_s",
    "write": "cli.write_s",
    "screen": "model.screen_s",
    "perturb": "model.perturb_s",
    "dualize": "model.dualize_s",
    "solve": "engine.solve_self_s",
    "coverage": "engine.coverage_s",
    "pivot": "engine.pivot_s",
    "cases": "engine.cases_s",
    "hull": "geometry.hull_s",
    "witness": "uncovered.witness_s",
    "polarize": "uncovered.polarize_s",
    "enumerate": "uncovered.enumerate_s",
    "nae": "nae.solve_s",
    "verify": "verification.verify_s",
}

PATHS = ("A", "B", "C", "D", "singleton", "uncovered")

# per-instance counts, in the order they are reported
COUNT_METRICS = (
    "model.attempts",
    "engine.first_try_frac",
    *(f"engine.path.{p}" for p in PATHS),
    "geometry.hull_calls",
    "geometry.hull_vertices",
    "uncovered.constraints",
    "nae.errors",
    "verification.verify_calls",
    "verification.rejects",
)


def _count(counts: Counter, span: str, result) -> None:
    """Work counts read off a wrapped call's result."""
    if span == "perturb":
        counts["model.attempts"] += 1
    elif span == "hull":
        counts["geometry.hull_calls"] += 1
        counts["geometry.hull_vertices"] += len(getattr(result, "vertices", result))
    elif span == "enumerate":
        counts["uncovered.constraints"] += len(result)
    elif span == "verify":
        counts["verification.verify_calls"] += 1
        counts["verification.rejects"] += result is not None
    elif span == "solve":
        counts["engine.first_try_frac"] += result.attempts == 0
        top = result.case_path[0] if result.case_path else None
        if top in PATHS:
            counts[f"engine.path.{top}"] += 1


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, instance id]
        self._self_s: list = []  # per span: its duration minus its children's
        self._open: list = []  # indices of the spans not yet closed
        self.counts: Counter = Counter()
        self.fired: Counter = Counter()  # "module.attribute" -> calls
        self.instance = None
        self._saved: list = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.instance])
        self._self_s.append(0.0)
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._open.pop()
        duration = span[2] - span[1]
        self._self_s[idx] += duration
        if span[3] is not None:
            self._self_s[span[3]] -= duration

    def _wrap(self, key: str, span: str, fn):
        def wrapper(*args, **kwargs):
            self.fired[key] += 1
            idx = self.begin(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{span}.errors"] += 1
                raise
            finally:
                self.end(idx)
            _count(self.counts, span, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; raise if one no longer exists."""
        for module_name, attr, span in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, name = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner).get(name)
            if raw is None:
                self.uninstall()
                raise LookupError(f"wrapped name {module_name}.{attr} no longer exists")
            key = f"{module_name}.{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(key, span, raw.__func__))
            else:
                wrapped = self._wrap(key, span, raw)
            self._saved.append((owner, name, raw))
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    def missing(self, expected) -> list:
        """Expected wrapped names that never fired."""
        return [key for key in expected if not self.fired[key]]

    def per_instance(self, factors: list) -> dict:
        """Self seconds and counts per instance, keyed by metric name.

        `factors[i]` scales the times of instance id i (see speed.py).
        """
        self_s: Counter = Counter()
        for span, own in zip(self.spans, self._self_s):
            self_s[span[0]] += own * factors[span[4]]
        out = {metric: self_s[span] / len(factors) for span, metric in SELF_METRICS.items()}
        for metric in COUNT_METRICS:
            out[metric] = self.counts[metric] / len(factors)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, instance in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "instance": instance}
                    )
                    + "\n"
                )
