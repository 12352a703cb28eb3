#!/usr/bin/env python3
"""Case path, hull-scan counts and stage times of the criterion-4 solves.

Solves the instances that `test_criterion_4_scaling` times (covered mode,
seed 0, bound max(64, 4n), n = 2^10..2^17) with ``check=False`` and writes,
per size:

- the case path and attempt count;
- `hull_from_sorted` calls in one solve and the points they scanned
  (counted by wrapping the function, including the call inside
  `second_layer`); these counts are deterministic;
- the median milliseconds of each stage (screen, dualize, coverage,
  cases) and of the whole solve over ``--repeats`` solves.

Run from the repo root:
    python3 scripts/stage_counts.py --out BENCH_6.json
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hpcolor import engine, geometry
from hpcolor.generate import GenSpec, generate

SIZES = [2**k for k in range(10, 18)]
STAGES = {
    "screen": "cheap_position_ok",
    "dualize": "dualize",
    "coverage": "coverage",
    "cases": "color_covered",
}


def _patch(owner, name, make):
    raw = getattr(owner, name)
    setattr(owner, name, make(raw))
    return owner, name, raw


def _restore(saved):
    for owner, name, raw in reversed(saved):
        setattr(owner, name, raw)


def count_hulls(inst):
    """One solve with every `hull_from_sorted` call counted."""
    hulls = Counter()

    def make(raw):
        def counted(points, side):
            hulls["calls"] += 1
            hulls["points"] += len(points)
            return raw(points, side)

        return counted

    # engine imported the name; second_layer looks it up in geometry
    saved = [_patch(mod, "hull_from_sorted", make) for mod in (geometry, engine)]
    try:
        result = engine.solve_detailed(inst, check=False)
    finally:
        _restore(saved)
    return result, hulls


def time_stages(inst, repeats):
    """Median milliseconds per stage and per solve over `repeats` solves."""
    spent = {stage: [] for stage in STAGES}
    solve_ms = []
    current = Counter()

    def make(stage):
        def wrap(raw):
            def timed(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return raw(*args, **kwargs)
                finally:
                    current[stage] += time.perf_counter() - t0

            return timed

        return wrap

    saved = [_patch(engine, name, make(stage)) for stage, name in STAGES.items()]
    try:
        for _ in range(repeats):
            current.clear()
            t0 = time.perf_counter()
            engine.solve_detailed(inst, check=False)
            solve_ms.append((time.perf_counter() - t0) * 1e3)
            for stage in STAGES:
                spent[stage].append(current[stage] * 1e3)
    finally:
        _restore(saved)
    out = {stage: round(statistics.median(v), 3) for stage, v in spent.items()}
    out["solve"] = round(statistics.median(solve_ms), 3)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_6.json")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    rows = []
    for n in SIZES:
        inst = generate(GenSpec(n=n, mode="covered", seed=0, bound=max(64, 4 * n)))
        result, hulls = count_hulls(inst)
        row = {
            "n": n,
            "case_path": "/".join(result.case_path),
            "attempts": result.attempts,
            "hull_calls": hulls["calls"],
            "hull_points": hulls["points"],
            "median_ms": time_stages(inst, args.repeats),
        }
        rows.append(row)
        print(json.dumps(row), flush=True)
    doc = {
        "command": f"python3 scripts/stage_counts.py --out {args.out} --repeats {args.repeats}",
        "instances": "covered, seed 0, bound max(64, 4n), solve_detailed(check=False)",
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {platform.processor() or 'cpu'}, {os.cpu_count()} cpus",
        "sizes": rows,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
