#!/usr/bin/env python3
"""Constraint counts and times of the uncovered path's enumeration.

For convex polar sets (upper half-planes y <= a*x - a^2 - 1 with n
distinct integer slopes a from ``Random(n).sample(range(-2n, 2n + 1), n)``)
at n = 64, 128, 256 and for generated ``uncovered`` instances (seed 0,
bound 50) at n = 128, 1200, it polarizes the dual scene at the witness
line that `coverage` finds, as the solve does, and writes per set:

- m, the number of candidates on the first three weak hull layers;
- the number of enumerated edges and the sha256 of ``repr`` of the
  edge list, which any two versions that claim the same constraints
  must share;
- the median milliseconds of the peel (`_homogeneous` plus
  `_first_layers`) and of the whole `enumerate_point_hyperedges` call,
  peel included, over five calls.

Prints the JSON; run from the repo root (about 5 s):
    python3 scripts/uncovered_counts.py > BENCH_11.json
"""

import hashlib
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hpcolor.engine import coverage
from hpcolor.generate import GenSpec, generate
from hpcolor.model import UPPER, HalfPlane, Instance, dualize
from hpcolor.uncovered import (
    _first_layers,
    _homogeneous,
    enumerate_point_hyperedges,
    polarize,
    uncovered_witness,
)

REPEATS = 5
SETS = [("convex polar", n) for n in (64, 128, 256)] + [("uncovered", n) for n in (128, 1200)]


def instance(family: str, n: int) -> Instance:
    if family == "uncovered":
        return generate(GenSpec(n=n, mode="uncovered", seed=0))
    slopes = random.Random(n).sample(range(-2 * n, 2 * n + 1), n)
    return Instance([HalfPlane(a, -a * a - 1, UPPER) for a in slopes])


def median_ms(fn, arg) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t0)
    return round(1000 * statistics.median(times), 3)


def main() -> int:
    rows = []
    for family, n in SETS:
        inst = instance(family, n)
        scene = dualize(inst)
        witness = uncovered_witness(scene, coverage(scene).witness)
        points = polarize(scene, witness)
        edges = enumerate_point_hyperedges(points)
        rows.append(
            {
                "family": family,
                "n": n,
                "m": len(_first_layers(_homogeneous(points))),
                "edges": len(edges),
                "edges_sha256": hashlib.sha256(repr(edges).encode()).hexdigest(),
                "median_ms": {
                    "peel": median_ms(lambda p: _first_layers(_homogeneous(p)), points),
                    "enumerate": median_ms(enumerate_point_hyperedges, points),
                },
            }
        )
    out = {
        "command": "python3 scripts/uncovered_counts.py > BENCH_11.json",
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} cpus",
        "repeats": REPEATS,
        "sets": rows,
    }
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
