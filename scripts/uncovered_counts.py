#!/usr/bin/env python3
"""Constraint counts and times of the uncovered path's enumeration.

For convex polar sets (upper half-planes y <= a*x - a^2 - 1 with n
distinct integer slopes a from ``Random(n).sample(range(-2n, 2n + 1), n)``)
at n = 64, 128, 256, 1024, 4096 and for generated ``uncovered`` instances
(seed 0, bound 50) at n = 128, 1200, 4096, it polarizes the dual scene at
the witness line that `coverage` finds, as the solve does, and writes per
set:

- m, the number of candidates on the first three weak hull layers;
- the number of enumerated edges and the sha256 of ``repr`` of the
  edge list, which any two versions that claim the same constraints
  must share;
- the median milliseconds of the peel (`_first_layers`) and of the
  whole `enumerate_point_hyperedges` call, peel included, over five calls.

With ``--against DIR`` the same two calls of the hpcolor in DIR/src
(another checkout, say the parent commit) run on the same points,
alternating call by call with this checkout's, each side first in every
other round; their medians go under ``against_ms``, and the script exits
1 without output if the two sides' edge lists differ on any set.  The
output names the commit of each checkout (``+changes`` if its src/
differs from that commit) under ``commit`` and ``against``.

Prints the JSON; run from the repo root (a few seconds):
    python3 scripts/uncovered_counts.py > BENCH_20.json
    python3 scripts/uncovered_counts.py --against ../parent > BENCH_24.json
"""

import argparse
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

from stage_counts import checkout_commit, load_against

from hpcolor.engine import coverage
from hpcolor.generate import GenSpec, generate
from hpcolor.model import UPPER, HalfPlane, Instance, dualize
from hpcolor.uncovered import (
    _first_layers,
    enumerate_point_hyperedges,
    polarize,
    uncovered_witness,
)

REPEATS = 5
SETS = [("convex polar", n) for n in (64, 128, 256, 1024, 4096)]
SETS += [("uncovered", n) for n in (128, 1200, 4096)]


def instance(family: str, n: int) -> Instance:
    if family == "uncovered":
        return generate(GenSpec(n=n, mode="uncovered", seed=0))
    slopes = random.Random(n).sample(range(-2 * n, 2 * n + 1), n)
    return Instance([HalfPlane(a, -a * a - 1, UPPER) for a in slopes])


def median_ms(sides, points) -> dict:
    """{side: {stage: median milliseconds}} of each side's calls
    ({side: {stage: function}}) on `points`, alternating call by call,
    each side first in every other round."""
    times = {key: {stage: [] for stage in calls} for key, calls in sides.items()}
    for stage in ("peel", "enumerate"):
        for rep in range(REPEATS):
            for key in list(sides)[:: 1 if rep % 2 == 0 else -1]:
                t0 = time.perf_counter()
                sides[key][stage](points)
                times[key][stage].append(time.perf_counter() - t0)
    return {
        key: {stage: round(1000 * statistics.median(v), 3) for stage, v in per_stage.items()}
        for key, per_stage in times.items()
    }


def sha256(edges) -> str:
    return hashlib.sha256(repr(edges).encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", type=Path, help="another checkout to time the peel and the enumeration against")
    args = ap.parse_args()
    sides = {"median_ms": {"peel": _first_layers, "enumerate": enumerate_point_hyperedges}}
    if args.against:
        (other,) = load_against(args.against, ("uncovered",))
        sides["against_ms"] = {"peel": other._first_layers, "enumerate": other.enumerate_point_hyperedges}
    rows = []
    for family, n in SETS:
        inst = instance(family, n)
        scene = dualize(inst)
        witness = uncovered_witness(scene, coverage(scene).witness)
        points = polarize(scene, witness)
        edges = enumerate_point_hyperedges(points)
        digest = sha256(edges)
        if args.against and sha256(sides["against_ms"]["enumerate"](points)) != digest:
            print(f"{family} n={n}: the edge lists of the two checkouts differ", file=sys.stderr)
            return 1
        rows.append(
            {
                "family": family,
                "n": n,
                "m": sum(map(len, _first_layers(points))),
                "edges": len(edges),
                "edges_sha256": digest,
                **median_ms(sides, points),
            }
        )
    out = {
        # the checkout compared against is named by its commit, not its path
        "command": "python3 scripts/uncovered_counts.py"
        + (" --against DIR > BENCH_24.json" if args.against else " > BENCH_20.json"),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} cpus",
        "repeats": REPEATS,
        "sets": rows,
    }
    if args.against:
        out["commit"] = checkout_commit(Path(__file__).resolve().parents[1])
        out["against"] = checkout_commit(args.against)
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
