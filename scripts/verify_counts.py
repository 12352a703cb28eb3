#!/usr/bin/env python3
"""Times of ``verify`` against the full arrangement walk, with the
answer and the branches of the per-line decider.

Sets: engine outputs (``solve``) on generated ``covered``, ``random``
and ``uncovered`` instances (seed 0, bound 50) at n = 128, 256, 512, and
on the convex polar set (upper half-planes y <= a*x - a^2 - 1, n
distinct slopes from ``Random(n).sample(range(-2n, 2n + 1), n)``) at
n = 64, 256, 512, 1,024.  Per set it writes the size of the smaller
color class, the decider's answer ("ok" or "violated") and the branches
it took, the median milliseconds of the full walk (``_line_table`` plus
``_full_walk``, which is all that ``verify`` did before it decided
first) and of ``verify``, over three calls each (the full walk once at
n = 1,024), and checks that both give the same answer.  ``path_counts``
tallies the decider's branches over the first 1,000 instances of
acceptance criterion 1 (the same seeds, modes and sizes, n from 3 to
64) with the engine's colorings.

Prints the JSON; run from the repo root (about 70 s):
    python3 scripts/verify_counts.py > BENCH_17.json
"""

import json
import os
import platform
import random
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hpcolor.engine import solve
from hpcolor.generate import MODES, GenSpec, generate
from hpcolor.model import RED, UPPER, HalfPlane, Instance
from hpcolor.verification import _full_walk, _line_table, _violated, verify

REPEATS = 3
SETS = [(family, n) for family in ("covered", "random", "uncovered") for n in (128, 256, 512)]
SETS += [("convex polar", n) for n in (64, 256, 512, 1024)]


def instance(family: str, n: int) -> Instance:
    if family != "convex polar":
        return generate(GenSpec(n=n, mode=family, seed=0))
    slopes = random.Random(n).sample(range(-2 * n, 2 * n + 1), n)
    return Instance([HalfPlane(a, -a * a - 1, UPPER) for a in slopes])


def median_ms(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return round(1000 * statistics.median(times), 2), result


def full_walk(inst, colors):
    lines, members = _line_table(inst)
    return _full_walk(inst, lines, members, [c == RED for c in colors], 3)


def decide(inst, colors, branches):
    lines, members = _line_table(inst)
    return _violated(lines, members, [c == RED for c in colors], 3, branches)


def criterion_1_paths(count: int) -> dict:
    rng = random.Random(20260808)  # tests/test_acceptance.py, criterion 1
    paths = Counter()
    for t in range(count):
        n = rng.randint(3, 64)
        mode = MODES[t % len(MODES)]
        inst = generate(GenSpec(n=n, mode=mode, seed=t, bound=rng.choice([5, 50, 400])))
        branches = Counter()
        decide(inst, solve(inst), branches)
        paths.update({f"{mode} {b}": times for b, times in branches.items()})
    return dict(sorted(paths.items()))


def main() -> int:
    rows = []
    for family, n in SETS:
        inst = instance(family, n)
        colors = solve(inst)
        walk_ms, expected = median_ms(lambda: full_walk(inst, colors), 1 if n >= 1024 else REPEATS)
        verify_ms, got = median_ms(lambda: verify(inst, colors, 3))
        if got != expected:
            raise SystemExit(f"verify and the full walk disagree on {family} n={n}")
        branches = Counter()
        rows.append(
            {
                "family": family,
                "n": n,
                "smaller_class": min(colors.count(RED), n - colors.count(RED)),
                "decider": "violated" if decide(inst, colors, branches) else "ok",
                "branches": dict(sorted(branches.items())),
                "median_ms": {"full_walk": walk_ms, "verify": verify_ms},
                "speedup": round(walk_ms / verify_ms, 1),
            }
        )
    out = {
        "command": "python3 scripts/verify_counts.py > BENCH_17.json",
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} cpus",
        "repeats": REPEATS,
        "full_walk_repeats_at_1024": 1,
        "sets": rows,
        "path_counts": {"criterion 1, first 1,000 instances": criterion_1_paths(1000)},
    }
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
