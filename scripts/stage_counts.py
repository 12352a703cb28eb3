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
  cases) and of the whole solve over ``--repeats`` solves, and of
  `hull`, the time of every `hull_from_sorted` call of a solve summed
  (`second_layer`'s included), which the stages that build hulls
  include too;
- the median milliseconds of `read` (`Instance.from_json` on the
  instance's JSON text) and of `write` (`coloring_to_json` on the
  solve's colors) over ``--repeats`` calls;
- up to n = 16,384, the perturbed row over at least 15 calls each:
  `perturb` (``perturb(inst, 0)`` on the parsed instance, whose
  coordinates come out as ints over a common denominator, its `Fraction`
  columns left unbuilt; older checkouts build one Fraction per value),
  `dualize_perturbed` (`dualize` on that perturbed instance) and
  `solve_perturbed` (``solve_detailed(..., check=False)`` on it).  Larger sizes are left out because a solve
  that runs in `Fraction` arithmetic (before denominators were cleared
  in `dualize`) takes more than about 1 s per call there: 2.0 s at
  32,768 and 5.3 s at 65,536, against 0.9 s at 16,384;
- up to the same size and over as many calls, `solve_coprime`: the read
  and a ``check=False`` solve of the instance with 1/p added to each
  value, p a distinct prime above 10**6 per value.  Denominators that
  many and that large have no common denominator cheap to clear, so the
  tips stay Fractions (see `model.common_denominator`).

With ``--against DIR`` the solves, the `read`, `write` and perturbed
calls of the hpcolor in DIR/src (another checkout, say the parent
commit) alternate call by call with this checkout's, each side first in
every other round, and their medians, the stage medians included, are
written under ``against_ms``.  The output
names the commit of each checkout (``+changes`` if its src/ differs
from that commit) under ``commit`` and ``against``.

Run from the repo root:
    python3 scripts/stage_counts.py --out BENCH_6.json
    python3 scripts/stage_counts.py --out BENCH_18.json --against ../parent
    python3 scripts/stage_counts.py --out BENCH_21.json --against ../parent
    python3 scripts/stage_counts.py --out BENCH_22.json --against ../parent
    python3 scripts/stage_counts.py --out BENCH_23.json --against ../parent
"""

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hpcolor import engine, geometry, model
from hpcolor.generate import GenSpec, generate
from hpcolor.rationals import format_scalar

SIZES = [2**k for k in range(10, 18)]
PERTURBED_CALLS = 15  # fewest calls per size of each perturbed stage
PERTURBED_MAX_N = 16384  # the largest size with a perturbed row
FIRST_PRIME = 10**6  # the coprime row's denominators are the primes above
STAGES = {
    "screen": "cheap_position_ok",
    "dualize": "dualize",
    "coverage": "coverage",
    "cases": "color_covered",
    "hull": "hull_from_sorted",  # also wrapped in geometry, for second_layer
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


def time_stages(inst, repeats, engines):
    """Median milliseconds per stage and per solve over `repeats` solves
    with each of `engines` ({key: (model, engine)}), alternating solve by
    solve, each side first in every other round."""
    spent = {key: {stage: [] for stage in STAGES} for key in engines}
    solve_ms = {key: [] for key in engines}
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

    text = inst.to_json()
    parsed = {key: mod.Instance.from_json(text) for key, (mod, _eng) in engines.items()}
    saved = [
        _patch(eng, name, make(stage)) for _mod, eng in engines.values() for stage, name in STAGES.items()
    ]
    saved += [_patch(eng.geo, STAGES["hull"], make("hull")) for _mod, eng in engines.values()]
    try:
        for rep in range(repeats):
            for key in list(engines)[:: 1 if rep % 2 == 0 else -1]:
                current.clear()
                t0 = time.perf_counter()
                engines[key][1].solve_detailed(parsed[key], check=False)
                solve_ms[key].append((time.perf_counter() - t0) * 1e3)
                for stage in STAGES:
                    spent[key][stage].append(current[stage] * 1e3)
    finally:
        _restore(saved)
    out = {}
    for key in engines:
        out[key] = {stage: round(statistics.median(v), 3) for stage, v in spent[key].items()}
        out[key]["solve"] = round(statistics.median(solve_ms[key]), 3)
    return out


def checkout_commit(root: Path) -> str:
    """The commit checked out at root, with "+changes" if src/ differs from it."""
    git = ["git", "-C", str(root)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode != 0:
        return "not a git checkout"
    status = subprocess.run(git + ["status", "--porcelain", "--", "src"], capture_output=True, text=True)
    return head.stdout.strip() + ("+changes" if status.stdout else "")


def load_against(root: Path, names=("model", "engine")):
    """The modules `names` of the hpcolor of another checkout, imported
    as `hpcolor_against`."""
    pkg = root / "src" / "hpcolor"
    spec = importlib.util.spec_from_file_location(
        "hpcolor_against", pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return tuple(importlib.import_module(f"hpcolor_against.{name}") for name in names)


def primes_above(lo: int, count: int) -> list:
    """The first `count` primes above `lo`, by a sieve of (lo, lo + 20*count)."""
    hi = lo + 20 * count
    alive = bytearray([1]) * (hi - lo)
    p = 2
    while p * p < hi:
        first = max(p * p, (lo // p + 1) * p)
        alive[first - lo :: p] = bytes(len(range(first - lo, hi - lo, p)))
        p += 1
    found = [lo + i for i in range(1, hi - lo) if alive[i]]
    assert len(found) >= count
    return found[:count]


def coprime_json(inst) -> str:
    """The JSON text of `inst` with 1/p added to each value, p the primes
    above FIRST_PRIME, one per value."""
    primes = iter(primes_above(FIRST_PRIME, 2 * len(inst)))
    entries = [
        {"a": format_scalar(h.a + Fraction(1, next(primes))),
         "b": format_scalar(h.b + Fraction(1, next(primes))), "side": h.side}
        for h in inst
    ]
    return json.dumps({"halfplanes": entries})


def read_and_solve(mod, eng, text):
    return eng.solve_detailed(mod.Instance.from_json(text), check=False)


def time_front(inst, colors, repeats, against=None):
    """Median milliseconds of `read`, `write` and, up to PERTURBED_MAX_N,
    the perturbed stages, for this checkout and, alternating call by
    call, for `against`."""
    text = inst.to_json()
    mods = {"ms": (model, engine)}
    if against is not None:
        mods["against_ms"] = against
    counts = {"read": repeats, "write": repeats}
    if len(inst) <= PERTURBED_MAX_N:
        perturbed = ("perturb", "dualize_perturbed", "solve_perturbed", "solve_coprime")
        counts.update(dict.fromkeys(perturbed, max(repeats, PERTURBED_CALLS)))
        coprime = coprime_json(inst)
    calls, samples = {}, {}
    for key, (mod, eng) in mods.items():
        calls[key] = {
            "read": partial(mod.Instance.from_json, text),
            "write": partial(mod.coloring_to_json, colors),
        }
        if "perturb" in counts:
            parsed = mod.Instance.from_json(text)
            pert = mod.perturb(parsed, 0)
            calls[key]["perturb"] = partial(mod.perturb, parsed, 0)
            calls[key]["dualize_perturbed"] = partial(mod.dualize, pert)
            calls[key]["solve_perturbed"] = partial(eng.solve_detailed, pert, check=False)
            calls[key]["solve_coprime"] = partial(read_and_solve, mod, eng, coprime)
        samples[key] = {stage: [] for stage in counts}
    for stage, count in counts.items():
        for rep in range(count):
            # alternate which side goes first, so neither always follows
            # the other's garbage collection
            for key in list(mods)[:: 1 if rep % 2 == 0 else -1]:
                t0 = time.perf_counter()
                calls[key][stage]()
                samples[key][stage].append((time.perf_counter() - t0) * 1e3)
    return {
        key: {stage: round(statistics.median(v), 3) for stage, v in per_stage.items()}
        for key, per_stage in samples.items()
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_6.json")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument(
        "--against", type=Path, help="another checkout to time the solves, read, write and the perturbed stages against"
    )
    args = ap.parse_args()
    against = load_against(args.against) if args.against else None
    engines = {"ms": (model, engine)}
    if against is not None:
        engines["against_ms"] = against

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
        }
        timed = time_stages(inst, args.repeats, engines)
        front = time_front(inst, result.colors, args.repeats, against)
        for key in engines:
            timed[key].update(front[key])
        row["median_ms"] = timed.pop("ms")
        row.update(timed)
        rows.append(row)
        print(json.dumps(row), flush=True)
    command = f"python3 scripts/stage_counts.py --out {args.out} --repeats {args.repeats}"
    doc = {
        # the checkout compared against is named by its commit, not its path
        "command": command + (" --against DIR" if args.against else ""),
        "commit": checkout_commit(Path(__file__).resolve().parents[1]),
        "instances": "covered, seed 0, bound max(64, 4n), solve_detailed(check=False);"
        f" the perturbed stages on perturb(inst, 0), n <= {PERTURBED_MAX_N};"
        f" solve_coprime reads and solves inst + 1/p per value, p distinct primes > {FIRST_PRIME}",
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {platform.processor() or 'cpu'}, {os.cpu_count()} cpus",
        "sizes": rows,
    }
    if args.against:
        doc["against"] = checkout_commit(args.against)
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
