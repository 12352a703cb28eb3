"""The acceptance gate: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The whole module is
deterministic; the only timing-sensitive piece is the scaling
measurement, whose tolerance band is fixed below.
"""

import random
import statistics
import time
from collections import Counter

import numpy as np

from hpcolor import engine, geometry
from hpcolor.bench import run_bench
from hpcolor.engine import coverage, find_pivot
from hpcolor.generate import GenSpec, generate
from hpcolor.geometry import region_contains
from hpcolor.model import BLUE, HalfPlane, dual_line_meets_ray, dualize
from hpcolor.verification import arrangement_samples, depth, oracle, verify

from conftest import frame_points, instance_from_tips, observe

MODES = ("covered", "uncovered", "degenerate", "random")


def doubling_ratios(records) -> list[tuple[int, float]]:
    """Median time per size, then t(2n)/t(n) per consecutive doubling."""
    by_n: dict = {}
    for r in records:
        by_n.setdefault(r.n, []).append(r.seconds)
    sizes = sorted(by_n)
    medians = {n: statistics.median(by_n[n]) for n in sizes}
    out = []
    for a, b in zip(sizes, sizes[1:]):
        if b == 2 * a and medians[a] > 0:
            out.append((b, medians[b] / medians[a]))
    return out


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {name}{suffix}")
    assert ok, f"criterion {number}: {name} {detail}"


def test_criterion_1_theorem_end_to_end():
    """10,000 seeded mixed instances, n in 3..64: solve is always verified."""
    rng = random.Random(20260808)
    failures = 0
    total = 10_000
    t0 = time.time()
    for t in range(total):
        n = rng.randint(3, 64)
        mode = MODES[t % len(MODES)]
        inst = generate(GenSpec(n=n, mode=mode, seed=t, bound=rng.choice([5, 50, 400])))
        colors = engine.solve(inst)
        if verify(inst, colors, 3) is not None:
            failures += 1
    elapsed = time.time() - t0
    report(
        1,
        "solve passes verify at depth 3 on 10,000 mixed instances",
        failures == 0,
        f"failures={failures}, {elapsed:.0f}s",
    )


def test_criterion_2_oracle_concordance():
    """1,000 instances with n <= 10: oracle finds a coloring, engine verified."""
    rng = random.Random(777)
    bad = 0
    for t in range(1_000):
        n = rng.randint(3, 10)
        mode = MODES[t % len(MODES)]
        inst = generate(GenSpec(n=n, mode=mode, seed=10_000 + t, bound=rng.choice([4, 30])))
        if oracle(inst, 3) is None:
            bad += 1
            continue
        if verify(inst, engine.solve(inst), 3) is not None:
            bad += 1
    report(2, "oracle and engine agree on 1,000 small instances", bad == 0, f"bad={bad}")


def test_criterion_3_depth2_tightness(i_tri2):
    """The outward triangle needs three colors at depth 2 but not depth 3."""
    none_at_2 = oracle(i_tri2, 2) is None
    some_at_3 = oracle(i_tri2, 3) is not None
    report(3, "depth-2 tightness on the outward triangle", none_at_2 and some_at_3)


def test_criterion_4_scaling():
    """Covered instances, n = 2^10..2^17: doubling ratios within [1.5, 3.0]."""
    sizes = [2**k for k in range(10, 18)]
    records = run_bench(sizes, seed=0, repeats=5)
    ratios = doubling_ratios(records)
    inside = sum(1 for _, r in ratios if 1.5 <= r <= 3.0)
    detail = ", ".join(f"{n}:{r:.2f}" for n, r in ratios)
    report(4, "time ratio per doubling in [1.5, 3.0] for >= 6 of 7", inside >= 6, detail)


def test_criterion_4_work_counts(monkeypatch):
    """Criterion 4's instances, solved once each with check=False, do
    linear work in counts that host load cannot move.  Per solve:
    `hull_from_sorted` runs at most 3 times over at most 2n points in all,
    `geometry.orientation` runs at most n times, and at most 2n points
    are passed to `engine._clears`.  (Measured maxima over n = 2^10..2^17:
    3 calls, 1.36n points, 0.86n orientations, 0.79n `_clears` points.)
    The floors (one call, n points) show the counters fired, and every
    tip is read, by the hull filter (`geometry._outside`, which reads each
    point of its range once) or by the scan (`geometry._scan`, which
    reads each point it is given): together they read at least n points.
    """
    counts = Counter()

    def counted(owner, name, add):
        raw = getattr(owner, name)

        def wrapper(*args):
            add(*args)
            return raw(*args)

        monkeypatch.setattr(owner, name, wrapper)

    # engine imported `hull_from_sorted`; `second_layer` looks it up in geometry
    for owner in (geometry, engine):
        counted(
            owner,
            "hull_from_sorted",
            lambda points, side: counts.update(hull_calls=1, hull_points=len(points)),
        )
    counted(geometry, "orientation", lambda p, q, r: counts.update(orientations=1))
    counted(
        geometry,
        "_outside",
        lambda points, lo, hi, a, b, turn: counts.update(filter_reads=len(range(lo, hi))),
    )
    counted(geometry, "_scan", lambda points, turn: counts.update(scan_reads=len(points)))
    counted(
        engine,
        "_clears",
        lambda a, b, lows, ups, skip: counts.update(
            clears_points=sum(len(fam) for fam in (lows, ups) if fam is not None)
        ),
    )
    clears_seen = 0
    for n in [2**k for k in range(10, 18)]:
        inst = generate(GenSpec(n=n, mode="covered", seed=0, bound=max(64, 4 * n)))
        counts.clear()
        engine.solve_detailed(inst, check=False)
        assert 1 <= counts["hull_calls"] <= 3, (n, counts)
        assert n <= counts["hull_points"] <= 2 * n, (n, counts)
        assert n <= counts["filter_reads"] + counts["scan_reads"], (n, counts)
        assert counts["orientations"] <= n, (n, counts)
        assert counts["clears_points"] <= 2 * n, (n, counts)
        clears_seen += counts["clears_points"]
    assert clears_seen > 0  # the `_clears` wrapper fired


def test_criterion_5_duality_incidence():
    """10^5 random pairs: membership equals dual ray intersection."""
    rng = random.Random(55)
    mismatches = 0
    for _ in range(100_000):
        h = HalfPlane(
            rng.randint(-50, 50),
            rng.randint(-50, 50),
            "upper" if rng.random() < 0.5 else "lower",
        )
        pt = (rng.randint(-50, 50), rng.randint(-50, 50))
        if h.contains(pt) != dual_line_meets_ray(pt, h):
            mismatches += 1
    report(5, "duality incidence on 100,000 pairs", mismatches == 0, f"mismatches={mismatches}")


def test_criterion_6_observation_suites():
    """Observation colorings verify; the pivot sweep always succeeds."""
    from hpcolor.engine import View
    from hpcolor.model import DualScene

    ok = True
    # non-crossing branch
    u_act, l_act = [(-2, 1, 0), (0, 0, 1)], [(1, -5, 2), (3, -4, 3)]
    colors = observe(u_act, l_act, (0, 0, 1), (1, -5, 2), [])
    inst = instance_from_tips(u_act, l_act)
    ordered = [colors[t[2]] for t in u_act + l_act]
    ok &= verify(inst, ordered, 3) is None

    # missing-hull-neighbour branch with the tangent rule
    u_act, l_act = [(0, 0, 0)], [(1, -5, 1), (2, -1, 2), (5, -5, 3)]
    path = []
    colors = observe(u_act, l_act, (0, 0, 0), (1, -5, 1), path)
    inst = instance_from_tips(u_act, l_act)
    ordered = [colors[t[2]] for t in u_act + l_act]
    ok &= path[0] == "obs3" and verify(inst, ordered, 3) is None

    # empty second layer leaves the successor blue
    u_act, l_act = [(0, 0, 0)], [(1, -5, 1), (3, -4, 2)]
    colors = observe(u_act, l_act, (0, 0, 0), (1, -5, 1), [])
    ok &= colors[2] == BLUE  # the tip (3, -4)

    # pivot sweep on 10^4 fuzzed covered scenes
    rng = random.Random(66)
    found = 0
    for t in range(10_000):
        inst = generate(GenSpec(n=rng.randint(3, 12), mode="covered", seed=20_000 + t, bound=25))
        cov = coverage(dualize(inst))
        if cov.kind != "covered":
            continue
        pv = find_pivot(cov)
        view = View.of(DualScene(frame_points(pv.view.u), frame_points(pv.view.l), pv.view.gap))
        if view.u.chain.vertex_index(pv.p) is None or not region_contains(view.l.chain, pv.p):
            ok = False
            break
        found += 1
    report(6, "observation suites and pivot sweep", ok and found > 9_900, f"sweeps={found}")


def test_criterion_7_verifier_completeness():
    """500 fuzzed n<=8 instances: random sampling finds no cell the
    arrangement samples miss."""
    rng = random.Random(99)
    bad = 0
    for t in range(500):
        n = rng.randint(1, 8)
        mode = MODES[t % len(MODES)]
        if mode == "covered" and n < 3:
            n = 3
        inst = generate(GenSpec(n=n, mode=mode, seed=30_000 + t, bound=8))
        families = {tuple(depth(inst, pt)[1]) for pt in arrangement_samples(inst)}
        # dense random side: 10^5 integer points via exact int64 arithmetic
        coeffs = np.array([h.int_constraint() for h in inst], dtype=np.int64)
        xs = rng.randrange(2**31)
        rs = np.random.default_rng(xs)
        pts = rs.integers(-1200, 1201, size=(100_000, 2)).astype(np.int64)
        vals = (
            coeffs[:, 0][None, :] * pts[:, 0][:, None]
            + coeffs[:, 1][None, :] * pts[:, 1][:, None]
            + coeffs[:, 2][None, :]
        ) * coeffs[:, 3][None, :]
        inside = vals >= 0
        sampled = {tuple(int(i) for i in np.nonzero(row)[0]) for row in inside}
        if not sampled <= families:
            bad += 1
    report(7, "arrangement samples cover every randomly hit cell", bad == 0, f"bad={bad}")


def test_criterion_8_determinism(tmp_path, i3):
    """Byte-identical outputs across repeated runs for every command."""
    from hpcolor.cli import main

    inst_path = tmp_path / "i.json"
    inst_path.write_text(i3.to_json())
    outputs = []
    for round_ in range(2):
        chunk = []
        gen_path = tmp_path / f"g{round_}.json"
        assert main(["gen", "--n", "7", "--mode", "covered", "--seed", "4", "--out", str(gen_path)]) == 0
        chunk.append(gen_path.read_bytes())
        color_path = tmp_path / f"c{round_}.json"
        assert main(["color", str(inst_path), "--out", str(color_path)]) == 0
        chunk.append(color_path.read_bytes())
        svg_path = tmp_path / f"s{round_}.svg"
        assert main(["render", str(inst_path), "--window=-5,-5,5,5", "--out", str(svg_path)]) == 0
        chunk.append(svg_path.read_bytes())
        orc_path = tmp_path / f"o{round_}.json"
        assert main(["gen", "--n", "6", "--mode", "degenerate", "--seed", "11", "--out", str(orc_path)]) == 0
        chunk.append(orc_path.read_bytes())
        outputs.append(chunk)
    report(8, "byte-identical outputs across repeated runs", outputs[0] == outputs[1])
