import importlib.util
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from hpcolor import verification
from hpcolor.engine import solve
from hpcolor.model import BLUE, LOWER, RED, UPPER, HalfPlane, Instance
from hpcolor.generate import MODES, GenSpec, generate
from hpcolor.verification import (
    LengthMismatchError,
    TooLargeError,
    VerifyError,
    _full_walk,
    _line_table,
    _sector_directions,
    _sort_rays,
    _violated,
    arrangement_samples,
    depth,
    good_colorings,
    hyperedges,
    oracle,
    verify,
)

from conftest import make_instance, verify_brute


def test_depth_examples(i3):
    assert depth(i3, (1, Fraction(1, 2))) == (3, [0, 1, 2])
    assert depth(i3, (0, 3)) == (1, [2])
    assert depth(Instance([]), (5, 5)) == (0, [])


def test_arrangement_samples_two_crossing_lines():
    inst = make_instance((1, 0, UPPER), (-1, 0, LOWER))
    samples = arrangement_samples(inst)
    # one vertex, on-line edge samples, and face offsets in all four cells
    assert (0, 0) in [(s[0], s[1]) for s in samples]
    sets = {tuple(depth(inst, s)[1]) for s in samples}
    assert sets == {(0,), (1,), (0, 1), ()}


def test_arrangement_samples_hit_triangle(i3):
    samples = arrangement_samples(i3)
    assert any(depth(i3, s)[0] == 3 for s in samples)


def test_arrangement_samples_parallel_only():
    inst = make_instance((1, 0, UPPER), (1, 2, UPPER), (1, 4, LOWER))
    sets = {tuple(depth(inst, s)[1]) for s in arrangement_samples(inst)}
    # every strip between consecutive parallels is represented
    assert sets == {(0, 1), (1,), (), (2,)}


def test_hyperedges_examples(i3, i_tri2):
    assert [e.covering for e in hyperedges(i3, 3)] == [(0, 1, 2)]
    assert hyperedges(i3, 4) == []
    assert [e.covering for e in hyperedges(i_tri2, 2)] == [(0, 1), (0, 2), (1, 2)]
    assert hyperedges(i_tri2, 3) == []


def test_verify_examples(i3):
    assert verify(i3, [BLUE, RED, RED]) is None
    violation = verify(i3, [BLUE, BLUE, BLUE])
    assert violation is not None
    assert violation.covering == (0, 1, 2) and violation.color == BLUE
    assert depth(i3, violation.witness)[0] >= 3
    assert verify(make_instance((1, 0, UPPER)), [BLUE]) is None  # n < k


def test_verify_monotone_in_k(i3):
    colors = [BLUE, BLUE, BLUE]
    assert verify(i3, colors, 3) is not None
    assert verify(i3, colors, 4) is None


def test_verify_length_mismatch(i3):
    with pytest.raises(LengthMismatchError):
        verify(i3, [BLUE])


def test_thresholds_below_one_are_rejected(i3):
    for k in (0, -2):
        with pytest.raises(VerifyError):
            verify(i3, [BLUE, RED, RED], k)
        with pytest.raises(VerifyError):
            oracle(i3, k)


def test_verify_duplicate_halfplanes():
    inst = make_instance((0, 0, UPPER), (0, 0, UPPER), (0, 0, UPPER))
    assert verify(inst, [BLUE, BLUE, RED]) is None
    assert verify(inst, [BLUE, BLUE, BLUE]) is not None


def test_verify_concurrent_boundaries():
    # three boundaries through (1, 0); the wedge below them has depth 3
    inst = make_instance((-3, 3, UPPER), (-1, 1, UPPER), (-2, 2, LOWER), (-1, 4, LOWER))
    assert verify(inst, [BLUE, BLUE, BLUE, RED]) is not None
    assert verify(inst, [BLUE, BLUE, RED, BLUE]) is None


def test_sector_directions_follow_angular_sort():
    # verify's per-vertex sector order against the comparison sort
    rng = random.Random(5)
    for _ in range(300):
        slopes = rng.sample(range(-30, 31), rng.randint(2, 8))
        scale, denom = rng.choice([1, 7, 10**40]), rng.choice([1, 3, 10**40])
        lines = [(-a * scale, denom, 0) for a in slopes]  # concurrent, none parallel
        rays = _sort_rays([r for p, q, _r in lines for r in ((q, -p), (-q, p))])
        expected = [
            (r1[0] + r2[0], r1[1] + r2[1]) for r1, r2 in zip(rays, rays[1:] + rays[:1])
        ]
        assert _sector_directions(lines) == expected


def test_violation_json(i3):
    violation = verify(i3, [RED, RED, RED])
    data = violation.to_json_dict()
    assert set(data) == {"witness", "covering", "color"}
    assert data["covering"] == [0, 1, 2]
    assert isinstance(data["witness"]["x"], str)


def test_oracle_examples(i3, i_tri2):
    assert oracle(i3, 3) == [BLUE, BLUE, RED]
    assert oracle(i_tri2, 2) is None
    assert oracle(i_tri2, 3) == [BLUE, BLUE, BLUE]
    assert oracle(Instance([]), 3) == []


def test_oracle_counts_good_colorings(i3):
    # exactly 6 of the 8 assignments avoid a monochromatic triangle
    edges = [e.covering for e in hyperedges(i3, 3)]
    good = 0
    for mask in range(8):
        colors = [(mask >> (2 - i)) & 1 for i in range(3)]
        if all(len({colors[v] for v in e}) == 2 for e in edges):
            good += 1
    assert good == 6
    found = list(good_colorings(i3, 3))
    assert len(found) == 6
    assert oracle(i3, 3) == found[0]


def test_oracle_too_large():
    inst = make_instance(*[(i, 0, UPPER) for i in range(21)])
    with pytest.raises(TooLargeError):
        oracle(inst, 3)


def _affine_image(inst, u, s, c, e):
    """Image under (x, y) -> (u*x + c, s*y + e), u, s > 0.

    Incidences, parallels and sides survive, so the planted degeneracies
    do too; only the coefficients change.
    """
    return Instance(
        [HalfPlane(s * h.a / u, s * h.b - s * h.a * c / u + e, h.side) for h in inst]
    )


def test_verify_matches_brute_force():
    rng = random.Random(77)
    cases = []
    for t in range(120):
        n = rng.randint(1, 8)
        mode = ["random", "covered", "uncovered", "degenerate"][t % 4]
        if mode == "covered" and n < 3:
            n = 3
        inst = generate(GenSpec(n=n, mode=mode, seed=t, bound=rng.choice([2, 10])))
        colors = [rng.choice([BLUE, RED]) for _ in range(n)]
        k = rng.choice([2, 3])
        cases.append((t, inst, colors, k))
    # larger arrangements: bound 2 packs many lines through one vertex;
    # fractional affine images; slopes scaled by 10**40, which puts
    # 10**40 into the vertex denominators and the integer crossing key
    for t in range(120, 144):
        n = rng.randint(12, 24)
        mode = ["degenerate", "random", "covered", "degenerate", "uncovered", "random"][t % 6]
        inst = generate(GenSpec(n=n, mode=mode, seed=t, bound=rng.choice([2, 3, 10])))
        frac = lambda: Fraction(rng.randint(1, 9), rng.randint(1, 9))
        variant = t % 3
        if variant == 1:
            inst = _affine_image(inst, frac(), frac(), frac() - 1, frac() - 1)
        elif variant == 2:
            inst = _affine_image(inst, frac() / 10**40, frac(), 0, frac())
        colors = [BLUE if rng.random() < rng.choice([0.2, 0.5]) else RED for _ in range(n)]
        cases.append((t, inst, colors, rng.choice([2, 3, 4])))
    # pencils: a single vertex, whose sector samples are the only face
    # samples of the arrangement
    for t in range(144, 168):
        x0, y0 = Fraction(rng.randint(-9, 9), 7), Fraction(rng.randint(-9, 9), 5)
        slopes = rng.sample(range(-12, 13), rng.randint(3, 8))
        inst = Instance(
            [HalfPlane(Fraction(a, 3), y0 - Fraction(a, 3) * x0, rng.choice([UPPER, LOWER])) for a in slopes]
        )
        colors = [rng.choice([BLUE, RED]) for _ in slopes]
        cases.append((t, inst, colors, rng.choice([2, 3])))

    checked_violations = 0
    for t, inst, colors, k in cases:
        fast = verify(inst, colors, k)
        slow = verify_brute(inst, colors, k)
        assert (fast is None) == (slow is None), (t, inst.to_json_dict(), colors, k)
        if fast is not None:
            d, cov = depth(inst, fast.witness)
            assert d >= k and tuple(cov) == fast.covering
            assert all(colors[i] == fast.color for i in cov)
            checked_violations += 1
    assert checked_violations > 10


def _shape_case(rng, t):
    """One (instance, coloring) for the decider's differential test."""
    kind = t % 8
    n = rng.randint(3, 22)
    side = lambda: rng.choice([UPPER, LOWER])
    if kind == 0:  # engine output
        inst = generate(GenSpec(n=n, mode=MODES[t % 32 // 8], seed=t, bound=rng.choice([5, 50])))
        return kind, inst, solve(inst)
    if kind == 1:  # parallel families
        slopes = rng.sample([-2, 0, Fraction(1, 3), 1], rng.randint(1, 3))
        inst = Instance([HalfPlane(rng.choice(slopes), rng.randint(-6, 6), side()) for _ in range(n)])
    elif kind == 2:  # boundaries shared by half-planes of both sides
        base = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(3, 9))]
        inst = Instance([HalfPlane(*rng.choice(base), side()) for _ in range(n)])
    elif kind == 3:  # a concurrent pencil, sometimes with two more lines
        x0, y0 = Fraction(rng.randint(-9, 9), 7), Fraction(rng.randint(-9, 9), 5)
        slopes = [Fraction(a, 3) for a in rng.sample(range(-12, 13), min(n, 12))]
        extra = [rng.randint(-5, 5) for _ in range(rng.choice([0, 2]))]
        inst = Instance(
            [HalfPlane(a, y0 - a * x0, side()) for a in slopes]
            + [HalfPlane(a, rng.randint(-5, 5), side()) for a in extra]
        )
    else:
        inst = generate(GenSpec(n=n, mode=MODES[t % 4], seed=t, bound=rng.choice([3, 10, 50])))
    if kind == 4:  # each class on one side: only upper or only lower boundaries
        flip = rng.random() < 0.5
        colors = [RED if (h.side == UPPER) != flip else BLUE for h in inst]
        if rng.random() < 0.3:
            inst = Instance([HalfPlane(h.a, h.b, UPPER) for h in inst])
    elif kind == 5:  # one color
        colors = [rng.choice([BLUE, RED])] * len(inst)
    else:
        share = rng.choice([0.05, 0.3, 0.5])
        colors = [RED if rng.random() < share else BLUE for _ in inst]
    if t % 5 == 0:  # (x, y) -> (x, 10**40 * y): same arrangement, huge coefficients
        inst = Instance([HalfPlane(h.a * 10**40, h.b * 10**40, h.side) for h in inst])
    return kind, inst, colors


def _decides(inst, colors, k, branches):
    """verify's answer, which must be the full walk's, and the decider's,
    which must agree with it; the decider's branches go to `branches`."""
    lines, members = _line_table(inst)
    is_red = [c == RED for c in colors]
    expected = _full_walk(inst, lines, members, is_red, k)
    case = (k, inst.to_json_dict(), colors)
    assert verify(inst, colors, k) == expected, case
    assert _violated(lines, members, is_red, k, branches) == (expected is not None), case
    return expected


def test_decider_matches_full_walk():
    """verify returns what the full walk returns, on every branch of the
    per-line decider."""
    rng = random.Random(12)
    branches = Counter()
    for t in range(600):
        _kind, inst, colors = _shape_case(rng, t)
        for k in (1, 2, 3, 4):
            if len(inst) >= k:
                _decides(inst, colors, k, branches)
    floors = {
        "region None": 600,
        "no crossing line": 80,
        "threshold inside": 700,
        "constant interval": 700,
        "parallel": 500,
        "other-color member": 80,
    }
    assert all(branches[b] >= floor for b, floor in floors.items()), branches


def test_strip_region_keeps_its_far_side():
    """Blue y <= 0 and y >= 10 leave the strip 0 < y < 10 for red, a
    region with no corner.  Red's y >= 5, 6, 7 meet it only through the
    strip's upper side, and (0, 17/2) is a red-only point of depth 3.
    The strip's sides are parallel to the red lines, so each red line
    crosses the whole strip with a constant count."""
    strip = [(0, 0, UPPER), (0, 10, LOWER), (0, 5, LOWER), (0, 6, LOWER), (0, 7, LOWER)]
    below = [(0, -20 - i, UPPER) for i in range(11)]  # red, outside the strip
    for rows in (strip, strip + below):
        inst = make_instance(*rows)
        colors = [BLUE, BLUE] + [RED] * (len(rows) - 2)
        branches = Counter()
        expected = _decides(inst, colors, 3, branches)
        assert expected is not None and expected.covering == (2, 3, 4)
        assert branches["parallel"] > 0 and branches["constant interval"] > 0, branches
        assert branches["threshold inside"] == 0, branches


def test_decider_on_strips():
    """verify returns what the full walk returns when the other color
    leaves a strip between parallel boundaries, with or without one
    crossing line of its own."""
    rng = random.Random(5)
    branches = Counter()
    for t in range(200):
        a = rng.choice([0, -2, Fraction(1, 3), 5])
        lo, hi = sorted(rng.sample(range(-10, 11), 2))
        other = [HalfPlane(a, lo - rng.randint(0, 3), UPPER) for _ in range(rng.randint(1, 3))]
        other += [HalfPlane(a, hi + rng.randint(0, 3), LOWER) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            other.append(HalfPlane(rng.randint(-3, 3), rng.randint(-15, 15), rng.choice([UPPER, LOWER])))
        own = [
            HalfPlane(a if rng.random() < 0.7 else rng.randint(-3, 3), rng.randint(-15, 15), rng.choice([UPPER, LOWER]))
            for _ in range(rng.randint(1, 14))
        ]
        own_color, other_color = rng.choice([(RED, BLUE), (BLUE, RED)])
        rows = [(h, other_color) for h in other] + [(h, own_color) for h in own]
        rng.shuffle(rows)
        inst = Instance([h for h, _c in rows])
        colors = [c for _h, c in rows]
        for k in (1, 2, 3, 4):
            if len(inst) >= k:
                _decides(inst, colors, k, branches)
    floors = {
        "region None": 100,
        "no crossing line": 50,
        "threshold inside": 200,
        "constant interval": 200,
        "parallel": 1000,
        "other-color member": 50,
    }
    assert all(branches[b] >= floor for b, floor in floors.items()), branches


def _polar(n, seed):
    """Upper half-planes y <= a*x - a^2 - 1 with distinct slopes: their
    boundaries are in convex position, and in a balanced coloring every
    line lies on an envelope of the other color."""
    slopes = random.Random(seed).sample(range(-2 * n, 2 * n + 1), n)
    return Instance([HalfPlane(a, -a * a - 1, UPPER) for a in slopes])


def test_decider_agrees_with_full_walk():
    """The decider says violated exactly when the full walk finds a
    violation: all four modes at thresholds 1 to 4, exact images of each
    instance (fractional, times 10**40, over 10**40), and good colorings
    of convex polar sets with one half-plane flipped, whose violations
    sit on the envelopes."""
    rng = random.Random(17)
    answers = Counter()
    for t in range(240):
        mode = MODES[t % 4]
        n = rng.randint(3 if mode == "covered" else 1, 16)
        inst = generate(GenSpec(n=n, mode=mode, seed=1000 + t, bound=rng.choice([2, 10, 50])))
        image = t // 4 % 4
        if image == 1:
            u, s = Fraction(rng.randint(1, 9), rng.randint(1, 9)), Fraction(rng.randint(1, 9), 7)
            c, e = Fraction(rng.randint(-9, 9), 5), Fraction(rng.randint(-9, 9), 3)
            inst = _affine_image(inst, u, s, c, e)
        elif image > 1:
            scale = 10**40 if image == 2 else Fraction(1, 10**40)
            inst = Instance([HalfPlane(h.a * scale, h.b * scale, h.side) for h in inst])
        share = rng.choice([0.05, 0.3, 0.5])
        colors = [RED if rng.random() < share else BLUE for _ in range(n)]
        for k in (1, 2, 3, 4):
            if n >= k:
                answers[mode, _decides(inst, colors, k, Counter()) is not None] += 1
    for t in range(40):
        inst = _polar(rng.randint(5, 30), t)
        colors = solve(inst)
        i = rng.randrange(len(inst))
        colors[i] = BLUE if colors[i] == RED else RED
        answers["polar", _decides(inst, colors, 3, Counter()) is not None] += 1
    floors = {(mode, bad): 100 if bad else 15 for mode in MODES for bad in (False, True)}
    floors.update({("polar", False): 10, ("polar", True): 10})
    assert all(answers[key] >= floor for key, floor in floors.items()), answers


def test_good_polar_coloring_needs_no_walk(monkeypatch):
    """The decider alone certifies a good convex polar coloring."""
    inst = _polar(64, 64)
    colors = solve(inst)

    def no_walk(*args):
        raise AssertionError("the arrangement walk ran on a good coloring")

    monkeypatch.setattr(verification, "_walk", no_walk)
    assert verify(inst, colors, 3) is None


def test_decider_edge_branches():
    """The lemma's edge branches give the full walk's exact Violation.
    Red y >= -5, -6, -7 lie under the strip 0 < y < 10 that blue y <= 0
    and y >= 10 leave: no red line crosses the strip, yet each red
    half-plane holds all of it.  Red y >= 0 touches the wedge y > |x| that
    blue y <= x and y <= -x leave only at its corner, where red y <= 3x
    and y <= -3x hold too; no point of the wedge is in all three.  With
    one color, its region is the plane."""
    under = make_instance((0, 0, UPPER), (0, 10, LOWER), (0, -5, LOWER), (0, -6, LOWER), (0, -7, LOWER))
    branches = Counter()
    expected = _decides(under, [BLUE, BLUE, RED, RED, RED], 3, branches)
    assert expected is not None and expected.covering == (2, 3, 4) and expected.color == RED
    assert branches["no crossing line"] == 1, branches
    corner = make_instance((1, 0, UPPER), (-1, 0, UPPER), (0, 0, LOWER), (3, 0, UPPER), (-3, 0, UPPER))
    colors = [BLUE, BLUE, RED, RED, RED]
    assert _decides(corner, colors, 3, Counter()) is None
    assert _decides(corner, colors, 2, Counter()).covering in ((2, 3), (2, 4))
    triangle = make_instance((1, 0, UPPER), (-1, 2, UPPER), (0, 0, LOWER), (0, 5, UPPER))
    parallel = make_instance((0, 0, UPPER), (0, 1, LOWER), (0, 2, LOWER))  # depth 2 at most
    for inst, k, bad in ((triangle, 3, True), (triangle, 4, True), (parallel, 2, True), (parallel, 3, False)):
        branches = Counter()
        expected = _decides(inst, [RED] * len(inst), k, branches)
        assert (expected is not None) == bad, (inst, k, expected)
        assert "region None" not in branches and "no crossing line" not in branches


def _load_verify_digest():
    """`scripts/verify_digest.py` as a module, for its families."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "verify_digest.py"
    spec = importlib.util.spec_from_file_location("verify_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reference_bounding_lines(members, is_red) -> tuple:
    """The oracle: the grouping `_violated` made per color before it
    grouped both colors in one pass, from a set of the other color's
    sides per line, indexed as `_bounding_lines` is, by the color of the
    half-planes."""
    regions = {}
    for red in (False, True):
        floor, ceiling = [], []
        for g, ms in enumerate(members):
            sides = {s for hp, s in ms if is_red[hp] != red}
            if -1 in sides:  # an upper half-plane of O: y <= its line
                floor.append(g)
            if 1 in sides:
                ceiling.append(g)
        regions[red] = (floor, ceiling)
    return regions[True], regions[False]


def _reference_envelope(lines, group, m: int, sign: int) -> list:
    """The oracle: `_envelope` before its keys were built in one list and
    `_meet` inlined in its pop loop."""

    def key(g):
        p, q, r = lines[g]
        return -sign * p * m // q, -sign * r * m // q

    hull: list = []
    for (slope, _intercept), g in sorted(zip(map(key, group), group)):
        if hull and hull[-1][0] == slope:
            hull.pop()
        while len(hull) >= 2:
            x, y, w = verification._meet(lines[hull[-2][1]], lines[g])
            p, q, r = lines[hull[-1][1]]
            if sign * (p * x + q * y + r * w) < 0:
                break
            hull.pop()
        hull.append((slope, g))
    return [g for _slope, g in hull]


def test_decider_prep_matches_reference(monkeypatch):
    """On the first 4,000 calls of `scripts/verify_digest.py` (its
    families, images, colorings and thresholds), the one-pass grouping
    gives each color the reference's floor and ceiling lists, `_envelope`
    the reference's envelopes, and `_violated` with both references
    swapped in the same answer and the same branch tally."""
    digest = _load_verify_digest()
    rng = random.Random(2)
    seen = Counter()
    for t in range(4000):
        mode = MODES[t % len(MODES)]
        n = rng.randint(3 if mode == "covered" else 1, 36)
        inst = generate(GenSpec(n=n, mode=mode, seed=t, bound=rng.choice([2, 10, 50])))
        inst = digest.variant(inst, t // len(MODES) % 4, rng)
        share = rng.choice([0.05, 0.3, 0.5])
        is_red = [rng.random() < share for _ in range(n)]
        k = rng.choice([2, 3, 4])
        lines, members = _line_table(inst)
        grouped = verification._bounding_lines(members, is_red)
        assert grouped == _reference_bounding_lines(members, is_red), t
        m = max(q for _p, q, _r in lines) ** 2 + 1
        for floor, ceiling in grouped:
            for group, sign in ((floor, 1), (ceiling, -1)):
                envelope = verification._envelope(lines, group, m, sign)
                assert envelope == _reference_envelope(lines, group, m, sign), t
                seen["popped" if len(envelope) < len(group) else "kept all"] += 1
        if n < k:
            continue
        tally, reference_tally = Counter(), Counter()
        got = _violated(lines, members, is_red, k, tally)
        with monkeypatch.context() as patch:
            patch.setattr(verification, "_bounding_lines", _reference_bounding_lines)
            patch.setattr(verification, "_envelope", _reference_envelope)
            want = _violated(lines, members, is_red, k, reference_tally)
        assert got == want and tally == reference_tally, t
        seen[got] += 1
        seen.update(tally.keys())
    assert seen["popped"] >= 6000 and seen["kept all"] >= 6000, seen
    assert seen[True] >= 2000 and seen[False] >= 1000, seen
    floors = {
        "threshold inside": 1000,
        "region None": 800,
        "constant interval": 800,
        "parallel": 300,
        "no crossing line": 80,
        "other-color member": 20,
    }
    assert all(seen[b] >= floor for b, floor in floors.items()), seen
