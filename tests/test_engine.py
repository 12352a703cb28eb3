import random
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import pytest

from hpcolor import engine as E
from hpcolor.engine import (
    Pivot,
    View,
    build_pivot,
    classify,
    coverage,
    find_pivot,
    solve,
    solve_detailed,
)
from hpcolor.generate import GenSpec, generate
from hpcolor.geometry import (
    GeometryError,
    OutOfSpanError,
    _slope_cmp,
    chain_eval,
    hull_from_sorted,
    point_above_line,
    region_contains,
    second_layer,
)
from hpcolor.model import (
    BLUE,
    LOWER,
    RED,
    UPPER,
    DualScene,
    GeneralPositionViolation,
    Instance,
    common_denominator,
    dualize,
)
from hpcolor.rationals import normalize
from hpcolor.uncovered import uncovered_witness
from hpcolor.verification import oracle, verify

from conftest import (
    coprime_image,
    frame_points,
    instance_from_tips,
    make_instance,
    observe,
    point_in_triangle_interior,
)


def scene_of(upper_tips, lower_tips):
    return dualize(instance_from_tips(upper_tips, lower_tips))


def x_mirror(scene):
    """The left-right mirror scene, tip by tip: (x, y, i) -> (-x, y, i),
    each family reversed to stay x-sorted."""
    return DualScene(
        [(-x, y, i) for x, y, i in reversed(scene.tips_u)],
        [(-x, y, i) for x, y, i in reversed(scene.tips_l)],
        scene.gap,
    )


def y_mirror(scene):
    """The up-down mirror scene, tip by tip: (x, y, i) -> (x, -y, i), the
    families swapping roles."""
    return DualScene(
        [(x, -y, i) for x, y, i in scene.tips_l],
        [(x, -y, i) for x, y, i in scene.tips_u],
        scene.gap,
    )


def test_coverage_i3(i3):
    cov = coverage(dualize(i3))
    assert cov.kind == "covered"
    assert cov.hit == ("l", (0, 0, 2))


def test_coverage_separated_overlapping_spans():
    cov = coverage(scene_of([(0, 0), (2, 0)], [(1, 10)]))
    assert cov.kind == "separated"
    c, d = cov.witness
    # its dual line y = c*x + d is strictly above both upper tips and
    # below the lower tip
    assert c * 0 + d > 0 and c * 2 + d > 0 and c * 1 + d < 10


def test_coverage_empty_family(i_unc):
    cov = coverage(dualize(i_unc))
    assert cov.kind == "separated"


def test_coverage_disjoint_spans():
    cov = coverage(scene_of([(-10, 0), (-8, 1)], [(5, 0), (7, -1)]))
    assert cov.kind == "separated"


def test_coverage_matches_pointwise_reference():
    """`coverage`'s hit is the first chain vertex, by x, inside the other
    family's region, tested vertex by vertex with `region_contains`; with
    none, its witness's dual line clears every tip and `uncovered_witness`
    accepts the witness."""
    rng = random.Random(2)
    seen = Counter()
    for t in range(3000):
        n = rng.randint(3, 40)
        mode = ("covered", "random", "degenerate", "uncovered")[t % 4]
        bound = rng.choice([3, 5, 25, 50, 400])
        inst = generate(GenSpec(n=n, mode=mode, seed=t, bound=bound))
        try:
            scene = dualize(inst)
        except GeneralPositionViolation:
            continue
        cov = coverage(scene)
        view = View.of(scene)
        cu, cl = view.u.chain, view.l.chain
        cands = [("u", v, cl) for v in (cu.vertices if cu else [])]
        cands += [("l", v, cu) for v in (cl.vertices if cl else [])]
        cands.sort(key=lambda c: c[1][0])
        inside = [
            (side, v) for side, v, other in cands if other and region_contains(other, v)
        ]
        want = inside[0] if inside else None
        assert cov.hit == want, t
        if want is not None:
            assert cov.kind == "covered"
            side, v = want
            seen[side] += 1
            seen["touch"] += chain_eval(cu if side == "l" else cl, v[0]) == v[1]
            continue
        assert cov.kind == "separated"
        # the witness is a line of the scene, in its tip units
        c, d = cov.witness
        assert all(v[1] < c * v[0] + d for v in scene.tips_u), t
        assert all(v[1] > c * v[0] + d for v in scene.tips_l), t
        uncovered_witness(scene, cov.witness)
        if cu is None or cl is None:
            seen["one family"] += 1
        elif max(cu.x_min, cl.x_min) > min(cu.x_max, cl.x_max):
            seen["disjoint"] += 1
        else:
            seen["overlap"] += 1
    floors = {"u": 400, "l": 380, "touch": 10, "one family": 100, "disjoint": 50, "overlap": 530}
    assert all(seen[k] >= floor for k, floor in floors.items()), seen


def _unscaled_witness(scene, scale):
    """The witness in tip units by the formulas of the unscaled dual plane,
    on the scene's tips divided by the common denominator `scale`: with
    one family, (0, max y + 1) or (0, min y - 1) there, moved to
    (0, scale * max y + 1) (another point of the same uncovered cell);
    else a line through the narrowest vertical gap (the first maximum of
    the gap, in x order) or across the x-gap of the spans, whose
    intercept scales by `scale`."""
    u, l = ([(Fraction(x, scale), Fraction(y, scale), i) for x, y, i in tips]
            for tips in (scene.tips_u, scene.tips_l))
    if not l:
        return "one family", (0, normalize(max(v[1] for v in u) * scale + 1))
    if not u:
        return "one family", (0, normalize(min(v[1] for v in l) * scale - 1))
    cu, cl = hull_from_sorted(u, UPPER), hull_from_sorted(l, LOWER)
    lo, hi = max(cu.x_min, cl.x_min), min(cu.x_max, cl.x_max)
    if lo > hi:
        c, d = E._separator_disjoint_spans(cu, cl)
        return "disjoint", (c, d * scale)
    best = None
    for v in sorted(cu.vertices + cl.vertices):
        if lo <= v[0] <= hi:
            yu, yl = chain_eval(cu, v[0]), chain_eval(cl, v[0])
            if best is None or yu - yl > best[0]:
                best = (yu - yl, v[0], yu + yl)
    c, d = E._separator_overlap(cu, cl, *best)
    return "overlap", (c, d * scale)


def test_coverage_witness_in_tip_units():
    """On Fraction input, where the tips are scaled by the common
    denominator L, `coverage`'s witness is a line of the scaled dual
    plane: the one the unscaled tips give, mapped by (x, y) -> (x, L*y),
    value and type, in each of its three branches (the one-family
    witness at max y + 1 in tip units)."""
    rng = random.Random(18)
    seen = Counter()
    for t in range(900):
        mode = ("uncovered", "random")[t % 2]
        inst = generate(GenSpec(n=rng.randint(3, 12), mode=mode, seed=t, bound=rng.choice([3, 25])))
        if t % 3:
            f = Fraction(rng.randint(1, 9), rng.randint(2, 9))
            inst = make_instance(*[(h.a * f, h.b * f, h.side) for h in inst])
        else:
            inst = E.perturb(inst, t % 4)
        try:
            scene = dualize(inst)
        except GeneralPositionViolation:
            continue
        cov = coverage(scene)
        scale = common_denominator(inst) or 1
        if cov.kind == "covered" or scale == 1:
            continue
        branch, want = _unscaled_witness(scene, scale)
        assert cov.witness == want and list(map(type, cov.witness)) == list(map(type, want)), t
        uncovered_witness(scene, cov.witness)
        seen[branch] += 1
    assert seen["one family"] >= 100 and seen["disjoint"] >= 60 and seen["overlap"] >= 200, seen


def test_fraction_tips_solve_as_cleared_ones():
    """Where no common denominator is cleared (many large coprime ones) the
    tips stay Fractions at scale 1, and the covered solve gives the
    colors and case path of the same instance times the lcm L of its
    denominators, whose tips are ints and L times as large; with
    ``check=True`` the coloring is certified on the original on every
    generator mode, perturbed or not."""
    rng = random.Random(20)
    paths = Counter()
    for t in range(40):
        inst = coprime_image(
            generate(GenSpec(n=rng.randint(5, 14), mode="covered", seed=t, bound=25))
        )
        lcm = 1
        for v in inst.a + inst.b:
            lcm *= v.denominator
        ints = make_instance(*[(h.a * lcm, h.b * lcm, h.side) for h in inst])
        scene, int_scene = dualize(inst), dualize(ints)
        assert (common_denominator(inst) or 1) == (common_denominator(ints) or 1) == 1
        for tips, int_tips in ((scene.tips_u, int_scene.tips_u), (scene.tips_l, int_scene.tips_l)):
            assert int_tips == [(x * lcm, y * lcm, i) for x, y, i in tips]
        got, want = solve_detailed(inst, check=False), solve_detailed(ints, check=False)
        if got.case_path == ["uncovered"]:
            continue
        assert (got.colors, got.case_path) == (want.colors, want.case_path), t
        paths[got.case_path[0]] += 1
    assert sum(paths.values()) >= 30 and len(paths) >= 3, paths
    for t in range(16):
        mode = ("covered", "random", "uncovered", "degenerate")[t % 4]
        inst = coprime_image(generate(GenSpec(n=rng.randint(5, 10), mode=mode, seed=t)))
        triples = [(h.a, h.b, h.side) for h in inst]
        if t % 2:  # a parallel pair: the screen fails and the solve perturbs
            triples[1] = (triples[0][0],) + triples[1][1:]
        solve_and_check(make_instance(*triples))


def test_find_pivot_i3(i3):
    pv = find_pivot(coverage(dualize(i3)))
    # the lower vertex (0, 0) of half-plane 2 qualifies; after the flip it
    # leads the uppers
    assert pv.p == (0, 0, 2)
    assert pv.l_L is not None and pv.r_L is not None


def test_find_pivot_singleton_above():
    pv = find_pivot(coverage(scene_of([(0, 10)], [(-1, 0), (1, 0)])))
    assert pv.p == (0, 10, 0)
    assert pv.l_L == (-1, 0, 1) and pv.r_L == (1, 0, 2)
    assert pv.l_U is None and pv.r_U is None


def test_find_pivot_postcondition_fuzz():
    rng = random.Random(3)
    hits = 0
    for t in range(300):
        inst = generate(GenSpec(n=rng.randint(3, 16), mode="covered", seed=t, bound=30))
        cov = coverage(dualize(inst))
        if cov.kind != "covered":
            continue
        pv = find_pivot(cov)
        view = View.of(DualScene(frame_points(pv.view.u), frame_points(pv.view.l), pv.view.gap))
        assert view.u.chain.vertex_index(pv.p) is not None
        assert region_contains(view.l.chain, pv.p)
        assert pv.l_L[0] < pv.p[0] < pv.r_L[0]
        hits += 1
    assert hits > 250


def test_lookups_by_key_match_filter_by_x():
    """A family's `between` / `left_of` / `right_of`, `at`, `position` and
    `paint`, and its chain's `vertex_index` / `edge_at`, which bisect the
    x-sorted lists by key, equal filters by x on the points the frame
    reads, in each of the four mirrors of the family, with int and
    Fraction x, queried on tips, between tips and past both ends."""
    rng = random.Random(10)
    seen = Counter()
    for t in range(600):
        draws = range(rng.randint(1, 14))
        xs = sorted({normalize(Fraction(rng.randint(-40, 40), rng.randint(1, 3))) for _ in draws})
        ys = [normalize(Fraction(rng.randint(-30, 30), rng.choice([1, 2]))) for _ in xs]
        tips = [(x, y, i) for i, (x, y) in enumerate(zip(xs, ys))]
        sx, sy = rng.choice([(1, 1), (-1, 1), (1, -1), (-1, -1)])
        fam = E._Fam.build(tips, rng.choice([UPPER, LOWER])).mirrored(sx, sy)
        assert fam.tips is tips
        seen[sx, sy] += 1
        pts = [(sx * x, sy * y, i) for x, y, i in (tips[::-1] if sx < 0 else tips)]
        assert frame_points(fam) == pts, t
        for k, p in enumerate(pts):
            assert fam.at(k) == p and fam.position(p) == k, t
        fxs = [p[0] for p in pts]
        verts = fam.chain.vertices
        mids = [Fraction(a + b, 2) for a, b in zip(fxs, fxs[1:])]
        queries = fxs + mids + [fxs[0] - 1, fxs[-1] + Fraction(1, 2)]
        for x in queries:
            seen[type(x).__name__] += 1
            assert fam.take(fam.left_of(x)) == [p for p in pts if p[0] < x], t
            assert fam.take(fam.right_of(x)) == [p for p in pts if p[0] > x], t
            x2 = rng.choice(queries)
            between = fam.between(x, x2)
            want = [p for p in pts if x < p[0] < x2]
            assert fam.take(between) == want, t
            colors = {}
            fam.paint(colors, between, BLUE)
            assert colors == {p[2]: BLUE for p in want}, t
            if not verts[0][0] <= x <= verts[-1][0]:
                with pytest.raises(OutOfSpanError):
                    fam.chain.edge_at(x)
                continue
            seen["in span"] += 1
            left = [v for v in verts if v[0] <= x]
            right = [v for v in verts if v[0] > x]
            if len(verts) == 1:
                want = (verts[0], verts[0])
            else:
                want = (left[-1], right[0]) if right else (verts[-2], verts[-1])
            assert fam.chain.edge_at(x) == want, t
        for p in pts + [(p[0], p[1] + 1, p[2]) for p in pts] + [(x, 0, -1) for x in mids]:
            want = next((k for k, v in enumerate(verts) if v == p), None)
            seen["on chain"] += want is not None
            assert fam.chain.vertex_index(p) == want, t
    floors = {"int": 2500, "Fraction": 5000, "in span": 7000, "on chain": 1500}
    floors.update(dict.fromkeys([(1, 1), (-1, 1), (1, -1), (-1, -1)], 100))
    assert all(seen[k] >= floor for k, floor in floors.items()), seen


MIRRORS = [(1, 1), (-1, 1), (1, -1), (-1, -1)]


def mirror_list(pts, sx, sy):
    """pts, x-sorted, under the mirror (x, y) -> (sx*x, sy*y), re-sorted."""
    return [(sx * x, sy * y, i) for x, y, i in (pts[::-1] if sx < 0 else pts)]


def frame_reads(view):
    """What a frame reads: each family's points, in frame order, and its chain."""
    return [(frame_points(fam), fam.chain) for fam in (view.u, view.l)] + [view.gap]


def test_mirror_frame_fuzz(monkeypatch):
    """A mirrored View reads what the View rebuilt on the mirrored scene
    holds, mirroring a pivot twice gives it back, and every sub-hull and
    tangent touch a case takes from the frame's chains equals a rebuilt
    one."""
    observed = touched = 0
    raw_obs = E.obs_separated

    def checked_obs(u_act, l_act, p, q, path, _depth=0):
        nonlocal observed, touched
        u_pts, l_pts = frame_points(u_act), frame_points(l_act)
        assert u_act.chain.vertices == hull_from_sorted(u_pts, UPPER).vertices
        assert l_act.chain.vertices == hull_from_sorted(l_pts, LOWER).vertices
        touch = E._tangent_touch(l_act, q)
        assert touch == touch_by_second_layer(l_pts, q)
        observed += 1
        touched += touch is not None
        return raw_obs(u_act, l_act, p, q, path, _depth)

    monkeypatch.setattr(E, "obs_separated", checked_obs)
    rng = random.Random(5)
    pivots = compared = 0
    for t in range(2000):
        n, bound = rng.randint(3, 24), rng.choice([5, 30])
        scene = dualize(generate(GenSpec(n=n, mode="covered", seed=t, bound=bound)))
        view = View.of(scene)
        for flipped, rebuilt in (
            (view.x_flip(), View.of(x_mirror(scene))),
            (view.y_flip(), View.of(y_mirror(scene))),
            (view.x_flip().y_flip(), View.of(y_mirror(x_mirror(scene)))),
        ):
            # the points and the chains of both families
            assert frame_reads(flipped) == frame_reads(rebuilt)
        cov = coverage(scene)
        if cov.kind != "covered":
            continue
        pv = find_pivot(cov)
        mv = E._mirror(pv)
        twice = E._mirror(mv)
        for f in fields(Pivot):
            assert getattr(twice, f.name) == getattr(pv, f.name), f.name
        if pv.r_U is not None:
            # the mirror is the configuration a rebuilt mirror frame gives
            frame = DualScene(frame_points(pv.view.u), frame_points(pv.view.l), pv.view.gap)
            rebuilt = build_pivot(View.of(x_mirror(frame)), mv.p)
            assert frame_reads(mv.view) == frame_reads(rebuilt.view)
            for f in fields(Pivot)[1:]:
                assert getattr(mv, f.name) == getattr(rebuilt, f.name), f.name
            compared += 1
        pivots += 1
        try:
            E.color_covered(cov)
        except (GeneralPositionViolation, E.EngineError):
            pass  # degenerate tips; the solve loop retries them
    assert pivots > 1900 and compared > 300
    assert observed > 1000 and touched > 250

    # collinear ties: many points on one line through q, read through
    # each mirror of the list that holds them
    for t in range(3000):
        xs = sorted(rng.sample(range(-12, 12), rng.randint(2, 12)))
        pts = [(x, rng.randint(-3, 3), i) for i, x in enumerate(xs)]
        sx, sy = MIRRORS[t % 4]
        tips = mirror_list(pts, sx, sy)
        fam = E._Fam.build(tips, LOWER if sy > 0 else UPPER).mirrored(sx, sy)
        assert fam.chain.vertices == hull_from_sorted(pts, LOWER).vertices
        assert E._tangent_touch(fam, pts[0]) == touch_by_second_layer(pts, pts[0])


def whole_family_triangle_free(fam, a, b, c) -> bool:
    """The oracle: `_triangle_free` before it read only the triangle's
    x-span, every tip of the family but the corners, in frame order."""
    a, b, c = fam.map(a), fam.map(b), fam.map(c)
    for w in fam.order():
        if w in (a, b, c):
            continue
        if point_in_triangle_interior(w, a, b, c):
            return False
    return True


def _outcome(triangle_free, fam, corners):
    try:
        return triangle_free(fam, *corners)
    except GeometryError as exc:
        return type(exc)


def test_triangle_free_window_matches_whole_scan():
    """On the mirror-frame fuzz scenes, read through every mirror, the
    windowed `_triangle_free` answers as the whole-family scan does: on
    three consecutive hull vertices of either family, the corners its
    callers pass, and on three tips drawn at random, collinear ones
    included, where both raise DegenerateTriangleError."""
    rng = random.Random(5)
    seen = Counter()
    for t in range(2000):
        n, bound = rng.randint(3, 24), rng.choice([5, 30])
        view = View.of(dualize(generate(GenSpec(n=n, mode="covered", seed=t, bound=bound))))
        for frame in (view, view.x_flip(), view.y_flip(), view.x_flip().y_flip()):
            for fam in (frame.u, frame.l):
                verts = fam.chain.vertices if fam.chain else []
                triples = [("hull", verts[k : k + 3]) for k in range(len(verts) - 2)]
                if len(fam) >= 3:
                    picks = rng.sample(range(len(fam)), 3)
                    triples.append(("drawn", [fam.at(k) for k in picks]))
                for kind, corners in triples:
                    got = _outcome(E._triangle_free, fam, corners)
                    assert got == _outcome(whole_family_triangle_free, fam, corners), (t, corners)
                    seen[kind, got if type(got) is bool else "raises"] += 1

    # collinear corners, in families of exactly three tips and larger,
    # read through each mirror of the list that holds them
    for t in range(1200):
        xs = sorted(rng.sample(range(-12, 12), rng.randint(3, 8)))
        on_line = rng.sample(xs, 3)
        pts = [(x, x - 2 if x in on_line else rng.randint(-9, 9), i) for i, x in enumerate(xs)]
        sx, sy = MIRRORS[t % 4]
        fam = E._Fam.build(mirror_list(pts, sx, sy), UPPER).mirrored(sx, sy)
        corners = [p for p in pts if p[0] in on_line]
        got = _outcome(E._triangle_free, fam, corners)
        assert got == _outcome(whole_family_triangle_free, fam, corners), (t, pts)
        seen["collinear", got if type(got) is bool else "raises"] += 1
    assert seen["hull", True] >= 10000 and seen["hull", False] >= 5000, seen
    assert seen["drawn", True] >= 8000 and seen["drawn", False] >= 2500, seen
    assert seen["drawn", "raises"] >= 40 and ("hull", "raises") not in seen, seen
    assert seen["collinear", True] >= 100 and seen["collinear", "raises"] >= 800, seen


def test_frames_read_the_scene_lists(monkeypatch):
    """No frame holds a copied family list: on fuzzed covered scenes, each
    frame of every pivot the case machine builds reads the scene's own
    tip lists, the lower ones as the upper family after an up-down
    mirror."""
    scenes, seen = [], Counter()
    raw_dualize, raw_build, raw_mirror = E.dualize, E.build_pivot, E._mirror

    def keep_scene(inst):
        scenes.append(raw_dualize(inst))
        return scenes[-1]

    def check(pv):
        scene, view = scenes[-1], pv.view
        pair = (view.u.tips, view.l.tips)
        if view.u.sy > 0:
            assert pair[0] is scene.tips_u and pair[1] is scene.tips_l
        else:
            assert pair[0] is scene.tips_l and pair[1] is scene.tips_u
        assert (view.u.sx, view.u.sy) == (view.l.sx, view.l.sy)
        seen[view.u.sx, view.u.sy] += 1
        return pv

    monkeypatch.setattr(E, "dualize", keep_scene)
    monkeypatch.setattr(E, "build_pivot", lambda view, pivot: check(raw_build(view, pivot)))
    monkeypatch.setattr(E, "_mirror", lambda pv: check(raw_mirror(pv)))
    rng = random.Random(12)
    for t in range(1500):
        n, bound = rng.randint(3, 40), rng.choice([5, 30, 400])
        solve_detailed(generate(GenSpec(n=n, mode="covered", seed=t, bound=bound)), check=False)
    assert all(seen[m] >= 100 for m in MIRRORS), seen


def test_case_d_invariants_fuzz(monkeypatch):
    """Every case D pivot has no upper hull successor and l_L strictly
    inside the upper region (Lemma L), the facts that leave case D one
    wing and one mirror frame."""
    calls = 0
    raw_case_d = E.case_d

    def checked_case_d(pv, path, depth):
        nonlocal calls
        assert pv.r_U is None
        assert E.region_contains(pv.view.u.chain, pv.l_L)
        assert point_above_line(pv.l_L, pv.l_U, pv.p) < 0
        calls += 1
        return raw_case_d(pv, path, depth)

    monkeypatch.setattr(E, "case_d", checked_case_d)
    rng = random.Random(11)
    for t in range(1000):
        n, bound = rng.randint(3, 30), rng.choice([3, 5, 25, 400])
        mode = ("covered", "random")[t % 2]
        solve_detailed(generate(GenSpec(n=n, mode=mode, seed=t, bound=bound)), check=False)
    assert calls >= 100


def clears_reference(a, b, lows, ups, skipped):
    """`E._clears` one `point_above_line` call per point: lows, then ups,
    in list order, skipping the points in `skipped`."""
    for pts, side in ((lows, 1), (ups, -1)):
        for w in pts:
            if w in skipped:
                continue
            s = point_above_line(w, a, b)
            if s == 0:
                raise GeneralPositionViolation(f"collinear tips {a}, {b}, {w}")
            if s != side:
                return False
    return True


def outcome(fn, *args):
    try:
        return fn(*args)
    except GeneralPositionViolation as exc:
        return "raise", str(exc)


def test_clears_matches_pointwise_reference():
    """Tips with distinct x around lines drawn both ways; some points sit
    on the wrong side of the line and some on it."""
    rng = random.Random(8)
    seen = Counter()
    for t in range(3000):
        n = rng.randint(0, 12)
        xs = rng.sample(range(-40, 41), n + 2)
        a = (xs[0], rng.randint(-20, 20), 0)
        b = (xs[1], rng.randint(-20, 20), 1)
        slope = Fraction(b[1] - a[1], b[0] - a[0])
        lows, ups, skipped = [], [], [a, b]
        for i, x in enumerate(xs[2:], start=2):
            low = rng.random() < 0.5
            offset = rng.choice([Fraction(1, 3), 1, 5]) * (1 if low else -1)
            r = rng.random()
            if r < 0.07:
                offset = 0
            elif r < 0.14:
                offset = -offset
            w = (x, normalize(a[1] + slope * (x - a[0]) + offset), i)
            (lows if low else ups).append(w)
            if rng.random() < 0.1:
                skipped.append(w)
        # the line's own tips sit in the families, as in the case machine
        (lows if t % 2 else ups).append(a)
        (ups if t % 3 else lows).append(b)
        lows.sort()
        ups.sort()
        skip = tuple(w[0] for w in skipped)
        want = outcome(clears_reference, a, b, lows, ups, skipped)
        # the frame reads each family out of a list in mirrored coordinates
        sx, sy = MIRRORS[t % 4]
        fams = [E._Fam(mirror_list(pts, sx, sy), None, sx, sy) for pts in (lows, ups)]
        got = outcome(E._clears, a, b, *fams, skip)
        assert got == want, (t, a, b)
        seen[got if isinstance(got, bool) else "raise", a[0] > b[0]] += 1
        seen[sx, sy] += 1
    assert min(seen.values()) >= 100, seen


def touch_by_second_layer(l_act, q):
    """Reference touch: the second lower layer by two hull scans, then the
    first vertex of minimum slope from q."""
    layer = second_layer(l_act, hull_from_sorted(l_act, LOWER))
    touch = layer[0] if layer else None
    for w in layer[1:]:
        if _slope_cmp(q, w, touch) < 0:
            touch = w
    return touch


def pivot_of(upper_tips, lower_tips, pivot):
    return build_pivot(View.of(scene_of(upper_tips, lower_tips)), pivot)


def classify_of(upper_tips, lower_tips, pivot):
    pv = pivot_of(upper_tips, lower_tips, pivot)
    return classify(pv), pv


def test_classify_case_a():
    tag, _ = classify_of([(-4, 9), (0, 10)], [(-1, 0), (1, 11)], (0, 10, 1))
    assert tag == "A"


def test_classify_case_b():
    tag, _ = classify_of([(-4, 9), (0, 10)], [(-5, 0), (1, -1)], (0, 10, 1))
    assert tag == "B"


def test_classify_case_c():
    # the window segment crosses l_U..p inside both segments
    tag, _ = classify_of([(-4, 9), (0, 10)], [(-3, 12), (3, -20)], (0, 10, 1))
    assert tag == "C"


def test_classify_case_d():
    # same shape as B but with the window-left vertex right of l_U
    tag, _ = classify_of([(-4, 9), (0, 10)], [(-2, 8), (3, -20)], (0, 10, 1))
    assert tag == "D"


def solve_and_check(inst, expect_path=None):
    res = solve_detailed(inst)
    assert verify(inst, res.colors, 3) is None
    if expect_path is not None:
        assert res.case_path[: len(expect_path)] == expect_path, res.case_path
    return res


def test_case_a_coloring_rule():
    pv = pivot_of([(-4, 9), (0, 10)], [(-1, 0), (1, 11)], (0, 10, 1))
    assert classify(pv) == "A"
    path = []
    colors = E.case_a(pv, path)
    # keys are half-plane indices: tips (-4, 9), (0, 10), (-1, 0), (1, 11)
    assert colors == {1: BLUE, 2: BLUE, 3: BLUE, 0: RED}
    inst = instance_from_tips([(-4, 9), (0, 10)], [(-1, 0), (1, 11)])
    ordered = [colors[i] for i in range(4)]
    assert verify(inst, ordered, 3) is None


def test_case_a_extra_point_red():
    tips_l = [(-1, 0), (1, 11), (4, 30)]
    pv = pivot_of([(-4, 9), (0, 10)], tips_l, (0, 10, 1))
    assert classify(pv) == "A"
    colors = E.case_a(pv, [])
    assert colors[4] == RED  # the tip (4, 30)
    assert sum(1 for c in colors.values() if c == BLUE) == 3


def test_case_b_empty_window():
    inst = instance_from_tips([(-4, 9), (0, 10)], [(-5, 0), (1, -1)])
    solve_and_check(inst, ["B"])


def test_case_b_interior_second_layer():
    # one second-layer point inside the window
    inst = instance_from_tips(
        [(-4, 9), (0, 10)], [(-5, 0), (-1, 3), (1, -1)]
    )
    res = solve_and_check(inst)
    assert res.case_path[0] in ("B", "A", "C", "D")


def test_case_b_synthetic_successor_on_fraction_input(monkeypatch):
    """Case B on Fraction input (tips in thirds, so the common
    denominator is 3) where the lower second layer ends inside the
    window, so its successor is synthetic; the colors and the path are
    the ones the solver gave before it cleared denominators."""
    inst = make_instance(
        (Fraction(20, 3), 3, UPPER),
        (Fraction(26, 3), 4, LOWER),
        (3, Fraction(-20, 3), LOWER),
        (Fraction(28, 3), Fraction(20, 3), UPPER),
        (Fraction(34, 3), Fraction(4, 3), LOWER),
    )
    assert (common_denominator(inst) or 1) == 3
    gaps = []
    raw = E._below

    def counted(pt, a, b):
        if len(b) == 2:  # the synthetic successor, the one point with no index
            gaps.append(a[1] - b[1])
        return raw(pt, a, b)

    monkeypatch.setattr(E, "_below", counted)
    for check in (True, False):
        res = solve_detailed(inst, check=check)
        assert (res.colors, res.case_path, res.attempts) == (
            [RED, RED, RED, BLUE, BLUE], ["B"], 0
        )
    assert gaps == [Fraction(2, 3)] * 2  # the least slope gap, 2/3


def test_solve_i3(i3):
    res = solve_and_check(i3)
    assert len(set(res.colors)) == 2


def test_solve_single():
    assert solve(make_instance((1, 0, "upper"))) == [BLUE]
    assert solve(Instance([])) == []


def test_solve_uncovered(i_unc):
    res = solve_and_check(i_unc, ["uncovered"])
    assert sorted(res.colors) == [BLUE, BLUE, RED]


def test_determinism(i3):
    runs = {tuple(solve(i3)) for _ in range(3)}
    assert len(runs) == 1


def test_obs2_example():
    # guards and standing assumptions hold; the non-crossing branch fires
    u_act = [(-2, 1, 0), (0, 0, 1)]
    l_act = [(1, -5, 2), (3, -4, 3)]
    path = []
    colors = observe(u_act, l_act, (0, 0, 1), (1, -5, 2), path)
    assert path == ["obs2"]
    assert colors == {1: BLUE, 2: RED, 0: RED, 3: BLUE}
    inst = instance_from_tips(u_act, l_act)
    full = [colors[i] for i in range(4)]
    assert verify(inst, full, 3) is None


def test_obs3_missing_l_u():
    path = []
    colors = observe([(0, 0, 0)], [(1, -5, 1), (3, -4, 2)], (0, 0, 0), (1, -5, 1), path)
    assert path == ["obs3"]
    assert colors[0] == BLUE and colors[1] == RED


def test_obs3_tangent_rule_empty_second_layer():
    # q's successor keeps blue when no second-layer point exists
    path = []
    colors = observe(
        [(-3, 2, 0), (0, 0, 1)], [(1, -6, 2), (2, -1, 3), (5, -5, 4)], (0, 0, 1), (1, -6, 2), path
    )
    if path == ["obs3"]:
        assert colors[3] in (BLUE, RED)  # the tip (2, -1)


def test_singleton_u(i3):
    res = solve_and_check(i3, ["singleton"])
    assert res.case_path[0] == "singleton"


def test_singleton_two_points():
    inst = instance_from_tips([(0, 10)], [(-1, 0), (1, 0)])
    solve_and_check(inst, ["singleton"])


def test_dispatch_depth_bounded():
    rng = random.Random(12)
    for t in range(200):
        inst = generate(GenSpec(n=rng.randint(3, 14), mode="covered", seed=900 + t, bound=20))
        res = solve_detailed(inst)
        reductions = [p for p in res.case_path if ">" in p or p.startswith("D~")]
        assert len(reductions) <= 6, res.case_path
        assert verify(inst, res.colors, 3) is None


def test_fuzz_all_modes_verify():
    rng = random.Random(31)
    paths = set()
    for t in range(260):
        mode = ["random", "covered", "uncovered", "degenerate"][t % 4]
        n = rng.randint(3, 14)
        inst = generate(GenSpec(n=n, mode=mode, seed=5000 + t, bound=rng.choice([3, 25])))
        res = solve_detailed(inst)
        assert verify(inst, res.colors, 3) is None, (mode, t)
        paths.add(res.case_path[0])
    assert {"A", "B", "C", "D", "singleton", "uncovered"} <= paths


def test_oracle_agreement_small():
    rng = random.Random(8)
    for t in range(120):
        mode = ["random", "covered", "degenerate"][t % 3]
        inst = generate(GenSpec(n=rng.randint(3, 9), mode=mode, seed=7000 + t, bound=10))
        assert oracle(inst, 3) is not None
        assert verify(inst, solve(inst), 3) is None
