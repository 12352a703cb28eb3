import random
from collections import Counter
from fractions import Fraction

import pytest

from hpcolor.engine import coverage
from hpcolor.generate import GenSpec, generate
from hpcolor.geometry import orientation
from hpcolor.model import (
    BLUE,
    LOWER,
    RED,
    UPPER,
    GeneralPositionViolation,
    HalfPlane,
    Instance,
    common_denominator,
    dualize,
    perturb,
)
from hpcolor.nae import nae_solutions, solve_nae
from hpcolor.uncovered import (
    NotActuallyUncovered,
    _first_layers,
    _homogeneous,
    color_points_vs_halfplanes,
    enumerate_point_hyperedges,
    polarize,
    uncovered_solve,
    uncovered_witness,
)
from hpcolor.verification import verify

from conftest import coprime_image, make_instance


def test_witness_from_separator(i_unc):
    scene = dualize(i_unc)
    cov = coverage(scene)
    assert cov.kind == "separated"
    o = uncovered_witness(scene, cov.witness)
    for h in i_unc:
        assert not h.contains(o)


def test_witness_single_halfplane():
    scene = dualize(make_instance((0, 0, UPPER)))
    cov = coverage(scene)
    o = uncovered_witness(scene, cov.witness)
    assert o[1] > 0


def test_witness_rejects_covered(i3):
    with pytest.raises(NotActuallyUncovered):
        uncovered_witness(dualize(i3), (0, Fraction(1, 2)))


def test_polarize_axis_aligned():
    # boundary y = 1 seen from the origin polarizes to (0, 1)
    inst = make_instance((0, 1, LOWER))
    assert polarize(dualize(inst), (0, 0)) == [(0, 1)]


def test_polarize_example():
    # boundary y = 2x + 4 from the origin: -2x + y = 4 -> (-1/2, 1/4)
    inst = make_instance((2, 4, LOWER))
    assert polarize(dualize(inst), (0, 0)) == [(Fraction(-1, 2), Fraction(1, 4))]


def test_membership_transfer():
    rng = random.Random(13)
    checked = 0
    for _ in range(3000):
        h = HalfPlane(rng.randint(-20, 20), rng.randint(-20, 20), UPPER if rng.random() < 0.5 else LOWER)
        o = (rng.randint(-20, 20), rng.randint(-20, 20))
        if h.contains(o):
            continue
        pt = (rng.randint(-20, 20), rng.randint(-20, 20))
        z = (pt[0] - o[0], pt[1] - o[1])
        (u,) = polarize(dualize(Instance([h])), o)
        assert h.contains(pt) == (u[0] * z[0] + u[1] * z[1] >= 1)
        checked += 1
    assert checked > 1000


def test_enumerate_small_cases():
    assert enumerate_point_hyperedges([(0, 0), (1, 1)]) == []
    triple = enumerate_point_hyperedges([(0, 0), (2, 0), (1, 2)])
    assert (0, 1, 2) in triple


def test_enumerate_square_arcs():
    pts = [(0, 0), (2, 0), (2, 2), (0, 2)]
    edges = set(enumerate_point_hyperedges(pts))
    # contiguous arcs of size 3 around the hull
    assert {(0, 1, 2), (1, 2, 3), (0, 2, 3), (0, 1, 3)} == edges


def test_enumerate_prefixes_cover_realizable_cuts():
    rng = random.Random(2)
    for trial in range(40):
        n = rng.randint(4, 10)
        pts = [
            (Fraction(rng.randint(-30, 30), rng.randint(1, 4)),
             Fraction(rng.randint(-30, 30), rng.randint(1, 4)))
            for _ in range(n)
        ]
        edges = set(enumerate_point_hyperedges(pts))
        # oracle: every half-plane cut through a perturbed pair direction
        for _ in range(60):
            i, j = rng.sample(range(n), 2)
            dx = pts[j][0] - pts[i][0]
            dy = pts[j][1] - pts[i][1]
            u = (-dy * 1000 + dx, dx * 1000 + dy)  # small exact rotation
            order = sorted(range(n), key=lambda k: u[0] * pts[k][0] + u[1] * pts[k][1], reverse=True)
            for size in range(3, n + 1):
                cut = order[:size]
                assert any(set(e) <= set(cut) for e in edges), (pts, cut)


def _reference_first_layers(points) -> list:
    """The weak three-layer peel on Fraction cross products: per layer,
    sort the remaining points, scan both chains keeping collinear points,
    and list the layer in index order."""
    remaining = list(range(len(points)))
    out = []
    for _ in range(3):
        idx = sorted(remaining, key=lambda i: points[i])

        def chain(pop_left):
            kept = []
            for i in idx:
                while len(kept) > 1:
                    o, a, b = points[kept[-2]], points[kept[-1]], points[i]
                    c = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
                    if (c > 0) if pop_left else (c < 0):
                        kept.pop()
                    else:
                        break
                kept.append(i)
            return kept

        layer = sorted(set(chain(True)) | set(chain(False)))
        out.extend(layer)
        remaining = [i for i in remaining if i not in layer]
    return out


def _reference_hyperedges(points) -> list:
    """The O(m^3) triple loop the rotational sweep replaced.

    For each ordered candidate pair (i, j), d = p_j - p_i and u = perp(d),
    and for each tie sign +-1 keep the top 3 candidates by (u.p, +-d.p)
    descending, full ties by position in the candidate list.
    """
    if len(points) < 3:
        return []
    cand = _reference_first_layers(points)
    hom = _homogeneous(points)
    edges = set()
    for ii, i in enumerate(cand):
        xi, yi, wi = hom[i]
        for jj, j in enumerate(cand):
            if ii == jj:
                continue
            xj, yj, wj = hom[j]
            dx = xj * wi - xi * wj
            dy = yj * wi - yi * wj
            for sign in (1, -1):
                best = []
                for k in cand:
                    xk, yk, wk = hom[k]
                    entry = (-dy * xk + dx * yk, sign * (dx * xk + dy * yk), wk, k)
                    pos = len(best)
                    while pos > 0:
                        pq, sq, wq, _q = best[pos - 1]
                        lhs, rhs = entry[0] * wq, pq * wk
                        if lhs > rhs or (lhs == rhs and entry[1] * wq > sq * wk):
                            pos -= 1
                        else:
                            break
                    best.insert(pos, entry)
                    del best[3:]
                edges.add(tuple(sorted(e[3] for e in best)))
    return sorted(edges)


def _convex_polar_points(n, seed):
    """Polar points of y <= a*x - a^2 - 1 (distinct a) seen from the
    origin: n points in convex position."""
    slopes = random.Random(seed).sample(range(-2 * n, 2 * n + 1), n)
    inst = Instance([HalfPlane(a, -a * a - 1, UPPER) for a in slopes])
    return polarize(dualize(inst), (0, 0))


def _point_set(rng, kind, n):
    """A seeded set of n points (n-ish for the generated ones) of one
    differential family."""
    if kind == "fraction":
        return [(Fraction(rng.randint(-30, 30), rng.randint(1, 7)),
                 Fraction(rng.randint(-30, 30), rng.randint(1, 7))) for _ in range(n)]
    if kind == "collinear":
        # runs of points on shared lines among a few free ones
        pts = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(n // 3)]
        while len(pts) < n:
            base = (rng.randint(-6, 6), rng.randint(-6, 6))
            step = rng.choice([(1, 0), (0, 1), (1, 1), (2, -1), (Fraction(1, 3), 1)])
            for t in rng.sample(range(-9, 10), min(n - len(pts), rng.randint(2, 6))):
                pts.append((base[0] + t * step[0], base[1] + t * step[1]))
        rng.shuffle(pts)
        return pts
    if kind == "all-collinear":
        step = rng.choice([(1, 0), (0, 1), (1, 1), (3, -2), (Fraction(1, 2), Fraction(1, 5))])
        base = (rng.randint(-5, 5), rng.randint(-5, 5))
        return [(base[0] + t * step[0], base[1] + t * step[1])
                for t in (rng.randint(-6, 6) for _ in range(n))]
    if kind == "coincident":
        pts = [(rng.randint(-4, 4), Fraction(rng.randint(-8, 8), rng.randint(1, 2))) for _ in range(n)]
        for _ in range(rng.randint(1, 3)):
            pts[rng.randrange(n)] = pts[rng.randrange(n)]
        return pts
    if kind == "huge":
        scale = 10**40
        return [(rng.randint(-50, 50) * scale + rng.randint(-3, 3),
                 Fraction(rng.randint(-50, 50) * scale, rng.randint(1, 3))) for _ in range(n)]
    inst = generate(GenSpec(n=2 * n, mode="uncovered", seed=rng.randrange(10**6),
                            bound=rng.choice([3, 12, 50])))
    scene = dualize(inst)
    return polarize(scene, uncovered_witness(scene, coverage(scene).witness))


def test_sweep_matches_reference_triple_loop():
    """The sweep returns the triple loop's edge list, list for list."""
    rng = random.Random(11)
    kinds = ("fraction", "collinear", "all-collinear", "coincident", "huge", "generated")
    seen = Counter()
    for t in range(3000):
        kind = kinds[t % len(kinds)]
        pts = _point_set(rng, kind, rng.randint(3, 11))
        got = enumerate_point_hyperedges(pts)
        assert got == _reference_hyperedges(pts), (t, kind, pts)
        seen["coincident pair"] += len(set(pts)) < len(pts)
        seen["all collinear"] += all(orientation(pts[0], p, q) == 0 for p in pts for q in pts)
    for n in (4, 5, 8, 16, 33, 64):
        pts = _convex_polar_points(n, n)
        got = enumerate_point_hyperedges(pts)
        assert got == _reference_hyperedges(pts), n
        assert len(got) == n  # the n arcs of three consecutive hull points
    assert min(seen.values()) >= 500, seen


def test_integer_peel_matches_fraction_peel():
    """The integer peel lists the same indices as the Fraction peel,
    duplicates and collinear hull points included."""
    rng = random.Random(12)
    seen = Counter()
    for t in range(1500):
        kind = ("fraction", "collinear", "all-collinear", "coincident", "huge")[t % 5]
        pts = _point_set(rng, kind, rng.randint(3, 40))
        if t % 3 == 0:
            pts = pts + [pts[rng.randrange(len(pts))] for _ in range(rng.randint(1, 3))]
        got = _first_layers(_homogeneous(pts))
        want = _reference_first_layers(pts)
        assert got == want, (t, pts)
        seen["duplicates kept"] += len({pts[i] for i in got}) < len(got)
        seen["some peeled off"] += len(got) < len(pts)
    assert min(seen.values()) >= 200, seen


def test_nae_solver_basics():
    assert solve_nae(3, [(0, 1, 2)]) == [0, 0, 1]
    assert solve_nae(3, [(0, 1), (1, 2), (0, 2)]) is None  # odd triangle
    assert solve_nae(2, []) == [0, 0]
    assert solve_nae(3, [(2,)]) is None


def test_nae_lexicographic_first():
    # first solution must be the lexicographically smallest good one
    edges = [(0, 1, 2), (2, 3)]
    got = solve_nae(4, edges)
    for mask in range(16):
        colors = [(mask >> (3 - i)) & 1 for i in range(4)]
        if all(len({colors[v] for v in e}) == 2 for e in edges):
            assert got == colors
            break


def test_nae_solutions_match_brute_force():
    """The generator yields every good assignment of small random
    hypergraphs, in lexicographic order, and solve_nae its first; also with
    singleton edges, with no edges and with n = 0."""
    rng = random.Random(5)
    seen = Counter()
    for _ in range(1500):
        n = rng.randint(0, 9)
        edges = [
            rng.sample(range(n), min(n, rng.randint(2, 4)))
            for _ in range(rng.randint(0, 9) if n else 0)
        ]
        if n and rng.random() < 0.15:
            edges.insert(rng.randint(0, len(edges)), [rng.randrange(n)])
        want = [
            [(mask >> (n - 1 - i)) & 1 for i in range(n)]
            for mask in range(1 << n)
            if all(len({mask >> (n - 1 - v) & 1 for v in e}) == 2 for e in edges)
        ]
        assert list(nae_solutions(n, edges)) == want, (n, edges)
        assert solve_nae(n, edges) == (want[0] if want else None), (n, edges)
        seen["n = 0"] += n == 0
        seen["no edges"] += not edges
        seen["singleton"] += any(len(e) == 1 for e in edges)
        seen["none"] += not want
        seen["none, no singleton"] += not want and all(len(e) > 1 for e in edges)
        seen["several"] += len(want) > 1
    assert seen.pop("none, no singleton") >= 20 and min(seen.values()) >= 100, seen


def test_nae_deep_search_is_iterative():
    # one search level per variable: a recursive search overflows the
    # interpreter stack long before 3000 variables
    n = 3000
    edges = [(i, i + 1, i + 2) for i in range(n - 2)]
    edges += [(i, i + 7) for i in range(0, n - 7, 5)]
    got = solve_nae(n, edges)
    assert got is not None and len(got) == n
    assert all(len({got[v] for v in e}) == 2 for e in edges)


def test_color_points_uses_both_colors():
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randint(3, 12)
        pts = [(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(n)]
        colors = color_points_vs_halfplanes(pts)
        assert set(colors) == {BLUE, RED}
        edges = enumerate_point_hyperedges(pts)
        idx = {BLUE: 0, RED: 1}
        for e in edges:
            assert len({idx[colors[v]] for v in e}) == 2


def _reference_polarize(inst, origin) -> list:
    """The polar reduction in the instance's own units: translate the
    witness, a primal point, to the origin; boundary y = a*x + b then
    reads -a*x + y = shift, and its polar point is (-a, 1) / shift."""
    ox, oy = origin
    points = []
    for a, b in zip(inst.a, inst.b):
        shift = Fraction(a) * ox + b - oy  # boundary intercept at the origin
        assert shift != 0
        points.append((-Fraction(a) / shift, Fraction(1) / shift))
    return points


def _instance_witness(scene, line, scale):
    """The witness as a primal point in the instance's own units: with one
    family (0, max y + 1) or (0, min y - 1) of the unscaled tips, else the
    separating line (c, d) of the scaled plane with d over `scale`."""
    if not scene.tips_l:
        return 0, Fraction(max(y for _x, y, _i in scene.tips_u), scale) + 1
    if not scene.tips_u:
        return 0, Fraction(min(y for _x, y, _i in scene.tips_l), scale) - 1
    return line[0], Fraction(line[1], scale)


def _image(inst, kind, rng):
    """An instance with other coefficients than `inst`: an exact affine
    image, a and b times or over 10**40, every half-plane on one side,
    `perturb`'s output, or pairwise coprime denominators (Fraction tips)."""
    rows = list(zip(inst.a, inst.b, inst.sides))
    if kind == "fractional":  # (x, y) -> (u*x + c, s*y + e), u, s > 0
        u, s = Fraction(rng.randint(1, 9), rng.randint(1, 9)), Fraction(rng.randint(1, 9), 7)
        c, e = Fraction(rng.randint(-9, 9), 5), Fraction(rng.randint(-9, 9), 3)
        rows = [(s * a / u, s * b - s * a * c / u + e, side) for a, b, side in rows]
    elif kind in ("times 10**40", "over 10**40"):
        f = 10**40 if kind == "times 10**40" else Fraction(1, 10**40)
        rows = [(a * f, b * f, side) for a, b, side in rows]
    elif kind == "one family":
        side = rng.choice([UPPER, LOWER])
        rows = [(a, b, side) for a, b, _side in rows]
    elif kind == "perturbed":
        return perturb(inst, rng.randint(0, 3))
    elif kind == "coprime":
        return coprime_image(inst)
    return make_instance(*rows)


def test_polarize_in_tip_units_matches_instance_units():
    """On separated scenes the polar points of the scene, seen from its
    witness line, give the same constraint list as the instance's own
    polar points seen from the witness in instance units, on int,
    fractional, 10**40, 10**-40, one-family, perturbed and coprime input,
    in each of `coverage`'s three witness branches."""
    rng = random.Random(24)
    kinds = ("int", "fractional", "times 10**40", "over 10**40", "one family",
             "perturbed", "coprime")
    seen = Counter()
    for t in range(3500):
        kind = kinds[t % len(kinds)]
        mode = ("uncovered", "uncovered", "random")[t // len(kinds) % 3]
        n = rng.randint(3, 6 if kind == "coprime" else 16)  # coprime values have ~250 bits
        inst = _image(generate(GenSpec(n=n, mode=mode, seed=t, bound=rng.choice([3, 12, 50]))),
                      kind, rng)
        try:
            scene = dualize(inst)
        except GeneralPositionViolation:
            continue
        cov = coverage(scene)
        if cov.kind == "covered":
            continue
        scale = common_denominator(inst) or 1
        line = uncovered_witness(scene, cov.witness)
        got = enumerate_point_hyperedges(polarize(scene, line))
        want = enumerate_point_hyperedges(
            _reference_polarize(inst, _instance_witness(scene, line, scale))
        )
        assert got == want, (t, kind)
        seen[kind] += 1
        if not scene.tips_u or not scene.tips_l:
            seen["one-family witness"] += 1
        elif max(scene.tips_u)[0] < min(scene.tips_l)[0] or max(scene.tips_l)[0] < min(scene.tips_u)[0]:
            seen["disjoint spans"] += 1
        else:
            seen["overlapping spans"] += 1
        seen["scaled"] += scale > 1
    assert sum(seen[k] for k in kinds) >= 2000, seen
    assert min(seen.values()) >= 150, seen


def test_uncovered_solve_end_to_end(i_unc):
    scene = dualize(i_unc)
    o = uncovered_witness(scene, coverage(scene).witness)
    colors = uncovered_solve(scene, o)
    assert verify(i_unc, colors, 3) is None


def test_uncovered_instances_verify():
    rng = random.Random(21)
    for t in range(60):
        inst = generate(GenSpec(n=rng.randint(3, 20), mode="uncovered", seed=t, bound=12))
        scene = dualize(inst)
        cov = coverage(scene)
        assert cov.kind == "separated"
        o = uncovered_witness(scene, cov.witness)
        colors = uncovered_solve(scene, o)
        assert verify(inst, colors, 3) is None


def test_uncovered_small_trivial():
    # two polar points give no constraint, so the coloring is all blue
    inst = make_instance((1, 0, UPPER), (2, 3, LOWER))
    assert uncovered_solve(dualize(inst), (0, 100)) == [BLUE, BLUE]


def test_soundness_bridge():
    """Every depth->=3 covering set maps into the polar plane as a cut
    containing an enumerated constraint, so its bichromaticity is forced."""
    from hpcolor.verification import arrangement_samples, depth

    rng = random.Random(17)
    checked = 0
    for t in range(30):
        inst = generate(GenSpec(n=rng.randint(4, 9), mode="uncovered", seed=400 + t, bound=8))
        scene = dualize(inst)
        o = uncovered_witness(scene, coverage(scene).witness)
        points = polarize(scene, o)
        edges = enumerate_point_hyperedges(points)
        for pt in arrangement_samples(inst):
            d, covering = depth(inst, pt)
            if d < 3:
                continue
            # the covering set (polar point i is half-plane i) is a closed
            # half-plane cut
            z = (pt[0] - o[0], pt[1] - o[1])
            cut = {k for k, u in enumerate(points) if u[0] * z[0] + u[1] * z[1] >= 1}
            assert cut == set(covering)
            assert any(set(e) <= cut for e in edges), (t, covering)
            checked += 1
    assert checked > 50
