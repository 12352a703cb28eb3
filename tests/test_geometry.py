import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpcolor import geometry as g
from hpcolor.model import LOWER, UPPER

from conftest import point_in_triangle_interior

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=16
).map(lambda f: int(f) if f.denominator == 1 else f)
small_ints = st.integers(min_value=-100, max_value=100)
points = st.tuples(rationals, rationals)


def distinct_x_points(draw, n_min=1, n_max=12):
    xs = draw(
        st.lists(small_ints, min_size=n_min, max_size=n_max, unique=True)
    )
    ys = draw(st.lists(small_ints, min_size=len(xs), max_size=len(xs)))
    return [(x, y) for x, y in zip(xs, ys)]


point_sets = st.composite(distinct_x_points)()


@dataclass
class HullLayers:
    """Onion peeling: layer 0 is the outermost hull chain."""

    side: str
    layers: list  # of HullChain
    assignment: dict  # Point -> layer index


def hull_layers(points, side: str) -> HullLayers:
    """Peel hulls until no point remains; layers partition the input
    (points with pairwise distinct x).  The reference peel that
    `second_layer` is checked against."""
    remaining = sorted(points)
    if not remaining:
        raise g.GeometryError("empty point set")
    layers = []
    assignment = {}
    while remaining:
        chain = g.hull_from_sorted(remaining, side)
        on_chain = set(chain.vertices)
        for v in chain.vertices:
            assignment[v] = len(layers)
        layers.append(chain)
        remaining = [p for p in remaining if p not in on_chain]
    return HullLayers(side, layers, assignment)


def test_orientation_examples():
    assert g.orientation((0, 0), (1, 0), (0, 1)) == g.LEFT == 1
    assert g.orientation((0, 0), (1, 0), (2, 0)) == g.COLLINEAR == 0
    # determinant (1*1 - 1*2) = -1
    assert g.orientation((0, 0), (1, 1), (2, 1)) == g.RIGHT == -1


@given(points, points, points)
def test_orientation_antisymmetry(p, q, r):
    assert g.orientation(p, q, r) == -g.orientation(p, r, q)


@given(points, points, points, rationals, rationals)
def test_orientation_translation_invariant(p, q, r, dx, dy):
    shift = lambda t: (t[0] + dx, t[1] + dy)
    assert g.orientation(p, q, r) == g.orientation(shift(p), shift(q), shift(r))


def test_segments_intersect_examples():
    assert g.segments_intersect(((0, 0), (2, 2)), ((0, 2), (2, 0)))
    assert not g.segments_intersect(((0, 0), (1, 0)), ((2, 0), (3, 0)))
    # shared endpoint (1,1) lies on the first segment
    assert g.segments_intersect(((0, 0), (2, 2)), ((1, 1), (5, 0)))


def test_hull_examples():
    assert g.hull_from_sorted([(0, 0)], UPPER).vertices == [(0, 0)]
    up = g.hull_from_sorted([(-1, 0), (0, 10), (1, 0)], UPPER)
    assert up.vertices == [(-1, 0), (0, 10), (1, 0)]
    lo = g.hull_from_sorted([(-1, 0), (0, 10), (1, 0)], LOWER)
    assert lo.vertices == [(-1, 0), (1, 0)]


@given(point_sets)
def test_hull_reflection_duality(pts):
    up = g.hull_from_sorted(sorted(pts), UPPER).vertices
    lo = g.hull_from_sorted(sorted((x, -y) for x, y in pts), LOWER).vertices
    assert up == [(x, -y) for x, y in lo]


@given(point_sets)
def test_hulls_dominate_generators(pts):
    for side in (UPPER, LOWER):
        chain = g.hull_from_sorted(sorted(pts), side)
        for w in pts:
            assert g.region_contains(chain, w)


def test_hull_layers_examples():
    layers = hull_layers([(-2, 0), (2, 0), (0, -1)], LOWER)
    assert len(layers.layers) == 1
    layers = hull_layers([(-2, 0), (2, 0), (1, 1), (0, -1)], LOWER)
    assert layers.layers[0].vertices == [(-2, 0), (0, -1), (2, 0)]
    assert layers.layers[1].vertices == [(1, 1)]


@given(point_sets)
def test_hull_layers_partition(pts):
    layers = hull_layers(pts, UPPER)
    seen = []
    for chain in layers.layers:
        seen.extend(chain.vertices)
    assert sorted(seen) == sorted(pts)
    assert set(layers.assignment) == set(pts)
    # peeling again reproduces layer i+1
    for i in range(len(layers.layers) - 1):
        rest = [p for p in pts if layers.assignment[p] > i]
        if rest:
            again = g.hull_from_sorted(sorted(rest), UPPER)
            assert again.vertices == layers.layers[i + 1].vertices


def test_chain_eval_examples():
    chain = g.HullChain(UPPER, [(-1, 0), (1, 2)])
    assert g.chain_eval(chain, 0) == 1
    single = g.HullChain(UPPER, [(0, 0)])
    assert g.chain_eval(single, 0) == 0
    apex = g.HullChain(UPPER, [(-1, 0), (0, 10), (1, 0)])
    assert g.chain_eval(apex, Fraction(1, 2)) == 5
    with pytest.raises(g.OutOfSpanError):
        g.chain_eval(chain, 5)


def test_region_contains_examples():
    upper = g.HullChain(UPPER, [(-1, 0), (1, 2)])
    assert g.region_contains(upper, (0, 0))  # boundary at 0 is 1 >= 0
    single = g.HullChain(LOWER, [(0, 0)])
    assert g.region_contains(single, (0, 5))  # on the upward ray
    assert not g.region_contains(single, (1, 5))  # outside x-span


def test_point_in_triangle_examples():
    """The interior test that `test_triangle_free_window_matches_whole_scan`
    takes as its oracle."""
    a, b, c = (0, 0), (3, 0), (0, 3)
    assert point_in_triangle_interior((1, 1), a, b, c)
    assert not point_in_triangle_interior((0, 0), a, b, c)
    # on the hypotenuse of (0,0),(2,0),(2,2): boundary excluded
    assert not point_in_triangle_interior((1, 1), (0, 0), (2, 0), (2, 2))
    with pytest.raises(g.DegenerateTriangleError):
        point_in_triangle_interior((1, 1), (0, 0), (1, 0), (2, 0))


@settings(max_examples=30)
@given(point_sets)
def test_second_layer_matches_hull_layers(pts):
    spts = sorted(pts)
    for side in (UPPER, LOWER):
        layers = hull_layers(spts, side)
        expect = layers.layers[1].vertices if len(layers.layers) > 1 else []
        assert g.second_layer(spts, g.hull_from_sorted(spts, side)) == expect


def normal(v: Fraction):
    """An integral Fraction as the int the package would hold."""
    return int(v) if v.denominator == 1 else v


def plain_scan(points, side: str) -> list:
    """The oracle: a monotone scan over every point, the hull before the
    throw-away filter."""
    turn = g.RIGHT if side == UPPER else g.LEFT
    out: list = []
    for p in points:
        while len(out) > 1 and g.orientation(out[-2], out[-1], p) != turn:
            out.pop()
        out.append(p)
    return out


def narrowed_reference(points, side: str) -> tuple:
    """What the throw-away passes to the scan, with the depth of its
    deepest split and whether a split had several farthest points.

    The kept points are the first and the last point, the first point t of
    extreme y, and, in each part, the points strictly outside the chord of
    the part's two ends, on the hull's side.  A part kept from at most
    half of its range, with at least two points, splits at its first
    farthest point from the chord, and each side is narrowed the same
    way by the chord from its end to that point."""
    n = len(points)
    if n < 3:
        return list(points), 0, False
    sign = 1 if side == UPPER else -1
    deepest, tied = 0, False

    def beyond(a, b, w):  # twice the area of a, b, w, > 0 outside the chord
        a, b, w = points[a], points[b], points[w]
        return sign * ((b[0] - a[0]) * (w[1] - a[1]) - (b[1] - a[1]) * (w[0] - a[0]))

    def narrow(span, a, b, depth):
        nonlocal deepest, tied
        part = [i for i in span if beyond(a, b, i) > 0]
        if len(part) < 2 or 2 * len(part) > len(span):
            return part
        deepest = max(deepest, depth)
        heights = [beyond(a, b, i) for i in part]
        tied |= heights.count(max(heights)) > 1
        f = part[heights.index(max(heights))]
        left = narrow([i for i in part if i < f], a, f, depth + 1)
        return left + [f] + narrow([i for i in part if i > f], f, b, depth + 1)

    ys = [sign * p[1] for p in points]
    k = ys.index(max(ys))
    kept = [0] + narrow(range(1, k), 0, k, 1) + ([k] if 0 < k < n - 1 else [])
    kept += narrow(range(k + 1, n - 1), k, n - 1, 1) + [n - 1]
    return [points[i] for i in kept], deepest, tied


def faces_with_noise(rng, side: str) -> list:
    """A concave chain through (4*w*j, -2*w*j*j) for j in [-J, J], with
    the lattice points of its edges at x = 4t, and noise strictly below it
    at x = 4t + 1..3 (mirrored for a lower chain).  A chord between two
    vertices whose j sum to an odd number is parallel to an edge, all
    of whose lattice points are then farthest from it."""
    J, w = rng.randint(2, 7), rng.randint(2, 6)
    sign = -1 if side == UPPER else 1

    def chain(t):
        j = min(t // w, J - 1)  # the edge from vertex j to j + 1
        return -2 * w * j * j - 2 * (2 * j + 1) * (t - w * j)

    pts = []
    spread = 2 * w * J * rng.randint(1, J)
    for t in range(-J * w, J * w + 1):
        pts.append((4 * t, -sign * chain(t)))
        if t < J * w:
            floor = min(chain(t), chain(t + 1))
            pts += [(4 * t + d, -sign * (floor - rng.randint(1, spread))) for d in (1, 2, 3)]
    return pts


def test_hull_matches_plain_scan(monkeypatch):
    """`hull_from_sorted` returns the plain scan's vertex list, list for
    list, and scans exactly what the recursive throw-away keeps, over ints
    and Fractions, 2- and 3-tuples, n <= 3, convex position (nothing is
    dropped), all-collinear sets, several points sharing the extreme y
    (the first and the last among them), and the extreme at either end.
    Draws up to n = 500 split at depth 2 and more, and chains with noise
    below them have several points farthest from a chord."""
    scanned = []
    raw_scan = g._scan
    monkeypatch.setattr(g, "_scan", lambda points, turn: scanned.append(list(points)) or raw_scan(points, turn))
    rng = random.Random(21)
    seen = Counter()

    def check(pts, side, kind):
        scanned.clear()
        got = g.hull_from_sorted(pts, side).vertices
        want = plain_scan(pts, side)
        assert got == want, (kind, side, pts)
        kept, depth, tied = narrowed_reference(pts, side)
        assert scanned == [kept], (kind, side, pts)
        seen[f"{kind}, depth >= 2"] += depth >= 2
        seen[f"{kind}, tied farthest"] += tied
        return want

    for t in range(6000):
        kind = ("random", "convex", "collinear", "ties", "monotone")[t % 5]
        n = rng.randint(0, 3) if t % 7 == 0 else rng.randint(4, 16)
        den = rng.choice([1, 1, 2, 3, 7])
        xs = sorted({Fraction(rng.randint(-60, 60), den) for _ in range(n)})
        side = rng.choice([UPPER, LOWER])
        sign = -1 if side == UPPER else 1
        if kind == "convex":
            ys = [sign * x * x for x in xs]
        elif kind == "collinear":
            slope, at0 = Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-9, 9)
            ys = [slope * x + at0 for x in xs]
        elif kind == "monotone":
            ys = sorted(Fraction(rng.randint(-40, 40), den) for _ in xs)[:: rng.choice([1, -1])]
        else:
            ys = [Fraction(rng.randint(-4, 4), rng.choice([1, den])) for _ in xs]
        if kind == "ties" and xs:
            top = -sign * 5
            picks = {0, len(xs) - 1} | {rng.randrange(len(xs)) for _ in range(3)}
            for i in rng.sample(sorted(picks), rng.randint(1, len(picks))):
                ys[i] = top
        pts = [(normal(x), normal(y)) for x, y in zip(xs, ys)]
        if rng.random() < 0.5:
            pts = [(x, y, i) for i, (x, y) in enumerate(pts)]
        want = check(pts, side, "small")

        ys = [p[1] for p in pts]
        seen["3-tuple" if pts and len(pts[0]) == 3 else "2-tuple"] += 1
        seen["Fraction" if any(isinstance(v, Fraction) for p in pts for v in p[:2]) else "int"] += 1
        if len(pts) <= 3:
            seen["n <= 3"] += 1
            continue
        extreme = max(ys) if side == UPPER else min(ys)
        at = [i for i, y in enumerate(ys) if y == extreme]
        seen["convex, nothing dropped"] += len(want) == len(pts)
        seen["all collinear"] += all(g.orientation(pts[0], pts[-1], p) == 0 for p in pts)
        seen["shared extreme"] += len(at) > 1
        seen["shared extreme, first and last"] += len(at) > 1 and at[0] == 0 and at[-1] == len(pts) - 1
        seen["extreme first"] += at[0] == 0
        seen["extreme last"] += at[0] == len(pts) - 1
    for t in range(400):
        side = rng.choice([UPPER, LOWER])
        if t % 2:
            check(faces_with_noise(rng, side), side, "faces")
            continue
        n = rng.randint(100, 500)
        xs = sorted(rng.sample(range(-5000, 5000), n))
        pts = [(x, rng.randint(-3000, 3000), i) for i, x in enumerate(xs)]
        check(pts, side, "large")
    floors = {
        "int": 1000, "Fraction": 1000, "2-tuple": 1000, "3-tuple": 1000, "n <= 3": 400,
        "convex, nothing dropped": 800, "all collinear": 800, "shared extreme": 800,
        "shared extreme, first and last": 150, "extreme first": 400, "extreme last": 400,
        "large, depth >= 2": 100, "faces, depth >= 2": 15, "faces, tied farthest": 40,
    }
    assert all(seen[k] >= floor for k, floor in floors.items()), seen


def test_hull_throw_away_on_geometric_chain(monkeypatch):
    """Quickhull's worst case: a convex chain whose x gaps grow by 1/128
    per point, n = 2**17.  The farthest point from a chord of the chain
    lies about 89 points before the chord's right end, so a recursion
    that always split would nest about 1,480 deep on it.  The throw-away
    keeps every point of the chain, so it never splits, and under deep
    noise it splits only as far as each filter halves its range: no
    `RecursionError`, and the filters read at most 2n points."""
    reads = []
    raw = g._outside
    monkeypatch.setattr(
        g, "_outside", lambda points, lo, hi, a, b, turn: reads.append(len(range(lo, hi))) or raw(points, lo, hi, a, b, turn)
    )
    n = 2**17
    xs = [2**8]
    while len(xs) < n:
        xs.append(xs[-1] + (xs[-1] >> 7))
    chain = [(x, -x * x) for x in xs]
    assert g.hull_from_sorted(chain, UPPER).vertices == chain
    assert sum(reads) == n - 2  # one filter over all but the two ends

    half = chain[: n // 2]
    deep = -half[-1][0] ** 2 - 1
    noisy = half[:1] + [q for p in half[1:] for q in ((p[0] - 1, deep), p)]
    reads.clear()
    assert g.hull_from_sorted(noisy, UPPER).vertices == half
    assert len(reads) > 1 and sum(reads) <= 2 * n  # the recursion started, and stayed bounded
