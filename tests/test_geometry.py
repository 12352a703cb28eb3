from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpcolor import geometry as g
from hpcolor.model import LOWER, UPPER

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
    a, b, c = (0, 0), (3, 0), (0, 3)
    assert g.point_in_triangle_interior((1, 1), a, b, c)
    assert not g.point_in_triangle_interior((0, 0), a, b, c)
    # on the hypotenuse of (0,0),(2,0),(2,2): boundary excluded
    assert not g.point_in_triangle_interior((1, 1), (0, 0), (2, 0), (2, 2))
    with pytest.raises(g.DegenerateTriangleError):
        g.point_in_triangle_interior((1, 1), (0, 0), (1, 0), (2, 0))


@settings(max_examples=30)
@given(point_sets)
def test_second_layer_matches_hull_layers(pts):
    spts = sorted(pts)
    for side in (UPPER, LOWER):
        layers = hull_layers(spts, side)
        expect = layers.layers[1].vertices if len(layers.layers) > 1 else []
        assert g.second_layer(spts, g.hull_from_sorted(spts, side)) == expect
