import random
from fractions import Fraction

import pytest

from hpcolor.engine import coverage
from hpcolor.generate import GenSpec, generate
from hpcolor.model import BLUE, LOWER, RED, UPPER, HalfPlane, Instance, dualize
from hpcolor.nae import solve_nae
from hpcolor.uncovered import (
    NotActuallyUncovered,
    color_points_vs_halfplanes,
    enumerate_point_hyperedges,
    polarize,
    uncovered_solve,
    uncovered_witness,
)
from hpcolor.verification import verify

from conftest import make_instance


def test_witness_from_separator(i_unc):
    cov = coverage(dualize(i_unc))
    assert cov.kind == "separated"
    o = uncovered_witness(i_unc, cov.separator)
    for h in i_unc:
        assert h.strictly_outside(o)


def test_witness_single_halfplane():
    inst = make_instance((0, 0, UPPER))
    cov = coverage(dualize(inst))
    o = uncovered_witness(inst, cov.separator)
    assert o[1] > 0


def test_witness_rejects_covered(i3):
    from hpcolor.geometry import Line

    with pytest.raises(NotActuallyUncovered):
        uncovered_witness(i3, Line(0, Fraction(1, 2)))


def test_polarize_axis_aligned():
    # boundary y = 1 seen from the origin polarizes to (0, 1)
    inst = make_instance((0, 1, LOWER))
    scene = polarize(inst, (0, 0))
    assert scene.points == [(0, 1)]


def test_polarize_example():
    # boundary y = 2x + 4 from the origin: -2x + y = 4 -> (-1/2, 1/4)
    inst = make_instance((2, 4, LOWER))
    scene = polarize(inst, (0, 0))
    assert scene.points == [(Fraction(-1, 2), Fraction(1, 4))]


def test_membership_transfer():
    rng = random.Random(13)
    checked = 0
    for _ in range(3000):
        h = HalfPlane(rng.randint(-20, 20), rng.randint(-20, 20), UPPER if rng.random() < 0.5 else LOWER)
        o = (rng.randint(-20, 20), rng.randint(-20, 20))
        if not h.strictly_outside(o):
            continue
        pt = (rng.randint(-20, 20), rng.randint(-20, 20))
        z = (pt[0] - o[0], pt[1] - o[1])
        (u,) = polarize(Instance([h]), o).points
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


def test_uncovered_solve_end_to_end(i_unc):
    cov = coverage(dualize(i_unc))
    o = uncovered_witness(i_unc, cov.separator)
    colors = uncovered_solve(i_unc, o)
    assert verify(i_unc, colors, 3) is None


def test_uncovered_instances_verify():
    rng = random.Random(21)
    for t in range(60):
        inst = generate(GenSpec(n=rng.randint(3, 20), mode="uncovered", seed=t, bound=12))
        cov = coverage(dualize(inst))
        assert cov.kind == "separated"
        o = uncovered_witness(inst, cov.separator)
        colors = uncovered_solve(inst, o)
        assert verify(inst, colors, 3) is None


def test_uncovered_small_trivial():
    # below the size floor the coloring is trivially all blue
    inst = make_instance((1, 0, UPPER), (2, 3, LOWER))
    assert uncovered_solve(inst, (0, 100)) == [BLUE, BLUE]


def test_soundness_bridge():
    """Every depth->=3 covering set maps into the polar plane as a cut
    containing an enumerated constraint, so its bichromaticity is forced."""
    from hpcolor.verification import arrangement_samples, depth

    rng = random.Random(17)
    checked = 0
    for t in range(30):
        inst = generate(GenSpec(n=rng.randint(4, 9), mode="uncovered", seed=400 + t, bound=8))
        cov = coverage(dualize(inst))
        o = uncovered_witness(inst, cov.separator)
        scene = polarize(inst, o)
        edges = enumerate_point_hyperedges(scene.points)
        for pt in arrangement_samples(inst):
            d, covering = depth(inst, pt)
            if d < 3:
                continue
            # the covering set (polar point i is half-plane i) is a closed
            # half-plane cut
            z = (pt[0] - o[0], pt[1] - o[1])
            cut = {k for k, u in enumerate(scene.points) if u[0] * z[0] + u[1] * z[1] >= 1}
            assert cut == set(covering)
            assert any(set(e) <= cut for e in edges), (t, covering)
            checked += 1
    assert checked > 50
