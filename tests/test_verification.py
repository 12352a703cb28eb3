import random
from fractions import Fraction

import pytest

from hpcolor.model import BLUE, LOWER, RED, UPPER, HalfPlane, Instance
from hpcolor.generate import GenSpec, generate
from hpcolor.verification import (
    LengthMismatchError,
    TooLargeError,
    _sector_directions,
    _sort_rays,
    arrangement_samples,
    depth,
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
