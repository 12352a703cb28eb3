from fractions import Fraction

import pytest

from hpcolor.engine import _Fam, obs_separated
from hpcolor.geometry import DegenerateTriangleError, orientation
from hpcolor.model import LOWER, UPPER, HalfPlane, Instance
from hpcolor.verification import arrangement_samples, depth


def make_instance(*triples) -> Instance:
    return Instance([HalfPlane(a, b, side) for a, b, side in triples])


def primes_from(lo: int):
    """The primes >= lo, in order, by trial division."""
    p = max(lo, 2)
    while True:
        if all(p % q for q in range(2, int(p**0.5) + 1)):
            yield p
        p += 1


def coprime_image(inst: Instance, first: int = 211) -> Instance:
    """`inst` with 1/(2**p - 1) added to each value, p running through the
    primes from `first`, one per value: the denominators are pairwise
    coprime (gcd(2**p - 1, 2**q - 1) = 2**gcd(p, q) - 1), so their lcm
    grows with n."""
    primes = primes_from(first)

    def shift(v):
        return v + Fraction(1, 2 ** next(primes) - 1)

    return Instance([HalfPlane(shift(h.a), shift(h.b), h.side) for h in inst])


def instance_from_tips(upper_tips, lower_tips) -> Instance:
    """Instance whose dual tips are exactly the given points.

    A tip (x, y) with a downward ray comes from the upper half-plane
    y' <= -x*x' + y; an upward ray from the lower one.  Tips may carry a
    third entry (their index); it is ignored, and half-plane i is the
    i-th tip of upper_tips + lower_tips.
    """
    hps = [HalfPlane(-t[0], t[1], UPPER) for t in upper_tips]
    hps += [HalfPlane(-t[0], t[1], LOWER) for t in lower_tips]
    return Instance(hps)


def frame_points(fam) -> list:
    """The tips an engine family reads, in its frame's coordinates and order."""
    return fam.take(range(len(fam)))


def point_in_triangle_interior(pt, a, b, c) -> bool:
    """Strict interior test via three orientation signs, the corners'
    own orientation first: the per-tip test the engine's whole-family
    triangle scan made before it read only the triangle's x-span."""
    d = orientation(a, b, c)
    if d == 0:
        raise DegenerateTriangleError("collinear triangle corners")
    if d < 0:
        b, c = c, b
    return orientation(a, b, pt) > 0 and orientation(b, c, pt) > 0 and orientation(c, a, pt) > 0


def observe(u_act, l_act, p, q, path) -> dict:
    """obs_separated on the tip lists, with their sub-hulls built by a hull scan."""
    return obs_separated(_Fam.build(u_act, UPPER), _Fam.build(l_act, LOWER), p, q, path)


def verify_brute(inst, colors, k=3):
    """Independent slow checker: depth at every arrangement sample."""
    for pt in arrangement_samples(inst):
        d, cov = depth(inst, pt)
        if d >= k:
            seen = {colors[i] for i in cov}
            if len(seen) == 1:
                return tuple(cov)
    return None


@pytest.fixture
def i3() -> Instance:
    return make_instance((1, 0, UPPER), (-1, 2, UPPER), (0, 0, LOWER))


@pytest.fixture
def i_tri2() -> Instance:
    return make_instance(
        (0, 0, UPPER),
        (Fraction(3, 2), 0, LOWER),
        (Fraction(-3, 2), 6, LOWER),
    )


@pytest.fixture
def i_unc() -> Instance:
    return make_instance((1, 0, UPPER), (2, 1, UPPER), (-1, 5, UPPER))
