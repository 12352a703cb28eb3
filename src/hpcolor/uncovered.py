"""Coloring instances whose half-planes leave part of the plane bare.

An uncovered point, moved to the origin, turns every boundary line into
a polar point; a half-plane contains a (translated) primal point exactly
when the point's polar line crosses the segment from the origin to the
half-plane's polar point.  Lines missing the origin therefore cut the
polar point set along closed half-planes, so a 2-coloring of the polar
points with no monochromatic half-plane cut of size three and up settles
the original instance.  The search is exact over the top-3 sets of
generic directions among the points on the first three convex layers (a
cut of size three and up contains the top-3 set of its own direction):
m sets for m points in convex position, and at most m on the generated
uncovered instances measured.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .model import BLUE, RED, Instance, ModelError, halfplane_contains
from .nae import solve_nae
from .rationals import as_fraction, num_den


class UncoveredError(ModelError):
    pass


class NotActuallyUncovered(UncoveredError):
    pass


class SearchExhausted(UncoveredError):
    """The constraint search failed; contradicts the coloring theorem."""


def uncovered_witness(inst: Instance, pt: tuple) -> tuple:
    """`pt`, the primal point dual to a separating line, checked by
    substitution to lie in no half-plane of `inst`."""
    for i, row in enumerate(zip(inst.a, inst.b, inst.sides)):
        if halfplane_contains(*row, pt):
            raise NotActuallyUncovered(f"witness lies in half-plane {i}")
    return pt


def polarize(inst: Instance, origin) -> list:
    """Translate the witness to the origin and map boundaries to points.

    After translation every boundary misses the origin, so it has a form
    <u, x> = 1; u is the polar point.  Membership transfers: translated
    point z lies in the half-plane iff <u, z> >= 1.  Returns the polar
    points, exact rational pairs; point i is half-plane i's.
    """
    ox, oy = origin
    points = []
    for i, (a, b) in enumerate(zip(inst.a, inst.b)):
        shift = as_fraction(a) * ox + b - oy  # boundary intercept at the origin
        if shift == 0:
            raise NotActuallyUncovered(f"boundary {i} passes through the witness")
        u = (-as_fraction(a) / shift, Fraction(1, 1) / shift)
        points.append(u)
    return points


def _homogeneous(points) -> list:
    """Integer homogeneous coordinates (X, Y, W), W > 0, per point."""
    out = []
    for x, y in points:
        xn, xd = num_den(x)
        yn, yd = num_den(y)
        out.append((xn * yd, yn * xd, xd * yd))
    return out


def _first_layers(hom) -> list:
    """Indices of the points on the first three weak convex hull layers.

    `hom` holds the points' `_homogeneous` triples.  The weak hull keeps
    collinear boundary points and duplicates, which keeps layer peeling
    conservative.  One (x, y, index) sort serves every layer, and a turn
    is the sign of the integer determinant of three triples: it equals
    cross(a - o, b - o) times Wo*Wa*Wb > 0.  Each layer is listed in
    index order.
    """
    # distinct x/w values differ by at least 1/(w1*w2) >= 1/s, so the
    # floors of s*x/w keep every strict order and every tie
    s = max(w for _x, _y, w in hom) ** 2
    keys = [(x * s // w, y * s // w) for x, y, w in hom]
    remaining = sorted(range(len(hom)), key=keys.__getitem__)  # stable
    out: list[int] = []
    for _ in range(3):
        layer = set(_weak_chain(hom, remaining, 1)) | set(_weak_chain(hom, remaining, -1))
        out.extend(sorted(layer))
        remaining = [i for i in remaining if i not in layer]
    return out


def _weak_chain(hom, seq, pop: int) -> list:
    """Monotone scan over x-sorted indices, popping strict turns of sign
    `pop` (+1: upper chain, -1: lower chain)."""
    out: list[int] = []
    for i in seq:
        xb, yb, wb = hom[i]
        while len(out) > 1:
            xo, yo, wo = hom[out[-2]]
            xa, ya, wa = hom[out[-1]]
            det = xo * (ya * wb - yb * wa) - yo * (xa * wb - xb * wa) + wo * (xa * yb - xb * ya)
            if det * pop <= 0:
                break
            out.pop()
        out.append(i)
    return out


def _runs(ps) -> list:
    """Maximal runs of consecutive integers in sorted `ps`, as (lo, hi)."""
    out = []
    lo = ps[0]
    for prev, p in zip(ps, ps[1:]):
        if p != prev + 1:
            out.append((lo, prev))
            lo = p
    out.append((lo, ps[-1]))
    return out


def _past(u, h, block) -> list:
    """`block` (positions into h) in descending order just past direction
    u, counter-clockwise: by u.p, then perp(u).p, then position."""
    ux, uy = u
    lcm = math.lcm(*(h[c][2] for c in block))
    keyed = []
    for c in block:
        x, y, w = h[c]
        f = lcm // w
        keyed.append((-(ux * x + uy * y) * f, (uy * x - ux * y) * f, c))
    keyed.sort()
    return [c for _a, _b, c in keyed]


def enumerate_point_hyperedges(points) -> list:
    """Sorted, deduplicated half-plane cuts sufficient for the 2-coloring
    search: the top-3 sets over the candidates `cand` (the first three
    weak hull layers, where every top-3 member lies) in every generic
    direction.  A cut of size >= 3 contains the top-3 set of its own
    direction, so bichromatic top-3 sets make every such cut bichromatic.

    This equals the list of the exact triple loop it replaced: for every
    ordered candidate pair (i, j), d = p_j - p_i, u = perp(d) and t = +-1,
    the top 3 of `cand` by (u.p, t*d.p) descending, full ties by position
    in `cand`.  Proof: for p_i != p_j that key is the order in direction
    u + t*eps*d, since u and d span the plane and only coincident points
    tie on both.  Two points change order only where their difference is
    normal to the direction, so the critical directions u (which come in
    +- pairs) cut the circle into arcs of constant order, and the two
    signs give the orders of the arcs on either side of u: every arc's,
    and nothing else.  For p_i == p_j every key is (0, 0) and the loop
    emits `sorted(cand[:3])`, the one other rule kept here.  `solve`
    never passes coincident points: `dualize` rejects equal slopes, and
    distinct boundaries have distinct polar points.  The rule is kept for
    direct callers.

    The sweep visits the critical directions in exact angle order from
    the order just past the first.  At each one, the points tied on a
    line normal to it hold consecutive positions and tie with no other
    point, so re-sorting each run of tied positions by the order just
    past the direction leaves every other rank in place, and the top 3
    can change only when a run starts within it.  O(m^2 log m) for m
    candidates, where the loop was O(m^3).
    """
    if len(points) < 3:  # no cut of size 3, where the sweep would emit a pair
        return []
    hom = _homogeneous(points)
    # n >= 3 leaves >= 3 candidates: a hull has >= 3 vertices unless every
    # point is collinear, and the weak scan then keeps them all
    cand = _first_layers(hom)
    h = [hom[c] for c in cand]
    m = len(h)
    edges = set()
    if len({points[c] for c in cand}) < m:
        edges.add(tuple(sorted(cand[:3])))
    # Critical directions by angle, exactly: v = +-perp(d), taken in the
    # half [0, pi) (v.y > 0, or v.y == 0 < v.x), has r = -floor(s*v.x/q)
    # with q = |v.x| + |v.y|; v.x/q falls strictly as the angle grows, and
    # -v's angle in [pi, 2*pi) grows with the same r.  Ratios with
    # denominators up to Q differ by at least 1/Q**2, so s >= Q**2 keeps
    # every order and every tie; |dx|, |dy| <= 2*big**2 gives Q <= 4*big**2.
    big = max(max(abs(x), abs(y), w) for x, y, w in h)
    s = 16 * big**4
    events: dict = {}  # r -> [v, then the positions of the pairs normal to v]
    for a in range(m):
        xa, ya, wa = h[a]
        for b in range(a + 1, m):
            xb, yb, wb = h[b]
            dx = xb * wa - xa * wb
            dy = yb * wa - ya * wb
            if dx == 0 and dy == 0:
                continue
            v = (-dy, dx) if dx > 0 or (dx == 0 and dy < 0) else (dy, -dx)
            r = -(v[0] * s // (abs(dx) + abs(dy)))
            ev = events.get(r)
            if ev is None:
                events[r] = [v, a, b]
            else:
                ev += (a, b)
    if not events:
        return sorted(edges)
    rs = sorted(events)
    sweep = [(events[r], 1) for r in rs] + [(events[r], -1) for r in rs]
    order = _past(events[rs[0]][0], h, range(m))
    where = [0] * m
    for p, c in enumerate(order):
        where[c] = p
    edges.add(tuple(sorted(cand[c] for c in order[:3])))
    for (v, *tied), sign in sweep[1:]:
        if len(tied) == 2:
            lo = min(where[tied[0]], where[tied[1]])
            runs = [(lo, lo + 1)]
        else:
            runs = _runs(sorted({where[c] for c in tied}))
        for lo, hi in runs:
            if hi == lo + 1:  # one pair of distinct points: it swaps
                order[lo], order[hi] = order[hi], order[lo]
            else:
                order[lo : hi + 1] = _past((sign * v[0], sign * v[1]), h, order[lo : hi + 1])
            for p in range(lo, hi + 1):
                where[order[p]] = p
        if runs[0][0] < 3:
            edges.add(tuple(sorted(cand[c] for c in order[:3])))
    return sorted(edges)


def color_points_vs_halfplanes(points) -> list:
    """2-color points so no closed half-plane cut of size >= 3 is one color."""
    edges = enumerate_point_hyperedges(points)
    assignment = solve_nae(len(points), edges)
    if assignment is None:
        raise SearchExhausted("no 2-coloring over the enumerated constraints")
    return [RED if v else BLUE for v in assignment]


def uncovered_solve(inst: Instance, witness) -> list:
    """Color via the polar reduction; indices align with the instance."""
    return color_points_vs_halfplanes(polarize(inst, witness))
