"""Exact 2D primitives: orientation, hull chains, a second hull layer, slope order.

Points are ``(x, y)`` tuples of exact rationals (int or Fraction); dual
tips carry a third entry, their half-plane index, which the predicates
ignore but point equality sees.  Every predicate is decided by
integer/rational sign computations; there is no epsilon anywhere.
Lines are never vertical: the whole model forbids vertical boundaries,
and every constructed line joins points with distinct x.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Optional, Sequence

from .model import UPPER
from .rationals import Scalar, normalize

Point = tuple  # (x, y), or a dual tip (x, y, i), with exact rational x and y

LEFT, COLLINEAR, RIGHT = 1, 0, -1

by_x = itemgetter(0)  # the key that x-sorted point lists are bisected by
by_y = itemgetter(1)


class GeometryError(Exception):
    pass


class VerticalLineError(GeometryError):
    """A line through two points with equal x was requested."""


class OutOfSpanError(GeometryError):
    """chain_eval was queried outside the chain's x-span."""


class DegenerateTriangleError(GeometryError):
    """Triangle test with collinear corners."""


def orientation(p: Point, q: Point, r: Point) -> int:
    """Exact sign of det(q-p, r-p): LEFT (+1), RIGHT (-1) or COLLINEAR (0)."""
    det = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    if det > 0:
        return LEFT
    if det < 0:
        return RIGHT
    return COLLINEAR


def point_above_line(pt: Point, a: Point, b: Point) -> int:
    """+1 above, 0 on, -1 below: pt against the non-vertical line through a, b.

    Pure orientation arithmetic; avoids building Fractions.
    """
    if a[0] == b[0]:
        raise VerticalLineError("line through equal x")
    s = orientation(a, b, pt)
    return s if a[0] < b[0] else -s


def segments_intersect(s1: tuple[Point, Point], s2: tuple[Point, Point]) -> bool:
    """Closed-segment intersection via orientation signs, exact."""
    p, q = s1
    r, s = s2
    d1 = orientation(r, s, p)
    d2 = orientation(r, s, q)
    d3 = orientation(p, q, r)
    d4 = orientation(p, q, s)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    # collinear / endpoint contacts
    if d1 == 0 and _on_segment(r, s, p):
        return True
    if d2 == 0 and _on_segment(r, s, q):
        return True
    if d3 == 0 and _on_segment(p, q, r):
        return True
    if d4 == 0 and _on_segment(p, q, s):
        return True
    return False


def _on_segment(a: Point, b: Point, pt: Point) -> bool:
    """pt collinear with a,b assumed; is it within the bounding box?"""
    return (
        min(a[0], b[0]) <= pt[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= pt[1] <= max(a[1], b[1])
    )


@dataclass
class HullChain:
    """x-monotone convex chain; `side` fixes which way its region extends.

    An upper chain bounds the convex hull of downward vertical rays (the
    region is everything weakly below it, within its x-span); a lower
    chain bounds the hull of upward rays.
    """

    side: str
    vertices: list  # Points, strictly increasing x

    @property
    def x_min(self) -> Scalar:
        return self.vertices[0][0]

    @property
    def x_max(self) -> Scalar:
        return self.vertices[-1][0]

    def in_span(self, x: Scalar) -> bool:
        return self.x_min <= x <= self.x_max

    def edge_at(self, x: Scalar) -> tuple[Point, Point]:
        """The chain edge whose x-range contains x (vertices for singletons)."""
        if not self.in_span(x):
            raise OutOfSpanError(f"x={x} outside [{self.x_min}, {self.x_max}]")
        if len(self.vertices) == 1:
            v = self.vertices[0]
            return v, v
        i = bisect.bisect_right(self.vertices, x, key=by_x)  # >= 1: x >= x_min
        if i == len(self.vertices):
            i -= 1
        return self.vertices[i - 1], self.vertices[i]

    def vertex_index(self, pt: Point) -> Optional[int]:
        i = bisect.bisect_left(self.vertices, pt[0], key=by_x)
        if i < len(self.vertices) and self.vertices[i] == pt:
            return i
        return None


def _scan(points: Sequence[Point], turn: int) -> list:
    """Monotone scan over x-sorted points keeping `turn`-oriented corners."""
    out: list = []
    for p in points:
        while len(out) > 1 and orientation(out[-2], out[-1], p) != turn:
            out.pop()
        out.append(p)
    return out


def _outside(points: Sequence[Point], lo: int, hi: int, a: Point, b: Point, turn: int) -> list:
    """The points of points[lo:hi] strictly outside the chord a -> b
    (a.x < b.x), on the hull's side: above it for an upper chain (turn
    RIGHT), below it for a lower one, by one cross product each."""
    dx, dy = (b[0] - a[0]) * -turn, (b[1] - a[1]) * -turn
    c = dx * a[1] - dy * a[0]  # cross(b - a, w - a) > 0 iff dx*w.y - dy*w.x > c
    return [w for w in points[lo:hi] if dx * w[1] - dy * w[0] > c]


def _narrow(points: Sequence[Point], lo: int, hi: int, a: Point, b: Point, turn: int) -> list:
    """The points of points[lo:hi] outside the chord a -> b that may be
    hull vertices, a and b being vertices; see `hull_from_sorted`.

    The part `_outside` keeps is split at f, its first point farthest
    from the chord, and each side is narrowed by the chord from its end
    to f, but only while a filter keeps at most half of its range: the
    parts halve, so the depth is at most log2 n and the filters read at
    most 2n points in all.
    """
    part = _outside(points, lo, hi, a, b, turn)
    if len(part) < 2 or 2 * len(part) > hi - lo:
        return part
    dx, dy = (b[0] - a[0]) * -turn, (b[1] - a[1]) * -turn
    far = [dx * w[1] - dy * w[0] for w in part]
    m = far.index(max(far))
    f = part[m]
    return [*_narrow(part, 0, m, a, f, turn), f, *_narrow(part, m + 1, len(part), f, b, turn)]


def hull_from_sorted(points: Sequence[Point], side: str) -> HullChain:
    """Hull of already x-sorted points with pairwise distinct x (no re-sort).

    Before the scan, the throw-away step of Akl and Toussaint ("A fast
    convex hull algorithm", IPL 1978), made exact and recursive in the
    style of quickhull: the points split at t, the first point of extreme
    y (greatest for an upper chain, least for a lower one), and in each
    part every point on the chord of the part's two ends or inside it
    (below it, for an upper chain) is dropped.  While a chord drops at
    least half of the points it reads, what is left between its ends a
    and b splits at f, the first of them farthest from the chord, and the
    chords a -> f and f -> b drop points in turn (`_narrow`).  `_scan`
    then runs on what is left, and its vertex list is the one a scan of
    all the points gives:

    - `_scan` returns the strict corners of the ray hull's boundary, its
      vertices, and so depends only on that hull.  The first and last
      points are vertices, and so is t: it is the only point that
      maximizes y - e*x (an upper chain; y + e*x is minimized for a lower
      one) for every small enough e > 0.
    - A chord between two vertices a and b drops only non-vertices.  The
      chain is concave from a to b (convex, for a lower chain) and meets
      the chord at both ends, so between them it runs on the chord or
      outside it.  A point on the chord or inside it is therefore no
      strict corner: a corner on the chord would make the chain coincide
      with the chord there.
    - The part narrowed between a and b holds every point strictly
      outside their chord within (a.x, b.x).  Each point dropped before
      lay on or inside an earlier chord over that span, and a and b lie
      on or outside that chord, so the point lies on or inside a -> b too.
    - f is a vertex.  Along the chain, the distance from the chord toward
      the hull's side is a concave function of x that is 0 at a and b and
      positive somewhere between them, as the part is not empty.  So it
      is negative left of a and right of b, and its maximum over the
      hull, which the hull's rays do not raise, is taken on a face of the
      chain strictly between a and b and strictly outside the chord.
      Every point of that face is in the part, so f is the face's left
      end, a strict corner: the chain comes in from its left at another
      slope than the face's.
    - So every dropped point is a non-vertex.  The kept points include
      every vertex and lie in the hull, so they span the same hull, and
      the scan returns the same list.
    """
    turn = RIGHT if side == UPPER else LEFT
    n = len(points)
    if n < 3:
        return HullChain(side, _scan(points, turn))
    first, last = points[0], points[-1]
    top = (max if side == UPPER else min)(points, key=by_y)  # the first one of that y
    k = points.index(top)
    kept = [first, *_narrow(points, 1, k, first, top, turn)]
    if 0 < k < n - 1:
        kept.append(top)
    kept += _narrow(points, k + 1, n - 1, top, last, turn)
    kept.append(last)
    return HullChain(side, _scan(kept, turn))


def second_layer(sorted_points: Sequence[Point], first: HullChain) -> list:
    """Vertices of the hull of the points not on `first`, the hull of
    `sorted_points` (may be []).

    The vertices of `first` are points of `sorted_points`, in x order,
    and x tells the points apart, so the rest are the slices between the
    vertices' positions.
    """
    rest, start = [], 0
    for v in first.vertices:
        i = bisect.bisect_left(sorted_points, v[0], start, key=by_x)
        rest += sorted_points[start:i]
        start = i + 1
    rest += sorted_points[start:]
    return hull_from_sorted(rest, first.side).vertices


def chain_eval(chain: HullChain, x: Scalar) -> Scalar:
    """Exact y of the chain's piecewise-linear boundary at x."""
    a, b = chain.edge_at(x)
    if a == b:
        return a[1]
    t = Fraction(x - a[0], 1) / Fraction(b[0] - a[0], 1)
    return normalize(a[1] + t * (b[1] - a[1]))


def region_contains(chain: HullChain, pt: Point) -> bool:
    """Membership in the chain's ray-hull region (closed), span included."""
    if not chain.in_span(pt[0]):
        return False
    a, b = chain.edge_at(pt[0])
    if a == b:
        return pt[1] <= a[1] if chain.side == UPPER else pt[1] >= a[1]
    s = point_above_line(pt, a, b)
    return s <= 0 if chain.side == UPPER else s >= 0


def _slope_cmp(q: Point, u: Point, v: Point) -> int:
    """Sign of slope(q->u) - slope(q->v) for u, v on the same x-side of q.

    slope(q->u) - slope(q->v) = cross(v-q, u-q) / (dx_u * dx_v) and the
    denominator is positive when both points sit on one side of q.
    """
    if (u[0] > q[0]) != (v[0] > q[0]):
        raise GeometryError("slope comparison across q")
    return orientation(q, v, u)
