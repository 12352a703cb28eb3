"""Coloring instances whose half-planes leave part of the plane bare.

An uncovered point, moved to the origin, turns every boundary line into
a polar point; a half-plane contains a (translated) primal point exactly
when the point's polar line crosses the segment from the origin to the
half-plane's polar point.  Lines missing the origin therefore cut the
polar point set along closed half-planes, so a 2-coloring of the polar
points with no monochromatic half-plane cut of size three and up settles
the original instance.  The search is exact over an O(n^2) constraint
family: every directional top-3 prefix, tie-broken both ways around each
critical direction and deduplicated (a cut of size three and up contains
the top-3 prefix of its own direction).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import Line
from .model import BLUE, RED, Instance, ModelError
from .nae import solve_nae
from .rationals import as_fraction, num_den


class UncoveredError(ModelError):
    pass


class NotActuallyUncovered(UncoveredError):
    pass


class SearchExhausted(UncoveredError):
    """The constraint search failed; contradicts the coloring theorem."""


@dataclass
class PolarScene:
    origin: tuple  # the uncovered witness in original coordinates
    points: list  # polar points, exact rational pairs; point i is half-plane i


def uncovered_witness(inst: Instance, separator: Line) -> tuple:
    """The primal point dual to a separating line, checked by substitution."""
    pt = (separator.slope, separator.intercept)
    for i, h in enumerate(inst):
        if not h.strictly_outside(pt):
            raise NotActuallyUncovered(f"witness lies in half-plane {i}")
    return pt


def polarize(inst: Instance, origin) -> PolarScene:
    """Translate the witness to the origin and map boundaries to points.

    After translation every boundary misses the origin, so it has a form
    <u, x> = 1; u is the polar point.  Membership transfers: translated
    point z lies in the half-plane iff <u, z> >= 1.
    """
    ox, oy = origin
    points = []
    for i, h in enumerate(inst):
        shift = as_fraction(h.a) * ox + h.b - oy  # boundary intercept at the origin
        if shift == 0:
            raise NotActuallyUncovered(f"boundary {i} passes through the witness")
        u = (-as_fraction(h.a) / shift, Fraction(1, 1) / shift)
        points.append(u)
    return PolarScene((ox, oy), points)


def _homogeneous(points) -> list:
    """Integer homogeneous coordinates (X, Y, W), W > 0, per point."""
    out = []
    for x, y in points:
        xn, xd = num_den(x)
        yn, yd = num_den(y)
        out.append((xn * yd, yn * xd, xd * yd))
    return out


def _hull_indices_weak(pts, subset) -> list:
    """Positions (within `subset`) of weak hull points: collinear boundary
    points count as hull members, which keeps layer peeling conservative."""
    idx = sorted(range(len(subset)), key=lambda i: pts[subset[i]])

    def cross(o, a, b):
        po, pa, pb = pts[subset[o]], pts[subset[a]], pts[subset[b]]
        return (pa[0] - po[0]) * (pb[1] - po[1]) - (pa[1] - po[1]) * (pb[0] - po[0])

    def chain(seq, pop_left: bool) -> list:
        out: list[int] = []
        for i in seq:
            while len(out) > 1:
                c = cross(out[-2], out[-1], i)
                if (c > 0) if pop_left else (c < 0):
                    out.pop()
                else:
                    break
            out.append(i)
        return out

    upper = chain(idx, True)
    lower = chain(idx, False)
    return sorted(set(upper) | set(lower))


def _first_layers(points) -> list:
    """Indices of the points on the first three weak convex hull layers."""
    remaining = list(range(len(points)))
    out: list[int] = []
    for _ in range(3):
        if not remaining:
            break
        layer_pos = _hull_indices_weak(points, remaining)
        layer = [remaining[i] for i in layer_pos]
        out.extend(layer)
        layer_set = set(layer)
        remaining = [i for i in remaining if i not in layer_set]
    return out


def enumerate_point_hyperedges(points) -> list:
    """Deduplicated half-plane cuts sufficient for the 2-coloring search.

    Every direction's top-3 prefix is emitted (tie-broken both ways
    around every critical direction): any realizable cut of size >= 3
    contains the top-3 prefix of its own direction, so non-monochromatic
    prefixes force every half-plane cut bichromatic.  Prefix members
    always lie on the first three convex layers and prefix changes
    happen only at normals of candidate pairs, so the scan stays within
    those layers.
    """
    n = len(points)
    if n < 3:
        return []
    # n >= 3 leaves >= 3 candidates: a hull has >= 3 vertices unless every
    # point is collinear, and the weak scan then keeps them all
    cand = _first_layers(points)
    hom = _homogeneous(points)
    edges = set()

    m = len(cand)
    for ii in range(m):
        i = cand[ii]
        xi, yi, wi = hom[i]
        for jj in range(m):
            if ii == jj:
                continue
            j = cand[jj]
            xj, yj, wj = hom[j]
            dxx = xj * wi - xi * wj
            dxy = yj * wi - yi * wj
            ux, uy = -dxy, dxx
            for tie_sign in (1, -1):
                tx, ty = tie_sign * dxx, tie_sign * dxy
                best: list[tuple] = []  # (key closure-free) keep top3 of cand
                for k in cand:
                    xk, yk, wk = hom[k]
                    pk = ux * xk + uy * yk
                    sk = tx * xk + ty * yk
                    entry = (pk, sk, wk, k)
                    pos = len(best)
                    while pos > 0:
                        pq, sq, wq, _q = best[pos - 1]
                        # entry > prev  <=>  (pk/wk, sk/wk) > (pq/wq, ...)
                        lhs = pk * wq
                        rhs = pq * wk
                        if lhs > rhs or (lhs == rhs and sk * wq > sq * wk):
                            pos -= 1
                        else:
                            break
                    best.insert(pos, entry)
                    if len(best) > 3:
                        best.pop()
                edges.add(tuple(sorted(e[3] for e in best)))
    return sorted(edges)


def color_points_vs_halfplanes(points) -> list:
    """2-color points so no closed half-plane cut of size >= 3 is one color."""
    n = len(points)
    if n < 3:
        return [BLUE] * n
    edges = enumerate_point_hyperedges(points)
    assignment = solve_nae(n, edges)
    if assignment is None:
        raise SearchExhausted("no 2-coloring over the enumerated constraints")
    return [RED if v else BLUE for v in assignment]


def uncovered_solve(inst: Instance, witness) -> list:
    """Color via the polar reduction; indices align with the instance."""
    n = len(inst)
    if n < 3:
        return [BLUE] * n
    return color_points_vs_halfplanes(polarize(inst, witness).points)
