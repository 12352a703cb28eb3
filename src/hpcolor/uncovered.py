"""Coloring instances whose half-planes leave part of the plane bare.

An uncovered point, moved to the origin, turns every boundary line into
a polar point; a half-plane contains a (translated) primal point exactly
when the point's polar line crosses the segment from the origin to the
half-plane's polar point.  Lines missing the origin therefore cut the
polar point set along closed half-planes, so a 2-coloring of the polar
points with no monochromatic half-plane cut of size three and up settles
the original instance.  The search is exact over the top-3 sets of
generic directions among the points on the first three convex layers (a
cut of size three and up contains the top-3 set of its own direction).
For m >= 4 points in convex position these are the m cyclically
consecutive triples, since a line cuts the vertices of a convex polygon
into two arcs.  For m >= 7 distinct points there are at most 3m of them:
each is a set of three points that a line cuts off, and a line cuts off
at most k*m sets of at most k points for k < m/2 (Alon and Gyori, JCTA
1986).
"""

from __future__ import annotations

import bisect
import math

from .model import BLUE, RED, DualScene, ModelError
from .nae import solve_nae
from .rationals import num_den


class UncoveredError(ModelError):
    pass


class NotActuallyUncovered(UncoveredError):
    pass


class SearchExhausted(UncoveredError):
    """The constraint search failed; contradicts the coloring theorem."""


def _over_common(line) -> tuple:
    """(cn, dn, q), q > 0, with `line` = (cn/q, dn/q)."""
    cn, cd = num_den(line[0])
    dn, dd = num_den(line[1])
    q = math.lcm(cd, dd)
    return cn * (q // cd), dn * (q // dd), q


def uncovered_witness(scene: DualScene, line: tuple) -> tuple:
    """`line` = (c, d), the line y = c*x + d of the scene's dual plane,
    checked to pass strictly above every upper tip and strictly below
    every lower tip, so that its primal point lies in no half-plane."""
    cn, dn, q = _over_common(line)
    for tips, sign in ((scene.tips_u, -1), (scene.tips_l, 1)):
        for x, y, i in tips:
            if (q * y - cn * x - dn) * sign <= 0:
                raise NotActuallyUncovered(f"witness lies in half-plane {i}")
    return line


def polarize(scene: DualScene, line) -> list:
    """Translate the witness to the origin and map boundaries to points.

    The scene dualizes S(inst), S: (x, y) -> (x, L*y) (see `dualize`):
    there tip (x, y) is the boundary Y = -x*X + y, and the witness `line`
    (c, d) is the point (c, d), in no half-plane.  Seen from it the
    boundary reads x*X + Y = s, s = y - c*x - d != 0, so its polar point
    is u = (x/s, 1/s), stored at the tip's index: translated point z lies
    in the half-plane iff <u, z> >= 1.  With (c, d) = (cn/q, dn/q), q > 0,
    u is the integer homogeneous point +-(q*x, q, q*y - cn*x - dn) =
    (X, Y, W), W > 0, u = (X/W, Y/W) (times the tip's denominators when
    they are Fractions).

    The colors are the unscaled plane's: `enumerate_point_hyperedges`
    reads only orientation signs and coincidences (weak hull layers, and
    the triples a line cuts off), and both are kept.
    - A separating line is S of the unscaled one, so s is L times the
      unscaled s: the polar points are the unscaled ones times
      diag(1, 1/L), a linear map of positive determinant.
    - The one-family witness is another point of the one uncovered cell
      than S of the unscaled one.  The cell is convex, and moving the
      origin within it multiplies each homogeneous polar point (x, 1, s)
      by one matrix of determinant 1 while every s keeps its sign (no
      boundary meets the cell).
    """
    cn, dn, q = _over_common(line)
    points = [None] * (len(scene.tips_u) + len(scene.tips_l))
    for x, y, i in scene.tips_u + scene.tips_l:
        xn, xd = num_den(x)
        yn, yd = num_den(y)
        w = q * yn * xd - (cn * xn + dn * xd) * yd
        if w == 0:
            raise NotActuallyUncovered(f"boundary {i} passes through the witness")
        sign = 1 if w > 0 else -1
        points[i] = (sign * q * xn * yd, sign * q * xd * yd, sign * w)
    return points


def _det(p, q, r) -> int:
    """The sign-carrying orientation of three homogeneous points: the
    integer determinant equals cross(q - p, r - p) times Wp*Wq*Wr > 0."""
    xp, yp, wp = p
    xq, yq, wq = q
    xr, yr, wr = r
    return xp * (yq * wr - yr * wq) - yp * (xq * wr - xr * wq) + wp * (xq * yr - xr * yq)


def _xsorted(hom, seq) -> list:
    """`seq` sorted by (x, y), ties kept in order: distinct x/w values
    differ by at least 1/(w1*w2) >= 1/s, so the floors of s*x/w keep
    every strict order and every tie."""
    s = max(hom[i][2] for i in seq) ** 2
    return sorted(seq, key=lambda i: (hom[i][0] * s // hom[i][2], hom[i][1] * s // hom[i][2]))


def _chain(hom, seq, pop: int, weak: bool) -> list:
    """Monotone scan over x-sorted indices, popping turns of sign `pop`
    (+1: upper chain, -1: lower chain); a weak chain keeps collinear
    points and duplicates, a strict one pops them too."""
    out: list[int] = []
    for i in seq:
        xb, yb, wb = hom[i]
        while len(out) > 1:
            xo, yo, wo = hom[out[-2]]
            xa, ya, wa = hom[out[-1]]
            # `_det`, inlined: the peel's hot loop
            turn = (xo * (ya * wb - yb * wa) - yo * (xa * wb - xb * wa) + wo * (xa * yb - xb * ya)) * pop
            if turn < 0 or (turn == 0 and weak):
                break
            out.pop()
        out.append(i)
    return out


def _hull(hom, seq) -> list:
    """The strict hull of distinct x-sorted points `seq` as a
    counter-clockwise cycle: one point, the two ends of a segment, or the
    vertices of a polygon."""
    return _chain(hom, seq, -1, False) + _chain(hom, seq, 1, False)[-2:0:-1]


def _first_layers(hom) -> list:
    """The first three weak convex hull layers, each as x-sorted indices.

    `hom` holds integer homogeneous points (X, Y, W), W > 0.  The weak
    hull keeps collinear boundary points and duplicates, which keeps
    layer peeling conservative.  One sort serves every layer.
    """
    remaining = _xsorted(hom, range(len(hom)))
    layers = []
    for _ in range(3):
        on = set(_chain(hom, remaining, 1, True)) | set(_chain(hom, remaining, -1, True))
        layers.append([i for i in remaining if i in on])
        remaining = [i for i in remaining if i not in on]
    return layers


def _normal(p, q) -> tuple:
    """Outer normal of the edge p -> q of a counter-clockwise cycle
    (q - p turned clockwise, times Wp*Wq)."""
    xp, yp, wp = p
    xq, yq, wq = q
    return yq * wp - yp * wq, xp * wq - xq * wp


def _remove(hom, at, size: int, j: int, pool) -> tuple:
    """The strict hull cycle left when vertex at(j) is removed from the
    counter-clockwise cycle t -> at(t mod size).  `pool` holds every
    location the removal exposes, and may hold others.

    Returns (at', size', around): the new cycle, whose first vertices are
    the chain that replaces at(j), from a = at(j - 1) to b = at(j + 1),
    and `around`, that chain between the cycle vertices before and after
    it.  When a != b the exposed points are those strictly beyond the
    chord ab, and the chain is the hull of them and a, b, which has the
    edge b -> a.  When a == b the cycle was a segment, the rest lies on
    it, and the chain, the whole new cycle, is the hull of the pool and a.
    """
    a, b = at(j - 1), at(j + 1)
    if a == b:
        ends, exposed = [a], [q for q in pool if q != a]
    else:
        ends, exposed = [a, b], [q for q in pool if _det(hom[a], hom[b], hom[q]) < 0]
    chain = ends
    if exposed:
        cycle = _hull(hom, _xsorted(hom, ends + exposed))
        k = cycle.index(a)
        chain = cycle[k:] + cycle[:k]
    size2 = len(chain) + max(size - 3, 0)  # a segment leaves the chain alone

    def at2(t):
        t %= size2
        return chain[t] if t < len(chain) else at(j + 2 + t - len(chain))

    # past a segment the chain is the cycle; else the old cycle goes on
    # around it (at j - 2 = j + 1 and j + 2 = j - 1 on a triangle)
    outer = (chain[-1], chain[0]) if a == b else (at(j - 2), at(j + 2))
    return at2, size2, [outer[0], *chain, outer[1]]


def enumerate_point_hyperedges(hom) -> list:
    """Sorted, deduplicated half-plane cuts sufficient for the 2-coloring
    search over the homogeneous points `hom` (X, Y, W), W > 0: the top-3
    sets over the candidates `cand` (the first three weak hull layers,
    where every top-3 member lies) in every generic direction, one normal
    to no difference of two distinct points.  A cut of size >= 3 contains
    the top-3 set of its own direction, so bichromatic top-3 sets make
    every such cut bichromatic.  In a generic direction only coincident
    points tie, and the tie goes to the lower position in `cand`.  When
    two candidates coincide `sorted(cand[:3])` is added too, the one
    other rule of the rotational sweep this replaced (kept in the tests
    as the reference), so the list is the sweep's.  `solve` never passes
    coincident points: `dualize` rejects equal slopes, and distinct
    boundaries have distinct polar points.  The rule is kept for direct
    callers.

    Iterated extremes.  Group the candidates by location, each group by
    position.  In a generic direction u the locations are strictly
    ordered, so the top-3 set is the first three of the groups of l1, l2,
    l3, where l_k is the top location of the candidates less l1..l(k-1):
    a removal takes the lowest position in a group, and its twins keep
    the same directions.  Let R be a set of locations and its strict hull
    a counter-clockwise cycle.  A generic u has its strict top at vertex x
    exactly in x's open normal cone: between the outer normals of its two
    edges, half a turn at either end of a segment, the whole circle at a
    single location.  So within an open arc P (the directions where the
    tops so far are fixed) the next top takes exactly the values x whose
    cone meets P, on the arc where it does (the walk's clip), and an open
    arc holds generic directions.  The walk follows these arcs to depth 3.

    Removal.  Let w be the top of R + {w} in P, a, b its neighbours on the
    cycle of R + {w}.  If a == b that cycle is the segment aw, and R lies
    on it.  Otherwise the points of R on the closed far side of the chord
    ab lie in the polygon of the other vertices, in which only a, b and
    points on ab can be top in w's cone (every other vertex keeps its cone,
    and those are disjoint from w's); no generic direction ties a with b.
    So in P the top of R is a vertex of the chain from a to b of the hull
    of a, b and the points strictly beyond the chord, and the cycle of R is
    the old one with w replaced by that chain: the chain lies in the
    triangle a w b, so a and b stay strict vertices (`_remove`).  In
    convex position nothing lies beyond a chord, and the walk takes O(1)
    steps per vertex, emitting the m consecutive triples.

    Pools.  Let H be the cycle of all candidates, the inner locations those
    off its vertices, and a', b' the second neighbours of v on H.  Removing
    v exposes points in the triangle (a, v, b).  The second removal takes
    w from the cycle of the candidates less v.  If w lies on v's chain
    between a and b, the points it exposes lie in the triangle of w and
    its chain neighbours, inside (a, v, b).  If w = a, with neighbours a'
    and c (the next chain vertex), they lie in the triangle (a', a, c),
    inside the polygon (a', a, v, b); likewise for b.  So every point the
    walk below v exposes lies in the closed part of H beyond the chord
    a'b', the polygon (a', a, v, b, b'), and `pools[v]` lists the inner
    locations there (all of them when H has fewer than five vertices).
    To fill the pools, a bisection on the fan of H from H[0] finds the
    fan triangle (H[0], H[k-1], H[k]) holding an inner point (and the one
    before it, when the point lies on their common side).  The polygon of
    H[j] lies in the fan triangles from H[j-2] H[j-1] to H[j+1] H[j+2]
    unless it has H[0] as a vertex, so only j = k-3 .. k+1 and j = -2 ..
    2 are tested, each exactly.

    O(m log m) for m candidates, plus for each chain of a first removal
    its length times its pool, short on the sets measured.
    """
    if len(hom) < 3:  # no cut of size 3
        return []
    layers = _first_layers(hom)
    cand = [i for layer in layers for i in sorted(layer)]
    at_location = {}  # lowest terms -> indices, by position
    for i in cand:
        x, y, w = hom[i]
        g = math.gcd(x, y, w)
        at_location.setdefault((x // g, y // g, w // g), []).append(i)
    group = {same[0]: same for same in at_location.values()}  # keyed by the first
    edges = set()
    if len(group) < len(cand):
        edges.add(tuple(sorted(cand[:3])))
    hull = _hull(hom, [i for i in layers[0] if i in group])
    h = len(hull)
    pools = {v: [] for v in hull}
    for q in group.keys() - pools.keys():
        if h < 5:
            near = range(h)
        else:
            o, p = hom[hull[0]], hom[q]
            k = 1 + bisect.bisect_left(range(1, h), True, key=lambda t: _det(o, hom[hull[t]], p) < 0)
            near = {t % h for t in (*range(k - 3, k + 2), -2, -1, 0, 1, 2)}
        for j in near:
            if h < 5 or _det(hom[hull[j - 2]], hom[hull[(j + 2) % h]], hom[q]) <= 0:
                pools[hull[j]].append(q)

    # the vertices' cones, the arcs between their edges' outer normals (on
    # one location, h = 1, its group fills the set and no arc is read)
    normals = [_normal(hom[p], hom[q]) for p, q in zip(hull, hull[1:] + hull[:1])]

    def cycle(t):
        return hull[t % h]

    # (taken so far, v = at(j), the top in the arc (lo, hi) of what `taken`
    # leaves, the cycle at and its size, v's position j, the pool of the
    # hull vertex removed first, lo, hi)
    stack = [([], hull[j], cycle, h, j, pools[hull[j]], normals[j - 1], normals[j]) for j in range(h)]
    while stack:
        taken, v, at, size, j, pool, lo, hi = stack.pop()
        taken = taken + group[v][: 3 - len(taken)]
        if len(taken) == 3:
            edges.add(tuple(sorted(taken)))
            continue
        at, size, around = _remove(hom, at, size, j, [q for q in pool if q != v])
        normals = [_normal(hom[p], hom[q]) for p, q in zip(around, around[1:])]
        (lx, ly), (hx, hy) = lo, hi
        for t in range(len(around) - 2):
            if around[t] == around[t + 1]:
                start, end = lo, hi  # a single location tops all of (lo, hi)
            else:
                # the arc of around[t + 1], (normals[t], normals[t + 1]),
                # clipped to (lo, hi).  An arc holds the directions counter-
                # clockwise from its start to its end, both left out, and
                # turns at most half a turn, so two arcs meet in at most one
                # arc, which starts at the start of one that lies in the
                # other; both ends then lie within half a turn past that
                # start, and the first one ends it.
                (ax, ay), (bx, by) = normals[t], normals[t + 1]
                c = ax * ly - ay * lx
                if c > 0 and lx * by - ly * bx > 0 or c == 0 and ax * lx + ay * ly > 0:
                    start = lo  # lo lies in [normals[t], normals[t + 1])
                elif c < 0 and ax * hy - ay * hx > 0:
                    start = normals[t]  # which lies in (lo, hi)
                else:
                    continue
                end = hi if bx * hy - by * hx < 0 else normals[t + 1]
            stack.append((taken, around[t + 1], at, size, t, pool, start, end))
    return sorted(edges)


def color_points_vs_halfplanes(hom) -> list:
    """2-color homogeneous points (X, Y, W), W > 0, so no closed half-plane
    cut of size >= 3 is one color."""
    edges = enumerate_point_hyperedges(hom)
    assignment = solve_nae(len(hom), edges)
    if assignment is None:
        raise SearchExhausted("no 2-coloring over the enumerated constraints")
    return [RED if v else BLUE for v in assignment]


def uncovered_solve(scene: DualScene, witness) -> list:
    """Color via the polar reduction; indices align with the instance."""
    return color_points_vs_halfplanes(polarize(scene, witness))
