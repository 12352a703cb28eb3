"""Independent exact ground truth: arrangement samples, depth, goodness.

The verifier judges colorings against the ORIGINAL instance, degenerate
or not.  Hyperedges are constant on cells of the boundary-line
arrangement, so a finite set of exact sample points (vertices, edge
midpoints and far points, and one point inside every face) decides
goodness.

``verify`` decides line by line.  A violation of one color lies in
the region outside every half-plane of the other color, an open convex
region bounded by two envelopes of lines.  Where that region is empty
the color needs no check; otherwise each boundary line of the color
that crosses the region is cut down to an interval of it, and the most
half-planes of the color that hold one point of that interval decide
(see ``_violated`` for the lemma).  Only when a violation exists does
the full walk run, to report it: it walks each boundary line with
incremental containment counts and reports the first violation in its
fixed order.  All of it is integer arithmetic in homogeneous
coordinates; nothing is ever rounded.  Thresholds and crossings along a
line are ordered by exact integer keys, and ``Fraction`` coordinates
are built only for a reported witness.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .model import BLUE, RED, Instance, ModelError, halfplane_constraint, halfplane_contains
from .nae import nae_solutions
from .rationals import scalar_text

ORACLE_LIMIT = 20


class VerifyError(ModelError):
    pass


class LengthMismatchError(VerifyError):
    pass


class TooLargeError(VerifyError):
    """good_colorings() and oracle() refuse instances beyond the exhaustive-search limit."""


@dataclass(frozen=True)
class Hyperedge:
    covering: tuple  # sorted half-plane indices
    witness: tuple  # exact point
    depth: int


@dataclass
class Violation:
    witness: tuple
    covering: tuple
    color: str

    def to_json_dict(self) -> dict:
        return {
            "witness": {
                "x": scalar_text(self.witness[0]),
                "y": scalar_text(self.witness[1]),
            },
            "covering": list(self.covering),
            "color": self.color,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def depth(inst: Instance, pt) -> tuple[int, list]:
    """Exact count of closed half-planes containing pt, with their indices."""
    rows = zip(inst.a, inst.b, inst.sides)
    covering = [i for i, row in enumerate(rows) if halfplane_contains(*row, pt)]
    return len(covering), covering


# ---------------------------------------------------------------------------
# integer line machinery


def _line_table(inst: Instance):
    """Group half-planes by geometric boundary line.

    Returns (lines, members): lines[g] = reduced integer (P, Q, R) with
    Q > 0, and members[g] = [(hp_index, required_sign)] so that closed
    containment is required_sign * (P*x + Q*y + R) >= 0.
    """
    lines: list[tuple[int, int, int]] = []
    members: list[list[tuple[int, int]]] = []
    index: dict = {}
    for i, (p, q, r, s) in enumerate(map(halfplane_constraint, inst.a, inst.b, inst.sides)):
        g = math.gcd(math.gcd(abs(p), q), abs(r))
        key = (p // g, q // g, r // g)
        if key not in index:
            index[key] = len(lines)
            lines.append(key)
            members.append([])
        members[index[key]].append((i, s))
    return lines, members


def _meet(l1, l2):
    """Homogeneous intersection (X, Y, W) with W > 0, or None if parallel."""
    p1, q1, r1 = l1
    p2, q2, r2 = l2
    w = p1 * q2 - p2 * q1
    if w == 0:
        return None
    x = q1 * r2 - q2 * r1
    y = r1 * p2 - r2 * p1
    if w < 0:
        x, y, w = -x, -y, -w
    return x, y, w


def _point_on(line, x: Fraction):
    """Homogeneous point of `line` at abscissa x (W > 0)."""
    p, q, r = line  # q > 0
    xn, xd = x.numerator, x.denominator
    return xn * q, -(p * xn + r * xd), xd * q


def _sort_rays(rays):
    """Angular sort of integer direction vectors via exact comparisons."""

    def half(d):
        dx, dy = d
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def cmp(d1, d2):
        h1, h2 = half(d1), half(d2)
        if h1 != h2:
            return -1 if h1 < h2 else 1
        cross = d1[0] * d2[1] - d1[1] * d2[0]
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    return sorted(rays, key=functools.cmp_to_key(cmp))


# ---------------------------------------------------------------------------
# spec-shaped sampling (used by hyperedges and small-instance work)


def arrangement_samples(inst: Instance) -> list:
    """Exact points hitting every face, edge, and vertex of the arrangement.

    Vertices come from all pairwise boundary intersections; each line
    contributes midpoints between consecutive crossings plus one far
    point beyond each end; every face incident to a vertex is reached by
    offset samples around that vertex (compass directions plus one
    direction inside every sector of the incident lines, so narrow
    sectors and concurrent vertices are covered); parallel-only
    arrangements fall back to per-line side samples.
    """
    lines, _members = _line_table(inst)
    if not lines:
        return [(0, 0)]

    crossings: list[list[Fraction]] = [[] for _ in lines]
    vertices: dict = {}
    for g1 in range(len(lines)):
        for g2 in range(g1 + 1, len(lines)):
            meet = _meet(lines[g1], lines[g2])
            if meet is None:
                continue
            x, y, w = meet
            key = (Fraction(x, w), Fraction(y, w))
            vertices.setdefault(key, set()).update((g1, g2))
            crossings[g1].append(key[0])
            crossings[g2].append(key[0])

    samples: list = []

    def line_y(g, x: Fraction) -> Fraction:
        p, q, r = lines[g]
        return Fraction(-(p * x + r), q)

    for g, xs in enumerate(crossings):
        xs = sorted(set(xs))
        if not xs:
            x0 = Fraction(0)
            y0 = line_y(g, x0)
            samples.append((x0, y0))
            gaps = [
                abs(line_y(h, x0) - y0)
                for h in range(len(lines))
                if h != g and line_y(h, x0) != y0
            ]
            delta = min(gaps) / 2 if gaps else Fraction(1)
            samples.append((x0, y0 + delta))
            samples.append((x0, y0 - delta))
            continue
        stops = [xs[0] - 1] + xs + [xs[-1] + 1]
        samples.append((stops[0], line_y(g, stops[0])))
        samples.append((stops[-1], line_y(g, stops[-1])))
        for a, b in zip(xs, xs[1:]):
            mid = (a + b) / 2
            samples.append((mid, line_y(g, mid)))

    compass = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    for vertex in sorted(vertices):
        incident = sorted(vertices[vertex])
        samples.append(vertex)
        rays = []
        for g in incident:
            p, q, _r = lines[g]
            rays.append((q, -p))
            rays.append((-q, p))
        rays = _sort_rays(rays)
        sector_dirs = [
            (r1[0] + r2[0], r1[1] + r2[1])
            for r1, r2 in zip(rays, rays[1:] + rays[:1])
        ]
        for d in compass + sector_dirs:
            if d == (0, 0):
                continue
            delta = _safe_offset(lines, incident, vertex, d)
            samples.append((vertex[0] + delta * d[0], vertex[1] + delta * d[1]))

    seen = set()
    unique = []
    for s in samples:
        key = (Fraction(s[0]), Fraction(s[1]))
        if key not in seen:
            seen.add(key)
            unique.append(s)
    return unique


def _safe_offset(lines, incident, vertex, d) -> Fraction:
    """Half the smallest positive parameter at which vertex + t*d meets a
    non-incident line, capped at 1; no other line's sign changes within."""
    vx, vy = Fraction(vertex[0]), Fraction(vertex[1])
    best: Optional[Fraction] = None
    incident_set = set(incident)
    for g, (p, q, r) in enumerate(lines):
        if g in incident_set:
            continue
        denom = p * d[0] + q * d[1]
        if denom == 0:
            continue
        t = -(p * vx + q * vy + r) / denom
        if t > 0 and (best is None or t < best):
            best = t
    if best is None or best > 2:
        return Fraction(1)
    return best / 2


def hyperedges(inst: Instance, k: int = 3) -> list[Hyperedge]:
    """All distinct covering sets of depth >= k, one witness each (k >= 1)."""
    _check_threshold(k)
    edges: dict = {}
    for pt in arrangement_samples(inst):
        d, covering = depth(inst, pt)
        if d >= k:
            key = tuple(covering)
            if key not in edges:
                edges[key] = Hyperedge(key, (pt[0], pt[1]), d)
    return [edges[key] for key in sorted(edges)]


# ---------------------------------------------------------------------------
# goodness checking: the per-line decider, then the arrangement walk


def verify(inst: Instance, colors: Sequence[str], k: int = 3) -> Optional[Violation]:
    """None when every depth->=k cell sees both colors, else first Violation.

    ``_violated`` decides, one boundary line at a time, whether some
    point lies in at least k half-planes of one color and in none of the
    other.  Only when such a point exists does ``_full_walk`` walk every
    boundary line, to report the first violation in its deterministic
    order; the walk decides nothing.
    """
    if len(colors) != len(inst):
        raise LengthMismatchError(
            f"{len(colors)} colors for {len(inst)} half-planes"
        )
    bad = [c for c in colors if c not in (BLUE, RED)]
    if bad:
        raise VerifyError(f"bad color values: {bad[:3]}")
    _check_threshold(k)
    if len(inst) < k:
        return None
    is_red = [c == RED for c in colors]
    lines, members = _line_table(inst)
    if not _violated(lines, members, is_red, k):
        return None
    return _full_walk(inst, lines, members, is_red, k)


def _check_threshold(k: int) -> None:
    if k < 1:
        raise VerifyError(f"threshold must be at least 1, got {k}")


def _full_walk(inst: Instance, lines, members, is_red, k: int) -> Optional[Violation]:
    """The first cell of depth >= k with one color, over every line."""
    hit = _walk(lines, members, is_red, k)
    if hit is None:
        return None
    witness, nblue = hit
    covering = depth(inst, witness)[1]
    return Violation(witness, tuple(covering), RED if nblue == 0 else BLUE)


def _violated(lines, members, is_red, k: int, tally=None) -> bool:
    """Whether some point lies in at least k half-planes of one color c
    and in no half-plane of the other color O.

    The points in no half-plane of O form the open convex region
    K_c = {F(x) < y < C(x)}: F is the upper envelope of O's upper
    boundaries (-inf without one), C the lower envelope of O's lower
    boundaries (+inf without one), so the envelope lines alone bound it.
    A color with fewer than k half-planes, or with K_c empty, is fine.
    Otherwise the c half-planes that meet K_c are kept; no other c
    half-plane holds a point of K_c.  A closed half-plane meets the open
    convex K_c exactly when its interior meets the closure of K_c, the
    convex hull of the corners plus the cone of the rays from
    ``_region``: when its constraint is positive at a corner or its
    linear part is positive along a ray.

    Lemma.  c is violated exactly when
      (a) some c line has a point in K_c that lies in >= k c
          half-planes, or
      (b) no c line crosses K_c, and >= k c half-planes meet K_c.
    Under (b) each half-plane that meets K_c has its line outside the
    open convex K_c, so it holds all of K_c.  Conversely, let p in K_c
    lie in a set H of >= k c half-planes.  If each of H holds all of
    K_c, then (b) holds, or (a) holds at any point of K_c on a c line.
    Otherwise some q in K_c lies outside one of H; the segment pq lies
    in K_c, and its last point r in all of H lies on the line of one of
    H, a c line: (a).  A line with a member of O misses K_c, since that
    closed half-plane holds its line.

    ``_line_depth`` decides (a) on each kept line; counting the kept
    half-planes decides (b).  `tally`, a Counter when given, counts the
    branches taken.
    """
    seen = Counter() if tally is None else tally
    qmax = max(q for _p, q, _r in lines)
    m_env = qmax**2 + 1
    # |A| <= 2 * P_max * Q_max for every A of ``_line_depth``
    m = (2 * max(abs(p) for p, _q, _r in lines) * qmax) ** 2 + 1
    for red in (False, True):
        if is_red.count(red) < k:
            continue
        floor, ceiling = [], []
        for g, ms in enumerate(members):
            sides = {s for hp, s in ms if is_red[hp] != red}
            if -1 in sides:  # an upper half-plane of O: y <= its line
                floor.append(g)
            if 1 in sides:
                ceiling.append(g)
        floor, ceiling = _envelope(lines, floor, m_env, 1), _envelope(lines, ceiling, m_env, -1)
        region = _region([lines[g] for g in floor], [lines[g] for g in ceiling])
        if region is None:
            seen["region None"] += 1
            continue
        corners, rays = region
        kept = {}
        for g, ms in enumerate(members):
            p, q, r = lines[g]
            held = [
                s
                for hp, s in ms
                if is_red[hp] == red
                and (
                    any(s * (p * dx + q * dy) > 0 for dx, dy in rays)
                    or any(s * (p * x + q * y + r * w) > 0 for x, y, w in corners)
                )
            ]
            if held:
                kept[g] = held
        env = [(*lines[g], 1) for g in floor] + [(*lines[g], -1) for g in ceiling]
        scan = [(*lines[g], signs) for g, signs in kept.items()]
        crossed = False
        for g in kept:
            if any(is_red[hp] != red for hp, _s in members[g]):
                seen["other-color member"] += 1
                continue
            most = _line_depth(lines[g], env, scan, m, seen)
            if most is not None:
                crossed = True
                if most >= k:
                    return True
        if not crossed:
            seen["no crossing line"] += 1
            if sum(map(len, kept.values())) >= k:
                return True
    return False


def _line_depth(line, env, scan, m: int, seen) -> Optional[int]:
    """The most `scan` half-planes holding one point of `line` in K_c, or
    None when `line` misses K_c.

    Along `line` (P, Q, R), Q > 0, line (P', Q', R')'s constraint has the
    sign of A*x + B, A = P'*Q - Q'*P and B = R'*Q - Q'*R.  The lines of
    `env`, signed 1 on F and -1 on C, cut `line` to the open interval
    lo < x < hi of K_c.  A half-plane of `scan` holds a closed half-line
    [t, oo) or (-oo, t], t = -B/A, or all of `line` or none when A = 0
    (`line`'s own members have A = B = 0).  The count rises only at the start
    t of some [t, oo), so the most is reached there or in the leftmost
    gap.  Thresholds sort by the exact key floor(t * m), m > A**2.
    """
    p, q, r = line
    lows, highs = [], []
    for ph, qh, rh, sigma in env:
        a, b = ph * q - qh * p, rh * q - qh * r
        if a == 0:
            if sigma * b <= 0:
                return None
            continue
        (lows if sigma * a > 0 else highs).append(-b * m // a)
    lo, hi = max(lows, default=None), min(highs, default=None)
    if lo is not None and hi is not None and lo >= hi:
        return None
    count, rights, lefts = 0, [], []
    for ph, qh, rh, signs in scan:
        a, b = ph * q - qh * p, rh * q - qh * r
        if a == 0:
            if b:
                seen["parallel"] += 1
            count += sum(s * b >= 0 for s in signs)
            continue
        t = -b * m // a
        for s in signs:
            (rights if s * a > 0 else lefts).append(t)
    rights.sort()
    lefts.sort()
    inside = [t for t in rights if (lo is None or lo < t) and (hi is None or t < hi)]
    seen["threshold inside" if inside else "constant interval"] += 1
    nlefts = len(lefts)
    gap = nlefts
    if lo is not None:
        gap += bisect.bisect_right(rights, lo) - bisect.bisect_right(lefts, lo)
    return count + max(
        [gap] + [bisect.bisect_right(rights, t) + nlefts - bisect.bisect_left(lefts, t) for t in inside]
    )


def _envelope(lines, group, m: int, sign: int) -> list:
    """The lines of `group` on the upper envelope (sign 1) or on the
    lower envelope (sign -1) of their graphs, left to right.

    The lower envelope is the upper one of the mirror images in the
    x-axis, (P, Q, R) -> (-P, Q, -R).  Lines sort by slope, then by
    intercept, on exact floor keys: distinct values -P/Q differ by at
    least 1/Q_max**2 and m > Q_max**2, as for ``_walk``'s crossing key.
    Of parallel lines only the outermost stays, and a line goes when its
    neighbours meet on it or beyond it, so the envelope is unchanged.
    """

    def key(g):
        p, q, r = lines[g]
        return -sign * p * m // q, -sign * r * m // q

    hull: list = []  # (slope key, line); `group` ascends, so ties keep its order
    for (slope, _intercept), g in sorted(zip(map(key, group), group)):
        if hull and hull[-1][0] == slope:
            hull.pop()
        while len(hull) >= 2:
            x, y, w = _meet(lines[hull[-2][1]], lines[g])
            p, q, r = lines[hull[-1][1]]
            if sign * (p * x + q * y + r * w) < 0:
                break
            hull.pop()
        hull.append((slope, g))
    return [g for _slope, g in hull]


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _region(floor, ceiling):
    """Corners and rays of the closure of K = {F(x) < y < C(x)}, or None
    when K is empty.

    F is the upper envelope given by the `floor` lines, C the lower one
    given by the `ceiling` lines, each left to right; either may be
    empty.  Corners are homogeneous (X, Y, W), W > 0, and rays integer
    directions; the closure is their convex hull plus the rays' cone.
    With neither envelope, K is the plane: the origin and the four axis
    directions.
    With one envelope, the closure is an epigraph or a hypograph: its
    corners are the envelope's breakpoints (a point on its line when it
    has none), and its rays run vertically inward and out along the
    first and last lines.  With both, D = C - F is concave, so K is
    nonempty exactly when D > 0 at a breakpoint of either envelope or
    towards one end.  The corners are the breakpoints where D >= 0 and
    the points where D changes sign between them; the rays run out along
    the first lines of F and C when D > 0 towards the left end, and
    along their last lines when D > 0 towards the right.  A strip
    between two parallel lines has no corner; a point on each line
    stands in for them.
    """
    if not floor and not ceiling:  # the plane
        return [(0, 0, 1)], [(1, 0), (-1, 0), (0, 1), (0, -1)]
    if not floor or not ceiling:
        env, up = (floor, 1) if floor else (ceiling, -1)
        corners = _breaks(env) or [_point_on(env[0], 0)]
        return corners, [(0, up), _leftward(env[0]), _rightward(env[-1])]

    def end_sign(f, g, toward: int) -> int:
        # sign of D as x goes to toward * infinity, D's slope times
        # Q_f * Q_g being P_f*Q_g - P_g*Q_f
        slope = f[0] * g[1] - g[0] * f[1]
        return toward * _sign(slope) if slope else _sign(f[2] * g[1] - g[2] * f[1])

    fb, cb = _breaks(floor), _breaks(ceiling)
    corners = []
    left = prev = end_sign(floor[0], ceiling[0], -1)
    seen_positive = left > 0
    i = j = 0  # the pieces of F and C in force up to the next breakpoint
    while i < len(fb) or j < len(cb):
        f, g = floor[i], ceiling[j]
        if j == len(cb) or (i < len(fb) and fb[i][0] * cb[j][2] <= cb[j][0] * fb[i][2]):
            v, i = fb[i], i + 1
            s = -_sign(g[0] * v[0] + g[1] * v[1] + g[2] * v[2])
        else:
            v, j = cb[j], j + 1
            s = _sign(f[0] * v[0] + f[1] * v[1] + f[2] * v[2])
        if s * prev < 0:
            corners.append(_meet(f, g))
        if s >= 0:
            corners.append(v)
        seen_positive = seen_positive or s > 0
        prev = s
    right = end_sign(floor[-1], ceiling[-1], 1)
    if right * prev < 0:
        corners.append(_meet(floor[-1], ceiling[-1]))
    if not (seen_positive or right > 0):
        return None
    rays = []
    if left > 0:
        rays += [_leftward(floor[0]), _leftward(ceiling[0])]
    if right > 0:
        rays += [_rightward(floor[-1]), _rightward(ceiling[-1])]
    # no corner only for a strip between two parallel lines: one point
    # on each, with the rays along them, spans the closed strip
    return corners or [_point_on(floor[0], 0), _point_on(ceiling[0], 0)], rays


def _breaks(env) -> list:
    return [_meet(l1, l2) for l1, l2 in zip(env, env[1:])]


def _leftward(line) -> tuple:
    p, q, _r = line
    return -q, p


def _rightward(line) -> tuple:
    p, q, _r = line
    return q, -p


def _walk(lines, members, is_red, k: int):
    """(witness, blue count) at the first sample of depth >= k with one
    color, or None.

    Walks every line of `lines` left to right, keeping exact containment
    counts per color of the member half-planes of `lines`; vertices,
    edges (midpoints and far points), and all faces around each vertex
    are checked.  Vertex and face checks run once, owned by the lowest
    incident line.  Deterministic order: lines as given, then increasing
    x, then sectors by angle.  A line's crossings, and the lines through
    each of them, are found when the walk reaches it, so a violation on
    an early line is reported without the whole arrangement.  Crossings
    are ordered by an exact integer key, and ``Fraction`` coordinates are
    built only for the witness.
    """
    n = len(is_red)
    nlines = len(lines)

    def flagged(nblue: int, nred: int) -> bool:
        return nblue + nred >= k and (nblue == 0 or nred == 0)

    def vertex_point(vkey) -> tuple:
        x, y, w = vkey
        return Fraction(x, w), Fraction(y, w)

    for g in range(nlines):
        p, q, r = lines[g]
        # g's vertices, keyed by reduced integer homogeneous triples
        # (X, Y, W), W > 0, each with its other incident lines in order
        at: dict = {}
        for h in range(nlines):
            if h != g and (meet := _meet(lines[g], lines[h])) is not None:
                x, y, w = meet
                d = math.gcd(x, y, w)
                at.setdefault((x // d, y // d, w // d), []).append(h)
        # Two distinct abscissae X1/W1 != X2/W2 differ by at least
        # 1/(W1*W2) >= 1/wmax**2, so scaled by m > wmax**2 they differ by
        # more than 1 and their floors keep their order: X*m // W is an
        # exact sort key.  (A line is never vertical, so its crossings
        # have distinct abscissae.)
        wmax = max((vkey[2] for vkey in at), default=1)
        m = wmax * wmax + 1
        xs = sorted(at, key=lambda vkey: vkey[0] * m // vkey[2])

        def y_at(x: Fraction, p=p, q=q, r=r) -> Fraction:
            return Fraction(-(p * x + r), q)

        x0 = (vertex_point(xs[0])[0] - 1) if xs else Fraction(0)
        X0, Y0, W0 = _point_on(lines[g], x0)

        # containment state for every half-plane at the current on-line point
        contained = [False] * n
        cnt = [0, 0]  # blue, red
        signs = [0] * nlines
        for h in range(nlines):
            ph, qh, rh = lines[h]
            val = ph * X0 + qh * Y0 + rh * W0
            s = 1 if val > 0 else (-1 if val < 0 else 0)
            signs[h] = s
            for hp, req in members[h]:
                inside = s * req >= 0
                contained[hp] = inside
                if inside:
                    cnt[1 if is_red[hp] else 0] += 1

        if flagged(cnt[0], cnt[1]):
            return (x0, y_at(x0)), cnt[0]

        for pos, vkey in enumerate(xs):
            incident = at[vkey]
            # vertex sample: every incident half-plane becomes contained
            dblue = dred = 0
            for h in incident:
                for hp, _req in members[h]:
                    if not contained[hp]:
                        if is_red[hp]:
                            dred += 1
                        else:
                            dblue += 1
            if g < incident[0]:  # this line owns the vertex
                all_inc = [g] + incident
                onv_blue = cnt[0] + dblue
                onv_red = cnt[1] + dred
                if flagged(onv_blue, onv_red):
                    return vertex_point(vkey), onv_blue

                # face samples: one direction inside each sector
                for d in _sector_directions([lines[h] for h in all_inc]):
                    sblue, sred = onv_blue, onv_red
                    for h in all_inc:
                        ph, qh, _rh = lines[h]
                        dot = ph * d[0] + qh * d[1]
                        for hp, req in members[h]:
                            if dot * req < 0:
                                if is_red[hp]:
                                    sred -= 1
                                else:
                                    sblue -= 1
                    if flagged(sblue, sred):
                        vx, vy = vertex_point(vkey)
                        delta = _safe_offset(lines, all_inc, (vx, vy), d)
                        return (vx + delta * d[0], vy + delta * d[1]), sblue

            # step over the vertex: incident line signs flip
            for h in incident:
                signs[h] = -signs[h]
                for hp, req in members[h]:
                    inside = signs[h] * req >= 0
                    if inside != contained[hp]:
                        contained[hp] = inside
                        step = 1 if inside else -1
                        cnt[1 if is_red[hp] else 0] += step

            # the edge after this vertex: midpoint to the next crossing,
            # or a far point past the last one
            if flagged(cnt[0], cnt[1]):
                x = vertex_point(vkey)[0]
                if pos + 1 < len(xs):
                    x = (x + vertex_point(xs[pos + 1])[0]) / 2
                else:
                    x = x + 1
                return (x, y_at(x)), cnt[0]

        if not xs:
            # crossing-free line: the two adjacent cells, one per side
            for updir in (1, -1):
                sblue, sred = cnt[0], cnt[1]
                for hp, req in members[g]:
                    # directional sign along (0, updir): q > 0
                    if (q * updir) * req < 0:
                        if is_red[hp]:
                            sred -= 1
                        else:
                            sblue -= 1
                if flagged(sblue, sred):
                    y0 = y_at(x0)
                    gaps = [
                        abs(Fraction(-(ph * x0 + rh), qh) - y0)
                        for hh, (ph, qh, rh) in enumerate(lines)
                        if hh != g
                    ]
                    gaps = [gp for gp in gaps if gp > 0]
                    delta = min(gaps) / 2 if gaps else Fraction(1)
                    return (x0, y0 + updir * delta), sblue

    return None


def _sector_directions(incident_lines) -> list:
    """One direction inside each sector around a vertex, by angle from +x.

    Each line contributes the direction along it in the upper half
    (dy > 0, or dy == 0 and dx > 0); these are ordered by exact cross
    product and followed by their negations, which gives every ray
    around the vertex in angular order.  Adjacent rays sum to a direction
    strictly inside their sector.
    """
    ups = sorted(
        ((q, -p) if p <= 0 else (-q, p) for p, q, _r in incident_lines),
        key=functools.cmp_to_key(lambda d1, d2: d2[0] * d1[1] - d1[0] * d2[1]),
    )
    rays = ups + [(-dx, -dy) for dx, dy in ups]
    return [
        (r1[0] + r2[0], r1[1] + r2[1]) for r1, r2 in zip(rays, rays[1:] + rays[:1])
    ]


def good_colorings(inst: Instance, k: int = 3) -> Iterator[list]:
    """Every good coloring in lexicographic order (blue < red).

    Exhaustive over the hyperedge constraints; limited to 20 half-planes.
    The size limit, then the threshold, are checked before it returns.
    """
    n = len(inst)
    if n > ORACLE_LIMIT:
        raise TooLargeError(f"{n} half-planes exceeds oracle limit {ORACLE_LIMIT}")
    constraints = [e.covering for e in hyperedges(inst, k)]
    return ([RED if v else BLUE for v in a] for a in nae_solutions(n, constraints))


def oracle(inst: Instance, k: int = 3) -> Optional[list]:
    """First good coloring in lexicographic order (blue < red), or None."""
    return next(good_colorings(inst, k), None)
