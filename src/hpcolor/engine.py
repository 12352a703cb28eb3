"""The covered-case coloring engine and the top-level solve loop.

Pipeline: perturb to general position, dualize to ray tips, test whether
the upper-family hull meets the lower-family hull.  If they meet, a hull
vertex of one family inside the other family's hull region becomes the
pivot and an exhaustive case machine assigns colors; if they are
separated, the uncovered path (polar duality) takes over.  Every result
is certified by the exact verifier against the original instance; on
rejection the loop retries with a finer perturbation.

The case machine branches only on exact sign predicates.  Reductions
always target cases known terminal; a dispatch log records the chain and
an assertion bounds its length.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import itemgetter
from typing import Optional

from . import geometry as geo
from .geometry import (
    GeometryError,
    HullChain,
    by_x,
    hull_from_sorted,
    point_above_line,
    region_contains,
    second_layer,
    segments_intersect,
)
from .model import (
    BLUE,
    LOWER,
    RED,
    UPPER,
    DualScene,
    GeneralPositionViolation,
    Instance,
    cheap_position_ok,
    dualize,
    perturb,
)
from .uncovered import UncoveredError, uncovered_solve, uncovered_witness
from .verification import verify

MAX_ATTEMPTS = 8
MAX_REDUCTIONS = 6

by_index = itemgetter(2)  # a tip's half-plane index


class EngineError(Exception):
    pass


class ExhaustivenessViolation(EngineError):
    """Exact predicates contradicted an implication the case split relies on."""


class InternalError(EngineError):
    """Retries exhausted; indicates a bug, never expected on valid input."""


def _above(pt, a, b) -> bool:
    """pt strictly above line(a, b); collinear tips violate general position."""
    s = point_above_line(pt, a, b)
    if s == 0:
        raise _collinear(a, b, pt)
    return s > 0


def _collinear(a, b, pt) -> GeneralPositionViolation:
    return GeneralPositionViolation(f"collinear tips {a}, {b}, {pt}")


def _below(pt, a, b) -> bool:
    return not _above(pt, a, b)


def _clears(a, b, lows, ups, skip) -> bool:
    """Does line(a, b) pass strictly below every tip of the family `lows`
    and strictly above every tip of the family `ups`, leaving out the
    tips whose x is in `skip`?  Each family is a `_Fam` of the frame that
    a, b and `skip` are in, or None for none.

    Scans `lows`, then `ups`, each in frame order: returns False at the
    first tip strictly on the wrong side and raises
    GeneralPositionViolation at the first collinear one, so the scan
    order is behaviour.  Tips have pairwise distinct x in every frame,
    so skipping by x skips exactly those tips, and a.x != b.x.

    A family is read in its own list's coordinates: the frame's side
    test s = dx*(w.y - a.y) - dy*(w.x - a.x), on mirrored coordinates
    (sx*x, sy*y), is cx*(y - sy*a.y) - cy*(x - sx*a.x) on the list's,
    with cx = sy*dx and cy = sx*dy.
    """
    dx, dy = b[0] - a[0], b[1] - a[1]
    if dx < 0:  # orient the line left to right: s > 0 means above
        dx, dy = -dx, -dy
    for fam in (lows, ups):
        if fam is not None:
            sx, sy = fam.sx, fam.sy
            ax, ay, cx, cy = sx * a[0], sy * a[1], sy * dx, sx * dy
            xs = [sx * x for x in skip]
            for w in fam.order():
                wx = w[0]
                if wx in xs:
                    continue
                s = cx * (w[1] - ay) - cy * (wx - ax)
                if s <= 0:
                    if s == 0:
                        raise _collinear(a, b, fam.map(w))
                    return False
        dx, dy = -dx, -dy  # the upper tips must lie below
    return True


@dataclass
class _Fam:
    """One family as a frame reads it, with no point copied.

    `tips` is a list of tips x-sorted in its own coordinates: the scene's
    own list, shared by every frame, or an observation's sub-scene.  The
    frame's mirror (sx, sy), each +1 or -1, makes the frame see tip
    (x, y, i) as (sx*x, sy*y, i), in reverse list order when sx < 0, so
    frame order is again x order.  A frame position k is the k-th tip in
    that order.  Lookups answer in ranges of frame positions, painting
    reads the indices of a range straight off `tips`, and a scan reads
    `tips` in frame order with its query mapped into the list's
    coordinates (the mirror is its own inverse).  `chain`, the frame's
    hull, is in frame coordinates: it is O(hull), so a flip maps it.
    """

    tips: list
    chain: Optional[HullChain]
    sx: int = 1
    sy: int = 1

    @classmethod
    def build(cls, tips, side):
        return cls(tips, hull_from_sorted(tips, side) if tips else None)

    def __len__(self) -> int:
        return len(self.tips)

    def map(self, t):
        """A tip between list and frame coordinates, either way."""
        return (self.sx * t[0], self.sy * t[1], t[2])

    def order(self):
        """The tips in frame order, in list coordinates."""
        return reversed(self.tips) if self.sx < 0 else self.tips

    def at(self, k):
        """The tip at frame position k (k < 0 counts from the end)."""
        return self.map(self.tips[k if self.sx > 0 else -1 - k])

    def position(self, t) -> int:
        """The frame position of the frame tip t, which the family holds."""
        i = bisect.bisect_left(self.tips, self.sx * t[0], key=by_x)
        return i if self.sx > 0 else len(self.tips) - 1 - i

    def _cut(self, x, after: bool) -> int:
        """The frame position of the first tip whose frame x is > x
        (after) or >= x."""
        if self.sx > 0:
            return (bisect.bisect_right if after else bisect.bisect_left)(self.tips, x, key=by_x)
        find = bisect.bisect_left if after else bisect.bisect_right
        return len(self.tips) - find(self.tips, -x, key=by_x)

    def between(self, x1, x2) -> range:
        """Frame positions of the tips with frame x strictly inside (x1, x2)."""
        return range(self._cut(x1, True), self._cut(x2, False))

    def left_of(self, x) -> range:
        return range(self._cut(x, False))

    def right_of(self, x) -> range:
        return range(self._cut(x, True), len(self.tips))

    def _slice(self, r: range) -> list:
        """The tips at the frame positions of r, in list order."""
        if self.sx > 0:
            return self.tips[r.start : r.stop]
        n = len(self.tips)
        return self.tips[n - r.stop : n - r.start] if r else []

    def take(self, r: range) -> list:
        """The frame tips at the positions of r, in frame order (a copy)."""
        part, sx, sy = self._slice(r), self.sx, self.sy
        return [(sx * x, sy * y, i) for x, y, i in (reversed(part) if sx < 0 else part)]

    def around(self, before: list, r: range, after: list, chain: HullChain) -> "_Fam":
        """A sub-family in this frame, with the given chain: the frame tips
        `before`, the tips at the frame positions of r, then the frame tips
        `after`.  Only the named tips are mapped."""
        if self.sx < 0:
            before, after = after[::-1], before[::-1]
        tips = [*map(self.map, before), *self._slice(r), *map(self.map, after)]
        return _Fam(tips, chain, self.sx, self.sy)

    def paint(self, colors: dict, r: range, color: str) -> None:
        """Give every tip at the frame positions of r the color."""
        colors.update(zip(map(by_index, self._slice(r)), repeat(color)))

    def second_layer(self) -> list:
        """The frame's second hull layer: `second_layer` of the list under
        the chain mapped back into the list's coordinates, mapped into the
        frame."""
        layer = second_layer(self.tips, self.mirrored(self.sx, self.sy).chain)
        return [self.map(v) for v in (reversed(layer) if self.sx < 0 else layer)]

    def mirrored(self, fx: int, fy: int) -> "_Fam":
        """This family in the frame mirrored by (fx, fy).  Only the chain
        is mapped, not rebuilt: a mirror maps the hull onto the mirrored
        tips' hull, negating x reverses the chain, and negating y turns a
        lower chain into an upper one."""
        chain = self.chain
        if chain is not None:
            verts = [(fx * x, fy * y, i) for x, y, i in chain.vertices]
            if fx < 0:
                verts.reverse()
            side = chain.side if fy > 0 else (UPPER if chain.side == LOWER else LOWER)
            chain = HullChain(side, verts)
        return _Fam(self.tips, chain, self.sx * fx, self.sy * fy)


@dataclass
class View:
    """A frame: the upper family `u` and the lower family `l`, in the
    scene's tip units.  Both read the scene's own tip lists through the
    frame's mirror (see `_Fam`), so a flip maps the two chains and no tip.
    The mirrors keep each tip's index, so a coloring keyed by index holds
    in every frame."""

    u: _Fam
    l: _Fam
    gap: int | Fraction  # the scene's `gap`, for case B's synthetic successor

    @classmethod
    def of(cls, scene: DualScene) -> "View":
        return cls(_Fam.build(scene.tips_u, UPPER), _Fam.build(scene.tips_l, LOWER), scene.gap)

    def x_flip(self) -> "View":
        """The left-right mirror frame."""
        return View(self.u.mirrored(-1, 1), self.l.mirrored(-1, 1), self.gap)

    def y_flip(self) -> "View":
        """The up-down mirror frame, where the families swap roles."""
        return View(self.l.mirrored(1, -1), self.u.mirrored(1, -1), self.gap)


@dataclass
class Pivot:
    """The paper's configuration around a pivot p in the upper family.

    p sits on the upper hull and inside the lower family's hull region;
    l_L < p < r_L are the neighbouring lower-hull vertices with nothing
    of the lower hull between them; l_U / r_U are p's hull neighbours;
    l_Lp / r_Lp extend the lower hull outward past l_L / r_L.
    """

    view: View
    p: tuple
    l_U: Optional[tuple]
    r_U: Optional[tuple]
    l_L: tuple
    r_L: tuple
    l_Lp: Optional[tuple]
    r_Lp: Optional[tuple]


@dataclass
class Coverage:
    kind: str  # "covered" | "separated"
    # separated: (c, d), the separating line y = c*x + d of the scene
    witness: Optional[tuple] = None
    view: Optional[View] = None  # covered: the scene's hulls
    # covered: (side, vertex), the first overlap vertex by x with gap >= 0
    hit: Optional[tuple] = None


def _chain_slopes_at(chain: HullChain, x):
    """(slope_in, slope_out) of the chain at x; None beyond the span ends."""
    verts = chain.vertices

    def slope(a, b) -> Fraction:
        return Fraction(b[1] - a[1], b[0] - a[0])

    s_minus = s_plus = None
    i = bisect.bisect_left(verts, x, key=by_x)
    at_vertex = i < len(verts) and verts[i][0] == x
    if at_vertex:
        if i > 0:
            s_minus = slope(verts[i - 1], verts[i])
        if i + 1 < len(verts):
            s_plus = slope(verts[i], verts[i + 1])
    else:
        # interior of edge (i-1, i)
        s_minus = s_plus = slope(verts[i - 1], verts[i])
    return s_minus, s_plus


def coverage(scene: DualScene) -> Coverage:
    """Do the two ray-hull regions intersect?  The hit vertex, or a witness.

    One pass, in x order, over the hull vertices of both families in the
    span overlap computes the gap g(x) = uphull(x) - lowhull(x) (a
    vertex's own chain value is its y).  g is concave there, so the
    regions meet iff g >= 0 at some vertex: the first such vertex lies
    inside the other family's region (closed) and is the hit.  Else a
    separating line y = c*x + d passes through the first maximum of g.
    It is strictly above every upper-family tip and strictly below every
    lower-family tip, so it dualizes back to an uncovered primal point.
    The line (c, d), in the scene's tip units, is the witness, which
    `uncovered_witness` checks against every tip.
    """
    view = View.of(scene)
    cu, cl = view.u.chain, view.l.chain

    # callers pass n >= 3, so at least one family has a chain
    if cu is None or cl is None:
        if cl is None:
            return Coverage("separated", witness=(0, max(v[1] for v in scene.tips_u) + 1))
        return Coverage("separated", witness=(0, min(v[1] for v in scene.tips_l) - 1))

    lo = max(cu.x_min, cl.x_min)
    hi = min(cu.x_max, cl.x_max)
    if lo > hi:
        return Coverage("separated", witness=_separator_disjoint_spans(cu, cl))
    # tip x values are distinct, so x orders the vertices totally
    cands = [("u", v) for v in cu.vertices if lo <= v[0] <= hi]
    cands += [("l", v) for v in cl.vertices if lo <= v[0] <= hi]
    cands.sort(key=lambda t: t[1][0])
    best = None  # (g, x, yu + yl) at the first maximum of g
    for side, v in cands:
        x = v[0]
        if side == "u":
            yu, yl = v[1], geo.chain_eval(cl, x)
        else:
            yu, yl = geo.chain_eval(cu, x), v[1]
        if yu >= yl:
            return Coverage("covered", view=view, hit=(side, v))
        if best is None or yu - yl > best[0]:
            best = (yu - yl, x, yu + yl)
    # lo and hi are chain vertices, so `best` is set
    return Coverage("separated", witness=_separator_overlap(cu, cl, *best))


def _separator_disjoint_spans(cu, cl) -> tuple:
    """(c, d) of a steep line y = c*x + d through (xm, 0), xm in the x-gap
    between the two hull spans.  It passes above upper tip v iff c * (v.x - xm) > v.y and below
    lower tip v iff c * (v.x - xm) < v.y.  Every upper tip sits on one side
    of xm and every lower tip on the other, so each bound v.y / (v.x - xm)
    is an upper bound on c when the upper span is left of the gap, else a
    lower bound; the extreme bound is a hull vertex's."""
    left = cu.x_max < cl.x_min
    xm = Fraction(cu.x_max + cl.x_min, 2) if left else Fraction(cl.x_max + cu.x_min, 2)
    bounds = [v[1] / (v[0] - xm) for v in cu.vertices + cl.vertices]
    c = min(bounds) - 1 if left else max(bounds) + 1
    return c, -c * xm


def _separator_overlap(cu, cl, gap, x_star, y_sum) -> tuple:
    """(c, d) of a line y = c*x + d through the midpoint of the narrowest
    vertical gap at x_star, slope c within both chains' local slope
    intervals (exists because the gap is extremal there)."""
    assert gap < 0
    su_minus, su_plus = _chain_slopes_at(cu, x_star)
    sl_minus, sl_plus = _chain_slopes_at(cl, x_star)
    # Both bounds exist.  su_plus and sl_minus are both None only when
    # x_star is cu's last vertex and cl's first, and su_minus and sl_plus
    # only when it is cu's first and cl's last: either way an upper and a
    # lower tip would share an x, which `dualize` rejects.
    lb = max(s for s in (su_plus, sl_minus) if s is not None)
    ub = min(s for s in (su_minus, sl_plus) if s is not None)
    c = Fraction(lb + ub, 2)
    return c, Fraction(y_sum, 2) - c * x_star


def _mirror(pv: Pivot) -> Pivot:
    """The same configuration in the left-right mirror frame: each left
    neighbour becomes a right one and vice versa."""

    def m(t):
        return None if t is None else (-t[0], t[1], t[2])

    return Pivot(
        pv.view.x_flip(),
        m(pv.p),
        m(pv.r_U),
        m(pv.l_U),
        m(pv.r_L),
        m(pv.l_L),
        m(pv.r_Lp),
        m(pv.l_Lp),
    )


def build_pivot(view: View, pivot) -> Pivot:
    """Assemble the case-machine configuration around a qualifying pivot.

    When the pivot is the leftmost of several upper points, the frame
    flips left-right, so the hull predecessor l_U always exists unless
    the upper family is a single point.
    """
    if len(view.u) > 1 and pivot == view.u.at(0):
        view, pivot = view.x_flip(), (-pivot[0], pivot[1], pivot[2])
    cu, cl = view.u.chain, view.l.chain
    iu = cu.vertex_index(pivot)
    if iu is None:
        raise InternalError("pivot is not an upper hull vertex")
    l_U = cu.vertices[iu - 1] if iu > 0 else None
    r_U = cu.vertices[iu + 1] if iu + 1 < len(cu.vertices) else None
    if l_U is None and len(view.u) > 1:
        raise InternalError("pivot left-normalization failed")
    j = bisect.bisect_right(cl.vertices, pivot[0], key=by_x)
    if not 0 < j < len(cl.vertices):
        raise InternalError("pivot not strictly inside the lower hull span")
    l_L = cl.vertices[j - 1]
    r_L = cl.vertices[j]
    l_Lp = cl.vertices[j - 2] if j >= 2 else None
    r_Lp = cl.vertices[j + 1] if j + 1 < len(cl.vertices) else None
    if not region_contains(cl, pivot):
        raise InternalError("pivot escaped the lower hull region")
    return Pivot(view, pivot, l_U, r_U, l_L, r_L, l_Lp, r_Lp)


def find_pivot(cov: Coverage) -> Pivot:
    """The pivot at the hull vertex that `coverage` found inside the other
    family's region.

    If the vertex belongs to the lower family, the up-down mirror makes it
    play the upper role.
    """
    view, (side, v) = cov.view, cov.hit
    if side == "l":
        view, v = view.y_flip(), (v[0], -v[1], v[2])
    return build_pivot(view, v)


def classify(pv: Pivot) -> str:
    """The four-way split: A (r_L above h), C (segments cross), B / D."""
    if pv.l_U is None:
        return "singletonU"
    a_case = _above(pv.r_L, pv.l_U, pv.p)
    crossing = segments_intersect((pv.l_U, pv.p), (pv.l_L, pv.r_L))
    if a_case:
        if crossing:
            raise ExhaustivenessViolation("r_L above h yet segments cross")
        return "A"
    if crossing:
        return "C"
    if pv.l_L[0] < pv.l_U[0]:
        return "B"
    return "D"


# ---------------------------------------------------------------------------
# color-dict helpers: a coloring maps a tip's half-plane index to a color,
# so it holds unchanged in every mirror frame


def _fill_rest(view: View, colors: dict, default: str) -> dict:
    # a frame holds every tip, and `dualize` indexes them 0..n-1
    for i in range(len(view.u) + len(view.l)):
        colors.setdefault(i, default)
    return colors


def _merge(colors: dict, sub: dict, fixed=()) -> None:
    """Adopt an observation's colors; context anchors (indices in `fixed`)
    keep their colors."""
    for i, c in sub.items():
        if i in fixed:
            continue
        if i in colors and colors[i] != c:
            raise ExhaustivenessViolation(
                f"inconsistent colors for half-plane {i}: {colors[i]} vs {c}"
            )
        colors[i] = c


# ---------------------------------------------------------------------------
# observations (the separated-hull subroutines)


def _observe(pv: Pivot, u_ends: list, l_ends: list, path: list) -> dict:
    """obs_separated on a sub-scene of pv's frame with p rightmost above
    and r_L leftmost below: above, the upper tips left of u_ends[0], then
    the frame tips u_ends, ending at p; below, the frame tips l_ends,
    starting at r_L, then the lower tips right of l_ends[-1].

    The upper part keeps every upper hull vertex up to p and the lower
    part every lower hull vertex from r_L on (the points left out lie
    inside the hulls), so the sub-hulls are the prefix of the frame's
    upper chain ending at p and the suffix of its lower chain starting at
    r_L.
    """
    u, l = pv.view.u, pv.view.l
    u_hull = HullChain(UPPER, u.chain.vertices[: u.chain.vertex_index(pv.p) + 1])
    l_hull = HullChain(LOWER, l.chain.vertices[l.chain.vertex_index(pv.r_L) :])
    u_act = u.around([], u.left_of(u_ends[0][0]), u_ends, u_hull)
    l_act = l.around(l_ends, l.right_of(l_ends[-1][0]), [], l_hull)
    return obs_separated(u_act, l_act, pv.p, pv.r_L, path)


def obs_separated(u_act: _Fam, l_act: _Fam, p, q, path: list, _depth=0) -> dict:
    """Color an active sub-scene with p rightmost above, q leftmost below.

    The chains of u_act and l_act are the upper hull of u_act's tips and
    the lower hull of l_act's.  Implements both observations: the
    non-crossing case colors left of p red and right of q blue; the
    crossing / missing-neighbour case colors the window after q blue, the
    rest red, and decides q's hull successor by the exact tangent rule
    against the second hull layer.  The mirror variant runs through a
    half-turn, which maps the two chains and the named tips only.
    """
    if _depth > 1:
        raise InternalError("observation mirror recursed")
    if u_act.at(-1) != p or l_act.at(0) != q:
        raise InternalError("observation scene not separated around (p, q)")
    u_hull, l_hull = u_act.chain.vertices, l_act.chain.vertices
    if u_hull[-1] != p or l_hull[0] != q:
        raise InternalError("p / q not extreme hull vertices")
    l_u = u_hull[-2] if len(u_hull) > 1 else None
    q_s = l_hull[1] if len(l_hull) > 1 else None
    # standing assumptions of the observations
    if l_u is not None and not _below(q, l_u, p):
        raise ExhaustivenessViolation("line l_U..p fails to pass above q")
    if q_s is not None and not _above(p, q, q_s):
        raise ExhaustivenessViolation("line q..q_succ fails to pass below p")

    cross_l = l_u is not None and q_s is not None and _above(q_s, l_u, p)
    cross_lp = l_u is not None and q_s is not None and _below(l_u, q, q_s)

    colors: dict = {p[2]: BLUE, q[2]: RED}
    if l_u is not None and q_s is not None and not cross_l and not cross_lp:
        path.append("obs2")
        u_act.paint(colors, range(len(u_act) - 1), RED)
        l_act.paint(colors, range(1, len(l_act)), BLUE)
        return colors

    if l_u is None or cross_lp:
        path.append("obs3")
        u_act.paint(colors, range(len(u_act) - 1), RED)
        if q_s is None:
            return colors
        j = l_act.position(q_s)
        l_act.paint(colors, range(1, j), BLUE)
        l_act.paint(colors, range(j + 1, len(l_act)), RED)
        colors[q_s[2]] = _tangent_rule_color(u_act, l_act, p, q, q_s)
        return colors

    # mirror: q's side plays p's role after a half-turn; colors swap back
    path.append("obs3x")
    q_rot, p_rot = (-q[0], -q[1], q[2]), (-p[0], -p[1], p[2])
    sub = obs_separated(
        l_act.mirrored(-1, -1), u_act.mirrored(-1, -1), q_rot, p_rot, path, _depth + 1
    )
    return {i: (RED if c == BLUE else BLUE) for i, c in sub.items()}


def _tangent_rule_color(u_act: _Fam, l_act: _Fam, p, q, q_s) -> str:
    """Red iff the tangent from q to the second lower layer touches inside
    the (q, q_succ) window, stays below every other lower point except
    q_succ, and above every upper point except p (scan order: `_clears`).
    """
    touch = _tangent_touch(l_act, q)
    if touch is None or not touch[0] < q_s[0]:
        return BLUE
    skip = (q_s[0], touch[0], q[0], p[0])
    return RED if _clears(q, touch, l_act, u_act, skip) else BLUE


def _tangent_touch(l_act: _Fam, q):
    """Where the tangent from q touches the second lower layer, or None.

    q is leftmost, so the touch is the minimum-slope point from q among
    the tips of l_act off its first layer, its chain; on a tie it is the
    leftmost one, which is still a second-layer vertex.  The tips are
    read in frame order in their list's coordinates, where a mirror by
    one axis reverses every turn (`sign`).
    """
    sx, sy = l_act.sx, l_act.sy
    qx, qy, sign = sx * q[0], sy * q[1], sx * sy
    hull_xs = iter([sx * v[0] for v in l_act.chain.vertices] + [None])
    next_x = next(hull_xs)
    touch = None
    for w in l_act.order():
        wx = w[0]
        if wx == next_x:  # a first-layer vertex; tip x values are distinct
            next_x = next(hull_xs)
            continue
        # cross(touch - q, w - q) < 0 in the frame: w has the smaller slope from q
        if touch is None or dx * (w[1] - qy) - dy * (wx - qx) < 0:
            touch, dx, dy = w, sign * (wx - qx), sign * (w[1] - qy)
    return None if touch is None else l_act.map(touch)


# ---------------------------------------------------------------------------
# terminal cases


def case_a(pv: Pivot, path: list) -> dict:
    path.append("A")
    if segments_intersect((pv.l_U, pv.p), (pv.l_L, pv.r_L)):
        raise ExhaustivenessViolation("case A with crossing segments")
    colors = {pv.p[2]: BLUE, pv.r_L[2]: BLUE, pv.l_L[2]: BLUE}
    return _fill_rest(pv.view, colors, RED)


def case_b(pv: Pivot, path: list, depth: int = 0, walk: int = 0) -> dict:
    path.append("B")
    view, p, l_U, l_L, r_L = pv.view, pv.p, pv.l_U, pv.l_L, pv.r_L
    if _above(l_L, l_U, p):
        # The recipe below confines monochromatic edges to the window only
        # when l_L sits under the edge-line through l_U and p.  When it
        # does not, l_U provably lies inside the lower hull region, so the
        # machine restarts there (a finite leftward pivot walk).
        path.append("B^")
        if walk > 2 * len(view.u) + 4:
            raise InternalError("pivot walk exceeded its budget")
        return _dispatch(build_pivot(view, l_U), path, depth, walk + 1)
    u, l = view.u, view.l
    colors = {p[2]: BLUE, r_L[2]: BLUE, l_U[2]: RED, l_L[2]: RED}
    u.paint(colors, u.left_of(l_U[0]), RED)
    l.paint(colors, l.right_of(r_L[0]), RED)
    u.paint(colors, u.right_of(p[0]), BLUE)
    l.paint(colors, l.left_of(l_L[0]), BLUE)
    u.paint(colors, u.between(l_U[0], p[0]), RED)  # the free choice

    window = l.between(l_L[0], r_L[0])
    if not window:
        return colors
    layer1 = l.second_layer()
    primes = [w for w in layer1 if l_L[0] < w[0] < r_L[0]]
    if not primes:
        l.paint(colors, window, BLUE)
        return colors

    succ = next((w for w in layer1 if w[0] > primes[-1][0]), None)
    if succ is None:
        # A synthetic successor of the last prime, along (2, -gap), the
        # unscaled ray's image (gap: see `dualize`).  Only the loop's last
        # `_below` reads it; either outcome gives j = len(primes) - 1, so
        # it decides only whether r_L on its ray raises, as unscaled.
        succ = (primes[-1][0] + 2, primes[-1][1] - view.gap)
    seq = primes + [succ]
    j = None
    for t in range(len(primes)):
        if _below(r_L, seq[t], seq[t + 1]):
            j = t
            break
    if j is None:
        # the second layer never clears r_L: the split degenerates to the
        # last second-layer point (everything left of it keeps blue)
        j = len(primes) - 1
    k = l.position(primes[j])
    l.paint(colors, range(window.start, k), BLUE)
    l.paint(colors, range(k + 1, window.stop), RED)
    colors[primes[j][2]] = _case_b_prime_color(l, window, l_L, r_L, k)
    return colors


def _case_b_prime_color(l: _Fam, window: range, l_L, r_L, k: int) -> str:
    """The split point, the lower tip at frame position k of the window,
    keeps blue exactly when some line through r_L and a window point
    right of it passes above l_L and the split point and below every
    other window point."""
    pj, tips = l.at(k), l.around([], window, [], None)
    if _case_b_wedge(tips, l.take(range(k + 1, window.stop)), r_L, l_L, pj, right_side=True):
        # the mirror wedge through l_L cannot coexist: two distinct
        # lines would share more than one point
        if _case_b_wedge(tips, l.take(range(window.start, k)), l_L, r_L, pj, right_side=False):
            raise ExhaustivenessViolation("both split-point wedges present")
        return BLUE
    return RED


def _case_b_wedge(window: _Fam, cands: list, anchor, other, pj, right_side: bool) -> bool:
    """Is there a line through `anchor` and a window point beyond the split
    point (`cands`, in frame order) that passes above `other` and the
    split point and below every remaining window point?"""
    if not cands:
        return False
    q_star = cands[0]
    for w in cands[1:]:
        # extreme slope toward the anchor picks the only tangent candidate
        c = geo._slope_cmp(anchor, w, q_star)
        if (c > 0) if right_side else (c < 0):
            q_star = w
    # Never true (the _below calls still raise on collinear tips).  Right
    # call: each candidate is on or above the second layer, whose edge
    # from pj passes above r_L (a synthetic successor leaves none), so
    # above line(pj, r_L); and above edge l_L..r_L.  So pj and l_L are
    # below the tangent R from r_L.  Left call, made only when R is a
    # wedge line: l_L is below R and q_star above it, so right of q_star
    # line(l_L, q_star) runs above R, and so above pj and r_L.
    if not _below(other, anchor, q_star) or not _below(pj, anchor, q_star):
        raise ExhaustivenessViolation("split-point wedge line misses its anchors")
    return _clears(anchor, q_star, window, None, (q_star[0], pj[0]))


def case_d(pv: Pivot, path: list, depth: int) -> dict:
    """The fourth case.  Invariant: r_U is None (p is the rightmost upper
    point).  Tip x values are distinct and collinear tips raise.

    Lemma L: here l_L lies strictly below line(l_U, p), so strictly inside
    the upper region.  Else segment l_L..r_L meets that line, since r_L
    is below it: at x <= p.x the meeting point is on segment l_U..p
    (case C), and at x > p.x p lies below edge l_L..r_L (`build_pivot`
    raises).

    Only two calls lead here; `D~y` below passes ``allow_d=False``.
    - A pivot from `find_pivot`: unless `build_pivot` x-flipped, l_L is
      left of p in the span overlap and qualifies by L, so `coverage`,
      which returns the first overlap vertex by x with gap >= 0, would
      have returned it first (also after the y-flip, which keeps x
      order).
    - A `B^` walk to q = l_U keeps the window (l_L, r_L).  Left of q the
      concave chain puts line(q, p) above line(q's predecessor, q), and
      `B^` puts l_L above line(q, p): L fails unless `build_pivot`
      x-flipped.
    The x-flip makes the pivot the rightmost upper point.
    """
    path.append("D")
    _check_depth(path, depth)
    view, p, l_U = pv.view, pv.p, pv.l_U
    l_L, r_L, l_Lp = pv.l_L, pv.r_L, pv.l_Lp

    # guard: the lower window edge-line must not cut segment l_U..p,
    # else l_L takes the pivot role and the first case applies
    if _below(l_U, l_L, r_L):
        path.append("D>A")
        colors = {l_L[2]: BLUE, l_U[2]: BLUE, p[2]: BLUE}
        return _fill_rest(view, colors, RED)

    # nothing lower left of l_L (and nothing of the upper family right of p)
    if l_L == view.l.at(0):
        path.append("D1")
        colors = {p[2]: BLUE, r_L[2]: BLUE, l_U[2]: RED, l_L[2]: RED}
        view.u.paint(colors, view.u.left_of(p[0]), RED)
        view.l.paint(colors, view.l.right_of(r_L[0]), RED)
        view.l.paint(colors, view.l.between(l_L[0], r_L[0]), BLUE)
        return colors

    # D2: a blue triangle of rays pierces everything
    if l_Lp is not None and l_Lp[0] < l_U[0] and _above(l_U, l_Lp, l_L):
        path.append("D2l")
        colors = {l_Lp[2]: RED, l_L[2]: RED, l_U[2]: RED}
        return _fill_rest(view, colors, BLUE)

    # Re-dispatch at l_L in the up-down mirror.  D1 failed, so l_Lp
    # exists and l_L is not leftmost: no x-flip.  l_L lies between the
    # hull neighbours l_U and p, inside their edge's region by L, so
    # `build_pivot` succeeds.  By L in that frame, case D there would
    # need l_Lp.x < l_U.x and l_U above line(l_Lp, l_L): that is D2l.
    path.append("D~y")
    pv2 = build_pivot(view.y_flip(), (l_L[0], -l_L[1], l_L[2]))
    return _dispatch(pv2, path, depth + 1, allow_d=False)


def case_c(pv: Pivot, path: list, depth: int) -> dict:
    path.append("C")
    _check_depth(path, depth)
    view, p, l_U, r_U = pv.view, pv.p, pv.l_U, pv.r_U

    c_above = r_U is None or _above(pv.r_L, p, r_U)
    if not c_above:
        return _case_c_below(pv, path, depth)

    # the hull successor inside the lower region upgrades to an A-pivot
    if r_U is not None and region_contains(view.l.chain, r_U):
        path.append("C>A")
        pv2 = build_pivot(view, r_U)
        if pv2.view is not view:
            raise InternalError("A-upgrade pivot flipped unexpectedly")
        if not _above(pv2.r_L, pv2.l_U, pv2.p):
            raise ExhaustivenessViolation("A-upgrade guard failed")
        return case_a(pv2, path)

    # each left-hand subcase is its right-hand twin in the mirror frame
    mv = _mirror(pv)
    for side, q in (("r", pv), ("l", mv)):
        if q.r_U is not None and _c1_holds(q):
            path.append(f"c1{side}")
            colors = {q.p[2]: BLUE, q.r_U[2]: BLUE, q.r_L[2]: BLUE}
            return _fill_rest(q.view, colors, RED)

    colors = _case_c2_ladder(pv, mv, path)
    if colors is not None:
        return colors

    if r_U is not None and _triangle_free(view.u, l_U, p, r_U):
        return _case_c3(pv, mv, path)

    return _case_c4(pv, mv, path)


def _c1_holds(pv: Pivot) -> bool:
    """Line through r_L and r_U that passes below all lower points (except
    the window pair) and above all upper points (except r_U); scan order:
    `_clears`."""
    skip = (pv.r_L[0], pv.l_L[0], pv.r_U[0])
    return _clears(pv.r_L, pv.r_U, pv.view.l, pv.view.u, skip)


def _triangle_free(fam: _Fam, a, b, c) -> bool:
    """No tip of `fam` but the corners, three of its tips, lies inside the
    frame triangle a, b, c.

    Only a tip with x strictly inside the triangle's x-span can, so only
    those are read, in their list's coordinates, with the corners mapped
    there: a mirror keeps the interior.  Collinear corners raise
    DegenerateTriangleError when the family holds a fourth tip, as a
    strict interior test on each tip but the corners did before the
    window (the callers pass consecutive strict hull vertices, which
    never are); with no fourth tip every tip is a corner, on the line of
    all three, and none is inside.
    """
    window = fam.between(min(a[0], b[0], c[0]), max(a[0], b[0], c[0]))
    a, b, c = fam.map(a), fam.map(b), fam.map(c)
    turn = geo.orientation(a, b, c)
    if turn == 0 and len(fam) > 3:
        raise geo.DegenerateTriangleError("collinear triangle corners")
    if turn < 0:
        b, c = c, b
    # a corner in the window lies on two of the edges, so it is not inside
    return not any(
        geo.orientation(a, b, w) > 0 and geo.orientation(b, c, w) > 0 and geo.orientation(c, a, w) > 0
        for w in fam._slice(window)
    )


def _case_c2_ladder(pv: Pivot, mv: Pivot, path: list) -> Optional[dict]:
    """Subcase c2 on the right when the triangle l_L, r_L, r_L' is empty,
    else on the left (in the mirror frame `mv`); None when neither is."""
    for side, q in (("r", pv), ("l", mv)):
        if q.r_Lp is not None and _triangle_free(q.view.l, q.l_L, q.r_L, q.r_Lp):
            return _case_c2(q, path, side)
    return None


def _case_c2(pv: Pivot, path: list, side: str) -> dict:
    view, p, l_U, r_U = pv.view, pv.p, pv.l_U, pv.r_U
    l_L, r_L, r_Lp = pv.l_L, pv.r_L, pv.r_Lp

    path.append(f"c2{side}")
    colors = {p[2]: BLUE, l_L[2]: BLUE, r_Lp[2]: BLUE, r_L[2]: RED}
    if r_U is not None:
        colors[r_U[2]] = RED
    view.l.paint(colors, view.l.between(l_L[0], r_Lp[0]), RED)  # r_L is red too
    view.l.paint(colors, view.l.left_of(l_L[0]), RED)
    view.u.paint(colors, view.u.right_of(p[0]), RED)
    sub = _observe(pv, [p], [r_L, r_Lp], path)
    if sub.get(r_Lp[2]) != BLUE:
        raise ExhaustivenessViolation("masked window q-successor not blue")
    _merge(colors, sub)
    # a blue wedge l_L..l_U..p defeats the plan; recolor globally (the
    # third survivor is the vertex past the window: no line can meet
    # all three of l_L, l_U, r_L', and one missing them hits only p)
    if l_U is not None and colors.get(l_U[2]) == BLUE and _is_low_tangent(pv, l_L):
        path.append(f"c2{side}!")
        override = {l_L[2]: BLUE, l_U[2]: BLUE, r_Lp[2]: BLUE}
        return _fill_rest(view, override, RED)
    return colors


def _is_low_tangent(pv: Pivot, through_l) -> bool:
    """Is line(l_U, through_l) tangent to the lower family from below
    while passing above every upper point except p and l_U?  Scan order:
    `_clears`."""
    skip = (through_l[0], pv.p[0], pv.l_U[0])
    return _clears(pv.l_U, through_l, pv.view.l, pv.view.u, skip)


def _case_c3(pv: Pivot, mv: Pivot, path: list) -> dict:
    path.append("c3")
    view, p, l_U, r_U = pv.view, pv.p, pv.l_U, pv.r_U
    l_L, r_L = pv.l_L, pv.r_L
    colors = {p[2]: BLUE, l_U[2]: RED, r_U[2]: RED, r_L[2]: RED, l_L[2]: RED}
    view.u.paint(colors, view.u.between(l_U[0], r_U[0]), BLUE)  # p is blue too
    view.l.paint(colors, view.l.between(l_L[0], r_L[0]), BLUE)
    # l_U (r_U in the mirror) stays in the observation scene as an
    # already-colored hull anchor: the hull structure (and the tangent
    # rule) must see it
    for q in (pv, mv):
        _merge(colors, _observe(q, [q.l_U, q.p], [q.r_L], path), fixed=(q.l_U[2],))
    return colors


def _case_c4(pv: Pivot, mv: Pivot, path: list, singleton: bool = False) -> dict:
    path.append("c4" if not singleton else "c4s")
    colors = {pv.p[2]: BLUE, pv.r_L[2]: RED, pv.l_L[2]: RED}
    for q in (pv, mv):
        _merge(colors, _observe(q, [q.p], [q.r_L], path))
    pv.view.l.paint(colors, pv.view.l.between(pv.l_L[0], pv.r_L[0]), BLUE)

    if singleton:
        return colors

    # a wedge past the window may have come out all blue; only then the
    # global recolor applies (its safety leans on that very construction)
    for side, q in (("l", pv), ("r", mv)):
        l_U, l_L, l_Lp = q.l_U, q.l_L, q.l_Lp
        if (
            l_Lp is not None
            and l_U is not None
            and colors.get(l_Lp[2]) == BLUE
            and colors.get(l_U[2]) == BLUE
            and (
                _is_low_tangent(q, l_Lp)
                or _clears(l_Lp, l_L, None, q.view.u, (l_U[0], q.p[0]))
            )
        ):
            path.append(f"c4!{side}")
            override = {l_Lp[2]: BLUE, l_L[2]: BLUE, l_U[2]: BLUE, q.r_L[2]: BLUE}
            return _fill_rest(q.view, override, RED)
    return colors


def _case_c_below(pv: Pivot, path: list, depth: int) -> dict:
    """Crossing case with r_L under the p..r_U edge-line."""
    view, p, l_U, r_U = pv.view, pv.p, pv.l_U, pv.r_U
    l_L, r_L = pv.l_L, pv.r_L
    path.append("cB")

    if _above(l_L, p, r_U):
        # line p..r_U cuts the window segment: A after a left-right mirror
        path.append("cB>A")
        colors = {p[2]: BLUE, l_L[2]: BLUE, r_L[2]: BLUE}
        return _fill_rest(view, colors, RED)
    if _below(r_U, l_L, r_L):
        # window edge-line cuts segment p..r_U: A after an up-down mirror
        path.append("cB>A'")
        colors = {p[2]: BLUE, r_U[2]: BLUE, r_L[2]: BLUE}
        return _fill_rest(view, colors, RED)
    if r_U[0] < r_L[0]:
        # the second case's machinery applies with the x-axis reversed
        path.append("cB>B")
        pv2 = _mirror(pv)
        if classify(pv2) != "B":
            raise ExhaustivenessViolation("cB scene in the mirror frame not in case B")
        return case_b(pv2, path, depth + 1)

    colors = {p[2]: BLUE, l_L[2]: BLUE, r_L[2]: RED, r_U[2]: RED}
    view.u.paint(colors, view.u.right_of(r_U[0]), BLUE)
    view.l.paint(colors, view.l.left_of(r_L[0]), BLUE)  # l_L is blue too
    view.u.paint(colors, view.u.between(p[0], r_U[0]), RED)
    _merge(colors, _observe(pv, [p], [r_L], path))
    return colors


def _check_depth(path: list, depth: int) -> None:
    if depth > MAX_REDUCTIONS:
        raise InternalError(f"reduction chain too long: {path}")


def _dispatch(
    pv: Pivot, path: list, depth: int = 0, walk: int = 0, allow_d: bool = True
) -> dict:
    _check_depth(path, depth)
    tag = classify(pv)
    if tag == "singletonU":
        path.append("singleton")
        # the lone-upper-point case runs the crossing-case ladder with the
        # hull-neighbour subcases skipped; c4's safety needs c2 excluded
        mv = _mirror(pv)
        colors = _case_c2_ladder(pv, mv, path)
        if colors is not None:
            return colors
        return _case_c4(pv, mv, path, singleton=True)
    if tag == "A":
        return case_a(pv, path)
    if tag == "B":
        return case_b(pv, path, depth, walk)
    if tag == "C":
        return case_c(pv, path, depth)
    if not allow_d:
        raise ExhaustivenessViolation("mirror frame fell back to case D")
    return case_d(pv, path, depth)


def color_covered(cov: Coverage) -> tuple[dict, list]:
    """Color a covered scene; returns colors by half-plane index, and the path."""
    path: list = []
    colors = _dispatch(find_pivot(cov), path)
    n = len(cov.view.u) + len(cov.view.l)
    if len(colors) != n:
        raise InternalError(f"uncolored half-planes: {sorted(range(n) - colors.keys())[:3]}")
    return colors, path


# ---------------------------------------------------------------------------
# top-level solve


@dataclass
class SolveResult:
    colors: list
    attempts: int
    case_path: list = field(default_factory=list)


def solve_detailed(inst: Instance, *, check: bool = True) -> SolveResult:
    """Compute a coloring certified good at depth 3 on the original input.

    Each attempt perturbs, dualizes, and runs the covered or uncovered
    path; the exact verifier judges the result on the unperturbed instance
    and failures retry with a finer step.  Attempt 0 runs on the instance
    itself when the cheap screen passes (no parallel boundaries); a
    perturbed instance that still has parallels fails in `dualize`.  With
    ``check=False`` the first constructed coloring is returned unjudged
    (the benchmark path).  After ``MAX_ATTEMPTS`` attempts it raises
    InternalError.
    """
    n = len(inst)
    if n < 3:
        return SolveResult([BLUE] * n, 0, ["trivial"])
    last_error: Optional[Exception] = None
    for attempt in range(MAX_ATTEMPTS):
        pert = inst if attempt == 0 and cheap_position_ok(inst) else perturb(inst, attempt)
        try:
            scene = dualize(pert)
            cov = coverage(scene)
            if cov.kind == "covered":
                cmap, path = color_covered(cov)
                colors = [cmap[i] for i in range(n)]
            else:
                witness = uncovered_witness(scene, cov.witness)
                colors = uncovered_solve(scene, witness)
                path = ["uncovered"]
        except (
            GeometryError, GeneralPositionViolation, EngineError, UncoveredError
        ) as exc:
            # degeneracies that slip the cheap screen surface as assertion
            # failures anywhere in the machine, or as a witness that fails
            # `uncovered_witness`'s substitution; a finer perturbation retries
            last_error = exc
            continue
        if not check:
            return SolveResult(colors, attempt, path)
        if verify(inst, colors, 3) is None:
            return SolveResult(colors, attempt, path)
    raise InternalError(
        f"no verified coloring after {MAX_ATTEMPTS} attempts"
        + (f" (last error: {last_error})" if last_error else "")
    )


def solve(inst: Instance, *, check: bool = True) -> list:
    """The coloring alone; see solve_detailed."""
    return solve_detailed(inst, check=check).colors
