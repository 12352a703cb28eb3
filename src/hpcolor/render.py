"""Deterministic SVG rendering of instances, colorings, and depth-3 cells.

Pure vector output: boundary lines clipped to the window, cells of depth
three and up shaded, stroke colors taken from the coloring.  All
geometry stays exact until the final digits are printed (9 significant
digits, display only).
"""

from __future__ import annotations

from fractions import Fraction

from .model import BLUE, RED, Instance
from .rationals import as_fraction
from .verification import arrangement_samples, depth

STROKES = {BLUE: "#1f4fd8", RED: "#d8341f", None: "#444444"}
SHADE = "#b0b0b0"
SIZE = 640  # pixels along the window's longer side
DEPTH = 3  # cells covered this many times or more are shaded


def _fmt(value) -> str:
    return format(float(value), ".9g")


def _clip_line_to_window(a, b, window):
    """Segment of the line y = a*x + b inside the window, or None."""
    x0, y0, x1, y1 = window
    a, b = as_fraction(a), as_fraction(b)
    points = []
    for xedge in (x0, x1):
        y = a * xedge + b
        if y0 <= y <= y1:
            points.append((xedge, y))
    if a != 0:
        for yedge in (y0, y1):
            x = (yedge - b) / a
            if x0 < x < x1:
                points.append((x, yedge))
    points = sorted(set(points))
    if len(points) < 2:
        return None
    return points[0], points[-1]


def _clip_halfplane(poly, coeff):
    """Sutherland-Hodgman step: keep the side sign*(p*x + q*y + r) >= 0."""
    p, q, r, sign = coeff
    out = []
    m = len(poly)
    for i in range(m):
        cur, nxt = poly[i], poly[(i + 1) % m]
        vc = sign * (p * cur[0] + q * cur[1] + r)
        vn = sign * (p * nxt[0] + q * nxt[1] + r)
        if vc >= 0:
            out.append(cur)
        if (vc > 0 > vn) or (vc < 0 < vn):
            t = Fraction(vc, vc - vn)
            out.append(
                (cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1]))
            )
    return out


def deep_cells(inst: Instance, window):
    """Convex polygons (clipped to the window) of the cells of depth >= DEPTH."""
    x0, y0, x1, y1 = window
    base = [
        (as_fraction(x0), as_fraction(y0)),
        (as_fraction(x1), as_fraction(y0)),
        (as_fraction(x1), as_fraction(y1)),
        (as_fraction(x0), as_fraction(y1)),
    ]
    coeffs = [h.int_constraint() for h in inst]
    seen = set()
    polys = []
    for pt in arrangement_samples(inst):
        d, covering = depth(inst, pt)
        if d < DEPTH:
            continue
        signature = []
        ok_strict = True
        for i, (p, q, r, sign) in enumerate(coeffs):
            v = p * as_fraction(pt[0]) + q * as_fraction(pt[1]) + r
            if v == 0:
                ok_strict = False  # cell boundary sample; interior sample exists too
                break
            signature.append(v > 0)
        if not ok_strict:
            continue
        signature = tuple(signature)
        if signature in seen:
            continue
        seen.add(signature)
        poly = base
        for (p, q, r, sign), positive in zip(coeffs, signature):
            keep = (p, q, r, 1 if positive else -1)
            poly = _clip_halfplane(poly, keep)
            if not poly:
                break
        if poly:
            polys.append(poly)
    return polys


def render_svg(inst: Instance, colors=None, window=(-10, -10, 10, 10)) -> str:
    """SVG text for the instance; lines stroked by color, deep cells shaded."""
    x0, y0, x1, y1 = (as_fraction(v) for v in window)
    if x0 >= x1 or y0 >= y1:
        raise ValueError("degenerate window")
    w = x1 - x0
    h = y1 - y0
    scale = Fraction(SIZE) / max(w, h)

    def sx(x) -> str:
        return _fmt((as_fraction(x) - x0) * scale)

    def sy(y) -> str:
        return _fmt((y1 - as_fraction(y)) * scale)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(w * scale)}"'
        f' height="{_fmt(h * scale)}" viewBox="0 0 {_fmt(w * scale)} {_fmt(h * scale)}">',
        f'<rect x="0" y="0" width="{_fmt(w * scale)}" height="{_fmt(h * scale)}"'
        ' fill="#ffffff"/>',
    ]
    for poly in deep_cells(inst, (x0, y0, x1, y1)):
        pts = " ".join(f"{sx(px)},{sy(py)}" for px, py in poly)
        lines.append(f'<polygon points="{pts}" fill="{SHADE}" fill-opacity="0.6"/>')
    for i, hp in enumerate(inst):
        seg = _clip_line_to_window(hp.a, hp.b, (x0, y0, x1, y1))
        if seg is None:
            continue
        (ax, ay), (bx, by) = seg
        stroke = STROKES[colors[i] if colors is not None else None]
        lines.append(
            f'<line x1="{sx(ax)}" y1="{sy(ay)}" x2="{sx(bx)}" y2="{sy(by)}"'
            f' stroke="{stroke}" stroke-width="2"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
