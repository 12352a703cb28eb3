"""The hot exact predicate, in plain Python.

``orient`` is exact on ints and Fractions alike; every hull scan and
case test reaches it through ``geometry.orientation``.
"""

# Read by the benchmark header; there is no other implementation.
ACTIVE = "python"


def orient(ax, ay, bx, by, cx, cy):
    """Sign of the cross product (b - a) x (c - a): +1 left, -1 right, 0 on."""
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0
