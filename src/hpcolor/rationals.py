"""Exact rational scalars and their canonical text form.

All coordinates in this package are exact rationals: either Python ints
(the fast common case) or ``fractions.Fraction``.  No float ever enters a
decision path.  The canonical text form is ``"num/den"`` with a reduced
fraction and positive denominator; plain integers are accepted and kept
as ints.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]


def normalize(value: Scalar) -> Scalar:
    """Collapse integral Fractions to int; leave everything else alone."""
    if type(value) is int:  # skips Fraction's ABC isinstance check
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return value
    if isinstance(value, bool):  # bools are ints but make no sense here
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return value
    raise TypeError(f"not an exact rational: {value!r}")


def parse_scalar(text) -> Scalar:
    """Parse an int, an int-valued string, or a ``"num/den"`` string."""
    if type(text) is int:  # the common JSON number; bools fail this test
        return text
    if isinstance(text, bool):
        raise ValueError("bool is not a scalar")
    if isinstance(text, str):
        body = text.strip()
        if "/" in body:
            num_s, den_s = body.split("/", 1)
            num, den = int(num_s), int(den_s)
            if den == 0:
                raise ValueError(f"zero denominator in {text!r}")
            return normalize(Fraction(num, den))
        return int(body)
    if isinstance(text, float):
        raise ValueError(f"floats are not accepted as scalars: {text!r}")
    raise ValueError(f"cannot parse scalar from {text!r}")


def format_scalar(value: Scalar):
    """Canonical JSON value: int stays a number, fractions become 'num/den'."""
    value = normalize(value)
    if isinstance(value, int):
        return value
    return scalar_text(value)


def scalar_text(value: Scalar) -> str:
    """The canonical form as text, exact at any size: ``str(Decimal(n))``
    is not bound by the int-to-str digit limit, which guards parsing."""
    n, d = num_den(normalize(value))
    return str(Decimal(n)) if d == 1 else f"{Decimal(n)}/{Decimal(d)}"


def as_fraction(value: Scalar) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def num_den(value: Scalar) -> tuple[int, int]:
    """(numerator, denominator) with positive denominator."""
    if isinstance(value, int):
        return value, 1
    return value.numerator, value.denominator
