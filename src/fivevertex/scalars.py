"""Scalar helpers shared by the exact and floating arithmetic lanes.

Exact mode works with python ints, ``fractions.Fraction`` and elements of
any field whose equality is canonical, such as a rational-function field
Q(alpha, u_1, ...) that stores its elements reduced: ``x == 0`` is then a
zero test and ``a / b`` an exact quotient, so identities are literal
equalities.  Symbolic expression trees, whose ``==`` is only structural, are
not exact scalars (``linalg.det`` refuses them).  Floating mode works with
``complex``; comparisons always go through an explicit tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import numpy as np

#: default absolute tolerance for complex comparisons
COMPLEX_EQ_TOL = 1e-10

#: tolerance used to decide whether two evaluation points coincide
COINCIDENCE_TOL = 1e-12

_INEXACT = (float, complex, np.floating, np.complexfloating)


def is_inexact(x) -> bool:
    return isinstance(x, _INEXACT)


def cache_key(x):
    """``x`` as part of a cache key that only interchangeable scalars share.

    ``==`` takes 2, Fraction(2) and 2.0 as equal, and the constants of two
    rational-function fields too, though each gives results of its own type;
    the key holds the type and the parent field beside the value.  A float
    goes by its repr, which tells -0.0 from 0.0.
    """
    return type(x), getattr(x, "field", None), repr(x) if is_inexact(x) else x


def is_zero(x, tol: float = COMPLEX_EQ_TOL) -> bool:
    """Zero test: exact for exact scalars, ``|x| <= tol`` for floats."""
    if is_inexact(x):
        return abs(x) <= tol
    return x == 0


def eq(a, b, tol: float = COMPLEX_EQ_TOL) -> bool:
    return is_zero(a - b, tol)


def exact_div(a, b):
    """Division that stays in the smallest ring the operands allow."""
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise ZeroDivisionError("division by zero")  # as a / b says it
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    return a / b


def numer_denom(x):
    """(numerator, denominator) of an int, a Fraction or a rational-function field element.

    Ints for the first two; for a field element such as one of
    ``sympy.polys.fields.field``, the reduced pair of its polynomial ring.
    """
    if type(x) is int or type(x) is Fraction:
        return x.numerator, x.denominator
    return x.numer, x.denom


def cleared_field(values):
    """The field in which ``numer_denom`` clears all of ``values``, or None.

    ``Fraction`` when every value is an int or a Fraction; otherwise the one
    exact rational-function field whose elements the values are, ints and
    Fractions beside them allowed.  None for anything else: a complex value,
    elements of two fields, or of a field over an inexact domain.
    """
    field = Fraction
    for x in values:
        if type(x) is int or type(x) is Fraction:
            continue
        parent = getattr(x, "field", None)
        if (getattr(parent, "ring", None) is None or not parent.domain.is_Exact
                or field is not Fraction and field is not parent):
            return None
        field = parent
    return field


def cleared_quotient(num, den, values):
    """num / den as the arithmetic of ``values`` would give it, after ``numer_denom`` cleared them.

    A ``Fraction`` when some value is one, ``field.new`` in a rational-function
    field, and otherwise ``exact_div``: an int where it divides, and the plain
    quotient for values that were not cleared.
    """
    field = cleared_field(values)
    if field is Fraction and any(type(x) is Fraction for x in values):
        return Fraction(num, den)
    if field is not None and field is not Fraction:
        return field.new(field.ring(num), field.ring(den))
    return exact_div(num, den)


def exact_pow(x, e):
    """x^e; a negative power of an int stays exact, and of an exact zero raises."""
    if e >= 0:
        return x ** e
    if is_zero(x, 0):
        raise ZeroDivisionError("a negative power of a zero base")
    return exact_div(1, x ** -e) if isinstance(x, int) else x ** e


def rational_sqrt(x) -> Fraction:
    """Square root of a perfect-square rational, as a ``Fraction``."""
    f = Fraction(x)
    p, q = f.numerator, f.denominator
    if p < 0:
        raise ValueError("negative rational has no rational square root")
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp != p or rq * rq != q:
        raise ValueError(f"{x} is not a perfect rational square")
    return Fraction(rp, rq)
