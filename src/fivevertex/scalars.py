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
from math import isqrt, lcm
from numbers import Integral

import numpy as np

#: default absolute tolerance for complex comparisons
COMPLEX_EQ_TOL = 1e-10

#: tolerance used to decide whether two evaluation points coincide
COINCIDENCE_TOL = 1e-12

_INEXACT = (float, complex, np.floating, np.complexfloating)


def is_inexact(x) -> bool:
    return isinstance(x, _INEXACT)


def plain_int(x):
    """``x`` as a Python int when it is integral (a numpy int, say), else ``x`` itself.

    A numpy int is no exact scalar: ``cleared_type`` takes it for inexact,
    and its quotients are floats.  Integral inputs are taken as ints where a
    lane is decided.
    """
    return int(x) if isinstance(x, Integral) else x


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


def cleared_type(values):
    """The type of an exact quotient whose inputs are ``values``: the exact lane's one rule.

    The one exact rational-function field whose elements some values are,
    ints and Fractions beside them allowed; otherwise ``Fraction`` when some
    value is a Fraction; otherwise ``int``, which ``exact_div`` keeps where
    the quotient is integral.  ``numer_denom`` clears all of ``values`` in
    that type.  None for anything else: a complex value, or an element of a
    field over an inexact domain.  Elements of two fields are refused by name.
    """
    field, fraction = None, False
    for x in values:
        if type(x) is Fraction:
            fraction = True
        elif type(x) is not int:
            parent = getattr(x, "field", None)
            if getattr(parent, "ring", None) is None or not parent.domain.is_Exact:
                return None
            if field is not None and field is not parent:
                raise ValueError(f"elements of two fields: {field} and {parent}")
            field = parent
    return field if field is not None else Fraction if fraction else int


def cleared(values):
    """(nums, den): nums[i] / den == values[i], with den the lcm of the values' denominators.

    Ints when every value is an int or a Fraction; elements of the polynomial
    ring of the values' field otherwise, with the lcm taken in that ring.
    """
    kind = cleared_type(values)
    if kind is int:
        return list(values), 1
    if kind is Fraction:
        den = lcm(*(x.denominator for x in values))
        return [x.numerator * (den // x.denominator) for x in values], den
    ring, parts = kind.ring, [numer_denom(x) for x in values]
    den = ring.one
    for _, d in parts:
        den = den.lcm(ring(d))
    return [n * den.exquo(ring(d)) for n, d in parts], den


def cleared_quotient(num, den, kind):
    """num / den in ``kind``, a ``cleared_type``; the plain ``exact_div`` for None.

    num and den are ints for an int or a Fraction kind, and ints or elements
    of the field's polynomial ring for a field kind: the numerators that
    ``cleared`` gives the same inputs whose ``cleared_type`` is ``kind``.
    """
    if kind is Fraction:
        return Fraction(num, den)
    if kind is None or kind is int:
        return exact_div(num, den)
    return kind.new(kind.ring(num), kind.ring(den))


def in_type(x, kind):
    """``x`` in ``kind``, the ``cleared_type`` of its inputs: an integral product of
    Fractions on the int lane, ``Fraction(n, 1)``, is the int n; anything else is ``x``."""
    if kind is int and type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def exact_pow(x, e):
    """x^e; a negative power of an int stays exact, and of an exact zero raises."""
    if e >= 0:
        return x ** e
    if is_zero(x, 0):
        raise ZeroDivisionError("a negative power of a zero base")
    return exact_div(1, x ** -e) if isinstance(x, int) else x ** e


def as_number(name, x):
    """``x`` as a number: a field constant as its value, a non-constant element refused."""
    if getattr(getattr(x, "field", None), "ring", None) is None:
        return x
    if (value := x.as_expr()).free_symbols:
        raise ValueError(f"{name} must be a number or a constant of its field, got {name} = {x}")
    return Fraction(int(value.p), int(value.q)) if value.is_Rational else complex(value)


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
