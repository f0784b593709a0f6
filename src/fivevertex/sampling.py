"""Seeded rational parameter draws for the exact identity checks."""

from __future__ import annotations

from fractions import Fraction
from random import Random


def rand_fraction(rng: Random) -> Fraction:
    """A nonzero p/q with |p| <= 9 and 1 <= q <= 9."""
    while True:
        f = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if f != 0:
            return f


def distinct_square_fractions(rng: Random, count: int, avoid_squares=()) -> list:
    """Nonzero rationals with pairwise distinct squares, avoiding given squares."""
    avoid = {Fraction(a) for a in avoid_squares}
    out = []
    while len(out) < count:
        f = rand_fraction(rng)
        if f * f in avoid or any(f * f == g * g for g in out):
            continue
        out.append(f)
    return out


def norm_safe_draw(rng: Random, count: int, alpha: Fraction) -> list:
    """``distinct_square_fractions``, drawn again whole until no u has alpha*u^2 = 1.

    alpha*u^2 = 1 is the pole of ``scalarprod.norm_det``; a first draw clear
    of it is returned as is, so the seeded draws stay those of the plain call.
    """
    u = distinct_square_fractions(rng, count)
    while any(alpha * uj * uj == 1 for uj in u):
        u = distinct_square_fractions(rng, count)
    return u
