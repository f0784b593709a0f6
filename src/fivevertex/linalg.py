"""The package's one dense matrix type, with exact and complex determinants.

``Matrix`` is a row-major matrix over duck-typed scalars (ints, Fractions,
field elements, complex).  Its product, sum, difference, scaling, ``apply``
and equality (exact for exact entries; for floats within ``COMPLEX_EQ_TOL``
times the larger of 1 and the largest entry of either matrix) serve every
layer, including the sector oracle, whose ``sector.SectorOperator`` is a
``Matrix`` with particle-number labels.  Products and ``apply`` skip exact-zero
entries (an inline ``x == 0`` test; sector operators are mostly zeros) and
add the remaining terms in the order of the plain triple loop; an entry with
no nonzero term is the int 0.  Any dimension may be zero: a product with a
zero inner dimension is the zero matrix of the outer shape, which is how an
operator that leaves the sectors 0..M acts.

Exact determinants use fraction-free (Bareiss) one-step elimination, which
keeps intermediate growth polynomial for the large rational entries produced
by a(u) = u^M and d(u) = (alpha*u - 1/u)^M at M around 8.  Its divisions are
exact: ``//`` when every entry is an int, ``scalars.exact_div`` otherwise,
which on polynomial-ring entries is the ring's exact quotient.  Complex
determinants go through LAPACK's partially pivoted LU via ``numpy``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import floordiv

import numpy as np

from .partitions import _require_int
from .scalars import COMPLEX_EQ_TOL, exact_div, is_inexact, is_zero


class Matrix:
    """Minimal dense row-major matrix over duck-typed scalars."""

    __slots__ = ("data", "rows", "cols")

    def __init__(self, data, shape=None):
        self.data = [list(row) for row in data]
        if shape is not None:
            self.rows, self.cols = shape
            if len(self.data) != self.rows or any(len(r) != self.cols for r in self.data):
                raise ValueError("data does not match shape")
        else:
            self.rows = len(self.data)
            self.cols = len(self.data[0]) if self.data else 0
            if any(len(r) != self.cols for r in self.data):
                raise ValueError("ragged rows")

    @classmethod
    def zeros(cls, rows, cols):
        rows, cols = _require_int("rows", rows, 0), _require_int("cols", cols, 0)
        return cls([[0] * cols for _ in range(rows)], shape=(rows, cols))

    @classmethod
    def identity(cls, n):
        n = _require_int("n", n, 0)
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, rc):
        r, c = rc
        return self.data[r][c]

    def __setitem__(self, rc, value):
        r, c = rc
        self.data[r][c] = value

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
            shape=(self.rows, self.cols),
        )

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
            shape=(self.rows, self.cols),
        )

    def scale(self, s):
        return Matrix([[s * a for a in row] for row in self.data], shape=(self.rows, self.cols))

    def __mul__(self, other):
        """Matrix product, or scaling by a scalar ``other``."""
        if not isinstance(other, Matrix):
            return self.scale(other)
        inner, cols = self.cols, other.cols
        if other.rows != inner:
            raise ValueError("shape mismatch in product")
        # each row of ``other`` once as its nonzero (column, entry) pairs
        b = [[(c, x) for c, x in enumerate(row) if not x == 0] for row in other.data]
        out = []
        for ra in self.data:
            row = [0] * cols
            for a, bk in zip(ra, b):
                if a == 0:
                    continue
                for c, x in bk:
                    row[c] = row[c] + a * x
            out.append(row)
        return Matrix(out, shape=(self.rows, cols))

    def __rmul__(self, s):
        return self.scale(s)

    def apply(self, vec):
        """The product with a column vector given as a list."""
        cols = self.cols
        if len(vec) != cols:
            raise ValueError("vector length does not match the column count")
        nonzero = [(i, x) for i, x in enumerate(vec) if not x == 0]
        out = []
        for row in self.data:
            acc = 0
            for i, x in nonzero:
                a = row[i]
                if not a == 0:
                    acc = acc + a * x
            out.append(acc)
        return out

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        rational = (int, Fraction)  # as in det, these pairs skip the is_inexact tests
        tol = None  # set at the first float pair
        for ra, rb in zip(self.data, other.data):
            for a, b in zip(ra, rb):
                if type(a) in rational and type(b) in rational:
                    if a != b:
                        return False
                elif is_inexact(a) or is_inexact(b):
                    if tol is None:
                        tol = COMPLEX_EQ_TOL * max(1, self._magnitude(), other._magnitude())
                    if not is_zero(a - b, tol):
                        return False
                elif not is_zero(a - b, 0):
                    return False
        return True

    def _magnitude(self):
        """The largest |entry| (0 if there is none)."""
        return max((abs(x) for row in self.data for x in row), default=0)

    def __repr__(self):
        return f"Matrix({self.data!r})"


def det(m):
    """Determinant of a square matrix.

    Dispatch: any float/complex entry selects the LU route (partial
    pivoting, via numpy); otherwise fraction-free Bareiss elimination, which
    is exact over ints, Fractions, canonical field elements such as those
    of ``sympy.polys.fields.field`` and the elements of their polynomial
    rings, whose ``/`` is the exact quotient.  Bareiss pivots on ``x == 0``,
    so symbolic expression entries (anything with ``free_symbols``), whose
    equality is structural, raise ``TypeError``.
    """
    a = m.data if isinstance(m, Matrix) else [list(row) for row in m]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    inexact, ints = False, True
    for row in a:
        for x in row:
            if type(x) is int:  # the common exact entries, tested cheaply
                continue
            ints = False
            if type(x) is Fraction:
                continue
            if is_inexact(x):
                inexact = True
            elif hasattr(x, "free_symbols"):
                raise TypeError(
                    f"det cannot test the expression entry {x!r} for zero; pass elements "
                    "of a rational-function field from sympy.polys.fields.field instead")
    if inexact:
        return complex(np.linalg.det(np.array(a, dtype=complex)))
    return _det_bareiss([list(row) for row in a], floordiv if ints else exact_div)


def _det_bareiss(a, div):
    """Bareiss elimination; ``div`` is the exact division of the entries' ring."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if is_zero(a[k][k], 0):
            for i in range(k + 1, n):
                if not is_zero(a[i][k], 0):
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return a[0][0] * 0
        p = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = div(a[i][j] * p - a[i][k] * a[k][j], prev)
            a[i][k] = a[i][k] * 0
        prev = p
    return sign * a[n - 1][n - 1]
