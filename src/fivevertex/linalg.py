"""Dense matrices over a generic scalar, with exact and complex determinants.

Exact determinants use fraction-free (Bareiss) one-step elimination, which
keeps intermediate growth polynomial for the large rational entries produced
by a(u) = u^M and d(u) = (alpha*u - 1/u)^M at M around 8.  Complex
determinants go through LAPACK's partially pivoted LU via ``numpy``.
"""

from __future__ import annotations

import numpy as np

from .scalars import exact_div, is_inexact, is_zero


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
        return cls([[0] * cols for _ in range(rows)], shape=(rows, cols))

    @classmethod
    def identity(cls, n):
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

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s):
        return Matrix([[s * a for a in row] for row in self.data], shape=(self.rows, self.cols))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return Matrix(mat_mul(self.data, other.data, self.cols), shape=(self.rows, other.cols))
        return self.scale(other)

    def __rmul__(self, s):
        return self.scale(s)

    def transpose(self):
        return Matrix([[self.data[r][c] for r in range(self.rows)] for c in range(self.cols)],
                      shape=(self.cols, self.rows))

    def kron(self, other):
        out = []
        for ra in self.data:
            for rb in other.data:
                out.append([a * b for a in ra for b in rb])
        return Matrix(out, shape=(self.rows * other.rows, self.cols * other.cols))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(
            is_zero(a - b, 0) if not (is_inexact(a) or is_inexact(b)) else is_zero(a - b)
            for ra, rb in zip(self.data, other.data)
            for a, b in zip(ra, rb)
        )

    def __repr__(self):
        return f"Matrix({self.data!r})"

    def det(self):
        return det(self)


def mat_mul(a, b, inner):
    """Product of list-of-list matrices; handles zero-dimensional factors."""
    if inner and len(b) != inner:
        raise ValueError("shape mismatch in product")
    cols = len(b[0]) if b else 0
    out = []
    for ra in a:
        row = []
        for c in range(cols):
            acc = 0
            for k in range(inner):
                acc = acc + ra[k] * b[k][c]
            row.append(acc)
        out.append(row)
    return out


def mat_solve(a, b):
    """Solve A X = B exactly by Gaussian elimination (A square, entries exact)."""
    n = len(a)
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    width = n + (len(b[0]) if b else 0)
    for k in range(n):
        piv = next((i for i in range(k, n) if not is_zero(aug[i][k], 0)), None)
        if piv is None:
            raise ZeroDivisionError("singular system")
        if piv != k:
            aug[k], aug[piv] = aug[piv], aug[k]
        pv = aug[k][k]
        for j in range(k, width):
            aug[k][j] = exact_div(aug[k][j], pv)
        for i in range(n):
            if i == k or is_zero(aug[i][k], 0):
                continue
            f = aug[i][k]
            for j in range(k, width):
                aug[i][j] = aug[i][j] - f * aug[k][j]
    return [row[n:] for row in aug]


def det(m):
    """Determinant of a square matrix.

    Dispatch: any float/complex entry selects the LU route (partial
    pivoting, via numpy); otherwise fraction-free Bareiss elimination, which
    is exact over ints, Fractions and canonical field elements such as those
    of ``sympy.polys.fields.field``.  Bareiss pivots on ``x == 0``, so symbolic
    expression entries (anything with ``free_symbols``), whose equality is
    structural, raise ``TypeError``.
    """
    a = m.data if isinstance(m, Matrix) else [list(row) for row in m]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    inexact = False
    for row in a:
        for x in row:
            if is_inexact(x):
                inexact = True
            elif hasattr(x, "free_symbols"):
                raise TypeError(
                    f"det cannot test the expression entry {x!r} for zero; pass elements "
                    "of a rational-function field from sympy.polys.fields.field instead")
    if inexact:
        return complex(np.linalg.det(np.array(a, dtype=complex)))
    return _det_bareiss([list(row) for row in a])


def _det_bareiss(a):
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
                a[i][j] = exact_div(a[i][j] * p - a[i][k] * a[k][j], prev)
            a[i][k] = a[i][k] * 0
        prev = p
    return sign * a[n - 1][n - 1]
