"""Bialternant columns as short sums of closed-form terms, and their Taylor coefficients.

Every determinant column the package builds is a function of its row
variable t of the form

    f(t) = sum_i c_i t^(a_i) (A + B t)^(k_i)

with one linear factor A + B t per column and integer exponents of either
sign: Grothendieck columns z^(lam_k+N-k) (1 + beta z)^(k-1), wavefunction
columns s^(k-x_k) (alpha s - 1)^(x_k), the Cauchy kernel's exact quotient,
and polynomials.  A removable singularity never reaches this module:
callers write such a column as its exact quotient, which is a sum of this
form without the pole.

At a point of multiplicity r the confluent determinant limit needs the rows
f(t), f'(t), ..., f^(r-1)(t)/(r-1)!, the first r Taylor coefficients of f
at t.  For one term they are a binomial convolution (L = A + B t):

    [h^j] (t + h)^a (L + B h)^k = sum_{i<=j} C(a, i) t^(a-i) C(k, j-i) L^(k-j+i) B^(j-i),

with generalised binomials C(a, i) for negative a.  At a distinct point
r = 1 and this is the direct value.  Nothing is differentiated symbolically
and no pole is decided with a tolerance: a negative power of an exactly
zero base raises ``ZeroDivisionError``.  Coefficients and points may be
ints, Fractions, complex numbers or elements of an exact field.

``int_rows`` is the same convolution without division, for columns with
coefficients cleared to ints or to elements of a field's polynomial ring, at
a point t = p/q that is an int, a Fraction or an element of that field: each
row is a list of numerators over one row denominator, built from
nonnegative powers of p, q and the numerator and denominator of A + B t and
of B, so no ``Fraction`` or field element is formed and no gcd is taken per
entry.  The numerators are ints when every input is rational and
polynomial-ring elements otherwise.  ``confluent`` takes it for every exact
table (see there).  ``taylor`` serves what is left: inexact points, such as
the float lane's complex scalars and numpy root arrays, the Taylor
coefficients in the label of ``det_ratio_labelled``'s columns, and the
generic path against which the tests check the cleared lane.

``Poly`` is the dense polynomial from which ``scalarprod`` builds its
scalar-product columns: products of linear factors, and the exact quotient
by s - u^2 of a numerator that vanishes at s = u^2.
"""

from __future__ import annotations

from math import comb, gcd

from .scalars import cache_key, exact_div, exact_pow, is_inexact, numer_denom


class Poly:
    """Dense univariate polynomial, ascending coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        self.c = list(coeffs)

    def __add__(self, other):
        n = max(len(self.c), len(other.c))
        a = self.c + [0] * (n - len(self.c))
        b = other.c + [0] * (n - len(other.c))
        return Poly([x + y for x, y in zip(a, b)])

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly([other * x for x in self.c])
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, x in enumerate(self.c):
            for j, y in enumerate(other.c):
                out[i + j] = out[i + j] + x * y
        return Poly(out)

    __rmul__ = __mul__

    def quotient(self, root):
        """Quotient by (t - root) of a polynomial that vanishes at root.

        Synthetic division from the leading coefficient, or from the constant
        term for an inexact root with |root| > 1, so that float rounding is
        damped, not amplified, by powers of root; an exact root has no |root|.
        """
        c, out, acc = self.c, [], 0
        if not is_inexact(root) or abs(root) <= 1:
            for x in reversed(c[1:]):
                acc = acc * root + x
                out.append(acc)
            return Poly(out[::-1])
        for x in c[:-1]:
            acc = exact_div(acc - x, root)
            out.append(acc)
        return Poly(out)

    def column(self):
        """The polynomial as a column, one monomial term per coefficient."""
        return RatFunc([(c, i, 0) for i, c in enumerate(self.c)])


class RatFunc:
    """One column sum_i c_i t^(a_i) (A + B t)^(k_i); ``terms`` holds (c_i, a_i, k_i)."""

    __slots__ = ("terms", "lin")

    def __init__(self, terms, lin=(1, 0)):
        self.terms = list(terms)
        self.lin = lin


def _binom(e, i):
    """Generalised binomial C(e, i) for any integer e and i >= 0."""
    if e >= 0:
        return comb(e, i) if i <= e else 0
    return (-1) ** i * comb(i - e - 1, i)


def _series(x, b, e, r):
    """Taylor coefficients of (x + b h)^e in h, orders 0 .. r-1."""
    out = []
    for i in range(r):
        c = _binom(e, i)
        out.append(c * exact_pow(x, e - i) * b ** i if c else 0)
    return out


def taylor(columns, t, r: int = 1):
    """The first r Taylor coefficients at t of every column, as r rows.

    Row i holds f^(i)(t)/i! for each column f; with r = 1 that is the single
    row of values f(t).  Powers of t are shared between terms and columns,
    and powers of A + B t between columns whose lins are interchangeable
    (``scalars.cache_key``), so each column's entries are the ones it has
    alone, in value and type.  With r = 1 and no negative power, t may also
    be a numpy array of complex points; each row entry is then an array of
    values of that shape (an empty column gives zeros).
    """
    zero = t * 0  # a zero of the point's type, as an exact sum of zero terms would give
    t_memo, lin_memo = {}, {}
    rows = [[] for _ in range(r)]
    for col in columns:
        key = tuple(map(cache_key, col.lin))
        entry = lin_memo.get(key)
        if entry is None:
            a_, b_ = col.lin
            entry = lin_memo[key] = (a_ + b_ * t, b_, {})
        base, b, l_memo = entry
        if r == 1:  # the plain value: the convolution's extra exact arithmetic is slow
            total = zero
            for i, (c, a, k) in enumerate(col.terms):
                v = t_memo.get(a)
                if v is None:
                    v = t_memo[a] = exact_pow(t, a)
                if k:
                    w = l_memo.get(k)
                    if w is None:
                        w = l_memo[k] = exact_pow(base, k)
                    v = v * w
                if c != 1:
                    v = c * v
                total = total + v if i else v
            rows[0].append(total)
            continue
        coeffs = [zero] * r
        for c, a, k in col.terms:
            ts = t_memo.get(a)
            if ts is None:
                ts = t_memo[a] = _series(t, 1, a, r)
            ls = l_memo.get(k)
            if ls is None:
                ls = l_memo[k] = _series(base, b, k, r)
            for j in range(r):
                acc = zero
                for i in range(j + 1):
                    if ts[i] and ls[j - i]:
                        acc = acc + ts[i] * ls[j - i]
                coeffs[j] = coeffs[j] + c * acc
        for j in range(r):
            rows[j].append(coeffs[j])
    return rows


def int_rows(columns, t, r: int = 1):
    """``taylor`` without division: r rows of numerators and one denominator per row.

    The columns' coefficients are ints, t and every ``lin`` ints or
    Fractions, and then the numerators and denominators are ints; or some of
    them are elements of one rational-function field (the coefficients of its
    polynomial ring), the rest rational, and then they are elements of that
    ring.  Returns ``(rows, dens)`` with rows[i][k] / dens[i]
    equal to ``taylor(columns, t, r)[i][k]``.  With t = p/q, A + B t = Ln/Ld
    and B = Bn/Bd, every term of an entry is a cleared coefficient times
    p^e q^-e Ln^f Ld^-f Bn^g Bd^-g; the row denominator
    p^-lo q^hi Ln^-flo Ld^fhi Bd^ghi, over the exponent ranges of the row
    (widened to hold 0), leaves only nonnegative powers in the row.  Ln/Ld
    is reduced by a gcd only in the ints; over a polynomial ring every entry
    of a row is then a form of one degree in (p, q), which is what lets
    ``confluent`` divide the Vandermonde numerator out exactly.  As in
    ``taylor``, a negative power of an exactly zero t or A + B t raises.
    """
    p, q = numer_denom(t)
    lins, bases, col_lin = [], [], []  # lins by position: a Fraction's hash is slow
    for col in columns:
        for i, lin in enumerate(lins):
            if lin is col.lin or lin == col.lin:
                break
        else:
            i = len(lins)
            lins.append(col.lin)
            (an, ad), (bn, bd) = map(numer_denom, col.lin)
            n, d = an * bd * q + bn * ad * p, ad * bd * q
            if type(n) is int and type(d) is int:
                g = gcd(n, d)
                n, d = n // g, d // g
            bases.append((n, d, bn, bd))
        col_lin.append(i)
    rows, dens = [], []
    for j in range(r):
        # each column's terms of the convolution as (coefficient, e, lin, f, g)
        lo = hi = 0
        spans = [[0, 0, 0] for _ in lins]  # lo and hi of f, hi of g
        cells = []
        for col, li in zip(columns, col_lin):
            span, zero_l = spans[li], bases[li][0] == 0
            cell = []
            for c, a, k in col.terms:
                for i in range(j + 1):
                    m = _binom(a, i) * _binom(k, j - i) if j else 1
                    if not m:
                        continue
                    e, f = a - i, k - j + i
                    if e < 0 and p == 0 or f < 0 and zero_l:
                        raise ZeroDivisionError("a negative power of a zero base")
                    if e < lo:
                        lo = e
                    elif e > hi:
                        hi = e
                    if f < span[0]:
                        span[0] = f
                    elif f > span[1]:
                        span[1] = f
                    if j - i > span[2]:
                        span[2] = j - i
                    cell.append((c * m, e, li, f, j - i))
            cells.append(cell)
        lin_dens = [ln ** -flo * ld ** fhi * bd ** ghi
                    for (flo, fhi, ghi), (ln, ld, _, bd) in zip(spans, bases)]
        den = p ** -lo * q ** hi
        for d in lin_dens:
            den *= d
        t_memo, l_memo, row = {}, {}, []
        for cell in cells:
            total = 0
            for c, e, li, f, g in cell:
                x = t_memo.get(e)
                if x is None:
                    x = t_memo[e] = p ** (e - lo) * q ** (hi - e)
                y = l_memo.get((li, f, g))
                if y is None:
                    (flo, fhi, ghi), (ln, ld, bn, bd) = spans[li], bases[li]
                    y = ln ** (f - flo) * ld ** (fhi - f) * bn ** g * bd ** (ghi - g)
                    for i, d in enumerate(lin_dens):  # the row denominator's other lins
                        if i != li:
                            y *= d
                    l_memo[li, f, g] = y
                total += c * x * y
            row.append(total)
        rows.append(row)
        dens.append(den)
    return rows, dens
