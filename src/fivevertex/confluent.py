"""Confluent determinant ratios of bialternant columns.

Evaluates

    lim  det_N[ f_k(t_j) ] / prod_{j<k} (t_k - t_j)

for columns f_k given as ``ratfunc.RatFunc`` term sums, as groups of points
t_j collide: a group of r coincident points t contributes the Taylor rows
f(t), f'(t), ..., f^{(r-1)}(t)/(r-1)!, the closed-form coefficients of
``ratfunc.taylor``, and the within-group Vandermonde factors cancel, leaving
the across-group factor prod_{g<h} (t_h - t_g)^{r_g r_h}.  With all points
distinct every group is one point and this is the plain determinant ratio.
Every determinant ratio of the package goes through ``det_ratio_columns``
or, for a caller that keeps its table, ``PointTable``: G and Gbar, the
wavefunctions, the weighted summation determinants and, via
``det_ratio_labelled``, the scalar products and the Cauchy kernel.

A ``PointTable`` holds the point side of one set of columns: the grouping,
the cross factor and the rows of every column, all taken at construction,
and each ``ratios`` pick of its columns costs one determinant.
``det_ratio_columns`` is a table of its columns picked once; ``wavefunc``
keeps the table of all columns (k, x_k) of a sector, so one configuration
at a time costs one determinant.

Columns may themselves depend on a label t_k and be divided by the label
Vandermonde prod_{j<k} (t_k - t_j) as well (``det_ratio_labelled``: the
scalar-product kernel K(s, u^2), the Cauchy kernel in z labelled by y).  A
group of r coincident labels contributes the r Taylor columns in the label,
and the across-group factor is the same prod_{g<h} (t_h - t_g)^{r_g r_h}.
Rows and columns may be confluent at once.  Coincidence is decided by exact
equality for exact scalars and by ``COINCIDENCE_TOL`` for complex ones.

Cleared lane.  Fraction-free elimination pays off on the entries of a
ring with exact division (Bareiss, Math. Comp. 22 (1968) 565).  Every exact
table takes this lane: one ``scalars.cleared_type`` over its points, lins
and coefficients names the ring, the ints, or the polynomial ring of the one
exact rational-function field whose elements some inputs are (criterion 3's
Q(alpha, u) is built over ZZ, so that ring has int coefficients); elements
of two fields are refused by name.  Each column's coefficient denominators
are cleared once (``scalars.cleared``, by the lcm in that ring),
``ratfunc.int_rows`` gives the rows of all columns as numerators over one
denominator per row, once per point group, and the cross factor
prod (p_h q_g - p_g q_h) / (q_h q_g) is taken in the same ring once.  Per
pick ``linalg.det`` runs Bareiss on the sliced matrix, whose divisions stay
exact in the ring without a gcd, and one ``scalars.cleared_quotient`` ends the
ratio in the table's one type, the ``cleared_type`` of all its inputs (for
``det_ratio_columns``, its own): an element of the field if one of them is,
else a Fraction if one of them is, else an int where the ratio is integral.
At distinct points that are all field elements the cross numerator divides
the alternant's numerator exactly and is divided out first, so ``field.new``
cancels only the rows' own denominators (powers of u for the wavefunction
columns).  Fractions and field elements are stored reduced, so the value and
its type fix the ``repr``; ``det_ratio_labelled`` divides it by the labels'
cross factor.  The generic ``taylor`` + Bareiss path serves inexact inputs alone.
"""

from __future__ import annotations

from itertools import chain

from .linalg import det
from .ratfunc import RatFunc, int_rows, taylor
from .scalars import (COINCIDENCE_TOL, cleared, cleared_quotient, cleared_type, exact_div,
                      is_inexact, numer_denom)


def group_points(points):
    """Group coincident points by first occurrence; returns [(value, count)]."""
    groups, inexact = [], []  # each group's exactness beside it, tested once per point
    for p in points:
        p_inexact = is_inexact(p)
        for i, (q, cnt) in enumerate(groups):
            if abs(p - q) <= COINCIDENCE_TOL if p_inexact or inexact[i] else p == q:
                groups[i] = (q, cnt + 1)
                break
        else:
            groups.append((p, 1))
            inexact.append(p_inexact)
    return groups


def _cross_factor(groups):
    """prod_{g<h} (t_h - t_g)^(r_g r_h) over the groups [(t, r)]."""
    cross = 1
    for h in range(1, len(groups)):
        th, rh = groups[h]
        for g in range(h):
            tg, rg = groups[g]
            gap = th - tg
            cross = cross * (gap if rg * rh == 1 else gap ** (rg * rh))
    return cross


def _cleared_cross(groups):
    """``_cross_factor`` of the cleared lane's groups as (numerator, denominator)."""
    parts = [numer_denom(t) for t, _ in groups]
    num = den = 1
    for h in range(1, len(groups)):
        (hn, hd), rh = parts[h], groups[h][1]
        for g in range(h):
            (gn, gd), e = parts[g], groups[g][1] * rh
            num *= (hn * gd - gn * hd) ** e
            den *= (hd * gd) ** e
    return num, den


def _cleared_lane(columns, groups):
    """The cleared lane's rows of exact ``columns`` at ``groups``: (rows, den, col_dens).

    Row entry [i][k] over den * col_dens[k] is the generic path's entry, with
    den the product of the row denominators and col_dens[k] the lcm of column
    k's coefficient denominators (``scalars.cleared``).
    """
    cleared_columns, col_dens = [], []
    for col in columns:
        nums, d = cleared([c for c, _, _ in col.terms])
        terms = [(n, a, k) for n, (_, a, k) in zip(nums, col.terms)]
        cleared_columns.append(RatFunc(terms, col.lin))
        col_dens.append(d)
    rows, den = [], 1
    for t, count in groups:
        block, dens = int_rows(cleared_columns, t, count)
        rows.extend(block)
        for d in dens:
            den *= d
    return rows, den, col_dens


class PointTable:
    """One set of columns at one point set, for the determinant ratios of picks of them.

    The grouping, the cross factor and the rows of every column are taken
    at construction: on the cleared lane as numerators with their
    denominators, off it (inexact inputs) by one ``taylor`` call per point
    group.  Each column is held as its entries, one per row.  A kept table
    answers each later pick at one determinant.  Every pick's ratio has the
    table's type, the ``scalars.cleared_type`` of the points and of every
    column's lin and coefficients, whichever columns the pick takes.
    """

    def __init__(self, columns, points):
        own = [[*col.lin, *(c for c, _, _ in col.terms)] for col in columns]
        kind = cleared_type(chain(points, *own))
        self.groups = group_points(points)
        lane = kind is not None and _cleared_lane(columns, self.groups)
        self.lane = bool(lane)
        if self.lane:
            rows, self.den, self.col_dens = lane
            self.cross_num, self.cross_den = _cleared_cross(self.groups)
            self.kind = kind
            # at distinct field points each entry of a row is a form of one degree in the
            # point's (numerator, denominator), so the alternant is a multiple of
            # prod (p_h q_g - p_g q_h) in the polynomial ring
            self.exact_cross = all(count == 1 and getattr(t, "field", None) is kind
                                   for t, count in self.groups)
        else:
            rows = []
            for t, count in self.groups:
                rows.extend(taylor(columns, t, count))
            self.cross = _cross_factor(self.groups)
        self.cols = list(zip(*rows))

    def ratios(self, picks):
        """The determinant ratio of each pick, a list of one index into ``columns`` per point.

        Per pick only the slice of the table's columns, one ``linalg.det``
        and, on the cleared lane, one ``scalars.cleared_quotient`` remain.
        """
        if not self.groups:
            return [1] * len(picks)
        cols = self.cols
        if self.lane:
            out = []
            for pick in picks:
                num, den = det(list(zip(*(cols[k] for k in pick)))), self.den
                if self.exact_cross:
                    num = exact_div(num, self.cross_num)
                else:
                    den = den * self.cross_num
                for k in pick:
                    den *= self.col_dens[k]
                out.append(cleared_quotient(num * self.cross_den, den, self.kind))
            return out
        return [exact_div(det(list(zip(*(cols[k] for k in pick)))), self.cross)
                for pick in picks]


def det_ratio_columns(columns, points):
    """det[columns[k](points[j])] / prod_{j<k}(points[k] - points[j]).

    ``columns`` are ``ratfunc.RatFunc`` term sums in the row variable; a
    point of multiplicity r gets its first r Taylor coefficients as rows.
    One ``PointTable`` of the columns, picked once.
    """
    if len(columns) != len(points):
        raise ValueError("need as many columns as points")
    return PointTable(columns, points).ratios([range(len(columns))])[0]


def det_ratio_labelled(column_at, labels, points, fixed=()):
    """``det_ratio_columns`` of labelled columns, also over prod_{j<k}(labels[k] - labels[j]).

    ``column_at(t, r)`` returns the first r Taylor coefficients in the label
    t of the labelled column, each a ``ratfunc.RatFunc`` in the row variable;
    a label of multiplicity r is asked for all r at once.  The unlabelled
    columns ``fixed`` follow the labelled ones.
    """
    groups = group_points(labels)
    columns = []
    for t, count in groups:
        columns.extend(column_at(t, count))
    return exact_div(det_ratio_columns(columns + list(fixed), points), _cross_factor(groups))


def sign_pairs(n: int) -> int:
    """(-1)^(n(n-1)/2): converts prod_{j<k}(p_k - p_j) to prod_{j<k}(p_j - p_k)."""
    return -1 if (n * (n - 1) // 2) % 2 else 1
