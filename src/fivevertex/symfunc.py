"""Schur, Grothendieck and dual Grothendieck polynomials as determinant ratios.

    s_lambda(z)          = det[ z_j^(lam_k+N-k) ] / prod_{j<k}(z_j - z_k)
    G_lambda(z; beta)    = det[ z_j^(lam_k+N-k) (1+beta z_j)^(k-1) ] / prod_{j<k}(z_j - z_k)
    Gbar_lambda(z; beta) = det[ z_j^(lam_k+N-k) (1+beta/z_j)^(1-k) ] / prod_{j<k}(z_j - z_k)

beta = 0 reduces all three to the Schur polynomial.  Each column is one
closed-form term z^a (A + B z)^k (``ratfunc.RatFunc``): at distinct
variables it is evaluated directly, and a variable repeated r times gets the
column's first r Taylor coefficients as rows of the confluent determinant
limit.  This is what makes z -> (1,...,1) limits such as
G_lambda(1^N; -1) = 1 computable directly.

``grothendieck_eval`` and ``dual_grothendieck_eval`` are the exact lane for
one partition at one point set: the parts are checked, then for the dual a
zero variable and a pole z_j + beta = 0, and the N columns of the partition
go to one ``confluent.det_ratio_columns`` call.  They are also the
bialternant oracle of the branching lanes below.

``bialternants`` is the complex float lane for one partition at many
points: its (S, N, N) bialternant matrices at the rows of an (S, N) array go
through ``stacked_ratio``, one stacked LU divided by the row Vandermondes,
which ``tasep.Spectrum``'s window form factors share.  The scalar evaluators
are its exact-lane oracle.

``grothendieck_box`` is the float lane for the whole m^N box at many points.
Each row of the lattice adds one spectral parameter, so G branches one
variable at a time over interlacing partitions mu < lam, lam_(i+1) <= mu_i <= lam_i
(Buch's set-valued tableaux taken row by row, Acta Math. 189 (2002) 37):

    G_lam(z_1..z_n) = sum_(mu<lam) G_mu(z_1..z_(n-1)) z_n^(|lam|-|mu|) (1+beta z_n)^r,
        r = #{i : mu_i > lam_(i+1)}.

``box_plan`` lays out the interlacing edges once per (m, N), memoized with
read-only arrays, and each variable is one gather, one multiply and one
``np.add.reduceat`` over them: no determinant and no division by a
Vandermonde.  The sums run in
``np.clongdouble`` and are rounded to complex once at the end: they add
tableau monomials, which cancel at Bethe roots, and in complex128 they lose
up to 8.8e-13 relative to a set's largest value at (12,9).  Where
``np.clongdouble`` is 80-bit extended (eps 1.1e-19, x86 Linux) the box is
more accurate than the stacked LU; where it is plain double, it is not.

Every dual value of the box lanes is the one primal branching taken at
``box_plan``'s permutation lam -> lam^c, lam^c_i = m - lam_(N+1-i), by the
analogue on the m^N box of s_lam(1/z) (prod z)^m = s_lam^c(z) (Macdonald,
Symmetric Functions and Hall Polynomials, 2nd ed., 1995, Ch. I):
Gbar_lam(1/z; beta) (prod_j z_j)^m prod_j (1+beta z_j)^(N-1) = G_lam^c(z; beta).

``grothendieck_box_cleared`` is the exact lane for the whole m^N box at one
point set, as the Cauchy and summation sums over a box need: the same passes
on an object array.  At ints, Fractions and elements of one exact
rational-function field, each variable's weights are cleared to numerators
(ints, or polynomials of the field's ring) over one common denominator per
box, so a sum over the box is one dot product and one division at the end.
"""

from __future__ import annotations

from functools import cache
from math import comb

import numpy as np

from .confluent import det_ratio_columns, sign_pairs
from .partitions import Partition, _require_int, box_parts, box_rank
from .ratfunc import RatFunc
from .scalars import COINCIDENCE_TOL, cleared_type, exact_div, is_zero, numer_denom, plain_int

# the most entries, rows * edges, of one pass of ``grothendieck_box``: its
# temporaries stay near 1 MB whatever the box (larger chunks measured slower)
_BOX_CHUNK = 1 << 15


def _parts(lam, n):
    """The parts of ``lam``, padded with zeros to n; a tuple must be a partition."""
    if isinstance(lam, Partition):
        parts = tuple(lam.parts)
    else:
        parts = tuple(lam)
        if any(p < 0 for p in parts) or any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"lam must have nonnegative, weakly decreasing parts, got {parts}")
    if len(parts) > n:
        raise ValueError(f"partition has {len(parts)} parts but only {n} variables")
    return parts + (0,) * (n - len(parts))


def schur_eval(lam, z):
    """Schur polynomial s_lambda(z) via the bialternant ratio."""
    return grothendieck_eval(lam, z, 0)


def grothendieck_eval(lam, z, beta):
    """Grothendieck polynomial G_lambda(z; beta)."""
    return _bialternant(lam, z, beta, False)


def dual_grothendieck_eval(lam, z, beta):
    """Dual Grothendieck polynomial Gbar_lambda(z; beta); needs z_j != 0."""
    return _bialternant(lam, z, beta, True)


def _refuse_dual_poles(z, beta):
    """Refuse a zero variable and, for N >= 2, name a pole z_j + beta = 0 of Gbar(z; beta)."""
    if any(is_zero(zj, 0) for zj in z):
        raise ZeroDivisionError("dual Grothendieck polynomial needs nonzero variables")
    # z^(lam_k+N-k) (1+beta/z)^(1-k) = z^(lam_k+N-1) (z+beta)^(1-k): for N >= 2 the
    # column k = 1 has a pole at z + beta = 0; at N = 1 the point is regular
    if len(z) > 1:
        for j, zj in enumerate(z, 1):
            if is_zero(zj + beta, 0):
                raise ZeroDivisionError(f"dual Grothendieck pole at z_{j} + beta = 0")


def _bialternant(lam, z, beta, dual):
    """G_lambda(z; beta), or Gbar_lambda with ``dual``: the parts are checked first, then
    the dual's poles, and the N columns go to one ``confluent.det_ratio_columns``."""
    z, beta = [plain_int(x) for x in z], plain_int(beta)
    n = len(z)
    parts = _parts(lam, n)
    if dual:
        _refuse_dual_poles(z, beta)
        lin = (beta, 1)
    else:
        lin = (1, beta)
    columns = [RatFunc([(1, parts[k] + n - 1, -k) if dual else (1, parts[k] + n - 1 - k, k)],
                       lin) for k in range(n)]
    ratio = det_ratio_columns(columns, z)
    return ratio if sign_pairs(n) > 0 else -ratio


def stacked_ratio(matrices, z) -> np.ndarray:
    """det(matrices[s]) / prod_(j<k)(z_sj - z_sk) at every row z_s of an (S, N) array: one
    stacked LU over the (S, N, N) ``matrices``."""
    return np.linalg.det(matrices) / np.prod(_gaps(z), axis=1)


@cache
def _pair_indices(n):
    """``np.triu_indices(n, 1)``, the index pairs j < k of n variables; built once per n,
    read-only."""
    pairs = np.triu_indices(n, 1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def _gaps(z):
    """z_sj - z_sk for j < k at the rows of an (S, N) array; ``stacked_ratio`` takes no
    confluent limit, so variables of a row that coincide within ``COINCIDENCE_TOL`` raise."""
    j, k = _pair_indices(z.shape[1])
    gaps = z[:, j] - z[:, k]
    if np.any(np.abs(gaps) <= COINCIDENCE_TOL):
        raise ValueError("coincident variables need the confluent scalar evaluators")
    return gaps


def bialternants(z, beta, lam) -> np.ndarray:
    """G_lam(z_s; beta) at every row z_s of an (S, N) array: one ``stacked_ratio`` of the
    matrices z_sj^(lam_k+N-1-k) (1 + beta z_sj)^k, k from 0, with the refusals of ``_gaps``."""
    z = np.asarray(z, dtype=complex)
    n = z.shape[1]
    k = np.arange(n)
    exps = np.array(_parts(lam, n)) + n - 1 - k
    return stacked_ratio(z[:, :, None] ** exps * (1 + beta * z)[:, :, None] ** k, z)


def box_plan(m, n):
    """The interlacing edges and the complement of the m^n box: (m, passes, complement).

    Pass k (k = 1..n) takes the partitions mu with k-1 parts to those lam with
    k parts, all at most m and in ``enumerate_box`` order, along every pair
    mu < lam.  It is (starts, mu, weight): the first edge of each lam (the
    edges come grouped by lam), each edge's mu, and each edge's weight as the
    index d n + r into a row's table of z^d (1+beta z)^r, with d = |lam| - |mu|
    and r = #{i : mu_i > lam_(i+1)}.  complement[i] is the row of lam^c for the
    lam of row i (module docstring).

    The plan depends on (m, n) alone and is built once per pair: a repeated
    call returns the same tuple, whose arrays are read-only.
    """
    # refused before the memo, which would take 2.0 for 2
    return _box_plan(_require_int("m", m, 0), _require_int("n", n, 1))


@cache
def _box_plan(m, n):
    passes = []
    for k in range(1, n + 1):
        lam = np.array(list(box_parts(m, k))).reshape(-1, k)
        # mu_i runs over lam_(i+1) .. lam_i: edge t of a lam is that box's t-th point
        widths = lam[:, :-1] - lam[:, 1:] + 1
        counts = np.prod(widths, axis=1)
        starts = np.cumsum(counts) - counts
        edge = np.repeat(np.arange(len(lam)), counts)
        t = np.arange(len(edge)) - starts[edge]
        lam, widths = lam[edge], widths[edge]
        mu = np.empty((len(edge), k - 1), dtype=int)
        for i in range(k - 2, -1, -1):
            mu[:, i] = lam[:, i + 1] + t % widths[:, i]
            t //= widths[:, i]
        d = lam.sum(axis=1) - mu.sum(axis=1)
        r = np.sum(mu > lam[:, 1:], axis=1)
        passes.append((starts, box_rank(mu, m), d * n + r))
    # the last pass's lam at each first edge: the box's partitions, in its order
    complement = box_rank(m - lam[starts, ::-1], m)
    for a in (*(a for p in passes for a in p), complement):
        a.flags.writeable = False
    return m, tuple(passes), complement


def _branch(values, tables, passes):
    """The passes of the branching rule: ``values`` (1, ...) at no variable to the box's.

    ``tables[j]`` holds variable j's weights at the indices d n + r of a plan's edges.
    """
    for table, (starts, mu, weight) in zip(tables, passes):
        values = np.add.reduceat(values[mu] * table[weight], starts, axis=0)
    return values


def _powers(x, top):
    """[j, e, s] = x[j, s]^e for e = 0..top, by repeated multiplication."""
    out = np.empty((len(x), top + 1, x.shape[1]), dtype=x.dtype)
    out[:, 0] = 1
    for e in range(top):
        np.multiply(out[:, e], x, out=out[:, e + 1])
    return out


def grothendieck_box(z, beta, plan) -> np.ndarray:
    """(P, S): G_lam(z_s; beta) for every lam of the box of ``plan = box_plan(m, N)`` in
    ``enumerate_box`` order, at every row z_s of an (S, N) array.

    One pass per variable over the plan's edges, in ``np.clongdouble``, a
    chunk of rows at a time so that a pass holds at most ``_BOX_CHUNK``
    entries.  Variables may coincide.
    """
    m, passes, _ = plan
    n = len(passes)
    z = np.asarray(z, dtype=np.clongdouble)
    if z.ndim != 2 or z.shape[1] != n:
        raise ValueError(f"need rows of N = {n} variables, got shape {z.shape}")
    out = np.empty((comb(m + n, n), len(z)), dtype=complex)
    step = max(1, _BOX_CHUNK // max(len(p[1]) for p in passes))
    for i in range(0, len(z), step):
        zc = z[i:i + step].T
        # table[j, d n + r, s] = z_sj^d (1 + beta z_sj)^r
        table = (_powers(zc, m)[:, :, None] * _powers(1 + beta * zc, n - 1)[:, None]).reshape(
            n, (m + 1) * n, -1)
        out[:, i:i + step] = _branch(np.ones((1, zc.shape[1]), dtype=np.clongdouble), table,
                                     passes)
    return out


def _objects(items):
    """A 1-d object array of ``items``: python ints, field elements and the like, untouched."""
    out = np.empty(len(items), dtype=object)
    out[:] = items
    return out


def grothendieck_box_cleared(z, beta, m, dual: bool = False):
    """(nums, den): G_lam(z; beta) = nums[i] / den, or Gbar_lam with ``dual``, for every lam
    of the m^N box in ``enumerate_box`` order, at one point z of N variables.

    The exact lane of ``grothendieck_box``: the same passes over the edges of
    ``box_plan(m, N)``, on an object array.  When z and beta are ints, Fractions or
    elements of one exact rational-function field (``scalars.cleared_type``),
    each variable's weights z^d (1+beta z)^r are cleared by ``scalars.numer_denom``
    (z = p/q, 1 + beta z = b/c) to p^d q^(m-d) b^r c^(N-1-r) over q^m c^(N-1): the
    numerators are ints or polynomials of the field's ring, and den is their one common
    denominator, prod_j q_j^m c_j^(N-1).  Otherwise (complex points, say) the passes run
    on the values and den is 1.  No determinant is taken, and variables may coincide.
    The dual is the primal at z_j = 1/y_j taken at ``box_plan``'s complement, over
    den = prod_j p_j^m b_j^(N-1); a zero y_j and, for N >= 2, a pole y_j + beta = 0 are
    refused first, as ``dual_grothendieck_eval`` refuses them.
    """
    z, beta = [plain_int(x) for x in z], plain_int(beta)
    n = len(z)
    # box_plan's m is an int; with no variable the box holds the empty partition alone (G = 1)
    m, passes, complement = box_plan(m, max(n, 1))
    passes = passes[:n]
    if dual:
        _refuse_dual_poles(z, beta)
        z = [exact_div(1, yj) for yj in z]
    clear = cleared_type([*z, beta]) is not None
    tables, den = [], 1
    for zj in z:
        base = 1 + beta * zj
        (p, q), (b, c) = (numer_denom(zj), numer_denom(base)) if clear else ((zj, 1), (base, 1))
        den = den * (p ** m * b ** (n - 1) if dual else q ** m * c ** (n - 1))
        powers = _objects([p ** d * q ** (m - d) for d in range(m + 1)])
        tables.append(np.multiply.outer(powers, _objects([b ** r * c ** (n - 1 - r)
                                                           for r in range(n)])).ravel())
    nums = _branch(_objects([1]), tables, passes)
    return (nums[complement] if dual and n else nums), den
