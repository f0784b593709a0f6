"""Executable identities for Grothendieck polynomials.

The deformed Cauchy identity over the (M-N)^N box,

  sum_lam G_lam(z;b) Gbar_lam(y;b)
     = prod_{j<k} 1/((z_j-z_k)(y_j-y_k))
       * det_N[ ((z_j y_k)^M - ((1+b z_j)/(1+b/y_k))^(N-1)) / (z_j y_k - 1) ],

its M -> infinity product form, the weighted summation formulas, and the
orthogonality of G and Gbar over the solutions of the z-form Bethe
equations.  The z_j y_k = 1 kernel singularity is always removable: the
determinant columns are the kernel's exact quotient as a function of z,
labelled by y, so they are finite and free of cancellation at and near
y = 1/z in the float lane.  Coincident z take Taylor rows, coincident y
Taylor columns in the label, and both may coincide at once.  At y = 1/z on a
Bethe solution the determinant side equals 1/w(z), the closed-form
orthogonality weight, which is what the Green functions use.

The weighted summation determinants have columns that are short sums of
powers of 1 + beta z, or for the dual of (1 + beta/y)^p = y^(-p) (y + beta)^p,
so they go through the same confluent ratio and coincident variables take
Taylor rows; the dual refuses a zero y, as Gbar(y) does.

The box sides take no determinant: ``symfunc.grothendieck_box_cleared``
branches the whole box one variable at a time, on numerators cleared over
one denominator per side at ints, Fractions and field elements, so a box
sum is one dot product and a single ``scalars.cleared_quotient`` at the
end, in the type the determinant ratios' rule gives (``scalars.cleared_type``).
``cauchy_infinite_check`` reads every partial sum off one M_max^N box per
side.  A size (M, N, M_max) outside its range is refused by its own name
(``partitions._require_int``).
"""

from __future__ import annotations

from math import comb, prod

from .confluent import det_ratio_columns, det_ratio_labelled
from .partitions import _require_int, box_rank
from .ratfunc import RatFunc, taylor
from .scalars import (as_number, cleared_quotient, cleared_type, exact_div, in_type, is_inexact,
                      is_zero, plain_int)
from .symfunc import _parts, grothendieck_box_cleared


def _check_counts(N, *sides):
    """Refuse, up front, a list of variables whose length is not N."""
    for side in sides:
        if len(side) != N:
            raise ValueError(f"need N = {N} variables, got {len(side)}")


def _refuse_zero_y(y):
    if any(is_zero(yk, 0) for yk in y):
        raise ZeroDivisionError("the dual variables need y_k != 0, as Gbar(y) does")


def cauchy_lhs(M, N, z, y, beta):
    """sum over lam in the (M-N)^N box of G_lam(z;beta) Gbar_lam(y;beta).

    One dot product of the two sides' cleared numerators over their common
    denominator (``symfunc.grothendieck_box_cleared``), divided once.
    """
    M, N = _require_int("M", M, 0), _require_int("N", N, 0, M)
    z, y, beta = [plain_int(x) for x in z], [plain_int(x) for x in y], plain_int(beta)
    _check_counts(N, z, y)
    kind = cleared_type([*z, *y, beta])  # refuses two fields before any arithmetic
    g, g_den = grothendieck_box_cleared(z, beta, M - N)
    h, h_den = grothendieck_box_cleared(y, beta, M - N, dual=True)
    return cleared_quotient(g @ h, g_den * h_den, kind)


def _kernel_coefficients(M, N, beta):
    """The Cauchy kernel's exact quotient as z-terms with coefficients in y.

    ((z y)^M - ((1+beta z)/(1+beta/y))^(N-1)) / (z y - 1) equals

        sum_{i<M} y^i z^i - beta sum_{i<N-1} y^i (y+beta)^(-1-i) (1+beta z)^i,

    so the removable z y = 1 point is never a pole.  Returns the coefficients
    y^i and -beta y^i (y+beta)^(-1-i) as columns in y (linear factor y + beta),
    in the order of the z-terms z^i and (1+beta z)^i.
    """
    coeffs = [RatFunc([(1, i, 0)], (beta, 1)) for i in range(M)]
    if is_zero(beta, 0):
        return coeffs  # the geometric sum alone
    return coeffs + [RatFunc([(-beta, i, -1 - i)], (beta, 1)) for i in range(N - 1)]


def cauchy_rhs(M, N, z, y, beta):
    """Determinant side of the deformed Cauchy identity.

    The columns are the kernel in z labelled by y: coincident z take Taylor
    rows, coincident y the Taylor columns in y of the kernel's coefficients.
    """
    M, N = _require_int("M", M), _require_int("N", N)
    z, y, beta = [plain_int(x) for x in z], [plain_int(x) for x in y], plain_int(beta)
    _check_counts(N, z, y)
    _refuse_zero_y(y)
    coeffs = _kernel_coefficients(M, N, beta)

    def column_at(t, r):
        return [RatFunc([(c, i, 0) if i < M else (c, 0, i - M) for i, c in enumerate(row)],
                        (1, beta)) for row in taylor(coeffs, t, r)]

    return in_type(det_ratio_labelled(column_at, y, z), cleared_type([*z, *y, beta]))


def cauchy_infinite_check(N, z, y, beta, M_max: int = 40) -> dict:
    """Partial sums of the infinite Cauchy identity against its product form.

    Requires |z_j y_k| < 1 for every pair; returns the partial sums over the
    m^N boxes, their distances to the closed-form product, and a monotone
    convergence flag.  Every partial sum comes from one cleared M_max^N box
    per side, whose last binomial(m + N, N) rows are the m^N box.  A zero y
    is refused, as Gbar(y) refuses it, and so is a non-constant field element.
    """
    N, M_max = _require_int("N", N, 0), _require_int("M_max", M_max, 1)
    z, y, beta = [plain_int(x) for x in z], [plain_int(x) for x in y], plain_int(beta)
    _check_counts(N, z, y)
    _refuse_zero_y(y)
    as_number("beta", beta)
    for zj in z:
        for yk in y:
            if abs(complex(as_number("z", zj) * as_number("y", yk))) >= 1:
                raise ValueError("divergent input: need |z_j y_k| < 1 for all pairs")
    product = prod(exact_div(1 + beta * zj, 1 + exact_div(beta, yj)) ** (N - 1)
                   for zj, yj in zip(z, y))
    for zj in z:
        for yk in y:
            product = exact_div(product, 1 - zj * yk)
    g, g_den = grothendieck_box_cleared(z, beta, M_max)
    h, h_den = grothendieck_box_cleared(y, beta, M_max, dual=True)
    terms, kind = g * h, cleared_type([*z, *y, beta])
    # enumerate_box puts lam_1 = m before lam_1 < m: the shell of the m^N box less the
    # (m-1)^N box sits just before the last binomial(m - 1 + N, N) rows
    running = terms[-1]  # the empty partition
    partials = []
    distances = []
    for m in range(1, M_max + 1):
        running = running + terms[-comb(m + N, N):-comb(m - 1 + N, N)].sum()
        partials.append(cleared_quotient(running, g_den * h_den, kind))
        distances.append(abs(complex(as_number("distance", partials[-1] - product))))
    monotone = all(distances[i + 1] <= distances[i] + 1e-15 for i in range(len(distances) - 1))
    return {
        "product": product,
        "partials": partials,
        "distances": distances,
        "monotone": monotone,
        "converged": bool(distances and distances[-1] <= 1e-10),
    }


def _sum_columns(M, N, beta, dual: bool = False):
    """The N columns of ``grothendieck_sum_det`` as ``RatFunc``s, before the dual's prefactor.

    Column j is a short sum of c (1+beta z)^k; with ``dual`` a sum of
    c (1+beta/y)^p = c y^(-p) (y+beta)^p.  A column whose sum is empty (the
    top column when M < max(N-1, 1)) is zero.
    """
    top = range(max(N - 1, 1), M + 1)
    if not dual:
        def column(j):
            if j < N:
                return [((-1) ** m * exact_div(1, (-beta) ** (N - j)) * comb(M, m),
                         0, m - j + N - 1) for m in range(j)]
            return [(-(-1) ** m * comb(M, m), 0, m - 1) for m in top]

        return [RatFunc(column(j), (1, beta)) for j in range(1, N + 1)]

    def dual_column(j):
        if j == 1:
            return [(-((-1) ** m * exact_div(1, (-beta) ** (M - N)) * comb(M, m)),
                     N - m, m - N) for m in top]
        return [((-1) ** m * exact_div(1, (-beta) ** (j - 1 + M - N)) * comb(M, m),
                 N + 1 - m - j, m + j - N - 1) for m in range(N - j + 1)]

    return [RatFunc(dual_column(j), (beta, 1)) for j in range(1, N + 1)]


def _refuse_zero_beta(beta):
    if is_zero(beta, 0):
        raise ValueError("the summation determinants carry negative powers of beta; "
                         "use the Schur specialization for beta = 0")


def grothendieck_sum_det(M, N, z, beta, dual: bool = False):
    """Determinant side of the weighted Grothendieck summation formula.

    The columns are ``_sum_columns``; the dual's determinant is multiplied by
    prod y^(M-1).  Coincident variables take Taylor rows.  0 <= M < N is in
    the domain: the (M-N)^N box holds no partition and the determinant is the
    empty sum 0, as the window form factors need at n = M (no configuration
    of N particles on M - n sites).  ``cauchy_lhs`` refuses M < N because it
    sums over that box; this side never enumerates it.
    """
    M, N = _require_int("M", M, 0), _require_int("N", N, 0)
    z, beta = [plain_int(x) for x in z], plain_int(beta)
    _check_counts(N, z)
    _refuse_zero_beta(beta)
    kind = cleared_type([*z, beta])
    if not dual:
        return in_type(det_ratio_columns(_sum_columns(M, N, beta), z), kind)
    _refuse_zero_y(z)
    pref = prod(yk ** (M - 1) for yk in z)
    return in_type(pref * det_ratio_columns(_sum_columns(M, N, beta, dual=True), z), kind)


def grothendieck_sum_check(M, N, z, beta, dual: bool = False) -> bool:
    """Weighted sum over the box against the determinant form, exactly.

    The weights are a rescaling of the variables: (-beta)^|lam| G_lam(z; beta)
    = G_lam(-beta z; -1) and (-beta)^(-|lam|) Gbar_lam(y; beta) = Gbar_lam(-y/beta; -1),
    so the weighted sum is the plain sum of one ``symfunc.grothendieck_box_cleared``
    box at the scaled variables, ended by one ``scalars.cleared_quotient`` in the
    type of z and beta.  Sizes, counts, beta = 0 and two fields are refused first.
    """
    M, N = _require_int("M", M, 0), _require_int("N", N, 0, M)
    z, beta = [plain_int(x) for x in z], plain_int(beta)
    _check_counts(N, z)
    _refuse_zero_beta(beta)
    kind = cleared_type([*z, beta])  # refuses two fields before any arithmetic
    scaled = [exact_div(-zj, beta) if dual else -beta * zj for zj in z]
    g, den = grothendieck_box_cleared(scaled, -1, M - N, dual)
    diff = cleared_quotient(sum(g), den, kind) - grothendieck_sum_det(M, N, z, beta, dual)
    return is_zero(diff, 1e-9 if is_inexact(diff) else 0)


def orthogonality_weight(z, beta, M, N):
    """The weight w({z}_N) of the orthogonality relation, over one denominator: with
    D_j = M + (M-N) beta z_j, prod_{j!=k} (z_j - z_k) prod_j z_j^(1-N) (1 + beta z_j)
    / (prod_j D_j + sum_j beta z_j prod_{k!=j} D_k), finite where a D_j vanishes."""
    M, N = _require_int("M", M), _require_int("N", N)
    z, beta = [plain_int(x) for x in z], plain_int(beta)
    num, den, terms, power = 1, 1, 0, 1  # terms: sum_j beta z_j prod_{k!=j} D_k so far
    for j, zj in enumerate(z):
        d = M + (M - N) * beta * zj
        terms, den = terms * d + beta * zj * den, den * d
        num, power = num * (1 + beta * zj), power * zj ** (N - 1)
        for k in range(N):
            if j != k:
                num = num * (zj - z[k])
    return exact_div(num, power * (den + terms))


def _orthogonality_spectrum(M, N, beta, solutions):
    from .tasep import _free_point, _spectrum

    spec = _spectrum(solutions, M, N, beta)
    if _free_point(beta) and any(abs(abs(zj) - 1) > 1e-12 for s in spec for zj in s.roots):
        raise RuntimeError("beta = 0 Bethe roots must lie on the unit circle")
    return spec


def _box_row(name, lam, M, N):
    """The ``enumerate_box`` row of ``lam`` in the (M-N)^N box; refuses, by name, one outside."""
    try:
        parts = _parts(lam, N)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    if parts and parts[0] > M - N:
        raise ValueError(f"{name} = {parts} lies outside the {M - N}^{N} box")
    return box_rank(parts, M - N)


def orthogonality_check(M, N, beta, lam, mu, solutions=None):
    """sum over Bethe solution sets of w({z}) Gbar_lam(1/z;beta) G_mu(z;beta).

    Expected delta_{lam,mu}; the relation holds on the (M-N)^N box, and a lam or mu
    outside it is refused before any work.  For beta = -1 the all-roots-at-1 stationary
    set contributes the analytic 1/binomial(M,N) for every (lam, mu); for beta = 0 the
    roots are first verified to lie on the unit circle.  ``solutions`` is None, to
    solve, or ``bethe_solve``'s Spectrum of this (M, N, beta); another is refused.

    The value is the (lam, mu) entry of ``orthogonality_matrix``: the first
    call on a Spectrum builds its box vectors, and later calls on the same
    Spectrum read them.  For one pair on a large sector,
    ``spec.stationary + spec.contract(spec.right(lam), spec.left(mu))`` is cheaper.
    """
    M, N = _require_int("M", M, 2), _require_int("N", N, 1, M - 1)
    i, k = _box_row("lam", lam, M, N), _box_row("mu", mu, M, N)
    spec = _orthogonality_spectrum(M, N, beta, solutions)
    left, right = spec.box_vectors()
    return complex(spec.stationary + spec.contract(right[i], left[k]))


def orthogonality_matrix(M, N, beta, solutions=None):
    """``orthogonality_check`` for every (lam, mu) of the box, in ``enumerate_box`` order.

    Entry [i, k] pairs lam = box[i] with mu = box[k]; expected the identity.
    """
    spec = _orthogonality_spectrum(M, N, beta, solutions)
    left, right = spec.box_vectors()
    return spec.stationary + spec.contract(right, left)
