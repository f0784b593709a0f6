"""Executable identities for Grothendieck polynomials.

The deformed Cauchy identity over the (M-N)^N box,

  sum_lam G_lam(z;b) Gbar_lam(y;b)
     = prod_{j<k} 1/((z_j-z_k)(y_j-y_k))
       * det_N[ ((z_j y_k)^M - ((1+b z_j)/(1+b/y_k))^(N-1)) / (z_j y_k - 1) ],

its M -> infinity product form, the weighted summation formulas, and the
orthogonality of G and Gbar over the solutions of the z-form Bethe
equations.  The z_j y_k = 1 kernel singularity is always removable: with
distinct y the determinant columns are the kernel's exact quotient
polynomials, so the float lane is finite at y = 1/z; only the transposed
branch (coincident y) resolves it by L'Hopital inside the rational-function
evaluation.  At y = 1/z on a Bethe solution the determinant side equals
1/w(z), the closed-form orthogonality weight, which is what the Green
functions use.
"""

from __future__ import annotations

from math import comb

from .confluent import det_ratio_columns, group_points, sign_pairs
from .linalg import Matrix, det
from .partitions import enumerate_box
from .ratfunc import Poly, RatFunc
from .scalars import exact_div, is_inexact, is_zero
from .symfunc import dual_grothendieck_eval, grothendieck_eval


def cauchy_lhs(M, N, z, y, beta):
    """sum over lam in the (M-N)^N box of G_lam(z;beta) Gbar_lam(y;beta)."""
    total = 0
    for lam in enumerate_box(M - N, N):
        total = total + grothendieck_eval(lam, z, beta) * dual_grothendieck_eval(lam, y, beta)
    return total


def _distinct(points):
    return len(group_points(points)) == len(points)


def cauchy_rhs(M, N, z, y, beta):
    """Determinant side of the deformed Cauchy identity."""
    z, y = list(z), list(y)
    if len(z) != N or len(y) != N:
        raise ValueError("need N variables on both sides")
    z_distinct = _distinct(z)
    y_distinct = _distinct(y)
    if not (z_distinct or y_distinct):
        raise ValueError("coincidences in both variable groups are not supported")
    if y_distinct:
        # columns are polynomials in z, labelled by y_k: the kernel's exact
        # quotient by z y_k - 1, with a = 1 + beta z and b = 1 + beta/y_k,
        #   sum_{i<M} (y_k z)^i - (beta/y_k) sum_{i<N-1} a^i b^(-1-i);
        # coincident z-points go through the confluent row limit
        cols = []
        for yk in y:
            col = Poly([yk ** i for i in range(M)])
            b = 1 + beta * yk ** -1
            for i in range(N - 1):
                col = col - (beta * yk ** -1 * b ** (-1 - i)) * Poly([1, beta]) ** i
            cols.append(col)
        ratio = sign_pairs(N) * det_ratio_columns(cols, z)
        pref = 1
        for j in range(N):
            for k in range(j + 1, N):
                pref = exact_div(pref, y[j] - y[k])
    else:
        # transpose: columns are rational functions of y, labelled by z_j
        cols = []
        for zj in z:
            # (1 + beta/y)^(1-N) = y^(N-1) (y + beta)^(1-N)
            c_j = (1 + beta * zj) ** (N - 1)
            num = (zj ** M) * Poly.monomial(M) * Poly([beta, 1]) ** (N - 1) \
                - c_j * Poly.monomial(N - 1)
            den = Poly([-1, zj]) * Poly([beta, 1]) ** (N - 1)
            cols.append(RatFunc(num, den))
        ratio = sign_pairs(N) * det_ratio_columns(cols, y)
        pref = 1
        for j in range(N):
            for k in range(j + 1, N):
                pref = exact_div(pref, z[j] - z[k])
    return pref * ratio


def cauchy_infinite_check(N, z, y, beta, M_max: int = 40) -> dict:
    """Partial sums of the infinite Cauchy identity against its product form.

    Requires |z_j y_k| < 1 for every pair; returns the partial sums over the
    m^N boxes, their distances to the closed-form product, and a monotone
    convergence flag.
    """
    z, y = list(z), list(y)
    for zj in z:
        for yk in y:
            if abs(complex(zj * yk)) >= 1:
                raise ValueError("divergent input: need |z_j y_k| < 1 for all pairs")
    product = 1
    for j in range(N):
        product = product * ((1 + beta * z[j]) / (1 + beta * y[j] ** -1)) ** (N - 1)
    for zj in z:
        for yk in y:
            product = exact_div(product, 1 - zj * yk)
    partials = []
    distances = []
    running = 0
    previous_shells = set()
    for m in range(1, M_max + 1):
        for lam in enumerate_box(m, N):
            if lam.parts in previous_shells:
                continue
            previous_shells.add(lam.parts)
            running = running + grothendieck_eval(lam, z, beta) \
                * dual_grothendieck_eval(lam, y, beta)
        partials.append(running)
        distances.append(abs(complex(running - product)))
    monotone = all(distances[i + 1] <= distances[i] + 1e-15 for i in range(len(distances) - 1))
    return {
        "product": product,
        "partials": partials,
        "distances": distances,
        "monotone": monotone,
        "converged": bool(distances and distances[-1] <= 1e-10),
    }


def sum_matrix_primal(M, N, z, beta):
    """N x N matrix of the primal summation determinant (``grothendieck_sum_det``
    divides its determinant by the Vandermonde); exact for exact z and beta."""
    rows = []
    for j in range(1, N + 1):
        row = []
        for zk in z:
            base = 1 + beta * zk
            if j <= N - 1:
                val = 0
                for m in range(0, j):
                    val = val + (-1) ** m * exact_div(1, (-beta) ** (N - j)) * comb(M, m) \
                        * base ** (m - j + N - 1)
            else:
                val = 0
                for m in range(max(N - 1, 1), M + 1):
                    val = val - (-1) ** m * comb(M, m) * base ** (m - 1)
            row.append(val)
        rows.append(row)
    return Matrix(rows)


def _sum_matrix_dual(M, N, y, beta):
    rows = []
    for j in range(1, N + 1):
        row = []
        for yk in y:
            base = 1 + beta * yk ** -1
            if j == 1:
                val = 0
                for m in range(max(N - 1, 1), M + 1):
                    val = val - (-1) ** m * (-beta) ** (-M + N) * comb(M, m) * base ** (m - N)
            else:
                val = 0
                for m in range(0, N - j + 1):
                    val = val + (-1) ** m * (-beta) ** (-j + 1 - M + N) * comb(M, m) \
                        * base ** (m + j - N - 1)
            row.append(val)
        rows.append(row)
    return Matrix(rows)


def grothendieck_sum_det(M, N, z, beta, dual: bool = False):
    """Determinant side of the weighted Grothendieck summation formula."""
    if is_zero(beta, 0):
        raise ValueError("the summation determinants carry negative powers of beta; "
                         "use the Schur specialization for beta = 0")
    z = list(z)
    if dual:
        pref = 1
        for yj in z:
            pref = pref * yj ** (M - 1)
        for j in range(N):
            for k in range(j + 1, N):
                pref = exact_div(pref, z[k] - z[j])
        return pref * det(_sum_matrix_dual(M, N, z, beta))
    pref = 1
    for j in range(N):
        for k in range(j + 1, N):
            pref = exact_div(pref, z[k] - z[j])
    return pref * det(sum_matrix_primal(M, N, z, beta))


def grothendieck_sum_check(M, N, z, beta, dual: bool = False) -> bool:
    """Weighted sum over the box against the determinant form, exactly."""
    total = 0
    for lam in enumerate_box(M - N, N):
        if dual:
            total = total + (-beta) ** (-lam.weight) * dual_grothendieck_eval(lam, z, beta)
        else:
            total = total + (-beta) ** lam.weight * grothendieck_eval(lam, z, beta)
    rhs = grothendieck_sum_det(M, N, z, beta, dual)
    diff = total - rhs
    return is_zero(diff, 1e-9 if is_inexact(diff) else 0)


def orthogonality_weight(z, beta, M, N):
    """The weight w({z}_N) of the orthogonality relation."""
    correction = 1
    for zj in z:
        correction = correction + beta * zj / (M + (M - N) * beta * zj)
    w = exact_div(1, correction)
    for j in range(N):
        for k in range(N):
            if j != k:
                w = w * (z[j] - z[k])
    for zj in z:
        w = w * zj ** (1 - N) * (1 + beta * zj) / (M + (M - N) * beta * zj)
    return w


def _orthogonality_spectrum(M, N, beta, solutions):
    from .tasep import _spectrum, bethe_solve

    if solutions is None:
        solutions = bethe_solve(M, N, beta=beta)
    if is_zero(beta) and any(abs(abs(zj) - 1) > 1e-12 for s in solutions for zj in s.roots):
        raise RuntimeError("beta = 0 Bethe roots must lie on the unit circle")
    return _spectrum(solutions, M, N, beta)


def orthogonality_check(M, N, beta, lam, mu, solutions=None):
    """sum over Bethe solution sets of w({z}) Gbar_lam(1/z;beta) G_mu(z;beta).

    Expected delta_{lam,mu}.  For beta = -1 the all-roots-at-1 stationary set
    contributes the analytic 1/binomial(M,N) for every (lam, mu); for beta = 0
    the roots are first verified to lie on the unit circle.  An incomplete
    solution enumeration raises.
    """
    spec = _orthogonality_spectrum(M, N, beta, solutions)
    return complex(spec.stationary + spec.right(lam) @ spec.left(mu))


def orthogonality_matrix(M, N, beta, solutions=None):
    """``orthogonality_check`` for every (lam, mu) of the box, in ``enumerate_box`` order.

    Entry [i, k] pairs lam = box[i] with mu = box[k]; expected the identity.
    """
    spec = _orthogonality_spectrum(M, N, beta, solutions)
    left, right = spec.box_vectors()
    return spec.stationary + right @ left.T
