"""Determinant formulas for scalar products of off-shell Bethe states.

The scalar product <psi({u}_N)|psi({v}_N)> of the five-vertex model is a
single N x N determinant, valid without any Bethe-equation constraint.  The
matrix element (homogeneous case, a(x) = x^M, d(x) = (alpha x - 1/x)^M)

    Q_jk = [a(u_j) d(v_k) v_k^(2N-2) - a(v_k) d(u_j) u_j^(2N-2)]
           / (v_k/u_j - u_j/v_k)

is, after pulling out v_k^(2N-1-M) per column, a function of s = v_k^2
whose apparent pole at s = u_j^2 is removable.  Each column is written as
the exact quotient, a polynomial in s (see ``scalar_product_det``), so u/v
collisions are ordinary points, the float lane has no cancellation near
them, and coincident v's (the norm limit) take the confluent Taylor rows.

The intermediate scalar products S({u}_n | {v}_N | {w}) interpolate between
the domain-wall partition function (n = 0) and the full scalar product
(n = N) and satisfy the recursion that freezes the top lattice row at
u_n = +- alpha^(-1/2) w_{M-N+n}.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .confluent import all_distinct, det_ratio_columns
from .linalg import Matrix, det
from .ratfunc import Poly
from .scalars import COINCIDENCE_TOL, exact_div, is_inexact, is_zero, rational_sqrt


@dataclass(frozen=True)
class IntermediateSpec:
    """Parameters of S({u}_n | {v}_N | {w}): n C-operators against N B-operators."""

    n: int
    u: tuple
    v: tuple
    w: tuple
    alpha: object
    M: int
    N: int

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(self.u))
        object.__setattr__(self, "v", tuple(self.v))
        object.__setattr__(self, "w", tuple(self.w))
        if not 0 <= self.n <= self.N <= self.M:
            raise ValueError("need 0 <= n <= N <= M")
        if len(self.u) != self.n or len(self.v) != self.N or len(self.w) != self.M:
            raise ValueError("parameter list lengths do not match (n, N, M)")


def _d_hom(x, alpha, M):
    return (alpha * x - x ** -1) ** M


def scalar_product_det(u, v, alpha, M):
    """<psi({u}_N)|psi({v}_N)> in the homogeneous limit, arbitrary off-shell."""
    u, v = list(u), list(v)
    n = len(u)
    if len(v) != n:
        raise ValueError("need equally many u and v parameters")
    if n == 0:
        return 1
    s_u = [x * x for x in u]
    if not all_distinct(s_u):
        if all_distinct([x * x for x in v]):
            return scalar_product_det(v, u, alpha, M)  # exactly symmetric
        raise ValueError("coincident squares in both parameter groups are not supported")
    # column functions of s = v^2, with v^(2N-1-M) pulled out per column: the
    # quotient by s - s_u of u^(M+1) (alpha s - 1)^M - c_u s^(M-N+1), which
    # vanishes at s = s_u (c_u = u^(2N-1-M) (alpha s_u - 1)^M)
    power = Poly([(-1) ** (M - i) * comb(M, i) * alpha ** i for i in range(M + 1)])
    cols = []
    for uj, su in zip(u, s_u):
        c_u = uj ** (2 * n - 1 - M) * (alpha * su - 1) ** M
        num = power * uj ** (M + 1) + Poly([0] * (M - n + 1) + [-c_u])
        cols.append(num.quotient(su).column())
    pref = 1
    for j in range(n):
        for k in range(j + 1, n):
            pref = exact_div(pref, s_u[j] - s_u[k])
    for vk in v:
        pref = pref * vk ** (2 * n - 1 - M)
    return pref * det_ratio_columns(cols, [x * x for x in v])


def _a_inhom(x, w):
    out = 1
    for wl in w:
        out = out * (x / wl)
    return out


def _d_inhom(x, w, alpha):
    out = 1
    for wl in w:
        out = out * (alpha * x / wl - wl / x)
    return out


def _removable_at(spec: IntermediateSpec, j: int, x) -> bool:
    """u_j = x makes the determinant formula 0/0, though S is finite there.

    That is alpha x^2 = w_l^2 for some l > M-N+n (a zero of the u-column
    denominator), or x^2 equal to the square of another u; complex values
    coincide within ``COINCIDENCE_TOL``.
    """
    tol = COINCIDENCE_TOL if is_inexact(x) else 0
    if any(is_zero(spec.alpha * x * x - wl * wl, tol) for wl in spec.w[spec.M - spec.N + spec.n:]):
        return True
    return any(is_zero(x * x - uk * uk, tol) for k, uk in enumerate(spec.u) if k != j)


def _interpolated_at(spec: IntermediateSpec, j: int):
    """S at a removable point of u_j, by Property 2.

    u_j^(M+2n-2N-1) S is a polynomial of degree M-N+n-1 in u_j^2, so S is
    its Lagrange interpolant through M-N+n regular points u_j = 1, 2, 3, ...
    """
    n, u, M, N = spec.n, spec.u, spec.M, spec.N
    power = M + 2 * n - 2 * N - 1
    one = 1.0 + 0j if is_inexact(u[j]) else Fraction(1)
    points = []
    k = 0
    while len(points) < M - N + n:
        k += 1
        x = k * one
        if _removable_at(spec, j, x):
            continue
        sample = IntermediateSpec(n, u[:j] + (x,) + u[j + 1:], spec.v, spec.w, spec.alpha, M, N)
        points.append((x * x, x ** power * intermediate_scalar_det(sample)))
    target = u[j] * u[j]
    total = 0
    for i, (si, fi) in enumerate(points):
        term = fi
        for m, (sm, _) in enumerate(points):
            if m != i:
                term = term * (target - sm) / (si - sm)
        total = total + term
    return total * u[j] ** -power


def intermediate_scalar_det(spec: IntermediateSpec):
    """S({u}_n | {v}_N | {w}) as the two-case N x N determinant.

    Where the formula is 0/0 in some u_j (see ``_removable_at``), S comes
    from ``_interpolated_at`` instead.
    """
    n, u, v, w, alpha, M, N = spec.n, spec.u, spec.v, spec.w, spec.alpha, spec.M, spec.N
    if N == 0:
        return 1
    for j, uj in enumerate(u):
        if _removable_at(spec, j, uj):
            return _interpolated_at(spec, j)
    s_u = [x * x for x in u]
    w_sq = [x * x for x in w]
    w_prod = 1
    for wl in w:
        w_prod = w_prod * wl
    # P(s) = prod_l (alpha s - w_l^2)
    p_full = Poly([1])
    for wl2 in w_sq:
        p_full = p_full * Poly([-wl2, alpha])
    cols = []
    for j in range(1, N + 1):
        if j <= n:
            # u_j a_u P(s) - u_j b_u s^(M-N+1) vanishes at s = u_j^2, so its
            # quotient by s - u_j^2 is a polynomial
            uj = u[j - 1]
            a_u = uj ** M / w_prod / w_prod
            b_u = _d_inhom(uj, w, alpha) * uj ** (2 * N - 2) / w_prod
            r_u = 1
            for l in range(M - N + n + 1, M + 1):
                r_u = r_u * (uj * uj - w_sq[l - 1] / alpha)
            num = p_full * (uj * a_u) + Poly([0] * (M - N + 1) + [-uj * b_u])
            cols.append((num.quotient(s_u[j - 1]) * exact_div(1, r_u)).column())
        else:
            skip = M - N + j
            poly = Poly([1])
            denom = 1
            for l in range(1, M + 1):
                if l == skip:
                    continue
                poly = poly * Poly([-w_sq[l - 1], alpha])
                denom = denom * w[l - 1]
            cols.append((poly * exact_div(1, denom)).column())
    pref = 1
    for j in range(M - N + n + 1, M + 1):
        for k in range(j + 1, M + 1):
            pref = exact_div(pref, w_sq[j - 1] - w_sq[k - 1])
    for j in range(n):
        for k in range(j + 1, n):
            pref = exact_div(pref, s_u[j] - s_u[k])
    for vk in v:
        pref = pref * vk ** (2 * N - 1 - M)
    return pref * det_ratio_columns(cols, [x * x for x in v])


def domain_wall_value(spec: IntermediateSpec):
    """Closed form of the n = 0 (domain-wall) intermediate scalar product."""
    _, _, v, w, alpha, M, N = (spec.n, spec.u, spec.v, spec.w, spec.alpha, spec.M, spec.N)
    out = alpha ** (N * (N - 1) // 2)
    for vj in v:
        for k in range(1, M - N + 1):
            out = out * (alpha * vj / w[k - 1] - w[k - 1] / vj)
        out = out * vj ** (N - 1)
    for j in range(M - N + 1, M + 1):
        out = exact_div(out, w[j - 1] ** (N - 1))
    return out


def recursion_check(spec: IntermediateSpec) -> bool:
    """Freezing the top row: S at u_n = +-alpha^(-1/2) w_{M-N+n} reduces to n-1.

    Both signs are tested.  Exact mode needs alpha to be a perfect rational
    square; complex alpha goes through cmath.sqrt.
    """
    n, u, v, w, alpha, M, N = spec.n, spec.u, spec.v, spec.w, spec.alpha, spec.M, spec.N
    if n < 1:
        raise ValueError("recursion needs at least one C-operator (n >= 1)")
    sqrt_alpha = cmath.sqrt(alpha) if is_inexact(alpha) else rational_sqrt(alpha)
    w_special = w[M - N + n - 1]
    w_prod = 1
    for wl in w:
        w_prod = w_prod * wl
    lower = IntermediateSpec(n - 1, u[:n - 1], v, w, alpha, M, N)
    s_lower = intermediate_scalar_det(lower)
    for sign in (1, -1):
        u_n = sign * w_special / sqrt_alpha
        upper = IntermediateSpec(n, u[:n - 1] + (u_n,), v, w, alpha, M, N)
        s_upper = intermediate_scalar_det(upper)
        factor = (alpha ** (N - n) * sqrt_alpha ** (-(M - 1)) * sign ** (M - 1)
                  * w_special ** M / w_prod)
        diff = s_upper - factor * s_lower
        tol = 1e-9 if is_inexact(diff) else 0
        if not (abs(diff) <= tol if is_inexact(diff) else diff == 0):
            return False
    return True


def norm_det(u, alpha, M, method: str = "det"):
    """Norm of an on-shell state: prod u^(2(M+N-1)) prod_{j!=k}(u_j^2-u_k^2)^-1 det Q~.

    Q~_jk = -1 + delta_jk (alpha N + (M-N) u_j^-2)/(alpha - u_j^-2); method
    "sylvester" uses the rank-one-update closed form instead of the
    determinant.  Computable off-shell, but equals the u = v limit of the
    scalar product only on-shell.
    """
    u = list(u)
    n = len(u)
    if n == 0:
        return 1
    diag = []
    for uj in u:
        inv2 = uj ** -2
        denom = alpha - inv2
        if is_inexact(denom) and abs(denom) < 1e-300 or (not is_inexact(denom) and denom == 0):
            raise ZeroDivisionError("norm determinant pole at alpha = u^-2")
        diag.append((alpha * n + (M - n) * inv2) / denom)
    if method == "det":
        q = Matrix([[(diag[j] if j == k else 0) - 1 for k in range(n)] for j in range(n)])
        dq = det(q)
    elif method == "sylvester":
        prod_diag = 1
        inv_sum = 0
        for c in diag:
            if is_inexact(c) and abs(c) < 1e-300 or (not is_inexact(c) and c == 0):
                raise ZeroDivisionError(
                    "Sylvester reduction needs alpha N + (M-N) u^-2 != 0; use method='det'")
            prod_diag = prod_diag * c
            inv_sum = inv_sum + exact_div(1, c)
        dq = prod_diag * (1 - inv_sum)
    else:
        raise ValueError(f"unknown method {method!r}")
    pref = 1
    for uj in u:
        pref = pref * uj ** (2 * (M + n - 1))
    for j in range(n):
        for k in range(n):
            if j != k:
                pref = exact_div(pref, u[j] * u[j] - u[k] * u[k])
    return pref * dq
