"""Determinant formulas for scalar products of off-shell Bethe states.

The intermediate scalar products S({u}_n | {v}_N | {w}) interpolate between
the domain-wall partition function (n = 0) and the full scalar product
<psi({u}_N)|psi({v}_N)> (n = N, every w_l = 1), and satisfy the recursion
that freezes the top lattice row at u_n = +- alpha^(-1/2) w_{M-N+n}.  Each
is one N x N determinant in the row variable s = v_k^2 (with v_k^(2N-1-M)
pulled out per row), valid without any Bethe-equation constraint.

Its last N - n columns are prod_{l != M-N+j} (alpha s - w_l^2) / w_l.  Its
first n columns are, up to the factor alpha^(N-n) u_j^(2N-1-M) / prod(w)^2,
the kernel

    K(s, t) = [t^m Q(s) - Q(t) s^m] / (s - t),   t = u_j^2, m = M-N+1,
    Q(s) = prod_{l <= M-N+n} (alpha s - w_l^2),

a polynomial in s, taken as one exact quotient.  Up to u_j^(2N-1-M) /
prod(w)^2, the paper's column is [t^m P(s) - P(t) s^m] / (s - t) times
alpha^(N-n) / R(t), with P = Q R and R(s) = prod_{l > M-N+n} (alpha s -
w_l^2), which vanishes at alpha u_j^2 = w_l^2.  Subtracting multiples of the
last N - n columns, which span Q(s) times every polynomial of degree below
N - n, leaves R(t) K(s, t), and R(t) cancels.  So alpha u_j^2 = w_l^2 is
an ordinary point, as is u = v, and the float lane has no cancellation near
either.  Coincident u-squares take the Taylor columns of K in its label t,
coincident v-squares the Taylor rows in s (``confluent.det_ratio_labelled``),
so every coincidence is a limit, not a refusal.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import comb, prod

from .confluent import det_ratio_labelled, sign_pairs
from .linalg import Matrix, det
from .partitions import _require_int
from .ratfunc import Poly, taylor
from .scalars import (cleared_type, exact_div, exact_pow, in_type, is_inexact, is_zero, plain_int,
                      rational_sqrt)


@dataclass(frozen=True)
class IntermediateSpec:
    """Parameters of S({u}_n | {v}_N | {w}): n C-operators against N B-operators.

    Integral u, v, w and alpha (numpy ints, say) are kept as ints.
    """

    n: int
    u: tuple
    v: tuple
    w: tuple
    alpha: object
    M: int
    N: int

    def __post_init__(self):
        for name in ("u", "v", "w"):
            object.__setattr__(self, name, tuple(map(plain_int, getattr(self, name))))
        object.__setattr__(self, "alpha", plain_int(self.alpha))
        object.__setattr__(self, "M", _require_int("M", self.M, 0))
        object.__setattr__(self, "N", _require_int("N", self.N, 0, self.M))
        object.__setattr__(self, "n", _require_int("n", self.n, 0, self.N))
        if len(self.u) != self.n or len(self.v) != self.N or len(self.w) != self.M:
            raise ValueError("parameter list lengths do not match (n, N, M)")


def scalar_product_det(u, v, alpha, M):
    """<psi({u}_N)|psi({v}_N)> in the homogeneous limit, arbitrary off-shell.

    This is the intermediate product at n = N with every w_l = 1.
    """
    u, v, M = tuple(u), tuple(v), _require_int("M", M, 0)
    if len(v) != len(u):
        raise ValueError("need equally many u and v parameters")
    return intermediate_scalar_det(IntermediateSpec(len(u), u, v, (1,) * M, alpha, M, len(u)))


def _kernel_columns(q, m, t, r):
    """Taylor coefficients K_0 .. K_(r-1) in t of K(s, t), as polynomial columns in s.

    K(s, t) = [t^m Q(s) - Q(t) s^m] / (s - t); expanding (s - t - h) K(s, t + h)
    in h gives (s - t) K_i = C(m, i) t^(m-i) Q(s) - Q_i(t) s^m + K_(i-1), whose
    right side vanishes at s = t, so each K_i is one more exact quotient.
    """
    q_t = taylor([q.column()], t, r)
    out, prev = [], Poly()
    for i in range(r):
        num = prev + Poly([0] * m + [-q_t[i][0]])
        if i <= m:
            num = num + q * (comb(m, i) * t ** (m - i))
        prev = num.quotient(t)
        out.append(prev.column())
    return out


def intermediate_scalar_det(spec: IntermediateSpec):
    """S({u}_n | {v}_N | {w}) as the two-case N x N determinant.

    Column j <= n is u_j^(2N-1-M) alpha^(N-n) / prod(w)^2 times the kernel
    K(s, u_j^2) of the module docstring; the other N - n columns are the
    products prod_{l != M-N+j} (alpha s - w_l^2) / w_l.  Coincident u-squares
    take Taylor columns in the label u^2, coincident v-squares Taylor rows.
    Equal squares among the last N - n w_l, where the formula is 0/0, are
    refused up front.
    """
    n, u, v, w, alpha, M, N = spec.n, spec.u, spec.v, spec.w, spec.alpha, spec.M, spec.N
    if N == 0:
        return 1
    w_sq = [x * x for x in w]
    pref = 1
    for j in range(M - N + n + 1, M + 1):
        for k in range(j + 1, M + 1):
            gap = w_sq[j - 1] - w_sq[k - 1]
            if is_zero(gap, 0):
                raise ValueError("the last N - n inhomogeneities need distinct squares, "
                                 f"got w_{j}^2 = w_{k}^2")
            pref = exact_div(pref, gap)
    w_prod = prod(w)
    # Q(s) = prod_{l <= M-N+n} (alpha s - w_l^2); binomially when the w_l are equal,
    # as they are in scalar_product_det (no power 0 is taken, to keep the products' types)
    m_q = M - N + n
    if all(x == w_sq[0] for x in w_sq[:m_q]):
        c = -w_sq[0]
        q = Poly([comb(m_q, i) * (alpha ** i if i else 1) * (c ** (m_q - i) if i < m_q else 1)
                  for i in range(m_q + 1)])
    else:
        q = Poly([1])
        for wl2 in w_sq[:m_q]:
            q = q * Poly([-wl2, alpha])
    fixed = []
    for j in range(n + 1, N + 1):
        skip = M - N + j
        poly = Poly([1])
        denom = 1
        for l in range(1, M + 1):
            if l == skip:
                continue
            poly = poly * Poly([-w_sq[l - 1], alpha])
            denom = denom * w[l - 1]
        fixed.append((poly * exact_div(1, denom)).column())
    for uj in u:
        pref = pref * exact_div(alpha ** (N - n), w_prod * w_prod) * exact_pow(uj, 2 * N - 1 - M)
    for vk in v:
        pref = pref * exact_pow(vk, 2 * N - 1 - M)
    m = M - N + 1
    ratio = det_ratio_labelled(lambda t, r: _kernel_columns(q, m, t, r),
                               [x * x for x in u], [x * x for x in v], fixed)
    return in_type(pref * (sign_pairs(n) * ratio), cleared_type([*u, *v, *w, alpha]))


def domain_wall_value(spec: IntermediateSpec):
    """Closed form of the n = 0 (domain-wall) intermediate scalar product."""
    _, _, v, w, alpha, M, N = (spec.n, spec.u, spec.v, spec.w, spec.alpha, spec.M, spec.N)
    out = alpha ** (N * (N - 1) // 2)
    for vj in v:
        for k in range(1, M - N + 1):
            out = out * (exact_div(alpha * vj, w[k - 1]) - exact_div(w[k - 1], vj))
        out = out * vj ** (N - 1)
    for j in range(M - N + 1, M + 1):
        out = exact_div(out, w[j - 1] ** (N - 1))
    return in_type(out, cleared_type([*v, *w, alpha]))


def recursion_check(spec: IntermediateSpec) -> bool:
    """Freezing the top row: S at u_n = +-alpha^(-1/2) w_{M-N+n} reduces to n-1.

    Both signs are tested.  Exact mode needs alpha to be a perfect rational
    square; complex alpha goes through cmath.sqrt.
    """
    n, u, v, w, alpha, M, N = spec.n, spec.u, spec.v, spec.w, spec.alpha, spec.M, spec.N
    _require_int("n", n, 1)  # the recursion freezes a C-operator's row
    sqrt_alpha = cmath.sqrt(alpha) if is_inexact(alpha) else rational_sqrt(alpha)
    w_special = w[M - N + n - 1]
    w_prod = prod(w)
    lower = IntermediateSpec(n - 1, u[:n - 1], v, w, alpha, M, N)
    s_lower = intermediate_scalar_det(lower)
    for sign in (1, -1):
        u_n = sign * w_special / sqrt_alpha
        upper = IntermediateSpec(n, u[:n - 1] + (u_n,), v, w, alpha, M, N)
        s_upper = intermediate_scalar_det(upper)
        factor = exact_div(alpha ** (N - n) * exact_pow(sqrt_alpha, -(M - 1)) * sign ** (M - 1)
                           * w_special ** M, w_prod)
        if not is_zero(s_upper - factor * s_lower, 1e-9):
            return False
    return True


def norm_det(u, alpha, M, method: str = "det"):
    """Norm of an on-shell state: prod u^(2(M+N-1)) prod_{j!=k}(u_j^2-u_k^2)^-1 det Q~.

    Q~_jk = -1 + delta_jk (alpha N + (M-N) u_j^-2)/(alpha - u_j^-2); method
    "sylvester" uses the rank-one-update closed form instead of the
    determinant.  Computable off-shell, but equals the u = v limit of the
    scalar product only on-shell.
    """
    u, alpha, M = [plain_int(x) for x in u], plain_int(alpha), _require_int("M", M, 0)
    n = len(u)
    diag = []
    for uj in u:
        inv2 = exact_pow(uj, -2)
        denom = alpha - inv2
        if is_inexact(denom) and abs(denom) < 1e-300 or (not is_inexact(denom) and denom == 0):
            raise ZeroDivisionError("norm determinant pole at alpha = u^-2")
        diag.append(exact_div(alpha * n + (M - n) * inv2, denom))
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
    pref = prod(uj ** (2 * (M + n - 1)) for uj in u)
    for j in range(n):
        for k in range(n):
            if j != k:
                pref = exact_div(pref, u[j] * u[j] - u[k] * u[k])
    return in_type(pref * dq, cleared_type([*u, alpha]))
