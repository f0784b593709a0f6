"""Local structure of the one-parameter five-vertex model family.

The L-operator on (auxiliary) x (quantum) = C^2 x C^2 has exactly five
nonzero weights at spectral value u,

    (a1, b, c, d, e) = (u, 1, 1, alpha*u - 1/u, alpha*u),

sitting at |00><00|, the two particle-exchange positions, |10><10| and
|11><11|.  The R-matrix carries f(v,u) = u^2/(u^2-v^2) and
g(v,u) = u*v/(u^2-v^2); together they satisfy the RLL relation and the
Yang-Baxter equation, both checked here as exact 8x8 matrix identities.
alpha = 1 is the TASEP point, alpha = 0 the four-vertex degeneration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .linalg import Matrix
from .partitions import _require_int
from .scalars import exact_div, exact_pow, is_zero


class VertexWeights(NamedTuple):
    """The five nonzero L-weights (a1, b, c, d, e) at spectral value u."""

    a1: object
    b: object
    c: object
    d: object
    e: object


@dataclass(frozen=True)
class ModelParameters:
    """Ring size M, deformation alpha, and inhomogeneities w (default all 1)."""

    alpha: object
    M: int
    w: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "M", _require_int("M", self.M, 0))
        w = self.w if self.w is not None else (1,) * self.M
        w = tuple(w)
        if len(w) != self.M:
            raise ValueError("need one inhomogeneity per site")
        if any(is_zero(wj, 0) for wj in w):
            raise ValueError("inhomogeneities must be nonzero")
        object.__setattr__(self, "w", w)


def _fg_denominator(a, b):
    """b^2 - a^2, refused at the pole a^2 = b^2 of f and g."""
    den = b * b - a * a
    if is_zero(den, 0):
        raise ZeroDivisionError("f/g weight pole at a^2 = b^2")
    return den


def f_weight(a, b):
    """f(a, b) = b^2 / (b^2 - a^2)."""
    return exact_div(b * b, _fg_denominator(a, b))


def g_weight(a, b):
    """g(a, b) = a*b / (b^2 - a^2)."""
    return exact_div(a * b, _fg_denominator(a, b))


def l_weights(u, alpha) -> VertexWeights:
    """Five-vertex weights (u, 1, 1, alpha*u - 1/u, alpha*u); u must be nonzero."""
    if is_zero(u, 0):
        raise ZeroDivisionError("L-operator is singular at u = 0")
    one = u ** 0
    return VertexWeights(u, one, one, alpha * u - exact_pow(u, -1), alpha * u)


def l_matrix(u, alpha) -> Matrix:
    """L-operator as a 4x4 matrix on (auxiliary) x (quantum), basis 00,01,10,11."""
    w = l_weights(u, alpha)
    return Matrix([
        [w.a1, 0, 0, 0],
        [0, 0, w.c, 0],
        [0, w.b, w.d, 0],
        [0, 0, 0, w.e],
    ])


def r_matrix(u, v) -> Matrix:
    """R-matrix with f(v,u), g(v,u) entries; pole at u^2 = v^2."""
    if is_zero(u * u - v * v, 0):
        raise ZeroDivisionError("R-matrix pole at u^2 = v^2")
    f = f_weight(v, u)
    g = g_weight(v, u)
    one = f - f + 1
    return Matrix([
        [f, 0, 0, 0],
        [0, 0, g, 0],
        [0, g, one, 0],
        [0, 0, 0, f],
    ])


def rtilde_matrix(u, alpha) -> Matrix:
    """The quantum-quantum intertwiner R~(u) (acts on V_j x V_k)."""
    if is_zero(u, 0):
        raise ZeroDivisionError("R~ is singular at u = 0")
    one = u ** 0
    return Matrix([
        [u, 0, 0, 0],
        [0, 0, one, 0],
        [0, one, alpha * (u - u ** -1), 0],
        [0, 0, 0, u],
    ])


def embed_two_site(m4: Matrix, pos) -> Matrix:
    """Embed a two-site 4x4 operator at spaces ``pos`` of a three-space chain."""
    p, q = pos
    out = [[0] * 8 for _ in range(8)]
    for col in range(8):
        bits = [(col >> (2 - i)) & 1 for i in range(3)]
        cin = 2 * bits[p] + bits[q]
        for rp in (0, 1):
            for rq in (0, 1):
                w = m4[2 * rp + rq, cin]
                if is_zero(w, 0):
                    continue
                ob = list(bits)
                ob[p], ob[q] = rp, rq
                row = sum(b << (2 - i) for i, b in enumerate(ob))
                out[row][col] = out[row][col] + w
    return Matrix(out)


def rll_check(u, v, alpha, l_builder=None) -> bool:
    """R_12(u,v) L_13(u) L_23(v) == L_23(v) L_13(u) R_12(u,v), exactly."""
    build = l_builder if l_builder is not None else (lambda x: l_matrix(x, alpha))
    r12 = embed_two_site(r_matrix(u, v), (0, 1))
    l13u = embed_two_site(build(u), (0, 2))
    l23v = embed_two_site(build(v), (1, 2))
    return r12 * l13u * l23v == l23v * l13u * r12


def ybe_check(u, v, w) -> bool:
    """Yang-Baxter equation for the R-matrix, exactly on C^2 x C^2 x C^2."""
    r12 = embed_two_site(r_matrix(u, v), (0, 1))
    r13 = embed_two_site(r_matrix(u, w), (0, 2))
    r23 = embed_two_site(r_matrix(v, w), (1, 2))
    return r12 * r13 * r23 == r23 * r13 * r12


def rtilde_check(u, w_j, w_k, alpha) -> bool:
    """R~_{jk}(w_j/w_k) L_{mk}(u/w_k) L_{mj}(u/w_j) == reversed, exactly.

    Spaces ordered (W_mu, V_j, V_k); this is the RLL relation on a common
    auxiliary space that makes the intermediate scalar products symmetric in
    the first M-N+n inhomogeneities.
    """
    if is_zero(w_j, 0) or is_zero(w_k, 0) or is_zero(u, 0):
        raise ZeroDivisionError("spectral arguments must be nonzero")
    rt = embed_two_site(rtilde_matrix(w_j / w_k, alpha), (1, 2))
    l_k = embed_two_site(l_matrix(u / w_k, alpha), (0, 2))
    l_j = embed_two_site(l_matrix(u / w_j, alpha), (0, 1))
    return rt * l_k * l_j == l_j * l_k * rt


def ansatz_l_matrix(u, A, B, C, D, f):
    """Five-vertex L-operator from the general solution family.

    d1 = A*u*f(u), d2 = f(u), d3 = B*f(u), d4 = (C*u - D/u)*f(u),
    d5 = C*u*f(u); the family solves the RLL relation iff B = A*D.
    """
    fu = f(u)
    return Matrix([
        [A * u * fu, 0, 0, 0],
        [0, 0, B * fu, 0],
        [0, fu, (C * u - D * u ** -1) * fu, 0],
        [0, 0, 0, C * u * fu],
    ])


def appendix_a_family_check(A, C, D, f, B=None) -> bool:
    """Check the ansatz family against the RLL relation at sample points.

    B defaults to A*D (the solvability constraint); passing any other B is
    expected to fail.  ``f`` is an arbitrary not-identically-zero rational
    function of u; points where f vanishes are skipped.
    """
    from fractions import Fraction

    b_const = A * D if B is None else B
    checked = 0
    for (u0, v0) in ((2, 3), (5, 7), (3, 11)):
        u, v = Fraction(u0), Fraction(v0)
        if is_zero(f(u), 0) or is_zero(f(v), 0):
            continue
        if not rll_check(u, v, None, l_builder=lambda x: ansatz_l_matrix(x, A, b_const, C, D, f)):
            return False
        checked += 1
    if checked == 0:
        raise ValueError("f vanished at every sample point; is it identically zero?")
    return True
