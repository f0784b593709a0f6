"""Local structure of the one-parameter five-vertex model family.

The L-operator on (auxiliary) x (quantum) = C^2 x C^2 has exactly five
nonzero weights at spectral value u,

    (a1, b, c, d, e) = (u, 1, 1, alpha*u - 1/u, alpha*u),

sitting at |00><00|, the two particle-exchange positions, |10><10| and
|11><11|.  The R-matrix carries f(v,u) = u^2/(u^2-v^2) and
g(v,u) = u*v/(u^2-v^2); together they satisfy the RLL relation and the
Yang-Baxter equation, both checked here as exact 8x8 matrix identities.
alpha = 1 is the TASEP point, alpha = 0 the four-vertex degeneration.

The RLL, Yang-Baxter and R~ checks, and through RLL the Appendix A family,
are one relation X Y Z == Z Y X of three two-site factors on a three-space
chain.  Each factor is embedded through a fixed map from its 4x4 entries to
the 8x8 entries they fill, one per space pair.  The exact lane's one rule,
``scalars.cleared_type`` over the entries of the three factors, decides
whether they are cleared: on an exact lane each factor is first scaled by
the lcm of its entries' denominators (``scalars.cleared``), so both sides
carry the same nonzero factor d_X d_Y d_Z, the verdict is that of the
unscaled products, and every product is of ints, or of elements of the
polynomial ring of the entries' field.  A complex entry anywhere leaves the
factors as they are.  Int spectral values stay exact: 1/u is an int or a
Fraction (``scalars.exact_pow``), never a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import NamedTuple

from .linalg import Matrix
from .partitions import _require_int
from .scalars import cleared, cleared_type, exact_div, exact_pow, is_zero, plain_int


class VertexWeights(NamedTuple):
    """The five nonzero L-weights (a1, b, c, d, e) at spectral value u."""

    a1: object
    b: object
    c: object
    d: object
    e: object


@dataclass(frozen=True)
class ModelParameters:
    """Ring size M, deformation alpha, and inhomogeneities w (default all 1).

    An integral alpha or w_j (a numpy int, say) is kept as a Python int.
    """

    alpha: object
    M: int
    w: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "M", _require_int("M", self.M, 0))
        object.__setattr__(self, "alpha", plain_int(self.alpha))
        w = tuple(map(plain_int, self.w)) if self.w is not None else (1,) * self.M
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
    den = u * u - v * v
    if is_zero(den, 0):
        raise ZeroDivisionError("R-matrix pole at u^2 = v^2")
    # f(v, u) and g(v, u), over the one denominator
    f = exact_div(u * u, den)
    g = exact_div(v * u, den)
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
        [0, one, alpha * (u - exact_pow(u, -1)), 0],
        [0, 0, 0, u],
    ])


def _embedding(p, q):
    """(row, col, i, j): the 8x8 entries that entry (i, j) of an operator on spaces p, q fills."""
    cells = []
    for col in range(8):
        bits = [(col >> (2 - k)) & 1 for k in range(3)]
        for i in range(4):
            out = list(bits)
            out[p], out[q] = divmod(i, 2)
            cells.append((sum(b << (2 - k) for k, b in enumerate(out)), col, i,
                          2 * bits[p] + bits[q]))
    return tuple(cells)


_EMBEDDINGS = {pos: _embedding(*pos) for pos in permutations(range(3), 2)}


def embed_two_site(m4: Matrix, pos) -> Matrix:
    """Embed a two-site 4x4 operator at spaces ``pos`` of a three-space chain."""
    cells = _EMBEDDINGS.get(tuple(pos))
    if cells is None:
        raise ValueError(f"pos must be two distinct spaces of 0..2, got {pos!r}")
    out = [[0] * 8 for _ in range(8)]
    data = m4.data
    for row, col, i, j in cells:
        w = data[i][j]
        if not w == 0:
            out[row][col] = w
    return Matrix(out)


def _cleared(m4: Matrix) -> Matrix:
    """A 4x4 factor scaled by the lcm of its entries' denominators (``scalars.cleared``)."""
    nums, _ = cleared([x for row in m4.data for x in row])
    return Matrix([nums[i:i + 4] for i in range(0, 16, 4)])


def _relation_holds(x, y, z) -> bool:
    """X Y Z == Z Y X for three (4x4 matrix, space pair) factors of the three-space chain.

    When the entries of all three have an exact ``scalars.cleared_type``, each
    factor is cleared of its denominators first (all or nothing), which
    scales both sides alike.
    """
    factors = (x, y, z)
    if cleared_type([e for m4, _ in factors for row in m4.data for e in row]) is not None:
        factors = [(_cleared(m4), pos) for m4, pos in factors]
    ex, ey, ez = (embed_two_site(m4, pos) for m4, pos in factors)
    return ex * ey * ez == ez * ey * ex


def rll_check(u, v, alpha, l_builder=None) -> bool:
    """R_12(u,v) L_13(u) L_23(v) == L_23(v) L_13(u) R_12(u,v), exactly.

    Through ``_relation_holds``: on cleared numerators when every weight is exact.
    """
    build = l_builder if l_builder is not None else (lambda x: l_matrix(x, alpha))
    return _relation_holds((r_matrix(u, v), (0, 1)), (build(u), (0, 2)), (build(v), (1, 2)))


def ybe_check(u, v, w) -> bool:
    """Yang-Baxter equation for the R-matrix, exactly on C^2 x C^2 x C^2.

    Through ``_relation_holds``: on cleared numerators when u, v and w are exact.
    """
    return _relation_holds((r_matrix(u, v), (0, 1)), (r_matrix(u, w), (0, 2)),
                           (r_matrix(v, w), (1, 2)))


def rtilde_check(u, w_j, w_k, alpha) -> bool:
    """R~_{jk}(w_j/w_k) L_{mk}(u/w_k) L_{mj}(u/w_j) == reversed, exactly.

    Spaces ordered (W_mu, V_j, V_k); this is the RLL relation on a common
    auxiliary space that makes the intermediate scalar products symmetric in
    the first M-N+n inhomogeneities.  The ratios are ``exact_div``s, so int
    arguments stay exact, and with exact arguments the relation is checked
    on cleared numerators (``_relation_holds``).
    """
    if is_zero(w_j, 0) or is_zero(w_k, 0) or is_zero(u, 0):
        raise ZeroDivisionError("spectral arguments must be nonzero")
    return _relation_holds((rtilde_matrix(exact_div(w_j, w_k), alpha), (1, 2)),
                           (l_matrix(exact_div(u, w_k), alpha), (0, 2)),
                           (l_matrix(exact_div(u, w_j), alpha), (0, 1)))


def ansatz_l_matrix(u, A, B, C, D, f):
    """Five-vertex L-operator from the general solution family.

    d1 = A*u*f(u), d2 = f(u), d3 = B*f(u), d4 = (C*u - D/u)*f(u),
    d5 = C*u*f(u); the family solves the RLL relation iff B = A*D.
    """
    fu = f(u)
    return Matrix([
        [A * u * fu, 0, 0, 0],
        [0, 0, B * fu, 0],
        [0, fu, (C * u - D * exact_pow(u, -1)) * fu, 0],
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
