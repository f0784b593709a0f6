"""Determinant wavefunctions and their matrix-product construction.

Overlaps of off-shell Bethe states with configuration states (homogeneous
chain, x_1 < ... < x_N):

    <x|psi({v}_N)>  = prod_j v_j^(M-1) (alpha v_j^2 - 1)^-1
                      * det[ v_j^(2k) (alpha - v_j^-2)^(x_k) ] / prod_{j<k}(v_k^2 - v_j^2)

    <psi({u}_N)|x>  = prod_j (alpha u_j - 1/u_j)^M u_j^(2N-1)
                      * det[ u_j^(-2k) (alpha - u_j^-2)^(-x_k) ] / prod_{j<k}(u_j^2 - u_k^2)

Both are symmetric in the spectral parameters and, under
z_j = alpha - v_j^-2, are Grothendieck polynomials up to explicit factors.
They and the weighted summation formulas (``wavefunction_sum``,
``dual_wavefunction_sum``) are confluent determinant ratios in s = v^2, so
spectral parameters with equal squares take the confluent limit.
``wavefunction_dets`` takes either overlap over a list of configurations,
and the scalar overlaps are its one-configuration case.  It keeps the point
work of the last set of spectral parameters, so a loop of scalar overlaps
over a basis costs what one call over the basis does: one determinant per
configuration.

Its columns are pole-free.  By multilinearity each row's pole moves into
its entries: the primal takes the columns s^(k-x_k) (alpha s - 1)^(x_k-1)
with prefactor prod v^(M-1), the dual the columns
s^(x_k-k) (alpha s - 1)^(M-x_k) with prefactor
sign prod u^(2N-1-M), s = v^2.  So a complex overlap has no
(alpha s - 1)^-x to lose digits to, and in Q(alpha, u) the row
denominators are powers of u alone.  The refusals at alpha v^2 = 1 are
kept as the contract of both overlaps, where the formulas above have
their pole.

The independent construction behind these formulas is a matrix product over
the 2^N auxiliary product space: the column-to-row transposed monodromy
splits into operators A_n, B_n, C_n obeying simple exchange relations, and

    <psi({u}_N)|x> = Tr[ A^(M-x_N) B A^(x_N - x_{N-1} - 1) ... B A^(x_1 - 1) P ],

P = |0^N><1^N| (the dual overlap uses C and Q = |1^N><0^N|).  Both routes
are implemented; their agreement is one of the package's master checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .confluent import PointTable, det_ratio_columns, sign_pairs
from .linalg import Matrix
from .partitions import ParticleConfiguration, _require_int
from .ratfunc import RatFunc
from .scalars import (cache_key, cleared_type, eq, exact_div, exact_pow, in_type, is_inexact,
                      is_zero, plain_int)

from math import comb, prod


def _positions(x, M):
    """The positions of ``x``, refused unless 1 <= x_1 < ... < x_N <= M."""
    pos = x.positions if isinstance(x, ParticleConfiguration) else tuple(x)
    if any(a >= b for a, b in zip(pos, pos[1:])) or pos and (pos[0] < 1 or pos[-1] > M):
        raise ValueError(f"configuration {pos} needs 1 <= x_1 < ... < x_N <= {M}")
    return pos


def wavefunction_det(x, v, alpha, M):
    """<x_1...x_N | psi({v}_N)> as a determinant; poles at v = 0, alpha v^2 = 1."""
    return wavefunction_dets([x], v, alpha, M)[0]


def dual_wavefunction_det(x, u, alpha, M):
    """<psi({u}_N) | x_1...x_N> as a determinant; also needs alpha != u^-2."""
    return wavefunction_dets([x], u, alpha, M, dual=True)[0]


# the key (v, alpha, M, dual, by ``cache_key``) and the sector table of the last call
_last_sector = [None, None]


def wavefunction_dets(configs, v, alpha, M, dual: bool = False):
    """[<x|psi({v}_N)> for x in configs], or <psi({v}_N)|x> with ``dual``.

    The point work is done once per set of spectral parameters: the pole
    checks, the prefactor and a ``confluent.PointTable`` over s = v^2 of all
    N(M-N+1) columns (k, x_k) of the sector.  The table of the last (v,
    alpha, M, dual) is kept, so a loop of ``wavefunction_det`` over a basis
    costs one determinant per configuration, as one call over the basis
    does.  A configuration outside 1 <= x_1 < ... < x_N <= M is refused, and
    a refused call leaves the kept table as it was.
    """
    M = _require_int("M", M, 0)
    v, alpha = [plain_int(x) for x in v], plain_int(alpha)
    n = len(v)
    positions = []
    for x in configs:
        if len(x) != n:
            raise ValueError("configuration size must match the number of parameters")
        positions.append(_positions(x, M))
    key = (tuple(map(cache_key, v)), cache_key(alpha), cache_key(M), dual)
    last_key, sector = _last_sector
    if last_key != key:
        sector = _sector_table(v, alpha, M, dual)
    pref, index, table = sector
    ratios = table.ratios([[index[kx] for kx in enumerate(pos, 1)] for pos in positions])
    _last_sector[:] = key, sector
    kind = cleared_type([*v, alpha])
    return [in_type(pref * ratio, kind) for ratio in ratios]


def _sector_table(v, alpha, M, dual):
    """(prefactor, column index of each (k, x_k), ``PointTable``) of the overlaps at v."""
    n = len(v)
    pref = 1
    for vj in v:
        # the columns below have no pole at alpha v^2 = 1; refusing it is the contract
        if is_zero(vj, 0) or is_zero(alpha * vj * vj - 1, 0):
            raise ZeroDivisionError("dual wavefunction pole at u = 0 or alpha = u^-2" if dual
                                    else "wavefunction pole at v = 0 or alpha v^2 = 1")
        pref = pref * (exact_pow(vj, 2 * n - 1 - M) if dual else vj ** (M - 1))
    if dual:
        pref = pref * sign_pairs(n)
    # entry v^(2k) (alpha - v^-2)^(x_k) = s^(k - x_k) (alpha s - 1)^(x_k), s = v^2, with the
    # row's pole (alpha s - 1)^-1 folded in; dual: 1/entry times the row's (alpha s - 1)^M,
    # which turns the prefactor's (alpha u - 1/u)^M into u^-M
    lin = (-1, alpha)
    keys = [(k, xk) for k in range(1, n + 1) for xk in range(k, M - n + k + 1)]
    columns = [RatFunc([(1, xk - k, M - xk) if dual else (1, k - xk, xk - 1)], lin)
               for k, xk in keys]
    return pref, {kx: i for i, kx in enumerate(keys)}, PointTable(columns, [vj * vj for vj in v])


def step_overlap_value(u, alpha, M):
    """Closed form <psi({u}_N)|12...N> = alpha^(N(N-1)/2) prod u^(N-1) (alpha u - 1/u)^(M-N)."""
    n, M = len(u), _require_int("M", M, 0)
    u, alpha = [plain_int(x) for x in u], plain_int(alpha)
    out = alpha ** (n * (n - 1) // 2)
    for uj in u:
        out = out * uj ** (n - 1) * (alpha * uj - exact_pow(uj, -1)) ** (M - n)
    return in_type(out, cleared_type([*u, alpha]))


def staircase_overlap_value(u, alpha, M):
    """Closed form for x_j = 2j-1: prod (alpha u - 1/u)^(M-2N+1) prod_{j<k} (alpha^2 u_j^2 u_k^2 - 1)."""
    n, M = len(u), _require_int("M", M, 0)
    u, alpha = [plain_int(x) for x in u], plain_int(alpha)
    out = prod((alpha * uj - exact_pow(uj, -1)) ** (M - 2 * n + 1) for uj in u)
    for j in range(n):
        for k in range(j + 1, n):
            out = out * (alpha ** 2 * u[j] ** 2 * u[k] ** 2 - 1)
    return in_type(out, cleared_type([*u, alpha]))


@dataclass
class MatrixProductState:
    """Transposed-monodromy operators on the 2^n auxiliary product space.

    A, B, C, D are the plain-frame operators; ``a_diag`` is the diagonal of
    the conjugated A (frame G), and ``b_split``/``c_split`` decompose the
    conjugated B and C into the parts attached to each spectral parameter,
    classified by their exchange weight u_j/(alpha u_j - 1/u_j) against the
    diagonal A.
    """

    u: tuple
    alpha: object
    A: Matrix
    B: Matrix
    C: Matrix
    D: Matrix
    G: Matrix
    G_inv: Matrix
    a_diag: list
    b_split: dict = field(default_factory=dict)
    c_split: dict = field(default_factory=dict)

    @property
    def n(self):
        return len(self.u)

    def b_script(self):
        return self.G_inv * self.B * self.G

    def c_script(self):
        return self.G_inv * self.C * self.G

    def a_script(self):
        dim = len(self.a_diag)
        return Matrix([[self.a_diag[i] if i == j else 0 for j in range(dim)] for i in range(dim)])


def _block2(tl, tr, bl, br):
    """Assemble a 2x2 block matrix (new auxiliary bit is the outer index)."""
    return Matrix([a + b for a, b in zip(tl.data, tr.data)]
                  + [a + b for a, b in zip(bl.data, br.data)])


# the least relative gap of two float exchange weights: the frame change divides by their
# difference, so the trace is within about 1e-16 / gap of the determinants (1.9e-10 at 1.1e-6)
_Q_GAP = 1e-6
# a float split entry that matches no q_j is a rounding residue below this share of the
# largest |entry| (residues measured up to 1e-8 at n = 6; matched ratios within 7e-16)
_RESIDUE = 1e-6


def _refuse_degenerate(q_weights):
    """Refuse two exchange weights equal, or for floats within a relative ``_Q_GAP``."""
    for (j, qj), (k, qk) in combinations(enumerate(q_weights, start=1), 2):
        if is_zero(qj - qk, _Q_GAP * max(abs(qj), abs(qk)) if is_inexact(qj - qk) else 0):
            raise ValueError("degenerate spectral parameters break the operator split: "
                             f"the exchange weights q_{j} and q_{k} agree within a "
                             f"relative {_Q_GAP:g}")


def _split_by_weight(mat, a_diag, q_weights, conjugation="B"):
    """Split entries of ``mat`` by their exchange weight against diag(a_diag).

    For B-type operators the entry (r, c) belongs to parameter j when
    a_diag[c]/a_diag[r] equals q_j (for floats to within half of ``_Q_GAP``,
    relatively); for C-type when a_diag[r]/a_diag[c] does.  A float entry
    that matches no q_j and is below ``_RESIDUE`` times the largest |entry|
    is a rounding residue and dropped; any other unclassifiable nonzero
    entry is refused.
    """
    dim = mat.rows
    scale = max((abs(x) for row in mat.data for x in row if is_inexact(x)), default=0)
    split = {j: Matrix.zeros(dim, dim) for j in range(1, len(q_weights) + 1)}
    for r in range(dim):
        for c in range(dim):
            val = mat[r, c]
            if is_zero(val, 0):
                continue
            ratio = (exact_div(a_diag[c], a_diag[r]) if conjugation == "B"
                     else exact_div(a_diag[r], a_diag[c]))
            for j, q in enumerate(q_weights, start=1):
                if eq(ratio, q, _Q_GAP / 2 * abs(q) if is_inexact(q) else 0):
                    split[j][r, c] = val
                    break
            else:
                if not is_zero(val, _RESIDUE * scale):
                    raise ValueError("degenerate spectral parameters break the operator split")
    return split


def matrix_product_build(u, alpha) -> MatrixProductState:
    """Build A_n, B_n, C_n, D_n with the diagonalizing frame and split parts.

    Recursion (new auxiliary space outermost; dted = alpha t - 1/t):

        A_{n+1} = [[t A_n, B_n], [0, d A_n]]      B_{n+1} = [[0, 0], [A_n, alpha t B_n]]
        C_{n+1} = [[t C_n, D_n], [0, d C_n]]      D_{n+1} = [[0, 0], [C_n, alpha t D_n]]

    starting from A_1 = diag(u_1, alpha u_1 - 1/u_1), B_1 = |1><0|.
    """
    u, alpha = tuple(plain_int(x) for x in u), plain_int(alpha)
    # a verification artifact of 2^n auxiliary dimension: the determinants serve larger n
    _require_int("len(u)", len(u), 1, 6)
    for uj in u:
        if is_zero(uj, 0) or is_zero(alpha * uj * uj - 1, 0):
            raise ZeroDivisionError("matrix product needs u != 0 and alpha u^2 != 1")
    u1 = u[0]
    d1 = alpha * u1 - exact_pow(u1, -1)
    a_mat = Matrix([[u1, 0], [0, d1]])
    b_mat = Matrix([[0, 0], [1, 0]])
    c_mat = Matrix([[0, 1], [0, 0]])
    d_mat = Matrix([[0, 0], [0, alpha * u1]])
    g_mat = Matrix.identity(2)
    g_inv = Matrix.identity(2)
    a_diag = [u1, d1]
    q_weights = [exact_div(uj, alpha * uj - exact_pow(uj, -1)) for uj in u]
    _refuse_degenerate(q_weights)
    for step in range(1, len(u)):
        t = u[step]
        dt = alpha * t - exact_pow(t, -1)
        dim = a_mat.rows
        # script-frame B of the current level, split by exchange weight
        b_script = g_inv * b_mat * g_mat
        split = _split_by_weight(b_script, a_diag, q_weights[:step], "B")
        h_mat = Matrix.zeros(dim, dim)
        for j in range(1, step + 1):
            uj = u[j - 1]
            coeff = exact_div(alpha * uj - exact_pow(uj, -1),
                              exact_pow(uj, -1) * t - uj * exact_pow(t, -1))
            h_mat = h_mat + split[j].scale(coeff)
        h_mat = Matrix([[exact_div(h_mat[r, c], a_diag[r]) for c in range(dim)]
                        for r in range(dim)])
        zero = Matrix.zeros(dim, dim)
        a_new = _block2(a_mat.scale(t), b_mat, zero, a_mat.scale(dt))
        b_new = _block2(zero, zero, a_mat, b_mat.scale(alpha * t))
        c_new = _block2(c_mat.scale(t), d_mat, zero, c_mat.scale(dt))
        d_new = _block2(zero, zero, c_mat, d_mat.scale(alpha * t))
        g_new = _block2(g_mat, g_mat * h_mat, zero, g_mat)
        g_inv_new = _block2(g_inv, (-1) * (h_mat * g_inv), zero, g_inv)
        a_mat, b_mat, c_mat, d_mat = a_new, b_new, c_new, d_new
        g_mat, g_inv = g_new, g_inv_new
        a_diag = [t * x for x in a_diag] + [dt * x for x in a_diag]
    mps = MatrixProductState(u, alpha, a_mat, b_mat, c_mat, d_mat,
                             g_mat, g_inv, a_diag)
    mps.b_split = _split_by_weight(mps.b_script(), a_diag, q_weights, "B")
    mps.c_split = _split_by_weight(mps.c_script(), a_diag, q_weights, "C")
    return mps


def wavefunction_trace(x, u, alpha, M, mps: MatrixProductState = None, dual: bool = True):
    """Trace-formula evaluation of the overlap through the matrix product.

    dual=True gives <psi({u}_N)|x> (B-string against P = |0^N><1^N|),
    dual=False gives <x|psi({u}_N)> (C-string against Q = |1^N><0^N|).  A
    configuration outside 1 <= x_1 < ... < x_N <= M is refused.
    """
    M = _require_int("M", M, 0)
    pos = _positions(x, M)
    n = len(pos)
    if mps is None:
        mps = matrix_product_build(u, alpha)
    if mps.n != n:
        raise ValueError("matrix product state size must match the configuration")
    a_mat = mps.A
    x_mat = mps.B if dual else mps.C
    powers = [pos[0] - 1, *(b - a - 1 for a, b in zip(pos, pos[1:])), M - pos[-1]]
    result = Matrix.identity(a_mat.rows)
    for k in range(n + 1):
        for _ in range(powers[k]):
            result = a_mat * result
        if k < n:
            result = x_mat * result
    top = 2 ** n - 1
    return in_type(result[top, 0] if dual else result[0, top], cleared_type([*mps.u, mps.alpha]))


def _sum_weight(alpha, M, m):
    return (-1) ** m * alpha ** (M - m) * comb(M, m)


def wavefunction_sum(v, alpha, M):
    """sum_x alpha^(MN - sum x_j) <x|psi({v}_N)> over increasing configurations.

    Column j is a short sum of c s^(-p) in s = v^2, times prod v^(M+1);
    coincident s take Taylor rows.
    """
    return _weighted_sum(v, alpha, M, dual=False)


def dual_wavefunction_sum(u, alpha, M):
    """sum_x alpha^(sum x_j - N) <psi({u}_N)|x> over increasing configurations.

    The columns of ``wavefunction_sum`` in reverse order, times sign_pairs(N) prod u^(M+1).
    """
    return _weighted_sum(u, alpha, M, dual=True)


def _weighted_sum(v, alpha, M, dual):
    v, alpha, M = [plain_int(x) for x in v], plain_int(alpha), _require_int("M", M, 0)
    n = len(v)
    cols = [RatFunc([(_sum_weight(alpha, M, m), j - 1 - m, 0) for m in range(j)])
            for j in range(1, n)]
    if n:
        top = RatFunc([(-_sum_weight(alpha, M, m), n - 1 - m, 0)
                       for m in range(max(n - 1, 1), M + 1)])
        cols = [top] + cols[::-1] if dual else cols + [top]
    pref = prod(vj ** (M + 1) for vj in v) * (sign_pairs(n) if dual else 1)
    return in_type(pref * det_ratio_columns(cols, [vj * vj for vj in v]), cleared_type([*v, alpha]))
