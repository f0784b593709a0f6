"""Dense monodromy-matrix operators on particle-number sectors.

The monodromy matrix T(u,{w}) = L_M(u/w_M) ... L_1(u/w_1) has auxiliary-space
blocks A, B, C, D acting on the M-site quantum chain.  All four conserve or
shift the particle number by one, so the full 2^M space is never built:
operators are dense matrices between binomial(M,n) configuration bases,
computed by sweeping the auxiliary bit through sites 1..M (site 1 first) and
branching over the five admissible vertices.

A ``SectorOperator`` is a ``linalg.Matrix`` labelled with its source and
target sectors and ring size; the matrix arithmetic is ``Matrix``'s, and the
labels only refuse compositions and sums whose sectors do not fit.  A sector
outside 0..M has dimension zero, so an element that leaves the ring's
sectors composes to the zero operator with no special case.

This module is the brute-force oracle layer: every determinant formula in the
package is tested against matrix elements produced here.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .linalg import Matrix
from .scalars import exact_div, is_zero
from .vertex import ModelParameters, f_weight

__all__ = [
    "ModelParameters",
    "SectorOperator",
    "sector_basis",
    "sector_dim",
    "basis_index",
    "build_monodromy_element",
    "transfer_matrix",
    "hamiltonian",
    "bethe_state",
    "dual_bethe_state",
    "bethe_residual",
    "transfer_eigenvalue",
    "commutation_checks",
    "rtt_check",
]

#: (aux_out, aux_in) of the four monodromy elements
_KIND_AUX = {"A": (0, 0), "B": (0, 1), "C": (1, 0), "D": (1, 1)}


def sector_dim(M: int, n: int) -> int:
    return comb(M, n) if 0 <= n <= M else 0


def sector_basis(M: int, n: int):
    """Configurations of the n-particle sector as sorted position tuples."""
    if not 0 <= n <= M:
        return ()
    return tuple(combinations(range(1, M + 1), n))


def basis_index(M: int, n: int):
    return {cfg: i for i, cfg in enumerate(sector_basis(M, n))}


class SectorOperator(Matrix):
    """Dense matrix from the n-particle (source) to the n'-particle (target) basis.

    Products chain sectors (``A * B`` needs ``B.target == A.source`` and maps
    ``B.source`` to ``A.target``), sums need equal sectors, and operators on
    different sectors compare unequal even when their shapes agree.
    """

    __slots__ = ("source", "target", "M")

    def __init__(self, data, source, target, M):
        super().__init__(data, shape=(sector_dim(M, target), sector_dim(M, source)))
        self.source = source
        self.target = target
        self.M = M

    @classmethod
    def zero(cls, source, target, M):
        return cls(Matrix.zeros(sector_dim(M, target), sector_dim(M, source)).data,
                   source, target, M)

    def _labelled(self, m: Matrix, source):
        """``m`` as an operator from sector ``source`` to this operator's target."""
        return SectorOperator(m.data, source, self.target, self.M)

    def _same_sectors(self, other):
        return (other.source, other.target, other.M) == (self.source, self.target, self.M)

    def __mul__(self, other):
        if not isinstance(other, SectorOperator):
            return Matrix.__mul__(self, other)
        if (other.target, other.M) != (self.source, self.M):
            raise ValueError("sector mismatch in composition")
        return self._labelled(Matrix.__mul__(self, other), other.source)

    def scale(self, s):
        return self._labelled(Matrix.scale(self, s), self.source)

    def __add__(self, other):
        if not self._same_sectors(other):
            raise ValueError("sector mismatch in sum")
        return self._labelled(Matrix.__add__(self, other), self.source)

    def __sub__(self, other):
        if not self._same_sectors(other):
            raise ValueError("sector mismatch in difference")
        return self._labelled(Matrix.__sub__(self, other), self.source)

    def __eq__(self, other):
        if isinstance(other, SectorOperator) and not self._same_sectors(other):
            return False
        return Matrix.__eq__(self, other)

    def __repr__(self):
        return f"SectorOperator({self.source}->{self.target}, M={self.M})"


def _vertex_branches(aux, occ, x, alpha):
    """Admissible vertices for (aux_in, site_in) at spectral value x."""
    if aux == 0:
        if occ == 0:
            return ((0, 0, x),)
        return ((1, 0, 1),)
    if occ == 0:
        return ((0, 1, 1), (1, 0, alpha * x - x ** -1))
    return ((1, 1, alpha * x),)


def build_monodromy_element(kind, u, params: ModelParameters, n: int,
                            strict: bool = True) -> SectorOperator:
    """Monodromy element ``kind`` in {A,B,C,D} at spectral value u, on sector n.

    B raises the particle number by one, C lowers it, A and D preserve it.
    The auxiliary bit enters at site 1 in the column state and leaves at
    site M in the row state (T = L_M ... L_1).  Source or target sectors
    outside 0..M raise unless ``strict`` is off, in which case they give the
    zero-dimensional operator (B annihilates the full ring, C the vacuum);
    the boundary-sector relation checks rely on that convention.
    """
    if kind not in _KIND_AUX:
        raise ValueError(f"unknown monodromy element {kind!r}")
    if is_zero(u, 0):
        raise ZeroDivisionError("monodromy elements are singular at u = 0")
    a_out, b_in = _KIND_AUX[kind]
    if strict and not (0 <= n <= params.M and 0 <= n + (b_in - a_out) <= params.M):
        raise ValueError(f"sector overflow: {kind} cannot act on sector {n} of {params.M} sites")
    M, alpha, w = params.M, params.alpha, params.w
    n_out = n + (b_in - a_out)
    src = sector_basis(M, n)
    dst_index = basis_index(M, n_out)
    rows = sector_dim(M, n_out)
    entries = [[0] * len(src) for _ in range(rows)]
    for col, cfg in enumerate(src):
        occ = [0] * (M + 1)
        for x in cfg:
            occ[x] = 1
        states = {(b_in, ()): 1}
        for j in range(1, M + 1):
            xj = u / w[j - 1]
            new_states = {}
            for (aux, out_bits), amp in states.items():
                for (aux2, s_out, weight) in _vertex_branches(aux, occ[j], xj, alpha):
                    key = (aux2, out_bits + (s_out,))
                    val = amp * weight
                    if key in new_states:
                        new_states[key] = new_states[key] + val
                    else:
                        new_states[key] = val
            states = new_states
        for (aux, out_bits), amp in states.items():
            if aux != a_out:
                continue
            out_cfg = tuple(j + 1 for j, b in enumerate(out_bits) if b)
            entries[dst_index[out_cfg]][col] = entries[dst_index[out_cfg]][col] + amp
    return SectorOperator(entries, n, n_out, M)


def transfer_matrix(u, params: ModelParameters, n: int) -> SectorOperator:
    """tau(u) = A(u) + D(u) on the n-particle sector."""
    return build_monodromy_element("A", u, params, n) + build_monodromy_element("D", u, params, n)


def hamiltonian(params: ModelParameters, n: int) -> SectorOperator:
    """H = sum_j [ alpha s+_j s-_{j+1} + (s^z_j s^z_{j+1} - 1)/4 ], periodic.

    Columns are source configurations; at alpha = 1 every column sums to
    zero and H is the TASEP generator.
    """
    M, alpha = params.M, params.alpha
    src = sector_basis(M, n)
    index = basis_index(M, n)
    entries = [[0] * len(src) for _ in range(len(src))]
    for col, cfg in enumerate(src):
        occ = [0] * (M + 1)
        for x in cfg:
            occ[x] = 1
        unequal = 0
        for j in range(1, M + 1):
            jn = j % M + 1
            if occ[j] != occ[jn]:
                unequal += 1
            if occ[j] == 1 and occ[jn] == 0:
                moved = tuple(sorted(set(cfg) - {j} | {jn}))
                entries[index[moved]][col] = entries[index[moved]][col] + alpha
        entries[col][col] = entries[col][col] - exact_div(unequal, 2)
    return SectorOperator(entries, n, n, M)


def bethe_state(v_list, params: ModelParameters):
    """prod_j B(v_j) |Omega> as an amplitude vector on the len(v)-sector."""
    vec = [1]
    for k, v in enumerate(v_list):
        vec = build_monodromy_element("B", v, params, k).apply(vec)
    return vec


def dual_bethe_state(u_list, params: ModelParameters):
    """<Omega| prod_j C(u_j) as an amplitude covector on the len(u)-sector."""
    bra = Matrix([[1]])
    for k, u in enumerate(u_list):
        bra = bra * build_monodromy_element("C", u, params, k + 1)
    return bra.data[0]


def _a_func(u, params):
    out = 1
    for wj in params.w:
        out = out * (u / wj)
    return out


def _d_func(u, params):
    out = 1
    for wj in params.w:
        out = out * (params.alpha * u / wj - wj / u)
    return out


def bethe_residual(u_set, params: ModelParameters):
    """Per-root residuals of a(u_j)/d(u_j) + prod_k f(u_k,u_j)/f(u_j,u_k).

    The k = j factor of the product is its algebraic continuation
    -u_j^2/u_k^2 = -1, which makes a vanishing residual equivalent to the
    z-form Bethe equations under z = alpha - u^{-2}.
    """
    n = len(u_set)
    prod_sq = 1
    for u in u_set:
        prod_sq = prod_sq * u * u
    out = []
    for uj in u_set:
        ratio = (-1) ** n * uj ** (2 * n) / prod_sq
        out.append(_a_func(uj, params) / _d_func(uj, params) + ratio)
    return out


def transfer_eigenvalue(u, u_set, params: ModelParameters):
    """Eigenvalue a(u) prod_j f(u,u_j) + d(u) prod_j f(u_j,u) of tau(u).

    Valid on the state built from an on-shell set {u}_N; u must avoid the
    poles u^2 = u_j^2.
    """
    term_a = _a_func(u, params)
    term_d = _d_func(u, params)
    for uj in u_set:
        term_a = term_a * f_weight(u, uj)
        term_d = term_d * f_weight(uj, u)
    return term_a + term_d


def commutation_checks(u, v, params: ModelParameters, n: int) -> dict:
    """The four quadratic relations of the monodromy algebra on sector n.

    CB:  C(u)B(v) = g(u,v) [A(u)D(v) - A(v)D(u)]
    AB:  A(u)B(v) = f(u,v) B(v)A(u) + g(v,u) B(u)A(v)
    DB:  D(u)B(v) = f(v,u) B(v)D(u) + g(u,v) B(u)D(v)
    BB/CC:  [B(u),B(v)] = [C(u),C(v)] = 0

    Valid on every sector including the boundaries, where overflowing
    elements act as zero-dimensional operators.
    """
    from .vertex import g_weight

    def elem(kind, x, sec):
        return build_monodromy_element(kind, x, params, sec, strict=False)

    f_uv = f_weight(u, v)
    f_vu = f_weight(v, u)
    g_uv = g_weight(u, v)
    g_vu = g_weight(v, u)

    cb_lhs = elem("C", u, n + 1) * elem("B", v, n)
    cb_rhs = (elem("A", u, n) * elem("D", v, n) - elem("A", v, n) * elem("D", u, n)).scale(g_uv)

    ab_lhs = elem("A", u, n + 1) * elem("B", v, n)
    ab_rhs = (elem("B", v, n) * elem("A", u, n)).scale(f_uv) \
        + (elem("B", u, n) * elem("A", v, n)).scale(g_vu)

    db_lhs = elem("D", u, n + 1) * elem("B", v, n)
    db_rhs = (elem("B", v, n) * elem("D", u, n)).scale(f_vu) \
        + (elem("B", u, n) * elem("D", v, n)).scale(g_uv)

    bb = elem("B", u, n + 1) * elem("B", v, n) == elem("B", v, n + 1) * elem("B", u, n)
    cc = elem("C", u, n - 1) * elem("C", v, n) == elem("C", v, n - 1) * elem("C", u, n)

    return {"CB": cb_lhs == cb_rhs, "AB": ab_lhs == ab_rhs,
            "DB": db_lhs == db_rhs, "BB": bb, "CC": cc}


def rtt_check(u, v, params: ModelParameters, sectors=None) -> bool:
    """R(u,v) T1(u) T2(v) = T2(v) T1(u) R(u,v) on (aux)x(aux)x(sector space).

    Checked blockwise: for auxiliary indices the block (a'c'),(bd) of either
    side is a sector operator; all 16 blocks must agree exactly on every
    requested quantum sector.
    """
    from .vertex import r_matrix

    M = params.M
    r = r_matrix(u, v)
    if sectors is None:
        sectors = range(M + 1)
    cache = {}

    def elem(kind_pair, x, sec):
        key = (kind_pair, x, sec)
        if key not in cache:
            a_out, b_in = kind_pair
            kind = {(0, 0): "A", (0, 1): "B", (1, 0): "C", (1, 1): "D"}[(a_out, b_in)]
            cache[key] = build_monodromy_element(kind, x, params, sec, strict=False)
        return cache[key]

    def product(outer_pair, x_outer, inner_pair, x_inner, n):
        n_mid = n + (inner_pair[1] - inner_pair[0])
        return elem(outer_pair, x_outer, n_mid) * elem(inner_pair, x_inner, n)

    for n in sectors:
        if sector_dim(M, n) == 0:
            continue
        for a_p in (0, 1):
            for c_p in (0, 1):
                for b in (0, 1):
                    for d in (0, 1):
                        n_fin = n + (b + d) - (a_p + c_p)
                        lhs = SectorOperator.zero(n, n_fin, M)
                        for a in (0, 1):
                            for c in (0, 1):
                                coeff = r[2 * a_p + c_p, 2 * a + c]
                                if is_zero(coeff, 0):
                                    continue
                                lhs = lhs + product((a, b), u, (c, d), v, n).scale(coeff)
                        rhs = SectorOperator.zero(n, n_fin, M)
                        for b_p in (0, 1):
                            for d_p in (0, 1):
                                coeff = r[2 * b_p + d_p, 2 * b + d]
                                if is_zero(coeff, 0):
                                    continue
                                rhs = rhs + product((c_p, d_p), v, (a_p, b_p), u, n).scale(coeff)
                        if lhs != rhs:
                            return False
    return True
