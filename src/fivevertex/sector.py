"""Monodromy-matrix operators on particle-number sectors, by site sweeps.

The monodromy matrix T(u,{w}) = L_M(u/w_M) ... L_1(u/w_1) has auxiliary-space
blocks A, B, C, D acting on the M-site quantum chain.  All four conserve or
shift the particle number by one, so the full 2^M space is never built.  An
element is applied one site at a time: a sweep state maps (configuration
bitmask, auxiliary bit), packed into one int key, to an amplitude, and site j
branches it over the five admissible vertices of L_j(u/w_j), whose weights
come from ``vertex.l_weights`` once per site and spectral value.  Every
column of a source sector is swept at once, so an element's entries come
out column by column with only the entries a vertex path reaches.

``bethe_state`` and ``dual_bethe_state`` contract those entries with the
current (co)vector and build no matrix; a dense matrix between
binomial(M,n) configuration bases is made only when an operator is asked
for (``build_monodromy_element``, ``transfer_matrix``, ``hamiltonian``).

A ``SectorOperator`` is a ``linalg.Matrix`` labelled with its source and
target sectors and ring size; the matrix arithmetic is ``Matrix``'s, and the
labels only refuse compositions and sums whose sectors do not fit.  A sector
outside 0..M has dimension zero, so an element that leaves the ring's
sectors composes to the zero operator with no special case.

Integer lane.  When every u/w_j is a Fraction and alpha is an int or a
Fraction, site j's weights a1, d and e are scaled by D_j, the lcm of their
denominators, and the exchange vertices b and c weigh D_j too, so every
vertex path carries exactly one factor per site: the sweep runs on ints and
an entry is its int over prod_j D_j, with no Fraction formed on the way.
``build_monodromy_element`` (and so ``transfer_matrix``, ``commutation_checks``
and ``rtt_check``) divides once per entry; ``bethe_state`` and
``dual_bethe_state`` contract ints over one running denominator and divide
once per output entry.  The generic path's result is then a Fraction at
every entry whose path crosses an a1, d or e vertex, which the division
reproduces; the one path through exchange vertices only, which flips every
site, carries the int 1 there and is given back as that int.  Complex
inputs, field elements such as criterion 3's QQ(alpha, u), and int inputs
with some u/w_j an int take the generic path, as does every Bethe state at
M = 1.

This module is the brute-force oracle layer: every determinant formula in the
package is tested against matrix elements produced here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, lcm

from .linalg import Matrix
from .scalars import exact_div, is_zero
from .vertex import ModelParameters, f_weight, g_weight, l_weights, r_matrix

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


def _mask(cfg):
    """Bitmask of a configuration: site j is bit j - 1."""
    return sum(1 << (x - 1) for x in cfg)


def _row_index(M, n):
    """Position in the sector-n basis of each configuration mask."""
    return {_mask(cfg): i for i, cfg in enumerate(sector_basis(M, n))}


def _site_tables(u, params: ModelParameters):
    """Per-site branch tables of L_j(u/w_j), site 1 first, and their denominator.

    A sweep state is keyed by ``mask << 1 | aux``, so site j is bit j of the
    key.  The table of site j is indexed by 2*aux + occ and lists each
    admissible vertex as (key xor, weight).  The exchange vertices b and c
    flip the auxiliary bit and site j; a weight ``None`` carries the
    amplitude over without a multiplication.  Off the integer lane the
    weights are ``l_weights``' own, b and c are ``None`` and the denominator
    is None; on it they are scaled by D_j (b and c weigh D_j, ``None`` when
    D_j = 1) and the denominator is prod_j D_j.
    """
    # by identity: the default w repeats one object, and equal w_j of other
    # types may give weights of other types
    vertices = {}
    for wj in params.w:
        if id(wj) not in vertices:
            vertices[id(wj)] = l_weights(exact_div(u, wj), params.alpha)
    lane = type(params.alpha) in (int, Fraction) and all(type(v.a1) is Fraction
                                                          for v in vertices.values())
    for key, (a1, _, _, d, e) in vertices.items():
        dj = 1
        if lane:
            dj = lcm(a1.denominator, d.denominator, e.denominator)
            a1, d, e = (x.numerator * (dj // x.denominator) for x in (a1, d, e))
        vertices[key] = dj, a1, d, e
    tables, den = [], 1
    for j, wj in enumerate(params.w, start=1):
        dj, a1, d, e = vertices[id(wj)]
        den *= dj
        unit = dj if dj != 1 else None
        flip = 1 | (1 << j)
        tables.append((j, (((0, a1),), ((flip, unit),), ((flip, unit), (0, d)), ((0, e),))))
    return tables, den if lane else None


def _sweep(state, tables):
    """Push the amplitudes ``{key: amp}`` through the sites of ``tables`` in order."""
    for j, table in tables:
        swept = {}
        for key, amp in state.items():
            for flip, weight in table[((key & 1) << 1) | ((key >> j) & 1)]:
                # no out repeats: keys equal off bit j and aux share a column, which fixes both
                swept[key ^ flip] = amp if weight is None else amp * weight
        state = swept
    return state


def _columns(kind, u, params: ModelParameters, n: int, strict: bool = True):
    """The entries of element ``kind`` at u on sector n, column by column.

    Returns ``(entries, den, unit)``: ``entries`` lists ``(col, row mask,
    entry)`` for every entry a vertex path reaches, grouped by ascending
    column; no other entry can be nonzero.  Every column of the source basis
    is swept at once, its index held in the key bits above site M.  The
    vertices conserve particles + aux, so an exit with aux = a_out always
    lands in the target sector.  Off the integer lane ``den`` and ``unit``
    are None and an entry is its value; on it an entry is an int over
    ``den``, and ``unit`` is the (col, row mask) of the path through exchange
    vertices only, if the sector has it, or None.  Refuses u = 0, then (if
    ``strict``) a sector overflow.
    """
    if is_zero(u, 0):
        raise ZeroDivisionError("monodromy elements are singular at u = 0")
    a_out, b_in = _KIND_AUX[kind]
    M = params.M
    if strict and not (0 <= n <= M and 0 <= n + (b_in - a_out) <= M):
        raise ValueError(f"sector overflow: {kind} cannot act on sector {n} of {M} sites")
    shift = M + 1
    basis = sector_basis(M, n)
    # aux leaves site M as 0 only from an empty site M, so A and B vanish on
    # the columns with site M occupied
    state = {(col << shift) | (_mask(cfg) << 1) | b_in: 1
             for col, cfg in enumerate(basis) if a_out or M not in cfg}
    tables, den = _site_tables(u, params)
    sites = (1 << shift) - 1
    entries = [(key >> shift, (key & sites) >> 1, amp)
               for key, amp in _sweep(state, tables).items() if key & 1 == a_out]
    unit = None
    # an exchange-only path flips every site, so aux alternates along it: it
    # starts from the sites 1 + b_in, 3 + b_in, ... and leaves with aux = (b_in + M) mod 2
    alternating = tuple(range(1 + b_in, M + 1, 2))
    if den is not None and len(alternating) == n and (b_in + M) % 2 == a_out:
        unit = (basis.index(alternating), ((1 << M) - 1) ^ _mask(alternating))
    return entries, den, unit


def _values(entries, den, unit):
    """``_columns``' entries as the generic path's values: one division each on the lane."""
    if den is None:
        return entries
    return [(col, mask, 1 if (col, mask) == unit else Fraction(amp, den))
            for col, mask, amp in entries]


def _bethe_steps(kind, params: ModelParameters, steps):
    """The ``_columns`` of ``kind`` at each (spectral value, sector) of ``steps``.

    Returns (entries per step, den): on the integer lane the entries of every
    step are ints and a contraction of them is an int over den; otherwise den
    is None and they are values.  A lane Bethe state is a Fraction at every
    entry on the generic path too when M >= 2: each step reaches every entry
    of its target (B from the row less its last particle, C down to the
    column less its first), and the first step's paths all cross an a1, d or
    e vertex, so from there on every term is a Fraction.  At M = 1 the one
    step is the exchange-only path, whose int 1 only the generic path keeps.
    """
    cols = [_columns(kind, x, params, n) for x, n in steps]
    if not cols or params.M < 2 or any(den is None for _, den, _ in cols):
        return [_values(*c) for c in cols], None
    den = 1
    for _, d, _ in cols:
        den *= d
    return [entries for entries, _, _ in cols], den


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
    a_out, b_in = _KIND_AUX[kind]
    M = params.M
    n_out = n + (b_in - a_out)
    row_of = _row_index(M, n_out)
    entries = [[0] * sector_dim(M, n) for _ in range(len(row_of))]
    for col, mask, amp in _values(*_columns(kind, u, params, n, strict)):
        entries[row_of[mask]][col] = amp
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


def _divided(vec, den):
    return vec if den is None else [Fraction(x, den) for x in vec]


def bethe_state(v_list, params: ModelParameters):
    """prod_j B(v_j) |Omega> as an amplitude vector on the len(v)-sector."""
    steps, den = _bethe_steps("B", params, [(v, k) for k, v in enumerate(v_list)])
    vec = [1]
    for k, entries in enumerate(steps):
        row_of = _row_index(params.M, k + 1)
        out = [0] * len(row_of)
        for col, mask, amp in entries:
            r = row_of[mask]
            out[r] = out[r] + amp * vec[col]
        vec = out
    return _divided(vec, den)


def dual_bethe_state(u_list, params: ModelParameters):
    """<Omega| prod_j C(u_j) as an amplitude covector on the len(u)-sector."""
    steps, den = _bethe_steps("C", params, [(u, k + 1) for k, u in enumerate(u_list)])
    bra = [1]
    for k, entries in enumerate(steps):
        row_of = _row_index(params.M, k)
        out = [0] * sector_dim(params.M, k + 1)
        # each column sums its rows in ascending order, as the product bra * C
        # would, so that float amplitudes round alike
        for col, r, amp in sorted((col, row_of[mask], amp) for col, mask, amp in entries):
            out[col] = out[col] + bra[r] * amp
        bra = out
    return _divided(bra, den)


def _a_func(u, params):
    out = 1
    for wj in params.w:
        out = out * exact_div(u, wj)
    return out


def _d_func(u, params):
    out = 1
    for wj in params.w:
        out = out * (exact_div(params.alpha * u, wj) - exact_div(wj, u))
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
        ratio = exact_div((-1) ** n * uj ** (2 * n), prod_sq)
        out.append(exact_div(_a_func(uj, params), _d_func(uj, params)) + ratio)
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


def _element_cache(params: ModelParameters):
    """``elem(kind, x, n)``: non-strict monodromy elements, each built once."""
    cache = {}

    def elem(kind, x, n):
        key = (kind, x, n)
        if key not in cache:
            cache[key] = build_monodromy_element(kind, x, params, n, strict=False)
        return cache[key]
    return elem


def commutation_checks(u, v, params: ModelParameters, n: int) -> dict:
    """The four quadratic relations of the monodromy algebra on sector n.

    CB:  C(u)B(v) = g(u,v) [A(u)D(v) - A(v)D(u)]
    AB:  A(u)B(v) = f(u,v) B(v)A(u) + g(v,u) B(u)A(v)
    DB:  D(u)B(v) = f(v,u) B(v)D(u) + g(u,v) B(u)D(v)
    BB/CC:  [B(u),B(v)] = [C(u),C(v)] = 0

    Valid on every sector including the boundaries, where overflowing
    elements act as zero-dimensional operators.
    """
    elem = _element_cache(params)

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


def rtt_check(u, v, params: ModelParameters) -> bool:
    """R(u,v) T1(u) T2(v) = T2(v) T1(u) R(u,v) on (aux)x(aux)x(sector space).

    Checked blockwise: for auxiliary indices the block (a'c'),(bd) of either
    side is a sector operator; all 16 blocks must agree exactly on every
    quantum sector.
    """
    M = params.M
    r = r_matrix(u, v)
    elem = _element_cache(params)
    kind_of = {aux: kind for kind, aux in _KIND_AUX.items()}

    def product(outer_pair, x_outer, inner_pair, x_inner, n):
        n_mid = n + (inner_pair[1] - inner_pair[0])
        return elem(kind_of[outer_pair], x_outer, n_mid) * elem(kind_of[inner_pair], x_inner, n)

    for n in range(M + 1):
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
