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

``bethe_state`` and ``dual_bethe_state`` sweep the whole (dual) state
through each spectral value's site tables, the ket from site 1 to M, the
bra from M back to 1 (each vertex reads the same from either side); a dense
matrix between binomial(M,n) configuration bases is made only when an
operator is asked for (``build_monodromy_element``, ``transfer_matrix``,
``hamiltonian``).

A ``SectorOperator`` is a ``linalg.Matrix`` labelled with its source and
target sectors and ring size, ints (``partitions._require_int``); the matrix
arithmetic is ``Matrix``'s, and the labels only refuse compositions and sums
whose sectors do not fit.  A sector outside 0..M has dimension zero, so an
element that leaves the ring's sectors composes to the zero operator with no
special case.

Exact lane.  One ``scalars.cleared_type`` over a call's inputs, its
spectral values beside alpha and w, picks the sweep's lane and the type of
its output, the rule every determinant ratio of the package follows.
Integral inputs (numpy ints, say) are taken as ints first.  On an exact
lane, site j's weights a1, d and e are cleared by ``scalars.cleared`` to
numerators over D_j, the lcm of their denominators (ints, or elements of
the polynomial ring of the inputs' field), and the exchange vertices b and
c weigh D_j too, so every vertex path carries exactly one factor per site:
an entry is its numerator over prod_j D_j, with no quotient formed on the
way.  ``build_monodromy_element`` (and so ``transfer_matrix``) divides once
per entry, and the states once per output entry, by the product of their
values' denominators, each by one ``scalars.cleared_quotient``: a Fraction
for Fraction inputs, an int where the quotient is integral for all-int
inputs, an element of the field for field inputs such as criterion 3's
Q(alpha, u).  On the ``None`` lane (complex inputs, or a field over an
inexact domain) the weights are ``l_weights``' own, the denominator is 1
and nothing is divided; a state's float sums follow the sweep's order.

A ``Relations`` object checks the monodromy algebra at one (u, v) on every
sector without multiplying matrices: each relation is one vanishing
combination of products of sparse swept elements, tested a source column at
a time.  ``commutation_checks``, ``rtt_check`` and ``transfer_commute`` are
its checks on a fresh object; nothing else keeps its elements.

This module is the brute-force oracle layer: every determinant formula in the
package is tested against matrix elements produced here.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import combinations, product
from math import comb, prod

from .linalg import Matrix
from .partitions import _require_int
from .scalars import (COMPLEX_EQ_TOL, cleared, cleared_quotient, cleared_type, exact_div,
                      is_inexact, is_zero, plain_int)
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
    "Relations",
    "commutation_checks",
    "transfer_commute",
    "rtt_check",
]

#: (aux_out, aux_in) of the four monodromy elements
_KIND_AUX = {"A": (0, 0), "B": (0, 1), "C": (1, 0), "D": (1, 1)}


def sector_dim(M: int, n: int) -> int:
    M, n = _require_int("M", M), _require_int("n", n)
    return comb(M, n) if 0 <= n <= M else 0


def sector_basis(M: int, n: int):
    """Configurations of the n-particle sector as sorted position tuples."""
    M, n = _require_int("M", M), _require_int("n", n)
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
        self.source, self.target = _require_int("source", source), _require_int("target", target)
        self.M = M = _require_int("M", M)
        super().__init__(data, shape=(sector_dim(M, self.target), sector_dim(M, self.source)))

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


def _lane(values, params: ModelParameters):
    """``values`` with integral ones as ints, and the ``cleared_type`` of them, alpha and w."""
    values = [plain_int(x) for x in values]
    return values, cleared_type([*values, params.alpha, *params.w])


def _site_tables(u, params: ModelParameters, lane):
    """Per-site branch tables of L_j(u/w_j), site 1 first, and their denominator.

    A sweep state is keyed by ``mask << 1 | aux``, so site j is bit j of the
    key.  The table of site j is indexed by 2*aux + occ and lists each
    admissible vertex as (key xor, weight).  The exchange vertices b and c
    flip the auxiliary bit and site j; a weight ``None`` carries the
    amplitude over without a multiplication.  On an exact ``lane`` a1, d
    and e are cleared to numerators over D_j, b and c weigh D_j (``None``
    when D_j = 1) and the denominator is prod_j D_j; on the ``None`` lane
    the weights are ``l_weights``' own, b and c are ``None`` and the
    denominator is 1.  Refuses u = 0.
    """
    if is_zero(u, 0):
        raise ZeroDivisionError("monodromy elements are singular at u = 0")
    # by identity: the default w repeats one object, and equal w_j of other
    # types may give weights of other types
    vertices = {}
    for wj in params.w:
        if id(wj) not in vertices:
            a1, _, _, d, e = l_weights(exact_div(u, wj), params.alpha)
            (a1, d, e), dj = ((a1, d, e), 1) if lane is None else cleared([a1, d, e])
            vertices[id(wj)] = dj, a1, d, e
    tables, den = [], 1
    for j, wj in enumerate(params.w, start=1):
        dj, a1, d, e = vertices[id(wj)]
        den *= dj
        unit = dj if dj != 1 else None
        flip = 1 | (1 << j)
        tables.append((j, (((0, a1),), ((flip, unit),), ((flip, unit), (0, d)), ((0, e),))))
    return tables, den


def _quotient(num, den, lane):
    """num / den in the ``lane``'s type; ``num`` itself on the ``None`` lane, where den is 1."""
    return num if lane is None else cleared_quotient(num, den, lane)


def _sweep(state, tables):
    """Push the amplitudes ``{key: amp}`` through the sites of ``tables`` in order.

    Paths that meet on a key add; a key reached once keeps its amplitude (-0.0 too).
    """
    for j, table in tables:
        swept = {}
        for key, amp in state.items():
            for flip, weight in table[((key & 1) << 1) | ((key >> j) & 1)]:
                out, term = key ^ flip, amp if weight is None else amp * weight
                prev = swept.get(out)
                swept[out] = term if prev is None else prev + term
        state = swept
    return state


def _refuse_overflow(kind, M: int, n: int):
    a_out, b_in = _KIND_AUX[kind]
    if not (0 <= n <= M and 0 <= n + (b_in - a_out) <= M):
        raise ValueError(f"sector overflow: {kind} cannot act on sector {n} of {M} sites")


def _columns(kind, tables, M: int, n: int, strict: bool = True):
    """The entries of element ``kind`` on sector n, column by column.

    ``tables`` are ``_site_tables``' tables at the element's spectral value.
    Returns ``(col, row mask, entry)`` for every entry a vertex path reaches,
    grouped by ascending column; no other entry can be nonzero.  Every column
    of the source basis is swept at once, its index held in the key bits
    above site M, so no two paths meet on a key.  The vertices conserve
    particles + aux, so an exit with aux = a_out always lands in the target
    sector.  An entry is its
    numerator over the tables' denominator.  Refuses (if ``strict``) a
    sector overflow.
    """
    if strict:
        _refuse_overflow(kind, M, n)
    a_out, b_in = _KIND_AUX[kind]
    shift = M + 1
    # aux leaves site M as 0 only from an empty site M, so A and B vanish on
    # the columns with site M occupied
    state = {(col << shift) | (_mask(cfg) << 1) | b_in: 1
             for col, cfg in enumerate(sector_basis(M, n)) if a_out or M not in cfg}
    sites_mask = (1 << shift) - 1
    return [(key >> shift, (key & sites_mask) >> 1, amp)
            for key, amp in _sweep(state, tables).items() if key & 1 == a_out]


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
    n = _require_int("n", n)
    (u,), lane = _lane([u], params)
    return _element(kind, _site_tables(u, params, lane), lane, params.M, n, strict)


def _element(kind, sites, lane, M: int, n: int, strict: bool = True) -> SectorOperator:
    """``build_monodromy_element`` from the site tables of its spectral value, on ``lane``."""
    a_out, b_in = _KIND_AUX[kind]
    n_out = n + (b_in - a_out)
    row_of = {_mask(cfg): i for i, cfg in enumerate(sector_basis(M, n_out))}
    tables, den = sites
    entries = [[0] * sector_dim(M, n) for _ in range(len(row_of))]
    for col, mask, amp in _columns(kind, tables, M, n, strict):
        entries[row_of[mask]][col] = _quotient(amp, den, lane)
    return SectorOperator(entries, n, n_out, M)


def transfer_matrix(u, params: ModelParameters, n: int) -> SectorOperator:
    """tau(u) = A(u) + D(u) on the n-particle sector."""
    n = _require_int("n", n)
    (u,), lane = _lane([u], params)
    sites = _site_tables(u, params, lane)
    return _element("A", sites, lane, params.M, n) + _element("D", sites, lane, params.M, n)


def hamiltonian(params: ModelParameters, n: int) -> SectorOperator:
    """H = sum_j [ alpha s+_j s-_{j+1} + (s^z_j s^z_{j+1} - 1)/4 ], periodic.

    Columns are source configurations; at alpha = 1 every column sums to
    zero and H is the TASEP generator.
    """
    n = _require_int("n", n)
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
    return _state("B", v_list, params)


def dual_bethe_state(u_list, params: ModelParameters):
    """<Omega| prod_j C(u_j) as an amplitude covector on the len(u)-sector."""
    return _state("C", u_list, params)


def _state(kind, values, params: ModelParameters):
    """The vacuum ket through B, or bra through C, at each of ``values`` in turn: the state
    enters with the aux bit the element takes in (the bra, swept from site M back, with the
    one C gives out) and is kept where it leaves with the other."""
    values, lane = _lane(values, params)
    a_out, b_in = _KIND_AUX[kind]
    enter, leave, order = (b_in, a_out, 1) if kind == "B" else (a_out, b_in, -1)
    state, den = {enter: 1}, 1
    for n, x in enumerate(values):
        tables, d = _site_tables(x, params, lane)
        # the source sector of C is the one the bra is taken to
        _refuse_overflow(kind, params.M, n + a_out)
        swept = _sweep(state, tables[::order])
        state = {key ^ leave ^ enter: amp for key, amp in swept.items() if key & 1 == leave}
        den *= d
    return [_quotient(state.get(_mask(cfg) << 1 | enter, 0), den, lane)
            for cfg in sector_basis(params.M, len(values))]


def _a_func(u, params):
    return prod(exact_div(u, wj) for wj in params.w)


def _d_func(u, params):
    return prod(exact_div(params.alpha * u, wj) - exact_div(wj, u) for wj in params.w)


def bethe_residual(u_set, params: ModelParameters):
    """Per-root residuals of a(u_j)/d(u_j) + prod_k f(u_k,u_j)/f(u_j,u_k).

    The k = j factor of the product is its algebraic continuation
    -u_j^2/u_k^2 = -1, which makes a vanishing residual equivalent to the
    z-form Bethe equations under z = alpha - u^{-2}.  Refuses a zero root.
    """
    if any(is_zero(u, 0) for u in u_set):
        raise ZeroDivisionError("Bethe residuals are singular at a zero root")
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


def _sparse_element(kind, tables, M: int, n: int) -> dict:
    """The non-strict element ``kind`` on sector n as ``{source mask: [(target mask, entry)]}``.

    Each entry is its numerator over the tables' denominator.  A source
    configuration no vertex path leaves is absent.
    """
    masks = [_mask(cfg) for cfg in sector_basis(M, n)]
    out = {}
    for col, row, amp in _columns(kind, tables, M, n, strict=False):
        out.setdefault(masks[col], []).append((row, amp))
    return out


def _vanishes(terms, inexact: bool) -> bool:
    """Whether sum_i c_i X_i Y_i is zero, for ``_sparse_element`` maps X_i and Y_i.

    Every Y_i acts on one source sector and every X_i lands in one target
    sector; one source column is accumulated at a time.  Exact terms must
    cancel exactly; ``inexact`` ones to within ``COMPLEX_EQ_TOL`` times the
    larger of 1 and the largest |term| of the column.
    """
    sources = set()
    for _, _, y in terms:
        sources.update(y)
    for src in sources:
        acc, scale = {}, 1
        for c, x, y in terms:
            for mid, b in y.get(src, ()):
                cb = c * b
                for dst, a in x.get(mid, ()):
                    term = cb * a
                    acc[dst] = acc.get(dst, 0) + term
                    if inexact:
                        scale = max(scale, abs(term))
        if inexact:
            if any(abs(s) > COMPLEX_EQ_TOL * scale for s in acc.values()):
                return False
        elif any(acc.values()):
            return False
    return True


def _sum(x: dict, y: dict) -> dict:
    """The sum of two ``_sparse_element`` maps between the same sectors."""
    out = dict(x)
    for src, col in y.items():
        out[src] = out.get(src, []) + col
    return out


class Relations:
    """The monodromy-algebra relations at one pair of spectral values (u, v), on every sector.

    Each check states its relation once, as a combination sum_i c_i X_i Y_i
    of products of an element at u and one at v, and tests that it vanishes
    (``_vanishes``): exactly, or when an input is a float to within
    ``COMPLEX_EQ_TOL`` times the larger of 1 and a column's largest term.
    The object holds the site tables of u and of v, each built by the first
    check that needs it, and every ``_sparse_element`` (kind, sector, value),
    swept on first use and kept for the object's lifetime.  The lane is the
    ``cleared_type`` of u, v, alpha and w, integral u and v (numpy ints, say)
    taken as ints.  Every term pairs an element at u with one at v, so it
    sits over den_u den_v; on an exact lane a check clears its coefficients
    (f and g, or the R-matrix entries) of their denominators too, so that
    the combination is one of numerators.  On the ``None`` lane the entries
    are products of ``l_weights``' own and the coefficients are unscaled.
    """

    def __init__(self, u, v, params: ModelParameters):
        (u, v), self.lane = _lane((u, v), params)
        self.u, self.v, self.params = u, v, params
        self.inexact = any(is_inexact(x) for x in (u, v, params.alpha, *params.w))
        self._tables = []  # the site tables of u, then of v

    def _sites(self, count: int):
        """Build the site tables of the first ``count`` of (u, v): refuses u = 0, then v = 0."""
        for x in (self.u, self.v)[len(self._tables):count]:
            self._tables.append(_site_tables(x, self.params, self.lane)[0])

    @cached_property
    def _at(self) -> list:
        """``at(kind, n)`` at u and at v, the element swept on first use."""
        self._sites(2)
        # the getters hold M, not self, which would make a reference cycle
        return [cache(lambda kind, n, tables=tables, M=self.params.M:
                      _sparse_element(kind, tables, M, n)) for tables in self._tables]

    def _cleared(self, coeffs) -> list:
        """``coeffs`` scaled by the lcm of their denominators on an exact lane."""
        return coeffs if self.lane is None else cleared(coeffs)[0]

    def commutation(self, n: int) -> dict:
        """The four quadratic relations of the monodromy algebra on sector n.

        CB:  C(u)B(v) = g(u,v) [A(u)D(v) - A(v)D(u)]
        AB:  A(u)B(v) = f(u,v) B(v)A(u) + g(v,u) B(u)A(v)
        DB:  D(u)B(v) = f(v,u) B(v)D(u) + g(u,v) B(u)D(v)
        BB/CC:  [B(u),B(v)] = [C(u),C(v)] = 0

        Valid on every sector including the boundaries, where overflowing
        elements act as zero-dimensional operators.
        """
        n = _require_int("n", n)
        u, v = self.u, self.v
        coeffs = (1, f_weight(u, v), f_weight(v, u), g_weight(u, v), g_weight(v, u))
        at_u, at_v = self._at
        one, f_uv, f_vu, g_uv, g_vu = self._cleared(coeffs)
        return {
            "CB": _vanishes([(one, at_u("C", n + 1), at_v("B", n)),
                             (-g_uv, at_u("A", n), at_v("D", n)),
                             (g_uv, at_v("A", n), at_u("D", n))], self.inexact),
            "AB": _vanishes([(one, at_u("A", n + 1), at_v("B", n)),
                             (-f_uv, at_v("B", n), at_u("A", n)),
                             (-g_vu, at_u("B", n), at_v("A", n))], self.inexact),
            "DB": _vanishes([(one, at_u("D", n + 1), at_v("B", n)),
                             (-f_vu, at_v("B", n), at_u("D", n)),
                             (-g_uv, at_u("B", n), at_v("D", n))], self.inexact),
            "BB": _vanishes([(1, at_u("B", n + 1), at_v("B", n)),
                             (-1, at_v("B", n + 1), at_u("B", n))], self.inexact),
            "CC": _vanishes([(1, at_u("C", n - 1), at_v("C", n)),
                             (-1, at_v("C", n - 1), at_u("C", n))], self.inexact),
        }

    def transfer_commute(self, n: int) -> bool:
        """Whether tau(u) tau(v) == tau(v) tau(u) on the n-particle sector.

        Refuses what ``transfer_matrix`` refuses, in its order: a non-int n,
        u = 0, a sector outside 0..M, then v = 0.
        """
        n = _require_int("n", n)
        self._sites(1)
        _refuse_overflow("A", self.params.M, n)
        t_u, t_v = (_sum(at("A", n), at("D", n)) for at in self._at)
        return _vanishes([(1, t_u, t_v), (-1, t_v, t_u)], self.inexact)

    def rtt(self) -> bool:
        """R(u,v) T1(u) T2(v) = T2(v) T1(u) R(u,v) on (aux)x(aux)x(sector space).

        Checked blockwise: for auxiliary indices the block (a'c'),(bd) of
        either side is a sector operator; all 16 blocks must agree, on every
        quantum sector.
        """
        coeffs = [x for row in r_matrix(self.u, self.v).data for x in row]
        at_u, at_v = self._at
        r = self._cleared(coeffs)
        r = [r[i:i + 4] for i in range(0, 16, 4)]
        kind_of = {aux: kind for kind, aux in _KIND_AUX.items()}
        pairs = ((0, 0), (0, 1), (1, 0), (1, 1))
        for n in range(self.params.M + 1):
            for (a_p, c_p), (b, d) in product(pairs, pairs):
                # T_ab(u) T_cd(v) after its R entry, less T_c'd'(v) T_a'b'(u) after its own
                terms = [(coeff, at_u(kind_of[a, b], n + d - c), at_v(kind_of[c, d], n))
                         for a, c in pairs if not is_zero(coeff := r[2 * a_p + c_p][2 * a + c], 0)]
                terms += [(-coeff, at_v(kind_of[c_p, d_p], n + b_p - a_p), at_u(kind_of[a_p, b_p], n))
                          for b_p, d_p in pairs if not is_zero(coeff := r[2 * b_p + d_p][2 * b + d], 0)]
                if not _vanishes(terms, self.inexact):
                    return False
        return True


def commutation_checks(u, v, params: ModelParameters, n: int) -> dict:
    """``Relations(u, v, params).commutation(n)``, on an object that is then dropped."""
    return Relations(u, v, params).commutation(n)


def transfer_commute(u, v, params: ModelParameters, n: int) -> bool:
    """``Relations(u, v, params).transfer_commute(n)``, on an object that is then dropped."""
    return Relations(u, v, params).transfer_commute(n)


def rtt_check(u, v, params: ModelParameters) -> bool:
    """``Relations(u, v, params).rtt()``, on an object that is then dropped."""
    return Relations(u, v, params).rtt()
