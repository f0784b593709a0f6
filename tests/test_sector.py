"""Dense sector operators: monodromy elements, transfer matrix, Hamiltonian, BAE."""

import re
from fractions import Fraction as F
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from fivevertex.linalg import Matrix
from fivevertex.scalars import cleared_quotient, cleared_type, exact_div, is_zero, numer_denom
from fivevertex import sector, vertex
from fivevertex.sector import (ModelParameters, Relations, SectorOperator, basis_index,
                               bethe_residual, bethe_state, build_monodromy_element,
                               commutation_checks, dual_bethe_state, hamiltonian, rtt_check,
                               sector_basis, sector_dim, transfer_commute, transfer_eigenvalue,
                               transfer_matrix)
from fivevertex.vertex import f_weight, g_weight, l_matrix, l_weights, r_matrix

from conftest import distinct_squares, has_type, outcome, rand_fraction


def mat_solve(a, b):
    """Solve A X = B exactly by Gaussian elimination (A square, entries exact).

    Only the Hamiltonian-from-transfer-matrix test below needs it.
    """
    n = len(a)
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    width = n + (len(b[0]) if b else 0)
    for k in range(n):
        piv = next((i for i in range(k, n) if not is_zero(aug[i][k], 0)), None)
        if piv is None:
            raise ZeroDivisionError("singular system")
        if piv != k:
            aug[k], aug[piv] = aug[piv], aug[k]
        pv = aug[k][k]
        for j in range(k, width):
            aug[k][j] = exact_div(aug[k][j], pv)
        for i in range(n):
            if i == k or is_zero(aug[i][k], 0):
                continue
            f = aug[i][k]
            for j in range(k, width):
                aug[i][j] = aug[i][j] - f * aug[k][j]
    return [row[n:] for row in aug]


def test_mat_solve_exact():
    a = [[F(2), F(1)], [F(1), F(3)]]
    b = [[F(1)], [F(0)]]
    x = mat_solve(a, b)
    assert a[0][0] * x[0][0] + a[0][1] * x[1][0] == b[0][0]
    assert a[1][0] * x[0][0] + a[1][1] * x[1][0] == b[1][0]


def test_single_site_b_creates():
    params = ModelParameters(alpha=F(3, 4), M=1)
    b = build_monodromy_element("B", F(2, 3), params, 0)
    assert b.data == [[1]]


def test_two_site_c_elements():
    # The auxiliary line sweeps site 1 first: <O|C(u)|x=1> picks up the
    # c-vertex at site 1 and the d-vertex at site 2, giving alpha u - 1/u;
    # <O|C(u)|x=2> freezes site 1 with the a-vertex, giving u.
    alpha, u = F(3, 4), F(2, 3)
    params = ModelParameters(alpha=alpha, M=2)
    c = build_monodromy_element("C", u, params, 1)
    assert c.data[0][0] == alpha * u - 1 / u
    assert c.data[0][1] == u


def test_sector_overflow():
    params = ModelParameters(alpha=F(1), M=2)
    with pytest.raises(ValueError):
        build_monodromy_element("B", F(2, 3), params, 2)
    b = build_monodromy_element("B", F(2, 3), params, 2, strict=False)
    assert b.data == []  # B annihilates the full ring


@pytest.mark.parametrize("M", [-2, 2.0, "3", None])
def test_ring_size_must_be_a_nonnegative_int(M):
    # -2 used to fail only as "need one inhomogeneity per site"
    message = f"M must be an int >= 0, got M = {M!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ModelParameters(1, M)


def test_sector_labels_chain_and_guard(rng):
    M = 4
    params = ModelParameters(alpha=rand_fraction(rng), M=M)
    u, v = distinct_squares(rng, 2)

    def elem(kind, x, n):
        return build_monodromy_element(kind, x, params, n)

    b1, b2, a2 = elem("B", u, 1), elem("B", v, 2), elem("A", u, 2)
    assert isinstance(b1, Matrix)
    # B(v) B(u): sector 1 -> 3; B(v) A(u): sector 2 -> 3
    bb = b2 * b1
    assert (bb.source, bb.target, bb.M) == (1, 3, M)
    ba = b2 * a2
    assert (ba.source, ba.target) == (2, 3)
    scaled = 3 * ba - ba.scale(2)
    assert (scaled.source, scaled.target) == (2, 3)
    assert scaled == ba
    # on the right, a scalar scales and a plain Matrix multiplies without labels
    assert isinstance(ba * 2, SectorOperator) and ba * 2 == ba.scale(2)
    plain = ba * Matrix.identity(ba.cols)
    assert type(plain) is Matrix and plain.data == ba.data
    with pytest.raises(ValueError):
        b1 * b2  # B(u) on sector 1 cannot follow an operator into sector 3
    # A on sectors 1 and 3 of four sites: equal 4 x 4 shapes, different sectors
    a1, a3 = elem("A", u, 1), elem("A", u, 3)
    assert (a1.rows, a1.cols) == (a3.rows, a3.cols)
    with pytest.raises(ValueError):
        a1 + a3
    with pytest.raises(ValueError):
        a1 - a3
    zero1, zero3 = SectorOperator.zero(1, 1, M), SectorOperator.zero(3, 3, M)
    assert zero1.data == zero3.data
    assert zero1 != zero3


def test_b_operators_commute_on_every_sector(rng):
    M = 6
    params = ModelParameters(alpha=rand_fraction(rng), M=M)
    u, v = distinct_squares(rng, 2)
    for n in range(M + 1):
        lhs = build_monodromy_element("B", u, params, n + 1, strict=False) \
            * build_monodromy_element("B", v, params, n, strict=False)
        rhs = build_monodromy_element("B", v, params, n + 1, strict=False) \
            * build_monodromy_element("B", u, params, n, strict=False)
        assert lhs == rhs


def test_commutation_relations_and_rtt(rng):
    u, v = distinct_squares(rng, 2)
    params = ModelParameters(alpha=rand_fraction(rng), M=4)
    for n in range(5):
        assert all(commutation_checks(u, v, params, n).values())
    assert rtt_check(u, v, params)


def test_transfer_matrices_commute(rng):
    params = ModelParameters(alpha=rand_fraction(rng), M=5)
    u, v = distinct_squares(rng, 2)
    for n in range(6):
        t_u = transfer_matrix(u, params, n)
        t_v = transfer_matrix(v, params, n)
        assert t_u * t_v == t_v * t_u


def test_hamiltonian_is_tasep_generator():
    # alpha = 1: independent construction of the hop generator, entry by entry
    M, n = 5, 2
    params = ModelParameters(alpha=1, M=M)
    h = hamiltonian(params, n)
    basis = sector_basis(M, n)
    index = {cfg: i for i, cfg in enumerate(basis)}
    for col, cfg in enumerate(basis):
        occupied = set(cfg)
        movable = [j for j in cfg if (j % M) + 1 not in occupied]
        for row in range(len(basis)):
            expected = 0
            if row == col:
                expected = -len(movable)
            else:
                for j in movable:
                    target = tuple(sorted(occupied - {j} | {(j % M) + 1}))
                    if index[target] == row:
                        expected = 1
            assert h.data[row][col] == expected
    # columns of a stochastic generator sum to zero
    for col in range(len(basis)):
        assert sum(h.data[row][col] for row in range(len(basis))) == 0


@pytest.mark.parametrize("alpha,sqrt_alpha", [(F(1), F(1)), (F(4), F(2))])
def test_baxter_logarithmic_derivative(alpha, sqrt_alpha):
    """H = (1/(2 sqrt(a))) d/du log[(sqrt(a) u)^-M tau(u)] at u = 1/sqrt(a).

    tau'(u) from exact central differences with Richardson extrapolation;
    the whole computation stays in rational arithmetic.
    """
    M = 4
    params = ModelParameters(alpha=alpha, M=M)
    c = 1 / sqrt_alpha
    for n in (1, 2):
        dim = comb(M, n)
        tau_c = transfer_matrix(c, params, n).data

        def derivative(eps):
            plus = transfer_matrix(c + eps, params, n).data
            minus = transfer_matrix(c - eps, params, n).data
            return [[(plus[r][k] - minus[r][k]) / (2 * eps) for k in range(dim)]
                    for r in range(dim)]

        eps = F(1, 10 ** 4)
        d1 = derivative(eps)
        d2 = derivative(eps / 2)
        tau_prime = [[(4 * d2[r][k] - d1[r][k]) / 3 for k in range(dim)] for r in range(dim)]
        ratio = mat_solve(tau_c, tau_prime)  # tau(c)^-1 tau'(c)
        h = hamiltonian(params, n).data
        for r in range(dim):
            for k in range(dim):
                log_der = ratio[r][k] - (r == k) * M * sqrt_alpha
                assert abs(float(log_der / (2 * sqrt_alpha) - h[r][k])) < 1e-9


def test_bethe_residual_single_particle_roots():
    # alpha = 1, N = 1, homogeneous: on-shell means (1 - u^-2)^M = 1,
    # i.e. z = 1 - u^-2 is an M-th root of unity.
    M = 4
    params = ModelParameters(alpha=1.0, M=M)
    z = 1j  # 4th root of unity, not 1
    u = (1 - z) ** -0.5
    (res,) = bethe_residual([u], params)
    assert abs(res) < 1e-12
    # random off-shell value: residual clearly nonzero
    (res_off,) = bethe_residual([0.8 + 0.3j], params)
    assert abs(res_off) > 1e-3


def test_bethe_residual_refuses_a_zero_root():
    # used to fail inside the product of squares as Fraction(0, 0)
    params = ModelParameters(alpha=F(1, 2), M=3)
    for roots in ([0, F(2, 3)], [F(2, 3), 0j]):
        with pytest.raises(ZeroDivisionError, match="singular at a zero root"):
            bethe_residual(roots, params)


def test_f_g_poles_are_named():
    # each used to fail as a bare ZeroDivisionError: Fraction(1, 0)
    u = F(2, 3)
    params = ModelParameters(alpha=F(1, 2), M=3)
    for call in (lambda: commutation_checks(u, u, params, 1),
                 lambda: commutation_checks(u, -u, params, 1),
                 lambda: transfer_eigenvalue(u, [u, F(5, 7)], params)):
        with pytest.raises(ZeroDivisionError, match=r"f/g weight pole at a\^2 = b\^2"):
            call()


def test_on_shell_state_is_transfer_eigenvector():
    M = 4
    params = ModelParameters(alpha=1.0, M=M)
    z = 1j
    u = (1 - z) ** -0.5
    psi = bethe_state([u], params)
    u0 = 2 / 3
    tau = transfer_matrix(u0, params, 1)
    lam = transfer_eigenvalue(u0, [u], params)
    applied = tau.apply(psi)
    for a, p in zip(applied, psi):
        assert abs(a - lam * p) < 1e-9


def test_scalar_product_oracle_agreement(rng):
    M, N = 4, 2
    alpha = rand_fraction(rng)
    params = ModelParameters(alpha=alpha, M=M)
    u = distinct_squares(rng, N)
    v = distinct_squares(rng, N)
    bra = dual_bethe_state(u, params)
    ket = bethe_state(v, params)
    from fivevertex.scalarprod import scalar_product_det

    assert scalar_product_det(u, v, alpha, M) == sum(b * k for b, k in zip(bra, ket))


def _full_monodromy(u, alpha, w):
    """T(u) = L_M(u/w_M) ... L_1(u/w_1) on aux x sites 1..M, from l_matrix alone.

    Basis index aux * 2^M + sum_j occ_j 2^(M-j); each L_j is the 4x4
    l_matrix (basis 2*aux + occ) embedded on the aux space and site j.
    """
    M = len(w)
    dim = 2 ** (M + 1)
    total = np.identity(dim, dtype=object)
    for j in range(1, M + 1):
        l4 = l_matrix(u / w[j - 1], alpha)
        bit = 1 << (M - j)
        product = np.zeros((dim, dim), dtype=object)
        for col in range(dim):
            aux, occ = col >> M, 1 if col & bit else 0
            for aux2 in (0, 1):
                for occ2 in (0, 1):
                    weight = l4[2 * aux2 + occ2, 2 * aux + occ]
                    row = (aux2 << M) | (col & (2 ** M - 1) & ~bit) | (bit if occ2 else 0)
                    product[row] += weight * total[col]  # (L_j total)[row] += L_j[row, col] total[col]
        total = product
    return total


def _configs(M, n):
    """Full-space site bits of the sector-n basis, in combinations order."""
    if not 0 <= n <= M:
        return []
    return [sum(1 << (M - x) for x in cfg) for cfg in combinations(range(1, M + 1), n)]


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_sector_blocks_match_the_full_space_monodromy(rng, M):
    # The sector oracle against the definition of T(u) on the full 2^(M+1)
    # space: every A, B, C, D block on every sector, and the Bethe states as
    # products of the full-space B and C blocks.
    alpha = rand_fraction(rng)
    w = tuple(distinct_squares(rng, M))
    params = ModelParameters(alpha=alpha, M=M, w=w)
    u_list = distinct_squares(rng, M)
    full = {u: _full_monodromy(u, alpha, w) for u in u_list}
    size = 2 ** M
    for u, t in full.items():
        for kind, (a_out, b_in) in {"A": (0, 0), "B": (0, 1), "C": (1, 0), "D": (1, 1)}.items():
            for n in range(-1, M + 2):
                n_out = n + b_in - a_out
                rows, cols = _configs(M, n_out), _configs(M, n)
                expected = [[t[a_out * size + r, b_in * size + c] for c in cols] for r in rows]
                strict = 0 <= n <= M and 0 <= n_out <= M
                op = build_monodromy_element(kind, u, params, n, strict=strict)
                assert (op.rows, op.cols) == (len(rows), len(cols))
                assert op.data == expected, (kind, n)
    b_blocks = {u: t[:size, size:] for u, t in full.items()}
    c_blocks = {u: t[size:, :size] for u, t in full.items()}
    for N in range(M + 1):
        v = u_list[:N]
        ket = np.zeros(size, dtype=object)
        ket[0] = 1
        bra = ket.copy()
        for x in v:
            ket = b_blocks[x].dot(ket)
            bra = bra.dot(c_blocks[x])
        configs = _configs(M, N)
        assert bethe_state(v, params) == [ket[bits] for bits in configs]
        assert dual_bethe_state(v, params) == [bra[bits] for bits in configs]


def _chain_cases(rng):
    """(params, values) with inhomogeneous w on the int, Fraction and field lanes."""
    from sympy import QQ
    from sympy.polys.fields import field

    cases = []
    for M in (4, 5, 7):
        cases.append((ModelParameters(rng.randint(2, 4), M,
                                      w=tuple(rng.choice((1, 2, 3)) for _ in range(M))),
                      [rng.choice((-3, -2, 2, 3, 5)) for _ in range(4)]))
        cases.append((ModelParameters(rand_fraction(rng), M, w=tuple(distinct_squares(rng, M))),
                      distinct_squares(rng, 4)))
    _, a, x, y = field("a,x,y", QQ)
    cases.append((ModelParameters(a, 4, w=(1, 2, F(1, 2), 1)), [x, y, 2 * x]))
    return cases


def test_bethe_states_are_products_of_built_elements(rng):
    # the states share no contraction with the elements: B(v_1)...B(v_N) applied to the
    # vacuum ket and the vacuum bra taken through C(u_1)...C(u_N), as Matrix products
    for params, values in _chain_cases(rng):
        M = params.M
        for length in range(len(values) + 1):
            x = values[:length]
            lane = cleared_type([*x, params.alpha, *params.w])
            ket, bra = Matrix([[1]]), Matrix([[1]])
            for n, xk in enumerate(x):
                ket = build_monodromy_element("B", xk, params, n) * ket
                bra = bra * build_monodromy_element("C", xk, params, n + 1)
            for got, want in ((bethe_state(x, params), [row[0] for row in ket.data]),
                              (dual_bethe_state(x, params), bra.data[0])):
                assert len(got) == comb(M, length)
                assert all(g - y == 0 for g, y in zip(got, want)), (params, x)
                assert all(has_type(g, lane) for g in got), (params, x)


def test_int_spectral_parameters_stay_exact():
    # Every division and negative power of a spectral parameter stays in the
    # exact lane: int inputs give the values of the same Fraction inputs, an int
    # where the value is integral (the determinant side used to give Fraction(n, 1))
    from fivevertex.vertex import l_weights
    from fivevertex.wavefunc import (dual_wavefunction_det, step_overlap_value,
                                     wavefunction_det, wavefunction_dets, wavefunction_trace)

    def exact(values):
        return all(has_type(x, int) for x in values)

    params, params_f = ModelParameters(1, 5), ModelParameters(F(1), 5)
    ket, bra = bethe_state([2, 3], params), dual_bethe_state([2, 3], params)
    assert ket[:3] == [1296, 1260, 1201] and bra[2] == F(2402, 3)
    assert exact(ket) and exact(bra)
    assert ket == bethe_state([F(2), F(3)], params_f)
    assert bra == dual_bethe_state([F(2), F(3)], params_f)
    assert l_weights(2, 1).d == F(3, 2) and exact(l_weights(2, 1))
    psi = wavefunction_det((1, 3), [2, 3], 1, 5)
    dual = dual_wavefunction_det((1, 3), [2, 3], 1, 5)
    trace = wavefunction_trace((1, 3), [2, 3], 1, 5)
    step = step_overlap_value([2, 3], 1, 5)
    assert exact([psi, dual, trace, step]) and (psi, dual, trace, step) == (1260, 560, 560, 384)
    psis = wavefunction_dets([(1, 2), (1, 3), (2, 5)], [2, 3], 1, 5)
    assert exact(psis) and psis == [1296, 1260, F(2402, 3)]
    inhomogeneous = ModelParameters(2, 3, w=(1, 2, 3))
    assert exact(build_monodromy_element("D", 5, inhomogeneous, 1).data[0])
    assert exact(bethe_residual([2, 3], inhomogeneous))


_KINDS = {"A": (0, 0), "B": (0, 1), "C": (1, 0), "D": (1, 1)}


def _path_entries(kind, u, params, n):
    """Element ``kind`` on sector n as {(row, col): entry}, one vertex path per entry.

    The two configurations fix the path: a site whose occupation changes
    takes the exchange vertex b or c (unit weight, no multiplication), an
    empty one a1 (aux 0) or d (aux 1), an occupied one e (aux 1).  Weights
    multiply in site order from the int 1, so an entry has the generic
    path's value and type; entries no path reaches are absent.
    """
    a_out, b_in = _KINDS[kind]
    weights = [l_weights(exact_div(u, wj), params.alpha) for wj in params.w]
    out = {}
    for c, col in enumerate(sector_basis(params.M, n)):
        for r, row in enumerate(sector_basis(params.M, n + b_in - a_out)):
            aux, amp = b_in, 1
            for j, wts in enumerate(weights, start=1):
                occ_in, occ_out = j in col, j in row
                if occ_in != occ_out:
                    if aux != occ_out:
                        break
                    aux = occ_in
                elif occ_in:
                    if not aux:
                        break
                    amp = amp * wts.e
                else:
                    amp = amp * (wts.d if aux else wts.a1)
            else:
                if aux == a_out:
                    out[r, c] = amp
    return out


def _typed(x, lane):
    """The reference value ``x`` in the type of ``lane``, a ``cleared_type``; x itself for None."""
    return x if lane is None else cleared_quotient(*numer_denom(x), lane)


def _path_element(kind, u, params, n, lane=None):
    """Element ``kind`` from ``_path_entries``: each reached entry ``_typed``, 0 elsewhere."""
    a_out, b_in = _KINDS[kind]
    entries = _path_entries(kind, u, params, n)
    cols = len(sector_basis(params.M, n))
    return [[_typed(entries[r, c], lane) if (r, c) in entries else 0 for c in range(cols)]
            for r in range(len(sector_basis(params.M, n + b_in - a_out)))]


def _path_state(x_list, params, dual):
    """The (dual) Bethe state from ``_path_entries``, contracted one column after another."""
    vec = [1]
    for k, x in enumerate(x_list):
        out = [0] * comb(params.M, k + 1)
        if dual:  # each column over its rows
            for (c, r), amp in sorted(((c, r), amp) for (r, c), amp
                                      in _path_entries("C", x, params, k + 1).items()):
                out[c] = out[c] + vec[r] * amp
        else:  # each row over its columns
            for (r, c), amp in sorted(_path_entries("B", x, params, k).items()):
                out[r] = out[r] + amp * vec[c]
        vec = out
    return vec


def _parity_cases(rng):
    """(params, spectral values) draws for the lane parity test."""
    from sympy import QQ
    from sympy.polys.fields import field

    cases = []
    for M in (1, 2, 3):  # exchange-only paths, the one path of M = 1 among them
        cases.append((ModelParameters(rand_fraction(rng), M), distinct_squares(rng, M)))
    for alpha in (F(1), F(1, 4)):  # v v' = 1 cancels entries to Fraction(0, 1)
        cases.append((ModelParameters(alpha, 4), [F(2), F(1, 2), F(1), F(-2)]))
    for M in (3, 5):  # inhomogeneous, rational and int
        w = tuple(distinct_squares(rng, M))
        cases.append((ModelParameters(rand_fraction(rng), M, w=w), distinct_squares(rng, 3)))
        cases.append((ModelParameters(2, M, w=tuple(range(1, M + 1))), [F(1, 3), 5, 7]))
    # int spectral values, some u/w_j ints, and int/Fraction mixes
    cases.append((ModelParameters(F(2, 3), 4), [2, 3, -1]))
    cases.append((ModelParameters(3, 4, w=(1, 2, F(1, 2), 3)), [2, F(1, 3), 6]))
    cases.append((ModelParameters(F(3), 3, w=(F(2), F(1, 3), 1)), [F(4), 2, F(-1, 5)]))
    # complex inputs take the None lane (elements bit for bit, states within
    # _COLUMN_BUDGET); the empty state beside a Fraction alpha is the Fraction
    # lane's
    cases.append((ModelParameters(0.7 - 0.2j, 4, w=(1, F(1, 2), 2, 1)),
                  [0.9 + 0.3j, F(2, 3), -1.1 + 0.5j]))
    cases.append((ModelParameters(F(3, 4), 3), [1.5 + 0.25j, 0.5 - 1j]))
    # a field draw, as criterion 3's QQ(alpha, u)
    _, a, x, y = field("a,x,y", QQ)
    cases.append((ModelParameters(a, 3), [x, y, 2 * x]))
    return cases


def test_integer_lane_matches_the_generic_path_in_value_and_type(rng):
    # repr compares types too: every value is the path reference's, in the type
    # of the call's cleared_type over its spectral values, alpha and w
    # (Fraction(1, 1) on the exchange-only path of Fraction inputs, an int
    # where all-int inputs give an integral value); the None lane's elements
    # are the reference's own, bit for bit, and its states are held to the
    # reference within _COLUMN_BUDGET
    lane_draws = 0
    for params, x_list in _parity_cases(rng):
        M = params.M
        for length in range(min(len(x_list), M) + 1):
            x = x_list[:length]
            lane = cleared_type([*x, params.alpha, *params.w])
            for dual in (False, True):
                state = dual_bethe_state if dual else bethe_state
                if lane is None:
                    _assert_near(state(x, params), _path_state(x, params, dual))
                    continue
                got = outcome(lambda: state(x, params))
                typed = outcome(lambda: [_typed(y, lane) for y in _path_state(x, params, dual)])
                assert got == typed, (params, x, dual)
        for u in x_list:
            lane = cleared_type([u, params.alpha, *params.w])
            lane_draws += lane is not None
            for kind, (a_out, b_in) in _KINDS.items():
                for n in range(-1, M + 2):
                    in_range = 0 <= n <= M and 0 <= n + b_in - a_out <= M
                    for strict in (False, True) if in_range else (False,):
                        got = outcome(lambda: build_monodromy_element(kind, u, params, n,
                                                                      strict=strict).data)
                        assert got == outcome(lambda: _path_element(kind, u, params, n, lane)), \
                            (params, u, kind, n, strict)
    assert lane_draws >= 20


# The None lane's states against references, relative to the reference's largest |entry|.
# Measured worst over test_float_states_are_held_to_references' draws, for the sweep and
# for the former column-by-column contraction: 1.3e-14 and 1.5e-14 against the exact lane
# at dyadic inputs, on states whose paths cancel (their absolute sums reach 130 and 290
# times the largest |entry|); 1.3e-15 and 0 against that column order.
_TRUTH_BUDGET = 2e-14
_COLUMN_BUDGET = 1e-14


def _assert_near(got, ref, budget=_COLUMN_BUDGET):
    scale = max(abs(y) for y in ref)
    assert len(got) == len(ref)
    assert all(abs(g - y) <= budget * scale for g, y in zip(got, ref)), (got, ref)


def _float_draw(rng, complex_inputs: bool):
    """(params, values) with M <= 7 and N <= 4, w inhomogeneous half the time.

    Complex inputs, or real floats that are exact dyadic rationals, so that
    ``Fraction(x)`` is the same value on the exact lane.
    """
    if complex_inputs:
        def draw():
            return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        alpha = draw()
    else:
        def draw():
            return rng.choice((-1, 1)) * rng.randint(1, 24) / 8
        alpha = rng.randint(-8, 8) / 4
    M = rng.randint(1, 7)
    values = [draw() for _ in range(rng.randint(0, min(M, 4)))]
    if rng.random() < 0.5:
        w = tuple(draw() if complex_inputs else rng.randint(1, 12) / 4 for _ in range(M))
        return ModelParameters(alpha, M, w=w), values
    return ModelParameters(alpha, M), values


def test_float_states_are_held_to_references(rng):
    # the None lane's accuracy contract: the sweep adds paths in its own order, so its
    # states are held to references, not to the bits of a summation order
    for _ in range(200):
        params, values = _float_draw(rng, complex_inputs=False)
        exact = ModelParameters(F(params.alpha), params.M, w=tuple(map(F, params.w)))
        for state in (bethe_state, dual_bethe_state):
            _assert_near(state(values, params), state([F(x) for x in values], exact),
                         _TRUTH_BUDGET)
    for _ in range(200):
        params, values = _float_draw(rng, complex_inputs=True)
        for dual, state in ((False, bethe_state), (True, dual_bethe_state)):
            _assert_near(state(values, params), _path_state(values, params, dual))


def _reference_commutation(u, v, params, n):
    """``commutation_checks`` as dense ``Matrix`` arithmetic on built elements."""
    def el(kind, x, m):
        return build_monodromy_element(kind, x, params, m, strict=False)
    f_uv, f_vu, g_uv, g_vu = f_weight(u, v), f_weight(v, u), g_weight(u, v), g_weight(v, u)
    return {
        "CB": el("C", u, n + 1) * el("B", v, n)
        == (el("A", u, n) * el("D", v, n) - el("A", v, n) * el("D", u, n)).scale(g_uv),
        "AB": el("A", u, n + 1) * el("B", v, n)
        == (el("B", v, n) * el("A", u, n)).scale(f_uv) + (el("B", u, n) * el("A", v, n)).scale(g_vu),
        "DB": el("D", u, n + 1) * el("B", v, n)
        == (el("B", v, n) * el("D", u, n)).scale(f_vu) + (el("B", u, n) * el("D", v, n)).scale(g_uv),
        "BB": el("B", u, n + 1) * el("B", v, n) == el("B", v, n + 1) * el("B", u, n),
        "CC": el("C", u, n - 1) * el("C", v, n) == el("C", v, n - 1) * el("C", u, n),
    }


def _reference_rtt(u, v, params):
    """``rtt_check`` block by block, as dense ``Matrix`` arithmetic on built elements."""
    M, r = params.M, r_matrix(u, v)
    kind = {(0, 0): "A", (0, 1): "B", (1, 0): "C", (1, 1): "D"}

    def el(pair, x, m):
        return build_monodromy_element(kind[pair], x, params, m, strict=False)
    bits = (0, 1)
    for n in range(M + 1):
        for a_p, c_p, b, d in product(bits, repeat=4):
            n_fin = n + b + d - a_p - c_p
            lhs = rhs = SectorOperator.zero(n, n_fin, M)
            for a in bits:
                for c in bits:
                    coeff = r[2 * a_p + c_p, 2 * a + c]
                    if not is_zero(coeff, 0):
                        lhs = lhs + (el((a, b), u, n + d - c) * el((c, d), v, n)).scale(coeff)
            for b_p in bits:
                for d_p in bits:
                    coeff = r[2 * b_p + d_p, 2 * b + d]
                    if not is_zero(coeff, 0):
                        rhs = rhs + (el((c_p, d_p), v, n + b_p - a_p)
                                     * el((a_p, b_p), u, n)).scale(coeff)
            if not lhs == rhs:
                return False
    return True


def _reference_tau(u, v, params, n):
    t_u, t_v = transfer_matrix(u, params, n), transfer_matrix(v, params, n)
    return t_u * t_v == t_v * t_u


def _relation_cases(rng):
    """(params, u, v) draws for the relation-check parity test, on every lane."""
    from sympy import QQ
    from sympy.polys.fields import field

    cases = []
    for M in range(6):  # Fraction draws, every ring size
        u, v = distinct_squares(rng, 2)
        cases.append((ModelParameters(rand_fraction(rng), M), u, v))
    u, v = distinct_squares(rng, 2)
    cases += [
        (ModelParameters(2, 4), 3, 5),  # all ints, every u/w_j integral: the int lane
        (ModelParameters(F(1, 3), 3, w=(1, 2, 3)), 2, 5),  # int values, some u/w_j Fractions
        (ModelParameters(1, 4), 2, u),  # an int u beside a Fraction v
        (ModelParameters(rand_fraction(rng), 4, w=(u, 2, F(1, 3), v)), F(3, 2), 2),
        (ModelParameters(rand_fraction(rng), 5, w=tuple(distinct_squares(rng, 5))), u, v),
        (ModelParameters(0, 3), u, v),  # the four-vertex point
        (ModelParameters(0.6 + 0.1j, 4), 1.1 - 0.2j, u),  # complex
        (ModelParameters(rand_fraction(rng), 3), 0.9 + 0.4j, v),
        (ModelParameters(F(1, 2), 0), 1.5 + 0.5j, v),  # no site: complex f and g decide
        (ModelParameters(rand_fraction(rng), 3), u, u),  # the f/g and R poles
        (ModelParameters(rand_fraction(rng), 3), u, -u),
        (ModelParameters(rand_fraction(rng), 2), 0 * u, v),  # singular elements
        (ModelParameters(rand_fraction(rng), 2), u, 0),
    ]
    _, a, x, y = field("a,x,y", QQ)  # as criterion 3's QQ(alpha, u)
    cases += [(ModelParameters(a, M), x, y) for M in (1, 2, 3)]
    return cases


def test_relation_checks_match_dense_matrix_arithmetic(rng):
    # outcome compares the dicts, bools and exceptions (class and message)
    lane_draws = 0
    for params, u, v in _relation_cases(rng):
        M = params.M
        lane_draws += cleared_type([u, v, params.alpha, *params.w]) is not None
        for n in range(-1, M + 2):
            assert outcome(lambda: commutation_checks(u, v, params, n)) \
                == outcome(lambda: _reference_commutation(u, v, params, n)), (params, u, v, n)
            assert outcome(lambda: transfer_commute(u, v, params, n)) \
                == outcome(lambda: _reference_tau(u, v, params, n)), (params, u, v, n)
        if M <= 4:
            assert outcome(lambda: rtt_check(u, v, params)) \
                == outcome(lambda: _reference_rtt(u, v, params)), (params, u, v)
    assert lane_draws >= 10


def _lane_draw(lane):
    """(u, v, params, their cleared_type): all ints, Fractions, QQ(a, x, y) or complex."""
    from sympy import QQ
    from sympy.polys.fields import field

    if lane == "field":
        field_, a, x, y = field("a,x,y", QQ)
        return x, y, ModelParameters(a, 3, w=(1, 2, 1)), field_
    return {"int": (2, 6, ModelParameters(3, 3, w=(1, 2, 1)), int),
            "fraction": (F(2, 3), F(5, 4), ModelParameters(F(1, 2), 3, w=(1, 2, 1)), F),
            "complex": (1.5 - 0.5j, 0.25 + 1j, ModelParameters(1.25 + 0.5j, 3, w=(1, 2, 1)), None),
            }[lane]


@pytest.mark.parametrize("lane", ["int", "fraction", "field", "complex"])
def test_relation_checks_fail_on_a_wrong_coefficient(monkeypatch, lane):
    # exact coefficients are changed by 1, complex ones by a relative 1e-6
    u, v, params, kind = _lane_draw(lane)
    assert cleared_type([u, v, params.alpha, *params.w]) is kind
    assert all(commutation_checks(u, v, params, 1).values()) and rtt_check(u, v, params)

    def wrong(x):
        return x * (1 + 1e-6) if lane == "complex" else x + 1

    monkeypatch.setattr(sector, "f_weight", lambda a, b: wrong(f_weight(a, b)))
    assert commutation_checks(u, v, params, 1) == {
        "CB": True, "AB": False, "DB": False, "BB": True, "CC": True}
    monkeypatch.setattr(sector, "f_weight", f_weight)
    monkeypatch.setattr(sector, "g_weight", lambda a, b: wrong(g_weight(a, b)))
    assert commutation_checks(u, v, params, 1) == {
        "CB": False, "AB": False, "DB": False, "BB": True, "CC": True}
    monkeypatch.setattr(sector, "g_weight", g_weight)

    for entry in ((0, 0), (1, 2), (2, 1), (2, 2), (3, 3)):  # each nonzero R entry
        def perturbed(x, y, entry=entry):
            r = r_matrix(x, y)
            r[entry] = wrong(r[entry])
            return r
        monkeypatch.setattr(sector, "r_matrix", perturbed)
        assert not rtt_check(u, v, params), entry


def test_complex_relation_checks_hold_at_large_entries():
    # entries near 3e6 meet with a gap of 5e-10, a relative error of 2e-16;
    # an absolute 1e-10 reported DB false at n = 1 and CB, DB false at n = 2
    params = ModelParameters(F(-7, 3), 5)
    for n in range(-1, 7):
        assert all(commutation_checks(1.5 - 0.6j, F(-3), params, n).values()), n


@pytest.mark.parametrize("exact", [True, False])
def test_transfer_commute_fails_for_transfer_matrices_of_two_models(monkeypatch, exact):
    # d + 1 on the sites where u/w_j = v (sites 1 and 3) takes tau(v) out of
    # the commuting family of tau(u); a shift on every site would keep it in
    for lane in ("int", "fraction", "field") if exact else ("complex",):
        u, v, params, _ = _lane_draw(lane)
        for n in range(4):
            assert transfer_commute(u, v, params, n)

        def shifted(x, alpha, v=v):
            weights = l_weights(x, alpha)
            return weights._replace(d=weights.d + 1) if x == v else weights
        with monkeypatch.context() as m:
            m.setattr(sector, "l_weights", shifted)
            assert [transfer_commute(u, v, params, n) for n in range(4)] \
                == [True, False, False, True], lane


_REFUSAL_ORDER = {"commutation": ("n", "fg", "u", "v"),
                  "transfer_commute": ("n", "u", "overflow", "v"), "rtt": ("R", "u", "v")}


def _refusal(check, u, v, params, n=0):
    """The first refusal of ``check`` at (u, v, params, n): its name and ``outcome``, or None.

    The order is the checks' contract: commutation refuses a non-int n, then
    the f/g pole, u = 0 and v = 0; transfer_commute a non-int n, then u = 0,
    the sector overflow and v = 0; rtt the R pole, then u = 0 and v = 0.
    """
    singular = "ZeroDivisionError: monodromy elements are singular at u = 0"
    tests = {
        "n": (lambda: not isinstance(n, int), f"ValueError: n must be an int, got n = {n!r}"),
        "fg": (lambda: u * u == v * v, "ZeroDivisionError: f/g weight pole at a^2 = b^2"),
        "R": (lambda: u * u == v * v, "ZeroDivisionError: R-matrix pole at u^2 = v^2"),
        "u": (lambda: u == 0, singular),
        "v": (lambda: v == 0, singular),
        "overflow": (lambda: not 0 <= n <= params.M,
                     f"ValueError: sector overflow: A cannot act on sector {n} of {params.M} sites"),
    }
    return next(((step, tests[step][1]) for step in _REFUSAL_ORDER[check] if tests[step][0]()),
                None)


def test_relation_refusals_keep_their_order_in_the_wrappers_and_a_held_object(rng):
    # every case, one held Relations per case as `vertex commutation-check` and
    # criterion 2 hold it, and a fresh one per call in the wrappers
    refused = set()
    for params, u, v in _relation_cases(rng):
        held = Relations(u, v, params)
        for n in [*range(-1, params.M + 2), 1.0, "1"]:
            for check, wrapper in (("commutation", commutation_checks),
                                   ("transfer_commute", transfer_commute)):
                got = outcome(lambda: wrapper(u, v, params, n))
                assert got == outcome(lambda: getattr(held, check)(n)), (params, u, v, n, check)
                refusal = _refusal(check, u, v, params, n)
                assert got == refusal[1] if refusal else got.startswith(("{", "True", "False"))
                refused.add((check, refusal and refusal[0]))
        refusal = _refusal("rtt", u, v, params)
        got = outcome(lambda: rtt_check(u, v, params))
        assert got == outcome(held.rtt) == (refusal[1] if refusal else "True"), (params, u, v)
        refused.add(("rtt", refusal and refusal[0]))
    # the cases reach every refusal of every check: n not an int, the poles at
    # u^2 = v^2, u = 0, v = 0 and n outside 0..M
    assert refused == {(check, step) for check, steps in _REFUSAL_ORDER.items()
                       for step in (None, *steps)}


@pytest.mark.parametrize("lane", [True, False])
def test_a_sweep_over_sectors_builds_each_element_once(monkeypatch, lane):
    # one Relations over n = 0..M, as `vertex commutation-check` holds it,
    # sweeps one element per (kind, n, value); a second object keeps nothing
    # of the first, and each wrapper call sweeps afresh
    u, v = (F(2, 3), F(5, 7)) if lane else (1.5 - 0.5j, 0.25 + 1j)
    params = ModelParameters(F(1, 2) if lane else 1.25 + 0.5j, 5)
    built = []
    build = sector._sparse_element
    monkeypatch.setattr(sector, "_sparse_element", lambda kind, tables, M, n:
                        built.append((kind, n, id(tables))) or build(kind, tables, M, n))
    relations = Relations(u, v, params)
    for n in range(params.M + 1):
        assert all(relations.commutation(n).values())
        assert relations.transfer_commute(n)
    assert relations.rtt()
    assert len(built) == len(set(built)) and len({key[2] for key in built}) == 2
    first = built[:]
    del built[:]
    assert all(Relations(u, v, params).commutation(2).values())
    assert {key[:2] for key in built} <= {key[:2] for key in first}
    assert not {key[2] for key in built} & {key[2] for key in first}
    swept = len(built)
    assert all(commutation_checks(u, v, params, 2).values())
    assert all(commutation_checks(u, v, params, 2).values())
    assert len(built) == 3 * swept


@pytest.mark.parametrize("u,v,params", [
    (F(2, 3), F(5, 7), ModelParameters(F(1, 2), 4)),  # the Fraction lane
    (2, 5, ModelParameters(3, 4)),  # the int lane, every u/w_j an int
    (1.5 - 0.5j, 0.25 + 1j, ModelParameters(1.25 + 0.5j, 4)),  # complex
    # numpy ints used to reach exact_div's float a / b, so f and g were rounded
    # and CB, AB, DB and RTT failed where Python ints pass
    (np.int64(2), np.int64(3), ModelParameters(F(1, 2), 3, w=(F(1, 3),) * 3)),
], ids=["lane", "exact", "complex", "numpy-int"])
def test_relation_checks_take_the_sparse_path_on_every_lane(monkeypatch, u, v, params):
    # the relation checks multiply no dense SectorOperator, on the lane or off it
    def refused(*args, **kwargs):
        raise AssertionError("a relation check built a dense element")
    monkeypatch.setattr(sector, "_element", refused)
    for n in range(-1, params.M + 2):
        assert all(commutation_checks(u, v, params, n).values())
    for n in range(params.M + 1):
        assert transfer_commute(u, v, params, n)
    assert rtt_check(u, v, params)


@pytest.mark.parametrize("n", [1.0, F(1), "1", None], ids=repr)
def test_a_sector_that_is_not_an_int_is_refused_up_front(n):
    # each used to fail inside range() with a TypeError, or took 1.0 as 1
    params = ModelParameters(F(1, 2), 3)
    for call in (lambda: build_monodromy_element("B", F(2, 3), params, n),
                 lambda: transfer_matrix(F(2, 3), params, n),
                 lambda: hamiltonian(params, n),
                 lambda: commutation_checks(F(2, 3), F(5, 7), params, n),
                 lambda: transfer_commute(F(2, 3), F(5, 7), params, n),
                 lambda: sector_basis(3, n), lambda: sector_dim(3, n), lambda: basis_index(3, n)):
        with pytest.raises(ValueError, match=re.escape(f"n must be an int, got n = {n!r}")):
            call()
    for call in (sector_basis, sector_dim, basis_index):
        with pytest.raises(ValueError, match=re.escape(f"M must be an int, got M = {n!r}")):
            call(n, 1)
    assert transfer_matrix(F(2, 3), params, np.int64(1)) == transfer_matrix(F(2, 3), params, 1)
    assert sector_basis(np.int64(3), np.int64(1)) == sector_basis(3, 1)
    assert sector_dim(3, np.int64(1)) == 3 and basis_index(np.int64(2), 1) == {(1,): 0, (2,): 1}
