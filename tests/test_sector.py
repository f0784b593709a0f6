"""Dense sector operators: monodromy elements, transfer matrix, Hamiltonian, BAE."""

from fractions import Fraction as F
from math import comb

import pytest

from fivevertex.linalg import Matrix, mat_solve
from fivevertex.sector import (ModelParameters, SectorOperator, bethe_residual, bethe_state,
                               build_monodromy_element, commutation_checks,
                               dual_bethe_state, hamiltonian, rtt_check, sector_basis,
                               transfer_eigenvalue, transfer_matrix)

from conftest import distinct_squares, rand_fraction


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
