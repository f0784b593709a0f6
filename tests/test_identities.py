"""Cauchy identity, summation formulas, and orthogonality."""

import re
from dataclasses import replace
from fractions import Fraction as F
from math import comb

import numpy as np
import pytest

from fivevertex.identities import (cauchy_infinite_check, cauchy_lhs, cauchy_rhs,
                                   grothendieck_sum_check, grothendieck_sum_det,
                                   orthogonality_check, orthogonality_matrix,
                                   orthogonality_weight)
from fivevertex.partitions import enumerate_box
from fivevertex.symfunc import dual_grothendieck_eval, grothendieck_eval, schur_eval

from conftest import distinct_squares, rand_fraction


def test_single_variable_geometric_series(rng):
    z, y = rand_fraction(rng), rand_fraction(rng)
    beta = rand_fraction(rng)
    if z * y == 1:
        y = y + 1
    M = 5
    expected = sum((z * y) ** k for k in range(M))
    assert cauchy_rhs(M, 1, [z], [y], beta) == expected
    if 1 + beta / y != 0:
        assert cauchy_lhs(M, 1, [z], [y], beta) == expected


def test_exact_identity_random_draws(rng):
    for (M, N) in [(4, 2), (5, 2), (6, 3)]:
        z = distinct_squares(rng, N)
        y = distinct_squares(rng, N)
        beta = rand_fraction(rng)
        if any(zj * yk == 1 for zj in z for yk in y) or any(1 + beta / yk == 0 for yk in y):
            continue
        assert cauchy_lhs(M, N, z, y, beta) == cauchy_rhs(M, N, z, y, beta)


def test_beta_zero_recovers_schur_cauchy(rng):
    M, N = 5, 2
    z = distinct_squares(rng, N)
    y = distinct_squares(rng, N)
    if any(zj * yk == 1 for zj in z for yk in y):
        y = [yk + 2 for yk in y]
    lhs = sum(schur_eval(lam, z) * schur_eval(lam, y) for lam in enumerate_box(M - N, N))
    assert lhs == cauchy_rhs(M, N, z, y, 0)


def test_rhs_symmetric_in_each_group(rng):
    M, N = 5, 3
    z = distinct_squares(rng, N)
    y = distinct_squares(rng, N)
    beta = rand_fraction(rng)
    if any(zj * yk == 1 for zj in z for yk in y) or any(1 + beta / yk == 0 for yk in y):
        beta = beta + 1
    base = cauchy_rhs(M, N, z, y, beta)
    assert cauchy_rhs(M, N, [z[1], z[2], z[0]], y, beta) == base
    assert cauchy_rhs(M, N, z, [y[2], y[1], y[0]], beta) == base


def test_removable_kernel_singularity():
    # z_1 y_1 = 1 exactly: the kernel entry is 0/0 but the limit is finite
    z = [F(2, 3), F(1, 5)]
    y = [F(3, 2), F(1, 7)]
    beta = F(2, 7)
    assert z[0] * y[0] == 1
    assert cauchy_lhs(4, 2, z, y, beta) == cauchy_rhs(4, 2, z, y, beta)


def test_confluent_variable_groups():
    z = [F(1, 2), F(1, 2)]
    y = [F(1, 3), F(1, 5)]
    beta = F(1, 4)
    assert cauchy_lhs(4, 2, z, y, beta) == cauchy_rhs(4, 2, z, y, beta)
    # coincident y take the Taylor columns of the kernel in its label y
    z2 = [F(1, 3), F(1, 5)]
    y2 = [F(1, 2), F(1, 2)]
    assert cauchy_lhs(4, 2, z2, y2, beta) == cauchy_rhs(4, 2, z2, y2, beta)
    # and both groups may coincide at once
    z3 = [F(1, 2), F(1, 2)]
    y3 = [F(1, 3), F(1, 3)]
    assert cauchy_lhs(4, 2, z3, y3, beta) == cauchy_rhs(4, 2, z3, y3, beta)


@pytest.mark.parametrize("y", [[F(0), F(0)], [F(0), F(1, 2)]], ids=["coincident", "distinct"])
def test_zero_y_is_refused(y):
    # the dual side Gbar(y) needs y != 0, so both sides refuse a zero y
    z, beta = [F(1, 3), F(1, 5)], F(1, 4)
    with pytest.raises(ZeroDivisionError):
        cauchy_rhs(4, 2, z, y, beta)
    with pytest.raises(ZeroDivisionError):
        cauchy_lhs(4, 2, z, y, beta)


def test_infinite_limit_simple_case():
    # beta = 0, N = 1, z = y = 1/2: product form is 1/(1 - 1/4) = 4/3
    report = cauchy_infinite_check(1, [F(1, 2)], [F(1, 2)], 0, M_max=25)
    assert report["product"] == F(4, 3)
    assert report["converged"] and report["monotone"]


def test_infinite_limit_two_variables():
    report = cauchy_infinite_check(2, [F(1, 3), F(1, 4)], [F(1, 2), F(2, 5)],
                                   F(1, 6), M_max=40)
    assert report["converged"]
    assert report["distances"][-1] <= 1e-10


def test_infinite_limit_rejects_divergent_input():
    with pytest.raises(ValueError):
        cauchy_infinite_check(1, [F(2)], [F(1)], 0, M_max=5)


def test_infinite_limit_takes_field_constants_by_value():
    # the truncation tests took complex() of a field element, a TypeError; constants of
    # QQ(x) now give the Fraction call's values, in the field, and a non-constant
    # element is refused by name before any box is built
    import sympy
    from sympy.polys.fields import field

    K, x = field("x", sympy.QQ)
    got = cauchy_infinite_check(2, [K(1) / 3, K(1) / 5], [K(1) / 2, K(1) / 7], K(2), 3)
    want = cauchy_infinite_check(2, [F(1, 3), F(1, 5)], [F(1, 2), F(1, 7)], F(2), 3)
    assert got["product"] - want["product"] == 0 and type(got["product"]) is type(K(1))
    assert len(got["partials"]) == 3
    assert all(a - b == 0 for a, b in zip(got["partials"], want["partials"]))
    assert got["distances"] == want["distances"]
    assert (got["monotone"], got["converged"]) == (want["monotone"], want["converged"])
    for args, name in (([[x / 3, K(1) / 5], [K(1) / 2, K(1) / 7], K(2)], "z"),
                       ([[K(1) / 3, K(1) / 5], [K(1) / 2, x], K(2)], "y"),
                       ([[K(1) / 3, K(1) / 5], [K(1) / 2, K(1) / 7], x], "beta")):
        with pytest.raises(ValueError, match=f"^{name} must be a number or a constant of its "
                                             f"field, got {name} = "):
            cauchy_infinite_check(2, *args, 3)


def test_infinite_partials_are_the_box_sums():
    # the partial sum at m is the sum over the whole m^N box, shell by shell
    z, y, beta = [F(1, 3), F(1, 4)], [F(1, 2), F(2, 5)], F(1, 6)
    report = cauchy_infinite_check(2, z, y, beta, M_max=5)
    for m, partial in enumerate(report["partials"], 1):
        box = enumerate_box(m, 2)
        assert partial == sum(grothendieck_eval(lam, z, beta) * dual_grothendieck_eval(lam, y, beta)
                              for lam in box)


_THREE, _ONE = [F(1, 2), F(1, 3), F(1, 5)], [F(1, 2)]


@pytest.mark.parametrize("call, got", [
    (lambda: cauchy_lhs(4, 2, _THREE, _THREE, F(1, 4)), 3),
    (lambda: cauchy_lhs(4, 2, _THREE[:2], _ONE, F(1, 4)), 1),
    (lambda: cauchy_rhs(4, 2, _THREE, _THREE, F(1, 4)), 3),
    (lambda: grothendieck_sum_check(4, 2, _THREE, F(1, 4)), 3),
    (lambda: grothendieck_sum_check(4, 2, _ONE, F(1, 4), dual=True), 1),
    (lambda: grothendieck_sum_det(4, 2, _ONE, F(1, 4)), 1),
    (lambda: cauchy_infinite_check(2, _THREE, _THREE[:2], F(1, 4), M_max=3), 3),
], ids=["cauchy_lhs", "cauchy_lhs_y", "cauchy_rhs", "sum_check", "sum_check_dual", "sum_det",
        "cauchy_infinite"])
def test_wrong_variable_counts_are_refused_up_front(call, got):
    with pytest.raises(ValueError, match=rf"^need N = 2 variables, got {got}$"):
        call()


def test_box_sums_keep_the_type_of_the_term_by_term_sum():
    # the cleared lane divides once at the end, into the type the term-by-term
    # sum of bialternants gives: a Fraction at Fractions, an element of QQ(z, y, beta)
    import sympy
    from sympy.polys.fields import field

    from fivevertex.symfunc import dual_grothendieck_eval, grothendieck_eval

    K, z1, z2, y1, y2, b = field("z1,z2,y1,y2,beta", sympy.QQ)
    for z, y, beta in (([F(1, 2), F(-1, 3)], [F(3, 4), F(2, 5)], F(1, 5)),
                       ([F(2, 3), F(2, 3)], [F(1, 4), F(1, 4)], F(-1, 2)),
                       ([z1, z2], [y1, y2], b), ([z1, z1], [y1, K(2)], F(1, 3))):
        box = list(enumerate_box(2, 2))
        want = sum(grothendieck_eval(lam, z, beta) * dual_grothendieck_eval(lam, y, beta)
                   for lam in box)
        got = cauchy_lhs(4, 2, z, y, beta)
        assert got == want and type(got) is type(want)
        if type(z[0]) is F:
            partials = cauchy_infinite_check(2, z, y, beta, M_max=3)["partials"]
            assert [type(p) for p in partials] == [F] * 3


def test_cauchy_identity_over_a_function_field():
    # over QQ(beta, z, y) the two sides are rational functions: their equality at
    # (4,3) is the identity itself at that size, not a sample of it
    import sympy
    from sympy.polys.fields import field

    _, beta, *zy = field("beta,z1,z2,z3,y1,y2,y3", sympy.QQ)
    z, y = zy[:3], zy[3:]
    assert cauchy_lhs(4, 3, z, y, beta) == cauchy_rhs(4, 3, z, y, beta)


@pytest.mark.parametrize("dual", [False, True])
def test_summation_formulas_over_a_function_field(dual):
    # the weighted sums over the 2^3 box against their determinants, over QQ(beta, z)
    import sympy
    from sympy.polys.fields import field

    _, beta, *z = field("beta,z1,z2,z3", sympy.QQ)
    assert grothendieck_sum_check(5, 3, z, beta, dual)


def test_box_sums_refuse_two_fields_by_name():
    import sympy
    from sympy.polys.fields import field

    K, z1, z2 = field("z1,z2", sympy.QQ)
    L, w1, w2 = field("w1,w2", sympy.QQ)
    message = f"^elements of two fields: {re.escape(str(K))} and {re.escape(str(L))}$"
    for call in (lambda: cauchy_lhs(4, 2, [z1, z2], [w1, w2], F(1, 2)),
                 lambda: grothendieck_sum_check(4, 2, [z1, z2], w1)):
        with pytest.raises(ValueError, match=message):
            call()


def test_box_sums_take_no_determinant(monkeypatch):
    # the box side branches on cleared numerators: no bialternant, no linalg.det;
    # grothendieck_sum_check takes just the determinants of its other side
    from fivevertex import confluent, linalg, symfunc

    def no_bialternants(*args):
        raise AssertionError("a bialternant was set up for a box sum")

    calls, det = [], linalg.det
    counted = lambda *args, **kwargs: calls.append(1) or det(*args, **kwargs)  # noqa: E731
    for module in (linalg, confluent):
        monkeypatch.setattr(module, "det", counted)
    monkeypatch.setattr(symfunc, "det_ratio_columns", no_bialternants)
    z, y, beta = [F(1, 2), F(-1, 3), F(2, 5)], [F(3, 4), F(-1, 2), F(1, 5)], F(1, 5)
    cauchy_lhs(6, 3, z, y, beta)
    cauchy_infinite_check(3, z, y, beta, M_max=6)
    assert calls == []
    for dual in (False, True):
        grothendieck_sum_det(6, 3, z, beta, dual)
        alone = len(calls)
        assert alone > 0
        assert grothendieck_sum_check(6, 3, z, beta, dual)
        assert len(calls) == 2 * alone
        calls.clear()


def test_box_sums_at_complex_points(monkeypatch, rng):
    # off the exact lane the box sides run grothendieck_box_cleared's value branch and
    # scalars.cleared_quotient's None branch: cauchy_lhs against cauchy_rhs, and each
    # weighted sum's difference from its determinant (the value grothendieck_sum_check
    # tests), relative to max(1, |determinant side|), at seeded points for M <= 7, N <= 3
    from fivevertex import identities

    diffs, is_zero = [], identities.is_zero
    monkeypatch.setattr(identities, "is_zero", lambda x, tol: diffs.append(x) or is_zero(x, tol))
    point = lambda: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))  # noqa: E731
    worst = 0.0
    for N in range(4):
        for M in range(N, 8):
            z, y, beta = [point() for _ in range(N)], [point() for _ in range(N)], point()
            rhs = cauchy_rhs(M, N, z, y, beta)
            worst = max(worst, abs(cauchy_lhs(M, N, z, y, beta) - rhs) / max(1, abs(rhs)))
            for dual, x in ((False, z), (True, y)):
                assert grothendieck_sum_check(M, N, x, beta, dual)
                diff = diffs[-1]  # the check's last zero test
                det = grothendieck_sum_det(M, N, x, beta, dual)
                worst = max(worst, abs(diff) / max(1, abs(det)))
    assert worst <= 1e-12


def test_sum_single_variable_hand_check(rng):
    M, N = 3, 1
    z = [rand_fraction(rng)]
    beta = rand_fraction(rng)
    while 1 + beta * z[0] == 0 or 1 + beta / z[0] == 0 or beta == 0:
        beta = rand_fraction(rng)
    lhs = sum((-beta) ** l * z[0] ** l for l in range(M))
    assert grothendieck_sum_det(M, N, z, beta) == lhs
    lhs_dual = sum((-beta) ** (-l) * z[0] ** l for l in range(M))
    assert grothendieck_sum_det(M, N, z, beta, dual=True) == lhs_dual


def test_sum_checks(rng):
    M, N = 4, 2
    z = distinct_squares(rng, N)
    beta = rand_fraction(rng)
    while any(1 + beta * zj == 0 or 1 + beta / zj == 0 for zj in z) or beta == 0:
        beta = rand_fraction(rng)
    assert grothendieck_sum_check(M, N, z, beta)
    assert grothendieck_sum_check(M, N, z, beta, dual=True)


def test_sum_det_below_the_box_is_the_empty_sum():
    # at M < N the (M-N)^N box holds no partition: the determinant side is 0,
    # which the window form factors use at n = M, while the box sum refuses
    z, y = [F(1, 2), F(1, 3), F(2, 5)], [F(2), F(3), F(5)]
    for N in (1, 2, 3):
        for M in range(N):
            for beta in (F(-1), F(1, 2), -1):
                assert grothendieck_sum_det(M, N, z[:N], beta) == 0
                assert grothendieck_sum_det(M, N, y[:N], beta, dual=True) == 0
            # named by the caller's N, not by the box side M - N
            message = f"N must be an int in 0..{M}, got N = {N}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                cauchy_lhs(M, N, z[:N], y[:N], F(-1))
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                grothendieck_sum_check(M, N, z[:N], F(-1))


def test_sum_rejects_beta_zero(rng):
    with pytest.raises(ValueError):
        grothendieck_sum_det(4, 2, distinct_squares(rng, 2), 0)


@pytest.mark.parametrize("z", [[F(2, 3), F(2, 3)], [F(-1, 2), F(-1, 2), F(3, 5)]],
                         ids=["a,a", "a,a,b"])
def test_sum_checks_at_coincident_variables(z):
    # coincident variables take the confluent limit of both determinant sides
    N = len(z)
    for M in range(N, 7):
        for beta in (F(-2, 7), F(3, 4), -1):
            assert grothendieck_sum_check(M, N, z, beta)
            assert grothendieck_sum_check(M, N, z, beta, dual=True)


def test_dual_sum_refuses_zero_y():
    # at M = N the columns y^(-p) (y+beta)^p are finite at y = 0, but Gbar(y) is not
    with pytest.raises(ZeroDivisionError, match="y_k != 0"):
        grothendieck_sum_det(2, 2, [F(0), F(1, 2)], F(1, 3), dual=True)
    with pytest.raises(ZeroDivisionError, match="y_k != 0"):
        grothendieck_sum_det(4, 2, [0, 0], 2, dual=True)
    # 1 + beta/y = 0 under a negative power is a pole, coincident y or not
    for y in ([F(-1, 3), F(1, 2)], [F(-1, 3), F(-1, 3)]):
        with pytest.raises(ZeroDivisionError, match="negative power of a zero base"):
            grothendieck_sum_det(4, 2, y, F(1, 3), dual=True)
    with pytest.raises(ValueError):
        grothendieck_sum_det(4, 2, [F(0), F(1, 2)], 0, dual=True)


def test_orthogonality_small_case():
    M, N = 4, 2
    from fivevertex.tasep import bethe_solve

    sols = bethe_solve(M, N)
    box = list(enumerate_box(M - N, N))
    for lam in box:
        for mu in box:
            val = orthogonality_check(M, N, -1.0, lam, mu, sols)
            want = 1.0 if lam.parts == mu.parts else 0.0
            assert abs(val - want) <= 1e-8


def test_orthogonality_weight_takes_no_pole_where_a_denominator_factor_vanishes():
    # at (3,1), beta = -3/2, M + (M-N) beta z vanishes at the Bethe root z = 1;
    # the weight used to be nan there and the matrix was refused as "a pole at
    # a Bethe root".  Over its common denominator the factor cancels, and for
    # N = 1 the weight is exactly 1/M
    assert orthogonality_weight([F(1)], F(-3, 2), 3, 1) == F(1, 3)
    for z, beta, M in ((F(2, 7), F(-1, 2), 5), (F(-5, 3), F(3), 4)):
        assert orthogonality_weight([z], beta, M, 1) == F(1, M)
    assert np.max(np.abs(orthogonality_matrix(3, 1, -1.5) - np.eye(3))) <= 1e-15


def test_orthogonality_matrix_matches_pairwise_checks():
    from fivevertex.tasep import bethe_solve

    M, N, beta = 6, 2, -0.5
    sols = bethe_solve(M, N, beta=beta)
    box = list(enumerate_box(M - N, N))
    gram = orthogonality_matrix(M, N, beta, sols)
    assert gram.shape == (len(box), len(box))
    for i, lam in enumerate(box):
        for k, mu in enumerate(box):
            assert abs(gram[i, k] - orthogonality_check(M, N, beta, lam, mu, sols)) <= 1e-12
            assert abs(gram[i, k] - (1.0 if i == k else 0.0)) <= 1e-8


def test_orthogonality_check_is_the_matrix_entry():
    from fivevertex.tasep import bethe_solve

    M, N, beta = 7, 3, -0.5
    sols = bethe_solve(M, N, beta=beta)
    box = list(enumerate_box(M - N, N))
    gram = orthogonality_matrix(M, N, beta, sols)
    for i, lam in enumerate(box):
        for k, mu in enumerate(box[::3]):
            # a Partition or its parts as a tuple, padded or not
            assert abs(orthogonality_check(M, N, beta, lam.parts, mu, sols) - gram[i, 3 * k]) \
                <= 1e-15
    j = [lam.parts for lam in box].index((2, 1, 0))
    assert orthogonality_check(M, N, beta, (2, 1), (2, 1, 0), sols) == \
        orthogonality_check(M, N, beta, box[j], box[j], sols)


@pytest.mark.parametrize("lam, mu, message", [
    ((4, 0, 0), (0, 0, 0), r"lam = (4, 0, 0) lies outside the 3^3 box"),
    ((0,), (3, 3, 3, 1), "mu: partition has 4 parts but only 3 variables"),
    ((1, 2), (0,), "lam: lam must have nonnegative, weakly decreasing parts, got (1, 2)"),
])
def test_orthogonality_check_refuses_a_partition_outside_the_box(lam, mu, message, monkeypatch):
    # (4, 0, 0) at M = 6, N = 3 used to give 2.4e-16, but the relation holds on
    # the 3^3 box only; refused before the solution list is looked at
    from fivevertex import identities

    monkeypatch.setattr(identities, "_orthogonality_spectrum", None)
    with pytest.raises(ValueError, match=re.escape(message)):
        orthogonality_check(6, 3, -0.5, lam, mu, None)


def test_a_float_size_is_refused_by_name():
    # each used to end in an internal TypeError ("'float' object cannot be interpreted
    # as an integer"), or named m, the box side, rather than the argument passed
    two, beta = _THREE[:2], F(1, 4)
    for call, message in ((lambda: orthogonality_check(6.0, 3, -0.5, (0,), (0,), None),
                           "M must be an int >= 2, got M = 6.0"),
                          (lambda: orthogonality_check(6, 3.0, -0.5, (0,), (0,), None),
                           "N must be an int in 1..5, got N = 3.0"),
                          (lambda: cauchy_lhs(4.0, 2, two, two, beta),
                           "M must be an int >= 0, got M = 4.0"),
                          (lambda: cauchy_lhs(4, 2.0, two, two, beta),
                           "N must be an int in 0..4, got N = 2.0"),
                          (lambda: cauchy_rhs(4.0, 2, two, two, beta),
                           "M must be an int, got M = 4.0"),
                          (lambda: cauchy_rhs(4, 2.0, two, two, beta),
                           "N must be an int, got N = 2.0"),
                          (lambda: grothendieck_sum_det(4.0, 2, two, beta),
                           "M must be an int >= 0, got M = 4.0"),
                          (lambda: grothendieck_sum_check(4.0, 2, two, beta),
                           "M must be an int >= 0, got M = 4.0"),
                          (lambda: grothendieck_sum_check(4, 2.0, two, beta, dual=True),
                           "N must be an int in 0..4, got N = 2.0"),
                          (lambda: cauchy_infinite_check(2.0, two, two, beta),
                           "N must be an int >= 0, got N = 2.0"),
                          (lambda: cauchy_infinite_check(2, two, two, beta, M_max=3.0),
                           "M_max must be an int >= 1, got M_max = 3.0")):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            call()


def test_orthogonality_rejects_incomplete_enumeration():
    from fivevertex.tasep import Spectrum, bethe_solve

    sols = bethe_solve(4, 2)[:-1]
    lam = next(iter(enumerate_box(2, 2)))
    with pytest.raises(RuntimeError, match="incomplete Bethe solution set: 5 of 6"):
        orthogonality_check(4, 2, -1.0, lam, lam, Spectrum(sols, 4, 2))
    # a bare list is not spectral data at all
    with pytest.raises(ValueError, match=re.escape("bethe_solve's result or Spectrum(list, M, N")):
        orthogonality_check(4, 2, -1.0, lam, lam, sols)


def test_orthogonality_beta_zero_on_circle():
    from fivevertex.tasep import bethe_solve

    M, N = 6, 2
    sols = bethe_solve(M, N, beta=0.0)
    assert len(sols) == comb(M, N)
    for sol in sols:
        for zj in sol.roots:
            assert abs(abs(zj) - 1) <= 1e-12
    box = list(enumerate_box(M - N, N))
    lam, mu = box[0], box[3]
    assert abs(orthogonality_check(M, N, 0.0, lam, lam, sols) - 1) <= 1e-8
    assert abs(orthogonality_check(M, N, 0.0, lam, mu, sols)) <= 1e-8


def test_orthogonality_checks_the_circle_where_bethe_solve_takes_beta_zero():
    from fivevertex.tasep import Spectrum, bethe_solve

    M, N = 6, 2
    # beta = 1e-11 is tracked, and its roots sit about 3e-12 off the unit circle;
    # it used to be taken for beta = 0 here and refused
    sols = bethe_solve(M, N, beta=1e-11)
    assert max(abs(abs(zj) - 1) for s in sols for zj in s.roots) > 1e-12
    gram = orthogonality_matrix(M, N, 1e-11, sols)
    assert np.max(np.abs(gram - np.eye(len(gram)))) <= 1e-8
    sols = list(bethe_solve(M, N, beta=0.0))
    sols[0] = replace(sols[0], roots=tuple(1.001 * zj for zj in sols[0].roots))
    edited = Spectrum(sols, M, N, 0.0)
    for call in (lambda: orthogonality_matrix(M, N, 0.0, edited),
                 lambda: orthogonality_check(M, N, 0.0, (1,), (1,), edited)):
        with pytest.raises(RuntimeError,
                           match="^beta = 0 Bethe roots must lie on the unit circle$"):
            call()


def test_orthogonality_at_beta_zero_takes_a_spectrum():
    # the unit-circle check used to iterate the Spectrum and raise
    # "TypeError: 'Spectrum' object is not iterable"
    from fivevertex.tasep import bethe_solve

    M, N = 5, 2
    spec = bethe_solve(M, N, 0.0)
    value = orthogonality_check(M, N, 0.0, (1,), (1,), spec)
    assert value == orthogonality_check(M, N, 0.0, (1,), (1,), None)
    assert abs(value - 1) <= 1e-12
    gram = orthogonality_matrix(M, N, 0.0, spec)
    assert np.max(np.abs(gram - np.eye(len(gram)))) <= 1e-8


@pytest.mark.parametrize("M, N, beta, have", [
    # 1.037 from the beta = -1 sets, where the relation at beta = -1/2 gives 1
    (6, 2, -0.5, "(6, 2, -1.0)"),
    # used to end in an internal IndexError
    (7, 2, -1.0, "(6, 2, -1.0)"),
])
def test_orthogonality_refuses_a_spectrum_of_another_sector_or_beta(M, N, beta, have,
                                                                    monkeypatch):
    from fivevertex import tasep
    from fivevertex.tasep import bethe_solve

    spec = bethe_solve(6, 2, -1.0)
    monkeypatch.setattr(tasep, "grothendieck_box", None)  # refused before any box is built
    message = f"the Spectrum of (M, N, beta) = {have} cannot serve (M, N, beta) = {(M, N, beta)}"
    for call in (lambda: orthogonality_check(M, N, beta, (1,), (1,), spec),
                 lambda: orthogonality_matrix(M, N, beta, spec)):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            call()


def test_dual_sum_with_int_beta_stays_exact(monkeypatch):
    import fivevertex.identities as identities

    y = [F(1, 3), F(2, 5)]
    value = grothendieck_sum_det(4, 2, y, -1, dual=True)
    assert type(value) is F and value == F(13, 75)
    assert grothendieck_sum_check(4, 2, y, -1, dual=True)
    # the check compares exactly: a determinant side off by 1e-12 must fail it
    exact_det = identities.grothendieck_sum_det
    monkeypatch.setattr(identities, "grothendieck_sum_det",
                        lambda *a, **k: exact_det(*a, **k) + F(1, 10 ** 12))
    assert not grothendieck_sum_check(4, 2, y, -1, dual=True)
    # int y dividing an int beta: the bases 1 + beta/y are ints under negative powers
    value = grothendieck_sum_det(4, 2, [1, 2], -4, dual=True)
    assert type(value) is F and value == F(35, 192)
    monkeypatch.undo()
    assert grothendieck_sum_check(4, 2, [1, 2], -4, dual=True)
    monkeypatch.setattr(identities, "grothendieck_sum_det",
                        lambda *a, **k: exact_det(*a, **k) + F(1, 10 ** 12))
    assert not grothendieck_sum_check(4, 2, [1, 2], -4, dual=True)


def _exact(x):
    return F(complex(x).real)


@pytest.mark.parametrize("d", [1e-6, 1e-9, 1e-11])
@pytest.mark.parametrize("M", [4, 6])
def test_float_lane_coincident_y_near_the_kernel_pole(M, d):
    # y_1 = y_2 = (1 + d)/z_1 puts z_1 y within d of the removable z y = 1
    # point; the float value must match the exact value at the same inputs
    z = [0.5 + 0j, 0.3 + 0j]
    y = [(1 + d) / z[0]] * 2
    beta = -0.5 + 0j
    got = cauchy_rhs(M, 2, z, y, beta)
    exact = complex(cauchy_rhs(M, 2, [_exact(x) for x in z], [_exact(x) for x in y],
                               _exact(beta)))
    assert abs(got - exact) <= 1e-12 * abs(exact)
