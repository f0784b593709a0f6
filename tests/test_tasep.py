"""TASEP dynamics: Bethe solver, Green functions, observables, master oracle."""

import re
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations
from math import comb

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

from fivevertex import tasep
from fivevertex.identities import (cauchy_rhs, orthogonality_check, orthogonality_matrix,
                                   orthogonality_weight)
from fivevertex.partitions import ParticleConfiguration as PC
from fivevertex.partitions import config_to_partition, enumerate_box, partition_to_config
from fivevertex.symfunc import (box_plan, dual_grothendieck_eval, grothendieck_box,
                               grothendieck_eval)
from fivevertex.tasep import (CONJUGATE_TOL, CORRECTOR_STEPS, CORRECTOR_TOL, DEDUP_TOL, GAMMA,
                              RESIDUAL_TOL, STEP_MAX, STEP_MIN, GreenQuery, Spectrum, _canonical,
                              _conjugate_partners, _free_roots, _jacobian_solve, _newton_kernel,
                              _newton_polish, _spectrum, _stationary_choice, _subsets, _tangent,
                              _track,
                              bethe_solve,
                              current_terms, density_terms, expectation,
                              expectation_via_form_factors, form_factor_sum, green_function,
                              green_function_table, master_oracle, sector_generator,
                              sum_rule_check)
from fivevertex.sector import basis_index, hamiltonian, sector_basis
from fivevertex.vertex import ModelParameters

from conftest import distinct_squares


def test_bethe_counts_and_residuals():
    sols = bethe_solve(6, 2)
    assert len(sols) == comb(6, 2)
    assert sum(1 for s in sols if s.stationary) == 1
    stationary = next(s for s in sols if s.stationary)
    assert stationary.energy == 0
    assert max(s.max_residual for s in sols) <= 1e-10


def test_bethe_rejects_bad_sector():
    with pytest.raises(ValueError):
        bethe_solve(4, 4)


@pytest.mark.parametrize("M, N, name",
                         [(4.0, 2, "M"), (4, 2.0, "N"), (F(4), 2, "M"), ("4", 2, "M"),
                          (6, True, "N")])
def test_bethe_solve_refuses_a_non_int_sector(M, N, name):
    # a float M or N used to raise a TypeError from itertools, and a bool N an
    # internal "TypeError: an integer is required"
    message = (f"M must be an int >= 2, got M = {M!r}" if name == "M"
               else f"N must be an int in 1..{M - 1}, got N = {N!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bethe_solve(M, N)


def test_energy_sum_equals_generator_trace():
    M, N = 6, 2
    sols = bethe_solve(M, N)
    total = sum(s.energy for s in sols)
    trace = np.trace(sector_generator(M, N))
    assert abs(total - trace) < 1e-8


def test_sector_generator_columns_sum_to_exactly_zero():
    # every hop out of a configuration is one unit of its diagonal, in ints
    for M in range(2, 9):
        for N in range(1, M):
            assert not np.any(sector_generator(M, N).sum(axis=0)), (M, N)


def test_a_weight_pole_refuses_the_contractions_not_the_spectrum():
    # N = 1 at beta = -1: a root at z = 1 is 0/0 in the weight's closed form, and
    # 1 + beta/z = 0 is refused up front only at N >= 2
    stationary = bethe_solve(2, 1)[1]
    spec = Spectrum([tasep.BetheSolution((1 + 0j,), 0j, -1 + 0j, (0.0,), (0,)), stationary],
                    2, 1)
    with pytest.raises(ZeroDivisionError,
                       match=r"^orthogonality weight has a pole at a Bethe root$"):
        spec.right((0,))
    assert spec.left((1,))[0] == 1


def test_evolve_refuses_a_sum_that_is_not_real_or_not_finite():
    # at complex beta no set has a conjugate partner, so G_mu Gbar_lam need not sum to a
    # real number; a NaN left vector gives no number at all
    spec = bethe_solve(4, 2, beta=0.3 + 0.2j)
    with pytest.raises(RuntimeError,
                       match=r"^spectral sum came out non-real: imaginary part up to 0\.763$"):
        spec.evolve(spec.left((1, 0)), 1, spec.right((2, 1)), 0.5)
    spec = bethe_solve(4, 2)
    with pytest.raises(RuntimeError, match=r"^spectral sum is not finite$"):
        spec.evolve(np.full(len(spec.roots), np.nan), 1, spec.right((1, 1)), 0.5)


def test_expectation_refuses_an_observable_of_the_wrong_shape():
    with pytest.raises(ValueError,
                       match=r"^observable must be 6 x 6 on the configuration basis$"):
        expectation(np.eye(5), PC((1, 2), 4), 0.5)


def test_per_sector_constants_are_built_once_and_read_only():
    subsets, index = _subsets(5, 2)
    assert _subsets(5, 2)[1] is index and _free_roots(5, 2) is _free_roots(5, 2)
    assert subsets == tuple(combinations(range(5), 2)) and index.tolist() == list(map(list, subsets))
    free = np.exp(1j * np.pi * (2 * np.arange(5) + 1) / 5)
    assert sorted(_free_roots(5, 2).tolist(), key=lambda w: (round(w.real, 10), round(w.imag, 10))) \
        == _free_roots(5, 2).tolist()
    assert np.max(np.abs(np.sort_complex(_free_roots(5, 2)) - np.sort_complex(free))) <= 1e-15
    for array in (index, _free_roots(5, 2)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_green_function_against_oracle():
    M, N = 6, 2
    sols = bethe_solve(M, N)
    x0 = PC((1, 2), M)
    for t in (0.1, 1.0, 10.0):
        state = master_oracle(x0, t)
        for xp in [(1, 2), (2, 4), (3, 6)]:
            got = green_function(GreenQuery(x0, PC(xp, M), t), sols)
            assert abs(got - state[xp]) <= 1e-8
    # t = 0 reproduces the delta, t = 200 the uniform measure
    assert abs(green_function(GreenQuery(x0, x0, 0.0), sols) - 1) <= 1e-7
    assert abs(green_function(GreenQuery(x0, PC((2, 5), M), 0.0), sols)) <= 1e-7
    assert abs(green_function(GreenQuery(x0, PC((2, 5), M), 200.0), sols)
               - 1 / comb(M, N)) <= 1e-8


def test_green_table_matches_per_query():
    M, N = 5, 2
    sols = bethe_solve(M, N)
    table = green_function_table(M, N, 0.7, sols)
    basis = sector_basis(M, N)
    for i, xp in enumerate(basis[:4]):
        for j, x0 in enumerate(basis[:4]):
            per_query = green_function(GreenQuery(PC(x0, M), PC(xp, M), 0.7), sols)
            assert abs(table[i, j] - per_query) < 1e-12


def test_sum_rule_and_nonnegativity():
    M, N = 6, 2
    sols = bethe_solve(M, N)
    x0 = PC((1, 4), M)
    assert abs(sum_rule_check(x0, 1.0, sols) - 1) <= 1e-8
    assert abs(sum_rule_check(x0, 0.0, sols) - 1) <= 1e-8
    table = green_function_table(M, N, 1.0, sols)
    assert table.min() >= -1e-8 and table.max() <= 1 + 1e-8


def test_expectation_identity_is_one():
    M, N = 5, 2
    sols = bethe_solve(M, N)
    x0 = PC((1, 3), M)
    identity = np.eye(comb(M, N))
    for t in (0.0, 0.5, 2.0):
        assert abs(expectation(identity, x0, t, sols) - 1) <= 1e-9


@pytest.mark.parametrize("M, N", [(7, 3), (11, 8)])
def test_expectation_contracts_the_box_vectors(M, N):
    # one contraction of the kept box vectors, against one G_mu(z) call per
    # partition and against expm
    sols = _solve_once(M, N, -1.0)
    spec = _spectrum(sols, M, N)
    dim = comb(M, N)
    observable = np.random.default_rng(M).normal(size=(dim, dim))
    x0 = PC(sector_basis(M, N)[dim // 3], M)
    col_sums, basis = observable.sum(axis=0), sector_basis(M, N)
    a = sum(col_sums[basis.index(partition_to_config(mu, M).positions)] * spec.left(mu)
            for mu in enumerate_box(M - N, N))
    for t in (0.0, 0.7, 3.0):
        got = expectation(observable, x0, t, sols)
        want = spec.evolve(a, observable.sum(), spec.right(config_to_partition(x0)), t)
        assert abs(got - want) <= 1e-12 * max(1, abs(want))
        oracle = np.ones(dim) @ observable @ master_oracle(x0, t).amplitudes
        assert abs(got - oracle) <= 1e-8 * max(1, abs(oracle))


def test_density_and_current_match_oracle():
    M, N = 6, 2
    sols = bethe_solve(M, N)
    x0 = PC((1, 2), M)
    basis = sector_basis(M, N)
    site = 1
    density = np.diag([1.0 if site in cfg else 0.0 for cfg in basis])
    current = np.diag([1.0 if (site in cfg and site + 1 not in cfg) else 0.0
                       for cfg in basis])
    t = 1.0
    vec = master_oracle(x0, t).amplitudes
    dens_oracle = float(np.ones(len(vec)) @ density @ vec)
    curr_oracle = float(np.ones(len(vec)) @ current @ vec)
    assert abs(expectation(density, x0, t, sols) - dens_oracle) <= 1e-8
    assert abs(expectation(current, x0, t, sols) - curr_oracle) <= 1e-8
    assert abs(expectation_via_form_factors(density_terms(site), x0, t, sols)
               - dens_oracle) <= 1e-8
    assert abs(expectation_via_form_factors(current_terms(site), x0, t, sols)
               - curr_oracle) <= 1e-8


def test_form_factor_window_enumeration(rng):
    # A = s_1 (empty site 1): direct enumeration over the box, exact arithmetic;
    # coincident z take the confluent limit of the determinant side
    M, N = 5, 2
    z = distinct_squares(rng, N)
    while any(zj == 1 for zj in z):
        z = distinct_squares(rng, N)
    for zs in (z, [z[0], z[0]]):
        total = 0
        for mu in enumerate_box(M - N, N):
            pos = partition_to_config(mu, M).positions
            if 1 not in pos:
                total += grothendieck_eval(mu, zs, F(-1))
        assert form_factor_sum(1, 1, zs, M) == total
        # n = 0, l = 1 is the plain box sum of G_mu(z;-1)
        full = sum(grothendieck_eval(mu, zs, F(-1)) for mu in enumerate_box(M - N, N))
        assert form_factor_sum(1, 0, zs, M) == full


def test_form_factor_full_window_vanishes(rng):
    z = distinct_squares(rng, 2)
    assert form_factor_sum(1, 5, z, 5) == 0


def test_form_factor_window_bounds(rng):
    with pytest.raises(ValueError):
        form_factor_sum(1, 6, distinct_squares(rng, 2), 5)


def test_form_factor_sum_refuses_a_float_size_by_name():
    # a float M used to end in comb's TypeError inside the summation determinant
    for args, message in (((1, 1, [0.5], 6.0), "M must be an int, got M = 6.0"),
                          ((1.0, 1, [0.5], 6), "l must be an int, got l = 1.0"),
                          ((1, 1.0, [0.5], 6), "n must be an int in 0..6, got n = 1.0")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            form_factor_sum(*args)


def test_master_oracle_basics():
    M, N = 6, 2
    x0 = PC((2, 5), M)
    state0 = master_oracle(x0, 0.0)
    expected = np.zeros(comb(M, N))
    expected[sector_basis(M, N).index((2, 5))] = 1.0
    assert np.max(np.abs(state0.amplitudes - expected)) < 1e-12
    state = master_oracle(x0, 3.0)
    assert abs(state.amplitudes.sum() - 1) < 1e-10
    state_inf = master_oracle(x0, 200.0)
    assert np.max(np.abs(state_inf.amplitudes - 1 / comb(M, N))) < 1e-8


def test_green_query_validation():
    with pytest.raises(ValueError):
        GreenQuery(PC((1, 2), 6), PC((1, 2, 3), 6), 1.0)
    with pytest.raises(ValueError):
        GreenQuery(PC((1, 2), 6), PC((1, 2), 5), 1.0)
    with pytest.raises(ValueError):
        GreenQuery(PC((1, 2), 6), PC((1, 2), 6), -1.0)


def test_generalized_beta_solver():
    sols = bethe_solve(6, 2, beta=-0.5)
    assert len(sols) == comb(6, 2)
    assert not any(s.stationary for s in sols)
    assert max(s.max_residual for s in sols) <= 1e-10


def test_solver_cap():
    with pytest.raises(ValueError):
        bethe_solve(14, 7)


@pytest.mark.parametrize("beta", [float("inf"), float("nan"), complex(-1, float("inf"))])
def test_bethe_solve_refuses_a_non_finite_beta(beta):
    # these used to track every path and report a completeness failure with
    # one "stalled ... at s = 0" line per subset
    message = f"beta must be a finite number, got beta = {beta!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bethe_solve(4, 2, beta)


@pytest.mark.parametrize("t", [-1.0, float("nan"), float("inf")])
def test_master_oracle_and_green_query_refuse_a_bad_time(t):
    # t < 0 used to give "probabilities" outside [0, 1], t = inf all zeros,
    # and a Green query took nan and inf
    x0 = PC((1, 2), 6)
    message = f"^{re.escape(f't must be a finite number >= 0, got t = {t!r}')}$"
    with pytest.raises(ValueError, match=message):
        master_oracle(x0, t)
    with pytest.raises(ValueError, match=message):
        GreenQuery(x0, PC((2, 4), 6), t)


@pytest.mark.parametrize("entry", ["green_function_table", "sum_rule_check", "expectation",
                                   "expectation_via_form_factors"])
def test_every_contraction_refuses_a_bad_time(entry):
    # each used to evaluate the spectral sum anyway: a table at t = -1 held
    # "probabilities" from -7.42 to 7.56, and the sum rule at t = nan was nan
    M, N = 6, 2
    sols = bethe_solve(M, N)
    x0 = PC((1, 2), M)
    call = {"green_function_table": lambda t: green_function_table(M, N, t, sols),
            "sum_rule_check": lambda t: sum_rule_check(x0, t, sols),
            "expectation": lambda t: expectation(np.eye(comb(M, N)), x0, t, sols),
            "expectation_via_form_factors":
                lambda t: expectation_via_form_factors(density_terms(1), x0, t, sols)}[entry]
    for t in (-1.0, float("nan"), float("inf")):
        message = f"^{re.escape(f't must be a finite number >= 0, got t = {t!r}')}$"
        with pytest.raises(ValueError, match=message):
            call(t)


# solution lists of the unpatched solver, shared by the larger tests
_UNPATCHED = dict(vars(tasep))
_SOLVED = {}


def _solve_once(M, N, beta):
    """bethe_solve(M, N, beta), solved once per session for the unpatched module.

    A test that monkeypatches ``tasep`` may neither read these sets nor add to
    them, so the call is refused while any module attribute is replaced.  Each
    call returns a new Spectrum of the kept sets, so that no test's box vectors
    outlive it.
    """
    assert all(vars(tasep).get(name) is value for name, value in _UNPATCHED.items()), \
        "shared Bethe solves need the unpatched solver"
    if (M, N, beta) not in _SOLVED:
        _SOLVED[M, N, beta] = tuple(bethe_solve(M, N, beta))
    return Spectrum(_SOLVED[M, N, beta], M, N, beta)


@pytest.fixture(scope="module")
def sols_11_8():
    return _solve_once(11, 8, -1.0)


def test_green_table_and_sum_rule_at_11_8(sols_11_8):
    # the largest sector the solver completes, against expm
    M, N = 11, 8
    sols = sols_11_8
    gen = sector_generator(M, N)
    x0 = PC((1, 2, 3, 5, 6, 8, 9, 10), M)
    column = sector_basis(M, N).index(x0.positions)
    for t in (0.1, 1.0):
        oracle = expm(gen * t)
        assert np.max(np.abs(green_function_table(M, N, t, sols) - oracle)) <= 1e-8
        assert abs(sum_rule_check(x0, t, sols) - oracle[:, column].sum()) <= 1e-8


# budgets of the spectral moments T_1 and T_2, entrywise relative to max(1, |H^k|):
# the box-built tables measured 2.9e-15 (at (12,3)) and 1.2e-14 (at (12,7)) at worst
# over the domain, about a quarter of each
MOMENT_BUDGETS = {1: 1e-14, 2: 5e-14}


def test_green_tables_match_expm_over_the_solver_domain():
    # every sector under the solver's cap, the whole table at t = 1; at t = 0
    # the table is the orthogonality relation, which the branching box keeps
    # to 1.3e-15 (the LU bialternants reached 1.27e-14 at (12,11)).  The
    # moments T_k = contract(L E^k, R) have the exact integer targets H^k of the
    # hop rule, with no oracle library between
    for M in range(2, 13):
        for N in range(1, M):
            if comb(M, N) > comb(12, 6):
                continue
            sols = _solve_once(M, N, -1.0)
            generator = sector_generator(M, N)
            table = green_function_table(M, N, 1.0, sols)
            assert np.max(np.abs(table - expm(generator))) <= 1e-8, (M, N)
            start = green_function_table(M, N, 0.0, sols)
            assert np.max(np.abs(start - np.eye(comb(M, N)))) <= 5e-15, (M, N)
            left, right = (v[sols.basis_order()] for v in sols.box_vectors())
            for k, power in ((1, generator), (2, generator @ generator)):
                moment = sols.contract(left * sols.energies ** k, right)
                error = np.abs(moment - power) / np.maximum(1, np.abs(power))
                assert np.max(error) <= MOMENT_BUDGETS[k], (M, N, k)


def test_the_box_complement_is_the_time_reversal_of_every_sector():
    # lam -> lam^c, box_plan's complement, is on configurations the particle-hole
    # exchange with a reflection of the ring, which reverses the hops: a permutation P
    # of the sector basis with H[P][:, P] = H^T exactly, checked with no Bethe root
    for M in range(2, 13):
        for N in range(1, M):
            if comb(M, N) > comb(12, 6):
                continue
            order = tasep._basis_order(M, N)  # the box row of each configuration
            P = np.argsort(order)[box_plan(M - N, N)[2][order]]
            generator = sector_generator(M, N)
            assert np.array_equal(generator[P][:, P], generator.T), (M, N)


def test_stacked_form_factors_match_the_scalar_sum_over_every_window():
    # every sector with M <= 10 and every window n = 0..M, l = 1..M, including
    # n = M, where the top column's sum is empty (a zero column, also at N = 1).
    # Each root set is checked against the scalar sum once per n, at the l
    # with l - 1 = s mod M, so every (l, n) meets about S/M root sets
    for M in range(2, 11):
        for N in range(1, M):
            spec = _solve_once(M, N, -1.0)
            for n in range(M + 1):
                for l in range(1, M + 1):
                    a, a0 = spec.form_factors([(1, l, n)])
                    assert a0 == comb(M - n, N)
                    rows = range(l - 1, len(spec.roots), M)
                    want = np.array([form_factor_sum(l, n, spec.roots[s], M) for s in rows],
                                    dtype=complex)
                    tol = 1e-11 * max(1, np.max(np.abs(a)))
                    assert np.max(np.abs(a[rows] - want), initial=0) <= tol, (M, N, l, n)


def test_stacked_form_factors_refuse_the_windows_the_scalar_sum_refuses():
    M, N = 6, 3
    spec = _solve_once(M, N, -1.0)
    z = spec.roots[0]
    base = spec.form_factors([(1, 1, 0)])[0][0]
    for l, n in [(1, M + 1), (1, -1), (3, -3), (2, 7), (3, -2), (2, -1), (1, M), (4, 0)]:
        try:
            scalar = form_factor_sum(l, n, z, M)
        except ValueError as exc:
            # a refused window anywhere in the terms refuses the whole call
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                spec.form_factors([(1, 1, 0), (1, l, n)])
            assert str(exc) == f"n must be an int in {1 - l}..{M}, got n = {n}"
            continue
        # n < 0 windows wrap around the ring; both paths still agree
        stacked = spec.form_factors([(1, 1, 0), (1, l, n)])[0][0] - base
        assert abs(stacked - scalar) <= 1e-11 * max(1, abs(scalar)), (l, n)


@pytest.mark.parametrize("M, N, beta", [(7, 3, -1.0), (7, 3, -0.5), (11, 8, -1.0)])
def test_box_vectors_equal_the_per_partition_calls(M, N, beta):
    # the box comes from the branching rule, a single partition from the LU (right(lam)
    # through left(lam^c)): two algorithms, which agree to the LU's own rounding.  Over
    # the domain at beta = -1 and -1/2 right(lam) sits within 1.4e-13 of the box, relative
    # to its set's largest value, and within 8.1e-14 of the largest over all sets (the worst
    # at (12,9), beta = -1)
    spec = _solve_once(M, N, beta)
    box = list(enumerate_box(M - N, N))
    left, right = spec.box_vectors()
    for got, want in ((left, np.array([spec.left(mu) for mu in box])),
                      (right, np.array([spec.right(lam) for lam in box]))):
        assert np.max(np.abs(got - want)) <= _mirror_tol("box", want)


def _bialternant_40(parts, z, beta, dual):
    """G_lam(z; beta), or Gbar_lam(1/z; beta), as a 40-digit mpmath bialternant at the float z."""
    import mpmath

    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        x = [mpmath.mpc(complex(zj)) for zj in z]
        x = [1 / xj for xj in x] if dual else x
        n = len(x)
        base = [1 + b / xj if dual else 1 + b * xj for xj in x]
        sign = -1 if dual else 1
        num = mpmath.det(mpmath.matrix([[xj ** (parts[k] + n - 1 - k) * bj ** (sign * k)
                                         for k in range(n)] for xj, bj in zip(x, base)]))
        vandermonde = mpmath.mpf(1)
        for j in range(n):
            for k in range(j + 1, n):
                vandermonde *= x[j] - x[k]
        return complex(num / vandermonde)


@pytest.mark.parametrize("beta", [-1.0, -0.5])
@pytest.mark.parametrize("M, N", [(11, 8), (12, 6), (12, 9)])
def test_box_entries_match_a_40_digit_bialternant(M, N, beta, rng):
    # the branching sums cancel at Bethe roots; in clongdouble they keep every
    # entry within 1e-15 of its set's largest value (the LU: up to 8.5e-14).  The
    # dual side is the primal box by complement duality, c_s G_lam^c(z_s) with c_s
    # formed in clongdouble as Spectrum forms it, against the dual bialternant
    box = [lam.parts for lam in enumerate_box(M - N, N)]
    plan = box_plan(M - N, N)
    z = np.array([s.roots for s in _solve_once(M, N, beta) if not s.stationary])
    rows = z[rng.sample(range(len(z)), 3)]
    left = grothendieck_box(rows, beta, plan)
    x = rows.astype(np.clongdouble)
    scale = np.prod(x, axis=1) ** (M - N) * np.prod(1 + beta * x, axis=1) ** (N - 1)
    for dual, got in ((False, left), (True, (left[plan[2]] / scale).astype(complex))):
        for s in range(len(rows)):
            largest = np.max(np.abs(got[:, s]))
            for i in rng.sample(range(len(box)), 6) + [0, len(box) - 1]:
                want = _bialternant_40(box[i], rows[s], beta, dual)
                assert abs(got[i, s] - want) <= 1e-15 * largest, (dual, box[i])


def test_green_table_rows_follow_the_sector_basis():
    M, N = 7, 3
    spec = _solve_once(M, N, -1.0)
    order = spec.basis_order()
    assert spec.basis_order() is order  # built once per Spectrum
    box = list(enumerate_box(M - N, N))
    assert tuple(partition_to_config(box[i], M).positions for i in order) == sector_basis(M, N)


def test_the_box_to_basis_order_is_the_per_partition_one_on_every_sector():
    # ranks from the box's parts against a Partition and a configuration per entry
    for M in range(13):
        for N in range(M + 1):
            index = basis_index(M, N)
            want = np.argsort([index[partition_to_config(lam, M).positions]
                               for lam in enumerate_box(M - N, N)])
            assert np.array_equal(tasep._basis_order(M, N), want), (M, N)


@pytest.mark.parametrize("M, N", [(6, 3), (8, 4)])
def test_spectrum_weights_invert_the_cauchy_determinant(M, N):
    spec = bethe_solve(M, N)
    for z, w in zip(spec.roots, spec.weights):
        z = [complex(zj) for zj in z]
        assert abs(w * cauchy_rhs(M, N, z, [1 / zj for zj in z], -1.0) - 1) <= 1e-12


def test_cauchy_rhs_finite_at_y_inverse_z_on_every_11_8_root(sols_11_8):
    # its columns are the kernel's exact quotient polynomials, so no
    # z_j y_k = 1 pole is left to decide with a tolerance; every set, each
    # with its own weight, not one per conjugate pair
    M, N = 11, 8
    roots = [[complex(zj) for zj in s.roots] for s in sols_11_8.solutions if not s.stationary]
    assert len(roots) == 164
    for z in roots:
        w = orthogonality_weight(z, -1.0, M, N)
        assert abs(w * cauchy_rhs(M, N, z, [1 / zj for zj in z], -1.0) - 1) <= 1e-8


@pytest.mark.parametrize("beta", [-1.0, -0.5])
def test_spectrum_vectors_match_scalar_evaluators(beta):
    M, N = 7, 3
    spec = bethe_solve(M, N, beta=beta)
    box = list(enumerate_box(M - N, N))
    want_left = np.array([[grothendieck_eval(mu, list(z), beta) for z in spec.roots]
                          for mu in box])
    want_right = np.array([[w * dual_grothendieck_eval(lam, list(1 / z), beta)
                            for z, w in zip(spec.roots, spec.weights)] for lam in box])
    left, right = spec.box_vectors()
    assert spec.box_vectors()[0] is left  # built once per Spectrum
    assert np.max(np.abs(left - want_left)) <= 1e-12 * np.max(np.abs(want_left))
    assert np.max(np.abs(right - want_right)) <= 1e-12 * np.max(np.abs(want_right))


def test_spectrum_refuses_degenerate_input():
    M, N = 6, 2
    spec = bethe_solve(M, N)
    sols = list(spec)
    # a float size used to end in comb's TypeError; a bool is not an int either, and
    # N = 0 (one stationary set of no roots) ended in numpy's reshape error
    for size, message in (((6.0, 2), "M must be an int >= 2, got M = 6.0"),
                          ((6, 2.0), "N must be an int in 1..5, got N = 2.0"),
                          ((6, True), "N must be an int in 1..5, got N = True"),
                          ((6, 0), "N must be an int in 1..5, got N = 0")):
        with pytest.raises(ValueError, match=re.escape(message)):
            Spectrum(sols, *size)
    empty = tasep.BetheSolution((), 1 + 0j, 0j, (), (), stationary=True)
    with pytest.raises(ValueError, match=re.escape("N must be an int in 1..5, got N = 0")):
        Spectrum([empty], 6, 0)
    # right(lam) is left(lam^c), which only a lam of the 4^2 box has
    with pytest.raises(ValueError, match=re.escape("partition (5, 0) outside box 4^2")):
        spec.right((5,))
    with pytest.raises(RuntimeError, match="incomplete"):
        Spectrum(sols[:-1], M, N)
    # the degenerate set replaces one that a pair's row would have stood
    # for: it loses the partner and becomes a row of its own
    z = np.array([s.roots for s in sols if not s.stationary])  # the stationary set comes last
    k = int(np.flatnonzero(_conjugate_partners(z, -1.0) < np.arange(len(z)))[0])
    proper = sols[k]
    coincident = replace(proper, roots=(proper.roots[0],) * N)
    with pytest.raises(ValueError, match="coincident"):
        Spectrum(sols[:k] + [coincident] + sols[k + 1:], M, N)
    # a root at 1 makes 1 + beta/y vanish at y = 1/z for beta = -1
    at_pole = replace(proper, roots=(1.0 + 0j,) + proper.roots[1:])
    with pytest.raises(ZeroDivisionError, match="1 \\+ beta/z"):
        Spectrum(sols[:k] + [at_pole] + sols[k + 1:], M, N)
    # binomial(6,2) = binomial(6,4): the list passes the count check at N = 4;
    # the orthogonality matrix used to come out 0.92 off the identity, and the
    # table and sum rule failed only on a numpy broadcast
    with pytest.raises(ValueError, match="solution sets must hold N = 4 roots, found 2"):
        Spectrum(sols, M, 4)
    for call in (lambda: orthogonality_matrix(M, 4, -1.0, spec),
                 lambda: green_function_table(M, 4, 1.0, spec),
                 lambda: sum_rule_check(PC((1, 2, 3, 4), M), 1.0, spec)):
        with pytest.raises(ValueError, match=re.escape(
                "the Spectrum of (M, N, beta) = (6, 2, -1.0) cannot serve "
                "(M, N, beta) = (6, 4, -1.0)")):
            call()


def _unpaired(monkeypatch):
    """Turn the conjugate pairing off: every set is a row of its own."""
    monkeypatch.setattr(tasep, "_conjugate_partners", lambda z, beta: np.arange(len(z)))


def _contractions(spec, M, N):
    """Every contraction of ``spec``: three Green tables and the orthogonality matrix,
    and at beta = -1 ``evolve`` on density and current form factors and an expectation.

    Form factors and expectations exist at beta = -1 only; at another beta
    they are left out, and the tables are ``evolve`` on the box matrices, as
    ``green_function_table`` takes them at beta = -1.
    """
    dim, times = comb(M, N), (0.0, 0.7, 3.0)
    left, right = spec.box_vectors()
    table = (lambda t: green_function_table(M, N, t, spec)) if spec.beta == -1 \
        else (lambda t: spec.evolve(left, 1, right, t))
    values = {f"table at t = {t}": table(t) for t in times}
    values["orthogonality"] = orthogonality_matrix(M, N, spec.beta, spec)
    if spec.beta == -1:
        x0 = PC(sector_basis(M, N)[dim // 3], M)
        start = spec.right(config_to_partition(x0))
        for name, terms in (("density", density_terms(2)), ("current", current_terms(3))):
            a, a0 = spec.form_factors(terms)
            values[f"{name} form factors"] = np.array([spec.evolve(a, a0, start, t)
                                                       for t in times])
        observable = np.random.default_rng(M).normal(size=(dim, dim))
        values["expectation"] = np.array([expectation(observable, x0, t, spec) for t in times])
    return values


def _mirror_tol(name, want):
    """How far a value over the rows may sit from the one over every set: the direct lane's rounding.

    The form-factor determinant cancels: at (11,8) a set and its conjugate
    differ from the conjugate symmetry by up to 1e-10, and both lanes sit as
    far from a 40-digit evaluation, so they keep the stacked form factors'
    1e-11 relative contract with the scalar sum.
    """
    if name.endswith("form factors"):
        return 1e-11 * max(1, np.max(np.abs(want)))
    return 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("beta", [-1.0, -0.5])
def test_every_set_has_its_conjugate_partner_over_the_solver_domain(beta):
    # at real beta the Bethe equations have real coefficients, so the
    # solution sets close under conjugation: every set finds its conjugate
    # (itself when self-conjugate) within CONJUGATE_TOL, and about half the
    # sets are rows
    evaluated = total = 0
    for M in range(2, 13):
        for N in range(1, M):
            if comb(M, N) > comb(12, 6):
                continue
            z = np.array([s.roots for s in _solve_once(M, N, beta) if not s.stationary])
            partner = _conjugate_partners(z, beta)
            zc = _canonical(z.conj())
            assert np.all(np.abs(z[partner] - zc) <= CONJUGATE_TOL * np.abs(zc)), (M, N)
            assert np.array_equal(partner[partner], np.arange(len(z))), (M, N)
            evaluated += np.sum(partner >= np.arange(len(z)))
            total += len(z)
    assert evaluated < 0.53 * total


@pytest.mark.parametrize("beta", [-1.0, -0.5])
@pytest.mark.parametrize("M, N", [(7, 3), (11, 8)])
def test_mirrored_values_match_a_direct_evaluation(M, N, beta, monkeypatch):
    # every contraction counts the row of a pair as 2 Re for its two sets,
    # the mirrored set included; with the pairing off every set is a row of
    # its own and the sums are plain complex sums, which they match
    sols = _solve_once(M, N, beta)
    paired = Spectrum(sols, M, N, beta)
    proper = len(sols) - round(paired.stationary * len(sols))
    assert len(paired.roots) <= proper - proper // 3
    got = _contractions(paired, M, N)
    _unpaired(monkeypatch)
    direct = Spectrum(sols, M, N, beta)
    assert len(direct.roots) == direct._pairs == proper
    for name, want in _contractions(direct, M, N).items():
        assert np.max(np.abs(got[name] - want)) <= _mirror_tol(name, want), name


@pytest.mark.parametrize("M, N, beta", [(7, 3, -0.5), (11, 8, -1.0)])
def test_determinants_run_on_the_evaluated_sets_only(M, N, beta, monkeypatch):
    # the rows are the sets without a partner, then the first set of each
    # pair; the box holds one column per row, and every determinant runs on them
    sols = _solve_once(M, N, beta)
    spec = Spectrum(sols, M, N, beta)
    z = np.array([s.roots for s in sols if not s.stationary])
    partner, sets = _conjugate_partners(z, beta), np.arange(len(z))
    rows = np.concatenate([np.flatnonzero(partner == sets), np.flatnonzero(partner > sets)])
    assert np.array_equal(spec.roots, z[rows]) and len(rows) < len(z)
    assert spec._pairs == np.sum(partner == sets)
    dets, branched = [], []
    det, box = np.linalg.det, tasep.grothendieck_box
    monkeypatch.setattr(np.linalg, "det", lambda a: dets.append(a.shape[-3]) or det(a))
    monkeypatch.setattr(tasep, "grothendieck_box",
                        lambda z, *a, **k: branched.append(len(z)) or box(z, *a, **k))
    # the box is one branching computation on the rows, without a determinant
    left, right = spec.box_vectors()
    assert left.shape == right.shape == (comb(M, N), len(rows))
    assert branched == [len(rows)] and dets == []
    spec.right((1,))
    if beta == -1:
        spec.form_factors(density_terms(2) + current_terms(3))
    # one for right, and at beta = -1 one per window length n = 0, 1, 2
    assert len(dets) == (4 if beta == -1 else 1) and set(dets) == {len(rows)}


def test_the_12_6_box_holds_one_column_per_row():
    # 471 rows stand for the 923 non-stationary sets: the box is 13.9 MB, not 27.3 MB
    spec = _solve_once(12, 6, -1.0)
    left, right = spec.box_vectors()
    assert len(spec) == 924 and left.shape == right.shape == (924, 471)
    assert left.nbytes + right.nbytes == 2 * 924 * 471 * 16


def test_complex_beta_pairs_no_sets():
    beta = -0.8 + 0.3j
    spec = bethe_solve(7, 3, beta)
    assert len(spec.roots) == spec._pairs == len(spec) == comb(7, 3)
    assert np.array_equal(_conjugate_partners(spec.roots, beta), np.arange(len(spec.roots)))
    # so a contraction is the plain complex sum over every set
    left, right = spec.box_vectors()
    full = right @ left.T
    assert np.max(np.abs(spec.contract(right, left) - full)) <= 1e-15 * np.max(np.abs(full))
    # the roots of a real-beta list are not paired at a complex beta either
    z = np.array([s.roots for s in _solve_once(7, 3, -1.0) if not s.stationary])
    assert np.array_equal(_conjugate_partners(z, -1.0 + 1e-6j), np.arange(len(z)))


def test_a_partner_across_a_rounding_grid_line_is_found():
    # 1.1e-16 relative apart, the set and its conjugate round to either side of a
    # 1e-9 grid line: the former grid lookup missed the pair and left two rows
    z = np.array([[0.3000000005 + 0.4j], [0.30000000050000003 - 0.4j]])
    assert _conjugate_partners(z, -1.0).tolist() == [1, 0]


def test_close_rows_finds_every_close_pair_once():
    # against a brute-force comparison of every pair of rows, root by root: clusters
    # of near-copies whose spread straddles the tolerances, against another set of
    # rows with a tolerance per entry, and against itself, each pair of distinct rows once
    rng = np.random.default_rng(5)
    centres = rng.normal(size=(15, 3)) + 1j * rng.normal(size=(15, 3))

    def near_copies(count):
        spread = rng.uniform(-1, 1, (2, count, 3))
        return centres[rng.integers(0, 15, count)] + 1e-9 * (spread[0] + 1j * spread[1])

    a, b = near_copies(120), near_copies(90)
    tol = 1e-9 * rng.uniform(0.5, 2, a.shape)
    close = np.all(tasep._abs(a[:, None] - b[None]) <= tol[:, None], axis=2)
    i, k = tasep._close_rows(a, b, tol)
    assert sorted(zip(i.tolist(), k.tolist())) == list(zip(*np.nonzero(close)))
    own = np.all(tasep._abs(a[:, None] - a[None]) <= DEDUP_TOL, axis=2)
    i, k = tasep._close_rows(a, None, DEDUP_TOL)
    pairs = sorted((min(x, y), max(x, y)) for x, y in zip(i.tolist(), k.tolist()))
    assert pairs == [(x, y) for x, y in zip(*np.nonzero(own)) if x < y] and len(pairs) > 20


@pytest.mark.parametrize("beta", [-1.0, -0.5])
def test_a_set_moved_off_its_partner_is_evaluated_with_it(beta, monkeypatch):
    # the moved set and its former partner each become a row of their own
    M, N = 7, 3
    sols = list(_solve_once(M, N, beta))
    z = np.array([s.roots for s in sols if not s.stationary])  # the stationary set comes last
    partner = _conjugate_partners(z, beta)
    k = int(np.flatnonzero(partner < np.arange(len(z)))[0])
    p = int(partner[k])
    spec = Spectrum(sols, M, N, beta)
    sols[k] = replace(sols[k], roots=tuple(zj + 1e-9 for zj in sols[k].roots))
    moved = Spectrum(sols, M, N, beta)
    assert len(moved.roots) == len(spec.roots) + 1 and moved._pairs == spec._pairs + 2
    for s in (p, k):
        assert any(np.array_equal(row, sols[s].roots) for row in moved.roots[:moved._pairs])
    got = _contractions(moved, M, N)
    _unpaired(monkeypatch)
    want = _contractions(Spectrum(sols, M, N, beta), M, N)
    for name in got:
        assert np.max(np.abs(got[name] - want[name])) <= _mirror_tol(name, want[name]), name


def test_expectation_and_form_factors_refuse_what_is_not_real(monkeypatch):
    # a pair's row stands for its two sets only when the combination is
    # real; a complex observable or coefficient used to pass whenever the
    # unpaired sets happened to come out real
    M, N = 6, 2
    spec = _solve_once(M, N, -1.0)
    x0 = PC((1, 2), M)
    dim = comb(M, N)
    assert abs(expectation(np.eye(dim, dtype=complex), x0, 1.0, spec) - 1) <= 1e-9
    with pytest.raises(ValueError, match=re.escape(
            "form-factor coefficients must be real, got coef = 1j")):
        spec.form_factors([(1, 1, 0), (1j, 2, 1)])
    # the observable is refused before the Bethe equations are solved
    monkeypatch.setattr(tasep, "bethe_solve", lambda *args: pytest.fail("solved"))
    with pytest.raises(ValueError, match=re.escape(
            "observable must be real, got a nonzero imaginary part")):
        expectation(np.eye(dim) * (1 + 1e-3j), x0, 1.0)


def _dense_jacobian(z, M, N, beta):
    """dF/dz (N, N) and dF/dbeta (N,) of the Bethe equations at one root set, entry by entry."""
    sgn = (-1) ** (N - 1)
    pf = 1 + beta * z
    Y = np.prod(pf)
    jac = np.diag(N * beta * pf ** (N - 1) - sgn * M * z ** (M - 1) * Y)
    dbeta = N * z * pf ** (N - 1)
    for l in range(N):
        cofactor = np.prod(np.delete(pf, l))
        jac[:, l] -= sgn * z ** M * beta * cofactor
        dbeta = dbeta - sgn * z ** M * z[l] * cofactor
    return jac, dbeta


def _polish_one(z, M, N, beta, iters=40):
    """Newton on one root set, one subset at a time: the reference for the stacked polish.

    Each step solves J = diag(a) - u c^T in closed form (Sherman-Morrison),
    written out for the one row: the products and sums run over the roots in
    order, and every product is one of arrays (numpy rounds a product of
    complex scalars differently).
    """
    z = np.array(z, dtype=complex)
    sgn = (-1) ** (N - 1)
    for _ in range(iters):
        pf = 1 + beta * z
        # prod_{j<l} and prod_{j>l} (1 + beta z_j)
        before, after = np.ones(N, dtype=complex), np.ones(N, dtype=complex)
        before[1:], after[:-1] = np.cumprod(pf[:-1]), np.cumprod(pf[:0:-1])[::-1]
        Y = before[-1:] * pf[-1:]
        pf_n1, z_m1 = pf ** (N - 1), z ** (M - 1)
        u = sgn * z_m1 * z
        f = pf_n1 * pf - u * Y
        if np.max(np.abs(f)) < 1e-15:
            break
        a = N * beta * pf_n1 - sgn * M * z_m1 * Y
        c = beta * (before * after)
        with np.errstate(divide="ignore", invalid="ignore"):
            ua, fa = u / a, f / a
            step = fa + ua * (sum(c * fa) / (1 - sum(c * ua)))
        if not np.all(np.isfinite(step)):
            break
        z = z - step
        if np.max(np.abs(step)) <= 4 * np.finfo(float).eps * np.max(np.abs(z)):
            break
    return z


def _track_one(z, M, N, beta):
    """One subset's path from beta = 0 to ``beta``, one root set at a time.

    The reference for the stacked tracker: the same path, predictor,
    corrector and step rule, with dense solves.  The predictor is the cubic
    Hermite through the last two accepted points and their tangents, Euler on
    the first step.  Returns None if the step falls below the floor.
    """
    sgn = (-1) ** (N - 1)

    def tangent(z, s):
        jac, dbeta = _dense_jacobian(z, M, N, s * beta + GAMMA * s * (1 - s))
        return -np.linalg.solve(jac, dbeta) * (beta + GAMMA * (1 - 2 * s))

    s, h, dz = 0.0, STEP_MAX, tangent(z, 0.0)
    previous = None  # (s, z, dz) at the accepted point before the current one
    while s < 1:
        if h < STEP_MIN:
            return None
        s_new = min(s + h, 1.0)
        x = s_new - s
        zc = z + x * dz
        if previous is not None:
            s0, z0, dz0 = previous
            d = s0 - s
            e1 = (z0 - z - d * dz) / d ** 2
            e2 = (dz0 - dz) / d
            zc = zc + x ** 2 * (3 * e1 - e2) + x ** 3 * (e2 - 2 * e1) / d
        b = s_new * beta + GAMMA * s_new * (1 - s_new)
        for k in range(CORRECTOR_STEPS + 1):
            pf = 1 + b * zc
            zMY = sgn * zc ** M * np.prod(pf)
            f = pf ** N - zMY
            if np.max(np.abs(f)) <= CORRECTOR_TOL * (1 + np.max(np.abs(zMY))):
                previous = s, z, dz
                z, s, h, dz = zc, s_new, min(1.5 * h, STEP_MAX), tangent(zc, s_new)
                break
            if k == CORRECTOR_STEPS:
                h /= 2
                break
            zc = zc - np.linalg.solve(_dense_jacobian(zc, M, N, b)[0], f)
    return z


def _reference_solve(M, N, beta):
    """(choice, roots) of each new solution set, tracking one subset at a time.

    The subsets index the beta = 0 roots sorted by (real, imaginary) part, as
    ``bethe_solve`` numbers them; at beta = -1 the N roots nearest 1, whose
    path ends on the stationary set, are left out.
    """
    sgn = (-1) ** (N - 1)

    def canonical(z):
        return tuple(sorted(z, key=lambda w: (round(w.real, 10), round(w.imag, 10))))

    free = np.array(canonical(np.exp(1j * np.pi * (2 * np.arange(M) + (N - 1) % 2) / M)))
    stationary = tuple(sorted(np.argsort(np.abs(free - 1))[:N])) if beta == -1 else None
    found = []
    for subset in combinations(range(M), N):
        if subset == stationary:
            continue
        end = _track_one(free[list(subset)], M, N, beta)
        if end is None:
            continue
        z = canonical(_polish_one(end, M, N, beta))
        w = np.array(z)
        res = np.abs(w ** (-M) * (1 + beta * w) ** N - sgn * np.prod(1 + beta * w))
        if max(res) <= RESIDUAL_TOL and all(abs(a - b) > DEDUP_TOL for a, b in combinations(z, 2)) \
                and not any(max(abs(a - b) for a, b in zip(z, other)) <= DEDUP_TOL
                            for _, other in found):
            found.append((subset, z))
    return found


def test_stacked_newton_polish_equals_row_by_row(monkeypatch):
    M, N, beta = 7, 3, -1.0 + 0j
    rng = np.random.default_rng(7)
    proper = np.array([s.roots for s in bethe_solve(M, N) if not s.stationary][:6])
    rows = proper + 1e-4 * (rng.normal(size=proper.shape) + 1j * rng.normal(size=proper.shape))
    # beside the stationary point |f| ~ 1e-17 already, yet a Newton step would
    # move the roots by ~1e-6; two roots at 1 give two zero Jacobian rows
    converged = 1 + np.array([1, -2, 3j]) * 1e-6
    singular = np.array([1, 1, 0.5], dtype=complex)
    z = np.vstack([rows[:3], converged, singular, rows[3:]])
    got = _newton_polish(z, M, N, beta)
    want = np.array([_polish_one(row, M, N, beta) for row in z])
    assert np.array_equal(got, want)
    assert np.array_equal(got[3], converged) and np.array_equal(got[4], singular)
    moved = np.delete(np.arange(len(z)), [3, 4])
    assert np.all(np.abs(got[moved] - z[moved]).max(axis=1) > 1e-6)
    # at N >= 4 a row 3e-2 off its set is still live, alone, after the two
    # solved rows beside it retire: it must round as it does in a batch
    M, N = 8, 4
    proper = np.array([s.roots for s in bethe_solve(M, N) if not s.stationary])
    live = []
    kernel = tasep._newton_kernel
    monkeypatch.setattr(tasep, "_newton_kernel",
                        lambda z, *args: live.append(z.shape[1]) or kernel(z, *args))
    for _ in range(40):
        lone = proper[0] + 3e-2 * (rng.normal(size=N) + 1j * rng.normal(size=N))
        z = np.vstack([proper[1:3], lone])
        want = np.array([_polish_one(row, M, N, beta) for row in z])
        assert np.array_equal(_newton_polish(z, M, N, beta), want)
    assert 1 in live


def _kernel_outputs(z, M, N, beta):
    """F, (-1)^(N-1) z^M Y, the Newton step J^-1 F and the tangent J^-1 dF/dbeta of the
    columns of z, from ``_newton_kernel`` and the two solves of its Jacobian."""
    f, zMY, jacobian = _newton_kernel(z, M, N, beta)
    return f, zMY, _jacobian_solve(jacobian, f), _tangent(jacobian)


def _four_output_kernel(z, M, N, beta):
    """The solver's kernel as one function of four outputs, every operation in the order
    the split kernel keeps: the reference for its bits."""
    z = np.ascontiguousarray(z)
    sgn = (-1) ** (N - 1)
    pf = 1 + beta * z
    before, after = np.ones_like(pf), np.ones_like(pf)
    np.cumprod(pf[:-1], axis=0, out=before[1:])
    np.cumprod(pf[:0:-1], axis=0, out=after[-2::-1])
    cofactor = before * after
    Y = before[-1] * pf[-1]
    pf_n1, z_m1 = pf ** (N - 1), z ** (M - 1)
    u = sgn * z_m1 * z
    zMY = u * Y
    f = pf_n1 * pf - zMY
    a = N * beta * pf_n1 - sgn * M * z_m1 * Y
    c = beta * cofactor
    row_sum = lambda x: x.sum(axis=0) if x.shape[1] > 1 else sum(x[1:], x[0])
    dbeta = N * z * pf_n1 - u * row_sum(z * cofactor)
    ua, fa, da = u / a, f / a, dbeta / a
    g_prime = 1 - row_sum(c * ua)
    return (f, zMY, fa + ua * (row_sum(c * fa) / g_prime),
            da + ua * (row_sum(c * da) / g_prime))


@pytest.mark.parametrize("beta", [-1.0, -0.5, -1.5])
def test_split_kernel_equals_the_four_output_kernel(beta):
    # random points of 7 sectors, a scalar beta and one per column, and a lone column
    rng = np.random.default_rng(17)
    for M, N in [(2, 1), (5, 2), (7, 3), (9, 4), (9, 8), (12, 6), (12, 10)]:
        z = 1.2 * (rng.normal(size=(N, 25)) + 1j * rng.normal(size=(N, 25)))
        for b in (beta + 0j, beta + 0.3 * rng.normal(size=25) + 0.1j * rng.normal(size=25)):
            for cols in (slice(None), slice(3, 4)):
                bc = b[cols] if np.ndim(b) else b
                got, want = _kernel_outputs(z[:, cols], M, N, bc), \
                    _four_output_kernel(z[:, cols], M, N, bc)
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes(), (M, N, beta)


def test_newton_kernel_rounds_a_lone_set_as_in_a_batch():
    # one set alone in a call gives the bits of its column in a batched call
    rng = np.random.default_rng(13)
    for N in range(2, 11):
        M = N + 3
        z = rng.normal(size=(N, 30)) + 1j * rng.normal(size=(N, 30))
        for beta in (-1.0 + 0j, rng.normal(size=30) + 0j):
            batch = _kernel_outputs(z, M, N, beta)
            for j in range(z.shape[1]):
                one = _kernel_outputs(z[:, j:j + 1], M, N,
                                      beta[j:j + 1] if np.ndim(beta) else beta)
                for got, want in zip(one, batch):
                    assert np.array_equal(got[:, 0], want[:, j]), (N, j)


def _kernel_gaps(z, M, N, beta):
    """Per row, the relative gaps of the kernel's J^-1 F and J^-1 dF/dbeta from dense solves."""
    f, zMY, step, dzdb = (v.T for v in _kernel_outputs(z.T, M, N, beta))
    gaps = []
    for r, row in enumerate(z):
        pf = 1 + beta * row
        assert np.max(np.abs(f[r] - (pf ** N - (-1) ** (N - 1) * row ** M * np.prod(pf)))) \
            <= 1e-14 * (1 + np.max(np.abs(zMY[r])))
        jac, dbeta = _dense_jacobian(row, M, N, beta)
        gaps.append([np.max(np.abs(got - want)) / np.max(np.abs(want))
                     for got, want in ((step[r], np.linalg.solve(jac, f[r])),
                                       (dzdb[r], np.linalg.solve(jac, dbeta)))])
    return np.array(gaps)


def test_newton_kernel_solves_the_dense_jacobian():
    rng = np.random.default_rng(11)
    for M, N in [(3, 1), (5, 2), (7, 3), (9, 4), (9, 8), (12, 6), (12, 10)]:
        for beta in (-1.0, -0.5, -1.5, 0.3 + 0.2j):
            z = 1.2 * (rng.normal(size=(20, N)) + 1j * rng.normal(size=(20, N)))
            assert np.max(_kernel_gaps(z, M, N, complex(beta))) <= 1e-12, (M, N, beta)
    # on the solver's endpoints F is rounding noise, so its solve is checked
    # 1e-4 away; dF/dbeta vanishes there only at N = 1, where the roots z^M = 1
    # do not move with beta
    for beta in (-1.0, -0.5, -1.5):
        for M, N in [(3, 1), (5, 2), (7, 3), (9, 4), (9, 8), (10, 7)]:
            z = np.array([s.roots for s in _solve_once(M, N, beta) if not s.stationary])
            near = z + 1e-4 * (rng.normal(size=z.shape) + 1j * rng.normal(size=z.shape))
            assert np.max(_kernel_gaps(near, M, N, complex(beta))) <= 1e-12, (M, N, beta)
            if N > 1:
                assert np.max(_kernel_gaps(z, M, N, complex(beta))[:, 1]) <= 1e-12, (M, N, beta)
    # two roots at 1 (beta = -1) give a_1 = a_2 = 0, a singular Jacobian at f != 0
    singular = np.array([[1], [1], [0.5]], dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        f, _, step, dzdb = _kernel_outputs(singular, 7, 3, -1.0 + 0j)
    assert np.max(np.abs(f)) > 0
    assert not np.all(np.isfinite(step)) and not np.all(np.isfinite(dzdb))


@pytest.mark.parametrize("M, N", [(6, 3), (9, 4), (12, 6)])
def test_newton_polish_stops_at_the_rounding_floor(M, N, monkeypatch):
    # a row retires once its step is within a few ulps of its roots, so the
    # polish after tracking takes a few sweeps, one kernel call each, not 40
    ends = []
    monkeypatch.setattr(tasep, "_newton_polish",
                        lambda z, *args: ends.append(np.array(z)) or _newton_polish(z, *args))
    bethe_solve(M, N)
    sweeps = []
    kernel = tasep._newton_kernel
    monkeypatch.setattr(tasep, "_newton_kernel",
                        lambda z, *args: sweeps.append(len(z)) or kernel(z, *args))
    [z] = ends
    _newton_polish(z, M, N, -1.0 + 0j)
    assert len(z) == comb(M, N) - 1
    assert 1 <= len(sweeps) <= 4


@pytest.mark.parametrize("beta", [-1.0, -0.5])
@pytest.mark.parametrize("M, N", [(3, 1), (4, 2), (6, 3), (8, 4), (9, 6), (9, 8)])
def test_bethe_solve_matches_per_subset_reference(M, N, beta):
    sols = [s for s in bethe_solve(M, N, beta) if not s.stationary]
    ref = _reference_solve(M, N, complex(beta))
    assert [s.choice_id for s in sols] == [choice for choice, _ in ref]
    for s, (_, z) in zip(sols, ref):
        assert np.max(np.abs(np.array(s.roots) - np.array(z))) <= 1e-12


def test_solver_failure_names_every_rejected_choice(monkeypatch):
    # with the step floor above half the largest step, a path that has to
    # halve a step stalls; under the Hermite predictor no (9,4) path halves
    # one, under Euler steps alone (its first step) some do, near s = 0.8
    monkeypatch.setattr(tasep, "STEP_MIN", 0.15)
    monkeypatch.setattr(tasep, "_hermite",
                        lambda z0, dz0, s0, z1, dz1, s1, s: z1 + (s - s1) * dz1)
    with pytest.raises(RuntimeError, match="^completeness failure") as info:
        bethe_solve(9, 4)
    head, *lines = str(info.value).splitlines()
    found = int(re.fullmatch(r"completeness failure: (\d+) of 126 solution sets found; "
                             r"choices without a new solution set:", head).group(1))
    # the stationary set is inserted, so every other missing set is a named choice
    assert len(lines) == 126 - (found - 1)
    reason = (r"stalled \(step below 0\.15\) at s = 0\.\d+"
              r"|(residual \S+ above 1e-10|coincident roots|same solution set as choice \(.*\))"
              r" at s = 1|the stationary set \(all roots at 1\), inserted analytically")
    assert all(re.fullmatch(rf"  \(\d(, \d)*\): ({reason})", line) for line in lines)
    assert any("stalled" in line for line in lines)
    assert "  (5, 6, 7, 8): the stationary set (all roots at 1), inserted analytically" in lines


def test_each_rejection_reason_reaches_the_report(monkeypatch):
    # crafted endpoints, all at s = 1: row 3 repeats row 0's set, row 5 has
    # every root at 1, and row 9, (1, 1, 1/2), has a singular Jacobian at f != 0
    def crafted(z, M, N, beta):
        ends = _track(z, M, N, beta)[0]
        ends[3] = ends[0]
        ends[5] = 1
        ends[9] = (1, 1, 0.5)
        return ends, np.ones(len(ends))

    monkeypatch.setattr(tasep, "_track", crafted)
    with pytest.raises(RuntimeError) as info:
        bethe_solve(7, 3)
    assert str(info.value).splitlines() == [
        "completeness failure: 32 of 35 solution sets found; "
        "choices without a new solution set:",
        "  (0, 1, 5): same solution set as choice (0, 1, 2) at s = 1",
        "  (0, 2, 3): coincident roots at s = 1",
        "  (0, 3, 4): residual 16 above 1e-10 at s = 1",
        "  (4, 5, 6): the stationary set (all roots at 1), inserted analytically",
    ]


def test_a_completeness_failure_accounts_for_every_tracked_subset(monkeypatch):
    # (10,4) at beta = -3/2 falls one set short: every subset is either a set the
    # solve built (its choice_id) or named in the message with its reason, never both
    built, solution = [], tasep.BetheSolution
    monkeypatch.setattr(tasep, "BetheSolution",
                        lambda *args, **kwargs: built.append(solution(*args, **kwargs)))
    with pytest.raises(RuntimeError) as info:
        bethe_solve(10, 4, -1.5)
    head, *lines = str(info.value).splitlines()
    named = [tuple(map(int, re.fullmatch(r"  \(([\d, ]+)\): .+", line).group(1).split(", ")))
             for line in lines]
    found = [s.choice_id for s in built]
    assert sorted(found + named) == list(combinations(range(10), 4))
    assert head == (f"completeness failure: {len(found)} of 210 solution sets found; "
                    f"choices without a new solution set:") and named


def _row_by_row_twins(z, rows):
    """The twin search as a loop: each row against every row kept before it."""
    kept, twin_of = [], {}
    for r in rows:
        twins = [k for k in kept if tasep._abs(z[k] - z[r]).max() <= DEDUP_TOL]
        if twins:
            twin_of[r] = twins[0]
        else:
            kept.append(r)
    return twin_of


def test_twin_search_keeps_the_row_by_row_semantics(monkeypatch):
    # crafted endpoints of (7, 3) at beta = -1/2, where no set is inserted:
    # row 34 repeats row 0 to within DEDUP_TOL, at the far end of the tracked
    # order; rows 10, 20 and 30 are a chain, 20 within 6e-10 of 10 and of 30,
    # which are 1.2e-9 apart, so 20 goes as 10's twin and 30, whose only twin
    # is gone, is kept
    M, N, beta = 7, 3, -0.5
    shifts = {34: (0, 4e-10), 20: (10, 6e-10), 30: (10, 1.2e-9)}

    def crafted(z, M, N, beta):
        ends = _track(z, M, N, beta)[0]
        for row, (source, shift) in shifts.items():
            ends[row] = ends[source] + shift
        return ends, np.ones(len(ends))

    def unchecked_residuals(z, M, N, beta):
        # a shifted set misses the residual target by about |F'| * shift
        res, Y = residuals(z, M, N, beta)
        return 0 * res, Y

    residuals = tasep._root_residuals
    subsets = list(combinations(range(M), N))
    z = _canonical(crafted(_free_roots(M, N)[np.array(subsets)], M, N, beta)[0])
    assert tasep._first_kept_twins(z, np.arange(35)) == _row_by_row_twins(z, range(35)) \
        == {20: 10, 34: 0}
    monkeypatch.setattr(tasep, "_track", crafted)
    monkeypatch.setattr(tasep, "_newton_polish", lambda z, M, N, beta: z)
    monkeypatch.setattr(tasep, "_root_residuals", unchecked_residuals)
    with pytest.raises(RuntimeError) as info:
        bethe_solve(M, N, beta)
    assert str(info.value).splitlines() == [
        "completeness failure: 33 of 35 solution sets found; "
        "choices without a new solution set:",
        f"  {subsets[20]}: same solution set as choice {subsets[10]} at s = 1",
        f"  {subsets[34]}: same solution set as choice {subsets[0]} at s = 1",
    ]

    # clusters of near-copies in a scrambled order, two copies up to 1.7
    # DEDUP_TOL apart in a root, so that some twins chain: the stacked search
    # names the same twins as the loop
    rng = np.random.default_rng(7)
    shift = rng.uniform(-0.6, 0.6, (2, 200, N))
    copies = z[rng.integers(0, 35, 200)] + DEDUP_TOL * (shift[0] + 1j * shift[1])
    rows = np.sort(rng.choice(200, 150, replace=False))
    twin_of = tasep._first_kept_twins(copies, rows)
    assert twin_of == _row_by_row_twins(copies, rows) and len(twin_of) > 50


@pytest.mark.parametrize("M, N", [(3, 1), (8, 4), (9, 8)])
def test_stationary_bound_flow_is_retired_early(M, N, monkeypatch):
    # the path onto the stationary set is never tracked: its subset, the N
    # beta = 0 roots nearest 1, is named before tracking starts
    tracked = []

    def recorded(z, M, N, beta):
        tracked.append(np.array(z))
        return _track(z, M, N, beta)

    monkeypatch.setattr(tasep, "_track", recorded)
    sols = bethe_solve(M, N)
    [rows] = tracked
    start = _free_roots(M, N)
    stationary = _stationary_choice(start, N)
    assert len(stationary) == N and len(rows) == comb(M, N) - 1
    assert not np.any(np.all(rows == start[list(stationary)], axis=1))
    assert {s.choice_id for s in sols if not s.stationary} \
        == set(combinations(range(M), N)) - {stationary}
    assert sum(s.stationary for s in sols) == 1


def test_retirement_keeps_the_stationary_cluster_out(monkeypatch):
    # tracked, the path onto the stationary set ends in a cluster at Y ~ 0
    # that Newton accepts as a tenth set of nine, and the count refuses it
    monkeypatch.setattr(tasep, "_stationary_choice", lambda *_: None)
    with pytest.raises(RuntimeError, match=r"^completeness failure: 10 of 9"):
        bethe_solve(9, 8)


def _matched_gap(a, b):
    """Largest entry gap between the rows of a and b after a min-max row matching."""
    cost = np.zeros((len(a), len(b)))
    for k in range(a.shape[1]):
        cost = np.maximum(cost, np.abs(a[:, None, k] - b[None, :, k]))
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max()


def _check_energy_multisets(beta, M_max):
    """Every sector with M <= M_max under the solver's cap is complete.

    A complete solution list has binomial(M,N) sets, residuals <= 1e-10 and
    the generator's spectrum as its energy multiset (alpha = -1/beta).
    """
    for M in range(2, M_max + 1):
        for N in range(1, M):
            if comb(M, N) > comb(12, 6):
                continue
            sols = _solve_once(M, N, beta)
            assert len(sols) == comb(M, N), (M, N)
            assert max(s.max_residual for s in sols) <= 1e-10, (M, N)
            generator = np.array(hamiltonian(ModelParameters(alpha=-1 / F(beta), M=M),
                                             N).data, dtype=float)
            energies = np.array([[s.energy] for s in sols])
            spectrum = np.linalg.eigvals(generator)[:, None]
            assert _matched_gap(energies, spectrum) <= 1e-8, (M, N)


@pytest.mark.parametrize("beta", [-1.0, -0.5])
def test_energy_multisets_match_the_generator_over_the_solver_domain(beta):
    _check_energy_multisets(beta, 12)


def test_energy_multisets_match_the_generator_at_beta_minus_three_halves():
    # past the TASEP point; at M = 10..12 paths still jump onto each other in
    # eight sectors, which raise a completeness failure
    _check_energy_multisets(-1.5, 9)


@pytest.mark.parametrize("M, N, beta", [(10, 3, -1.0), (11, 8, -1.0),
                                        (11, 8, -0.5), (10, 5, -0.5), (12, 6, -0.5)])
def test_loose_flow_with_newton_matches_the_strict_flow(M, N, beta, monkeypatch):
    # the corrector's loose relative tolerance, finished by the Newton polish,
    # gives the same sets as paths corrected a thousand times tighter
    loose = _solve_once(M, N, beta)
    monkeypatch.setattr(tasep, "CORRECTOR_TOL", CORRECTOR_TOL / 1000)
    strict = bethe_solve(M, N, beta)
    assert len(loose) == len(strict) == comb(M, N)
    assert [s.choice_id for s in loose] == [s.choice_id for s in strict]
    # the elementary symmetric functions of each set, which ignore root order
    esf = [np.array([np.poly(s.roots) for s in sols]) for sols in (loose, strict)]
    assert _matched_gap(*esf) <= 1e-12


def _no_box(monkeypatch):
    """Make building a box vector fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a box was built")
    monkeypatch.setattr(tasep, "grothendieck_box", refuse)


def test_bethe_solve_returns_the_spectrum_of_its_sector():
    spec = bethe_solve(6, 2, -0.5)
    assert isinstance(spec, Spectrum) and (spec.M, spec.N, spec.beta) == (6, 2, -0.5)
    # a sequence of the solution sets in solve order
    assert len(spec) == comb(6, 2) and list(spec) == list(spec.solutions)
    assert spec[0] is spec.solutions[0] and spec[-2:] == spec.solutions[-2:]
    # beta is compared by value
    for beta in (-0.5, F(-1, 2), -0.5 + 0j):
        assert _spectrum(spec, 6, 2, beta) is spec


@pytest.mark.parametrize("call, have, want", [
    # a 15 x 15 table of a 35-configuration sector
    (lambda s: green_function_table(7, 3, 1.0, s), "(6, 2, -1.0)", "(7, 3, -1.0)"),
    # 0.233, where the (7,2) transition probability is 4.6e-4
    (lambda s: green_function(GreenQuery(PC((1, 2), 7), PC((3, 7), 7), 1.0), s),
     "(6, 2, -1.0)", "(7, 2, -1.0)"),
])
def test_a_spectrum_of_another_sector_is_refused(call, have, want, monkeypatch):
    spec = bethe_solve(6, 2)
    _no_box(monkeypatch)
    message = f"the Spectrum of (M, N, beta) = {have} cannot serve (M, N, beta) = {want}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call(Spectrum(spec, 6, 2))


def test_a_spectrum_at_another_beta_is_refused(monkeypatch):
    # the table used to come out with columns summing to 7.23 and entries down to -0.33
    spec = bethe_solve(6, 2, -0.5)
    _no_box(monkeypatch)
    message = "the Spectrum of (M, N, beta) = (6, 2, -0.5) cannot serve (M, N, beta) = (6, 2, -1.0)"
    x0 = PC((1, 2), 6)
    for call in (lambda: green_function_table(6, 2, 1.0, spec),
                 lambda: green_function(GreenQuery(x0, x0, 1.0), spec),
                 lambda: sum_rule_check(x0, 1.0, spec),
                 lambda: expectation(np.eye(comb(6, 2)), x0, 1.0, spec)):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            call()


def test_a_bare_solution_list_is_refused():
    sols = list(bethe_solve(6, 2))
    message = ("spectral data must be bethe_solve's result or Spectrum(list, M, N, beta), "
               "got a list")
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        green_function_table(6, 2, 1.0, sols)
    assert np.array_equal(green_function_table(6, 2, 1.0, Spectrum(sols, 6, 2)),
                          green_function_table(6, 2, 1.0, bethe_solve(6, 2)))


def test_form_factors_refuse_a_spectrum_off_the_tasep_point():
    # on a beta = -1/2 Spectrum of (6,2) the sum rule used to evolve to 2.79 at t = 1
    spec = bethe_solve(6, 2, -0.5)
    message = "form factors need the TASEP point beta = -1, not this Spectrum's beta = -0.5"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        spec.form_factors([(1, 1, 0)])


@pytest.mark.parametrize("M, N", [(6, 2), (9, 4)])
def test_one_ulp_off_the_tasep_point_is_the_tasep_point(M, N):
    # the solver and the form factors take one rule: beta = -1 + 2^-53 inserts the
    # stationary set, and its form factors used to be refused as off the TASEP point.
    # They match beta = -1's within 1e-12 of the largest (measured 3.3e-15 at (6,2) and
    # 2.6e-14 at (9,4)); the roots move by about 3e-16
    near, at = bethe_solve(M, N, -1 + 2 ** -53), _solve_once(M, N, -1.0)
    assert near.stationary == at.stationary == 1 / comb(M, N)
    terms = density_terms(2) + current_terms(3)
    (a, a0), (want, want0) = near.form_factors(terms), at.form_factors(terms)
    assert a0 == want0 and near._pairs == at._pairs
    assert np.max(np.abs(a - want)) <= 1e-12 * np.max(np.abs(want))


def test_one_box_per_solve_along_a_chain_of_calls(monkeypatch):
    # a caller that holds bethe_solve's result builds its box vectors once: the
    # Green tables at three times and the sum rule at beta = -1, and every
    # orthogonality pair at beta = -1/2, one branching computation per solve
    M, N = 8, 4
    built = []
    box = tasep.grothendieck_box
    monkeypatch.setattr(tasep, "grothendieck_box",
                        lambda *args, **kwargs: built.append(1) or box(*args, **kwargs))
    spec = bethe_solve(M, N)
    for t in (0.5, 1.0, 2.0):
        green_function_table(M, N, t, spec)
    assert abs(sum_rule_check(PC((1, 3, 5, 7), M), 1.0, spec) - 1) <= 1e-8
    assert len(built) == 1
    half = bethe_solve(M, N, -0.5)
    partitions = list(enumerate_box(M - N, N))
    for lam in partitions:
        for mu in partitions:
            orthogonality_check(M, N, -0.5, lam, mu, half)
    assert len(built) == 2
