"""Desk-scale acceptance suite.

Each criterion function runs one numbered acceptance check at its stated
tolerance and returns a dict with ``name``, ``passed``, ``elapsed_s`` and a
short ``detail`` string.  ``run_all`` executes the whole battery (this is
what ``fivevertex verify-all --level desk`` and tests/test_acceptance.py
drive) and prints one pass/fail line per criterion.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations
from math import comb
from random import Random

import numpy as np

from .identities import (cauchy_infinite_check, cauchy_lhs, cauchy_rhs,
                         grothendieck_sum_check, orthogonality_matrix)
from .partitions import ParticleConfiguration, config_to_partition, enumerate_box
from .sampling import distinct_square_fractions, norm_safe_draw, rand_fraction, spectral_draw
from .scalarprod import (IntermediateSpec, domain_wall_value, intermediate_scalar_det,
                         norm_det, recursion_check, scalar_product_det)
from .sector import (ModelParameters, bethe_state, build_monodromy_element, commutation_checks,
                     dual_bethe_state, rtt_check, sector_basis, transfer_matrix)
from .symfunc import schur_eval
from .tasep import (Spectrum, bethe_solve, current_terms, density_terms, green_function_table,
                    master_oracle, sector_generator, sum_rule_check)
from .vertex import appendix_a_family_check, rll_check, rtilde_check, ybe_check
from .wavefunc import (dual_wavefunction_det, dual_wavefunction_sum, step_overlap_value,
                       staircase_overlap_value, wavefunction_det, wavefunction_sum)


def _result(name, passed, t0, detail=""):
    return {"name": name, "passed": bool(passed), "elapsed_s": round(time.time() - t0, 3),
            "detail": detail}


def criterion_1_integrability(seed: int = 101) -> dict:
    """RLL/YBE/R~ at 50 exact random draws each; Appendix A family, 20 + 20."""
    t0 = time.time()
    rng = Random(seed)
    for _ in range(50):
        u, v, w = distinct_square_fractions(rng, 3)
        alpha = rand_fraction(rng)
        if not (rll_check(u, v, alpha) and ybe_check(u, v, w)
                and rtilde_check(u, v, w, alpha)):
            return _result("1 integrability", False, t0, "relation failed")
    for _ in range(20):
        a, c, d = (rand_fraction(rng) for _ in range(3))
        if not appendix_a_family_check(a, c, d, lambda x: x):
            return _result("1 integrability", False, t0, "valid family rejected")
    for _ in range(20):
        a, c, d = (rand_fraction(rng) for _ in range(3))
        if appendix_a_family_check(a, c, d, lambda x: 1, B=a * d + rand_fraction(rng)):
            return _result("1 integrability", False, t0, "violated family accepted")
    elapsed = time.time() - t0
    return _result("1 integrability", elapsed < 10, t0,
                   f"50+50+50 relations, 20+20 families, {elapsed:.1f}s (budget 10s)")


def criterion_2_operator_algebra(seed: int = 102) -> dict:
    """Monodromy commutation relations and RTT exactly (M <= 5/4), [tau,tau] (M <= 6)."""
    t0 = time.time()
    rng = Random(seed)
    for M in range(1, 6):
        u, v = distinct_square_fractions(rng, 2)
        alpha = rand_fraction(rng)
        params = ModelParameters(alpha=alpha, M=M)
        for n in range(M + 1):
            checks = commutation_checks(u, v, params, n)
            if not all(checks.values()):
                return _result("2 operator algebra", False, t0,
                               f"commutation failed at M={M}, n={n}: {checks}")
    for M in range(1, 6):
        u, v = distinct_square_fractions(rng, 2)
        params = ModelParameters(alpha=rand_fraction(rng), M=M)
        if not rtt_check(u, v, params):
            return _result("2 operator algebra", False, t0, f"RTT failed at M={M}")
    for M in range(1, 7):
        u, v = distinct_square_fractions(rng, 2)
        params = ModelParameters(alpha=rand_fraction(rng), M=M)
        for n in range(M + 1):
            t_u = transfer_matrix(u, params, n)
            t_v = transfer_matrix(v, params, n)
            if not (t_u * t_v == t_v * t_u):
                return _result("2 operator algebra", False, t0, f"[tau,tau] != 0 at M={M}")
    elapsed = time.time() - t0
    return _result("2 operator algebra", elapsed < 60, t0,
                   f"commutation M<=5, RTT M<=5, [tau,tau] M<=6, {elapsed:.1f}s (budget 60s)")


def criterion_3_wavefunctions(seed: int = 103) -> dict:
    """Determinants equal oracle elements exactly (M <= 5, N <= 3, 10 draws);
    step and staircase closed forms reproduced symbolically at N <= 3."""
    t0 = time.time()
    rng = Random(seed)
    for M in range(1, 6):
        for N in range(1, min(3, M) + 1):
            for _ in range(10):
                alpha = rand_fraction(rng)
                v = spectral_draw(rng, N, alpha)
                u = spectral_draw(rng, N, alpha)
                params = ModelParameters(alpha=alpha, M=M)
                ket = bethe_state(v, params)
                bra = dual_bethe_state(u, params)
                for i, x in enumerate(sector_basis(M, N)):
                    if wavefunction_det(x, v, alpha, M) != ket[i]:
                        return _result("3 wavefunction master", False, t0,
                                       f"<x|psi> mismatch at M={M}, N={N}, x={x}")
                    if dual_wavefunction_det(x, u, alpha, M) != bra[i]:
                        return _result("3 wavefunction master", False, t0,
                                       f"<psi|x> mismatch at M={M}, N={N}, x={x}")
    # The closed forms are proved in the field QQ(alpha, u_1..u_N), whose
    # elements are stored as reduced fractions: a difference is the zero
    # rational function exactly when its numerator is the zero polynomial.
    from sympy import QQ
    from sympy.polys.fields import field

    for N in range(1, 4):
        M = 2 * N + 1
        _, alpha, *u = field(["a"] + [f"u{j}" for j in range(1, N + 1)], QQ)
        step = dual_wavefunction_det(tuple(range(1, N + 1)), u, alpha, M)
        if step - step_overlap_value(u, alpha, M):
            return _result("3 wavefunction master", False, t0, f"step closed form N={N}")
        stair = dual_wavefunction_det(tuple(2 * j - 1 for j in range(1, N + 1)), u, alpha, M)
        if stair - staircase_overlap_value(u, alpha, M):
            return _result("3 wavefunction master", False, t0, f"staircase closed form N={N}")
    return _result("3 wavefunction master", True, t0,
                   "all configs M<=5 N<=3 x 10 draws exact; closed forms symbolic N<=3")


def criterion_4_scalar_products(seed: int = 104) -> dict:
    """Scalar-product and intermediate determinants vs oracle (inhomogeneous w),
    the four intermediate-product properties, and the norm reductions."""
    t0 = time.time()
    rng = Random(seed)
    for M in range(2, 6):
        for N in range(1, min(3, M) + 1):
            alpha = rand_fraction(rng) ** 2  # perfect square for the recursion property
            if alpha == 0:
                alpha = Fraction(9, 4)
            u_full = norm_safe_draw(rng, N, alpha)
            v = distinct_square_fractions(rng, N)
            w = tuple(distinct_square_fractions(rng, M, avoid_squares=[0]))
            params_h = ModelParameters(alpha=alpha, M=M)
            params_w = ModelParameters(alpha=alpha, M=M, w=w)
            # homogeneous scalar product vs oracle
            sp = scalar_product_det(u_full, v, alpha, M)
            bra = dual_bethe_state(u_full, params_h)
            ket = bethe_state(v, params_h)
            if sp != sum(b * k for b, k in zip(bra, ket)):
                return _result("4 scalar products", False, t0, f"scalar product at M={M}, N={N}")
            # intermediate products for all n, inhomogeneous, vs oracle
            for n in range(N + 1):
                spec = IntermediateSpec(n, tuple(u_full[:n]), tuple(v), w, alpha, M, N)
                val = intermediate_scalar_det(spec)
                vec = [1]
                for k, vk in enumerate(v):
                    vec = build_monodromy_element("B", vk, params_w, k).apply(vec)
                for k in range(n):
                    vec = build_monodromy_element("C", u_full[k], params_w, N - k).apply(vec)
                bra_cfg = tuple(range(M - N + n + 1, M + 1))
                oracle = vec[sector_basis(M, N - n).index(bra_cfg)]
                if val != oracle:
                    return _result("4 scalar products", False, t0,
                                   f"intermediate product at M={M}, N={N}, n={n}")
                if n >= 1:
                    # Property 1: symmetry in w_1..w_{M-N+n}
                    w_perm = list(w)
                    i, j = rng.sample(range(M - N + n), 2) if M - N + n >= 2 else (0, 0)
                    w_perm[i], w_perm[j] = w_perm[j], w_perm[i]
                    spec_p = IntermediateSpec(n, tuple(u_full[:n]), tuple(v),
                                              tuple(w_perm), alpha, M, N)
                    if intermediate_scalar_det(spec_p) != val:
                        return _result("4 scalar products", False, t0, "w-permutation symmetry")
                    # Property 3: recursion
                    if not recursion_check(spec):
                        return _result("4 scalar products", False, t0, "frozen-row recursion")
            # Property 4: domain wall closed form
            spec0 = IntermediateSpec(0, (), tuple(v), w, alpha, M, N)
            if intermediate_scalar_det(spec0) != domain_wall_value(spec0):
                return _result("4 scalar products", False, t0, "domain-wall closed form")
            # Property 2: prod u^(M+2n-2N-1) S is a polynomial of degree M-N+n-1 in u_n^2
            n = N
            degree = M - N + n - 1
            samples = distinct_square_fractions(rng, degree + 2, avoid_squares=[x * x for x in u_full])
            points = []
            for u_n in samples:
                spec_s = IntermediateSpec(n, tuple(u_full[:n - 1]) + (u_n,), tuple(v),
                                          w, alpha, M, N)
                pref = u_n ** (M + 2 * n - 2 * N - 1)
                for uj in u_full[:n - 1]:
                    pref = pref * uj ** (M + 2 * n - 2 * N - 1)
                points.append((u_n * u_n, pref * intermediate_scalar_det(spec_s)))
            held_s, held_val = points[-1]
            interp = 0
            for i, (si, pi) in enumerate(points[:-1]):
                term = pi
                for j, (sj, _) in enumerate(points[:-1]):
                    if i != j:
                        term = term * (held_s - sj) / (si - sj)
                interp = interp + term
            if interp != held_val:
                return _result("4 scalar products", False, t0, "polynomial-degree property")
            # norm determinant vs Sylvester reduction
            if norm_det(u_full, alpha, M, "det") != norm_det(u_full, alpha, M, "sylvester"):
                return _result("4 scalar products", False, t0, "norm Sylvester")
    return _result("4 scalar products", True, t0,
                   "scalar/intermediate determinants oracle-exact, all four product\n"
                   "                   properties, norm forms, M<=5 N<=3")


def criterion_5_cauchy(seed: int = 105) -> dict:
    """Exact Cauchy identity (M <= 6, N <= 3, 20 draws), Schur case, M -> infinity."""
    t0 = time.time()
    rng = Random(seed)
    for M in range(2, 7):
        for N in range(1, min(3, M) + 1):
            for draw in range(20):
                z = distinct_square_fractions(rng, N)
                y = distinct_square_fractions(rng, N)
                beta = rand_fraction(rng)
                if any(1 + beta / yk == 0 for yk in y):
                    continue
                if cauchy_lhs(M, N, z, y, beta) != cauchy_rhs(M, N, z, y, beta):
                    return _result("5 cauchy", False, t0, f"mismatch at M={M}, N={N}")
                if draw == 0:
                    lhs0 = sum(schur_eval(lam, z) * schur_eval(lam, y)
                               for lam in enumerate_box(M - N, N))
                    if lhs0 != cauchy_rhs(M, N, z, y, 0):
                        return _result("5 cauchy", False, t0, "beta=0 Schur case")
    small = [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)]
    z = small[:2]
    y = [Fraction(3, 4), Fraction(-1, 2)]
    report = cauchy_infinite_check(2, z, y, Fraction(1, 5), M_max=45)
    if not report["converged"]:
        return _result("5 cauchy", False, t0, "M->infinity truncation did not reach 1e-10")
    return _result("5 cauchy", True, t0,
                   "exact for M<=6 N<=3 x 20 draws; Schur case; truncation <= 1e-10")


def criterion_6_summation(seed: int = 106) -> dict:
    """Wavefunction and Grothendieck weighted sums equal enumeration exactly (M <= 6, N <= 3)."""
    t0 = time.time()
    rng = Random(seed)
    for M in range(2, 7):
        for N in range(1, min(3, M) + 1):
            alpha = rand_fraction(rng)
            v = spectral_draw(rng, N, alpha)
            u = spectral_draw(rng, N, alpha)
            enum_wave = 0
            enum_dual = 0
            for x in combinations(range(1, M + 1), N):
                enum_wave += alpha ** (M * N - sum(x)) * wavefunction_det(x, v, alpha, M)
                enum_dual += alpha ** (sum(x) - N) * dual_wavefunction_det(x, u, alpha, M)
            if wavefunction_sum(v, alpha, M) != enum_wave:
                return _result("6 summation", False, t0, f"wavefunction sum M={M} N={N}")
            if dual_wavefunction_sum(u, alpha, M) != enum_dual:
                return _result("6 summation", False, t0, f"dual wavefunction sum M={M} N={N}")
            z = distinct_square_fractions(rng, N)
            beta = rand_fraction(rng)
            while any(1 + beta * zj == 0 or 1 + beta / zj == 0 for zj in z):
                beta = rand_fraction(rng)
            if not grothendieck_sum_check(M, N, z, beta):
                return _result("6 summation", False, t0, f"Grothendieck sum M={M} N={N}")
            if not grothendieck_sum_check(M, N, z, beta, dual=True):
                return _result("6 summation", False, t0, f"dual Grothendieck sum M={M} N={N}")
    return _result("6 summation", True, t0, "wavefunction + Grothendieck sums enumeration-exact, M<=6 N<=3")


def criterion_7_bethe_completeness() -> dict:
    """Counts, residuals <= 1e-10, energy multiset vs sector spectrum (1e-7)."""
    from scipy.optimize import linear_sum_assignment
    t0 = time.time()
    for (M, N) in [(4, 2), (5, 2), (6, 2), (6, 3), (8, 4)]:
        sols = bethe_solve(M, N)
        if len(sols) != comb(M, N):
            return _result("7 bethe completeness", False, t0, f"count at ({M},{N})")
        worst = max(s.max_residual for s in sols)
        if worst > 1e-10:
            return _result("7 bethe completeness", False, t0,
                           f"residual {worst:.2e} at ({M},{N})")
        energies = np.array([s.energy for s in sols])
        spectrum = np.linalg.eigvals(sector_generator(M, N))
        cost = np.abs(energies[:, None] - spectrum[None, :])
        rows, cols = linear_sum_assignment(cost)
        if cost[rows, cols].max() > 1e-7:
            return _result("7 bethe completeness", False, t0,
                           f"energy multiset at ({M},{N}): {cost[rows, cols].max():.2e}")
        if any(s.energy.real > -1e-9 for s in sols if not s.stationary):
            return _result("7 bethe completeness", False, t0, "nonnegative excited energy")
    elapsed = time.time() - t0
    return _result("7 bethe completeness", elapsed < 300, t0,
                   f"(4,2)...(8,4) complete, residuals <= 1e-10, spectra match, "
                   f"{elapsed:.1f}s (budget 300s)")


def criterion_8_green_functions() -> dict:
    """All-pairs Green functions vs the matrix-exponential oracle at 1e-8."""
    from scipy.linalg import expm
    t0 = time.time()
    for (M, N) in [(6, 2), (6, 3)]:
        spec = Spectrum(bethe_solve(M, N), M, N)
        gen = sector_generator(M, N)
        dim = comb(M, N)
        for t in (0.1, 1.0, 10.0):
            table = green_function_table(M, N, t, spec)
            oracle = expm(gen * t)
            if np.max(np.abs(table - oracle)) > 1e-8:
                return _result("8 green functions", False, t0,
                               f"t={t} ({M},{N}): {np.max(np.abs(table - oracle)):.2e}")
            if table.min() < -1e-8 or table.max() > 1 + 1e-8:
                return _result("8 green functions", False, t0, "probability range")
        t0_table = green_function_table(M, N, 0.0, spec)
        if np.max(np.abs(t0_table - np.eye(dim))) > 1e-7:
            return _result("8 green functions", False, t0, f"t=0 delta at ({M},{N})")
        t_inf = green_function_table(M, N, 200.0, spec)
        if np.max(np.abs(t_inf - 1 / dim)) > 1e-8:
            return _result("8 green functions", False, t0, f"t=200 uniform at ({M},{N})")
        x0 = ParticleConfiguration(tuple(range(1, N + 1)), M)
        if abs(sum_rule_check(x0, 1.0, spec) - 1) > 1e-8:
            return _result("8 green functions", False, t0, f"sum rule at ({M},{N})")
    return _result("8 green functions", True, t0,
                   "(6,2)+(6,3), t in {0.1,1,10} vs oracle 1e-8; t=0 delta; t=200 uniform; sum rule")


def criterion_9_orthogonality() -> dict:
    """Orthogonality delta property (1e-8) at M=6, N=2 for beta in {-1, -1/2}; beta=0 circle."""
    t0 = time.time()
    M, N = 6, 2
    box = list(enumerate_box(M - N, N))
    for beta in (-1.0, -0.5):
        dev = np.abs(orthogonality_matrix(M, N, beta) - np.eye(len(box)))
        if dev.max() > 1e-8:
            i, k = np.unravel_index(dev.argmax(), dev.shape)
            return _result("9 orthogonality", False, t0,
                           f"beta={beta}, lam={box[i].parts}, mu={box[k].parts}")
    sols0 = bethe_solve(M, N, beta=0.0)
    for sol in sols0:
        for zj in sol.roots:
            if abs(abs(zj) - 1) > 1e-12:
                return _result("9 orthogonality", False, t0, "beta=0 root off unit circle")
    return _result("9 orthogonality", True, t0,
                   "delta property on the 4^2 box for beta in {-1,-1/2}; beta=0 roots on circle")


def criterion_10_observables() -> dict:
    """Density and current relaxation vs the oracle at 1e-8, (M,N)=(6,2), t = 0..10 (0.5)."""
    t0 = time.time()
    M, N = 6, 2
    spec = Spectrum(bethe_solve(M, N), M, N)
    x0 = ParticleConfiguration((1, 2), M)
    basis = sector_basis(M, N)
    site = 1
    density_diag = np.diag([1.0 if site in cfg else 0.0 for cfg in basis])
    current_diag = np.diag([1.0 if (site in cfg and site + 1 not in cfg) else 0.0
                            for cfg in basis])
    lam0 = config_to_partition(x0)
    # the form-factor vectors do not depend on t: one per observable
    observables = [(spec.form_factors(terms), diag, label)
                   for terms, diag, label in ((density_terms(site), density_diag, "density"),
                                              (current_terms(site), current_diag, "current"))]
    t_grid = [0.5 * k for k in range(21)]
    for t in t_grid:
        vec = master_oracle(x0, t).amplitudes
        for (a, a0), diag, label in observables:
            got = spec.evolve(a, a0, lam0, t)
            want = float(np.ones(len(vec)) @ diag @ vec)
            if abs(got - want) > 1e-8:
                return _result("10 observables", False, t0,
                               f"{label} at t={t}: |{got} - {want}|")
    return _result("10 observables", True, t0,
                   "density and current at site 1 match the oracle on t = 0..10 step 0.5")


ALL_CRITERIA = [
    criterion_1_integrability,
    criterion_2_operator_algebra,
    criterion_3_wavefunctions,
    criterion_4_scalar_products,
    criterion_5_cauchy,
    criterion_6_summation,
    criterion_7_bethe_completeness,
    criterion_8_green_functions,
    criterion_9_orthogonality,
    criterion_10_observables,
]


def run_all(level: str = "desk", printer=print) -> list:
    """Run every acceptance criterion, printing one pass/fail line each."""
    if level != "desk":
        raise ValueError(f"unknown verification level {level!r}")
    results = []
    for criterion in ALL_CRITERIA:
        res = criterion()
        results.append(res)
        status = "PASS" if res["passed"] else "FAIL"
        printer(f"{status}  criterion {res['name']}  [{res['elapsed_s']}s]  {res['detail']}")
    return results
