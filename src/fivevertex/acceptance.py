"""Desk-scale acceptance suite.

Each criterion function runs one numbered acceptance check at its stated
tolerance and returns a dict with ``name``, ``passed`` and a short
``detail`` string.  ``run_all`` executes the whole battery, which is what
``fivevertex verify-all --level desk`` drives: it adds each criterion's
``elapsed_s`` and writes one pass/fail line per criterion to stderr.

A criterion's body is a generator of check records ``(deviation, budget,
detail)``, one per check, in a fixed order.  An exact check yields its
mismatch (a bool) against budget 0, and a float check the deviation it
measures against its tolerance.  Criteria 1, 2 and 7 yield their elapsed
seconds last, against their time budget, with the success detail (which
names the budget).  ``_verdict`` folds the records: the first one with
``not deviation <= budget`` fails the criterion with its detail, so a NaN
deviation fails, and no record after it is drawn or computed.

The seeded identity checks are drawn one case at a time:
``integrability_case``, ``scalar_product_case``, ``cauchy_case`` and
``summation_case`` each draw their inputs clear of every pole and return
them with the named results.  Criteria 1, 4, 5 and 6 loop over them, and
the CLI's ``vertex rll-check|ybe-check``, ``scalar check``, ``identity
cauchy`` and ``identity sum`` report them, so each identity has one seeded
check.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction
from math import comb
from random import Random

import numpy as np

from .identities import (cauchy_infinite_check, cauchy_lhs, cauchy_rhs,
                         grothendieck_sum_check, orthogonality_matrix)
from .partitions import ParticleConfiguration, config_to_partition, enumerate_box
from .sampling import distinct_square_fractions, norm_safe_draw, rand_fraction
from .scalarprod import (IntermediateSpec, domain_wall_value, intermediate_scalar_det,
                         norm_det, recursion_check, scalar_product_det)
from .sector import (ModelParameters, Relations, bethe_state, build_monodromy_element,
                     dual_bethe_state, sector_basis)
from .tasep import (bethe_solve, current_terms, density_terms, green_function_table,
                    master_oracle, sector_generator, sum_rule_check)
from .vertex import appendix_a_family_check, rll_check, rtilde_check, ybe_check
from .wavefunc import (dual_wavefunction_det, dual_wavefunction_sum, step_overlap_value,
                       staircase_overlap_value, wavefunction_dets, wavefunction_sum)


def _verdict(name, records, success_detail):
    """Fail at the first record whose deviation is not within its budget, else pass."""
    for deviation, budget, detail in records:
        if not deviation <= budget:  # not ``>``: a NaN deviation fails
            return {"name": name, "passed": False, "detail": detail}
    return {"name": name, "passed": True, "detail": success_detail}


def _criterion(name, success_detail):
    """Make a generator of check records a criterion that returns their ``_verdict``."""
    def wrap(records):
        @functools.wraps(records)
        def criterion(*args, **kwargs):
            return _verdict(name, records(*args, **kwargs), success_detail)
        return criterion
    return wrap


def integrability_case(rng: Random) -> dict:
    """One draw of u, v, w (distinct squares) and alpha with RLL, YBE and R~ at it."""
    u, v, w = distinct_square_fractions(rng, 3)
    alpha = rand_fraction(rng)
    return {"u": u, "v": v, "w": w, "alpha": alpha, "rll": rll_check(u, v, alpha),
            "ybe": ybe_check(u, v, w), "rtilde": rtilde_check(u, v, w, alpha)}


@_criterion("1 integrability", "50+50+50 relations, 20+20 families, budget 10s")
def criterion_1_integrability(seed: int = 101):
    """RLL/YBE/R~ at 50 exact random draws each; Appendix A family, 20 + 20."""
    t0 = time.perf_counter()
    rng = Random(seed)
    for _ in range(50):
        case = integrability_case(rng)
        yield not (case["rll"] and case["ybe"] and case["rtilde"]), 0, "relation failed"
    for _ in range(20):
        a, c, d = (rand_fraction(rng) for _ in range(3))
        yield not appendix_a_family_check(a, c, d, lambda x: x), 0, "valid family rejected"
    for _ in range(20):
        a, c, d = (rand_fraction(rng) for _ in range(3))
        yield (appendix_a_family_check(a, c, d, lambda x: 1, B=a * d + rand_fraction(rng)), 0,
               "violated family accepted")
    yield time.perf_counter() - t0, 10, "50+50+50 relations, 20+20 families, budget 10s"


@_criterion("2 operator algebra", "commutation M<=5, RTT M<=5, [tau,tau] M<=6, budget 60s")
def criterion_2_operator_algebra(seed: int = 102):
    """Monodromy commutation relations and RTT exactly (M <= 5/4), [tau,tau] (M <= 6)."""
    t0 = time.perf_counter()
    rng = Random(seed)
    for M in range(1, 6):
        u, v = distinct_square_fractions(rng, 2)
        alpha = rand_fraction(rng)
        relations = Relations(u, v, ModelParameters(alpha=alpha, M=M))
        for n in range(M + 1):
            checks = relations.commutation(n)
            yield not all(checks.values()), 0, f"commutation failed at M={M}, n={n}: {checks}"
    for M in range(1, 6):
        u, v = distinct_square_fractions(rng, 2)
        relations = Relations(u, v, ModelParameters(alpha=rand_fraction(rng), M=M))
        yield not relations.rtt(), 0, f"RTT failed at M={M}"
    for M in range(1, 7):
        u, v = distinct_square_fractions(rng, 2)
        relations = Relations(u, v, ModelParameters(alpha=rand_fraction(rng), M=M))
        for n in range(M + 1):
            yield not relations.transfer_commute(n), 0, f"[tau,tau] != 0 at M={M}"
    yield time.perf_counter() - t0, 60, "commutation M<=5, RTT M<=5, [tau,tau] M<=6, budget 60s"


@_criterion("3 wavefunction master",
            "all configs M<=5 N<=3 x 10 draws exact; closed forms symbolic N<=3")
def criterion_3_wavefunctions(seed: int = 103):
    """Determinants equal oracle elements exactly (M <= 5, N <= 3, 10 draws);
    step and staircase closed forms reproduced symbolically at N <= 3."""
    rng = Random(seed)
    for M in range(1, 6):
        for N in range(1, min(3, M) + 1):
            for _ in range(10):
                alpha = rand_fraction(rng)
                v = distinct_square_fractions(rng, N, avoid_squares=[1 / alpha])
                u = distinct_square_fractions(rng, N, avoid_squares=[1 / alpha])
                params = ModelParameters(alpha=alpha, M=M)
                basis = sector_basis(M, N)
                kets = zip(wavefunction_dets(basis, v, alpha, M), bethe_state(v, params))
                bras = zip(wavefunction_dets(basis, u, alpha, M, dual=True),
                           dual_bethe_state(u, params))
                for x, (ket, ket_oracle), (bra, bra_oracle) in zip(basis, kets, bras):
                    yield ket != ket_oracle, 0, f"<x|psi> mismatch at M={M}, N={N}, x={x}"
                    yield bra != bra_oracle, 0, f"<psi|x> mismatch at M={M}, N={N}, x={x}"
    yield from _closed_form_records()


def _closed_form_records():
    """Criterion 3's proofs of the step and staircase closed forms at N <= 3.

    The closed forms are proved in the field Q(alpha, u_1..u_N), whose
    elements are stored as reduced fractions: a difference is the zero
    rational function exactly when its numerator is the zero polynomial.
    The field is built over ZZ: it is the same field, each element a ratio
    of integer polynomials, and the Bareiss elimination and ``field.new`` of
    the cleared lane then run on Python-int coefficients rather than
    sympy's rationals.  Yields one record per closed form, its mismatch
    against budget 0.
    """
    from sympy import ZZ
    from sympy.polys.fields import field

    for N in range(1, 4):
        M = 2 * N + 1
        _, alpha, *u = field(["a"] + [f"u{j}" for j in range(1, N + 1)], ZZ)
        step = dual_wavefunction_det(tuple(range(1, N + 1)), u, alpha, M)
        yield bool(step - step_overlap_value(u, alpha, M)), 0, f"step closed form N={N}"
        stair = dual_wavefunction_det(tuple(2 * j - 1 for j in range(1, N + 1)), u, alpha, M)
        yield (bool(stair - staircase_overlap_value(u, alpha, M)), 0,
               f"staircase closed form N={N}")


def scalar_product_case(rng: Random, M: int, N: int) -> dict:
    """One scalar-product draw with the seven invariants ``scalar check`` reports.

    alpha is a nonzero rational square, as the frozen-row recursion needs, u
    is clear of the norm's pole alpha u^2 = 1, and w is the inhomogeneity of
    the intermediate products.  Besides the named checks it returns S(u, v)
    and the intermediate products at n = 0 and n = N.
    """
    alpha = rand_fraction(rng) ** 2
    u = norm_safe_draw(rng, N, alpha)
    v = distinct_square_fractions(rng, N)
    w = tuple(distinct_square_fractions(rng, M))
    sp = scalar_product_det(u, v, alpha, M)
    top = IntermediateSpec(N, tuple(u), tuple(v), w, alpha, M, N)
    wall = IntermediateSpec(0, (), tuple(v), w, alpha, M, N)
    values = {0: intermediate_scalar_det(wall), N: intermediate_scalar_det(top)}
    u_swap, w_swap = list(u), list(w)
    u_swap[0], u_swap[-1] = u_swap[-1], u_swap[0]
    w_swap[0], w_swap[1] = w_swap[1], w_swap[0]
    hom = IntermediateSpec(N, tuple(u), tuple(v), (Fraction(1),) * M, alpha, M, N)
    checks = {
        "u-symmetry": scalar_product_det(u_swap, v, alpha, M) == sp,
        "v-symmetry": scalar_product_det(u, v[::-1], alpha, M) == sp,
        "w-symmetry": intermediate_scalar_det(
            IntermediateSpec(N, tuple(u), tuple(v), tuple(w_swap), alpha, M, N)) == values[N],
        "recursion": recursion_check(top),
        "domain-wall": values[0] == domain_wall_value(wall),
        "n=N homogeneous": intermediate_scalar_det(hom) == sp,
        "norm-sylvester": norm_det(u, alpha, M, "det") == norm_det(u, alpha, M, "sylvester"),
    }
    return {"alpha": alpha, "u": u, "v": v, "w": w, "scalar_product": sp,
            "intermediate": values, "checks": checks}


@_criterion("4 scalar products",
            "scalar/intermediate determinants oracle-exact, all four product properties, "
            "u/v/w symmetry, homogeneous limit, norm forms, M<=5 N<=3")
def criterion_4_scalar_products(seed: int = 104):
    """Scalar-product and intermediate determinants vs oracle (inhomogeneous w),
    the four intermediate-product properties, and the norm reductions."""
    rng = Random(seed)
    for M in range(2, 6):
        for N in range(1, min(3, M) + 1):
            case = scalar_product_case(rng, M, N)
            for name, ok in case["checks"].items():
                yield not ok, 0, f"{name} at M={M}, N={N}"
            alpha, u_full, v, w = case["alpha"], case["u"], case["v"], case["w"]
            params_h = ModelParameters(alpha=alpha, M=M)
            params_w = ModelParameters(alpha=alpha, M=M, w=w)
            # homogeneous scalar product vs oracle
            bra = dual_bethe_state(u_full, params_h)
            ket = bethe_state(v, params_h)
            yield (case["scalar_product"] != sum(b * k for b, k in zip(bra, ket)), 0,
                   f"scalar product at M={M}, N={N}")
            # intermediate products for all n, inhomogeneous, vs oracle
            ket_w = bethe_state(v, params_w)
            for n in range(N + 1):
                spec = IntermediateSpec(n, tuple(u_full[:n]), tuple(v), w, alpha, M, N)
                if n in case["intermediate"]:
                    val = case["intermediate"][n]
                else:
                    val = intermediate_scalar_det(spec)
                vec = ket_w
                for k in range(n):
                    vec = build_monodromy_element("C", u_full[k], params_w, N - k).apply(vec)
                bra_cfg = tuple(range(M - N + n + 1, M + 1))
                oracle = vec[sector_basis(M, N - n).index(bra_cfg)]
                yield val != oracle, 0, f"intermediate product at M={M}, N={N}, n={n}"
                if n >= 1:
                    # Property 1: symmetry in w_1..w_{M-N+n}
                    w_perm = list(w)
                    i, j = rng.sample(range(M - N + n), 2) if M - N + n >= 2 else (0, 0)
                    w_perm[i], w_perm[j] = w_perm[j], w_perm[i]
                    spec_p = IntermediateSpec(n, tuple(u_full[:n]), tuple(v),
                                              tuple(w_perm), alpha, M, N)
                    yield intermediate_scalar_det(spec_p) != val, 0, "w-permutation symmetry"
                    # Property 3: recursion (the case checks n = N)
                    if n < N:
                        yield not recursion_check(spec), 0, "frozen-row recursion"
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
            yield interp != held_val, 0, "polynomial-degree property"


def cauchy_case(rng: Random, M: int, N: int, beta=None) -> dict:
    """One Cauchy-identity draw: z and y with distinct squares, and beta unless given.

    For N >= 2 the kernel carries (y_k + beta)^(-1-i), i < N - 1, so y is
    drawn again until 1 + beta/y_k != 0; at N = 1 that point is no pole.
    """
    z = distinct_square_fractions(rng, N)
    y = distinct_square_fractions(rng, N)
    if beta is None:
        beta = rand_fraction(rng)
    while N >= 2 and any(1 + beta / yk == 0 for yk in y):
        y = distinct_square_fractions(rng, N)
    return {"z": z, "y": y, "beta": beta,
            "equal": cauchy_lhs(M, N, z, y, beta) == cauchy_rhs(M, N, z, y, beta)}


@_criterion("5 cauchy", "exact for M<=6 N<=3 x 20 draws; Schur case; truncation <= 1e-10")
def criterion_5_cauchy(seed: int = 105):
    """Exact Cauchy identity (M <= 6, N <= 3, 20 draws), Schur case, M -> infinity."""
    rng = Random(seed)
    for M in range(2, 7):
        for N in range(1, min(3, M) + 1):
            for draw in range(20):
                case = cauchy_case(rng, M, N)
                yield not case["equal"], 0, f"mismatch at M={M}, N={N}"
                if draw == 0:
                    # at beta = 0 both G and Gbar are the Schur polynomials
                    z, y = case["z"], case["y"]
                    yield (cauchy_lhs(M, N, z, y, 0) != cauchy_rhs(M, N, z, y, 0), 0,
                           "beta=0 Schur case")
    small = [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)]
    z = small[:2]
    y = [Fraction(3, 4), Fraction(-1, 2)]
    report = cauchy_infinite_check(2, z, y, Fraction(1, 5), M_max=45)
    yield report["distances"][-1], 1e-10, "M->infinity truncation did not reach 1e-10"


def summation_case(rng: Random, M: int, N: int, beta=None) -> dict:
    """One weighted-summation draw: z with distinct squares, beta != 0 unless given.

    The primal and dual sums need 1 + beta z_j != 0 and 1 + beta/z_j != 0:
    a drawn beta is drawn again until clear of them, and under a given beta
    z is drawn again.  ``grothendieck_sum_check`` refuses a given beta = 0.
    """
    def on_pole(z, beta):
        return any(1 + beta * zj == 0 or 1 + beta / zj == 0 for zj in z)

    z = distinct_square_fractions(rng, N)
    if beta is None:
        beta = rand_fraction(rng)
        while on_pole(z, beta):
            beta = rand_fraction(rng)
    else:
        while on_pole(z, beta):
            z = distinct_square_fractions(rng, N)
    return {"z": z, "beta": beta, "primal": grothendieck_sum_check(M, N, z, beta),
            "dual": grothendieck_sum_check(M, N, z, beta, dual=True)}


@_criterion("6 summation", "wavefunction + Grothendieck sums enumeration-exact, M<=6 N<=3")
def criterion_6_summation(seed: int = 106):
    """Wavefunction and Grothendieck weighted sums equal enumeration exactly (M <= 6, N <= 3)."""
    rng = Random(seed)
    for M in range(2, 7):
        for N in range(1, min(3, M) + 1):
            alpha = rand_fraction(rng)
            v = distinct_square_fractions(rng, N, avoid_squares=[1 / alpha])
            u = distinct_square_fractions(rng, N, avoid_squares=[1 / alpha])
            basis = sector_basis(M, N)
            enum_wave = 0
            enum_dual = 0
            for x, ket, bra in zip(basis, wavefunction_dets(basis, v, alpha, M),
                                   wavefunction_dets(basis, u, alpha, M, dual=True)):
                enum_wave += alpha ** (M * N - sum(x)) * ket
                enum_dual += alpha ** (sum(x) - N) * bra
            yield wavefunction_sum(v, alpha, M) != enum_wave, 0, f"wavefunction sum M={M} N={N}"
            yield (dual_wavefunction_sum(u, alpha, M) != enum_dual, 0,
                   f"dual wavefunction sum M={M} N={N}")
            case = summation_case(rng, M, N)
            yield not case["primal"], 0, f"Grothendieck sum M={M} N={N}"
            yield not case["dual"], 0, f"dual Grothendieck sum M={M} N={N}"


@_criterion("7 bethe completeness",
            "(4,2)...(8,4) complete, residuals <= 1e-10, spectra match, budget 300s")
def criterion_7_bethe_completeness():
    """Counts, residuals <= 1e-10, energy multiset vs sector spectrum (1e-7)."""
    from scipy.optimize import linear_sum_assignment
    t0 = time.perf_counter()
    for (M, N) in [(4, 2), (5, 2), (6, 2), (6, 3), (8, 4)]:
        sols = bethe_solve(M, N)
        yield len(sols) != comb(M, N), 0, f"count at ({M},{N})"
        worst = np.max([s.max_residual for s in sols])  # a NaN residual propagates
        yield worst, 1e-10, f"residual {worst:.2e} at ({M},{N})"
        energies = np.array([s.energy for s in sols])
        spectrum = np.linalg.eigvals(sector_generator(M, N))
        cost = np.abs(energies[:, None] - spectrum[None, :])
        rows, cols = linear_sum_assignment(cost)
        gap = cost[rows, cols].max()
        yield gap, 1e-7, f"energy multiset at ({M},{N}): {gap:.2e}"
        for s in sols:
            if not s.stationary:
                yield s.energy.real, -1e-9, "nonnegative excited energy"
    yield (time.perf_counter() - t0, 300,
           "(4,2)...(8,4) complete, residuals <= 1e-10, spectra match, budget 300s")


@_criterion("8 green functions",
            "(6,2)+(6,3), t in {0.1,1,10} vs oracle 1e-8; t=0 delta; t=200 uniform; sum rule")
def criterion_8_green_functions():
    """All-pairs Green functions vs the matrix-exponential oracle at 1e-8."""
    from scipy.linalg import expm
    for (M, N) in [(6, 2), (6, 3)]:
        spec = bethe_solve(M, N)
        gen = sector_generator(M, N)
        dim = comb(M, N)
        for t in (0.1, 1.0, 10.0):
            table = green_function_table(M, N, t, spec)
            dev = np.max(np.abs(table - expm(gen * t)))
            yield dev, 1e-8, f"t={t} ({M},{N}): {dev:.2e}"
            yield (not (table.min() >= -1e-8 and table.max() <= 1 + 1e-8), 0,
                   "probability range")
        t0_table = green_function_table(M, N, 0.0, spec)
        yield np.max(np.abs(t0_table - np.eye(dim))), 1e-7, f"t=0 delta at ({M},{N})"
        t_inf = green_function_table(M, N, 200.0, spec)
        yield np.max(np.abs(t_inf - 1 / dim)), 1e-8, f"t=200 uniform at ({M},{N})"
        x0 = ParticleConfiguration(tuple(range(1, N + 1)), M)
        yield abs(sum_rule_check(x0, 1.0, spec) - 1), 1e-8, f"sum rule at ({M},{N})"


@_criterion("9 orthogonality",
            "delta property on the 4^2 box for beta in {-1,-1/2}; beta=0 roots on circle")
def criterion_9_orthogonality():
    """Orthogonality delta property (1e-8) at M=6, N=2 for beta in {-1, -1/2}; beta=0 circle."""
    M, N = 6, 2
    box = list(enumerate_box(M - N, N))
    for beta in (-1.0, -0.5):
        dev = np.abs(orthogonality_matrix(M, N, beta) - np.eye(len(box)))
        i, k = np.unravel_index(dev.argmax(), dev.shape)  # argmax takes the first NaN
        yield dev.max(), 1e-8, f"beta={beta}, lam={box[i].parts}, mu={box[k].parts}"
    for sol in bethe_solve(M, N, beta=0.0):
        for zj in sol.roots:
            yield abs(abs(zj) - 1), 1e-12, "beta=0 root off unit circle"


@_criterion("10 observables",
            "density and current at site 1 match the oracle on t = 0..10 step 0.5")
def criterion_10_observables():
    """Density and current relaxation vs the oracle at 1e-8, (M,N)=(6,2), t = 0..10 (0.5)."""
    M, N = 6, 2
    spec = bethe_solve(M, N)
    x0 = ParticleConfiguration((1, 2), M)
    basis = sector_basis(M, N)
    site = 1
    density_diag = np.diag([1.0 if site in cfg else 0.0 for cfg in basis])
    current_diag = np.diag([1.0 if (site in cfg and site + 1 not in cfg) else 0.0
                            for cfg in basis])
    # the right vector and the form-factor vectors do not depend on t: built once
    right = spec.right(config_to_partition(x0))
    observables = [(spec.form_factors(terms), diag, label)
                   for terms, diag, label in ((density_terms(site), density_diag, "density"),
                                              (current_terms(site), current_diag, "current"))]
    t_grid = [0.5 * k for k in range(21)]
    for t in t_grid:
        vec = master_oracle(x0, t).amplitudes
        for (a, a0), diag, label in observables:
            got = spec.evolve(a, a0, right, t)
            want = float(np.ones(len(vec)) @ diag @ vec)
            yield abs(got - want), 1e-8, f"{label} at t={t}: |{got} - {want}|"


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


def run_all() -> list:
    """Run every acceptance criterion, timing each, with one PASS/FAIL line each on stderr."""
    results = []
    for criterion in ALL_CRITERIA:
        t0 = time.perf_counter()
        res = criterion()
        res["elapsed_s"] = round(time.perf_counter() - t0, 3)
        results.append(res)
        status = "PASS" if res["passed"] else "FAIL"
        print(f"{status}  criterion {res['name']}  [{res['elapsed_s']}s]  {res['detail']}",
              file=sys.stderr)
    return results
