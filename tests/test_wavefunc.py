"""Wavefunction determinants, the matrix-product route, and summation formulas."""

import re
from fractions import Fraction as F
from itertools import combinations
from random import Random

import pytest

from fivevertex import confluent, wavefunc
from fivevertex.partitions import ParticleConfiguration, config_to_partition
from fivevertex.sector import ModelParameters, bethe_state, dual_bethe_state, sector_basis
from fivevertex.symfunc import grothendieck_eval
from fivevertex.wavefunc import (dual_wavefunction_det,
                                 dual_wavefunction_sum, matrix_product_build,
                                 step_overlap_value, staircase_overlap_value,
                                 wavefunction_det, wavefunction_dets, wavefunction_sum,
                                 wavefunction_trace)

from conftest import force_generic_path, forget_kept_tables, rand_fraction


def spectral(rng, count, alpha):
    out = []
    while len(out) < count:
        f = rand_fraction(rng)
        if alpha * f * f == 1 or any(f * f == g * g for g in out):
            continue
        out.append(f)
    return out


def test_consecutive_block_closed_forms(rng):
    M, N = 5, 2
    alpha = rand_fraction(rng)
    v = spectral(rng, N, alpha)
    u = spectral(rng, N, alpha)
    # <12...N|psi(v)> = alpha^(N(N-1)/2) prod v^(M-1)
    expected = alpha ** (N * (N - 1) // 2) * v[0] ** (M - 1) * v[1] ** (M - 1)
    assert wavefunction_det((1, 2), v, alpha, M) == expected
    assert dual_wavefunction_det((1, 2), u, alpha, M) == step_overlap_value(u, alpha, M)
    assert dual_wavefunction_det((1, 3), u, alpha, M) == staircase_overlap_value(u, alpha, M)


def test_oracle_agreement(rng):
    # whole sector bases in one call each, against the operator oracle; the
    # last parameter sets hold two equal squares, v = (a, -a, b)
    for M in range(1, 8):
        for N in range(1, min(3, M) + 1):
            alpha = rand_fraction(rng)
            draws = [(spectral(rng, N, alpha), spectral(rng, N, alpha))]
            if N == 3:
                a, b = spectral(rng, 2, alpha)
                draws.append(([a, -a, b], [b, a, -b]))
            params = ModelParameters(alpha=alpha, M=M)
            basis = sector_basis(M, N)
            for v, u in draws:
                assert wavefunction_dets(basis, v, alpha, M) == list(bethe_state(v, params))
                assert wavefunction_dets(basis, u, alpha, M, dual=True) \
                    == list(dual_bethe_state(u, params))
    # the scalar functions are its one-configuration case, bit for bit on complex draws
    for M, N in [(4, 2), (6, 3), (7, 3)]:
        alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        v = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(N)]
        v[1] = -v[0]
        basis = sector_basis(M, N)
        for dual, one in [(False, wavefunction_det), (True, dual_wavefunction_det)]:
            assert [repr(w) for w in wavefunction_dets(basis, v, alpha, M, dual=dual)] \
                == [repr(one(x, v, alpha, M)) for x in basis]


def test_grothendieck_dictionary(rng):
    # z_j = alpha - v_j^-2, beta = -1/alpha turns the overlap into G_lambda
    M, N = 5, 2
    alpha = rand_fraction(rng)
    v = spectral(rng, N, alpha)
    beta = -1 / alpha
    for x in [(1, 3), (2, 5), (3, 4)]:
        lam = config_to_partition(ParticleConfiguration(x, M))
        z = [alpha - vj ** -2 for vj in v]
        expected = alpha ** (N * (N - 1) // 2) * v[0] ** (M - 1) * v[1] ** (M - 1) \
            * grothendieck_eval(lam, z, beta)
        assert wavefunction_det(x, v, alpha, M) == expected


def test_matrix_product_initial_condition(rng):
    alpha = rand_fraction(rng)
    u1 = spectral(rng, 1, alpha)[0]
    mps = matrix_product_build([u1], alpha)
    assert mps.A.data == [[u1, 0], [0, alpha * u1 - 1 / u1]]
    assert mps.B.data == [[0, 0], [1, 0]]


def test_matrix_product_exchange_relations(rng):
    alpha = rand_fraction(rng)
    u = spectral(rng, 4, alpha)
    mps = matrix_product_build(u, alpha)
    a_script = mps.a_script()
    weights = [uj / (alpha * uj - 1 / uj) for uj in u]
    zero = mps.A * 0
    for j, q in enumerate(weights, start=1):
        b_j = mps.b_split[j]
        c_j = mps.c_split[j]
        assert b_j * a_script == (a_script * b_j) * q
        assert a_script * c_j == (c_j * a_script) * q
        assert b_j * b_j == zero
        assert c_j * c_j == zero
    for j in range(1, 5):
        for k in range(1, 5):
            if j == k:
                continue
            b_j, b_k = mps.b_split[j], mps.b_split[k]
            lhs = (b_j * b_k) * (alpha * u[j - 1] ** 2 - 1)
            rhs = (b_k * b_j) * (-(alpha * u[k - 1] ** 2 - 1))
            assert lhs == rhs
            c_j, c_k = mps.c_split[j], mps.c_split[k]
            lhs_c = (c_j * c_k) * (alpha * u[k - 1] ** 2 - 1)
            rhs_c = (c_k * c_j) * (-(alpha * u[j - 1] ** 2 - 1))
            assert lhs_c == rhs_c
    # the split parts reassemble the operators exactly
    b_sum = mps.b_split[1]
    c_sum = mps.c_split[1]
    for j in range(2, 5):
        b_sum = b_sum + mps.b_split[j]
        c_sum = c_sum + mps.c_split[j]
    assert b_sum == mps.b_script()
    assert c_sum == mps.c_script()


@pytest.mark.parametrize("M,N", [(4, 2), (5, 3)])
def test_trace_formula_matches_determinants(M, N, rng):
    alpha = rand_fraction(rng)
    u = spectral(rng, N, alpha)
    mps = matrix_product_build(u, alpha)
    for x in combinations(range(1, M + 1), N):
        assert wavefunction_trace(x, u, alpha, M, mps, dual=True) \
            == dual_wavefunction_det(x, u, alpha, M)
        assert wavefunction_trace(x, u, alpha, M, mps, dual=False) \
            == wavefunction_det(x, u, alpha, M)


def test_degenerate_parameters_rejected(rng):
    alpha = F(3, 4)
    u1 = spectral(rng, 1, alpha)[0]
    with pytest.raises((ValueError, ZeroDivisionError)):
        matrix_product_build([u1, u1], alpha)


@pytest.mark.parametrize("u, alpha", [([10.0, 20.0, 30.0], 1.0), ([10, 20, 30], 1)])
def test_well_separated_parameters_build_in_either_lane(u, alpha):
    # the float split's zero test is relative to the matrix's largest |entry|: a rounding
    # residue of 2.8e-14 beside entries near 900 used to be refused as degenerate
    M = 5
    mps = matrix_product_build(u, alpha)
    for x in combinations(range(1, M + 1), 3):
        det_value = dual_wavefunction_det(x, u, alpha, M)
        assert abs(wavefunction_trace(x, u, alpha, M, mps) - det_value) <= 1e-12 * abs(det_value)


def test_sum_single_particle_two_sites(rng):
    alpha = rand_fraction(rng)
    (v,) = spectral(rng, 1, alpha)
    M = 2
    total = alpha * wavefunction_det((1,), [v], alpha, M) \
        + wavefunction_det((2,), [v], alpha, M)
    assert wavefunction_sum([v], alpha, M) == total


def test_sums_match_enumeration(rng):
    M, N = 5, 2
    alpha = rand_fraction(rng)
    v = spectral(rng, N, alpha)
    u = spectral(rng, N, alpha)
    total_wave = sum(alpha ** (M * N - sum(x)) * wavefunction_det(x, v, alpha, M)
                     for x in combinations(range(1, M + 1), N))
    total_dual = sum(alpha ** (sum(x) - N) * dual_wavefunction_det(x, u, alpha, M)
                     for x in combinations(range(1, M + 1), N))
    assert wavefunction_sum(v, alpha, M) == total_wave
    assert dual_wavefunction_sum(u, alpha, M) == total_dual


def test_sums_at_coincident_squares_match_enumeration():
    # v = (a, -a, b): two equal squares s = v^2 take the confluent limit
    alpha = F(2, 3)
    a, b = F(1, 2), F(-3, 4)
    v = [a, -a, b]
    N = len(v)
    for M in (3, 5, 6, 7):
        configs = list(combinations(range(1, M + 1), N))
        kets = wavefunction_dets(configs, v, alpha, M)
        bras = wavefunction_dets(configs, v, alpha, M, dual=True)
        assert kets == [wavefunction_det(x, v, alpha, M) for x in configs]
        assert bras == [dual_wavefunction_det(x, v, alpha, M) for x in configs]
        total_wave = sum(alpha ** (M * N - sum(x)) * ket for x, ket in zip(configs, kets))
        total_dual = sum(alpha ** (sum(x) - N) * bra for x, bra in zip(configs, bras))
        assert wavefunction_sum(v, alpha, M) == total_wave
        assert dual_wavefunction_sum(v, alpha, M) == total_dual


def test_sum_connects_to_grothendieck_sum_at_alpha_one(rng):
    # at alpha = 1 (beta = -1) the weighted sum is prod v^(M-1) times the
    # box sum of G_lambda(z;-1) under the dictionary z = 1 - v^-2
    from fivevertex.identities import grothendieck_sum_det

    M, N = 5, 2
    alpha = F(1)
    v = spectral(rng, N, alpha)
    z = [1 - vj ** -2 for vj in v]
    lhs = wavefunction_sum(v, alpha, M)
    rhs = v[0] ** (M - 1) * v[1] ** (M - 1) * grothendieck_sum_det(M, N, z, F(-1))
    assert lhs == rhs


def test_symmetry_in_spectral_parameters(rng):
    M, N = 5, 3
    alpha = rand_fraction(rng)
    v = spectral(rng, N, alpha)
    x = (1, 3, 4)
    base = wavefunction_det(x, v, alpha, M)
    assert wavefunction_det(x, [v[2], v[0], v[1]], alpha, M) == base
    base_dual = dual_wavefunction_det(x, v, alpha, M)
    assert dual_wavefunction_det(x, [v[1], v[0], v[2]], alpha, M) == base_dual


def test_pole_conditions():
    with pytest.raises(ZeroDivisionError):
        wavefunction_det((1,), [F(1)], F(1), 3)  # alpha v^2 = 1
    with pytest.raises(ZeroDivisionError):
        dual_wavefunction_det((1,), [F(0)], F(2), 3)


@pytest.mark.parametrize("x, M", [((1, 9), 5), ((2, 2), 5), ((1, 2), 1), ((0, 2), 5),
                                  ((3, 2), 5)])
def test_impossible_configurations_are_refused(x, M):
    # these used to return a value: (1, 9) at M = 5 gave -1152845/324, and the
    # trace took a position past M as a negative power of A
    u = [F(1, 2), F(1, 3)]
    message = re.escape(f"configuration {x} needs 1 <= x_1 < ... < x_N <= {M}")
    for call in (lambda: wavefunction_dets([(1, 2), x], u, F(2), M),
                 lambda: wavefunction_det(x, u, F(2), M),
                 lambda: dual_wavefunction_det(x, u, F(2), M),
                 lambda: wavefunction_trace(x, u, F(2), M)):
        with pytest.raises(ValueError, match=message):
            call()


def test_int_parameters_stay_exact():
    # u^-1 of an int used to be a float: the step form gave 383.9999999999999
    # and the trace 560.0
    u, alpha, M = (2, 3), 1, 5
    step = step_overlap_value(u, alpha, M)
    stair = staircase_overlap_value(u, alpha, M)
    assert step == dual_wavefunction_det((1, 2), u, alpha, M) == 384
    assert stair == dual_wavefunction_det((1, 3), u, alpha, M) == 560
    mps = matrix_product_build(u, alpha)
    traces = [wavefunction_trace((1, 3), u, alpha, M, mps, dual=d) for d in (True, False)]
    assert traces == [560, wavefunction_det((1, 3), u, alpha, M)]
    entries = [step, stair, *traces, *mps.a_diag]
    for mat in (mps.A, mps.B, mps.C, mps.D, mps.G, mps.G_inv):
        entries.extend(e for row in mat.data for e in row)
    assert all(type(e) in (int, F) for e in entries)


def _cold(x, v, alpha, M, dual):
    """One overlap from an empty sector slot: the reference for the kept tables."""
    forget_kept_tables()
    return (dual_wavefunction_det if dual else wavefunction_det)(x, v, alpha, M)


def _lane(name):
    """(M, v, alpha) of one scalar lane."""
    if name == "field":
        from sympy import QQ
        from sympy.polys.fields import field

        _, a, u1, u2, u3 = field("a,u1,u2,u3", QQ)
        return 4, [u1, u2, u3], a
    return {"int": (6, [2, 3, 5], 1),
            "fraction": (6, [F(2, 3), F(-5, 7), F(3, 4)], F(3, 4)),
            "complex": (6, [complex(0.5, 1), complex(-1.5, 0.25), complex(0.75, -1)],
                        complex(1.25, 0.5))}[name]


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("lane", ["int", "fraction", "complex", "field"])
def test_scalar_loop_equals_the_batched_call(lane, dual):
    M, v, alpha = _lane(lane)
    one = dual_wavefunction_det if dual else wavefunction_det
    basis = sector_basis(M, len(v))
    cold = [repr(_cold(x, v, alpha, M, dual)) for x in basis]
    assert [repr(one(x, v, alpha, M)) for x in basis] == cold
    assert [repr(w) for w in wavefunction_dets(basis, v, alpha, M, dual=dual)] == cold
    assert [repr(one(x, v, alpha, M)) for x in basis[::-1]] == cold[::-1]


@pytest.mark.parametrize("lane", ["int", "fraction", "complex", "field"])
def test_determinant_overlaps_equal_the_oracle_type_for_type(lane):
    # every configuration with M <= 5 and N <= 3, M = 1 included.  Fraction and
    # field overlaps equal the oracle's in type and repr; int ones in value
    # (their type comes from pref * ratio), complex ones within 1e-10 relative
    _, v_all, alpha = _lane(lane)
    for M in range(1, 6):
        params = ModelParameters(alpha, M)
        for N in range(1, min(3, M) + 1):
            v, basis = v_all[:N], sector_basis(M, N)
            for dual, oracle in ((False, bethe_state), (True, dual_bethe_state)):
                dets = wavefunction_dets(basis, v, alpha, M, dual=dual)
                states = oracle(v, params)
                assert len(dets) == len(states) == len(basis)
                if lane == "complex":
                    assert all(abs(d - s) <= 1e-10 * abs(s) for d, s in zip(dets, states)), \
                        (M, N, dual)
                elif lane == "int":
                    assert dets == states, (M, N, dual)
                else:
                    assert [(type(x), repr(x)) for x in dets] \
                        == [(type(x), repr(x)) for x in states], (M, N, dual)


def test_equal_parameters_of_other_types_are_other_keys():
    # int 2, Fraction(2) and 2.0 compare equal, so do 0.0 and -0.0 and the
    # constants of two fields; each builds its own table
    from sympy import QQ
    from sympy.polys.fields import field

    x, M = (1, 3), 5
    draws = [([2, 3], 1), ([F(2), F(3)], 1), ([2.0, 3.0], 1),
             ([complex(2, 0.0), complex(-0.5, 0.0)], complex(1.5, 0.0)),
             ([complex(2, -0.0), complex(-0.5, -0.0)], complex(1.5, -0.0))]
    for name in ("a,u", "b,w"):
        K, *_ = field(name, QQ)
        draws.append(([K(2), K(3)], K(1)))

    def signature(w):
        return type(w), getattr(w, "field", None), repr(w)

    cold = [signature(_cold(x, v, alpha, M, True)) for v, alpha in draws]
    warm, tables = [], []
    for v, alpha in draws:
        warm.append(signature(dual_wavefunction_det(x, v, alpha, M)))
        tables.append(wavefunc._last_sector[1])
    assert warm == cold
    assert len({id(table) for table in tables}) == len(draws)


def test_a_refused_call_leaves_the_kept_table():
    v, alpha, M = [F(1, 2), F(2, 3)], F(3, 4), 5
    kept = wavefunction_det((1, 3), v, alpha, M)
    slot = list(wavefunc._last_sector)
    refused = [lambda: wavefunction_det((1, 3), [F(1, 2), F(2)], F(1, 4), M),  # alpha v^2 = 1
               lambda: dual_wavefunction_det((1, 3), [F(0), F(2)], alpha, M),
               lambda: wavefunction_dets([(1, 2), (2, 7)], [F(1, 3), F(1, 5)], alpha, M)]
    for call in refused:
        with pytest.raises((ZeroDivisionError, ValueError)):
            call()
        assert wavefunc._last_sector[0] is slot[0] and wavefunc._last_sector[1] is slot[1]
    assert wavefunction_det((1, 3), v, alpha, M) == kept


def test_interleaved_keys_give_their_own_values(rng):
    M, N = 6, 3
    draws = []
    for _ in range(3):
        alpha = rand_fraction(rng)
        draws.append((spectral(rng, N, alpha), alpha))
    calls = [(x, v, alpha, dual) for x in sector_basis(M, N)[::4]
             for v, alpha in draws for dual in (False, True)]
    cold = [_cold(x, v, alpha, M, dual) for x, v, alpha, dual in calls]
    rng.shuffle(pairs := list(zip(calls, cold)))
    for (x, v, alpha, dual), want in pairs:
        assert (dual_wavefunction_det if dual else wavefunction_det)(x, v, alpha, M) == want


def test_a_basis_loop_builds_the_sector_rows_once(monkeypatch):
    # the integer lane's rows of all N(M-N+1) columns come from one int_rows
    # call per point group on the first configuration, and never again
    calls = []
    int_rows = confluent.int_rows
    monkeypatch.setattr(confluent, "int_rows",
                        lambda *args: calls.append(args[1]) or int_rows(*args))
    v, alpha, M = [F(1, 2), F(2, 3), F(-3, 5), F(5, 4)], F(3, 7), 9
    basis = sector_basis(M, len(v))
    first = wavefunction_det(basis[0], v, alpha, M)
    assert sorted(calls) == sorted(vj * vj for vj in v)
    values = [first] + [wavefunction_det(x, v, alpha, M) for x in basis[1:]]
    assert len(calls) == len(v)
    assert values == wavefunction_dets(basis, v, alpha, M) \
        == list(bethe_state(v, ModelParameters(alpha=alpha, M=M)))


@pytest.mark.parametrize("dual", [False, True])
def test_field_overlaps_match_the_generic_path(monkeypatch, dual):
    # QQ(alpha, u) overlaps on the polynomial-ring lane against taylor + field Bareiss,
    # == and repr, over every configuration with M <= 5 and N <= 3 (N = 1: no cross factor)
    from sympy import QQ
    from sympy.polys.fields import field

    cases = []
    for N in range(1, 4):
        _, alpha, *u = field(["a"] + [f"u{j}" for j in range(1, N + 1)], QQ)
        for M in range(N, 6):
            cases.append((sector_basis(M, N), u, alpha, M))
    assert wavefunc._sector_table(cases[-1][1], cases[-1][2], 5, dual)[2].lane
    lane = [wavefunction_dets(basis, u, alpha, M, dual=dual) for basis, u, alpha, M in cases]
    force_generic_path(monkeypatch)
    generic = [wavefunction_dets(basis, u, alpha, M, dual=dual) for basis, u, alpha, M in cases]
    assert lane == generic
    assert repr(lane) == repr(generic)


def test_fraction_overlaps_are_unchanged_by_the_pole_free_columns():
    # the overlaps of 3 draws per sector with M <= 9, pinned as a sha256 of their repr
    # from before the columns absorbed the rows' poles
    import hashlib

    from fivevertex.sampling import distinct_square_fractions

    rng, digest = Random(29), hashlib.sha256()
    for M in range(1, 10):
        for N in range(1, M + 1):
            basis = sector_basis(M, N)
            for _ in range(3):
                alpha = rand_fraction(rng)
                v = distinct_square_fractions(rng, N, avoid_squares=[1 / alpha])
                for dual in (False, True):
                    digest.update(repr(wavefunction_dets(basis, v, alpha, M, dual=dual)).encode())
    assert digest.hexdigest() == "2e6fcb7b8e9d90ba293d952b587677064bd680bbdfe1ea713fc62431e9bfbf30"


def _overlaps_60_digits(basis, v, alpha, M, dual):
    """The module docstring's formula for the overlaps of ``basis``, in 60-digit mpmath."""
    import mpmath

    with mpmath.workdps(60):
        a, v = mpmath.mpc(alpha), [mpmath.mpc(t) for t in v]
        n, sign = len(v), -1 if dual else 1
        pref = vand = mpmath.mpc(1)
        for j, vj in enumerate(v):
            pref *= ((a * vj - 1 / vj) ** M * vj ** (2 * n - 1) if dual
                     else vj ** (M - 1) / (a * vj ** 2 - 1))
            for vk in v[j + 1:]:
                vand *= vj ** 2 - vk ** 2 if dual else vk ** 2 - vj ** 2
        entry = {(j, k, xk): vj ** (sign * 2 * k) * (a - vj ** -2) ** (sign * xk)
                 for j, vj in enumerate(v) for k in range(1, n + 1) for xk in range(1, M + 1)}
        return [pref * mpmath.det(mpmath.matrix([[entry[j, k, xk] for k, xk in enumerate(x, 1)]
                                                 for j in range(n)])) / vand
                for x in basis]


@pytest.mark.parametrize("dual", [False, True])
def test_complex_overlaps_match_a_60_digit_evaluation(rng, dual):
    # complex draws with M <= 9 and N <= 4, each overlap within 1e-13 of the largest of
    # its sector; the points s = v^2 are spread on the circle, so the Vandermonde
    # division is well conditioned and the columns' own rounding is what shows
    import cmath

    worst = 0.0
    for M in range(1, 10):
        for N in range(1, min(4, M) + 1):
            basis = sector_basis(M, N)
            for _ in range(3):
                alpha = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(-cmath.pi, cmath.pi))
                v = [cmath.rect(rng.uniform(0.7, 1.3), cmath.pi * (j + rng.uniform(0.2, 0.8)) / N)
                     for j in range(N)]
                got = wavefunction_dets(basis, v, alpha, M, dual=dual)
                want = _overlaps_60_digits(basis, v, alpha, M, dual)
                scale = max(abs(w) for w in want)
                worst = max(worst, *(float(abs(g - w) / scale) for g, w in zip(got, want)))
    assert worst <= 1e-13


def test_a_float_size_is_refused_by_name():
    # each used to end in "'float' object cannot be interpreted as an integer"
    for call in (lambda: wavefunction_det((1,), [F(1, 2)], 1, 4.0),
                 lambda: wavefunction_dets([(1,)], [F(1, 2)], 1, 4.0),
                 lambda: dual_wavefunction_det((1,), [F(1, 2)], 1, 4.0)):
        with pytest.raises(ValueError, match=r"^M must be an int >= 0, got M = 4\.0$"):
            call()
