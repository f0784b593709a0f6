"""Scalar products, intermediate scalar products, and norms against oracles."""

from fractions import Fraction as F

import pytest

from fivevertex.scalarprod import (IntermediateSpec, domain_wall_value,
                                   intermediate_scalar_det, norm_det, recursion_check,
                                   scalar_product_det)
from fivevertex.sector import (ModelParameters, bethe_state, build_monodromy_element,
                               dual_bethe_state, sector_basis)

from conftest import distinct_squares, rand_fraction


def test_single_pair_closed_form(rng):
    alpha = rand_fraction(rng)
    M = 4
    u, v = distinct_squares(rng, 2)
    a = lambda x: x ** M
    d = lambda x: (alpha * x - 1 / x) ** M
    expected = (a(u) * d(v) - a(v) * d(u)) / (v / u - u / v)
    assert scalar_product_det([u], [v], alpha, M) == expected


def test_symmetry_in_each_group(rng):
    alpha = rand_fraction(rng)
    u = distinct_squares(rng, 3)
    v = distinct_squares(rng, 3)
    sp = scalar_product_det(u, v, alpha, 5)
    assert scalar_product_det([u[2], u[0], u[1]], v, alpha, 5) == sp
    assert scalar_product_det(u, [v[1], v[2], v[0]], alpha, 5) == sp


def test_intermediate_oracle_mixed_bra(rng):
    M, N, n = 4, 2, 1
    alpha = rand_fraction(rng)
    u = distinct_squares(rng, N)
    v = distinct_squares(rng, N)
    w = tuple(distinct_squares(rng, M))
    params = ModelParameters(alpha=alpha, M=M, w=w)
    spec = IntermediateSpec(n, tuple(u[:n]), tuple(v), w, alpha, M, N)
    vec = [1]
    for k, vk in enumerate(v):
        vec = build_monodromy_element("B", vk, params, k).apply(vec)
    for k in range(n):
        vec = build_monodromy_element("C", u[k], params, N - k).apply(vec)
    bra_cfg = tuple(range(M - N + n + 1, M + 1))
    oracle = vec[sector_basis(M, N - n).index(bra_cfg)]
    assert intermediate_scalar_det(spec) == oracle


def test_domain_wall_and_full_reduction(rng):
    M, N = 5, 2
    alpha = rand_fraction(rng)
    u = distinct_squares(rng, N)
    v = distinct_squares(rng, N)
    w = tuple(distinct_squares(rng, M))
    spec0 = IntermediateSpec(0, (), tuple(v), w, alpha, M, N)
    assert intermediate_scalar_det(spec0) == domain_wall_value(spec0)
    hom = IntermediateSpec(N, tuple(u), tuple(v), (F(1),) * M, alpha, M, N)
    assert intermediate_scalar_det(hom) == scalar_product_det(u, v, alpha, M)


def test_recursion_and_its_failure_modes(rng):
    M, N, n = 4, 2, 1
    alpha = F(9, 16)  # perfect square, exact sqrt
    u = distinct_squares(rng, n)
    v = distinct_squares(rng, N)
    w = tuple(distinct_squares(rng, M))
    spec = IntermediateSpec(n, tuple(u), tuple(v), w, alpha, M, N)
    assert recursion_check(spec)
    with pytest.raises(ValueError):
        recursion_check(IntermediateSpec(0, (), tuple(v), w, alpha, M, N))
    # a perturbed reduction factor must not satisfy the recursion
    sqrt_alpha = F(3, 4)
    u_n = w[M - N + n - 1] / sqrt_alpha
    upper = intermediate_scalar_det(
        IntermediateSpec(n, (u_n,), tuple(v), w, alpha, M, N))
    lower = intermediate_scalar_det(
        IntermediateSpec(n - 1, (), tuple(v), w, alpha, M, N))
    w_prod = 1
    for wl in w:
        w_prod *= wl
    factor = alpha ** (N - n) * sqrt_alpha ** (-(M - 1)) * w[M - N + n - 1] ** M / w_prod
    assert upper == factor * lower
    assert upper != (2 * factor) * lower


def test_recursion_check_rejects_a_wrong_frozen_row(monkeypatch, rng):
    # the n-particle product off by one at the frozen points fails the check
    from fivevertex import scalarprod

    M, N, n = 4, 2, 1
    spec = IntermediateSpec(n, tuple(distinct_squares(rng, n)), tuple(distinct_squares(rng, N)),
                            tuple(distinct_squares(rng, M)), F(9, 16), M, N)
    right = scalarprod.intermediate_scalar_det
    monkeypatch.setattr(scalarprod, "intermediate_scalar_det",
                        lambda s: right(s) + (s.n == n))
    assert recursion_check(spec) is False


def test_recursion_check_takes_a_field_constant_alpha_by_value(monkeypatch):
    # rational_sqrt took Fraction() of a field element, a TypeError; constants of QQ(x)
    # now give the Fraction call's verdict, also on a wrong frozen row, and a
    # non-constant alpha is refused by name
    import sympy
    from sympy.polys.fields import field

    from fivevertex import scalarprod

    K, x = field("x", sympy.QQ)

    def verdicts(kind):
        spec = IntermediateSpec(1, (kind(2),), (kind(3),), (kind(1), kind(2), kind(5)), kind(4),
                                3, 1)
        return [recursion_check(spec)]

    right = scalarprod.intermediate_scalar_det
    got, want = verdicts(K), verdicts(F)
    monkeypatch.setattr(scalarprod, "intermediate_scalar_det", lambda s: right(s) + (s.n == 1))
    got, want = got + verdicts(K), want + verdicts(F)
    assert want == [True, False] and all(a - b == 0 for a, b in zip(got, want))
    with pytest.raises(ValueError, match=r"^alpha must be a number or a constant of its field, "
                                         r"got alpha = x\*\*2$"):
        recursion_check(IntermediateSpec(1, (K(2),), (K(3),), (K(1), K(2), K(5)), x ** 2, 3, 1))


def test_empty_products_are_the_int_one():
    # no particles: the intermediate product (on any number of sites) and the norm are 1
    for M, alpha in ((0, F(4)), (1, 4), (3, 2.0 + 0j)):
        w = tuple(F(k + 2) for k in range(M))
        value = intermediate_scalar_det(IntermediateSpec(0, (), (), w, alpha, M, 0))
        assert value == 1 and type(value) is int
        for method in ("det", "sylvester"):
            norm = norm_det([], alpha, M, method)
            assert norm == 1 and type(norm) is int


# closed forms and determinants of integral arguments, given as ints or as Fractions
_SPEC = ((2, 3), (1, 2, 5))  # v and w of a domain-wall spec at (M, N) = (3, 2), alpha = 1
INT_LANE = [
    ("norm_det", lambda c: norm_det([c(2)], c(3), 3)),
    ("norm_det-sylvester", lambda c: norm_det([c(2)], c(3), 3, "sylvester")),
    ("norm_det-two", lambda c: norm_det([c(2), c(3)], c(1), 4)),
    ("norm_det-two-sylvester", lambda c: norm_det([c(2), c(3)], c(1), 4, "sylvester")),
    ("domain_wall_value", lambda c: domain_wall_value(
        IntermediateSpec(0, (), tuple(map(c, _SPEC[0])), tuple(map(c, _SPEC[1])), c(1), 3, 2))),
    ("intermediate_scalar_det", lambda c: intermediate_scalar_det(
        IntermediateSpec(0, (), tuple(map(c, _SPEC[0])), tuple(map(c, _SPEC[1])), c(1), 3, 2))),
    ("recursion_check", lambda c: recursion_check(
        IntermediateSpec(1, (c(2),), (c(3),), tuple(map(c, _SPEC[1])), c(4), 3, 1))),
]


@pytest.mark.parametrize("call", [pytest.param(c, id=i) for i, c in INT_LANE])
def test_int_arguments_stay_on_the_exact_lane(call):
    # the int call equals the Fraction call, and its type follows scalars.cleared_type:
    # an int where the value is integral, else a Fraction (norm_det([2], 3, 3) was a
    # complex 17.45..., domain_wall_value a float 2.4)
    exact, got = call(F), call(int)
    assert got == exact and type(exact) in (F, bool)
    if type(exact) is F:
        assert type(got) is (int if exact.denominator == 1 else F)


def test_norm_single_particle_closed_form(rng):
    # det Q~ at N = 1 collapses to M u^-2 / (alpha - u^-2)
    alpha = rand_fraction(rng)
    u = rand_fraction(rng)
    M = 5
    if alpha == u ** -2:
        alpha = alpha + 1
    expected = u ** (2 * M) * (M * u ** -2 / (alpha - u ** -2))
    assert norm_det([u], alpha, M, "det") == expected
    assert norm_det([u], alpha, M, "sylvester") == expected


def test_norm_det_equals_sylvester(rng):
    M = 6
    for n in (2, 3, 4):
        while True:
            alpha = rand_fraction(rng)
            u = distinct_squares(rng, n)
            if all(alpha != uj ** -2 and alpha * n + (M - n) * uj ** -2 != 0 for uj in u):
                break
        assert norm_det(u, alpha, M, "det") == norm_det(u, alpha, M, "sylvester")


def test_on_shell_norm_matches_oracle_and_confluent_limit():
    """Norm formula vs <psi|psi> from the oracle and vs the u = v scalar product.

    On-shell u from the TASEP Bethe roots via u^-2 = 1 - z, alpha = 1,
    M = 4, N = 2; tolerance 1e-8 (relative).
    """
    from fivevertex.tasep import bethe_solve

    M, N = 4, 2
    sols = [s for s in bethe_solve(M, N) if not s.stationary]
    params = ModelParameters(alpha=1.0, M=M)
    for sol in sols[:3]:
        u = [(1 - z) ** -0.5 for z in sol.roots]
        bra = dual_bethe_state(u, params)
        ket = bethe_state(u, params)
        oracle = sum(b * k for b, k in zip(bra, ket))
        value = norm_det(u, 1.0, M, "det")
        assert abs(value - oracle) <= 1e-8 * max(1.0, abs(oracle))
        confluent = scalar_product_det(u, list(u), 1.0, M)
        assert abs(confluent - oracle) <= 1e-8 * max(1.0, abs(oracle))


def test_intermediate_polynomial_degree_property(rng):
    # prod u_j^(M+2n-2N-1) S is a polynomial of degree M-N+n-1 in u_n^2
    M, N, n = 4, 2, 2
    alpha = rand_fraction(rng)
    u_fixed = distinct_squares(rng, n - 1)
    v = distinct_squares(rng, N)
    w = tuple(distinct_squares(rng, M))
    degree = M - N + n - 1
    from fivevertex.sampling import distinct_square_fractions

    samples = distinct_square_fractions(rng, degree + 2,
                                        avoid_squares=[x * x for x in u_fixed])
    points = []
    for u_n in samples:
        spec = IntermediateSpec(n, tuple(u_fixed) + (u_n,), tuple(v), w, alpha, M, N)
        pref = u_n ** (M + 2 * n - 2 * N - 1)
        for uj in u_fixed:
            pref *= uj ** (M + 2 * n - 2 * N - 1)
        points.append((u_n * u_n, pref * intermediate_scalar_det(spec)))
    held_s, held_val = points[-1]
    interp = 0
    for i, (si, pi) in enumerate(points[:-1]):
        term = pi
        for j, (sj, _) in enumerate(points[:-1]):
            if i != j:
                term = term * (held_s - sj) / (si - sj)
        interp += term
    assert interp == held_val


def _monodromy_oracle(spec):
    params = ModelParameters(alpha=spec.alpha, M=spec.M, w=spec.w)
    vec = [1]
    for k, vk in enumerate(spec.v):
        vec = build_monodromy_element("B", vk, params, k).apply(vec)
    for k in range(spec.n):
        vec = build_monodromy_element("C", spec.u[k], params, spec.N - k).apply(vec)
    bra_cfg = tuple(range(spec.M - spec.N + spec.n + 1, spec.M + 1))
    return vec[sector_basis(spec.M, spec.N - spec.n).index(bra_cfg)]


# alpha u_1^2 = w_l^2 with l > M-N+n, drawn by criterion 4 at seeds 2 and 10;
# then two u-squares coinciding, as seed 2's recursion check at n = 2 makes them
_W2 = (F(4, 7), F(7), F(9), F(4, 9))
_V2 = (F(1), F(8, 7), F(-3, 4))
REMOVABLE_POINTS = [
    IntermediateSpec(1, (F(-3),), _V2, _W2, F(9), 4, 3),
    IntermediateSpec(1, (F(-1),), (F(1, 4), F(1), F(2, 3)),
                     (F(-1, 7), F(5, 6), F(2, 5), F(3, 4)), F(9, 16), 4, 3),
    IntermediateSpec(2, (F(-3), F(3)), _V2, _W2, F(9), 4, 3),
]


def _complex_spec(spec):
    c = lambda xs: tuple(complex(x) for x in xs)
    return IntermediateSpec(spec.n, c(spec.u), c(spec.v), c(spec.w), complex(spec.alpha),
                            spec.M, spec.N)


REMOVABLE_IDS = ["seed2", "seed10", "coincident"]


# the exact lane keeps the bare ids; the complex lane's carry a suffix
@pytest.mark.parametrize("spec, lane", [
    pytest.param(spec, lane, id=name if lane == "exact" else f"{name}-{lane}")
    for lane in ("exact", "complex") for spec, name in zip(REMOVABLE_POINTS, REMOVABLE_IDS)])
def test_intermediate_at_removable_points_matches_oracle(spec, lane):
    oracle = _monodromy_oracle(spec)
    if lane == "exact":
        assert intermediate_scalar_det(spec) == oracle
    else:
        got = intermediate_scalar_det(_complex_spec(spec))
        assert abs(got - complex(oracle)) <= 1e-12 * abs(oracle)


# regular; alpha u_j^2 = w_l^2 with l > M-N+n; u_2 = +-u_1; v_N = +-v_1; the last two at once
SWEEP_CASES = ["regular", "removable", "coincident-u", "coincident-v", "both-groups"]


def _sweep_draw(rng, M, N, n, case):
    """Seeded exact parameters of S({u}_n|{v}_N|{w}) forced into one kind of point."""
    a = rand_fraction(rng)
    u = distinct_squares(rng, n)
    v = distinct_squares(rng, N)
    w = tuple(distinct_squares(rng, M))
    sign = rng.choice((1, -1))
    if case == "removable":
        if n == 0 or n == N:
            return None  # no w_l with l > M-N+n to meet
        u[rng.randrange(n)] = sign * w[rng.randrange(M - N + n, M)] / a
    if case in ("coincident-u", "both-groups"):
        if n < 2:
            return None
        u[1] = sign * u[0]
    if case in ("coincident-v", "both-groups"):
        if N < 2:
            return None
        v[-1] = rng.choice((1, -1)) * v[0]
    return IntermediateSpec(n, tuple(u), tuple(v), w, a * a, M, N)


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_intermediate_oracle_sweep(rng, case):
    # every M <= 5, N <= 3, 0 <= n <= N against the B/C-operator products,
    # with the point forced to the removable or coincident kind of ``case``
    checked = 0
    for M in range(1, 6):
        for N in range(1, min(3, M) + 1):
            for n in range(N + 1):
                spec = _sweep_draw(rng, M, N, n, case)
                if spec is None:
                    continue
                assert intermediate_scalar_det(spec) == _monodromy_oracle(spec), (M, N, n)
                checked += 1
    assert checked >= 10


A, B, C, D = F(2, 3), F(-5, 4), F(3, 7), F(6, 5)


# at M = 3 the triple u-square takes a Taylor column of order 2 > m = M - N + 1
@pytest.mark.parametrize("u, v, M", [([A, -A, B], [C, C, D], 5), ([A, -A, A], [C, -C, D], 3)],
                         ids=["pairs", "triple"])
def test_scalar_product_with_both_groups_coincident(u, v, M):
    alpha = F(4, 9)
    params = ModelParameters(alpha=alpha, M=M)
    oracle = sum(x * y for x, y in zip(dual_bethe_state(u, params), bethe_state(v, params)))
    assert scalar_product_det(u, v, alpha, M) == oracle


@pytest.mark.parametrize("M, N", [(5, 2), (5, 3)])
def test_scalar_product_det_is_the_oracle_over_a_rational_function_field(M, N):
    # a proof, not a sample: over QQ(alpha, u, v) the determinant is <psi(u)|psi(v)>
    # of the sector oracle; the kernel's quotient by s - u^2 used to take abs() of a
    # field element and raise TypeError, constants of the field included
    from sympy import QQ
    from sympy.polys.fields import field

    K, alpha, *g = field(",".join(["a"] + [f"u{j}" for j in range(N)]
                                  + [f"v{j}" for j in range(N)]), QQ)
    u, v = g[:N], g[N:]
    params = ModelParameters(alpha=alpha, M=M)
    oracle = sum(x * y for x, y in zip(dual_bethe_state(u, params), bethe_state(v, params)))
    assert scalar_product_det(u, v, alpha, M) - oracle == 0
    constant = scalar_product_det([K(2), K(3)], [K(5), K(7)], K(1), 5)
    assert constant - scalar_product_det([F(2), F(3)], [F(5), F(7)], F(1), 5) == 0


@pytest.mark.parametrize("d", [1e-6, 1e-9, 1e-11])
def test_float_lane_near_the_removable_point_u_equals_v(d):
    # v_1 = u_1 (1 + d) is within d of the entry's removable s = u^2 point;
    # the float value must match the exact value at the same inputs
    u = [0.7 + 0j, 1.3 + 0j]
    v = [u[0] * (1 + d), 0.9 + 0j]
    alpha, M = 0.8 + 0j, 5
    got = scalar_product_det(u, v, alpha, M)
    exact = complex(scalar_product_det([F(x.real) for x in u], [F(x.real) for x in v],
                                       F(alpha.real), M))
    assert abs(got - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("u", [(0.77, 0.77), (0.77, -0.77)], ids=["equal", "opposite"])
def test_float_lane_intermediate_matches_exact(u):
    # coinciding u-squares take the Taylor column of the kernel K(s, u^2) in
    # its label; the float value must match the exact value at the same inputs
    v, w = (1.27, 0.6, 0.09), (0.98, 0.67, -0.71, -0.04, -1.44, -1.22, -1.07, -1.04)
    alpha = 1.45 if u[0] == u[1] else 0.55
    spec = IntermediateSpec(2, [complex(x) for x in u], [complex(x) for x in v],
                            [complex(x) for x in w], complex(alpha), 8, 3)
    exact = IntermediateSpec(2, [F(x) for x in u], [F(x) for x in v], [F(x) for x in w],
                             F(alpha), 8, 3)
    want = complex(intermediate_scalar_det(exact))
    assert abs(intermediate_scalar_det(spec) - want) <= 1e-10 * abs(want)


def test_a_float_size_is_refused_by_name():
    # used to end in "can't multiply sequence by non-int of type 'float'"
    with pytest.raises(ValueError, match=r"^M must be an int >= 0, got M = 2\.0$"):
        scalar_product_det([F(1, 2)], [F(1, 3)], 1, 2.0)
