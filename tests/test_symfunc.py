"""Schur/Grothendieck evaluators against tableau and symbolic oracles."""

import re
from fractions import Fraction as F
from itertools import permutations
from math import comb

import numpy as np
import pytest

from fivevertex.partitions import enumerate_box
from fivevertex.scalars import cleared_quotient, cleared_type
from fivevertex.symfunc import (_pair_indices, bialternants, box_plan, dual_grothendieck_eval,
                               grothendieck_box, grothendieck_box_cleared, grothendieck_eval,
                               schur_eval)

from conftest import distinct_squares, force_generic_path, rand_fraction, record_lanes


def semistandard_tableaux_count(shape, max_entry):
    """Brute-force oracle: count SSYT of the given shape with entries <= max_entry."""
    shape = [p for p in shape if p > 0]
    cells = [(r, c) for r, row_len in enumerate(shape) for c in range(row_len)]

    def fill(idx, tableau):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, tableau[(r, c - 1)])
        if r > 0:
            lo = max(lo, tableau[(r - 1, c)] + 1)
        total = 0
        for val in range(lo, max_entry + 1):
            tableau[(r, c)] = val
            total += fill(idx + 1, tableau)
        tableau.pop((r, c), None)
        return total

    return fill(0, {})


def test_schur_trivial_cases():
    assert schur_eval((), [F(2), F(3)]) == 1
    z1, z2 = F(2, 3), F(5, 7)
    assert schur_eval((1,), [z1, z2]) == z1 + z2


def test_schur_principal_specialization_counts_tableaux():
    # s_lambda(1,...,1) counts semistandard tableaux; (2,1) with 3 entries gives 8
    oracle = semistandard_tableaux_count((2, 1), 3)
    assert oracle == 8
    assert schur_eval((2, 1), [F(1)] * 3) == oracle
    for shape in [(2,), (2, 2), (3, 1)]:
        assert schur_eval(shape, [F(1)] * 3) == semistandard_tableaux_count(shape, 3)


def test_grothendieck_symbolic_expansion():
    # in QQ(z1, z2, beta) equality of reduced fractions is equality of rational functions
    from sympy import QQ
    from sympy.polys.fields import field

    _, z1, z2, beta = field("z1,z2,beta", QQ)
    assert grothendieck_eval((1,), [z1, z2], beta) == z1 + z2 + beta * z1 * z2


def test_beta_zero_specializations(rng):
    z = distinct_squares(rng, 3)
    for lam in [(2, 1), (3, 1, 1), (2, 2)]:
        s = schur_eval(lam, z)
        assert grothendieck_eval(lam, z, 0) == s
        assert dual_grothendieck_eval(lam, z, 0) == s


def test_grothendieck_all_ones_beta_minus_one():
    for n in (1, 2, 3):
        for lam in enumerate_box(3, n):
            assert grothendieck_eval(lam, [F(1)] * n, F(-1)) == 1


def test_dual_single_variable_power():
    z, beta = F(5, 7), F(2, 9)
    assert dual_grothendieck_eval((3,), [z], beta) == z ** 3


def test_symmetry_under_variable_permutations(rng):
    z = distinct_squares(rng, 3)
    beta = rand_fraction(rng)
    for lam in [(2, 1, 0), (3, 2, 1)]:
        g = grothendieck_eval(lam, z, beta)
        gd = dual_grothendieck_eval(lam, z, beta)
        s = schur_eval(lam, z)
        for perm in permutations(z):
            assert grothendieck_eval(lam, list(perm), beta) == g
            assert dual_grothendieck_eval(lam, list(perm), beta) == gd
            assert schur_eval(lam, list(perm)) == s


def test_confluent_path_matches_numeric_limit(rng):
    z0 = rand_fraction(rng)
    other = rand_fraction(rng)
    beta = rand_fraction(rng)
    lam = (2, 1, 0)
    exact = grothendieck_eval(lam, [z0, z0, other], beta)
    eps = F(1, 10 ** 7)
    numeric = grothendieck_eval(lam, [z0, z0 + eps, other], beta)
    assert abs(float((numeric - exact) / exact)) < 1e-6


def test_bialternant_oracle_symbolic_box():
    """Cofactor expansion with exact polynomial division over the 3^3 box."""
    import sympy
    from sympy.polys.fields import field

    field_, *gens = field("z1,z2,z3,beta", sympy.QQ)
    z = sympy.symbols("z1 z2 z3")
    beta = sympy.symbols("beta")
    vandermonde = (z[0] - z[1]) * (z[0] - z[2]) * (z[1] - z[2])
    for lam in enumerate_box(3, 3):
        rows = [[zj ** (lam.parts[k] + 3 - 1 - k) * (1 + beta * zj) ** k for k in range(3)]
                for zj in z]
        bialternant = sympy.Matrix(rows).det(method="berkowitz")
        quotient, remainder = sympy.div(sympy.expand(bialternant), sympy.expand(vandermonde),
                                        *z)
        assert remainder == 0
        mine = grothendieck_eval(lam, gens[:3], gens[3])
        assert mine == field_.from_expr(quotient)


def test_dual_rejects_zero_variable():
    with pytest.raises(ZeroDivisionError, match="^dual Grothendieck polynomial needs nonzero "
                                                "variables$"):
        dual_grothendieck_eval((1,), [F(0), F(2)], F(1, 2))


def test_dual_rejects_vanishing_base():
    # z = -beta makes 1 + beta/z vanish under a negative exponent (k >= 2)
    with pytest.raises(ZeroDivisionError):
        dual_grothendieck_eval((1, 1), [F(2), F(-1, 2)], F(1, 2))


def test_dual_pole_refused_before_any_column(monkeypatch):
    # z_2 + beta = 0 is named up front; no determinant is set up for it
    import fivevertex.symfunc as symfunc

    def no_determinant(*args):
        raise AssertionError("a determinant was set up at a pole")

    monkeypatch.setattr(symfunc, "det_ratio_columns", no_determinant)
    with pytest.raises(ZeroDivisionError, match=r"^dual Grothendieck pole at z_2 \+ beta = 0$"):
        dual_grothendieck_eval((2, 1), [F(1, 3), F(1, 2), F(2)], F(-1, 2))
    with pytest.raises(ZeroDivisionError, match=r"z_1 \+ beta = 0"):
        dual_grothendieck_eval((1, 1), [F(-3, 2), F(-3, 2)], F(3, 2))


def _box_oracle(box, z, beta, dual):
    """The scalar evaluator at every partition of ``box``: the box lanes' bialternant oracle."""
    scalar = dual_grothendieck_eval if dual else grothendieck_eval
    return [scalar(lam, z, beta) for lam in box]


@pytest.mark.parametrize("dual", [False, True])
def test_stacked_evals_equal_the_one_determinant_per_partition_formula(dual):
    # bialternants gives bit for bit z^exps * factors through one det per partition
    rng = np.random.default_rng(7)
    S, n, beta = 9, 3, -0.5
    z = rng.normal(size=(S, n)) + 1j * rng.normal(size=(S, n))
    box = list(enumerate_box(4, n))
    zz = 1 / z if dual else z
    base = 1 + beta / zz if dual else 1 + beta * zz
    factors = base[:, :, None] ** ((-1 if dual else 1) * np.arange(n))
    j, k = np.triu_indices(n, 1)
    vandermonde = np.prod(zz[:, j] - zz[:, k], axis=1)

    def formula(lam):
        exps = np.array(tuple(lam.parts) + (0,) * (n - len(lam.parts))) + n - 1 - np.arange(n)
        return np.linalg.det(zz[:, :, None] ** exps * factors) / vandermonde

    for lam in box:
        assert np.array_equal(bialternants(zz, beta, lam, dual), formula(lam)), lam


def test_bialternants_refuse_what_the_stacked_ratio_cannot_take():
    # no confluent limit: coincident variables of a row; for the dual a zero
    # variable and, at N >= 2, a vanishing 1 + beta/z
    z = np.array([[0.3, 0.25], [0.4, 0.4 + 1e-16]], dtype=complex)
    for dual in (False, True):
        with pytest.raises(ValueError, match="^coincident variables need the confluent"):
            bialternants(z, -0.5, (1, 0), dual)
    with pytest.raises(ZeroDivisionError, match="needs nonzero variables"):
        bialternants([[0.5, 0]], -0.5, (1, 0), dual=True)
    with pytest.raises(ZeroDivisionError, match="^vanishing \\(1 \\+ beta/z\\)"):
        bialternants([[0.5, 0.25]], -0.5, (1, 0), dual=True)
    # at N = 1 the column is z^lam (1 + beta/z)^0
    assert bialternants([[0.5]], -0.5, (2,), dual=True)[0] == 0.25


def test_batched_evaluator_over_a_rational_function_field():
    import sympy
    from sympy.polys.fields import field

    # the cleared box over QQ(z1, z2, beta) against the scalar evaluators, which take
    # the polynomial-ring lane, here with a coincident variable (Taylor rows)
    _, z1, z2, beta = field("z1,z2,beta", sympy.QQ)
    z, box = [z1, z2, z1], list(enumerate_box(2, 3))
    for dual in (False, True):
        assert _cleared_values(z, beta, 2, dual) == _box_oracle(box, z, beta, dual)


def test_dual_single_variable_is_regular_at_minus_beta():
    # at N = 1 the column is z^lam (z + beta)^0 = z^lam
    assert dual_grothendieck_eval((2,), [F(1, 2)], F(-1, 2)) == F(1, 4)
    assert dual_grothendieck_eval((3,), [2], -2) == 8


def test_result_types_follow_the_inputs():
    # all-int inputs stay ints; any Fraction point gives a Fraction, also when integral
    assert type(schur_eval((1,), [2, 3])) is int and schur_eval((1,), [2, 3]) == 5
    assert type(grothendieck_eval((2, 1), [2, 3, 5], 1)) is int
    assert repr(schur_eval((1,), [F(2), F(3)])) == "Fraction(5, 1)"
    assert repr(schur_eval((1,), [2, F(3)])) == "Fraction(5, 1)"
    assert repr(schur_eval((1,), [F(1, 2), F(1, 2)])) == "Fraction(1, 1)"
    assert type(dual_grothendieck_eval((2, 1), [F(1, 2), 3], 1)) is F


def test_too_few_variables_rejected():
    # the parts are refused before the dual's zero variable and pole
    for call in (lambda: schur_eval((2, 1, 1), [F(1), F(2)]),
                 lambda: grothendieck_eval((2, 1, 1), [1, 2], 1),
                 lambda: dual_grothendieck_eval((2, 1, 1), [0, F(-1, 2)], F(1, 2))):
        with pytest.raises(ValueError, match="^partition has 3 parts but only 2 variables$"):
            call()


@pytest.mark.parametrize("lam", [(-1,), (1, 2), (2, -1), (0, 1)])
def test_non_partitions_are_refused(lam):
    # (-1,) used to give G = 2 at z = 1/2, beta = -1, and (1, 2) gave 1/36
    z = [F(1, 2), F(1, 3)][:len(lam)]
    zz = np.array([[0.25, 0.2][:len(lam)]], dtype=complex)
    for call in (lambda: grothendieck_eval(lam, z, -1),
                 lambda: dual_grothendieck_eval(lam, z, -1),
                 lambda: schur_eval(lam, z),
                 lambda: bialternants(zz, -0.5, lam),
                 lambda: bialternants(zz, -0.5, lam, dual=True)):
        with pytest.raises(ValueError, match="^lam must have nonnegative, weakly decreasing"):
            call()


def set_valued_tableaux_value(shape, z, beta):
    """Independent oracle (Buch, Acta Math. 189 (2002) 37): G_lambda(z; beta) is
    the sum over set-valued tableaux T of shape lambda with entries 1..N of
    beta^(|T| - |lambda|) z^T.  Each box holds a nonempty set; along a row
    max(left) <= min(right), down a column max(above) < min(below)."""
    n = len(z)
    subsets = []
    for mask in range(1, 2 ** n):
        entries = [e for e in range(n) if mask >> e & 1]
        weight = 1
        for e in entries:
            weight = weight * z[e]
        subsets.append((entries[0], entries[-1], len(entries), weight))
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    placed = {}

    def fill(idx):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        total = 0
        for lo, hi, size, weight in subsets:
            if c > 0 and lo < placed[(r, c - 1)]:
                continue
            if r > 0 and lo <= placed[(r - 1, c)]:
                continue
            placed[(r, c)] = hi
            total = total + beta ** (size - 1) * weight * fill(idx + 1)
        placed.pop((r, c), None)
        return total

    return fill(0)


def _shapes_in_box(rows, cols):
    """Partitions with at most ``rows`` parts, each at most ``cols``."""
    shapes = [()]
    for _ in range(rows):
        shapes = [s + (p,) for s in shapes for p in range(cols + 1) if not s or p <= s[-1]]
    return sorted({tuple(p for p in s if p) for s in shapes})


def test_set_valued_tableau_oracle_hand_values():
    z1, z2, beta = F(2, 3), F(5, 7), F(-3, 4)
    assert set_valued_tableaux_value((1,), [z1, z2], beta) == z1 + z2 + beta * z1 * z2
    assert set_valued_tableaux_value((), [z1, z2], beta) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_grothendieck_matches_set_valued_tableaux(rng, n):
    beta = rand_fraction(rng)
    distinct = distinct_squares(rng, n)
    a, b = rand_fraction(rng), rand_fraction(rng)
    coincident = [[a] * n] + ([[a, a, b][:n]] if n > 1 else [])
    for lam in _shapes_in_box(n, 3):
        for z in [distinct] + coincident:
            assert grothendieck_eval(lam, z, beta) == set_valued_tableaux_value(lam, z, beta)
        ones = [F(1)] * n
        assert set_valued_tableaux_value(lam, ones, F(-1)) == 1
        assert grothendieck_eval(lam, ones, F(-1)) == 1


@pytest.mark.parametrize("dual", [False, True])
def test_field_points_match_the_generic_path(monkeypatch, dual):
    # G and Gbar over QQ(z, beta) on the polynomial-ring lane against taylor + field
    # Bareiss, == and repr: distinct and coincident points, N = 1 (no cross factor),
    # the field's constants, field points beside rationals and rational points with a
    # field beta
    import sympy
    from sympy.polys.fields import field

    K, z1, z2, z3, beta = field("z1,z2,z3,beta", sympy.QQ)
    cases = [([z1, z2, z3], beta), ([z1, z1, z2], beta), ([z2, z1, z1], beta),
             ([z1, z1, z1], beta), ([z3], beta), ([z1, z2], F(-1, 2)),
             ([K(2), K(3), K(5)], beta), ([K(2), K(2), K(3)], K(1) / 3), ([K(2)], F(1, 2)),
             ([z1, F(1, 2), 3], beta), ([z1, 3, z1], F(1, 3)), ([2, F(1, 3), 2], beta)]
    lanes = record_lanes(monkeypatch)
    lane = [_box_oracle(enumerate_box(2, len(z)), z, b, dual) for z, b in cases]
    assert lanes and all(lanes)
    force_generic_path(monkeypatch)
    generic = [_box_oracle(enumerate_box(2, len(z)), z, b, dual) for z, b in cases]
    assert lane == generic
    assert repr(lane) == repr(generic)


def _cleared_values(z, beta, m, dual):
    """``grothendieck_box_cleared``'s numerators, each divided by its denominator."""
    nums, den = grothendieck_box_cleared(z, beta, m, dual)
    return [cleared_quotient(num, den, cleared_type([*z, beta])) for num in nums]


@pytest.mark.parametrize("draw", range(12))
def test_box_plan_branches_to_the_bialternants_exactly(rng, draw):
    # the two branching rules, on the plan's own edges, are the bialternants:
    # equal as Fractions for every lam of the box, primal and dual
    rng.seed(draw)
    n, m = rng.randint(1, 5), rng.randint(0, 4)
    z = distinct_squares(rng, n)
    beta = rand_fraction(rng)
    while beta == 0 or any(1 + beta / zj == 0 for zj in z):
        beta = rand_fraction(rng)
    box = list(enumerate_box(m, n))
    assert len(box_plan(m, n)[1][-1][0]) == len(box) == comb(m + n, n)
    for dual in (False, True):
        assert _cleared_values(z, beta, m, dual) == _box_oracle(box, z, beta, dual)


def _point_sets():
    """(kind, z, beta) of up to five variables: ints, Fractions, coincident Fractions
    and elements of QQ(z, beta), each clear of the dual's poles z_j + beta = 0."""
    import sympy
    from sympy.polys.fields import field

    K, t, b = field("z,beta", sympy.QQ)
    sets = [("int", [2, 3, -5, 7, 1], 4),
            ("fraction", [F(1, 2), F(-2, 3), F(3, 5), F(5, 4), F(-1, 7)], F(-2, 9)),
            ("coincident", [F(2, 3), F(2, 3), F(-1, 5), F(2, 3), F(-1, 5)], F(3, 4)),
            ("field", [t, t + 1, 1 / (t + 2)], b)]
    return [pytest.param(*case, id=case[0]) for case in sets]


@pytest.mark.parametrize("kind, z, beta", _point_sets())
def test_cleared_box_is_the_bialternants(kind, z, beta):
    # every box with m <= 4 and N <= 5: the cleared lane equals the scalar evaluators
    # by ==, and by type off the int points (a Fraction in, a Fraction out); over
    # QQ(z, beta) to N = 3 only, as the bialternant oracle takes 10-80 s per side at N = 5
    for n in range(1, len(z) + 1):
        for m in range(5):
            box = list(enumerate_box(m, n))
            for dual in (False, True):
                got = _cleared_values(z[:n], beta, m, dual)
                want = _box_oracle(box, z[:n], beta, dual)
                assert got == want, (kind, m, n, dual)
                if kind != "int":
                    assert [type(g) for g in got] == [type(w) for w in want]
@pytest.mark.parametrize("beta", [-0.5, -0.8 + 0.3j])
@pytest.mark.parametrize("dual", [False, True])
def test_grothendieck_box_matches_the_stacked_determinants(beta, dual):
    # one bialternants call per partition is the reference at distinct points
    points = np.random.default_rng(7)
    z = points.normal(size=(9, 4)) + 1j * points.normal(size=(9, 4))
    box = list(enumerate_box(3, 4))
    want = np.array([bialternants(z, beta, lam, dual=dual) for lam in box])
    got = grothendieck_box(z, beta, box_plan(3, 4), dual=dual)
    assert got.shape == want.shape == (len(box), len(z))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("dual", [False, True])
def test_grothendieck_box_takes_coincident_variables(dual):
    # no Vandermonde is divided out, so equal variables need no confluent limit
    z = [F(2, 3), F(2, 3), F(-1, 5)]
    beta = F(-1, 2)
    box = list(enumerate_box(2, 3))
    want = np.array(_box_oracle(box, z, beta, dual), dtype=complex)
    got = grothendieck_box(np.array([z], dtype=float), float(beta), box_plan(2, 3), dual=dual)
    assert np.max(np.abs(got[:, 0] - want)) <= 1e-15 * np.max(np.abs(want))


def test_pair_indices_are_kept_read_only():
    # np.triu_indices(n, 1), built once per n for every stacked Vandermonde
    for n in range(1, 8):
        pairs = _pair_indices(n)
        assert _pair_indices(n) is pairs
        assert all(np.array_equal(a, b) for a, b in zip(pairs, np.triu_indices(n, 1)))
    for array in _pair_indices(3):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_box_plan_is_kept_read_only():
    # one plan per (m, n); a float or bool is refused before the memo, which
    # would take 2.0 for 2 and True for 1
    plan = box_plan(2, 2)
    assert box_plan(2, 2) is plan and box_plan(np.int64(2), 2) is plan
    for m, n, message in ((2.0, 2, "m must be an int >= 0, got m = 2.0"),
                          (2, 2.0, "n must be an int >= 1, got n = 2.0"),
                          (2, True, "n must be an int >= 1, got n = True")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            box_plan(m, n)
    for arrays in plan[1]:
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


def test_grothendieck_box_refusals():
    plan = box_plan(2, 2)
    with pytest.raises(ValueError, match=r"need rows of N = 2 variables, got shape \(1, 3\)"):
        grothendieck_box([[0.5, 0.25, 0.125]], -1.0, plan)
    with pytest.raises(ZeroDivisionError, match="nonzero variables"):
        grothendieck_box([[0.5, 0]], -1.0, plan, dual=True)
    with pytest.raises(ZeroDivisionError, match="1 \\+ beta/z"):
        grothendieck_box([[0.5, 1.0]], -1.0, plan, dual=True)
    for m, n, message in ((2.0, 2, "m must be an int >= 0, got m = 2.0"),
                          (2, 2.0, "n must be an int >= 1, got n = 2.0"),
                          (-1, 2, "m must be an int >= 0, got m = -1"),
                          # the branching rule needs at least one variable
                          (2, 0, "n must be an int >= 1, got n = 0")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            box_plan(m, n)
