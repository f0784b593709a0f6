"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with -s to see the one-line pass/fail report per criterion; the same
battery backs ``fivevertex verify-all --level desk``.
"""

from random import Random
from types import SimpleNamespace

import numpy as np
import pytest

from fivevertex import acceptance, sector, tasep, wavefunc


def _run(criterion):
    result = criterion()
    status = "PASS" if result["passed"] else "FAIL"
    print(f"{status}  criterion {result['name']}  {result['detail']}")
    assert result["passed"], result["detail"]


def test_criterion_01_integrability_suite():
    _run(acceptance.criterion_1_integrability)


def test_criterion_02_operator_algebra_suite():
    _run(acceptance.criterion_2_operator_algebra)


def test_criterion_03_wavefunction_master_check():
    _run(acceptance.criterion_3_wavefunctions)


@pytest.mark.parametrize("name, label", [("step_overlap_value", "step"),
                                         ("staircase_overlap_value", "staircase")])
def test_criterion_03_rejects_a_wrong_closed_form(monkeypatch, name, label):
    # M -> M+1 in one closed form must break its proof in Q(alpha, u)
    right = getattr(wavefunc, name)
    monkeypatch.setattr(acceptance, name, lambda u, alpha, M: right(u, alpha, M + 1))
    result = acceptance.criterion_3_wavefunctions()
    assert not result["passed"]
    assert result["detail"] == f"{label} closed form N=1"


def test_criterion_03_closed_forms_take_no_polynomial_gcd(monkeypatch):
    # the proofs in Q(alpha, u) run on the polynomial-ring lane: Bareiss divides
    # exactly and the Vandermonde numerator is divided out before the one field.new,
    # so no multi-term gcd is left to take (taylor + field Bareiss on the columns with
    # their poles took 42)
    from sympy.polys.rings import PolyElement

    calls = []
    gcd = PolyElement._gcd_ZZ
    monkeypatch.setattr(PolyElement, "_gcd_ZZ", lambda f, g: calls.append(1) or gcd(f, g))
    assert not any(mismatch for mismatch, _, _ in acceptance._closed_form_records())
    assert not calls


def test_criterion_04_scalar_product_suite():
    _run(acceptance.criterion_4_scalar_products)


def test_criterion_05_cauchy_identity():
    _run(acceptance.criterion_5_cauchy)


def test_criterion_06_summation_formulas():
    _run(acceptance.criterion_6_summation)


def test_criterion_07_bethe_completeness():
    _run(acceptance.criterion_7_bethe_completeness)


def test_criterion_08_green_functions():
    _run(acceptance.criterion_8_green_functions)


def test_criterion_09_orthogonality():
    _run(acceptance.criterion_9_orthogonality)


def test_criterion_09_names_the_worst_pair(monkeypatch):
    # an identity off by 1e-6 at one (lam, mu) of the 4^2 box fails on that pair
    from fivevertex.partitions import enumerate_box

    box = list(enumerate_box(4, 2))
    i, k = 4, 9

    def gram(M, N, beta):
        out = np.eye(len(box))
        out[i, k] += 1e-6
        return out

    monkeypatch.setattr(acceptance, "orthogonality_matrix", gram)
    result = acceptance.criterion_9_orthogonality()
    assert not result["passed"]
    assert result["detail"] == f"beta=-1.0, lam={box[i].parts}, mu={box[k].parts}"


def test_criterion_09_fails_on_a_nan_gram_matrix(monkeypatch):
    # a NaN deviation is not within any budget
    monkeypatch.setattr(acceptance, "orthogonality_matrix",
                        lambda M, N, beta: np.full((15, 15), np.nan))
    result = acceptance.criterion_9_orthogonality()
    assert not result["passed"]
    assert result["detail"].startswith("beta=-1.0")


def test_criterion_10_observables():
    _run(acceptance.criterion_10_observables)


class _NoRtt(acceptance.Relations):
    def rtt(self):
        return False


def _off_by_one(name):
    right = getattr(acceptance, name)
    return lambda *args: right(*args) + 1


def _shifted_states(*args):
    return [x + 1 for x in sector.bethe_state(*args)]


def _one_solution_short(M, N):
    return list(tasep.bethe_solve(M, N))[:-1]


def _off_circle(M, N, beta):
    return [SimpleNamespace(roots=[1.5])]


_EVOLVES_TO_A_HALF = SimpleNamespace(right=lambda lam: None, form_factors=lambda terms: (0, 0),
                                     evolve=lambda a, a0, right, t: 0.5)

# one row per criterion: a checked call that returns a wrong value, and the failure it names
WRONG_VALUES = [
    ("criterion_1_integrability", "rll_check", lambda u, v, alpha: False, "relation failed"),
    ("criterion_2_operator_algebra", "Relations", _NoRtt, "RTT failed at M=1"),
    ("criterion_3_wavefunctions", "bethe_state", _shifted_states,
     "<x|psi> mismatch at M=1, N=1, x=(1,)"),
    ("criterion_4_scalar_products", "recursion_check", lambda spec: False,
     "recursion at M=2, N=1"),
    ("criterion_5_cauchy", "cauchy_rhs", _off_by_one("cauchy_rhs"), "mismatch at M=2, N=1"),
    ("criterion_6_summation", "wavefunction_sum", _off_by_one("wavefunction_sum"),
     "wavefunction sum M=2 N=1"),
    ("criterion_7_bethe_completeness", "bethe_solve", _one_solution_short, "count at (4,2)"),
    ("criterion_8_green_functions", "sum_rule_check", lambda x0, t, spec: 1 + 1e-6,
     "sum rule at (6,2)"),
    ("criterion_9_orthogonality", "bethe_solve", _off_circle, "beta=0 root off unit circle"),
    ("criterion_10_observables", "bethe_solve", lambda M, N: _EVOLVES_TO_A_HALF,
     "density at t=0.0: |0.5 - 1.0|"),
]


@pytest.mark.parametrize("criterion, name, wrong, detail", WRONG_VALUES,
                         ids=[row[0] for row in WRONG_VALUES])
def test_a_wrong_value_fails_its_criterion_with_its_detail(monkeypatch, criterion, name,
                                                           wrong, detail):
    monkeypatch.setattr(acceptance, name, wrong)
    result = getattr(acceptance, criterion)()
    assert (result["passed"], result["detail"]) == (False, detail)


def test_the_verdict_stops_at_the_first_record_over_budget():
    def records():
        yield 0, 0, "exact"
        yield 1e-9, 1e-8, "within"
        yield float("nan"), 1e-8, "nan"
        raise AssertionError("a record after the failure was computed")

    assert acceptance._verdict("x", records(), "passed") == \
        {"name": "x", "passed": False, "detail": "nan"}
    assert acceptance._verdict("x", iter([(False, 0, "exact")]), "passed") == \
        {"name": "x", "passed": True, "detail": "passed"}


def test_summation_case_redraws_z_under_a_given_beta():
    # beta = -1/z_1 puts the first draw of z on the pole 1 + beta z_1 = 0
    s, M, N = 7, 4, 2
    z = acceptance.distinct_square_fractions(Random(s), N)
    beta = -1 / z[0]
    case = acceptance.summation_case(Random(s), M, N, beta)
    assert case["beta"] == beta and case["z"] != z
    assert all(1 + beta * zj != 0 and 1 + beta / zj != 0 for zj in case["z"])
    assert case["primal"] and case["dual"]
