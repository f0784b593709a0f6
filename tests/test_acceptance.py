"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with -s to see the one-line pass/fail report per criterion; the same
battery backs ``fivevertex verify-all --level desk``.
"""

import numpy as np
import pytest

from fivevertex import acceptance, wavefunc


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
    assert acceptance._closed_form_failure() is None
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


def test_criterion_10_observables():
    _run(acceptance.criterion_10_observables)
