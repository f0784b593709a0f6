"""Determinants: exact Bareiss vs a cofactor-expansion oracle, and confluent limits."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fivevertex.linalg import Matrix, det, mat_solve
from fivevertex.confluent import confluent_det_ratio

from conftest import rand_fraction


def det_cofactor(rows):
    """Independent oracle: Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def test_identity_and_hand_examples():
    assert det(Matrix.identity(2)) == 1
    assert det(Matrix([[1, 2], [3, 4]])) == -2
    vandermonde = Matrix([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
    assert det(vandermonde) == (2 - 1) * (3 - 1) * (3 - 2)


fraction_strategy = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_bareiss_matches_cofactor_oracle(n, data):
    rows = [[data.draw(fraction_strategy) for _ in range(n)] for _ in range(n)]
    assert det(Matrix(rows)) == det_cofactor(rows)


def test_row_swap_flips_sign(rng):
    rows = [[rand_fraction(rng) for _ in range(4)] for _ in range(4)]
    d = det(Matrix(rows))
    swapped = [rows[1], rows[0]] + rows[2:]
    assert det(Matrix(swapped)) == -d
    # multilinearity in the first row
    scaled = [[3 * x for x in rows[0]]] + rows[1:]
    assert det(Matrix(scaled)) == 3 * d


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        det(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_complex_route_matches_exact():
    rows = [[1.0, 2.0], [3.0, 4.0]]
    assert abs(det(Matrix(rows)) - (-2)) < 1e-12


def test_product_with_a_zero_inner_dimension_is_zero():
    a = Matrix([[], []], shape=(2, 0))
    product = a * Matrix([], shape=(0, 3))
    assert (product.rows, product.cols) == (2, 3)
    assert product.data == [[0, 0, 0], [0, 0, 0]]
    # the inner dimensions must still agree when one of them is zero
    with pytest.raises(ValueError):
        a * Matrix([[1, 2]])


def test_mat_solve_exact():
    a = [[F(2), F(1)], [F(1), F(3)]]
    b = [[F(1)], [F(0)]]
    x = mat_solve(a, b)
    assert a[0][0] * x[0][0] + a[0][1] * x[1][0] == b[0][0]
    assert a[1][0] * x[0][0] + a[1][1] * x[1][0] == b[1][0]


def test_confluent_proportional_rows_vanish():
    phi = lambda u, v: u * u * v
    dphi = lambda order, u, v: 2 * u * v if order == 1 else 2 * v
    assert confluent_det_ratio(phi, [F(1), F(1)], [F(2), F(3)], dphi) == 0


def test_confluent_distinct_equals_plain_ratio(rng):
    phi = lambda u, v: (1 + u * v) ** 2
    u_pts = [F(1), F(2)]
    v_pts = [F(2), F(3)]
    plain = det(Matrix([[phi(u, v) for v in v_pts] for u in u_pts])) / (u_pts[1] - u_pts[0])
    assert confluent_det_ratio(phi, u_pts, v_pts) == plain


def test_confluent_limit_against_richardson_oracle():
    # Phi(u,v) = (1+uv)^2 with both u-points at 1, v = (2, 3); the expected
    # value is frozen from the finite-difference limit with u2 = 1 + eps,
    # eps in {1e-4, 1e-5}, Richardson extrapolated.
    phi = lambda u, v: (1 + u * v) ** 2

    def ratio(eps):
        u_pts = [F(1), 1 + eps]
        m = Matrix([[phi(u, v) for v in (F(2), F(3))] for u in u_pts])
        return det(m) / (u_pts[1] - u_pts[0])

    e1, e2 = F(1, 10**4), F(1, 10**5)
    v1, v2 = ratio(e1), ratio(e2)
    extrapolated = (e1 * v2 - e2 * v1) / (e1 - e2)
    dphi = lambda order, u, v: 2 * v * (1 + u * v) if order == 1 else 2 * v * v
    value = confluent_det_ratio(phi, [F(1), F(1)], [F(2), F(3)], dphi)
    assert value == 24  # frozen from the oracle below
    assert abs(float(extrapolated - value)) < 1e-6


def test_confluent_requires_derivatives():
    with pytest.raises(ValueError):
        confluent_det_ratio(lambda u, v: u * v, [F(1), F(1)], [F(2), F(3)])


def test_bareiss_over_rational_function_field_matches_berkowitz():
    import sympy
    from sympy.polys.fields import field

    K, a, u1, u2, u3 = field("a,u1,u2,u3", sympy.QQ)
    cases = [
        [[a, u1, 1], [u2, a * u3, u1 ** 2], [1, u3, a * u1 - u2]],
        # zero leading entry: Bareiss swaps rows at step 0
        [[0, a, u1, 1], [u2, 1, a * u3, u1], [a * u1 - 1, u3, 0, u2 ** 2],
         [1, u1 * u2, a, u3]],
        # leading 2x2 minor vanishes: the swap happens at step 1
        [[a, u1, u2, 1], [a * u2, u1 * u2, u3, a], [u3, 1, a, u1], [1, a, u1 * u3, u2]],
        # rows 0 and 2 proportional: the determinant is the zero function
        [[a, u1, u2], [u3, 1, a * u1], [a * u3, u1 * u3, u2 * u3]],
    ]
    for rows in cases:
        oracle = sympy.Matrix([[K(x).as_expr() for x in row] for row in rows])
        assert det(Matrix(rows)) == K.from_expr(oracle.det(method="berkowitz"))


def test_det_refuses_expression_entries():
    import sympy

    x = sympy.Symbol("x")
    with pytest.raises(TypeError, match="sympy.polys.fields.field"):
        det(Matrix([[x, 1], [1, x]]))
