"""Determinants: exact Bareiss vs a cofactor-expansion oracle, and confluent limits."""

from fractions import Fraction as F
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fivevertex.linalg import Matrix, det
from fivevertex.confluent import PointTable, det_ratio_columns, det_ratio_labelled
from fivevertex.ratfunc import RatFunc, int_rows, taylor

from conftest import force_generic_path, has_type, outcome, rand_fraction, record_lanes


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


def test_int_matrices_divide_with_floor_division(monkeypatch, rng):
    # all-int entries skip exact_div; results, types included, match the cofactor
    # oracle with row swaps at every step and on singular matrices
    from fivevertex import linalg

    cases = [[[0, 2, 1], [3, 0, 5], [1, 4, 0]],  # zero pivot at step 0
             [[1, 2, 3, 4], [2, 4, 1, 1], [0, 1, 5, 2], [3, 1, 0, 7]],  # and at step 1
             [[2, 4, 6], [1, 2, 3], [5, -1, 2]],  # proportional rows
             [[0, 0], [0, 5]], [[-7]]]
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) * rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        cases.append(rows)
    monkeypatch.setattr(linalg, "exact_div", lambda a, b: pytest.fail("exact_div on ints"))
    for rows in cases:
        got = det(Matrix(rows))
        assert type(got) is int and got == det_cofactor(rows)
    with pytest.raises(pytest.fail.Exception):
        det(Matrix([[F(1, 2), 1], [1, 3]]))


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


def test_equality_with_another_type_or_shape_and_the_empty_determinant():
    m = Matrix.identity(2)
    assert m.__eq__([[1, 0], [0, 1]]) is NotImplemented and not m == [[1, 0], [0, 1]]
    assert m != Matrix.identity(3) and m != Matrix([[1, 0]])
    assert not Matrix.zeros(0, 2) == Matrix.zeros(2, 0)
    assert det(Matrix.zeros(0, 0)) == 1 and det([]) == 1


def test_complex_route_matches_exact():
    rows = [[1.0, 2.0], [3.0, 4.0]]
    assert abs(det(Matrix(rows)) - (-2)) < 1e-12
    # one float or complex entry among ints and Fractions still takes the LU route
    for last in (4.0, 4 + 0j):
        value = det([[1, F(2)], [3, last]])
        assert type(value) is complex and abs(value - (-2)) < 1e-12


def test_product_with_a_zero_inner_dimension_is_zero():
    a = Matrix([[], []], shape=(2, 0))
    product = a * Matrix([], shape=(0, 3))
    assert (product.rows, product.cols) == (2, 3)
    assert product.data == [[0, 0, 0], [0, 0, 0]]
    # the inner dimensions must still agree when one of them is zero
    with pytest.raises(ValueError):
        a * Matrix([[1, 2]])


def test_equality_is_exact_for_exact_entries_and_tolerant_for_floats(monkeypatch):
    from fivevertex import linalg

    a = Matrix([[1, F(1, 2)], [F(3), 0]])
    assert a == Matrix([[F(1), F(1, 2)], [3, F(0)]])
    assert a != Matrix([[1, F(1, 2)], [3, F(1, 10**30)]])
    assert a == Matrix([[1 + 1e-12, 0.5], [3, 1e-12j]])  # float entries keep the tolerance
    assert a != Matrix([[1 + 1e-6, 0.5], [3, 0]])
    assert Matrix([[True]]) == Matrix([[1]])
    # elements of a rational-function field compare by their exact difference
    from sympy import ZZ
    from sympy.polys.fields import field

    _, x = field("x", ZZ)
    assert Matrix([[x, 1]]) == Matrix([[x, F(1)]]) and Matrix([[x, 1]]) != Matrix([[x + 1, 1]])

    # int and Fraction pairs compare by == alone, with no float test
    def refuse(x):
        raise AssertionError("is_inexact called on an int/Fraction pair")
    monkeypatch.setattr(linalg, "is_inexact", refuse)
    assert a == Matrix([[F(1), F(1, 2)], [3, F(0)]])
    assert a != Matrix([[1, F(1, 3)], [3, 0]])


def test_float_equality_scales_with_the_largest_entry():
    # within 1e-10 times max(1, largest |entry| of either matrix)
    big = Matrix([[3e6 + 1j, 0], [2, -1e6]])
    assert big == Matrix([[3e6 + 1j + 5e-10, 0], [2, -1e6]])
    assert big == Matrix([[3e6 + 1j, 2e-4], [2, -1e6]])
    assert big != Matrix([[3e6 + 1j, 4e-4], [2, -1e6]])
    # matrices with every entry at most 1 keep the absolute 1e-10
    small = Matrix([[0.5, 0], [1j, -1e-3]])
    assert small == Matrix([[0.5 + 9e-11, 0], [1j, -1e-3]])
    assert small != Matrix([[0.5 + 2e-10, 0], [1j, -1e-3]])


def _sparse_entry(rng, lane):
    if rng.random() < 0.6:
        return 0
    if lane == "fraction":
        return rand_fraction(rng)
    if lane == "int":
        return rng.randint(-9, 9)
    return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))


@pytest.mark.parametrize("lane", ["fraction", "int", "complex"])
def test_products_skip_zeros_and_match_the_naive_loop(rng, lane):
    # Products skip exact-zero entries; the values must still be those of
    # the plain triple loop, on sparse draws with zero inner dimensions,
    # all-zero rows and columns, and zero vector entries.
    for _ in range(40):
        rows, inner, cols = rng.randint(0, 5), rng.randint(0, 5), rng.randint(1, 5)
        a = [[_sparse_entry(rng, lane) for _ in range(inner)] for _ in range(rows)]
        b = [[_sparse_entry(rng, lane) for _ in range(cols)] for _ in range(inner)]
        if rows:
            a[rng.randrange(rows)] = [0] * inner  # an all-zero row
        zero_col = rng.randrange(cols)
        for row in b:
            row[zero_col] = 0 * row[zero_col]  # an all-zero column, zeros of the lane's type
        product = Matrix(a, shape=(rows, inner)) * Matrix(b, shape=(inner, cols))
        assert (product.rows, product.cols) == (rows, cols)
        expected = [[sum((a[r][k] * b[k][c] for k in range(inner)), 0) for c in range(cols)]
                    for r in range(rows)]
        assert product.data == expected
        vec = [_sparse_entry(rng, lane) for _ in range(inner)]
        assert Matrix(a, shape=(rows, inner)).apply(vec) == [
            sum((ra[k] * vec[k] for k in range(inner)), 0) for ra in a]


def _square_columns(v_pts):
    """(1 + u v)^2 in the row variable u, one column per v."""
    return [RatFunc([(1, 0, 2)], (1, v)) for v in v_pts]


def test_confluent_proportional_rows_vanish():
    # u^2 v at u = (1, 1): the Taylor rows [v], [2 v] are proportional
    columns = [RatFunc([(v, 2, 0)]) for v in (F(2), F(3))]
    assert det_ratio_columns(columns, [F(1), F(1)]) == 0


def test_confluent_distinct_equals_plain_ratio(rng):
    phi = lambda u, v: (1 + u * v) ** 2
    u_pts = [F(1), F(2)]
    v_pts = [F(2), F(3)]
    plain = det(Matrix([[phi(u, v) for v in v_pts] for u in u_pts])) / (u_pts[1] - u_pts[0])
    assert det_ratio_columns(_square_columns(v_pts), u_pts) == plain


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
    value = det_ratio_columns(_square_columns((2, 3)), [F(1), F(1)])
    assert value == 24  # frozen from the oracle below
    assert abs(float(extrapolated - value)) < 1e-6


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
    # also behind int and Fraction entries, which the scan passes over cheaply
    with pytest.raises(TypeError, match="sympy.polys.fields.field"):
        det(Matrix([[1, F(1, 2)], [2, x]]))


def test_taylor_rows_match_sympy_series(rng):
    # terms c t^a (A + B t)^k with exponents of both signs, against sympy's series
    import sympy

    h = sympy.Symbol("h")
    for _ in range(6):
        lin = (rand_fraction(rng), rand_fraction(rng))
        terms = [(rand_fraction(rng), rng.randint(-3, 4), rng.randint(-3, 4)) for _ in range(3)]
        t = rand_fraction(rng)
        while t == 0 or lin[0] + lin[1] * t == 0:
            t = rand_fraction(rng)
        expr = sum(sympy.Rational(c.numerator, c.denominator)
                   * (t + h) ** a * (lin[0] + lin[1] * (t + h)) ** k for c, a, k in terms)
        series = sympy.series(expr, h, 0, 4).removeO()
        rows = taylor([RatFunc(terms, lin)], t, 4)
        for i in range(4):
            coeff = sympy.Rational(series.coeff(h, i))
            assert rows[i][0] == F(int(coeff.p), int(coeff.q))
        assert taylor([RatFunc(terms, lin)], t)[0][0] == rows[0][0]
        # the integer lane: the column times the lcm of its coefficient denominators,
        # as int rows over one denominator per row
        d = 1
        for c, _, _ in terms:
            d = d * c.denominator // gcd(d, c.denominator)
        cleared = RatFunc([(int(c * d), a, k) for c, a, k in terms], lin)
        for r in (1, 2, 3):
            ints, dens = int_rows([cleared], t, r)
            assert all(type(x) is int for x in ints[0] + dens)
            for i in range(r):
                coeff = sympy.Rational(series.coeff(h, i))
                assert F(ints[i][0], dens[i]) == F(int(coeff.p), int(coeff.q)) * d


def test_each_column_takes_its_own_lin_whatever_else_is_in_the_call():
    # equal lins of three types: an int, a Fraction and a field-element lin give
    # entries of their own type, alone or beside each other
    from sympy import ZZ
    from sympy.polys.fields import field

    K, _ = field("x", ZZ)
    columns = [RatFunc(terms, lin) for lin in ((1, 2), (1, F(2)), (K(1), K(2)))
               for terms in ([(1, 0, 1)], [(1, 1, 1)], [(3, 1, 2), (1, 0, 1)])]
    for t, r in ((3, 1), (F(1, 3), 2)):
        for order in (columns, columns[::-1]):
            rows = taylor(order, t, r)
            for k, col in enumerate(order):
                alone = [row[0] for row in taylor([col], t, r)]
                together = [row[k] for row in rows]
                assert together == alone
                assert [type(x) for x in together] == [type(x) for x in alone]
    a, b = RatFunc([(1, 0, 1)], (1, 2)), RatFunc([(1, 1, 1)], (1, F(2)))
    ratio = det_ratio_columns([a, b], [1, 3])
    assert ratio == 21 and type(ratio) is F


def test_column_poles_raise():
    # (t - 1)^-1 at t = 1, and t^-2 at t = 0: exact zero bases under negative powers
    with pytest.raises(ZeroDivisionError):
        taylor([RatFunc([(1, 0, -1)], (-1, 1))], F(1), 2)
    with pytest.raises(ZeroDivisionError):
        taylor([RatFunc([(1, -2, 0)])], F(0))
    # a nonnegative power of a zero base is fine, and t^2 has no t^3 coefficient
    assert taylor([RatFunc([(1, 2, 0)])], F(0), 4) == [[0], [0], [1], [0]]
    with pytest.raises(ValueError):
        det_ratio_columns([RatFunc([(1, 0, 0)])], [F(1), F(2)])


def _power_series(x, b, e, r):
    """(x + b h)^e to order h^(r-1) for x != 0: x^e by Fraction ** times (1 + (b/x) h)^e."""
    x = F(x)
    y = F(b) / x
    out = [F(1)] + [F(0)] * (r - 1)
    for _ in range(abs(e)):
        out = [out[j] + (y * out[j - 1] if j else 0) for j in range(r)]
    if e < 0:  # invert the series of (1 + y h)^|e|
        inv = [F(1)] + [F(0)] * (r - 1)
        for j in range(1, r):
            inv[j] = -sum(out[i] * inv[j - i] for i in range(1, j + 1))
        out = inv
    return [x ** e * c for c in out]


def _term_series(c, a, k, lin, t, r):
    """c t^a (A + B t)^k at t + h, to order h^(r-1)."""
    ts = _power_series(t, 1, a, r)
    ls = _power_series(lin[0] + lin[1] * t, lin[1], k, r)
    return [c * sum(ts[i] * ls[j - i] for i in range(j + 1)) for j in range(r)]


def _groups(points):
    out = []
    for p in points:
        for g in out:
            if g[0] == p:
                g[1] += 1
                break
        else:
            out.append([p, 1])
    return out


def _cross(groups):
    out = F(1)
    for h in range(len(groups)):
        for g in range(h):
            out *= (F(groups[h][0]) - groups[g][0]) ** (groups[g][1] * groups[h][1])
    return out


def _reference(columns, points, labelled=(), labels=()):
    """Taylor rows from power series, a generic det of the Fraction matrix, over both crosses.

    ``columns`` are (terms, lin) pairs; each labelled column is (terms, lin, label_lin) with
    terms (c, a, k, b, m) meaning c s^a (A + B s)^k t^b (C + D t)^m, t its label.
    """
    label_cols = []  # per label group, its Taylor columns in the label as (terms, lin)
    for t, r in _groups(labels):
        for i in range(r):
            for terms, lin, label_lin in labelled:
                label_cols.append(([(_term_series(c, b, m, label_lin, t, r)[i], a, k)
                                   for c, a, k, b, m in terms], lin))
    cols = label_cols + list(columns)
    rows = []
    for p, r in _groups(points):
        block = [[F(0)] * len(cols) for _ in range(r)]
        for kcol, (terms, lin) in enumerate(cols):
            for c, a, k in terms:
                for j, v in enumerate(_term_series(c, a, k, lin, p, r)):
                    block[j][kcol] += v
        rows.extend(block)
    return det(Matrix(rows)) / (_cross(_groups(points)) * _cross(_groups(labels)))


_POOL = [F(1, 2), F(-2, 3), F(3), 2, F(5, 7), -1, F(7, 4), F(-9, 5)]


def _draw_terms(rng, count, label=False):
    def coeff():
        return rng.choice([rng.randint(-4, 4), F(rng.randint(-9, 9), rng.randint(1, 6))])
    extra = (rng.randint(-2, 2), rng.randint(-1, 2)) if label else ()
    return [(coeff(), rng.randint(-2, 3), rng.randint(-2, 2)) + extra for _ in range(count)]


def _draw_lin(rng, points):
    while True:
        lin = (rng.choice([1, F(1, 3), -2]), rng.choice([0, 1, F(-1, 2), F(3, 4)]))
        if all(lin[0] + lin[1] * p != 0 for p in points):
            return lin


def _union_table(pool, picks, points):
    """The ratios of ``picks`` of ``pool`` from one ``PointTable`` over the picked columns,
    in the order they are first picked."""
    union = list(dict.fromkeys(k for pick in picks for k in pick))
    position = {k: i for i, k in enumerate(union)}
    table = PointTable([pool[k] for k in union], points)
    return table.ratios([[position[k] for k in pick] for pick in picks])


def test_integer_lane_matches_a_naive_reference():
    # distinct and confluent points, rows and labels coincident at once, against
    # Fraction ** powers, a generic det and the Vandermondes taken directly
    rng = Random(41)
    set_rng = Random(43)  # the multi-set draws, apart from the single-set ones
    for _ in range(120):
        n = rng.randint(1, 4)
        points = [rng.choice(_POOL) for _ in range(n)]
        lin = _draw_lin(rng, points)
        columns = [(_draw_terms(rng, rng.randint(1, 3)), lin) for _ in range(n)]
        got = det_ratio_columns([RatFunc(t, l) for t, l in columns], points)
        assert got == _reference(columns, points)
        if any(type(p) is F for p in points):
            assert type(got) is F

        # several picks at the same points, sharing columns of two lins, from one table
        other = _draw_lin(set_rng, points)
        pool = columns + [(_draw_terms(set_rng, set_rng.randint(1, 3)), other) for _ in range(3)]
        picks = [[set_rng.randrange(len(pool)) for _ in range(n)] for _ in range(4)]
        batch = _union_table([RatFunc(t, l) for t, l in pool], picks, points)
        for pick, got in zip(picks, batch):
            assert got == _reference([pool[k] for k in pick], points)
            if any(type(p) is F for p in points):
                assert type(got) is F

        labels = [rng.choice(_POOL) for _ in range(rng.randint(0, n))]
        label_lin = _draw_lin(rng, labels)
        labelled = [(_draw_terms(rng, rng.randint(1, 2), label=True), lin, label_lin)]
        fixed = columns[len(labels):]

        def column_at(t, r, labelled=labelled):
            out = []
            for i in range(r):
                for terms, lin_s, lin_t in labelled:
                    out.append(RatFunc([(_term_series(c, b, m, lin_t, t, r)[i], a, k)
                                        for c, a, k, b, m in terms], lin_s))
            return out

        got = det_ratio_labelled(column_at, labels, points,
                                 [RatFunc(t, l) for t, l in fixed])
        assert got == _reference(fixed, points, labelled, labels)
        if any(type(p) is F for p in points):
            assert type(got) is F


def test_integer_lane_refuses_zero_bases_as_the_generic_path():
    message = "^a negative power of a zero base$"
    # t^-1 at t = 0, among Fraction points
    with pytest.raises(ZeroDivisionError, match=message):
        det_ratio_columns([RatFunc([(1, 0, 0)]), RatFunc([(1, -1, 0)])], [F(1, 2), F(0)])
    # (1 - 2t)^-2 at t = 1/2, also as a Taylor row
    for points in ([F(1, 2), F(1, 3)], [F(1, 2), F(1, 2)]):
        with pytest.raises(ZeroDivisionError, match=message):
            det_ratio_columns([RatFunc([(1, 0, 0)], (1, -2)), RatFunc([(1, 1, -2)], (1, -2))],
                              points)
    # a nonnegative power of a zero base is fine; t^2 has no t^3 coefficient
    assert det_ratio_columns([RatFunc([(1, 2, 0)]), RatFunc([(1, 0, 0)])],
                             [F(0), F(0)]) == 0
    assert det_ratio_columns([RatFunc([(1, 0, 0)]), RatFunc([(1, 1, 3)], (1, -2))],
                             [F(0), F(1, 2)]) == F(0)


def _lane_point(rng, lane):
    if lane == "int":
        return rng.randint(-3, 3)
    if lane == "complex":
        return complex(rng.randint(-3, 3), rng.randint(-3, 3)) / 4
    if lane == "fraction":
        return F(rng.randint(-6, 6), rng.randint(1, 4))
    return rng.choice([rng.randint(-3, 3), F(rng.randint(-6, 6), rng.randint(1, 4))])


def _table_type(pool, picks, points):
    """``scalars.cleared_type`` of ``_union_table``'s table: its points and every picked
    column's lin and coefficients."""
    from fivevertex.scalars import cleared_type

    union = dict.fromkeys(k for pick in picks for k in pick)
    return cleared_type(points + [x for k in union
                                  for x in (*pool[k].lin, *(c for c, _, _ in pool[k].terms))])


@pytest.mark.parametrize("lane", ["int", "fraction", "mixed", "complex"])
def test_batched_ratios_match_one_set_calls(lane):
    # the picks of one PointTable over their columns against one det_ratio_columns call
    # per pick, with coincident points and zero-base refusals: in repr (types, and the
    # complex lane's bits, included) where the pick's own inputs have the table's type;
    # a mixed table's pick has the table's type and the one-pick table's value
    rng = Random(47)
    for _ in range(150):
        n = rng.randint(0, 4)
        points = [_lane_point(rng, lane) for _ in range(n)]
        if n >= 2 and rng.random() < 0.4:
            points[-1] = points[0]
        lins = [(1, _lane_point(rng, lane)), (_lane_point(rng, lane), 1)]
        pool = [RatFunc([(_lane_point(rng, lane) or 1, rng.randint(-1, 4), rng.randint(-2, 2))
                         for _ in range(rng.randint(1, 2))], rng.choice(lins))
                for _ in range(n + 3)]
        picks = [[rng.randrange(len(pool)) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        batch = outcome(lambda: _union_table(pool, picks, points))
        one_by_one = outcome(lambda: [det_ratio_columns([pool[k] for k in pick], points)
                                      for pick in picks])
        if lane != "mixed" or "Error: " in one_by_one:
            assert batch == one_by_one
            continue
        singles = [det_ratio_columns([pool[k] for k in pick], points) for pick in picks]
        kind = _table_type(pool, picks, points)
        for got, single in zip(_union_table(pool, picks, points), singles):
            assert got - single == 0 and has_type(got, kind)
    # a set of the wrong length is refused
    assert outcome(lambda: det_ratio_columns([RatFunc([(1, 0, 0)])] * 2, [F(1, 2)])) \
        == "ValueError: need as many columns as points"


def test_field_points_beside_rationals_take_the_lane_and_two_fields_are_refused(monkeypatch):
    import re

    import sympy
    from sympy.polys.fields import field

    from fivevertex import confluent

    K, z1, z2, beta = field("z1,z2,beta", sympy.QQ)
    L, w = field("w", sympy.QQ)
    columns = [RatFunc([(1, 2, 0)], (1, beta)), RatFunc([(1, 0, 1)], (1, beta))]
    # field points beside Fractions and ints, a field-valued coefficient, and lins of
    # the field at rational points
    cases = [(columns, points) for points in ([z1, F(1, 2)], [F(1, 2), z1], [z1, 3], [z1, z2])]
    cases += [([RatFunc([(beta, 1, 0)]), columns[1]], [z1, z2]),
              ([RatFunc([(1, 1, 1)], (1, beta)), RatFunc([(F(1, 2), 0, 0)])], [F(1, 3), 2])]
    lanes = record_lanes(monkeypatch)
    lane = [outcome(lambda: det_ratio_columns(cols, points)) for cols, points in cases]
    assert lanes == [True] * len(cases)
    # points of two fields, or a lin of another field, are refused by name before any row
    monkeypatch.setattr(confluent, "int_rows", None)
    monkeypatch.setattr(confluent, "taylor", None)
    message = f"^elements of two fields: {re.escape(str(K))} and {re.escape(str(L))}$"
    for cols, points in ((columns, [z1, w]),
                         ([RatFunc([(1, 1, 1)], (1, w)), columns[1]], [z1, z2])):
        with pytest.raises(ValueError, match=message):
            PointTable(cols, points)
    monkeypatch.undo()
    force_generic_path(monkeypatch)
    assert lane == [outcome(lambda: det_ratio_columns(cols, points)) for cols, points in cases]


def _kind_scalar(rng, kind, gens):
    """A scalar of ``kind``: "int", "fraction", "mixed" (either), "field" (an element of
    the field of ``gens``) or "beside" (any of these)."""
    if kind == "beside":
        kind = rng.choice(["field", "mixed"])
    if kind == "mixed":
        kind = rng.choice(["int", "fraction"])
    if kind == "int":
        return rng.randint(-3, 3)
    if kind == "fraction":
        return F(rng.randint(-6, 6), rng.randint(1, 4))
    return rng.choice(gens) * rng.randint(1, 2) + rng.randint(-1, 1)


# the kinds of (points, lins, coefficients) of each kind of exact table; the columns of
# a table mix their lins and coefficients with ints, so a pick's own inputs may have a
# lower type than its table
_TABLE_KINDS = {
    "int": ("int", "int", "int"),
    "fraction": ("fraction", "fraction", "fraction"),
    "mixed": ("mixed", "mixed", "mixed"),
    "field-points": ("field", "mixed", "mixed"),
    "field-lins": ("mixed", "field", "mixed"),
    "field-coefficients": ("mixed", "mixed", "field"),
    "field-points-beside-rationals": ("beside", "mixed", "mixed"),
}


@pytest.mark.parametrize("kind", list(_TABLE_KINDS))
def test_a_ratio_depends_on_its_own_inputs_alone(monkeypatch, kind):
    # every exact table takes the cleared lane; the value of each pick of a table over
    # several columns is its one-pick table's ratio and the generic path's, and its type
    # is the one scalars.cleared_type gives the table's points, coefficients and lins
    import sympy
    from sympy.polys.fields import field

    _, *gens = field("a,b,c", sympy.QQ)
    point_kind, lin_kind, coeff_kind = _TABLE_KINDS[kind]
    rng = Random(53)
    lanes = record_lanes(monkeypatch)
    draws = []
    for _ in range(25):
        n = rng.randint(1, 3)
        points = [_kind_scalar(rng, point_kind, gens) for _ in range(n)]
        if n >= 2 and rng.random() < 0.3:
            points[-1] = points[0]
        lins = [(1, _kind_scalar(rng, lin_kind, gens)), (_kind_scalar(rng, "int", gens), 1)]
        pool = [RatFunc([(_kind_scalar(rng, rng.choice([coeff_kind, "int"]), gens) or 1,
                          rng.randint(-1, 3), rng.randint(-1, 2))
                         for _ in range(rng.randint(1, 2))], rng.choice(lins))
                for _ in range(n + 2)]
        picks = [[rng.randrange(len(pool)) for _ in range(n)] for _ in range(3)]
        batch = outcome(lambda: _union_table(pool, picks, points))
        one_by_one = outcome(lambda: [det_ratio_columns([pool[k] for k in pick], points)
                                      for pick in picks])
        if "Error: " in one_by_one:
            assert batch == one_by_one  # a zero base, refused alike
            continue
        ratios = _union_table(pool, picks, points)
        singles = [det_ratio_columns([pool[k] for k in pick], points) for pick in picks]
        table_type = _table_type(pool, picks, points)
        for got, single in zip(ratios, singles):
            assert got - single == 0 and has_type(got, table_type)
        draws.append((pool, picks, points, ratios))
    assert len(draws) > 15 and lanes and all(lanes)
    force_generic_path(monkeypatch)
    for pool, picks, points, ratios in draws:
        # a field's constant and a Fraction of one value differ by the field's zero
        generic = [det_ratio_columns([pool[k] for k in pick], points) for pick in picks]
        assert all(a - b == 0 for a, b in zip(ratios, generic))
