"""Local vertex-model structure: weights, R-matrices, RLL/YBE, ansatz family."""

from fractions import Fraction as F

import pytest

from fivevertex import vertex
from fivevertex.linalg import Matrix
from fivevertex.vertex import (appendix_a_family_check, ansatz_l_matrix, embed_two_site,
                               f_weight, g_weight, l_matrix, l_weights, r_matrix, rll_check,
                               rtilde_check, rtilde_matrix, ybe_check)

from conftest import distinct_squares, rand_fraction


def test_l_weights_symbolic():
    import sympy

    u, a = sympy.symbols("u alpha")
    w = l_weights(u, a)
    assert w == (u, 1, 1, a * u - 1 / u, a * u)


def test_l_weights_tasep_point():
    assert l_weights(F(1), F(1)) == (1, 1, 1, 0, 1)


def test_l_weights_four_vertex_point():
    u = F(2, 3)
    w = l_weights(u, 0)
    assert w == (u, 1, 1, -1 / u, 0)
    nonzero = [x for x in w if x != 0]
    assert len(nonzero) == 4


def test_l_weights_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        l_weights(F(0), F(1))


def test_r_matrix_values():
    r = r_matrix(F(2), F(1))
    assert r[0, 0] == F(4, 3) and r[3, 3] == F(4, 3)
    assert r[1, 2] == F(2, 3) and r[2, 1] == F(2, 3)
    assert r[2, 2] == 1
    # v = 0 limit: f = 1, g = 0
    r0 = r_matrix(F(3), F(0))
    assert r0[0, 0] == 1 and r0[1, 2] == 0


def test_f_weight_complementarity(rng):
    u, v = distinct_squares(rng, 2)
    assert f_weight(v, u) + f_weight(u, v) == 1


def test_r_matrix_pole():
    with pytest.raises(ZeroDivisionError):
        r_matrix(F(2), F(-2))


def test_r_matrix_entries_are_the_weights(rng):
    # over the one denominator u^2 - v^2, f and g are f_weight(v, u) and g_weight(v, u)
    # in repr: int, Fraction, complex and field arguments
    from sympy import ZZ
    from sympy.polys.fields import field

    _, x, y = field("x,y", ZZ)
    for u, v in [(2, 3), (3, 0), tuple(distinct_squares(rng, 2)), (F(1, 2), 3),
                 (1.1 - 0.2j, 0.4 + 0.9j), (x, y), (x, 2)]:
        r, f, g = r_matrix(u, v), f_weight(v, u), g_weight(v, u)
        assert [repr(r[i, j]) for i, j in ((0, 0), (3, 3), (1, 2), (2, 1))] \
            == [repr(f)] * 2 + [repr(g)] * 2, (u, v)


def test_rll_random_and_degenerations(rng):
    for _ in range(5):
        u, v = distinct_squares(rng, 2)
        alpha = rand_fraction(rng)
        assert rll_check(u, v, alpha)
    assert rll_check(F(2, 3), F(5, 7), 0)  # four-vertex point


def test_rll_broken_weight_fails():
    u, v, alpha = F(2, 3), F(5, 7), F(3, 4)

    def broken(x):
        m = l_matrix(x, alpha)
        m[2, 2] = m[2, 2] + 1  # perturb the d-weight
        return m

    assert not rll_check(u, v, alpha, l_builder=broken)


def test_ybe_random_perturbed_and_pole(rng):
    u, v, w = distinct_squares(rng, 3)
    assert ybe_check(u, v, w)
    with pytest.raises(ZeroDivisionError):
        ybe_check(u, u, w)
    # perturbing one g entry breaks the identity
    r12 = embed_two_site(r_matrix(u, v), (0, 1))
    r13 = embed_two_site(r_matrix(u, w), (0, 2))
    bad = r_matrix(v, w)
    bad[1, 2] = bad[1, 2] + 1
    r23 = embed_two_site(bad, (1, 2))
    assert not (r12 * r13 * r23 == r23 * r13 * r12)


def test_rtilde_random_and_unit_argument(rng):
    u, wj, wk = distinct_squares(rng, 3)
    alpha = rand_fraction(rng)
    assert rtilde_check(u, wj, wk, alpha)
    rt = rtilde_matrix(F(1), alpha)
    assert (rt[0, 0], rt[1, 2], rt[2, 1], rt[2, 2], rt[3, 3]) == (1, 1, 1, 0, 1)


def test_rtilde_perturbed_fails(rng):
    u, wj, wk = F(2, 3), F(5, 7), F(9, 5)
    alpha = F(3, 4)
    rt = rtilde_matrix(wj / wk, alpha)
    rt[2, 2] = rt[2, 2] + 1  # perturb the alpha(u - 1/u) entry
    l_k = embed_two_site(l_matrix(u / wk, alpha), (0, 2))
    l_j = embed_two_site(l_matrix(u / wj, alpha), (0, 1))
    rt_emb = embed_two_site(rt, (1, 2))
    assert not (rt_emb * l_k * l_j == l_j * l_k * rt_emb)


def test_appendix_family():
    # (A, C, D) = (1, alpha, 1), f = 1 recovers the model L-operator
    alpha = F(3, 4)
    assert appendix_a_family_check(F(1), alpha, F(1), lambda u: 1)
    m = ansatz_l_matrix(F(2, 3), F(1), F(1), alpha, F(1), lambda u: 1)
    assert m == l_matrix(F(2, 3), alpha)


def test_appendix_family_random_and_violations(rng):
    for _ in range(5):
        a, c, d = (rand_fraction(rng) for _ in range(3))
        assert appendix_a_family_check(a, c, d, lambda u: u)
        assert not appendix_a_family_check(a, c, d, lambda u: 1, B=a * d + 1)


def test_appendix_family_rejects_zero_function():
    with pytest.raises(ValueError):
        appendix_a_family_check(F(1), F(2), F(3), lambda u: 0)


# --------------------------------------------- the relation checks on cleared numerators

def _reference_embed(m4, pos):
    """The 4x4 operator on spaces ``pos`` tensored with 1, bit by bit: apart from vertex's maps."""
    p, q = pos
    out = [[0] * 8 for _ in range(8)]
    for col in range(8):
        bits = [(col >> (2 - i)) & 1 for i in range(3)]
        for rp in (0, 1):
            for rq in (0, 1):
                w = m4[2 * rp + rq, 2 * bits[p] + bits[q]]
                if w == 0:
                    continue
                ob = list(bits)
                ob[p], ob[q] = rp, rq
                out[sum(b << (2 - i) for i, b in enumerate(ob))][col] += w
    return Matrix(out)


def _reference_holds(*factors):
    """X Y Z == Z Y X on the uncleared entries, embedded by the bit loop."""
    x, y, z = (_reference_embed(m4, pos) for m4, pos in factors)
    return x * y * z == z * y * x


def _reference_rll(u, v, build):
    return _reference_holds((r_matrix(u, v), (0, 1)), (build(u), (0, 2)), (build(v), (1, 2)))


def _reference_ybe(u, v, w):
    return _reference_holds((r_matrix(u, v), (0, 1)), (r_matrix(u, w), (0, 2)),
                            (r_matrix(v, w), (1, 2)))


def _reference_rtilde(u, wj, wk, alpha):
    return _reference_holds((rtilde_matrix(F(wj) / wk, alpha), (1, 2)),
                            (l_matrix(F(u) / wk, alpha), (0, 2)),
                            (l_matrix(F(u) / wj, alpha), (0, 1)))


def _draws(rng):
    """Seeded (u, v, w, alpha) draws: Fractions, ints and the four-vertex point alpha = 0."""
    draws = [(*distinct_squares(rng, 3), rand_fraction(rng)) for _ in range(8)]
    draws += [(*distinct_squares(rng, 3), 0) for _ in range(3)]
    draws += [(2, 3, 5, 1), (3, 7, 2, 2), (5, 2, 9, 0), (2, F(3, 4), 7, -3)]
    return draws


def test_relation_checks_match_the_uncleared_fraction_products(rng, monkeypatch):
    cleared = []
    clear = vertex._cleared
    monkeypatch.setattr(vertex, "_cleared", lambda m4: cleared.append(1) or clear(m4))
    draws = _draws(rng)
    for u, v, w, alpha in draws:
        a, c, d = (rand_fraction(rng) for _ in range(3))
        checks = [
            (rll_check(u, v, alpha), _reference_rll(u, v, lambda x: l_matrix(x, alpha))),
            (ybe_check(u, v, w), _reference_ybe(u, v, w)),
            (rtilde_check(u, v, w, alpha), _reference_rtilde(u, v, w, alpha)),
        ]
        for b in (a * d, a * d + 1):  # the family, and one that breaks B = AD
            def build(x, b=b):
                return ansatz_l_matrix(x, a, b, c, d, lambda t: t)
            checks.append((rll_check(u, v, None, l_builder=build), _reference_rll(u, v, build)))
        verdicts = [new for new, _ in checks]
        assert verdicts == [ref for _, ref in checks], (u, v, w, alpha)
        assert verdicts == [True, True, True, True, False], (u, v, w, alpha)
    assert len(cleared) == 3 * 5 * len(draws)  # every factor of every draw was cleared


def _perturbed(build, entry):
    """``build`` with 1 added to one entry of the 4x4 matrix it returns."""
    def wrong(*args):
        m = build(*args)
        m[entry] = m[entry] + 1
        return m
    return wrong


_NONZERO = ((0, 0), (1, 2), (2, 1), (2, 2), (3, 3))


@pytest.mark.parametrize("u, v, w, alpha", [(F(2, 3), F(5, 7), F(9, 5), F(3, 4)), (2, 3, 5, 2)])
def test_one_wrong_entry_in_any_factor_breaks_each_relation(monkeypatch, u, v, w, alpha):
    assert rll_check(u, v, alpha) and ybe_check(u, v, w) and rtilde_check(u, v, w, alpha)
    for entry in _NONZERO:
        # rll: R(u, v), L(u) and L(v)
        with monkeypatch.context() as m:
            m.setattr(vertex, "r_matrix", _perturbed(r_matrix, entry))
            assert not rll_check(u, v, alpha), entry
        for at in (u, v):
            def build(x, at=at, entry=entry):
                return _perturbed(l_matrix, entry)(x, alpha) if x == at else l_matrix(x, alpha)
            assert not rll_check(u, v, alpha, l_builder=build), (entry, at)
        # ybe: R(u, v), R(u, w) and R(v, w)
        for pair in ((u, v), (u, w), (v, w)):
            def r_at(a, b, pair=pair, entry=entry):
                return _perturbed(r_matrix, entry)(a, b) if (a, b) == pair else r_matrix(a, b)
            with monkeypatch.context() as m:
                m.setattr(vertex, "r_matrix", r_at)
                assert not ybe_check(u, v, w), (entry, pair)
        # rtilde: R~(w_j / w_k), L(u / w_k) and L(u / w_j)
        with monkeypatch.context() as m:
            m.setattr(vertex, "rtilde_matrix", _perturbed(rtilde_matrix, entry))
            assert not rtilde_check(u, v, w, alpha), entry
        for at in (F(u) / w, F(u) / v):
            def l_at(x, a, at=at, entry=entry):
                return _perturbed(l_matrix, entry)(x, a) if x == at else l_matrix(x, a)
            with monkeypatch.context() as m:
                m.setattr(vertex, "l_matrix", l_at)
                assert not rtilde_check(u, v, w, alpha), (entry, at)
    assert not appendix_a_family_check(F(2), F(3), F(5), lambda x: x, B=F(10) + F(1, 7))


def test_complex_factors_stay_unscaled(monkeypatch):
    # a complex entry in any factor gives the None cleared_type: no factor is cleared
    def refuse(m4):
        raise AssertionError("a factor was cleared on the None lane")

    u, v, w, alpha = 1.1 - 0.2j, 0.4 + 0.9j, 1.7 + 0.1j, 0.6 + 0.1j
    cases = [
        (lambda: rll_check(u, v, alpha),
         lambda: _reference_rll(u, v, lambda t: l_matrix(t, alpha))),
        (lambda: ybe_check(u, v, w), lambda: _reference_ybe(u, v, w)),
        (lambda: rtilde_check(u, v, w, alpha),
         lambda: _reference_holds((rtilde_matrix(v / w, alpha), (1, 2)),
                                  (l_matrix(u / w, alpha), (0, 2)),
                                  (l_matrix(u / v, alpha), (0, 1)))),
        # a rational R beside complex L factors, and rational L factors beside a complex R~
        (lambda: rll_check(F(2, 3), F(5, 7), alpha),
         lambda: _reference_rll(F(2, 3), F(5, 7), lambda t: l_matrix(t, alpha))),
        (lambda: rtilde_check(F(2, 3), F(5, 7), F(9, 5), 1j),
         lambda: _reference_rtilde(F(2, 3), F(5, 7), F(9, 5), 1j)),
        # a wrong complex entry is still seen
        (lambda: rll_check(u, v, alpha, l_builder=_perturbed(lambda t: l_matrix(t, alpha), (2, 2))),
         lambda: False),
    ]
    references = [reference() for _, reference in cases]
    monkeypatch.setattr(vertex, "_cleared", refuse)
    assert [check() for check, _ in cases] == references
    assert references == [True] * 5 + [False]


def test_field_factors_are_cleared_into_their_ring(monkeypatch):
    # as on the determinant side, field factors are cleared into the field's
    # polynomial ring, and the verdicts are those of the uncleared products
    from sympy import ZZ
    from sympy.polys.fields import field

    k, a, x, y, z = field("a,x,y,z", ZZ)
    cleared, clear = [], vertex._cleared

    def recorded(m4):
        out = clear(m4)
        cleared.append(all(type(e) is int or e.ring == k.ring for row in out.data for e in row))
        return out

    cases = [
        (lambda: rll_check(x, y, a), lambda: _reference_rll(x, y, lambda t: l_matrix(t, a))),
        (lambda: ybe_check(x, y, z), lambda: _reference_ybe(x, y, z)),
        (lambda: rtilde_check(x, y, z, a),
         lambda: _reference_holds((rtilde_matrix(y / z, a), (1, 2)),
                                  (l_matrix(x / z, a), (0, 2)), (l_matrix(x / y, a), (0, 1)))),
        # field factors beside a rational R
        (lambda: rll_check(F(2, 3), F(5, 7), a),
         lambda: _reference_rll(F(2, 3), F(5, 7), lambda t: l_matrix(t, a))),
        # a wrong field entry is still seen
        (lambda: rll_check(x, y, a, l_builder=_perturbed(lambda t: l_matrix(t, a), (2, 2))),
         lambda: False),
    ]
    references = [reference() for _, reference in cases]
    monkeypatch.setattr(vertex, "_cleared", recorded)
    assert [check() for check, _ in cases] == references
    assert references == [True] * 4 + [False]
    assert cleared == [True] * 3 * len(cases)


def test_embed_two_site_repr_matches_the_bit_loop(rng):
    entries = [0, 3, -7, F(0), F(2, 3), 0.0, -0.0, 1.5, 0j, 2 - 1j, complex(0, -0.0)]
    for _ in range(20):
        m4 = Matrix([[rng.choice(entries) for _ in range(4)] for _ in range(4)])
        for pos in ((0, 1), (0, 2), (1, 2)):
            assert repr(embed_two_site(m4, pos)) == repr(_reference_embed(m4, pos)), (m4, pos)
    assert repr(embed_two_site(r_matrix(F(2), F(1)), (0, 2))) \
        == repr(_reference_embed(r_matrix(F(2), F(1)), (0, 2)))


def test_int_spectral_values_stay_exact_in_the_vertex_checks(monkeypatch):
    # 1/u, w_j/w_k and u/w_k were float at int arguments; they are exact_pow/exact_div now
    def exact(m):
        return all(type(x) in (int, F) for row in m.data for x in row)

    assert rtilde_matrix(2, 1)[2, 2] == F(3, 2) and exact(rtilde_matrix(2, 1))
    m = ansatz_l_matrix(2, 1, 1, 1, 1, lambda u: 1)
    assert m[2, 2] == F(3, 2) and exact(m)
    cleared = []
    clear = vertex._cleared
    monkeypatch.setattr(vertex, "_cleared", lambda m4: cleared.append(m4) or clear(m4))
    assert rtilde_check(F(2, 3), 2, 3, F(1, 2)) and rll_check(2, 3, 1) and ybe_check(2, 3, 5)
    assert len(cleared) == 9 and all(exact(m4) for m4 in cleared)
    # the R~ factor is that of the Fraction arguments
    assert repr(cleared[0]) == repr(rtilde_matrix(F(2, 3), F(1, 2)))

