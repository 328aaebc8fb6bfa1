from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelmod2.exactring import ExponentVector, LaurentPoly, UniPoly
from hankelmod2.monomial import XVAR, monomial_text, var_name
from reference import (
    parse_poly,
    poly_div,
    poly_eval,
    poly_pow,
    poly_variables,
    var_index_from_subscript,
)

x0 = LaurentPoly.variable(0)
x1 = LaurentPoly.variable(1)
x3 = LaurentPoly.variable(2)
x7 = LaurentPoly.variable(3)


def test_poly_mul_examples():
    assert x1 * x1 == LaurentPoly.monomial(1, {1: 2})
    ratio = LaurentPoly.monomial(1, {2: 1, 1: -1})  # x3/x1
    assert ratio * poly_pow(x1, 2) == x1 * x3
    assert (1 + x0) * (1 - x0) == 1 - poly_pow(x0, 2)


def test_monomial_product_stays_monomial():
    a = LaurentPoly.monomial(-3, {0: 2, 2: -1})
    b = LaurentPoly.monomial(2, {2: 1, 4: 5})
    assert (a * b).is_monomial()
    assert a * b == LaurentPoly.monomial(-6, {0: 2, 4: 5})


def test_poly_eval_examples():
    p = LaurentPoly.monomial(1, {0: 1, 2: 2, 3: 2})  # x0*x3^2*x7^2
    assert poly_eval(p, {0: 1, 2: 1, 3: 1}) == 1
    assert poly_eval(x1, {1: -3}) == -3
    ratio = LaurentPoly.monomial(1, {2: 1, 1: -1})
    assert poly_eval(ratio, {2: 4, 1: 2}) == 2


def test_poly_eval_errors():
    ratio = LaurentPoly.monomial(1, {2: 1, 1: -1})
    with pytest.raises(ZeroDivisionError):
        poly_eval(ratio, {2: 4, 1: 0})
    with pytest.raises(KeyError):
        poly_eval(ratio, {2: 4})


def test_exponent_vector_canonical():
    ev = ExponentVector([(3, 0), (1, 2), (0, 1)])
    assert ev.items() == ((0, 1), (1, 2))  # zero exponents dropped, sorted


def test_exponent_vector_hash_is_order_free():
    a = ExponentVector([(3, 2), (0, 1), (5, -1)])
    b = ExponentVector.from_dict({5: -1, 0: 1, 3: 2, 7: 0})
    c = ExponentVector([(0, 1), (1, 4)]).combine(ExponentVector([(5, -1), (1, -4), (3, 2)]))
    hash(a)  # a's hash is computed before the others exist as keys
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert {a: "a"}[b] == "a" and {b: "b"}[c] == "b" and {c: "c"}[a] == "c"
    assert LaurentPoly({a: 1}) + LaurentPoly({b: 1}) == LaurentPoly({c: 2})


def test_var_names_past_the_fixed_table():
    for k in (0, 1, 63, 64, 65, 4096):
        assert var_name(k) == f"x{(1 << k) - 1}"
        assert var_index_from_subscript(var_name(k)[1:]) == k
    assert var_name(XVAR) == "x"
    big = f"x{(1 << 64) - 1}"
    assert str(LaurentPoly.monomial(-3, {64: 2, 0: -1, 63: 1})) == f"-3*x{(1 << 63) - 1}*{big}^2/x0"
    assert parse_poly(f"{big}^2/x0^3") == LaurentPoly.monomial(1, {64: 2, 0: -3})


def test_rendering_examples():
    d11 = LaurentPoly.monomial(-1, {0: 1, 2: 2, 3: 2, 4: 6})
    assert str(d11) == "-x0*x3^2*x7^2*x15^6"
    assert str(LaurentPoly.monomial(1, {2: 1, 1: -1})) == "x3/x1"
    assert str(LaurentPoly.monomial(-1, {1: 1, 3: 1, 2: -2})) == "-x1*x7/x3^2"
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly.constant(-2)) == "-2"
    assert str(LaurentPoly.monomial(1, {1: -2})) == "1/x1^2"
    assert str(LaurentPoly.variable(XVAR, 10)) == "x^10"
    assert str(1 - poly_pow(x0, 2)) == "1 - x0^2"


def _term_str_reference(ev, c):
    """The term renderer monomial_text replaced, kept as the reference."""
    num, den = [], []
    for k, e in ev.items():
        power = abs(e)
        (num if e > 0 else den).append(var_name(k) if power == 1 else f"{var_name(k)}^{power}")
    mag = abs(c)
    if mag != 1 or not num:
        num.insert(0, str(mag))
    s = "*".join(num)
    if den:
        s += "/" + "*".join(den)
    return ("-" if c < 0 else "") + s


def _str_reference(p):
    """The polynomial text from the reference term renderer."""
    out = ""
    for ev, c in p.terms():
        t = _term_str_reference(ev, abs(c))
        out = ("-" if c < 0 else "") + t if not out else out + (" - " if c < 0 else " + ") + t
    return out or "0"


def test_monomial_text_matches_the_reference_renderer():
    exps = [{}, {0: 1}, {2: 1, 1: -1}, {1: 1, 3: 1, 2: -2}, {0: -1, 1: -3}, {XVAR: 10},
            {XVAR: -1}, {64: 2, 0: -1, 63: 1}, {0: 1, 2: 2, 3: 2, 4: 6}, {5: 1, 1: 2, 3: 1}]
    for e in exps:
        ev = ExponentVector.from_dict(e)
        for c in (1, -1, 2, -3, 0, 10**20):
            assert monomial_text(c, ev.items()) == _term_str_reference(ev, c), (e, c)
    assert monomial_text(1, ()) == "1" and monomial_text(-1, ()) == "-1"
    assert monomial_text(0, ()) == "0" and monomial_text(-7, ()) == "-7"
    assert monomial_text(1, ((0, 1), (2, 1))) == "x0*x3"
    assert monomial_text(1, ((1, -1),)) == "1/x1"
    assert monomial_text(-2, ((0, 3), (1, -1), (2, 1), (3, -2))) == "-2*x0^3*x3/x1*x7^2"
    p = 1 - 3 * poly_pow(x0, 2) + poly_div(x1 * x7, poly_pow(x3, 2)) - 2 * poly_pow(x3, -1) + 5
    assert str(p) == _str_reference(p) == "6 - 3*x0^2 + x1*x7/x3^2 - 2/x3"


def test_parse_round_trip_samples():
    for text in (
        "0", "1", "-1", "x0", "-x0*x3^2*x7^2*x15^6", "x3/x1", "-x1*x7/x3^2",
        "2*x1", "-3/x7^2", "x^10", "-x^4", "1 - x0^2", "x1^2 + x3",
    ):
        assert str(parse_poly(text)) == text


def test_parse_rejects_bad_subscript():
    with pytest.raises(ValueError):
        parse_poly("x5")


def test_division_is_exact_monomial_division():
    num = LaurentPoly.monomial(-1, {1: 1, 2: 1})  # -x1*x3
    den = LaurentPoly.monomial(1, {1: 2})
    assert poly_div(num, den) == LaurentPoly.monomial(-1, {2: 1, 1: -1})
    with pytest.raises(ValueError):
        poly_div(x0 + x1, x0 + x1)  # divisor must be a monomial


def test_pow_negative_inverts_monomial():
    m = LaurentPoly.monomial(-1, {2: 3})
    assert poly_pow(m, -2) == LaurentPoly.monomial(1, {2: -6})


small_ints = st.integers(min_value=-9, max_value=9)


@st.composite
def polys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=5))
    p = LaurentPoly.zero()
    for _ in range(n_terms):
        coeff = draw(small_ints)
        exps = draw(
            st.dictionaries(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=-3, max_value=3),
                max_size=3,
            )
        )
        p = p + LaurentPoly.monomial(coeff, exps)
    return p


@given(polys(), polys(), polys())
@settings(max_examples=150, deadline=None)
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys(), polys(), st.data())
@settings(max_examples=150, deadline=None)
def test_eval_is_ring_homomorphism(p, q, data):
    variables = poly_variables(p) | poly_variables(q)
    assignment = {
        k: data.draw(
            st.fractions(
                min_value=Fraction(-5), max_value=Fraction(5), max_denominator=7
            ).filter(lambda f: f != 0),
            label=f"x[{k}]",
        )
        for k in variables
    }
    assert poly_eval(p * q, assignment) == poly_eval(p, assignment) * poly_eval(q, assignment)
    assert poly_eval(p + q, assignment) == poly_eval(p, assignment) + poly_eval(q, assignment)


@given(polys())
@settings(max_examples=150, deadline=None)
def test_parse_round_trip_random(p):
    assert parse_poly(str(p)) == p


@given(polys())
@settings(max_examples=300, deadline=None)
def test_str_matches_the_reference_renderer(p):
    assert str(p) == _str_reference(p)
    for ev, c in p.terms():
        assert monomial_text(c, ev.items()) == _term_str_reference(ev, c)


def test_unipoly_basics():
    p = UniPoly([-1, 0, 1])
    assert str(p) == "x^2 - 1"
    assert p.degree == 2
    assert p * UniPoly([1, 1]) == UniPoly([-1, -1, 1, 1])
    assert p - p == UniPoly([])
    assert p.shift_up() == UniPoly([0, -1, 0, 1])
    assert UniPoly([0, 0, 0]) == UniPoly([])  # trailing zeros trimmed

