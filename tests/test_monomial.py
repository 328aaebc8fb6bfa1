from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hankelmod2.cli import REGISTRY, run_suite
from hankelmod2.closedform import (
    d_shift_generic,
    generic_D,
    generic_T,
    generic_d,
    generic_t,
    specialize_det,
    specialize_poly,
)
from hankelmod2.exactring import LaurentPoly
from hankelmod2.monomial import XVAR, Exponents, Monomial
from reference import poly_div, poly_eval, poly_pow, poly_specialize
from test_exactring import polys

KEYS = st.integers(min_value=-1, max_value=5)  # -1 is XVAR


@st.composite
def pairs(draw, coeffs=st.integers(-9, 9)):
    """A Monomial and the equal one-term LaurentPoly."""
    coeff = draw(coeffs)
    exps = draw(st.dictionaries(KEYS, st.integers(-4, 4), max_size=4))
    items = sorted((k, e) for k, e in exps.items() if e)
    return Monomial(coeff, items), LaurentPoly.monomial(coeff, exps)


def assert_same(mono, poly):
    assert isinstance(mono, Monomial)
    assert str(mono) == str(poly)
    assert mono == poly and poly == mono
    assert hash(mono) == hash(poly)


@given(pairs())
@settings(max_examples=200, deadline=None)
def test_str_neg_and_equality_match_laurentpoly(pair):
    mono, poly = pair
    assert_same(mono, poly)
    assert_same(-mono, -poly)
    assert Monomial.of(poly) == mono and Monomial.of(mono) is mono
    assert mono.is_zero() == poly.is_zero() and mono.is_monomial() == poly.is_monomial()


@given(pairs(), pairs(), KEYS)
@settings(max_examples=200, deadline=None)
def test_product_matches_laurentpoly(a, b, k):
    (ma, pa), (mb, pb) = a, b
    assert_same(ma * mb, pa * pb)
    assert_same(ma * pb, pa * pb)  # a closed form times an oracle value
    assert_same(pa * mb, pa * pb)
    assert_same(ma * LaurentPoly.variable(k), pa * LaurentPoly.variable(k))
    assert_same(ma / LaurentPoly.variable(k), poly_div(pa, LaurentPoly.variable(k)))
    assert_same(3 * ma, 3 * pa)


@given(pairs(), pairs(st.sampled_from((1, -1, 2, -3))))
@settings(max_examples=200, deadline=None)
def test_division_matches_laurentpoly(a, b):
    (ma, pa), (mb, pb) = a, b
    try:
        want = poly_div(pa, pb)
    except ValueError:
        with pytest.raises(ValueError):
            ma / mb
        return
    assert_same(ma / mb, want)


@given(pairs(st.integers(-3, 3)), st.integers(-3, 3))
@settings(max_examples=200, deadline=None)
def test_power_matches_laurentpoly(a, e):
    mono, poly = a
    assume(not (mono.is_zero() and e < 0))
    try:
        want = poly_pow(poly, e)
    except ValueError:
        with pytest.raises(ValueError):
            mono ** e
        return
    assert_same(mono ** e, want)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        Monomial(0) ** -1
    with pytest.raises(ZeroDivisionError):
        Monomial(1) / Monomial(0)


TABLE_VALUES = st.tuples(st.sampled_from((-2, -1, 0, 1, 2)), st.integers(-3, 3))


@given(pairs(), st.fixed_dictionaries({k: TABLE_VALUES for k in range(-1, 6)}))
@settings(max_examples=200, deadline=None)
def test_specialize_matches_laurentpoly(a, table):
    mono, poly = a
    try:
        want = poly_specialize(poly, table)
    except ValueError:
        with pytest.raises(ValueError):
            mono.specialize(table)
        return
    got = mono.specialize(table)
    assert_same(got, want)
    assert all(k == XVAR for k, _ in got.exps)


NONZERO = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=7)


@given(pairs(), st.fixed_dictionaries({k: NONZERO for k in range(-1, 6)}))
@settings(max_examples=200, deadline=None)
def test_eval_matches_laurentpoly(a, assignment):
    mono, poly = a
    try:
        want = poly_eval(poly, assignment)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            mono.eval(assignment)
        return
    assert mono.eval(assignment) == want


def test_eval_needs_every_variable():
    with pytest.raises(KeyError):
        Monomial(1, [(1, 2)]).eval({0: 3})


def test_monomial_parts_read_as_a_map():
    coeff, exps = Monomial(-2, [(XVAR, 3), (0, -1), (4, 2)]).monomial_parts()
    assert coeff == -2 and isinstance(exps, Exponents)
    assert list(exps.items()) == [(XVAR, 3), (0, -1), (4, 2)]
    assert (exps.get(0), exps.get(4), exps.get(1), exps.get(1, None)) == (-1, 2, 0, None)
    with pytest.raises(ValueError):
        Monomial(0).monomial_parts()


def test_zero_drops_its_exponents():
    zero = Monomial(0, [(1, 3)])
    assert zero.exps == () and str(zero) == "0" and zero == 0 and zero == LaurentPoly.zero()
    assert Monomial(5, [(1, 3)]) * zero == 0


MIXED = st.one_of(
    st.integers(-3, 3),
    polys(),
    pairs(st.integers(-3, 3)).map(lambda pair: pair[0]),
)


@given(st.lists(MIXED, min_size=2, max_size=6))
@settings(max_examples=300, deadline=None)
def test_equal_values_hash_alike(values):
    for a in values:
        for b in values:
            assert (a == b) == (b == a), (a, b)
            if a == b:
                assert hash(a) == hash(b), (a, b)


def test_equal_constants_share_a_set_slot():
    assert len({generic_d(0), 1}) == 1
    assert len({LaurentPoly.zero(), 0, Monomial(0), d_shift_generic(2, 3)}) == 1
    assert len({LaurentPoly.constant(-1), Monomial(-1), -1}) == 1
    assert len({generic_d(5), LaurentPoly.monomial(1, {0: 1, 2: 2, 3: 2})}) == 1


def test_a_sum_compares_unequal_and_prints_whole():
    x0 = LaurentPoly.variable(0)
    two_terms = LaurentPoly.one() + x0
    assert Monomial.of(two_terms) is None
    assert Monomial(1) != two_terms and two_terms != Monomial(1)
    assert Monomial.of("x0") is None and Monomial(1) != "1"
    assert run_suite([("label", Monomial(1, [(0, 1)]), two_terms)]) == (1, ["label: got x0, want 1 + x0"])


# ---------------------------------------------------------------------------
# every closed form returns a canonical Monomial
# ---------------------------------------------------------------------------

SHIFTS = (0, 1, 2, 3, 8, 64)


def assert_canonical(value):
    assert isinstance(value, Monomial) and isinstance(value.exps, tuple), repr(value)
    keys = [k for k, _ in value.exps]
    assert all(a < b for a, b in zip(keys, keys[1:])), keys
    assert all(isinstance(e, int) and e for _, e in value.exps)
    assert value.coeff or not value.exps


def closed_form_values(n):
    for m in SHIFTS:
        for method in ("profile", "recurrence"):
            yield d_shift_generic(n, m, method)
    for method in ("profile", "recurrence"):
        yield generic_d(n, method)
        yield generic_D(n, method)
    yield generic_T(n)
    yield generic_t(n)
    for kind in ("powers", "doubling"):
        yield specialize_det(kind, False, n)
        yield specialize_det(kind, True, n)
        yield specialize_poly(generic_T(n), kind)
    yield specialize_poly(generic_D(n), "grs")
    for (seq, rule), entry in REGISTRY.items():
        if rule != "unit":
            for m in SHIFTS if seq == "d" else (0,):
                if m >= entry.min_m:
                    yield entry.value(n, m)


def test_closed_forms_are_canonical_at_small_n():
    for n in range(301):
        for value in closed_form_values(n):
            assert_canonical(value)


@given(st.integers(1 << 4095, (1 << 4096) - 1), st.sampled_from((None, 0, 1)))
@settings(max_examples=10, deadline=None)
def test_closed_forms_are_canonical_at_4096_bits(n, point):
    if point is not None:  # n on the support of every shift up to 64
        n -= n % 128 + (64 if point else 0)
    for m in SHIFTS:
        for method in ("profile", "recurrence"):
            value = d_shift_generic(n, m, method)
            assert_canonical(value)
            assert value == d_shift_generic(n, m, "recurrence" if method == "profile" else "profile")
    for value in (generic_T(n), generic_t(n), specialize_det("powers", True, n),
                  specialize_det("doubling", False, n)):
        assert_canonical(value)
