import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelmod2.closedform import T_int, favard_st
from hankelmod2.contfrac import (
    CFSpec,
    IDENTITIES,
    MAX_ORDER,
    InsufficientDepthError,
    cf_expand,
    target_series,
    verify_identity,
)
from hankelmod2.hankel import SequenceRule, build_matrix, det_oracle
from hankelmod2.seq import grs_r


def catalan_prefix(n):
    # independent convolution oracle: C_0 = 1, C_{k+1} = sum C_i C_{k-i}
    c = [1]
    for k in range(n - 1):
        c.append(sum(c[i] * c[k - i] for i in range(k + 1)))
    return c


class TruncatedSeries:
    """Power series over Fraction truncated at z**order: the ring that the
    reference expansion below inverts in."""

    def __init__(self, coeffs, order):
        cs = [Fraction(c) for c in coeffs][:order]
        self.order = order
        self.coeffs = tuple(cs + [Fraction(0)] * (order - len(cs)))

    @classmethod
    def one(cls, order):
        return cls([1], order)

    def __add__(self, other):
        order = min(self.order, other.order)
        return TruncatedSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], order)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        order = min(self.order, other.order)
        out = [Fraction(0)] * order
        for i in range(order):
            for j in range(order - i):
                out[i + j] += self.coeffs[i] * other.coeffs[j]
        return TruncatedSeries(out, order)

    def scale(self, c):
        return TruncatedSeries([a * c for a in self.coeffs], self.order)

    def shift(self, k=1):
        """Multiply by z**k (truncating)."""
        return TruncatedSeries([0] * k + list(self.coeffs), self.order)

    def inverse(self):
        """Multiplicative inverse mod z**order; the constant term must be a unit."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        inv = [1 / c0]
        for n in range(1, self.order):
            inv.append(-sum(self.coeffs[i] * inv[n - i] for i in range(1, n + 1)) / c0)
        return TruncatedSeries(inv, self.order)

    def __eq__(self, other):
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)}, order={self.order})"


def reference_expand(spec, order):
    # independent reference: bottom-up over every level the spec has, tail
    # set to 1, one series inversion per level; the coefficient tuple
    one = TruncatedSeries.one(order)
    g = one
    if spec.shape == "s":
        for c in reversed(spec.linear):
            g = (one - g.scale(c).shift(1)).inverse()
        return g.coeffs
    for s, t in reversed(list(zip(spec.linear, spec.quadratic))):
        g = (one - TruncatedSeries([0, s], order) - g.scale(t).shift(2)).inverse()
    return g.coeffs


def test_series_inverse_examples():
    s = TruncatedSeries([1, -1], 4)  # 1 - z
    assert s.inverse() == TruncatedSeries([1, 1, 1, 1], 4)
    assert TruncatedSeries([1], 3).inverse() == TruncatedSeries([1], 3)
    assert TruncatedSeries([1, 1], 3).inverse() == TruncatedSeries([1, -1, 1], 3)


def test_series_inverse_requires_unit():
    with pytest.raises(ZeroDivisionError):
        TruncatedSeries([0, 1], 3).inverse()


def test_series_order_is_min_of_operands():
    a = TruncatedSeries([1, 2, 3], 3)
    b = TruncatedSeries([1, 1], 2)
    assert (a * b).order == 2
    assert (a + b).order == 2


@given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
def test_series_inverse_property(coeffs):
    order = len(coeffs)
    s = TruncatedSeries(coeffs, order)
    assert s * s.inverse() == TruncatedSeries.one(order)


coefficients = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(min_value=-5, max_value=5),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@st.composite
def fractions_with_order(draw):
    order = draw(st.integers(min_value=1, max_value=24))
    shape = draw(st.sampled_from("sj"))
    # required depth (order levels for s, ceil(order/2) for j) plus extra
    depth = (order if shape == "s" else (order + 1) // 2) + draw(st.integers(0, 3))
    linear = draw(st.lists(coefficients, min_size=depth, max_size=depth))
    if shape == "s":
        return CFSpec.s_fraction(linear), order
    quadratic = draw(st.lists(coefficients, min_size=depth, max_size=depth))
    return CFSpec.j_fraction(linear, quadratic), order


@given(fractions_with_order())
@settings(max_examples=120, deadline=None)
def test_path_sum_matches_inversion_reference(case):
    spec, order = case
    assert cf_expand(spec, order) == reference_expand(spec, order)


def test_catalan_expansion():
    spec = CFSpec.s_fraction([1] * 5)
    assert cf_expand(spec, 5) == tuple(catalan_prefix(5))
    assert catalan_prefix(5) == [1, 1, 2, 5, 14]


def test_s_fraction_with_T_coefficients():
    spec = CFSpec.s_fraction([T_int(k) for k in range(33)])
    assert cf_expand(spec, 33) == target_series(33)


def test_j_fraction_with_favard_coefficients():
    pairs = [favard_st(k) for k in range(17)]
    spec = CFSpec.j_fraction([s for s, _ in pairs], [t for _, t in pairs])
    assert cf_expand(spec, 33) == target_series(33)


def test_target_series_examples():
    assert target_series(8) == (1, 1, 0, 1, 0, 0, 0, 1)
    assert target_series(8, alternating=True) == (1, -1, 0, 1, 0, 0, 0, -1)
    assert target_series(1) == (1,)


def test_verify_identities_at_64():
    assert verify_identity("eq217", 64)
    assert verify_identity("eq228", 64)
    assert verify_identity("eq08", 64)
    assert set(IDENTITIES) == {"eq217", "eq228", "eq08"}


def test_verify_identities_at_max_order():
    for which in IDENTITIES:
        assert verify_identity(which, MAX_ORDER), which


def test_verify_identity_guards():
    with pytest.raises(ValueError):
        verify_identity("eq217", MAX_ORDER + 1)
    with pytest.raises(ValueError):
        verify_identity("nope", 16)


def test_eq08_displayed_sign_prefix():
    # the four displayed levels of the alternating fraction: +z, -z, +z, -z
    assert [grs_r(n) * grs_r(n + 2) for n in range(4)] == [1, -1, 1, -1]
    # ... but the pattern is not strictly periodic further out
    assert grs_r(4) * grs_r(6) == -1


def test_depth_guard():
    with pytest.raises(InsufficientDepthError):
        cf_expand(CFSpec.s_fraction([1, 1, 1]), 4)
    with pytest.raises(InsufficientDepthError):
        cf_expand(CFSpec.j_fraction([0, 0], [1, 1]), 5)
    # j-fraction needs only ceil(N/2) levels
    assert len(cf_expand(CFSpec.j_fraction([0, 0], [1, 1]), 4)) == 4


def test_depth_sufficiency_randomized():
    rng = random.Random(20210 + 42)
    for _ in range(25):
        n = rng.randrange(4, 24)
        coeffs = [rng.choice((1, -1)) for _ in range(n + 3)]
        base = cf_expand(CFSpec.s_fraction(coeffs[:n]), n)
        deeper = cf_expand(CFSpec.s_fraction(coeffs), n)
        assert base == deeper


def test_cfspec_validation():
    with pytest.raises(ValueError):
        CFSpec("q", (Fraction(1),))
    with pytest.raises(ValueError):
        CFSpec("s", ())
    with pytest.raises(ValueError):
        CFSpec("j", (Fraction(1),), ())
    with pytest.raises(ValueError):
        CFSpec("s", (Fraction(1),), (Fraction(1),))


def test_favard_t_matches_hankel_ratios():
    # t_n = H_n H_{n+2} / H_{n+1}^2 for the plain unit-rule moments
    dets = [det_oracle(build_matrix(SequenceRule("unit", 0), n)) for n in range(23)]
    for n in range(21):
        ratio = Fraction(dets[n] * dets[n + 2], dets[n + 1] ** 2)
        assert ratio == favard_st(n)[1], n
