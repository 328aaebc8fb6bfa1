import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelmod2 import closedform
from hankelmod2.cli import run_suite
from hankelmod2.closedform import (
    D_METHODS,
    D_sign,
    T_METHODS,
    T_int,
    blocks_sign,
    conjecture38_checks,
    conjecture_epsilon,
    d_shift_generic,
    d_shift_int,
    d_sign,
    favard_st,
    generic_D,
    generic_T,
    generic_d,
    generic_t,
    nimble_blocks,
    ratio_h,
    shift_profile,
    shift_support,
    specialize_det,
    specialize_poly,
)
from hankelmod2.exactring import XVAR, LaurentPoly
from hankelmod2.hankel import SequenceRule, build_matrix, det_oracle
from hankelmod2.seq import (
    digit_sum,
    grs_r,
    nonsquash_b,
    ones_total,
    paperfolding_s,
)

P = LaurentPoly.parse

D_PREFIX = [1, 1, 1, -1, -1, -1, 1, -1, -1, -1, -1, 1]
T_PREFIX = [1, -1, -1, 1, -1, 1, -1, 1, 1, -1, 1, -1, -1, 1, -1, 1]
S_FAVARD_PREFIX = [1, -2, 0, 0, 2, 0, -2, 0, 2, -2, 0]
D_GENERIC_PREFIX = ["1", "x1", "x1*x3", "-x3^3", "-x3^3*x7", "-x1*x3*x7^3", "x1*x7^5", "-x7^7"]
d_GENERIC_PREFIX = ["1", "x0", "-x1^2", "-x0*x3^2", "x3^4", "x0*x3^2*x7^2",
                    "-x1^2*x7^4", "-x0*x7^6", "x7^8"]
T_GENERIC_PREFIX = ["x3/x1", "-x3/x1", "-x1*x7/x3^2", "x1*x7/x3^2",
                    "-x3/x1", "x3/x1", "-x1*x15/x7^2", "x1*x15/x7^2"]
D_SHIFT2_PREFIX = [1, 0, -1, 0, 1, 0, -1, 0]
D_SHIFT3_PREFIX = [1, 1, 0, 0, -1, 1, 0, 0, -1, -1, 0, 0]
D_SHIFT3_GENERIC_PREFIX = ["1", "x3", "0", "0", "-x3*x7^3", "x7^5", "0", "0",
                           "-x7^5*x15^3", "-x3*x7^3*x15^5", "0", "0", "-x3*x15^11"]
D_SHIFT5_GENERIC_PREFIX = ["1", "0", "0", "-x7^3", "0", "0", "0", "0",
                           "-x7^3*x15^5", "0", "0", "-x15^11"]


def test_d_sign_examples():
    assert d_sign(0) == 1
    assert d_sign(5) == 1
    assert d_sign(3) == -1
    for n in range(200):
        assert d_sign(n) == (-1) ** (n * (n - 1) // 2)


def test_D_sign_examples():
    assert D_sign(5) == -1
    assert [D_sign(n) for n in range(12)] == D_PREFIX
    assert D_sign(9) == -1


def test_D_sign_methods_agree():
    product = 1  # running prod_{j<n} S(j) keeps the sweep linear
    for n in range(100001):
        delta = D_sign(n, "delta")
        assert delta == D_sign(n, "recurrence") == product, n
        product *= paperfolding_s(n)
    # the O(n) product form directly on a few points
    for n in (0, 7, 100, 513):
        assert D_sign(n, "paperfolding-product") == D_sign(n)
    with pytest.raises(ValueError):
        D_sign(3, "bogus")
    assert set(D_METHODS) == {"delta", "recurrence", "paperfolding-product"}


def test_T_examples():
    assert [T_int(n) for n in range(16)] == T_PREFIX
    for n in range(150):
        assert T_int(4 * n) == (-1) ** n
    for k in range(2, 9):
        for n in range(40):
            assert T_int((1 << (k + 1)) * n + (1 << k) - 2) == (-1) ** (n + 1), (k, n)


def test_T_methods_agree():
    for n in range(5001):
        ratio = T_int(n, "ratio")
        for method in ("recurrence", "structural", "nonsquash"):
            assert T_int(n, method) == ratio, (n, method)
    with pytest.raises(ValueError):
        T_int(3, "bogus")
    assert len(T_METHODS) == 4


def test_T_reflection():
    for k in range(2, 12):
        for n in range(1 << k, (1 << (k + 1)) - 2):
            assert T_int(n) == T_int((1 << (k + 1)) - 3 - n)


def test_T_nonsquash_coupling():
    for n in range(3000):
        assert T_int(n) == (-1) ** (nonsquash_b(n + 2) + 1)


def test_favard_examples():
    assert favard_st(0) == (1, -1)
    assert [favard_st(n)[0] for n in range(11)] == S_FAVARD_PREFIX
    for n in range(500):
        assert favard_st(n)[1] == -1
    for n in range(1, 2000):
        s = paperfolding_s(2 * n) * (paperfolding_s(2 * n - 1) + paperfolding_s(2 * n + 1))
        assert favard_st(n)[0] == s, n


def test_D_reflection_laws():
    for k in range(1, 12):
        p = 1 << k
        for n in range(p):
            assert D_sign(p + n) == (-1) ** n * D_sign(p - 1 - n), (k, n)
    for k in range(1, 11):
        p = 1 << k
        for n in range(2 * p):
            expect = -D_sign(n) if n < p else D_sign(n)
            assert D_sign(2 * p + n) == expect, (k, n)


def test_paperfolding_coupling():
    for n in range(100001):
        assert paperfolding_s(n) == D_sign(n) * D_sign(n + 1)


# The profile tables with one modulo per k, as the pieces were first stated;
# the references for the bit-slice profiles.


def _lambda_k(k, i):
    half = 1 << k
    quarter = half >> 1
    if i <= quarter:
        return 0
    if i <= half:
        return 2 * i - half
    if i <= half + quarter:
        return 3 * half - 2 * i
    return 0


def lambda_profile_loop(n):
    entries = {}
    for k in range(n.bit_length() + 1):
        e = _lambda_k(k, n % (1 << (k + 1)))
        if e:
            entries[k] = e
    return entries


def _mu_k(k, i):
    half = 1 << k
    quarter = half >> 1
    if i < quarter:
        return 0
    if i < half:
        return 2 * i - half + 1
    if i < half + quarter:
        return 3 * half - 2 * i - 1
    return 0


def mu_profile_loop(n):
    entries = {}
    for k in range(1, n.bit_length() + 1):
        e = _mu_k(k, n % (1 << (k + 1)))
        if e:
            entries[k] = e
    return entries


def test_profiles_match_loop_references():
    for n in range(1 << 14):
        assert shift_profile(n, 0) == lambda_profile_loop(n), n
        assert shift_profile(n, 1) == mu_profile_loop(n), n


@given(st.integers(1000, 10000).flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1)))
@settings(max_examples=20, deadline=None)
def test_profiles_match_loop_references_at_huge_n(n):
    assert shift_profile(n, 0) == lambda_profile_loop(n)
    assert shift_profile(n, 1) == mu_profile_loop(n)


def tent_profile_loop(n, m):
    """The one tent table with one modulo per k: e_k = max(0, h - |w - 2h|)
    with h = 2^k > m and w = (2n + m) mod 2^(k+2)."""
    entries = {}
    y = 2 * n + m
    k = m.bit_length()  # the least k with 2^k > m
    while (1 << k) <= y:
        h = 1 << k
        e = max(0, h - abs(y % (4 * h) - 2 * h))
        if e:
            entries[k] = e
        k += 1
    return entries


def test_shift_profile_matches_tent_reference():
    for m in range(65):
        for n in range(1 << 12):
            assert shift_profile(n, m) == tent_profile_loop(n, m), (n, m)


@given(st.integers(1000, 10000).flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1)),
       st.integers(0, 256))
@settings(max_examples=20, deadline=None)
def test_shift_profile_matches_tent_reference_at_huge_n(n, m):
    assert shift_profile(n, m) == tent_profile_loop(n, m)


def test_shift_profile_keys_ascend_with_nonzero_exponents():
    # dict equality ignores order, so the items are compared as lists
    for m in range(65):
        for n in list(range(1 << 10)) + [10**6 - 7, (1 << 64) - 3, 1 << 64, (1 << 64) + 5]:
            items = list(shift_profile(n, m).items())
            assert items == list(tent_profile_loop(n, m).items()), (n, m)
            assert items == sorted(items) and all(e > 0 for _, e in items), (n, m)


@given(st.integers(1000, 10000).flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1)),
       st.integers(0, 256))
@settings(max_examples=20, deadline=None)
def test_shift_profile_keys_ascend_at_huge_n(n, m):
    assert list(shift_profile(n, m).items()) == list(tent_profile_loop(n, m).items())


def test_shift_profile_matches_nimble_blocks():
    # exponents and sign of the block fold on every supported pair
    for m in range(65):
        for n in range(1 << 10):
            blocks = nimble_blocks(n, m)
            if blocks is None:
                continue
            exps = {}
            for k, length in blocks:
                exps[k] = exps.get(k, 0) + length
            assert shift_profile(n, m) == exps, (n, m)
            sign = (-1) ** sum(e * (e - 1) // 2 for e in exps.values())
            assert sign == blocks_sign(blocks), (n, m)


def test_shift_profile_rejects_negative_arguments():
    for n, m in ((-1, 0), (0, -1), (-3, 2)):
        with pytest.raises(ValueError):
            shift_profile(n, m)
        with pytest.raises(ValueError):
            d_shift_generic(n, m)
    with pytest.raises(ValueError):
        d_shift_generic(3, 2, "bogus")


def test_lambda_profile_examples():
    assert [shift_profile(n, 0).get(2, 0) for n in range(8)] == [0, 0, 0, 2, 4, 2, 0, 0]
    assert shift_profile(11, 0) == {0: 1, 2: 2, 3: 2, 4: 6}
    assert shift_profile(0, 0) == {}


def test_lambda_profile_periodic():
    for k in range(6):
        period = 1 << (k + 1)
        for n in range(512):
            assert shift_profile(n, 0).get(k, 0) == shift_profile(n % period, 0).get(k, 0)


def test_mu_profile_examples():
    assert shift_profile(11, 1) == {2: 3, 3: 1, 4: 7}
    assert shift_profile(0, 1) == {}
    for k in range(2, 9):
        assert shift_profile((1 << k) - 1, 1) == {k: (1 << k) - 1}


def test_profile_signs_match_determinant_signs():
    for n in range(10001):
        assert generic_d(n).monomial_parts()[0] == d_sign(n)
        assert generic_D(n).monomial_parts()[0] == D_sign(n)


def test_generic_d_printed_values():
    assert [str(generic_d(n)) for n in range(9)] == d_GENERIC_PREFIX
    assert generic_d(11) == P("-x0*x3^2*x7^2*x15^6")
    for k in range(2, 9):
        assert generic_d(1 << k) == LaurentPoly.monomial(1, {k: 1 << k})


def _huge_inputs(seed):
    """Sixteen seeded n of 1000 to 4000 bits."""
    rng = random.Random(seed)
    return [rng.getrandbits(bits) | (1 << (bits - 1))
            for bits in (rng.randint(1000, 4000) for _ in range(16))]


def test_generic_d_methods_agree():
    for n in range(4097):
        assert generic_d(n) == generic_d(n, "recurrence"), n
    for n in _huge_inputs(11):
        assert generic_d(n) == generic_d(n, "recurrence"), n


def test_generic_D_printed_values():
    assert [str(generic_D(n)) for n in range(8)] == D_GENERIC_PREFIX
    assert generic_D(11) == P("x3^3*x7*x15^7")
    for k in range(2, 9):
        assert generic_D((1 << k) - 1) == LaurentPoly.monomial(-1, {k: (1 << k) - 1})


def test_generic_D_methods_agree():
    for n in range(4097):
        assert generic_D(n) == generic_D(n, "recurrence"), n
    for n in _huge_inputs(12):
        assert generic_D(n) == generic_D(n, "recurrence"), n


def generic_T_ratio(n):
    """The ratio as LaurentPoly arithmetic on the three monomials."""
    return generic_D(n) * generic_D(n + 2) / (generic_D(n + 1) ** 2)


def generic_t_ratio(n):
    return generic_d(n) * generic_d(n + 2) / (generic_d(n + 1) ** 2)


def test_generic_ratios_match_monomial_arithmetic():
    for n in range(4097):
        assert generic_T(n) == generic_T_ratio(n), n
        assert generic_t(n) == generic_t_ratio(n), n
    # 2n + m all ones, or close to it: the longest runs of kinks
    all_ones = [(1 << bits) + d for bits in (64, 1000) for d in (-3, -2, -1, 0)]
    for n in _huge_inputs(13) + all_ones:
        assert generic_T(n) == generic_T_ratio(n), n
        assert generic_t(n) == generic_t_ratio(n), n


def _huge_with_trailing_ones():
    """n of 10^3 to 10^4 bits whose low bits end in a run of ones of any length."""
    return st.integers(1000, 10000).flatmap(
        lambda bits: st.tuples(st.integers(1 << (bits - 1), (1 << bits) - 1),
                               st.integers(0, bits))
    ).map(lambda nt: nt[0] | ((1 << nt[1]) - 1))


@given(_huge_with_trailing_ones())
@settings(max_examples=20, deadline=None)
def test_generic_ratios_match_monomial_arithmetic_at_huge_n(n):
    # the kink loop runs once per trailing one of 2n + m
    assert generic_T(n) == generic_T_ratio(n)
    assert generic_t(n) == generic_t_ratio(n)
    assert generic_T(n - 1) == generic_T_ratio(n - 1)


def test_generic_ratios_reject_negative_n():
    for ratio in (generic_T, generic_t):
        with pytest.raises(ValueError):
            ratio(-1)
        with pytest.raises(ValueError):
            ratio(-5)


def test_generic_T_printed_values():
    assert [str(generic_T(n)) for n in range(8)] == T_GENERIC_PREFIX


def test_generic_T_structural_laws():
    for n in range(300):
        assert generic_T(2 * n + 1) == -generic_T(2 * n)
        assert generic_T(4 * n) == LaurentPoly.monomial((-1) ** n, {2: 1, 1: -1})
    for k in range(2, 8):
        for n in range(20):
            expect = LaurentPoly.monomial((-1) ** n, {1: 1, k + 1: 1, k: -2})
            assert generic_T((1 << (k + 1)) * n + (1 << k) - 1) == expect, (k, n)
        assert generic_T((1 << k) - 2) == LaurentPoly.monomial(-1, {1: 1, k + 1: 1, k: -2})
    for k in range(2, 10):
        for n in range(1 << (k - 1), (1 << k) - 2):
            assert generic_T(n) == generic_T((1 << k) - 3 - n), (k, n)


def test_generic_t_cases():
    assert generic_t(0) == P("-x1^2/x0^2")
    assert generic_t(1) == P("-x0^2*x3^2/x1^4")
    assert generic_t(2) == P("-x1^2/x0^2")
    for n in range(0, 600, 2):
        assert generic_t(n) == P("-x1^2/x0^2")
    for n in range(1, 600, 2):
        k = ((n + 1) & -(n + 1)).bit_length()  # n = 2^k q + 2^{k-1} - 1
        expect = LaurentPoly.monomial(-1, {0: 2, k: 2, k - 1: -4})
        assert generic_t(n) == expect, n


def test_ratio_h():
    assert ratio_h(0) == P("x0")
    assert ratio_h(1) == P("-x0")
    assert ratio_h(6) == P("x0")
    for n in range(1000):
        assert ratio_h(n) == LaurentPoly.monomial((-1) ** n, {0: 1})


def test_specialize_closed_forms():
    for n in range(600):
        a2 = 2 * ones_total(n)
        assert specialize_det("powers", False, n) == \
            LaurentPoly.monomial(d_sign(n), {XVAR: a2} if a2 else {}), n
        e = ones_total(n) + ones_total(n + 1)
        assert specialize_det("powers", True, n) == \
            LaurentPoly.monomial(D_sign(n), {XVAR: e} if e else {}), n
        e = n * (n - 1)
        assert specialize_det("doubling", False, n) == \
            LaurentPoly.monomial(d_sign(n), {XVAR: e} if e else {}), n
        assert specialize_det("doubling", True, n) == \
            LaurentPoly.monomial(D_sign(n), {XVAR: n * n} if n else {}), n


def test_specialize_examples():
    assert specialize_det("powers", False, 5) == P("x^10")
    assert specialize_det("doubling", False, 4) == P("x^12")
    assert specialize_det("grs", True, 6) == -1


def test_specialize_grs_is_rudin_shapiro():
    for n in range(10001):
        assert specialize_det("grs", True, n) == grs_r(n)


def test_specialize_grs_needs_shift():
    with pytest.raises(ValueError):
        specialize_det("grs", False, 3)


def test_powers_T_exponent_law():
    for n in range(10001):
        coeff, ev = specialize_poly(generic_T(n), "powers").monomial_parts()
        assert ev.get(XVAR) == digit_sum(n + 2) - digit_sum(n), n
        assert coeff == T_int(n), n


def test_grs_T_coupling():
    # the grs image of T_n is r(n) r(n+2) (Hankel-ratio form of the
    # alternating continued fraction)
    for n in range(10001):
        got = specialize_poly(generic_T(n), "grs").constant_value()
        assert got == grs_r(n) * grs_r(n + 2), n


def test_d_shift_int_printed_lists():
    assert [d_shift_int(n, 2) for n in range(8)] == D_SHIFT2_PREFIX
    assert [d_shift_int(n, 3) for n in range(12)] == D_SHIFT3_PREFIX
    assert d_shift_int(7, 3) == 0
    for n in range(0, 300):
        assert d_shift_int(2 * n, 2) == (-1) ** n
        assert d_shift_int(2 * n + 1, 2) == 0


def _fold_sign(n, m):
    blocks = nimble_blocks(n, m)
    return 0 if blocks is None else blocks_sign(blocks)


def test_d_shift_int_matches_block_fold():
    for n in range(1 << 12):
        for m in range(65):
            assert d_shift_int(n, m) == _fold_sign(n, m), (n, m)


@given(_huge_with_trailing_ones(), st.integers(2, 300), st.sampled_from((None, 0, 1)))
@settings(max_examples=30, deadline=None)
def test_d_shift_int_matches_block_fold_at_huge_n(n, m, point):
    if point is not None:  # move n onto the support: 0 or -m mod 2^{K+1}
        period = 1 << (m - 1).bit_length()
        n -= n % period + (m if point else 0)
    assert d_shift_int(n, m) == _fold_sign(n, m)


def test_d_shift_int_rejects_negative_arguments():
    for n, m in ((-1, 0), (-1, 1), (-1, 2), (-4, 3), (-3, 64), (0, -1), (5, -2)):
        with pytest.raises(ValueError):
            d_shift_int(n, m)


def test_d_shift_int_delegates_small_shifts():
    for n in range(200):
        assert d_shift_int(n, 0) == d_sign(n)
        assert d_shift_int(n, 1) == D_sign(n)
    # the closed signs it delegates to agree with the interval-reversal blocks
    for n in range(4096):
        assert d_sign(n) == blocks_sign(nimble_blocks(n, 0)), n
        assert D_sign(n) == blocks_sign(nimble_blocks(n, 1)), n


def test_nimble_blocks_edge_cases():
    for m in range(10):
        assert nimble_blocks(0, m) == []
    assert nimble_blocks(6, 3) is None
    assert nimble_blocks(5, 0) == [(3, 2), (2, 2), (0, 1)]
    for n, m in ((-1, 0), (0, -1), (-3, 2)):
        with pytest.raises(ValueError):
            nimble_blocks(n, m)


def test_d_shift_generic_printed_lists():
    assert [str(d_shift_generic(n, 3)) for n in range(13)] == D_SHIFT3_GENERIC_PREFIX
    assert [str(d_shift_generic(n, 5)) for n in range(12)] == D_SHIFT5_GENERIC_PREFIX
    assert d_shift_generic(3, 5) == P("-x7^3")


def test_d_shift_generic_step_identity():
    x15 = LaurentPoly.variable(4)
    assert d_shift_generic(9, 3) == x15 ** 5 * d_shift_generic(4, 3)


def test_d_shift_support_rule():
    for m in range(2, 17):
        for n in range(0, 257):
            nonzero = d_shift_int(n, m) != 0
            assert nonzero == shift_support(n, m), (n, m)


def test_d_shift_against_oracle():
    for m in range(2, 7):
        for n in range(0, 33):
            mat_int = build_matrix(SequenceRule("unit", m), n)
            assert det_oracle(mat_int) == d_shift_int(n, m), (n, m)
    for m in range(2, 65):
        for n in range(0, 49):
            sym = det_oracle(build_matrix(SequenceRule("generic", m), n))
            for method in ("profile", "recurrence"):
                assert sym == d_shift_generic(n, m, method), (n, m, method)


def test_d_shift_against_oracle_wide_shifts():
    for m in range(9, 65):
        for n in range(0, 97):
            mat = build_matrix(SequenceRule("unit", m), n)
            assert det_oracle(mat) == d_shift_int(n, m), (n, m)


def test_d_shift_power_of_two_window_corner():
    # 2n + m a power of two (m even) lands in a zero gap, never a
    # zero-length reduction: 2*30 + 4 = 64 while 32 sits inside (30, 34)
    assert d_shift_int(30, 4) == 0
    assert d_shift_generic(30, 4) == LaurentPoly.zero()
    for n in (30, 62, 126, 254, 510):
        assert d_shift_int(n, 4) == 0, n


def test_d_shift_unit_specialization_matches_int():
    for m in range(2, 9):
        for n in range(0, 49):
            sym = d_shift_generic(n, m)
            unit = sym.eval({k: 1 for k in sym.variables()}) if not sym.is_zero() else 0
            assert unit == d_shift_int(n, m), (n, m)


def test_oracle_equivalence_unshifted():
    for n in range(0, 65):
        assert det_oracle(build_matrix(SequenceRule("unit", 0), n)) == d_sign(n)
        assert det_oracle(build_matrix(SequenceRule("unit", 1), n)) == D_sign(n)
    for n in range(0, 25):
        assert det_oracle(build_matrix(SequenceRule("generic", 0), n)) == generic_d(n)
        assert det_oracle(build_matrix(SequenceRule("generic", 1), n)) == generic_D(n)


def _violations(m, max_n):
    """The ``label: got g, want w`` lines of the conjecture checks that fail,
    tallied as ``verify --suite conjecture`` tallies them."""
    return run_suite(conjecture38_checks(m, max_n))[1]


def test_conjecture_scan_even():
    assert _violations(4, 64) == []
    assert _violations(6, 64) == []
    # spot check the claimed values directly
    for n in range(1, 30):
        assert d_shift_int(8 * n, 6) == 1
        assert d_shift_int(8 * n - 6, 6) == (-1) ** 3


def test_conjecture_scan_odd_fits_epsilon():
    assert _violations(3, 64) == []
    # 2^2 - 3 = 1 has one run of ones, and the checks use that eps
    assert conjecture_epsilon(3) == 1
    assert "d(1, 3) against (-1)^(n + 1) d(., 1)" in [c[0] for c in conjecture38_checks(3, 64)]


def test_conjecture_scan_m2_has_its_own_form():
    # d(2n, 2) = (-1)^n and d(2n - 2, 2) = (-1)^(n+1), not the +1 and -1 of
    # the other shifts 2 mod 4
    assert run_suite(conjecture38_checks(2, 512)) == (1024, [])


def test_conjecture_epsilon_is_the_fitted_constant():
    for m in range(3, 257, 2):
        period = 1 << (m - 1).bit_length()
        eps = conjecture_epsilon(m)
        for n in range(1, 65):
            assert d_shift_int(period * n - m, m) == (-1) ** (n + eps) * D_sign(period * n - m), (m, n)
        assert _violations(m, 256) == [], m


def test_conjecture_scan_reports_violations(monkeypatch):
    monkeypatch.setattr(closedform, "d_shift_int", lambda n, m: 1)
    # P n - m at n + 1 is P n at n when m = 2: each wrong value shows twice
    assert _violations(2, 4) == ["d(2, 2): got 1, want -1"] * 2 + ["d(6, 2): got 1, want -1"] * 2
    assert _violations(3, 64)


def test_conjecture_scan_guards():
    with pytest.raises(ValueError):
        _violations(1, 8)
    with pytest.raises(ValueError):
        _violations(4, 0)
