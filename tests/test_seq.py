import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelmod2.seq import (
    bit_a,
    delta_pairs,
    grs_r,
    nonsquash_b,
    paperfolding_s,
    rho_pairs,
    sign_s,
    sign_v,
)
from reference import digit_sum, ones_total



# The digit-by-digit loops the word-parallel kernels replaced, kept as
# references: each walks the recurrence its kernel's docstring states.


def sign_s_loop(n):
    sign = 1
    while n:
        if n & 1:
            n >>= 1
        else:
            n >>= 1
            if n & 1:
                sign = -sign
    return sign


def sign_v_loop(n):
    sign = 1
    while n:
        if n & 1:
            n >>= 1
        elif n & 2:
            n = (n - 2) >> 1
        else:
            if (n >> 2) & 1:
                sign = -sign
            n >>= 1
    return sign


def delta_pairs_loop(n):
    count = 1 if (n & 3) == 3 else 0
    n >>= 1
    while n:
        if (n & 3) == 2:  # e_{i+1}e_i = 10
            count += 1
        n >>= 1
    return count


def rho_pairs_loop(n):
    count = 0
    while n:
        if (n & 3) == 3:
            count += 1
        n >>= 1
    return count


def grs_r_loop(n):
    sign = 1
    while n:
        if (n & 3) == 3:  # the odd step flips exactly when the next bit is set
            sign = -sign
        n >>= 1
    return sign


KERNELS = ((sign_s, sign_s_loop), (sign_v, sign_v_loop), (delta_pairs, delta_pairs_loop),
           (rho_pairs, rho_pairs_loop), (grs_r, grs_r_loop))

# n of 10^3 to 10^4 bits, top bit set
huge_n = st.integers(1000, 10000).flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1))


def test_kernels_match_loop_references():
    for n in range(1 << 14):
        for kernel, reference in KERNELS:
            assert kernel(n) == reference(n), (kernel.__name__, n)


@given(huge_n)
@settings(max_examples=100, deadline=None)
def test_kernels_match_loop_references_at_huge_n(n):
    for kernel, reference in KERNELS:
        assert kernel(n) == reference(n), kernel.__name__


# printed prefixes
S_PREFIX = [1, 1, -1, 1, 1, -1, -1, 1, 1, 1]
s_PREFIX = [1, 1, -1, 1, -1, -1, -1, 1]
v_PREFIX = [1, 1, 1, 1, -1, 1, 1, 1, -1, -1]
DELTA_PREFIX = [0, 0, 0, 1, 1, 1, 0, 1]  # delta([0]_2) .. delta([111]_2)


def test_bit_a_examples():
    assert bit_a(0) == 1
    assert bit_a(7) == 1  # 8 is a power of two
    assert bit_a(4) == 0
    assert bit_a(6) == 0


def test_bit_a_recurrences():
    for n in range(2048):
        assert bit_a(2 * n + 1) == bit_a(n)
        assert bit_a(2 * n) == (1 if n == 0 else 0)


def test_paperfolding_examples():
    assert paperfolding_s(0) == 1
    assert paperfolding_s(2) == -1
    assert paperfolding_s(5) == -1
    assert [paperfolding_s(n) for n in range(10)] == S_PREFIX


def test_paperfolding_recurrence():
    for n in range(1 << 20):
        assert paperfolding_s(2 * n) == (1 if n % 2 == 0 else -1)
        assert paperfolding_s(2 * n + 1) == paperfolding_s(n)


def test_sign_s_examples():
    assert sign_s(0) == 1
    assert sign_s(2) == -1
    assert sign_s(7) == 1
    assert [sign_s(n) for n in range(8)] == s_PREFIX


def test_sign_s_recurrence():
    for n in range(1 << 13):
        assert sign_s(2 * n) == (-1) ** n * sign_s(n)
        assert sign_s(2 * n + 1) == sign_s(n)


def test_sign_v_examples():
    assert sign_v(0) == 1
    assert sign_v(4) == -1
    assert sign_v(8) == -1
    assert [sign_v(n) for n in range(10)] == v_PREFIX


def test_sign_v_recurrence():
    for n in range(1 << 13):
        assert sign_v(2 * n + 1) == sign_v(n)
        assert sign_v(4 * n) == (-1) ** n * sign_v(2 * n)
        assert sign_v(4 * n + 2) == sign_v(2 * n)


def test_delta_examples():
    assert delta_pairs(0) == 0
    assert delta_pairs(9) == 1  # 1001
    assert delta_pairs(15) == 1  # 1111
    assert [delta_pairs(n) for n in range(8)] == DELTA_PREFIX


def test_rho_examples():
    assert rho_pairs(0) == 0
    assert rho_pairs(6) == 1  # 110
    assert rho_pairs(7) == 2  # 111: overlapping pairs both count


GRS_PREFIX = [1, 1, 1, -1, 1, 1, -1, 1, 1, 1, 1, -1, -1, -1, 1, -1]


def test_grs_examples():
    assert grs_r(0) == 1
    assert grs_r(6) == -1
    assert grs_r(3) == -1
    assert [grs_r(n) for n in range(16)] == GRS_PREFIX


def test_grs_matches_pair_count():
    # against the digit loop: grs_r and rho_pairs share one popcount
    for n in range(1 << 20):
        assert grs_r(n) == (1 if rho_pairs_loop(n) % 2 == 0 else -1)
    rng = random.Random(0xC1617)
    for _ in range(20000):
        n = rng.randrange(1 << 64)
        assert grs_r(n) == (1 if rho_pairs_loop(n) % 2 == 0 else -1)


def test_grs_block_recursion():
    for k in range(2, 17):
        p = 1 << k
        for n in range(p):
            expect = grs_r(n) if n < p // 2 else -grs_r(n)
            assert grs_r(p + n) == expect


def test_ones_total_examples():
    assert ones_total(0) == 0
    assert ones_total(5) == 5
    assert ones_total(3) == 2


def test_ones_total_increments():
    # running total makes ones_total(n+1) - ones_total(n) = digit_sum(n)
    # checkable with a single ones_total call per index
    acc = 0
    for n in range(1 << 20):
        assert ones_total(n) == acc
        acc += digit_sum(n)
    rng = random.Random(0xC1618)
    for _ in range(5000):
        n = rng.randrange(1 << 60)
        assert ones_total(n + 1) - ones_total(n) == digit_sum(n)


def test_digit_sum_examples():
    assert digit_sum(0) == 0
    assert digit_sum(11) == 3
    assert digit_sum(8) == 1


def test_nonsquash_examples():
    assert nonsquash_b(2) == 1
    assert nonsquash_b(3) == 2
    assert nonsquash_b(4) == 2


def test_nonsquash_recurrences():
    for m in range(2, 4000):
        assert nonsquash_b(2 * m) == nonsquash_b(2 * m - 1) + nonsquash_b(m) - 1
        assert nonsquash_b(2 * m + 1) == nonsquash_b(2 * m) + 1


def test_nonsquash_rejects_small():
    with pytest.raises(ValueError):
        nonsquash_b(1)
    with pytest.raises(ValueError):
        nonsquash_b(0)


def test_negative_inputs_rejected():
    for fn in (bit_a, paperfolding_s, sign_s, sign_v, delta_pairs, rho_pairs,
               grs_r, ones_total, digit_sum):
        with pytest.raises(ValueError):
            fn(-1)
