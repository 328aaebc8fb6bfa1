"""Integer and sign sequences driven by binary digits.

Everything here is a pure function of an arbitrary-precision nonnegative
integer.  The digit statistics (``sign_s``, ``sign_v``, ``delta_pairs``,
``rho_pairs``, ``grs_r``, ``digit_sum``, ``bit_a``) are word-parallel: a
constant number of big-integer shifts, masks and popcounts, each linear in
the number of machine words of n.  ``paperfolding_s`` shifts once per
trailing one, ``ones_total`` does a constant number of operations per set
bit, and ``nonsquash_b`` fills a cache of every index up to n.
"""

from __future__ import annotations


def _check_nonneg(n: int) -> None:
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")


def bit_a(n: int) -> int:
    """1 if n+1 is a power of two, else 0 (the Catalan number C_n mod 2)."""
    _check_nonneg(n)
    return 1 if (n + 1) & n == 0 else 0


def paperfolding_s(n: int) -> int:
    """Regular paperfolding sign S(n): S(2n) = (-1)^n, S(2n+1) = S(n), S(0) = 1."""
    _check_nonneg(n)
    while n & 1:
        n >>= 1
    if n == 0:
        return 1
    # n = 2m now, so the value is (-1)^m
    return -1 if (n >> 1) & 1 else 1


def sign_s(n: int) -> int:
    """Sign sequence with s(2n) = (-1)^n s(n), s(2n+1) = s(n), s(0) = 1.

    Each 10 digit pair e_{i+1}e_i flips the sign: (-1)^popcount((n>>1) & ~n).
    """
    _check_nonneg(n)
    return -1 if ((n >> 1) & ~n).bit_count() & 1 else 1


def sign_v(n: int) -> int:
    """Sign sequence with v(2n+1) = v(n), v(4n) = (-1)^n v(2n), v(4n+2) = v(2n).

    The rules drop the trailing ones and the first zero above them; what is
    left flips the sign once per 10 digit pair, as in ``sign_s``.
    """
    _check_nonneg(n)
    return sign_s(n >> (~n & (n + 1)).bit_length())


def delta_pairs(n: int) -> int:
    """Count binary digit pairs e_{i+1}e_i = 10 at i >= 1, plus one if e_1e_0 = 11.

    The pair at position 0 counts only in the 11 form; pairs 10 count only
    from position 1 upward.
    """
    _check_nonneg(n)
    return ((n >> 1) & ~n & ~1).bit_count() + ((n & 3) == 3)


def rho_pairs(n: int) -> int:
    """Number of (overlapping) adjacent 11 pairs in the binary expansion."""
    _check_nonneg(n)
    return (n & (n >> 1)).bit_count()


def grs_r(n: int) -> int:
    """Golay-Rudin-Shapiro sign via r(2n) = r(n), r(2n+1) = (-1)^n r(n), r(0) = 1.

    The odd step flips exactly when the next digit is set too, so the sign
    is (-1)^rho_pairs(n).
    """
    return -1 if rho_pairs(n) & 1 else 1


def ones_total(n: int) -> int:
    """Total number of 1 digits in the binary expansions of 0, 1, ..., n-1.

    A set bit k of n with j set bits above it covers the 2^k numbers that
    share those j bits and run through every k-bit tail: k 2^(k-1) + j 2^k.
    """
    _check_nonneg(n)
    total = 0
    above = 0
    k = n.bit_length()
    for digit in bin(n)[2:]:
        k -= 1
        if digit == "1":
            total += (k << k >> 1) + (above << k)
            above += 1
    return total


def digit_sum(n: int) -> int:
    """Binary digit sum s_2(n)."""
    _check_nonneg(n)
    return n.bit_count()


# Cache of non-squashing partition counts; append-only, values are pure.
_B_CACHE: dict[int, int] = {2: 1, 3: 2}


def nonsquash_b(n: int) -> int:
    """Non-squashing partitions of n into distinct parts, n >= 2.

    b(2m) = b(2m-1) + b(m) - 1 and b(2m+1) = b(2m) + 1 with b(2) = 1,
    b(3) = 2.  Evaluated with an explicit worklist: the even rule chains
    through b(2m-1), so plain recursion would be O(n) deep.
    """
    if n < 2:
        raise ValueError(f"b(n) is defined for n >= 2, got {n}")
    if n in _B_CACHE:
        return _B_CACHE[n]
    stack = [n]
    while stack:
        k = stack[-1]
        if k in _B_CACHE:
            stack.pop()
            continue
        if k & 1:
            deps = (k - 1,)
        else:
            deps = (k - 1, k >> 1)
        missing = [d for d in deps if d not in _B_CACHE]
        if missing:
            stack.extend(missing)
            continue
        if k & 1:
            _B_CACHE[k] = _B_CACHE[k - 1] + 1
        else:
            _B_CACHE[k] = _B_CACHE[k - 1] + _B_CACHE[k >> 1] - 1
        stack.pop()
    return _B_CACHE[n]
