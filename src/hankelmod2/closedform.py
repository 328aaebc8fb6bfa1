"""Closed-form and recursive evaluators for the determinant sequences.

Sign sequences d(n), D(n), T_n, the Favard coefficients, the LDL^t factors
of the plain and shifted matrices (whose diagonal products are d(n) and
D(n)), shifted determinants d(n, m), the exponent profile, the symbolic
monomials, their specializations, and the checks of the shifted-sign lemma
at the residue points.
Every determinant is one signed permutation, so every symbolic d(n, m) is
one monomial whose exponents form one tent table, ``shift_profile(n, m)``,
read off the digit edges of 2n + m; d(n) and D(n) are its shifts 0 and 1.
The ``recurrence`` methods fold over the one interval-reversal block
construction, ``nimble_blocks``, which shares no code with the profile;
nothing here calls a matrix oracle.  The signs, ``d_shift_int`` at every
shift included (two popcounts of 2n + m), take a constant number of
big-integer operations (``seq``'s word-parallel digit statistics) unless
noted; so do the T_n / t_n ratio monomials, whose few exponents sit at the
tent's kinks.  The recursive cross-checks (``D_sign(n, "recurrence")``,
``T_int(n, "structural")``, ``nimble_blocks``) do a few big-integer
operations per binary digit.  An exponent profile or a symbolic
determinant monomial is Theta(log^2 n) bits of output, and costs about
that much.
"""

from __future__ import annotations

from . import seq
from .exactring import LaurentPoly


def _binom2_parity(x: int) -> int:
    """C(x, 2) mod 2: bit 1 of x."""
    return (x & 2) >> 1


def _pm(parity: int) -> int:
    return -1 if parity & 1 else 1


def d_sign(n: int) -> int:
    """(-1)^C(n,2): the Hankel determinant sign of the unshifted sequence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return -1 if n & 2 else 1  # C(n, 2) is odd iff bit 1 of n is set


D_METHODS = ("delta", "recurrence", "paperfolding-product")


def D_sign(n: int, method: str = "delta") -> int:
    """Shift-by-one determinant sign, three interchangeable evaluators.

    delta: (-1)^delta(n) from the binary pair count.
    recurrence: D(2n) = (-1)^C(n,2) D(n), D(2n+1) = (-1)^C(n+1,2) D(n).
    paperfolding-product: prod_{j<n} S(j)  (O(n), the others are O(log n)).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if method == "delta":
        return _pm(seq.delta_pairs(n))
    if method == "recurrence":
        parity = 0
        while n:
            half = n >> 1
            parity ^= _binom2_parity(half + (n & 1))
            n = half
        return _pm(parity)
    if method == "paperfolding-product":
        sign = 1
        for j in range(n):
            sign *= seq.paperfolding_s(j)
        return sign
    raise ValueError(f"unknown method {method!r}")


T_METHODS = ("ratio", "recurrence", "structural", "nonsquash")

_T_CACHE: dict[int, int] = {0: 1, 1: -1}


def _t_recurrence(n: int) -> int:
    """T_{2n} = T_{2n-1} T_{n-1}, T_{2n+1} = -T_{2n}; worklist evaluation
    because the even rule chains down through consecutive even indices."""
    if n in _T_CACHE:
        return _T_CACHE[n]
    stack = [n]
    while stack:
        k = stack[-1]
        if k in _T_CACHE:
            stack.pop()
            continue
        deps = (k - 1,) if k & 1 else (k - 1, (k >> 1) - 1)
        missing = [d for d in deps if d not in _T_CACHE]
        if missing:
            stack.extend(missing)
            continue
        if k & 1:
            _T_CACHE[k] = -_T_CACHE[k - 1]
        else:
            _T_CACHE[k] = _T_CACHE[k - 1] * _T_CACHE[(k >> 1) - 1]
        stack.pop()
    return _T_CACHE[n]


def _t_structural(n: int) -> int:
    """Bacher's rule set: T_{2n+1} = -T_{2n}, T_{4n} = (-1)^n,
    T_{8n+2} = (-1)^{n+1}, T_{8n+6} = T_{4n+2}."""
    sign = 1
    while True:
        if n <= 1:
            return sign * (1 if n == 0 else -1)
        if n & 1:
            sign, n = -sign, n - 1
        elif n % 4 == 0:
            return sign * _pm((n >> 2) & 1)
        elif n % 8 == 2:
            return sign * _pm(((n - 2) >> 3) + 1)
        else:  # n = 8k + 6 reduces to 4k + 2
            n = (n - 2) >> 1


def T_int(n: int, method: str = "ratio") -> int:
    """Continued-fraction coefficient T_n of the shifted sequence, four ways."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if method == "ratio":
        return D_sign(n) * D_sign(n + 2)
    if method == "recurrence":
        return _t_recurrence(n)
    if method == "structural":
        return _t_structural(n)
    if method == "nonsquash":
        return _pm(seq.nonsquash_b(n + 2) + 1)
    raise ValueError(f"unknown method {method!r}")


def favard_st(n: int) -> tuple[int, int]:
    """Three-term-recurrence coefficients (s_n, t_n) of the base sequence:
    t_n = T_{2n} T_{2n+1}, s_0 = T_0, s_n = T_{2n-1} + T_{2n}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    t = T_int(2 * n) * T_int(2 * n + 1)
    s = T_int(0) if n == 0 else T_int(2 * n - 1) + T_int(2 * n)
    return s, t


# ---------------------------------------------------------------------------
# LDL^t factorizations of the plain and shifted Hankel matrices
# ---------------------------------------------------------------------------


def binom_parity(a: int, b: int) -> int:
    """C(a, b) mod 2 by the digit rule: 1 iff the bits of b lie inside a."""
    if b < 0 or b > a:
        return 0
    return 1 if a & b == b else 0


def _mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def plain_lower_factor(n: int) -> list[list[int]]:
    """Unit lower-triangular factor a(i, j) = s(i) s(j) C(2i+1, i-j) mod 2."""
    return [
        [seq.sign_s(i) * seq.sign_s(j) * binom_parity(2 * i + 1, i - j) for j in range(n)]
        for i in range(n)
    ]


def plain_diagonal(n: int) -> list[int]:
    """Diagonal entries (-1)^i of the plain decomposition; their product is d(n)."""
    return [-1 if i & 1 else 1 for i in range(n)]


def ldlt_verify_plain(n: int) -> bool:
    """Check A D A^t = (a_{i+j}) entrywise for the plain Hankel matrix."""
    if n < 1:
        raise ValueError("n must be positive")
    a = plain_lower_factor(n)
    d = plain_diagonal(n)
    ad = [[a[i][k] * d[k] for k in range(n)] for i in range(n)]
    at = [[a[j][i] for j in range(n)] for i in range(n)]
    prod = _mat_mul(ad, at)
    return all(
        prod[i][j] == seq.bit_a(i + j) for i in range(n) for j in range(n)
    )


def shifted_lower_factor(n: int) -> list[list[int]]:
    """Factor c(i, j) = C(2i+2, i-j) mod 2 * v(i) v(j) for the shifted matrix."""
    return [
        [binom_parity(2 * i + 2, i - j) * seq.sign_v(i) * seq.sign_v(j) for j in range(n)]
        for i in range(n)
    ]


def shifted_diagonal(n: int) -> list[int]:
    """Diagonal entries S(i) of the shifted decomposition; their product is D(n)."""
    return [seq.paperfolding_s(i) for i in range(n)]


def ldlt_verify_shifted(n: int) -> bool:
    """Check C D C^t = (a_{i+j+1}) entrywise."""
    if n < 1:
        raise ValueError("n must be positive")
    c = shifted_lower_factor(n)
    d = shifted_diagonal(n)
    cd = [[c[i][k] * d[k] for k in range(n)] for i in range(n)]
    ct = [[c[j][i] for j in range(n)] for i in range(n)]
    prod = _mat_mul(cd, ct)
    return all(
        prod[i][j] == seq.bit_a(i + j + 1) for i in range(n) for j in range(n)
    )


# ---------------------------------------------------------------------------
# The interval-reversal blocks and the shifted determinants d(n, m)
# ---------------------------------------------------------------------------


def _shift_class(m: int) -> int:
    """K with 2^K < m <= 2^{K+1} (K = -1 for m = 1)."""
    return (m - 1).bit_length() - 1


def nimble_blocks(n: int, m: int) -> list[tuple[int, int]] | None:
    """Descending interval-reversal blocks [(k, L), ...] of the order-n
    Hankel matrix with shift m, or None when some row has no admissible image.

    With rows [0, hi) still open, p is the smallest power of two >= hi + m.
    Row hi - 1 needs a column j <= hi - 1 with hi - 1 + j + m + 1 = p, so
    p > 2 hi + m - 1 leaves it without one; otherwise rows [p - m - hi, hi)
    map order-reversing onto the same columns through antidiagonal p - m - 1,
    whose entry is x_{2^k-1} with p = 2^k.  A block of length L contributes
    the sign (-1)^C(L,2) and the factor x_{2^k-1}^L to the determinant.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    blocks = []
    hi = n
    while hi > 0:
        p = 1 << (hi + m - 1).bit_length()  # smallest power of two >= hi + m
        if p > 2 * hi + m - 1:
            return None
        lo = p - m - hi
        blocks.append((p.bit_length() - 1, hi - lo))
        hi = lo
    return blocks


def blocks_sign(blocks: list[tuple[int, int]]) -> int:
    """Product of the block signs (-1)^C(L,2): the sign of the permutation."""
    return _pm(sum(_binom2_parity(length) for _, length in blocks))


def _blocks_monomial(blocks: list[tuple[int, int]] | None) -> LaurentPoly:
    """The signed monomial prod (-1)^C(L,2) x_{2^k-1}^L, or zero for None."""
    if blocks is None:
        return LaurentPoly.zero()
    exps: dict[int, int] = {}
    for k, length in blocks:
        exps[k] = exps.get(k, 0) + length
    return LaurentPoly.monomial(blocks_sign(blocks), exps)


def d_shift_int(n: int, m: int) -> int:
    """Shifted Catalan-mod-2 Hankel determinant in {-1, 0, +1}, in a
    constant number of big-integer operations.

    m = 0 and m = 1 return the closed signs ``d_sign`` / ``D_sign``.  For
    m >= 2, d(n, m) is 0 off ``shift_support``.  On it, the sign is
    (-1)^sum C(e_k, 2) over the tent table of ``shift_profile``, and
    C(e, 2) is odd iff bit 1 of e is set.  Every k in that table has
    h = 2^k > m >= 2, so h >= 4 and e_k mod 4 depends on Y = 2n + m alone:
    bits (k+1, k) of Y equal to 01 give e_k = Y mod h, which is Y mod 4
    (mod 4); bits 10 give e_k = h - (Y mod h), which is -Y mod 4; other
    pairs give 0.  With s = bl(m), a = bit 1 of Y and b = bit 1 of -Y, the
    parity is a * popcount((Y & ~(Y >> 1)) >> s) + b * popcount((~Y & (Y >> 1)) >> s).
    """
    if m == 0:
        return d_sign(n)
    if m == 1:
        return D_sign(n)
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    if not shift_support(n, m):
        return 0
    y = 2 * n + m
    s = m.bit_length()
    parity = 0
    if y & 2:
        parity += ((y & ~(y >> 1)) >> s).bit_count()
    if -y & 2:
        parity += ((~y & (y >> 1)) >> s).bit_count()
    return _pm(parity)


def shift_support(n: int, m: int) -> bool:
    """Residue support rule: d(n, m) != 0 iff n = 0 or -m mod 2^{K+1}."""
    if m < 1:
        raise ValueError("m must be >= 1")
    period = 1 << (_shift_class(m) + 1)
    return n % period == 0 or (n + m) % period == 0


# ---------------------------------------------------------------------------
# The exponent profile and the symbolic monomials
# ---------------------------------------------------------------------------


def shift_profile(n: int, m: int) -> dict[int, int]:
    """{k: e_k}, the exponent of x_{2^k-1} in d(n, m) on its support.

    One tent table for every shift: with h = 2^k > m and
    w = (2n + m) mod 2^(k+2), e_k = max(0, h - |w - 2h|), periodic in n
    with period 2^(k+1); shifts 0 and 1 are the lambda and mu tables.
    Read off the digit edges of Y = 2n + m from bit bl(m) upward: bits
    (k+1, k) = 01 give Y mod 2^k, bits 10 give 2^k - (Y mod 2^k), other
    pairs give 0, and zero exponents are dropped.  The low bits come from
    one mask per edge, so the cost is the Theta(log^2 n) bits of output.
    The keys come in ascending k and every exponent is nonzero, so
    ``exactring.monomial_text`` renders the items as they are.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    y = 2 * n + m
    digits = bin(y)[:1:-1]  # y_0 y_1 ... y_top
    edges = bin(y ^ (y >> 1))[:1:-1]  # bit k set: y_k != y_{k+1}
    entries = {}
    k = edges.find("1", m.bit_length())
    while k >= 0:
        top = 1 << k
        low = y & (top - 1)
        e = low if digits[k] == "1" else top - low
        if e:
            entries[k] = e
        k = edges.find("1", k + 1)
    return entries


def _profile_sign(entries: dict[int, int]) -> int:
    """(-1)^sum C(e_k, 2): each k lies in one block, so this is the block sign."""
    return _pm(sum(_binom2_parity(e) for e in entries.values()))


def d_shift_generic(n: int, m: int, method: str = "profile") -> LaurentPoly:
    """Symbolic shifted determinant d(n, m): one signed monomial, or zero.

    profile: zero off ``shift_support`` (m >= 2), otherwise the
    ``shift_profile`` monomial with sign (-1)^sum C(e_k, 2).
    recurrence: the fold over ``nimble_blocks(n, m)``, the product of the
    (-1)^C(L,2) x_{2^k-1}^L, or zero when some row has no admissible image.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    if method == "profile":
        if m >= 2 and not shift_support(n, m):
            return LaurentPoly.zero()
        entries = shift_profile(n, m)
        return LaurentPoly.monomial(_profile_sign(entries), entries)
    if method != "recurrence":
        raise ValueError(f"unknown method {method!r}")
    return _blocks_monomial(nimble_blocks(n, m))


def generic_d(n: int, method: str = "profile") -> LaurentPoly:
    """Symbolic d(n) = d(n, 0), a single signed monomial (1 at n = 0).

    The recurrence peels d(n) = (-1)^C(b,2) x_{2^k-1}^b d(n - b) with
    k = ceil(log2 n) and b = 2n - 2^k.
    """
    return d_shift_generic(n, 0, method)


def generic_D(n: int, method: str = "profile") -> LaurentPoly:
    """Symbolic D(n) = d(n, 1), a signed monomial in x_{2^k-1}, k >= 1.

    The recurrence peels D(n) = (-1)^C(L,2) x_{gamma}^L D(gamma - n) with
    gamma = 2^ceil(log2(n+1)) - 1 and L = 2n - gamma; the reversal-length
    sign (not (-1)^n, which already fails at n = 1) keeps D(1) = x1.
    """
    return d_shift_generic(n, 1, method)


def _tent(y: int, h: int) -> int:
    """max(0, h - |w - 2h|) with w = y mod 4h: the exponent of x_{h-1} at Y = y."""
    return max(0, h - abs((y & (4 * h - 1)) - 2 * h))


def _profile_ratio(m: int, n: int) -> LaurentPoly:
    """d(n, m) d(n+2, m) / d(n+1, m)^2 for m < 2, in O(1 + t) big-integer
    operations, t the trailing run of ones of Y = 2n + m.

    The exponent at k is the second difference e_k(Y) + e_k(Y+4) - 2 e_k(Y+2)
    of the tent max(0, h - |w - 2h|), h = 2^k, w = Y mod 4h.  The tent is
    linear except at its kinks w = h, 2h, 3h, all multiples of h, so the
    difference is 0 unless one lies strictly between w and w + 4, that is
    unless Y mod h > h - 4.  For h >= 4, once that fails it fails at 2h too
    (Y mod 2h <= h + Y mod h), so the loop stops there.  The sign of the
    ratio is d(n, m) d(n+2, m).
    """
    sign = d_shift_int(n, m) * d_shift_int(n + 2, m)  # also rejects n < 0
    y = 2 * n + m
    exps = {}
    k = m.bit_length()
    h = 1 << k
    while h < 4 or (y & (h - 1)) > h - 4:
        e = _tent(y, h) + _tent(y + 4, h) - 2 * _tent(y + 2, h)
        if e:
            exps[k] = e
        k += 1
        h <<= 1
    return LaurentPoly.monomial(sign, exps)


def generic_T(n: int) -> LaurentPoly:
    """T_n = D(n) D(n+2) / D(n+1)^2 as an exact Laurent monomial."""
    return _profile_ratio(1, n)


def generic_t(n: int) -> LaurentPoly:
    """t_n = d(n) d(n+2) / d(n+1)^2 as an exact Laurent monomial."""
    return _profile_ratio(0, n)


def ratio_h(n: int) -> LaurentPoly:
    """d(n) d(n+1) / D(n)^2, which collapses to (-1)^n x0."""
    value = generic_d(n) * generic_d(n + 1) / (generic_D(n) ** 2)
    expected = LaurentPoly.monomial(_pm(n & 1), {0: 1})
    if value != expected:
        raise AssertionError(f"h({n}) = {value}, expected {expected}")
    return value


# ---------------------------------------------------------------------------
# Specializations
# ---------------------------------------------------------------------------

SPECIAL_KINDS = ("powers", "doubling", "grs")


def _special_table(kind: str, variables) -> dict[int, tuple[int, int]]:
    table: dict[int, tuple[int, int]] = {}
    for k in variables:
        if kind == "powers":
            table[k] = (1, k)
        elif kind == "doubling":
            table[k] = (1, (1 << k) - 1)
        elif kind == "grs":
            if k == 0:
                raise ValueError("grs assignment has no value for x0")
            table[k] = (1 if k == 1 or k % 2 == 0 else -1, 0)
        else:
            raise ValueError(f"unknown specialization {kind!r}")
    return table


def specialize_poly(p: LaurentPoly, kind: str) -> LaurentPoly:
    """Substitute one of the named assignments into a symbolic value."""
    return p.specialize(_special_table(kind, p.variables()))


def specialize_det(kind: str, shifted: bool, n: int):
    """Specialized determinant: collapses generic_d / generic_D under the
    named assignment.  Returns a one-variable monomial, or a bare integer
    for the grs kind (whose image is the Golay-Rudin-Shapiro sign)."""
    if kind not in SPECIAL_KINDS:
        raise ValueError(f"unknown specialization {kind!r}")
    base = generic_D(n) if shifted else generic_d(n)
    value = specialize_poly(base, kind)
    if kind == "grs":
        return value.constant_value()
    return value


# ---------------------------------------------------------------------------
# The shifted-sign lemma at the residue points
# ---------------------------------------------------------------------------


def conjecture_epsilon(m: int) -> int:
    """eps(m) for odd m >= 3: the parity of the number of runs of ones in
    2^{K+1} - m (see ``conjecture38_checks``)."""
    r = (1 << (_shift_class(m) + 1)) - m
    return (r & ~(r >> 1)).bit_count() & 1


def conjecture38_checks(m: int, max_n: int):
    """(label, got, want) of d(P n, m) and d(P n - m, m), P = 2^{K+1}, for
    1 <= n <= max_n: ``d_shift_int`` against the proved forms below.

    The forms follow from the two-popcount sign of ``d_shift_int``
    (s = bl(m), a = bit 1 of Y, b = bit 1 of -Y).  For m >= 3, Y >> s is
    2n at P n and 2n - 1 at P n - m; for m = 2 it is n and n - 1.
    Even m: a = b = 0 when 4 | m, so both values are +1; otherwise
    a = b = 1 and the parity is the number of digit edges of Y >> s, which
    is the parity of its last bit.  So d(P n, m) = 1 and
    d(P n - m, m) = (-1)^{m/2}, except at m = 2, where the values are
    (-1)^n and (-1)^{n+1}.
    Odd m: one of a, b is 1 and the count is the runs of ones of Y >> s,
    one fewer for b at an odd Y >> s.  Against the shift-1 sign this gives
    d(P n, m) = D(P n) and d(P n - m, m) = (-1)^{n + eps} D(P n - m), with
    eps = ``conjecture_epsilon(m)``; D comes from ``D_sign``'s digit-pair
    count.
    """
    if m < 2:
        raise ValueError("scan is defined for m >= 2")
    if max_n < 1:
        raise ValueError("max_n must be positive")
    period = 1 << (_shift_class(m) + 1)
    epsilon = conjecture_epsilon(m) if m % 2 else None
    for n in range(1, max_n + 1):
        zero, shift = period * n, period * n - m
        if epsilon is None:
            want_zero, want_shift = (_pm(n), _pm(n + 1)) if m == 2 else (1, _pm(m // 2))
            yield f"d({zero}, {m})", d_shift_int(zero, m), want_zero
            yield f"d({shift}, {m})", d_shift_int(shift, m), want_shift
        else:
            yield f"d({zero}, {m}) against d(., 1)", d_shift_int(zero, m), D_sign(zero)
            yield (f"d({shift}, {m}) against (-1)^(n + {epsilon}) d(., 1)", d_shift_int(shift, m),
                   _pm(n + epsilon) * D_sign(shift))

