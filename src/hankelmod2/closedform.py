"""Closed-form and recursive evaluators for the determinant sequences.

Sign sequences d(n), D(n), T_n, the Favard coefficients, shifted
determinants d(n, m), the periodic exponent tables, the symbolic
monomials, their specializations, and the empirical scanner for the
shifted-determinant conjecture.  Every determinant reduction folds over
the one interval-reversal block construction, ``nimble_blocks``; nothing
here calls a matrix oracle.  Evaluators are O(log n) unless noted.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from . import seq
from .exactring import LaurentPoly


def _binom2_parity(x: int) -> int:
    """C(x, 2) mod 2."""
    return 1 if x % 4 in (2, 3) else 0


def _pm(parity: int) -> int:
    return -1 if parity & 1 else 1


def d_sign(n: int) -> int:
    """(-1)^C(n,2): the Hankel determinant sign of the unshifted sequence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _pm(_binom2_parity(n))


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
_T_LOCK = threading.Lock()


def _t_recurrence(n: int) -> int:
    """T_{2n} = T_{2n-1} T_{n-1}, T_{2n+1} = -T_{2n}; worklist evaluation
    because the even rule chains down through consecutive even indices."""
    if n in _T_CACHE:
        return _T_CACHE[n]
    with _T_LOCK:
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
    """Shifted Catalan-mod-2 Hankel determinant in {-1, 0, +1}.

    m = 0 and m = 1 delegate to the closed signs ``d_sign`` / ``D_sign``;
    for m >= 2 it is the product of the ``nimble_blocks`` signs, or 0.
    """
    if m == 0:
        return d_sign(n)
    if m == 1:
        return D_sign(n)
    blocks = nimble_blocks(n, m)
    return 0 if blocks is None else blocks_sign(blocks)


def d_shift_generic(n: int, m: int) -> LaurentPoly:
    """Symbolic shifted determinant, m >= 2: the product of the
    (-1)^C(L,2) x_{2^k-1}^L over the ``nimble_blocks`` of (n, m), or zero
    when some row has no admissible image.
    """
    if m < 2:
        raise ValueError("use generic_d / generic_D for m < 2")
    return _blocks_monomial(nimble_blocks(n, m))


def shift_support(n: int, m: int) -> bool:
    """Residue support rule: d(n, m) != 0 iff n = 0 or -m mod 2^{K+1}."""
    if m < 1:
        raise ValueError("m must be >= 1")
    period = 1 << (_shift_class(m) + 1)
    return n % period == 0 or (n + m) % period == 0


# ---------------------------------------------------------------------------
# The periodic exponent tables and symbolic monomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentProfile:
    """Nonzero exponents of the symbolic Hankel determinant monomial."""

    flavor: str  # "lambda" (unshifted) or "mu" (shifted)
    entries: dict[int, int] = field(default_factory=dict)

    def get(self, k: int) -> int:
        return self.entries.get(k, 0)

    def monomial(self) -> LaurentPoly:
        """The unsigned monomial prod x_{2^k-1}^{e_k}."""
        return LaurentPoly.monomial(1, self.entries)

    def sign(self) -> int:
        return _pm(sum(_binom2_parity(e) for e in self.entries.values()))


def _lambda_k(k: int, i: int) -> int:
    half = 1 << k
    quarter = half >> 1
    if i <= quarter:
        return 0
    if i <= half:
        return 2 * i - half
    if i <= half + quarter:
        return 3 * half - 2 * i
    return 0


def lambda_profile(n: int) -> ExponentProfile:
    """Exponent of x_{2^k-1} in d(n): periodic in n with period 2^{k+1}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    entries = {}
    for k in range(n.bit_length() + 1):
        e = _lambda_k(k, n % (1 << (k + 1)))
        if e:
            entries[k] = e
    return ExponentProfile("lambda", entries)


def _mu_k(k: int, i: int) -> int:
    half = 1 << k
    quarter = half >> 1
    if i < quarter:
        return 0
    if i < half:
        return 2 * i - half + 1
    if i < half + quarter:
        return 3 * half - 2 * i - 1
    return 0


def mu_profile(n: int) -> ExponentProfile:
    """Exponent of x_{2^k-1} (k >= 1) in D(n): periodic with period 2^{k+1}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    entries = {}
    for k in range(1, n.bit_length() + 1):
        e = _mu_k(k, n % (1 << (k + 1)))
        if e:
            entries[k] = e
    return ExponentProfile("mu", entries)


GENERIC_METHODS = ("profile", "recurrence")


def generic_d(n: int, method: str = "profile") -> LaurentPoly:
    """Symbolic d(n): a single signed monomial (1 at n = 0).

    profile: sign and exponents straight from the lambda table.
    recurrence: the fold over ``nimble_blocks(n, 0)``, which peels
    d(n) = (-1)^C(b,2) x_{2^k-1}^b d(n - b) with k = ceil(log2 n) and
    b = 2n - 2^k.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if method == "profile":
        prof = lambda_profile(n)
        return LaurentPoly.monomial(prof.sign(), prof.entries)
    if method != "recurrence":
        raise ValueError(f"unknown method {method!r}")
    return _blocks_monomial(nimble_blocks(n, 0))


def generic_D(n: int, method: str = "profile") -> LaurentPoly:
    """Symbolic D(n) as a signed monomial in x_{2^k-1}, k >= 1.

    profile: sign and exponents straight from the mu table.
    recurrence: the fold over ``nimble_blocks(n, 1)``, which peels
    D(n) = (-1)^C(L,2) x_{gamma}^L D(gamma - n) with
    gamma = 2^ceil(log2(n+1)) - 1 and L = 2n - gamma; the reversal-length
    sign (not (-1)^n, which already fails at n = 1) keeps D(1) = x1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if method == "profile":
        prof = mu_profile(n)
        return LaurentPoly.monomial(prof.sign(), prof.entries)
    if method != "recurrence":
        raise ValueError(f"unknown method {method!r}")
    return _blocks_monomial(nimble_blocks(n, 1))


def generic_T(n: int) -> LaurentPoly:
    """T_n = D(n) D(n+2) / D(n+1)^2 as an exact Laurent monomial."""
    return generic_D(n) * generic_D(n + 2) / (generic_D(n + 1) ** 2)


def generic_t(n: int) -> LaurentPoly:
    """t_n = d(n) d(n+2) / d(n+1)^2 as an exact Laurent monomial."""
    return generic_d(n) * generic_d(n + 2) / (generic_d(n + 1) ** 2)


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
# Conjectured closed forms for shifted determinants (reported, not asserted)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjectureReport:
    m: int
    K: int
    max_n: int
    conforms: bool
    epsilon: int | None  # fitted constant for odd m, None for even m
    violations: tuple[str, ...] = ()


def conjecture38_scan(m: int, max_n: int) -> ConjectureReport:
    """Scan the conjectured values of d(2^{K+1} n, m) and d(2^{K+1} n - m, m).

    Even m: checks d(2^{K+1} n, m) = 1 and d(2^{K+1} n - m, m) = (-1)^r.
    Odd m: checks agreement with the shift-1 signs up to a fitted constant
    epsilon in {0, 1}.  The result is an empirical report only.
    """
    if m < 2:
        raise ValueError("scan is defined for m >= 2")
    if max_n < 1:
        raise ValueError("max_n must be positive")
    K = _shift_class(m)
    period = 1 << (K + 1)
    violations: list[str] = []
    epsilon: int | None = None
    for n in range(1, max_n + 1):
        at_zero = d_shift_int(period * n, m)
        at_shift = d_shift_int(period * n - m, m)
        if m % 2 == 0:
            r = m // 2
            if at_zero != 1:
                violations.append(f"d({period * n}, {m}) = {at_zero} != 1")
            if at_shift != _pm(r & 1):
                violations.append(f"d({period * n - m}, {m}) = {at_shift} != (-1)^{r}")
        else:
            ref_zero = D_sign(period * n)
            if at_zero != ref_zero:
                violations.append(f"d({period * n}, {m}) = {at_zero} != d(., 1) = {ref_zero}")
            ref_shift = D_sign(period * n - m)
            # at_shift = (-1)^(n + eps) * ref_shift fixes eps; check stability
            eps_here = 0 if at_shift == _pm(n & 1) * ref_shift else 1
            if epsilon is None:
                epsilon = eps_here
            elif eps_here != epsilon:
                violations.append(
                    f"epsilon flips at n = {n}: {eps_here} vs fitted {epsilon}"
                )
    return ConjectureReport(m, K, max_n, not violations, epsilon, tuple(violations))
