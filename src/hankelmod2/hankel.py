"""Hankel matrices with power-of-two support and exact determinant oracles.

The matrices here have entry(i, j) nonzero exactly when i + j + m + 1 is a
power of two, so every row carries at most ~log2(2n + m) nonzeros.  Both
oracles (fraction-free Bareiss over integers, sparse cofactor expansion
over polynomials) exploit that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

from .closedform import T_int, blocks_sign, nimble_blocks
from .exactring import XVAR, LaurentPoly, UniPoly
from .seq import bit_a, paperfolding_s, sign_s, sign_v

INTEGER_KINDS = frozenset({"unit", "grs", "custom"})
SYMBOLIC_KINDS = frozenset({"generic", "powers", "doubling"})
RULE_KINDS = INTEGER_KINDS | SYMBOLIC_KINDS


@dataclass(frozen=True)
class SequenceRule:
    """Entry generator: kind of value assigned to x_{2^k-1}, plus a shift m."""

    kind: str
    shift: int = 0
    values: Mapping[int, int] | None = None  # kind="custom": variable index -> value

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.shift < 0:
            raise ValueError("shift must be nonnegative")
        if self.kind == "custom" and self.values is None:
            raise ValueError("custom rule needs a values mapping")

    @property
    def symbolic(self) -> bool:
        return self.kind in SYMBOLIC_KINDS

    def value_at(self, t: int):
        """Value on antidiagonal t (i + j = t), or None when it vanishes."""
        p = t + self.shift + 1
        if p & (p - 1):
            return None
        k = p.bit_length() - 1
        if self.kind == "unit":
            return 1
        if self.kind == "generic":
            return LaurentPoly.variable(k)
        if self.kind == "powers":
            return LaurentPoly.one() if k == 0 else LaurentPoly.variable(XVAR, k)
        if self.kind == "doubling":
            e = (1 << k) - 1
            return LaurentPoly.one() if e == 0 else LaurentPoly.variable(XVAR, e)
        if self.kind == "grs":
            if k == 0:
                raise ValueError("grs rule assigns no value to x0 (use shift >= 1)")
            return 1 if k == 1 else (-1 if k & 1 else 1)
        assert self.values is not None
        if k not in self.values:
            raise KeyError(f"custom rule has no value for variable index {k}")
        return self.values[k]


@dataclass
class HankelMatrix:
    """n x n matrix stored by its nonzero antidiagonals."""

    n: int
    rule: SequenceRule
    diagonals: dict[int, object] = field(default_factory=dict)

    def entry(self, i: int, j: int):
        v = self.diagonals.get(i + j)
        if v is None:
            return LaurentPoly.zero() if self.rule.symbolic else 0
        return v

    def rows(self) -> list[dict[int, object]]:
        out: list[dict[int, object]] = [dict() for _ in range(self.n)]
        for t, v in self.diagonals.items():
            for i in range(max(0, t - self.n + 1), min(self.n, t + 1)):
                out[i][t - i] = v
        return out

    def render_grid(self) -> str:
        """Row-major debug rendering with aligned columns."""
        cells = [[str(self.entry(i, j)) for j in range(self.n)] for i in range(self.n)]
        widths = [max((len(cells[i][j]) for i in range(self.n)), default=1) for j in range(self.n)]
        return "\n".join(
            "  ".join(cells[i][j].rjust(widths[j]) for j in range(self.n))
            for i in range(self.n)
        )


def build_matrix(rule: SequenceRule, n: int) -> HankelMatrix:
    """Matrix with entry(i, j) given by the rule at antidiagonal i + j."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    diagonals: dict[int, object] = {}
    for t in range(2 * n - 1):
        v = rule.value_at(t)
        if v is not None:
            diagonals[t] = v
    return HankelMatrix(n, rule, diagonals)


def _perm_parity(seq) -> int:
    """+1/-1 parity of a permutation given as an image list."""
    inv = 0
    for a, b in itertools.combinations(seq, 2):
        if a > b:
            inv += 1
    return -1 if inv & 1 else 1


def _bareiss_sparse(rows: list[dict[int, int]]) -> int:
    """Fraction-free Bareiss elimination on sparse integer rows.

    Row swaps are tracked through the selection permutation; rows untouched
    by a pivot keep a stage marker so the Bareiss rescaling (every entry is
    an exact minor) is applied lazily.  Bit-exact, arbitrary precision.
    """
    n = len(rows)
    if n == 0:
        return 1
    rows = [dict(r) for r in rows]
    col_rows: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        for j in r:
            col_rows.setdefault(j, set()).add(i)
    stage_piv = [1] * n  # previous-pivot value at each row's stage
    prev = 1
    used = [False] * n
    chosen: list[int] = []
    for c in range(n):
        cand = [i for i in col_rows.get(c, ()) if not used[i]]
        if not cand:
            return 0
        i0 = min(cand, key=lambda i: (len(rows[i]), i))
        used[i0] = True
        chosen.append(i0)
        if stage_piv[i0] != prev:
            den = stage_piv[i0]
            rows[i0] = {j: (v * prev) // den for j, v in rows[i0].items()}
        pivot_row = rows[i0]
        p = pivot_row[c]
        for i in [x for x in cand if x != i0]:
            if stage_piv[i] != prev:
                den = stage_piv[i]
                rows[i] = {j: (v * prev) // den for j, v in rows[i].items()}
            ri = rows[i]
            f = ri.pop(c)
            col_rows[c].discard(i)
            new: dict[int, int] = {}
            for j, v in ri.items():
                new[j] = v * p
            for j, w in pivot_row.items():
                if j == c:
                    continue
                nv = new.get(j, 0) - f * w
                if nv:
                    new[j] = nv
                elif j in new:
                    del new[j]
            if prev != 1:
                for j in new:
                    new[j] //= prev
            for j in ri.keys() - new.keys():
                col_rows[j].discard(i)
            for j in new.keys() - ri.keys():
                col_rows.setdefault(j, set()).add(i)
            rows[i] = new
            stage_piv[i] = p
        prev = p
    return _perm_parity(chosen) * prev


def _cofactor_sparse(rows: list[dict[int, object]]):
    """Cofactor expansion along sparsest rows, memoized on the column set."""
    n = len(rows)
    if n == 0:
        return 1
    order = sorted(range(n), key=lambda i: (len(rows[i]), i))
    row_sign = _perm_parity(order)
    memo: dict[int, object] = {}

    def rec(k: int, mask: int):
        if k == n:
            return 1
        cached = memo.get(mask)
        if cached is not None:
            return cached
        row = rows[order[k]]
        total = 0
        for j, v in row.items():
            bit = 1 << j
            if not (mask & bit):
                continue
            sub = rec(k + 1, mask & ~bit)
            term = v * sub
            if (mask & (bit - 1)).bit_count() & 1:
                total = total - term
            else:
                total = total + term
        memo[mask] = total
        return total

    return row_sign * rec(0, (1 << n) - 1)


def det_oracle(matrix: HankelMatrix, engine: str = "auto"):
    """Exact determinant; empty matrix gives 1.

    ``auto`` picks Bareiss for integer-valued rules and sparse cofactor
    expansion for symbolic ones.  Both engines accept either entry type.
    """
    if engine == "auto":
        engine = "cofactor" if matrix.rule.symbolic else "bareiss"
    if engine == "bareiss":
        if matrix.rule.symbolic:
            raise TypeError("bareiss engine needs integer entries")
        return _bareiss_sparse(matrix.rows())
    if engine == "cofactor":
        det = _cofactor_sparse(matrix.rows())
        if matrix.rule.symbolic and isinstance(det, int):
            return LaurentPoly.constant(det)
        return det
    raise ValueError(f"unknown engine {engine!r}")


@dataclass(frozen=True)
class SignedPermutation:
    images: tuple[int, ...]
    sign: int

    def __len__(self) -> int:
        return len(self.images)


def nimble_solve(n: int, m: int = 0) -> SignedPermutation | None:
    """The unique permutation with i + pi(i) + m + 1 a power of two, if any.

    Filled in from the descending interval-reversal blocks of
    ``closedform.nimble_blocks``: the largest admissible power of two forces
    an order-reversing block at the top, then the prefix is handled the same
    way.  None when some row has no admissible image.
    """
    blocks = nimble_blocks(n, m)
    if blocks is None:
        return None
    images = [0] * n
    hi = n
    for k, length in blocks:
        lo = hi - length
        for i in range(lo, hi):
            images[i] = (1 << k) - 1 - m - i
        hi = lo
    return SignedPermutation(tuple(images), blocks_sign(blocks))


def nimble_enumerate(n: int, m: int = 0) -> list[SignedPermutation]:
    """Brute-force all permutations whose determinant term survives (n <= 10)."""
    if n > 10:
        raise ValueError(f"enumeration is guarded to n <= 10, got {n}")
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    found = []
    for perm in itertools.permutations(range(n)):
        if all(bit_a(i + perm[i] + m) for i in range(n)):
            found.append(SignedPermutation(perm, _perm_parity(perm)))
    return found


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
        [sign_s(i) * sign_s(j) * binom_parity(2 * i + 1, i - j) for j in range(n)]
        for i in range(n)
    ]


def plain_diagonal(n: int) -> list[int]:
    """Diagonal entries (-1)^i of the plain decomposition."""
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
        prod[i][j] == bit_a(i + j) for i in range(n) for j in range(n)
    )


def shifted_lower_factor(n: int) -> list[list[int]]:
    """Factor c(i, j) = C(2i+2, i-j) mod 2 * v(i) v(j) for the shifted matrix."""
    return [
        [binom_parity(2 * i + 2, i - j) * sign_v(i) * sign_v(j) for j in range(n)]
        for i in range(n)
    ]


def shifted_diagonal(n: int) -> list[int]:
    """Diagonal entries S(i) of the shifted decomposition."""
    return [paperfolding_s(i) for i in range(n)]


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
        prod[i][j] == bit_a(i + j + 1) for i in range(n) for j in range(n)
    )


def orthopoly(n: int, t_values=None) -> UniPoly:
    """Monic orthogonal polynomial p_n via p_n = x p_{n-1} - T_{n-2} p_{n-2}.

    ``t_values`` must provide at least n-1 leading coefficients; by default
    they are the closed-form integer T-sequence.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    if t_values is None:
        t_values = [T_int(k) for k in range(max(0, n - 1))]
    elif len(t_values) < n - 1:
        raise ValueError(f"p_{n} needs {n - 1} leading coefficients, got {len(t_values)}")
    p_prev = UniPoly([1])
    if n == 0:
        return p_prev
    p_cur = UniPoly([0, 1])
    for k in range(2, n + 1):
        p_prev, p_cur = p_cur, p_cur.shift_up() - t_values[k - 2] * p_prev
    return p_cur


def moment_orthogonality(i: int, j: int) -> int:
    """L(p_i p_j) with moments L(x^t) = A_t = bit_a(t + 1); zero for i != j."""
    if i > 20 or j > 20:
        raise ValueError("moment check is guarded to indices <= 20")
    prod = orthopoly(i) * orthopoly(j)
    return sum(c * bit_a(t + 1) for t, c in enumerate(prod.coeffs))


def _v2(x: int) -> int:
    return (x & -x).bit_length() - 1


def catalan_shift_parity(n: int, m: int) -> int:
    """Parity of det(C_{i+j+m}) via summed 2-adic valuations of the product
    of (2n+i+j)/(i+j) over 1 <= i <= j <= m-1; 1 iff the valuation sum is 0.

    Never materializes the product, so n up to 10**6 and beyond is fine.
    """
    if m < 1:
        raise ValueError("shift must be >= 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = 0
    for j in range(1, m):
        for i in range(1, j + 1):
            total += _v2(2 * n + i + j) - _v2(i + j)
    return 1 if total == 0 else 0
