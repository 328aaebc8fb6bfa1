"""Hankel matrices with power-of-two support and exact determinant oracles.

The matrices here have entry(i, j) nonzero exactly when i + j + m + 1 is a
power of two, so every row carries at most ~log2(2n + m) nonzeros.  Both
oracles (fraction-free Bareiss over integers, sparse cofactor expansion
over polynomials) exploit that.  On the integer rules the whole Bareiss path
is close to linear in n: ``build_matrix`` asks the rule for only the
O(log n) power-of-two antidiagonals, ``rows()`` writes each nonzero once,
elimination updates rows in place (pivots are +-1 and rows stay short), and
the sign of the row selection is a cycle count.  ``catalan_shift_parity``
is a third, mod-2 oracle: the parity of the shifted Catalan determinant
from the 2-adic valuations of its product formula.  This module imports
only ``exactring``, the leaf ``monomial`` (for ``XVAR``) and the standard
library, so no oracle can call a closed form or fall back to one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .exactring import LaurentPoly
from .monomial import XVAR

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

    @property
    def default_engine(self) -> str:
        """The oracle ``det_oracle`` runs for engine "auto"."""
        return "cofactor" if self.symbolic else "bareiss"

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
    """Matrix with entry(i, j) given by the rule at antidiagonal i + j.

    Only the antidiagonals t = 2^k - m - 1 in [0, 2n - 1) can be nonzero, so
    just those O(log n) are asked of the rule.
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    diagonals: dict[int, object] = {}
    m = rule.shift
    power = 1 << m.bit_length()  # smallest power of two above m
    while power - m - 1 < 2 * n - 1:
        t = power - m - 1
        v = rule.value_at(t)
        if v is not None:
            diagonals[t] = v
        power <<= 1
    return HankelMatrix(n, rule, diagonals)


def _perm_parity(seq) -> int:
    """+1/-1 parity of a permutation of range(n) given as an image list.

    (-1)^(n - #cycles): one pass over the cycles, O(n).
    """
    n = len(seq)
    seen = bytearray(n)
    cycles = 0
    for start in range(n):
        if seen[start]:
            continue
        cycles += 1
        i = start
        while not seen[i]:
            seen[i] = 1
            i = seq[i]
    return -1 if (n - cycles) & 1 else 1


def _bareiss_sparse(rows: list[dict[int, int]]) -> int:
    """Fraction-free Bareiss elimination on sparse integer rows.

    Each column's pivot is its sparsest remaining row (lowest index on ties);
    row swaps are tracked through the selection permutation.  Rows untouched
    by a pivot keep a stage marker, so the Bareiss rescaling (every entry is
    an exact minor) is applied lazily.  Rows are updated in place and a
    column index maps each column to the non-pivot rows that hold it, so one
    step costs O(candidates x row length): on the power-of-two Hankel
    matrices (O(log n) nonzeros a row, pivots +-1) the whole elimination is
    close to linear in n.  Bit-exact, arbitrary precision.
    """
    n = len(rows)
    if n == 0:
        return 1
    rows = [dict(r) for r in rows]
    col_rows: list[set[int]] = [set() for _ in range(n)]
    for i, r in enumerate(rows):
        for j in r:
            col_rows[j].add(i)
    stage_piv = [1] * n  # previous-pivot value at each row's stage
    prev = 1
    chosen: list[int] = []
    for c in range(n):
        cand = col_rows[c]  # the non-pivot rows with an entry in column c
        if not cand:
            return 0
        if len(cand) == 1:
            i0 = cand.pop()
        else:
            i0 = min(cand, key=lambda i: (len(rows[i]), i))
            cand.discard(i0)
        chosen.append(i0)
        pivot_row = rows[i0]
        for j in pivot_row:
            col_rows[j].discard(i0)
        den = stage_piv[i0]
        if not cand:
            prev = pivot_row[c] if den == prev else (pivot_row[c] * prev) // den
            continue
        if den != prev:
            for j, v in pivot_row.items():
                pivot_row[j] = (v * prev) // den
        p = pivot_row.pop(c)
        for i in cand:
            ri = rows[i]
            if stage_piv[i] != prev:
                den = stage_piv[i]
                for j, v in ri.items():
                    ri[j] = (v * prev) // den
            f = ri.pop(c)
            if p != 1:
                for j, v in ri.items():
                    ri[j] = v * p
            for j, w in pivot_row.items():
                v = ri.get(j)
                if v is None:
                    ri[j] = -f * w
                    col_rows[j].add(i)
                else:
                    v -= f * w
                    if v:
                        ri[j] = v
                    else:
                        del ri[j]
                        col_rows[j].discard(i)
            if prev != 1:
                for j, v in ri.items():
                    ri[j] = v // prev
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
        engine = matrix.rule.default_engine
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
