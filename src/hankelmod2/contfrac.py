"""Continued fractions expanded into exact truncated power series, and the
orthogonal polynomials of the three-term recurrence.

S-fractions carry one linear coefficient per level,
1/(1 - c0 z/(1 - c1 z/(1 - ...))); J-fractions carry a linear and a
quadratic one, 1/(1 - s0 z - t0 z^2/(1 - s1 z - ...)).  Expansion follows
Flajolet's combinatorics of continued fractions: the coefficient of z^n of a
J-fraction is a weighted count of Motzkin paths of length n, and an
S-fraction is first turned into a J-fraction by even contraction.  A
series mod z**order is the tuple of its order coefficients; integer
coefficients stay plain ints throughout, rational ones run through the same
path sum.  The J-fraction's three-term recurrence also defines the monic
orthogonal polynomials ``orthopoly``, checked through their moment
functional.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .closedform import T_int, favard_st
from .exactring import UniPoly
from .seq import bit_a, grs_r


class InsufficientDepthError(ValueError):
    pass


@dataclass(frozen=True)
class CFSpec:
    """A finite continued fraction: shape "s" or "j" plus its coefficients."""

    shape: str
    linear: tuple[Fraction, ...]  # c_n (s-shape) or s_n (j-shape)
    quadratic: tuple[Fraction, ...] = ()  # t_n, j-shape only

    def __post_init__(self):
        if self.shape not in ("s", "j"):
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if self.shape == "j" and len(self.quadratic) != len(self.linear):
            raise ValueError("j-shape needs matching s and t coefficient lists")
        if self.shape == "s" and self.quadratic:
            raise ValueError("s-shape takes no quadratic coefficients")

    @classmethod
    def s_fraction(cls, coefficients: Sequence[Fraction | int]) -> "CFSpec":
        return cls("s", tuple(Fraction(c) for c in coefficients))

    @classmethod
    def j_fraction(
        cls, s: Sequence[Fraction | int], t: Sequence[Fraction | int]
    ) -> "CFSpec":
        return cls("j", tuple(Fraction(c) for c in s), tuple(Fraction(c) for c in t))

    @property
    def depth(self) -> int:
        return len(self.linear)

    def required_depth(self, order: int) -> int:
        return order if self.shape == "s" else (order + 1) // 2


def _exact(c: Fraction) -> Fraction | int:
    return c.numerator if c.denominator == 1 else c


def cf_expand(spec: CFSpec, order: int) -> tuple[Fraction | int, ...]:
    """Expand the fraction to a series mod z**order: its coefficients of
    z^0 .. z^(order-1), ints where they are integers.

    The coefficient of z^n is the weighted count of Motzkin paths of length n
    from height 0 back to 0: an up step has weight 1, a level step at height
    h has weight s_h and a down step from h+1 to h has weight t_h.  The
    count runs as one sweep over the heights a path can still return from,
    so it costs O(order^2) ring operations and inverts nothing.  An
    S-fraction is contracted first: s_0 = c_0, s_h = c_{2h-1} + c_{2h} and
    t_h = c_{2h} c_{2h+1}, with c_order taken as 0 (no path of length below
    order reaches that t).
    """
    need = spec.required_depth(order)
    if spec.depth < need:
        raise InsufficientDepthError(
            f"depth {spec.depth} cannot guarantee order {order} (need {need})"
        )
    if spec.shape == "s":
        c = [_exact(x) for x in spec.linear[:need]] + [0]
        levels = (need + 1) // 2
        s = [c[0]] + [c[2 * h - 1] + c[2 * h] for h in range(1, levels)]
        t = [c[2 * h] * c[2 * h + 1] for h in range(levels)]
    else:
        s = [_exact(x) for x in spec.linear[:need]]
        t = [_exact(x) for x in spec.quadratic[:need]]
    coeffs = []
    w = [1]  # w[h]: weighted count of path prefixes ending at height h
    for step in range(order):
        coeffs.append(w[0])
        top = min(step + 1, order - 2 - step)
        p = [0, *w, 0, 0]  # p[h], p[h+1], p[h+2]: from below, level, from above
        w = [p[h] + s[h] * p[h + 1] + t[h] * p[h + 2] for h in range(top + 1)]
    return tuple(coeffs)


def target_series(order: int, alternating: bool = False) -> tuple[int, ...]:
    """sum_k (+-1)^k z^(2^k - 1) mod z**order."""
    if order < 1:
        raise ValueError("order must be positive")
    coeffs = [0] * order
    k = 0
    while (1 << k) - 1 < order:
        coeffs[(1 << k) - 1] = -1 if alternating and k & 1 else 1
        k += 1
    return tuple(coeffs)


IDENTITIES = ("eq217", "eq228", "eq08")
MAX_ORDER = 1024  # largest order the identity checks accept


def identity_spec(which: str, order: int) -> tuple[CFSpec, tuple[int, ...]]:
    """The fraction and the target series of one of the three identities.

    eq217: S-fraction with c_n = T_n equals sum_k z^(2^k-1).
    eq228: J-fraction with the Favard (s_n, t_n) equals the same series.
    eq08:  S-fraction with c_n = -r(n) r(n+2) (the 1/(1 + ...) arrangement
           rewritten with negated coefficients) equals the alternating sum.
    """
    if which == "eq217":
        spec = CFSpec.s_fraction([T_int(k) for k in range(order)])
    elif which == "eq228":
        pairs = [favard_st(k) for k in range((order + 1) // 2)]
        spec = CFSpec.j_fraction([s for s, _ in pairs], [t for _, t in pairs])
    elif which == "eq08":
        spec = CFSpec.s_fraction([-grs_r(k) * grs_r(k + 2) for k in range(order)])
    else:
        raise ValueError(f"unknown identity {which!r}")
    return spec, target_series(order, alternating=which == "eq08")


def verify_identity(which: str, order: int) -> bool:
    """Coefficientwise check of one of the three fraction identities."""
    if order > MAX_ORDER:
        raise ValueError(f"identity checks are guarded to order <= {MAX_ORDER}")
    spec, want = identity_spec(which, order)
    return cf_expand(spec, order) == want


# ---------------------------------------------------------------------------
# Orthogonal polynomials of the Favard recurrence
# ---------------------------------------------------------------------------


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


# largest index ``moment_orthogonality`` takes: the moment sum multiplies two
# dense polynomials of degree up to the index
MOMENT_CAP = 20


def moment_orthogonality(i: int, j: int) -> int:
    """L(p_i p_j) with moments L(x^t) = A_t = bit_a(t + 1); zero for i != j.

    Indices above ``MOMENT_CAP`` are rejected.
    """
    if i > MOMENT_CAP or j > MOMENT_CAP:
        raise ValueError(f"moment check is guarded to indices <= {MOMENT_CAP}")
    prod = orthopoly(i) * orthopoly(j)
    return sum(c * bit_a(t + 1) for t, c in enumerate(prod.coeffs))
