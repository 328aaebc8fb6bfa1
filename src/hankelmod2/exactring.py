"""Exact arithmetic substrates.

* ``LaurentPoly`` -- sparse multivariate Laurent polynomials over Python
  integers.  Variable index k stands for the indeterminate x_{2^k - 1}
  (so index 3 is x7); the reserved index ``XVAR = -1`` is the plain
  specialization variable printed as ``x``.
* ``UniPoly`` -- dense univariate integer polynomials (orthogonal
  polynomial recurrences).

No floats anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

XVAR = -1  # reserved variable index rendered as plain "x"


# the names of the first 64 variables; larger indices are formatted on use
# (a name at index k has about 0.3 k digits)
_VAR_NAMES = tuple(f"x{(1 << k) - 1}" for k in range(64))


def var_name(k: int) -> str:
    if 0 <= k < 64:
        return _VAR_NAMES[k]
    return "x" if k == XVAR else f"x{(1 << k) - 1}"


def monomial_text(c: int, items: Iterable[tuple[int, int]]) -> str:
    """Canonical text of c * prod x_{2^k-1}^e, the one monomial renderer.

    ``items`` are (k, e) pairs in ascending k with every e nonzero (an
    ``ExponentVector``'s items, or ``closedform.shift_profile``'s).  Positive
    powers stand above the bar, negative ones below it; |c| leads when it is
    not 1 or nothing else stands above the bar, so the empty product is "1".
    """
    num: list[str] = []
    den: list[str] = []
    for k, e in items:
        name = _VAR_NAMES[k] if 0 <= k < 64 else var_name(k)
        if e > 0:
            num.append(name if e == 1 else f"{name}^{e}")
        else:
            den.append(name if e == -1 else f"{name}^{-e}")
    mag = abs(c)
    if mag != 1 or not num:
        num.insert(0, str(mag))
    s = "*".join(num)
    if den:
        s += "/" + "*".join(den)
    return "-" + s if c < 0 else s


def var_index_from_subscript(sub: str) -> int:
    """Map a rendered subscript back to the variable index k (x7 -> 3)."""
    if sub == "":
        return XVAR
    t = int(sub)
    p = t + 1
    if p & (p - 1) or p == 0:
        raise ValueError(f"x{t} is not a legal variable: {t} + 1 must be a power of two")
    return p.bit_length() - 1


class ExponentVector:
    """Canonical finite map variable-index -> nonzero integer exponent.

    Immutable, so its hash is computed once, on first use.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, items: Iterable[tuple[int, int]] = ()):
        self._items = tuple(sorted((k, e) for k, e in items if e != 0))
        self._hash = None

    @classmethod
    def from_dict(cls, exps: Mapping[int, int]) -> "ExponentVector":
        return cls(exps.items())

    def items(self) -> tuple[tuple[int, int], ...]:
        return self._items

    def get(self, k: int) -> int:
        for kk, e in self._items:
            if kk == k:
                return e
        return 0

    def combine(self, other: "ExponentVector") -> "ExponentVector":
        exps = dict(self._items)
        for k, e in other._items:
            exps[k] = exps.get(k, 0) + e
        return ExponentVector(exps.items())

    def negate(self) -> "ExponentVector":
        return ExponentVector((k, -e) for k, e in self._items)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExponentVector) and self._items == other._items

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._items)
        return self._hash

    def __lt__(self, other: "ExponentVector") -> bool:
        return self._items < other._items

    def __repr__(self) -> str:
        return f"ExponentVector({dict(self._items)})"


_ONE_EV = ExponentVector()

_FACTOR_RE = re.compile(r"^x(\d*)(?:\^(-?\d+))?$")
_INT_RE = re.compile(r"^[+-]?\d+$")


class LaurentPoly:
    """Sparse Laurent polynomial; structural equality on canonical form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[ExponentVector, int] | None = None):
        self._terms: dict[ExponentVector, int] = {}
        if terms:
            for ev, c in terms.items():
                if c:
                    self._terms[ev] = c

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls({_ONE_EV: int(c)})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls.constant(1)

    @classmethod
    def variable(cls, k: int, power: int = 1) -> "LaurentPoly":
        return cls.monomial(1, {k: power})

    @classmethod
    def monomial(cls, coeff: int, exps: Mapping[int, int]) -> "LaurentPoly":
        return cls({ExponentVector.from_dict(exps): int(coeff)})

    # -- predicates and accessors ---------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def terms(self) -> Iterator[tuple[ExponentVector, int]]:
        return iter(sorted(self._terms.items(), key=lambda t: t[0]))

    def constant_value(self) -> int:
        """The value of a constant polynomial (raises otherwise)."""
        if not self._terms:
            return 0
        if len(self._terms) == 1 and _ONE_EV in self._terms:
            return self._terms[_ONE_EV]
        raise ValueError(f"not a constant polynomial: {self}")

    def monomial_parts(self) -> tuple[int, ExponentVector]:
        if len(self._terms) != 1:
            raise ValueError(f"not a monomial: {self}")
        ev, c = next(iter(self._terms.items()))
        return c, ev

    def variables(self) -> set[int]:
        return {k for ev in self._terms for k, _ in ev.items()}

    # -- ring operations -------------------------------------------------

    @staticmethod
    def _coerce(other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.constant(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for ev, c in other._terms.items():
            nc = terms.get(ev, 0) + c
            if nc:
                terms[ev] = nc
            elif ev in terms:
                del terms[ev]
        return LaurentPoly(terms)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({ev: -c for ev, c in self._terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[ExponentVector, int] = {}
        for ev1, c1 in self._terms.items():
            for ev2, c2 in other._terms.items():
                ev = ev1.combine(ev2)
                nc = terms.get(ev, 0) + c1 * c2
                if nc:
                    terms[ev] = nc
                elif ev in terms:
                    del terms[ev]
        return LaurentPoly(terms)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "LaurentPoly":
        if e < 0:
            c, ev = self.monomial_parts()
            if c not in (1, -1):
                raise ValueError(f"cannot invert coefficient {c} over the integers")
            return LaurentPoly({ev.negate(): c}) ** (-e)
        result = LaurentPoly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __truediv__(self, other) -> "LaurentPoly":
        """Exact division by a monomial (exponent subtraction)."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        dc, dev = other.monomial_parts()
        inv = dev.negate()
        terms: dict[ExponentVector, int] = {}
        for ev, c in self._terms.items():
            q, r = divmod(c, dc)
            if r:
                raise ValueError(f"coefficient {c} not divisible by {dc}")
            terms[ev.combine(inv)] = q
        return LaurentPoly(terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._terms == LaurentPoly.constant(other)._terms
        return isinstance(other, LaurentPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- evaluation and specialization ------------------------------------

    def eval(self, assignment: Mapping[int, Fraction | int]) -> Fraction:
        """Exact value under a total assignment of the variables.

        Raises KeyError for an unassigned variable and ZeroDivisionError
        when 0 is assigned to a negatively-powered one.
        """
        total = Fraction(0)
        for ev, c in self._terms.items():
            val = Fraction(c)
            for k, e in ev.items():
                x = Fraction(assignment[k])
                if x == 0 and e < 0:
                    raise ZeroDivisionError(f"variable {var_name(k)} is 0 with exponent {e}")
                val *= x ** e
            total += val
        return total

    def specialize(self, table: Mapping[int, tuple[int, int]]) -> "LaurentPoly":
        """Substitute each variable k by coeff * x**exp per ``table``.

        The result lives in the single reserved variable ``XVAR``.  A
        coefficient other than +-1 must not carry a negative exponent.
        """
        out = LaurentPoly.zero()
        for ev, c in self._terms.items():
            coeff = c
            xexp = 0
            for k, e in ev.items():
                vc, ve = table[k]
                xexp += ve * e
                if vc == 1:
                    continue
                if vc == -1:
                    coeff = -coeff if e & 1 else coeff
                elif e >= 0:
                    coeff *= vc ** e
                else:
                    raise ValueError(f"cannot raise coefficient {vc} to negative power {e}")
            out = out + LaurentPoly.monomial(coeff, {XVAR: xexp} if xexp else {})
        return out

    # -- canonical text form ----------------------------------------------

    def __str__(self) -> str:
        if len(self._terms) == 1:
            ((ev, c),) = self._terms.items()
            return monomial_text(c, ev.items())
        if not self._terms:
            return "0"
        out = ""
        for ev, c in self.terms():
            if not out:
                out = monomial_text(c, ev.items())
            else:
                out += (" - " if c < 0 else " + ") + monomial_text(abs(c), ev.items())
        return out

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse the canonical rendering produced by ``str``."""
        text = text.strip()
        if text == "0":
            return cls.zero()
        chunks: list[tuple[int, str]] = []
        for piece in text.replace(" - ", " +-").split(" +"):
            piece = piece.strip()
            if not piece:
                raise ValueError(f"malformed polynomial text: {text!r}")
            chunks.append((-1, piece[1:]) if piece.startswith("-") else (1, piece))
        poly = cls.zero()
        for sign, chunk in chunks:
            coeff = sign
            exps: dict[int, int] = {}
            num, sep, den = chunk.partition("/")
            if sep and not den:
                raise ValueError(f"empty denominator in {text!r}")
            for source, esign in ((num, 1), (den, -1)):
                if not source:
                    continue
                for factor in source.split("*"):
                    factor = factor.strip()
                    if _INT_RE.match(factor):
                        if esign < 0:
                            raise ValueError(f"integer factor in denominator: {text!r}")
                        coeff *= int(factor)
                        continue
                    m = _FACTOR_RE.match(factor)
                    if not m:
                        raise ValueError(f"bad factor {factor!r} in {text!r}")
                    k = var_index_from_subscript(m.group(1))
                    e = int(m.group(2)) if m.group(2) else 1
                    exps[k] = exps.get(k, 0) + esign * e
            poly = poly + cls.monomial(coeff, exps)
        return poly


class UniPoly:
    """Dense univariate integer polynomial, constant coefficient first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self[i] + other[i] for i in range(n))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self[i] - other[i] for i in range(n))

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, int):
            return UniPoly(c * other for c in self.coeffs)
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def shift_up(self) -> "UniPoly":
        """Multiply by x."""
        return UniPoly((0,) + self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(self.degree, -1, -1):
            c = self[e]
            if not c:
                continue
            if e == 0:
                body = str(abs(c))
            else:
                x = "x" if e == 1 else f"x^{e}"
                body = x if abs(c) == 1 else f"{abs(c)}*{x}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)})"

