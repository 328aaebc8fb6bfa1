"""Exact rings for the oracles and the orthogonal polynomials.

* ``LaurentPoly`` -- sparse multivariate Laurent polynomials over Python
  integers: the ring the cofactor oracle expands symbolic determinants in.
  Variable index k stands for the indeterminate x_{2^k - 1} (so index 3 is
  x7), as in ``monomial``, whose ``monomial_text`` renders every term.
  The closed forms never build one; their values are ``monomial.Monomial``,
  which reads a one-term polynomial through ``monomial_parts``, and a
  constant polynomial hashes as its int, as a Monomial does.
* ``UniPoly`` -- dense univariate integer polynomials (orthogonal
  polynomial recurrences).

No floats anywhere.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .monomial import monomial_text


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

    def combine(self, other: "ExponentVector") -> "ExponentVector":
        exps = dict(self._items)
        for k, e in other._items:
            exps[k] = exps.get(k, 0) + e
        return ExponentVector(exps.items())

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

    def monomial_parts(self) -> tuple[int, ExponentVector]:
        if len(self._terms) != 1:
            raise ValueError(f"not a monomial: {self}")
        ev, c = next(iter(self._terms.items()))
        return c, ev

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

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented  # a Monomial answers for itself
        return self._terms == other._terms

    def __hash__(self) -> int:
        # a monomial hashes as (coefficient, exponent pairs) and a constant
        # as its int, so equal ints and Monomials hash alike
        if len(self._terms) > 1:
            return hash(frozenset(self._terms.items()))
        if not self._terms:
            return hash(0)
        ((ev, c),) = self._terms.items()
        items = ev.items()
        return hash((c, items)) if items else hash(c)

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

