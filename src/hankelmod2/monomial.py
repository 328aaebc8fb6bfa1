"""One-term Laurent monomials c * prod x_{2^k-1}^e, and their canonical text.

Every determinant here is one signed permutation, so every symbolic closed
form is one signed monomial.  ``Monomial`` is that value: an integer
coefficient (0 is the zero value) and a tuple of ascending (k, e) pairs
with every e nonzero.  The constructor trusts its caller for
that order, so a closed form builds its value straight from the pairs it
already has: no sort, no zero filter, no hash.  Variable index k stands
for x_{2^k - 1} (index 3 is x7); the reserved index ``XVAR = -1`` is the
plain specialization variable printed as ``x``.

Multi-term arithmetic belongs to the oracles (``exactring.LaurentPoly``).
A closed-form value meets another value in one place, ``Monomial.of``,
which reads ints, monomials and anything with ``is_zero`` /
``is_monomial`` / ``monomial_parts``; ``==``, ``*`` and ``/`` go through
it.  This module imports nothing from the package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

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

    ``items`` are (k, e) pairs in ascending k with every e nonzero (a
    ``Monomial``'s exponents, an ``ExponentVector``'s items, or
    ``closedform.shift_profile``'s).  Positive powers stand above the bar,
    negative ones below it; |c| leads when it is not 1 or nothing else
    stands above the bar, so the empty product is "1".
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


class Exponents(tuple):
    """A monomial's ascending (k, e) pairs, read as the map k -> e: the
    exponent part of ``Monomial.monomial_parts()``."""

    __slots__ = ()

    def items(self) -> "Exponents":
        return self

    def get(self, k: int, default: int = 0) -> int:
        for kk, e in self:
            if kk == k:
                return e
        return default


def _combine(a: tuple, b: tuple, sign: int) -> tuple:
    """The exponents of a + sign * b: one merge of two ascending tuples."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        ka, ea = a[i]
        kb, eb = b[j]
        if ka < kb:
            out.append(a[i])
            i += 1
        elif kb < ka:
            out.append((kb, sign * eb))
            j += 1
        else:
            e = ea + sign * eb
            if e:
                out.append((ka, e))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend((k, sign * e) for k, e in b[j:])
    return tuple(out)


class Monomial:
    """Immutable c * prod x_{2^k-1}^e; ``Monomial(0)`` is zero.

    ``exps`` must hold (k, e) pairs in ascending k with every e nonzero;
    they are taken as given.
    """

    __slots__ = ("coeff", "exps")

    def __init__(self, coeff: int, exps: Iterable[tuple[int, int]] = ()):
        self.coeff = coeff
        self.exps = tuple(exps) if coeff else ()

    @classmethod
    def of(cls, value) -> "Monomial | None":
        """``value`` as a Monomial, or None when it is not one term.

        Reads an int, a Monomial, or anything with ``is_zero``,
        ``is_monomial`` and ``monomial_parts`` (whose exponent part has
        ascending ``items()`` with nonzero exponents), such as an oracle's
        ``LaurentPoly``.
        """
        if isinstance(value, Monomial):
            return value
        if isinstance(value, int):
            return cls(value)
        if not hasattr(value, "monomial_parts"):
            return None
        if value.is_zero():
            return cls(0)
        if not value.is_monomial():
            return None
        c, exps = value.monomial_parts()
        return cls(c, exps.items())

    # -- predicates and accessors ---------------------------------------

    def is_zero(self) -> bool:
        return not self.coeff

    def is_monomial(self) -> bool:
        return bool(self.coeff)

    def monomial_parts(self) -> tuple[int, Exponents]:
        if not self.coeff:
            raise ValueError("not a monomial: 0")
        return self.coeff, Exponents(self.exps)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "Monomial":
        return Monomial(-self.coeff, self.exps)

    def __mul__(self, other) -> "Monomial":
        other = Monomial.of(other)
        if other is None:
            return NotImplemented
        return Monomial(self.coeff * other.coeff, _combine(self.exps, other.exps, 1))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Monomial":
        """Exact division (exponent subtraction); the coefficient must divide."""
        other = Monomial.of(other)
        if other is None:
            return NotImplemented
        if not other.coeff:
            raise ZeroDivisionError("division by the zero monomial")
        q, r = divmod(self.coeff, other.coeff)
        if r:
            raise ValueError(f"coefficient {self.coeff} not divisible by {other.coeff}")
        return Monomial(q, _combine(self.exps, other.exps, -1))

    def __pow__(self, e: int) -> "Monomial":
        if not e:
            return Monomial(1)
        c = self.coeff
        if e < 0:
            if not c:
                raise ZeroDivisionError("the zero monomial has no inverse")
            if c not in (1, -1):
                raise ValueError(f"cannot invert coefficient {c} over the integers")
        return Monomial(c ** abs(e), [(k, v * e) for k, v in self.exps])

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = Monomial.of(other)
        if other is None:
            return NotImplemented
        return self.coeff == other.coeff and self.exps == other.exps

    def __hash__(self) -> int:
        # equal to the hash of the int it equals, and of an equal LaurentPoly
        return hash((self.coeff, self.exps)) if self.exps else hash(self.coeff)

    # -- evaluation and specialization ------------------------------------

    def eval(self, assignment: Mapping[int, Fraction | int]) -> Fraction:
        """Exact value under an assignment of every variable it holds.

        Raises KeyError for an unassigned variable and ZeroDivisionError
        when 0 is assigned to a negatively-powered one.
        """
        val = Fraction(self.coeff)
        for k, e in self.exps:
            x = Fraction(assignment[k])
            if x == 0 and e < 0:
                raise ZeroDivisionError(f"variable {var_name(k)} is 0 with exponent {e}")
            val *= x ** e
        return val

    def specialize(self, table: Mapping[int, tuple[int, int]]) -> "Monomial":
        """Substitute each variable k by coeff * x**exp per ``table``.

        The result lives in the single reserved variable ``XVAR``.  A
        coefficient other than +-1 must not carry a negative exponent.
        """
        coeff = self.coeff
        xexp = 0
        for k, e in self.exps:
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
        return Monomial(coeff, ((XVAR, xexp),) if xexp else ())

    # -- canonical text form ----------------------------------------------

    def __str__(self) -> str:
        return monomial_text(self.coeff, self.exps)

    def __repr__(self) -> str:
        return f"Monomial({self})"

