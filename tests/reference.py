"""Reference code the library no longer needs, kept as test oracles.

The closed forms return ``monomial.Monomial`` values, so the multi-term
ring ``exactring.LaurentPoly`` keeps only what the cofactor oracle uses.
Its exact division, powers, evaluation, specialization and text parser
live here, written on its public interface, as the reference that
``Monomial``'s own operations are tested against; so do the digit counts
``digit_sum`` and ``ones_total`` that the specialization laws are stated in.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping

from hankelmod2.exactring import LaurentPoly
from hankelmod2.monomial import XVAR, var_name


def _check_nonneg(n: int) -> None:
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")


def digit_sum(n: int) -> int:
    """Binary digit sum s_2(n)."""
    _check_nonneg(n)
    return n.bit_count()


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


def poly_variables(p: LaurentPoly) -> set[int]:
    return {k for ev, _ in p.terms() for k, _ in ev.items()}


def poly_pow(p: LaurentPoly, e: int) -> LaurentPoly:
    """p ** e by squaring; a negative power inverts a +-1 monomial."""
    if e < 0:
        c, ev = p.monomial_parts()
        if c not in (1, -1):
            raise ValueError(f"cannot invert coefficient {c} over the integers")
        return poly_pow(LaurentPoly.monomial(c, {k: -v for k, v in ev.items()}), -e)
    result = LaurentPoly.one()
    base = p
    while e:
        if e & 1:
            result = result * base
        base = base * base
        e >>= 1
    return result


def poly_div(p: LaurentPoly, q) -> LaurentPoly:
    """Exact division by a monomial (exponent subtraction)."""
    if isinstance(q, int):
        q = LaurentPoly.constant(q)
    dc, dev = q.monomial_parts()
    out = LaurentPoly.zero()
    for ev, c in p.terms():
        quot, r = divmod(c, dc)
        if r:
            raise ValueError(f"coefficient {c} not divisible by {dc}")
        exps = dict(ev.items())
        for k, e in dev.items():
            exps[k] = exps.get(k, 0) - e
        out = out + LaurentPoly.monomial(quot, exps)
    return out


def poly_eval(p: LaurentPoly, assignment: Mapping[int, Fraction | int]) -> Fraction:
    """Exact value under a total assignment of the variables.

    Raises KeyError for an unassigned variable and ZeroDivisionError
    when 0 is assigned to a negatively-powered one.
    """
    total = Fraction(0)
    for ev, c in p.terms():
        val = Fraction(c)
        for k, e in ev.items():
            x = Fraction(assignment[k])
            if x == 0 and e < 0:
                raise ZeroDivisionError(f"variable {var_name(k)} is 0 with exponent {e}")
            val *= x ** e
        total += val
    return total


def poly_specialize(p: LaurentPoly, table: Mapping[int, tuple[int, int]]) -> LaurentPoly:
    """Substitute each variable k by coeff * x**exp per ``table``.

    The result lives in the single reserved variable ``XVAR``.  A
    coefficient other than +-1 must not carry a negative exponent.
    """
    out = LaurentPoly.zero()
    for ev, c in p.terms():
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


def var_index_from_subscript(sub: str) -> int:
    """Map a rendered subscript back to the variable index k (x7 -> 3)."""
    if sub == "":
        return XVAR
    t = int(sub)
    p = t + 1
    if p & (p - 1) or p == 0:
        raise ValueError(f"x{t} is not a legal variable: {t} + 1 must be a power of two")
    return p.bit_length() - 1


_FACTOR_RE = re.compile(r"^x(\d*)(?:\^(-?\d+))?$")
_INT_RE = re.compile(r"^[+-]?\d+$")


def parse_poly(text: str) -> LaurentPoly:
    """Parse the canonical rendering produced by ``str``."""
    text = text.strip()
    if text == "0":
        return LaurentPoly.zero()
    chunks: list[tuple[int, str]] = []
    for piece in text.replace(" - ", " +-").split(" +"):
        piece = piece.strip()
        if not piece:
            raise ValueError(f"malformed polynomial text: {text!r}")
        chunks.append((-1, piece[1:]) if piece.startswith("-") else (1, piece))
    poly = LaurentPoly.zero()
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
        poly = poly + LaurentPoly.monomial(coeff, exps)
    return poly
