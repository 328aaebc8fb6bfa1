"""Exact Hankel determinants of the Catalan-mod-2 family.

Library layout:
  seq        -- binary-digit counters and sign sequences
  monomial   -- the one-term Laurent monomials every symbolic closed form
                returns, and the one monomial renderer; imports nothing
                from the package
  exactring  -- multi-term Laurent polynomials (the cofactor oracle's
                ring), integer polynomials
  hankel     -- matrix construction and the determinant oracles; imports no
                closed form
  closedform -- every closed-form / recursive determinant evaluator, the
                interval-reversal blocks, LDL^t factors; reaches no oracle
                and not the oracles' ring
  contfrac   -- continued-fraction expansion, identity checks, orthogonal
                polynomials
  cli        -- table / verify / bench / det command line
"""

from .exactring import LaurentPoly, UniPoly
from .monomial import Monomial
from .hankel import HankelMatrix, SequenceRule, build_matrix, det_oracle
from .closedform import (
    D_sign,
    T_int,
    d_shift_generic,
    d_shift_int,
    d_sign,
    generic_D,
    generic_T,
    generic_d,
    generic_t,
)

__all__ = [
    "Monomial",
    "LaurentPoly",
    "UniPoly",
    "HankelMatrix",
    "SequenceRule",
    "build_matrix",
    "det_oracle",
    "d_sign",
    "D_sign",
    "T_int",
    "d_shift_int",
    "d_shift_generic",
    "generic_d",
    "generic_D",
    "generic_T",
    "generic_t",
]

__version__ = "0.1.0"
