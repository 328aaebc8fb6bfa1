"""Exact Hankel determinants of the Catalan-mod-2 family.

Library layout:
  seq        -- binary-digit counters and sign sequences
  exactring  -- Laurent polynomials, integer polynomials
  hankel     -- matrix construction and the determinant oracles; imports no
                closed form
  closedform -- every closed-form / recursive determinant evaluator, the
                interval-reversal blocks, LDL^t factors
  contfrac   -- continued-fraction expansion, identity checks, orthogonal
                polynomials
  cli        -- table / verify / bench / det command line
"""

from .exactring import LaurentPoly, UniPoly
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
