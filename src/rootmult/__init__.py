"""Exact root multiplicities of rank-3 chain Kac-Moody algebras.

Three independent routes to dim g_lam are provided and cross-checked:

* a closed-form binomial count on an interval model (:mod:`rootmult.formula`),
* the quotient of the free Lie algebra by the Serre relations, each root
  space built from the ones below it by exact integer linear algebra
  (:mod:`rootmult.serre`),
* the Peterson recurrence in exact rational arithmetic
  (:mod:`rootmult.peterson`).

The ``rootmult`` command line compares all of them over weight grids.
"""

from .formula import FormulaParams, Variant, closed_form_dim, count_canonical
from .freelie import ParseError, free_lie_dim, parse_bracket, to_standard_form
from .gcm import rank3_chain
from .peterson import MultiplicityTable, RecurrenceError
from .serre import OracleScaleError, SerreQuotient

__version__ = "0.1.0"

__all__ = [
    "FormulaParams",
    "MultiplicityTable",
    "OracleScaleError",
    "ParseError",
    "RecurrenceError",
    "SerreQuotient",
    "Variant",
    "closed_form_dim",
    "count_canonical",
    "free_lie_dim",
    "parse_bracket",
    "rank3_chain",
    "to_standard_form",
]
