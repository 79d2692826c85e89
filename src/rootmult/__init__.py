"""Exact root multiplicities of rank-3 chain Kac-Moody algebras.

Three independent routes to dim g_lam are provided and cross-checked:

* a closed-form binomial count on an interval model (:mod:`rootmult.formula`,
  :mod:`rootmult.tuples`),
* a free-Lie-algebra / relation-ideal quotient computed by exact integer
  linear algebra (:mod:`rootmult.freelie`, :mod:`rootmult.serre`),
* the Peterson recurrence in exact rational arithmetic
  (:mod:`rootmult.peterson`).

The ``rootmult`` command line compares all of them over weight grids.
"""

from .formula import (
    Branch,
    DimBreakdown,
    FormulaParams,
    Variant,
    binomial,
    closed_form_dim,
    count_dependent,
    count_vanishing,
    stars_and_bars,
    total_configs,
)
from .freelie import (
    BracketExpr,
    Leaf,
    LieCombination,
    NcPolynomial,
    Node,
    ParseError,
    StandardTuple,
    expand_combination,
    expand_standard_tuple,
    expand_tensor,
    format_bracket,
    free_lie_dim,
    parse_bracket,
    standard_tuples_of_weight,
    to_standard_form,
    tuple_to_expr,
    weight_of,
)
from .gcm import GeneralizedCartanMatrix, WeightVector, rank3_chain, symmetric_form
from .peterson import MultiplicityTable, RecurrenceError
from .serre import (
    OracleScaleError,
    SerreElement,
    SerreQuotient,
    serre_elements,
)
from .tuples import (
    CanonicalCount,
    IntervalConfig,
    RankCheck,
    canonical_configs,
    config_to_tuple,
    count_canonical,
    enumerate_configs,
    independent_rank_check,
    is_dependent_pattern,
    is_trivial_pattern,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "BracketExpr",
    "CanonicalCount",
    "DimBreakdown",
    "FormulaParams",
    "GeneralizedCartanMatrix",
    "IntervalConfig",
    "Leaf",
    "LieCombination",
    "MultiplicityTable",
    "NcPolynomial",
    "Node",
    "OracleScaleError",
    "ParseError",
    "RankCheck",
    "RecurrenceError",
    "SerreElement",
    "SerreQuotient",
    "StandardTuple",
    "Variant",
    "WeightVector",
    "binomial",
    "canonical_configs",
    "closed_form_dim",
    "config_to_tuple",
    "count_canonical",
    "count_dependent",
    "count_vanishing",
    "enumerate_configs",
    "expand_combination",
    "expand_standard_tuple",
    "expand_tensor",
    "format_bracket",
    "free_lie_dim",
    "independent_rank_check",
    "is_dependent_pattern",
    "is_trivial_pattern",
    "parse_bracket",
    "rank3_chain",
    "serre_elements",
    "standard_tuples_of_weight",
    "stars_and_bars",
    "symmetric_form",
    "to_standard_form",
    "total_configs",
    "tuple_to_expr",
    "weight_of",
]
