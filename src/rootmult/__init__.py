"""Exact root multiplicities of rank-3 chain Kac-Moody algebras.

Three independent routes to dim g_lam are provided and cross-checked:

* a closed-form binomial count on an interval model (:mod:`rootmult.formula`),
* the quotient of the free Lie algebra by the Serre relations, each root
  space built from the ones below it by exact integer linear algebra
  (:mod:`rootmult.serre`),
* the Peterson recurrence in exact rational arithmetic
  (:mod:`rootmult.peterson`).

The ``rootmult`` command line compares all of them over weight grids.

The two oracle engines, ``MultiplicityTable`` and ``SerreQuotient``, are
imported on first access, so ``import rootmult`` (and a command that runs
neither) does not load :mod:`rootmult.peterson`, :mod:`rootmult.serre` or
:mod:`rootmult.linalg`.
"""
from typing import TYPE_CHECKING

from .formula import closed_form_dim
from .freelie import ParseError, free_lie_dim, parse_bracket, to_standard_form
from .gcm import OracleScaleError, RecurrenceError, rank3_chain

if TYPE_CHECKING:
    from .peterson import MultiplicityTable
    from .serre import SerreQuotient

__version__ = "0.1.0"

__all__ = [
    "MultiplicityTable",
    "OracleScaleError",
    "ParseError",
    "RecurrenceError",
    "SerreQuotient",
    "closed_form_dim",
    "free_lie_dim",
    "parse_bracket",
    "rank3_chain",
    "to_standard_form",
]


def __getattr__(name: str) -> object:
    # PEP 562: resolve an engine on first access and keep it as a module global
    if name == "MultiplicityTable":
        from .peterson import MultiplicityTable as value
    elif name == "SerreQuotient":
        from .serre import SerreQuotient as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
