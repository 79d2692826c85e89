"""Command-line surface: single-weight queries, rewriting, and grid comparison.

Commands
--------
mult     multiplicity of one weight by a selected method
rewrite  left-normed rewriting of a bracket expression
compare  grid report comparing every method; disagreement between the
         closed form and the oracles is recorded as data, never a failure;
         disagreement between the two oracles aborts with an error
witt     free Lie algebra dimension of a multidegree
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from dataclasses import dataclass, fields
from typing import IO, Iterator

from .formula import FormulaParams, Variant, closed_form_dim
from .freelie import (
    expand_combination,
    expand_tensor,
    free_lie_dim,
    parse_bracket,
    to_standard_form,
    weight_of,
)
from .gcm import WeightVector, query_weight, rank3_chain
from .peterson import MultiplicityTable, RecurrenceError
from .serre import DEFAULT_HEIGHT_CAP, OracleScaleError, SerreQuotient
from .tuples import count_canonical

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COMPUTE = 3

class OracleDisagreement(RuntimeError):
    """The two independent oracles returned different values: a hard failure."""


# a failed computation exits 3; a ValueError (ParseError included) or an
# OSError is a usage error and exits 2
COMPUTE_ERRORS = (OracleScaleError, RecurrenceError, OracleDisagreement, ArithmeticError)


@dataclass(frozen=True)
class ComparisonRow:
    """One report row; the field order is the CSV column order and the JSON key order."""

    a1: int
    a2: int
    n1: int
    n2: int
    n3: int
    formula_section44: int | str
    formula_lemma410: int | str
    formula_guarded: int | str
    tuples_canonical: int | str
    peterson: int
    quotient: int | str
    agree_guarded_peterson: bool | str

    # vars() holds the fields in declaration order; astuple and asdict would
    # deep-copy every field of every row
    def csv_line(self) -> str:
        return ",".join(
            ("true" if v else "false") if isinstance(v, bool) else str(v)
            for v in vars(self).values()
        )

    def json_line(self) -> str:
        return json.dumps(vars(self))


CSV_HEADER = ",".join(f.name for f in fields(ComparisonRow))


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'a1,a2', got {text!r}")
    try:
        a1, a2 = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers in {text!r}") from None
    return a1, a2


def _parse_weight(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'LO..HI', got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers in {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    if lo < 0:
        raise argparse.ArgumentTypeError("weight coefficients are nonnegative")
    return lo, hi


def _parse_height_cap(text: str) -> int:
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if cap < 1:
        raise argparse.ArgumentTypeError(f"height cap must be >= 1, got {cap}")
    return cap


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="rootmult",
        description="Exact root multiplicities of rank-3 chain Kac-Moody algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mult = sub.add_parser("mult", help="multiplicity of a single weight")
    mult.add_argument("--gcm", type=_parse_pair, required=True, metavar="a1,a2")
    mult.add_argument("--weight", type=_parse_weight, required=True, metavar="n1,n2,n3")
    mult.add_argument(
        "--method",
        choices=("formula", "peterson", "quotient", "tuples"),
        required=True,
    )
    mult.add_argument(
        "--variant",
        choices=tuple(v.value for v in Variant),
        default=Variant.GUARDED.value,
    )
    mult.add_argument("--height-cap", type=_parse_height_cap, default=DEFAULT_HEIGHT_CAP)

    rewrite = sub.add_parser("rewrite", help="rewrite a bracket expression")
    rewrite.add_argument("expression")
    rewrite.add_argument("--verify", action="store_true")

    compare = sub.add_parser("compare", help="grid comparison report")
    compare.add_argument("--gcm", type=_parse_pair, required=True, metavar="a1,a2")
    compare.add_argument(
        "--range",
        type=_parse_range,
        required=True,
        metavar="LO..HI",
        help="inclusive bounds applied to each coefficient; the zero weight is omitted",
    )
    compare.add_argument("--format", choices=("csv", "json"), default="csv")
    compare.add_argument("--out", default=None, metavar="PATH")
    compare.add_argument("--height-cap", type=_parse_height_cap, default=DEFAULT_HEIGHT_CAP)

    witt = sub.add_parser("witt", help="free Lie algebra dimension of a multidegree")
    witt.add_argument("--weight", type=_parse_weight, required=True, metavar="n1,...,nr")

    return parser


def _cmd_mult(args: argparse.Namespace, out: IO[str]) -> int:
    algebra = rank3_chain(*args.gcm)
    weight = query_weight(algebra, args.weight)
    if args.method == "peterson":
        value = MultiplicityTable(algebra).multiplicity(weight)
    elif args.method == "quotient":
        value = SerreQuotient(algebra, height_cap=args.height_cap).multiplicity(weight)
    else:
        params = FormulaParams(*args.gcm, *weight.coeffs)
        if args.method == "formula":
            value = closed_form_dim(params, args.variant).dim
        else:
            value = count_canonical(params).canonical
    print(value, file=out)
    return EXIT_OK


def _cmd_rewrite(args: argparse.Namespace, out: IO[str]) -> int:
    expr = parse_bracket(args.expression)
    weight_of(expr, 3)  # generator indices must name e1, e2 or e3
    combo = to_standard_form(expr)
    # both expansions run before anything is printed: either may pass
    # freelie.MAX_EXPAND_WORDS
    verified = args.verify and expand_tensor(expr) == expand_combination(combo)
    for t, c in sorted(combo.items()):
        print(f"{'+' if c > 0 else '-'}{abs(c)}*[{','.join(map(str, t))}]", file=out)
    if args.verify:
        print("VERIFIED" if verified else "MISMATCH", file=out)
        if not verified:
            return EXIT_COMPUTE
    return EXIT_OK


def _compare_row(
    a1: int,
    a2: int,
    weight: tuple[int, int, int],
    table: MultiplicityTable,
    engine: SerreQuotient,
) -> ComparisonRow:
    n1, n2, n3 = weight
    lam = WeightVector(weight)
    formulas: dict[Variant, int | str]
    if min(weight) >= 2:
        params = FormulaParams(a1, a2, n1, n2, n3)
        formulas = {v: closed_form_dim(params, v).dim for v in Variant}
        canonical: int | str = count_canonical(params).canonical
    else:
        formulas = {v: "n/a" for v in Variant}
        canonical = "n/a"
    mult = table.multiplicity(lam)
    quotient: int | str
    if lam.height <= engine.height_cap:
        quotient = engine.multiplicity(lam)
        if quotient != mult:
            raise OracleDisagreement(
                f"oracle disagreement at weight {weight}: quotient {quotient}, "
                f"recurrence {mult}"
            )
    else:
        quotient = "skipped"
    guarded = formulas[Variant.GUARDED]
    agree: bool | str = guarded == mult if isinstance(guarded, int) else "n/a"
    return ComparisonRow(
        a1, a2, n1, n2, n3,
        formulas[Variant.SECTION44], formulas[Variant.LEMMA410], guarded,
        canonical, mult, quotient, agree,
    )


def compare_rows(
    a1: int,
    a2: int,
    lo: int,
    hi: int,
    height_cap: int = DEFAULT_HEIGHT_CAP,
) -> Iterator[ComparisonRow]:
    """Rows in grid order (n1, n2, n3 lexicographic over [lo..hi]^3).

    The zero weight is omitted: it is not a weight of anything.
    """
    algebra = rank3_chain(a1, a2)
    table = MultiplicityTable(algebra)
    engine = SerreQuotient(algebra, height_cap=height_cap)
    if hi:
        # every grid weight lies in the box below (hi, hi, hi): fill it in
        # one walk rather than re-walking a box per grid weight
        table.multiplicity((hi, hi, hi))
    for weight in itertools.product(range(lo, hi + 1), repeat=3):
        if any(weight):
            yield _compare_row(a1, a2, weight, table, engine)


def _cmd_compare(args: argparse.Namespace, out: IO[str]) -> int:
    a1, a2 = args.gcm
    if rank3_chain(a1, a2).finite_type:
        print(
            "note: (a1, a2) = (1, 1) is finite type; the closed-form counts "
            "assume max(a1, a2) >= 2",
            file=sys.stderr,
        )
    lo, hi = args.range

    sink = open(args.out, "w", encoding="utf-8") if args.out else out
    try:
        if args.format == "csv":
            print(CSV_HEADER, file=sink)
        try:
            for row in compare_rows(a1, a2, lo, hi, height_cap=args.height_cap):
                print(row.csv_line() if args.format == "csv" else row.json_line(), file=sink)
        except COMPUTE_ERRORS as exc:
            # leave a partial report with an explicit truncation marker
            if args.format == "csv":
                print(f"# truncated: {exc}", file=sink)
            else:
                print(json.dumps({"truncated": str(exc)}), file=sink)
            raise
    finally:
        if args.out:
            sink.close()
    return EXIT_OK


def _cmd_witt(args: argparse.Namespace, out: IO[str]) -> int:
    print(free_lie_dim(args.weight), file=out)
    return EXIT_OK


COMMANDS = {"mult": _cmd_mult, "rewrite": _cmd_rewrite, "compare": _cmd_compare, "witt": _cmd_witt}


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Write ``--flag -1,2`` as ``--flag=-1,2``.

    argparse reads a value that starts with '-' as a flag unless it is a
    plain number, so ``--weight -1,1,1`` would never reach the weight check.
    """
    out: list[str] = []
    for arg in argv:
        negative = arg[:1] == "-" and arg[1:2].isdigit()
        if negative and out and out[-1][:2] == "--" and "=" not in out[-1]:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None, out: IO[str] | None = None) -> int:
    """Run one command and return its exit code.

    A handler raises on failure; the exception's class picks the exit code
    and its message becomes the one line written to stderr.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_attach_negative_values(argv))
    try:
        return COMMANDS[args.command](args, out or sys.stdout)
    except COMPUTE_ERRORS as exc:
        code, error = EXIT_COMPUTE, exc
    except (ValueError, OSError) as exc:
        code, error = EXIT_USAGE, exc
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
