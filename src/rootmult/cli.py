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
import sys
from typing import IO, TYPE_CHECKING, Iterator, NamedTuple

from .formula import FormulaParams, Variant, closed_form_dim, count_canonical, interval_counts
from .freelie import (
    BracketExpr,
    expand_combination,
    expand_tensor,
    free_lie_dim,
    parse_bracket,
    to_standard_form,
    weight_of,
)
from .gcm import DEFAULT_HEIGHT_CAP, OracleScaleError, RecurrenceError, query_weight, rank3_chain

if TYPE_CHECKING:
    from .peterson import MultiplicityTable
    from .serre import SerreQuotient

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COMPUTE = 3

class OracleDisagreement(RuntimeError):
    """The two independent oracles returned different values: a hard failure."""


# a failed computation exits 3; a ValueError (ParseError included) or an
# OSError is a usage error and exits 2
COMPUTE_ERRORS = (OracleScaleError, RecurrenceError, OracleDisagreement, ArithmeticError)


class ComparisonRow(NamedTuple):
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

    def csv_line(self) -> str:
        return ",".join(
            ("true" if v else "false") if isinstance(v, bool) else str(v) for v in self
        )

    def json_line(self) -> str:
        import json  # only a JSON report loads it, which keeps it out of the CLI's start-up

        return json.dumps(self._asdict())


CSV_HEADER = ",".join(ComparisonRow._fields)


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


def _print_value(weight: tuple[int, ...], value: int, out: IO[str]) -> None:
    """Print ``value``, or raise OverflowError (exit 3) past the interpreter's digit limit.

    The limit is ``sys.get_int_max_str_digits()``; the error names it and leaves it as it is.
    """
    try:
        text = str(value)
    except ValueError:
        # a string conversion would be refused, so count the digits from the bit length
        digits = value.bit_length() * 30103 // 100000 + 1
        while 10 ** (digits - 1) > abs(value):
            digits -= 1
        raise OverflowError(
            f"the value at weight {weight} has {digits} decimal digits, over the "
            f"interpreter's limit of {sys.get_int_max_str_digits()} digits for printing "
            f"an integer (sys.get_int_max_str_digits())"
        ) from None
    print(text, file=out)


def _note_finite_type(a1: int, a2: int) -> None:
    """Warn on stderr that the closed-form counts do not cover the finite-type (1, 1) chain."""
    if (a1, a2) == (1, 1):
        print(
            "note: (a1, a2) = (1, 1) is finite type; the closed-form counts "
            "assume max(a1, a2) >= 2",
            file=sys.stderr,
        )


def _cmd_mult(args: argparse.Namespace, out: IO[str]) -> int:
    algebra = rank3_chain(*args.gcm)
    weight = query_weight(algebra, args.weight)
    # each engine is imported by the branch that runs it, which keeps the
    # others out of the command's start-up
    if args.method == "peterson":
        from .peterson import MultiplicityTable

        value = MultiplicityTable(algebra).multiplicity(weight)
    elif args.method == "quotient":
        from .serre import SerreQuotient

        value = SerreQuotient(algebra, height_cap=args.height_cap).multiplicity(weight)
    else:
        params = FormulaParams(*args.gcm, *weight)
        _note_finite_type(*args.gcm)
        if args.method == "formula":
            value = closed_form_dim(params, args.variant)
        else:
            value = count_canonical(params).canonical
    _print_value(weight, value, out)
    return EXIT_OK


def _rewrite_holds(
    expr: BracketExpr, lam: tuple[int, ...], combo: dict[tuple[int, ...], int]
) -> bool:
    """Whether ``combo`` expands to the same tensor polynomial as ``expr``.

    Every tuple must have the multidegree ``lam``.  Then E(expr) - E(combo)
    is a Lie polynomial of multidegree lam, and a nonzero one has a nonzero
    coefficient on a Lyndon word (the standard bracketing of a Lyndon word l
    is l plus larger words).  With a letter a of supp(lam) ordered smallest,
    every such word begins with a, so comparing the left quotients a⁻¹E is
    exact.  The letter is the one whose first position leaves the fewest
    quotient words, 2^(n-1-i) for a first occurrence at 0-based position i.
    The combination is expanded split at the expression's root: the suffix
    length is the leaf count m of the larger root child, since the rewriter
    prints [L, R] as a Lie element of one child applied to the tuples of the
    other (the split changes only the speed, never the verdict).
    """
    n = sum(lam)
    letters = range(1, len(lam) + 1)
    if any(len(t) != n or tuple(map(t.count, letters)) != lam for t in combo):
        return False
    support = [i for i in letters if lam[i - 1]]
    a = min(support, key=lambda i: sum(1 << (n - 1 - t.index(i)) for t in combo))
    m = n if isinstance(expr, int) else sum(weight_of(expr[0], len(lam)))
    split = max(m, n - m)
    return expand_tensor(expr, first=a) == expand_combination(combo, first=a, split=split)


def _cmd_rewrite(args: argparse.Namespace, out: IO[str]) -> int:
    expr = parse_bracket(args.expression)
    lam = weight_of(expr, 3)  # generator indices must name e1, e2 or e3
    combo = to_standard_form(expr)
    # both expansions run before anything is printed: either may pass
    # freelie.MAX_EXPAND_WORDS
    verified = args.verify and _rewrite_holds(expr, lam, combo)
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
    section44: int | str
    lemma410: int | str
    guarded: int | str
    canonical: int | str
    if min(weight) >= 2:
        # one evaluation of the interval model serves all four closed-form columns
        counts = interval_counts(FormulaParams(a1, a2, n1, n2, n3))
        section44 = counts.dim(Variant.SECTION44)
        lemma410 = counts.dim(Variant.LEMMA410)
        guarded = counts.dim(Variant.GUARDED)
        canonical = counts.canonical
    else:
        section44 = lemma410 = guarded = canonical = "n/a"
    mult = table.multiplicity(weight)
    quotient: int | str
    if sum(weight) <= engine.height_cap:
        quotient = engine.multiplicity(weight)
        if quotient != mult:
            raise OracleDisagreement(
                f"oracle disagreement at weight {weight}: quotient {quotient}, "
                f"recurrence {mult}"
            )
    else:
        quotient = "skipped"
    agree: bool | str = guarded == mult if isinstance(guarded, int) else "n/a"
    return ComparisonRow(
        a1, a2, n1, n2, n3, section44, lemma410, guarded, canonical, mult, quotient, agree,
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
    from .peterson import MultiplicityTable
    from .serre import SerreQuotient

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
    rank3_chain(a1, a2)  # bad labels exit 2 before --out is opened
    _note_finite_type(a1, a2)
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
                import json

                print(json.dumps({"truncated": str(exc)}), file=sink)
            raise
    finally:
        if args.out:
            sink.close()
    return EXIT_OK


def _cmd_witt(args: argparse.Namespace, out: IO[str]) -> int:
    _print_value(args.weight, free_lie_dim(args.weight), out)
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
