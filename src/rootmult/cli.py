"""Command-line surface: single-weight queries, rewriting, and grid comparison.

Commands
--------
mult     multiplicity of one weight by a selected method
rewrite  left-normed rewriting of a bracket expression
compare  grid report comparing every method; disagreement between the
         closed form and the oracles is recorded as data, never a failure;
         disagreement between the two oracles aborts with an error
witt     free Lie algebra dimension of a multidegree

The command line is read against one table (``build_parser``) that lists
each command's flags, their value parsers and defaults, its switches and its
positionals.  A flag takes the next token as its value, or the text after
``--flag=``; flags are spelled in full, in any order, and a repeated flag
keeps its last value.  ``-h`` or ``--help`` prints the usage text built from
the table.  ``main`` returns 0, 2 (usage) or 3 (computation) for every input.
"""
from __future__ import annotations

import functools
import itertools
import sys
from types import SimpleNamespace
from typing import IO, Any, Callable, Iterator, NamedTuple

from .formula import VARIANTS, closed_form_dim, interval_counts
from .freelie import (
    BracketExpr,
    expand_combination,
    expand_tensor,
    free_lie_dim,
    parse_bracket,
    to_standard_form,
    weight_of,
)
from .gcm import (
    DEFAULT_HEIGHT_CAP,
    OracleScaleError,
    RecurrenceError,
    query_weight,
    rank3_chain,
    reduce_to_chamber,
)

# the name bench/spans.py wraps to count tuples.configs (it reads .raw); it
# stays until that counter is retired (ROADMAP item 4)
count_canonical = interval_counts

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


def _integers(text: str, count: int = 0, sep: str = ",") -> tuple[int, ...]:
    """The integers of ``text`` split at ``sep``; exactly ``count`` of them unless it is 0.

    Each is ASCII digits after an optional '-', as in the bracket parser:
    ``int`` alone would also read '+5', ' 1', '1_0' and digits such as '٢'.
    """
    parts = text.split(sep)
    digits = [p.removeprefix("-") for p in parts]
    if (count and len(parts) != count) or not all(d.isascii() and d.isdigit() for d in digits):
        form = sep.join(["N"] * count) if count else f"N{sep}N{sep}..."
        raise ValueError(f"expected {form} (N: ASCII digits after an optional '-'), got {text!r}")
    return tuple(map(int, parts))


def _parse_range(text: str) -> tuple[int, int]:
    lo, hi = _integers(text, 2, "..")
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    if lo < 0:
        raise ValueError("weight coefficients are nonnegative")
    return lo, hi


def _parse_height_cap(text: str) -> int:
    (cap,) = _integers(text, 1)
    if cap < 1:
        raise ValueError(f"height cap must be >= 1, got {cap}")
    return cap


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


def _cmd_mult(args: SimpleNamespace, out: IO[str]) -> int:
    algebra = rank3_chain(*args.gcm)
    weight = query_weight(algebra, args.weight)
    # each engine is imported by the branch that runs it, which keeps the
    # others out of the command's start-up
    if args.method == "peterson":
        from .peterson import MultiplicityTable

        # the table fills the box below the weight it is asked, so it is asked
        # the chamber weight; the quotient's value must not rest on Weyl invariance
        low = reduce_to_chamber(algebra, weight)
        value = 0 if low is None else MultiplicityTable(algebra).multiplicity(low)
    elif args.method == "quotient":
        from .serre import SerreQuotient

        value = SerreQuotient(algebra, height_cap=args.height_cap).multiplicity(weight)
    else:
        # the value comes first, so a weight the closed form refuses prints no note
        if args.method == "formula":
            value = closed_form_dim(*args.gcm, *weight, args.variant)
        else:
            value = count_canonical(*args.gcm, *weight).canonical
        _note_finite_type(*args.gcm)
    _print_value(weight, value, out)
    return EXIT_OK


def _rewrite_holds(
    expr: BracketExpr, lam: tuple[int, ...], combo: dict[tuple[int, ...], int]
) -> bool:
    """Whether ``combo`` expands to the same tensor polynomial as ``expr``.

    Every tuple must have the multidegree ``lam``.  Then E(expr) - E(combo)
    is a Lie polynomial of multidegree lam, and a nonzero one has a nonzero
    coefficient on a Lyndon word (the standard bracketing of a Lyndon word l
    is l plus larger words).  Whichever letter a of supp(lam) is ordered
    smallest, every such word begins with a, so comparing the left quotients
    a⁻¹E is exact for any such a, and the choice of a only sets the speed.
    An empty combination takes the smallest letter: one expansion, no split.
    Otherwise a is the letter whose first position leaves the fewest
    quotient words, 2^(n-1-i) for a first occurrence at 0-based position i
    (always the smallest letter made a rewrite-verify pass 16% slower, 72.0
    to 83.8 ms on a 2-core Xeon).  The combination is then expanded split at
    the expression's root, with the larger root child's leaf count as the
    suffix length, since the rewriter prints [L, R] as a Lie element of one
    child applied to the tuples of the other; the split only sets the speed.
    """
    n = sum(lam)
    letters = range(1, len(lam) + 1)
    support = [i for i in letters if lam[i - 1]]
    if not combo:
        return not expand_tensor(expr, first=support[0]).coeffs
    if any(len(t) != n or tuple(map(t.count, letters)) != lam for t in combo):
        return False
    a = min(support, key=lambda i: sum(1 << (n - 1 - t.index(i)) for t in combo))
    m = n if isinstance(expr, int) else sum(weight_of(expr[0], len(lam)))
    split = max(m, n - m)
    return expand_tensor(expr, first=a) == expand_combination(combo, first=a, split=split)


def _cmd_rewrite(args: SimpleNamespace, out: IO[str]) -> int:
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


def compare_rows(
    a1: int,
    a2: int,
    lo: int,
    hi: int,
    height_cap: int = DEFAULT_HEIGHT_CAP,
) -> Iterator[ComparisonRow]:
    """Rows in grid order (n1, n2, n3 lexicographic over [lo..hi]^3), without the zero weight.

    Each row reads, in this order:
    1. the recurrence's multiplicity;
    2. at height <= ``height_cap``, the quotient's (else ``skipped``); a
       different value raises :class:`OracleDisagreement` and ends the report;
    3. where every coefficient is >= 2, one ``interval_counts`` for the four
       closed-form columns and the guarded one's agreement with the
       recurrence, else ``n/a``: a closed form that disagrees is data.
    """
    from .peterson import MultiplicityTable
    from .serre import SerreQuotient

    algebra = rank3_chain(a1, a2)
    table = MultiplicityTable(algebra)
    engine = SerreQuotient(algebra, height_cap=height_cap)
    if hi:
        # every grid weight lies below (hi, hi, hi): fill that box in one walk
        table.multiplicity((hi, hi, hi))
    for weight in itertools.product(range(lo, hi + 1), repeat=3):
        if not any(weight):
            continue
        mult = table.multiplicity(weight)
        quotient: int | str = "skipped"
        if sum(weight) <= height_cap:
            quotient = engine.multiplicity(weight)
            if quotient != mult:
                raise OracleDisagreement(
                    f"oracle disagreement at weight {weight}: quotient {quotient}, "
                    f"recurrence {mult}"
                )
        if min(weight) >= 2:
            counts = interval_counts(a1, a2, *weight)
            section44: int | str = counts.dim("section44")
            lemma410: int | str = counts.dim("lemma410")
            guarded: int | str = counts.dim("guarded")
            canonical: int | str = counts.canonical
            agree: bool | str = guarded == mult
        else:
            section44 = lemma410 = guarded = canonical = agree = "n/a"
        yield ComparisonRow(
            a1, a2, *weight, section44, lemma410, guarded, canonical, mult, quotient, agree
        )


def _cmd_compare(args: SimpleNamespace, out: IO[str]) -> int:
    a1, a2 = args.gcm
    rank3_chain(a1, a2)  # bad labels exit 2 before --out is opened
    _note_finite_type(a1, a2)
    lo, hi = args.range

    sink = out if args.out is None else open(args.out, "w", encoding="utf-8")
    try:
        if args.format == "csv":
            print(CSV_HEADER, file=sink)
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
        if args.out is not None:
            sink.close()
    return EXIT_OK


def _cmd_witt(args: SimpleNamespace, out: IO[str]) -> int:
    _print_value(args.weight, free_lie_dim(args.weight), out)
    return EXIT_OK


class Command(NamedTuple):
    """One row of the command table.

    ``options`` maps each flag that takes a value to its parser, its default
    and the placeholder of the usage line; ``required`` lists the flags
    without a default.  ``switches`` are flags without a value, False unless
    given, and ``positionals`` the names of the plain arguments, each
    required.  A flag ``--height-cap`` is read as the attribute ``height_cap``.
    """

    run: Callable[[SimpleNamespace, IO[str]], int]
    summary: str
    options: dict[str, tuple[Callable[[str], Any], Any, str]]
    required: tuple[str, ...] = ()
    switches: tuple[str, ...] = ()
    positionals: tuple[str, ...] = ()


def _choice(
    choices: tuple[str, ...], default: str | None = None
) -> tuple[Callable[[str], str], str | None, str]:
    """The option entry of a flag whose value is one of ``choices``."""

    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"invalid choice {text!r} (choose from {', '.join(choices)})")
        return text

    return parse, default, "{" + ",".join(choices) + "}"


@functools.cache
def build_parser() -> dict[str, Command]:
    """The command table, built once per process: each command name and its :class:`Command`.

    Parsing only reads it.
    """
    gcm = (lambda text: _integers(text, 2), None, "a1,a2")
    height_cap = (_parse_height_cap, DEFAULT_HEIGHT_CAP, "N")
    return {
        "mult": Command(
            _cmd_mult,
            "multiplicity of a single weight",
            {
                "--gcm": gcm,
                "--weight": (_integers, None, "n1,n2,n3"),
                "--method": _choice(("formula", "peterson", "quotient", "tuples")),
                "--variant": _choice(VARIANTS, "guarded"),
                "--height-cap": height_cap,
            },
            required=("--gcm", "--weight", "--method"),
        ),
        "rewrite": Command(
            _cmd_rewrite,
            "rewrite a bracket expression",
            {},
            switches=("--verify",),
            positionals=("expression",),
        ),
        "compare": Command(
            _cmd_compare,
            "grid report over LO..HI in each coefficient, without the zero weight",
            {
                "--gcm": gcm,
                "--range": (_parse_range, None, "LO..HI"),
                "--format": _choice(("csv", "json"), "csv"),
                "--out": (str, None, "PATH"),
                "--height-cap": height_cap,
            },
            required=("--gcm", "--range"),
        ),
        "witt": Command(
            _cmd_witt,
            "free Lie algebra dimension of a multidegree",
            {"--weight": (_integers, None, "n1,...,nr")},
            required=("--weight",),
        ),
    }


_HELP = ("-h", "--help")


def usage(name: str | None = None) -> str:
    """The usage text of one command, or of the whole program for ``None``."""
    table = build_parser()
    if name is None:
        lines = [
            f"usage: rootmult {{{','.join(table)}}} ...",
            "",
            "Exact root multiplicities of rank-3 chain Kac-Moody algebras.",
            "",
            "commands:",
            *(f"  {n:<8} {c.summary}" for n, c in table.items()),
        ]
    else:
        command = table[name]
        words = ["usage: rootmult", name, *command.positionals]
        for flag, (_, _, metavar) in command.options.items():
            words.append(f"{flag} {metavar}" if flag in command.required else f"[{flag} {metavar}]")
        words += [f"[{flag}]" for flag in command.switches]
        lines = [" ".join(words), "", command.summary]
    return "\n".join(lines) + "\n"


def parse_args(argv: list[str]) -> SimpleNamespace | str:
    """The arguments of one command line, or the usage text it asks for with -h or --help.

    A flag takes the token after it as its value, whatever that token is
    (``--weight -1,1,1``), or the text after ``=`` (``--weight=-1,1,1``);
    a repeated flag keeps its last value.  A usage error raises ValueError
    naming the argument.
    """
    table = build_parser()
    if not argv:
        raise ValueError(f"missing command (choose from {', '.join(table)})")
    name = argv[0]
    if name in _HELP:
        return usage()
    command = table.get(name)
    if command is None:
        raise ValueError(f"invalid command {name!r} (choose from {', '.join(table)})")
    values: dict[str, Any] = {}
    positionals: list[str] = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            positionals.append(token)
            continue
        if token in _HELP:
            return usage(name)
        flag, eq, value = token.partition("=")
        if flag in command.switches:
            if eq:
                raise ValueError(f"argument {flag}: takes no value")
            values[flag] = True
            continue
        option = command.options.get(flag)
        if option is None:
            raise ValueError(f"unrecognized argument {token!r}")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise ValueError(f"argument {flag}: expected a value")
        try:
            values[flag] = option[0](value)
        except ValueError as exc:
            raise ValueError(f"argument {flag}: {exc}") from None
    if len(positionals) > len(command.positionals):
        extra = positionals[len(command.positionals):]
        raise ValueError(f"unrecognized arguments: {' '.join(extra)}")
    missing = [f for f in command.required if f not in values]
    missing += command.positionals[len(positionals):]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    args = SimpleNamespace(command=name, **dict(zip(command.positionals, positionals)))
    for flag, (_, default, _) in command.options.items():
        setattr(args, flag[2:].replace("-", "_"), values.get(flag, default))
    for flag in command.switches:
        setattr(args, flag[2:], flag in values)
    return args


def main(argv: list[str] | None = None, out: IO[str] | None = None) -> int:
    """Run one command and return its exit code.

    The parse and the handler raise on failure; the exception's class picks
    the exit code and its message becomes the one line written to stderr.
    """
    if argv is None:
        argv = sys.argv[1:]
    out = out or sys.stdout
    try:
        args = parse_args(argv)
        if isinstance(args, str):
            print(args, end="", file=out)
            return EXIT_OK
        return build_parser()[args.command].run(args, out)
    except COMPUTE_ERRORS as exc:
        code, error = EXIT_COMPUTE, exc
    except (ValueError, OSError) as exc:
        code, error = EXIT_USAGE, exc
    print(f"error: {error}", file=sys.stderr)
    return code
