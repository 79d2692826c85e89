from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rootmult.cli as cli
import rootmult.gcm as gcm
import rootmult.peterson as peterson
import rootmult.serre as serre
from rootmult import OracleScaleError, RecurrenceError, closed_form_dim
from rootmult.formula import VARIANTS, interval_counts
from rootmult.freelie import (
    MAX_BRACKET_DEPTH,
    MAX_EXPAND_WORDS,
    MAX_REWRITE_STEPS,
    expand_combination,
    expand_tensor,
    free_lie_dim,
    parse_bracket,
    to_standard_form,
    weight_of,
)

from conftest import OffByOneTable, corrupted, format_bracket, random_expr


def run(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


def test_mult_methods():
    assert run("mult", "--gcm", "1,2", "--weight", "1,1,1", "--method", "peterson") == (0, "1\n")
    assert run("mult", "--gcm", "1,2", "--weight", "2,1,0", "--method", "quotient") == (0, "0\n")


def test_mult_peterson_asks_the_table_at_the_chamber_weight(monkeypatch):
    reduced = []

    def reduce(A, lam):
        reduced.append(lam)
        return gcm.reduce_to_chamber(A, lam)

    monkeypatch.setattr(cli, "reduce_to_chamber", reduce)
    # (33,34,33) reflects to (1,33,33): a box of 2,312 cells, not 40,460
    start = time.monotonic()
    argv = ("mult", "--gcm", "1,2", "--method", "peterson", "--weight")
    assert run(*argv, "33,34,33") == (0, "10143\n")
    assert time.monotonic() - start <= 1.0
    assert run(*argv, "2,0,0") == (0, "0\n")  # 2 alpha_1 reflects to -2 alpha_1
    assert run(*argv, "0,1,0") == (0, "1\n")
    assert reduced == [(33, 34, 33), (2, 0, 0), (0, 1, 0)]
    # the quotient's value must not rest on Weyl invariance, so it never reflects
    quotient = run("mult", "--gcm", "1,2", "--weight", "2,2,1", "--method", "quotient")
    assert quotient == run(*argv, "2,2,1") == (0, "1\n")
    assert reduced[3:] == [(2, 2, 1)]


def test_mult_quotient_cap(capsys):
    code, _ = run(
        "mult", "--gcm", "1,2", "--weight", "4,4,4", "--method", "quotient",
        "--height-cap", "10",
    )
    assert code == cli.EXIT_COMPUTE
    assert "oracle scale exceeded" in capsys.readouterr().err
    code, out = run(
        "mult", "--gcm", "1,2", "--weight", "2,2,2", "--method", "quotient",
        "--height-cap", "6",
    )
    assert (code, out) == (0, "1\n")


def error_lines(capsys) -> list[str]:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return [line for line in err.splitlines() if "error:" in line]


def test_cached_parser_carries_no_state_between_calls(capsys):
    calls = [
        ("mult", "--gcm", "1,2", "--weight", "2,2,2", "--method", "quotient"),
        ("mult", "--gcm", "1,2", "--weight", "1,1,1", "--method", "magic"),
        ("rewrite", "[[e1,e2],[e3,e2]]", "--verify"),
        ("mult", "--gcm", "2,2", "--weight", "1,2,1", "--method", "peterson"),
    ]

    def outcome(argv: tuple[str, ...]) -> tuple[tuple[int, str], str, str]:
        result = run(*argv)
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    cli.build_parser.cache_clear()
    warm = [outcome(argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert warm == fresh
    assert warm[1][0] == (cli.EXIT_USAGE, "")
    assert len(warm[1][2].splitlines()) == 1 and warm[1][2].startswith("error: ")
    assert warm[2][0] == (0, "+1*[1,2,3,2]\n-1*[2,1,3,2]\nVERIFIED\n")


MULT = ("mult", "--gcm", "1,2", "--weight", "2,2,2")
SMALL_COEFFICIENTS = (
    "error: closed form requires n1, n2, n3 >= 2; "
    "use the recurrence or quotient oracle for smaller coefficients"
)


@pytest.mark.parametrize(
    "argv, named",
    [
        ((), "missing command"),
        (("bogus",), "'bogus'"),
        (("witt", "--weight", "2,2", "--bogus", "1"), "'--bogus'"),
        (("witt", "--weight"), "--weight"),
        (MULT, "--method"),
        (("compare", "--gcm", "1,2"), "--range"),
        ((*MULT, "--method", "magic"), "--method"),
        ((*MULT, "--method", "formula", "--variant", "best"), "--variant"),
        (("compare", "--gcm", "1,2", "--range", "1..2", "--format", "xml"), "--format"),
        (("mult", "--gcm", "1;2", "--weight", "2,2,2", "--method", "formula"), "--gcm"),
        (("mult", "--gcm", "1,x", "--weight", "2,2,2", "--method", "formula"), "--gcm"),
        (("witt", "--weight", "1,x"), "--weight"),
        (("compare", "--gcm", "1,2", "--range", "1-2"), "--range"),
        (("compare", "--gcm", "1,2", "--range", "a..b"), "--range"),
        (("compare", "--gcm", "1,2", "--range", "2..1"), "--range"),
        (("compare", "--gcm", "1,2", "--range", "-1..1"), "--range"),
        ((*MULT, "--method", "quotient", "--height-cap", "x"), "--height-cap"),
        ((*MULT, "--method", "quotient", "--height-cap", "0"), "--height-cap"),
        (("witt", "--weight", "2,2", "extra"), "extra"),
        (("rewrite",), "expression"),
        (("rewrite", "e1", "e2"), "e2"),
        (("rewrite", "e1", "--ver"), "'--ver'"),
        (("rewrite", "e1", "--verify=yes"), "--verify"),
        (("rewrite", "e1", "--height-cap", "3"), "'--height-cap'"),
        # integers are ASCII digits after an optional '-', as in the bracket parser
        (("mult", "--gcm", "1_0,2", "--weight", "2,2,2", "--method", "formula"), "--gcm"),
        (("mult", "--gcm", "1,2", "--weight", "٢,2,2", "--method", "formula"), "--weight"),
        (("compare", "--gcm", " 1, 2", "--range", "1..1"), "--gcm"),
        (("compare", "--gcm", "1,2", "--range", "1..+2"), "--range"),
        ((*MULT, "--method", "quotient", "--height-cap", "+5"), "--height-cap"),
        (("witt", "--weight", "2,-"), "--weight"),
        (("compare", "--gcm", "1,2,3", "--range", "1..1"), "--gcm"),
    ],
)
def test_malformed_command_lines_exit_2(capsys, argv, named):
    assert run(*argv) == (cli.EXIT_USAGE, "")
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith("error: ") and named in line


MULT12 = ("mult", "--gcm", "1,2", "--weight")
HEIGHT = "error: weight must have height >= 1"
LENGTH = "error: weight length 4 does not match rank 3"
# the token after a flag is its value, so "-1,1,1" reaches the weight check
NEGATIVE = "error: negative coefficient in weight (-1, 1, 1)"
CAP = "error: argument --height-cap: height cap must be >= 1, got "

# usage errors with their whole stderr line
WHOLE_LINE_ERRORS = [
    ((*MULT12, "0,0,0", "--method", "peterson"), HEIGHT),
    ((*MULT12, "2,2,2,2", "--method", "peterson"), LENGTH),
    ((*MULT12, "-1,1,1", "--method", "peterson"), NEGATIVE),
    ((*MULT12, "0,0,0", "--method", "quotient"), HEIGHT),
    ((*MULT12, "2,2,2,2", "--method", "quotient"), LENGTH),
    ((*MULT12, "-1,1,1", "--method", "quotient"), NEGATIVE),
    ((*MULT12, "0,0,0", "--method", "formula"), HEIGHT),
    ((*MULT12, "2,2,2,2", "--method", "formula"), LENGTH),
    ((*MULT12, "-1,1,1", "--method", "formula"), NEGATIVE),
    ((*MULT12, "0,0,0", "--method", "tuples"), HEIGHT),
    ((*MULT12, "2,2,2,2", "--method", "tuples"), LENGTH),
    ((*MULT12, "-1,1,1", "--method", "tuples"), NEGATIVE),
    (("witt", "--weight", "0,0"), HEIGHT),
    (("witt", "--weight", "-1,2"), "error: negative coefficient in weight (-1, 2)"),
    # a refused closed form writes the error alone, without the finite-type note
    ((*MULT12, "1,1,1", "--method", "formula"), SMALL_COEFFICIENTS),
    (("mult", "--gcm", "1,1", "--weight", "2,1,2", "--method", "formula"), SMALL_COEFFICIENTS),
    ((*MULT12, "1,1,1", "--method", "tuples"), SMALL_COEFFICIENTS),
    (("mult", "--gcm", "1,1", "--weight", "2,1,2", "--method", "tuples"), SMALL_COEFFICIENTS),
    (
        ("mult", "--gcm", "0,2", "--weight", "1,1,1", "--method", "peterson"),
        "error: chain labels must be positive, got (0, 2)",
    ),
    ((*MULT12, "1,1,1", "--method", "quotient", "--height-cap", "0"), CAP + "0"),
    ((*MULT12, "1,1,1", "--method", "quotient", "--height-cap", "-1"), CAP + "-1"),
    (("compare", "--gcm", "1,2", "--range", "1..2", "--height-cap", "0"), CAP + "0"),
    (("compare", "--gcm", "1,2", "--range", "1..2", "--height-cap", "-1"), CAP + "-1"),
    (
        ("mult", "--gcm", "1;2", "--weight", "1,1,1", "--method", "peterson"),
        "error: argument --gcm: expected N,N (N: ASCII digits after an optional '-'), got '1;2'",
    ),
    (
        (*MULT12, "1,1,1", "--method", "magic"),
        "error: argument --method: invalid choice 'magic' "
        "(choose from formula, peterson, quotient, tuples)",
    ),
    (("rewrite", "[e1,"), "error: unexpected end of input at position 4"),
    (("rewrite", "e²"), "error: expected digits after 'e' at position 1"),
    (("rewrite", "[e1,e٢]", "--verify"), "error: expected digits after 'e' at position 5"),
    (("rewrite", "e300"), "error: generator index 300 out of range 1..3"),
    (("rewrite", "e0", "--verify"), "error: generator index 0 out of range 1..3"),
    (("rewrite", "[e1,e4]", "--verify"), "error: generator index 4 out of range 1..3"),
]


@pytest.mark.parametrize(
    "argv, expected",
    WHOLE_LINE_ERRORS,
    ids=[" ".join(a for a in argv if not a.startswith("--")) for argv, _ in WHOLE_LINE_ERRORS],
)
def test_usage_errors_print_the_whole_line(capsys, argv, expected):
    assert run(*argv) == (cli.EXIT_USAGE, "")
    assert capsys.readouterr().err == expected + "\n"


def test_flags_by_equals_in_any_order_and_the_last_repeat_wins(capsys):
    three = (0, "3\n")
    assert run("mult", "--gcm=1,2", "--weight=2,2,2", "--method=formula") == three
    assert run("mult", "--method", "formula", "--weight", "2,2,2", "--gcm", "1,2") == three
    assert run(*MULT, "--method", "peterson", "--method", "formula") == three
    assert run("mult", "--gcm", "0,2", "--gcm", "1,2", "--weight", "2,2,2", "--method", "tuples") == three
    assert run("witt", "--weight", "1,1", "--weight=2,2,2") == (0, "14\n")
    verified = (0, "+1*[1,2,3,2]\n-1*[2,1,3,2]\nVERIFIED\n")
    assert run("rewrite", "--verify", "[[e1,e2],[e3,e2]]") == verified
    assert run("rewrite", "[[e1,e2],[e3,e2]]", "--verify", "--verify") == verified
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", [None, *cli.build_parser()])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_usage_from_the_table(capsys, command, flag):
    argv = (flag,) if command is None else (command, flag)
    code, out = run(*argv)
    assert (code, capsys.readouterr().err) == (0, "")
    assert out == cli.usage(command)
    assert out.startswith("usage: rootmult ")
    table = cli.build_parser()
    if command is None:
        assert all(f"  {name} " in out for name in table)
    else:
        entry = table[command]
        assert all(word in out for word in (*entry.options, *entry.switches, *entry.positionals))
    # help comes first wherever it stands after the command
    if command == "mult":
        assert run(*MULT, flag, "--method", "magic") == (0, out)


# the usage screens byte for byte, so a change to the usage builder shows
USAGE_SCREENS = {
    None: (
        "usage: rootmult {mult,rewrite,compare,witt} ...\n"
        "\n"
        "Exact root multiplicities of rank-3 chain Kac-Moody algebras.\n"
        "\n"
        "commands:\n"
        "  mult     multiplicity of a single weight\n"
        "  rewrite  rewrite a bracket expression\n"
        "  compare  grid report over LO..HI in each coefficient, without the zero weight\n"
        "  witt     free Lie algebra dimension of a multidegree\n"
    ),
    "mult": (
        "usage: rootmult mult --gcm a1,a2 --weight n1,n2,n3"
        " --method {formula,peterson,quotient,tuples}"
        " [--variant {section44,lemma410,guarded}] [--height-cap N]\n"
        "\n"
        "multiplicity of a single weight\n"
    ),
    "rewrite": "usage: rootmult rewrite expression [--verify]\n\nrewrite a bracket expression\n",
    "compare": (
        "usage: rootmult compare --gcm a1,a2 --range LO..HI [--format {csv,json}]"
        " [--out PATH] [--height-cap N]\n"
        "\n"
        "grid report over LO..HI in each coefficient, without the zero weight\n"
    ),
    "witt": (
        "usage: rootmult witt --weight n1,...,nr\n\nfree Lie algebra dimension of a multidegree\n"
    ),
}


@pytest.mark.parametrize("command", USAGE_SCREENS)
def test_usage_screens_are_pinned(command):
    argv = ("-h",) if command is None else (command, "-h")
    assert run(*argv) == (0, USAGE_SCREENS[command])


# argv vocabulary for the exit-contract fuzz: the real commands and flags and
# values small enough that every engine answers in milliseconds (heights up to
# 6, ranges inside 0..2).  A word with a space is two tokens, and OUT stands
# for a path in a fresh directory, so --out never writes anywhere else.
FUZZ_WORDS = (
    *("mult", "rewrite", "compare", "witt", "bogus", "-h", "--help", "-", "--", ""),
    *("--gcm", "--weight", "--method", "--variant", "--height-cap", "--range"),
    *("--format", "--out OUT/r.csv", "--out=OUT/x/y", "--verify", "--ver", "--verify=1"),
    *("--gcm=1,2", "--range=0..2"),
    *("1,2", "2,2", "2,1", "0,1", "1;2", "1,2,1", "2,2,2", "1,1,2", "-1,1,1", "0,0,0"),
    *("1,2,1,1", "formula", "peterson", "quotient", "tuples", "magic", "guarded"),
    *("section44", "lemma410", "csv", "json", "xml", "0..2", "1..2", "2..1", "-1..1"),
    *("1", "3", "6", "0", "x", "e1", "e4", "[e1,e2]", "[[e1,e2],e3]", "[e1,"),
)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(tuple(cli.build_parser())) | st.sampled_from(FUZZ_WORDS),
    st.lists(st.sampled_from(FUZZ_WORDS), max_size=8),
)
def test_main_returns_an_exit_code_for_every_command_line(first, words):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [t.replace("OUT", tmp) for word in (first, *words) for t in word.split(" ")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv, io.StringIO())
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_COMPUTE)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().splitlines()[-1].startswith("error: ")


def test_rewrite():
    assert run("rewrite", "[[e1,e2],e3]") == (0, "-1*[3,1,2]\n")
    assert run("rewrite", "e1") == (0, "+1*[1]\n")


def test_rewrite_verify_output_is_pinned():
    # digest of the rewrite --verify stdout of 300 seeded random trees
    rng = random.Random(20261019)
    digest = hashlib.sha1()
    for _ in range(300):
        expr = random_expr(rng, rng.randint(1, 12))
        code, out = run("rewrite", format_bracket(expr), "--verify")
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == "c006b903b28296ace229185722f96dda502e2baf"


def test_rewrite_verify_edge_cases():
    assert run("rewrite", "e1", "--verify") == (0, "+1*[1]\nVERIFIED\n")
    # [e1,e1] rewrites to the empty combination
    assert run("rewrite", "[e1,e1]", "--verify") == (0, "VERIFIED\n")


@pytest.mark.parametrize(
    "combo, printed",
    [
        # a tuple of multidegree (1,0,1) in place of [1,2]
        ({(1, 3): 1}, "+1*[1,3]\n"),
        # an extra tuple without e1, whose 1-quotient is zero
        ({(1, 2): 1, (3, 2): 1}, "+1*[1,2]\n+1*[3,2]\n"),
        # a longer tuple whose counts of e1, e2, e3 are right
        ({(1, 2): 1, (1, 2, 4): 1}, "+1*[1,2]\n+1*[1,2,4]\n"),
    ],
)
def test_rewrite_verify_rejects_another_multidegree(monkeypatch, combo, printed):
    monkeypatch.setattr(cli, "to_standard_form", lambda expr: combo)
    assert run("rewrite", "[e1,e2]", "--verify") == (cli.EXIT_COMPUTE, printed + "MISMATCH\n")


def test_root_split_verdict_matches_full_verdict_on_corrupted_rewrites():
    # the combination is expanded split at the expression's root; the verdict
    # is the full expansion's, for balanced roots and for a leaf at the root
    rng = random.Random(20261023)
    for n in range(11, 15):
        for small in (n // 2, 1):
            for _ in range(4):
                combo = {}
                while not combo:  # most random trees rewrite to zero
                    sides = [random_expr(rng, small), random_expr(rng, n - small)]
                    rng.shuffle(sides)
                    expr = tuple(sides)
                    combo = to_standard_form(expr)
                lam = weight_of(expr, 3)
                bad, _ = corrupted(rng, combo, lam)
                assert cli._rewrite_holds(expr, lam, combo)
                holds = expand_tensor(expr) == expand_combination(bad)
                assert cli._rewrite_holds(expr, lam, bad) == holds


def test_rewrite_verify_rejects_a_corrupted_heavy_combination(monkeypatch):
    text = "[[e3,[[e3,e2],[[e3,e2],e2]]],[[[[e1,e2],e1],e2],[[e2,e3],[e1,e3]]]]"
    bad = to_standard_form(parse_bracket(text))
    assert len(bad) == 140
    bad[min(bad)] += 1
    printed = "".join(f"{'+' if c > 0 else '-'}{abs(c)}*[{','.join(map(str, t))}]\n"
                      for t, c in sorted(bad.items()))
    monkeypatch.setattr(cli, "to_standard_form", lambda expr: bad)
    assert run("rewrite", text, "--verify") == (cli.EXIT_COMPUTE, printed + "MISMATCH\n")


def test_witt():
    assert run("witt", "--weight", "2,2,2") == (0, "14\n")
    assert run("witt", "--weight", "1,1") == (0, "1\n")
    assert run("witt", "--weight", "1,1,1,1") == (0, "6\n")


def test_values_past_the_digit_limit_exit_3(capsys):
    # the interpreter refuses to print an int of more than
    # sys.get_int_max_str_digits() digits; that is a computation limit, not a usage error
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter prints integers of any length")
    params = (1, 2, 8000, 8000, 2)
    for argv, weight, value in (
        (("witt", "--weight", "8000,8000"), (8000, 8000), free_lie_dim((8000, 8000))),
        (
            ("mult", "--gcm", "1,2", "--weight", "8000,8000,2", "--method", "formula"),
            (8000, 8000, 2),
            closed_form_dim(*params),
        ),
        (
            ("mult", "--gcm", "1,2", "--weight", "8000,8000,2", "--method", "tuples"),
            (8000, 8000, 2),
            interval_counts(*params).canonical,
        ),
    ):
        assert run(*argv) == (cli.EXIT_COMPUTE, "")
        [line] = error_lines(capsys)
        digits = int(line.split(" has ")[1].split()[0])
        assert digits > limit
        assert f"weight {weight} " in line
        assert f"limit of {limit} digits" in line and "sys.get_int_max_str_digits()" in line
        # the count is exact: the value lies in [10**(digits - 1), 10**digits)
        assert 10 ** (digits - 1) <= value < 10**digits
    assert sys.get_int_max_str_digits() == limit


def test_digit_count_corrects_the_bit_length_estimate():
    # 2**14290 has 4302 digits; its bit length estimates 4303, one too many
    value = 2**14290
    assert value.bit_length() * 30103 // 100000 + 1 == 4303
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(OverflowError) as caught:
            cli._print_value((1, 2, 3), value, io.StringIO())
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(caught.value) == (
        "the value at weight (1, 2, 3) has 4302 decimal digits, over the interpreter's "
        "limit of 4300 digits for printing an integer (sys.get_int_max_str_digits())"
    )


def test_compare_csv_shape():
    code, out = run(
        "compare", "--gcm", "1,2", "--range", "2..3", "--height-cap", "7",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 1 + 8
    first = lines[1].split(",")
    assert first[:5] == ["1", "2", "2", "2", "2"]
    # height 6 row has a quotient value; height 8 rows are skipped at cap 7
    assert first[10] == "1"
    last = lines[-1].split(",")
    assert last[:5] == ["1", "2", "3", "3", "3"]
    assert last[10] == "skipped"
    assert all(line.split(",")[11] in ("true", "false") for line in lines[1:])


def test_compare_csv_and_json_agree(tmp_path):
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    base = ("compare", "--gcm", "1,2", "--range", "2..3", "--height-cap", "6")
    code, _ = run(*base, "--out", str(csv_path))
    assert code == 0
    code, _ = run(*base, "--format", "json", "--out", str(json_path))
    assert code == 0

    csv_lines = csv_path.read_text().strip().split("\n")
    header = csv_lines[0].split(",")
    json_rows = [json.loads(line) for line in json_path.read_text().strip().split("\n")]
    assert len(csv_lines) - 1 == len(json_rows)
    for line, obj in zip(csv_lines[1:], json_rows):
        cells = line.split(",")
        for key, cell in zip(header, cells):
            value = obj[key]
            if isinstance(value, bool):
                assert cell == ("true" if value else "false")
            else:
                assert cell == str(value)


def test_compare_unwritable_out_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.csv"
    # the empty path names no file: it is refused, not read as stdout
    for path in (str(missing), ""):
        code, out = run("compare", "--gcm", "1,2", "--range", "1..1", "--out", path)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert len(error_lines(capsys)) == 1
    assert not missing.exists()


def test_compare_report_matches_stored_bytes():
    reference = Path(__file__).resolve().parent.parent / "bench" / "reference"
    stored = reference / "compare-grid-tiny.csv"
    code, out = run("compare", "--gcm", "1,2", "--range", "1..3", "--height-cap", "6")
    assert code == 0
    assert out == stored.read_text(encoding="utf-8")
    code, out = run(
        "compare", "--gcm", "1,2", "--range", "1..3", "--height-cap", "6", "--format", "json",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 3**3
    assert all(list(row) == cli.CSV_HEADER.split(",") for row in rows)
    # the benchmark's full report
    stored = reference / "compare-grid-full.csv"
    code, out = run("compare", "--gcm", "1,2", "--range", "1..6", "--height-cap", "8")
    assert code == 0
    assert out == stored.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    ("gcm", "csv_sha1", "json_sha1"),
    [
        ("2,2", "9d0bbf09dd0c3a6eadaba33bc273a2ed7bf2b834", "77fe267887846dcc4d59f4c5036ee8e3e95ada3d"),
        ("1,3", "d1766843a897d8ec3c2cc4d9ce871c669f09ad14", "7922fd4463046cc3b68c367bb73df88b1f4429bd"),
        ("2,3", "9121a18f522b225734b6e318e19e507939dc64ea", "ada5dde14d4dd08ec0f68da7226ed24b92f9b54e"),
        ("3,1", "6e11795dc4a50fff1fa0dfa501ab1732b4c05965", "65755a4d62dfc7b44b596600967398105b918142"),
        ("3,3", "57c855ec9c75d2fbb187044cd50a756f29364425", "bcbaf2e027239d0e19c1b1e9c94dce5b9cf75fcb"),
    ],
)
def test_compare_report_is_pinned_on_other_chains(gcm, csv_sha1, json_sha1):
    # a1 >= 2 exercises the guarded ones term, a1 > a2 the middle branch
    for fmt, expected in (("csv", csv_sha1), ("json", json_sha1)):
        code, out = run(
            "compare", "--gcm", gcm, "--range", "1..6", "--height-cap", "8", "--format", fmt,
        )
        assert code == 0
        assert hashlib.sha1(out.encode()).hexdigest() == expected


def test_compare_marks_small_coefficients_na():
    code, out = run(
        "compare", "--gcm", "1,2", "--range", "1..2", "--height-cap", "6",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    na_rows = [r for r in rows if "1" in r[2:5]]
    assert na_rows
    for r in na_rows:
        assert r[5] == r[6] == r[7] == r[8] == "n/a"
        assert r[11] == "n/a"
        assert r[9].lstrip("-").isdigit()  # peterson always present


def test_compare_omits_the_zero_weight():
    code, out = run("compare", "--gcm", "1,2", "--range", "0..1", "--height-cap", "6")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 2**3 - 1


def test_compare_finite_type_note(capsys):
    code, _ = run("compare", "--gcm", "1,1", "--range", "2..2", "--height-cap", "6")
    assert code == 0
    assert "finite type" in capsys.readouterr().err


def test_compare_rejects_labels_before_writing(tmp_path, capsys):
    path = tmp_path / "report.csv"
    labels_error = "error: chain labels must be positive, got (0, 1)\n"
    code, out = run("compare", "--gcm", "0,1", "--range", "1..2", "--out", str(path))
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert capsys.readouterr().err == labels_error
    assert not path.exists()
    # without --out the report goes to stdout, which must not get the header
    assert run("compare", "--gcm", "0,1", "--range", "1..2") == (cli.EXIT_USAGE, "")
    assert capsys.readouterr().err == labels_error
    code, _ = run("compare", "--gcm", "1,2", "--range", "1..2", "--out", str(path))
    assert code == 0 and path.exists()
    assert capsys.readouterr().err == ""


def test_mult_closed_form_finite_type_note(capsys):
    # the closed-form methods warn as compare does; stdout and the exit code stay
    for method in ("formula", "tuples"):
        assert run("mult", "--gcm", "1,1", "--weight", "2,2,2", "--method", method) == (0, "1\n")
        assert "finite type" in capsys.readouterr().err
    assert run("mult", "--gcm", "1,1", "--weight", "2,2,2", "--method", "peterson") == (0, "0\n")
    assert run("mult", "--gcm", "1,2", "--weight", "2,2,2", "--method", "formula") == (0, "3\n")
    assert capsys.readouterr().err == ""


def test_compare_row_matches_the_library():
    # the row evaluates the interval model once; each column must still be the
    # library's value, and each closed form its breakdown
    rows = 0
    for a1, a2 in itertools.product(range(1, 5), repeat=2):
        for row in cli.compare_rows(a1, a2, 2, 9, height_cap=1):
            n = (row.n1, row.n2, row.n3)
            counts = interval_counts(a1, a2, *n)
            v1, v2 = counts.vanishing_first, counts.vanishing_second
            vanishing = (v1 if row.n2 >= 1 + a1 else 0) + (v2 if row.n2 >= 1 + a2 else 0)
            columns = (row.formula_section44, row.formula_lemma410, row.formula_guarded)
            for variant, column in zip(VARIANTS, columns):
                dim = closed_form_dim(a1, a2, *n, variant)
                assert column == dim, (a1, a2, n, variant)
                assert dim == counts.raw - counts.dependent(variant) - vanishing
            assert row.tuples_canonical == counts.canonical, (a1, a2, n)
            rows += 1
    assert rows == 16 * 8**3


def test_compare_calls_each_oracle_once_per_row(monkeypatch):
    # the per-row contract: one recurrence call per row after the one that fills
    # the box, one quotient call per row within the height cap, and one
    # interval-model call per row whose coefficients are all >= 2
    calls: dict[str, list[tuple[int, ...]]] = {"peterson": [], "serre": [], "formula": []}

    def counted(name, fn, weight_of_call):
        def wrapper(*args):
            calls[name].append(weight_of_call(*args))
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        peterson.MultiplicityTable,
        "multiplicity",
        counted("peterson", peterson.MultiplicityTable.multiplicity, lambda self, lam: tuple(lam)),
    )
    monkeypatch.setattr(
        serre.SerreQuotient,
        "multiplicity",
        counted("serre", serre.SerreQuotient.multiplicity, lambda self, lam: tuple(lam)),
    )
    monkeypatch.setattr(
        cli, "interval_counts", counted("formula", interval_counts, lambda a1, a2, *n: n)
    )
    weights = [(r.n1, r.n2, r.n3) for r in cli.compare_rows(1, 2, 0, 3, height_cap=6)]
    assert len(weights) == 4**3 - 1
    assert calls["peterson"] == [(3, 3, 3), *weights]
    assert calls["serre"] == [w for w in weights if sum(w) <= 6]
    assert calls["formula"] == [w for w in weights if min(w) >= 2]


def test_mult_closed_form_methods_print_the_library_values():
    # mult --method formula prints IntervalCounts.dim of the chosen variant, and
    # --method tuples its canonical count
    for (a1, a2), weight in itertools.product(
        ((1, 2), (2, 2), (3, 1)), ((2, 2, 2), (3, 4, 2), (2, 5, 3))
    ):
        counts = interval_counts(a1, a2, *weight)
        argv = ("mult", "--gcm", f"{a1},{a2}", "--weight", ",".join(map(str, weight)))
        for variant in VARIANTS:
            printed = run(*argv, "--method", "formula", "--variant", variant)
            assert printed == (0, f"{counts.dim(variant)}\n"), (a1, a2, weight, variant)
        assert run(*argv, "--method", "tuples") == (0, f"{counts.canonical}\n"), (a1, a2, weight)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_compare_oracle_disagreement_truncates(monkeypatch, capsys, fmt):
    class LyingTable:
        def __init__(self, algebra):
            self.algebra = algebra

        def multiplicity(self, lam):
            return 999

    monkeypatch.setattr(peterson, "MultiplicityTable", LyingTable)
    argv = ("compare", "--gcm", "1,2", "--range", "2..2", "--format", fmt, "--height-cap", "6")
    code, out = run(*argv)
    assert code == cli.EXIT_COMPUTE
    lines = out.splitlines()
    if fmt == "csv":
        assert lines[0] == cli.CSV_HEADER
        assert lines[-1].startswith("# truncated: oracle disagreement")
    else:
        assert json.loads(lines[-1])["truncated"].startswith("oracle disagreement")
    assert "oracle disagreement" in capsys.readouterr().err


def test_mult_reports_a_non_integral_multiplicity(monkeypatch, capsys):
    monkeypatch.setattr(peterson, "MultiplicityTable", OffByOneTable)
    code, out = run("mult", "--gcm", "1,2", "--weight", "1,2,2", "--method", "peterson")
    assert (code, out) == (cli.EXIT_COMPUTE, "")
    assert error_lines(capsys) == [
        "error: internal consistency failure: multiplicity at (1, 2, 2) is 121/60"
    ]


def test_mult_quotient_tall_thin_weight():
    # the root spaces below a weight are built without recursion
    argv = ("--weight", "1100,1,0", "--method", "quotient", "--height-cap", "2000")
    assert run("mult", "--gcm", "1,2", *argv) == (0, "0\n")


def test_mult_quotient_at_height_12_is_fast():
    # the tensor-word elimination this oracle replaced took 190 s here
    argv = ("--weight", "4,4,4", "--method", "quotient", "--height-cap", "12")
    start = time.monotonic()
    code, out = run("mult", "--gcm", "1,2", *argv)
    elapsed = time.monotonic() - start
    assert (code, out) == run("mult", "--gcm", "1,2", "--weight", "4,4,4", "--method", "peterson")
    assert out == "1\n"
    assert elapsed <= 2.0


def test_rewrite_deep_nesting_exits_2(capsys):
    depth = 1200
    code, out = run("rewrite", "[e1," * depth + "e2" + "]" * depth)
    assert (code, out) == (cli.EXIT_USAGE, "")
    (line,) = error_lines(capsys)
    assert f"nested deeper than {MAX_BRACKET_DEPTH}" in line


def balanced_bracket(depth: int, first: int = 2) -> str:
    """Balanced bracket tree whose leaves cycle through e1, e2, e3."""
    if depth == 0:
        return f"e{first % 3 + 1}"
    half = 2 ** (depth - 1)
    return f"[{balanced_bracket(depth - 1, first)},{balanced_bracket(depth - 1, first + half)}]"


def test_rewrite_step_limit(capsys):
    code, out = run("rewrite", balanced_bracket(4), "--verify")
    lines = out.splitlines()
    assert (code, len(lines), lines[-1]) == (0, 3769, "VERIFIED")
    # a depth-4 tree whose rewrite is charged 62,032 steps and cancels to zero
    tree = "[[[[e2,e3],[e1,e2]],[[e1,e3],[e1,e2]]],[[[e1,e2],[e1,e3]],[[e2,e1],[e2,e3]]]]"
    assert run("rewrite", tree, "--verify") == (0, "VERIFIED\n")
    start = time.monotonic()
    code, out = run("rewrite", balanced_bracket(5), "--verify")
    elapsed = time.monotonic() - start
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert error_lines(capsys) == [
        f"error: rewrite takes more than {MAX_REWRITE_STEPS} bracket steps"
    ]
    # charged before its pairs run, the root bracket is refused at once
    assert elapsed < 1.0


def test_a_zero_left_child_ends_the_rewrite(capsys):
    # [e1,e1] rewrites to zero, so the depth-5 tree beside it, refused alone
    # at its root bracket, is never rewritten or charged
    start = time.monotonic()
    assert run("rewrite", f"[[e1,e1],{balanced_bracket(5)}]") == (0, "")
    assert run("rewrite", f"[[e1,e1],{balanced_bracket(5)}]", "--verify") == (0, "VERIFIED\n")
    assert time.monotonic() - start < 1.0
    # the left child is rewritten first: a zero right child comes too late
    assert run("rewrite", f"[{balanced_bracket(5)},[e1,e1]]", "--verify") == (cli.EXIT_USAGE, "")
    assert error_lines(capsys) == [
        f"error: rewrite takes more than {MAX_REWRITE_STEPS} bracket steps"
    ]


def test_an_empty_rewrite_is_verified_by_one_expansion(monkeypatch):
    rng = random.Random(20261025)
    verdicts = {True: set(), False: set()}
    for _ in range(300):
        expr = random_expr(rng, rng.randint(2, 10))
        lam = weight_of(expr, 3)
        text = format_bracket(expr)
        paired = any(f"[e{i},e{i}]" in text for i in (1, 2, 3))
        holds = cli._rewrite_holds(expr, lam, {})
        assert holds == (not expand_tensor(expr).coeffs)
        verdicts[paired].add(holds)
    # trees with an [ei,ei] pair are zero; trees without one are zero or not
    assert verdicts == {True: {True}, False: {True, False}}
    monkeypatch.setattr(cli, "to_standard_form", lambda expr: {})
    assert run("rewrite", "[e1,e2]", "--verify") == (cli.EXIT_COMPUTE, "MISMATCH\n")


def alternating_bracket(leaves: int) -> str:
    """Right-nested [e1,[e2,[e1,...]]]: one standard tuple, 2^(leaves-1) words at most."""
    expr = f"e{2 - leaves % 2}"
    for i in range(leaves - 1, 0, -1):
        expr = f"[e{2 - i % 2},{expr}]"
    return expr


def test_rewrite_verify_below_the_expansion_limit():
    tuple_line = "+1*[" + ",".join(["1,2"] * 11) + "]\n"
    assert run("rewrite", alternating_bracket(22), "--verify") == (0, tuple_line + "VERIFIED\n")


def test_module_entry_point_exits_2_past_the_expansion_limit():
    # the real `sys.exit(main())` path: one error line, no traceback
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    argv = [sys.executable, "-m", "rootmult", "rewrite", alternating_bracket(26), "--verify"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (cli.EXIT_USAGE, "")
    assert proc.stderr.splitlines() == [f"error: tensor expansion exceeds {MAX_EXPAND_WORDS} words"]


@pytest.mark.parametrize(
    "error", [OracleScaleError, RecurrenceError, cli.OracleDisagreement, ArithmeticError]
)
def test_compare_truncates_on_every_computation_error(monkeypatch, capsys, error):
    class FailingTable:
        def __init__(self, algebra):
            self.algebra = algebra

        def multiplicity(self, lam):
            raise error("failed on purpose")

    monkeypatch.setattr(peterson, "MultiplicityTable", FailingTable)
    code, out = run("compare", "--gcm", "1,2", "--range", "2..2", "--height-cap", "6")
    assert code == cli.EXIT_COMPUTE
    assert out.splitlines() == [cli.CSV_HEADER, "# truncated: failed on purpose"]
    assert error_lines(capsys) == ["error: failed on purpose"]
