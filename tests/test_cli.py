from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rootmult.cli as cli
from rootmult import OracleScaleError, RecurrenceError
from rootmult.freelie import (
    MAX_BRACKET_DEPTH,
    MAX_EXPAND_WORDS,
    MAX_REWRITE_STEPS,
    format_bracket,
)

from conftest import random_expr


def run(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


def test_mult_methods():
    assert run("mult", "--gcm", "1,2", "--weight", "1,1,1", "--method", "peterson") == (0, "1\n")
    assert run("mult", "--gcm", "1,2", "--weight", "2,1,0", "--method", "quotient") == (0, "0\n")
    code, out = run(
        "mult", "--gcm", "1,2", "--weight", "2,2,2", "--method", "formula",
        "--variant", "guarded",
    )
    assert (code, out) == (0, "3\n")
    assert run("mult", "--gcm", "1,2", "--weight", "2,2,2", "--method", "tuples") == (0, "3\n")
    code, out = run(
        "mult", "--gcm", "1,2", "--weight", "2,2,2", "--method", "formula",
        "--variant", "section44",
    )
    assert (code, out) == (0, "1\n")


def test_mult_formula_rejects_small_coefficients(capsys):
    code, _ = run("mult", "--gcm", "1,2", "--weight", "1,1,1", "--method", "formula")
    assert code == cli.EXIT_USAGE
    assert "oracle" in capsys.readouterr().err
    code, _ = run("mult", "--gcm", "1,2", "--weight", "1,1,1", "--method", "tuples")
    assert code == cli.EXIT_USAGE


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


def test_mult_bad_gcm(capsys):
    code, _ = run("mult", "--gcm", "0,2", "--weight", "1,1,1", "--method", "peterson")
    assert code == cli.EXIT_USAGE


def error_lines(capsys) -> list[str]:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return [line for line in err.splitlines() if "error:" in line]


def test_mult_zero_weight(capsys):
    for method in ("peterson", "quotient"):
        code, out = run("mult", "--gcm", "1,2", "--weight", "0,0,0", "--method", method)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert error_lines(capsys) == ["error: weight must have height >= 1"]


def test_height_cap_below_one_exits_2(capsys):
    for argv in (
        ("mult", "--gcm", "1,2", "--weight", "1,1,1", "--method", "quotient"),
        ("compare", "--gcm", "1,2", "--range", "1..2"),
    ):
        for cap in ("0", "-1"):
            with pytest.raises(SystemExit) as exc:
                run(*argv, "--height-cap", cap)
            assert exc.value.code == 2
            assert len(error_lines(capsys)) == 1


def test_flag_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        run("mult", "--gcm", "1;2", "--weight", "1,1,1", "--method", "peterson")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("mult", "--gcm", "1,2", "--weight", "1,1,1", "--method", "magic")
    assert exc.value.code == 2


def test_cached_parser_carries_no_state_between_calls(capsys):
    calls = [
        ("mult", "--gcm", "1,2", "--weight", "2,2,2", "--method", "quotient"),
        ("mult", "--gcm", "1,2", "--weight", "1,1,1", "--method", "magic"),
        ("rewrite", "[[e1,e2],[e3,e2]]", "--verify"),
        ("mult", "--gcm", "2,2", "--weight", "1,2,1", "--method", "peterson"),
    ]

    def outcome(argv: tuple[str, ...]) -> tuple[object, str, str]:
        try:
            result: object = run(*argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
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
    assert warm[1][0] == ("exit", 2)
    assert warm[2][0] == (0, "+1*[1,2,3,2]\n-1*[2,1,3,2]\nVERIFIED\n")


def test_rewrite():
    assert run("rewrite", "[[e1,e2],e3]") == (0, "-1*[3,1,2]\n")
    assert run("rewrite", "e1") == (0, "+1*[1]\n")
    code, out = run("rewrite", "[[e1,e2],[e3,e2]]", "--verify")
    assert code == 0
    assert out == "+1*[1,2,3,2]\n-1*[2,1,3,2]\nVERIFIED\n"


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


def test_rewrite_rejects_generator_out_of_range(capsys):
    for argv, index in ((("e300",), 300), (("e0", "--verify"), 0), (("[e1,e4]", "--verify"), 4)):
        code, out = run("rewrite", *argv)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert error_lines(capsys) == [f"error: generator index {index} out of range 1..3"]


def test_rewrite_parse_error(capsys):
    code, _ = run("rewrite", "[e1,")
    assert code == cli.EXIT_USAGE
    assert "position" in capsys.readouterr().err


def test_witt(capsys):
    assert run("witt", "--weight", "2,2,2") == (0, "14\n")
    assert run("witt", "--weight", "1,1") == (0, "1\n")
    assert run("witt", "--weight", "1,1,1,1") == (0, "6\n")
    assert run("witt", "--weight", "-1,2") == (cli.EXIT_USAGE, "")
    assert error_lines(capsys) == ["error: negative coefficient in weight (-1, 2)"]


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


def test_compare_is_byte_deterministic():
    args = ("compare", "--gcm", "2,2", "--range", "2..3", "--height-cap", "6")
    assert run(*args) == run(*args)


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
    code, out = run("compare", "--gcm", "1,2", "--range", "1..1", "--out", str(missing))
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
    with pytest.raises(SystemExit):
        run("compare", "--gcm", "1,2", "--range", "-1..1")


def test_compare_finite_type_note(capsys):
    code, _ = run("compare", "--gcm", "1,1", "--range", "2..2", "--height-cap", "6")
    assert code == 0
    assert "finite type" in capsys.readouterr().err


def test_compare_oracle_disagreement_truncates(monkeypatch, capsys):
    class LyingTable:
        def __init__(self, algebra):
            self.algebra = algebra

        def multiplicity(self, lam):
            return 999

    monkeypatch.setattr(cli, "MultiplicityTable", LyingTable)
    code, out = run("compare", "--gcm", "1,2", "--range", "2..2", "--height-cap", "6")
    assert code == cli.EXIT_COMPUTE
    assert out.splitlines()[0] == cli.CSV_HEADER
    assert out.splitlines()[-1].startswith("# truncated: oracle disagreement")
    assert "oracle disagreement" in capsys.readouterr().err


def test_compare_json_truncation_marker(monkeypatch):
    class LyingTable:
        def __init__(self, algebra):
            self.algebra = algebra

        def multiplicity(self, lam):
            return 999

    monkeypatch.setattr(cli, "MultiplicityTable", LyingTable)
    code, out = run(
        "compare", "--gcm", "1,2", "--range", "2..2", "--format", "json",
        "--height-cap", "6",
    )
    assert code == cli.EXIT_COMPUTE
    assert json.loads(out.splitlines()[-1])["truncated"].startswith("oracle disagreement")


def test_mult_closed_form_methods_check_the_weight(capsys):
    for method in ("formula", "tuples"):
        for weight, message in (
            ("0,0,0", "weight must have height >= 1"),
            ("2,2,2,2", "weight length 4 does not match rank 3"),
            ("-1,1,1", "negative coefficient in weight (-1, 1, 1)"),
        ):
            code, out = run("mult", "--gcm", "1,2", "--weight", weight, "--method", method)
            assert (code, out) == (cli.EXIT_USAGE, "")
            assert error_lines(capsys) == [f"error: {message}"]


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

    monkeypatch.setattr(cli, "MultiplicityTable", FailingTable)
    code, out = run("compare", "--gcm", "1,2", "--range", "2..2", "--height-cap", "6")
    assert code == cli.EXIT_COMPUTE
    assert out.splitlines() == [cli.CSV_HEADER, "# truncated: failed on purpose"]
    assert error_lines(capsys) == ["error: failed on purpose"]
