from __future__ import annotations

import ast
import importlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

import rootmult
import rootmult.cli as cli
import rootmult.gcm
import rootmult.peterson
import rootmult.serre

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

PUBLIC = {
    "rank3_chain",
    "MultiplicityTable",
    "SerreQuotient",
    "closed_form_dim",
    "parse_bracket",
    "to_standard_form",
    "free_lie_dim",
    "OracleScaleError",
    "RecurrenceError",
    "ParseError",
}


def library_sketch() -> str:
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_sketch_runs_and_shows_true_values():
    sketch = library_sketch()
    namespace: dict = {}
    exec(sketch, namespace)
    checked = 0
    for line in sketch.splitlines():
        code, _, value = line.partition("  # ")
        if value and code.strip():
            assert repr(eval(code, namespace)) == value.strip(), code
            checked += 1
    assert checked == 6


def test_public_names():
    assert set(rootmult.__all__) == PUBLIC
    assert len(rootmult.__all__) == len(PUBLIC)
    assert all(hasattr(rootmult, name) for name in PUBLIC)


def test_cli_start_up_skips_the_heavy_standard_modules():
    # every CLI call pays for the modules its import loads; compare the
    # names, not a timing, and only new names, as site may preload some
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "before = set(sys.modules)\n"
        "import rootmult.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    loaded = set(proc.stdout.split())
    assert "rootmult.cli" in loaded
    heavy = {"dataclasses", "inspect", "fractions", "decimal", "json", "argparse", "gettext"}
    assert not loaded & heavy


def test_cli_calls_leave_locale_unloaded():
    # argparse's gettext loads locale when a parser is built; the command
    # table builds nothing of the kind, on success, help or a usage error
    code = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "before = set(sys.modules)\n"
        "import rootmult.cli\n"
        "for argv, expected in (\n"
        "    (['compare', '--gcm', '1,2', '--range', '1..2', '--height-cap', '6'], 0),\n"
        "    (['compare', '--help'], 0),\n"
        "    (['compare', '--gcm', '1,2', '--range', '1..2', '--format', 'xml'], 2),\n"
        "):\n"
        "    with contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert rootmult.cli.main(argv, io.StringIO()) == expected, argv\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    loaded = set(proc.stdout.split())
    assert "rootmult.serre" in loaded
    assert not loaded & {"locale", "argparse", "gettext"}


ENGINES = {"rootmult.peterson", "rootmult.serre", "rootmult.linalg"}


@pytest.mark.parametrize(
    "argv, engines",
    [
        (None, set()),
        (["rewrite", "[[e1,e2],e3]", "--verify"], set()),
        (["witt", "--weight", "2,2,2"], set()),
        (["mult", "--gcm", "1,2", "--weight", "2,2,2", "--method", "formula"], set()),
        (["mult", "--gcm", "1,2", "--weight", "2,2,2", "--method", "peterson"], {"rootmult.peterson"}),
        (
            ["mult", "--gcm", "1,2", "--weight", "2,2,2", "--method", "quotient"],
            {"rootmult.serre", "rootmult.linalg"},
        ),
        (["compare", "--gcm", "1,2", "--range", "1..2"], ENGINES),
    ],
)
def test_each_command_loads_only_the_engines_it_runs(argv, engines):
    # argv None: a bare `import rootmult`; the engines resolve on first access
    lines = ["import rootmult"] if argv is None else [
        "import io, rootmult.cli",
        f"assert rootmult.cli.main({argv!r}, io.StringIO()) == 0",
    ]
    code = "\n".join(
        ["import sys", f"sys.path.insert(0, {str(ROOT / 'src')!r})", *lines, "print(*sys.modules)"]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    assert set(proc.stdout.split()) & ENGINES == engines


def test_engine_names_resolve_to_one_object_everywhere():
    assert rootmult.MultiplicityTable is rootmult.peterson.MultiplicityTable
    assert rootmult.SerreQuotient is rootmult.serre.SerreQuotient
    assert rootmult.serre.OracleScaleError is rootmult.OracleScaleError is cli.OracleScaleError
    assert rootmult.peterson.RecurrenceError is rootmult.RecurrenceError is cli.RecurrenceError
    assert rootmult.serre.DEFAULT_HEIGHT_CAP == rootmult.gcm.DEFAULT_HEIGHT_CAP == 10
    assert not hasattr(rootmult, "Missing")


def package_imports(module: str) -> set[str]:
    """The package modules that ``rootmult.<module>`` imports, function-level imports included."""
    tree = ast.parse((ROOT / "src" / "rootmult" / f"{module}.py").read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import is read from the package, rootmult
            base = ".".join(filter(None, ["rootmult" if node.level else "", node.module]))
            names += [f"{base}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in names if name.startswith("rootmult.")}


def test_oracles_import_only_what_they_share():
    # an oracle checks the others only while it shares no code with them; a
    # new cross-import has to change this table
    assert {
        module: package_imports(module)
        for module in ("formula", "peterson", "serre", "linalg", "gcm")
    } == {
        "formula": set(),
        "peterson": {"gcm"},
        "serre": {"freelie", "gcm", "linalg"},
        "linalg": set(),
        "gcm": set(),
    }


def test_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    # bench/spans.py wraps names where their callers look them up, some of
    # them otherwise unused (serre's ad_generator import); deleting one from
    # src/ breaks every traced benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spans = importlib.import_module("spans")
    originals = [(owner, attr, owner.__dict__.get(attr)) for owner, attr, *_ in spans.traced_names()]
    missing = [f"{owner.__name__}.{attr}" for owner, attr, fn in originals if fn is None]
    assert not missing
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
    finally:
        tracer.remove()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_benchmark_tracer_counts_words_configs_and_bytes(monkeypatch):
    # the per-layer counters read results: the words of an expansion, the raw
    # configurations of a canonical count and the bytes a command printed
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        tracer.install()
        for argv in (
            ["rewrite", "[[e1,e2],[e3,e2]]", "--verify"],
            ["compare", "--gcm", "1,2", "--range", "1..3", "--height-cap", "6"],
            # a compare row evaluates the interval model without count_canonical
            ["mult", "--gcm", "1,2", "--weight", "2,2,2", "--method", "tuples"],
        ):
            assert cli.main(argv, io.StringIO()) == 0
    finally:
        tracer.remove()
    metrics = spans.layer_metrics(tracer.spans)
    for name in ("freelie.words_out", "tuples.configs", "cli.bytes_out"):
        assert metrics[name] > 0, name
