from __future__ import annotations

import importlib
import io
from pathlib import Path

import rootmult
import rootmult.cli as cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

PUBLIC = {
    "rank3_chain",
    "MultiplicityTable",
    "SerreQuotient",
    "FormulaParams",
    "closed_form_dim",
    "count_canonical",
    "parse_bracket",
    "to_standard_form",
    "free_lie_dim",
    "Variant",
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
        ):
            assert cli.main(argv, io.StringIO()) == 0
    finally:
        tracer.remove()
    metrics = spans.layer_metrics(tracer.spans)
    for name in ("freelie.words_out", "tuples.configs", "cli.bytes_out"):
        assert metrics[name] > 0, name
