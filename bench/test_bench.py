"""Self-tests of the benchmark: tiny runs end to end, and wrong answers are caught.

    python3 -m pytest -q bench

Runs write only under ``bench/results/``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import layer_metrics  # noqa: E402
from worker import import_cli, latency_summary  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCRATCH = HERE / "results" / "selftest"
cli = import_cli()


def run_bench(
    workload: str, trace: int = 0, cwd: Path = ROOT
) -> tuple[subprocess.CompletedProcess, dict | None]:
    cmd = [
        sys.executable, str(cwd / "bench" / "run.py"),
        "--workload", workload, "--seed", str(workloads.DEFAULT_SEED),
        "--seconds", "0.2", "--trace", str(trace), "--size", "tiny",
    ]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def copied_checkout(name: str, with_source: bool = True) -> Path:
    """A copy of ``bench/`` and BENCHMARK.json, with ``src`` linked in unless told not to."""
    target = SCRATCH / name
    shutil.rmtree(target, ignore_errors=True)
    ignore = shutil.ignore_patterns("results", "__pycache__", "test_*.py")
    shutil.copytree(HERE, target / "bench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", target / "BENCHMARK.json")
    if with_source:
        (target / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return target


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_declared_metric(workload, trace):
    # every workload, declared in BENCHMARK.json or not, reports the declared metrics
    proc, result = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0


def test_off_by_one_stored_recurrence_value_fails_the_run():
    checkout = copied_checkout("recurrence-off-by-one")
    path = checkout / "bench" / "reference" / "recurrence-deep.json"
    stored = json.loads(path.read_text(encoding="utf-8"))
    key = workloads.RecurrenceDeep().inputs(workloads.DEFAULT_SEED, "tiny")[0].key
    stored[key] += 1
    path.write_text(json.dumps(stored), encoding="utf-8")
    proc, result = run_bench("recurrence-deep", cwd=checkout)
    assert proc.returncode != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert f"FAILED {key}: answer" in proc.stdout


def test_changed_compare_report_fails_the_run():
    checkout = copied_checkout("compare-off-by-one")
    path = checkout / "bench" / "reference" / "compare-grid-tiny.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[-1].split(",")
    cells[9] = str(int(cells[9]) + 1)  # the peterson column of the last row
    lines[-1] = ",".join(cells)
    path.write_text("".join(lines), encoding="utf-8")
    proc, result = run_bench("compare-grid", cwd=checkout)
    assert proc.returncode != 0
    assert result["correct"] is False and result["failed"] == result["attempted"]


def _answers(workload, size: str = "tiny", seed: int = workloads.DEFAULT_SEED):
    workload.setup(cli)
    queries = workload.inputs(seed, size)
    return queries, {q.key: workload.run(q) for q in queries}


@pytest.mark.parametrize("cls", [workloads.RecurrenceDeep, workloads.QuotientSlice])
def test_gate_catches_a_multiplicity_off_by_one(cls):
    workload = cls()
    seed = workloads.DEFAULT_SEED + 1  # away from the stored values: the gate's own check
    queries, answers = _answers(workload, seed=seed)
    assert workload.gate(queries, answers, {}, seed) == {}
    key = queries[0].key
    answers[key] += 1
    assert list(workload.gate(queries, answers, {}, seed)) == [key]


def test_rewrite_gate_expands_the_printed_tuples():
    workload = workloads.RewriteVerify()
    queries, answers = _answers(workload)
    assert workload.gate(queries, answers, {}, workloads.DEFAULT_SEED) == {}
    key = next(k for k, (_, text) in answers.items() if text.count("\n") > 1)
    code, text = answers[key]
    sign, rest = text[0], text[1:]
    coeff, tail = rest.split("*", 1)
    answers[key] = (code, f"{sign}{int(coeff) + 1}*{tail}")
    reasons = workload.gate(queries, answers, {}, workloads.DEFAULT_SEED)
    assert reasons == {key: "printed tuples do not expand to the expression"}
    answers[key] = (code, text.replace("VERIFIED", "MISMATCH"))
    assert list(workload.gate(queries, answers, {}, workloads.DEFAULT_SEED)) == [key]


def test_independent_expansion_matches_a_known_identity():
    # [[e1,e2],e3] = [e1,[e2,e3]] - [e2,[e1,e3]] (Jacobi)
    lhs = workloads.bracket_expansion("[[e1,e2],e3]")
    assert lhs == workloads.combination_expansion(["+1*[1,2,3]", "-1*[2,1,3]"])
    assert len(lhs) == 4


def test_compare_query_matches_the_stored_report():
    workload = workloads.CompareGrid()
    queries, answers = _answers(workload)
    reference = workloads.load_reference(HERE / "reference")
    assert workload.gate(queries, answers, reference, workloads.DEFAULT_SEED) == {}


def test_inputs_follow_the_seed():
    for cls in (workloads.RecurrenceDeep, workloads.QuotientSlice, workloads.RewriteVerify):
        w = cls()
        assert w.inputs(3, "full") == w.inputs(3, "full")
        assert w.inputs(3, "full") != w.inputs(4, "full")


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    summary = latency_summary([i / 1000 for i in range(1, 31)])
    assert summary["tail_ms"] == pytest.approx(20.0)
    assert summary["tail_percentile"] == pytest.approx(66.67)
    assert summary["samples"] == 30
    few = latency_summary([0.001, 0.003, 0.002])
    assert few["tail_ms"] == pytest.approx(3.0) and few["tail_percentile"] == 100.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, None, "q", "cli", "main", 0.0, 10.0, 5),
        (2, 1, "q", "tuples", "count_canonical", 1.0, 5.0, 7),
        (3, 1, "q", "tuples", "count_canonical", 3.0, 6.0, 8),
        (4, 1, "q", "formula", "closed_form_dim", 8.0, 9.0, 0),
    ]
    m = layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert m["tuples.busy_s"] == pytest.approx(5.0)
    assert m["tuples.span_s"] == pytest.approx(7.0)
    assert m["tuples.configs"] == 15 and m["cli.bytes_out"] == 5


def test_directory_without_source_tree_exits_nonzero_without_result():
    bare = copied_checkout("bare", with_source=False)
    try:
        proc, result = run_bench("rewrite-verify", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert result is None
