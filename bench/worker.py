"""One benchmark run in a fresh process: timed passes, then the answer gate.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --size full|tiny

A pass asks every query of the workload once.  Passes repeat while at
least half of the next one fits in ``--seconds``.  With ``--trace 1``
untraced and traced passes alternate, untraced first, so the tracing
overhead is measured in the same process, and the spans are written to
``bench/results/<tag>.spans.jsonl``.  Every answer is checked after the
clock stops, against the stored answers in ``bench/reference/`` among
others; the result is one JSON object on stdout.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"


def result_tag(workload: str, seed: int, trace: int, size: str) -> str:
    """The stem of a run's files under ``bench/results/``."""
    return f"{workload}-seed{seed}-trace{trace}" + ("" if size == "full" else f"-{size}")


def import_cli():
    """Import ``rootmult.cli`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import rootmult.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"rootmult imported from {cli.__file__}, not from {SRC}")
    return cli


def latency_summary(per_query_s: list[float]) -> dict[str, float]:
    """Median and tail over queries, in ms.

    The tail is the highest percentile with at least ten samples beyond it:
    the sample at sorted index n - 11, percentile 100 (n - 10) / n.  With 20
    or fewer samples that percentile would not lie above the median, so the
    maximum is reported, as percentile 100.
    """
    values = sorted(per_query_s)
    n = len(values)
    if n > 20:
        tail, pct = values[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = values[-1], 100.0
    return {
        "p50_ms": statistics.median(values) * 1e3,
        "tail_ms": tail * 1e3,
        "tail_percentile": round(pct, 2),
        "samples": n,
    }


class Raised:
    def __init__(self, exc: Exception) -> None:
        self.reason = f"raised {type(exc).__name__}: {exc}"


def run(args: argparse.Namespace) -> dict:
    cli = import_cli()
    sys.path.insert(0, str(HERE))
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS, load_reference

    workload = WORKLOADS[args.workload]()
    workload.setup(cli)
    queries = workload.inputs(args.seed, args.size)
    reference = load_reference(HERE / "reference")
    tracer = Tracer() if args.trace else None

    first: dict[str, object] = {}
    bad_attempts: dict[str, int] = {q.key: 0 for q in queries}
    attempts: dict[str, int] = {q.key: 0 for q in queries}
    latencies: dict[str, list[float]] = {q.key: [] for q in queries}  # untraced only
    walls: dict[bool, list[float]] = {False: [], True: []}
    layer_passes: list[dict[str, float]] = []
    clock = time.perf_counter

    start = clock()
    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        spans_before = len(tracer.spans) if tracer else 0
        if traced:
            tracer.install()
        try:
            t0 = clock()
            for q in queries:
                if traced:
                    tracer.query = q.key
                ts = clock()
                try:
                    answer = workload.run(q)
                except Exception as exc:  # a failed query is counted, the run goes on
                    answer = Raised(exc)
                if not traced:
                    latencies[q.key].append(clock() - ts)
                attempts[q.key] += 1
                if q.key not in first:
                    first[q.key] = answer
                if isinstance(answer, Raised) or answer != first[q.key]:
                    bad_attempts[q.key] += 1
            walls[traced].append(clock() - t0)
        finally:
            if traced:
                tracer.remove()
        if traced:
            pass_metrics = layer_metrics(tracer.spans[spans_before:])
            pass_metrics.update(tracer.table_counters())
            layer_passes.append(pass_metrics)
        # another pass only if at least half of it fits in the budget
        if clock() - start + 0.5 * walls[traced][-1] >= args.seconds and (
            tracer is None or walls[True]
        ):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    answered = [q for q in queries if not isinstance(first[q.key], Raised)]
    reasons = workload.gate(answered, {q.key: first[q.key] for q in answered}, reference, args.seed)
    for q in queries:
        if isinstance(first[q.key], Raised):
            reasons[q.key] = first[q.key].reason
    failed = sum(attempts[k] if k in reasons else bad_attempts[k] for k in attempts)
    for k in attempts:
        if bad_attempts[k] and k not in reasons:
            reasons[k] = f"{bad_attempts[k]} attempts raised or differed from the first answer"

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "attempted": sum(attempts.values()),
        "failed": failed,
        "failures": dict(sorted(reasons.items())[:10]),
        "passes": len(walls[False]) + len(walls[True]),
        "wall_s": statistics.median(walls[False]),
        "pass_walls_s": walls[False],
        "latency": latency_summary([statistics.median(v) for v in latencies.values()]),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        layers = {
            name: statistics.median(p[name] for p in layer_passes) for name in layer_passes[0]
        }
        traced_wall = statistics.median(walls[True])
        layers["trace.wall_s"] = traced_wall
        layers["trace.untraced_wall_s"] = result["wall_s"]
        layers["trace.overhead_s"] = traced_wall - result["wall_s"]
        layers["trace.spans"] = len(tracer.spans)
        result["layers"] = layers
        RESULTS.mkdir(exist_ok=True)
        tag = result_tag(args.workload, args.seed, args.trace, args.size)
        tracer.dump(RESULTS / f"{tag}.spans.jsonl")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
