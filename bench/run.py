"""Run one rootmult benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported:
set-up time (median of 30 fresh interpreters before and after the worker, each
importing ``rootmult.cli`` and building the workload's engines), then wall time,
per-query latency and peak memory of one fresh worker process that runs
the workload for ``--seconds``.  With ``--trace 1`` the worker records spans
around the calls into each rootmult layer and the per-layer metrics are
reported instead.  Every answer is checked; the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` and the exit
code is 0 only when every answer was right.  A fuller record, with the
interpreter, ``nproc`` and the seed, goes to ``bench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 30
RUN_LIMIT_S = 170.0


def fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def setup_times(workload: str, probes: int) -> list[float]:
    """Set-up seconds from ``probes`` fresh interpreters."""
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def dominant_layer(layers: dict[str, float]) -> str:
    names = [k[: -len(".self_s")] for k in layers if k.endswith(".self_s")]
    return max(names, key=lambda n: layers[f"{n}.self_s"])


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one rootmult benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny inputs, for the benchmark's self-tests",
    )
    args = parser.parse_args()

    started = time.monotonic()
    if not (ROOT / "src" / "rootmult" / "__init__.py").is_file():
        return fail(f"no rootmult source tree under {ROOT / 'src'}", 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(HERE))
    from worker import result_tag
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}", 2)

    # the first probe may compile bytecode and is dropped; the rest are split
    # around the worker, because machine speed can drift over a run
    try:
        if not args.trace:
            setup_times(args.workload, 1)
        setup = [] if args.trace else setup_times(args.workload, SETUP_PROBES // 2)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc), 3)
    tag = result_tag(args.workload, args.seed, args.trace, args.size)
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
    ]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(10.0, RUN_LIMIT_S - (time.monotonic() - started)),
        )
    except subprocess.TimeoutExpired:
        return fail("worker did not finish in time", 3)
    if proc.returncode != 0 or not proc.stdout.strip():
        return fail(f"worker exited with code {proc.returncode}", 3)
    run = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        try:
            setup += setup_times(args.workload, SETUP_PROBES - len(setup))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            return fail(str(exc), 3)

    if args.trace:
        values = run["layers"]
        declared = spec["per_layer"]
    else:
        lat = run["latency"]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": run["wall_s"],
            "query_p50_ms": lat["p50_ms"],
            "query_tail_ms": lat["tail_ms"],
            "peak_rss_mb": run["peak_rss_mb"],
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    attempted, failed = run["attempted"], run["failed"]
    correct = attempted >= 1 and failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": run["failures"],
        "passes": run["passes"],
        "pass_walls_s": run["pass_walls_s"],
        "query_tail_percentile": run["latency"]["tail_percentile"],
        "query_samples": run["latency"]["samples"],
        "setup_samples_s": setup,
        "metrics": metrics,
    }
    if args.trace:
        record["dominant_layer"] = dominant_layer(values)
    RESULTS.mkdir(exist_ok=True)
    result_file = RESULTS / f"{tag}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"{record['interpreter']}  nproc {record['nproc']}  passes {run['passes']}"
    )
    for name, m in metrics.items():
        note = ""
        if name == "query_tail_ms":
            note = f"  (p{record['query_tail_percentile']:g} of {record['query_samples']} queries)"
        elif name == "query_p50_ms":
            note = f"  ({record['query_samples']} queries, each the median of its repeats)"
        elif name == "setup_s":
            note = f"  (median of {len(setup)} fresh interpreters)"
        print(f"{name:28s} {m['value']:.6g} {m['unit']}{note}")
    print(f"{'failed_frac':28s} {record['failed_frac']:.6g}  ({failed} of {attempted} attempts)")
    for key, reason in run["failures"].items():
        print(f"  FAILED {key}: {reason}")
    if args.trace:
        print(f"dominant layer by self time: {record['dominant_layer']}")
    print(f"record: {result_file.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
