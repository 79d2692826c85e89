"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 bench/baseline.py [--seeds 1-10] [--workloads a,b] [--out bench/BENCH_x.json]

For every workload, one untraced run per seed (``bench/run.py``, with
``run_seconds`` from BENCHMARK.json), then one traced run at the first seed.
Per metric it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
next to the metric's bound; a spread at or above a third of the bound is
flagged.  ``--out`` writes the summary, with the interpreter and ``nproc``,
as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stdout}")
    record = HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text(encoding="utf-8"))


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "steady": spread < bound / 3,
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]

    summary = {
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        records = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry: dict = {"metrics": {}}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in records]
            stats = summarise(values, m["bound"])
            entry["metrics"][m["name"]] = stats
            flag = "" if stats["steady"] else "  <-- spread >= bound/3"
            print(
                f"{workload:16s} {m['name']:14s} median {stats['median']:11.6g} {m['unit']:3s} "
                f"spread {stats['spread']:.3f} (bound {m['bound']}){flag}",
                flush=True,
            )
        entry["query_tail_percentile"] = sorted({r["query_tail_percentile"] for r in records})
        entry["query_samples"] = sorted({r["query_samples"] for r in records})
        entry["passes"] = [r["passes"] for r in records]
        entry["attempted"] = sum(r["attempted"] for r in records)
        entry["failed"] = sum(r["failed"] for r in records)
        traced = run_once(workload, seeds[0], seconds, 1)
        entry["traced_seed"] = seeds[0]
        entry["dominant_layer"] = traced["dominant_layer"]
        entry["layers"] = {k: v["value"] for k, v in traced["metrics"].items()}
        print(
            f"{workload:16s} traced: dominant layer {traced['dominant_layer']}, "
            f"overhead {entry['layers']['trace.overhead_s']:+.3f} s "
            f"on {entry['layers']['trace.untraced_wall_s']:.3f} s",
            flush=True,
        )
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
