"""Time one set-up in a fresh interpreter: import rootmult.cli, build the workload's engines.

    python3 bench/setup_probe.py WORKLOAD

Only modules the interpreter has loaded at start-up are imported before the
clock starts, so the stdlib modules rootmult pulls in are paid for here, as
on a CLI call.  Prints the seconds taken.
"""
import os
import sys
import time

t0 = time.perf_counter()
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
import rootmult.cli as cli  # noqa: E402

t1 = time.perf_counter()
from workloads import WORKLOADS  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.realpath(cli.__file__))) != os.path.realpath(SRC):
    sys.exit(f"rootmult imported from {cli.__file__}, not from {SRC}")
workload = WORKLOADS[sys.argv[1]]()
t2 = time.perf_counter()
workload.setup(cli)
t3 = time.perf_counter()
print(repr((t1 - t0) + (t3 - t2)))
