"""Time one workload set-up in this fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is everything before the first timed request: importing the library,
generating the seeded request list and the warm-up requests.
"""

import sys
import time

START = time.perf_counter()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

run._setup(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
print(f"{time.perf_counter() - START:.6f}")
