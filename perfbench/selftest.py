"""Self-test: two traced runs with the same seed report identical counters.

    python3 perfbench/selftest.py

Every workload is traced twice with seed 1.  Each traced run (`run.py
--trace 1`) executes a fixed request batch in a fresh process.  Every count,
byte total and count-derived ratio must repeat exactly; only times and the
tracing overhead may differ.  Exits 1 when a counter differs or a run fails
its checks.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 1
TIMED = {"s", "us"}


def traced(workload: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run failed\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    sys.path.insert(0, str(HERE))
    import workloads
    status = 0
    for name in workloads.WORKLOADS:
        first, second = traced(name), traced(name)
        counters = sorted(k for k, m in first["metrics"].items()
                          if m["unit"] not in TIMED and k != "trace.throughput_ratio")
        differ = [k for k in counters
                  if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        ok = first["correct"] and second["correct"] and not differ
        print(f"{name}: {len(counters)} counters, "
              f"{'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}"
              f"{'' if first['correct'] and second['correct'] else ', checks FAILED'}")
        status |= not ok
    return status


if __name__ == "__main__":
    sys.exit(main())
