"""`python -m adictrop.cli` with span tracing, for the traced skeleton_cli run.

    python3 perfbench/cli_child.py OUT_PREFIX REQUEST_ID CLI_ARGS...

Runs the CLI like the untraced run does and exits with its code; writes the
trace aggregates to OUT_PREFIX.json and the raw spans to OUT_PREFIX.tsv.
`cli.startup_s` is the time to import `adictrop.cli` in this process.
"""

import sys
import time

START = time.perf_counter()

import json  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
import adictrop.cli  # noqa: E402

STARTUP = time.perf_counter() - START


def main() -> int:
    prefix, rid = sys.argv[1], int(sys.argv[2])
    spans = tracer.Tracer()
    spans.install()
    try:
        code = spans.request(rid, adictrop.cli.main, sys.argv[3:])
    finally:
        spans.uninstall()
    Path(prefix + ".json").write_text(json.dumps(spans.summary(STARTUP)))
    spans.write_spans(prefix + ".tsv")
    return code


if __name__ == "__main__":
    sys.exit(main())
