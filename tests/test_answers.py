"""Every answer the benchmark's requests get, pinned by a checked-in manifest.

The request lists come from `perfbench/workloads.py`, which builds them with
plain Python, so no adictrop code makes the inputs.  Each request runs in
process: the CLI requests through `cli.main` with stdout, stderr and the
exit code captured, the in-process ones through the workload's own `run`.
The SHA-256 of each response is compared with `tests/answers/seed<N>.json`,
and a mismatch names the request.

Regenerate a manifest only when an answer is meant to change:

    PYTHONPATH=src python tests/test_answers.py 1 2 3
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ANSWERS = Path(__file__).with_name("answers")
# requests per workload: all of them, except a prefix of the trop_corners list
LIMITS = {"skeleton_cli": None, "trop_corners": 65, "tilted_lattice": None}


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads.WORKLOADS


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _cli(argv: list[str]) -> str:
    from adictrop.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return _digest([code, out.getvalue(), err.getvalue()])


def answers(seed: int) -> dict[str, list[list[str]]]:
    """[request, SHA-256 of its response] per workload; run from the checkout root."""
    result, workloads = {}, _workloads()
    for name, limit in LIMITS.items():
        workload = workloads[name]
        workdir = ROOT / "perfbench" / ".work" / f"answers-{seed}"
        requests = workload.generate(seed, workdir)[:limit]
        if name == "skeleton_cli":
            result[name] = [[" ".join(r["argv"]), _cli(r["argv"])] for r in requests]
        else:
            result[name] = [[f"{r['input']} D={r['D']}" if "D" in r else r["input"],
                             _digest(workload.run(r)[-1])] for r in requests]
    return result


@pytest.mark.parametrize("seed", [1, pytest.param(2, marks=pytest.mark.slow),
                                  pytest.param(3, marks=pytest.mark.slow)])
def test_answers_match_manifest(seed, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = json.loads((ANSWERS / f"seed{seed}.json").read_text())
    got = answers(seed)
    assert got.keys() == expected.keys()
    for name in expected:
        assert [r for r, _ in got[name]] == [r for r, _ in expected[name]], name
    wrong = [f"{name}: {r!r}" for name in expected
             for (r, h), (_, e) in zip(got[name], expected[name]) if h != e]
    assert not wrong, f"{len(wrong)} answers changed, first {wrong[:3]}"


if __name__ == "__main__":
    os.chdir(ROOT)
    ANSWERS.mkdir(exist_ok=True)
    for arg in sys.argv[1:]:
        path = ANSWERS / f"seed{int(arg)}.json"
        path.write_text(json.dumps(answers(int(arg)), indent=1) + "\n")
        print(path)
