"""Golden test: the demos reproduce the committed `demos/out/` byte for byte.

Criterion 8 compares two fresh runs with each other; this compares a fresh
run with the artifacts kept in the repository, so a change that alters any
answer, or its serialization, fails here.
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "demos" / "out"
DEMOS = sorted((REPO / "demos").glob("demo_*.py"))


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Run every demo into its own directory; map demo stem -> {name: bytes}."""
    out = {}
    for script in DEMOS:
        out_dir = tmp_path_factory.mktemp(script.stem)
        proc = subprocess.run([sys.executable, str(script), str(out_dir)],
                              capture_output=True, text=True, cwd=REPO, timeout=300)
        assert proc.returncode == 0, f"{script.name} failed: {proc.stderr[-500:]}"
        out[script.stem] = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return out


@pytest.mark.parametrize("stem", [s.stem for s in DEMOS])
def test_demo_matches_golden(artifacts, stem):
    produced = artifacts[stem]
    assert produced, f"{stem} produced no artifacts"
    for name, data in produced.items():
        golden = GOLDEN / name
        assert golden.exists(), f"{stem} wrote {name}, which demos/out/ lacks"
        assert data == golden.read_bytes(), f"{stem}/{name} differs from demos/out/{name}"


def test_every_golden_artifact_is_produced(artifacts):
    produced = set().union(*(names.keys() for names in artifacts.values()))
    assert produced == {p.name for p in GOLDEN.iterdir()}
