"""Boundary strata through the CLI: pinned answers and the meaning of `stratum_ideals`.

The embedding is the tropical line x + y + 1 on the P^2 fan
(`demos/data/line_embedding.json`) with ideals on the boundary strata of its
rays.  Each answer (exit code, stdout, stderr of `skeleton`, with and
without `--validate-samples`) is pinned by its SHA-256; the pins were
recorded before the torus and the boundary strata shared one cover loop and
one chart path.  The other tests pin what an empty ideal list and a stratum
index that is not a nonzero cone mean.  Print the current hashes with

    PYTHONPATH=src python tests/test_strata.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

import adictrop.jsonio as jio
from adictrop.cli import main
from adictrop.complexes import ExtendedComplex
from adictrop.polyhedra import Cone, Polyhedron

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "demos" / "data"
RAYS = [(1, 0), (0, 1), (-1, -1)]
# ideal sets: ray -> generators, in the variables x, y
IDEALS = {
    "y+2": {(1, 0): ["y + 2"]},
    "ty+1": {(1, 0): ["t*y + 1"]},
    "three": {(1, 0): ["y + 1"], (0, 1): ["x + 1"], (-1, -1): ["x*y^-1 + 1"]},
}
COMPLEXES = ("star", "line")
PINNED = {
    "y+2/star": "46ab1b401bb253cebf73010b3482ec23759b44c1b5cd5f53bb3d411b2f25b9b3",
    "y+2/star/validate": "46ab1b401bb253cebf73010b3482ec23759b44c1b5cd5f53bb3d411b2f25b9b3",
    "y+2/line": "4d88aaa547ac3d28cda0377740af2678e7985ca864bd4ab44f9f3163df1933c6",
    "y+2/line/validate": "4d88aaa547ac3d28cda0377740af2678e7985ca864bd4ab44f9f3163df1933c6",
    "ty+1/star": "bfa2346f66bb712c1396e4776fb62a57b4e4118b023234dc56e2f592a494dc32",
    "ty+1/star/validate": "2211d9bbaa5b4748463323967c421b4080a5d2126160e444c14c08de0bf3f817",
    "ty+1/line": "8a8df1cd4e23e42638e4740eccf791344eaf9684e2f5d8f1753bae5d0d2e6416",
    "ty+1/line/validate": "8a8df1cd4e23e42638e4740eccf791344eaf9684e2f5d8f1753bae5d0d2e6416",
    "three/star": "2ed23f261af7f2fc51460e77f77616a33599b543efb9302681d0228afb057dab",
    "three/star/validate": "2ed23f261af7f2fc51460e77f77616a33599b543efb9302681d0228afb057dab",
    "three/line": "b4a696e048af9c6e0cb5e29ae8b8ccb2c0111c87c3b9db01eab1aa031b684c31",
    "three/line/validate": "b4a696e048af9c6e0cb5e29ae8b8ccb2c0111c87c3b9db01eab1aa031b684c31",
}


def _fan():
    return jio.fan_from_json(json.loads((DATA / "line_embedding.json").read_text())["fan"])


def _ray_index(ray) -> int:
    return _fan().index_of(Cone.from_rays([ray], 2))


def _embedding(ideals: dict) -> dict:
    obj = json.loads((DATA / "line_embedding.json").read_text())
    obj["variables"] = ["x", "y"]
    obj["stratum_ideals"] = [[_ray_index(ray), gens] for ray, gens in ideals.items()]
    return obj


def _line_complex() -> dict:
    """The tropical line as a complex: the origin and the three rays."""
    faces = [Polyhedron.single_point((0, 0))]
    faces += [Cone.from_rays([ray], 2).as_polyhedron() for ray in RAYS]
    return jio.complex_to_json(ExtendedComplex.from_polyhedra(_fan(), faces))


def _files(tmp: Path, ideals: dict, complex_name: str) -> list[str]:
    emb, cpx = tmp / "embedding.json", tmp / "complex.json"
    emb.write_text(json.dumps(_embedding(ideals)))
    if complex_name == "star":
        cpx.write_text((DATA / "star_complex.json").read_text())
    else:
        cpx.write_text(json.dumps(_line_complex()))
    return ["skeleton", "--embedding", str(emb), "--complex", str(cpx)]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _digest(result) -> str:
    return hashlib.sha256(json.dumps(list(result)).encode()).hexdigest()


def answers(tmp: Path) -> dict[str, str]:
    result = {}
    for name, ideals in IDEALS.items():
        for complex_name in COMPLEXES:
            argv = _files(tmp, ideals, complex_name)
            result[f"{name}/{complex_name}"] = _digest(_run(argv))
            result[f"{name}/{complex_name}/validate"] = _digest(
                _run(argv + ["--validate-samples"]))
    return result


def test_boundary_strata_answers_are_pinned(tmp_path):
    got = answers(tmp_path)
    wrong = [case for case, digest in PINNED.items() if got[case] != digest]
    assert not wrong, f"changed answers: {wrong}"


def test_empty_stratum_ideal_is_the_whole_stratum(tmp_path):
    sigma = _ray_index((1, 0))
    code, out, err = _run(_files(tmp_path, {(1, 0): []}, "star"))
    assert code == 0 and err == ""
    charts = [c for c in json.loads(out)["skeleton"]["charts"] if c["stratum"] == sigma]
    assert charts and all(c["evaluated"] and not c["empty"] and c["forms"] == []
                          for c in charts)
    code, out, err = _run(_files(tmp_path, {(1, 0): []}, "line"))
    assert code == 2 and json.loads(err)["error"]["kind"] == "not-a-cover"
    assert json.loads(out)["cover"]["witness"]["stratum"] == sigma


# an index past the last cone: tests/test_cli.py::test_skeleton_refuses_embedding
@pytest.mark.parametrize("index", [-1, 0])  # negative, the zero cone
def test_stratum_ideal_index_is_refused(tmp_path, index):
    assert _fan().zero_index == 0
    emb = _embedding({})
    emb["stratum_ideals"] = [[index, ["y + 1"]]]
    path = tmp_path / "embedding.json"
    path.write_text(json.dumps(emb))
    code, out, err = _run(["skeleton", "--embedding", str(path),
                           "--complex", str(DATA / "star_complex.json")])
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["kind"] == "malformed-input"


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(answers(Path(tmp)), sys.stdout, indent=4)
    print()
