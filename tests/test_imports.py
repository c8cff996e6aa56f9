"""The package loads its modules on first use, and each CLI subcommand
imports only the modules it needs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "demos" / "data"

# `adictrop.__all__` as it was when the package imported every module eagerly
EXPORTS = [
    "AdictropError", "AdmissibilityResult", "Chart", "Cone", "CoverDecision",
    "DenominatorMismatch", "DomainError", "EmbeddingData", "EmbeddingMismatch",
    "EmptyPolyhedron", "ExponentOutsideSublattice", "ExtendedComplex", "ExtendedPoint",
    "ExtendedPolyhedron", "FAMILY_NODE", "FaceArrow", "FamilyNotSupported", "Fan",
    "GublerSkeleton", "HalfSpace", "InitialIdeal", "LaurentPoly", "MalformedInput",
    "NonRationalPoint", "NotACover", "NotAFan", "NotARefinement", "NotAdmissible",
    "NotPointed", "Polyhedron", "Rank1Family", "RefinementMap", "ResiduePoly",
    "SemigroupGenerators", "SkeletonMorphism", "SpecialFiberRelations", "StratumLattice",
    "StratumRow", "SupportMismatch", "TiltedPresentation", "UnverifiedBasis", "VRep",
    "ValidationReport", "ValuedCoeff", "Violation", "ZeroPolynomial", "adapted_to",
    "adic_trop_strata", "adjacency_components", "build_skeleton", "closure_strata",
    "common_refinement", "covers", "detect_accumulation", "dual_cone",
    "extended_contains", "face_of", "hilbert_basis", "hypersurface_trop",
    "initial_degeneration_ideal", "initial_form", "initial_form_on_stratum",
    "is_admissible", "is_complete", "is_integral_at", "is_locally_finite",
    "is_union_of_faces", "linearity_complex", "monomial_polyhedron", "parse_poly",
    "recession_cone", "refinement_map", "semigroup_generators", "skeleton_dot",
    "skeleton_morphism", "special_fiber_relations", "stratum_lattice",
    "support_contains", "tilted_algebra", "trop_eval", "tropicalization_pieces",
    "validate_complex",
]

_PROBE = """
import json, sys
from adictrop.cli import main
code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules
                if m.startswith("adictrop") or m in ("dataclasses", "inspect"))
sys.stderr.write("\\n" + json.dumps({"code": code, "modules": loaded}) + "\\n")
"""


def _fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


EMBEDDING, STAR = str(DATA / "line_embedding.json"), str(DATA / "star_complex.json")
LINE_0, LINE_01 = str(DATA / "line_cut_at_0.json"), str(DATA / "line_cut_at_0_and_1.json")


@pytest.mark.parametrize("argv, absent", [
    (["check", str(DATA / "harmonic_family.json")], {"gubler", "degeneration", "parsing"}),
    (["refine", LINE_0, LINE_01], {"gubler", "degeneration", "parsing"}),
    (["tilted", str(DATA / "unit_interval.json")], {"gubler"}),
    (["trop", "x + y + 1", "--box=-3,3,-3,3"], {"gubler"}),
    (["initial", "x + y + 1", "--point", "0,0"], {"gubler"}),
    (["skeleton", "--embedding", EMBEDDING, "--complex", STAR], set()),
    (["morphism", "--embedding", str(DATA / "torus_line_embedding.json"),
      "--fine", LINE_01, "--coarse", LINE_0], set()),
    (["adapt", "--embedding", EMBEDDING, "--complex", STAR,
      "--pieces", str(DATA / "ray_pieces.json")], set()),
], ids=["check", "refine", "tilted", "trop", "initial", "skeleton", "morphism", "adapt"])
def test_subcommand_leaves_modules_unloaded(argv, absent):
    """Each subcommand loads only the modules it needs, and none loads
    `dataclasses` or `inspect`: the library's records are built without them."""
    run = _fresh(_PROBE, *argv)
    report = json.loads(run.stderr.strip().splitlines()[-1])
    assert report["code"] in (0, 2), run.stderr
    assert run.stdout
    assert not {f"adictrop.{m}" for m in absent} & set(report["modules"])
    assert not {"dataclasses", "inspect"} & set(report["modules"])


def test_every_export_imports_by_name():
    names = json.dumps(EXPORTS)
    run = _fresh("import adictrop, sys\n"
                 f"assert adictrop.__all__ == {names}, adictrop.__all__\n"
                 f"assert dir(adictrop) == {names}\n"
                 f"for name in {names}:\n"
                 "    exec(f'from adictrop import {name}', {})\n"
                 "print(len(adictrop.__all__))\n")
    assert run.returncode == 0, run.stderr
    assert run.stdout == f"{len(EXPORTS)}\n"


def test_unknown_name_raises_attribute_error():
    import adictrop
    with pytest.raises(AttributeError):
        adictrop.no_such_name
