"""Exit codes, JSON payloads, error channel, and determinism of the CLI."""

import json

import pytest

import adictrop.complexes as complexes
import adictrop.gubler as gubler
import adictrop.jsonio as jio
from adictrop.cli import main
from adictrop.complexes import ExtendedComplex, Rank1Family
from adictrop.polyhedra import Cone, Fan, Polyhedron


def interval(a, b):
    from fractions import Fraction as F
    return Polyhedron.from_halfspaces([((1,), F(a)), ((-1,), -F(b))], 1)


def p2_fan():
    rays = [(1, 0), (0, 1), (-1, -1)]
    cones = [Cone.from_rays([r], 2) for r in rays]
    cones += [Cone.from_rays([rays[i], rays[j]], 2)
              for i, j in [(0, 1), (1, 2), (0, 2)]]
    return Fan.from_cones(cones)


def star_complex():
    fan = p2_fan()
    return ExtendedComplex.from_polyhedra(
        fan, [fan.cones[i].as_polyhedron() for i in range(len(fan))])


def line_complex_json(*cuts):
    from fractions import Fraction as F
    fan = Fan.from_cones([Cone.from_rays([(1,)], 1), Cone.from_rays([(-1,)], 1)])
    cuts = sorted(F(c) for c in cuts)
    faces = [Polyhedron.from_halfspaces([((-1,), -cuts[0])], 1),
             Polyhedron.from_halfspaces([((1,), cuts[-1])], 1)]
    faces += [interval(a, b) for a, b in zip(cuts, cuts[1:])]
    return jio.complex_to_json(ExtendedComplex.from_polyhedra(fan, faces))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = jio.loads(captured.out) if captured.out else None
    err = jio.loads(captured.err) if captured.err else None
    return code, out, err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(jio.canonical_json(obj))
    return str(path)


def embedding_file(tmp_path):
    return write(tmp_path, "embedding.json",
                 {"fan": jio.fan_to_json(p2_fan()), "generators": ["x + y + 1"]})


def star_file(tmp_path):
    return write(tmp_path, "star.json", jio.complex_to_json(star_complex()))


# -- trop -----------------------------------------------------------------------

def test_trop_boxed_line(capsys, tmp_path):
    dot = tmp_path / "trop.dot"
    code, out, err = run(capsys, "trop", "x + y + 1",
                         "--box=-3,3,-3,3", "--dot", str(dot))
    assert code == 0 and err is None
    assert out["ambient"] == 2
    dims = sorted(c["dim"] for c in out["cells"])
    assert dims.count(1) == 3 and 0 in dims
    assert dot.read_text().startswith("digraph faces {")


def test_trop_determinism(capsys):
    code1, out1, _ = run(capsys, "trop", "x + y + 1")
    text1 = jio.canonical_json(out1)
    code2, out2, _ = run(capsys, "trop", "x + y + 1")
    assert code1 == code2 == 0
    assert jio.canonical_json(out2) == text1


def test_trop_malformed_polynomial(capsys):
    code, out, err = run(capsys, "trop", "x + + y")
    assert code == 1 and out is None
    assert err["error"]["kind"] == "malformed-input"


def test_missing_subcommand_is_malformed(capsys):
    code, out, err = run(capsys)
    assert code == 1
    assert err["error"]["kind"] == "malformed-input"


# -- initial --------------------------------------------------------------------

def test_initial_on_and_off_tropicalization(capsys):
    code, out, _ = run(capsys, "initial", "x + y + 1", "--point", "0,0")
    assert code == 0
    assert out["value"] == "0" and not out["monomial"]
    assert out["on_tropicalization"] is True
    assert len(out["form"]["terms"]) == 3
    code, out, _ = run(capsys, "initial", "x + y + 1", "--point", "5,7")
    assert code == 0
    assert out["monomial"] is True and out["on_tropicalization"] is False


def test_initial_boundary_stratum(capsys, tmp_path):
    fan = p2_fan()
    fan_path = write(tmp_path, "fan.json", jio.fan_to_json(fan))
    sigma = fan.index_of(Cone.from_rays([(0, 1)], 2))
    code, out, _ = run(capsys, "initial", "x + 1", "--vars", "x,y",
                       "--point", "0", "--fan", fan_path,
                       "--stratum", str(sigma))
    assert code == 0
    assert out["stratum"] == sigma and not out["monomial"]
    assert out["form"]["nvars"] == 1


def test_initial_exponent_outside_sublattice(capsys, tmp_path):
    fan = p2_fan()
    fan_path = write(tmp_path, "fan.json", jio.fan_to_json(fan))
    sigma = fan.index_of(Cone.from_rays([(0, 1)], 2))
    code, out, err = run(capsys, "initial", "y + 1", "--vars", "x,y",
                         "--point", "0", "--fan", fan_path,
                         "--stratum", str(sigma))
    assert code == 2 and out is None
    assert err["error"]["kind"] == "exponent-outside-sublattice"


@pytest.mark.parametrize("index", ["99", "-1"])
def test_initial_refuses_stratum_outside_the_fan(capsys, tmp_path, index):
    fan_path = write(tmp_path, "fan.json", jio.fan_to_json(p2_fan()))
    code, out, err = run(capsys, "initial", "x + 1", "--vars", "x,y",
                         "--point", "0", "--fan", fan_path, "--stratum", index)
    assert code == 1 and out is None
    assert err["error"]["kind"] == "malformed-input"
    assert f"stratum index {index} " in err["error"]["message"]


# -- tilted ---------------------------------------------------------------------

def test_tilted_unit_interval(capsys, tmp_path):
    path = write(tmp_path, "p.json", jio.polyhedron_to_json(interval(0, 1)))
    code, out, _ = run(capsys, "tilted", path)
    assert code == 0
    gens = out["presentation"]["generators"]
    assert gens == [{"u": [-1], "level": "1"}, {"u": [0], "level": "1"},
                    {"u": [1], "level": "0"}]
    assert out["relations"]["product_vanishing"] == [[0, 2]]
    assert out["relations"]["generator_vanishing"] == [1]


def test_tilted_denominator(capsys, tmp_path):
    from fractions import Fraction as F
    path = write(tmp_path, "p.json",
                 jio.polyhedron_to_json(interval(0, F(1, 2))))
    code, out, err = run(capsys, "tilted", path)
    assert code == 2 and err["error"]["kind"] == "denominator-mismatch"
    code, out, err = run(capsys, "tilted", path, "--denominator", "2")
    assert code == 0 and out["presentation"]["denominator"] == 2


def test_tilted_large_triangle(capsys, tmp_path):
    """x, y >= 0, 97x + 89y <= 9973 at D = 1: the cone has 9973 parallelepiped
    candidates, which an all-pairs reduction tests against each other for
    minutes.  The 46 generators, recorded from that reduction, are pinned
    by the SHA-256 of their repr."""
    import hashlib
    import time
    from fractions import Fraction as F
    tri = Polyhedron.from_halfspaces([((1, 0), 0), ((0, 1), 0), ((-97, -89), -9973)], 2)
    path = write(tmp_path, "triangle.json", jio.polyhedron_to_json(tri))
    start = time.perf_counter()
    code, out, _ = run(capsys, "tilted", path)
    assert time.perf_counter() - start < 10
    assert code == 0
    gens = tuple((tuple(g["u"]), F(g["level"])) for g in out["presentation"]["generators"])
    assert len(gens) == 46
    assert gens[0] == ((-97, -89), F(9973)) and gens[-1] == ((1, 0), F(0))
    assert hashlib.sha256(repr(gens).encode()).hexdigest() == \
        "0db1e964eb7d811699cb12e05926ddada2e1a374bb480fd7a08595a28edffcc2"


# -- refine ---------------------------------------------------------------------

def test_refine_line_complexes(capsys, tmp_path):
    a = write(tmp_path, "a.json", line_complex_json(0))
    b = write(tmp_path, "b.json", line_complex_json(1))
    dot = tmp_path / "refine.dot"
    code, out, _ = run(capsys, "refine", a, b, "--dot", str(dot))
    assert code == 0
    assert len(out["refinement"]["faces"]) == 5  # two cuts -> 5 faces
    assert len(out["maps"]) == 2
    assert all(len(m["assignment"]) == 5 for m in out["maps"])
    assert "->" in dot.read_text()


def test_refine_support_mismatch(capsys, tmp_path):
    a = write(tmp_path, "a.json", line_complex_json(0))
    half = ExtendedComplex.from_polyhedra(
        Fan.from_cones([Cone.from_rays([(1,)], 1), Cone.from_rays([(-1,)], 1)]),
        [Polyhedron.from_halfspaces([((1,), 0)], 1)])
    b = write(tmp_path, "b.json", jio.complex_to_json(half))
    code, out, err = run(capsys, "refine", a, b)
    assert code == 2 and err["error"]["kind"] == "support-mismatch"


# -- check ----------------------------------------------------------------------

def test_check_complete_complex(capsys, tmp_path):
    path = write(tmp_path, "c.json", line_complex_json(0))
    code, out, err = run(capsys, "check", path)
    assert code == 0 and err is None
    assert out["ok"] is True and out["complete"] is True
    assert out["locally_finite"] is True and out["accumulation"] is None
    assert out["components"] == 1 and out["violations"] == []


def test_check_harmonic_family(capsys, tmp_path):
    fam = Rank1Family.from_rule("1/n", isolated=(Polyhedron.single_point((0,)),))
    delta = ExtendedComplex.from_polyhedra(Fan.trivial(1), fam.isolated,
                                           family=fam)
    path = write(tmp_path, "family.json", jio.complex_to_json(delta))
    dot = tmp_path / "adj.dot"
    code, out, err = run(capsys, "check", path, "--dot", str(dot))
    assert code == 0 and err is None
    assert out["locally_finite"] is False
    assert out["accumulation"] == "0"
    assert out["components"] == 2
    assert out["complete"] is None  # undecidable for the infinite family
    assert "family" in dot.read_text()


def test_check_overlap_fails(capsys, tmp_path):
    fan = Fan.from_cones([Cone.zero(1)])
    bad = {"fan": jio.fan_to_json(fan),
           "faces": [jio.polyhedron_to_json(interval(0, 2)),
                     jio.polyhedron_to_json(interval(1, 3))]}
    path = write(tmp_path, "bad.json", bad)
    code, out, err = run(capsys, "check", path)
    assert code == 2
    assert out["ok"] is False and out["violations"]
    assert err["error"]["kind"] == "domain-error"


def test_float_input_rejected(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"ambient": 1, "normals": [[1]], "bounds": [0.5]}')
    code, out, err = run(capsys, "tilted", str(path))
    assert code == 1 and err["error"]["kind"] == "malformed-input"


# -- skeleton -------------------------------------------------------------------

def test_skeleton_tropical_line(capsys, tmp_path):
    dot = tmp_path / "skeleton.dot"
    code, out, err = run(capsys, "skeleton",
                         "--embedding", embedding_file(tmp_path),
                         "--complex", star_file(tmp_path), "--dot", str(dot))
    assert code == 0 and err is None
    assert out["cover"]["ok"] is True
    assert len(out["skeleton"]["strata"]) == 4
    assert dot.read_text().startswith("digraph skeleton {")
    rebuilt = jio.skeleton_from_json(out["skeleton"])
    assert jio.canonical_json(jio.skeleton_to_json(rebuilt)) == \
        jio.canonical_json(out["skeleton"])


def test_skeleton_cover_failure(capsys, tmp_path):
    quadrant = Cone.from_rays([(1, 0), (0, 1)], 2).as_polyhedron()
    partial = ExtendedComplex.from_polyhedra(p2_fan(), [quadrant])
    path = write(tmp_path, "partial.json", jio.complex_to_json(partial))
    code, out, err = run(capsys, "skeleton",
                         "--embedding", embedding_file(tmp_path),
                         "--complex", path)
    assert code == 2
    assert out["cover"]["ok"] is False and out["cover"]["witness"] is not None
    assert err["error"]["kind"] == "not-a-cover"


def test_skeleton_warns_on_asserted_basis(capsys, tmp_path):
    emb = write(tmp_path, "e.json",
                {"fan": jio.fan_to_json(p2_fan()),
                 "generators": ["x + y + 1", "x + y + 1"],
                 "tropical_basis_asserted": True})
    code, out, err = run(capsys, "skeleton", "--embedding", emb,
                         "--complex", star_file(tmp_path))
    assert code == 0
    assert any("asserted" in w for w in out["warnings"])


@pytest.mark.parametrize("fields, code, kind", [
    ({"generators": ["x + y + z"]}, 1, "malformed-input"),
    ({"generators": ["x + y + 1", "x + y + 1"]}, 2, "basis-not-asserted"),
    ({"generators": ["x + y + 1"], "stratum_ideals": [[99, ["y + 1"]]]}, 1,
     "malformed-input"),
    ({"generators": ["x + y + 1"], "stratum_ideals": [[1, ["y + 1"]], [1, ["t*y + 1"]]]}, 1,
     "malformed-input"),
], ids=["rank", "unasserted-basis", "index-past-the-fan", "repeated-index"])
def test_skeleton_refuses_embedding(capsys, tmp_path, fields, code, kind):
    emb = write(tmp_path, "e.json", {"fan": jio.fan_to_json(p2_fan()), **fields})
    got, out, err = run(capsys, "skeleton", "--embedding", emb,
                        "--complex", star_file(tmp_path))
    assert got == code and out is None
    assert err["error"]["kind"] == kind


@pytest.mark.parametrize("covering", [True, False])
def test_skeleton_checks_the_cover_once(capsys, tmp_path, monkeypatch, covering):
    if covering:
        complex_path = star_file(tmp_path)
    else:
        quadrant = Cone.from_rays([(1, 0), (0, 1)], 2).as_polyhedron()
        complex_path = write(tmp_path, "partial.json", jio.complex_to_json(
            ExtendedComplex.from_polyhedra(p2_fan(), [quadrant])))
    argv = ["skeleton", "--embedding", embedding_file(tmp_path), "--complex", complex_path]
    code = main(argv)
    out = capsys.readouterr().out
    calls = []
    real = gubler.covers

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gubler, "covers", counting)
    assert main(argv) == code == (0 if covering else 2)
    assert capsys.readouterr().out == out
    assert len(calls) == 1


@pytest.mark.parametrize("covering", [True, False])
def test_skeleton_orders_each_complex_once(capsys, tmp_path, monkeypatch, covering):
    # The passes are the input complex's (its JSON incidence, then the cover
    # check's maximal faces) and, for a cover, its subdivision by the
    # linearity regions of x + y + 1 (the gluing, then its JSON incidence).
    if covering:
        complex_path = star_file(tmp_path)
    else:
        quadrant = Cone.from_rays([(1, 0), (0, 1)], 2).as_polyhedron()
        complex_path = write(tmp_path, "partial.json", jio.complex_to_json(
            ExtendedComplex.from_polyhedra(p2_fan(), [quadrant])))
    passes = []
    real = complexes.containment_pairs

    def counting(parts):
        passes.append(len(parts))
        return real(parts)

    monkeypatch.setattr(complexes, "containment_pairs", counting)
    argv = ["skeleton", "--embedding", embedding_file(tmp_path), "--complex", complex_path]
    assert main(argv) == (0 if covering else 2)
    capsys.readouterr()
    assert passes == ([7, 7] if covering else [4])


# -- adapt ---------------------------------------------------------------------

def test_adapt_ray(capsys, tmp_path):
    ray = Cone.from_rays([(1, 0)], 2).as_polyhedron()
    pieces = write(tmp_path, "pieces.json", [jio.polyhedron_to_json(ray)])
    code, out, err = run(capsys, "adapt",
                         "--embedding", embedding_file(tmp_path),
                         "--complex", star_file(tmp_path), "--pieces", pieces)
    assert code == 0
    assert out["adapted"] is True
    assert len(out["subcomplex"]["faces"]) == 2


def test_adapt_refused(capsys, tmp_path):
    box = Polyhedron.from_halfspaces(
        [((1, 0), -1), ((-1, 0), -1), ((0, 1), -1), ((0, -1), -1)], 2)
    pieces = write(tmp_path, "pieces.json", [jio.polyhedron_to_json(box)])
    code, out, err = run(capsys, "adapt",
                         "--embedding", embedding_file(tmp_path),
                         "--complex", star_file(tmp_path), "--pieces", pieces)
    assert code == 2 and out["adapted"] is False
    assert err["error"]["kind"] == "domain-error"


# -- morphism --------------------------------------------------------------------

def torus_embedding_file(tmp_path):
    fan = Fan.from_cones([Cone.from_rays([(1,)], 1), Cone.from_rays([(-1,)], 1)])
    return write(tmp_path, "torus.json",
                 {"fan": jio.fan_to_json(fan), "generators": []})


def test_morphism_tower(capsys, tmp_path):
    emb = torus_embedding_file(tmp_path)
    fine = write(tmp_path, "fine.json", line_complex_json(0, 1))
    coarse = write(tmp_path, "coarse.json", line_complex_json(0))
    dot = tmp_path / "morphism.dot"
    code, out, err = run(capsys, "morphism", "--embedding", emb,
                         "--fine", fine, "--coarse", coarse, "--dot", str(dot))
    assert code == 0 and err is None
    assert len(out["assignment"]) == 5
    assert out["arrows"]
    assert "style=dashed" in dot.read_text()
    rebuilt = jio.morphism_from_json(out)
    assert jio.canonical_json(jio.morphism_to_json(rebuilt)) == \
        jio.canonical_json(out)


def test_morphism_not_a_refinement(capsys, tmp_path):
    emb = torus_embedding_file(tmp_path)
    fine = write(tmp_path, "fine.json", line_complex_json(0))
    coarse = write(tmp_path, "coarse.json", line_complex_json(1))
    code, out, err = run(capsys, "morphism", "--embedding", emb,
                         "--fine", fine, "--coarse", coarse)
    assert code == 2 and err["error"]["kind"] == "not-a-refinement"


def test_missing_file(capsys):
    code, out, err = run(capsys, "check", "/nonexistent/path.json")
    assert code == 1 and err["error"]["kind"] == "malformed-input"
