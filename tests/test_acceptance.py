"""Acceptance gate: the eight shipping criteria, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` (or `-s` to see the summary
lines of passing criteria).  Each criterion is a single test; the printed
line states the verdict and the measured runtime against the stated bound.
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import oracles

import adictrop.jsonio as jio
from adictrop import (Cone, EmbeddingData, ExtendedComplex, Fan, Polyhedron,
                      Rank1Family, adic_trop_strata, adjacency_components,
                      build_skeleton, common_refinement, detect_accumulation,
                      hypersurface_trop, initial_form, is_integral_at,
                      is_locally_finite, monomial_polyhedron, parse_poly,
                      skeleton_morphism, special_fiber_relations, support_contains,
                      tilted_algebra, validate_complex)
from adictrop.degeneration import LaurentPoly, ValuedCoeff
from adictrop import lp

REPO = Path(__file__).resolve().parent.parent


def _report(num, name, ok, elapsed, bound=None):
    verdict = "PASS" if ok else "FAIL"
    timing = f"{elapsed:.2f}s" + (f" < {bound:.0f}s" if bound else "")
    print(f"[criterion {num}] {name}: {verdict} ({timing})")


# -- shared builders ----------------------------------------------------------------

def p2_fan():
    rays = [(1, 0), (0, 1), (-1, -1)]
    cones = [Cone.from_rays([r], 2) for r in rays]
    cones += [Cone.from_rays([rays[i], rays[j]], 2)
              for i, j in [(0, 1), (1, 2), (0, 2)]]
    return Fan.from_cones(cones)


def quadrant_fan():
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    cones = [Cone.from_rays([r], 2) for r in rays]
    cones += [Cone.from_rays([rays[i], rays[(i + 1) % 4]], 2) for i in range(4)]
    return Fan.from_cones(cones)


def line_faces(cuts):
    cuts = sorted(F(c) for c in cuts)
    faces = [[((-1,), -cuts[0])], [((1,), cuts[-1])]]
    faces += [[((1,), a), ((-1,), -b)] for a, b in zip(cuts, cuts[1:])]
    return faces


def grid_complex(fan, xcuts, ycuts):
    faces = []
    for fx in line_faces(xcuts):
        for fy in line_faces(ycuts):
            hs = [((a[0], 0), b) for a, b in fx] + [((0, a[0]), b) for a, b in fy]
            faces.append(Polyhedron.from_halfspaces(hs, 2))
    return ExtendedComplex.from_polyhedra(fan, faces)


def translate_complex(delta, shift):
    out = []
    for p in delta.finite_parts:
        moved = [(n, b + sum(F(n[i]) * F(shift[i]) for i in range(len(shift))))
                 for n, b in list(p.equalities) + list(p.facets)]
        moved += [(tuple(-v for v in n), -b) for n, b in moved[:len(p.equalities)]]
        out.append(Polyhedron.from_halfspaces(moved, p.ambient))
    return ExtendedComplex.from_polyhedra(delta.fan, out)


def random_poly(rng, nvars):
    terms = []
    for _ in range(rng.randint(2, 5)):
        u = tuple(rng.randint(-3, 3) for _ in range(nvars))
        val = F(rng.randint(-4, 4), rng.choice([1, 1, 2]))
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms.append((u, ValuedCoeff.t_power(val, c)))
    f = LaurentPoly.of(nvars, terms)
    return f if not f.is_zero else LaurentPoly.monomial(nvars, (0,) * nvars)


# -- criterion 1 --------------------------------------------------------------------

def test_criterion_1_non_locally_finite_family():
    t0 = time.perf_counter()
    fam = Rank1Family.from_rule("1/n", isolated=(Polyhedron.single_point((0,)),))
    delta = ExtendedComplex.from_polyhedra(Fan.trivial(1), fam.isolated,
                                           family=fam)
    problems = []
    if not validate_complex(delta.fan, delta.finite_parts, delta.family).ok:
        problems.append("family complex failed structural validation")
    lo, lo_closed, hi, hi_closed = fam.union_bounds()
    if (lo, hi, hi_closed) != (F(0), F(1), True):
        problems.append(f"family union is not (0,1]: {fam.union_bounds()}")
    for x, expected in [(F(0), True), (F(1), True), (F(1, 2), True),
                        (F(2, 5), True), (F(1, 997), True),
                        (F(-1, 10), False), (F(11, 10), False)]:
        if support_contains(delta, (x,)) != expected:
            problems.append(f"support membership wrong at {x}")
    if detect_accumulation(fam) != 0:
        problems.append(f"accumulation point is {detect_accumulation(fam)}")
    if is_locally_finite(delta):
        problems.append("complex reported locally finite")
    components = adjacency_components(delta)
    if len(components) != 2:
        problems.append(f"expected 2 adjacency components, got {components}")
    elapsed = time.perf_counter() - t0
    _report(1, "non-locally-finite family", not problems and elapsed < 1.0,
            elapsed, 1.0)
    assert not problems, problems
    assert elapsed < 1.0


# -- criterion 2 --------------------------------------------------------------------

def test_criterion_2_tropical_line():
    t0 = time.perf_counter()
    f = parse_poly("x + y + 1")
    problems = []

    cells = hypersurface_trop(f)
    expected = {((0, 0), ()),
                (((0, 0),), ((1, 0),)),
                (((0, 0),), ((0, 1),)),
                (((0, 0),), ((-1, -1),))}
    got = set()
    for cell in cells:
        rep = cell.vrep()
        if cell.dim == 0:
            got.add((tuple(int(v) for v in rep.vertices[0]), ()))
        else:
            got.add((tuple(tuple(int(c) for c in v) for v in rep.vertices),
                     tuple(tuple(int(c) for c in r) for r in rep.rays)))
    if got != expected:
        problems.append(f"corner locus is not origin + three rays: {got}")

    box = ((F(-3), F(-3)), (F(3), F(3)))
    boxed = hypersurface_trop(f, box=box)
    oracle = oracles.grid_corner_locus(
        [(u, a.valuation) for u, a in f.terms], [(-3, 3), (-3, 3)], F(1, 4))
    lib_json = jio.canonical_json([jio.cell_to_json(c) for c in boxed])
    ora_json = jio.canonical_json([jio.cell_to_json(c) for c in oracle])
    if lib_json != ora_json:
        problems.append("boxed corner locus is not byte-identical to the "
                        "grid-oracle reconstruction")

    fan = p2_fan()
    star = ExtendedComplex.from_polyhedra(
        fan, [fan.cones[i].as_polyhedron() for i in range(len(fan))])
    skeleton = build_skeleton(EmbeddingData.of(fan, [f]), star)
    rows = adic_trop_strata(skeleton)
    if len(rows) != 4:
        problems.append(f"expected 4 non-empty strata, got {len(rows)}")
    by_face = {skeleton.complex.finite_parts[r.face_index]:
               r.forms[0].to_string(["x", "y"]) for r in rows}
    origin = Polyhedron.single_point((0, 0))
    ray = {d: Cone.from_rays([d], 2).as_polyhedron()
           for d in [(1, 0), (0, 1), (-1, -1)]}
    expected_forms = {origin: "x + y + 1", ray[(1, 0)]: "y + 1",
                      ray[(0, 1)]: "x + 1", ray[(-1, -1)]: "x + y"}
    if by_face != expected_forms:
        problems.append(f"initial-form assignment mismatch: "
                        f"{[(k, v) for k, v in by_face.items()]}")

    elapsed = time.perf_counter() - t0
    _report(2, "tropical line", not problems and elapsed < 5.0, elapsed, 5.0)
    assert not problems, problems
    assert elapsed < 5.0


# -- criterion 3 --------------------------------------------------------------------

def _random_admissible_polyhedron(rng):
    d = rng.choice([1, 1, 2, 2, 2])
    D = rng.randint(1, 4)
    if d == 1:
        a = F(rng.randint(-4, 2), D)
        if rng.random() < 0.3:
            return Polyhedron.from_halfspaces([((1,), a)], 1), D
        b = a + F(rng.randint(1, 4), D)
        return Polyhedron.from_halfspaces([((1,), a), ((-1,), -b)], 1), D
    while True:
        pts = [(F(rng.randint(-2, 2), D), F(rng.randint(-2, 2), D))
               for _ in range(rng.randint(3, 5))]
        rays = [(1, 0), (0, 1)] if rng.random() < 0.25 else []
        p = Polyhedron.from_generators(pts, rays, ambient=2)
        if p.dim == 2:
            return p, D


def _factors_through(p, D, gens, u, gamma, umin):
    """(u, gamma) as a nonneg integer combination of gens, by weight descent.

    Every generator has positive weight gamma + <u, v0> at an interior v0
    (an affine function >= 0 on a full-dimensional P vanishing at an
    interior point is zero), so the recursion terminates.
    """
    seen = {}

    def member(u2, g2):
        m = umin.get(u2)
        return m is not None and m[0] and g2 + m[1] >= 0

    def rec(u2, g2):
        if all(c == 0 for c in u2) and g2 == 0:
            return True
        key = (u2, g2)
        if key in seen:
            return seen[key]
        seen[key] = False
        for ug, gg in gens:
            du = tuple(a - b for a, b in zip(u2, ug))
            if du not in umin:
                continue
            if member(du, g2 - gg) and rec(du, g2 - gg):
                seen[key] = True
                return True
        return False

    return rec(u, gamma)


def test_criterion_3_tilted_algebra_oracle():
    t0 = time.perf_counter()
    rng = random.Random(20260825)
    problems = []
    checked = 0
    for k in range(20):
        p, D = _random_admissible_polyhedron(rng)
        t = tilted_algebra(p, D)
        u_bound = max(max(abs(c) for c in u) for u, _ in t.generators) + 1
        g_bound = max(int(abs(g) * D) for _, g in t.generators) + D
        oracle = oracles.semigroup_generators_boxed(p, D, u_bound, g_bound)
        if t.generators != oracle:
            problems.append(f"case {k}: generators {t.generators} != "
                            f"oracle {oracle}")
            continue
        d = p.ambient
        reach = 6
        umin = {}
        for u in product(*[range(-reach, reach + 1)] * d):
            res = oracles.poly_lp(p, u)
            unbounded = res.status == lp.UNBOUNDED
            umin[u] = (not unbounded, None if unbounded else res.value)
        for u in product(*[range(-2, 3)] * d):
            ok, m = umin[u]
            if not ok:
                continue
            gmin = F(math.ceil(-m * D), D)
            for j in range(3):
                gamma = gmin + F(j, D)
                if abs(gamma) > 4:
                    continue
                if not _factors_through(p, D, t.generators, u, gamma, umin):
                    problems.append(f"case {k}: monomial ({u}, {gamma}) "
                                    "does not factor through the generators")
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = not problems and checked > 400 and elapsed < 60.0
    _report(3, f"tilted algebra vs oracle (20 cases, {checked} factorizations)",
            ok, elapsed, 60.0)
    assert not problems, problems[:5]
    assert checked > 400
    assert elapsed < 60.0


# -- criterion 4 --------------------------------------------------------------------

def test_criterion_4_membership_lemma():
    t0 = time.perf_counter()
    rng = random.Random(4)
    failures = []
    for k in range(500):
        nvars = rng.choice([1, 2, 2, 3])
        f = random_poly(rng, nvars)
        w = tuple(F(rng.randint(-10, 10), rng.randint(1, 4))
                  for _ in range(nvars))
        direct = is_integral_at(f, w)
        via_polyhedron = monomial_polyhedron(f).contains(w)
        if direct != via_polyhedron:
            failures.append((k, f, w, direct, via_polyhedron))
    elapsed = time.perf_counter() - t0
    _report(4, "membership lemma (500 random pairs)", not failures, elapsed)
    assert not failures, failures[:5]


# -- criterion 5 --------------------------------------------------------------------

def test_criterion_5_corner_locus_vs_initial_forms():
    t0 = time.perf_counter()
    rng = random.Random(5)
    failures = []
    for k in range(50):
        nvars = rng.choice([1, 2])
        f = random_poly(rng, nvars)
        cells = hypersurface_trop(f)
        grid = [F(i, 2) for i in range(-4, 5)]
        for w in product(grid, repeat=nvars):
            on_locus = any(c.contains(w) for c in cells)
            non_monomial = not initial_form(f, w).is_monomial
            if on_locus != non_monomial:
                failures.append((k, f, w, on_locus, non_monomial))
    elapsed = time.perf_counter() - t0
    _report(5, "corner locus <=> non-monomial initial form (50 polys)",
            not failures, elapsed)
    assert not failures, failures[:5]


# -- criterion 6 --------------------------------------------------------------------

def test_criterion_6_refinement_functoriality():
    t0 = time.perf_counter()
    rng = random.Random(6)
    problems = []

    fan = quadrant_fan()
    torus = EmbeddingData.of(fan, [])
    for trial in range(4):
        xs = rng.sample(range(-3, 4), 1)
        ys = rng.sample(range(-3, 4), 1)
        xs2 = sorted(set(xs) | set(rng.sample(range(-3, 4), 1)))
        ys3 = sorted(set(ys) | set(rng.sample(range(-3, 4), 1)))
        coarse_d = grid_complex(fan, xs, ys)
        mid_d = grid_complex(fan, xs2, ys)
        fine_d = grid_complex(fan, xs2, ys3)
        if len(fine_d.faces) > 40:
            problems.append(f"trial {trial}: fine complex too large")
            continue
        coarse = build_skeleton(torus, coarse_d)
        mid = build_skeleton(torus, mid_d)
        fine = build_skeleton(torus, fine_d)
        inner = skeleton_morphism(fine, mid)
        outer = skeleton_morphism(mid, coarse)
        if outer.compose(inner) != skeleton_morphism(fine, coarse):
            problems.append(f"trial {trial}: composition != direct morphism")
        if common_refinement(fine_d, fine_d) != fine_d:
            problems.append(f"trial {trial}: refinement not idempotent")
        if common_refinement(coarse_d, mid_d) != common_refinement(mid_d,
                                                                   coarse_d):
            problems.append(f"trial {trial}: refinement not commutative")

    fan2 = p2_fan()
    line = EmbeddingData.of(fan2, [parse_poly("x + y + 1")])
    star = ExtendedComplex.from_polyhedra(
        fan2, [fan2.cones[i].as_polyhedron() for i in range(len(fan2))])
    mid_d = common_refinement(star, translate_complex(star, (1, 1)))
    fine_d = common_refinement(mid_d, translate_complex(star, (2, 2)))
    if len(fine_d.faces) > 40:
        problems.append("principal tower: fine complex too large")
    else:
        coarse = build_skeleton(line, star)
        mid = build_skeleton(line, mid_d)
        fine = build_skeleton(line, fine_d)
        inner = skeleton_morphism(fine, mid)
        outer = skeleton_morphism(mid, coarse)
        if outer.compose(inner) != skeleton_morphism(fine, coarse):
            problems.append("principal tower: composition != direct morphism")

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    _report(6, "refinement functoriality (towers <= 40 faces)", ok, elapsed,
            60.0)
    assert not problems, problems
    assert elapsed < 60.0


# -- criterion 7 --------------------------------------------------------------------

def test_criterion_7_unit_interval_special_fiber():
    t0 = time.perf_counter()
    p = Polyhedron.from_halfspaces([((1,), F(0)), ((-1,), F(-1))], 1)
    t = tilted_algebra(p, 1)
    problems = []
    expected = (((-1,), F(1)), ((0,), F(1)), ((1,), F(0)))  # t/x, t, x
    if t.generators != expected:
        problems.append(f"generators {t.generators} != {{t/x, t, x}}")
    if t.generators != oracles.semigroup_generators_boxed(p, 1, 3, 3):
        problems.append("generators disagree with the Hilbert-basis oracle")
    rel = special_fiber_relations(t)
    if rel.product_vanishing != ((0, 2),):
        problems.append(f"expected x * (t/x) = 0 mod m, got "
                        f"{rel.product_vanishing}")
    if rel.generator_vanishing != (1,):
        problems.append(f"expected t = 0 mod m, got {rel.generator_vanishing}")
    elapsed = time.perf_counter() - t0
    _report(7, "unit-interval special fiber", not problems, elapsed)
    assert not problems, problems


# -- criterion 8 --------------------------------------------------------------------

def test_criterion_8_corpus_determinism(tmp_path):
    t0 = time.perf_counter()
    demos = sorted((REPO / "demos").glob("demo_*.py"))
    assert demos, "demo corpus is missing"
    problems = []
    outputs = {}
    for run in (1, 2):
        for script in demos:
            out_dir = tmp_path / f"run{run}" / script.stem
            out_dir.mkdir(parents=True)
            proc = subprocess.run(
                [sys.executable, str(script), str(out_dir)],
                capture_output=True, text=True, cwd=REPO, timeout=300)
            if proc.returncode != 0:
                problems.append(f"{script.name} run {run} failed: "
                                f"{proc.stderr[-200:]}")
                continue
            artifacts = {p.name: p.read_bytes()
                         for p in sorted(out_dir.iterdir())}
            outputs.setdefault(script.stem, []).append(
                (proc.stdout.replace(str(out_dir), "<out>"), artifacts))
    for stem, runs in outputs.items():
        if len(runs) != 2:
            continue
        (stdout1, art1), (stdout2, art2) = runs
        if stdout1 != stdout2:
            problems.append(f"{stem}: narrative output differs between runs")
        if art1.keys() != art2.keys():
            problems.append(f"{stem}: artifact sets differ between runs")
        for name in art1.keys() & art2.keys():
            if art1[name] != art2[name]:
                problems.append(f"{stem}/{name}: artifact bytes differ")
        if not any(art1):
            problems.append(f"{stem}: produced no artifacts")
    elapsed = time.perf_counter() - t0
    _report(8, "example corpus byte-determinism", not problems, elapsed)
    assert not problems, problems
