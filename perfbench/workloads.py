"""Seeded workload generators, request runners and response checks.

Each workload turns a seed into a fixed request list with `random.Random`
and plain Python: no adictrop call is made while generating, so a library
change cannot change the inputs.  The generators mirror the acceptance
criteria's input generators (criterion 3 for admissible polyhedra,
criterion 5 for Laurent polynomials, criterion 6 for grid complexes)
without importing the test suite.

Seeds must give runs of equal cost, or the spread between seeds hides the
change being measured.  So the size of every input is fixed by a schedule,
and the in-process workloads draw their base inputs once, from a fixed
catalog seed; `--seed` then picks lattice symmetries of them (signed
coordinate permutations), valuation shifts and coefficients, which change
the input and its answer but not its size.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import permutations, product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _primitive(v) -> tuple[int, ...]:
    g = 0
    for x in v:
        g = math.gcd(g, int(x))
    return tuple(int(x) // g for x in v) if g else tuple(int(x) for x in v)


def _hjson(ambient: int, halfspaces) -> dict:
    """Polyhedron JSON {normal . x >= bound} as the CLI and jsonio read it."""
    return {"ambient": ambient, "normals": [list(n) for n, _ in halfspaces],
            "bounds": [str(F(b)) for _, b in halfspaces]}


def _satisfies(halfspaces, x) -> bool:
    return all(sum(F(a) * F(c) for a, c in zip(n, x)) >= F(b) for n, b in halfspaces)


# -- tilted_lattice ----------------------------------------------------------------

def _facets_2d(points, with_rays):
    """Supporting lines through two of the points (plus the two ray facets).

    Without rays this is the H-description of conv(points); with rays
    (1,0) and (0,1) only normals in the positive quadrant support the
    polyhedron conv(points) + cone(rays).
    """
    out = set()
    for i, p in enumerate(points):
        for q in points[i + 1:]:
            dx, dy = q[0] - p[0], q[1] - p[1]
            den = math.lcm(dx.denominator, dy.denominator)
            base = _primitive((-dy * den, dx * den))
            for n in (base, (-base[0], -base[1])):
                if with_rays and (n[0] < 0 or n[1] < 0):
                    continue
                values = [n[0] * x + n[1] * y for x, y in points]
                b = min(values)
                if values.count(b) >= 2:
                    out.add((n, b))
    if with_rays:
        out.add(((1, 0), min(x for x, _ in points)))
        out.add(((0, 1), min(y for _, y in points)))
    return sorted(out)


def zonotope_box(facets, denominator: int, unbounded: bool) -> int:
    """Lattice points of the box that bounds the Hilbert-basis search.

    The semigroup of the tilted algebra is the lattice part of a cone whose
    extreme rays are (u, -D*b) for the facets u.x >= b of P, plus the level
    direction when P is unbounded.  The seed code solves one LP per point of
    the bounding box of the zonotope spanned by those rays, so this count
    predicts the request's cost.
    """
    ambient = len(facets[0][0])
    rays = {_primitive(tuple(n) + (-denominator * b,)) for n, b in facets}
    if unbounded:
        rays.add((0,) * ambient + (1,))
    total = 1
    for c in range(ambient + 1):
        total *= sum(abs(r[c]) for r in rays) + 1
    return total


def _admissible_polyhedron(rng: random.Random):
    """Criterion 3's distribution: dimension 1 or 2, level D in 1..4."""
    d = rng.choice([1, 1, 2, 2, 2])
    D = rng.randint(1, 4)
    if d == 1:
        a = F(rng.randint(-6, 4), D)
        if rng.random() < 0.3:
            return [((1,), a)], D, True
        b = a + F(rng.randint(1, 5), D)
        return [((1,), a), ((-1,), -b)], D, False
    while True:
        pts = sorted({(F(rng.randint(-2, 2), D), F(rng.randint(-2, 2), D))
                      for _ in range(rng.randint(3, 5))})
        rays = rng.random() < 0.25
        full = any((q[0] - p[0]) * (r[1] - p[1]) != (q[1] - p[1]) * (r[0] - p[0])
                   for p in pts for q in pts for r in pts)
        if rays or full:
            return _facets_2d(pts, rays), D, rays


def _lattice_symmetries(n: int) -> list:
    """Signed coordinate permutations, plus integer shifts in rank 1."""
    syms = [(perm, signs, 0) for perm in permutations(range(n))
            for signs in product((1, -1), repeat=n)]
    if n == 1:
        syms += [(perm, signs, t) for perm, signs, _ in syms for t in (1, -1, 2, -2)]
    return syms


def _move_halfspace(sym, normal, bound):
    """Image of {normal . x >= bound} under x -> S x + t (S orthogonal)."""
    perm, signs, shift = sym
    moved = tuple(s * normal[p] for p, s in zip(perm, signs))
    return moved, bound + shift * sum(moved)


def _tilted_class(facets, box: int) -> str | None:
    if len(facets[0][0]) == 1:
        return "1d"
    for name, cap in (("2d-s", 60), ("2d-m", 120), ("2d-l", 200)):
        if box <= cap:
            return name
    return None  # beyond the size cap


class TiltedLattice:
    """In-process tilted algebras of admissible polyhedra (criterion 3).

    Request: polyhedron JSON -> `polyhedron_from_json` -> `tilted_algebra`
    -> `special_fiber_relations` -> presentation and relations JSON, as the
    `tilted` subcommand does.  The cost grows with the zonotope box, so the
    schedule fixes how many slots of each box class a round holds; boxes
    above 200 points are redrawn.
    """

    name = "tilted_lattice"
    # an odd number of slots puts the median inside one slot's requests
    schedule = ("1d", "2d-s", "1d", "2d-m", "2d-s", "1d", "2d-l", "2d-s",
                "2d-m", "2d-s", "2d-s")
    variants = 8
    cycles = 4
    round_size = len(schedule)
    # inside the band of the two 2d-m slots, away from a jump between classes
    tail_percentile = 80.0
    trace_requests = 33
    in_process = True

    def catalog(self) -> list[list[tuple]]:
        """`cycles` base polyhedra per schedule slot, drawn once from criterion
        3's distribution (the same for every seed); each has `variants`
        distinct images under the lattice symmetries, and no image repeats."""
        rng = random.Random(f"{self.name}:catalog")
        need = {c: self.schedule.count(c) * self.cycles for c in self.schedule}
        pools: dict[str, list] = {c: [] for c in need}
        seen = set()
        while any(len(pools[c]) < need[c] for c in pools):
            facets, D, unbounded = _admissible_polyhedron(rng)
            cls = _tilted_class(facets, zonotope_box(facets, D, unbounded))
            images = {tuple(sorted(_move_halfspace(sym, n, b) for n, b in facets))
                      for sym in _lattice_symmetries(len(facets[0][0]))[:self.variants]}
            if cls is not None and len(pools[cls]) < need[cls] \
                    and len(images) == self.variants and not images & seen:
                seen |= images
                pools[cls].append((facets, D, unbounded))
        slots = []
        for i, cls in enumerate(self.schedule):
            first = self.schedule[:i].count(cls)
            step = self.schedule.count(cls)
            slots.append([(cls, *base) for base in pools[cls][first::step]])
        return slots

    def generate(self, seed: int, workdir: Path) -> list[dict]:
        """Rounds over the catalog, each slot in a lattice symmetry of its base.

        A signed permutation of the coordinates (and, in rank 1, an integer
        shift) maps the polyhedron to a different input with the same
        zonotope box.  Cycle c of `variants` rounds uses base c of every
        slot, each in every symmetry once, in an order drawn from the seed:
        every seed does the same work, and no input repeats in the list of
        cycles x variants x slots = 352 requests.
        """
        rng = random.Random(f"{self.name}:{seed}")
        slots = self.catalog()
        orders = [rng.sample(range(self.variants), self.variants) for _ in slots]
        requests = []
        for r in range(self.cycles * self.variants):
            for bases, order in zip(slots, orders):
                cls, facets, D, unbounded = bases[r // self.variants]
                d = len(facets[0][0])
                sym = _lattice_symmetries(d)[order[r % self.variants]]
                moved = sorted(_move_halfspace(sym, n, b) for n, b in facets)
                requests.append({
                    "class": cls, "D": D, "dim": d,
                    "box": zonotope_box(moved, D, unbounded),
                    "input": json.dumps(_hjson(d, moved))})
        return requests

    def warmup_requests(self) -> list[dict]:
        return [{"class": "1d", "D": 2, "dim": 1, "box": 0,
                 "input": json.dumps(_hjson(1, [((1,), F(-1, 2)), ((-1,), F(-1))]))},
                {"class": "2d-s", "D": 1, "dim": 2, "box": 0,
                 "input": json.dumps(_hjson(2, [((1, 0), 0), ((0, 1), 0),
                                                ((-1, -1), -1)]))}]

    def run(self, req: dict):
        import adictrop.jsonio as jio
        from adictrop import special_fiber_relations, tilted_algebra
        p = jio.polyhedron_from_json(jio.loads(req["input"]))
        t = tilted_algebra(p, req["D"])
        rel = special_fiber_relations(t)
        out = jio.canonical_json({"presentation": jio.presentation_to_json(t),
                                  "relations": jio.relations_to_json(rel)})
        return (p, out)

    def check(self, req: dict, response) -> str | None:
        """Listed generators must equal tests/oracles' brute-force Hilbert basis."""
        import oracles
        p, out = response
        D = req["D"]
        generators = tuple((tuple(g["u"]), F(g["level"]))
                           for g in json.loads(out)["presentation"]["generators"])
        u_bound = max(max(abs(c) for c in u) for u, _ in generators) + 1
        g_bound = max(int(abs(g) * D) for _, g in generators) + D
        expected = oracles.semigroup_generators_boxed(p, D, u_bound, g_bound)
        if generators != expected:
            return f"generators {generators} != oracle {expected}"
        return None


# -- trop_corners ------------------------------------------------------------------

_VARS = "xyz"


def _laurent_terms(rng: random.Random, nvars: int, k: int):
    """k distinct exponents in [-1, 1]^n with valuations in (1/2)Z (criterion 5)."""
    exponents = set()
    while len(exponents) < k:
        exponents.add(tuple(rng.randint(-1, 1) for _ in range(nvars)))
    return [(u, F(rng.randint(-4, 4), rng.choice([1, 1, 2])),
             rng.choice([-3, -2, -1, 1, 2, 3])) for u in sorted(exponents)]


def _poly_text(terms) -> str:
    parts = []
    for u, val, c in terms:
        mono = "*".join(f"{_VARS[i]}^{e}" for i, e in enumerate(u) if e)
        parts.append(f"({c})*t^({val})" + (f"*{mono}" if mono else ""))
    return " + ".join(parts)


_TROP_VARIANTS = {  # variable permutation and signs: four symmetries per rank
    2: [((0, 1), (1, 1)), ((1, 0), (1, 1)), ((0, 1), (-1, -1)), ((1, 0), (-1, -1))],
    3: [((0, 1, 2), (1, 1, 1)), ((1, 2, 0), (1, 1, 1)),
        ((0, 1, 2), (-1, -1, -1)), ((1, 2, 0), (-1, -1, -1))],
}


class TropCorners:
    """In-process corner loci of seeded Laurent polynomials.

    Request: `parse_poly` -> `hypersurface_trop` unboxed and boxed ->
    `initial_form` at each unboxed cell's relative interior point ->
    `cell_to_json`.  A pass holds k = 3..7 terms in two variables and k = 3
    in three (the boxed three-variable locus costs seconds beyond k = 3).
    """

    name = "trop_corners"
    schedule = ((2, 3), (2, 4), (3, 3), (2, 5), (2, 3), (2, 4), (2, 6), (2, 3),
                (3, 3), (2, 5), (2, 4), (2, 7), (2, 3))
    cycles = 10
    round_size = len(schedule)
    tail_percentile = 80.0
    trace_requests = 13
    in_process = True
    box_half_width = {2: 2, 3: 2}

    def generate(self, seed: int, workdir: Path) -> list[dict]:
        """Rounds over a fixed catalog, one base polynomial per schedule slot.

        A variant permutes or negates the variables, shifts every valuation
        by one constant and redraws the residue coefficients: its corner
        locus is the image of the base locus under a lattice symmetry.  Each
        cycle of four rounds uses each slot's four variants once, in an order
        drawn from the seed, so every seed does the same work while no input
        repeats.
        """
        catalog_rng = random.Random(f"{self.name}:catalog")
        catalog = [(nvars, k, _laurent_terms(catalog_rng, nvars, k))
                   for nvars, k in self.schedule]
        rng = random.Random(f"{self.name}:{seed}")
        orders = [rng.sample(range(4), 4) for _ in catalog]
        requests = []
        seen = set()
        for r in range(self.cycles * 4):
            for (nvars, k, base), order in zip(catalog, orders):
                perm, signs = _TROP_VARIANTS[nvars][order[r % 4]]
                while True:
                    shift = rng.randint(-2, 2)
                    terms = sorted((tuple(s * u[i] for i, s in zip(perm, signs)),
                                    val + shift, rng.choice([-3, -2, -1, 1, 2, 3]))
                                   for u, val, _ in base)
                    text = _poly_text(terms)
                    if text not in seen:
                        break
                seen.add(text)
                requests.append({"class": f"n{nvars}-k{k}", "nvars": nvars,
                                 "k": k, "input": text,
                                 "terms": [(u, val) for u, val, _ in terms]})
        return requests

    def warmup_requests(self) -> list[dict]:
        return [{"class": "n2-k3", "nvars": 2, "k": 3, "input": "x + y + 1",
                 "terms": [((0, 0), F(0)), ((0, 1), F(0)), ((1, 0), F(0))]}]

    def run(self, req: dict):
        import adictrop.jsonio as jio
        from adictrop import hypersurface_trop, initial_form, parse_poly
        n = req["nvars"]
        f = parse_poly(req["input"], _VARS[:n])
        cells = hypersurface_trop(f)
        h = F(self.box_half_width[n])
        boxed = hypersurface_trop(f, box=((-h,) * n, (h,) * n))
        forms = [initial_form(f, c.relative_interior_point()) for c in cells]
        out = jio.canonical_json({
            "cells": [jio.cell_to_json(c) for c in cells],
            "boxed": [jio.cell_to_json(c) for c in boxed],
            "forms": [jio.residue_to_json(g) for g in forms]})
        return (f, cells, boxed, out)

    def check(self, req: dict, response) -> str | None:
        """Grid oracle (two variables) and the criterion-5 equivalence (all)."""
        import adictrop.jsonio as jio
        import oracles
        from adictrop import initial_form
        f, cells, boxed, out = response
        n = req["nvars"]
        if n == 2:
            # The oracle is exact when every vertex and every cell's interior
            # meets the grid: step 1/(2L), L the lcm of vertex denominators.
            lcm = 1
            for c in boxed:
                for v in c.vrep().vertices:
                    for x in v:
                        lcm = math.lcm(lcm, x.denominator)
            h = self.box_half_width[n]
            oracle = oracles.grid_corner_locus(
                [(tuple(u), F(val)) for u, val in req["terms"]], [(-h, h)] * n,
                F(1, 2 * lcm))
            got = jio.canonical_json([jio.cell_to_json(c) for c in boxed])
            want = jio.canonical_json([jio.cell_to_json(c) for c in oracle])
            if got != want:
                return "boxed corner locus differs from the grid oracle"
            if json.loads(out)["boxed"] != json.loads(got):
                return "response JSON differs from the boxed cells"
        points = [c.relative_interior_point() for c in cells]
        points += list(product([F(i, 2) for i in range(-4, 5)], repeat=n))
        for w in points:
            on_locus = any(c.contains(w) for c in cells)
            if on_locus == initial_form(f, w).is_monomial:
                return f"criterion 5 fails at {w}: on locus {on_locus}"
        return None


# -- skeleton_cli ------------------------------------------------------------------

QUADRANT_RAYS = [(1, 0), (0, 1), (-1, 0), (0, -1)]
P2_RAYS = [(1, 0), (0, 1), (-1, -1)]
P2_CONES = [  # 2-dimensional cones of the P^2 fan as {n . x >= 0}
    [(1, 0), (0, 1)], [(-1, 0), (-1, 1)], [(0, -1), (1, -1)]]
LINE_TERMS = [((0, 0), 0), ((0, 1), 0), ((1, 0), 0)]  # x + y + 1


def _fan_json(rays, pairs):
    cones = [[]] + [[list(r)] for r in rays]
    cones += [sorted([list(rays[i]), list(rays[j])]) for i, j in pairs]
    return {"ambient": 2, "cones": cones}


def _interval_sides(cuts):
    """Maximal intervals of the line cut at `cuts`: lists of (normal, bound)."""
    sides = [[((-1,), -cuts[0])], [((1,), cuts[-1])]]
    sides += [[((1,), a), ((-1,), -b)] for a, b in zip(cuts, cuts[1:])]
    return sides


def _grid_faces(xcuts, ycuts):
    faces = []
    for fx in _interval_sides(sorted(xcuts)):
        for fy in _interval_sides(sorted(ycuts)):
            faces.append([((a[0], 0), b) for a, b in fx]
                         + [((0, a[0]), b) for a, b in fy])
    return faces


def _grid_face_count(nx: int, ny: int) -> int:
    return (2 * nx + 1) * (2 * ny + 1)


def _closure_count(face) -> int:
    """Faces of a product of axis intervals: (faces of x-side) * (faces of y-side)."""
    xs = sum(1 for n, _ in face if n[0] != 0)
    ys = len(face) - xs
    return (1 + xs) * (1 + ys)


def _star_faces(shift):
    return [[(n, n[0] * shift[0] + n[1] * shift[1]) for n in cone] for cone in P2_CONES]


def _complex_json(fan, faces):
    return {"fan": fan, "faces": [_hjson(fan["ambient"], f) for f in faces]}


def _on_line_trop(w) -> bool:
    values = [val + u[0] * w[0] + u[1] * w[1] for u, val in LINE_TERMS]
    return values.count(min(values)) >= 2


class SkeletonCli:
    """A fresh `python -m adictrop.cli` process per request, cold by design.

    Inputs are JSON files written at set-up: grid complexes on the quadrant
    fan with the torus embedding (criterion 6), refinements of the P^2 star
    complex with the tropical line embedding, non-covering complexes whose
    correct answer is exit code 2 with NotACover and a witness, and the
    commands on `demos/data`.  The same pass repeats; each process starts
    with empty caches, so repetition cannot hit a cache.
    """

    name = "skeleton_cli"
    round_size = None  # a round is the whole list
    tail_percentile = 70.0
    trace_requests = 12
    in_process = False

    def generate(self, seed: int, workdir: Path) -> list[dict]:
        rng = random.Random(f"{self.name}:{seed}")
        workdir.mkdir(parents=True, exist_ok=True)
        w = workdir.relative_to(ROOT)

        def write(name, obj):
            (workdir / name).write_text(json.dumps(obj, sort_keys=True, indent=1))
            return f"{w}/{name}"

        quad = _fan_json(QUADRANT_RAYS, [(0, 1), (1, 2), (2, 3), (3, 0)])
        p2 = _fan_json(P2_RAYS, [(0, 1), (1, 2), (0, 2)])
        rank1 = {"ambient": 1, "cones": [[], [[-1]], [[1]]]}
        torus1 = write("torus_rank1.json", {"fan": rank1, "generators": []})
        torus2 = write("torus_quadrant.json", {"fan": quad, "generators": []})
        line = write("line_p2.json", {"fan": p2, "generators": ["x + y + 1"]})
        skeleton = "skeleton --embedding {} --complex {}".format
        cuts = list(range(-3, 4))
        requests = []

        def add(kind, argv, **expect):
            requests.append({"class": kind, "argv": argv.split(), "expect": expect})

        def line_requests(tag, ncuts):
            """Rank-1 torus requests on line complexes cut at ncuts and ncuts + 1 points."""
            coarse = sorted(rng.sample(cuts, ncuts))
            fine = sorted(set(coarse) | {rng.choice([c for c in cuts if c not in coarse])})
            faces_c, faces_f = _interval_sides(coarse), _interval_sides(fine)
            c = write(f"line_{tag}_coarse.json", _complex_json(rank1, faces_c))
            f = write(f"line_{tag}_fine.json", _complex_json(rank1, faces_f))
            drop = rng.randrange(len(faces_f))
            partial = [face for i, face in enumerate(faces_f) if i != drop]
            p = write(f"line_{tag}_partial.json", _complex_json(rank1, partial))
            piece = rng.choice(faces_c)
            pieces = write(f"line_{tag}_piece.json", [_hjson(1, piece)])
            return [
                lambda: add("skel-line", skeleton(torus1, f) + f" --denominator {ncuts}",
                            faces=2 * len(fine) + 1),
                lambda: add("refine-line", f"refine {c} {f}", faces=2 * len(fine) + 1),
                lambda: add("check-line", f"check {f}"),
                lambda: add("morphism-line",
                            f"morphism --embedding {torus1} --fine {f} --coarse {c}"),
                lambda: add("refuse-line", skeleton(torus1, p), refuse=partial,
                            trop=None),
                lambda: add("adapt-line", f"adapt --embedding {torus1} --complex {c} "
                            f"--pieces {pieces}", faces=_closure_count(piece)),
            ]

        def grid_request(tag, denominator):
            """Torus skeleton on a grid complex of the quadrant fan (criterion 6)."""
            xs, ys = sorted(rng.sample(cuts, 1)), sorted(rng.sample(cuts, 1))
            g = write(f"grid_{tag}.json", _complex_json(quad, _grid_faces(xs, ys)))
            add("skel-grid", skeleton(torus2, g) + f" --denominator {denominator}",
                faces=_grid_face_count(1, 1))

        def refuse_grid():
            faces = _grid_faces(sorted(rng.sample(cuts, 1)), sorted(rng.sample(cuts, 1)))
            faces.pop(rng.randrange(len(faces)))
            add("refuse-grid", skeleton(torus2, write("grid_partial.json",
                                                      _complex_json(quad, faces))),
                refuse=faces, trop=None)

        shift = rng.choice([(1, 2), (2, 1)])  # mirror images: the same cost
        moved = _star_faces(shift)
        # the common refinement of the star and its translate, given as all
        # pairwise intersections of their maximal cones
        star_refined = write("star_refined.json", _complex_json(
            p2, [a + b for a in _star_faces((0, 0)) for b in moved]))
        # the translate missing both cones around one ray of Trop
        ray = P2_RAYS[rng.randrange(3)]
        kept = [f for cone, f in zip(P2_CONES, moved) if not _cone_has_ray(cone, ray)]
        star_partial = write("star_partial.json", _complex_json(p2, kept))

        demo = "demos/data/"
        demo_requests = [
            lambda: add("demo-morphism",
                        f"morphism --embedding {demo}torus_line_embedding.json "
                        f"--fine {demo}line_cut_at_0_and_1.json "
                        f"--coarse {demo}line_cut_at_0.json"),
            lambda: add("demo-refine", f"refine {demo}line_cut_at_0.json "
                        f"{demo}line_cut_at_0_and_1.json", faces=5),
            lambda: add("demo-check", f"check {demo}harmonic_family.json"),
        ]
        # Two halves of about the same cost; cheap rank-1 requests are
        # interleaved with the expensive plane ones.
        for half in ("a", "b"):
            cheap = line_requests(half + "1", 1) + line_requests(half + "2", 2) + demo_requests
            if half == "a":
                heavy = [lambda: grid_request("d1", 1), refuse_grid,
                         lambda: add("demo-skeleton",
                                     skeleton(f"{demo}line_embedding.json",
                                              f"{demo}star_complex.json"),
                                     golden="demos/out/line_skeleton.json", line=True),
                         lambda: add("refuse-star", skeleton(line, star_partial),
                                     refuse=kept, trop="line")]
            else:
                heavy = [lambda: grid_request("d2", 2),
                         lambda: add("skel-star-refined", skeleton(line, star_refined),
                                     line=True)]
            step = len(cheap) // len(heavy)
            for i, make in enumerate(cheap):
                make()
                if i % step == step - 1 and heavy:
                    heavy.pop(0)()
            for make in heavy:
                make()
        return requests

    def warmup_requests(self) -> list[dict]:
        return [{"class": "demo-check",
                 "argv": ["check", "demos/data/line_cut_at_0.json"], "expect": {}}]

    @staticmethod
    def command(argv, trace=None) -> list[str]:
        """The CLI, or with trace = (output prefix, request id) its traced twin."""
        if trace is None:
            return [sys.executable, "-m", "adictrop.cli", *argv]
        prefix, rid = trace
        return [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                prefix, str(rid), *argv]

    @staticmethod
    def environment() -> dict:
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        return env

    def run(self, req: dict, trace=None):
        proc = subprocess.run(self.command(req["argv"], trace), cwd=ROOT,
                              env=self.environment(), capture_output=True,
                              timeout=120)
        return (proc.returncode, proc.stdout, proc.stderr)

    def check(self, req: dict, response) -> str | None:
        code, stdout, stderr = response
        expect = req["expect"]
        refusal = "refuse" in expect
        if code != (2 if refusal else 0):
            return f"exit code {code}: {stderr[-300:]!r}"
        out = json.loads(stdout)
        if refusal:
            return _check_refusal(out, json.loads(stderr), expect)
        if "golden" in expect:
            golden = (ROOT / expect["golden"]).read_bytes()
            if (json.dumps(out["skeleton"], sort_keys=True, indent=2) + "\n").encode() \
                    != golden:
                return f"skeleton differs from {expect['golden']}"
        verb = req["argv"][0]
        if verb == "skeleton":
            return _check_skeleton(out, expect)
        if verb == "check":
            return None if out.get("ok") is True else f"check report not ok: {out}"
        if verb == "refine":
            faces = len(out["refinement"]["faces"])
            if "faces" in expect and faces != expect["faces"]:
                return f"refinement has {faces} faces, expected {expect['faces']}"
            if any(len(m["assignment"]) != faces for m in out["maps"]):
                return "a refinement map does not cover every face"
            return None
        if verb == "morphism":
            return _check_morphism(out)
        if verb == "adapt":
            faces = len(out["subcomplex"]["faces"])
            if out.get("adapted") is not True or faces != expect["faces"]:
                return f"adapted subcomplex has {faces} faces, expected {expect['faces']}"
            return None
        return f"no check for {verb}"


def _cone_has_ray(cone, ray) -> bool:
    return all(n[0] * ray[0] + n[1] * ray[1] >= 0 for n in cone)


def _faces_of(complex_json):
    return [[(tuple(n), F(b)) for n, b in zip(f["normals"], f["bounds"])]
            for f in complex_json["faces"]]


def _check_refusal(out, err, expect) -> str | None:
    if err.get("error", {}).get("kind") != "not-a-cover":
        return f"expected a not-a-cover refusal, got {err}"
    cover = out.get("cover", {})
    witness = cover.get("witness")
    if cover.get("ok") is not False or witness is None:
        return "refusal without a witness"
    if witness["stratum"] != 0:
        return f"witness in stratum {witness['stratum']}, expected the finite part"
    w = tuple(F(x) for x in witness["coords"])
    if any(_satisfies(face, w) for face in expect["refuse"]):
        return f"witness {w} lies in |Delta|"
    if expect["trop"] == "line" and not _on_line_trop(w):
        return f"witness {w} is not on Trop(x + y + 1)"
    return None


def _check_skeleton(out, expect) -> str | None:
    if out["cover"] != {"ok": True, "witness": None}:
        return f"cover decision {out['cover']}"
    skel = out["skeleton"]
    faces = _faces_of(skel["complex"])
    if "faces" in expect and len(faces) != expect["faces"]:
        return f"skeleton complex has {len(faces)} faces, expected {expect['faces']}"
    if {c["face"] for c in skel["charts"]} != set(range(len(faces))):
        return "some face has no chart"
    for chart in skel["charts"]:
        sample = tuple(F(x) for x in chart["sample"])
        if chart["stratum"] == 0 and not _satisfies(faces[chart["face"]], sample):
            return f"chart sample {sample} outside face {chart['face']}"
        if expect.get("line") and chart["stratum"] == 0:
            # the initial form of x + y + 1 keeps the terms attaining the min
            values = {u: val + u[0] * sample[0] + u[1] * sample[1]
                      for u, val in LINE_TERMS}
            low = min(values.values())
            want = sorted(list(u) for u, v in values.items() if v == low)
            got = sorted(t["u"] for t in chart["forms"][0]["terms"])
            if got != want or chart["empty"] != (len(want) == 1):
                return f"initial form at {sample} has support {got}, expected {want}"
        elif not expect.get("line") and chart["forms"]:
            return "torus chart carries initial forms"
    return None


def _check_morphism(out) -> str | None:
    source = out["source"]
    target_faces = _faces_of(out["target"]["complex"])
    if len(out["assignment"]) != len(source["complex"]["faces"]):
        return "assignment does not cover every source face"
    for chart in source["charts"]:
        if chart["stratum"] != 0:
            continue
        sample = tuple(F(x) for x in chart["sample"])
        image = out["assignment"][chart["face"]]
        if not _satisfies(target_faces[image], sample):
            return f"source face {chart['face']} not inside target face {image}"
    if not out["arrows"]:
        return "morphism without arrows"
    return None


WORKLOADS = {w.name: w for w in (TiltedLattice(), TropCorners(), SkeletonCli())}
