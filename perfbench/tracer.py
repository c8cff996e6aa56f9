"""Span tracing around adictrop's layers, installed from outside the library.

`Tracer.install()` replaces every public function of each layer module, and
every public method and classmethod of the classes defined there, with a
wrapper that records one span: name, start, end, parent span, request id
and, for a few functions, an outcome value such as the number of cells
returned.  Each module binding that imported the name (for example
`gubler.hypersurface_trop` and `cli.hypersurface_trop`) is patched too, so
no call path escapes.  `uninstall()` puts every original back.

The spans stay in memory; `summary()` derives every aggregate (self time per
layer, call counts, outermost-call times, outcome totals) from them in one
pass, and `write_spans` writes them out.  Self time of a span is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from array import array
from time import perf_counter_ns

LAYERS = ("lp", "linalg", "polyhedra", "toric", "regions", "complexes",
          "degeneration", "gubler", "parsing", "jsonio", "cli")

# Outcome value recorded per call: summed per span name.
_OUTCOMES = {
    "lp.minimize": lambda r: r.status == "infeasible",
    "lp.maximize": lambda r: r.status == "infeasible",
    "lp.feasible_point": lambda r: r is None,
    "regions.Cell.feasible_point": lambda r: r is not None,
    "degeneration.hypersurface_trop": len,
    "gubler.build_skeleton": lambda r: len(r.charts),
    "jsonio.canonical_json": lambda r: len(r.encode()),
}
_CANON = "polyhedra.Polyhedron.from_halfspaces"
_TROP = "degeneration.hypersurface_trop"


class Tracer:
    """Process-local span recorder; one per traced run or traced CLI child."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_req = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_outcome = array("q")
        self.request_id = -1
        self._open: list[int] = []  # ids of the open spans, innermost last
        self._patches: list[tuple[object, str, object]] = []
        self._request_fn = None
        self._stratum_cache = None
        self._cache_start = (0, 0)

    # -- recording -------------------------------------------------------------

    def wrap(self, name: str, fn):
        self.names.append(name)
        nid = len(self.names) - 1
        outcome = _OUTCOMES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            open_spans = tracer._open
            sid = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(open_spans[-1] if open_spans else -1)
            tracer.span_req.append(tracer.request_id)
            tracer.span_end.append(0)
            tracer.span_outcome.append(0)
            open_spans.append(sid)
            tracer.span_start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[sid] = perf_counter_ns()
                open_spans.pop()
            if outcome is not None:
                tracer.span_outcome[sid] = int(outcome(result))
            return result

        functools.update_wrapper(traced, fn)
        return traced

    def request(self, rid: int, fn, *args):
        """Run fn(*args) as request `rid` inside a `bench.request` span."""
        self.request_id = rid
        try:
            return self._request_fn(fn, *args)
        finally:
            self.request_id = -1

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        import adictrop
        modules = {layer: importlib.import_module(f"adictrop.{layer}")
                   for layer in LAYERS}
        bindings = list(modules.values()) + [adictrop]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    wrapped = self.wrap(f"{layer}.{attr}", obj)
                    for target in bindings:
                        for name, value in list(vars(target).items()):
                            if value is obj:
                                self._patch(target, name, wrapped)
        self._request_fn = self.wrap("bench.request", lambda fn, *a: fn(*a))
        self._stratum_cache = modules["toric"].stratum_lattice.__wrapped__
        info = self._stratum_cache.cache_info()
        self._cache_start = (info.hits, info.misses)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self.wrap(name, raw))

    def _patch(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def summary(self, startup_s: float | None = None) -> dict:
        """Aggregates as plain JSON-ready values, mergeable across processes.

        Span ids are assigned when a span opens, so a walk in id order with a
        stack of the open ancestors sees every span after its parent.
        """
        names = self.names
        layer_of = [n.split(".", 1)[0] for n in names]
        dur = [end - start for start, end in zip(self.span_start, self.span_end)]
        child_ns = [0] * len(dur)
        for sid, parent in enumerate(self.span_parent):
            if parent >= 0:
                child_ns[parent] += dur[sid]
        ids = {name: nid for nid, name in enumerate(names)}
        canon, trop = ids.get(_CANON), ids.get(_TROP)
        name_depth = [0] * len(names)
        layer_depth = dict.fromkeys(layer_of, 0)
        ancestors: list[int] = []
        layer_self_ns, calls, outer_ns, layer_outer_ns, outcome = {}, {}, {}, {}, {}
        lp_outer_ns, lp_outer_infeasible, lp_in_canon, canon_in_trop = [], 0, 0, 0
        for sid, parent in enumerate(self.span_parent):
            while ancestors and ancestors[-1] != parent:
                closed = self.span_name[ancestors.pop()]
                name_depth[closed] -= 1
                layer_depth[layer_of[closed]] -= 1
            nid = self.span_name[sid]
            name, layer, d = names[nid], layer_of[nid], dur[sid]
            calls[name] = calls.get(name, 0) + 1
            layer_self_ns[layer] = layer_self_ns.get(layer, 0) + d - child_ns[sid]
            if name_depth[nid] == 0:
                outer_ns[name] = outer_ns.get(name, 0) + d
            if name in _OUTCOMES:
                outcome[name] = outcome.get(name, 0) + self.span_outcome[sid]
            if layer_depth[layer] == 0:
                layer_outer_ns[name] = layer_outer_ns.get(name, 0) + d
                if layer == "lp":
                    lp_outer_ns.append(d)
                    lp_outer_infeasible += self.span_outcome[sid]
                    if canon is not None and name_depth[canon]:
                        lp_in_canon += 1
            if nid == canon and trop is not None and name_depth[trop]:
                canon_in_trop += 1
            ancestors.append(sid)
            name_depth[nid] += 1
            layer_depth[layer] += 1
        info = self._stratum_cache.cache_info()
        return {
            "layer_self_ns": layer_self_ns,
            "calls": calls,
            "outer_ns": outer_ns,
            "layer_outer_ns": layer_outer_ns,
            "outcome": outcome,
            "lp_outer_ns": lp_outer_ns,
            "lp_outer_infeasible": lp_outer_infeasible,
            "lp_in_canon": lp_in_canon,
            "canon_in_trop": canon_in_trop,
            "stratum_hits": info.hits - self._cache_start[0],
            "stratum_misses": info.misses - self._cache_start[1],
            "startup_s": [] if startup_s is None else [startup_s],
            "spans": len(dur),
        }

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id name start_ns end_ns parent request."""
        with open(path, "w") as out:
            out.write("id\tname\tstart_ns\tend_ns\tparent\trequest\n")
            for sid in range(len(self.span_start)):
                out.write(f"{sid}\t{self.names[self.span_name[sid]]}\t"
                          f"{self.span_start[sid]}\t{self.span_end[sid]}\t"
                          f"{self.span_parent[sid]}\t{self.span_req[sid]}\n")


def merge(summaries: list[dict]) -> dict:
    """Sum the aggregates of several tracers (one per CLI child)."""
    mapped = ("layer_self_ns", "calls", "outer_ns", "layer_outer_ns", "outcome")
    out = {key: {} for key in mapped}
    out.update(lp_outer_ns=[], startup_s=[])
    for s in summaries:
        for key in mapped:
            for k, v in s[key].items():
                out[key][k] = out[key].get(k, 0) + v
        out["lp_outer_ns"] += s["lp_outer_ns"]
        out["startup_s"] += s["startup_s"]
        for key in ("lp_outer_infeasible", "lp_in_canon", "canon_in_trop",
                    "stratum_hits", "stratum_misses", "spans"):
            out[key] = out.get(key, 0) + s[key]
    return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(a, b) -> float:
    return a / b if b else 0.0


PER_LAYER_UNITS = {
    "lp.solves": "count", "lp.self_s": "s", "lp.solve_us_p50": "us",
    "lp.infeasible_ratio": "ratio",
    "polyhedra.canonicalizations": "count", "polyhedra.lp_per_canon": "ratio",
    "polyhedra.vrep_calls": "count", "polyhedra.self_s": "s",
    "linalg.self_s": "s",
    "toric.hilbert_basis_calls": "count", "toric.hilbert_basis_s": "s",
    "toric.self_s": "s", "toric.stratum_lattice_hit_ratio": "ratio",
    "degeneration.trop_calls": "count", "degeneration.trop_canon_per_cell": "ratio",
    "degeneration.tilted_s": "s", "degeneration.self_s": "s",
    "regions.cells_attempted": "count", "regions.cells_kept_ratio": "ratio",
    "regions.self_s": "s",
    "complexes.refine_calls": "count", "complexes.refine_s": "s",
    "complexes.self_s": "s",
    "gubler.cover_checks": "count", "gubler.charts": "count",
    "gubler.skeleton_s": "s", "gubler.morphism_s": "s", "gubler.self_s": "s",
    "jsonio.encode_s": "s", "jsonio.decode_s": "s", "jsonio.bytes_out": "bytes",
    "parsing.self_s": "s", "cli.startup_s": "s",
}


def layer_metrics(s: dict) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from merged aggregates."""
    calls, outer, outcome = s["calls"], s["outer_ns"], s["outcome"]

    def self_s(layer):
        return s["layer_self_ns"].get(layer, 0) / 1e9

    def outer_s(*names):
        return sum(outer.get(n, 0) for n in names) / 1e9

    def jsonio_outer_s(keep):
        # outermost jsonio spans only: encoders nest (skeleton -> complex -> ...)
        return sum(v for k, v in s["layer_outer_ns"].items()
                   if k.startswith("jsonio.") and keep(k.rsplit(".", 1)[1])) / 1e9

    solves = len(s["lp_outer_ns"])
    canon = calls.get("polyhedra.Polyhedron.from_halfspaces", 0)
    attempted = calls.get("regions.Cell.feasible_point", 0)
    cache_total = s["stratum_hits"] + s["stratum_misses"]
    return {
        "lp.solves": solves,
        "lp.self_s": self_s("lp"),
        "lp.solve_us_p50": _median(s["lp_outer_ns"]) / 1e3,
        "lp.infeasible_ratio": _ratio(s["lp_outer_infeasible"], solves),
        "polyhedra.canonicalizations": canon,
        "polyhedra.lp_per_canon": _ratio(s["lp_in_canon"], canon),
        "polyhedra.vrep_calls": calls.get("polyhedra.Polyhedron.vrep", 0),
        "polyhedra.self_s": self_s("polyhedra"),
        "linalg.self_s": self_s("linalg"),
        "toric.hilbert_basis_calls": calls.get("toric.hilbert_basis", 0),
        "toric.hilbert_basis_s": outer_s("toric.hilbert_basis"),
        "toric.self_s": self_s("toric"),
        "toric.stratum_lattice_hit_ratio": _ratio(s["stratum_hits"], cache_total),
        "degeneration.trop_calls": calls.get("degeneration.hypersurface_trop", 0),
        "degeneration.trop_canon_per_cell": _ratio(
            s["canon_in_trop"], outcome.get("degeneration.hypersurface_trop", 0)),
        "degeneration.tilted_s": outer_s("degeneration.tilted_algebra"),
        "degeneration.self_s": self_s("degeneration"),
        "regions.cells_attempted": attempted,
        "regions.cells_kept_ratio": _ratio(
            outcome.get("regions.Cell.feasible_point", 0), attempted),
        "regions.self_s": self_s("regions"),
        "complexes.refine_calls": calls.get("complexes.common_refinement", 0),
        "complexes.refine_s": outer_s("complexes.common_refinement"),
        "complexes.self_s": self_s("complexes"),
        "gubler.cover_checks": calls.get("gubler.covers", 0),
        "gubler.charts": outcome.get("gubler.build_skeleton", 0),
        "gubler.skeleton_s": outer_s("gubler.build_skeleton"),
        "gubler.morphism_s": outer_s("gubler.skeleton_morphism"),
        "gubler.self_s": self_s("gubler"),
        "jsonio.encode_s": jsonio_outer_s(
            lambda f: f.endswith("_to_json") or f.endswith("_dot")
            or f in ("canonical_json", "format_fraction")),
        "jsonio.decode_s": jsonio_outer_s(
            lambda f: f.endswith("_from_json") or f in ("loads", "parse_fraction")),
        "jsonio.bytes_out": outcome.get("jsonio.canonical_json", 0),
        "parsing.self_s": self_s("parsing"),
        "cli.startup_s": _median(s["startup_s"]),
    }
