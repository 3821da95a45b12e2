"""Span tracing of xratio's layers, from outside the package.

`Tracer.install()` replaces each public layer function by a wrapper at
every place a loaded `xratio` module holds a reference to it (so
`xratio.engine.core.canonical_key` is wrapped as well as
`xratio.engine.canon.canonical_key`), and `Engine.degree` on the class.
Each wrapped call records a span: name, start, end and parent span.
Spans stay in memory until `write_spans`; `layer_metrics` derives the
per-layer counts and times, self time being a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

# (layer, defining module, function names): the public functions whose
# spans make up each layer.  Internal helpers stay unwrapped.
LAYER_FUNCTIONS = (
    ("canon", "xratio.engine.canon", ("canonical_key", "canonical_relabeling")),
    ("surplus", "xratio.engine.surplus", ("find_violation",)),
    ("polygon", "xratio.polygon", (
        "enumerate_triangulations", "triangulation_to_problem",
        "closed_formula_degree", "internal_triangle_count", "triangles_of",
        "random_triangulation", "inscribed_polygon_triangulation",
    )),
    ("oracle", "xratio.oracle", ("numeric_degree", "build_system",
                                 "solve_total_degree")),
    ("search", "xratio.search", ("heuristic_cn",)),
    ("search", "xratio.engine.core", ("normalize",)),
)
ENGINE_COUNTERS = ("nodes", "cache_hits", "cache_misses")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {}
        self.missing: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def _add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, name: str, fn, on_result=None):
        nid = self._nid(name)
        if inspect.isgeneratorfunction(fn):
            # one span per produced item, so enumeration time is counted
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(i)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if on_result is not None:
                on_result(out)
            return out
        return wrapper

    # -- result hooks ----------------------------------------------------
    def _on_paths(self, results) -> None:
        self._add("oracle.paths", len(results))
        for r in results:
            status = getattr(r, "status", None)
            steps = getattr(r, "steps", None)
            if status is None or steps is None:
                self.missing.add("oracle.steps")
                continue
            self._add("oracle.steps", steps)
            self._add("oracle.paths_diverged", status == "diverged")
            self._add("oracle.paths_converged", status == "converged")

    def _on_search(self, result) -> None:
        evals = getattr(result, "evaluations", None)
        if evals is None:
            self.missing.add("search.evals")
        else:
            self._add("search.evals", evals)

    def _engine_degree(self, orig):
        nid = self._nid("core.degree")

        @functools.wraps(orig)
        def degree(engine, inst):
            before = [getattr(engine, c, None) for c in ENGINE_COUNTERS]
            i = self._open(nid)
            try:
                out = orig(engine, inst)
            finally:
                self._close(i)
            for c, b in zip(ENGINE_COUNTERS, before):
                a = getattr(engine, c, None)
                if a is None or b is None:
                    self.missing.add("core." + c)
                else:
                    self._add("core." + c, a - b)
            return out
        return degree

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "xratio" or name.startswith("xratio."))]
        hooks = {"solve_total_degree": self._on_paths,
                 "heuristic_cn": self._on_search}
        for layer, modname, fnames in LAYER_FUNCTIONS:
            home = sys.modules[modname]
            for fname in fnames:
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig, hooks.get(fname))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)
        engine_cls = sys.modules["xratio.engine.core"].Engine
        orig = engine_cls.__dict__["degree"]
        self._patches.append((engine_cls, "degree", orig))
        engine_cls.degree = self._engine_degree(orig)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results ---------------------------------------------------------
    def write_spans(self, path) -> None:
        """CSV of every span, times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")

    def layer_metrics(self) -> dict[str, tuple[float | None, str]]:
        """Per-layer metrics as name -> (value, unit); value None if missing."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        calls: dict[str, int] = {}
        total: dict[str, float] = {}   # inclusive time of each name
        self_t: dict[str, float] = {}  # time minus direct children
        outer_calls: dict[str, int] = {}  # spans not inside their own layer
        outer_s: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur[i]
            self_t[name] = self_t.get(name, 0.0) + dur[i] - child[i]
            layer = layer_of[self.name_id[i]]
            p = self.parent[i]
            if p < 0 or layer_of[self.name_id[p]] != layer:
                outer_calls[layer] = outer_calls.get(layer, 0) + 1
                outer_s[layer] = outer_s.get(layer, 0.0) + dur[i]

        def count(key):
            return None if key in self.missing else self.counts.get(key, 0)

        def ratio(a, b):
            return None if a is None or b is None else (a / b if b else 0.0)

        hits, misses = count("core.cache_hits"), count("core.cache_misses")
        paths, track_s = count("oracle.paths"), total.get("oracle.solve_total_degree", 0.0)
        conv = None if "oracle.steps" in self.missing else self.counts.get("oracle.paths_converged", 0)
        diverged = None if "oracle.steps" in self.missing else self.counts.get("oracle.paths_diverged", 0)
        return {
            "canon.calls": (calls.get("canon.canonical_key", 0)
                            + calls.get("canon.canonical_relabeling", 0), "count"),
            "canon.s": (outer_s.get("canon", 0.0), "s"),
            "surplus.calls": (calls.get("surplus.find_violation", 0), "count"),
            "surplus.s": (total.get("surplus.find_violation", 0.0), "s"),
            "core.degree_calls": (calls.get("core.degree", 0), "count"),
            "core.self_s": (self_t.get("core.degree", 0.0), "s"),
            "core.nodes": (count("core.nodes"), "count"),
            "core.cache_hits": (hits, "count"),
            "core.cache_misses": (misses, "count"),
            "core.hit_ratio": (ratio(hits, None if hits is None or misses is None
                                     else hits + misses), "ratio"),
            "polygon.calls": (outer_calls.get("polygon", 0), "count"),
            "polygon.s": (outer_s.get("polygon", 0.0), "s"),
            "oracle.build_s": (total.get("oracle.build_system", 0.0), "s"),
            "oracle.track_s": (track_s, "s"),
            "oracle.filter_s": (self_t.get("oracle.numeric_degree", 0.0), "s"),
            "oracle.paths": (paths, "count"),
            "oracle.paths_diverged": (diverged, "count"),
            "oracle.steps": (count("oracle.steps"), "count"),
            "oracle.ms_per_path": (ratio(None if paths is None else 1000.0 * track_s, paths), "ms"),
            "oracle.converged_ratio": (ratio(conv, paths), "ratio"),
            "search.evals": (count("search.evals"), "count"),
            "search.normalize_calls": (calls.get("search.normalize", 0), "count"),
            "search.normalize_s": (total.get("search.normalize", 0.0), "s"),
            "search.self_s": (self_t.get("search.heuristic_cn", 0.0), "s"),
        }
