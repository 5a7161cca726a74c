"""Spans around refnet's public functions, recorded from outside the package.

:class:`Tracer` replaces every binding of a wrapped function in the refnet
modules (a module that did ``from refnet.x import f`` holds its own binding)
for the duration of a ``with`` block and restores them afterwards.  Spans
(name, layer, start, end, parent) stay in memory; :func:`layer_metrics`
folds them into the per-layer metrics after the pass.

The heuristic runs as refnet wrote it: ``sga_repeat`` and ``sga`` reach
their steps (forests, switch set, independent set, certificate) through
module bindings, which the tracer wraps.  The one private step, the negative
structure of the switched graph, is what remains of ``sga``'s self time.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from functools import wraps

import refnet
from refnet import cli, exact, flow, matrix_io, scaling, signed_graph

# The package re-exports the function sga(), which hides the submodule attribute.
sga = importlib.import_module("refnet.sga")

LAYERS = ("cli", "matrix_io", "scaling", "signed_graph", "sga", "exact", "flow")


class Tracer:
    """In-memory span recorder; use as a context manager to install the wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, layer: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (a subprocess, for instance)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, start, end, parent])

    def inside(self, layer: str) -> bool:
        """True while the innermost open span belongs to ``layer``."""
        return bool(self._stack) and self.spans[self._stack[-1]][1] == layer

    def call(self, name: str, layer: str, fn, args, kwargs, observe=None):
        idx = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][3] = time.perf_counter()
        if observe is not None:
            # Bookkeeping gets its own span so it leaves the layers' self time.
            start = time.perf_counter()
            observe(args, result)
            self.span("trace.observe", "trace", start, time.perf_counter())
        return result

    def _wrap(self, fn, name: str, layer: str, observe=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, args, kwargs, observe)
        return traced

    def _replace_everywhere(self, original, replacement) -> None:
        for module in [refnet, *[m for k, m in sys.modules.items() if k.startswith("refnet.")]]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacement)

    def __enter__(self) -> "Tracer":
        count = self.counts
        plain = {
            "matrix_io.parse_mps": matrix_io.parse_mps,
            "matrix_io.parse_coord": matrix_io.parse_coord,
            "scaling.scale": scaling.scale,
            "signed_graph.build_signed_graph": signed_graph.build_signed_graph,
            "signed_graph.extract_network": signed_graph.extract_network,
            "signed_graph.induced_subgraph": signed_graph.induced_subgraph,
            "signed_graph.is_balanced": signed_graph.is_balanced,
            "sga.sga": sga.sga,
            "sga.permute_graph": sga.permute_graph,
            "sga.forest_rs": sga.forest_rs,
            "sga.forest_bfs": sga.forest_bfs,
            "sga.forest_dfs": sga.forest_dfs,
            "sga.switch_set_from_forest": sga.switch_set_from_forest,
            "sga.greedy_independent_set": sga.greedy_independent_set,
            "exact.mbd_exact": exact.mbd_exact,
            "exact.subdivide_positive": exact.subdivide_positive,
            "exact.odd_cycle_transversal": exact.odd_cycle_transversal,
        }

        def parsed(args, result):
            count["matrix_io.bytes"] += len(args[0])
            count["matrix_io.nnz"] += len(result.entries)

        def scaled(args, result):
            count["scaling.unit_rows_in"] += sum(matrix_io.classify_rows(args[0]))
            count["scaling.unit_rows_out"] += sum(matrix_io.classify_rows(result))

        def built(args, result):
            if self.inside("signed_graph"):
                return  # extract_network rebuilds the graph it was given rows of
            count["signed_graph.n"] += result.n
            count["signed_graph.edges"] += result.n_edges
            count["signed_graph.components"] += components(result)

        def forest(args, result):
            count["sga.forest_roots"] += len(result.roots)

        def independent(args, result):
            count["sga.negative_n"] += len(args[0])  # the negative subgraph's adjacency

        def solved(args, result):
            count["exact.splits"] += result.nodes_explored

        def subdivided(args, result):
            count["exact.subdivided_n"] += result.n

        observers = {
            "matrix_io.parse_mps": parsed,
            "matrix_io.parse_coord": parsed,
            "scaling.scale": scaled,
            "signed_graph.build_signed_graph": built,
            "sga.forest_rs": forest,
            "sga.forest_bfs": forest,
            "sga.forest_dfs": forest,
            "sga.greedy_independent_set": independent,
            "exact.mbd_exact": solved,
            "exact.subdivide_positive": subdivided,
        }
        for name, fn in plain.items():
            self._replace_everywhere(fn, self._wrap(fn, name, name.split(".")[0], observers.get(name)))

        tracer = self
        sga_repeat = sga.sga_repeat

        def repeat(graph, repeats, strategy="DFS", seed=1):
            count["sga.passes"] += repeats
            return tracer.call(f"sga.sga_repeat.{strategy.upper()}", "sga", sga_repeat,
                               (graph, repeats, strategy, seed), {})

        self._replace_everywhere(sga_repeat, repeat)
        self._replace_everywhere(cli.main, self._wrap(cli.main, "cli.main", "cli"))

        solver = flow.SeparatorSolver
        init, solve = solver.__init__, solver.solve

        def traced_init(obj, *args, **kwargs):
            count["flow.solvers_built"] += 1
            return tracer.call("flow.init", "flow", init, (obj, *args), kwargs)

        def traced_solve(obj, *args, **kwargs):
            count[f"flow.calls.{obj.backend}"] += 1
            result = tracer.call(f"flow.solve.{obj.backend}", "flow", solve, (obj, *args), kwargs)
            count["flow.separators_found"] += result is not None
            return result

        self._restore += [(solver, "__init__", init), (solver, "solve", solve)]
        solver.__init__, solver.solve = traced_init, traced_solve
        return self

    def __exit__(self, *exc) -> None:
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()


def components(graph) -> int:
    """Connected components of a refnet SignedGraph, by the benchmark's own search."""
    seen = [False] * graph.n
    parts = 0
    for root in range(graph.n):
        if seen[root]:
            continue
        parts += 1
        seen[root] = True
        stack = [root]
        while stack:
            for u in graph.neighbors[stack.pop()]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
    return parts


def _sum(spans, predicate) -> float:
    return sum(end - start for name, _, start, end, _ in spans if predicate(name))


def _self_time(spans, child_time, name: str) -> float:
    return sum(end - start - child_time[i] for i, (n, _, start, end, _) in enumerate(spans) if n == name)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times and counters of everything recorded by ``tracer``."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            (end - start) - child_time[i]
            for i, (_, lay, start, end, _) in enumerate(spans)
            if lay == layer
        )
    # sga() spends its own time on the negative structure of the switched graph.
    out["sga.negative_s"] = _self_time(spans, child_time, "sga.sga")
    span_sums = {
        "matrix_io.parse_s": ("matrix_io.parse_mps", "matrix_io.parse_coord"),
        "scaling.scale_s": ("scaling.scale",),
        "signed_graph.build_s": ("signed_graph.build_signed_graph",),
        "signed_graph.extract_s": ("signed_graph.extract_network",),
        "signed_graph.certify_s": ("signed_graph.induced_subgraph", "signed_graph.is_balanced"),
        "sga.forest_s.RS": ("sga.forest_rs",),
        "sga.forest_s.BFS": ("sga.forest_bfs",),
        "sga.forest_s.DFS": ("sga.forest_dfs",),
        "sga.switch_s": ("sga.switch_set_from_forest",),
        "sga.independent_set_s": ("sga.greedy_independent_set",),
        "sga.permute_s": ("sga.permute_graph",),
        "sga.repeat_s.RS": ("sga.sga_repeat.RS",),
        "sga.repeat_s.BFS": ("sga.sga_repeat.BFS",),
        "sga.repeat_s.DFS": ("sga.sga_repeat.DFS",),
        "exact.solve_s": ("exact.mbd_exact",),
        "exact.subdivide_s": ("exact.subdivide_positive",),
        "exact.oct_s": ("exact.odd_cycle_transversal",),
        "flow.init_s": ("flow.init",),
        "flow.solve_s.python": ("flow.solve.python",),
        "flow.solve_s.scipy": ("flow.solve.scipy",),
    }
    for metric, names in span_sums.items():
        out[metric] = _sum(spans, lambda n, names=names: n in names)
    out["exact.oct_calls"] = sum(1 for s in spans if s[0] == "exact.odd_cycle_transversal")
    out["trace.spans"] = len(spans)
    counts = tracer.counts
    for key in ("matrix_io.bytes", "matrix_io.nnz", "scaling.unit_rows_in", "scaling.unit_rows_out",
                "signed_graph.n", "signed_graph.edges", "signed_graph.components", "sga.forest_roots", "sga.negative_n",
                "sga.passes", "exact.subdivided_n", "exact.splits", "flow.solvers_built",
                "flow.calls.python", "flow.calls.scipy"):
        out[key] = counts.get(key, 0)
    calls = out["flow.calls.python"] + out["flow.calls.scipy"]
    out["flow.separator_found_ratio"] = counts.get("flow.separators_found", 0) / calls if calls else 0.0
    return out
