"""The heuristic's per-pass check and its single final certificate.

Each pass checks its retained set against the forest's own switch set and
reads the reflection off that scan; ``sga_repeat`` certifies only the result
it reports.  These tests hold both against a reference that certifies every
pass with ``induced_subgraph`` + ``is_balanced`` and permutes by sorting
``(id, mask)`` tuples, and check that a bad independent set is refused,
also under ``python -O``.  A pass given a vertex ``order`` walks the graph
itself; the reference runs on the copy relabelled by that order.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import (
    random_signed_graph,
    reference_pass,
    reference_permute_graph,
    reference_sga_repeat,
    reference_sga_vc,
)
from refnet.sga import (
    HeuristicResult,
    forest_bfs,
    forest_dfs,
    forest_rs,
    greedy_independent_set,
    permute_graph,
    sga,
    sga_repeat,
    sga_vc,
)
from refnet.signed_graph import SignedGraph, induced_subgraph, is_balanced

sga_module = importlib.import_module("refnet.sga")

SRC = Path(__file__).resolve().parent.parent / "src"


def fragmented_signed_graph(rng: random.Random) -> SignedGraph:
    """Many small components, isolated vertices and +/- pairs, labels shuffled."""
    edges = []
    n = 0
    for _ in range(rng.randint(1, 10)):
        size = rng.randint(1, 6)
        p_edge = rng.choice((0.3, 0.6, 1.0))
        for a in range(n, n + size):
            for b in range(a + 1, n + size):
                if rng.random() < p_edge:
                    sign = rng.choice((1, -1))
                    edges.append((a, b, sign))
                    if rng.random() < 0.2:
                        edges.append((a, b, -sign))
        n += size
    n += rng.randint(0, 3)  # isolated vertices
    labels = list(range(n))
    rng.shuffle(labels)
    return SignedGraph.from_edges(n, [(labels[a], labels[b], s) for a, b, s in edges])


def equivalence_graphs() -> list[SignedGraph]:
    rng = random.Random(7001)
    graphs = [fragmented_signed_graph(rng) for _ in range(240)]
    graphs += [random_signed_graph(rng, n_max=20, p_edge=0.2, p_parallel=0.2) for _ in range(80)]
    return graphs


GRAPHS = equivalence_graphs()


def outcome(result) -> tuple:
    return result.retained, result.reflection, result.k


def test_equivalence_corpus_has_the_required_shapes():
    assert len(GRAPHS) >= 300
    assert any(3 in masks for g in GRAPHS for masks in g.masks)  # a +/- pair
    assert any(not nb for g in GRAPHS for nb in g.neighbors)  # an isolated vertex
    assert sum(1 for g in GRAPHS if sum(1 for nb in g.neighbors if not nb) >= 3) > 50


@pytest.mark.parametrize("strategy", ["RS", "BFS", "DFS"])
@pytest.mark.parametrize("repeats", [1, 2, 7])
def test_sga_repeat_matches_reference(strategy, repeats):
    for seed, graph in enumerate(GRAPHS):
        expected = reference_sga_repeat(graph, repeats, strategy, seed)
        assert outcome(sga_repeat(graph, repeats, strategy, seed)) == outcome(expected)


@pytest.mark.parametrize("strategy", ["RS", "BFS", "DFS"])
def test_early_stop_matches_every_pass(strategy, monkeypatch):
    # The reference runs all 80 passes; sga_repeat stops once its best k
    # meets the disjoint-cycle bound, and must report the same result.
    calls = 0
    plain = sga_module.sga

    def counting(*args):
        nonlocal calls
        calls += 1
        return plain(*args)

    monkeypatch.setattr(sga_module, "sga", counting)
    graphs = GRAPHS[::3]
    stopped = 0
    for seed, graph in enumerate(graphs):
        expected = reference_sga_repeat(graph, 80, strategy, seed)
        calls = 0
        result = sga_repeat(graph, 80, strategy, seed)
        assert outcome(result) == outcome(expected)
        assert result.repeats == 80
        stopped += calls < 80
    assert stopped > len(graphs) // 2


def test_best_k_below_the_bound_raises(monkeypatch):
    # A bound above what a certified pass achieves contradicts the bound.
    triangle = SignedGraph.from_edges(3, [(0, 1, -1), (1, 2, -1), (0, 2, -1)])
    monkeypatch.setattr(sga_module, "disjoint_unbalanced_cycles", lambda graph: ((),) * 2)
    with pytest.raises(RuntimeError, match="disjoint unbalanced cycles"):
        sga_repeat(triangle, 80, "DFS", 1)


@pytest.mark.parametrize("strategy", ["RS", "BFS", "DFS"])
def test_sga_vc_matches_reference(strategy):
    for seed, graph in enumerate(GRAPHS):
        expected = reference_sga_vc(graph, strategy, random.Random(seed))
        assert outcome(sga_vc(graph, strategy, random.Random(seed))) == outcome(expected)


def test_permute_graph_matches_tuple_sort():
    rng = random.Random(7002)
    for graph in GRAPHS:
        order = list(range(graph.n))
        rng.shuffle(order)
        # Dataclass equality compares tags, neighbors and masks.
        assert permute_graph(graph, order) == reference_permute_graph(graph, order)


ORDERED = [
    (graph, random.Random(7004 + i).sample(range(graph.n), graph.n))
    for i, graph in enumerate([SignedGraph(0, (), (), ()), SignedGraph.from_edges(1, []), *GRAPHS])
]


def forest_in_original_ids(forest, order):
    """A forest of the copy relabelled by ``order``, in the original ids."""
    parent = [-1] * forest.n
    parent_sign = [0] * forest.n
    for j, p in enumerate(forest.parent):
        if p != -1:
            parent[order[j]] = order[p]
            parent_sign[order[j]] = forest.parent_sign[j]
    return tuple(parent), tuple(parent_sign), tuple(order[r] for r in forest.roots)


@pytest.mark.parametrize("strategy", ["RS", "BFS", "DFS"])
def test_ranked_forest_matches_relabelled_copy(strategy):
    build = {
        "RS": lambda g, seed, **kw: forest_rs(g, random.Random(seed), **kw),
        "BFS": lambda g, seed, **kw: forest_bfs(g, **kw),
        "DFS": lambda g, seed, **kw: forest_dfs(g, **kw),
    }[strategy]
    for seed, (graph, order) in enumerate(ORDERED):
        expected = forest_in_original_ids(build(reference_permute_graph(graph, order), seed), order)
        forest = build(graph, seed, order=order)
        assert (forest.parent, forest.parent_sign, forest.roots) == expected


@pytest.mark.parametrize("strategy", ["RS", "BFS", "DFS"])
def test_ranked_pass_matches_relabelled_copy(strategy):
    for seed, (graph, order) in enumerate(ORDERED):
        copy = reference_permute_graph(graph, order)
        expected = reference_pass(copy, strategy, random.Random(seed), greedy_independent_set)
        result = sga(graph, strategy, random.Random(seed), order=order)
        assert outcome(result) == (
            tuple(sorted(order[v] for v in expected.retained)),
            frozenset(order[v] for v in expected.reflection),
            expected.k,
        )


def keep_everything(adjacency):
    return set(range(len(adjacency)))


class TestPerPassCheck:
    @pytest.mark.parametrize("strategy", ["RS", "BFS", "DFS"])
    def test_every_negative_vertex_kept_raises(self, strategy, monkeypatch):
        monkeypatch.setattr(sga_module, "greedy_independent_set", keep_everything)
        raised = 0
        for seed, graph in enumerate(GRAPHS):
            # The forest's switch balances the graph exactly when it is balanced.
            if is_balanced(graph).balanced:
                assert sga(graph, strategy, random.Random(seed)).k == 0
                continue
            with pytest.raises(RuntimeError, match="negative edge"):
                sga(graph, strategy, random.Random(seed))
            with pytest.raises(RuntimeError, match="negative edge"):
                sga_repeat(graph, 3, strategy, seed)
            raised += 1
        assert raised > 100

    @pytest.mark.parametrize("strategy", ["RS", "BFS", "DFS"])
    def test_never_reports_an_unbalanced_set(self, strategy, monkeypatch):
        # Random subsets of the negative subgraph, independent or not: a pass
        # raises exactly for the dependent ones, and whatever it reports is
        # balanced with the reflection is_balanced gives.
        pick = random.Random(7003)
        chosen: list[tuple[list[list[int]], set[int]]] = []

        def random_subset(adjacency):
            subset = {v for v in range(len(adjacency)) if pick.random() < 0.6}
            chosen.append((adjacency, subset))
            return subset

        monkeypatch.setattr(sga_module, "greedy_independent_set", random_subset)
        outcomes = {True: 0, False: 0}
        for seed, graph in enumerate(GRAPHS):
            try:
                result = sga(graph, strategy, random.Random(seed))
            except RuntimeError:
                result = None
            adjacency, subset = chosen[-1]
            independent = all(u not in subset for v in subset for u in adjacency[v])
            assert (result is not None) == independent
            outcomes[independent] += 1
            if result is None:
                continue
            sub = induced_subgraph(graph, result.retained)
            certificate = is_balanced(sub)
            assert certificate.balanced
            assert result.reflection == {sub.tags[v] for v in certificate.switch_set}
        assert min(outcomes.values()) > 30

    def test_final_certificate_checks_the_reported_set(self, monkeypatch):
        # The stub's k=0 meets any bound, so the loop stops after one pass;
        # the certificate must still refuse what it reports.
        triangle = SignedGraph.from_edges(3, [(0, 1, -1), (1, 2, -1), (0, 2, -1)])
        whole = HeuristicResult((0, 1, 2), 0, frozenset(), "DFS", 1, None, 0.0)
        monkeypatch.setattr(sga_module, "sga", lambda *args: whole)
        for repeats in (2, 80):
            with pytest.raises(RuntimeError, match="balanced"):
                sga_repeat(triangle, repeats, "DFS", 1)


OPTIMIZED_SCRIPT = """
import importlib, json
from refnet.signed_graph import SignedGraph
from refnet.sga import HeuristicResult

module = importlib.import_module("refnet.sga")
sga, sga_vc, sga_repeat = module.sga, module.sga_vc, module.sga_repeat
triangle = SignedGraph.from_edges(3, [(0, 1, -1), (1, 2, -1), (0, 2, -1)])
module.greedy_independent_set = lambda adjacency: set(range(len(adjacency)))
importlib.import_module("refnet.exact").vertex_cover = lambda adjacency, size: set()
calls = {
    "sga": lambda: sga(triangle, "DFS"),
    "sga_vc": lambda: sga_vc(triangle, "DFS"),
    "sga_repeat": lambda: sga_repeat(triangle, 3, "DFS", 1),
    "sga_repeat_80": lambda: sga_repeat(triangle, 80, "DFS", 1),
}
out = {"debug": __debug__}
for name, call in calls.items():
    try:
        call()
        out[name] = None
    except Exception as exc:
        out[name] = [type(exc).__name__, str(exc)]
# The final certificate alone: a pass that reports the whole triangle.
module.sga = lambda *args: HeuristicResult((0, 1, 2), 0, frozenset(), "DFS", 1, None, 0.0)
for repeats in (2, 80):
    try:
        sga_repeat(triangle, repeats, "DFS", 1)
        out[f"final_{repeats}"] = None
    except Exception as exc:
        out[f"final_{repeats}"] = [type(exc).__name__, str(exc)]
print(json.dumps(out))
"""


def test_checks_survive_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out.pop("debug") is False
    assert set(out) == {"sga", "sga_vc", "sga_repeat", "sga_repeat_80", "final_2", "final_80"}
    for name, error in out.items():
        assert error is not None, f"{name} reported an unbalanced set"
        kind, message = error
        assert kind == "RuntimeError", f"{name}: {kind}: {message}"
        assert message
