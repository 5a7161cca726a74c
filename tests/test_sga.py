from __future__ import annotations

import importlib
import random

import pytest

from helpers import (
    edge_in_graph,
    is_maximal_independent_set,
    negative_subgraph,
    pair_mask,
    random_balanced_graph,
    random_signed_graph,
    switch,
)
from refnet.sga import (
    forest_bfs,
    forest_dfs,
    forest_rs,
    greedy_independent_set,
    permute_graph,
    sga,
    sga_repeat,
    sga_vc,
    switch_set_from_forest,
)
from refnet.exact import vertex_cover
from refnet.signed_graph import (
    NEG,
    POS,
    SignedGraph,
    induced_subgraph,
    is_balanced,
)

sga_module = importlib.import_module("refnet.sga")
# sga_vc looks vertex_cover up in refnet.exact when it runs, and
# vertex_cover looks up _cover_search there too.
exact_module = importlib.import_module("refnet.exact")
cover_search = exact_module._cover_search


def disjoint_pm_triangles(count: int) -> SignedGraph:
    """``count`` disjoint triangles whose every pair has a +/- edge pair."""
    edges = []
    for t in range(count):
        for u, v in ((0, 1), (1, 2), (0, 2)):
            edges += [(3 * t + u, 3 * t + v, 1), (3 * t + u, 3 * t + v, -1)]
    return SignedGraph.from_edges(3 * count, edges)


def fig_graph() -> SignedGraph:
    return SignedGraph.from_edges(
        4,
        [(0, 1, -1), (0, 2, 1), (0, 3, -1), (1, 3, -1), (2, 3, 1), (2, 3, -1)],
    )


def check_forest(graph, forest):
    n_tree_edges = 0
    for v in range(graph.n):
        p = forest.parent[v]
        if p == -1:
            assert v in forest.roots
            continue
        n_tree_edges += 1
        assert edge_in_graph(graph, v, p, forest.parent_sign[v])
        # every forest takes a +/- pair through its positive edge
        if pair_mask(graph, v, p) == POS | NEG:
            assert forest.parent_sign[v] == 1
        # walk to a root without revisiting anything: forests are acyclic
        seen = {v}
        x = p
        while forest.parent[x] != -1:
            assert x not in seen
            seen.add(x)
            x = forest.parent[x]
    assert n_tree_edges == graph.n - len(forest.roots)


ALL_FORESTS = [
    ("RS", lambda g, **kw: forest_rs(g, random.Random(7), **kw)),
    ("BFS", forest_bfs),
    ("DFS", forest_dfs),
]


class TestForests:
    @pytest.mark.parametrize("name,builder", ALL_FORESTS)
    def test_forest_properties_random(self, name, builder):
        rng, shuffler = random.Random(20), random.Random(21)
        for _ in range(40):
            g = random_signed_graph(rng)
            check_forest(g, builder(g))
            order = list(range(g.n))
            shuffler.shuffle(order)
            check_forest(g, builder(g, order=order))

    @pytest.mark.parametrize("name,builder", ALL_FORESTS)
    def test_single_vertex(self, name, builder):
        g = SignedGraph.from_edges(1, [])
        forest = builder(g)
        assert forest.roots == (0,)
        assert forest.edges == ()

    @pytest.mark.parametrize("name,builder", ALL_FORESTS)
    def test_edgeless(self, name, builder):
        g = SignedGraph.from_edges(4, [])
        assert len(builder(g).roots) == 4

    @pytest.mark.parametrize("name,builder", ALL_FORESTS)
    def test_tree_input_spans_itself(self, name, builder):
        g = SignedGraph.from_edges(5, [(0, 1, 1), (1, 2, -1), (1, 3, 1), (3, 4, -1)])
        forest = builder(g)
        assert len(forest.roots) == 1
        assert len(forest.edges) == 4
        assert {frozenset((a, b)) for a, b, _ in forest.edges} == {
            frozenset(e[:2]) for e in g.edges
        }

    def test_rs_deterministic_per_seed(self):
        rng1, rng2 = random.Random(3), random.Random(3)
        g = random_signed_graph(random.Random(21), n_max=10)
        assert forest_rs(g, rng1) == forest_rs(g, rng2)

    def test_rs_avoids_parallel_pairs_when_possible(self):
        # 0-1 joined by a single + edge and 0-2 only by a parallel pair: the
        # pair may enter the forest only as the positive edge.
        g = SignedGraph.from_edges(3, [(0, 1, 1), (0, 2, 1), (0, 2, -1)])
        for seed in range(10):
            forest = forest_rs(g, random.Random(seed))
            assert forest.parent_sign[2] in (0, 1)

    def test_bfs_two_components_roots(self):
        g = SignedGraph.from_edges(
            5, [(0, 1, 1), (2, 3, 1), (3, 4, -1)]
        )
        forest = forest_bfs(g)
        # first root is the global max-degree vertex, then lowest index
        assert forest.roots == (3, 0)
        assert forest.parent[2] == 3 and forest.parent[4] == 3
        assert forest.parent[1] == 0

    def test_dfs_complete_graph_is_path(self):
        g = SignedGraph.from_edges(
            4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)]
        )
        forest = forest_dfs(g)
        assert forest.parent[1] == 0
        assert forest.parent[2] == 1
        assert forest.parent[3] == 2

    def test_dfs_cycle_gives_path(self):
        g = SignedGraph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        forest = forest_dfs(g)
        assert len(forest.edges) == 3
        assert forest.roots == (0,)


class TestSwitchSetFromForest:
    def test_worked_example(self):
        # edges {1,2}-, {1,3}+, {2,4}- rooted at vertex 1 (0-based: 0)
        g = SignedGraph.from_edges(4, [(0, 1, -1), (0, 2, 1), (1, 3, -1)])
        forest = forest_dfs(g)
        assert switch_set_from_forest(forest) == {1}

    def test_all_positive_forest(self):
        g = SignedGraph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        assert switch_set_from_forest(forest_dfs(g)) == frozenset()

    def test_all_negative_star(self):
        g = SignedGraph.from_edges(5, [(0, leaf, -1) for leaf in range(1, 5)])
        assert switch_set_from_forest(forest_bfs(g)) == {1, 2, 3, 4}

    def test_clears_tree_edges(self):
        rng = random.Random(22)
        for _ in range(40):
            g = random_signed_graph(rng)
            forest = forest_dfs(g)
            flips = switch_set_from_forest(forest)
            switched = switch(g, flips)
            for child, parent, _ in forest.edges:
                mask = pair_mask(switched, child, parent)
                assert mask & 1  # a positive edge joins every tree pair


class TestGreedyIndependentSet:
    def test_three_path(self):
        chosen = greedy_independent_set([[1], [0, 2], [1]])
        assert chosen == {0, 2}

    def test_empty(self):
        assert greedy_independent_set([]) == set()

    def test_triangle(self):
        assert greedy_independent_set([[1, 2], [0, 2], [0, 1]]) == {0}

    def test_order_changes_choice(self):
        path = [[1], [0, 2], [1, 3], [2]]
        assert greedy_independent_set(path) == {0, 2}

    def test_matches_minimum_degree_scan(self):
        # Quadratic reference: minimum current degree, lowest index on ties.
        rng = random.Random(7102)
        for _ in range(200):
            adj = [list(nb) for nb in random_signed_graph(rng, n_max=16, p_edge=0.25).neighbors]
            alive = set(range(len(adj)))
            expected = set()
            while alive:
                best = min(alive, key=lambda v: (sum(u in alive for u in adj[v]), v))
                expected.add(best)
                alive -= {best, *adj[best]}
            assert greedy_independent_set(adj) == expected

    def test_maximal_independent(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 10)
            adj = [[] for _ in range(n)]
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.4:
                        adj[u].append(v)
                        adj[v].append(u)
            assert is_maximal_independent_set(adj, greedy_independent_set(adj))


class TestSga:
    @pytest.mark.parametrize("strategy", ["RS", "BFS", "DFS"])
    def test_balanced_graph_keeps_everything(self, strategy):
        rng = random.Random(24)
        for _ in range(30):
            g = random_balanced_graph(rng)
            result = sga(g, strategy, random.Random(1))
            assert result.retained == tuple(range(g.n))
            assert result.k == 0

    @pytest.mark.parametrize("strategy", ["DFS", "BFS"])
    def test_fig_graph_reaches_optimum(self, strategy):
        result = sga(fig_graph(), strategy)
        assert result.retained == (0, 1, 2)
        assert result.k == 1
        assert result.reflection == {1}

    def test_fig_graph_rs_seeded(self):
        result = sga(fig_graph(), "RS", random.Random(1))
        assert result.k == 1

    def test_edgeless(self):
        g = SignedGraph.from_edges(3, [])
        assert sga(g, "DFS").retained == (0, 1, 2)

    @pytest.mark.parametrize("strategy", ["RS", "BFS", "DFS"])
    def test_retained_always_balanced(self, strategy):
        rng = random.Random(25)
        for trial in range(60):
            g = random_signed_graph(rng)
            result = sga(g, strategy, random.Random(trial))
            sub = induced_subgraph(g, result.retained)
            assert is_balanced(sub).balanced
            # the reported reflection really clears the retained subgraph
            compact = {i for i, v in enumerate(sub.tags) if v in result.reflection}
            switched = switch(sub, compact)
            assert all(s == 1 for _, _, s in switched.edges)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            sga(fig_graph(), "XXX")


class TestSgaRepeat:
    def test_single_repeat_equals_sga(self):
        rng = random.Random(26)
        for trial in range(20):
            g = random_signed_graph(rng)
            for strategy in ("RS", "BFS", "DFS"):
                one = sga_repeat(g, 1, strategy, seed=trial)
                plain = sga(g, strategy, random.Random(trial))
                assert one.retained == plain.retained
                assert one.reflection == plain.reflection

    def test_repeats_monotone(self):
        rng = random.Random(27)
        for trial in range(15):
            g = random_signed_graph(rng)
            for strategy in ("RS", "BFS", "DFS"):
                ks = [
                    sga_repeat(g, r, strategy, seed=5).k
                    for r in (1, 3, 80)
                ]
                assert ks[0] >= ks[1] >= ks[2]

    def test_fig_graph_many_repeats(self):
        assert sga_repeat(fig_graph(), 80, "RS", seed=3).k == 1

    def test_deterministic(self):
        g = random_signed_graph(random.Random(28))
        a = sga_repeat(g, 10, "RS", seed=9)
        b = sga_repeat(g, 10, "RS", seed=9)
        assert (a.retained, a.reflection, a.k) == (b.retained, b.reflection, b.k)

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            sga_repeat(fig_graph(), 0, "DFS", seed=1)

    def test_permute_graph_relabels(self):
        g = fig_graph()
        order = [2, 0, 3, 1]
        p = permute_graph(g, order)
        assert p.n == g.n
        for j, old in enumerate(order):
            assert p.degree(j) == g.degree(old)
        assert is_balanced(p).balanced == is_balanced(g).balanced


class TestOrder:
    """``order`` must be a permutation of the vertex ids."""

    PATH = SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, -1)])
    BAD = {
        "short": [0, 1],
        "long": [0, 1, 2, 0],
        "duplicate": [0, 0, 1],
        "out-of-range": [0, 1, 3],
        "negative": [-1, 0, 1],
    }
    CALLS = {
        "permute_graph": lambda g, order: permute_graph(g, order),
        "forest_rs": lambda g, order: forest_rs(g, random.Random(1), order=order),
        "forest_bfs": lambda g, order: forest_bfs(g, order=order),
        "forest_dfs": lambda g, order: forest_dfs(g, order=order),
        "sga_RS": lambda g, order: sga(g, "RS", random.Random(1), order=order),
        "sga_BFS": lambda g, order: sga(g, "BFS", order=order),
        "sga_DFS": lambda g, order: sga(g, "DFS", order=order),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_rejects_non_permutation(self, call, kind):
        with pytest.raises(ValueError, match="permutation"):
            self.CALLS[call](self.PATH, self.BAD[kind])


class TestSgaVc:
    def test_balanced_input_keeps_everything(self):
        g = random_balanced_graph(random.Random(29))
        result = sga_vc(g, "DFS")
        assert result.retained == tuple(range(g.n))
        assert result.cover == "exact"

    def test_triangle_of_parallel_pairs(self):
        edges = []
        for u in range(3):
            for v in range(u + 1, 3):
                edges += [(u, v, 1), (u, v, -1)]
        g = SignedGraph.from_edges(3, edges)
        exact = sga_vc(g, "DFS")
        greedy = sga(g, "DFS")
        assert len(exact.retained) == len(greedy.retained) == 1

    def test_path_negative_subgraph(self):
        # a negative path 0-1-2 with no positive edges: cover takes the
        # middle vertex, both endpoints stay
        g = SignedGraph.from_edges(3, [(0, 1, -1), (1, 2, -1)])
        result = sga_vc(g, "DFS")
        assert result.k <= 1

    def test_dominates_greedy(self):
        rng = random.Random(30)
        for trial in range(60):
            g = random_signed_graph(rng)
            for strategy in ("DFS", "BFS", "RS"):
                greedy = sga(g, strategy, random.Random(trial))
                exact = sga_vc(g, strategy, random.Random(trial))
                assert len(exact.retained) >= len(greedy.retained)
                assert is_balanced(induced_subgraph(g, exact.retained)).balanced

    def test_budget_exhausted(self):
        # a parallel pair survives every switch, so the cover need is real
        g = SignedGraph.from_edges(2, [(0, 1, 1), (0, 1, -1)])
        result = sga_vc(g, "DFS", vc_budget=0)
        assert result.cover == "greedy"
        assert result._replace(elapsed=0) == sga(g, "DFS")._replace(elapsed=0)

    def test_budget_fallback_is_the_greedy_pass_on_the_same_forest(self):
        # A missed cap keeps the forest the rng drew and runs greedy on it;
        # a met cap never retains less than greedy on that forest.
        rng = random.Random(31)
        fallbacks = 0
        for trial in range(60):
            g = random_signed_graph(rng)
            for strategy in ("DFS", "BFS", "RS"):
                greedy = sga(g, strategy, random.Random(trial))
                result = sga_vc(g, strategy, random.Random(trial), vc_budget=trial % 3)
                if result.cover == "greedy":
                    fallbacks += 1
                    assert result._replace(elapsed=0) == greedy._replace(elapsed=0)
                else:
                    assert result.cover == "exact"
                    assert len(result.retained) >= len(greedy.retained)
        assert 0 < fallbacks < 180

    def test_matching_above_budget_falls_back_without_a_search(self, monkeypatch):
        # Two disjoint +/- pairs survive every switch: matching bounds of 1 each.
        budgets = []

        def recording(adjacency, budget):
            budgets.append(budget)
            return cover_search(adjacency, budget)

        monkeypatch.setattr(exact_module, "_cover_search", recording)
        g = SignedGraph.from_edges(4, [(0, 1, 1), (0, 1, -1), (2, 3, 1), (2, 3, -1)])
        assert sga_vc(g, "DFS", vc_budget=1).cover == "greedy"
        assert budgets == []

    def test_slack_is_shared_between_components(self):
        # Each triangle of +/- pairs has a matching of 1 and a minimum cover
        # of 2, so the two together need a budget of 4.
        g = disjoint_pm_triangles(2)
        assert sga_vc(g, "DFS", vc_budget=3).cover == "greedy"
        result = sga_vc(g, "DFS", vc_budget=4)
        assert result.cover == "exact" and result.k == 4

    def test_components_are_not_restarted_together(self, monkeypatch):
        # A sweep over the whole negative subgraph proves each size
        # infeasible across all twelve triangles at once, thousands of
        # searches; one component at a time takes three each.
        calls = 0

        def counting(adjacency, budget):
            nonlocal calls
            calls += 1
            if calls > 200:
                raise AssertionError("more than 200 cover searches")
            return cover_search(adjacency, budget)

        monkeypatch.setattr(exact_module, "_cover_search", counting)
        assert sga_vc(disjoint_pm_triangles(12), "DFS").k == 24
        assert calls <= 3 * 12

    def test_sweep_starts_at_a_matching_and_ends_at_the_minimum(self, monkeypatch):
        negative: list[list[list[int]]] = []
        sweeps: list[tuple[set[tuple[int, int]], int, bool]] = []
        depth = 0

        def recording_cover(adjacency, k):
            negative.append(adjacency)
            return vertex_cover(adjacency, k)

        def recording_search(adjacency, budget):
            nonlocal depth
            edges = {(u, v) for u, row in enumerate(adjacency) for v in row if u < v}
            depth += 1
            try:
                found = cover_search(adjacency, budget)
            finally:
                depth -= 1
            if depth == 0:
                sweeps.append((edges, budget, found is not None))
            return found

        monkeypatch.setattr(exact_module, "vertex_cover", recording_cover)
        monkeypatch.setattr(exact_module, "_cover_search", recording_search)
        rng = random.Random(32)
        skipped = 0
        for trial in range(80):
            g = random_signed_graph(rng, n_max=16)
            negative.clear()
            sweeps.clear()
            sga_vc(g, "DFS", random.Random(trial))
            (adjacency,) = negative
            # Components by lowest member, each renumbered in ascending order.
            seen: set[int] = set()
            components = []
            for start in range(len(adjacency)):
                if start in seen or not adjacency[start]:
                    continue
                members = {start}
                stack = [start]
                while stack:
                    for u in adjacency[stack.pop()]:
                        if u not in members:
                            members.add(u)
                            stack.append(u)
                seen |= members
                components.append(sorted(members))
            # One sweep per component, each ending at its first success.
            for members in components:
                local = {v: i for i, v in enumerate(members)}
                edges = {(local[u], local[v]) for u in members for v in adjacency[u] if u < v}
                sizes = []
                while True:
                    component_edges, size, found = sweeps.pop(0)
                    assert component_edges == edges
                    sizes.append(size)
                    if found:
                        break
                matched: set[int] = set()
                for u in members:
                    for v in adjacency[u]:
                        if u not in matched and v not in matched:
                            matched |= {u, v}
                assert sizes == list(range(len(matched) // 2, sizes[-1] + 1))
                # The sweep ends at the component's minimum cover size.
                local_adj = [{local[u] for u in adjacency[v]} for v in members]
                assert cover_search(local_adj, sizes[-1] - 1) is None
                skipped += sizes[0]
            assert sweeps == []
        assert skipped > 40


def test_negative_structure_matches_public_pipeline():
    # the heuristic's in-place step-4 computation must agree with the
    # composition switch -> negative_subgraph (the test helper)
    from refnet.sga import _negative_structure

    rng = random.Random(31)
    for _ in range(60):
        g = random_signed_graph(rng)
        flips = frozenset(v for v in range(g.n) if rng.random() < 0.5)
        inside = [v in flips for v in range(g.n)]
        verts, adj = _negative_structure(g, inside)
        reference = negative_subgraph(switch(g, flips))
        assert tuple(verts) == reference.tags
        edges = {
            (verts[a], verts[b])
            for a in range(len(adj))
            for b in adj[a]
            if a < b
        }
        ref_edges = {
            (reference.tags[a], reference.tags[b]) for a, b, _ in reference.edges
        }
        assert edges == ref_edges
        # Ranked: the vertices come in ascending rank, each adjacency
        # ascending in that list, so greedy ties go to the lowest rank.
        order = rng.sample(range(g.n), g.n)
        rank = {v: j for j, v in enumerate(order)}
        verts, adj = _negative_structure(g, inside, order)
        assert verts == sorted(reference.tags, key=rank.__getitem__)
        assert all(lst == sorted(lst) for lst in adj)
        assert {
            (min(verts[a], verts[b]), max(verts[a], verts[b]))
            for a in range(len(adj))
            for b in adj[a]
        } == ref_edges
