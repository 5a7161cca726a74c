from __future__ import annotations

import random

import pytest

from helpers import (
    edge_in_graph,
    is_maximal_independent_set,
    negative_subgraph,
    pair_mask,
    random_balanced_graph,
    random_signed_graph,
)
from refnet.sga import (
    CoverBudgetError,
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
from refnet.signed_graph import (
    SignedGraph,
    induced_subgraph,
    is_balanced,
    switch,
)


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
        # walk to a root without revisiting anything: forests are acyclic
        seen = {v}
        x = p
        while forest.parent[x] != -1:
            assert x not in seen
            seen.add(x)
            x = forest.parent[x]
    assert n_tree_edges == graph.n - len(forest.roots)


ALL_FORESTS = [
    ("RS", lambda g: forest_rs(g, random.Random(7))),
    ("BFS", forest_bfs),
    ("DFS", forest_dfs),
]


class TestForests:
    @pytest.mark.parametrize("name,builder", ALL_FORESTS)
    def test_forest_properties_random(self, name, builder):
        rng = random.Random(20)
        for _ in range(40):
            g = random_signed_graph(rng)
            check_forest(g, builder(g))

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
        assert greedy_independent_set(path, order=[3, 2, 1, 0]) == {1, 3}

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
        with pytest.raises(CoverBudgetError):
            sga_vc(g, "DFS", vc_budget=0)


def test_negative_structure_matches_public_pipeline():
    # the heuristic's in-place step-4 computation must agree with the
    # composition switch -> negative_subgraph (the test helper)
    from refnet.sga import _negative_structure

    rng = random.Random(31)
    for _ in range(60):
        g = random_signed_graph(rng)
        flips = frozenset(v for v in range(g.n) if rng.random() < 0.5)
        verts, adj = _negative_structure(g, flips)
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
