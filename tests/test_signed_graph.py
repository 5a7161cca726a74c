from __future__ import annotations

import random

import pytest

from helpers import (
    cycle_vertices_distinct,
    edge_in_graph,
    is_closed_walk,
    matrix_realizing,
    negative_subgraph,
    odd_negative_count,
    random_balanced_graph,
    random_matrix,
    random_signed_graph,
)
from refnet.matrix_io import SparseMatrix, is_network_matrix
from refnet.signed_graph import (
    NotBalancedError,
    SignedGraph,
    build_signed_graph,
    extract_network,
    induced_subgraph,
    is_balanced,
    switch,
)


def fig_graph() -> SignedGraph:
    """The 4-vertex running example: 1-2 -, 1-3 +, 1-4 -, 2-4 -, 3-4 +/-."""
    return SignedGraph.from_edges(
        4,
        [(0, 1, -1), (0, 2, 1), (0, 3, -1), (1, 3, -1), (2, 3, 1), (2, 3, -1)],
    )


def mat(n_rows, n_cols, entries):
    return SparseMatrix.from_entries(n_rows, n_cols, entries)


class TestBuild:
    def test_three_row_example(self):
        m = mat(3, 3, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, -1), (2, 1, 1), (2, 2, 1)])
        g = build_signed_graph(m)
        assert g.edges == ((0, 1, 1), (0, 1, -1), (0, 2, -1), (1, 2, 1))

    def test_network_matrix_only_positive_edges(self):
        m = mat(3, 3, [(0, 0, 1), (1, 0, -1), (1, 1, 1), (2, 1, -1), (2, 2, 1), (0, 2, -1)])
        g = build_signed_graph(m)
        assert all(s == 1 for _, _, s in g.edges)

    def test_fig_graph_from_realization(self):
        g = fig_graph()
        assert build_signed_graph(matrix_realizing(g)).edges == g.edges

    def test_non_unit_rows_dropped_with_tags(self):
        m = mat(3, 2, [(0, 0, 1), (1, 0, 2), (2, 0, -1)])
        g = build_signed_graph(m)
        assert g.n == 2
        assert g.tags == (0, 2)
        assert g.edges == ((0, 1, 1),)

    def test_no_loops_or_same_sign_parallels(self):
        rng = random.Random(10)
        for _ in range(50):
            g = build_signed_graph(random_matrix(rng))
            seen = set()
            for u, v, s in g.edges:
                assert u != v
                assert (u, v, s) not in seen
                seen.add((u, v, s))


class TestSwitch:
    def test_empty_and_full_are_identity(self):
        g = fig_graph()
        assert switch(g, set()) == g
        assert switch(g, set(range(g.n))) == g

    def test_fig_switch_vertex_two(self):
        g = switch(fig_graph(), {1})
        assert g.edges == (
            (0, 1, 1),
            (0, 2, 1),
            (0, 3, -1),
            (1, 3, 1),
            (2, 3, 1),
            (2, 3, -1),
        )

    def test_involution(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_signed_graph(rng)
            w = {v for v in range(g.n) if rng.random() < 0.5}
            assert switch(switch(g, w), w) == g

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            switch(fig_graph(), {9})


class TestIsBalanced:
    def test_signed_tree_always_balanced(self):
        rng = random.Random(12)
        for _ in range(50):
            n = rng.randint(1, 14)
            edges = [
                (rng.randrange(v), v, 1 if rng.random() < 0.5 else -1)
                for v in range(1, n)
            ]
            cert = is_balanced(SignedGraph.from_edges(n, edges))
            assert cert.balanced

    def test_parallel_pair_witness(self):
        g = SignedGraph.from_edges(2, [(0, 1, 1), (0, 1, -1)])
        cert = is_balanced(g)
        assert not cert.balanced
        assert len(cert.witness) == 2
        assert odd_negative_count(cert.witness)

    def test_fig_graph_unbalanced(self):
        assert not is_balanced(fig_graph()).balanced

    def test_labeling_clears_negatives(self):
        rng = random.Random(13)
        hits = 0
        for _ in range(120):
            g = random_signed_graph(rng, p_parallel=0.0)
            cert = is_balanced(g)
            if cert.balanced:
                hits += 1
                switched = switch(g, cert.switch_set)
                assert all(s == 1 for _, _, s in switched.edges)
        assert hits > 0

    def test_witness_is_odd_cycle_in_graph(self):
        rng = random.Random(14)
        hits = 0
        for _ in range(120):
            g = random_signed_graph(rng)
            cert = is_balanced(g)
            if not cert.balanced:
                hits += 1
                assert is_closed_walk(cert.witness)
                assert cycle_vertices_distinct(cert.witness)
                assert odd_negative_count(cert.witness)
                for a, b, s in cert.witness:
                    assert edge_in_graph(g, a, b, s)
        assert hits > 0

    def test_balance_is_switch_invariant(self):
        rng = random.Random(15)
        for _ in range(60):
            g = random_signed_graph(rng)
            w = {v for v in range(g.n) if rng.random() < 0.5}
            assert is_balanced(g).balanced == is_balanced(switch(g, w)).balanced


class TestNegativeSubgraph:
    def test_all_positive_gives_empty(self):
        g = SignedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1)])
        assert negative_subgraph(g).n == 0

    def test_fig_switched(self):
        n = negative_subgraph(switch(fig_graph(), {1}))
        assert n.tags == (0, 2, 3)
        # compact ids: {0,3} and {2,3} in original terms
        assert n.edges == ((0, 2, -1), (1, 2, -1))

    def test_single_negative_edge(self):
        g = SignedGraph.from_edges(4, [(1, 3, -1), (0, 2, 1)])
        n = negative_subgraph(g)
        assert n.n == 2 and n.tags == (1, 3)
        assert n.edges == ((0, 1, -1),)


class TestInducedSubgraph:
    def test_full_set_is_identity(self):
        g = fig_graph()
        assert induced_subgraph(g, range(4)) == g

    def test_empty(self):
        assert induced_subgraph(fig_graph(), []).n == 0

    def test_fig_triple(self):
        sub = induced_subgraph(fig_graph(), [0, 1, 2])
        assert sub.tags == (0, 1, 2)
        assert sub.edges == ((0, 1, -1), (0, 2, 1))


class TestExtractNetwork:
    def test_network_matrix_full_rows(self):
        m = mat(3, 2, [(0, 0, 1), (1, 0, -1), (1, 1, 1), (2, 1, -1)])
        net, reflected = extract_network(m, [0, 1, 2])
        assert is_network_matrix(net)
        sw = switch(build_signed_graph(m), reflected)
        assert all(s == 1 for _, _, s in sw.edges)

    def test_single_row(self):
        m = mat(1, 2, [(0, 0, 1), (0, 1, 1)])
        net, _ = extract_network(m, [0])
        assert is_network_matrix(net)

    def test_fig_realization_end_to_end(self):
        g = fig_graph()
        m = matrix_realizing(g)
        net, reflected = extract_network(m, [0, 1, 2])
        assert is_network_matrix(net)
        assert reflected == {1}

    def test_unbalanced_selection_raises_with_witness(self):
        m = matrix_realizing(fig_graph())
        with pytest.raises(NotBalancedError) as err:
            extract_network(m, [0, 1, 2, 3])
        assert odd_negative_count(err.value.witness)

    def test_non_unit_row_rejected(self):
        m = mat(2, 1, [(0, 0, 1), (1, 0, 2)])
        with pytest.raises(ValueError, match="not a"):
            extract_network(m, [0, 1])

    def test_random_balanced_selections(self):
        rng = random.Random(16)
        for _ in range(40):
            g = random_balanced_graph(rng, n_max=9)
            m = matrix_realizing(g)
            net, _ = extract_network(m, range(g.n))
            assert is_network_matrix(net)
