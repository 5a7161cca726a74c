from __future__ import annotations

import importlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    cycle_vertices_distinct,
    edge_in_graph,
    frustrated_graph,
    is_closed_walk,
    matrix_realizing,
    milp_mbd,
    negative_subgraph,
    odd_negative_count,
    planted_graph,
    random_balanced_graph,
    random_matrix,
    random_signed_graph,
    reference_induced_subgraph,
    switch,
)
from refnet.exact import brute_force_mbd, mbd_exact
from refnet.matrix_io import SparseMatrix, is_network_matrix, parse_mps
from refnet.signed_graph import (
    NEG,
    POS,
    NotBalancedError,
    SignedGraph,
    build_signed_graph,
    disjoint_unbalanced_cycles,
    extract_network,
    induced_subgraph,
    is_balanced,
)

signed_graph_module = importlib.import_module("refnet.signed_graph")


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

    @pytest.mark.parametrize(
        "edges,message",
        [
            ([(0, 1, 1), (2, 2, -1)], "loop at vertex 2"),
            ([(0, 3, 1)], r"edge \(0, 3\) out of range"),
            ([(-1, 1, -1)], r"edge \(-1, 1\) out of range"),
            ([(0, 1, 0)], "sign must be \\+1 or -1, got 0"),
            ([(0, 1, 2)], "sign must be \\+1 or -1, got 2"),
        ],
        ids=["loop", "high-end", "negative-end", "zero-sign", "two-sign"],
    )
    def test_from_edges_rejects(self, edges, message):
        with pytest.raises(ValueError, match=message):
            SignedGraph.from_edges(3, edges)

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


class TestPairs:
    """``pairs`` is built once; ``edges`` and ``n_edges`` derive from it."""

    def test_equal_to_adjacency_scans(self):
        rng = random.Random(12)
        graphs = [SignedGraph(0, (), (), ()), fig_graph()]
        graphs += [random_signed_graph(rng, p_parallel=0.3) for _ in range(100)]
        for g in graphs:
            assert g.pairs == tuple(
                (u, v, m)
                for u in range(g.n)
                for v, m in zip(g.neighbors[u], g.masks[u])
                if v > u
            )
            edges = []
            for u in range(g.n):
                for v, m in zip(g.neighbors[u], g.masks[u]):
                    if v > u:
                        if m & POS:
                            edges.append((u, v, 1))
                        if m & NEG:
                            edges.append((u, v, -1))
            assert g.edges == tuple(edges)
            assert g.n_edges == len(edges)

    def test_cached_and_outside_equality(self):
        g, h = fig_graph(), fig_graph()
        assert g.pairs is g.pairs
        assert g == h and hash(g) == hash(h)


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


@st.composite
def graph_and_vertices(draw):
    """A random signed graph with +/- pairs, and a vertex list for it that is
    empty, full, random with repeats, or a random set."""
    n = draw(st.integers(0, 9))
    masks = draw(st.lists(
        st.sampled_from((0, 0, POS, NEG, POS | NEG)),
        min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2,
    ))
    edges = [
        (u, v, sign)
        for (u, v), m in zip(itertools.combinations(range(n), 2), masks)
        for sign, bit in ((1, POS), (-1, NEG))
        if m & bit
    ]
    ids = st.integers(0, n - 1) if n else st.nothing()
    vertices = draw(st.one_of(
        st.just([]), st.just(list(range(n))), st.lists(ids, max_size=2 * n), st.sets(ids).map(list)
    ))
    return SignedGraph.from_edges(n, edges), vertices


class TestIsBalanced:
    @settings(max_examples=300, deadline=None)
    @given(graph_and_vertices())
    def test_vertex_set_matches_the_induced_subgraph(self, case):
        g, vertices = case
        sub = induced_subgraph(g, vertices)
        want = is_balanced(sub)
        got = is_balanced(g, vertices)
        if want.balanced:
            assert got.switch_set == {sub.tags[v] for v in want.switch_set}
        else:
            assert got.witness == tuple((sub.tags[a], sub.tags[b], s) for a, b, s in want.witness)

    @settings(max_examples=100, deadline=None)
    @given(graph_and_vertices(), st.integers(-20, 20))
    def test_vertex_out_of_range(self, case, bad):
        g, vertices = case
        picks = vertices + [bad if bad < 0 else g.n + bad]
        with pytest.raises(ValueError) as got:
            is_balanced(g, picks)
        with pytest.raises(ValueError) as want:
            induced_subgraph(g, picks)
        assert str(got.value) == str(want.value)

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


class TestDisjointUnbalancedCycles:
    @staticmethod
    def graphs():
        # Up to the oracle's 24 vertices, sparse enough that it stays fast,
        # with +/- pairs and isolated vertices.
        rng = random.Random(16)
        out = []
        for _ in range(150):
            n = rng.randint(1, 24)
            out.append(random_signed_graph(rng, n_max=n, n_min=n, p_edge=2.4 / n, p_parallel=0.1))
        return out

    @staticmethod
    def check_cycles(graph, cycles):
        seen: set[int] = set()
        for cycle in cycles:
            assert is_closed_walk(cycle)
            assert cycle_vertices_distinct(cycle)
            assert odd_negative_count(cycle)
            for a, b, s in cycle:
                assert edge_in_graph(graph, a, b, s)
            verts = {a for a, _, _ in cycle}
            assert not verts & seen  # pairwise vertex-disjoint
            seen |= verts

    def test_example(self):
        # A +/- pair and two negative triangles, one sharing a vertex with the pair.
        g = SignedGraph.from_edges(
            9,
            [(0, 1, 1), (0, 1, -1), (1, 2, -1), (2, 3, -1), (1, 3, -1),
             (4, 5, -1), (5, 6, -1), (4, 6, -1), (6, 7, 1)],
        )
        cycles = disjoint_unbalanced_cycles(g)
        assert cycles == (((0, 1, 1), (1, 0, -1)), ((6, 4, -1), (4, 5, -1), (5, 6, -1)))
        self.check_cycles(g, cycles)

    def test_found_once_per_graph(self, monkeypatch):
        g = SignedGraph.from_edges(6, [(0, 1, -1), (1, 2, -1), (0, 2, -1), (3, 4, 1), (3, 4, -1)])
        first = disjoint_unbalanced_cycles(g)
        assert len(first) == 2

        def no_search(*args):
            raise AssertionError("the cycles were searched for again")

        monkeypatch.setattr(signed_graph_module, "_witness_cycle", no_search)
        assert disjoint_unbalanced_cycles(g) is first
        with pytest.raises(AssertionError, match="searched"):
            disjoint_unbalanced_cycles(SignedGraph(*g))  # an equal graph of its own

    def test_at_most_the_oracle_optimum(self):
        graphs = self.graphs()
        assert any(3 in masks for g in graphs for masks in g.masks)  # a +/- pair
        assert any(not nb for g in graphs for nb in g.neighbors)  # an isolated vertex
        tight = 0
        for g in graphs:
            cycles = disjoint_unbalanced_cycles(g)
            self.check_cycles(g, cycles)
            optimum = brute_force_mbd(g)[0]
            assert len(cycles) <= optimum
            tight += len(cycles) == optimum
        assert tight > len(graphs) // 2

    def test_at_most_the_exact_optimum_on_planted_graphs(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(30, 120)
            g = planted_graph(rng, n, n_edges=2 * n, n_bad=rng.randint(1, 6), sabotage=6)
            cycles = disjoint_unbalanced_cycles(g)
            self.check_cycles(g, cycles)
            assert len(cycles) <= mbd_exact(g).k

    def test_at_most_the_optimum_on_frustrated_graphs(self):
        # Frustrated graphs, unlike planted ones, often leave the packing
        # bound below k*, so the exact search must prove optimality itself;
        # the integer program is the independent oracle for both.
        pytest.importorskip("scipy")
        rng = random.Random(19)
        loose = 0
        for i in range(12):
            n = rng.randint(40, 100)
            g = frustrated_graph(n, 3, n // 10, 1900 + i)
            cycles = disjoint_unbalanced_cycles(g)
            self.check_cycles(g, cycles)
            k = mbd_exact(g).k
            assert k == milp_mbd(g)
            assert len(cycles) <= k
            loose += len(cycles) < k
        assert loose >= 3

    def test_empty_exactly_on_balanced_graphs(self):
        rng = random.Random(18)
        graphs = self.graphs() + [random_balanced_graph(rng, n_max=20) for _ in range(60)]
        graphs.append(SignedGraph(0, (), (), ()))
        outcomes = {True: 0, False: 0}
        for g in graphs:
            balanced = is_balanced(g).balanced
            assert (disjoint_unbalanced_cycles(g) == ()) == balanced
            outcomes[balanced] += 1
        assert min(outcomes.values()) > 30


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

    def test_matches_reference_construction(self):
        # Unsorted picks with repeats; parallel +/- pairs must carry over.
        rng = random.Random(7101)
        pairs = 0
        for _ in range(300):
            g = random_signed_graph(rng, n_max=14, p_parallel=0.3)
            picks = [rng.randrange(g.n) for _ in range(rng.randint(0, 2 * g.n))]
            sub = induced_subgraph(g, picks)
            ref = reference_induced_subgraph(g, picks)
            assert (sub.n, sub.tags, sub.neighbors, sub.masks) == (
                ref.n, ref.tags, ref.neighbors, ref.masks
            )
            pairs += sum(m == POS | NEG for row in sub.masks for m in row)
        assert pairs > 100

    @pytest.mark.parametrize("picks", [[0, -1], [-3, 2, -1], [3, 4, 9], [5, 9, 1]])
    def test_out_of_range_vertex(self, picks):
        with pytest.raises(ValueError, match="out of range") as got:
            induced_subgraph(fig_graph(), picks)
        with pytest.raises(ValueError) as want:
            reference_induced_subgraph(fig_graph(), picks)
        assert str(got.value) == str(want.value)


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

    def test_row_names_carried_through(self):
        m = parse_mps(
            "NAME T\nROWS\n N  OBJ\n E  A\n L  B\n G  C\n E  D\nCOLUMNS\n"
            "    X  OBJ  1  A  1\n    X  B  1  C  2\n    Y  B  1  D  1\n"
            "    Z  A  1  D  -1\nENDATA\n"
        )
        net, reflected = extract_network(m, [3, 1, 0])
        assert reflected == {1}
        assert net.row_names == ("A", "B", "D")
        assert net.col_names == ("X", "Y", "Z")
        assert [net.row_name(r) for r in range(net.n_rows)] == ["A", "B", "D"]
        assert net.entries == ((0, 0, 1), (0, 2, 1), (1, 0, -1), (1, 1, -1), (2, 1, 1), (2, 2, -1))
        assert is_network_matrix(net)

    # R2 is not a (0,±1)-row, so every later row's vertex id is one below
    # its row index; R1-R3-R4-R5 is a cycle with three negative edges and
    # R1-R3-R4-R6 one with two.
    PIN_MPS = (
        "NAME PIN\nROWS\n N  OBJ\n E  R1\n E  R2\n L  R3\n G  R4\n E  R5\n E  R6\n"
        "COLUMNS\n    X  OBJ  1  R1  1\n    X  R2  2  R3  1\n    Y  R2  3  R3  1\n"
        "    Y  R4  -1\n    Z  R4  1  R5  1\n    W  R1  1  R5  1\n    V  R4  1  R6  1\n"
        "    U  R1  1  R6  -1\nENDATA\n"
    )

    def test_pinned_on_a_parsed_mps_matrix(self):
        m = parse_mps(self.PIN_MPS)
        net, reflected = extract_network(m, [5, 3, 2, 0])
        assert reflected == {2, 3}
        assert net.row_names == ("R1", "R3", "R4", "R6")
        assert net.entries == (
            (0, 0, 1), (0, 3, 1), (0, 5, 1), (1, 0, -1), (1, 1, -1),
            (2, 1, 1), (2, 2, -1), (2, 4, -1), (3, 4, 1), (3, 5, -1),
        )
        for rows in ([0, 2, 3, 4], [4, 2, 0, 3, 5]):
            with pytest.raises(NotBalancedError) as err:
                extract_network(m, rows)
            assert err.value.witness == ((3, 2, 1), (2, 0, -1), (0, 4, -1), (4, 3, -1))

    def test_pinned_on_a_frustrated_graph(self):
        # Deleting vertex 7 balances this graph; the whole of it is not.
        m = matrix_realizing(frustrated_graph(10, 3, 2, 3))
        net, reflected = extract_network(m, [0, 1, 2, 3, 4, 5, 6, 8, 9])
        assert reflected == {2, 3, 6}
        assert net.entries == (
            (0, 0, 1), (0, 1, 1), (1, 0, -1), (1, 2, 1), (2, 3, -1), (2, 4, -1),
            (2, 5, -1), (2, 6, -1), (3, 7, -1), (3, 8, -1), (4, 3, 1), (4, 7, 1),
            (4, 9, 1), (4, 10, 1), (5, 1, -1), (5, 4, 1), (5, 11, 1), (6, 5, 1),
            (6, 9, -1), (6, 12, -1), (7, 13, 1), (8, 2, -1), (8, 12, 1), (8, 14, 1),
        )
        with pytest.raises(NotBalancedError) as err:
            extract_network(m, range(10))
        assert err.value.witness == ((7, 5, -1), (5, 2, -1), (2, 7, -1))

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
