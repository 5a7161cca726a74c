"""The graph layer against the reference versions in ``helpers``.

The balance test, the pair-mask constructor, induced subgraphs and the
forest's switch set must equal their first, simpler forms, certificates and
witnesses included; the signed graph is built once per matrix.
"""

from __future__ import annotations

import random

import pytest

from helpers import (
    matrix_realizing,
    random_balanced_graph,
    random_matrix,
    random_signed_graph,
    reference_from_pair_masks,
    reference_induced_subgraph,
    reference_is_balanced,
    reference_switch_set_from_forest,
)
from refnet.matrix_io import SparseMatrix
from refnet.scaling import scale
from refnet.sga import forest_bfs, forest_dfs, forest_rs, sga_repeat, switch_set_from_forest
from refnet.signed_graph import (
    NEG,
    POS,
    SignedGraph,
    build_signed_graph,
    extract_network,
    induced_subgraph,
    is_balanced,
)
from test_sga_certificate import GRAPHS


def fields(graph: SignedGraph) -> tuple:
    return graph.n, graph.tags, graph.neighbors, graph.masks


def pair_graphs() -> list[SignedGraph]:
    """Random graphs rich in +/- pairs, and balanced ones."""
    rng = random.Random(8101)
    graphs = [random_signed_graph(rng, n_max=16, p_parallel=0.4) for _ in range(80)]
    graphs += [random_balanced_graph(rng, n_max=16) for _ in range(80)]
    return graphs


def test_is_balanced_matches_reference():
    balanced = unbalanced = 0
    for g in GRAPHS + pair_graphs():
        # The graph itself, and the balanced subgraph a heuristic keeps.
        for graph in (g, induced_subgraph(g, sga_repeat(g, 1).retained)):
            got = is_balanced(graph)
            assert got == reference_is_balanced(graph)
            balanced += got.balanced
            unbalanced += not got.balanced
    assert balanced > 300 and unbalanced > 150


def test_pair_witness_cases():
    # A +/- pair met unlabelled, labelled equal and labelled different.
    cases = [
        [(0, 1, 1), (0, 1, -1)],
        [(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 2, -1)],
        [(0, 1, -1), (1, 2, 1), (0, 2, 1), (0, 2, -1)],
        [(0, 1, -1), (0, 2, -1), (1, 2, 1), (1, 2, -1)],
    ]
    for edges in cases:
        g = SignedGraph.from_edges(3, edges)
        got = is_balanced(g)
        assert not got.balanced
        assert got == reference_is_balanced(g)


def test_from_pair_masks_matches_reference():
    rng = random.Random(8102)
    for _ in range(200):
        n = rng.randint(0, 12)
        pairs = {
            (u, v): rng.choice((POS, NEG, POS | NEG))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.3
        }
        items = list(pairs.items())
        rng.shuffle(items)  # insertion order must not matter
        tags = rng.sample(range(100), n) if rng.random() < 0.5 else None
        got = SignedGraph._from_pair_masks(n, dict(items), tags)
        assert fields(got) == fields(reference_from_pair_masks(n, pairs, tags))


def test_induced_subgraph_matches_reference():
    rng = random.Random(8103)
    for g in GRAPHS + pair_graphs():
        for _ in range(3):
            picks = [v for v in range(g.n) if rng.random() < rng.choice((0.5, 0.9, 1.0))]
            sub = induced_subgraph(g, picks)
            assert fields(sub) == fields(reference_induced_subgraph(g, picks))
            for i, v in enumerate(sub.tags):
                if len(sub.neighbors[i]) == len(g.neighbors[v]):
                    assert sub.masks[i] is g.masks[v]  # kept every neighbor


def test_switch_set_matches_parent_chain_walk():
    rng = random.Random(8104)
    forests = 0
    for g in GRAPHS + pair_graphs():
        order = list(range(g.n))
        rng.shuffle(order)
        for ranks in (None, order):
            for forest in (
                forest_rs(g, random.Random(rng.random()), order=ranks),
                forest_bfs(g, order=ranks),
                forest_dfs(g, order=ranks),
            ):
                assert switch_set_from_forest(forest) == reference_switch_set_from_forest(forest)
                forests += 1
    assert forests > 2000


class TestOneGraphPerMatrix:
    def test_built_once(self):
        m = scale(random_matrix(random.Random(8105), 12, 10))
        assert build_signed_graph(m) is build_signed_graph(m)

    def test_copy_carries_no_memo(self):
        m = scale(random_matrix(random.Random(8106), 12, 10))
        graph = build_signed_graph(m)
        copy = SparseMatrix(*m)
        assert copy == m and vars(copy) == {}
        rebuilt = build_signed_graph(copy)
        assert rebuilt is not graph and fields(rebuilt) == fields(graph)

    def test_extract_network_reuses_the_graph(self, monkeypatch):
        rng = random.Random(8107)
        g = random_balanced_graph(rng, n_max=9)
        m = matrix_realizing(g)
        graph = build_signed_graph(m)
        builds = []
        original = SignedGraph._from_pair_masks.__func__

        def counting(cls, *args):
            builds.append(args[0])
            return original(cls, *args)

        monkeypatch.setattr(SignedGraph, "_from_pair_masks", classmethod(counting))
        extract_network(m, graph.tags)
        assert builds == []
        extract_network(SparseMatrix(*m), graph.tags)
        assert builds == [graph.n]


@pytest.mark.parametrize("seed", range(3))
def test_memo_does_not_change_extraction(seed):
    rng = random.Random(8110 + seed)
    g = random_balanced_graph(rng, n_max=9)
    m = matrix_realizing(g)
    fresh = extract_network(SparseMatrix(*m), range(g.n))
    build_signed_graph(m)
    assert extract_network(m, range(g.n)) == fresh
