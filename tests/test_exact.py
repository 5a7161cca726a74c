from __future__ import annotations

import itertools
import random
import time

import pytest

from helpers import (
    milp_mbd,
    planted_graph,
    random_balanced_graph,
    random_signed_graph,
    simple_adjacency,
)
from refnet.exact import (
    CancelToken,
    DeletionBudgetError,
    OperationCancelled,
    brute_force_mbd,
    brute_force_oct,
    mbd_exact,
    odd_cycle_transversal,
    subdivide_positive,
    vertex_cover,
)
from refnet.signed_graph import SignedGraph, induced_subgraph, is_balanced


def fig_graph() -> SignedGraph:
    return SignedGraph.from_edges(
        4,
        [(0, 1, -1), (0, 2, 1), (0, 3, -1), (1, 3, -1), (2, 3, 1), (2, 3, -1)],
    )


def complete(n):
    return [[u for u in range(n) if u != v] for v in range(n)]


def odd_cycle(n):
    return [sorted(((v - 1) % n, (v + 1) % n)) for v in range(n)]


class CancelAfter(CancelToken):
    """Token that expires on its ``polls + 1``-th poll."""

    def __init__(self, polls: int):
        super().__init__()
        self.polls = polls

    def expired(self) -> bool:
        self.polls -= 1
        return self.polls < 0


def min_oct(adjacency) -> int:
    for k in range(len(adjacency) + 1):
        if odd_cycle_transversal(adjacency, k) is not None:
            return k
    raise AssertionError


def is_bipartite_without(adjacency, removed):
    color = {}
    for start in range(len(adjacency)):
        if start in removed or start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in adjacency[v]:
                if u in removed:
                    continue
                if u not in color:
                    color[u] = color[v] ^ 1
                    queue.append(u)
                elif color[u] == color[v]:
                    return False
    return True


class TestSubdivide:
    def test_all_negative_unchanged(self):
        g = SignedGraph.from_edges(3, [(0, 1, -1), (1, 2, -1)])
        sub = subdivide_positive(g)
        assert sub.n == 3
        assert sub.adjacency == ((1,), (0, 2), (1,))

    def test_single_positive_edge_becomes_path(self):
        g = SignedGraph.from_edges(2, [(0, 1, 1)])
        sub = subdivide_positive(g)
        assert sub.n == 3
        assert sub.adjacency[2] == (0, 1)
        assert sub.origin[2] == (0, 1)

    def test_parallel_pair_becomes_triangle(self):
        g = SignedGraph.from_edges(2, [(0, 1, 1), (0, 1, -1)])
        sub = subdivide_positive(g)
        assert sub.n == 3
        assert sub.adjacency == ((1, 2), (0, 2), (0, 1))
        # the original negative 2-cycle turned into an odd cycle
        assert brute_force_oct(sub.adjacency)[0] == 1

    def test_vertex_count(self):
        rng = random.Random(50)
        for _ in range(30):
            g = random_signed_graph(rng)
            positives = sum(1 for _, _, s in g.edges if s == 1)
            assert subdivide_positive(g).n == g.n + positives


class TestOddCycleTransversal:
    def test_bipartite_needs_nothing(self):
        adj = [[1], [0, 2], [1]]
        assert odd_cycle_transversal(adj, 0) == set()

    def test_triangle(self):
        adj = complete(3)
        assert odd_cycle_transversal(adj, 0) is None
        sol = odd_cycle_transversal(adj, 1)
        assert sol is not None and len(sol) == 1

    def test_complete_graphs_closed_form(self):
        for n in range(3, 8):
            assert min_oct(complete(n)) == n - 2

    def test_odd_cycles_closed_form(self):
        for m in range(1, 6):
            assert min_oct(odd_cycle(2 * m + 1)) == 1

    def test_solution_leaves_bipartite(self):
        rng = random.Random(51)
        for _ in range(60):
            adj = simple_adjacency(rng)
            k_min = min_oct(adj)
            sol = odd_cycle_transversal(adj, k_min)
            assert sol is not None and len(sol) <= k_min
            assert is_bipartite_without(adj, sol)

    def test_matches_oracle(self):
        rng = random.Random(52)
        for _ in range(80):
            adj = simple_adjacency(rng)
            assert min_oct(adj) == brute_force_oct(adj)[0]

    def test_deterministic(self):
        rng = random.Random(53)
        for _ in range(20):
            adj = simple_adjacency(rng)
            k = min_oct(adj)
            assert odd_cycle_transversal(adj, k) == odd_cycle_transversal(adj, k)

    def test_cancellation(self):
        token = CancelToken()
        token.cancel()
        with pytest.raises(OperationCancelled):
            odd_cycle_transversal(complete(8), 3, cancel=token)

    def test_cancellation_is_prompt_inside_a_long_compression(self):
        # pruning makes leaves rare, so the search polls per flow run; a
        # 60-vertex G(n, 0.12) graph keeps compressing far past 0.3 s
        rng = random.Random(7)
        adj = [[] for _ in range(60)]
        for u, v in itertools.combinations(range(60), 2):
            if rng.random() < 0.12:
                adj[u].append(v)
                adj[v].append(u)
        stats = {}
        started = time.monotonic()
        with pytest.raises(OperationCancelled):
            odd_cycle_transversal(adj, 60, CancelToken.after(0.3), stats)
        assert time.monotonic() - started < 2
        assert stats["lower_bound"] >= 8

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            odd_cycle_transversal([[1], [0]], -1)

    def test_generous_cap_still_returns_a_minimum(self):
        # the budget grows only when a compression proves it must, so a cap
        # far above the optimum changes nothing
        rng = random.Random(60)
        for _ in range(40):
            adj = simple_adjacency(rng)
            stats = {}
            sol = odd_cycle_transversal(adj, len(adj), stats=stats)
            assert len(sol) == stats["lower_bound"] == brute_force_oct(adj)[0]
            assert is_bipartite_without(adj, sol)

    def test_lower_bound_after_cancellation(self):
        # K8 needs 6 deletions; every prefix needs fewer, so the budget a
        # cancelled pass reports never overshoots and grows with the polls
        bounds = []
        for polls in itertools.count():
            stats = {}
            try:
                sol = odd_cycle_transversal(complete(8), 8, CancelAfter(polls), stats)
            except OperationCancelled:
                bounds.append(stats["lower_bound"])
                continue
            break
        assert len(sol) == stats["lower_bound"] == 6
        assert bounds == sorted(bounds) and bounds[0] == 0 and bounds[-1] <= 6
        assert len(set(bounds)) > 2


class TestMbdExact:
    def test_balanced_graph(self):
        g = random_balanced_graph(random.Random(54))
        result = mbd_exact(g)
        assert result.status == "optimal"
        assert result.k == 0 and result.deletion == frozenset()

    def test_parallel_pair_with_isolated_vertices(self):
        g = SignedGraph.from_edges(4, [(0, 1, 1), (0, 1, -1)])
        result = mbd_exact(g)
        assert result.k == 1
        assert result.deletion <= {0, 1}

    def test_fig_graph(self):
        result = mbd_exact(fig_graph())
        assert result.k == 1

    def test_matches_oracle_and_sound(self):
        rng = random.Random(55)
        for _ in range(80):
            g = random_signed_graph(rng)
            expected, _ = brute_force_mbd(g)
            result = mbd_exact(g)
            assert result.status == "optimal"
            assert result.k == expected
            kept = [v for v in range(g.n) if v not in result.deletion]
            assert is_balanced(induced_subgraph(g, kept)).balanced

    def test_subdivision_equivalence(self):
        # minimum deletion of the signed graph equals the minimum odd cycle
        # transversal of its subdivided companion
        rng = random.Random(56)
        for _ in range(60):
            g = random_signed_graph(rng, n_max=7)
            sub = subdivide_positive(g)
            if sub.n > 20:
                continue
            assert brute_force_mbd(g)[0] == brute_force_oct(sub.adjacency)[0]

    def test_timeout_result(self):
        token = CancelToken()
        token.cancel()
        result = mbd_exact(fig_graph(), cancel=token)
        assert result.status == "timeout"
        assert result.deletion is None and result.k is None
        assert result.lower_bound == 0

    def test_timeout_mid_run_reports_proven_lower_bound(self):
        # all-negative K8: subdivision leaves K8 itself, optimum 6
        g = SignedGraph.from_edges(8, [(u, v, -1) for u, v in itertools.combinations(range(8), 2)])
        assert brute_force_mbd(g)[0] == 6
        result = mbd_exact(g, cancel=CancelAfter(6))
        assert result.status == "timeout"
        assert 0 < result.lower_bound <= 6
        assert mbd_exact(g).lower_bound == 6

    def test_matches_milp_above_brute_force_limit(self):
        # planted graphs beyond the 24-vertex oracle: the one growing-budget
        # pass must land on the integer program's optimum
        pytest.importorskip("scipy")
        rng = random.Random(61)
        for _ in range(10):
            n = rng.randint(30, 80)
            g = planted_graph(rng, n, n_edges=2 * n, n_bad=rng.randint(1, 6), sabotage=6)
            result = mbd_exact(g, cancel=CancelToken.after(60))
            assert result.status == "optimal"
            assert result.k == milp_mbd(g)
            kept = [v for v in range(g.n) if v not in result.deletion]
            assert is_balanced(induced_subgraph(g, kept)).balanced

    def test_k_max_exhausted_is_distinct(self):
        g = SignedGraph.from_edges(2, [(0, 1, 1), (0, 1, -1)])
        with pytest.raises(DeletionBudgetError):
            mbd_exact(g, k_max=0)

    def test_optimality_certificate(self):
        # sweeping upward means no smaller deletion can exist; cross-check by
        # trying all subsets one size below
        rng = random.Random(57)
        for _ in range(20):
            g = random_signed_graph(rng, n_max=9)
            result = mbd_exact(g)
            if result.k == 0:
                continue
            for combo in itertools.combinations(range(g.n), result.k - 1):
                kept = [v for v in range(g.n) if v not in combo]
                assert not is_balanced(induced_subgraph(g, kept)).balanced


def test_planted_instance_at_benchmark_scale():
    # balanced backbone plus a handful of saboteur vertices whose removal
    # restores balance: the optimum is at most the number of saboteurs, and
    # each separator graph here has several thousand flow arcs
    rng = random.Random(33)
    n, n_bad = 150, 6
    graph = planted_graph(rng, n, 1200, n_bad)
    result = mbd_exact(graph, cancel=CancelToken.after(120))
    assert result.status == "optimal"
    assert result.k <= n_bad
    kept = [v for v in range(n) if v not in result.deletion]
    assert is_balanced(induced_subgraph(graph, kept)).balanced
    rerun = mbd_exact(graph, cancel=CancelToken.after(120))
    assert rerun.deletion == result.deletion


class TestVertexCover:
    def test_edgeless(self):
        assert vertex_cover([[], [], []], 0) == set()

    def test_star(self):
        adj = [[1, 2, 3], [0], [0], [0]]
        assert vertex_cover(adj, 1) == {0}

    def test_five_cycle(self):
        adj = odd_cycle(5)
        assert vertex_cover(adj, 2) is None
        cover = vertex_cover(adj, 3)
        assert cover is not None and len(cover) <= 3

    def test_matches_brute_force(self):
        rng = random.Random(58)
        for _ in range(60):
            adj = simple_adjacency(rng, n_max=9, p=0.4)
            n = len(adj)
            edges = [(u, v) for u in range(n) for v in adj[u] if v > u]
            best = next(
                size
                for size in range(n + 1)
                for combo in itertools.combinations(range(n), size)
                if all(u in combo or v in combo for u, v in edges)
            )
            for k in range(n + 1):
                cover = vertex_cover(adj, k)
                if k < best:
                    assert cover is None
                else:
                    assert cover is not None and len(cover) <= k
                    assert all(u in cover or v in cover for u, v in edges)
                    break

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            vertex_cover([[1], [0]], -1)


class TestOracles:
    def test_balanced(self):
        g = random_balanced_graph(random.Random(59))
        assert brute_force_mbd(g) == (0, set())

    def test_fig_graph_unique_optimum(self):
        assert brute_force_mbd(fig_graph()) == (1, {3})

    def test_parallel_pair(self):
        g = SignedGraph.from_edges(2, [(0, 1, 1), (0, 1, -1)])
        k, removed = brute_force_mbd(g)
        assert k == 1 and removed <= {0, 1}

    def test_oct_small(self):
        assert brute_force_oct([[1], [0, 2], [1]]) == (0, set())
        k, removed = brute_force_oct(complete(3))
        assert k == 1 and len(removed) == 1
        assert brute_force_oct(complete(4))[0] == 2

    def test_size_guard(self):
        with pytest.raises(ValueError):
            brute_force_oct([[] for _ in range(25)])
