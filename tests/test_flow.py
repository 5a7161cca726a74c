from __future__ import annotations

import random

import pytest

from helpers import brute_force_separator, scipy_separator_size, simple_adjacency
from refnet.flow import SeparatorSolver


def components_after(adjacency, removed):
    n = len(adjacency)
    seen = [False] * n
    comps = []
    for start in range(n):
        if start in removed or seen[start]:
            continue
        comp = set()
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.add(v)
            for u in adjacency[v]:
                if u not in removed and not seen[u]:
                    seen[u] = True
                    stack.append(u)
        comps.append(comp)
    return comps


def is_separator(adjacency, sources, sinks, removed):
    sources, sinks = set(sources), set(sinks)
    return all(
        not (comp & sources and comp & sinks)
        for comp in components_after(adjacency, set(removed))
    )


def minimum_cut(adjacency, sources, sinks) -> int:
    """Size of the first separator the solver finds as the limit rises."""
    solver = SeparatorSolver(len(adjacency), adjacency)
    for limit in range(len(adjacency) + 1):
        cut = solver.solve(sources, sinks, limit)
        if cut is not None:
            assert len(cut) <= limit
            assert is_separator(adjacency, sources, sinks, cut)
            return len(cut)
    raise AssertionError("removing every vertex always separates")


class TestSeparator:
    def test_path_cut(self):
        adj = [[1], [0, 2], [1, 3], [2]]
        cut = SeparatorSolver(4, adj).solve([0], [3], 1)
        assert cut is not None and len(cut) == 1
        assert is_separator(adj, [0], [3], cut)

    def test_limit_too_small(self):
        # deleting the lone source is itself a size-1 separator
        adj = [[1, 2], [0, 3], [0, 3], [1, 2]]
        assert SeparatorSolver(4, adj).solve([0], [3], 0) is None
        cut = SeparatorSolver(4, adj).solve([0], [3], 1)
        assert cut is not None and len(cut) == 1

    def test_two_by_two_terminals_need_two(self):
        # sources {0,1}, sinks {2,3}, a perfect matching of disjoint links
        adj = [[2], [3], [0], [1]]
        assert SeparatorSolver(4, adj).solve([0, 1], [2, 3], 1) is None
        cut = SeparatorSolver(4, adj).solve([0, 1], [2, 3], 2)
        assert cut is not None and len(cut) == 2

    def test_overlapping_terminal_forced(self):
        adj = [[1], [0]]
        cut = SeparatorSolver(2, adj).solve([0], [0, 1], 1)
        assert cut == [0]

    def test_terminals_may_be_cut(self):
        # star: center 0, leaves sources/sinks
        adj = [[1, 2, 3], [0], [0], [0]]
        cut = SeparatorSolver(4, adj).solve([1, 2], [3], 1)
        assert cut == [0] or (len(cut) == 1 and is_separator(adj, [1, 2], [3], cut))

    def test_no_terminals(self):
        adj = [[1], [0]]
        assert SeparatorSolver(2, adj).solve([], [], 0) == []

    def test_negative_limit(self):
        assert SeparatorSolver(2, [[1], [0]]).solve([0], [1], -1) is None

    def test_matches_brute_force(self):
        rng = random.Random(40)
        for _ in range(50):
            adj = simple_adjacency(rng, n_max=8, p=0.4)
            n = len(adj)
            sources = [v for v in range(n) if rng.random() < 0.3]
            sinks = [v for v in range(n) if rng.random() < 0.3]
            best = brute_force_separator(adj, sources, sinks)
            assert minimum_cut(adj, sources, sinks) == best, (adj, sources, sinks)

    def test_matches_scipy_max_flow_on_larger_graphs(self):
        pytest.importorskip("scipy")
        rng = random.Random(41)
        for _ in range(10):
            adj = simple_adjacency(rng, n_max=40, p=0.15)
            n = len(adj)
            sources = [v for v in range(n) if rng.random() < 0.2]
            sinks = [v for v in range(n) if rng.random() < 0.2]
            expected = scipy_separator_size(adj, sources, sinks)
            assert minimum_cut(adj, sources, sinks) == expected

    def test_reusable_solver(self):
        adj = [[1], [0, 2], [1]]
        solver = SeparatorSolver(3, adj)
        first = solver.solve([0], [2], 1)
        assert first is not None and len(first) == 1
        assert is_separator(adj, [0], [2], first)
        middle = solver.solve([0], [1], 1)
        assert middle is not None and is_separator(adj, [0], [1], middle)
        assert solver.solve([0], [2], 1) == first  # unchanged after reuse

    def test_grown_residual_matches_fresh_solve(self):
        # terminals only ever grow on one residual, as in the compression
        # search; each step must answer exactly as a flow from zero does,
        # also after a step whose flow overshot its limit
        rng = random.Random(42)
        for _ in range(60):
            adj = simple_adjacency(rng, n_max=9, p=0.4)
            n = len(adj)
            solver = SeparatorSolver(n, adj)
            residual = solver.residual()
            sources: set[int] = set()
            sinks: set[int] = set()
            for _ in range(4):
                sources |= {v for v in range(n) if rng.random() < 0.2}
                sinks |= {v for v in range(n) if rng.random() < 0.2}
                limit = rng.randint(0, n)
                grown = solver.solve(sorted(sources), sorted(sinks), limit, residual)
                fresh = solver.solve(sorted(sources), sorted(sinks), limit)
                assert grown == fresh, (adj, sources, sinks, limit)
                best = brute_force_separator(adj, sources, sinks)
                if best > limit:
                    assert fresh is None
                else:
                    assert fresh is not None and len(fresh) == best
                    assert fresh == sorted(fresh)
                    assert is_separator(adj, sources, sinks, fresh)


class TestClosedVertices:
    def test_closed_vertex_on_the_only_path(self):
        # in(1) is reached from the source, but the closed vertex carries no
        # flow, so it is no part of the separator.
        adj = [[1], [0, 2], [1]]
        solver = SeparatorSolver(3, adj)
        solver.close(1)
        assert solver.solve([0], [2], 0) == []
        solver.open(1)
        assert solver.solve([0], [2], 0) is None
        assert solver.solve([0], [2], 1) == [0]  # the cut nearest the source

    def test_matches_fresh_solve_on_the_open_subgraph(self):
        rng = random.Random(43)
        bordered = 0
        for _ in range(80):
            adj = simple_adjacency(rng, n_max=10, p=0.4)
            n = len(adj)
            closed = {v for v in range(n) if rng.random() < 0.3}
            kept = [v for v in range(n) if v not in closed]
            index = {v: i for i, v in enumerate(kept)}
            sub_adj = [[index[u] for u in adj[v] if u in index] for v in kept]
            solver = SeparatorSolver(n, adj)
            for v in closed:
                solver.close(v)
            sub_solver = SeparatorSolver(len(kept), sub_adj)
            residual = solver.residual()
            sources: set[int] = set()
            sinks: set[int] = set()
            for _ in range(3):
                sources |= {v for v in kept if rng.random() < 0.25}
                sinks |= {v for v in kept if rng.random() < 0.25}
                limit = rng.randint(0, len(kept))
                fresh = sub_solver.solve(
                    sorted(index[v] for v in sources), sorted(index[v] for v in sinks), limit
                )
                expected = None if fresh is None else [kept[i] for i in fresh]
                assert solver.solve(sorted(sources), sorted(sinks), limit) == expected
                assert solver.solve(sorted(sources), sorted(sinks), limit, residual) == expected
            # A closed vertex next to a source borders the reachable region.
            bordered += any(u in closed for v in sources for u in adj[v])
        assert bordered > 20
