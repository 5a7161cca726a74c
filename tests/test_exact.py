from __future__ import annotations

import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import (
    brute_force_oct,
    frustrated_graph,
    is_bipartite_without,
    milp_mbd,
    planted_graph,
    random_balanced_graph,
    random_signed_graph,
    simple_adjacency,
)
import refnet.exact as exact_module
from refnet.exact import (
    CancelToken,
    OperationCancelled,
    brute_force_mbd,
    mbd_exact,
    odd_cycle_transversal,
    subdivide_positive,
    vertex_cover,
)
from refnet.flow import SeparatorSolver
from refnet.signed_graph import (
    NEG,
    POS,
    SignedGraph,
    disjoint_unbalanced_cycles,
    induced_subgraph,
    is_balanced,
)


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


SRC = Path(__file__).resolve().parent.parent / "src"

OPTIMIZED_SCRIPT = """
import json
from refnet import exact
from refnet.flow import SeparatorSolver
from refnet.signed_graph import SignedGraph

triangle = [[1, 2], [0, 2], [0, 1]]
negative_triangle = SignedGraph.from_edges(3, [(0, 1, -1), (0, 2, -1), (1, 2, -1)])
plus_minus_pair = SignedGraph.from_edges(2, [(0, 1, 1), (0, 1, -1)])

def run(call):
    try:
        call()
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    return None

def false_flow():
    solver = SeparatorSolver(2, [[1], [0]])
    residual = solver.residual()
    residual[solver._src_arc[0] ^ 1] = 1  # a unit of flow on no path to a sink
    solver.solve([0], [], 5, residual)

out = {
    "debug": __debug__,
    # An empty transversal leaves the triangle, or a +/- pair, for the
    # reference labelling.
    "coloring": run(lambda: exact._compress_transversal(
        negative_triangle, SeparatorSolver(3, triangle), 3, [], 0, None, {})),
    "pair": run(lambda: exact._compress_transversal(
        plus_minus_pair, SeparatorSolver(2, [[1], [0]]), 2, [], 0, None, {})),
    "separator": run(false_flow),
}
exact._compress_transversal = lambda *args: set()
out["compression"] = run(lambda: exact.odd_cycle_transversal(triangle, 3))
print(json.dumps(out))
"""


def test_invariant_checks_survive_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out.pop("debug") is False
    assert out == {
        "coloring": ["RuntimeError", "transversal invariant broken"],
        "pair": ["RuntimeError", "transversal invariant broken"],
        "separator": ["RuntimeError", "separator size differs from the maximum flow"],
        "compression": ["RuntimeError", "compressed transversal must leave a balanced graph"],
    }


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
        # The same transversal on a rerun, and from neighbour lists that are
        # shuffled and list some neighbours more than once.
        rng = random.Random(53)
        shuffler = random.Random(54)
        for _ in range(40):
            adj = simple_adjacency(rng, n_max=16)
            k = min_oct(adj)
            sol = odd_cycle_transversal(adj, k)
            assert odd_cycle_transversal(adj, k) == sol
            messy = []
            for nbrs in adj:
                row = nbrs + shuffler.choices(nbrs, k=shuffler.randint(0, len(nbrs)))
                shuffler.shuffle(row)
                messy.append(row)
            stats = {}
            assert odd_cycle_transversal(messy, len(adj), stats=stats) == sol
            assert stats["lower_bound"] == k
            if k:
                assert odd_cycle_transversal(messy, k - 1) is None

    def test_cancellation(self):
        token = CancelToken()
        token.cancel()
        with pytest.raises(OperationCancelled):
            odd_cycle_transversal(complete(8), 3, cancel=token)

    def test_cancellation_is_prompt_inside_a_long_compression(self):
        # pruning makes leaves rare, so the search polls per 64 flow runs; on
        # a 60-vertex G(n, 0.12) graph the 51st poll falls inside the
        # compression at budget 9, and a deadline anywhere in the run would
        # be seen within the longest gap between two polls
        rng = random.Random(7)
        adj = [[] for _ in range(60)]
        for u, v in itertools.combinations(range(60), 2):
            if rng.random() < 0.12:
                adj[u].append(v)
                adj[v].append(u)
        polled = [time.monotonic()]

        class TimedCancelAfter(CancelAfter):
            def expired(self) -> bool:
                polled.append(time.monotonic())
                return super().expired()

        stats = {}
        with pytest.raises(OperationCancelled) as err:
            odd_cycle_transversal(adj, 60, TimedCancelAfter(50), stats)
        assert any(entry.name == "_compress_transversal" for entry in err.traceback)
        assert len(polled) == 52
        assert max(b - a for a, b in zip(polled, polled[1:])) < 1.7
        assert stats["lower_bound"] == 9

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError, match="k must be non-negative"):
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

    def test_matches_subdivided_bipartization_above_brute_force_limit(self):
        # beyond the 24-vertex oracle and without scipy: the signed solver
        # agrees with plain bipartization of the subdivided graph, on planted
        # graphs and on random ones where many pairs carry both signs
        rng = random.Random(62)
        graphs = []
        for _ in range(10):
            n = rng.randint(30, 80)
            graphs.append(planted_graph(rng, n, n_edges=2 * n, n_bad=rng.randint(1, 6), sabotage=6))
        for _ in range(10):
            graphs.append(random_signed_graph(rng, n_max=40, p_edge=0.08, p_parallel=0.4, n_min=25))
        assert sum(m == POS | NEG for g in graphs for _, _, m in g.pairs) > 50
        for g in graphs:
            sub = subdivide_positive(g)
            assert mbd_exact(g).k == len(odd_cycle_transversal(sub.adjacency, sub.n))

    def test_timeout_result(self):
        token = CancelToken()
        token.cancel()
        result = mbd_exact(fig_graph(), cancel=token)
        assert result.status == "timeout"
        assert result.deletion is None and result.k is None
        # no budget was reached; the +/- pair is a disjoint unbalanced cycle
        assert result.lower_bound == 1

    def test_timeout_mid_run_reports_proven_lower_bound(self):
        # all-negative K8: balancing it is bipartizing K8, optimum 6
        g = SignedGraph.from_edges(8, [(u, v, -1) for u, v in itertools.combinations(range(8), 2)])
        assert brute_force_mbd(g)[0] == 6
        result = mbd_exact(g, cancel=CancelAfter(6))
        assert result.status == "timeout"
        assert 0 < result.lower_bound <= 6
        assert mbd_exact(g).lower_bound == 6

    def test_timeout_bound_is_the_larger_proven_bound(self):
        # Cancelled at several polls, a solve reports at least the disjoint
        # cycle packing and never more than the optimum: brute force on small
        # graphs, and on frustrated graphs the solver's own k, which
        # TestDisjointUnbalancedCycles checks against the integer program.
        rng = random.Random(64)
        cases = []
        for _ in range(30):
            g = random_signed_graph(rng, n_max=14, n_min=6)
            cases.append((g, brute_force_mbd(g)[0]))
        rng = random.Random(19)
        for i in range(6):
            n = rng.randint(40, 100)
            g = frustrated_graph(n, 3, n // 10, 1900 + i)
            cases.append((g, mbd_exact(g).k))

        class CountingToken(CancelToken):
            polls = 0

            def expired(self) -> bool:
                self.polls += 1
                return False

        above_packing = 0
        for g, optimum in cases:
            packing = len(disjoint_unbalanced_cycles(g))
            counter = CountingToken()
            mbd_exact(g, cancel=counter)
            for j in sorted({0, 1, counter.polls // 3, 2 * counter.polls // 3, counter.polls - 1}):
                result = mbd_exact(g, cancel=CancelAfter(j))
                assert result.status == "timeout"
                assert packing <= result.lower_bound <= optimum
                above_packing += result.lower_bound > packing
        assert above_packing > 0

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
        result = mbd_exact(g, k_max=0)
        assert result.status == "max-k-exhausted"
        assert result.deletion is None and result.k is None
        assert result.lower_bound == 1
        assert result.elapsed >= 0 and result.nodes_explored >= 0

    def test_k_max_exhausted_reports_the_packing_bound(self):
        # The budget reached is k_max + 1 = 1, but two disjoint +/- pairs
        # are two disjoint unbalanced cycles, as on a timeout.
        g = SignedGraph.from_edges(4, [(0, 1, 1), (0, 1, -1), (2, 3, 1), (2, 3, -1)])
        result = mbd_exact(g, k_max=0)
        assert result.status == "max-k-exhausted"
        assert result.lower_bound == 2
        assert mbd_exact(g, k_max=2).k == 2

    def test_negative_k_max_raises(self):
        # Rejected before any work, on a balanced graph (which would need no
        # deletion) and an unbalanced one alike, as odd_cycle_transversal
        # rejects a negative k.
        for g in (random_balanced_graph(random.Random(54)), fig_graph()):
            with pytest.raises(ValueError, match="k must be non-negative"):
                mbd_exact(g, k_max=-1)

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


def test_one_flow_network_per_solve(monkeypatch):
    # Every compression of one solve shares a single flow network.
    built = []
    init = SeparatorSolver.__init__

    def counting(self, n, adjacency):
        built.append(n)
        init(self, n, adjacency)

    monkeypatch.setattr(SeparatorSolver, "__init__", counting)
    rng = random.Random(34)
    for _ in range(5):
        n = rng.randint(40, 80)
        g = planted_graph(rng, n, n_edges=2 * n, n_bad=rng.randint(2, 6), sabotage=6)
        built.clear()
        result = mbd_exact(g)
        assert result.k >= 2 and result.nodes_explored > 0  # it compressed
        assert built == [g.n]
        built.clear()
        odd_cycle_transversal(simple_adjacency(rng, n_max=20, p=0.4), 20)
        assert len(built) == 1


def test_every_compression_starts_one_over_its_budget(monkeypatch):
    # Between insertions the transversal holds exactly the proven lower
    # bound, so each compression gets budget + 1 vertices, and a success
    # never returns fewer than the budget.
    calls = []
    compress = exact_module._compress_transversal

    def checked(graph, solver, upto, transversal, budget, cancel, stats):
        result = compress(graph, solver, upto, transversal, budget, cancel, stats)
        calls.append((len(transversal), budget, None if result is None else len(result)))
        return result

    monkeypatch.setattr(exact_module, "_compress_transversal", checked)
    rng = random.Random(35)
    for _ in range(10):
        n = rng.randint(30, 80)
        mbd_exact(planted_graph(rng, n, n_edges=2 * n, n_bad=rng.randint(1, 6), sabotage=6))
    for seed in range(6):
        n = rng.randint(40, 100)
        mbd_exact(frustrated_graph(n, 3, n // 10, seed))
    for _ in range(30):
        adjacency = simple_adjacency(rng, n_max=16, p=0.35)
        odd_cycle_transversal(adjacency, len(adjacency))
    assert all(size == budget + 1 for size, budget, _ in calls)
    assert all(found in (None, budget) for _, budget, found in calls)
    assert {found is None for _, _, found in calls} == {True, False}


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


NO_MINIMUM_COVER_HOLDS_THE_PIVOT = [
    [[2, 3], [2, 3, 5], [0, 1, 4], [0, 1, 5], [2, 5], [1, 3, 4]],
    [[3, 6], [2, 3, 6], [1, 3, 5], [0, 1, 2], [], [2, 6], [0, 1, 5]],
]


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
        inputs = [simple_adjacency(rng, n_max=9, p=0.4) for _ in range(60)]
        # Taking the first maximum-degree vertex gives a cover, not a minimum one.
        inputs += NO_MINIMUM_COVER_HOLDS_THE_PIVOT
        for _ in range(40):
            # Several components and isolated vertices, ids shuffled together.
            parts = [simple_adjacency(rng, n_max=4, p=0.6) for _ in range(rng.randint(2, 3))]
            parts += [[[]] for _ in range(rng.randint(0, 2))]
            edges, n = [], 0
            for part in parts:
                edges += [(n + u, n + v) for u in range(len(part)) for v in part[u] if v > u]
                n += len(part)
            ids = rng.sample(range(n), n)
            adj = [[] for _ in range(n)]
            for u, v in edges:
                adj[ids[u]].append(ids[v])
                adj[ids[v]].append(ids[u])
            inputs.append([sorted(row) for row in adj])
        for adj in inputs:
            n = len(adj)
            edges = [(u, v) for u in range(n) for v in adj[u] if v > u]
            best = next(
                size
                for size in range(n + 1)
                for combo in itertools.combinations(range(n), size)
                if all(u in combo or v in combo for u, v in edges)
            )
            covers = [vertex_cover(adj, k) for k in range(n + 1)]
            assert covers[:best] == [None] * best
            # A minimum cover, the same set for every k from the minimum up.
            cover = covers[best]
            assert cover is not None and len(cover) == best
            assert all(u in cover or v in cover for u, v in edges)
            assert all(c == cover for c in covers[best:])

    @pytest.mark.parametrize("adj", NO_MINIMUM_COVER_HOLDS_THE_PIVOT)
    def test_minimum_cover_without_the_pivot(self, adj):
        # No kernel rule fires and no minimum cover holds the first
        # maximum-degree vertex, so taking it fails and the search returns
        # through its other branch, which takes the whole neighbourhood.
        n = len(adj)
        pivot = max(range(n), key=lambda v: len(adj[v]))
        edges = [(u, v) for u in range(n) for v in adj[u] if v > u]
        minimum = [
            set(combo)
            for combo in itertools.combinations(range(n), 3)
            if all(u in combo or v in combo for u, v in edges)
        ]
        assert minimum and all(pivot not in c for c in minimum)
        assert vertex_cover(adj, 2) is None
        cover = vertex_cover(adj, 3)
        assert cover in minimum and set(adj[pivot]) <= cover

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            vertex_cover([[1], [0]], -1)


@pytest.mark.parametrize("solve", [odd_cycle_transversal, vertex_cover], ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "adjacency, message",
    [
        ([[5]], "vertex 0 lists 5, which is not a vertex id"),
        ([[1], [0, -1]], "vertex 1 lists -1, which is not a vertex id"),
        ([[0]], "vertex 0 lists itself"),
        # a triangle listed on one side only
        ([[1, 2], [2], []], "vertex 0 lists 1, but 1 does not list 0"),
    ],
    ids=["id-too-large", "id-negative", "loop", "one-sided-edge"],
)
def test_malformed_adjacency_raises(solve, adjacency, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        solve(adjacency, 5)


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
        with pytest.raises(ValueError, match="oracle limited to 24 vertices"):
            brute_force_mbd(SignedGraph.from_edges(25, []))
