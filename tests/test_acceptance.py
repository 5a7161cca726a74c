"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to watch them).

Criteria 5-7 replay published per-instance optima on ten small Netlib LP
files.  The files are not redistributable here and this sandbox cannot reach
the network, so those tests look for the instances in ``$NETLIB_LP_DIR`` or
``tests/data/netlib/`` and skip, per instance, when absent.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from helpers import (
    brute_force_oct,
    matrix_realizing,
    random_balanced_graph,
    random_signed_graph,
)
from refnet.exact import (
    CancelToken,
    brute_force_mbd,
    mbd_exact,
    odd_cycle_transversal,
)
from refnet.matrix_io import is_network_matrix, parse_mps
from refnet.scaling import scale
from refnet.sga import sga, sga_repeat, sga_vc
from refnet.signed_graph import (
    SignedGraph,
    build_signed_graph,
    extract_network,
    induced_subgraph,
    is_balanced,
)

TABLE_OPTIMA = {
    "AFIRO": 0,
    "ADLITTLE": 1,
    "BLEND": 1,
    "BEACONFD": 3,
    "SC50A": 8,
    "SC50B": 6,
    "SHARE2B": 6,
    "BRANDY": 6,
    "ISRAEL": 8,
    "STAIR": 8,
}

NINE_CONFIGS = [
    (series, repeats, strategy)
    for series, repeats in (("SGA", 1), ("SGA3", 3), ("SGA80", 80))
    for strategy in ("RS", "BFS", "DFS")
]


@contextmanager
def criterion(label: str):
    try:
        yield
    except pytest.skip.Exception:
        print(f"ACCEPTANCE {label}: SKIPPED", flush=True)
        raise
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {label}: PASS", flush=True)


def netlib_dir() -> Path | None:
    env = os.environ.get("NETLIB_LP_DIR")
    candidates = []
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).parent / "data" / "netlib")
    for candidate in candidates:
        if candidate.is_dir():
            return candidate
    return None


def find_instance(name: str) -> Path | None:
    directory = netlib_dir()
    if directory is None:
        return None
    stems = {name.lower(), name.upper(), name}
    for path in sorted(directory.iterdir()):
        if path.is_file() and (path.stem in stems or path.name in stems):
            return path
    return None


def load_pipeline_graph(path: Path) -> SignedGraph:
    matrix = scale(parse_mps(path.read_bytes()))
    return build_signed_graph(matrix)


def sample_graph(rng: random.Random, force_parallel: bool) -> SignedGraph:
    graph = random_signed_graph(rng, n_max=12, p_edge=0.3, p_sign=0.5, p_parallel=0.15)
    if force_parallel and graph.n >= 2:
        edges = list(graph.edges)
        if edges:
            u, v, s = edges[rng.randrange(len(edges))]
            edges.append((u, v, -s))
        else:
            edges = [(0, 1, 1), (0, 1, -1)]
        graph = SignedGraph.from_edges(graph.n, edges)
    return graph


def test_criterion_1_mbd_oracle_equivalence():
    with criterion("criterion 1 (exact deletion size matches the brute-force oracle, 300 graphs, <2 min)"):
        rng = random.Random(101)
        started = time.perf_counter()
        for trial in range(300):
            graph = sample_graph(rng, force_parallel=trial % 4 == 0)
            expected, _ = brute_force_mbd(graph)
            result = mbd_exact(graph)
            assert result.status == "optimal"
            assert result.k == expected, f"trial {trial}: {result.k} != {expected}"
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"suite took {elapsed:.1f}s"


def test_criterion_2_oct_oracle_equivalence():
    with criterion("criterion 2 (transversal size matches the brute-force oracle plus closed forms)"):
        rng = random.Random(102)
        for trial in range(300):
            n = rng.randint(1, 12)
            adjacency: list[list[int]] = [[] for _ in range(n)]
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.3:
                        adjacency[u].append(v)
                        adjacency[v].append(u)
            expected, _ = brute_force_oct(adjacency)
            for k in range(n + 1):
                found = odd_cycle_transversal(adjacency, k)
                if found is not None:
                    assert k == expected and len(found) <= k
                    break
        for n in range(3, 8):
            complete = [[u for u in range(n) if u != v] for v in range(n)]
            assert odd_cycle_transversal(complete, n - 3) is None
            assert odd_cycle_transversal(complete, n - 2) is not None
        for m in range(1, 6):
            n = 2 * m + 1
            ring = [sorted(((v - 1) % n, (v + 1) % n)) for v in range(n)]
            assert odd_cycle_transversal(ring, 0) is None
            assert odd_cycle_transversal(ring, 1) is not None


def test_criterion_3_soundness_of_all_configurations():
    with criterion("criterion 3 (1000 graphs x 9 configurations retain balanced sets that extract to networks)"):
        rng = random.Random(103)
        for trial in range(1000):
            graph = random_signed_graph(
                rng, n_max=10, p_edge=0.3, p_sign=0.5, p_parallel=0.1
            )
            matrix = matrix_realizing(graph)
            for _, repeats, strategy in NINE_CONFIGS:
                result = sga_repeat(graph, repeats, strategy, seed=trial)
                assert is_balanced(induced_subgraph(graph, result.retained)).balanced
                network, _ = extract_network(matrix, result.retained)
                assert is_network_matrix(network)


def test_criterion_4_balanced_inputs_fully_retained():
    with criterion("criterion 4 (balanced graphs: every strategy keeps all vertices; exact finds zero)"):
        rng = random.Random(104)
        for trial in range(200):
            graph = random_balanced_graph(rng, n_max=12)
            for strategy in ("RS", "BFS", "DFS"):
                result = sga(graph, strategy, random.Random(trial))
                assert result.retained == tuple(range(graph.n))
                assert result.k == 0
            assert mbd_exact(graph).k == 0


@pytest.mark.parametrize("name,expected", sorted(TABLE_OPTIMA.items()))
def test_criterion_5_published_optima(name, expected):
    with criterion(f"criterion 5 [{name}] (pipeline reproduces published optimum k={expected} within 60 s)"):
        path = find_instance(name)
        if path is None:
            pytest.skip(
                f"Netlib instance {name} not available: this sandbox has no network "
                "access and no redistributable copy; place the MPS file in "
                "$NETLIB_LP_DIR or tests/data/netlib/ to enable this check"
            )
        graph = load_pipeline_graph(path)
        result = mbd_exact(graph, cancel=CancelToken.after(60.0))
        assert result.status == "optimal", f"{name} timed out after 60 s"
        assert result.k == expected, (
            f"{name}: computed k={result.k}, published k={expected}; if the gap "
            "is reproducible, check the scaling pass order notes in the README"
        )


def _criterion_5_graphs():
    graphs = {}
    for name in TABLE_OPTIMA:
        path = find_instance(name)
        if path is None:
            pytest.skip(
                "criteria 6-7 need all ten Netlib instances; none/some are "
                "available in this environment (no network access)"
            )
        graphs[name] = load_pipeline_graph(path)
    return graphs


def test_criterion_6_best_heuristic_hits_optimum():
    with criterion("criterion 6 (80-repeat DFS heuristic matches the optimum on at least 8 of 10 instances)"):
        graphs = _criterion_5_graphs()
        hits = 0
        for name, expected in TABLE_OPTIMA.items():
            result = sga_repeat(graphs[name], 80, "DFS", seed=1)
            if result.k == expected:
                hits += 1
        assert hits >= 8, f"only {hits} of 10 optima matched"


def test_criterion_7_strategy_ordering():
    with criterion("criterion 7 (80-repeat means: DFS <= RS and DFS <= BFS over the instance set)"):
        graphs = _criterion_5_graphs()
        means = {}
        for strategy in ("RS", "BFS", "DFS"):
            ks = [sga_repeat(graphs[name], 80, strategy, seed=1).k for name in TABLE_OPTIMA]
            means[strategy] = sum(ks) / len(ks)
        assert means["DFS"] <= means["RS"]
        assert means["DFS"] <= means["BFS"]


def test_criterion_8_exact_cover_never_worse():
    with criterion("criterion 8 (exact-cover variant retains at least as much as greedy on the same forest)"):
        rng = random.Random(108)
        for trial in range(200):
            graph = random_signed_graph(rng, n_max=10)
            strategy = ("RS", "BFS", "DFS")[trial % 3]
            greedy = sga(graph, strategy, random.Random(trial))
            exact = sga_vc(graph, strategy, random.Random(trial))
            assert len(exact.retained) >= len(greedy.retained)


def test_criterion_9_benchmark_determinism(tmp_path, capsys):
    with criterion("criterion 9 (repeated benchmark runs with one seed emit identical k columns)"):
        import csv as csv_mod

        from refnet.cli import main
        from refnet.matrix_io import dump_coord

        directory = tmp_path / "instances"
        directory.mkdir()
        rng = random.Random(109)
        for i in range(4):
            graph = random_signed_graph(rng, n_max=10, n_min=5)
            (directory / f"inst{i}.coord").write_text(
                dump_coord(matrix_realizing(graph))
            )
        runs = []
        for _ in range(2):
            assert main(["bench", str(directory), "--timeout", "60", "--seed", "3"]) == 0
            runs.append(capsys.readouterr().out)
        tables = [list(csv_mod.reader(text.splitlines())) for text in runs]
        header = tables[0][0]
        timing = {header.index("t"), header.index("t1")}
        cleaned = [
            [[cell for i, cell in enumerate(row) if i not in timing] for row in table]
            for table in tables
        ]
        assert cleaned[0] == cleaned[1]
