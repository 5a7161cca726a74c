"""Golden heuristic outputs, pinned across commits.

The determinism contract (sub-seed s + i, identity first repetition,
ascending traversals) makes every heuristic result a pure function of the
graph, the strategy, the repetition count and the seed.  These values were
recorded once; a refactor of the heuristic layer must reproduce them exactly.
Each entry is ``k`` plus the first 16 hex digits of the sha256 of
``repr((retained, sorted(reflection)))``.

Run ``python tests/test_golden.py`` to print the current values.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from refnet.sga import sga_repeat, sga_vc
from refnet.signed_graph import SignedGraph


def dense_graph() -> SignedGraph:
    """One 70-vertex random signed graph with some parallel +/- pairs."""
    rng = random.Random(2024)
    edges = []
    for u in range(70):
        for v in range(u + 1, 70):
            if rng.random() < 0.07:
                sign = rng.choice((1, -1))
                edges.append((u, v, sign))
                if rng.random() < 0.1:
                    edges.append((u, v, -sign))
    return SignedGraph.from_edges(70, edges)


def fragmented_graph() -> SignedGraph:
    """Forty small components (paths, stars, cycles, cliques) on shuffled labels.

    Many vertices share a degree, so BFS root choice and greedy tie-breaking
    both matter, and every forest restarts dozens of times.
    """
    rng = random.Random(4048)
    edges = []
    n = 0
    for _ in range(40):
        size = rng.randint(1, 6)
        verts = list(range(n, n + size))
        n += size
        shape = rng.choice(("path", "star", "cycle", "clique"))
        if shape == "path":
            pairs = list(zip(verts, verts[1:]))
        elif shape == "star":
            pairs = [(verts[0], v) for v in verts[1:]]
        elif shape == "cycle":
            pairs = list(zip(verts, verts[1:] + verts[:1])) if size >= 3 else []
        else:
            pairs = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1:]]
        for a, b in pairs:
            sign = rng.choice((1, -1))
            edges.append((a, b, sign))
            if rng.random() < 0.15:
                edges.append((a, b, -sign))
    labels = list(range(n))
    rng.shuffle(labels)
    return SignedGraph.from_edges(n, [(labels[a], labels[b], s) for a, b, s in edges])


GRAPHS = {"dense": dense_graph, "fragmented": fragmented_graph}


def digest(result) -> tuple[int, str]:
    text = repr((result.retained, sorted(result.reflection)))
    return result.k, hashlib.sha256(text.encode()).hexdigest()[:16]


def compute(graph_name: str, config: str) -> tuple[int, str]:
    graph = GRAPHS[graph_name]()
    if config == "VC_DFS":
        return digest(sga_vc(graph, "DFS", random.Random(1)))
    strategy, repeats = config.split("x")
    return digest(sga_repeat(graph, int(repeats), strategy, seed=1))


CONFIGS = [f"{s}x{r}" for s in ("RS", "BFS", "DFS") for r in (1, 3, 80)] + ["VC_DFS"]

GOLDEN = {
    ('dense', 'RSx1'): (25, 'b92b6f8d7bb119df'),
    ('dense', 'RSx3'): (24, '4eef2d79e3160c7a'),
    ('dense', 'RSx80'): (20, '37c113dd29500ea3'),
    ('dense', 'BFSx1'): (23, '301633b13d4687df'),
    ('dense', 'BFSx3'): (23, '301633b13d4687df'),
    ('dense', 'BFSx80'): (20, '31d23ffae4056cde'),
    ('dense', 'DFSx1'): (26, 'c2dad6458967df96'),
    ('dense', 'DFSx3'): (24, '03ffa3f37b655267'),
    ('dense', 'DFSx80'): (22, '31ca8a6bd01c8e83'),
    ('dense', 'VC_DFS'): (26, '828916a0db422a1c'),
    ('fragmented', 'RSx1'): (32, '3be85fed2093baa7'),
    ('fragmented', 'RSx3'): (30, 'f035532a22888463'),
    ('fragmented', 'RSx80'): (29, '2e4929d80d0dfc99'),
    ('fragmented', 'BFSx1'): (31, 'cfdf0a96b03990f2'),
    ('fragmented', 'BFSx3'): (29, 'dc97c9c06cf9be07'),
    ('fragmented', 'BFSx80'): (29, 'dc97c9c06cf9be07'),
    ('fragmented', 'DFSx1'): (30, '1152c219aa58a838'),
    ('fragmented', 'DFSx3'): (30, '1152c219aa58a838'),
    ('fragmented', 'DFSx80'): (29, '3535084bbbd57434'),
    ('fragmented', 'VC_DFS'): (30, '1f84591afa91e68a'),
}


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("config", CONFIGS)
def test_golden(graph_name, config):
    assert compute(graph_name, config) == GOLDEN[(graph_name, config)]


if __name__ == "__main__":
    for name in sorted(GRAPHS):
        for config in CONFIGS:
            print(f"    ({name!r}, {config!r}): {compute(name, config)!r},")
