"""Connected components split the optimum and the identity-order pass.

On a disjoint union of signed graphs, the minimum balanced deletion is the
sum of the parts' minima, and one BFS or DFS pass in the identity order
keeps on each part exactly what the pass on that part alone keeps.  A
solver or a heuristic that works one component at a time may rely on both.
RS is left out: its one random stream is shared across components.
"""

from __future__ import annotations

import random

import pytest

from helpers import random_signed_graph
from refnet.exact import mbd_exact
from refnet.sga import sga
from refnet.signed_graph import SignedGraph


def disjoint_union(parts: list[SignedGraph]) -> tuple[SignedGraph, list[int]]:
    """The parts side by side, and the id offset of each part's vertices."""
    offsets, edges, n = [], [], 0
    for g in parts:
        offsets.append(n)
        edges += [(u + n, v + n, sign) for u, v, sign in g.edges]
        n += g.n
    return SignedGraph.from_edges(n, edges), offsets


def unions(seed: int, trials: int = 60):
    rng = random.Random(seed)
    for _ in range(trials):
        parts = [random_signed_graph(rng) for _ in range(rng.randint(2, 3))]
        yield (parts, *disjoint_union(parts))


def shifted(sets, offsets) -> list[int]:
    return sorted(v + off for vertices, off in zip(sets, offsets) for v in vertices)


def test_optimum_is_the_sum_over_parts():
    for parts, union, _ in unions(80):
        result = mbd_exact(union)
        assert result.status == "optimal"
        assert result.k == sum(mbd_exact(g).k for g in parts)


@pytest.mark.parametrize("strategy", ["BFS", "DFS"])
def test_identity_pass_splits_over_parts(strategy):
    for parts, union, offsets in unions(81):
        alone = [sga(g, strategy) for g in parts]
        whole = sga(union, strategy)
        assert list(whole.retained) == shifted([r.retained for r in alone], offsets)
        assert sorted(whole.reflection) == shifted([r.reflection for r in alone], offsets)
