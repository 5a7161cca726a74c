"""Spanning-forest heuristics for the maximum balanced induced subgraph.

One pass works in five steps: build the signed graph (done by the caller),
find a spanning forest, switch the vertex set that makes the forest
all-positive, take the subgraph induced by the remaining negative edges, and
keep a maximal independent set of it (everything untouched by negative edges
is kept as well).  Every retained set induces a balanced subgraph by
construction, and on a balanced input the whole vertex set is retained no
matter which forest was used.

Each pass checks its retained set against the forest's own switch set: one
scan over the edges between retained vertices, on the original signs,
raises :class:`RuntimeError` unless every such edge is positive after the
switch, and the same scan reads off the reflection.  The result a caller
gets from :func:`sga_repeat` is certified once more, independently, by
:func:`~refnet.signed_graph.is_balanced` on its induced subgraph.

Three forest strategies are provided -- random search, breadth-first and
depth-first -- plus a repetition wrapper that reruns the pass on pseudo-
randomly permuted vertices and keeps the best result, and a variant that
swaps the greedy independent-set step for an exact minimum vertex cover.

Reproducibility: all randomness flows through ``random.Random`` (Mersenne
Twister) instances; repetition i of a run with seed s uses the sub-seed
s + i, and the first repetition keeps the identity permutation.
"""

from __future__ import annotations

import heapq
import random
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from refnet.exact import vertex_cover
from refnet.signed_graph import (
    NEG,
    POS,
    SignedGraph,
    induced_subgraph,
    is_balanced,
)

STRATEGIES = ("RS", "BFS", "DFS")


class CoverBudgetError(RuntimeError):
    """The exact-cover sweep exhausted its budget without finding a cover."""


@dataclass(frozen=True)
class SpanningForest:
    """Rooted spanning forest with per-edge signs.

    ``parent[v]`` is -1 exactly for roots; ``parent_sign[v]`` is the sign of
    the tree edge to the parent (0 for roots).  For a +/- parallel pair the
    recorded sign is the one the traversal actually took.
    """

    n: int
    parent: tuple[int, ...]
    parent_sign: tuple[int, ...]
    roots: tuple[int, ...]

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """Tree edges as (child, parent, sign)."""
        return tuple(
            (v, self.parent[v], self.parent_sign[v])
            for v in range(self.n)
            if self.parent[v] != -1
        )


@dataclass(frozen=True)
class HeuristicResult:
    """Outcome of one heuristic configuration.

    ``retained`` induces a balanced subgraph of the input graph; ``k`` is
    the number of dropped vertices; ``reflection`` is the switch set of the
    retained subgraph (vertex ids of the input graph).
    """

    retained: tuple[int, ...]
    k: int
    reflection: frozenset[int]
    strategy: str
    repeats: int
    seed: int | None
    elapsed: float
    cover: str = "greedy"


def _attach_sign(mask: int) -> int:
    # A +/- parallel pair enters the forest through its positive edge; any
    # choice leaves the pair's negative 2-cycle for the independent-set step.
    return -1 if mask == NEG else 1


class _RankTree:
    """Fenwick tree over the set {0, ..., n-1}: removal and rank selection."""

    __slots__ = ("n", "tree")

    def __init__(self, n: int):
        self.n = n
        # Node i (1-based) counts the members in (i - lowbit(i), i].
        self.tree = [i & -i for i in range(n + 1)]

    def remove(self, v: int) -> None:
        tree, i = self.tree, v + 1
        while i <= self.n:
            tree[i] -= 1
            i += i & -i

    def select(self, rank: int) -> int:
        """The member with ``rank`` smaller members."""
        tree, i = self.tree, 0
        step = 1 << self.n.bit_length()
        while step:
            j = i + step
            if j <= self.n and tree[j] <= rank:
                i = j
                rank -= tree[j]
            step >>= 1
        return i


def forest_rs(graph: SignedGraph, rng: random.Random) -> SpanningForest:
    """Random-search forest.

    Marks a uniformly random vertex, then repeatedly attaches a uniformly
    random (marked, unmarked) adjacent pair; when no crossing pair is left
    it marks a fresh random vertex.  Pairs joined only by a +/- parallel
    couple are used (through the positive edge) only when no single-sign
    crossing pair exists.
    """
    n = graph.n
    marked = [False] * n
    parent = [-1] * n
    parent_sign = [0] * n
    roots: list[int] = []
    # Pending (unmarked, marked, sign) pairs; parallel couples wait apart.
    singles: list[tuple[int, int, int]] = []
    doubles: list[tuple[int, int, int]] = []

    # Restart roots are drawn by rank among the unmarked vertices, ascending.
    unmarked = _RankTree(n)

    def mark(v: int) -> None:
        marked[v] = True
        unmarked.remove(v)
        for u, m in zip(graph.neighbors[v], graph.masks[v]):
            if not marked[u]:
                pending = doubles if m == POS | NEG else singles
                pending.append((u, v, _attach_sign(m)))

    def draw(pool: list[tuple[int, int, int]]) -> tuple[int, int, int] | None:
        while pool:
            i = rng.randrange(len(pool))
            item = pool[i]
            pool[i] = pool[-1]
            pool.pop()
            if not marked[item[0]]:
                return item
        return None

    remaining = n
    while remaining:
        root = unmarked.select(rng.randrange(remaining))
        roots.append(root)
        mark(root)
        remaining -= 1
        while remaining:
            item = draw(singles) or draw(doubles)
            if item is None:
                break
            u, v, sign = item
            parent[u] = v
            parent_sign[u] = sign
            mark(u)
            remaining -= 1
    return SpanningForest(n, tuple(parent), tuple(parent_sign), tuple(roots))


def forest_bfs(graph: SignedGraph) -> SpanningForest:
    """Breadth-first forest; every restart picks an unmarked vertex of
    maximum degree (ties to the lowest index), neighbors scanned ascending."""
    n = graph.n
    marked = [False] * n
    parent = [-1] * n
    parent_sign = [0] * n
    roots: list[int] = []
    # A stable sort keeps ascending indices within each degree.
    for root in sorted(range(n), key=lambda v: -graph.degree(v)):
        if marked[root]:
            continue
        roots.append(root)
        marked[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u, m in zip(graph.neighbors[v], graph.masks[v]):
                if not marked[u]:
                    marked[u] = True
                    parent[u] = v
                    parent_sign[u] = _attach_sign(m)
                    queue.append(u)
    return SpanningForest(n, tuple(parent), tuple(parent_sign), tuple(roots))


def forest_dfs(graph: SignedGraph) -> SpanningForest:
    """Depth-first forest; restarts at the lowest unmarked index, neighbors
    scanned ascending.  Realized with an explicit stack."""
    n = graph.n
    marked = [False] * n
    parent = [-1] * n
    parent_sign = [0] * n
    roots: list[int] = []
    for start in range(n):
        if marked[start]:
            continue
        roots.append(start)
        marked[start] = True
        stack = [(start, iter(zip(graph.neighbors[start], graph.masks[start])))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for u, m in it:
                if not marked[u]:
                    marked[u] = True
                    parent[u] = v
                    parent_sign[u] = _attach_sign(m)
                    stack.append((u, iter(zip(graph.neighbors[u], graph.masks[u]))))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
    return SpanningForest(n, tuple(parent), tuple(parent_sign), tuple(roots))


def switch_set_from_forest(forest: SpanningForest) -> frozenset[int]:
    """Vertices whose root path carries an odd number of negative edges.

    Switching this set renders every tree edge positive.
    """
    parity: list[int | None] = [None] * forest.n
    for v in range(forest.n):
        chain = []
        x = v
        while parity[x] is None and forest.parent[x] != -1:
            chain.append(x)
            x = forest.parent[x]
        if parity[x] is None:
            parity[x] = 0
        for y in reversed(chain):
            flip = 1 if forest.parent_sign[y] == -1 else 0
            parity[y] = parity[forest.parent[y]] ^ flip
    return frozenset(v for v in range(forest.n) if parity[v] == 1)


def greedy_independent_set(
    adjacency: Sequence[Sequence[int]], order: Sequence[int] | None = None
) -> set[int]:
    """Greedy minimum-degree maximal independent set.

    Repeatedly takes an alive vertex of minimum degree (ties broken by the
    earliest position in ``order``, identity when omitted) and removes it
    together with its neighbors.
    """
    n = len(adjacency)
    pos = list(range(n))
    if order is not None:
        for p, v in enumerate(order):
            pos[v] = p
    alive = [True] * n
    deg = [len(adjacency[v]) for v in range(n)]
    chosen: set[int] = set()
    # Lazy heap: an entry is stale once its vertex died or lost degree.
    heap = [(deg[v], pos[v], v) for v in range(n)]
    heapq.heapify(heap)
    while heap:
        d, _, best = heapq.heappop(heap)
        if not alive[best] or d != deg[best]:
            continue
        chosen.add(best)
        killed = [best] + [u for u in adjacency[best] if alive[u]]
        for u in killed:
            alive[u] = False
        for u in killed:
            for w in adjacency[u]:
                if alive[w]:
                    deg[w] -= 1
                    heapq.heappush(heap, (deg[w], pos[w], w))
    return chosen


def _negative_structure(
    graph: SignedGraph, switch_set: frozenset[int]
) -> tuple[list[int], list[list[int]]]:
    """Vertices and adjacency of the negative subgraph of the switched graph.

    Computed directly from the original masks to avoid materializing the
    switched graph.
    """
    inside = [False] * graph.n
    for v in switch_set:
        inside[v] = True
    pairs: list[tuple[int, int]] = []
    seen: set[int] = set()
    for v in range(graph.n):
        for u, m in zip(graph.neighbors[v], graph.masks[v]):
            if u <= v:
                continue
            if m == POS | NEG:
                has_neg = True
            elif inside[v] != inside[u]:
                has_neg = m == POS
            else:
                has_neg = m == NEG
            if has_neg:
                pairs.append((v, u))
                seen.add(v)
                seen.add(u)
    verts = sorted(seen)
    index = {v: i for i, v in enumerate(verts)}
    adj: list[list[int]] = [[] for _ in verts]
    for v, u in pairs:
        adj[index[v]].append(index[u])
        adj[index[u]].append(index[v])
    for lst in adj:
        lst.sort()
    return verts, adj


def _build_forest(
    graph: SignedGraph, strategy: str, rng: random.Random | None
) -> SpanningForest:
    if strategy == "RS":
        return forest_rs(graph, rng if rng is not None else random.Random(0))
    if strategy == "BFS":
        return forest_bfs(graph)
    if strategy == "DFS":
        return forest_dfs(graph)
    raise ValueError(f"unknown forest strategy {strategy!r}; expected one of {STRATEGIES}")


def _certified_reflection(
    graph: SignedGraph, keep: list[bool], flips: frozenset[int]
) -> frozenset[int]:
    """Check the retained set against the forest's switch set; its reflection.

    Every edge between retained vertices must be positive after switching
    ``flips``, which makes ``flips`` a balancing switch of the retained
    subgraph; a violation raises :class:`RuntimeError`.  Components are
    entered in ascending vertex order, and the reflection holds the vertices
    whose ``flips`` side differs from their component's lowest vertex: the
    switch set :func:`is_balanced` reports for the same subgraph.
    """
    n = graph.n
    inside = [False] * n
    for v in flips:
        inside[v] = True
    neighbors, masks = graph.neighbors, graph.masks
    seen = [False] * n
    reflection: list[int] = []
    for start in range(n):
        if not keep[start] or seen[start]:
            continue
        seen[start] = True
        side = inside[start]
        stack = [start]
        while stack:
            v = stack.pop()
            side_v = inside[v]
            if side_v != side:
                reflection.append(v)
            for u, m in zip(neighbors[v], masks[v]):
                if not keep[u]:
                    continue
                if m != (POS if inside[u] == side_v else NEG):
                    raise RuntimeError(
                        f"retained vertices {v} and {u} are joined by a negative"
                        " edge after the forest's switch; the independent-set"
                        " step returned a dependent set"
                    )
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
    return frozenset(reflection)


def _pass(
    graph: SignedGraph,
    strategy: str,
    rng: random.Random | None,
    independent_set: Callable[[list[list[int]]], set[int]],
    cover: str,
) -> HeuristicResult:
    """Forest, switch set, negative structure, independent set, retained rows."""
    started = time.perf_counter()
    strategy = strategy.upper()
    forest = _build_forest(graph, strategy, rng)
    flips = switch_set_from_forest(forest)
    neg_verts, neg_adj = _negative_structure(graph, flips)
    independent = independent_set(neg_adj)
    keep = [True] * graph.n
    for v in neg_verts:
        keep[v] = False
    for i in independent:
        keep[neg_verts[i]] = True
    retained = [v for v in range(graph.n) if keep[v]]
    return HeuristicResult(
        retained=tuple(retained),
        k=graph.n - len(retained),
        reflection=_certified_reflection(graph, keep, flips),
        strategy=strategy,
        repeats=1,
        seed=None,
        elapsed=time.perf_counter() - started,
        cover=cover,
    )


def sga(
    graph: SignedGraph, strategy: str = "DFS", rng: random.Random | None = None
) -> HeuristicResult:
    """One heuristic pass with the given forest strategy.

    ``rng`` only matters for the RS strategy (an unseeded run defaults to
    ``random.Random(0)`` so results stay reproducible).
    """
    return _pass(graph, strategy, rng, greedy_independent_set, "greedy")


def permute_graph(graph: SignedGraph, order: Sequence[int]) -> SignedGraph:
    """Relabelled copy where new vertex j is the old vertex ``order[j]``."""
    n = graph.n
    new_of_old = [0] * n
    for j, old in enumerate(order):
        new_of_old[old] = j
    neighbors = []
    masks = []
    for old in order:
        # A mask fits in two bits, so one int sorts as the (id, mask) pair.
        keys = sorted(
            [new_of_old[u] << 2 | m for u, m in zip(graph.neighbors[old], graph.masks[old])]
        )
        neighbors.append(tuple([k >> 2 for k in keys]))
        masks.append(tuple([k & 3 for k in keys]))
    tags = tuple([graph.tags[old] for old in order])
    return SignedGraph(n, tags, tuple(neighbors), tuple(masks))


def sga_repeat(
    graph: SignedGraph, repeats: int, strategy: str = "DFS", seed: int = 1
) -> HeuristicResult:
    """Best of ``repeats`` passes over pseudo-randomly permuted vertices.

    Repetition i draws its permutation and RS randomness from
    ``random.Random(seed + i)``; repetition 0 keeps the identity permutation,
    so one repetition reproduces :func:`sga` exactly.  Ties keep the earliest
    repetition, making the best-of sequence monotone in ``repeats`` for a
    fixed seed.  Only the reported retained set goes through the full
    :func:`is_balanced` certificate; failing it raises :class:`RuntimeError`.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    started = time.perf_counter()
    best: HeuristicResult | None = None
    for i in range(repeats):
        rng = random.Random(seed + i)
        order = list(range(graph.n))
        if i == 0:
            permuted = graph
        else:
            rng.shuffle(order)
            permuted = permute_graph(graph, order)
        result = sga(permuted, strategy, rng)
        if best is None or len(result.retained) > len(best.retained):
            best = replace(
                result,
                retained=tuple(sorted(order[v] for v in result.retained)),
                reflection=frozenset(order[v] for v in result.reflection),
                repeats=repeats,
                seed=seed,
            )
    assert best is not None
    if not is_balanced(induced_subgraph(graph, best.retained)).balanced:
        raise RuntimeError(
            "the best repetition's retained set does not induce a balanced"
            " subgraph; this contradicts its per-pass check and indicates a bug"
        )
    return replace(best, elapsed=time.perf_counter() - started)


def sga_vc(
    graph: SignedGraph,
    strategy: str = "DFS",
    rng: random.Random | None = None,
    vc_budget: int | None = None,
) -> HeuristicResult:
    """Heuristic pass with an exact minimum vertex cover in place of greedy.

    The cover is computed on the negative subgraph by sweeping the cover
    size upward from zero; its complement there is a maximum independent
    set, so the retained set is never smaller than the greedy variant's on
    the same forest.  ``vc_budget`` caps the sweep; exhausting it raises
    :class:`CoverBudgetError` so callers can fall back to greedy.
    """

    def cover_complement(adjacency: list[list[int]]) -> set[int]:
        budget = len(adjacency) if vc_budget is None else vc_budget
        for size in range(budget + 1):
            cover = vertex_cover(adjacency, size)
            if cover is not None:
                return set(range(len(adjacency))) - cover
        raise CoverBudgetError(
            f"no vertex cover of size <= {budget} found within the budget"
        )

    return _pass(graph, strategy, rng, cover_complement, "exact")
