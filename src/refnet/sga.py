"""Spanning-forest heuristics for the maximum balanced induced subgraph.

One pass works in five steps: build the signed graph (done by the caller),
find a spanning forest, switch the vertex set that makes the forest
all-positive, take the subgraph induced by the remaining negative edges, and
keep a maximal independent set of it (everything untouched by negative edges
is kept as well).  Every retained set induces a balanced subgraph by
construction, and on a balanced input the whole vertex set is retained no
matter which forest was used.

Each pass checks its retained set against the forest's own switch set: one
scan of the graph's pair list, on the original signs, raises
:class:`RuntimeError` unless every edge between retained vertices is
positive after the switch, and a walk over the retained subgraph's
components then reads off the reflection.  The result a caller
gets from :func:`sga_repeat` is certified once more, independently, by
:func:`~refnet.signed_graph.is_balanced` restricted to its retained set.

Three forest strategies are provided -- random search, breadth-first and
depth-first -- plus a repetition wrapper that reruns the pass with the
vertices in pseudo-random order and keeps the best result, and a variant
that swaps the greedy independent-set step for an exact minimum vertex
cover.  The repetition wrapper stops early once its best result meets a
lower bound, the number of vertex-disjoint unbalanced cycles, which proves
it optimal; the result is the same as after every repetition.

A pass takes an optional vertex ``order``; a vertex's rank is its position
in it, and without one the rank is the vertex id.  Forests restart and scan
neighbors by ascending rank, and every tie (forest restarts, greedy
independent-set picks, the reflection's reference vertex) goes to the
lowest rank.  The pass thus equals the one on the copy relabelled by rank,
but walks the graph itself and reports its own vertex ids.

Reproducibility: all randomness flows through ``random.Random`` (Mersenne
Twister) instances; repetition i of a run with seed s uses the sub-seed
s + i, and the first repetition keeps the identity order.
"""

from __future__ import annotations

import heapq
import random
import time
from bisect import bisect_left
from typing import Callable, NamedTuple, Sequence

from refnet.signed_graph import (
    NEG,
    POS,
    SignedGraph,
    _spanning_trees,
    disjoint_unbalanced_cycles,
    is_balanced,
)

STRATEGIES = ("RS", "BFS", "DFS")


class SpanningForest(NamedTuple):
    """Rooted spanning forest with per-edge signs.

    ``parent[v]`` is -1 exactly for roots; ``parent_sign[v]`` is the sign of
    the tree edge to the parent (0 for roots).  A tree edge over a +/-
    parallel pair records its positive edge, in every forest.
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


class HeuristicResult(NamedTuple):
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


def _check_order(order: Sequence[int], n: int) -> None:
    if len(order) != n or set(order) != set(range(n)):
        raise ValueError(f"order must be a permutation of range({n})")


def _ranked_neighbors(
    graph: SignedGraph, order: Sequence[int] | None
) -> Sequence[Sequence[int]]:
    """Every vertex's neighbors in ascending rank (position in ``order``).

    One bucket pass over ``order`` appends each vertex to its neighbors'
    lists in turn, so no list is sorted; the identity order (``None``) is
    the graph's own ascending lists.  A bad ``order`` raises ValueError.
    """
    neighbors = graph.neighbors
    if order is None:
        return neighbors
    _check_order(order, graph.n)
    ranked: list[list[int]] = [[] for _ in range(graph.n)]
    for v in order:
        for u in neighbors[v]:
            ranked[u].append(v)
    return ranked


def _tree_signs(graph: SignedGraph, parent: list[int]) -> tuple[int, ...]:
    """Each vertex's tree-edge sign, its mask looked up once (0 for roots)."""
    neighbors, masks = graph.neighbors, graph.masks
    # A +/- parallel pair enters the forest through its positive edge; any
    # choice leaves the pair's negative 2-cycle for the independent-set step.
    return tuple(
        [
            0 if p < 0 else -1 if masks[v][bisect_left(neighbors[v], p)] == NEG else 1
            for v, p in enumerate(parent)
        ]
    )


def forest_rs(
    graph: SignedGraph, rng: random.Random, *, order: Sequence[int] | None = None
) -> SpanningForest:
    """Random-search forest.

    Marks a uniformly random vertex, then repeatedly attaches a uniformly
    random (marked, unmarked) adjacent pair; when no crossing pair is left
    it marks a fresh random vertex.  Pairs joined only by a +/- parallel
    couple are used (through the positive edge) only when no single-sign
    crossing pair exists.

    A vertex's rank is its position in ``order`` (default: the identity).
    Restart roots are drawn by rank among the unmarked vertices, and a newly
    marked vertex queues its neighbors in ascending rank.  Tree-edge signs
    follow the rule of :func:`forest_bfs` and :func:`forest_dfs`.
    """
    n = graph.n
    adjacency = _ranked_neighbors(graph, order)
    neighbors, masks = graph.neighbors, graph.masks
    if order is None:
        order = rank = range(n)
    else:
        rank = [0] * n
        for j, v in enumerate(order):
            rank[v] = j
    marked = [False] * n
    parent = [-1] * n
    roots: list[int] = []
    # Pending (unmarked, marked) pairs; parallel couples wait apart.
    singles: list[tuple[int, int]] = []
    doubles: list[tuple[int, int]] = []

    unmarked = _RankTree(n)

    def mark(v: int) -> None:
        marked[v] = True
        unmarked.remove(rank[v])
        own, own_masks = neighbors[v], masks[v]
        for u in adjacency[v]:
            if not marked[u]:
                m = own_masks[bisect_left(own, u)]
                pending = doubles if m == POS | NEG else singles
                pending.append((u, v))

    def draw(pool: list[tuple[int, int]]) -> tuple[int, int] | None:
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
        root = order[unmarked.select(rng.randrange(remaining))]
        roots.append(root)
        mark(root)
        remaining -= 1
        while remaining:
            item = draw(singles) or draw(doubles)
            if item is None:
                break
            u, v = item
            parent[u] = v
            mark(u)
            remaining -= 1
    return SpanningForest(n, tuple(parent), _tree_signs(graph, parent), tuple(roots))


def forest_bfs(
    graph: SignedGraph, *, order: Sequence[int] | None = None
) -> SpanningForest:
    """Breadth-first forest from :func:`~refnet.signed_graph._spanning_trees`:
    every restart picks an unmarked vertex of maximum degree, ties to the
    lowest rank (position in ``order``, default the identity), and neighbors
    are scanned in ascending rank."""
    n = graph.n
    adjacency = _ranked_neighbors(graph, order)
    # A stable sort keeps ascending ranks within each degree.
    starts = sorted(range(n) if order is None else order, key=lambda v: -len(adjacency[v]))
    trees, parent = _spanning_trees(adjacency, [True] * n, starts)
    roots = tuple([tree[0] for tree in trees])
    return SpanningForest(n, tuple(parent), _tree_signs(graph, parent), roots)


def forest_dfs(
    graph: SignedGraph, *, order: Sequence[int] | None = None
) -> SpanningForest:
    """Depth-first forest; restarts at the unmarked vertex of lowest rank
    (position in ``order``, default the identity), neighbors scanned in
    ascending rank.  Realized with an explicit stack."""
    n = graph.n
    adjacency = _ranked_neighbors(graph, order)
    marked = [False] * n
    parent = [-1] * n
    roots: list[int] = []
    for start in range(n) if order is None else order:
        if marked[start]:
            continue
        roots.append(start)
        marked[start] = True
        stack = [(start, iter(adjacency[start]))]
        while stack:
            v, it = stack[-1]
            for u in it:
                if not marked[u]:
                    marked[u] = True
                    parent[u] = v
                    stack.append((u, iter(adjacency[u])))
                    break
            else:
                stack.pop()
    return SpanningForest(n, tuple(parent), _tree_signs(graph, parent), tuple(roots))


def switch_set_from_forest(forest: SpanningForest) -> frozenset[int]:
    """Vertices whose root path carries an odd number of negative edges.

    Switching this set renders every tree edge positive.  A vertex takes
    its parent's parity, flipped across a negative tree edge, in one step
    once the parent has one; a vertex met before its parent first settles
    the chain of unsettled ancestors above it, top-down.
    """
    n, parent = forest.n, forest.parent
    negative = [sign < 0 for sign in forest.parent_sign]
    odd = [0 if p < 0 else -1 for p in parent]  # -1: not settled yet
    for v in range(n):
        if odd[v] >= 0:
            continue
        p = odd[parent[v]]
        if p >= 0:
            odd[v] = p ^ negative[v]
            continue
        chain = [v]
        x = parent[v]
        while odd[x] < 0:
            chain.append(x)
            x = parent[x]
        p = odd[x]
        for y in reversed(chain):
            p ^= negative[y]
            odd[y] = p
    return frozenset([v for v in range(n) if odd[v]])


def greedy_independent_set(adjacency: Sequence[Sequence[int]]) -> set[int]:
    """Greedy minimum-degree maximal independent set.

    Repeatedly takes an alive vertex of minimum degree (ties go to the
    lowest index) and removes it together with its neighbors.
    """
    n = len(adjacency)
    alive = [True] * n
    deg = [len(adjacency[v]) for v in range(n)]
    chosen: set[int] = set()
    # Lazy heap: an entry is stale once its vertex died or lost degree.
    heap = list(zip(deg, range(n)))
    heapq.heapify(heap)
    while heap:
        d, best = heapq.heappop(heap)
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
                    heapq.heappush(heap, (deg[w], w))
    return chosen


def _negative_structure(
    graph: SignedGraph,
    inside: Sequence[bool],
    order: Sequence[int] | None = None,
) -> tuple[list[int], list[list[int]]]:
    """Vertices and adjacency of the negative subgraph of the switched graph.

    ``inside[v]`` says whether v is in the switch set.  Computed from the
    original masks in one scan of ``graph.pairs``, without materializing the
    switched graph.  The vertices are listed in ascending rank (position in
    ``order``, default the identity) and the adjacency holds positions in
    that list, ascending.
    """
    n = graph.n
    # A single-sign edge is negative after the switch when it is positive
    # and crosses the switch set, or negative and does not.
    negative = [
        (u, v)
        for u, v, m in graph.pairs
        if m == POS | NEG or (m == POS) == (inside[u] != inside[v])
    ]
    touched = [False] * n
    for u, v in negative:
        touched[u] = touched[v] = True
    verts = [v for v in (range(n) if order is None else order) if touched[v]]
    index = [0] * n
    for i, v in enumerate(verts):
        index[v] = i
    adj: list[list[int]] = [[] for _ in verts]
    for u, v in negative:
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])
    for lst in adj:
        lst.sort()
    return verts, adj


def _build_forest(
    graph: SignedGraph,
    strategy: str,
    rng: random.Random | None,
    order: Sequence[int] | None,
) -> SpanningForest:
    if strategy == "RS":
        return forest_rs(graph, rng if rng is not None else random.Random(0), order=order)
    if strategy == "BFS":
        return forest_bfs(graph, order=order)
    if strategy == "DFS":
        return forest_dfs(graph, order=order)
    raise ValueError(f"unknown forest strategy {strategy!r}; expected one of {STRATEGIES}")


def _certified_reflection(
    graph: SignedGraph,
    keep: list[bool],
    inside: Sequence[bool],
    order: Sequence[int] | None,
) -> frozenset[int]:
    """Check the retained set against the forest's switch set; its reflection.

    ``inside[v]`` says whether v is in the switch set.  Every edge between
    retained vertices must be positive after switching that set, which
    makes it a balancing switch of the retained subgraph; a violation
    raises :class:`RuntimeError`.  The retained subgraph's
    :func:`~refnet.signed_graph._spanning_trees` are rooted in ascending
    rank (position in ``order``, default the identity), and the reflection
    holds the vertices whose switch side differs from their tree's root:
    the switch set :func:`is_balanced` reports for the same subgraph
    relabelled by rank.
    """
    n = graph.n
    for u, v, m in graph.pairs:
        if keep[u] and keep[v] and m != (POS if inside[u] == inside[v] else NEG):
            raise RuntimeError(
                f"retained vertices {u} and {v} are joined by a negative"
                " edge after the forest's switch; the independent-set"
                " step returned a dependent set"
            )
    trees, _ = _spanning_trees(graph.neighbors, keep, range(n) if order is None else order)
    return frozenset([v for tree in trees for v in tree if inside[v] != inside[tree[0]]])


def _pass(
    graph: SignedGraph,
    strategy: str,
    rng: random.Random | None,
    order: Sequence[int] | None,
    independent_set: Callable[[list[list[int]]], set[int] | None],
    cover: str,
) -> HeuristicResult:
    """Forest, switch set, negative structure, independent set, retained rows.

    ``independent_set`` may return None (an exact step that missed its
    cap); the greedy step then runs on the same negative subgraph, and the
    result's ``cover`` reads "greedy".
    """
    started = time.perf_counter()
    strategy = strategy.upper()
    forest = _build_forest(graph, strategy, rng, order)
    inside = [False] * graph.n
    for v in switch_set_from_forest(forest):
        inside[v] = True
    neg_verts, neg_adj = _negative_structure(graph, inside, order)
    independent = independent_set(neg_adj)
    if independent is None:
        independent, cover = greedy_independent_set(neg_adj), "greedy"
    keep = [True] * graph.n
    for v in neg_verts:
        keep[v] = False
    for i in independent:
        keep[neg_verts[i]] = True
    retained = [v for v in range(graph.n) if keep[v]]
    return HeuristicResult(
        retained=tuple(retained),
        k=graph.n - len(retained),
        reflection=_certified_reflection(graph, keep, inside, order),
        strategy=strategy,
        repeats=1,
        seed=None,
        elapsed=time.perf_counter() - started,
        cover=cover,
    )


def sga(
    graph: SignedGraph,
    strategy: str = "DFS",
    rng: random.Random | None = None,
    order: Sequence[int] | None = None,
) -> HeuristicResult:
    """One heuristic pass with the given forest strategy.

    ``rng`` only matters for the RS strategy (an unseeded run defaults to
    ``random.Random(0)`` so results stay reproducible).  ``order`` ranks the
    vertices (default: the identity): forests restart and scan neighbors by
    ascending rank and greedy ties go to the lowest rank, so the pass is the
    one on the copy relabelled by rank, reported in this graph's ids.  It
    must be a permutation of ``range(graph.n)``, else :class:`ValueError`.
    """
    return _pass(graph, strategy, rng, order, greedy_independent_set, "greedy")


def permute_graph(graph: SignedGraph, order: Sequence[int]) -> SignedGraph:
    """Relabelled copy where new vertex j is the old vertex ``order[j]``.

    ``order`` must be a permutation of ``range(graph.n)``, else
    :class:`ValueError`.  The heuristic ranks vertices in place instead
    (the ``order`` of :func:`sga`); this copy is what such a pass equals.
    """
    n = graph.n
    _check_order(order, n)
    new_of_old = [0] * n
    for j, old in enumerate(order):
        new_of_old[old] = j
    return SignedGraph._from_pair_masks(
        n,
        {(new_of_old[u], new_of_old[v]): m for u, v, m in graph.pairs},
        [graph.tags[old] for old in order],
    )


def sga_repeat(
    graph: SignedGraph, repeats: int, strategy: str = "DFS", seed: int = 1
) -> HeuristicResult:
    """Best of ``repeats`` passes over pseudo-randomly ranked vertices.

    Repetition i draws its vertex order and RS randomness from
    ``random.Random(seed + i)`` and runs :func:`sga` with that ``order`` on
    the graph itself; repetition 0 keeps the identity order, so one
    repetition reproduces :func:`sga` exactly.  Ties keep the earliest
    repetition, making the best-of sequence monotone in ``repeats`` for a
    fixed seed.  :func:`is_balanced` certifies the reported retained set
    alone, on the graph itself; failing it raises :class:`RuntimeError`.

    Before a second repetition the graph's
    :func:`~refnet.signed_graph.disjoint_unbalanced_cycles` are counted
    once: each needs a deleted vertex of its own, so no pass drops fewer
    vertices.  The loop stops as soon as the best ``k`` meets that bound;
    no later repetition could then beat it under the earliest-tie rule, so
    the result is the best of all ``repeats`` and ``repeats`` reports the
    requested count.  A best ``k`` below the bound contradicts it and raises
    :class:`RuntimeError`.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    started = time.perf_counter()
    best: HeuristicResult | None = None
    bound: int | None = None
    for i in range(repeats):
        rng = random.Random(seed + i)
        order = None
        if i:
            order = list(range(graph.n))
            rng.shuffle(order)
        result = sga(graph, strategy, rng, order)
        if best is None or len(result.retained) > len(best.retained):
            best = result._replace(repeats=repeats, seed=seed)
        if i + 1 < repeats:
            if bound is None:
                bound = len(disjoint_unbalanced_cycles(graph))
            if best.k <= bound:
                break
    assert best is not None
    if not is_balanced(graph, best.retained).balanced:
        raise RuntimeError(
            "the best repetition's retained set does not induce a balanced"
            " subgraph; this contradicts its per-pass check and indicates a bug"
        )
    if bound is not None and best.k < bound:
        raise RuntimeError(
            f"the best repetition drops {best.k} vertices, fewer than the"
            f" {bound} disjoint unbalanced cycles need; this indicates a bug"
        )
    return best._replace(elapsed=time.perf_counter() - started)


def sga_vc(
    graph: SignedGraph,
    strategy: str = "DFS",
    rng: random.Random | None = None,
    vc_budget: int | None = None,
) -> HeuristicResult:
    """Heuristic pass with an exact minimum vertex cover in place of greedy.

    The cover of the negative subgraph comes from one
    :func:`~refnet.exact.vertex_cover` call, which sweeps each connected
    component's cover size upward from a greedy matching bound; its
    complement is a maximum independent set, so the retained set is never
    smaller than the greedy variant's on the same forest.  ``vc_budget``
    (default: the negative subgraph's vertex count) caps the cover size;
    when no cover fits, the pass keeps the greedy independent set of the
    same forest's negative subgraph instead, so the result is :func:`sga`'s
    with the same ``rng``, and its ``cover`` reads "greedy".
    """
    # Imported here: the exact solver loads only when a caller asks for it.
    from refnet.exact import vertex_cover

    def cover_complement(adjacency: list[list[int]]) -> set[int] | None:
        cover = vertex_cover(adjacency, len(adjacency) if vc_budget is None else vc_budget)
        return None if cover is None else set(range(len(adjacency))) - cover

    return _pass(graph, strategy, rng, None, cover_complement, "exact")
