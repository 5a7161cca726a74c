"""Exact fixed-parameter solvers: balanced deletion, bipartization, vertex cover.

The minimum balanced deletion question -- fewest vertices whose removal
leaves a balanced signed graph -- reduces to graph bipartization: subdivide
every positive edge with a fresh vertex and ask for an odd cycle transversal
of the resulting plain graph.  A transversal avoiding the subdivision
vertices deletes the same rows; one that uses a subdivision vertex can
always swap it for an endpoint of its edge.

Bipartization itself is solved by iterative compression: vertices are
inserted one at a time (ascending, for reproducibility) while a transversal
of size at most a budget is maintained; when it overflows to budget + 1 the
compression step searches the ways to split the current transversal into
deleted / left-side / right-side vertices, rejects splits with a same-side
edge, and asks whether few enough remaining vertices separate the would-be-
left from the would-be-right attachment points -- a vertex separator problem
handed to :mod:`refnet.flow`.

The splits form a tree that decides one transversal vertex per level.  Going
down it, kept vertices only add terminals and a deleted one only lowers the
separator budget, so each search node continues its parent's maximum flow
from where it stopped (Hüffner, "Algorithm Engineering for Optimal Graph
Bipartization", JGAA 13(2), 2009, reuses flows between splits the same way)
and prunes its subtree once that flow exceeds the budget left: no split
below it can succeed.  Leaves are still visited in the fixed order of the
full enumeration, so the first feasible split is the same one; in the worst
case the tree has 3^(budget+1) leaves, halved by fixing the side of the
first kept vertex.

The budget starts at zero and grows inside that one pass: a failed
compression proves the current prefix needs more than the budget, and no
prefix needs more than the whole graph, so the budget is raised by one and
insertion continues.  The budget is therefore always a proven lower bound,
and the transversal returned at the end is a minimum one -- an optimality
certificate.  Brute-force counterparts over all vertex subsets serve as
independent test oracles.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Sequence

from refnet.flow import Residual, SeparatorSolver
from refnet.signed_graph import (
    NEG,
    POS,
    SignedGraph,
    induced_subgraph,
    is_balanced,
)


class OperationCancelled(RuntimeError):
    """Cooperative cancellation fired during a solve."""


class DeletionBudgetError(RuntimeError):
    """The solver proved every balanced deletion larger than its size cap.

    Distinct from a timeout: the solver finished all permitted sizes.
    """


class CancelToken:
    """Set-once cancellation flag, optionally armed with a wall-clock deadline.

    Safe to share across threads: one side calls :meth:`cancel` (or the
    deadline passes), solvers poll :meth:`expired`.
    """

    def __init__(self, deadline: float | None = None):
        self._cancelled = False
        self._deadline = deadline

    @classmethod
    def after(cls, seconds: float) -> "CancelToken":
        return cls(deadline=time.monotonic() + seconds)

    def cancel(self) -> None:
        self._cancelled = True

    def expired(self) -> bool:
        if self._cancelled:
            return True
        if self._deadline is not None and time.monotonic() > self._deadline:
            self._cancelled = True
            return True
        return False


@dataclass(frozen=True)
class SubdividedGraph:
    """Plain graph with every positive edge of a signed graph subdivided.

    Original vertices keep their ids; subdivision vertices are appended and
    tagged in ``origin`` with the (u, v) pair of the positive edge they
    split (originals are tagged with their own id).  A +/- parallel pair
    turns into a triangle.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    origin: tuple[int | tuple[int, int], ...]


@dataclass(frozen=True)
class ExactResult:
    """Outcome of the exact balanced-deletion solver.

    ``status`` is "optimal" or "timeout".  On "optimal", removing
    ``deletion`` balances the graph and no smaller set does (the growing
    budget proves both).  ``lower_bound`` is proven: every balanced
    deletion has at least that many vertices; it equals ``k`` on "optimal"
    and is the budget reached on "timeout".  ``nodes_explored`` counts the
    nodes of the pruned split search examined across all compression steps
    (partial splits as well as complete ones).
    """

    status: str
    deletion: frozenset[int] | None
    k: int | None
    lower_bound: int
    elapsed: float
    nodes_explored: int


def subdivide_positive(graph: SignedGraph) -> SubdividedGraph:
    """Subdivide each positive edge; negative edges carry over unchanged."""
    adjacency: list[list[int]] = [[] for _ in range(graph.n)]
    origin: list[int | tuple[int, int]] = list(range(graph.n))
    for u in range(graph.n):
        for v, mask in zip(graph.neighbors[u], graph.masks[u]):
            if v <= u:
                continue
            if mask & NEG:
                adjacency[u].append(v)
                adjacency[v].append(u)
            if mask & POS:
                w = len(adjacency)
                adjacency.append([u, v])
                origin.append((u, v))
                adjacency[u].append(w)
                adjacency[v].append(w)
    return SubdividedGraph(
        len(adjacency),
        tuple(tuple(sorted(a)) for a in adjacency),
        tuple(origin),
    )


class _ParityDSU:
    """Union-find with edge parities; detects odd cycles incrementally."""

    __slots__ = ("parent", "rank", "parity")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.parity = [0] * n

    def find(self, x: int) -> tuple[int, int]:
        parent, parity = self.parent, self.parity
        root, p = x, 0
        while parent[root] != root:
            p ^= parity[root]
            root = parent[root]
        cur, cur_par = x, p
        while parent[cur] != root:
            nxt = parent[cur]
            nxt_par = cur_par ^ parity[cur]
            parent[cur] = root
            parity[cur] = cur_par
            cur, cur_par = nxt, nxt_par
        return root, p

    def union(self, x: int, y: int, rel: int) -> bool:
        """Join with x,y parity relation ``rel``; False on contradiction."""
        rx, px = self.find(x)
        ry, py = self.find(y)
        if rx == ry:
            return (px ^ py) == rel
        if self.rank[rx] > self.rank[ry]:
            rx, ry = ry, rx
            px, py = py, px
        self.parent[rx] = ry
        self.parity[rx] = px ^ py ^ rel
        if self.rank[rx] == self.rank[ry]:
            self.rank[ry] += 1
        return True


def _set_bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _compress_transversal(
    adjacency: Sequence[Sequence[int]],
    upto: int,
    transversal: Sequence[int],
    budget: int,
    cancel: CancelToken | None,
    stats: dict,
) -> set[int] | None:
    """Replace a size-(budget+1) transversal of the first ``upto`` vertices
    by one of size <= budget, or report that none exists.

    Depth-first branch and bound over the splits; ``stats["splits"]`` counts
    the search nodes examined.  ``cancel`` is polled every 64 flow runs.
    """
    xs = sorted(transversal)
    x_set = set(xs)
    rest = [v for v in range(upto) if v not in x_set]
    rest_index = {v: i for i, v in enumerate(rest)}
    n_rest = len(rest)

    rest_adj = [
        [rest_index[u] for u in adjacency[v] if u < upto and u not in x_set]
        for v in rest
    ]

    # Reference 2-coloring of the transversal-free part (bipartite by the
    # compression invariant).
    color = [0] * n_rest
    seen = [False] * n_rest
    for start in range(n_rest):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            for y in rest_adj[x]:
                if not seen[y]:
                    seen[y] = True
                    color[y] = color[x] ^ 1
                    queue.append(y)
                else:
                    assert color[y] != color[x], "transversal invariant broken"
    color_mask = 0
    for i, c in enumerate(color):
        if c:
            color_mask |= 1 << i
    full_mask = (1 << n_rest) - 1

    # Per transversal vertex: bitmask of its neighbors outside the
    # transversal, and the already-listed transversal neighbors for the
    # same-side pruning check.
    rest_nbr_mask = []
    x_pos = {x: i for i, x in enumerate(xs)}
    x_nbrs: list[list[int]] = [[] for _ in xs]
    for i, x in enumerate(xs):
        m = 0
        for u in adjacency[x]:
            if u >= upto:
                continue
            if u in x_set:
                j = x_pos[u]
                if j < i:
                    x_nbrs[i].append(j)
            else:
                m |= 1 << rest_index[u]
        rest_nbr_mask.append(m)

    # Keeping x on side A puts its neighbors outside the transversal on
    # side B: those of reference color 1 keep their color (terminals_ref),
    # those of color 0 must flip (terminals_flip).  Side B mirrors this.
    not_color = full_mask ^ color_mask
    side_terminals = [
        ((m & color_mask, m & not_color), (m & not_color, m & color_mask))
        for m in rest_nbr_mask
    ]

    solver = SeparatorSolver(n_rest, rest_adj)
    q = len(xs)
    SIDE_A, SIDE_B, DROP = 0, 1, 2
    assign = [0] * q
    flows = 0

    def search(
        i: int,
        ref: int,
        flip: int,
        dropped: int,
        residual: Residual,
        cut: list[int],
        grown: bool,
    ) -> set[int] | None:
        # A node with the first i transversal vertices decided and terminal
        # masks ref/flip.  ``residual`` holds a maximum flow between its
        # parent's terminals and ``cut`` that flow's separator; ``grown``
        # says whether deciding vertex i - 1 added terminals.
        nonlocal flows
        stats["splits"] = stats.get("splits", 0) + 1
        flow_budget = budget - dropped
        if (ref & flip).bit_count() > flow_budget:
            return None
        if grown and ref and flip:
            flows += 1
            if cancel is not None and flows % 64 == 0 and cancel.expired():
                raise OperationCancelled
            residual = residual.copy()
            cut = solver.solve(_set_bits(ref), _set_bits(flip), flow_budget, residual)
            if cut is None:
                return None
        elif residual.flow > flow_budget:
            return None
        if i == q:
            return {xs[j] for j in range(q) if assign[j] == DROP} | {rest[j] for j in cut}

        first_kept_pending = dropped == i
        for value in (SIDE_A, SIDE_B, DROP):
            if value == SIDE_B and first_kept_pending:
                continue  # mirror of SIDE_A by the global side flip
            if value == DROP:
                if dropped + 1 > budget:
                    continue
                assign[i] = DROP
                found = search(i + 1, ref, flip, dropped + 1, residual, cut, False)
            else:
                if any(assign[j] == value for j in x_nbrs[i]):
                    continue  # same-side edge inside the kept transversal
                assign[i] = value
                add_ref, add_flip = side_terminals[i][value]
                found = search(
                    i + 1, ref | add_ref, flip | add_flip, dropped, residual, cut,
                    bool(add_ref & ~ref or add_flip & ~flip),
                )
            if found is not None:
                return found
        return None

    return search(0, 0, 0, 0, solver.residual(), [], False)


def odd_cycle_transversal(
    adjacency: Sequence[Sequence[int]],
    k: int,
    cancel: CancelToken | None = None,
    stats: dict | None = None,
) -> set[int] | None:
    """Minimum vertex set whose removal makes the graph bipartite, if <= k.

    Returns None when every such set is larger than k ("no" is a value, not
    an error).  One pass of iterative compression over vertices in ascending
    order; a parity union-find tracks bipartiteness of the transversal-free
    part between compressions.  The budget starts at zero and rises by one
    each time a compression fails; ``stats["lower_bound"]`` holds it, a
    proven lower bound on the optimum, also after cancellation.  ``cancel``
    is polled during insertion and inside compression; expiry raises
    :class:`OperationCancelled`.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if stats is None:
        stats = {}
    budget = stats["lower_bound"] = 0
    n = len(adjacency)
    in_transversal = [False] * n
    transversal: list[int] = []
    dsu = _ParityDSU(n)

    def rebuild(upto: int) -> None:
        nonlocal dsu
        dsu = _ParityDSU(n)
        for v in range(upto):
            if in_transversal[v]:
                continue
            for u in adjacency[v]:
                if u < v and not in_transversal[u]:
                    ok = dsu.union(u, v, 1)
                    assert ok, "compressed transversal must leave a bipartite graph"

    for v in range(n):
        if cancel is not None and cancel.expired():
            raise OperationCancelled
        incident = [u for u in adjacency[v] if u < v and not in_transversal[u]]
        parity_of_root: dict[int, int] = {}
        conflict = False
        for u in incident:
            root, parity = dsu.find(u)
            if parity_of_root.setdefault(root, parity) != parity:
                conflict = True
                break
        if not conflict:
            for u in incident:
                dsu.union(v, u, 1)
            continue
        transversal.append(v)
        in_transversal[v] = True
        if len(transversal) <= budget:
            continue
        compressed = _compress_transversal(
            adjacency, v + 1, transversal, budget, cancel, stats
        )
        if compressed is None:
            # The prefix needs budget + 1 vertices, so the whole graph does
            # too; the overflowing transversal stays valid for the prefix.
            budget = stats["lower_bound"] = budget + 1
            if budget > k:
                return None
            continue
        transversal = sorted(compressed)
        for w in range(n):
            in_transversal[w] = False
        for w in transversal:
            in_transversal[w] = True
        rebuild(v + 1)
    return set(transversal)


def mbd_exact(
    graph: SignedGraph,
    k_max: int | None = None,
    cancel: CancelToken | None = None,
) -> ExactResult:
    """Minimum balanced deletion by one growing-budget bipartization pass.

    The subdivided graph is handed once to :func:`odd_cycle_transversal`
    with ``k_max`` (default: the vertex count) as its cap; subdivision
    vertices in the answer are replaced by the lower endpoint of their edge
    and the result is re-verified against the signed graph.  Cancellation
    yields a "timeout" result carrying the proven lower bound; exhausting
    ``k_max`` raises :class:`DeletionBudgetError`.
    """
    started = time.perf_counter()
    subdivided = subdivide_positive(graph)
    cap = graph.n if k_max is None else k_max
    stats: dict = {}
    try:
        solution = odd_cycle_transversal(subdivided.adjacency, cap, cancel, stats)
    except OperationCancelled:
        return ExactResult(
            status="timeout",
            deletion=None,
            k=None,
            lower_bound=stats["lower_bound"],
            elapsed=time.perf_counter() - started,
            nodes_explored=stats.get("splits", 0),
        )
    if solution is None:
        raise DeletionBudgetError(
            f"no balanced deletion of size <= {cap} exists (cap was k_max)"
        )
    deletion = set()
    for w in solution:
        tag = subdivided.origin[w]
        deletion.add(tag if isinstance(tag, int) else tag[0])
    kept = [u for u in range(graph.n) if u not in deletion]
    if not is_balanced(induced_subgraph(graph, kept)).balanced:
        raise RuntimeError(
            "endpoint replacement left the graph unbalanced; the subdivision "
            "correspondence was violated"
        )
    return ExactResult(
        status="optimal",
        deletion=frozenset(deletion),
        k=len(deletion),
        lower_bound=len(deletion),
        elapsed=time.perf_counter() - started,
        nodes_explored=stats.get("splits", 0),
    )


# ---------------------------------------------------------------------------
# Vertex cover


def _take(adjacency: list[set[int]], v: int, cover: set[int]) -> None:
    for u in adjacency[v]:
        adjacency[u].discard(v)
    adjacency[v] = set()
    cover.add(v)


def _cover_search(adjacency: list[set[int]], budget: int) -> set[int] | None:
    cover: set[int] = set()
    # Kernel rules: neighbors of degree-1 vertices are forced, and so is any
    # vertex whose degree exceeds the remaining budget.
    while True:
        if budget < 0:
            return None
        progress = False
        for v in range(len(adjacency)):
            d = len(adjacency[v])
            if d == 0:
                continue
            if d == 1:
                _take(adjacency, next(iter(adjacency[v])), cover)
                budget -= 1
                progress = True
                break
            if d > budget:
                _take(adjacency, v, cover)
                budget -= 1
                progress = True
                break
        if not progress:
            break
    double_edges = sum(len(a) for a in adjacency)
    if double_edges == 0:
        return cover
    if budget <= 0 or double_edges // 2 > budget * budget:
        return None
    pivot = -1
    for v in range(len(adjacency)):
        if pivot == -1 or len(adjacency[v]) > len(adjacency[pivot]):
            pivot = v
    branch = [set(a) for a in adjacency]
    _take(branch, pivot, taken := set())
    rest = _cover_search(branch, budget - 1)
    if rest is not None:
        return cover | taken | rest
    neighbors = sorted(adjacency[pivot])
    if len(neighbors) <= budget:
        branch = [set(a) for a in adjacency]
        taken = set()
        for u in neighbors:
            _take(branch, u, taken)
        rest = _cover_search(branch, budget - len(neighbors))
        if rest is not None:
            return cover | taken | rest
    return None


def vertex_cover(
    adjacency: Sequence[Sequence[int]], k: int
) -> set[int] | None:
    """Vertex cover of size <= k, or None if none exists.

    Kernelization (isolated removal, degree-1 neighbor rule, high-degree
    rule, edge-count bound) followed by binary branching on a maximum-degree
    vertex: take it, or take its whole neighborhood.  Worst case around
    2^k subproblems, plenty at the scales this package meets.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    return _cover_search([set(a) for a in adjacency], k)


# ---------------------------------------------------------------------------
# Brute-force oracles (test references, exponential in the vertex count)

_ORACLE_LIMIT = 24


def _balanced_without(graph: SignedGraph, removed: set[int]) -> bool:
    label: list[int | None] = [None] * graph.n
    for start in range(graph.n):
        if start in removed or label[start] is not None:
            continue
        label[start] = 0
        queue = [start]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for u, mask in zip(graph.neighbors[v], graph.masks[v]):
                if u in removed:
                    continue
                if mask == POS | NEG:
                    return False
                want = label[v] if mask == POS else 1 - label[v]
                if label[u] is None:
                    label[u] = want
                    queue.append(u)
                elif label[u] != want:
                    return False
    return True


def brute_force_mbd(graph: SignedGraph) -> tuple[int, set[int]]:
    """Smallest vertex set whose removal balances the graph, by enumeration."""
    if graph.n > _ORACLE_LIMIT:
        raise ValueError(f"oracle limited to {_ORACLE_LIMIT} vertices")
    for size in range(graph.n + 1):
        for combo in itertools.combinations(range(graph.n), size):
            removed = set(combo)
            if _balanced_without(graph, removed):
                return size, removed
    raise AssertionError("removing all vertices always balances")


def _bipartite_without(adjacency: Sequence[Sequence[int]], removed: set[int]) -> bool:
    n = len(adjacency)
    color: list[int | None] = [None] * n
    for start in range(n):
        if start in removed or color[start] is not None:
            continue
        color[start] = 0
        queue = [start]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for u in adjacency[v]:
                if u in removed:
                    continue
                if color[u] is None:
                    color[u] = color[v] ^ 1
                    queue.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def brute_force_oct(adjacency: Sequence[Sequence[int]]) -> tuple[int, set[int]]:
    """Smallest vertex set whose removal leaves a bipartite graph."""
    n = len(adjacency)
    if n > _ORACLE_LIMIT:
        raise ValueError(f"oracle limited to {_ORACLE_LIMIT} vertices")
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            removed = set(combo)
            if _bipartite_without(adjacency, removed):
                return size, removed
    raise AssertionError("removing all vertices always bipartizes")
