"""Exact fixed-parameter solvers: balanced deletion, bipartization, vertex cover.

The minimum balanced deletion question -- fewest vertices whose removal
leaves a balanced signed graph -- is solved on the signed graph itself.  A
signed graph is balanced when its vertices can be labelled 0/1 so that a
positive edge (parity 0) joins equal labels and a negative one (parity 1)
unequal labels; a +/- pair carries both parities.  The solver reads the
graph's own neighbour and mask lists and copies them into no other format.
Graph bipartization is the case where every edge has parity 1, so
:func:`odd_cycle_transversal` runs the same solver on the all-negative
signed graph of its adjacency.

It works by iterative compression (Hüffner, "Algorithm Engineering for
Optimal Graph Bipartization", JGAA 13(2), 2009): vertices are inserted one at
a time (ascending, for reproducibility) while a transversal of size at most a
budget is maintained; when it overflows to budget + 1 the compression step
searches the ways to split the current transversal into deleted / side-0 /
side-1 vertices, rejects splits with a kept pair whose sides do not differ
by its edge parity, and asks whether few enough remaining vertices separate
those whose reference label must stay from those whose label must flip -- a
vertex separator problem handed to :mod:`refnet.flow`.

The splits form a tree that decides one transversal vertex per level.  Going
down it, kept vertices only add terminals and a deleted one only lowers the
separator budget, so each search node continues its parent's maximum flow
from where it stopped (Hüffner reuses flows between splits the same way)
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
certificate.  A brute-force counterpart over all vertex subsets,
:func:`brute_force_mbd`, serves as an independent test oracle.
"""

from __future__ import annotations

import itertools
import time
from typing import NamedTuple, Sequence

from refnet.flow import SeparatorSolver
from refnet.signed_graph import (
    NEG,
    POS,
    SignedGraph,
    disjoint_unbalanced_cycles,
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


class SubdividedGraph(NamedTuple):
    """Plain graph with every positive edge of a signed graph subdivided.

    The solver does not use it: it stays as the tests' reference reduction,
    and the benchmark's tracer looks :func:`subdivide_positive` up by name.
    Original vertices keep their ids; subdivision vertices are appended and
    tagged in ``origin`` with the (u, v) pair of the positive edge they
    split (originals are tagged with their own id).  A +/- parallel pair
    turns into a triangle.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    origin: tuple[int | tuple[int, int], ...]


class ExactResult(NamedTuple):
    """Outcome of the exact balanced-deletion solver.

    ``status`` is "optimal" or "timeout".  On "optimal", removing
    ``deletion`` balances the graph and no smaller set does (the growing
    budget proves both).  ``lower_bound`` is proven: every balanced
    deletion has at least that many vertices; it equals ``k`` on "optimal"
    and on "timeout" is the budget reached or the number of vertex-disjoint
    unbalanced cycles, whichever is larger.  ``nodes_explored`` counts the
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
    """Subdivide each positive edge; negative edges carry over (test reference)."""
    n, neighbors, masks = graph.n, graph.neighbors, graph.masks
    adjacency: list[list[int]] = [[] for _ in range(n)]
    origin: list[int | tuple[int, int]] = list(range(n))
    for u in range(n):
        for v, mask in zip(neighbors[u], masks[u]):
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


def _set_bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _check_adjacency(adjacency: Sequence[Sequence[int]]) -> None:
    """Raise ValueError unless ``adjacency`` lists a loopless undirected graph.

    Every id must name a vertex, no vertex may list itself, and every edge
    must be listed at both of its ends.
    """
    n = len(adjacency)
    listed = [set(nbrs) for nbrs in adjacency]
    for v, nbrs in enumerate(adjacency):
        for u in nbrs:
            if not 0 <= u < n:
                raise ValueError(f"vertex {v} lists {u}, which is not a vertex id")
            if u == v:
                raise ValueError(f"vertex {v} lists itself")
            if v not in listed[u]:
                raise ValueError(f"vertex {v} lists {u}, but {u} does not list {v}")


def _compress_transversal(
    graph: SignedGraph,
    solver: SeparatorSolver,
    upto: int,
    transversal: Sequence[int],
    budget: int,
    cancel: CancelToken | None,
    stats: dict,
) -> set[int] | None:
    """Replace a size-(budget+1) transversal of the first ``upto`` vertices
    by one of size <= budget, or report that none exists.

    Depth-first branch and bound over the splits of the transversal;
    ``stats["splits"]`` counts the search nodes examined.  ``solver`` is the
    flow network of the whole graph with exactly the vertices below
    ``upto`` outside the transversal open.  ``cancel`` is polled every 64
    flow runs.
    """
    xs = sorted(transversal)
    x_pos = {x: i for i, x in enumerate(xs)}

    # Reference labelling of the transversal-free part, balanced by the
    # compression invariant: each component's lowest vertex is labelled 0
    # and the vertices of ``flipped`` 1.
    reference = is_balanced(graph, [w for w in range(upto) if w not in x_pos])
    if not reference.balanced:
        raise RuntimeError("transversal invariant broken")
    flipped = reference.switch_set

    # Keeping x on side s asks label s ^ p of its neighbour over an edge of
    # parity p (0 for POS, 1 for NEG) outside the transversal: a neighbour
    # whose reference label already matches is a ref terminal, any other
    # must flip.  Side 1 mirrors side 0, and a +/- neighbour lands in both
    # sets, so it must be cut.  Transversal neighbours listed before x are
    # kept with their masks for the kept-pair check.  Terminal sets are
    # bitmasks over vertex ids.
    x_nbrs: list[list[tuple[int, int]]] = [[] for _ in xs]
    side_terminals = []
    for i, x in enumerate(xs):
        ref = flip = 0
        for u, mask in zip(graph.neighbors[x], graph.masks[x]):
            if u >= upto:
                break  # neighbours ascend
            if u in x_pos:
                if x_pos[u] < i:
                    x_nbrs[i].append((x_pos[u], mask))
                continue
            labelled_1 = u in flipped
            if mask & (NEG if labelled_1 else POS):
                ref |= 1 << u
            if mask & (POS if labelled_1 else NEG):
                flip |= 1 << u
        side_terminals.append(((ref, flip), (flip, ref)))

    q = len(xs)
    SIDE_A, SIDE_B, DROP = 0, 1, 2
    assign = [0] * q
    flows = 0

    def search(
        i: int,
        ref: int,
        flip: int,
        dropped: int,
        cap: list[int],
        cut: list[int],
        grown: bool,
    ) -> set[int] | None:
        # A node with the first i transversal vertices decided and terminal
        # masks ref/flip.  ``cap`` holds a maximum flow between the terminals
        # of the nearest ancestor that ran one (its arcs record which are
        # open) and ``cut`` that flow's separator, whose size is the flow
        # value; ``grown`` says whether deciding vertex i - 1 added terminals.
        nonlocal flows
        stats["splits"] = stats.get("splits", 0) + 1
        flow_budget = budget - dropped
        if (ref & flip).bit_count() > flow_budget:
            return None
        if grown and ref and flip:
            flows += 1
            if cancel is not None and flows % 64 == 0 and cancel.expired():
                raise OperationCancelled
            cap = cap.copy()
            cut = solver.solve(_set_bits(ref), _set_bits(flip), flow_budget, cap)
            if cut is None:
                return None
        elif len(cut) > flow_budget:
            return None
        if i == q:
            return {xs[j] for j in range(q) if assign[j] == DROP}.union(cut)

        first_kept_pending = dropped == i
        for value in (SIDE_A, SIDE_B, DROP):
            if value == SIDE_B and first_kept_pending:
                continue  # mirror of SIDE_A by the global side flip
            if value == DROP:
                if dropped + 1 > budget:
                    continue
                assign[i] = DROP
                found = search(i + 1, ref, flip, dropped + 1, cap, cut, False)
            else:
                # Parity p has mask bit 1 << p.  A kept pair breaks on an
                # edge of the parity its sides do not differ by; against a
                # DROP that parity is 2 or 3, which no edge has.
                if any(mask >> (assign[j] ^ value ^ 1) & 1 for j, mask in x_nbrs[i]):
                    continue
                assign[i] = value
                add_ref, add_flip = side_terminals[i][value]
                found = search(
                    i + 1, ref | add_ref, flip | add_flip, dropped, cap, cut,
                    bool(add_ref & ~ref or add_flip & ~flip),
                )
            if found is not None:
                return found
        return None

    return search(0, 0, 0, 0, solver.residual(), [], False)


def _balancing_transversal(
    graph: SignedGraph,
    k: int,
    cancel: CancelToken | None,
    stats: dict,
) -> set[int] | None:
    """Minimum vertex set whose removal balances ``graph``, if <= k.

    A negative ``k`` raises ValueError.  One pass of iterative compression
    over vertices in ascending order, reading the graph's neighbour and mask
    lists as they are: a POS edge has parity 0, a NEG edge parity 1, and a
    +/- pair carries both.  A two-labelling of the transversal-free part's
    components tracks its balance, built by one routine, ``place``: an
    inserted vertex is placed into it, or joins the transversal if it closes
    an unbalanced cycle, and a successful compression places the new
    transversal-free prefix again from singletons, in ascending order.

    Between insertions the transversal holds exactly ``stats["lower_bound"]``
    vertices, a proven lower bound.  Each compression starts from one vertex
    more, with the lower bound as its budget: success returns exactly the
    budget (no later prefix needs fewer vertices than an earlier one), and
    failure proves the overflowing size, to which the lower bound rises.

    One flow network over all vertices serves every compression: a vertex
    opens in it when it is inserted outside the transversal and closes when
    it joins the transversal.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    stats["lower_bound"] = 0
    n, neighbors, masks = graph.n, graph.neighbors, graph.masks
    in_transversal = [False] * n
    transversal: list[int] = []
    # For a vertex of the transversal-free prefix, root[v] names its
    # component, label[v] is its label relative to the root, and members[r]
    # lists a root's component.  A vertex not yet placed is its own root.
    root = list(range(n))
    label = [0] * n
    members = [[v] for v in range(n)]
    solver = SeparatorSolver(n, neighbors)
    for v in range(n):
        solver.close(v)

    def place(w: int) -> bool:
        # Label w against the placed vertices below it; False, with nothing
        # changed, if w closes an unbalanced cycle.  want maps the root of
        # each earlier neighbour's component to w's label relative to it.
        want: dict[int, int] = {}
        for u, mask in zip(neighbors[w], masks[w]):
            if u < w and not in_transversal[u]:
                p = label[u] ^ (mask == NEG)
                if mask == POS | NEG or want.setdefault(root[u], p) != p:
                    return False
        if want:
            # w and every component it touches join the largest one: merging
            # small into large relabels a vertex at most log2(n) times.
            top = max(want, key=lambda r: len(members[r]))
            p_top = want[top]
            root[w], label[w] = top, p_top
            members[top].append(w)
            for r, p_r in want.items():
                if r != top:
                    for x in members[r]:
                        root[x] = top
                        label[x] ^= p_r ^ p_top
                    members[top] += members[r]
                    members[r] = []
        return True

    for v in range(n):
        if cancel is not None and cancel.expired():
            raise OperationCancelled
        if place(v):
            solver.open(v)
            continue
        transversal.append(v)
        in_transversal[v] = True
        compressed = _compress_transversal(
            graph, solver, v + 1, transversal, len(transversal) - 1, cancel, stats
        )
        if compressed is None:
            # The prefix needs all of them, so the whole graph does too; the
            # overflowing transversal stays valid for the prefix.
            stats["lower_bound"] = len(transversal)
            if len(transversal) > k:
                return None
            continue
        for w in transversal:
            if w not in compressed:
                in_transversal[w] = False
                solver.open(w)
        for w in compressed:
            if not in_transversal[w]:
                in_transversal[w] = True
                solver.close(w)
        transversal = sorted(compressed)
        # Place the new transversal-free prefix again, from singletons.
        root[:v + 1] = range(v + 1)
        label[:v + 1] = [0] * (v + 1)
        members[:v + 1] = [[w] for w in range(v + 1)]
        for w in range(v + 1):
            if not in_transversal[w] and not place(w):
                raise RuntimeError("compressed transversal must leave a balanced graph")
    return set(transversal)


def odd_cycle_transversal(
    adjacency: Sequence[Sequence[int]],
    k: int,
    cancel: CancelToken | None = None,
    stats: dict | None = None,
) -> set[int] | None:
    """Minimum vertex set whose removal makes the graph bipartite, if <= k.

    Returns None when every such set is larger than k ("no" is a value, not
    an error).  This is the compression pass of :func:`mbd_exact` on the
    signed graph of ``adjacency`` with every edge negative, so neighbour
    order and repeated neighbours change nothing.  ``stats["lower_bound"]``
    holds the budget reached, a proven lower bound on the optimum, also
    after cancellation.  ``cancel`` is polled during insertion and inside
    compression; expiry raises :class:`OperationCancelled`.  An id that
    names no vertex, a vertex that lists itself, an edge listed at one end
    only or a negative ``k`` raises ValueError.
    """
    _check_adjacency(adjacency)
    graph = SignedGraph.from_edges(
        len(adjacency), ((v, u, -1) for v, nbrs in enumerate(adjacency) for u in nbrs)
    )
    return _balancing_transversal(graph, k, cancel, {} if stats is None else stats)


def mbd_exact(
    graph: SignedGraph,
    k_max: int | None = None,
    cancel: CancelToken | None = None,
) -> ExactResult:
    """Minimum balanced deletion by one growing-budget compression pass.

    The graph is compressed with ``k_max`` (default: the vertex count) as
    its cap, and the deletion is re-verified against the graph.
    Cancellation yields a "timeout" result carrying the proven lower bound;
    exhausting ``k_max`` raises :class:`DeletionBudgetError`, and a negative
    ``k_max`` raises ValueError.
    """
    started = time.perf_counter()
    cap = graph.n if k_max is None else k_max
    stats: dict = {}
    try:
        deletion = _balancing_transversal(graph, cap, cancel, stats)
    except OperationCancelled:
        return ExactResult(
            status="timeout",
            deletion=None,
            k=None,
            lower_bound=max(stats["lower_bound"], len(disjoint_unbalanced_cycles(graph))),
            elapsed=time.perf_counter() - started,
            nodes_explored=stats.get("splits", 0),
        )
    if deletion is None:
        raise DeletionBudgetError(
            f"no balanced deletion of size <= {cap} exists (cap was k_max)"
        )
    kept = [u for u in range(graph.n) if u not in deletion]
    if not is_balanced(graph, kept).balanced:
        raise RuntimeError("the compressed deletion left the graph unbalanced")
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
        for v, nbrs in enumerate(adjacency):
            if len(nbrs) == 1 or len(nbrs) > budget:
                _take(adjacency, next(iter(nbrs)) if len(nbrs) == 1 else v, cover)
                budget -= 1
                break
        else:
            break
    double_edges = sum(len(a) for a in adjacency)
    if double_edges == 0:
        return cover
    # Every vertex left with an edge has degree in [2, budget] here.
    if double_edges // 2 > budget * budget:
        return None
    pivot = max(range(len(adjacency)), key=lambda v: len(adjacency[v]))
    # Take the pivot, or else its whole neighbourhood.  The second branch is
    # the last use of this node's sets, so it takes them uncopied.
    for branch, choice in (
        ([set(a) for a in adjacency], (pivot,)),
        (adjacency, tuple(adjacency[pivot])),
    ):
        taken: set[int] = set()
        for u in choice:
            _take(branch, u, taken)
        rest = _cover_search(branch, budget - len(taken))
        if rest is not None:
            return cover | taken | rest
    return None


def vertex_cover(
    adjacency: Sequence[Sequence[int]], k: int
) -> set[int] | None:
    """Minimum vertex cover if one of size <= k exists, else None.

    Each connected component is searched on its own, members renumbered in
    ascending order.  Its edges in a greedy maximal matching bound its cover
    from below, and bounds summing above k return None at once.  A
    component's size then rises from its bound, each step spending the
    slack k leaves, through a decision search: kernel rules (degree-1
    neighbour, high degree, edge count), then take a maximum-degree vertex
    or its whole neighbourhood.  The cover is the same set for every k >= the minimum.
    Worst case around 2^c subproblems per size, c the component's minimum.
    Malformed adjacency raises ValueError, as in :func:`odd_cycle_transversal`.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    _check_adjacency(adjacency)
    n = len(adjacency)
    matched = [False] * n
    for v in range(n):
        for u in adjacency[v]:
            if not matched[v] and not matched[u]:
                matched[v] = matched[u] = True
    slack = k - sum(matched) // 2
    if slack < 0:
        return None
    seen = [False] * n
    cover: set[int] = set()
    for start in range(n):
        if seen[start] or not adjacency[start]:
            continue
        seen[start] = True
        members = [start]
        for v in members:
            for u in adjacency[v]:
                if not seen[u]:
                    seen[u] = True
                    members.append(u)
        members.sort()
        local = {v: i for i, v in enumerate(members)}
        size = sum(matched[v] for v in members) // 2
        while (found := _cover_search(
            [{local[u] for u in adjacency[v]} for v in members], size
        )) is None:
            if slack == 0:
                return None
            slack -= 1
            size += 1
        cover.update(members[i] for i in found)
    return cover


# ---------------------------------------------------------------------------
# Brute-force oracle (a test reference, exponential in the vertex count)

_ORACLE_LIMIT = 24


def _balanced_without(graph: SignedGraph, removed: set[int]) -> bool:
    n, neighbors, masks = graph.n, graph.neighbors, graph.masks
    label: list[int | None] = [None] * n
    for start in range(n):
        if start in removed or label[start] is not None:
            continue
        label[start] = 0
        queue = [start]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for u, mask in zip(neighbors[v], masks[v]):
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
