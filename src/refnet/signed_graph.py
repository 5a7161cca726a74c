"""Signed graphs derived from (0,±1)-matrices, switching, and balance tests.

The graph of a matrix has one vertex per (0,±1)-row; two rows sharing a
column k get a positive edge when their entries there are opposite
(a_ik = -a_jk) and a negative edge when equal (a_ik = a_jk).  At most one
edge of each sign joins a vertex pair (so a pair may carry a parallel +/-
couple), and there are no loops.

Switching a vertex set W flips the sign of every edge with exactly one end
in W.  A graph is balanced when some switch removes all negative edges,
equivalently when no cycle carries an odd number of negative edges.  Row
subsets of the matrix that induce balanced subgraphs are exactly the
reflected networks, and the balancing switch tells which rows to reflect;
:func:`extract_network` turns that into the actual submatrix.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from refnet.matrix_io import SparseMatrix, classify_rows, is_network_matrix

POS = 1  # bitmask: pair carries a positive edge
NEG = 2  # bitmask: pair carries a negative edge

SignedEdge = tuple[int, int, int]  # (u, v, sign) with sign in {+1, -1}


class NotBalancedError(ValueError):
    """Raised when a balanced subgraph was required; carries a witness cycle."""

    def __init__(self, message: str, witness: tuple[SignedEdge, ...]):
        self.witness = witness
        super().__init__(message)


# The fields alone: SignedGraph adds a __dict__, which holds the cached
# pair list and unbalanced cycles.
class _SignedGraphFields(NamedTuple):
    n: int
    tags: tuple[int, ...]
    neighbors: tuple[tuple[int, ...], ...]
    masks: tuple[tuple[int, ...], ...]


class SignedGraph(_SignedGraphFields):
    """Immutable signed graph.

    ``neighbors[v]`` lists the distinct neighbors of v in ascending order and
    ``masks[v]`` carries the aligned sign bitmasks (POS, NEG or both).
    ``tags[v]`` identifies the vertex one level up: the originating matrix
    row for graphs built from a matrix, the parent graph's vertex id for
    induced subgraphs.
    """

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[SignedEdge],
        tags: Sequence[int] | None = None,
    ) -> "SignedGraph":
        """Build from (u, v, sign) triples; same-sign duplicates collapse."""
        pair_masks: dict[tuple[int, int], int] = {}
        for u, v, sign in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if sign not in (1, -1):
                raise ValueError(f"sign must be +1 or -1, got {sign!r}")
            key = (u, v) if u < v else (v, u)
            pair_masks[key] = pair_masks.get(key, 0) | (POS if sign == 1 else NEG)
        return cls._from_pair_masks(n, pair_masks, tags)

    @classmethod
    def _from_pair_masks(
        cls,
        n: int,
        pair_masks: dict[tuple[int, int], int],
        tags: Sequence[int] | None = None,
    ) -> "SignedGraph":
        # A mask fits in two bits, so one int sorts as the (neighbor, mask) pair.
        adj: list[list[int]] = [[] for _ in range(n)]
        for (u, v), mask in pair_masks.items():
            adj[u].append(v << 2 | mask)
            adj[v].append(u << 2 | mask)
        neighbors = []
        masks = []
        for keys in adj:
            keys.sort()
            neighbors.append(tuple([k >> 2 for k in keys]))
            masks.append(tuple([k & 3 for k in keys]))
        if tags is None:
            tags = range(n)
        return cls(n, tuple(tags), tuple(neighbors), tuple(masks))

    @cached_property
    def pairs(self) -> tuple[tuple[int, int, int], ...]:
        """Adjacent pairs as (u, v, mask) with u < v, in ascending order.

        Built on first use and kept: every heuristic pass scans it.
        """
        neighbors, masks = self.neighbors, self.masks
        return tuple(
            [
                (u, v, m)
                for u in range(self.n)
                for v, m in zip(neighbors[u], masks[u])
                if v > u
            ]
        )

    @property
    def edges(self) -> tuple[SignedEdge, ...]:
        """All edges as (u, v, sign) with u < v; + precedes - per pair."""
        out: list[SignedEdge] = []
        for u, v, m in self.pairs:
            if m & POS:
                out.append((u, v, 1))
            if m & NEG:
                out.append((u, v, -1))
        return tuple(out)

    @property
    def n_edges(self) -> int:
        return len(self.pairs) + sum(1 for _, _, m in self.pairs if m == POS | NEG)

    def degree(self, v: int) -> int:
        """Number of distinct neighbors; a parallel +/- pair counts once."""
        return len(self.neighbors[v])


# The fields alone: BalanceCertificate adds the check in __new__.
class _BalanceCertificateFields(NamedTuple):
    switch_set: frozenset[int] | None = None
    witness: tuple[SignedEdge, ...] | None = None


class BalanceCertificate(_BalanceCertificateFields):
    """Outcome of a balance test: exactly one of the two fields is set.

    ``switch_set`` is a vertex set W whose switch removes every negative
    edge; ``witness`` is a cycle (closed edge walk over distinct vertices)
    with an odd number of negative edges.
    """

    __slots__ = ()

    def __new__(
        cls,
        switch_set: frozenset[int] | None = None,
        witness: tuple[SignedEdge, ...] | None = None,
    ) -> "BalanceCertificate":
        if (switch_set is None) == (witness is None):
            raise ValueError("certificate must hold exactly one alternative")
        return super().__new__(cls, switch_set, witness)

    @classmethod
    def _make(cls, fields: Iterable) -> "BalanceCertificate":
        # The inherited _make, and _replace through it, would skip the check.
        return cls(*fields)

    @property
    def balanced(self) -> bool:
        return self.switch_set is not None


def build_signed_graph(matrix: SparseMatrix) -> SignedGraph:
    """Signed graph over the (0,±1)-rows of the matrix.

    Non-(0,±1)-rows are dropped; ``tags`` maps each vertex back to its
    matrix row index.  For every column, row pairs with opposite entries get
    a positive edge and pairs with equal entries a negative edge.

    The graph is built once per matrix and kept on it, so a caller that
    asks again (:func:`extract_network` after the heuristic) pays nothing.
    """
    known = vars(matrix).get("_signed_graph")
    if known is not None:
        return known
    verts = [i for i, is_unit in enumerate(classify_rows(matrix)) if is_unit]
    # Per column, the vertices whose entry there is +1 and -1, ascending.
    # Every value here is ±1, so its numerator carries the sign.
    plus: list[list[int]] = [[] for _ in range(matrix.n_cols)]
    minus: list[list[int]] = [[] for _ in range(matrix.n_cols)]
    entries, spans = matrix.entries, matrix.row_nonzeros
    for k, r in enumerate(verts):
        for _, c, v in entries[spans[r].start:spans[r].stop]:
            (plus if v.numerator > 0 else minus)[c].append(k)
    pair_masks: dict[tuple[int, int], int] = {}
    for ups, downs in zip(plus, minus):
        for same in (ups, downs):  # equal entries: negative edges
            for a, va in enumerate(same):
                for vb in same[a + 1:]:
                    pair_masks[va, vb] = pair_masks.get((va, vb), 0) | NEG
        for va in ups:  # opposite entries: positive edges
            for vb in downs:
                key = (va, vb) if va < vb else (vb, va)
                pair_masks[key] = pair_masks.get(key, 0) | POS
    graph = vars(matrix)["_signed_graph"] = SignedGraph._from_pair_masks(
        len(verts), pair_masks, verts
    )
    return graph


def _spanning_trees(
    neighbors: Sequence[Iterable[int]], usable: Sequence[bool], starts: Iterable[int]
) -> tuple[list[list[int]], list[int]]:
    """Breadth-first spanning trees of the components among the usable vertices.

    Components are entered in ``starts`` order, skipping a start that is
    unusable or already reached; each vertex scans its ``neighbors`` in list
    order, and each tree lists its vertices in that visiting order, root
    first.  ``parent[v]`` is v's tree parent, -1 for a root or an unreached
    vertex.  ``usable`` is read, not modified.
    """
    unreached = list(usable)
    parent = [-1] * len(neighbors)
    trees: list[list[int]] = []
    for root in starts:
        if not unreached[root]:
            continue
        unreached[root] = False
        tree = [root]
        for v in tree:  # the list is its own queue
            for u in neighbors[v]:
                if unreached[u]:
                    unreached[u] = False
                    parent[u] = v
                    tree.append(u)
        trees.append(tree)
    return trees, parent


def _witness_cycle(
    u: int,
    v: int,
    sign: int,
    parent: list[int],
    parent_sign: list[int],
    depth: list[int],
) -> tuple[SignedEdge, ...]:
    """Cycle from the tree paths of u and v plus the conflicting edge (v, u).

    The tree is breadth-first and v the vertex being scanned, so u is never
    shallower than v (a shallower u was scanned first and would have met
    the conflict), and only u's path climbs before both climb together.
    """
    up_u: list[SignedEdge] = []
    up_v: list[SignedEdge] = []
    a, b = u, v
    while depth[a] > depth[b]:
        up_u.append((a, parent[a], parent_sign[a]))
        a = parent[a]
    while a != b:
        up_u.append((a, parent[a], parent_sign[a]))
        up_v.append((b, parent[b], parent_sign[b]))
        a, b = parent[a], parent[b]
    down_v = tuple((y, x, s) for x, y, s in reversed(up_v))
    return tuple(up_u) + down_v + ((v, u, sign),)


def _label_component(
    graph: SignedGraph,
    start: int,
    usable: Sequence[bool],
    label: list[int],
    parent: list[int],
    parent_sign: list[int],
    depth: list[int],
) -> tuple[list[int], tuple[SignedEdge, ...] | None]:
    """Two-label the component of ``start`` among the usable vertices.

    Returns the vertices labelled and the first conflict's witness, or None.
    """
    neighbors, masks = graph.neighbors, graph.masks
    label[start] = depth[start] = 0
    queue = [start]
    for v in queue:
        lv = label[v]
        for u, mask in zip(neighbors[v], masks[v]):
            if not usable[u]:
                continue
            # A +/- pair is tried through its positive edge first.
            sign = -1 if mask == NEG else 1
            want = lv if sign == 1 else 1 - lv
            if label[u] < 0:
                label[u] = want
                parent[u] = v
                parent_sign[u] = sign
                depth[u] = depth[v] + 1
                queue.append(u)
            elif label[u] != want:
                return queue, _witness_cycle(u, v, sign, parent, parent_sign, depth)
            if mask == POS | NEG:
                # u now carries lv, which the pair's negative edge forbids.
                return queue, _witness_cycle(u, v, -1, parent, parent_sign, depth)
    return queue, None


def is_balanced(graph: SignedGraph, vertices: Iterable[int] | None = None) -> BalanceCertificate:
    """Two-label every component: equal across +, different across -.

    Only the subgraph induced by ``vertices`` (default: all) is labelled, in
    place; the certificate names the graph's own ids, and an id out of range
    raises :class:`ValueError`.  Components are entered in ascending vertex
    order and neighbors scanned ascending, so the certificate (either kind)
    is deterministic.  A parallel +/- pair always conflicts.  On success,
    switching the vertices labelled 1 removes all negative edges.
    """
    n = graph.n
    starts = range(n) if vertices is None else sorted(set(vertices))
    usable = [False] * n
    for v in starts:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")
        usable[v] = True
    label = [-1] * n
    parent = [-1] * n
    parent_sign = [0] * n
    depth = [0] * n
    for start in starts:
        if label[start] < 0:
            _, witness = _label_component(
                graph, start, usable, label, parent, parent_sign, depth
            )
            if witness is not None:
                return BalanceCertificate(witness=witness)
    switch_set = frozenset([v for v in starts if label[v] == 1])
    return BalanceCertificate(switch_set=switch_set)


def disjoint_unbalanced_cycles(graph: SignedGraph) -> tuple[tuple[SignedEdge, ...], ...]:
    """Pairwise vertex-disjoint unbalanced cycles, each in witness format.

    Every +/- pair whose two ends are still free is taken first, in
    ``graph.pairs`` order.  The free vertices are then two-labelled as in
    :func:`is_balanced`, components entered in ascending order; a conflict
    takes its fundamental cycle, removes that cycle's vertices and labels
    the component afresh.  Each cycle needs a deleted vertex of its own, so
    their number is a lower bound on the minimum balanced deletion, and it
    is zero exactly on a balanced graph.  A component is labelled once more
    per cycle found in it, and the cycles never outnumber that optimum.

    The cycles are found once per graph and kept on it, so a caller that
    asks again (a repetition run, then its report) pays nothing.
    """
    known = vars(graph).get("_disjoint_unbalanced_cycles")
    if known is not None:
        return known
    n = graph.n
    free = [True] * n
    cycles: list[tuple[SignedEdge, ...]] = []
    for u, v, m in graph.pairs:
        if m == POS | NEG and free[u] and free[v]:
            free[u] = free[v] = False
            cycles.append(((u, v, 1), (v, u, -1)))
    # Between free vertices every pair is now single-signed.
    label = [-1] * n
    parent = [-1] * n
    parent_sign = [0] * n
    depth = [0] * n
    for start in range(n):
        while free[start] and label[start] < 0:
            labelled, cycle = _label_component(
                graph, start, free, label, parent, parent_sign, depth
            )
            if cycle is None:
                break
            cycles.append(cycle)
            for a, _, _ in cycle:
                free[a] = False
            for v in labelled:
                label[v] = -1
    found = vars(graph)["_disjoint_unbalanced_cycles"] = tuple(cycles)
    return found


def induced_subgraph(graph: SignedGraph, vertices: Iterable[int]) -> SignedGraph:
    """Subgraph on the given vertices with all signs preserved.

    Vertices are compacted in ascending order; ``tags`` maps back to the
    input graph's vertex ids.  Each adjacency list is the parent's, already
    ascending, filtered through the compacted positions; a vertex that keeps
    every neighbor keeps its mask tuple.
    """
    n, graph_neighbors, graph_masks = graph.n, graph.neighbors, graph.masks
    verts = sorted(set(vertices))
    pos = [-1] * n
    for i, v in enumerate(verts):
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range")
        pos[v] = i
    neighbors = []
    masks = []
    for v in verts:
        kept = [pos[u] for u in graph_neighbors[v]]
        if -1 in kept:
            masks.append(tuple([m for m, j in zip(graph_masks[v], kept) if j >= 0]))
            kept = [j for j in kept if j >= 0]
        else:
            masks.append(graph_masks[v])  # every neighbor stays
        neighbors.append(tuple(kept))
    return SignedGraph(len(verts), tuple(verts), tuple(neighbors), tuple(masks))


def extract_network(
    matrix: SparseMatrix, rows: Iterable[int]
) -> tuple[SparseMatrix, frozenset[int]]:
    """Materialize the reflected network on a balanced retained row set.

    ``rows`` are matrix row indices whose vertices must induce a balanced
    subgraph of the matrix's signed graph.  Returns the row submatrix (rows
    ascending) with the reflection applied, plus the set of reflected row
    indices.  The result always satisfies the network-matrix column rule;
    an unbalanced selection raises :class:`NotBalancedError` whose witness
    cycle is expressed in matrix row indices.
    """
    row_list = sorted(set(rows))
    graph = build_signed_graph(matrix)
    vertex_of_row = {r: v for v, r in enumerate(graph.tags)}
    try:
        verts = [vertex_of_row[r] for r in row_list]
    except KeyError as exc:
        raise ValueError(
            f"row {exc.args[0]} is not a (0,±1)-row and cannot join a reflected network"
        ) from None
    certificate = is_balanced(graph, verts)
    tags = graph.tags
    if not certificate.balanced:
        witness = tuple((tags[a], tags[b], s) for a, b, s in certificate.witness)
        raise NotBalancedError(
            "selected rows do not induce a balanced subgraph", witness
        )
    reflected = frozenset([tags[v] for v in certificate.switch_set])
    network = matrix.submatrix_rows(row_list, flip=reflected)
    if not is_network_matrix(network):
        raise RuntimeError(
            "balanced row set failed the network check; this contradicts the"
            " balance/reflection correspondence and indicates a bug"
        )
    return network, reflected

