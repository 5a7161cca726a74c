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

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from refnet.matrix_io import SparseMatrix, classify_rows, is_network_matrix

POS = 1  # bitmask: pair carries a positive edge
NEG = 2  # bitmask: pair carries a negative edge

SignedEdge = tuple[int, int, int]  # (u, v, sign) with sign in {+1, -1}


class NotBalancedError(ValueError):
    """Raised when a balanced subgraph was required; carries a witness cycle."""

    def __init__(self, message: str, witness: tuple[SignedEdge, ...]):
        self.witness = witness
        super().__init__(message)


@dataclass(frozen=True)
class SignedGraph:
    """Immutable signed graph.

    ``neighbors[v]`` lists the distinct neighbors of v in ascending order and
    ``masks[v]`` carries the aligned sign bitmasks (POS, NEG or both).
    ``tags[v]`` identifies the vertex one level up: the originating matrix
    row for graphs built from a matrix, the parent graph's vertex id for
    induced subgraphs.
    """

    n: int
    tags: tuple[int, ...]
    neighbors: tuple[tuple[int, ...], ...]
    masks: tuple[tuple[int, ...], ...]

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
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (u, v), mask in pair_masks.items():
            adj[u].append((v, mask))
            adj[v].append((u, mask))
        neighbors = []
        masks = []
        for items in adj:
            items.sort()
            neighbors.append(tuple(x for x, _ in items))
            masks.append(tuple(m for _, m in items))
        if tags is None:
            tags = range(n)
        return cls(n, tuple(tags), tuple(neighbors), tuple(masks))

    @property
    def edges(self) -> tuple[SignedEdge, ...]:
        """All edges as (u, v, sign) with u < v; + precedes - per pair."""
        out: list[SignedEdge] = []
        for u in range(self.n):
            for v, m in zip(self.neighbors[u], self.masks[u]):
                if v > u:
                    if m & POS:
                        out.append((u, v, 1))
                    if m & NEG:
                        out.append((u, v, -1))
        return tuple(out)

    @property
    def n_edges(self) -> int:
        return sum(
            (1 if m != POS | NEG else 2)
            for u in range(self.n)
            for v, m in zip(self.neighbors[u], self.masks[u])
            if v > u
        )

    def degree(self, v: int) -> int:
        """Number of distinct neighbors; a parallel +/- pair counts once."""
        return len(self.neighbors[v])


@dataclass(frozen=True)
class BalanceCertificate:
    """Outcome of a balance test: exactly one of the two fields is set.

    ``switch_set`` is a vertex set W whose switch removes every negative
    edge; ``witness`` is a cycle (closed edge walk over distinct vertices)
    with an odd number of negative edges.
    """

    switch_set: frozenset[int] | None = None
    witness: tuple[SignedEdge, ...] | None = None

    def __post_init__(self):
        if (self.switch_set is None) == (self.witness is None):
            raise ValueError("certificate must hold exactly one alternative")

    @property
    def balanced(self) -> bool:
        return self.switch_set is not None


def build_signed_graph(matrix: SparseMatrix) -> SignedGraph:
    """Signed graph over the (0,±1)-rows of the matrix.

    Non-(0,±1)-rows are dropped; ``tags`` maps each vertex back to its
    matrix row index.  For every column, row pairs with opposite entries get
    a positive edge and pairs with equal entries a negative edge.
    """
    unit = classify_rows(matrix)
    verts = [i for i, is_unit in enumerate(unit) if is_unit]
    vertex_of_row = [-1] * matrix.n_rows
    for k, r in enumerate(verts):
        vertex_of_row[r] = k
    # Per column, the vertices whose entry there is +1 and -1, ascending
    # (entries run in row order).  Every value here is ±1, so its numerator
    # carries the sign.
    plus: list[list[int]] = [[] for _ in range(matrix.n_cols)]
    minus: list[list[int]] = [[] for _ in range(matrix.n_cols)]
    for r, c, v in matrix.entries:
        if unit[r]:
            (plus if v.numerator > 0 else minus)[c].append(vertex_of_row[r])
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
    return SignedGraph._from_pair_masks(len(verts), pair_masks, verts)


def switch(graph: SignedGraph, switch_set: Iterable[int]) -> SignedGraph:
    """Flip the sign of every edge with exactly one endpoint in the set."""
    inside = [False] * graph.n
    for v in switch_set:
        if not 0 <= v < graph.n:
            raise ValueError(f"vertex {v} out of range")
        inside[v] = True
    new_masks = []
    for v in range(graph.n):
        row = []
        for u, m in zip(graph.neighbors[v], graph.masks[v]):
            if inside[v] != inside[u] and m != POS | NEG:
                m = NEG if m == POS else POS
            row.append(m)
        new_masks.append(tuple(row))
    return SignedGraph(graph.n, graph.tags, graph.neighbors, tuple(new_masks))


def _signs_of(mask: int) -> tuple[int, ...]:
    if mask == POS:
        return (1,)
    if mask == NEG:
        return (-1,)
    return (1, -1)


def _witness_cycle(
    u: int,
    v: int,
    sign: int,
    parent: list[int],
    parent_sign: list[int],
    depth: list[int],
) -> tuple[SignedEdge, ...]:
    """Cycle from the tree paths of u and v plus the conflicting edge (v, u)."""
    up_u: list[SignedEdge] = []
    up_v: list[SignedEdge] = []
    a, b = u, v
    while depth[a] > depth[b]:
        up_u.append((a, parent[a], parent_sign[a]))
        a = parent[a]
    while depth[b] > depth[a]:
        up_v.append((b, parent[b], parent_sign[b]))
        b = parent[b]
    while a != b:
        up_u.append((a, parent[a], parent_sign[a]))
        up_v.append((b, parent[b], parent_sign[b]))
        a, b = parent[a], parent[b]
    down_v = tuple((y, x, s) for x, y, s in reversed(up_v))
    return tuple(up_u) + down_v + ((v, u, sign),)


def is_balanced(graph: SignedGraph) -> BalanceCertificate:
    """Two-label every component: equal across +, different across -.

    Components are entered in ascending vertex order and neighbors scanned
    ascending, so the certificate (either kind) is deterministic.  A
    parallel +/- pair always conflicts.  On success the switch set is the
    set of vertices labelled 1; switching it removes all negative edges.
    """
    n = graph.n
    label: list[int | None] = [None] * n
    parent = [-1] * n
    parent_sign = [0] * n
    depth = [0] * n
    for start in range(n):
        if label[start] is not None:
            continue
        label[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u, mask in zip(graph.neighbors[v], graph.masks[v]):
                for sign in _signs_of(mask):
                    want = label[v] if sign == 1 else 1 - label[v]
                    if label[u] is None:
                        label[u] = want
                        parent[u] = v
                        parent_sign[u] = sign
                        depth[u] = depth[v] + 1
                        queue.append(u)
                    elif label[u] != want:
                        witness = _witness_cycle(u, v, sign, parent, parent_sign, depth)
                        return BalanceCertificate(witness=witness)
    switch_set = frozenset(v for v in range(n) if label[v] == 1)
    return BalanceCertificate(switch_set=switch_set)


def induced_subgraph(graph: SignedGraph, vertices: Iterable[int]) -> SignedGraph:
    """Subgraph on the given vertices with all signs preserved.

    Vertices are compacted in ascending order; ``tags`` maps back to the
    input graph's vertex ids.
    """
    verts = sorted(set(vertices))
    for v in verts:
        if not 0 <= v < graph.n:
            raise ValueError(f"vertex {v} out of range")
    index = {v: i for i, v in enumerate(verts)}
    pair_masks: dict[tuple[int, int], int] = {}
    for v in verts:
        for u, m in zip(graph.neighbors[v], graph.masks[v]):
            if v < u and u in index:
                pair_masks[(index[v], index[u])] = m
    return SignedGraph._from_pair_masks(len(verts), pair_masks, verts)


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
    sub = induced_subgraph(graph, verts)
    certificate = is_balanced(sub)
    if not certificate.balanced:
        assert certificate.witness is not None
        witness = tuple(
            (graph.tags[sub.tags[a]], graph.tags[sub.tags[b]], s)
            for a, b, s in certificate.witness
        )
        raise NotBalancedError(
            "selected rows do not induce a balanced subgraph", witness
        )
    reflected = frozenset(graph.tags[sub.tags[v]] for v in certificate.switch_set)
    network = matrix.submatrix_rows(row_list, flip=reflected)
    if not is_network_matrix(network):
        raise RuntimeError(
            "balanced row set failed the network check; this contradicts the"
            " balance/reflection correspondence and indicates a bug"
        )
    return network, reflected

