"""Shared generators and reference checks for the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from refnet.exact import vertex_cover
from refnet.matrix_io import SparseMatrix
from refnet.sga import (
    HeuristicResult,
    forest_bfs,
    forest_dfs,
    forest_rs,
    greedy_independent_set,
    switch_set_from_forest,
)
from refnet.signed_graph import (
    NEG,
    POS,
    SignedGraph,
    induced_subgraph,
    is_balanced,
    switch,
)


def random_signed_graph(
    rng: random.Random,
    n_max: int = 12,
    p_edge: float = 0.3,
    p_sign: float = 0.5,
    p_parallel: float = 0.15,
    n_min: int = 1,
) -> SignedGraph:
    """Random signed graph; with p_parallel an edge also gets its twin sign."""
    n = rng.randint(n_min, n_max)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p_edge:
                sign = 1 if rng.random() < p_sign else -1
                edges.append((u, v, sign))
                if rng.random() < p_parallel:
                    edges.append((u, v, -sign))
    return SignedGraph.from_edges(n, edges)


def random_balanced_graph(
    rng: random.Random, n_max: int = 12, p_edge: float = 0.4, n_min: int = 1
) -> SignedGraph:
    """Plant a two-labelling and orient all signs consistently with it."""
    n = rng.randint(n_min, n_max)
    labels = [rng.randint(0, 1) for _ in range(n)]
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p_edge:
                edges.append((u, v, 1 if labels[u] == labels[v] else -1))
    return SignedGraph.from_edges(n, edges)


def planted_graph(rng, n, n_edges, n_bad, sabotage=16) -> SignedGraph:
    """Balanced backbone plus ``n_bad`` saboteurs with random-sign edges.

    Deleting the saboteurs restores balance, so the optimum is <= n_bad.
    """
    labels = [rng.randint(0, 1) for _ in range(n)]
    edges = set()
    while len(edges) < n_edges:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        u, v = min(u, v), max(u, v)
        edges.add((u, v, 1 if labels[u] == labels[v] else -1))
    for w in rng.sample(range(n), n_bad):
        for _ in range(sabotage):
            v = rng.randrange(n)
            if v == w:
                continue
            a, b = min(w, v), max(w, v)
            edges.add((a, b, 1 if rng.random() < 0.5 else -1))
    return SignedGraph.from_edges(n, sorted(edges))


def matrix_realizing(graph: SignedGraph) -> SparseMatrix:
    """Matrix whose signed graph is exactly ``graph`` (one column per edge).

    A positive edge needs opposite entries, a negative edge equal ones.
    """
    entries = []
    for c, (u, v, sign) in enumerate(graph.edges):
        entries.append((u, c, Fraction(1)))
        entries.append((v, c, Fraction(-1 if sign == 1 else 1)))
    return SparseMatrix.from_entries(graph.n, len(graph.edges), entries)


def random_matrix(
    rng: random.Random,
    n_rows_max: int = 8,
    n_cols_max: int = 8,
    p: float = 0.4,
) -> SparseMatrix:
    n_rows = rng.randint(1, n_rows_max)
    n_cols = rng.randint(1, n_cols_max)
    values = [
        Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
        Fraction(3), Fraction(1, 2), Fraction(-3, 4), Fraction(5),
    ]
    entries = []
    for r in range(n_rows):
        for c in range(n_cols):
            if rng.random() < p:
                entries.append((r, c, rng.choice(values)))
    return SparseMatrix.from_entries(n_rows, n_cols, entries)


def simple_adjacency(rng: random.Random, n_max: int = 12, p: float = 0.35) -> list[list[int]]:
    n = rng.randint(1, n_max)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].append(v)
                adj[v].append(u)
    return adj


def odd_negative_count(cycle: tuple[tuple[int, int, int], ...]) -> bool:
    return sum(1 for _, _, s in cycle if s == -1) % 2 == 1


def is_closed_walk(cycle: tuple[tuple[int, int, int], ...]) -> bool:
    if not cycle:
        return False
    for (a, b, _), (c, d, _) in zip(cycle, cycle[1:]):
        if b != c:
            return False
    return cycle[-1][1] == cycle[0][0]


def cycle_vertices_distinct(cycle: tuple[tuple[int, int, int], ...]) -> bool:
    verts = [a for a, _, _ in cycle]
    return len(verts) == len(set(verts))


def pair_mask(graph: SignedGraph, u: int, v: int) -> int:
    """Sign bitmask of the pair (u, v); 0 when not adjacent."""
    for w, m in zip(graph.neighbors[u], graph.masks[u]):
        if w == v:
            return m
    return 0


def edge_in_graph(graph: SignedGraph, a: int, b: int, sign: int) -> bool:
    mask = pair_mask(graph, a, b)
    return bool(mask & (POS if sign == 1 else NEG))


def negative_subgraph(graph: SignedGraph) -> SignedGraph:
    """Subgraph induced by the negative edges.

    Vertices are the endpoints of negative edges only (isolated vertices are
    excluded); all edges are negative.  ``tags`` maps back to the input
    graph's vertex ids.  A reference for the heuristic's in-place step.
    """
    pairs = [(u, v) for u, v, sign in graph.edges if sign == -1]
    verts = sorted({x for pair in pairs for x in pair})
    index = {v: i for i, v in enumerate(verts)}
    return SignedGraph.from_edges(
        len(verts), [(index[u], index[v], -1) for u, v in pairs], tags=verts
    )


def reference_permute_graph(graph: SignedGraph, order) -> SignedGraph:
    """``permute_graph`` as a sort of (new id, mask) tuples per vertex."""
    n = graph.n
    new_of_old = [0] * n
    for j, old in enumerate(order):
        new_of_old[old] = j
    neighbors = []
    masks = []
    for j in range(n):
        old = order[j]
        items = sorted(
            (new_of_old[u], m)
            for u, m in zip(graph.neighbors[old], graph.masks[old])
        )
        neighbors.append(tuple(u for u, _ in items))
        masks.append(tuple(m for _, m in items))
    tags = tuple(graph.tags[order[j]] for j in range(n))
    return SignedGraph(n, tags, tuple(neighbors), tuple(masks))


def reference_pass(graph: SignedGraph, strategy: str, rng, independent_set) -> HeuristicResult:
    """One heuristic pass certified by ``induced_subgraph`` + ``is_balanced``.

    The negative structure comes from :func:`negative_subgraph` of the
    switched graph, and the reflection is the certificate's switch set.
    """
    if strategy == "RS":
        forest = forest_rs(graph, rng if rng is not None else random.Random(0))
    else:
        forest = {"BFS": forest_bfs, "DFS": forest_dfs}[strategy](graph)
    negative = negative_subgraph(switch(graph, switch_set_from_forest(forest)))
    chosen = independent_set([list(nb) for nb in negative.neighbors])
    dropped = set(negative.tags) - {negative.tags[i] for i in chosen}
    retained = [v for v in range(graph.n) if v not in dropped]
    sub = induced_subgraph(graph, retained)
    certificate = is_balanced(sub)
    if not certificate.balanced:
        raise AssertionError("reference pass retained an unbalanced set")
    reflection = frozenset(sub.tags[v] for v in certificate.switch_set)
    return HeuristicResult(tuple(retained), graph.n - len(retained), reflection, strategy, 1, None, 0.0)


def reference_sga_repeat(graph: SignedGraph, repeats: int, strategy: str, seed: int) -> HeuristicResult:
    """Best of ``repeats`` reference passes, each on a tuple-sort permuted copy."""
    best = None
    for i in range(repeats):
        rng = random.Random(seed + i)
        order = list(range(graph.n))
        if i == 0:
            permuted = graph
        else:
            rng.shuffle(order)
            permuted = reference_permute_graph(graph, order)
        result = reference_pass(permuted, strategy, rng, greedy_independent_set)
        if best is None or len(result.retained) > len(best.retained):
            best = HeuristicResult(
                tuple(sorted(order[v] for v in result.retained)),
                result.k,
                frozenset(order[v] for v in result.reflection),
                strategy,
                repeats,
                seed,
                0.0,
            )
    return best


def reference_sga_vc(graph: SignedGraph, strategy: str, rng) -> HeuristicResult:
    """Reference pass whose independent set complements a minimum vertex cover."""

    def cover_complement(adjacency):
        size = 0
        while (cover := vertex_cover(adjacency, size)) is None:
            size += 1
        return set(range(len(adjacency))) - cover

    return reference_pass(graph, strategy, rng, cover_complement)


def is_independent_set(adjacency, chosen) -> bool:
    chosen = set(chosen)
    return all(u not in chosen or not (set(adjacency[u]) & chosen) for u in chosen)


def is_maximal_independent_set(adjacency, chosen) -> bool:
    if not is_independent_set(adjacency, chosen):
        return False
    chosen = set(chosen)
    for v in range(len(adjacency)):
        if v not in chosen and not (set(adjacency[v]) & chosen):
            return False
    return True


def brute_force_separator(adjacency, sources, sinks) -> int:
    """Smallest vertex set leaving no component with both terminal kinds."""
    n = len(adjacency)
    sources, sinks = set(sources), set(sinks)

    def separated(removed: set[int]) -> bool:
        seen = [False] * n
        for start in range(n):
            if start in removed or seen[start]:
                continue
            comp = []
            queue = [start]
            seen[start] = True
            while queue:
                v = queue.pop()
                comp.append(v)
                for u in adjacency[v]:
                    if u not in removed and not seen[u]:
                        seen[u] = True
                        queue.append(u)
            comp_set = set(comp)
            if comp_set & sources and comp_set & sinks:
                return False
        return True

    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            if separated(set(combo)):
                return size
    raise AssertionError("removing everything always separates")


def scipy_separator_size(adjacency, sources, sinks) -> int:
    """Minimum separator size by scipy's max flow on the vertex-split graph.

    An independent reference for :class:`refnet.flow.SeparatorSolver`:
    in(v) = 2v -> out(v) = 2v + 1 has capacity one, every other arc is wide.
    """
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    n = len(adjacency)
    source, sink, wide = 2 * n, 2 * n + 1, n + 1
    arcs = {(2 * v, 2 * v + 1): 1 for v in range(n)}
    for v in range(n):
        for u in adjacency[v]:
            arcs[(2 * v + 1, 2 * u)] = wide
    for v in sources:
        arcs[(source, 2 * v)] = wide
    for v in sinks:
        arcs[(2 * v + 1, sink)] = wide
    (rows, cols), caps = zip(*arcs), list(arcs.values())
    graph = csr_matrix(
        (np.array(caps, dtype=np.int32), (np.array(rows), np.array(cols))),
        shape=(2 * n + 2, 2 * n + 2),
    )
    return int(maximum_flow(graph, source, sink).flow_value)


def milp_mbd(graph: SignedGraph) -> int:
    """Minimum balanced deletion size by a 0/1 integer program (HiGHS).

    Variables: x_v = 1 deletes v, y_v is v's side.  A kept positive edge
    needs equal sides, a kept negative edge opposite ones; either constraint
    relaxes by x_u + x_v.  An independent oracle for graphs far beyond the
    brute-force limit.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = graph.n
    rows = []  # (coefficients by variable, upper bound); every row is "<= upper"
    for u, v, sign in graph.edges:
        x = {u: -1, v: -1}
        if sign == 1:  # |y_u - y_v| <= x_u + x_v
            rows.append(({**x, n + u: 1, n + v: -1}, 0))
            rows.append(({**x, n + u: -1, n + v: 1}, 0))
        else:  # 1 - x_u - x_v <= y_u + y_v <= 1 + x_u + x_v
            rows.append(({**x, n + u: -1, n + v: -1}, -1))
            rows.append(({**x, n + u: 1, n + v: 1}, 1))
    if not rows:
        return 0
    a = np.zeros((len(rows), 2 * n))
    for i, (coefficients, _) in enumerate(rows):
        for j, coef in coefficients.items():
            a[i, j] = coef
    upper = np.array([ub for _, ub in rows], dtype=float)
    cost = np.concatenate([np.ones(n), np.zeros(n)])
    result = milp(
        cost,
        constraints=LinearConstraint(a, -np.inf, upper),
        integrality=np.ones(2 * n),
        bounds=Bounds(0, 1),
    )
    assert result.success, result.message
    return int(round(result.fun))


def _decimal_exact(v: Fraction) -> str:
    """Exact decimal rendering; only denominators of the form 2^a 5^b allowed."""
    if v.denominator == 1:
        return str(v.numerator)
    den = v.denominator
    a = b = 0
    while den % 2 == 0:
        den //= 2
        a += 1
    while den % 5 == 0:
        den //= 5
        b += 1
    if den != 1:
        raise ValueError(f"{v} has no finite decimal form")
    shift = max(a, b)
    scaled = v * 10**shift
    text = str(scaled.numerator).rjust(shift + 1, "0")
    sign = "-" if text.startswith("-") else ""
    digits = text.lstrip("-").rjust(shift + 1, "0")
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


def column(matrix: SparseMatrix, c: int) -> list[tuple[int, Fraction]]:
    """Nonzeros of column ``c`` as (row, value), ascending by row."""
    return [(matrix.entries[i][0], matrix.entries[i][2]) for i in matrix.col_nonzeros[c]]


def write_mps(matrix: SparseMatrix, name: str = "TEST") -> str:
    """Render a matrix as a minimal equality-rows MPS file (test fixture aid)."""
    lines = [f"NAME          {name}", "ROWS", " N  OBJ"]
    row_names = [f"R{r + 1}" for r in range(matrix.n_rows)]
    for rname in row_names:
        lines.append(f" E  {rname}")
    lines.append("COLUMNS")
    for c in range(matrix.n_cols):
        col = column(matrix, c)
        if not col:
            continue
        cname = f"C{c + 1}"
        for r, v in col:
            lines.append(f"    {cname}  {row_names[r]}  {_decimal_exact(v)}")
    lines.append("RHS")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
