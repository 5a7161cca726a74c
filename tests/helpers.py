"""Shared generators and reference checks for the test suite."""

from __future__ import annotations

import itertools
import random
from collections import deque
from fractions import Fraction

from refnet.exact import _ORACLE_LIMIT, vertex_cover
from refnet.matrix_io import MatrixFormatError, SparseMatrix, _decode, _parse_numeral
from refnet.scaling import _extended_pass, _Workspace
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
    BalanceCertificate,
    SignedGraph,
    _witness_cycle,
    induced_subgraph,
    is_balanced,
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


def frustrated_graph(n: int, d: float, f: int, seed: int) -> SignedGraph:
    """Balanced random graph of average degree ``d`` with ``f`` signs flipped.

    A random two-labelling, a random spanning tree plus random edges up to
    ``n * d / 2``, each signed as the labelling implies; then ``f`` distinct
    edges have their sign flipped, so the optimum is at most ``f``.  Unlike
    on planted graphs, the disjoint-cycle packing bound often falls short
    of the optimum here.
    """
    rng = random.Random(seed)
    labels = [rng.randint(0, 1) for _ in range(n)]
    order = rng.sample(range(n), n)
    pairs = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        pairs.add((min(u, v), max(u, v)))
    while len(pairs) < n * d / 2:
        u, v = rng.sample(range(n), 2)
        pairs.add((min(u, v), max(u, v)))
    pairs = sorted(pairs)
    flipped = set(rng.sample(range(len(pairs)), f))
    return SignedGraph.from_edges(n, [
        (u, v, (1 if labels[u] == labels[v] else -1) * (-1 if i in flipped else 1))
        for i, (u, v) in enumerate(pairs)
    ])


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


def extended_stage(m: SparseMatrix) -> SparseMatrix:
    """One extended scaling pass over m's values, without the simple stage first."""
    ws = _Workspace(m)
    _extended_pass(ws)
    return ws.to_matrix()


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


def switch(graph: SignedGraph, switch_set) -> SignedGraph:
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


def reference_induced_subgraph(graph: SignedGraph, vertices) -> SignedGraph:
    """``induced_subgraph`` through a (u, v) mask dict that re-sorts every list."""
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
    return reference_from_pair_masks(len(verts), pair_masks, verts)


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


def is_bipartite_without(adjacency, removed: set[int]) -> bool:
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


def brute_force_oct(adjacency) -> tuple[int, set[int]]:
    """Smallest vertex set whose removal leaves a bipartite graph."""
    n = len(adjacency)
    if n > _ORACLE_LIMIT:
        raise ValueError(f"oracle limited to {_ORACLE_LIMIT} vertices")
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            removed = set(combo)
            if is_bipartite_without(adjacency, removed):
                return size, removed
    raise AssertionError("removing all vertices always bipartizes")


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


# ---------------------------------------------------------------------------
# Reference parsers: the tuple-keyed parsers that coerce and sort through
# ``SparseMatrix.from_entries``, kept as oracles for the one-pass ones.


def _reference_numeral(token: str, line_no: int, memo: dict[str, Fraction]) -> Fraction:
    value = memo.get(token)
    if value is None:
        value = memo[token] = _parse_numeral(token, line_no)
    return value


def reference_parse_coord(text: str | bytes) -> SparseMatrix:
    text = _decode(text)
    numerals: dict[str, Fraction] = {}
    header: tuple[int, int, int] | None = None
    entries: list = []
    seen: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 3:
                raise MatrixFormatError("header must be 'n_rows n_cols n_entries'", line_no)
            try:
                header = (int(tokens[0]), int(tokens[1]), int(tokens[2]))
            except ValueError:
                raise MatrixFormatError("header fields must be integers", line_no) from None
            if min(header) < 0:
                raise MatrixFormatError("header fields must be non-negative", line_no)
            continue
        if len(tokens) != 3:
            raise MatrixFormatError("expected 'row col value'", line_no)
        n_rows, n_cols, n_entries = header
        if len(entries) >= n_entries:
            raise MatrixFormatError("more entries than declared in header", line_no)
        try:
            r, c = int(tokens[0]) - 1, int(tokens[1]) - 1
        except ValueError:
            raise MatrixFormatError("indices must be integers", line_no) from None
        if not (0 <= r < n_rows and 0 <= c < n_cols):
            raise MatrixFormatError(f"index ({r + 1}, {c + 1}) out of range", line_no)
        if (r, c) in seen:
            raise MatrixFormatError(f"duplicate entry at ({r + 1}, {c + 1})", line_no)
        value = _reference_numeral(tokens[2], line_no, numerals)
        if not value:
            raise MatrixFormatError(f"zero value at ({r + 1}, {c + 1})", line_no)
        seen.add((r, c))
        entries.append((r, c, value))
    if header is None:
        raise MatrixFormatError("empty input, missing header")
    if len(entries) != header[2]:
        raise MatrixFormatError(f"expected {header[2]} entries, found {len(entries)}")
    return SparseMatrix.from_entries(header[0], header[1], entries)


_MPS_SECTIONS = {"NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"}


def reference_parse_mps(text: str | bytes) -> SparseMatrix:
    text = _decode(text)
    numerals: dict[str, Fraction] = {}
    row_type: dict[str, str] = {}
    row_index: dict[str, int] = {}
    row_names: list[str] = []
    col_index: dict[str, int] = {}
    col_names: list[str] = []
    entries: list = []
    seen: set[tuple[int, int]] = set()
    section: str | None = None
    saw_endata = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if saw_endata:
            break
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        if raw[0] not in " \t":
            tokens = raw.split()
            keyword = tokens[0]
            if keyword not in _MPS_SECTIONS:
                raise MatrixFormatError(f"unknown section header {keyword!r}", line_no)
            if keyword == "ENDATA":
                saw_endata = True
                continue
            section = keyword
            continue
        tokens = raw.split()
        if section is None or section == "NAME":
            raise MatrixFormatError("data line outside any section", line_no)
        if section == "ROWS":
            if len(tokens) != 2:
                raise MatrixFormatError("ROWS line must be 'type name'", line_no)
            rtype, name = tokens
            if rtype not in {"N", "L", "G", "E"}:
                raise MatrixFormatError(f"unknown row type {rtype!r}", line_no)
            if name in row_type:
                raise MatrixFormatError(f"row {name!r} declared twice", line_no)
            row_type[name] = rtype
            if rtype != "N":
                row_index[name] = len(row_names)
                row_names.append(name)
        elif section == "COLUMNS":
            if "'MARKER'" in raw:
                continue
            if len(tokens) not in (3, 5):
                raise MatrixFormatError(
                    "COLUMNS line must be 'col row value [row value]'", line_no
                )
            col = tokens[0]
            if col not in col_index:
                col_index[col] = len(col_names)
                col_names.append(col)
            c = col_index[col]
            for row_name, value_token in zip(tokens[1::2], tokens[2::2]):
                if row_name not in row_type:
                    raise MatrixFormatError(f"undeclared row {row_name!r}", line_no)
                value = _reference_numeral(value_token, line_no, numerals)
                if row_type[row_name] == "N":
                    continue
                if not value:
                    raise MatrixFormatError(
                        f"explicit zero for row {row_name!r}, column {col!r}", line_no
                    )
                r = row_index[row_name]
                if (r, c) in seen:
                    raise MatrixFormatError(
                        f"duplicate entry for row {row_name!r}, column {col!r}", line_no
                    )
                seen.add((r, c))
                entries.append((r, c, value))
        elif section in ("RHS", "RANGES"):
            if len(tokens) not in (3, 5):
                raise MatrixFormatError(f"{section} line must be 'name row value [row value]'", line_no)
            for row_name, value_token in zip(tokens[1::2], tokens[2::2]):
                if row_name not in row_type:
                    raise MatrixFormatError(f"undeclared row {row_name!r}", line_no)
                _reference_numeral(value_token, line_no, numerals)
        elif section == "BOUNDS":
            if len(tokens) not in (3, 4):
                raise MatrixFormatError("BOUNDS line must be 'type name col [value]'", line_no)
            if len(tokens) == 4:
                _reference_numeral(tokens[3], line_no, numerals)
    if not saw_endata:
        raise MatrixFormatError("missing ENDATA")
    return SparseMatrix.from_entries(len(row_names), len(col_names), entries, row_names, col_names)


def reference_row_nonzeros(matrix: SparseMatrix) -> tuple[tuple[int, ...], ...]:
    """Per-row entry indices by bucketing every entry under its row."""
    rows: list[list[int]] = [[] for _ in range(matrix.n_rows)]
    for i, (r, _, _) in enumerate(matrix.entries):
        rows[r].append(i)
    return tuple(tuple(ix) for ix in rows)


# ---------------------------------------------------------------------------
# Reference graph layer: the balance test, pair-mask constructor and switch
# set as first written, kept as oracles for the faster ones.


def reference_from_pair_masks(n: int, pair_masks: dict[tuple[int, int], int], tags=None) -> SignedGraph:
    """``SignedGraph._from_pair_masks`` sorting (neighbor, mask) tuples."""
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
    return SignedGraph(n, tuple(range(n) if tags is None else tags), tuple(neighbors), tuple(masks))


def reference_is_balanced(graph: SignedGraph) -> BalanceCertificate:
    """``is_balanced`` trying each edge of a pair through a per-mask sign tuple."""
    n, neighbors, masks = graph.n, graph.neighbors, graph.masks
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
            for u, mask in zip(neighbors[v], masks[v]):
                for sign in {POS: (1,), NEG: (-1,)}.get(mask, (1, -1)):
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
    return BalanceCertificate(switch_set=frozenset(v for v in range(n) if label[v] == 1))


def reference_switch_set_from_forest(forest) -> frozenset[int]:
    """The switch set by walking every vertex's parent chain up to a known parity."""
    n, parent, parent_sign = forest.n, forest.parent, forest.parent_sign
    parity: list[int | None] = [None] * n
    for v in range(n):
        chain = []
        x = v
        while parity[x] is None and parent[x] != -1:
            chain.append(x)
            x = parent[x]
        if parity[x] is None:
            parity[x] = 0
        for y in reversed(chain):
            parity[y] = parity[parent[y]] ^ (1 if parent_sign[y] == -1 else 0)
    return frozenset(v for v in range(n) if parity[v] == 1)
