"""Output checks owned by the benchmark.

Nothing here calls into refnet: the checks work on the matrix the generator
wrote (:class:`corpus.Instance`), so a defect in parsing, scaling or graph
construction cannot hide itself.

Scaling divides rows by positive factors and columns by signed ones, so a row
set is a reflected network of the scaled matrix exactly when, in the written
matrix, (1) positive row and column factors bring every entry of the rows to
magnitude one, (2) every column holds at most two of their entries, and
(3) after negating the reflected rows, a column's two entries have opposite
signs.  Column sign flips cannot break (3), which is why the checks need no
knowledge of the scaling refnet chose.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_matrix


def _columns(inst, rows) -> dict[int, list[tuple[int, Fraction]]]:
    keep = set(rows)
    cols: dict[int, list[tuple[int, Fraction]]] = {}
    for (r, c), v in inst.entries.items():
        if r in keep:
            cols.setdefault(c, []).append((r, v))
    return cols


def _magnitudes_consistent(cols: dict[int, list[tuple[int, Fraction]]]) -> bool:
    """True when positive row/column factors can make every entry +-1.

    Propagates factors over the bipartite row-column graph; an entry whose
    two ends already have factors must agree exactly.
    """
    row_f: dict[int, Fraction] = {}
    col_f: dict[int, Fraction] = {}
    by_row: dict[int, list[tuple[int, Fraction]]] = {}
    for c, items in cols.items():
        for r, v in items:
            by_row.setdefault(r, []).append((c, abs(v)))
    for root in by_row:
        if root in row_f:
            continue
        row_f[root] = Fraction(1)
        queue = deque([("r", root)])
        while queue:
            kind, x = queue.popleft()
            if kind == "r":
                for c, mag in by_row[x]:
                    want = 1 / (mag * row_f[x])
                    if c not in col_f:
                        col_f[c] = want
                        queue.append(("c", c))
                    elif col_f[c] != want:
                        return False
            else:
                for r, v in cols[x]:
                    want = 1 / (abs(v) * col_f[x])
                    if r not in row_f:
                        row_f[r] = want
                        queue.append(("r", r))
                    elif row_f[r] != want:
                        return False
    return True


def network_rule_holds(inst, rows, reflected) -> bool:
    """The rows, with ``reflected`` negated, form a network matrix up to scaling."""
    reflected = set(reflected)
    if not reflected <= set(rows):
        return False
    cols = _columns(inst, rows)
    for items in cols.values():
        if len(items) > 2:
            return False
        if len(items) == 2:
            (a, va), (b, vb) = items
            sa = (va > 0) != (a in reflected)
            sb = (vb > 0) != (b in reflected)
            if sa == sb:
                return False
    return _magnitudes_consistent(cols)


def signed_edges(inst, rows) -> dict[tuple[int, int], int]:
    """Signed graph on matrix rows: bit 1 for a positive pair, bit 2 for a negative one.

    Rows sharing a column get a positive edge when their entries there have
    opposite signs, a negative edge when equal.  Keys are (row, row), lower first.
    """
    pairs: dict[tuple[int, int], int] = {}
    for items in _columns(inst, rows).values():
        items.sort()
        for i, (a, va) in enumerate(items):
            for b, vb in items[i + 1:]:
                bit = 1 if (va > 0) != (vb > 0) else 2
                pairs[(a, b)] = pairs.get((a, b), 0) | bit
    return pairs


def two_label(rows, pairs) -> set[int] | None:
    """Rows labelled 1 by a 2-labelling (equal across +, different across -), or None."""
    adj: dict[int, list[tuple[int, int]]] = {r: [] for r in rows}
    for (a, b), mask in pairs.items():
        for bit, differ in ((1, 0), (2, 1)):
            if mask & bit:
                adj[a].append((b, differ))
                adj[b].append((a, differ))
    label: dict[int, int] = {}
    for root in adj:
        if root in label:
            continue
        label[root] = 0
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y, differ in adj[x]:
                want = label[x] ^ differ
                if y not in label:
                    label[y] = want
                    queue.append(y)
                elif label[y] != want:
                    return None
    return {r for r, lab in label.items() if lab}


def deletion_balances(inst, unit_rows, deleted) -> bool:
    """Deleting ``deleted`` from ``unit_rows`` leaves a reflected network."""
    kept = [r for r in unit_rows if r not in set(deleted)]
    labelled = two_label(kept, signed_edges(inst, kept))
    return labelled is not None and network_rule_holds(inst, kept, labelled)


def milp_min_deletion(unit_rows, pairs, time_limit: float = 60.0) -> int:
    """Minimum balanced deletion by an integer program solved with HiGHS.

    Variables x_v (delete v) and y_v (label of v).  A positive pair needs
    |y_u - y_v| <= x_u + x_v, a negative pair |y_u + y_v - 1| <= x_u + x_v.
    One label per connected component is fixed to 0, which removes the
    global label-flip symmetry without cutting off any optimum.
    """
    index = {r: i for i, r in enumerate(unit_rows)}
    n = len(unit_rows)
    rows_i, cols_i, vals, lo, hi = [], [], [], [], []

    def add(terms, lower, upper):
        k = len(lo)
        for j, v in terms:
            rows_i.append(k)
            cols_i.append(j)
            vals.append(v)
        lo.append(lower)
        hi.append(upper)

    for (a, b), mask in pairs.items():
        u, v = index[a], index[b]
        xu, xv, yu, yv = u, v, n + u, n + v
        if mask & 1:  # y_u - y_v - x_u - x_v <= 0 and y_v - y_u - x_u - x_v <= 0
            add([(yu, 1), (yv, -1), (xu, -1), (xv, -1)], -np.inf, 0)
            add([(yv, 1), (yu, -1), (xu, -1), (xv, -1)], -np.inf, 0)
        if mask & 2:  # 1 - x_u - x_v <= y_u + y_v <= 1 + x_u + x_v
            add([(yu, 1), (yv, 1), (xu, 1), (xv, 1)], 1, np.inf)
            add([(yu, 1), (yv, 1), (xu, -1), (xv, -1)], -np.inf, 1)
    upper = np.ones(2 * n)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(index[a])] = find(index[b])
    for v in range(n):
        if find(v) == v:
            upper[n + v] = 0
    cost = np.concatenate([np.ones(n), np.zeros(n)])
    constraints = []
    if lo:
        a = coo_matrix((vals, (rows_i, cols_i)), shape=(len(lo), 2 * n)).tocsr()
        constraints.append(LinearConstraint(a, lo, hi))
    res = milp(
        cost,
        constraints=constraints,
        integrality=np.ones(2 * n),
        bounds=Bounds(np.zeros(2 * n), upper),
        options={"time_limit": time_limit},
    )
    if res.status != 0:
        raise RuntimeError(f"MILP reference did not reach an optimum: {res.message}")
    return round(res.fun)
