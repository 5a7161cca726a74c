"""Row/column scaling that increases the number of (0,±1)-rows.

Two stages.  Simple row scaling divides every row whose nonzeros share a
single magnitude x by that x.  The extended stage then walks the remaining
non-(0,±1)-rows in ascending index order, maintaining two boolean arrays:
per-row "is a (0,±1)-row" and per-column "bounded" (the column meets some
(0,±1)-row).  For the current row, let J be its bounded columns.  If J is
empty every incident column is divided by its pivot in the row; if the
entries on J share one magnitude x, the row is divided by x and then every
incident unbounded column is divided by its (row-scaled) pivot; otherwise
the row is left alone.  Both arrays are refreshed after every single row or
column action.

Values are kept as integer numerator/denominator pairs in lowest terms, so
the unit and equal-magnitude tests compare integers; division stays exact.

Only columns *unbounded at action time* are ever divided, so rows that are
already (0,±1) can never be damaged: the (0,±1)-row count is non-decreasing
and the zero/nonzero pattern never changes.  A single ascending pass is the
default; ``fixpoint=True`` repeats passes until nothing moves (each active
pass converts at least one row, so at most n_rows passes run).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from refnet.matrix_io import SparseMatrix


class _Workspace:
    """Mutable value store over a fixed sparsity pattern.

    Entry e holds the value ``num[e] / den[e]`` in lowest terms with
    ``den[e] > 0``, so unit tests and magnitude comparisons run on integers:
    the value is ±1 when ``den[e] == 1`` and ``num[e]`` is ±1, and its
    magnitude is the pair ``(abs(num[e]), den[e])``.

    ``unit[i]`` -- row i is a (0,±1)-row of the current values;
    ``bounded[j]`` -- column j has a nonzero in some (0,±1)-row.
    """

    def __init__(self, matrix: SparseMatrix):
        self.matrix = matrix
        entries = matrix.entries
        self.num: list[int] = [v.numerator for _, _, v in entries]
        self.den: list[int] = [v.denominator for _, _, v in entries]
        self.row_of: list[int] = [r for r, _, _ in entries]
        self.col_of: list[int] = [c for _, c, _ in entries]
        self.changed: set[int] = set()
        self.rows = matrix.row_nonzeros
        self.cols = matrix.col_nonzeros
        self.unit: list[bool] = [self._is_unit(row) for row in self.rows]
        self.bounded: list[bool] = [
            any(self.unit[self.row_of[e]] for e in col) for col in self.cols
        ]

    def _is_unit(self, row: tuple[int, ...]) -> bool:
        num, den = self.num, self.den
        return all(den[e] == 1 and (num[e] == 1 or num[e] == -1) for e in row)

    def magnitudes(self, entries) -> set[tuple[int, int]]:
        """Distinct magnitudes among the entries, as (numerator, denominator)."""
        num, den = self.num, self.den
        return {(abs(num[e]), den[e]) for e in entries}

    def _divide(self, e: int, p: int, q: int) -> None:
        """Divide entry e by the nonzero rational p/q (q > 0)."""
        n, d = self.num[e] * q, self.den[e] * p
        if d < 0:
            n, d = -n, -d
        g = gcd(n, d)
        self.num[e], self.den[e] = n // g, d // g
        self.changed.add(e)

    def _refresh_row(self, i: int) -> None:
        new_unit = self._is_unit(self.rows[i])
        if new_unit != self.unit[i]:
            self.unit[i] = new_unit
            unit, row_of = self.unit, self.row_of
            for e in self.rows[i]:
                j = self.col_of[e]
                self.bounded[j] = any(unit[row_of[f]] for f in self.cols[j])

    def scale_row(self, i: int, p: int, q: int) -> None:
        for e in self.rows[i]:
            self._divide(e, p, q)
        self._refresh_row(i)

    def scale_col(self, j: int, p: int, q: int) -> None:
        for e in self.cols[j]:
            self._divide(e, p, q)
        for e in self.cols[j]:
            self._refresh_row(self.row_of[e])

    def scale_col_by(self, e: int) -> None:
        """Divide entry e's column by entry e's current value (its pivot)."""
        self.scale_col(self.col_of[e], self.num[e], self.den[e])

    def to_matrix(self) -> SparseMatrix:
        # Entries keep the parent's (row, col) order; untouched ones are
        # reused, and each distinct new value becomes one Fraction.
        entries = list(self.matrix.entries)
        made: dict[tuple[int, int], Fraction] = {}
        for e in self.changed:
            key = (self.num[e], self.den[e])
            value = made.get(key)
            if value is None:
                value = made[key] = Fraction(*key)
            r, c, _ = entries[e]
            entries[e] = (r, c, value)
        return SparseMatrix(
            self.matrix.n_rows,
            self.matrix.n_cols,
            tuple(entries),
            self.matrix.row_names,
            self.matrix.col_names,
        )


def _simple_pass(ws: _Workspace) -> None:
    for i, row in enumerate(ws.rows):
        if ws.unit[i]:
            continue  # empty, or every magnitude is already 1
        magnitudes = ws.magnitudes(row)
        if len(magnitudes) == 1:
            ws.scale_row(i, *magnitudes.pop())


def _extended_pass(ws: _Workspace) -> bool:
    changed = False
    for c in range(ws.matrix.n_rows):
        if ws.unit[c]:
            continue
        row_entries = ws.rows[c]
        bounded_entries = [e for e in row_entries if ws.bounded[ws.col_of[e]]]
        if not bounded_entries:
            for e in row_entries:
                ws.scale_col_by(e)
            changed = True
        else:
            magnitudes = ws.magnitudes(bounded_entries)
            if len(magnitudes) == 1:
                ws.scale_row(c, *magnitudes.pop())
                bounded = set(bounded_entries)
                for e in row_entries:
                    if e not in bounded:
                        ws.scale_col_by(e)
                changed = True
    return changed


def scale(matrix: SparseMatrix, fixpoint: bool = False) -> SparseMatrix:
    """Full scaling pipeline: simple row scaling, then the extended stage."""
    ws = _Workspace(matrix)
    _simple_pass(ws)
    while _extended_pass(ws) and fixpoint:
        pass
    return ws.to_matrix()
