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

Only columns *unbounded at action time* are ever divided, so rows that are
already (0,±1) can never be damaged: the (0,±1)-row count is non-decreasing
and the zero/nonzero pattern never changes.  A single ascending pass is the
default; ``fixpoint=True`` repeats passes until nothing moves (each active
pass converts at least one row, so at most n_rows passes run).
"""

from __future__ import annotations

from fractions import Fraction

from refnet.matrix_io import SparseMatrix


class _Workspace:
    """Mutable value store over a fixed sparsity pattern.

    ``unit[i]`` -- row i is a (0,±1)-row of the current values;
    ``bounded[j]`` -- column j has a nonzero in some (0,±1)-row.
    """

    def __init__(self, matrix: SparseMatrix):
        self.matrix = matrix
        self.vals: list[Fraction] = [v for _, _, v in matrix.entries]
        self.rows = matrix.row_nonzeros
        self.cols = matrix.col_nonzeros
        self.unit: list[bool] = [
            all(abs(self.vals[e]) == 1 for e in row) for row in self.rows
        ]
        self.bounded: list[bool] = [False] * matrix.n_cols
        for j, col in enumerate(self.cols):
            self.bounded[j] = any(self.unit[matrix.entries[e][0]] for e in col)

    def entry_row(self, e: int) -> int:
        return self.matrix.entries[e][0]

    def entry_col(self, e: int) -> int:
        return self.matrix.entries[e][1]

    def _refresh_bounded(self, j: int) -> None:
        self.bounded[j] = any(self.unit[self.entry_row(e)] for e in self.cols[j])

    def _refresh_row(self, i: int) -> None:
        new_unit = all(abs(self.vals[e]) == 1 for e in self.rows[i])
        if new_unit != self.unit[i]:
            self.unit[i] = new_unit
            for e in self.rows[i]:
                self._refresh_bounded(self.entry_col(e))

    def scale_row(self, i: int, divisor: Fraction) -> None:
        for e in self.rows[i]:
            self.vals[e] /= divisor
        self._refresh_row(i)

    def scale_col(self, j: int, divisor: Fraction) -> None:
        for e in self.cols[j]:
            self.vals[e] /= divisor
        for e in self.cols[j]:
            self._refresh_row(self.entry_row(e))

    def to_matrix(self) -> SparseMatrix:
        entries = [
            (r, c, self.vals[i])
            for i, (r, c, _) in enumerate(self.matrix.entries)
        ]
        return SparseMatrix.from_entries(
            self.matrix.n_rows,
            self.matrix.n_cols,
            entries,
            self.matrix.row_names,
            self.matrix.col_names,
        )


def _simple_pass(ws: _Workspace) -> None:
    for i, row in enumerate(ws.rows):
        if not row:
            continue
        magnitudes = {abs(ws.vals[e]) for e in row}
        if len(magnitudes) == 1:
            x = magnitudes.pop()
            if x != 1:
                ws.scale_row(i, x)


def _extended_pass(ws: _Workspace) -> bool:
    changed = False
    for c in range(ws.matrix.n_rows):
        if ws.unit[c]:
            continue
        row_entries = ws.rows[c]
        bounded_entries = [e for e in row_entries if ws.bounded[ws.entry_col(e)]]
        if not bounded_entries:
            for e in row_entries:
                ws.scale_col(ws.entry_col(e), ws.vals[e])
            changed = True
        else:
            magnitudes = {abs(ws.vals[e]) for e in bounded_entries}
            if len(magnitudes) == 1:
                x = magnitudes.pop()
                bounded_cols = {ws.entry_col(e) for e in bounded_entries}
                ws.scale_row(c, x)
                for e in row_entries:
                    if ws.entry_col(e) not in bounded_cols:
                        ws.scale_col(ws.entry_col(e), ws.vals[e])
                changed = True
    return changed


def scale(matrix: SparseMatrix, fixpoint: bool = False) -> SparseMatrix:
    """Full scaling pipeline: simple row scaling, then the extended stage."""
    ws = _Workspace(matrix)
    _simple_pass(ws)
    while _extended_pass(ws) and fixpoint:
        pass
    return ws.to_matrix()
