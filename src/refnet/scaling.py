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

A row action divides only columns that were unbounded when it began, so a
row that is (0,±1) at the start of a row action is never damaged by it: the
(0,±1)-row count never falls across a row action, and the zero/nonzero
pattern never changes.  Within one action a row can be damaged: dividing one
column can make another row (0,±1), which bounds a column the same action
divides next ([[2, 3], [2, 1]] scales to [[1, 1], [1, 1/3]], and row 1 is
[1, 1] after the first division).  One ascending extended pass is still a
fixpoint: a row it acts on ends as a (0,±1)-row and so stays one, and a row
it skips has two magnitudes among columns bounded by rows that were (0,±1)
when its action began; those columns stay bounded and are never divided
again, so a second pass skips the row too.
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
        self.row_of: list[int] = [r for r, _, _ in entries]
        self.col_of: list[int] = [c for _, c, _ in entries]
        self.num: list[int] = []
        self.den: list[int] = []
        self.changed: set[int] = set()
        self.rows = matrix.row_nonzeros
        self.cols = matrix.col_nonzeros
        # The scan that reads the values also clears the unit flag of every
        # row with a non-unit entry; a column is bounded once a unit row
        # meets it.
        num, den = self.num, self.den
        unit = self.unit = [True] * matrix.n_rows
        for r, _, v in entries:
            p, q = v.numerator, v.denominator
            num.append(p)
            den.append(q)
            if q != 1 or (p != 1 and p != -1):
                unit[r] = False
        bounded = self.bounded = [False] * matrix.n_cols
        for r, c in zip(self.row_of, self.col_of):
            if unit[r]:
                bounded[c] = True

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
                # A unit row bounds its columns; a column that loses one
                # looks for another.
                self.bounded[j] = new_unit or any(unit[row_of[f]] for f in self.cols[j])

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
        # Entries keep the parent's (row, col) order, and so its indexes;
        # untouched ones are reused, and each new value becomes one Fraction.
        # The unit flags, current after every action, are the scaled
        # matrix's (0,±1)-row flags, so :func:`classify_rows` returns them.
        entries = list(self.matrix.entries)
        made: dict[tuple[int, int], Fraction] = {}
        for e in self.changed:
            key = (self.num[e], self.den[e])
            value = made.get(key)
            if value is None:
                value = made[key] = Fraction(*key)
            r, c, _ = entries[e]
            entries[e] = (r, c, value)
        scaled = SparseMatrix(
            self.matrix.n_rows,
            self.matrix.n_cols,
            tuple(entries),
            self.matrix.row_names,
            self.matrix.col_names,
        )
        vars(scaled).update(
            row_nonzeros=self.rows, col_nonzeros=self.cols, _unit_rows=tuple(self.unit)
        )
        return scaled


def _simple_pass(ws: _Workspace) -> None:
    num, den, unit = ws.num, ws.den, ws.unit
    for i, row in enumerate(ws.rows):
        if unit[i]:
            continue  # empty, or every magnitude is already 1
        # A row's entries are contiguous; they share one magnitude exactly
        # when they share one denominator and one absolute numerator.
        dens = set(den[row.start:row.stop])
        nums = set(map(abs, num[row.start:row.stop]))
        if len(dens) == 1 and len(nums) == 1:
            ws.scale_row(i, nums.pop(), dens.pop())


def _extended_pass(ws: _Workspace) -> None:
    unit, bounded_col, col_of = ws.unit, ws.bounded, ws.col_of
    for c in range(ws.matrix.n_rows):
        if unit[c]:
            continue
        row_entries = ws.rows[c]
        bounded_entries = [e for e in row_entries if bounded_col[col_of[e]]]
        if not bounded_entries:
            for e in row_entries:
                ws.scale_col_by(e)
        else:
            magnitudes = ws.magnitudes(bounded_entries)
            if len(magnitudes) == 1:
                ws.scale_row(c, *magnitudes.pop())
                bounded = set(bounded_entries)
                for e in row_entries:
                    if e not in bounded:
                        ws.scale_col_by(e)


def scale(matrix: SparseMatrix) -> SparseMatrix:
    """Full scaling pipeline: simple row scaling, then one extended pass."""
    ws = _Workspace(matrix)
    _simple_pass(ws)
    _extended_pass(ws)
    return ws.to_matrix()
