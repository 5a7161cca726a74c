"""Exact-rational sparse matrices and the two input formats they come from.

Constraint matrices are stored sparsely: only nonzero entries are kept, each
carrying its row and column index, plus per-row and per-column lists of entry
references.  All values are :class:`fractions.Fraction` so that scaling and
membership tests against {-1, 0, +1} are exact -- no tolerance ever enters.

Two file formats are supported:

* a subset of MPS as used by the Netlib LP collection (sections NAME, ROWS,
  COLUMNS, RHS, RANGES, BOUNDS, ENDATA; constraint rows of type L/G/E; the
  N-type objective/free rows are excluded from the matrix),
* a plain coordinate format: a header line ``n_rows n_cols n_entries``
  followed by one ``row col value`` triple per line (1-based indices,
  ``%`` starts a comment line).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence


class MatrixFormatError(ValueError):
    """Malformed matrix input.  Carries the 1-based offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


Entry = tuple[int, int, Fraction]


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable sparse matrix over exact rationals.

    ``entries`` is strictly increasing in (row, col), so no (row, col) pair
    repeats, and no entry is zero; construction checks both.
    :meth:`from_entries` sorts and coerces arbitrary input.
    ``row_names``/``col_names`` are optional identifiers kept from the source
    file so reports can name rows instead of numbering them.
    """

    n_rows: int
    n_cols: int
    entries: tuple[Entry, ...]
    row_names: tuple[str, ...] | None = None
    col_names: tuple[str, ...] | None = None

    def __post_init__(self):
        # One linear pass: sortedness makes a repeated (row, col) adjacent,
        # and the flat index r * n_cols + c orders entries as (row, col) does.
        n_rows, n_cols = self.n_rows, self.n_cols
        previous = -1
        for r, c, v in self.entries:
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise ValueError(f"entry ({r}, {c}) out of range")
            if not v:
                raise ValueError(f"zero entry stored at ({r}, {c})")
            index = r * n_cols + c
            if index <= previous:
                if index == previous:
                    raise ValueError(f"duplicate entry at ({r}, {c})")
                raise ValueError(f"entry ({r}, {c}) out of (row, col) order")
            previous = index
        if self.row_names is not None and len(self.row_names) != self.n_rows:
            raise ValueError("row_names length mismatch")
        if self.col_names is not None and len(self.col_names) != self.n_cols:
            raise ValueError("col_names length mismatch")

    @classmethod
    def from_entries(
        cls,
        n_rows: int,
        n_cols: int,
        entries: Iterable[tuple[int, int, Fraction | int | str]],
        row_names: Sequence[str] | None = None,
        col_names: Sequence[str] | None = None,
    ) -> "SparseMatrix":
        """Build a matrix, coercing values to Fraction and sorting entries."""
        normalized = tuple(
            sorted(
                (r, c, v if isinstance(v, Fraction) else Fraction(v))
                for r, c, v in entries
            )
        )
        return cls(
            n_rows,
            n_cols,
            normalized,
            tuple(row_names) if row_names is not None else None,
            tuple(col_names) if col_names is not None else None,
        )

    @cached_property
    def row_nonzeros(self) -> tuple[tuple[int, ...], ...]:
        """Per-row tuple of indices into ``entries``."""
        rows: list[list[int]] = [[] for _ in range(self.n_rows)]
        for i, (r, _, _) in enumerate(self.entries):
            rows[r].append(i)
        return tuple(tuple(ix) for ix in rows)

    @cached_property
    def col_nonzeros(self) -> tuple[tuple[int, ...], ...]:
        """Per-column tuple of indices into ``entries``."""
        cols: list[list[int]] = [[] for _ in range(self.n_cols)]
        for i, (_, c, _) in enumerate(self.entries):
            cols[c].append(i)
        return tuple(tuple(ix) for ix in cols)

    def row_name(self, r: int) -> str:
        return self.row_names[r] if self.row_names is not None else str(r + 1)

    def submatrix_rows(self, rows: Sequence[int], flip: Iterable[int] = ()) -> "SparseMatrix":
        """Row submatrix in the given row order, sign-flipping rows in ``flip``.

        Row indices refer to this matrix; ``flip`` must be a subset of
        ``rows``.  Column count and names are preserved.
        """
        flip_set = set(flip)
        index_of = {r: i for i, r in enumerate(rows)}
        if len(index_of) != len(rows):
            raise ValueError("duplicate row selected")
        entries = []
        for r, c, v in self.entries:
            i = index_of.get(r)
            if i is not None:
                entries.append((i, c, -v if r in flip_set else v))
        names = None
        if self.row_names is not None:
            names = tuple(self.row_names[r] for r in rows)
        return SparseMatrix.from_entries(len(rows), self.n_cols, entries, names, self.col_names)


def classify_rows(matrix: SparseMatrix) -> tuple[bool, ...]:
    """Flag each row that is a (0,±1)-row (every nonzero equals +1 or -1).

    A row with no nonzeros counts as a (0,±1)-row.  Rows failing this test
    can never belong to a reflected network, so downstream stages drop them.
    """
    unit = [True] * matrix.n_rows
    for r, _, v in matrix.entries:
        if v.denominator != 1 or v.numerator not in (1, -1):
            unit[r] = False
    return tuple(unit)


def is_network_matrix(matrix: SparseMatrix) -> bool:
    """True when every entry is ±1 and each column has at most one +1 and one -1."""
    pos = [0] * matrix.n_cols
    neg = [0] * matrix.n_cols
    for _, c, v in matrix.entries:
        if v.denominator != 1:
            return False
        if v.numerator == 1:
            pos[c] += 1
        elif v.numerator == -1:
            neg[c] += 1
        else:
            return False
    return all(p <= 1 for p in pos) and all(n <= 1 for n in neg)


_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)
_MAX_EXPONENT = 1000


def _parse_numeral(token: str, line_no: int) -> Fraction:
    # Fortran-style exponents (1.5D+2) appear in a few old files; Fraction
    # handles plain/scientific decimals and p/q forms natively.
    text = token.replace("D", "E").replace("d", "e") if ("D" in token or "d" in token) else token
    # Fraction expands a decimal exponent in full, so a huge one stalls here.
    exponent = _EXPONENT.search(text)
    if exponent is not None:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > 4 or int(digits or 0) > _MAX_EXPONENT:
            raise MatrixFormatError(
                f"exponent of {token!r} exceeds {_MAX_EXPONENT} in magnitude", line_no
            )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise MatrixFormatError(f"unparsable numeral {token!r}", line_no) from None


def _numeral(token: str, line_no: int, memo: dict[str, Fraction]) -> Fraction:
    """``_parse_numeral`` once per distinct token of one file.

    Files repeat a few numerals thousands of times.  A token that fails is
    never stored, so its error names the first line it appears on.
    """
    value = memo.get(token)
    if value is None:
        value = memo[token] = _parse_numeral(token, line_no)
    return value


def _decode(text: str | bytes) -> str:
    """Strict UTF-8 text; a byte that is not UTF-8 is an error naming its line.

    Decoding with replacement would merge distinct names: two column names
    that differ only in invalid bytes would become one column.
    """
    if isinstance(text, str):
        return text
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Count lines as the parsers do (str.splitlines), up to the bad byte.
        before = text[: exc.start].decode("utf-8")
        line_no = len((before + "x").splitlines())
        raise MatrixFormatError("input is not UTF-8 text", line_no) from None


# ---------------------------------------------------------------------------
# Coordinate format


def parse_coord(text: str | bytes) -> SparseMatrix:
    """Parse the coordinate text format into a matrix.

    Header line ``n_rows n_cols n_entries``, then exactly ``n_entries``
    lines ``row col value`` with 1-based indices.  Duplicate positions and
    zero values are rejected.
    """
    text = _decode(text)
    numerals: dict[str, Fraction] = {}
    header: tuple[int, int, int] | None = None
    entries: list[Entry] = []
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
        value = _numeral(tokens[2], line_no, numerals)
        if not value:
            raise MatrixFormatError(f"zero value at ({r + 1}, {c + 1})", line_no)
        seen.add((r, c))
        entries.append((r, c, value))
    if header is None:
        raise MatrixFormatError("empty input, missing header")
    if len(entries) != header[2]:
        raise MatrixFormatError(f"expected {header[2]} entries, found {len(entries)}")
    return SparseMatrix.from_entries(header[0], header[1], entries)


def _format_value(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def dump_coord(matrix: SparseMatrix) -> str:
    """Serialize to the coordinate format; exact round-trip with parse_coord."""
    lines = [f"{matrix.n_rows} {matrix.n_cols} {len(matrix.entries)}"]
    for r, c, v in matrix.entries:
        lines.append(f"{r + 1} {c + 1} {_format_value(v)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# MPS format

_SECTIONS = {"NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"}
_ROW_TYPES = {"N", "L", "G", "E"}


def parse_mps(text: str | bytes) -> SparseMatrix:
    """Parse the Netlib MPS subset into the constraint matrix.

    The matrix holds all L/G/E rows in declaration order; N-type rows
    (objective and free rows) are excluded.  RHS, RANGES and BOUNDS sections
    are validated structurally but do not contribute entries.  Both
    fixed-column and free-format files are accepted because fields are
    tokenized on whitespace.
    """
    text = _decode(text)
    numerals: dict[str, Fraction] = {}

    row_type: dict[str, str] = {}
    row_index: dict[str, int] = {}
    row_names: list[str] = []
    col_index: dict[str, int] = {}
    col_names: list[str] = []
    entries: list[Entry] = []
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
            if keyword not in _SECTIONS:
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
            if rtype not in _ROW_TYPES:
                raise MatrixFormatError(f"unknown row type {rtype!r}", line_no)
            if name in row_type:
                raise MatrixFormatError(f"row {name!r} declared twice", line_no)
            row_type[name] = rtype
            if rtype != "N":
                row_index[name] = len(row_names)
                row_names.append(name)

        elif section == "COLUMNS":
            if "'MARKER'" in raw:
                continue  # integrality markers carry no matrix data
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
                value = _numeral(value_token, line_no, numerals)
                if row_type[row_name] == "N":
                    continue  # objective/free coefficients are not constraints
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
                _numeral(value_token, line_no, numerals)

        elif section == "BOUNDS":
            if len(tokens) not in (3, 4):
                raise MatrixFormatError("BOUNDS line must be 'type name col [value]'", line_no)
            if len(tokens) == 4:
                _numeral(tokens[3], line_no, numerals)

    if not saw_endata:
        raise MatrixFormatError("missing ENDATA")

    return SparseMatrix.from_entries(
        len(row_names), len(col_names), entries, row_names, col_names
    )
