"""The one-pass parsers against the reference parsers in ``helpers``.

Seeded random MPS and coordinate texts, valid ones and ones with a single
injected defect, must give an equal matrix, or the same
``MatrixFormatError`` message on the same line.
"""

from __future__ import annotations

import random

import pytest

from helpers import (
    random_matrix,
    reference_parse_coord,
    reference_parse_mps,
    reference_row_nonzeros,
)
from refnet.cli import main
from refnet.matrix_io import MatrixFormatError, parse_coord, parse_mps
from refnet.scaling import scale

# Spellings of a few values, so equal values arrive through distinct tokens.
VALUES = ["1", "-1", "1.0", "-1e0", "2", "-3", "0.5", "-2.5", "3/4", "1.5D+1", "10d-1", "7"]
ZEROS = ["0", "0.0", "-0", "0e5", "0/3"]
BAD = ["1.2.3", "zz", "1e", "--1"]

MPS_DEFECTS = [
    "undeclared_row",
    "adjacent_duplicate",
    "distant_duplicate",
    "constraint_zero",
    "bad_numeral_first_in_rhs",
    "rows_field_count",
    "unknown_row_type",
    "row_declared_twice",
    "columns_field_count",
    "rhs_field_count",
    "rhs_undeclared_row",
    "bounds_field_count",
    "data_outside_section",
]
COORD_DEFECTS = [
    "duplicate", "zero", "out_of_range", "too_many", "bad_numeral",
    "negative_header", "short_line",
]


def outcome(parse, text):
    try:
        return "ok", parse(text)
    except MatrixFormatError as exc:
        return "error", (str(exc), exc.line_no)


def random_mps(rng: random.Random, defect: str | None) -> str:
    """An MPS text over random rows and columns, with at most one defect."""
    rows = [(rng.choice("LGE"), f"R{i}") for i in range(rng.randint(1, 8))]
    rows += [("N", f"OBJ{i}") for i in range(rng.randint(0, 2))]
    rng.shuffle(rows)
    names = [name for _, name in rows]
    n_rows = [name for kind, name in rows if kind == "N"]
    lines = ["NAME          RANDOM", "ROWS"] + [f" {kind}  {name}" for kind, name in rows]
    if defect == "rows_field_count":
        bad_row = rng.choice([" L", f" E  R99  {rng.choice(VALUES)}"])
    elif defect == "unknown_row_type":
        bad_row = f" {rng.choice('XnB')}  R99"
    elif defect == "row_declared_twice":
        bad_row = f" {rng.choice('NLGE')}  {rng.choice(names)}"
    if defect in ("rows_field_count", "unknown_row_type", "row_declared_twice"):
        lines.insert(rng.randint(2, len(lines)), bad_row)
    if defect == "data_outside_section":
        lines.insert(rng.randint(0, 1), f" {rng.choice('NLGE')}  R99")
    lines.append("COLUMNS")
    columns_start = len(lines)
    # Each column's (row, token) cells, some emitted in two separate runs.
    columns = []
    for c in range(rng.randint(1, 8)):
        cells = [(name, rng.choice(VALUES)) for name in names if rng.random() < 0.5]
        if n_rows and rng.random() < 0.3:
            # A zero coefficient in an N row is allowed.
            cells.append((rng.choice(n_rows), rng.choice(ZEROS)))
        if cells:
            columns.append((f"C{c}", cells))
    if not columns:
        columns.append(("C0", [(names[0], "1")]))
    if defect == "undeclared_row":
        name, cells = rng.choice(columns)
        cells.insert(rng.randrange(len(cells) + 1), ("NOSUCH", "1"))
    elif defect in ("adjacent_duplicate", "distant_duplicate"):
        candidates = [col for col in columns if any(row not in n_rows for row, _ in col[1])]
        if candidates:
            name, cells = rng.choice(candidates)
            row = rng.choice([row for row, _ in cells if row not in n_rows])
            cells.append((row, rng.choice(VALUES)))
            if defect == "distant_duplicate":
                columns.append((name, [cells.pop()]))
    elif defect == "constraint_zero":
        constraint = [name for name in names if name not in n_rows]
        name, cells = rng.choice(columns)
        cells.insert(rng.randrange(len(cells) + 1), (rng.choice(constraint), rng.choice(ZEROS)))
    runs = []
    for name, cells in columns:
        if len(cells) > 2 and rng.random() < 0.3:
            cut = rng.randrange(1, len(cells))
            runs += [(name, cells[:cut]), (name, cells[cut:])]
        else:
            runs.append((name, cells))
    if rng.random() < 0.5:
        # Move one later run away from its column's first run.
        i = rng.randrange(len(runs))
        runs.append(runs.pop(i))
    for name, cells in runs:
        if rng.random() < 0.2:
            lines.append("    MARKER                 'MARKER'                 'INTORG'")
        if rng.random() < 0.2:
            lines.append("* a comment")
        if rng.random() < 0.1:
            lines.append("")
        i = 0
        while i < len(cells):
            if i + 1 < len(cells) and rng.random() < 0.5:
                (r1, v1), (r2, v2) = cells[i], cells[i + 1]
                lines.append(f"    {name}  {r1}  {v1}   {r2}  {v2}")
                i += 2
            else:
                r1, v1 = cells[i]
                lines.append(f"    {name}  {r1}  {v1}")
                i += 1
    if defect == "columns_field_count":
        fields = [rng.choice(columns)[0]]
        for _ in range(3):
            fields += [rng.choice(names), rng.choice(VALUES)]
        count = rng.choice([2, 4, 6])
        lines.insert(rng.randint(columns_start, len(lines)), "    " + "  ".join(fields[:count]))
    lines.append("RHS")
    for _ in range(rng.randint(0, 3)):
        lines.append(f"    RHS  {rng.choice(names)}  {rng.choice(VALUES)}")
    if defect in ("rhs_field_count", "rhs_undeclared_row"):
        if rng.random() < 0.5:
            lines.append("RANGES")
        pairs = [[rng.choice(names), rng.choice(VALUES)] for _ in range(rng.randint(1, 2))]
        if defect == "rhs_undeclared_row":
            rng.choice(pairs)[0] = "NOSUCH"
        fields = ["RNG"] + [token for pair in pairs for token in pair]
        if defect == "rhs_field_count":
            fields = rng.choice([fields[:-1], fields + [rng.choice(names)]])
        lines.append("    " + "  ".join(fields))
    if defect == "bad_numeral_first_in_rhs":
        bad = rng.choice(BAD)
        lines.append(f"    RHS  {rng.choice(names)}  {bad}")
        lines.append("BOUNDS")
        lines.append(f" UP BND  {columns[0][0]}  {bad}")
    else:
        lines.append("BOUNDS")
        lines.append(f" UP BND  {columns[0][0]}  {rng.choice(VALUES)}")
    if defect == "bounds_field_count":
        lines.append(rng.choice([" FR BND", f" UP BND  {columns[0][0]}  1  2"]))
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def random_coord(rng: random.Random, defect: str | None) -> str:
    """A coordinate text with random cells, with at most one defect."""
    n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
    cells = [(r, c) for r in range(1, n_rows + 1) for c in range(1, n_cols + 1) if rng.random() < 0.4]
    rng.shuffle(cells)
    body = [f"{r} {c} {rng.choice(VALUES)}" for r, c in cells]
    declared = len(body)
    if defect == "duplicate" and cells:
        r, c = rng.choice(cells)
        body.insert(rng.randrange(len(body) + 1), f"{r} {c} {rng.choice(VALUES)}")
        declared += 1
    elif defect == "zero":
        r, c = rng.randint(1, n_rows), rng.randint(1, n_cols)
        body.insert(rng.randrange(len(body) + 1), f"{r} {c} {rng.choice(ZEROS)}")
        declared += 1
    elif defect == "out_of_range":
        r, c = rng.choice([(0, 1), (n_rows + 1, 1), (1, n_cols + 1), (-1, 1)])
        body.insert(rng.randrange(len(body) + 1), f"{r} {c} 1")
        declared += 1
    elif defect == "too_many":
        body.append(f"{n_rows} {n_cols} 1")
    elif defect == "bad_numeral" and body:
        i = rng.randrange(len(body))
        r, c, _ = body[i].split()
        body[i] = f"{r} {c} {rng.choice(BAD)}"
    elif defect == "short_line":
        r, c = rng.randint(1, n_rows), rng.randint(1, n_cols)
        body.insert(rng.randrange(len(body) + 1), rng.choice([f"{r} {c}", f"{r} {c} 1 1"]))
        declared += 1
    if rng.random() < 0.3:
        body.insert(rng.randrange(len(body) + 1), "% comment")
    header = [n_rows, n_cols, declared]
    if defect == "negative_header":
        header[rng.randrange(3)] = -rng.randint(1, 3)
    return " ".join(map(str, header)) + "\n" + "\n".join(body) + "\n"


@pytest.mark.parametrize("defect", [None, *MPS_DEFECTS])
def test_mps_matches_reference(defect):
    rng = random.Random(f"mps:{defect}")
    errors = 0
    for _ in range(150):
        text = random_mps(rng, defect)
        got = outcome(parse_mps, text)
        assert got == outcome(reference_parse_mps, text), text
        errors += got[0] == "error"
    if defect is None:
        assert errors == 0
    else:
        assert errors > 100


@pytest.mark.parametrize("defect", [None, *COORD_DEFECTS])
def test_coord_matches_reference(defect):
    rng = random.Random(f"coord:{defect}")
    errors = 0
    for _ in range(200):
        text = random_coord(rng, defect)
        got = outcome(parse_coord, text)
        assert got == outcome(reference_parse_coord, text), text
        errors += got[0] == "error"
    if defect is None:
        assert errors == 0
    else:
        assert errors > 100


@pytest.mark.parametrize(
    "fmt,defect", [("mps", d) for d in MPS_DEFECTS] + [("coord", d) for d in COORD_DEFECTS]
)
def test_extract_reports_each_defect(tmp_path, capsys, fmt, defect):
    # `refnet extract` exits 2 with the reference parser's message and line.
    generate, reference = {
        "mps": (random_mps, reference_parse_mps),
        "coord": (random_coord, reference_parse_coord),
    }[fmt]
    rng = random.Random(f"cli:{defect}")
    kind, error = "ok", None
    while kind == "ok":
        text = generate(rng, defect)
        kind, error = outcome(reference, text)
    path = tmp_path / f"bad.{fmt}"
    path.write_text(text)
    assert main(["extract", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {error[0]}\n"


def test_matrices_keep_names_and_values():
    rng = random.Random(3)
    for _ in range(100):
        text = random_mps(rng, None)
        got, want = parse_mps(text), reference_parse_mps(text)
        assert got.row_names == want.row_names and got.col_names == want.col_names
        assert [type(v) for _, _, v in got.entries] == [type(v) for _, _, v in want.entries]


def test_row_nonzeros_match_buckets():
    rng = random.Random(4)
    for _ in range(60):
        m = random_matrix(rng)
        for matrix in (m, scale(m), m.submatrix_rows(sorted(rng.sample(range(m.n_rows), m.n_rows // 2)))):
            spans = matrix.row_nonzeros
            assert all(isinstance(span, range) for span in spans)
            assert tuple(tuple(span) for span in spans) == reference_row_nonzeros(matrix)
