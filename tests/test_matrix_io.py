from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_matrix
from refnet.matrix_io import (
    MatrixFormatError,
    SparseMatrix,
    classify_rows,
    dump_coord,
    is_network_matrix,
    parse_coord,
    parse_mps,
)


def mat(n_rows, n_cols, entries):
    return SparseMatrix.from_entries(n_rows, n_cols, entries)


class TestSparseMatrix:
    def test_rejects_zero_entry(self):
        with pytest.raises(ValueError, match="zero"):
            SparseMatrix(1, 1, ((0, 0, Fraction(0)),))

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseMatrix(1, 2, ((0, 0, Fraction(1)), (0, 0, Fraction(2))))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            SparseMatrix(1, 1, ((0, 1, Fraction(1)),))

    def test_row_col_nonzeros_cross_consistent(self):
        rng = random.Random(0)
        for _ in range(30):
            m = random_matrix(rng)
            for r in range(m.n_rows):
                for i in m.row_nonzeros[r]:
                    assert m.entries[i][0] == r
            for c in range(m.n_cols):
                for i in m.col_nonzeros[c]:
                    assert m.entries[i][1] == c
            # every entry is referenced exactly once on each axis
            assert sorted(i for ix in m.row_nonzeros for i in ix) == list(
                range(len(m.entries))
            )
            assert sorted(i for ix in m.col_nonzeros for i in ix) == list(
                range(len(m.entries))
            )

    def test_submatrix_rows_flip(self):
        m = mat(3, 2, [(0, 0, 1), (1, 0, 2), (1, 1, -3), (2, 1, 1)])
        sub = m.submatrix_rows([1, 2], flip=[1])
        assert sub.n_rows == 2
        assert sub.entries == ((0, 0, Fraction(-2)), (0, 1, Fraction(3)), (1, 1, Fraction(1)))

    @pytest.mark.parametrize(
        "rows,message",
        [([1, 2, 1], "duplicate row selected"), ([0, 3], "row 3 out of range"),
         ([-1], "row -1 out of range")],
        ids=["repeated", "past-the-end", "negative"],
    )
    def test_submatrix_rows_rejects(self, rows, message):
        m = mat(3, 2, [(0, 0, 1), (1, 0, 2), (1, 1, -3), (2, 1, 1)])
        with pytest.raises(ValueError, match=message):
            m.submatrix_rows(rows)


class TestClassifyRows:
    def test_mixed(self):
        m = mat(2, 2, [(0, 0, 1), (0, 1, -1), (1, 0, 2)])
        assert classify_rows(m) == (True, False)

    def test_zero_row_is_unit(self):
        m = mat(2, 2, [(0, 0, 1)])
        assert classify_rows(m) == (True, True)

    def test_all_ones(self):
        m = mat(1, 3, [(0, 0, 1), (0, 1, 1), (0, 2, 1)])
        assert classify_rows(m) == (True,)

    def test_agrees_with_entry_scan(self):
        rng = random.Random(1)
        for _ in range(50):
            m = random_matrix(rng)
            flags = classify_rows(m)
            for r in range(m.n_rows):
                expected = all(abs(v) == 1 for rr, _, v in m.entries if rr == r)
                assert flags[r] == expected


class TestNetworkCheck:
    def test_network(self):
        m = mat(3, 2, [(0, 0, 1), (1, 0, -1), (1, 1, 1), (2, 1, -1)])
        assert is_network_matrix(m)

    def test_two_plus_ones_in_column(self):
        m = mat(2, 1, [(0, 0, 1), (1, 0, 1)])
        assert not is_network_matrix(m)

    def test_non_unit_entry(self):
        m = mat(1, 1, [(0, 0, 2)])
        assert not is_network_matrix(m)


class TestCoord:
    def test_diagonal(self):
        m = parse_coord("2 2 2\n1 1 1\n2 2 -1\n")
        assert m.entries == ((0, 0, Fraction(1)), (1, 1, Fraction(-1)))

    def test_zero_value_rejected(self):
        with pytest.raises(MatrixFormatError, match="zero"):
            parse_coord("1 1 1\n1 1 0\n")

    def test_three_entries(self):
        m = parse_coord("2 2 3\n1 1 1\n1 2 1\n2 1 1\n")
        assert m.n_rows == 2 and m.n_cols == 2
        assert m.entries == (
            (0, 0, Fraction(1)),
            (0, 1, Fraction(1)),
            (1, 0, Fraction(1)),
        )

    def test_duplicate_rejected(self):
        with pytest.raises(MatrixFormatError, match="duplicate"):
            parse_coord("2 2 2\n1 1 1\n1 1 2\n")

    def test_out_of_range(self):
        with pytest.raises(MatrixFormatError, match="range"):
            parse_coord("1 1 1\n2 1 1\n")

    def test_entry_count_mismatch(self):
        with pytest.raises(MatrixFormatError, match="expected 2"):
            parse_coord("2 2 2\n1 1 1\n")

    def test_comments_and_fractions(self):
        m = parse_coord("% header comment\n1 2 2\n1 1 1/3\n% mid\n1 2 -2.5e1\n")
        assert m.entries == ((0, 0, Fraction(1, 3)), (0, 1, Fraction(-25)))

    def test_error_carries_line_number(self):
        with pytest.raises(MatrixFormatError) as err:
            parse_coord("1 1 1\nx 1 1\n")
        assert err.value.line_no == 2

    def test_round_trip_fixed(self):
        text = "3 4 4\n1 1 1\n1 4 -1/7\n2 2 250\n3 3 -3\n"
        m = parse_coord(text)
        assert parse_coord(dump_coord(m)) == m

    def test_round_trip_random(self):
        rng = random.Random(2)
        for _ in range(40):
            m = random_matrix(rng)
            bare = SparseMatrix(m.n_rows, m.n_cols, m.entries)
            assert parse_coord(dump_coord(bare)) == bare


MPS_SMALL = """* exercise every section
NAME          SMALL
ROWS
 N  COST
 E  R1
 L  R2
 G  R3
COLUMNS
    X         COST      3.0   R1        1.0
    X         R2        2.5e1
    Y         R1        -1.0  R3        -1
    Y         COST      1.0
RHS
    RHS       R1        4.0   R2        1.0
RANGES
    RNG       R2        5.0
BOUNDS
 UP BND       X         4.0
 FR BND       Y
ENDATA
"""


class TestMps:
    def test_small_instance(self):
        m = parse_mps(MPS_SMALL)
        assert m.row_names == ("R1", "R2", "R3")
        assert m.col_names == ("X", "Y")
        assert m.entries == (
            (0, 0, Fraction(1)),
            (0, 1, Fraction(-1)),
            (1, 0, Fraction(25)),
            (2, 1, Fraction(-1)),
        )

    def test_objective_excluded_single_equality(self):
        text = (
            "NAME T\nROWS\n N  OBJ\n E  R1\nCOLUMNS\n"
            "    X  OBJ  3.0  R1  1.0\n    Y  R1  -1.0\nRHS\nENDATA\n"
        )
        m = parse_mps(text)
        assert m.n_rows == 1 and m.n_cols == 2
        assert m.entries == ((0, 0, Fraction(1)), (0, 1, Fraction(-1)))

    def test_scientific_notation_exact(self):
        text = "NAME T\nROWS\n E  R1\nCOLUMNS\n    X  R1  2.5e1\nRHS\nENDATA\n"
        assert parse_mps(text).entries[0][2] == Fraction(25)

    def test_row_count_matches_declarations(self):
        m = parse_mps(MPS_SMALL)
        declared = [ln.split() for ln in MPS_SMALL.splitlines()]
        lge = [t for t in declared if len(t) == 2 and t[0] in ("L", "G", "E")]
        assert m.n_rows == len(lge)

    def test_undeclared_row(self):
        text = "NAME T\nROWS\n E  R1\nCOLUMNS\n    X  R2  1.0\nRHS\nENDATA\n"
        with pytest.raises(MatrixFormatError, match="undeclared row"):
            parse_mps(text)

    def test_missing_endata(self):
        with pytest.raises(MatrixFormatError, match="ENDATA"):
            parse_mps("NAME T\nROWS\n E  R1\nCOLUMNS\n    X  R1  1.0\n")

    def test_unknown_section(self):
        with pytest.raises(MatrixFormatError, match="unknown section"):
            parse_mps("NAME T\nROWSX\nENDATA\n")

    def test_bad_numeral_line_number(self):
        text = "NAME T\nROWS\n E  R1\nCOLUMNS\n    X  R1  1О0\nENDATA\n"
        with pytest.raises(MatrixFormatError) as err:
            parse_mps(text)
        assert err.value.line_no == 5

    def test_duplicate_entry(self):
        text = (
            "NAME T\nROWS\n E  R1\nCOLUMNS\n"
            "    X  R1  1.0\n    X  R1  2.0\nENDATA\n"
        )
        with pytest.raises(MatrixFormatError, match="duplicate"):
            parse_mps(text)

    def test_explicit_zero_rejected(self):
        text = "NAME T\nROWS\n E  R1\nCOLUMNS\n    X  R1  0.0\nENDATA\n"
        with pytest.raises(MatrixFormatError, match="zero"):
            parse_mps(text)

    def test_marker_lines_skipped(self):
        text = (
            "NAME T\nROWS\n E  R1\nCOLUMNS\n"
            "    MK  'MARKER'  'INTORG'\n"
            "    X  R1  1.0\n"
            "    MK  'MARKER'  'INTEND'\n"
            "ENDATA\n"
        )
        assert parse_mps(text).entries == ((0, 0, Fraction(1)),)

    def test_comment_lines(self):
        text = "* top\nNAME T\nROWS\n* inner\n E  R1\nCOLUMNS\n    X  R1  1\nENDATA\n"
        assert parse_mps(text).n_rows == 1

    def test_fortran_exponent(self):
        text = "NAME T\nROWS\n E  R1\nCOLUMNS\n    X  R1  1.5D+2\nENDATA\n"
        assert parse_mps(text).entries[0][2] == Fraction(150)

    def test_declaration_order_preserved(self):
        text = (
            "NAME T\nROWS\n L  B\n N  OBJ\n G  A\n E  C\nCOLUMNS\n"
            "    X  B  1  A  1\n    X  C  1\nENDATA\n"
        )
        m = parse_mps(text)
        assert m.row_names == ("B", "A", "C")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 5),
            st.integers(0, 5),
            st.fractions(min_value=-10, max_value=10),
        ),
        max_size=20,
    )
)
def test_coord_round_trip_property(raw):
    seen = set()
    entries = []
    for r, c, v in raw:
        if v != 0 and (r, c) not in seen:
            seen.add((r, c))
            entries.append((r, c, v))
    m = SparseMatrix.from_entries(6, 6, entries)
    assert parse_coord(dump_coord(m)) == m


_FRAGMENTS = [
    b"2 2 1\n", b"1 1 3\n", b"1 2 -1/2\n", b"% note\n", b"NAME T\n", b"ROWS\n",
    b" E  R\n", b" N  OBJ\n", b"COLUMNS\n", b"    X  R  1\n", b"RHS\n", b"BOUNDS\n",
    b"ENDATA\n", b"\xff", b"\xc3", b"\t", b" ", b"\n", b"\r",
]
_NEAR_MATRIX_BYTES = st.one_of(
    st.binary(max_size=200),
    st.lists(
        st.one_of(st.sampled_from(_FRAGMENTS), st.binary(max_size=6)), max_size=12
    ).map(b"".join),
)


@pytest.mark.parametrize("parser", [parse_coord, parse_mps])
@settings(max_examples=150, deadline=None)
@given(_NEAR_MATRIX_BYTES)
def test_arbitrary_bytes_parse_or_format_error(parser, data):
    try:
        result = parser(data)
    except MatrixFormatError:
        return
    assert isinstance(result, SparseMatrix)


def test_coord_non_utf8_names_the_line():
    with pytest.raises(MatrixFormatError, match="line 3.*UTF-8"):
        parse_coord(b"% header next\n2 2 1\n1 1 \xff\n")


class TestExponentBound:
    """Fraction expands a decimal exponent in full, so huge ones are format errors."""

    @pytest.mark.parametrize("token", ["1e3000000", "1e-1001", "2.5D+3000000"])
    def test_huge_exponent_names_the_line(self, token):
        with pytest.raises(MatrixFormatError, match="line 3.*exponent") as err:
            parse_coord(f"% header next\n1 1 1\n1 1 {token}\n")
        assert err.value.line_no == 3

    def test_huge_exponent_in_mps(self):
        text = "NAME T\nROWS\n E  R1\nCOLUMNS\n    X  R1  1e3000000\nENDATA\n"
        with pytest.raises(MatrixFormatError, match="line 5.*exponent"):
            parse_mps(text)

    @pytest.mark.parametrize(
        "token,value",
        [
            ("1e300", Fraction(10) ** 300),
            ("1.5D+2", Fraction(150)),
            ("-2e-1000", -Fraction(2, 10**1000)),
            ("3E+0001000", 3 * Fraction(10) ** 1000),
        ],
    )
    def test_exponents_up_to_the_bound_parse(self, token, value):
        assert parse_coord(f"1 1 1\n1 1 {token}\n").entries[0][2] == value


# Two columns whose names differ only in bytes that are not UTF-8.
_COLLIDING_MPS = (
    b"NAME T\nROWS\n E  R1\n E  R2\nCOLUMNS\n"
    b"    C\xff  R1  1\n    C\xfe  R2  1\nRHS\nENDATA\n"
)


class TestStrictDecoding:
    def test_mps_names_that_are_not_utf8_are_an_error(self):
        # Replacement decoding would merge both columns into one and so put
        # a negative R1-R2 edge into the signed graph.
        with pytest.raises(MatrixFormatError, match="line 6.*UTF-8") as err:
            parse_mps(_COLLIDING_MPS)
        assert err.value.line_no == 6

    def test_line_counted_as_the_parser_counts_lines(self):
        # \r alone ends a line for str.splitlines, which numbers parser lines.
        with pytest.raises(MatrixFormatError, match="line 3"):
            parse_coord(b"% c\r1 1 1\r1 1 \xff\n")

    def test_utf8_names_stay_distinct(self):
        text = _COLLIDING_MPS.replace(b"\xff", "é".encode()).replace(b"\xfe", "è".encode())
        m = parse_mps(text)
        assert m.col_names == ("Cé", "Cè")
        assert m.entries == ((0, 0, 1), (1, 1, 1))


class TestSortedEntries:
    """Construction checks (row, col) order in one pass; repeats are adjacent."""

    def test_non_adjacent_repeat_rejected(self):
        entries = ((0, 0, Fraction(1)), (0, 1, Fraction(2)), (0, 0, Fraction(3)))
        with pytest.raises(ValueError, match="order"):
            SparseMatrix(1, 2, entries)

    def test_unsorted_entries_rejected(self):
        entries = ((1, 0, Fraction(1)), (0, 1, Fraction(1)))
        with pytest.raises(ValueError, match=r"\(0, 1\) out of \(row, col\) order"):
            SparseMatrix(2, 2, entries)

    def test_adjacent_repeat_is_a_duplicate(self):
        entries = ((0, 1, Fraction(1)), (1, 0, Fraction(1)), (1, 0, Fraction(-1)))
        with pytest.raises(ValueError, match=r"duplicate entry at \(1, 0\)"):
            SparseMatrix(2, 2, entries)


_MPS_HEAD = "NAME T\nROWS\n N  OBJ\n E  R1\n E  R2\nCOLUMNS\n"


class TestNumeralMemo:
    """Each distinct numeral is parsed once per file; errors keep their line."""

    def test_bad_numeral_reported_at_first_line_coord(self):
        text = "3 1 3\n1 1 2\n2 1 7x\n3 1 7x\n"
        with pytest.raises(MatrixFormatError, match="line 3.*7x") as err:
            parse_coord(text)
        assert err.value.line_no == 3

    def test_bad_numeral_reported_at_first_line_mps(self):
        text = _MPS_HEAD + "    X  R1  2  R2  1..5\n    Y  R1  1..5\nENDATA\n"
        with pytest.raises(MatrixFormatError, match="line 7.*1..5") as err:
            parse_mps(text)
        assert err.value.line_no == 7

    @pytest.mark.parametrize(
        "tail,line_no",
        [
            ("RHS\n    B  R1  2\n    B  R2  zz\n", 11),
            ("RANGES\n    G  R1  2  R2  zz\n", 10),
            ("BOUNDS\n UP BND  X  2\n UP BND  X  zz\n", 11),
        ],
        ids=["rhs", "ranges", "bounds"],
    )
    def test_bad_numeral_outside_columns(self, tail, line_no):
        text = _MPS_HEAD + "    X  R1  2  R2  -1\n    Y  R1  1\n" + tail + "ENDATA\n"
        with pytest.raises(MatrixFormatError, match=f"line {line_no}.*zz"):
            parse_mps(text)

    def test_huge_exponent_after_valid_tokens(self):
        body = "".join(f"{i} 1 {('2', '-1/2', '1e3')[i % 3]}\n" for i in range(1, 40))
        text = f"41 1 41\n{body}40 1 1e3000000\n41 1 1e3000000\n"
        with pytest.raises(MatrixFormatError, match="line 41.*exponent") as err:
            parse_coord(text)
        assert err.value.line_no == 41

    def test_huge_exponent_in_rhs_after_valid_uses(self):
        text = (
            _MPS_HEAD + "    X  R1  1e3  R2  1e3\n    Y  R1  1e3\n"
            "RHS\n    B  R1  1e3  R2  1e3000\n    B  R2  1e3000\nENDATA\n"
        )
        with pytest.raises(MatrixFormatError, match="line 10.*exponent"):
            parse_mps(text)


_TOKENS = ["1", "-1", "2/2", "-4/4", "1/2", "-3/2", "3", "1.0", "-1e0", "10D-1"]


def _classify_by_fraction(m):
    unit = [True] * m.n_rows
    for r, _, v in m.entries:
        if v != 1 and v != -1:
            unit[r] = False
    return tuple(unit)


def _network_by_fraction(m):
    pos, neg = [0] * m.n_cols, [0] * m.n_cols
    for _, c, v in m.entries:
        if v == 1:
            pos[c] += 1
        elif v == -1:
            neg[c] += 1
        else:
            return False
    return all(p <= 1 for p in pos) and all(n <= 1 for n in neg)


def test_unit_tests_agree_with_fraction_comparisons():
    rng = random.Random(6)
    network_seen = 0
    for _ in range(300):
        n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 6)
        cells = [(r, c) for r in range(n_rows) for c in range(n_cols) if rng.random() < 0.4]
        # Mostly unit spellings, so some matrices are networks.
        weights = [6, 6, 3, 3, 1, 1, 1, 2, 2, 2]
        lines = [f"{r + 1} {c + 1} {rng.choices(_TOKENS, weights)[0]}" for r, c in cells]
        m = parse_coord(f"{n_rows} {n_cols} {len(cells)}\n" + "\n".join(lines) + "\n")
        assert classify_rows(m) == _classify_by_fraction(m)
        assert is_network_matrix(m) == _network_by_fraction(m)
        network_seen += is_network_matrix(m)
    assert 0 < network_seen < 300
