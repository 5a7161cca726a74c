from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import extended_stage, random_matrix
from refnet.matrix_io import SparseMatrix, classify_rows
from refnet.scaling import _simple_pass, _Workspace, scale


def mat(n_rows, n_cols, entries):
    return SparseMatrix.from_entries(n_rows, n_cols, entries)


def values(m):
    return [(r, c, v) for r, c, v in m.entries]


def unit_count(m):
    return sum(classify_rows(m))


def simple_stage(m):
    """The simple row-scaling stage of :func:`scale` on its own."""
    ws = _Workspace(m)
    _simple_pass(ws)
    return ws.to_matrix()


def is_diagonal_rescaling(before: SparseMatrix, after: SparseMatrix) -> bool:
    """True when after = diag(r) @ before @ diag(c) for nonzero rationals r, c.

    Fixes one row factor per connected component of the row/column incidence
    graph, propagates by BFS, then verifies every entry.
    """
    if [(r, c) for r, c, _ in before.entries] != [(r, c) for r, c, _ in after.entries]:
        return False
    ratio = {
        (r, c): va / vb
        for (r, c, vb), (_, _, va) in zip(before.entries, after.entries)
    }
    by_row: dict[int, list[tuple[int, Fraction]]] = {}
    by_col: dict[int, list[tuple[int, Fraction]]] = {}
    for (r, c), q in ratio.items():
        by_row.setdefault(r, []).append((c, q))
        by_col.setdefault(c, []).append((r, q))
    row_factor: dict[int, Fraction] = {}
    col_factor: dict[int, Fraction] = {}
    for seed in sorted(by_row):
        if seed in row_factor:
            continue
        row_factor[seed] = Fraction(1)
        queue = [("row", seed)]
        while queue:
            kind, idx = queue.pop()
            if kind == "row":
                for c, q in by_row[idx]:
                    want = q / row_factor[idx]
                    if c not in col_factor:
                        col_factor[c] = want
                        queue.append(("col", c))
                    elif col_factor[c] != want:
                        return False
            else:
                for r, q in by_col[idx]:
                    want = q / col_factor[idx]
                    if r not in row_factor:
                        row_factor[r] = want
                        queue.append(("row", r))
                    elif row_factor[r] != want:
                        return False
    return all(row_factor[r] * col_factor[c] == q for (r, c), q in ratio.items())


class TestSimpleRowScale:
    def test_uniform_magnitude_row(self):
        m = mat(1, 4, [(0, 0, 2), (0, 1, -2), (0, 3, 2)])
        assert values(simple_stage(m)) == [
            (0, 0, Fraction(1)),
            (0, 1, Fraction(-1)),
            (0, 3, Fraction(1)),
        ]

    def test_already_unit_row_unchanged(self):
        m = mat(1, 2, [(0, 0, 1), (0, 1, -1)])
        assert simple_stage(m) == m

    def test_mixed_magnitudes_unchanged(self):
        m = mat(1, 2, [(0, 0, 3), (0, 1, 1)])
        assert simple_stage(m) == m

    def test_negative_uniform_signs_preserved(self):
        m = mat(1, 2, [(0, 0, -2), (0, 1, 2)])
        assert values(simple_stage(m)) == [(0, 0, Fraction(-1)), (0, 1, Fraction(1))]

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(40):
            m = random_matrix(rng)
            once = simple_stage(m)
            assert simple_stage(once) == once


class TestExtendedScale:
    def test_worked_example(self):
        # simple pass turns row 1 into [1,-1,0]; row 2 has one bounded column
        # with pivot 3, so the row is divided by 3 and the free column by 1/3.
        m = mat(2, 3, [(0, 0, 2), (0, 1, -2), (1, 0, 3), (1, 2, 1)])
        out = scale(m)
        assert values(out) == [
            (0, 0, Fraction(1)),
            (0, 1, Fraction(-1)),
            (1, 0, Fraction(1)),
            (1, 2, Fraction(1)),
        ]
        assert classify_rows(out) == (True, True)

    def test_all_unit_matrix_unchanged(self):
        m = mat(2, 2, [(0, 0, 1), (0, 1, -1), (1, 1, 1)])
        assert scale(m) == m

    def test_unbounded_columns_divided(self):
        m = mat(1, 2, [(0, 0, 5), (0, 1, 7)])
        assert values(scale(m)) == [(0, 0, Fraction(1)), (0, 1, Fraction(1))]

    def test_nonuniform_bounded_row_untouched(self):
        # row 1 fixes both columns as bounded; row 2 sees J with magnitudes
        # {2, 3} and must stay as it is.
        m = mat(2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 2), (1, 1, 3)])
        out = extended_stage(simple_stage(m))
        assert values(out)[2:] == [(1, 0, Fraction(2)), (1, 1, Fraction(3))]

    def test_row_made_unit_mid_action_can_be_damaged(self):
        # Row 0 has no bounded column, so both its columns are divided by
        # their pivots.  Dividing column 0 by 2 makes row 1 [1, 1], which
        # bounds column 1; column 1 is still divided by 3, as it was
        # unbounded when row 0's action began.  Row 1 is then skipped.
        m = mat(2, 2, [(0, 0, 2), (0, 1, 3), (1, 0, 2), (1, 1, 1)])
        ws = _Workspace(m)
        ws.scale_col_by(0)
        assert ws.unit == [False, True]
        out = scale(m)
        assert values(out) == [
            (0, 0, Fraction(1)),
            (0, 1, Fraction(1)),
            (1, 0, Fraction(1)),
            (1, 1, Fraction(1, 3)),
        ]
        assert classify_rows(out) == (True, False)
        assert scale(out) == out


class TestInvariants:
    def test_pattern_preserved(self):
        rng = random.Random(4)
        for _ in range(60):
            m = random_matrix(rng)
            out = scale(m)
            assert [(r, c) for r, c, _ in out.entries] == [
                (r, c) for r, c, _ in m.entries
            ]

    def test_indexes_carried_over(self):
        # the scaled matrix keeps its parent's row and column indexes, which
        # must equal the ones built from its own entries
        rng = random.Random(4)
        for _ in range(60):
            m = random_matrix(rng)
            out = scale(m)
            assert out.row_nonzeros is m.row_nonzeros
            assert out.col_nonzeros is m.col_nonzeros
            fresh = SparseMatrix(*out)
            assert out.row_nonzeros == fresh.row_nonzeros
            assert out.col_nonzeros == fresh.col_nonzeros

    def test_unit_count_monotone(self):
        rng = random.Random(5)
        for _ in range(60):
            m = random_matrix(rng)
            simple = simple_stage(m)
            assert unit_count(simple) >= unit_count(m)
            extended = extended_stage(simple)
            assert unit_count(extended) >= unit_count(simple)

    def test_diagonal_rescaling_structure(self):
        rng = random.Random(6)
        for _ in range(60):
            m = random_matrix(rng)
            assert is_diagonal_rescaling(m, simple_stage(m))
            assert is_diagonal_rescaling(m, scale(m))

    def test_single_pass_is_fixpoint(self):
        # One more extended pass over the scaled values finds nothing to do.
        rng = random.Random(8)
        extended = 0
        for _ in range(200):
            m = random_matrix(rng)
            once = scale(m)
            assert extended_stage(once) == once
            extended += once != simple_stage(m)
        assert extended > 50  # the first extended pass did act on many

    def test_single_pass_sees_earlier_actions(self):
        # Row 1's column divisions turn row 2 into a uniform-magnitude row;
        # the same ascending pass must then normalize row 2 via its (now
        # bounded) columns.
        m = mat(2, 2, [(0, 0, 2), (0, 1, 3), (1, 0, 4), (1, 1, 6)])
        out = scale(m)
        assert classify_rows(out) == (True, True)
        assert values(out) == [
            (0, 0, Fraction(1)),
            (0, 1, Fraction(1)),
            (1, 0, Fraction(1)),
            (1, 1, Fraction(1)),
        ]


@st.composite
def matrices(draw):
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
        st.sampled_from([1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)]),
    ))
    return mat(n_rows, n_cols, [(r, c, v) for (r, c), v in cells.items()])


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_scaled_flags_match_a_fresh_classification(m):
    # scale() hands its workspace's unit flags to the matrix it returns; a
    # fresh copy of that matrix carries none and classifies its own rows.
    scaled = scale(m)
    assert classify_rows(scaled) == classify_rows(SparseMatrix(*scaled))


class TestScalingState:
    """The extended stage's two bookkeeping arrays, as the workspace sets them up."""

    def test_state_matches_definition(self):
        m = mat(3, 3, [(0, 0, 1), (0, 1, -1), (1, 1, 2), (2, 2, 1)])
        ws = _Workspace(m)
        assert ws.unit == [True, False, True]
        assert ws.bounded == [True, True, True]

    def test_unbounded_column(self):
        m = mat(2, 2, [(0, 0, 1), (1, 1, 2)])
        ws = _Workspace(m)
        assert ws.unit == [True, False]
        assert ws.bounded == [True, False]
