"""The package's records: immutable fields, value equality and hashing.

Every record is a ``typing.NamedTuple``; the two that check their fields
(``SparseMatrix`` and ``BalanceCertificate``) do so on every construction,
``_replace`` and unpickling included.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from refnet.cli import BenchRecord
from refnet.exact import ExactResult, SubdividedGraph
from refnet.matrix_io import SparseMatrix
from refnet.sga import HeuristicResult, SpanningForest
from refnet.signed_graph import BalanceCertificate, SignedGraph, disjoint_unbalanced_cycles


def _matrix() -> SparseMatrix:
    return SparseMatrix.from_entries(2, 3, [(0, 0, 1), (1, 2, "-1/2")], ["a", "b"], None)


def _graph() -> SignedGraph:
    return SignedGraph.from_edges(3, [(0, 1, -1), (1, 2, -1), (0, 2, -1)])


# Each builds a fresh record with the same fields on every call.
RECORDS = {
    "SparseMatrix": _matrix,
    "SignedGraph": _graph,
    "BalanceCertificate": lambda: BalanceCertificate(switch_set=frozenset({1})),
    "SpanningForest": lambda: SpanningForest(3, (-1, 0, 1), (0, 1, -1), (0,)),
    "HeuristicResult": lambda: HeuristicResult(
        (0, 1), 1, frozenset({1}), "DFS", 80, 1, 0.5
    ),
    "ExactResult": lambda: ExactResult("optimal", frozenset({2}), 1, 1, 0.25, 7),
    "SubdividedGraph": lambda: SubdividedGraph(3, ((2,), (2,), (0, 1)), (0, 1, (0, 1))),
    "BenchRecord": lambda: BenchRecord(
        "inst", 3, 1, "ok", k_exact=1, t_exact=0.1, heuristic=(1,) * 9, t_single=0.01
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_fields_are_read_only(name):
    record = RECORDS[name]()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert record == RECORDS[name]()


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_compare_and_hash_equal(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert a._replace() == a
    assert type(a._replace()) is type(a)


def test_cached_values_do_not_enter_equality():
    a, b = _graph(), _graph()
    assert a.pairs and disjoint_unbalanced_cycles(a)
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("name", ["SignedGraph", "BenchRecord"])
def test_pickle_round_trip(name):
    # A parallel `bench` ships BenchRecords between processes.
    record = RECORDS[name]()
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record
    assert type(copy) is type(record)


def test_pickled_graph_keeps_its_cached_values():
    graph = _graph()
    cycles = disjoint_unbalanced_cycles(graph)
    copy = pickle.loads(pickle.dumps(graph))
    assert copy.pairs == graph.pairs
    assert disjoint_unbalanced_cycles(copy) == cycles


class TestSparseMatrixChecks:
    @pytest.mark.parametrize(
        "entries, message",
        [
            (((0, 0, Fraction(0)),), "zero entry"),
            (((0, 1, Fraction(1)), (0, 1, Fraction(2))), "duplicate entry"),
            (((1, 0, Fraction(1)), (0, 1, Fraction(1))), "out of \\(row, col\\) order"),
            (((2, 0, Fraction(1)),), "out of range"),
            (((0, 3, Fraction(1)),), "out of range"),
            (((-1, 0, Fraction(1)),), "out of range"),
        ],
    )
    def test_bad_entries_rejected(self, entries, message):
        with pytest.raises(ValueError, match=message):
            SparseMatrix(2, 3, entries)
        with pytest.raises(ValueError, match=message):
            SparseMatrix(n_rows=2, n_cols=3, entries=entries)
        with pytest.raises(ValueError, match=message):
            _matrix()._replace(entries=entries)

    def test_name_lengths_checked(self):
        with pytest.raises(ValueError, match="row_names"):
            SparseMatrix(2, 3, (), row_names=("a",))
        with pytest.raises(ValueError, match="col_names"):
            _matrix()._replace(col_names=("x",))

    def test_unpickling_checks_again(self):
        matrix = _matrix()
        assert pickle.loads(pickle.dumps(matrix)) == matrix
        # Built past the checks, the way only tuple.__new__ can.
        forged = tuple.__new__(SparseMatrix, (2, 3, ((0, 0, Fraction(0)),), None, None))
        with pytest.raises(ValueError, match="zero entry"):
            pickle.loads(pickle.dumps(forged))


class TestBalanceCertificateChecks:
    def test_exactly_one_alternative(self):
        with pytest.raises(ValueError, match="exactly one"):
            BalanceCertificate()
        with pytest.raises(ValueError, match="exactly one"):
            BalanceCertificate(switch_set=frozenset(), witness=((0, 1, -1),))
        with pytest.raises(ValueError, match="exactly one"):
            BalanceCertificate(frozenset(), ((0, 1, -1),))

    def test_replace_checks_again(self):
        certificate = BalanceCertificate(switch_set=frozenset())
        with pytest.raises(ValueError, match="exactly one"):
            certificate._replace(witness=((0, 1, -1),))
        with pytest.raises(ValueError, match="exactly one"):
            certificate._replace(switch_set=None)

    def test_each_alternative(self):
        assert BalanceCertificate(switch_set=frozenset({0})).balanced
        assert not BalanceCertificate(witness=((0, 1, -1), (1, 0, 1))).balanced
