"""Tools for finding maximum embedded reflected networks in LP constraint matrices.

An m-column (0,±1)-matrix is a *network matrix* when every column holds at
most one +1 and at most one -1; a *reflected network* is a matrix that some
sequence of row sign-flips turns into a network matrix.  This package parses
constraint matrices (MPS or coordinate files), scales them to maximise the
number of (0,±1)-rows, and then searches for the largest row subset forming a
reflected network -- heuristically (spanning-forest heuristics with optional
repetition and an exact-vertex-cover variant) and exactly (a fixed-parameter
solver that runs iterative compression on the signed graph itself).

The exact solver's names (``mbd_exact``, ``CancelToken`` and the rest of
:mod:`refnet.exact`) are exported too, but load on first use: importing the
package, or running a greedy heuristic, does not load the exact solver
(``sga_vc`` does, for its vertex cover).
"""

from refnet.matrix_io import (
    MatrixFormatError,
    SparseMatrix,
    classify_rows,
    dump_coord,
    is_network_matrix,
    parse_coord,
    parse_mps,
)
from refnet.scaling import scale
from refnet.signed_graph import (
    BalanceCertificate,
    NotBalancedError,
    SignedGraph,
    build_signed_graph,
    disjoint_unbalanced_cycles,
    extract_network,
    induced_subgraph,
    is_balanced,
)
from refnet.sga import (
    HeuristicResult,
    SpanningForest,
    forest_bfs,
    forest_dfs,
    forest_rs,
    greedy_independent_set,
    sga,
    sga_repeat,
    sga_vc,
    switch_set_from_forest,
)

__version__ = "0.1.0"

# Served by __getattr__ below (PEP 562): refnet.exact loads on first use.
_EXACT_NAMES = (
    "CancelToken",
    "ExactResult",
    "OperationCancelled",
    "brute_force_mbd",
    "mbd_exact",
    "odd_cycle_transversal",
    "vertex_cover",
)

__all__ = [
    "MatrixFormatError",
    "SparseMatrix",
    "classify_rows",
    "dump_coord",
    "is_network_matrix",
    "parse_coord",
    "parse_mps",
    "scale",
    "BalanceCertificate",
    "NotBalancedError",
    "SignedGraph",
    "build_signed_graph",
    "disjoint_unbalanced_cycles",
    "extract_network",
    "induced_subgraph",
    "is_balanced",
    "HeuristicResult",
    "SpanningForest",
    "forest_bfs",
    "forest_dfs",
    "forest_rs",
    "greedy_independent_set",
    "sga",
    "sga_repeat",
    "sga_vc",
    "switch_set_from_forest",
    *_EXACT_NAMES,
]


def __getattr__(name: str):
    if name in _EXACT_NAMES:
        from refnet import exact

        return getattr(exact, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXACT_NAMES})
