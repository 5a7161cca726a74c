"""Tools for finding maximum embedded reflected networks in LP constraint matrices.

An m-column (0,±1)-matrix is a *network matrix* when every column holds at
most one +1 and at most one -1; a *reflected network* is a matrix that some
sequence of row sign-flips turns into a network matrix.  This package parses
constraint matrices (MPS or coordinate files), scales them to maximise the
number of (0,±1)-rows, and then searches for the largest row subset forming a
reflected network -- heuristically (spanning-forest heuristics with optional
repetition and an exact-vertex-cover variant) and exactly (a fixed-parameter
solver built on odd cycle transversals and iterative compression).
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
    extract_network,
    induced_subgraph,
    is_balanced,
    switch,
)
from refnet.sga import (
    CoverBudgetError,
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
from refnet.exact import (
    CancelToken,
    DeletionBudgetError,
    ExactResult,
    OperationCancelled,
    SubdividedGraph,
    brute_force_mbd,
    brute_force_oct,
    mbd_exact,
    odd_cycle_transversal,
    subdivide_positive,
    vertex_cover,
)

__version__ = "0.1.0"

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
    "extract_network",
    "induced_subgraph",
    "is_balanced",
    "switch",
    "CoverBudgetError",
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
    "CancelToken",
    "DeletionBudgetError",
    "ExactResult",
    "OperationCancelled",
    "SubdividedGraph",
    "brute_force_mbd",
    "brute_force_oct",
    "mbd_exact",
    "odd_cycle_transversal",
    "subdivide_positive",
    "vertex_cover",
]
