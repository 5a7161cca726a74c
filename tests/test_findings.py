"""The paper's three findings on two seeded in-repo families, pinned.

Each family is seven frustrated graphs, seeds 1-7: 120 vertices, average
degree 3 and 12 flipped signs, or 150 vertices, average degree 3 and 15
flipped signs.  Each goes through ``refnet bench --seed 1``.  The pinned
tables show that repetition with DFS comes closest to the optimum, that
one DFS pass is the worst single pass, and that the exact cover never
beats greedy on the same forest.  The README's "What this repo
reproduces" prints them.
"""

from __future__ import annotations

import random

from helpers import frustrated_graph, matrix_realizing
from refnet.cli import main
from refnet.matrix_io import dump_coord
from refnet.sga import STRATEGIES, sga, sga_vc
from test_cli import read_bench_csv

SEEDS = range(1, 8)

HEURISTIC = [
    "SGA_RS", "SGA_BFS", "SGA_DFS",
    "SGA3_RS", "SGA3_BFS", "SGA3_DFS",
    "SGA80_RS", "SGA80_BFS", "SGA80_DFS",
]

# instance: (k, the nine heuristic columns), for frustrated_graph(120, 3, 12, s)
ROWS = {
    "frustrated1": ("7", "10 12 13 10 10 13 8 9 7"),
    "frustrated2": ("6", "12 9 18 12 7 16 6 7 7"),
    "frustrated3": ("8", "15 21 16 15 18 16 10 17 10"),
    "frustrated4": ("8", "13 14 20 12 12 15 9 11 9"),
    "frustrated5": ("8", "13 14 11 13 14 11 9 12 8"),
    "frustrated6": ("7", "11 15 13 11 14 13 8 12 7"),
    "frustrated7": ("6", "11 6 20 8 6 11 6 6 6"),
}
AVG_DIFF = "5 5.86 8.71 4.43 4.43 6.43 0.86 3.43 0.57"
EXACT_SOL = "0 1 0 0 1 0 2 1 4"

# The same for frustrated_graph(150, 3, 15, s).
ROWS_150 = {
    "frustrated1": ("8", "11 13 24 11 8 15 8 8 8"),
    "frustrated2": ("8", "26 17 25 17 17 15 10 16 8"),
    "frustrated3": ("11", "15 15 24 15 14 24 13 14 15"),
    "frustrated4": ("7", "14 12 22 14 12 18 9 11 7"),
    "frustrated5": ("10", "27 22 30 18 22 15 12 13 10"),
    "frustrated6": ("9", "21 17 19 21 15 18 10 14 9"),
    "frustrated7": ("9", "16 16 18 14 14 17 10 12 9"),
}
AVG_DIFF_150 = "9.71 7.14 14.29 6.86 5.71 8.57 1.43 3.71 0.57"
EXACT_SOL_150 = "0 0 0 0 1 0 1 1 6"

# frustrated_graph's (vertices, average degree, flipped signs) per family
FAMILIES = ((120, 3, 12), (150, 3, 15))


def bench_table(tmp_path, capsys, n: int, d: int, f: int):
    """Rows, ``Avg. diff.`` and ``# exact sol.`` of one family's bench."""
    for s in SEEDS:
        graph = frustrated_graph(n, d, f, s)
        (tmp_path / f"frustrated{s}.coord").write_text(dump_coord(matrix_realizing(graph)))
    assert main(["bench", str(tmp_path), "--seed", "1", "--timeout", "60"]) == 0
    header, data, footer = read_bench_csv(capsys.readouterr().out)
    cols = [header.index(name) for name in HEURISTIC]
    k = header.index("k")
    return (
        {row[0]: (row[k], " ".join(row[c] for c in cols)) for row in data},
        " ".join(footer["Avg. diff."][c] for c in cols),
        " ".join(footer["# exact sol."][c] for c in cols),
    )


def test_bench_table(tmp_path, capsys):
    assert bench_table(tmp_path, capsys, 120, 3, 12) == (ROWS, AVG_DIFF, EXACT_SOL)


def test_bench_table_150_3_15(tmp_path, capsys):
    assert bench_table(tmp_path, capsys, 150, 3, 15) == (ROWS_150, AVG_DIFF_150, EXACT_SOL_150)


def test_exact_cover_never_beats_greedy():
    for params in FAMILIES:
        for s in SEEDS:
            graph = frustrated_graph(*params, s)
            for strategy in STRATEGIES:
                greedy = sga(graph, strategy, random.Random(1))
                exact = sga_vc(graph, strategy, random.Random(1))
                assert exact.k == greedy.k, (params, s, strategy)
