"""The paper's three findings on a seeded in-repo family, pinned.

Seven frustrated graphs (120 vertices, average degree 3, 12 flipped signs,
seeds 1-7) go through ``refnet bench --seed 1``.  The pinned table shows
that repetition with DFS comes closest to the optimum, that one DFS pass
is the worst single pass, and that the exact cover never beats greedy on
the same forest.  The README's "What this repo reproduces" prints it.
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

# instance: (k, the nine heuristic columns)
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


def family(seed: int):
    return frustrated_graph(120, 3, 12, seed)


def test_bench_table(tmp_path, capsys):
    for s in SEEDS:
        (tmp_path / f"frustrated{s}.coord").write_text(dump_coord(matrix_realizing(family(s))))
    assert main(["bench", str(tmp_path), "--seed", "1", "--timeout", "60"]) == 0
    header, data, footer = read_bench_csv(capsys.readouterr().out)
    cols = [header.index(name) for name in HEURISTIC]
    k = header.index("k")
    assert {row[0]: (row[k], " ".join(row[c] for c in cols)) for row in data} == ROWS
    assert " ".join(footer["Avg. diff."][c] for c in cols) == AVG_DIFF
    assert " ".join(footer["# exact sol."][c] for c in cols) == EXACT_SOL


def test_exact_cover_never_beats_greedy():
    for s in SEEDS:
        graph = family(s)
        for strategy in STRATEGIES:
            greedy = sga(graph, strategy, random.Random(1))
            exact = sga_vc(graph, strategy, random.Random(1))
            assert exact.k == greedy.k, (s, strategy)
