"""Golden exact-solver outputs, pinned across commits.

The exact solver inserts vertices in ascending order and enumerates
transversal splits in a fixed order, so the deletion it returns -- not only
its size -- is a pure function of the graph.  These values were recorded
once; a change to the compression search or the flow layer must reproduce
them exactly.  Each entry is ``k`` plus the first 16 hex digits of the
sha256 of ``repr(sorted(deletion))``; the balanced-deletion entries also pin
``nodes_explored``, the number of split-search nodes examined, then the
calls of ``SeparatorSolver.solve`` and how many of them found a separator,
so a change that reaches the same deletion by a different search or other
flows shows up too.  The frustrated graphs' packing bound falls short of
the optimum, so their compressions fail as well as succeed.  Re-pin a node count only in a change
that alters the search on purpose (a bound that skips compressions, kernel
rules, a different split order), and list each re-pin in CHANGES.md.

Run ``python tests/test_golden_exact.py`` to print the current values.
"""

from __future__ import annotations

import hashlib
import random
from unittest import mock

import pytest

from helpers import frustrated_graph, planted_graph
from refnet.exact import mbd_exact, odd_cycle_transversal
from refnet.flow import SeparatorSolver


def digest(k: int, deletion) -> tuple[int, str]:
    text = repr(sorted(deletion))
    return k, hashlib.sha256(text.encode()).hexdigest()[:16]


def exact_digest(graph) -> tuple[int, str, int, int, int]:
    found = []
    solve = SeparatorSolver.solve

    def counted(self, *args):
        cut = solve(self, *args)
        found.append(cut is not None)
        return cut

    with mock.patch.object(SeparatorSolver, "solve", counted):
        result = mbd_exact(graph)
    assert result.status == "optimal"
    return (*digest(result.k, result.deletion), result.nodes_explored, len(found), sum(found))


def planted(seed: int) -> tuple[int, str, int, int, int]:
    rng = random.Random(seed)
    n = rng.randint(40, 80)
    return exact_digest(
        planted_graph(rng, n, n_edges=3 * n, n_bad=rng.randint(3, 6), sabotage=8)
    )


def frustrated(n: int, f: int, seed: int) -> tuple[int, str, int, int, int]:
    return exact_digest(frustrated_graph(n, 3, f, seed))


def random_oct(seed: int) -> tuple[int, str]:
    rng = random.Random(seed)
    n, p = rng.randint(12, 30), rng.uniform(0.12, 0.3)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adjacency[u].append(v)
                adjacency[v].append(u)
    solution = odd_cycle_transversal(adjacency, len(adjacency))
    return digest(len(solution), solution)


PLANTED_SEEDS = range(900, 908)
FRUSTRATED_CASES = [(120, 12, 1), (150, 15, 1), (150, 20, 1)]
OCT_SEEDS = range(950, 970)

GOLDEN_PLANTED = {
    900: (4, '95c6d92266bc4468', 33, 16, 5),
    901: (5, '5caacc73164e3424', 46, 21, 7),
    902: (6, '8bc820e1ad2fc991', 110, 64, 19),
    903: (2, '80eb36f8beab9f45', 15, 8, 4),
    904: (5, 'dee27476e15e4a53', 67, 23, 11),
    905: (5, '14c2dc5030d1ccf0', 59, 31, 9),
    906: (5, '143fa7b9c2071383', 64, 16, 10),
    907: (3, '7b135899b5f21976', 40, 22, 9),
}

GOLDEN_FRUSTRATED = {
    (120, 12, 1): (7, '0676becbd8dfdf3f', 586, 382, 118),
    (150, 15, 1): (8, '6352d90883efaddc', 1660, 1097, 324),
    (150, 20, 1): (9, '3a46aa92652496d3', 4702, 3129, 952),
}

GOLDEN_OCT = {
    950: (2, 'ca7f0bcd6c1d9ace'),
    951: (3, 'cb2fadece3eab154'),
    952: (4, 'c2c88fa62f6a1a2f'),
    953: (1, 'a8f2ecf6c811b67c'),
    954: (3, 'a13c96de5a18b7cb'),
    955: (8, '23e1d125593fcd8c'),
    956: (3, '9de46d3ead94da7c'),
    957: (5, '5bd0c84868689d22'),
    958: (9, 'e2fef2149164442f'),
    959: (7, '07f50618ebb2c425'),
    960: (7, '44be88b52de2d781'),
    961: (2, '84ff5f060b8c2643'),
    962: (4, '030c3fe57f1b0e22'),
    963: (13, '455880d246233e45'),
    964: (9, '09c9698161ce7487'),
    965: (5, 'f407a119a44ff802'),
    966: (1, '16390873ae6b6a17'),
    967: (5, '063fa24e22002504'),
    968: (1, 'b8d52dc8aa20e6a0'),
    969: (7, '17f25070b2eb66c6'),
}


@pytest.mark.parametrize("seed", PLANTED_SEEDS)
def test_golden_mbd_exact(seed):
    assert planted(seed) == GOLDEN_PLANTED[seed]


@pytest.mark.parametrize("case", FRUSTRATED_CASES, ids="{0[0]}:3:{0[1]}:{0[2]}".format)
def test_golden_mbd_exact_frustrated(case):
    assert frustrated(*case) == GOLDEN_FRUSTRATED[case]


@pytest.mark.parametrize("seed", OCT_SEEDS)
def test_golden_odd_cycle_transversal(seed):
    assert random_oct(seed) == GOLDEN_OCT[seed]


if __name__ == "__main__":
    print("GOLDEN_PLANTED = {")
    for seed in PLANTED_SEEDS:
        print(f"    {seed}: {planted(seed)!r},")
    print("}\n\nGOLDEN_FRUSTRATED = {")
    for case in FRUSTRATED_CASES:
        print(f"    {case}: {frustrated(*case)!r},")
    print("}\n\nGOLDEN_OCT = {")
    for seed in OCT_SEEDS:
        print(f"    {seed}: {random_oct(seed)!r},")
    print("}")
