"""Golden ingest outputs, pinned across commits.

Parsing, scaling and graph building are exact and deterministic, so the
scaled entries, the (0,±1)-row flags and the signed graph are pure functions
of the input.  These values were recorded once; a change to ``matrix_io``,
``scaling`` or ``build_signed_graph`` must reproduce them exactly.

Each case is either a ``helpers.random_matrix`` or MPS text written here:
network rows disguised by rational row and column factors, plus some general
rows, with every value spelled in one of several exact forms (integers,
decimals, ``p/q``, ``e``/``D`` exponents, units such as ``2/2``).  Each entry
pins the first 12 hex digits of the sha256 of the ``repr`` of:
the parsed entries, ``scale(m).entries``, the entries after one more
extended pass over ``scale(m)`` (``helpers.extended_stage``; scaling is
already a fixpoint, so this equals the second), ``classify_rows`` of the
scaled result and ``build_signed_graph``'s ``(tags, neighbors, masks)`` of
the scaled result.

Run ``python tests/test_golden_ingest.py`` to print the current values.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from helpers import extended_stage, random_matrix
from refnet.matrix_io import SparseMatrix, classify_rows, parse_mps
from refnet.scaling import scale
from refnet.signed_graph import build_signed_graph

FACTORS = [
    Fraction(1), Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2),
    Fraction(5, 4), Fraction(-2, 5), Fraction(7, 3), Fraction(3, 8), Fraction(10),
]
NOISE = [Fraction(3), Fraction(-1, 2), Fraction(7, 5), Fraction(2, 3), Fraction(-11, 4)]


def _spell(rng: random.Random, v: Fraction) -> str:
    """One exact spelling of ``v``, chosen at random among the forms that fit."""
    forms = [f"{v.numerator}/{v.denominator}"]
    if v.denominator == 1:
        n = v.numerator
        forms += [str(n), f"{n}.0", f"{2 * n}/2", f"{n * 4}/4", f"{n}D0"]
    den, a, b = v.denominator, 0, 0
    while den % 2 == 0:
        den, a = den // 2, a + 1
    while den % 5 == 0:
        den, b = den // 5, b + 1
    if den == 1:
        shift = max(a, b)
        mantissa = (v * 10**shift).numerator
        forms += [f"{mantissa}e-{shift}", f"{mantissa * 10}D-{shift + 1}"]
        if shift:
            digits = str(abs(mantissa)).rjust(shift + 1, "0")
            sign = "-" if mantissa < 0 else ""
            forms.append(f"{sign}{digits[:-shift]}.{digits[-shift:]}")
    return rng.choice(forms)


def disguised_mps(seed: int) -> str:
    """MPS text: disguised network rows, general rows, RHS/RANGES/BOUNDS."""
    rng = random.Random(seed)
    n_net, n_noise, n_cols = rng.randint(10, 24), rng.randint(2, 6), rng.randint(20, 40)
    entries: dict[tuple[int, int], Fraction] = {}
    for c in range(n_cols):
        rows = rng.sample(range(n_net), rng.choice((1, 2, 2, 2)))
        for r, sign in zip(rows, (1, -1) if rng.random() < 0.8 else (1, 1)):
            entries[(r, c)] = Fraction(sign)
    for r in range(n_net, n_net + n_noise):
        for c in rng.sample(range(n_cols), rng.randint(2, 5)):
            entries[(r, c)] = rng.choice(NOISE)
    row_f = [rng.choice(FACTORS) for _ in range(n_net + n_noise)]
    col_f = [rng.choice(FACTORS) for _ in range(n_cols)]
    order = list(range(n_net + n_noise))
    rng.shuffle(order)
    row_names = [f"ROW{order[r]:03d}" for r in range(n_net + n_noise)]
    lines = ["NAME          GOLDEN", "ROWS", " N  COST"]
    lines += [f" {rng.choice('LGE')}  {name}" for name in row_names]
    lines.append("COLUMNS")
    for c in range(n_cols):
        cells = [(r, v * row_f[r] * col_f[c]) for (r, cc), v in sorted(entries.items()) if cc == c]
        cells.insert(0, ("COST", Fraction(rng.randint(-3, 3) or 1)))
        for r, v in cells:
            name = r if r == "COST" else row_names[r]
            lines.append(f"    X{c:02d}  {name}  {_spell(rng, v)}")
    lines.append("RHS")
    for name in row_names[: 3]:
        lines.append(f"    RHS  {name}  {_spell(rng, rng.choice(NOISE))}")
    lines.append("RANGES")
    lines.append(f"    RNG  {row_names[0]}  {_spell(rng, rng.choice(FACTORS))}")
    lines.append("BOUNDS")
    lines.append(f" UP BND  X00  {_spell(rng, rng.choice(FACTORS))}")
    lines.append(" FR BND  X01")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def _hash(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:12]


def _values(m: SparseMatrix):
    return [(r, c, v.numerator, v.denominator) for r, c, v in m.entries]


def digests(m: SparseMatrix) -> tuple[str, ...]:
    scaled = scale(m)
    graph = build_signed_graph(scaled)
    return (
        _hash(_values(m)),
        _hash(_values(scaled)),
        _hash(_values(extended_stage(scaled))),
        _hash(classify_rows(scaled)),
        _hash((graph.tags, graph.neighbors, graph.masks)),
    )


def random_input(seed: int) -> SparseMatrix:
    return random_matrix(random.Random(seed), 25, 25, 0.25)


def mps_input(seed: int) -> SparseMatrix:
    return parse_mps(disguised_mps(seed))


def random_case(seed: int) -> tuple[str, ...]:
    return digests(random_input(seed))


def mps_case(seed: int) -> tuple[str, ...]:
    return digests(mps_input(seed))


RANDOM_SEEDS = range(1100, 1105)
MPS_SEEDS = range(1200, 1206)

GOLDEN_RANDOM = {
    1100: ('53145c2e19fe', 'f3633c91499e', 'f3633c91499e', '7522d315bb64', 'f05a6359cbdc'),
    1101: ('19fd84756532', '3b8b5c59b5ae', '3b8b5c59b5ae', '22e7afe06ff2', 'dba800cf6ff1'),
    1102: ('47c433eda2f2', 'df1bd562283a', 'df1bd562283a', 'af1c3a61d10c', '2f613199e712'),
    1103: ('f5b70eb0ac93', '02e05cc779bd', '02e05cc779bd', 'f64a03442204', '8c85ba5c7363'),
    1104: ('b8cc739fc3aa', '8a9e98f48628', '8a9e98f48628', 'd267f224b994', 'd82b107735dd'),
}

GOLDEN_MPS = {
    1200: ('11109e940707', 'baec81dadd4a', 'baec81dadd4a', 'f98df8ae0c5f', 'ea3bc3dfcb05'),
    1201: ('0ddde97cf0b9', '0d02ef1ee26d', '0d02ef1ee26d', '5ea7e417056e', '1d4329cfec3e'),
    1202: ('a6b1526f8ce3', 'e94688f835c6', 'e94688f835c6', 'a26d2958e359', 'c6e0edc7c84d'),
    1203: ('e965b040d5d6', 'f62f3dd3477d', 'f62f3dd3477d', '01b4e664ef92', 'a075483fab9d'),
    1204: ('1685968a153d', '4d2abf2f2060', '4d2abf2f2060', 'ab501d3ec342', '9ecef5243ade'),
    1205: ('80a843cbee1a', 'ba36675b8bb2', 'ba36675b8bb2', '1bbe35d8d36f', 'cbf97bb81bd8'),
}


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_golden_random_matrix(seed):
    assert random_case(seed) == GOLDEN_RANDOM[seed]


@pytest.mark.parametrize("seed", MPS_SEEDS)
def test_golden_disguised_mps(seed):
    assert mps_case(seed) == GOLDEN_MPS[seed]


@pytest.mark.parametrize(
    "make, seed",
    [(random_input, seed) for seed in RANDOM_SEEDS] + [(mps_input, seed) for seed in MPS_SEEDS],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_scaled_flags_match_a_fresh_classification(make, seed):
    # scale() hands its workspace's unit flags to the matrix it returns; a
    # fresh copy of that matrix carries none and classifies its own rows.
    scaled = scale(make(seed))
    assert classify_rows(scaled) == classify_rows(SparseMatrix(*scaled))


if __name__ == "__main__":
    print("GOLDEN_RANDOM = {")
    for seed in RANDOM_SEEDS:
        print(f"    {seed}: {random_case(seed)!r},")
    print("}\n\nGOLDEN_MPS = {")
    for seed in MPS_SEEDS:
        print(f"    {seed}: {mps_case(seed)!r},")
    print("}")
