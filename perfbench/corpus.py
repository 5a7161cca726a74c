"""Seeded synthetic corpus: planted reflected networks written as MPS or coordinate files.

Every instance starts from a reflected network: network columns with one +1
and one -1 entry inside a block of rows, then random row reflections.  On top
of that the generator adds

* ``perturb`` +-1 rows, each with an entry in ``perturb_degree`` distinct
  network columns of one block.  Every such column then holds three +-1
  entries, which is an unbalanced triangle, so each perturbation row must
  either go or take ``perturb_degree`` network rows with it.  The planted
  count is an upper bound on the optimum; the benchmark checks the exact
  optimum independently.
* ``general`` rows with non-unit rational coefficients, which never join the
  signed graph but cost parse and scaling time.
* disguises: a share of the rows and columns multiplied by scale factors,
  which the scaling stage has to undo.

Perturbation rows sit at evenly spaced positions of the row order, so the
point where the exact solver's vertex insertion meets them does not depend
on the seed.  The program under test only ever sees the written files.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from functools import lru_cache
from fractions import Fraction
from pathlib import Path

# Scale factors with short exact decimal forms, as MPS files write them.
_FACTORS = tuple(Fraction(x) for x in ("2", "4", "0.5", "2.5", "1.25", "3", "0.2", "1.5", "10", "0.125"))
_GENERAL_VALUES = tuple(
    Fraction(x) for x in ("1.5", "-2", "0.75", "3", "-0.5", "2.25", "-1.2", "4", "0.3", "-7")
)


@dataclass(frozen=True)
class Recipe:
    """Generator parameters of one instance."""

    name: str
    kind: str  # the pipeline that runs it: "cli", "ingest", "sga" or "exact"
    fmt: str  # "mps" or "coord"
    blocks: int  # independent network blocks, i.e. components before perturbation
    block_rows: tuple[int, int]  # inclusive range of rows per block
    cols_per_row: float  # network columns per network row (>= 1 keeps blocks connected)
    perturb: int
    perturb_degree: int
    general: int
    row_disguise: float  # share of +-1 rows multiplied by a positive factor
    col_disguise: float  # share of columns multiplied by a non-unit factor
    fixed_graph: bool = False  # signed graph independent of the run seed


@dataclass
class Instance:
    """A generated matrix as the benchmark keeps it for its own checks."""

    recipe: Recipe
    path: Path
    n_rows: int
    n_cols: int
    entries: dict[tuple[int, int], Fraction]
    row_names: list[str]
    planted: list[int]  # row indices of the perturbation rows
    row_kinds: list[str]  # per row: "net", "perturb" or "general"
    disguised_cols: frozenset[int]  # columns multiplied by a factor of magnitude other than 1

    def signed_rows(self) -> list[int]:
        """Rows refnet's scaling must turn into (0,+-1)-rows, ascending.

        These are the network and perturbation rows that meet no disguised
        column.  Scaling undoes their positive row factor and never damages a
        (0,+-1)-row again, so none of them may go missing.  Without column
        disguise they are exactly the (0,+-1)-rows: a general row has entries
        of distinct magnitudes, all in columns that meet (0,+-1)-rows, and
        scaling leaves such a row alone.
        """
        touched = {r for r, c in self.entries if c in self.disguised_cols}
        return [r for r, kind in enumerate(self.row_kinds) if kind != "general" and r not in touched]

    def manifest(self) -> dict:
        return {
            "file": self.path.name,
            "recipe": asdict(self.recipe),
            "n_rows": self.n_rows,
            "n_cols": self.n_cols,
            "nnz": len(self.entries),
            "planted_perturbation_rows": len(self.planted),
            "general_rows": self.row_kinds.count("general"),
            "disguised_columns": len(self.disguised_cols),
        }


def generate(recipe: Recipe, rng: random.Random, directory: Path) -> Instance:
    """Build one instance from ``recipe`` and write it into ``directory``.

    ``rng`` drives the presentation: general rows, scale disguises, column
    order and signs, names.  The network and its perturbation rows come from
    ``rng`` too, unless ``recipe.fixed_graph`` asks for a structure drawn from
    the recipe name alone.  Because refnet's scaling undoes positive row
    factors exactly and column signs never change an edge sign, such an
    instance yields the same signed graph under every run seed.
    """
    shape = random.Random(f"shape:{recipe.name}") if recipe.fixed_graph else rng
    rows: list[dict[int, int]] = []  # +-1 rows before disguise: col -> sign
    block_cols: list[list[int]] = []
    n_cols = 0
    for b in range(recipe.blocks):
        size = shape.randint(*recipe.block_rows)
        first = len(rows)
        rows.extend({} for _ in range(size))
        cols: list[int] = []
        pairs = [(first + i, first + shape.randrange(i)) for i in range(1, size)]
        extra = max(0, round(recipe.cols_per_row * size) - len(pairs))
        if size >= 2:
            pairs += [tuple(shape.sample(range(first, first + size), 2)) for _ in range(extra)]
        for a, c in pairs:
            rows[a][n_cols] = 1
            rows[c][n_cols] = -1
            cols.append(n_cols)
            n_cols += 1
        block_cols.append(cols)
    for r in rows:  # random row reflections
        if shape.random() < 0.5:
            for c in r:
                r[c] = -r[c]

    used: set[int] = set()
    perturb_rows: list[dict[int, int]] = []
    candidates = [b for b, cols in enumerate(block_cols) if len(cols) >= recipe.perturb_degree]
    for _ in range(recipe.perturb):
        b = shape.choice(candidates)
        free = [c for c in block_cols[b] if c not in used]
        chosen = shape.sample(free, min(recipe.perturb_degree, len(free)))
        used.update(chosen)
        perturb_rows.append({c: shape.choice((1, -1)) for c in chosen})

    # Row order: network rows in block order, perturbation rows evenly spaced.
    ordered: list[tuple[str, dict]] = [("net", r) for r in rows]
    for i, r in enumerate(perturb_rows):
        pos = (i + 1) * len(ordered) // (len(perturb_rows) + 1)
        ordered.insert(pos, ("perturb", r))
    general_rows = []
    for _ in range(recipe.general):
        width = rng.randint(3, 6)
        cols = rng.sample(range(n_cols), min(width, n_cols))
        values = rng.sample(_GENERAL_VALUES, len(cols))
        general_rows.append(dict(zip(cols, values)))
    for r in general_rows:
        ordered.insert(rng.randrange(len(ordered) + 1), ("general", r))

    col_factor = [
        (rng.choice(_FACTORS) if rng.random() < recipe.col_disguise else 1) * rng.choice((1, -1))
        for _ in range(n_cols)
    ]
    col_label = list(range(n_cols))
    rng.shuffle(col_label)
    disguised = frozenset(col_label[c] for c in range(n_cols) if abs(col_factor[c]) != 1)
    entries: dict[tuple[int, int], Fraction] = {}
    planted: list[int] = []
    row_names: list[str] = []
    for i, (kind, r) in enumerate(ordered):
        row_names.append(f"R{i + 1}")
        if kind == "perturb":
            planted.append(i)
        factor = Fraction(1)
        if kind != "general" and rng.random() < recipe.row_disguise:
            factor = rng.choice(_FACTORS)
        for c, v in r.items():
            entries[(i, col_label[c])] = factor * v * col_factor[c]

    inst = Instance(recipe, directory / f"{recipe.name}.{recipe.fmt}", len(ordered),
                    n_cols, entries, row_names, planted, [kind for kind, _ in ordered], disguised)
    text = _to_mps(inst, rng) if recipe.fmt == "mps" else _to_coord(inst)
    inst.path.write_text(text)
    return inst


@lru_cache(maxsize=None)
def _decimal(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    # Every factor has a finite decimal form; 12 digits hold all products used.
    text = f"{float(v):.12f}".rstrip("0")
    if Fraction(text) != v:
        return f"{v.numerator}/{v.denominator}"
    return text


def _to_coord(inst: Instance) -> str:
    lines = [f"% {inst.recipe.name}: synthetic planted reflected network",
             f"{inst.n_rows} {inst.n_cols} {len(inst.entries)}"]
    for (r, c), v in sorted(inst.entries.items()):
        lines.append(f"{r + 1} {c + 1} {_decimal(v)}")
    return "\n".join(lines) + "\n"


def _to_mps(inst: Instance, rng: random.Random) -> str:
    by_col: list[list[tuple[int, Fraction]]] = [[] for _ in range(inst.n_cols)]
    for (r, c), v in sorted(inst.entries.items()):
        by_col[c].append((r, v))
    out = [f"NAME          {inst.recipe.name.upper()}", "ROWS", " N  COST"]
    out += [f" {rng.choice('LGE')}  {name}" for name in inst.row_names]
    out.append("COLUMNS")
    for c, col in enumerate(by_col):
        fields = [("COST", Fraction(rng.randint(-9, 9) or 1))] + [
            (inst.row_names[r], v) for r, v in col
        ]
        for i in range(0, len(fields), 2):
            pair = "".join(f"  {name:<8}  {_decimal(v):>12}" for name, v in fields[i:i + 2])
            out.append(f"    C{c + 1:<7}{pair}")
    out.append("RHS")
    for name in inst.row_names[:: max(1, inst.n_rows // 50)]:
        out.append(f"    RHS       {name:<8}  {rng.randint(1, 100):>12}")
    out.append("BOUNDS")
    out.append(" UP BND       C1                   100")
    out.append("ENDATA")
    return "\n".join(out) + "\n"


def build(recipes: list[Recipe], seed: int, directory: Path, workload: str) -> list[Instance]:
    """Generate every recipe from ``seed`` and write a manifest next to the files."""
    directory.mkdir(parents=True, exist_ok=True)
    instances = []
    for i, recipe in enumerate(recipes):
        instances.append(generate(recipe, random.Random(f"{seed}:{i}:{recipe.name}"), directory))
    (directory / "manifest.json").write_text(
        json.dumps({"seed": seed, "workload": workload, "instances": [x.manifest() for x in instances]},
                   indent=1)
    )
    return instances
