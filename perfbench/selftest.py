#!/usr/bin/env python3
"""The benchmark's own tests; run from the repository root with ``python3 perfbench/selftest.py``.

The file name keeps it out of the repository's pytest collection: these tests
check the benchmark, not refnet.

* The tracer restores every binding it replaced, traced runs give the same
  outputs as untraced ones, and every sga sub-step shows in the trace.
* The output checks reject wrong outputs, lost (0,+-1)-rows among them, and
  the MILP reference agrees with brute force on small graphs.
"""

from __future__ import annotations

import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from refnet import SignedGraph, brute_force_mbd, build_signed_graph, parse_mps, parse_coord, scale  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def random_graph(rng: random.Random, n: int, p: float) -> SignedGraph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                sign = rng.choice((1, -1))
                edges.append((u, v, sign))
                if rng.random() < 0.1:
                    edges.append((u, v, -sign))
    return SignedGraph.from_edges(n, edges)


def small_corpus(directory: Path, seed: int):
    recipes = [
        corpus.Recipe("t-frag", "sga", "coord", blocks=40, block_rows=(2, 6), cols_per_row=1.3,
                      perturb=12, perturb_degree=2, general=5, row_disguise=0.2, col_disguise=0.1),
        corpus.Recipe("t-one", "exact", "mps", blocks=1, block_rows=(60, 60), cols_per_row=1.6,
                      perturb=3, perturb_degree=3, general=6, row_disguise=0.3, col_disguise=0.0,
                      fixed_graph=True),
    ]
    return corpus.build(recipes, seed, directory, "selftest")


def graph_of(inst):
    parse = parse_mps if inst.recipe.fmt == "mps" else parse_coord
    return build_signed_graph(scale(parse(inst.path.read_bytes())))


def bindings() -> dict:
    """Every name bound in a refnet module, plus the two wrapped solver methods."""
    found = {(name, k): v for name, m in sys.modules.items() if name.startswith("refnet")
             for k, v in vars(m).items()}
    solver = tracing.flow.SeparatorSolver
    found["solver"] = (solver.__init__, solver.solve)
    return found


def test_tracer_restores_and_preserves_outputs(tmp: Path) -> int:
    before = bindings()
    both = small_corpus(tmp / "b", 4)
    checked = 0
    for runner in (worker.run_ingest, worker.run_sga_repeat, worker.run_exact):
        name = runner.__name__
        # The fragmented instance has a dozen planted rows: too many for the exact solver.
        instances = both[1:] if runner is worker.run_exact else both
        plain = [runner(run._item(inst)) for inst in instances]
        tracer = tracing.Tracer()
        with tracer:
            traced = [runner(run._item(inst), tracer) for inst in instances]
        expect(plain == traced, f"{name}: traced outputs differ from untraced ones")
        metrics = tracing.layer_metrics(tracer)
        expect(metrics["signed_graph.n"] > 0 and metrics["trace.spans"] > 0, f"{name}: nothing traced")
        for step in ("sga.forest_s.DFS", "sga.switch_s", "sga.negative_s", "sga.independent_set_s",
                     "sga.repeat_s.DFS", "signed_graph.certify_s"):
            expect(metrics[step] > 0, f"{name}: {step} not traced")
        expect(metrics["sga.negative_n"] > 0 and metrics["sga.passes"] > 0, f"{name}: sga counters not traced")
        for inst, out in zip(instances, plain):
            verdict = run.check_instance(inst, out)
            expect(verdict is None, f"{name}/{inst.path.name}: {verdict}")
        checked += 1
    expect(bindings() == before, "tracer left a replaced binding behind")
    return checked


def test_checks_reject_wrong_outputs(tmp: Path) -> int:
    frag, inst = small_corpus(tmp / "c", 5)
    graph = graph_of(inst)
    unit_rows = inst.signed_rows()
    expect(list(graph.tags) == unit_rows, "refnet's unit rows differ from the generator's")

    # A lost (0,+-1)-row shrinks n, k and the optimum together; the generator's rows catch it.
    out = worker.run_exact(run._item(inst))
    expect(run.check_instance(inst, out) is None, "correct exact output rejected")
    lost = inst.planted[0]
    keep = [v for v, r in enumerate(graph.tags) if r != lost]
    shrunk = dict(out, n=out["n"] - 1, unit_rows=tuple(graph.tags[v] for v in keep))
    expect(run.check_instance(inst, shrunk) is not None, "a lost perturbation row was accepted")
    fout = worker.run_sga_repeat(run._item(frag))
    expect(run.check_instance(frag, fout) is None, "correct sga output rejected")
    required = frag.signed_rows()
    expect(bool(required), "column disguise left no undisguised row")
    dropped = dict(fout, n=fout["n"] - 1, unit_rows=tuple(r for r in fout["unit_rows"] if r != required[-1]))
    expect(run.check_unit_rows(frag, dropped) is not None, "a lost undisguised row was accepted")
    pairs = checks.signed_edges(inst, unit_rows)
    expect(checks.milp_min_deletion(unit_rows, pairs) == len(inst.planted), "MILP misses the planted optimum")
    expect(checks.deletion_balances(inst, unit_rows, inst.planted), "planted deletion rejected")
    expect(not checks.deletion_balances(inst, unit_rows, inst.planted[1:]), "too small a deletion accepted")
    kept = [r for r in unit_rows if r not in inst.planted]
    reflected = checks.two_label(kept, checks.signed_edges(inst, kept))
    expect(checks.network_rule_holds(inst, kept, reflected), "network rows rejected")
    some = sorted(reflected)[:1] or kept[:1]
    flipped = set(reflected) ^ set(some)
    expect(not checks.network_rule_holds(inst, kept, flipped), "wrong reflection accepted")
    expect(not checks.network_rule_holds(inst, unit_rows, reflected), "perturbation rows accepted")

    rng = random.Random(11)
    for _ in range(40):
        graph = random_graph(rng, rng.randint(1, 10), 0.4)
        rows = list(range(graph.n))
        fake = corpus.Instance(inst.recipe, inst.path, graph.n, 0, {}, [], [], ["net"] * graph.n, frozenset())
        for c, (u, v, sign) in enumerate(graph.edges):
            fake.entries[(u, c)] = 1
            fake.entries[(v, c)] = -1 if sign == 1 else 1
        optimum, _ = brute_force_mbd(graph)
        got = checks.milp_min_deletion(rows, checks.signed_edges(fake, rows))
        expect(got == optimum, f"MILP {got} != brute force {optimum}")
    return 40


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for test in (test_tracer_restores_and_preserves_outputs, test_checks_reject_wrong_outputs):
            cases = test(Path(tmp))
            print(f"PASS {test.__name__} ({cases} cases)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
