#!/usr/bin/env python3
"""Seeded benchmark of refnet: two workloads, end-to-end metrics and a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload library --seed 1 --seconds 45 --trace 0

The run generates its corpus from ``--seed`` under ``.perfbench_work/`` and
starts a worker process (``worker.py``) that imports refnet and runs small
warm-up instances; that set-up happens three times.  The last worker then
repeats passes over the corpus for ``--seconds``.  Every output is checked by
the benchmark's own code, in this process, after the clock stops.  The last line
of standard output is one JSON object; the lines above it give each metric
with its unit and sample count, and the deterministic counters.

``--trace 0`` reports the end-to-end metrics of untraced passes.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones.  See README.md for the workloads and what is left out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from worker import CLI_TIMEOUT_S, SRC, Item, env, probe_import

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
RUN_DEADLINE_S = 170.0  # a worker still busy this long after the run began is stopped

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "heur_k_sum": "count",
}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# Workloads


def _recipes() -> dict[str, list]:
    """Every workload's corpus.  Recipes named ``warm-*`` are set-up's warm-up instances."""
    from corpus import Recipe

    def planted(name, fmt, n, k):
        # One block of n network rows, k planted perturbation rows, n/10 general rows.
        return Recipe(name, "exact", fmt, blocks=1, block_rows=(n, n), cols_per_row=1.6,
                      perturb=k, perturb_degree=3, general=n // 10, row_disguise=0.3,
                      col_disguise=0.0, fixed_graph=True)

    def netlib_like(name, rows, k):
        blocks = max(1, rows // 80)
        return Recipe(name, "cli", "mps", blocks=blocks, block_rows=(rows // blocks,) * 2,
                      cols_per_row=1.6, perturb=k, perturb_degree=3, general=rows // 3,
                      row_disguise=0.3, col_disguise=0.0, fixed_graph=True)

    def ingest(name, rows):
        # The network is fixed; the seed's column factors decide which rows
        # scaling recovers.  The DFS pass's k then moves about 1% between seeds,
        # against 4% with a seeded network and 25% with 160-row blocks.
        return Recipe(name, "ingest", "mps", blocks=rows // 40, block_rows=(40, 40),
                      cols_per_row=1.8, perturb=rows // 10, perturb_degree=3, general=rows,
                      row_disguise=0.3, col_disguise=0.05, fixed_graph=True)

    def fragmented(name, blocks, perturb):
        return Recipe(name, "sga", "coord", blocks=blocks, block_rows=(2, 6),
                      cols_per_row=1.3, perturb=perturb, perturb_degree=2, general=blocks // 10,
                      row_disguise=0.2, col_disguise=0.0)

    return {
        "cli-small": [
            netlib_like("warm-cli", 30, 1),
            *(netlib_like(f"cli{i}", rows, k) for i, (rows, k) in enumerate([(40, 1), (150, 3), (300, 4), (450, 5)])),
        ],
        "library": [
            ingest("warm-ingest", 320),
            fragmented("warm-frag", 50, 15),
            planted("warm-exact", "mps", 60, 3),
            *(ingest(f"ingest{i}", rows) for i, rows in enumerate([1600, 2400])),
            fragmented("frag0", 1000, 330),
            *(planted(f"small{i}", "mps", n, k)
              for i, (n, k) in enumerate([(100, 4), (140, 4), (180, 5), (220, 5), (260, 5), (300, 6)])),
            *(planted(f"large{i}", "coord", n, k) for i, (n, k) in enumerate([(1500, 4), (2200, 5)])),
        ],
    }


WORKLOADS = ("cli-small", "library")


# ---------------------------------------------------------------------------
# Measurement


def pass_estimate(per_pass: list[list[float]]) -> float:
    """Seconds of one pass: the sum over instances of each instance's median time in the run.

    The machine this was tuned on is shared, and the same instance's time
    varies by 10-20% from one pass to the next.  Back-to-back passes over one
    corpus, cut into 45 s windows as a run would be, spread by 5-9% with this
    estimate (the middle half over the windows, as a share of the median), and
    by 13-14% with the sum of per-instance minima: the fastest of a few noisy
    samples is itself noisy.
    """
    return sum(statistics.median(column) for column in zip(*per_pass))


def _item(inst) -> Item:
    names = tuple(inst.row_names) if inst.recipe.kind == "cli" else ()
    return Item(inst.recipe.name, inst.recipe.kind, inst.recipe.fmt, str(inst.path), names)


def setup(name: str, seed: int, directory: Path):
    """Generate the corpus and start a worker that has imported refnet and run the warm-ups.

    Returns the seconds taken, the measured instances and the waiting worker.
    """
    import corpus

    start = time.perf_counter()
    shutil.rmtree(directory, ignore_errors=True)
    instances = corpus.build(_recipes()[name], seed, directory, name)
    warm = [x for x in instances if x.recipe.name.startswith("warm-")]
    measured = [x for x in instances if not x.recipe.name.startswith("warm-")]
    worker = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("worker.py"))],
        env=env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
        start_new_session=True,  # its own process group, so _stop also ends a CLI child
    )
    try:
        job = {"instances": [asdict(_item(x)) for x in measured], "warm": [asdict(_item(x)) for x in warm]}
        worker.stdin.write(json.dumps(job).encode() + b"\n")
        # Unbuffered, so nothing after the ready line is read ahead of communicate().
        if json.loads(worker.stdout.readline() or b"{}").get("ready") is not True:
            raise RuntimeError(f"worker ended during set-up with exit code {worker.wait()}")
    except BaseException:
        _stop(worker)
        raise
    return time.perf_counter() - start, measured, worker


def milp_optimum(unit_rows, pairs) -> int:
    """The MILP reference optimum, remembered under ``.perfbench_work/milp`` by the graph itself.

    The exact workloads' graphs do not change with the seed, so each is
    solved once per checkout rather than once per run.
    """
    import checks

    rank = {r: i for i, r in enumerate(unit_rows)}
    canonical = sorted((rank[a], rank[b], mask) for (a, b), mask in pairs.items())
    key = hashlib.sha256(json.dumps([len(unit_rows), canonical]).encode()).hexdigest()[:24]
    path = WORK / "milp" / f"{key}.json"
    if path.exists():
        return json.loads(path.read_text())["optimum"]
    optimum = checks.milp_min_deletion(unit_rows, pairs)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"optimum": optimum}))
    return optimum


def check_unit_rows(inst, outcome: dict) -> str | None:
    """refnet's (0,+-1)-rows against the rows the generator wrote.

    Without column disguise they must be exactly the generator's signed rows
    (the CLI reports only their count).  With it, scaling may recover more
    rows, but never fewer than the signed rows that meet no disguised column.
    """
    want = inst.signed_rows()
    got = outcome.get("unit_rows")
    if got is not None and len(got) != outcome["n"]:
        return f"graph n={outcome['n']} but {len(got)} unit rows"
    if inst.recipe.col_disguise == 0:
        if outcome["n"] != len(want) or (got is not None and list(got) != want):
            return f"refnet found {outcome['n']} (0,+-1)-rows; the generator wrote {len(want)}"
    else:
        missing = set(want) - set(got)
        if missing:
            return f"scaling lost {len(missing)} (0,+-1)-rows, first row {min(missing)}"
    unit = set(want if got is None else got)
    for config, _, rows, _ in outcome["heur"]:
        if not set(rows) <= unit:
            return f"{config}: retained rows that are not (0,+-1)-rows"
    return None


def check_instance(inst, outcome: dict) -> str | None:
    """The benchmark's own verdict on one output; None when it passes."""
    import checks

    if "error" in outcome:
        return outcome["error"]
    verdict = check_unit_rows(inst, outcome)
    if verdict is not None:
        return verdict
    for config, k, rows, reflected in outcome["heur"]:
        if k != outcome["n"] - len(rows):
            return f"{config}: k={k} but {len(rows)} of {outcome['n']} rows retained"
        if not checks.network_rule_holds(inst, rows, reflected):
            return f"{config}: retained rows are not a network after the reported reflection"
    if "exact" in outcome:
        if inst.recipe.col_disguise != 0:
            return "exact instances need col_disguise 0, so that the generator knows every unit row"
        # The generator's rows, not refnet's, define the graph the deletion is checked on.
        signed = inst.signed_rows()
        k, deleted, _ = outcome["exact"]
        if len(deleted) != k or not set(deleted) <= set(signed) or not checks.deletion_balances(inst, signed, deleted):
            return f"exact: deleting {len(deleted)} rows does not leave a balanced graph"
        optimum = milp_optimum(signed, checks.signed_edges(inst, signed))
        if optimum != k:
            return f"exact: k={k} but the MILP optimum is {optimum}"
    return None


def counters_of(instances, outcomes: list[dict], layers: dict) -> dict:
    """Deterministic counts that two runs of the same code on the same seed must share."""
    per_instance = {}
    for inst, out in zip(instances, outcomes):
        if "error" in out:
            continue
        entry = {"n": out["n"], "k": {c: k for c, k, _, _ in out["heur"]}}
        if "exact" in out:
            entry["k_exact"], _, entry["splits"] = out["exact"]
        per_instance[inst.path.name] = entry
    keys = ("exact.splits", "exact.oct_calls", "flow.calls.python", "flow.calls.scipy", "sga.passes",
            "sga.forest_roots", "sga.negative_n", "signed_graph.n", "signed_graph.edges",
            "signed_graph.components", "scaling.unit_rows_in", "scaling.unit_rows_out",
            "matrix_io.nnz", "flow.solvers_built")
    return {"instances": per_instance, "layers": {k: layers[k] for k in keys}}


def _code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def _stop(worker: subprocess.Popen) -> None:
    """End the worker and any ``refnet extract`` child it is running, and wait for the worker."""
    if worker.poll() is None:
        try:
            os.killpg(worker.pid, signal.SIGKILL)
        except ProcessLookupError:  # it ended in the meantime
            pass
    worker.wait()


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the finally blocks that stop the worker


def measure(name: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    began = time.perf_counter()
    setup_times = []
    worker = None
    try:
        for _ in range(SETUP_REPEATS):
            if worker is not None:  # an earlier set-up's worker: only its set-up time counts
                worker.communicate(timeout=CLI_TIMEOUT_S)
            took, instances, worker = setup(name, seed, run_dir)
            setup_times.append(took)
        command = {"seconds": seconds, "trace": int(trace), "trace_file": str(WORK / "traces" / f"{name}-{seed}.json")}
        out, _ = worker.communicate(json.dumps(command).encode() + b"\n",
                                    timeout=max(1.0, RUN_DEADLINE_S - (time.perf_counter() - began)))
    finally:
        if worker is not None:
            _stop(worker)
    if worker.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker failed with exit code {worker.returncode}")
    result = json.loads(out.strip().splitlines()[-1])

    # Checks, all after the clock stopped.
    problems = []
    failed = 0
    heur_k_sum = 0
    first = result["outcomes"]
    passes = result["passes"]
    for inst, outcome, differing in zip(instances, first, result["mismatches"]):
        try:
            verdict = check_instance(inst, outcome)
        except Exception as exc:  # a check that cannot run has not passed
            verdict = f"check failed to run: {type(exc).__name__}: {exc}"
        if verdict is not None:
            problems.append(f"{inst.path.name}: {verdict}")
        failed += passes if verdict is not None else differing
        if differing:
            problems.append(f"{inst.path.name}: outputs differ between passes")
        if "heur" in outcome:
            heur_k_sum += sum(k for _, k, _, _ in outcome["heur"])
    attempted = len(instances) * passes

    layer_runs = result["layer_runs"]
    counters = [counters_of(instances, first, lm) for lm in layer_runs]
    if any(c != counters[0] for c in counters):
        problems.append("deterministic counters differ between traced passes")
    store = WORK / "counters" / f"{name}-{seed}-{_code_hash()}.json"
    if store.exists():
        if json.loads(store.read_text()) != json.loads(json.dumps(counters[0])):
            problems.append(f"deterministic counters differ from an earlier run ({store.name})")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(counters[0], indent=1, sort_keys=True))

    walls, cpus = result["walls"], result["cpus"]
    by_kind: dict[str, float] = {}
    for inst, column in zip(instances, zip(*walls)):
        by_kind[inst.recipe.kind] = by_kind.get(inst.recipe.kind, 0.0) + statistics.median(column)

    peak_rss = result["peak_rss_mb"]
    report = {
        "setup_s": (statistics.median(setup_times), setup_times),
        "wall_s": (pass_estimate(walls), [sum(w) for w in walls]),
        "cpu_s": (pass_estimate(cpus), [sum(c) for c in cpus]),
        "peak_rss_mb": (peak_rss, [peak_rss]),
        "ok_frac": ((attempted - failed) / attempted, [attempted]),
        "heur_k_sum": (float(heur_k_sum), [heur_k_sum]),
    }
    layers = {}
    if trace:
        for key in layer_runs[0]:
            layers[key] = statistics.median(lm[key] for lm in layer_runs)
        # Start-up of the CLI in a fresh interpreter: probed here, outside every
        # timed pass, and in each traced cli pass.
        probes = [probe_import() for _ in range(SETUP_REPEATS)]
        layers["cli.startup_s"] = statistics.median([p[0] for p in probes] + result["startups"])
        layers["cli.modules_loaded"] = probes[-1][1]
        layers["trace.wall_s"] = pass_estimate(result["traced_walls"])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - pass_estimate(walls)
    return {
        "report": report,
        "layers": layers,
        "counters": counters[0],
        "wall_by_kind": by_kind,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "passes": len(walls),
        "traced_passes": len(result["traced_walls"]),
    }


def _per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    if not (SRC / "refnet" / "__init__.py").is_file():
        return _fail(f"no refnet sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import refnet

    if Path(refnet.__file__).resolve().parent != (SRC / "refnet").resolve():
        return _fail(f"imported refnet from {refnet.__file__}, not from {SRC}")

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  passes {result['passes']}"
          f"  traced passes {result['traced_passes']}")
    for key, (value, samples) in result["report"].items():
        extra = ""
        if len(samples) > 1:
            extra = f"  n={len(samples)}  iqr={_iqr(samples):.4g}  samples=" + " ".join(f"{x:.4g}" for x in samples)
        print(f"  {key:<14} {value:.6g} {END_TO_END_UNITS[key]}{extra}")
    print("wall_s by instance kind " + " ".join(f"{k}={v:.4g}" for k, v in result["wall_by_kind"].items()))
    print("counters " + json.dumps(result["counters"], sort_keys=True))
    for problem in result["problems"]:
        print(f"FAIL {problem}")
    metrics: dict = {}
    if args.trace:
        for key, unit in _per_layer_units().items():
            value = result["layers"][key]
            print(f"  {key:<30} {value:.6g} {unit}")
            metrics[key] = {"value": value, "unit": unit}
    else:
        for key, (value, _) in result["report"].items():
            metrics[key] = {"value": value, "unit": END_TO_END_UNITS[key]}
    print(json.dumps({
        "correct": not result["problems"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
