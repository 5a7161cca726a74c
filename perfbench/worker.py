#!/usr/bin/env python3
"""The process that runs refnet on the corpus; ``run.py`` starts it and reads its answers.

It talks JSON lines over stdin and stdout:

1. ``run.py`` sends the job: ``{"instances": [...], "warm": [...]}``, each
   instance as the fields of :class:`Item`.
2. The worker imports refnet, runs every warm-up instance once and answers
   ``{"ready": true}``.
3. ``run.py`` either closes stdin, and the worker exits, or sends
   ``{"seconds": s, "trace": t, "trace_file": path}``.  The worker then repeats
   passes over the instances for ``s`` seconds and answers with the first
   pass's outcomes, per-instance times, peak memory and per-layer metrics.

The corpus the checks need stays in ``run.py``, so this process's heap is
refnet's plus a few outcome tuples, and ``peak_rss_mb`` measures refnet.
"""

from __future__ import annotations

import gc
import io
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

EXACT_TIMEOUT_S = 30.0
CLI_TIMEOUT_S = 60.0
SGA_REPEATS = 2  # repetitions per forest strategy on the sga instances
CLI_ARGS = ("--forest", "dfs", "--repeats", "80", "--seed", "1", "--out", "json")


@dataclass(frozen=True)
class Item:
    """What the worker needs of an instance: no matrix, only the file."""

    name: str
    kind: str  # the pipeline that runs it: "cli", "ingest", "sga" or "exact"
    fmt: str  # "mps" or "coord"
    path: str
    row_names: tuple[str, ...] = ()  # cli only: maps the CLI's row names back to indices


class Failure(RuntimeError):
    """An instance whose run did not produce a usable output."""


def _load(item: Item):
    from refnet import matrix_io, scaling

    data = Path(item.path).read_bytes()
    parse = matrix_io.parse_mps if item.fmt == "mps" else matrix_io.parse_coord
    return scaling.scale(parse(data))


def _heuristic(config: str, graph, result) -> tuple:
    return (
        config,
        result.k,
        tuple(sorted(graph.tags[v] for v in result.retained)),
        tuple(sorted(graph.tags[v] for v in result.reflection)),
    )


def run_ingest(item: Item, tracer=None) -> dict:
    from refnet import signed_graph
    from tracing import sga

    matrix = _load(item)
    graph = signed_graph.build_signed_graph(matrix)
    result = sga.sga_repeat(graph, 1, "DFS", 1)
    rows = [graph.tags[v] for v in result.retained]
    _, reflected = signed_graph.extract_network(matrix, rows)
    return {"n": graph.n, "unit_rows": graph.tags,
            "heur": [("DFSx1", result.k, tuple(sorted(rows)), tuple(sorted(reflected)))]}


def run_sga_repeat(item: Item, tracer=None) -> dict:
    from refnet import signed_graph
    from tracing import sga

    graph = signed_graph.build_signed_graph(_load(item))
    heur = [
        _heuristic(f"{s}x{SGA_REPEATS}", graph, sga.sga_repeat(graph, SGA_REPEATS, s, 1))
        for s in ("RS", "BFS", "DFS")
    ]
    return {"n": graph.n, "unit_rows": graph.tags, "heur": heur}


def run_exact(item: Item, tracer=None) -> dict:
    from refnet import exact, signed_graph
    from tracing import sga

    graph = signed_graph.build_signed_graph(_load(item))
    heur = [_heuristic("DFSx1", graph, sga.sga_repeat(graph, 1, "DFS", 1))]
    result = exact.mbd_exact(graph, cancel=exact.CancelToken.after(EXACT_TIMEOUT_S))
    if result.status != "optimal":
        raise Failure(f"exact solver status {result.status!r}")
    deleted = tuple(sorted(graph.tags[v] for v in result.deletion))
    return {"n": graph.n, "unit_rows": graph.tags, "heur": heur,
            "exact": (result.k, deleted, result.nodes_explored)}


def env() -> dict:
    """The environment of every refnet process: ``src/`` first on PYTHONPATH, one OpenBLAS thread.

    refnet makes no BLAS call, but importing numpy starts an OpenBLAS thread
    per CPU.  On the 2-CPU shared host the benchmark was tuned on, that
    start-up ran beside the main thread only in some stretches of minutes, and
    ``refnet extract`` took 45% less wall time (and more CPU time than wall
    time) in those stretches than in the rest.
    """
    out = dict(os.environ)
    out["PYTHONPATH"] = str(SRC) + (os.pathsep + out["PYTHONPATH"] if out.get("PYTHONPATH") else "")
    out["OPENBLAS_NUM_THREADS"] = "1"
    return out


def probe_import() -> tuple[float, int]:
    """Seconds to start an interpreter and import refnet.cli, and the modules it loaded."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, refnet.cli; print(len(sys.modules))"],
        env=env(), capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True,
    )
    return time.perf_counter() - start, int(proc.stdout)


def _cli_outcome(item: Item, payload: dict) -> dict:
    index = {name: r for r, name in enumerate(item.row_names)}
    rows = tuple(sorted(index[name] for name in payload["retained_rows"]))
    reflected = tuple(sorted(index[name] for name in payload["reflected_rows"]))
    if payload["retained_count"] != len(rows) or payload["k"] != payload["n"] - len(rows):
        raise Failure("reported k and retained rows disagree")
    return {"n": payload["n"], "heur": [("DFSx80", payload["k"], rows, reflected)]}


def run_cli(item: Item, tracer=None) -> dict:
    """``refnet extract`` in a fresh interpreter; traced, the same command in-process."""
    argv = ["extract", item.path, *CLI_ARGS]
    if tracer is None:
        proc = subprocess.run(
            [sys.executable, "-m", "refnet.cli", *argv],
            env=env(), capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise Failure(f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return _cli_outcome(item, json.loads(proc.stdout))
    from refnet import cli

    # A traced pass cannot see inside another interpreter, so it pays the
    # start-up as a measured span and runs the command in this process.
    start = time.perf_counter()
    probe_import()
    tracer.span("cli.startup", "cli", start, time.perf_counter())
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise Failure(f"exit code {code}")
    return _cli_outcome(item, json.loads(out.getvalue()))


RUNNERS: dict[str, Callable] = {"cli": run_cli, "ingest": run_ingest, "sga": run_sga_repeat, "exact": run_exact}


def _cpu(children: bool) -> float:
    if children:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime
    return time.process_time()


def one_pass(items: list[Item], tracer=None):
    """Run every instance once; returns outcomes and per-instance wall and CPU seconds.

    A cli instance's work happens in a child process, so its CPU time is the
    children's.
    """
    outcomes, walls, cpus = [], [], []
    for item in items:
        children = item.kind == "cli"
        # Keep earlier outcomes out of the collector's work, so refnet pays
        # for its own objects only.
        gc.collect()
        gc.freeze()
        cpu0, wall0 = _cpu(children), time.perf_counter()
        try:
            outcomes.append(RUNNERS[item.kind](item, tracer))
        except Exception as exc:  # one bad instance is a counted failure, not a crashed run
            outcomes.append({"error": f"{type(exc).__name__}: {exc}"})
        walls.append(time.perf_counter() - wall0)
        cpus.append(_cpu(children) - cpu0)
    return outcomes, walls, cpus


def measure(items: list[Item], seconds: float, trace: bool, trace_file: str) -> dict:
    """Passes for ``seconds``; with ``trace``, untraced and traced passes alternate.

    Only the first pass's outcomes are kept; every later pass is compared
    with it and then dropped.
    """
    import tracing

    first: list[dict] | None = None
    mismatches = [0] * len(items)
    walls, cpus, traced_walls, layer_runs, startups, spans = [], [], [], [], [], []

    def record(outcomes: list[dict]) -> None:
        nonlocal first
        if first is None:
            first = outcomes
            return
        for i, (a, b) in enumerate(zip(first, outcomes)):
            mismatches[i] += a != b

    def traced_pass() -> float:
        tracer = tracing.Tracer()
        with tracer:
            outcomes, wall, _ = one_pass(items, tracer)
        record(outcomes)
        layer_runs.append(tracing.layer_metrics(tracer))
        startups.extend(end - start for n, _, start, end, _ in tracer.spans if n == "cli.startup")
        if trace:
            spans.append(tracer.spans)
        return wall

    began = time.perf_counter()
    while True:
        cycle_began = time.perf_counter()
        outcomes, wall, cpu = one_pass(items)
        record(outcomes)
        walls.append(wall)
        cpus.append(cpu)
        if trace:
            traced_walls.append(traced_pass())
        now = time.perf_counter()
        elapsed, cycle = now - began, now - cycle_began
        # Start another pass only if it should end within --seconds.  A
        # regression that makes passes very slow still ends the run in time.
        if elapsed >= 3 * seconds or (len(walls) >= (2 if trace else 3) and elapsed + cycle > seconds):
            break
    # The process that does the work: this one, or the CLI's children.
    who = resource.RUSAGE_CHILDREN if any(x.kind == "cli" for x in items) else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB
    if not trace:  # one untimed traced pass supplies the deterministic counters
        traced_pass()
    else:
        Path(trace_file).parent.mkdir(parents=True, exist_ok=True)
        Path(trace_file).write_text(json.dumps({"fields": ["name", "layer", "start", "end", "parent"],
                                                "passes": spans}))
    return {
        "outcomes": first,
        "mismatches": mismatches,
        "passes": len(walls) + len(layer_runs),
        "walls": walls,
        "cpus": cpus,
        "traced_walls": traced_walls,
        "peak_rss_mb": peak_rss_mb,
        "layer_runs": layer_runs,
        "startups": startups,
    }


def _answer(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    sys.path.insert(0, str(SRC))
    job = json.loads(sys.stdin.readline())
    import tracing  # noqa: F401  (refnet and the tracer load during set-up)

    one_pass([Item(**x) for x in job["warm"]])
    items = [Item(**x) for x in job["instances"]]
    _answer({"ready": True})
    line = sys.stdin.readline()
    if not line:
        return 0
    command = json.loads(line)
    _answer(measure(items, command["seconds"], bool(command["trace"]), command["trace_file"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
