"""Command-line front end.

Four subcommands cover the full workflow:

* ``extract`` -- parse, scale, build the signed graph and run a spanning-
  forest heuristic (with repetitions or the exact-cover variant); reports
  the retained rows, the rows to reflect, and a lower bound on k (the
  number of vertex-disjoint unbalanced cycles).
* ``exact``   -- same pipeline but solve minimum balanced deletion exactly
  under a wall-clock timeout; a timeout or an exhausted ``--max-k`` is a
  result, not a failure, and reports the proven lower bound reached.
* ``bench``   -- run all nine heuristic configurations plus the exact solver
  over a directory of instances and emit a CSV with summary footer rows.
* ``scale``   -- apply the scaling stages and write the coordinate format.

Exit codes: 0 on success (including exact-solver timeouts), 2 for malformed
input files and out-of-range options, 3 for I/O errors.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import random
import sys
from pathlib import Path
from typing import NamedTuple

from refnet.matrix_io import MatrixFormatError, SparseMatrix, dump_coord, parse_coord, parse_mps
from refnet.scaling import scale
from refnet.sga import STRATEGIES, sga_repeat, sga_vc
from refnet.signed_graph import SignedGraph, build_signed_graph, disjoint_unbalanced_cycles

# The exact solver, csv and traceback are imported inside the commands that
# use them, so `refnet extract` starts without loading them.

_SERIES = (("SGA", 1), ("SGA3", 3), ("SGA80", 80))
_HEUR_COLUMNS = [f"{series}_{strat}" for series, _ in _SERIES for strat in STRATEGIES]


def _detect_format(path: Path, fmt: str) -> str:
    if fmt != "auto":
        return fmt
    if path.suffix.lower() in (".mps", ".sif"):
        return "mps"
    return "coord"


def _load_matrix(path: Path, fmt: str) -> SparseMatrix:
    text = path.read_bytes()
    if _detect_format(path, fmt) == "mps":
        return parse_mps(text)
    return parse_coord(text)


def _prepare(path: Path, fmt: str, no_scaling: bool) -> tuple[SparseMatrix, SignedGraph]:
    matrix = _load_matrix(path, fmt)
    if not no_scaling:
        matrix = scale(matrix)
    return matrix, build_signed_graph(matrix)


def _row_names(matrix: SparseMatrix, rows) -> list[str]:
    return [matrix.row_name(r) for r in sorted(rows)]


def _emit(payload: dict, out_format: str, stream) -> None:
    if out_format == "json":
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    elif out_format == "csv":
        import csv

        writer = csv.writer(stream)
        keys = list(payload)
        writer.writerow(keys)
        writer.writerow(
            [" ".join(v) if isinstance(v, list) else v for v in payload.values()]
        )
    else:
        width = max(len(k) for k in payload)
        for key, value in payload.items():
            if isinstance(value, list):
                value = " ".join(value) if value else "-"
            stream.write(f"{key.ljust(width)}  {value}\n")


def cmd_extract(args: argparse.Namespace) -> int:
    path = Path(args.file)
    matrix, graph = _prepare(path, args.format, args.no_scaling)
    strategy = args.forest.upper()
    if args.vc:
        if args.repeats != 1:
            print("note: --vc runs a single pass; --repeats ignored", file=sys.stderr)
        result = sga_vc(graph, strategy, random.Random(args.seed), vc_budget=args.vc_budget)
        if result.cover != "exact":
            print(
                "exact cover budget exhausted: no vertex cover of size"
                f" <= {args.vc_budget} found within the budget",
                file=sys.stderr,
            )
            print("falling back to the greedy independent-set step", file=sys.stderr)
    else:
        result = sga_repeat(graph, args.repeats, strategy, args.seed)
    retained_rows = [graph.tags[v] for v in result.retained]
    reflected_rows = [graph.tags[v] for v in result.reflection]
    payload = {
        "instance": path.stem,
        "n": graph.n,
        "k": result.k,
        "lower_bound": len(disjoint_unbalanced_cycles(graph)),
        "retained_count": len(result.retained),
        "retained_rows": _row_names(matrix, retained_rows),
        "reflected_rows": _row_names(matrix, reflected_rows),
        "strategy": result.strategy,
        "repeats": result.repeats,
        "seed": args.seed,
        "cover": result.cover,
        "elapsed_s": round(result.elapsed, 4),
    }
    _emit(payload, args.out, sys.stdout)
    return 0


def cmd_exact(args: argparse.Namespace) -> int:
    from refnet.exact import CancelToken, mbd_exact

    path = Path(args.file)
    matrix, graph = _prepare(path, args.format, args.no_scaling)
    result = mbd_exact(graph, k_max=args.max_k, cancel=CancelToken.after(args.timeout))
    elapsed = round(result.elapsed, 4)
    if result.status == "optimal":
        deletion_rows = [graph.tags[v] for v in result.deletion]
        tail = {
            "deleted_rows": _row_names(matrix, deletion_rows),
            "elapsed_s": elapsed,
            "splits_explored": result.nodes_explored,
        }
    elif result.status == "timeout":
        tail = {"elapsed_s": elapsed}
    else:
        tail = {"detail": f"no balanced deletion of size <= {args.max_k} exists (cap was k_max)"}
    payload = {
        "instance": path.stem,
        "n": graph.n,
        "status": result.status,
        "k": "---" if result.k is None else result.k,
        "lower_bound": result.lower_bound,
        **tail,
    }
    _emit(payload, args.out, sys.stdout)
    return 0


def cmd_scale(args: argparse.Namespace) -> int:
    path = Path(args.file)
    matrix = _load_matrix(path, args.format)
    scaled = scale(matrix)
    text = dump_coord(scaled)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


class BenchRecord(NamedTuple):
    """One benchmark row: exact result plus all nine heuristic ks.

    ``heuristic`` holds the ks in ``_HEUR_COLUMNS`` order.
    """

    instance: str
    n: int
    seed: int
    status: str
    k_exact: int | None = None
    t_exact: float | None = None
    timed_out: bool = False
    heuristic: tuple[int, ...] | None = None
    t_single: float | None = None
    error: str = ""


def _bench_one(file: str, name: str, seed: int, timeout: float, no_scaling: bool) -> BenchRecord:
    import statistics

    from refnet.exact import CancelToken, mbd_exact

    path = Path(file)
    n = 0
    try:
        _, graph = _prepare(path, "auto", no_scaling)
        n = graph.n
        heuristic: list[int] = []
        singles: list[float] = []
        for _, repeats in _SERIES:
            for strategy in STRATEGIES:
                result = sga_repeat(graph, repeats, strategy, seed)
                heuristic.append(result.k)
                if repeats == 1:
                    singles.append(result.elapsed)
        exact = mbd_exact(graph, cancel=CancelToken.after(timeout))
    except (MatrixFormatError, OSError) as exc:
        return BenchRecord(name, n, seed, "error", error=str(exc))
    except Exception as exc:  # one bad instance must not abort the whole run
        import traceback

        traceback.print_exc(file=sys.stderr)
        return BenchRecord(name, n, seed, "error", error=f"{type(exc).__name__}: {exc}")
    timed_out = exact.status == "timeout"
    return BenchRecord(
        instance=name,
        n=n,
        seed=seed,
        status="ok",
        k_exact=None if timed_out else exact.k,
        t_exact=None if timed_out else exact.elapsed,
        timed_out=timed_out,
        heuristic=tuple(heuristic),
        t_single=statistics.mean(singles),
    )


def _fmt(value: float, digits: int = 2) -> str:
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _bench_csv(records: list[BenchRecord]) -> str:
    # statistics.mean keeps an integral mean an int, which _fmt prints bare.
    import csv
    import statistics

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["instance", "k", *_HEUR_COLUMNS, "t", "t1", "n", "seed", "status"])
    if not records:
        return buf.getvalue()
    for rec in records:
        if rec.status == "error":
            writer.writerow(
                [rec.instance, "", *[""] * len(_HEUR_COLUMNS), "", "", rec.n, rec.seed,
                 f"error: {rec.error}"]
            )
            continue
        k_cell = "---" if rec.timed_out else _fmt(rec.k_exact)
        t_cell = "timeout" if rec.timed_out else _fmt(rec.t_exact)
        writer.writerow(
            [
                rec.instance,
                k_cell,
                *[_fmt(k) for k in rec.heuristic],
                t_cell,
                _fmt(rec.t_single, 4),
                rec.n,
                rec.seed,
                "timeout" if rec.timed_out else "ok",
            ]
        )

    solved = [r for r in records if r.status == "ok" and not r.timed_out]
    usable = [r for r in records if r.status == "ok"]

    def col_mean(values: list[float]) -> str:
        return _fmt(statistics.mean(values)) if values else ""

    average = ["Average", col_mean([r.k_exact for r in solved])]
    for col in range(len(_HEUR_COLUMNS)):
        average.append(col_mean([r.heuristic[col] for r in usable]))
    average.append(col_mean([r.t_exact for r in solved]))
    average.append(col_mean([r.t_single for r in usable]))
    writer.writerow([*average, "", "", ""])

    # Summary rows consider only instances with a known optimum.
    diff = ["Avg. diff.", _fmt(0.0) if solved else ""]
    for col in range(len(_HEUR_COLUMNS)):
        diff.append(col_mean([r.heuristic[col] - r.k_exact for r in solved]))
    writer.writerow([*diff, "", "", "", "", ""])

    exact_hits = ["# exact sol.", ""]
    for col in range(len(_HEUR_COLUMNS)):
        exact_hits.append(
            str(sum(1 for r in solved if r.heuristic[col] == r.k_exact)) if solved else ""
        )
    writer.writerow([*exact_hits, "", "", "", "", ""])
    return buf.getvalue()


def cmd_bench(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise OSError(f"{directory} is not a directory")
    # The full name breaks stem ties (a.coord, a.sif), so rows never follow
    # the filesystem's listing order, and it names the rows of such a tie.
    paths = sorted(
        (p for p in directory.iterdir() if p.is_file()), key=lambda p: (p.stem, p.name)
    )
    stems = collections.Counter(p.stem for p in paths)
    names = [p.name if stems[p.stem] > 1 else p.stem for p in paths]
    tasks = [
        (str(p), name, args.seed, args.timeout, args.no_scaling)
        for p, name in zip(paths, names)
    ]
    records = []
    with contextlib.ExitStack() as stack:
        if args.jobs > 1 and len(tasks) > 1:  # map() needs at least one iterable
            # Imported here, not at the top: loading the process pool would
            # add to every CLI start-up, and only a parallel bench uses it.
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=args.jobs))
            results = pool.map(_bench_one, *zip(*tasks))
        else:
            results = (_bench_one(*task) for task in tasks)
        # Both paths yield in input order, which is the CSV row order.
        for record in results:
            records.append(record)
            print(f"done: {record.instance} [{record.status}]", file=sys.stderr)
    text = _bench_csv(records)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _at_least(convert, minimum):
    """argparse type: ``convert`` the text and require at least ``minimum``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}") from None
        if not value >= minimum:  # also rejects a float NaN
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text!r}")
        return value

    return parse


def _add_common_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("auto", "mps", "coord"), default="auto")
    parser.add_argument("--no-scaling", action="store_true", help="skip the scaling stage")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refnet",
        description="Find maximum embedded reflected networks in LP constraint matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="run a spanning-forest heuristic")
    p_extract.add_argument("file")
    _add_common_input(p_extract)
    p_extract.add_argument("--forest", choices=("rs", "bfs", "dfs"), default="dfs")
    p_extract.add_argument("--repeats", type=_at_least(int, 1), default=1)
    p_extract.add_argument("--seed", type=int, default=1)
    p_extract.add_argument("--vc", action="store_true", help="exact cover instead of greedy")
    p_extract.add_argument("--vc-budget", type=_at_least(int, 0), default=None)
    p_extract.add_argument("--out", choices=("table", "json", "csv"), default="table")
    p_extract.set_defaults(func=cmd_extract)

    p_exact = sub.add_parser("exact", help="solve minimum balanced deletion exactly")
    p_exact.add_argument("file")
    _add_common_input(p_exact)
    p_exact.add_argument("--timeout", type=_at_least(float, 0), default=3600.0)
    p_exact.add_argument("--max-k", type=_at_least(int, 0), default=None)
    p_exact.add_argument("--out", choices=("table", "json", "csv"), default="table")
    p_exact.set_defaults(func=cmd_exact)

    p_bench = sub.add_parser("bench", help="benchmark a directory of instances")
    p_bench.add_argument("dir")
    p_bench.add_argument("--timeout", type=_at_least(float, 0), default=3600.0)
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p_bench.add_argument("--jobs", type=_at_least(int, 1), default=1)
    p_bench.add_argument("--no-scaling", action="store_true")
    p_bench.set_defaults(func=cmd_bench)

    p_scale = sub.add_parser("scale", help="scale a matrix and emit coordinate format")
    p_scale.add_argument("file")
    p_scale.add_argument("--format", choices=("auto", "mps", "coord"), default="auto")
    p_scale.add_argument("--out", default=None)
    p_scale.set_defaults(func=cmd_scale)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MatrixFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
