from __future__ import annotations

import csv
import json
import multiprocessing
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import refnet.cli
import refnet.exact
from helpers import matrix_realizing, random_signed_graph, write_mps
from refnet.cli import main
from refnet.exact import brute_force_mbd
from refnet.matrix_io import SparseMatrix, dump_coord, parse_coord
from refnet.signed_graph import SignedGraph

SRC = Path(__file__).resolve().parent.parent / "src"


def fig_graph() -> SignedGraph:
    return SignedGraph.from_edges(
        4,
        [(0, 1, -1), (0, 2, 1), (0, 3, -1), (1, 3, -1), (2, 3, 1), (2, 3, -1)],
    )


def network_coord() -> str:
    m = SparseMatrix.from_entries(
        3, 2, [(0, 0, 1), (1, 0, -1), (1, 1, 1), (2, 1, -1)]
    )
    return dump_coord(m)


@pytest.fixture
def fig_coord(tmp_path):
    path = tmp_path / "fig.coord"
    path.write_text(dump_coord(matrix_realizing(fig_graph())))
    return path


class TestExtract:
    def test_network_matrix_keeps_all(self, tmp_path, capsys):
        path = tmp_path / "net.coord"
        path.write_text(network_coord())
        assert main(["extract", str(path), "--out", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == payload["lower_bound"] == 0
        assert payload["retained_count"] == 3

    def test_fig_dfs(self, fig_coord, capsys):
        assert main(["extract", str(fig_coord), "--forest", "dfs", "--out", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 1
        assert payload["lower_bound"] == 1  # the +/- pair of rows 3 and 4
        assert payload["retained_rows"] == ["1", "2", "3"]
        assert payload["reflected_rows"] == ["2"]

    def test_repeats_and_table_output(self, fig_coord, capsys):
        assert main(
            ["extract", str(fig_coord), "--forest", "rs", "--repeats", "80",
             "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "k" in out and "1" in out
        assert "lower_bound     1\n" in out

    def test_vc_variant(self, fig_coord, capsys):
        assert main(["extract", str(fig_coord), "--vc", "--out", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cover"] == "exact"
        assert payload["k"] == 1

    def test_vc_ignores_repeats_with_a_note(self, fig_coord, capsys):
        assert main(["extract", str(fig_coord), "--vc", "--repeats", "5", "--out", "json"]) == 0
        out, err = capsys.readouterr()
        assert err == "note: --vc runs a single pass; --repeats ignored\n"
        assert json.loads(out)["cover"] == "exact"

    def test_vc_budget_exhausted_falls_back_to_greedy(self, fig_coord, capsys):
        # The +/- pair stays negative after any switch, so a cover needs a vertex.
        assert main(["extract", str(fig_coord), "--vc", "--vc-budget", "0", "--out", "json"]) == 0
        out, err = capsys.readouterr()
        assert err.splitlines() == [
            "exact cover budget exhausted: no vertex cover of size <= 0 found within the budget",
            "falling back to the greedy independent-set step",
        ]
        assert main(["extract", str(fig_coord), "--repeats", "1", "--out", "json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        fallback = json.loads(out)
        assert fallback["cover"] == "greedy"
        assert fallback.pop("elapsed_s") >= 0 and plain.pop("elapsed_s") >= 0
        assert fallback == plain

    @pytest.mark.parametrize("suffix,fmt", [("coord", "mps"), ("mps", "coord"), ("txt", "mps")])
    def test_format_overrides_suffix(self, tmp_path, capsys, suffix, fmt):
        matrix = matrix_realizing(fig_graph())
        path = tmp_path / f"fig.{suffix}"
        path.write_text(write_mps(matrix) if fmt == "mps" else dump_coord(matrix))
        assert main(["extract", str(path), "--out", "json"]) == 2
        capsys.readouterr()
        assert main(["extract", str(path), "--format", fmt, "--out", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["k"] == 1

    def test_mps_input(self, tmp_path, capsys):
        path = tmp_path / "fig.mps"
        path.write_text(write_mps(matrix_realizing(fig_graph())))
        assert main(["extract", str(path), "--out", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["k"] == 1

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.coord"
        path.write_text("not a matrix\n")
        assert main(["extract", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["extract", str(tmp_path / "absent.coord")]) == 3

    def test_non_utf8_input_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.coord"
        path.write_bytes(b"2 2 1\n1 1 \xff\n")
        assert main(["extract", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_non_utf8_mps_names_exit_code(self, tmp_path, capsys):
        # Columns C\xff and C\xfe must not merge into one column.
        path = tmp_path / "names.mps"
        path.write_bytes(
            b"NAME T\nROWS\n E  R1\n E  R2\nCOLUMNS\n"
            b"    C\xff  R1  1\n    C\xfe  R2  1\nRHS\nENDATA\n"
        )
        assert main(["extract", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 6" in err and "UTF-8" in err

    @pytest.mark.parametrize(
        "name,text",
        [
            ("huge.coord", "1 1 1\n1 1 1e3000000\n"),
            ("huge.mps", "NAME T\nROWS\n E  R1\nCOLUMNS\n    X  R1  1e3000000\nENDATA\n"),
        ],
        ids=["coord", "mps"],
    )
    def test_huge_exponent_exit_code(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        assert main(["extract", str(path)]) == 2
        assert "exponent" in capsys.readouterr().err

    def test_csv_output(self, fig_coord, capsys):
        assert main(["extract", str(fig_coord), "--out", "csv"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0][:4] == ["instance", "n", "k", "lower_bound"]
        assert rows[1][2:4] == ["1", "1"]

    def test_lower_bound_below_the_optimum(self, tmp_path, capsys):
        rng = random.Random(71)
        for trial in range(8):
            graph = random_signed_graph(rng, n_max=10)
            path = tmp_path / f"inst{trial}.mps"
            path.write_text(write_mps(matrix_realizing(graph)))
            assert main(["extract", str(path), "--repeats", "80", "--out", "json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["lower_bound"] <= brute_force_mbd(graph)[0] <= payload["k"]

    def test_lower_bound_found_once(self, tmp_path, capsys, monkeypatch):
        # sga_repeat's stop test and the report share one search for the cycles.
        import refnet.signed_graph as signed_graph_module

        graph = SignedGraph.from_edges(
            6, [(0, 1, -1), (1, 2, -1), (0, 2, -1), (3, 4, -1), (4, 5, -1), (3, 5, -1)]
        )
        path = tmp_path / "two_triangles.mps"
        path.write_text(write_mps(matrix_realizing(graph)))
        calls = 0
        witness_cycle = signed_graph_module._witness_cycle

        def counting(*args):
            nonlocal calls
            calls += 1
            return witness_cycle(*args)

        monkeypatch.setattr(signed_graph_module, "_witness_cycle", counting)
        assert main(["extract", str(path), "--repeats", "80", "--out", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["lower_bound"] == 2
        assert calls == 2  # one per triangle, in a single search


class TestExact:
    def test_balanced_instance(self, tmp_path, capsys):
        path = tmp_path / "net.coord"
        path.write_text(network_coord())
        assert main(["exact", str(path), "--out", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "optimal"
        assert payload["k"] == 0

    def test_fig_instance(self, fig_coord, capsys):
        assert main(["exact", str(fig_coord), "--out", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == payload["lower_bound"] == 1
        assert payload["deleted_rows"] == ["4"]

    def test_forced_timeout(self, fig_coord, capsys):
        assert main(["exact", str(fig_coord), "--timeout", "0", "--out", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "timeout"
        assert payload["k"] == "---"
        # the budget reached is 0, but the +/- pair of rows 3 and 4 is a
        # disjoint unbalanced cycle, as in `refnet extract`'s bound
        assert payload["lower_bound"] == 1

    def test_timeout_lower_bound_in_table_and_csv(self, fig_coord, capsys):
        assert main(["exact", str(fig_coord), "--timeout", "0"]) == 0
        assert "lower_bound  1" in capsys.readouterr().out
        assert main(["exact", str(fig_coord), "--timeout", "0", "--out", "csv"]) == 0
        header, row = csv.reader(capsys.readouterr().out.splitlines())
        assert row[header.index("lower_bound")] == "1"

    def test_max_k_exhausted(self, fig_coord, capsys):
        assert main(["exact", str(fig_coord), "--max-k", "0", "--out", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "max-k-exhausted"
        assert payload["lower_bound"] == 1

    @pytest.mark.parametrize(
        "flags,expected",
        [
            ([], {
                "table": (
                    "instance         pin\n"
                    "n                10\n"
                    "status           optimal\n"
                    "k                3\n"
                    "lower_bound      3\n"
                    "deleted_rows     R1 R9 R10\n"
                    "elapsed_s        X\n"
                    "splits_explored  21\n"
                ),
                "json": (
                    '{\n  "instance": "pin",\n  "n": 10,\n  "status": "optimal",\n'
                    '  "k": 3,\n  "lower_bound": 3,\n'
                    '  "deleted_rows": [\n    "R1",\n    "R9",\n    "R10"\n  ],\n'
                    '  "elapsed_s": X,\n  "splits_explored": 21\n}\n'
                ),
                "csv": (
                    "instance,n,status,k,lower_bound,deleted_rows,elapsed_s,splits_explored\r\n"
                    "pin,10,optimal,3,3,R1 R9 R10,X,21\r\n"
                ),
            }),
            (["--timeout", "0"], {
                "table": (
                    "instance     pin\n"
                    "n            10\n"
                    "status       timeout\n"
                    "k            ---\n"
                    "lower_bound  3\n"
                    "elapsed_s    X\n"
                ),
                "json": (
                    '{\n  "instance": "pin",\n  "n": 10,\n  "status": "timeout",\n'
                    '  "k": "---",\n  "lower_bound": 3,\n  "elapsed_s": X\n}\n'
                ),
                "csv": (
                    "instance,n,status,k,lower_bound,elapsed_s\r\n"
                    "pin,10,timeout,---,3,X\r\n"
                ),
            }),
            (["--max-k", "0"], {
                "table": (
                    "instance     pin\n"
                    "n            10\n"
                    "status       max-k-exhausted\n"
                    "k            ---\n"
                    "lower_bound  3\n"
                    "detail       no balanced deletion of size <= 0 exists (cap was k_max)\n"
                ),
                "json": (
                    '{\n  "instance": "pin",\n  "n": 10,\n  "status": "max-k-exhausted",\n'
                    '  "k": "---",\n  "lower_bound": 3,\n'
                    '  "detail": "no balanced deletion of size <= 0 exists (cap was k_max)"\n}\n'
                ),
                "csv": (
                    "instance,n,status,k,lower_bound,detail\r\n"
                    "pin,10,max-k-exhausted,---,3,no balanced deletion of size <= 0 exists"
                    " (cap was k_max)\r\n"
                ),
            }),
        ],
        ids=["optimal", "timeout", "max-k-exhausted"],
    )
    def test_pinned_output(self, tmp_path, capsys, flags, expected):
        # The whole text in every format; only the timing value is masked.
        graph = random_signed_graph(random.Random(10), n_max=10, n_min=8)
        path = tmp_path / "pin.mps"
        path.write_text(write_mps(matrix_realizing(graph)))
        for out, text in expected.items():
            assert main(["exact", str(path), *flags, "--out", out]) == 0
            got, timings = re.subn(r"\d+\.\d+", "X", capsys.readouterr().out)
            assert got == text
            assert timings == text.count("X")

    def test_matches_oracle_through_mps_pipeline(self, tmp_path, capsys):
        rng = random.Random(70)
        for trial in range(8):
            graph = random_signed_graph(rng, n_max=9)
            path = tmp_path / f"inst{trial}.mps"
            path.write_text(write_mps(matrix_realizing(graph)))
            assert main(["exact", str(path), "--out", "json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["k"] == brute_force_mbd(graph)[0]

    def test_disguised_rows_recovered_by_scaling(self, tmp_path, capsys):
        # multiply rows by arbitrary nonzero rationals and columns by +-1:
        # simple row scaling recovers a reflected copy of the original rows,
        # and reflection never changes the optimum deletion size
        from fractions import Fraction

        from refnet.matrix_io import SparseMatrix

        rng = random.Random(72)
        factors = [Fraction(3), Fraction(-2), Fraction(5, 2), Fraction(1, 4), Fraction(-7)]
        for trial in range(6):
            graph = random_signed_graph(rng, n_max=9, n_min=3)
            base = matrix_realizing(graph)
            row_f = [rng.choice(factors) for _ in range(base.n_rows)]
            col_f = [rng.choice((1, -1)) for _ in range(base.n_cols)]
            disguised = SparseMatrix.from_entries(
                base.n_rows,
                base.n_cols,
                [(r, c, v * row_f[r] * col_f[c]) for r, c, v in base.entries],
            )
            path = tmp_path / f"disguised{trial}.coord"
            from refnet.matrix_io import dump_coord

            path.write_text(dump_coord(disguised))
            assert main(["exact", str(path), "--out", "json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["n"] == graph.n
            assert payload["k"] == brute_force_mbd(graph)[0]
            # without scaling, no row is a (0,±1)-row unless its factor was ±1
            assert main(["exact", str(path), "--no-scaling", "--out", "json"]) == 0
            raw = json.loads(capsys.readouterr().out)
            expected_rows = sum(
                1
                for r in range(base.n_rows)
                if all(
                    abs(v * row_f[r] * col_f[c]) == 1
                    for rr, c, v in base.entries
                    if rr == r
                )
            )
            assert raw["n"] == expected_rows


class TestScale:
    def test_identity_on_unit_matrix(self, tmp_path, capsys):
        path = tmp_path / "unit.coord"
        text = network_coord()
        path.write_text(text)
        assert main(["scale", str(path)]) == 0
        assert capsys.readouterr().out == text

    def test_worked_example(self, tmp_path, capsys):
        m = SparseMatrix.from_entries(
            2, 3, [(0, 0, 2), (0, 1, -2), (1, 0, 3), (1, 2, 1)]
        )
        path = tmp_path / "w.coord"
        path.write_text(dump_coord(m))
        assert main(["scale", str(path)]) == 0
        out = parse_coord(capsys.readouterr().out)
        assert [str(v) for _, _, v in out.entries] == ["1", "-1", "1", "1"]

    def test_out_file(self, tmp_path):
        path = tmp_path / "unit.coord"
        path.write_text(network_coord())
        target = tmp_path / "scaled.coord"
        assert main(["scale", str(path), "--out", str(target)]) == 0
        assert parse_coord(target.read_text()) == parse_coord(network_coord())


def make_bench_dir(tmp_path):
    directory = tmp_path / "instances"
    directory.mkdir()
    (directory / "balanced.coord").write_text(network_coord())
    (directory / "fig.coord").write_text(dump_coord(matrix_realizing(fig_graph())))
    rng = random.Random(71)
    g = random_signed_graph(rng, n_max=10, n_min=6)
    (directory / "random.coord").write_text(dump_coord(matrix_realizing(g)))
    return directory


def read_bench_csv(text):
    rows = list(csv.reader(text.splitlines()))
    header, body = rows[0], rows[1:]
    data = [r for r in body if r and r[0] not in ("Average", "Avg. diff.", "# exact sol.")]
    footer = {r[0]: r for r in body if r and r[0] in ("Average", "Avg. diff.", "# exact sol.")}
    return header, data, footer


class TestBench:
    def test_report_shape_and_invariants(self, tmp_path, capsys):
        directory = make_bench_dir(tmp_path)
        assert main(["bench", str(directory), "--timeout", "60", "--seed", "1"]) == 0
        header, data, footer = read_bench_csv(capsys.readouterr().out)
        assert header[:2] == ["instance", "k"]
        assert header[2:11] == [
            "SGA_RS", "SGA_BFS", "SGA_DFS",
            "SGA3_RS", "SGA3_BFS", "SGA3_DFS",
            "SGA80_RS", "SGA80_BFS", "SGA80_DFS",
        ]
        assert header[11:13] == ["t", "t1"]
        assert [r[0] for r in data] == sorted(r[0] for r in data)
        col = {name: i for i, name in enumerate(header)}
        for row in data:
            ks = {name: int(row[col[name]]) for name in header[2:11]}
            for strat in ("RS", "BFS", "DFS"):
                assert ks[f"SGA_{strat}"] >= ks[f"SGA3_{strat}"] >= ks[f"SGA80_{strat}"]
            if row[col["k"]] not in ("---", ""):
                k_exact = int(row[col["k"]])
                assert k_exact <= min(ks.values())
                assert 0 <= k_exact <= int(row[col["n"]])
        assert set(footer) == {"Average", "Avg. diff.", "# exact sol."}
        # the exact column's average gap against itself is zero
        assert float(footer["Avg. diff."][1]) == 0.0
        # per-column optimum hits recomputed from the rows themselves
        solved = [r for r in data if r[col["k"]] not in ("---", "")]
        for name in header[2:11]:
            hits = sum(
                1 for r in solved if int(r[col[name]]) == int(r[col["k"]])
            )
            assert int(footer["# exact sol."][col[name]]) == hits

    def test_row_order_ignores_listing_order(self, tmp_path, capsys, monkeypatch):
        directory = make_bench_dir(tmp_path)
        # Two files share a stem; their full names must order their rows.
        (directory / "twin.coord").write_text(network_coord())
        (directory / "twin.sif").write_text(write_mps(matrix_realizing(fig_graph())))
        argv = ["bench", str(directory), "--timeout", "60", "--seed", "3"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "done: twin.coord [ok]" in captured.err.splitlines()
        header, listed, _ = read_bench_csv(captured.out)
        listing = Path.iterdir
        monkeypatch.setattr(Path, "iterdir", lambda p: reversed(list(listing(p))))
        assert main(argv) == 0
        _, reversed_rows, _ = read_bench_csv(capsys.readouterr().out)
        timing = {header.index("t"), header.index("t1")}
        strip = lambda rows: [
            [cell for i, cell in enumerate(row) if i not in timing] for row in rows
        ]
        assert strip(listed) == strip(reversed_rows)
        # A shared stem names each row by its file; the others keep their stem.
        n = header.index("n")
        assert [(row[0], row[n]) for row in listed] == [
            ("balanced", "3"), ("fig", "4"), ("random", "8"),
            ("twin.coord", "3"), ("twin.sif", "4"),
        ]

    def test_empty_directory(self, tmp_path, capsys):
        directory = tmp_path / "empty"
        directory.mkdir()
        assert main(["bench", str(directory)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("instance,")

    def test_deterministic_k_columns(self, tmp_path, capsys):
        directory = make_bench_dir(tmp_path)
        outputs = []
        for _ in range(2):
            assert main(["bench", str(directory), "--timeout", "60", "--seed", "7"]) == 0
            outputs.append(capsys.readouterr().out)
        parsed = [read_bench_csv(text) for text in outputs]
        for (h1, d1, f1), (h2, d2, f2) in [(parsed[0], parsed[1])]:
            assert h1 == h2
            timing = {h1.index("t"), h1.index("t1")}
            strip = lambda rows: [
                [cell for i, cell in enumerate(row) if i not in timing] for row in rows
            ]
            assert strip(d1) == strip(d2)
            assert strip([f1["# exact sol."]]) == strip([f2["# exact sol."]])

    def test_out_file(self, tmp_path):
        directory = make_bench_dir(tmp_path)
        report = tmp_path / "report.csv"
        assert main(["bench", str(directory), "--timeout", "60", "--out", str(report)]) == 0
        assert report.read_text().startswith("instance,")

    def test_not_a_directory(self, tmp_path):
        assert main(["bench", str(tmp_path / "nope")]) == 3

    def test_non_utf8_file_is_an_error_row(self, tmp_path, capsys):
        directory = make_bench_dir(tmp_path)
        (directory / "binary.coord").write_bytes(b"\xff\xfe\x00")
        assert main(["bench", str(directory), "--timeout", "60"]) == 0
        _, data, _ = read_bench_csv(capsys.readouterr().out)
        status = {row[0]: row[-1] for row in data}
        assert status["binary"].startswith("error: line 1")
        assert status["fig"] == "ok"

    def test_non_utf8_mps_is_an_error_row(self, tmp_path, capsys):
        directory = make_bench_dir(tmp_path)
        (directory / "names.mps").write_bytes(
            b"NAME T\nROWS\n E  R1\n E  R2\nCOLUMNS\n"
            b"    C\xff  R1  1\n    C\xfe  R2  1\nRHS\nENDATA\n"
        )
        assert main(["bench", str(directory), "--timeout", "60"]) == 0
        _, data, _ = read_bench_csv(capsys.readouterr().out)
        status = {row[0]: row[-1] for row in data}
        assert status["names"].startswith("error: line 6")
        assert "UTF-8" in status["names"]
        assert status["fig"] == "ok"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failing_instance_is_an_error_row(self, tmp_path, capsys, monkeypatch, jobs):
        if jobs != "1" and multiprocessing.get_start_method() != "fork":
            pytest.skip("worker processes only inherit the patch when forked")
        directory = tmp_path / "instances"
        directory.mkdir()
        (directory / "fig.coord").write_text(dump_coord(matrix_realizing(fig_graph())))
        (directory / "net.coord").write_text(network_coord())
        real = refnet.exact.mbd_exact

        def flaky(graph, **kwargs):
            if graph.n == 3:  # the network instance
                raise RuntimeError("solver broke")
            return real(graph, **kwargs)

        # `bench` looks the solver up in refnet.exact when it runs.
        monkeypatch.setattr(refnet.exact, "mbd_exact", flaky)
        assert main(["bench", str(directory), "--timeout", "60", "--jobs", jobs]) == 0
        _, data, _ = read_bench_csv(capsys.readouterr().out)
        status = {row[0]: row[-1] for row in data}
        assert status == {"fig": "ok", "net": "error: RuntimeError: solver broke"}

    def test_parallel_workers_match_sequential(self, tmp_path, capsys):
        directory = make_bench_dir(tmp_path)
        outputs = []
        for jobs in ("1", "2"):
            assert main(
                ["bench", str(directory), "--timeout", "60", "--seed", "2",
                 "--jobs", jobs]
            ) == 0
            captured = capsys.readouterr()
            outputs.append(captured.out)
            # Every --jobs reports each instance once, in CSV row order.
            _, data, _ = read_bench_csv(captured.out)
            done = [line for line in captured.err.splitlines() if line.startswith("done:")]
            assert done == [f"done: {row[0]} [{row[-1]}]" for row in data]
            assert len(done) == 3
        parsed = [read_bench_csv(text) for text in outputs]
        timing = {parsed[0][0].index("t"), parsed[0][0].index("t1")}
        for (h, d, _), (h2, d2, _) in [(parsed[0], parsed[1])]:
            assert h == h2
            for r1, r2 in zip(d, d2):
                assert [c for i, c in enumerate(r1) if i not in timing] == [
                    c for i, c in enumerate(r2) if i not in timing
                ]


class TestNumericFlags:
    """Out-of-range numbers are usage errors: argparse exits with code 2."""

    def reject(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be >=" in capsys.readouterr().err

    def test_repeats_at_least_one(self, fig_coord, capsys):
        self.reject(["extract", str(fig_coord), "--repeats", "0"], capsys)

    def test_vc_budget_non_negative(self, fig_coord, capsys):
        self.reject(["extract", str(fig_coord), "--vc", "--vc-budget", "-1"], capsys)

    def test_max_k_non_negative(self, fig_coord, capsys):
        self.reject(["exact", str(fig_coord), "--max-k", "-1"], capsys)

    def test_timeout_non_negative(self, fig_coord, capsys):
        self.reject(["exact", str(fig_coord), "--timeout", "-1"], capsys)
        self.reject(["exact", str(fig_coord), "--timeout", "nan"], capsys)
        self.reject(["bench", str(fig_coord.parent), "--timeout", "-0.5"], capsys)

    def test_jobs_at_least_one(self, tmp_path, capsys):
        self.reject(["bench", str(tmp_path), "--jobs", "0"], capsys)

    def test_non_numeric_still_rejected(self, fig_coord, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["extract", str(fig_coord), "--repeats", "many"])
        assert exc.value.code == 2


class TestRetiredFlags:
    """The scaling fixpoint flags are gone: argparse rejects them with a usage error."""

    @pytest.mark.parametrize(
        "command, flag",
        [("extract", "--scale-fixpoint"), ("exact", "--scale-fixpoint"),
         ("bench", "--scale-fixpoint"), ("scale", "--fixpoint")],
    )
    def test_rejected(self, fig_coord, capsys, command, flag):
        target = fig_coord.parent if command == "bench" else fig_coord
        with pytest.raises(SystemExit) as exc:
            main([command, str(target), flag])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"unrecognized arguments: {flag}" in err


# Only `bench` uses the process pool and statistics.  Only `exact` and
# `bench` use the exact solver (and its flow code), csv output (--out csv
# aside) and tracebacks; no refnet module uses dataclasses, whose import pulls
# in inspect.
BENCH_ONLY = ("multiprocessing", "concurrent.futures.process", "statistics")
EXACT_ONLY = ("refnet.exact", "refnet.flow", "dataclasses", "inspect", "csv", "traceback")


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def test_import_leaves_out_bench_only_modules():
    # Importing the CLI loads none of them.
    script = (
        "import json, sys, refnet.cli; print(json.dumps(sorted(m for m in"
        f" {BENCH_ONLY + EXACT_ONLY!r} if m in sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=_src_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_extract_run_leaves_out_exact_only_modules(tmp_path):
    # The whole README command, run as a module: -X importtime lists on
    # stderr every module the process imports.
    rng = random.Random(14)
    graph = random_signed_graph(rng, n_min=12, n_max=12, p_parallel=0.05)
    path = tmp_path / "inst.mps"
    path.write_text(write_mps(matrix_realizing(graph)))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "refnet.cli", "extract", str(path),
         "--forest", "dfs", "--repeats", "80", "--seed", "1", "--out", "json"],
        env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["repeats"] == 80
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "refnet.sga" in imported
    assert sorted(imported.intersection(BENCH_ONLY + EXACT_ONLY)) == []
