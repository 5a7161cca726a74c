from __future__ import annotations

import csv
import json
import multiprocessing
import random

import pytest

import refnet.cli
from helpers import matrix_realizing, random_signed_graph, write_mps
from refnet.cli import main
from refnet.exact import brute_force_mbd
from refnet.matrix_io import SparseMatrix, dump_coord, parse_coord
from refnet.signed_graph import SignedGraph


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
        assert payload["k"] == 0
        assert payload["retained_count"] == 3

    def test_fig_dfs(self, fig_coord, capsys):
        assert main(["extract", str(fig_coord), "--forest", "dfs", "--out", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 1
        assert payload["retained_rows"] == ["1", "2", "3"]
        assert payload["reflected_rows"] == ["2"]

    def test_repeats_and_table_output(self, fig_coord, capsys):
        assert main(
            ["extract", str(fig_coord), "--forest", "rs", "--repeats", "80",
             "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "k" in out and "1" in out

    def test_vc_variant(self, fig_coord, capsys):
        assert main(["extract", str(fig_coord), "--vc", "--out", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cover"] == "exact"
        assert payload["k"] == 1

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
        assert rows[0][:3] == ["instance", "n", "k"]
        assert rows[1][2] == "1"


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
        assert payload["lower_bound"] == 0

    def test_timeout_lower_bound_in_table_and_csv(self, fig_coord, capsys):
        assert main(["exact", str(fig_coord), "--timeout", "0"]) == 0
        assert "lower_bound  0" in capsys.readouterr().out
        assert main(["exact", str(fig_coord), "--timeout", "0", "--out", "csv"]) == 0
        header, row = csv.reader(capsys.readouterr().out.splitlines())
        assert row[header.index("lower_bound")] == "0"

    def test_max_k_exhausted(self, fig_coord, capsys):
        assert main(["exact", str(fig_coord), "--max-k", "0", "--out", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "max-k-exhausted"
        assert payload["lower_bound"] == 1

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failing_instance_is_an_error_row(self, tmp_path, capsys, monkeypatch, jobs):
        if jobs != "1" and multiprocessing.get_start_method() != "fork":
            pytest.skip("worker processes only inherit the patch when forked")
        directory = tmp_path / "instances"
        directory.mkdir()
        (directory / "fig.coord").write_text(dump_coord(matrix_realizing(fig_graph())))
        (directory / "net.coord").write_text(network_coord())
        real = refnet.cli.mbd_exact

        def flaky(graph, **kwargs):
            if graph.n == 3:  # the network instance
                raise RuntimeError("solver broke")
            return real(graph, **kwargs)

        monkeypatch.setattr(refnet.cli, "mbd_exact", flaky)
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
            outputs.append(capsys.readouterr().out)
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
