from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import C_TABLE_K3, D_TABLE_K3, T_TABLE_K3
from kchord import fuss_catalan, total_diagrams
from kchord.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStats:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--word", "0,1,0,1")
        assert code == 0
        assert "crossing_pairs=1" in out and "k=2" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--word", "0,0,1,1,1,0", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["k"] == 3 and data["n"] == 2
        assert data["short_chords"] == 1 and data["noncrossing"] == 2

    def test_lattice_path_present_when_noncrossing(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--word", "0,0,1,1", "--format", "json")
        data = json.loads(out)
        assert data["lattice_path"] == "UDUD"

    def test_invalid_word(self, capsys):
        code, _, err = run_cli(capsys, "stats", "--word", "0,1,1")
        assert code == 2
        assert "error" in err


class TestTable:
    @pytest.mark.parametrize("route", ["closed", "kp1", "kp2", "series"])
    def test_short_routes_agree_with_frozen(self, capsys, route):
        code, out, _ = run_cli(
            capsys, "table", "--k", "3", "--stat", "short",
            "--n-max", "4", "--route", route,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,value,count"
        got = {}
        for line in lines[1:]:
            n, s, c = line.split(",")
            got[(int(n), int(s))] = int(c)
        for n, row in D_TABLE_K3.items():
            if n > 4:
                continue
            for s, c in enumerate(row):
                if c:
                    assert got[(n, s)] == c

    def test_default_route(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--k", "2", "--stat", "short", "--n-max", "3")
        assert code == 0 and out.startswith("n,value,count\n")

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--k", "3", "--stat", "components",
            "--n-max", "3", "--format", "json",
        )
        data = json.loads(out)
        assert data["k"] == 3 and data["kind"] == "components"
        assert data["rows"][2] == [str(c) for c in C_TABLE_K3[2]]

    def test_bfile_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--k", "3", "--stat", "nc-short",
            "--n-max", "3", "--format", "bfile",
        )
        values = [int(line.split()[1]) for line in out.strip().split("\n")]
        assert values == [1, 2, 1, 4, 7, 1]
        indexes = [int(line.split()[0]) for line in out.strip().split("\n")]
        assert indexes == list(range(1, 7))

    def test_route_stat_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "--k", "3", "--stat", "components",
            "--n-max", "3", "--route", "kp1",
        )
        assert code == 2 and "not applicable" in err

    def test_oracle_route_budget(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "--k", "3", "--stat", "short",
            "--n-max", "6", "--route", "oracle", "--budget", "1000",
        )
        assert code == 3 and "budget" in err

    @pytest.mark.parametrize("k,m_max,fmt", [(3, 8, "json"), (2, 10, "csv"), (4, 6, "bfile")])
    def test_nc_oracle_matches_recurrence(self, capsys, k, m_max, fmt):
        argv = ["table", "--k", str(k), "--stat", "nc-short", "--n-max", str(m_max), "--format", fmt]
        code, oracle, _ = run_cli(capsys, *argv, "--route", "oracle")
        assert code == 0
        assert oracle == run_cli(capsys, *argv, "--route", "recurrence")[1]

    def test_nc_oracle_budget(self, capsys):
        code, out, err = run_cli(
            capsys, "table", "--k", "3", "--stat", "nc-short",
            "--n-max", "6", "--route", "oracle", "--budget", str(fuss_catalan(3, 6) - 1),
        )
        assert code == 3 and out == "" and "budget" in err

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("KCHORD_ORACLE_BUDGET", "100")
        code, _, err = run_cli(
            capsys, "table", "--k", "2", "--stat", "short",
            "--n-max", "5", "--route", "oracle",
        )
        assert code == 3

    def test_output_file_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            code, _, _ = run_cli(
                capsys, "table", "--k", "3", "--stat", "short",
                "--n-max", "5", "--out", str(target),
            )
            assert code == 0
        blob = a.read_bytes()
        assert blob == b.read_bytes()
        assert b"\r" not in blob
        assert blob.endswith(b"\n")

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit"
    )
    def test_entries_past_the_int_str_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(
            capsys, "table", "--k", "100", "--stat", "short", "--n-max", "60", "--route", "closed"
        )
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        sums = [0] * 61
        sys.set_int_max_str_digits(0)
        try:
            for line in out.splitlines()[1:]:
                n, _s, count = line.split(",")
                sums[int(n)] += int(count)
            assert sums == [total_diagrams(100, n) for n in range(61)]
        finally:
            sys.set_int_max_str_digits(limit)


class TestVerify:
    def test_passes_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--k", "3", "--n-max", "3")
        assert code == 0
        assert out.strip().endswith("all agree")
        assert "oracle agreement" in out

    def test_k2_extra_checks(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--k", "2", "--n-max", "5")
        assert code == 0
        assert "Narayana" in out
        assert "closed form" in out

    def test_detects_mismatch(self, capsys, monkeypatch):
        from kchord import tables

        real = tables.d_table_kp1

        def tampered(k, n_max):
            table = real(k, n_max)
            rows = [list(r) for r in table.rows]
            rows[-1][0] += 1
            return tables.CountTable(k, table.kind, tuple(tuple(r) for r in rows))

        monkeypatch.setattr(tables, "d_table_kp1", tampered)
        code, out, _ = run_cli(capsys, "verify", "--k", "3", "--n-max", "3")
        assert code == 1
        assert "MISMATCH" in out


class TestSeries:
    def test_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--k", "3", "--gf", "T", "--order", "4")
        data = json.loads(out)
        assert data["order"] == [4, 4]
        assert data["var_names"] == ["x", "y"]
        assert len(data["coeffs"]) == 25
        # row-major: coefficient of x^2 y^1 sits at 2*5 + 1
        assert data["coeffs"][2 * 5 + 1] == str(T_TABLE_K3[2][0])

    def test_F_series_coefficients(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--k", "3", "--gf", "F", "--order", "3")
        data = json.loads(out)
        width = data["order"][1] + 1
        for n, row in D_TABLE_K3.items():
            if n > 3:
                continue
            for s, c in enumerate(row):
                assert data["coeffs"][n * width + s] == str(c)


class TestOeis:
    def test_triangle_prefix(self, capsys):
        code, out, _ = run_cli(capsys, "oeis", "--seq", "A334056", "--terms", "9")
        assert code == 0
        values = [int(line.split()[1]) for line in out.strip().split("\n")]
        assert values == [0, 1, 7, 2, 1, 219, 53, 7, 1]

    def test_fuss_slice_requires_k(self, capsys):
        code, _, err = run_cli(capsys, "oeis", "--seq", "A062993")
        assert code == 2

    def test_fuss_slice(self, capsys):
        code, out, _ = run_cli(capsys, "oeis", "--seq", "A062993", "--k", "3", "--terms", "6")
        values = [int(line.split()[1]) for line in out.strip().split("\n")]
        assert values == [1, 1, 3, 12, 55, 273]
        assert out.startswith("0 1\n")

    def test_rejects_negative_terms(self, capsys):
        code, out, err = run_cli(capsys, "oeis", "--seq", "A334056", "--terms", "-1")
        assert code == 2 and out == ""
        assert "--terms" in err

    def test_zero_terms(self, capsys):
        code, out, _ = run_cli(capsys, "oeis", "--seq", "A334056", "--terms", "0")
        assert code == 0 and out == ""

    def test_unknown_sequence(self, capsys):
        code, _, err = run_cli(capsys, "oeis", "--seq", "A000001")
        assert code == 2 and "unknown sequence" in err


class TestMemory:
    def test_mean(self, capsys):
        code, out, _ = run_cli(
            capsys, "memory", "--board", "grid:2x2", "--k", "2", "--mean", "--format", "json"
        )
        data = json.loads(out)
        assert data["mean_polyominoes"] == "4/3"
        assert data["connected_k_subgraphs"] == 4

    def test_exhaustive_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "memory", "--board", "grid:2x2", "--k", "2",
            "--exhaustive", "--format", "csv",
        )
        assert out == "polyominoes,components,count\n0,0,1\n2,1,2\n"

    def test_sample_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "memory", "--board", "grid:2x2", "--k", "2",
            "--sample", "2000", "--seed", "5",
        )
        data = json.loads(out)
        assert data["samples"] == 2000 and data["seed"] == 5
        assert sum(data["histogram"].values()) == 2000
        assert "philox" in data["rng_algorithm"]

    def test_board_file(self, capsys, tmp_path):
        spec = tmp_path / "board.json"
        spec.write_text(json.dumps({"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]]}))
        code, out, _ = run_cli(
            capsys, "memory", "--board", str(spec), "--k", "2", "--mean", "--format", "json"
        )
        data = json.loads(out)
        assert data["connected_k_subgraphs"] == 3

    def test_sample_board_too_large(self, capsys):
        code, out, err = run_cli(
            capsys, "memory", "--board", "path:128", "--k", "64", "--sample", "10"
        )
        assert code == 2 and out == ""
        assert "2^63" in err

    @pytest.mark.parametrize("mode", ["--mean", "--exhaustive", ""])
    def test_rejects_k_below_one(self, capsys, mode):
        argv = ["memory", "--board", "path:5", "--k", "0"] + mode.split()
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "--k" in err and "at least 1" in err

    def test_exhaustive_budget(self, capsys):
        code, _, err = run_cli(
            capsys, "memory", "--board", "grid:4x4", "--k", "2",
            "--exhaustive", "--budget", "100",
        )
        assert code == 3


class TestAsympt:
    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "asympt", "--k", "2", "--kind", "short", "--n", "10,20", "--format", "csv"
        )
        lines = out.strip().split("\n")
        assert lines[0] == "n,exact,limit,abs_error"
        assert lines[1].startswith("10,")

    def test_json_nc(self, capsys):
        code, out, _ = run_cli(capsys, "asympt", "--k", "3", "--kind", "nc-short", "--n", "10")
        data = json.loads(out)
        assert data["kind"] == "noncrossing_short_mean"
        assert data["monotone"] in (True, False)

    @pytest.mark.parametrize(
        "fixture, argv",
        [
            ("k2_short.json", "--k 2 --kind short --n 250,500,1000 --format json"),
            ("k3_short.csv", "--k 3 --kind short --n 50,100,200 --format csv"),
            ("k2_components.json", "--k 2 --kind components --n 25,50,100 --format json"),
            ("k3_nc_short.json", "--k 3 --kind nc-short --n 50,100 --format json"),
        ],
    )
    def test_golden_output(self, capsys, fixture, argv):
        # frozen from the earlier full-table and Fraction-interval reports
        code, out, _ = run_cli(capsys, "asympt", *argv.split())
        assert code == 0
        assert out == (FIXTURES / "asympt" / fixture).read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "argv",
        ["--k 1 --n 3", "--k 1 --kind nc-short --n 3", "--k 3 --kind nc-short --n 0"],
    )
    def test_rejects_bad_sizes(self, capsys, argv):
        code, out, err = run_cli(capsys, "asympt", *argv.split())
        assert code == 2
        assert out == ""
        assert err == "error: need k >= 2 and every n >= 1\n"


class TestArgumentErrors:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required(self, capsys):
        assert main(["table", "--k", "2"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            "table --k 1 --stat short --n-max 3",
            "table --k 0 --stat nc-short --n-max 3",
            "table --k 2 --stat short --n-max -2",
            "series --k 1 --gf T --order 3",
        ],
    )
    def test_rejects_invalid_sizes(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_rejects_negative_budget(self, capsys):
        argv = "table --k 2 --stat short --n-max 3 --route oracle --budget -5".split()
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "nonnegative" in err

    def test_rejects_negative_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("KCHORD_ORACLE_BUDGET", "-5")
        code, out, _ = run_cli(capsys, "memory", "--board", "path:4", "--k", "2", "--exhaustive")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("command", ["table --stat short --route oracle", "verify"])
    def test_rejects_jobs_below_one(self, capsys, command):
        code, out, err = run_cli(capsys, *command.split(), "--k", "2", "--n-max", "3", "--jobs", "0")
        assert code == 2 and out == ""
        assert "--jobs" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kchord", "stats", "--word", "0,0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "short_chords=1" in proc.stdout
