from __future__ import annotations

import contextlib
import decimal
import functools
import hashlib
import io
import json
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import C_TABLE_K3, D_TABLE_K3, T_TABLE_K3
from kchord import BivariateSeries, cli, counting, diagrams, fuss_catalan, series, tables, total_diagrams
from kchord.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
FROZEN_K3 = {"short": D_TABLE_K3, "components": C_TABLE_K3, "nc-short": T_TABLE_K3}


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
    @pytest.mark.parametrize(
        "stat, route",
        [
            pytest.param(stat, route, id=route if stat == "short" else f"{stat}-{route}")
            for stat, routes in cli.ROUTES.items()
            for route in routes
        ],
    )
    def test_short_routes_agree_with_frozen(self, capsys, stat, route):
        code, out, _ = run_cli(
            capsys, "table", "--k", "3", "--stat", stat,
            "--n-max", "4", "--route", route,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,value,count"
        got = {}
        for line in lines[1:]:
            n, s, c = line.split(",")
            got[(int(n), int(s))] = int(c)
        first = 1 if stat == "nc-short" else 0  # frozen T rows start at s = 1
        want = {(0, 0): 1}
        for n in range(1, 5):
            for s, c in enumerate(FROZEN_K3[stat][n], first):
                if c:
                    want[(n, s)] = c
        assert got == want

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

    @pytest.mark.parametrize(
        "rows, k, stat",
        [
            ([], 2, "short"),
            ([()], 3, "components"),
            ([(1,)], 2, "nc-short"),
            ([(), (0, 1), ()], 4, "short"),
            ([C_TABLE_K3[n] for n in sorted(C_TABLE_K3)], 3, "components"),
            (list(tables.kp2_rows(5, 40)), 5, "short"),
            (list(tables.noncrossing_rows(3, 12)), 3, "nc-short"),
        ],
    )
    def test_json_text_matches_json_dumps(self, rows, k, stat):
        payload = {"k": k, "kind": stat, "rows": [[str(c) for c in row] for row in rows]}
        writes: list[str] = []
        cli.rows_to_json(iter(rows), k, stat, writes.append)  # rows as a streamed route yields them
        assert "".join(writes) == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("route, k, n_max, fmt", [("kp1", 3, 120, "csv"), ("kp2", 5, 40, "json")])
    def test_emitters_hold_one_row_of_text(self, route, k, n_max, fmt):
        """Writing a built table allocates, at its peak, less than a quarter
        of the text's length: the text is written a row at a time."""
        rows = list(cli.build_rows("short", k, n_max, route))
        if fmt == "csv":
            emit = functools.partial(cli.rows_to_csv, rows)
        else:
            emit = functools.partial(cli.rows_to_json, rows, k, "short")
        writes: list[str] = []
        emit(writes.append)
        length = sum(map(len, writes))
        del writes
        tracemalloc.start()
        try:
            emit(lambda text: None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < length / 4, (peak, length)

    @pytest.mark.parametrize("route, k, n_max", [("kp1", 3, 200), ("kp2", 5, 150)])
    def test_streamed_routes_hold_one_row(self, route, k, n_max):
        """Reading a streamed route row by row allocates, at its peak, less
        than a quarter of the size of the whole table's entries."""
        entries = sum(sys.getsizeof(c) for row in cli.build_rows("short", k, n_max, route) for c in row)
        tracemalloc.start()
        try:
            for _ in cli.build_rows("short", k, n_max, route):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < entries / 4, (peak, entries)

    @pytest.mark.parametrize("existing", [True, False], ids=["existing-out", "new-out"])
    def test_check_failing_partway(self, capsys, monkeypatch, tmp_path, existing):
        """A kernel check that fails at row 5 exits 4 with one line.  Stdout
        keeps the rows written before it; an --out file is left as it was."""
        argv = ["table", "--k", "3", "--stat", "short", "--n-max", "8", "--route", "kp1"]
        _, whole, _ = run_cli(capsys, *argv)
        real = tables.kp1_rows

        def failing(k, n_max, **kw):
            for n, row in enumerate(real(k, n_max, **kw)):
                if n == 5:
                    raise counting.SelfCheckError("ratio recurrence not integral at n=5, s=1")
                yield row

        monkeypatch.setattr(tables, "kp1_rows", failing)
        message = "error: internal check failed: ratio recurrence not integral at n=5, s=1\n"
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (4, message)
        assert out == whole[: whole.index("\n5,") + 1]  # the header and rows 0..4
        target = tmp_path / "table.csv"
        if existing:
            target.write_bytes(b"an older table\n")
        assert run_cli(capsys, *argv, "--out", str(target)) == (4, "", message)
        assert list(tmp_path.iterdir()) == ([target] if existing else [])
        if existing:
            assert target.read_bytes() == b"an older table\n"

    def test_decimal_fault_exits_4(self, capsys, monkeypatch):
        """A trapped decimal signal is a program fault, not bad input: with
        a 5-digit context the kp1 and kp2 rows trap a rounding and exit 4,
        naming the route, the row and the signals."""
        monkeypatch.setattr(tables, "EXACT", decimal.Context(prec=5, traps=[decimal.Inexact, decimal.Rounded]))
        for route, line in [
            ("kp1", "kp1 row n=5 would round: Rounded"),
            ("kp2", "kp2 row n=5 would round: Inexact, Rounded"),
        ]:
            argv = ["table", "--k", "3", "--stat", "short", "--n-max", "12", "--route", route]
            assert run_cli(capsys, *argv)[::2] == (4, f"error: internal check failed: {line}\n")

    def test_kp2_row_sum_check_exits_4(self, capsys, monkeypatch):
        """A fault in the kp2 weights breaks its row sums: exit 4, not a
        wrong table."""
        real = tables._fills
        monkeypatch.setattr(tables, "_fills", lambda *a: [f + 1 for f in real(*a)])
        code, out, err = run_cli(capsys, "table", "--k", "3", "--stat", "short", "--n-max", "8", "--route", "kp2")
        assert code == 4
        assert err == "error: internal check failed: append recurrence row sum is not N(k, n) at k=3, n=2\n"
        assert out == "n,value,count\n0,0,1\n1,1,1\n"  # rows 0 and 1 hold no fills

    def test_bfile_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--k", "3", "--stat", "nc-short",
            "--n-max", "3", "--format", "bfile",
        )
        values = [int(line.split()[1]) for line in out.strip().split("\n")]
        assert values == [1, 2, 1, 4, 7, 1]
        indexes = [int(line.split()[0]) for line in out.strip().split("\n")]
        assert indexes == list(range(1, 7))

    def test_bfile_offset(self, capsys):
        argv = ["table", "--k", "3", "--stat", "nc-short", "--n-max", "3", "--format", "bfile"]
        _, default, _ = run_cli(capsys, *argv)
        _, one, _ = run_cli(capsys, *argv, "--offset", "1")
        code, zero, _ = run_cli(capsys, *argv, "--offset", "0")
        assert one == default and code == 0
        assert [line.split()[0] for line in zero.splitlines()] == [str(i) for i in range(6)]

    def test_route_stat_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "--k", "3", "--stat", "components",
            "--n-max", "3", "--route", "kp1",
        )
        assert code == 2 and "not applicable" in err

    def test_route_alias_refused(self, capsys):
        # closed_form is not a route name; it gets the one-line refusal.
        assert run_cli(capsys, "table", "--k", "3", "--stat", "short", "--n-max", "3", "--route", "closed_form") == (
            2, "", "error: route 'closed_form' not applicable to stat 'short'; choose from closed, kp1, kp2, series, oracle\n"
        )

    @pytest.mark.parametrize("stat, route", [(s, r) for s, rs in cli.ROUTES.items() for r in rs if r != "oracle"])
    def test_routes_are_generators(self, stat, route):
        assert isinstance(cli.ROUTES[stat][route](3, 4, None), types.GeneratorType)

    @pytest.mark.parametrize(
        "stat, walk",
        [("short", "short_survey"), ("components", "component_survey"), ("nc-short", "noncrossing_survey")],
    )
    def test_oracle_walks_a_row_when_asked(self, monkeypatch, stat, walk):
        real = getattr(diagrams, walk)
        walked = []

        def recorded(k, n, **kwargs):
            walked.append(n)
            return real(k, n, **kwargs)

        monkeypatch.setattr(diagrams, walk, recorded)
        rows = cli.ROUTES[stat]["oracle"](3, 5, None)
        assert walked == []
        assert next(rows) == (1,) and walked == [0]

    def test_oracle_route_budget(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "--k", "3", "--stat", "short",
            "--n-max", "6", "--route", "oracle", "--budget", "1000",
        )
        assert code == 3 and "budget" in err

    @pytest.mark.parametrize("stat", ["short", "components"])
    def test_oracle_walks_only_its_statistic(self, capsys, monkeypatch, stat):
        def joint(*args, **kwargs):
            raise AssertionError("the joint survey was walked")

        monkeypatch.setattr(diagrams, "survey", joint)
        argv = ["table", "--k", "3", "--stat", stat, "--n-max"]
        code, out, _ = run_cli(capsys, *argv, "4", "--route", "oracle")
        assert code == 0 and out == run_cli(capsys, *argv, "4", "--route", "closed")[1]
        budget = str(total_diagrams(3, 6) - 1)  # rows 0..5 are within it
        assert run_cli(capsys, *argv, "6", "--route", "oracle", "--budget", budget) == (
            3, "", f"error: enumeration size {total_diagrams(3, 6)} exceeds budget {budget}\n"
        )

    @pytest.mark.parametrize("stat", ["short", "components", "nc-short"])
    def test_oracle_refuses_before_any_walk(self, capsys, monkeypatch, stat):
        """The refusal names the smallest row over the budget: N(2, 11), or
        FC(3, 12) for nc-short under the default budget."""
        def walk(*args, **kwargs):
            raise AssertionError("a row was walked")

        for name in ("short_survey", "component_survey", "noncrossing_survey"):
            monkeypatch.setattr(diagrams, name, walk)
        if stat == "nc-short":
            argv, line = "--k 3 --n-max 13", "enumeration size 50067108 exceeds budget 10000000"
        else:
            argv, line = "--k 2 --n-max 11 --budget 1000000000", "enumeration size 13749310575 exceeds budget 1000000000"
        assert run_cli(capsys, "table", "--stat", stat, "--route", "oracle", *argv.split()) == (3, "", f"error: {line}\n")

    @pytest.mark.parametrize("k,m_max,fmt", [(3, 8, "json"), (2, 10, "csv"), (4, 6, "bfile")])
    def test_nc_oracle_matches_recurrence(self, capsys, k, m_max, fmt):
        argv = ["table", "--k", str(k), "--stat", "nc-short", "--n-max", str(m_max), "--format", fmt]
        code, oracle, _ = run_cli(capsys, *argv, "--route", "oracle")
        assert code == 0
        assert oracle == run_cli(capsys, *argv, "--route", "recurrence")[1]

    def test_nc_oracle_output_independent_of_jobs(self, capsys):
        # --jobs is checked and ignored: every oracle, and verify, print
        # the same with any valid --jobs as without it.
        for line in [
            "table --k 3 --stat nc-short --n-max 6 --route oracle",
            "table --k 3 --stat short --n-max 4 --route oracle",
            "table --k 2 --stat components --n-max 6 --route oracle",
            "verify --k 3 --n-max 4",
        ]:
            argv = line.split()
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0 and out, line
            for jobs in ("1", "2"):
                assert run_cli(capsys, *argv, "--jobs", jobs) == (0, out, ""), (line, jobs)

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

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param("table --k 3 --stat short --n-max 5", id="csv"),
            pytest.param("table --k 4 --stat components --n-max 6 --format json", id="json"),
            pytest.param("table --k 3 --stat nc-short --n-max 6 --format bfile --offset 0", id="bfile"),
            pytest.param("oeis --seq A334057 --terms 40", id="oeis"),
            pytest.param("oeis --seq A062993 --k 3 --terms 12", id="oeis-fuss"),
        ],
    )
    def test_output_file_deterministic(self, capsys, tmp_path, argv):
        code, stdout, _ = run_cli(capsys, *argv.split())
        assert code == 0
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for target in (a, b):
            code, out, _ = run_cli(capsys, *argv.split(), "--out", str(target))
            assert code == 0 and out == ""
        blob = a.read_bytes()
        assert blob == b.read_bytes() == stdout.encode()
        assert b"\r" not in blob
        assert blob.endswith(b"\n")

    @pytest.mark.parametrize(
        "argv, expect",
        [
            pytest.param("--k 3 --stat short --n-max 6 --route oracle --budget 1000", 3, id="budget"),
            pytest.param("--k 3 --stat components --n-max 3 --route kp1", 2, id="bad-route"),
        ],
    )
    def test_failed_table_creates_no_out_file(self, capsys, tmp_path, argv, expect):
        target = tmp_path / "table.csv"
        code, out, err = run_cli(capsys, "table", *argv.split(), "--out", str(target))
        assert code == expect and out == "" and err.startswith("error: ")
        assert not target.exists()

    def test_out_errors_name_the_path(self, capsys, tmp_path):
        """--out into a missing directory, or onto a directory (written in
        place, as a device would be), fails with the plain open's line."""
        argv = ["table", "--k", "2", "--stat", "short", "--n-max", "3", "--out"]
        missing = tmp_path / "missing" / "table.csv"
        code, out, err = run_cli(capsys, *argv, str(missing))
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
        code, out, err = run_cli(capsys, *argv, str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize(
        "fixture, argv",
        [
            ("k3_n4.txt", "--k 3 --n-max 4"),
            ("k2_n6.txt", "--k 2 --n-max 6"),
            ("k3_n2_m5.txt", "--k 3 --n-max 2 --m-max 5"),
            ("k2_n3_budget0.txt", "--k 2 --n-max 3 --budget 0"),
        ],
    )
    def test_golden_output(self, capsys, fixture, argv):
        code, out, _ = run_cli(capsys, "verify", *argv.split())
        assert code == 0
        assert out == (FIXTURES / "verify" / fixture).read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "module, builder, k, line",
        [
            pytest.param(module, builder, k, line, id=f"{builder}-k{k}")
            for module, builder, k, line in [
                (tables, "kp1_rows", 3, "MISMATCH k=3 n=3 s=0 closed=219 kp1=220"),
                (tables, "kp2_rows", 3, "MISMATCH k=3 n=3 s=0 closed=219 kp2=220"),
                (tables, "noncrossing_rows", 3, "MISMATCH k=3 n=3 s=0 recurrence=1 series=0"),
                (tables, "noncrossing_row", 3, "MISMATCH k=3 n=3 s=3 recurrence=1 noncrossing_row=2"),
                (counting, "component_row", 3, "MISMATCH k=3 n=3 q=3 closed=0 component_row=1"),
                (series, "F_series", 3, "MISMATCH k=3 n=3 s=1 closed=53 series=54"),
                (series, "C_series", 3, "MISMATCH k=3 n=3 q=1 closed=56 series=57"),
                (series, "T_series", 3, "MISMATCH k=3 n=3 s=1 recurrence=4 series=5"),
                (series, "triple_table", 3, "MISMATCH k=3 n=0 s=0 m=0 oracle=1 series=2"),
                (series, "triple_table", 2, "MISMATCH k=2 n=0 s=0 m=0 closed=1 series=2"),
                (diagrams, "survey", 3, "MISMATCH k=3 n=0 oracle short-chord row [2] vs (1,)"),
                (counting, "narayana", 2, "MISMATCH k=2 m=1 s=0 narayana=1 table=0"),
            ]
        ],
    )
    def test_detects_mismatch(self, capsys, monkeypatch, module, builder, k, line):
        # Each result of the builder gets one count raised by 1; verify
        # stops at the first check that breaks and prints its MISMATCH line.
        real = getattr(module, builder)
        monkeypatch.setattr(module, builder, lambda *a, **kw: _raise_one_count(real(*a, **kw)))
        code, out, _ = run_cli(capsys, "verify", "--k", str(k), "--n-max", "3")
        assert code == 1
        assert out.splitlines()[-1] == line

    @pytest.mark.parametrize(
        "moved, line",
        [
            ((1, 0, 1), "MISMATCH k=3 n=1 oracle component row [1, 0] vs (0, 1)"),
            ((1, 1, 0), "MISMATCH k=3 n=1 oracle non-crossing row [0, 0] vs (0, 1)"),
        ],
        ids=["components", "noncrossing"],
    )
    def test_detects_oracle_row_mismatch(self, capsys, monkeypatch, moved, line):
        # The one diagram of n = 1, (s, q, m) = (1, 1, 1), is reported with
        # no component or with no non-crossing block.
        real = diagrams.survey
        monkeypatch.setattr(
            diagrams, "survey", lambda k, n, **kw: {moved: 1} if n == 1 else real(k, n, **kw)
        )
        code, out, _ = run_cli(capsys, "verify", "--k", "3", "--n-max", "3")
        assert code == 1
        assert out.splitlines()[-1] == line

    def test_surveys_each_n_once(self, capsys, monkeypatch):
        real = diagrams.survey
        surveyed = []

        def counted(k, n, **kwargs):
            surveyed.append(n)
            return real(k, n, **kwargs)

        monkeypatch.setattr(diagrams, "survey", counted)
        code, _, _ = run_cli(capsys, "verify", "--k", "3", "--n-max", "3")
        assert code == 0
        assert sorted(surveyed) == [0, 1, 2, 3]


def _raise_one_count(result):
    """A builder's result with one of its counts raised by 1."""
    if isinstance(result, types.GeneratorType):  # a row kernel: column 0 of its last row
        return _raise_last_row(result)
    if isinstance(result, int):
        return result + 1
    if isinstance(result, tuple):  # a single row: its last count
        return (*result[:-1], result[-1] + 1)
    if isinstance(result, BivariateSeries):
        result.coeffs[-1][1] += 1
    elif isinstance(result, dict):
        result[max(result)] += 1
    else:
        result[-1][-1] += 1
    return result


def _raise_last_row(rows):
    row = next(rows)
    for following in rows:
        yield row
        row = following
    yield (row[0] + 1, *row[1:])


class TestSeries:
    def test_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--k", "3", "--gf", "T", "--order", "4")
        data = json.loads(out)
        assert data["order"] == [4, 4]
        assert data["var_names"] == ["x", "y"]
        assert len(data["coeffs"]) == 25
        # row-major: coefficient of x^2 y^1 sits at 2*5 + 1
        assert data["coeffs"][2 * 5 + 1] == str(T_TABLE_K3[2][0])

    @pytest.mark.parametrize("k, gf, order", [(3, "T", 30), (4, "F", 25), (3, "C", 20)])
    def test_golden_output(self, capsys, k, gf, order):
        # frozen from the substitution fixpoint and per-j expansions
        code, out, _ = run_cli(capsys, "series", "--k", str(k), "--gf", gf, "--order", str(order))
        assert code == 0
        fixture = FIXTURES / "series" / f"k{k}_{gf}_{order}.json"
        assert out == fixture.read_text(encoding="utf-8")

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

    @pytest.mark.parametrize("k", ["1", "0", "-2"])
    def test_fuss_slice_rejects_k_below_two(self, capsys, k):
        code, out, err = run_cli(capsys, "oeis", "--seq", "A062993", "--k", k, "--terms", "4")
        assert code == 2 and out == ""
        assert err == f"error: --k must be at least 2 for A062993, got {k}\n"

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

    def test_fixed_k_sequence_checks_k(self, capsys):
        code, out, err = run_cli(capsys, "oeis", "--seq", "A334056", "--k", "9", "--terms", "3")
        assert code == 2 and out == ""
        assert err == "error: A334056 is the k = 3 sequence; --k 9 does not match\n"
        _, plain, _ = run_cli(capsys, "oeis", "--seq", "A334056", "--terms", "3")
        code, out, _ = run_cli(capsys, "oeis", "--seq", "A334056", "--k", "3", "--terms", "3")
        assert code == 0 and out == plain

    @pytest.mark.parametrize(
        "seq", [seq for seq, (stat, _) in cli.OEIS_SEQUENCES.items() if stat != "fuss"]
    )
    def test_every_prefix_of_the_bfile(self, capsys, seq):
        lines = (FIXTURES / f"{seq}.txt").read_text(encoding="utf-8").splitlines(keepends=True)
        for terms in range(len(lines) + 1):
            code, out, _ = run_cli(capsys, "oeis", "--seq", seq, "--terms", str(terms))
            assert code == 0
            assert out == "".join(lines[:terms]), f"{terms} terms"


    @pytest.mark.parametrize(
        "seq", [seq for seq, (stat, _) in cli.OEIS_SEQUENCES.items() if stat != "fuss"]
    )
    def test_reads_one_stream(self, capsys, monkeypatch, seq):
        """One call of the route builder per command, read only as far as
        the row that holds the last value printed."""
        stat, _ = cli.OEIS_SEQUENCES[seq]
        route = cli.DEFAULT_ROUTE[stat]
        real = cli.ROUTES[stat][route]
        calls, read = [], []

        def spy(*args):
            calls.append(args)
            for row in real(*args):
                read.append(row)
                yield row

        monkeypatch.setitem(cli.ROUTES[stat], route, spy)
        lines = (FIXTURES / f"{seq}.txt").read_text(encoding="utf-8").splitlines(keepends=True)
        code, out, _ = run_cli(capsys, "oeis", "--seq", seq, "--terms", str(len(lines)))
        assert code == 0 and out == "".join(lines)
        assert len(calls) == 1
        skip = 1 if stat == "nc-short" else 0
        held = [len(cli._trim(row)) - skip for row in read[1:]]
        assert sum(held[:-1]) < len(lines) <= sum(held)


class TestGoldenDigests:
    # sha256 of stdout at benchmark sizes, recorded before the kp2 weights
    # were listed by bin count and the non-crossing rows were packed.
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                "table --k 5 --stat short --n-max 150 --route kp2 --format json",
                "4bb5231d6f604d86178ab1b5ecd82240568f8fc1262988d2d73438263bd46d01",
            ),
            (
                "table --k 4 --stat nc-short --n-max 60 --route recurrence --format bfile",
                "8edfceb3f3000d7dc1c77ab5e3914c8779656c5b8b0036a5cc22cba2c8045bf6",
            ),
            (
                "oeis --seq A334063 --terms 28",
                "905ef96eb2600ad4f5bfb07cb112c60cd1e52099b3db22821c1c708b6d2f84fd",
            ),
        ],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    @pytest.mark.parametrize(
        "content",
        [
            "[]",
            '{"vertices": "x", "edges": []}',
            '{"vertices": 4}',
            '{"vertices": 4, "edges": 5}',
            '{"vertices": 4, "edges": [[0, 1, 2]]}',
            '{"vertices": 4, "edges": [["0", "1"]]}',
            '{"vertices": 4, "edges": [[0, 9]]}',
            "{not json",
        ],
    )
    def test_rejects_malformed_board_file(self, capsys, tmp_path, content):
        spec = tmp_path / "board.json"
        spec.write_text(content)
        code, out, err = run_cli(capsys, "memory", "--board", str(spec), "--k", "2", "--mean")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "content",
        [
            '{"vertices": 4, "edges": [[0, 1],',
            '{"vertices": 4, "edges": [[0, 1], [1, 0]]}',
            '{"vertices": 4, "edges": [[0, 9]]}',
            '{"vertices": 4, "edges": [[0]]}',
            '{"vertices": 2.5, "edges": []}',
        ],
        ids=["invalid-json", "duplicate-edge", "out-of-range-edge", "one-element-edge", "non-integer-vertices"],
    )
    def test_board_file_error_names_the_file(self, capsys, tmp_path, content):
        spec = tmp_path / "board.json"
        spec.write_text(content)
        code, out, err = run_cli(capsys, "memory", "--board", str(spec), "--k", "2", "--mean")
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error: {spec}: ")

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

    @pytest.mark.parametrize(
        "options, message",
        [
            ("--mean --exhaustive", "argument --exhaustive: not allowed with argument --mean"),
            ("--exhaustive --sample 10", "argument --sample: not allowed with argument --exhaustive"),
            ("--sample 10 --mean", "argument --mean: not allowed with argument --sample"),
            ("--mean --format csv", "--format csv needs --exhaustive"),
            ("--sample 10 --format csv", "--format csv needs --exhaustive"),
            ("--format csv", "--format csv needs --exhaustive"),
            ("--sample 10 --format text", "--sample writes json; --format text does not apply"),
            ("--exhaustive --format text", "--exhaustive writes csv or json; --format text does not apply"),
        ],
    )
    def test_rejects_conflicting_options(self, capsys, options, message):
        code, out, err = run_cli(capsys, "memory", "--board", "grid:2x2", "--k", "2", *options.split())
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "fixture, argv",
        [
            ("grid4x4_k2.json", "--board grid:4x4 --k 2 --sample 20000 --seed 11"),
            ("path18_k6.json", "--board path:18 --k 6 --sample 20000 --seed 12"),
            ("grid5x6_k5.json", "--board grid:5x6 --k 5 --sample 20000 --seed 13"),
        ],
        ids=["base-V-key", "sorted-rank-isin-path18", "sorted-rank-isin"],
    )
    def test_sample_golden_output(self, capsys, fixture, argv):
        # frozen from the sampler before the block-key table; the base-V key
        # on grid:4x4, the isin key on path:18 (which once had a bitmask
        # table) and grid:5x6; two chunks each (the second one partial)
        code, out, _ = run_cli(capsys, "memory", *argv.split())
        assert code == 0
        assert out == (FIXTURES / "memory" / fixture).read_text(encoding="utf-8")

    def test_sample_explicit_json(self, capsys):
        argv = ["memory", "--board", "grid:2x2", "--k", "2", "--sample", "50", "--seed", "3"]
        _, default, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and out == default

    @pytest.mark.parametrize("mode", ["--mean", "--sample 10", "--exhaustive", ""])
    def test_rejects_negative_budget(self, capsys, mode):
        argv = ["memory", "--board", "grid:2x2", "--k", "2", "--budget", "-5"] + mode.split()
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: oracle budget must be nonnegative, got -5\n"

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

    def test_row_past_ten_thousand(self, capsys):
        # the certificate once stopped with exit 4 at its 10,001st Poisson term
        code, out, _ = run_cli(capsys, "asympt", "--k", "2", "--kind", "short", "--n", "10001", "--format", "csv")
        assert code == 0
        assert out.split("\n")[1].startswith("10001,1,1,")

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(argv, message, id=argv)
            for argv, message in (
                ("--k 1 --n 3", "block size must be at least 2, got 1"),
                ("--k 1 --kind nc-short --n 3", "block size must be at least 2, got 1"),
                ("--k 3 --kind nc-short --n 0", "every n must be at least 1, got 0"),
            )
        ],
    )
    def test_rejects_bad_sizes(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "asympt", *argv.split())
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_failed_self_check_exits_4(self, capsys, monkeypatch):
        # The Lagrange row is a transform divided by m; one tampered term
        # leaves it non-integral, a program fault rather than bad input.
        real = tables.inverse_binomial_transform
        monkeypatch.setattr(
            tables, "inverse_binomial_transform", lambda a: [c + (s == 0) for s, c in enumerate(real(a))]
        )
        code, out, err = run_cli(capsys, "asympt", "--k", "3", "--kind", "nc-short", "--n", "5")
        assert code == 4 and out == ""
        assert err == "error: internal check failed: Lagrange form not integral at m=5\n"

    def test_failed_short_row_check_exits_4(self, capsys, monkeypatch):
        # A wrong k! breaks the exact division of the short-chord recurrence.
        real = counting.factorial
        monkeypatch.setattr(counting, "factorial", lambda m: real(m) + 1)
        code, out, err = run_cli(capsys, "asympt", "--k", "2", "--kind", "short", "--n", "5")
        assert code == 4 and out == ""
        assert err == "error: internal check failed: short-chord recurrence not exact at k=2, n=5, s=3\n"


class TestArgumentErrors:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required(self, capsys):
        assert main(["table", "--k", "2"]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("stats --word 0,0 --k x", "argument --k: invalid int value: 'x'"),
            ("table --k 2 --stat short --n-max x", "argument --n-max: invalid int value: 'x'"),
            ("verify --k 2 --n-max 3 --jobs 0", "argument --jobs: must be at least 1, got 0"),
            ("verify --k 2 --n-max 3 --m-max -1", "argument --m-max: must be at least 0, got -1"),
            ("series --k 3 --gf T --order x", "argument --order: invalid int value: 'x'"),
            ("oeis --seq A062993 --k x", "argument --k: invalid int value: 'x'"),
            ("memory --board path:4 --k 2 --seed x", "argument --seed: invalid int value: 'x'"),
            ("memory --board path:4 --k 2 --seed -1", "argument --seed: must be at least 0, got -1"),
            ("memory --board path:4 --k 2 --sample 0", "argument --sample: must be at least 1, got 0"),
            ("asympt --k x --n 3", "argument --k: invalid int value: 'x'"),
            ("asympt --k 2 --n 5,x", "argument --n: invalid int value: 'x'"),
            ("table --k 2 --stat short", "the following arguments are required: --n-max"),
            ("stats --word 0,1 --k 0", "block size must be at least 2, got 0"),
            ("table --k 3 --stat short --n-max 3 --offset 5 --format csv", "--offset needs --format bfile"),
            ("table --k 3 --stat short --n-max 3 --offset 1 --format json", "--offset needs --format bfile"),
            ("series --k 2 --gf F --order 2 --order2 5", "--order2 needs --gf T or L"),
            ("series --k 2 --gf C --order 2 --order2 2", "--order2 needs --gf T or L"),
            ("series --k 2 --gf T --order -1", "argument --order: must be at least 0, got -1"),
            ("series --k 2 --gf L --order 3 --order2 -1", "argument --order2: must be at least 0, got -1"),
            *(
                (
                    f"memory --board {shlex.quote(spec)} --k 2",
                    f"unknown board spec {spec!r}: expected path:M, grid:RxC or torus:RxC",
                )
                for spec in (
                    "hex:3", "path:abc", "path:", "grid:3", "torus:2x", "grid:3x4x5",
                    "path:1_0", "grid: 2x+2", "path:\uff11\uff12", "path:010", "path:-3", "grid:0x3",
                )
            ),
        ],
        ids=[
            "stats", "table", "verify", "verify-m-max", "series", "oeis", "memory", "memory-seed", "memory-sample",
            "asympt", "asympt-n", "missing", "stats-k0",
            "offset-csv", "offset-json", "order2-F", "order2-C", "order-negative", "order2-negative",
            "board-hex", "board-path-abc", "board-path-empty", "board-grid-1d", "board-torus-2x", "board-grid-3d",
            "board-underscore", "board-space-plus", "board-fullwidth", "board-leading-zero", "board-negative",
            "board-zero-rows",
        ],
    )
    def test_one_line_errors(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *shlex.split(argv))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_help_is_usage_on_stdout(self, capsys):
        code, out, err = run_cli(capsys, "table", "--help")
        assert code == 0 and err == ""
        assert out.startswith("usage: kchord table")

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
        for route in ("oracle", "kp2", "closed"):
            argv = f"table --k 2 --stat short --n-max 3 --route {route} --budget -5".split()
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "", route
            assert err == "error: oracle budget must be nonnegative, got -5\n", route

    def test_rejects_negative_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("KCHORD_ORACLE_BUDGET", "-5")
        code, out, _ = run_cli(capsys, "memory", "--board", "path:4", "--k", "2", "--exhaustive")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("value", ["abc", "1e6"])
    def test_rejects_non_integer_env_budget(self, capsys, monkeypatch, value):
        monkeypatch.setenv("KCHORD_ORACLE_BUDGET", value)
        argv = "table --k 2 --stat short --n-max 3 --route oracle".split()
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: KCHORD_ORACLE_BUDGET must be an integer, got {value!r}\n"

    @pytest.mark.parametrize("command", ["table --stat short --route oracle", "verify"])
    def test_rejects_jobs_below_one(self, capsys, command):
        code, out, err = run_cli(capsys, *command.split(), "--k", "2", "--n-max", "3", "--jobs", "0")
        assert code == 2 and out == ""
        assert "--jobs" in err


# Top-level and per-subcommand help, an unknown command, missing, invalid
# and unrecognized arguments, the mutually exclusive group, and valid lines.
PARSER_CASES = [
    "", "-h", "--help", "frobnicate --k 2",
    *(f"{name} -h" for name in cli.SUBCOMMANDS),
    "table", "table --k 2 --stat short", "table --k 3 --stat bogus --n-max 3",
    "table --k x --stat short --n-max 3", "verify --k 2 --n-max 3 --jobs 0",
    "stats --word 0,0 --extra", "table --k 3 --stat short --n-max 3 extra",
    "memory --board path:4 --k 2 --mean --exhaustive", "memory --board path:4 --k 2 --sample 0",
    "table --k 3 --stat nc-short --n-max 8 --route oracle --format json",
    "memory --board grid:2x2 --k 2 --sample 10 --seed 3",
    "asympt --k 3 --kind nc-short --n 50,100", "verify --k 3 --n-max 5 --m-max 4 --jobs 2",
    "oeis --seq A091320 --terms 5 --out -", "stats --word 0,1,0,1 --format json", "table -- --k 2",
]


def _parse_outcome(parse, argv, capsys):
    try:
        parsed, code = vars(parse(argv)), None
    except SystemExit as exc:
        parsed, code = None, exc.code
    captured = capsys.readouterr()
    return parsed, code, captured.out, captured.err


@pytest.mark.parametrize("line", PARSER_CASES)
def test_lazy_parse_matches_full_parser(capsys, line):
    """Building only the named subcommand's parser gives the namespace,
    output and exit code of the full parser."""
    argv = line.split()
    want = _parse_outcome(lambda a: cli.build_parser().parse_args(a), argv, capsys)
    assert _parse_outcome(cli.parse_args, argv, capsys) == want


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kchord", "stats", "--word", "0,0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "short_chords=1" in proc.stdout


# Values the grammar fuzz test draws, by option: small sizes including
# -1, 0 and 1, so every command stays fast, and words that are malformed
# for every option.
MALFORMED = st.sampled_from(
    ["", "x", "-", "1.5", "1e3", "0x10", " 2", ",", "2,", "a,b", "path:", "grid:2", "torus:x2", "-h"]
)
_SIZE = st.one_of(st.sampled_from(["-1", "0", "1"]), st.integers(2, 5).map(str))
# Board files, written afresh for each example into a directory that the
# drawn word "$TMP" names; a None entry is a path with no file.
BOARD_FILES = {
    "good.json": '{"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]]}',
    "wrong_keys.json": '{"nodes": 4, "links": [[0, 1]]}',
    "real_count.json": '{"vertices": 2.5, "edges": []}',
    "one_end.json": '{"vertices": 3, "edges": [[0]]}',
    "duplicate.json": '{"vertices": 3, "edges": [[0, 1], [1, 0]]}',
    "invalid.json": '{"vertices": 3, "edges": [[0, 1]',
    "missing.json": None,
}
_BOARD = st.one_of(
    st.builds("path:{}".format, st.integers(-1, 9)),
    st.builds("{}:{}x{}".format, st.sampled_from(["grid", "torus"]), st.integers(-1, 3), st.integers(0, 3)),
    st.sampled_from(sorted(BOARD_FILES)).map("$TMP/{}".format),
)
OPTION_VALUES = {
    "--k": st.sampled_from(["-1", "0", "1", "2", "3", "4"]),
    "--word": st.lists(st.integers(0, 3), max_size=8).map(lambda w: ",".join(map(str, w))),
    "--board": _BOARD,
    "--n": st.lists(st.integers(-1, 30), min_size=1, max_size=3).map(lambda ns: ",".join(map(str, ns))),
    "--route": st.sampled_from(sorted({r for rs in cli.ROUTES.values() for r in rs} | {"closed_form", "closed-form"})),
    "--seq": st.sampled_from(sorted(cli.OEIS_SEQUENCES)),
    "--terms": st.integers(-1, 8).map(str),
    "--sample": st.one_of(st.sampled_from(["-1", "0"]), st.integers(1, 300).map(str)),
    "--seed": st.integers(-1, 2**32).map(str),
    "--budget": st.sampled_from(["-1", "0", "1", "100", "1000000"]),
    "--out": st.just("-"),
}


@st.composite
def command_lines(draw) -> list[str]:
    """An argv for one subcommand, drawn from its parser: each option
    present or not (required ones mostly present), in any order, with a
    value of its type or a malformed word."""
    name = draw(st.sampled_from(sorted(cli.SUBCOMMANDS)))
    parser = cli._add_subcommand(cli._Parser(prog=f"kchord {name}"), name)
    words = []
    for action in parser._actions:
        option = action.option_strings[-1] if action.option_strings else None
        if option in (None, "--help") or draw(st.integers(0, 9)) >= (9 if action.required else 4):
            continue
        if action.nargs == 0:  # a flag
            words.append([option])
            continue
        if option in OPTION_VALUES:
            value = OPTION_VALUES[option]
        else:
            value = st.sampled_from(action.choices) if action.choices else _SIZE
        if option != "--out" and draw(st.integers(0, 9)) == 0:  # --out stays "-": no files are written
            value = st.one_of(value, MALFORMED)
        words.append([option, draw(value)])
    return [name] + [word for option in draw(st.permutations(words)) for word in option]


# Well-formed sampler lines, up to two chunks (and so two threads), which
# the grammar alone seldom reaches: most drawn memory lines are refused.
SAMPLE_LINES = st.builds(
    lambda kind, k, blocks, samples, seed: [
        "memory", "--board", f"path:{k * blocks}" if kind == "path" else f"{kind}:{k}x{blocks}",
        "--k", str(k), "--sample", str(samples), "--seed", str(seed),
    ],
    st.sampled_from(["path", "grid", "torus"]),
    st.integers(2, 4),
    st.integers(0, 4),
    st.integers(1, 20_000),
    st.integers(0, 2**32),
)


# Memory lines on each board file in each mode, which the grammar alone
# seldom draws: one drawn line in seven is a memory line.
FILE_LINES = st.builds(
    lambda name, mode: ["memory", "--board", f"$TMP/{name}", "--k", "2", *mode],
    st.sampled_from(sorted(BOARD_FILES)),
    st.sampled_from([[], ["--mean"], ["--exhaustive", "--format", "csv"], ["--sample", "100"]]),
)


def _run_in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@given(st.one_of(command_lines(), SAMPLE_LINES, FILE_LINES))
@settings(max_examples=300, deadline=None)
def test_command_line_grammar_fuzz(argv):
    """Every drawn command line is answered (exit 0) or refused with one
    error line (exit 2, or 3 past the oracle budget), never a traceback,
    and a rerun prints the same."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in BOARD_FILES.items():
            if text is not None:
                Path(tmp, name).write_text(text, encoding="utf-8")
        for word in argv:
            if word.startswith("$TMP/"):
                event(f"board file {word[5:]}")
        argv = [word.replace("$TMP", tmp) for word in argv]
        code, out, err = _run_in_process(argv)
        event(f"{argv[0]}: exit {code}")
        assert code in (0, 2, 3), (argv, err)
        assert sum(line.startswith("error:") for line in err.splitlines()) <= 1, err
        assert "Traceback" not in err
        assert _run_in_process(argv) == (code, out, err)
