"""Acceptance gate: one test per criterion, each printing a PASS line.

Every test exercises the documented tolerance and runtime budget.  Run
with ``pytest -v tests/test_acceptance.py`` to see one line per
criterion.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from conftest import C_TABLE_K3, D_TABLE_K3, T_TABLE_K3, characteristic_expansion
from kchord import (
    exhaustive_distribution,
    fuss_catalan,
    grid_board,
    mean_polyominoes,
    mean_short_chords,
    kp2_rows,
    nc_mean_report,
    noncrossing_rows,
    path_board,
    poisson_convergence_report,
    sample_placements,
    survey,
    total_diagrams,
)
from kchord.cli import build_rows, main
from kchord.counting import component_row, narayana
from kchord.series import triple_table

FIXTURES = Path(__file__).parent / "fixtures"


def _passed(number: int, label: str) -> None:
    print(f"criterion {number} ({label}): PASS")


def _cli_csv(capsys, *argv) -> dict[tuple[int, int], int]:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, out
    table: dict[tuple[int, int], int] = {}
    lines = out.strip().split("\n")
    assert lines[0] == "n,value,count"
    for line in lines[1:]:
        n, v, c = line.split(",")
        table[(int(n), int(v))] = int(c)
    return table


def test_criterion_1_cli_reproduces_published_tables(capsys):
    start = time.monotonic()

    for route in ("closed", "kp1", "kp2", "series"):
        got = _cli_csv(
            capsys, "table", "--k", "3", "--stat", "short",
            "--n-max", "6", "--route", route,
        )
        for n, row in D_TABLE_K3.items():
            for s, c in enumerate(row):
                assert got.get((n, s), 0) == c, (route, n, s)
    assert got[(6, 1)] == 19796274

    for route in ("closed", "series"):
        got = _cli_csv(
            capsys, "table", "--k", "3", "--stat", "components",
            "--n-max", "6", "--route", route,
        )
        for n, row in C_TABLE_K3.items():
            for q, c in enumerate(row):
                assert got.get((n, q), 0) == c, (route, n, q)
    assert got[(5, 2)] == 11145

    for route in ("recurrence", "series", "oracle"):
        got = _cli_csv(
            capsys, "table", "--k", "3", "--stat", "nc-short",
            "--n-max", "7", "--route", route,
        )
        for m, row in T_TABLE_K3.items():
            for s, c in enumerate(row, start=1):
                assert got.get((m, s), 0) == c, (route, m, s)
    assert got[(7, 4)] == 2875

    elapsed = time.monotonic() - start
    assert elapsed < 10, f"took {elapsed:.1f}s"
    _passed(1, "published tables by every applicable route")


def test_criterion_2_four_route_agreement():
    start = time.monotonic()
    for k in (2, 3, 4, 5):
        routes = {
            route: list(build_rows("short", k, 12, route))
            for route in ("closed", "kp1", "kp2", "series")
        }
        base = routes["closed"]
        for name, rows in routes.items():
            for n in range(13):
                assert tuple(rows[n]) == tuple(base[n]), (k, n, name)
        for n in range(13):
            assert sum(base[n]) == total_diagrams(k, n)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _passed(2, "closed/kp1/kp2/series agree for k<=5, n<=12")


def test_criterion_3_oracle_equivalence():
    start = time.monotonic()
    sizes = {(2, 7): 135135, (3, 5): 1401400, (4, 4): 2627625}
    for (k, n_cap), top_count in sizes.items():
        d_rows = tuple(kp2_rows(k, n_cap))
        nc_rows = tuple(noncrossing_rows(k, n_cap))
        for n in range(n_cap + 1):
            hist = survey(k, n, budget=top_count)
            d_row = [0] * (n + 1)
            c_row = [0] * (n + 1)
            t_row = [0] * (n + 1)
            joint: dict[tuple[int, int], int] = {}
            for (s, q, m), count in hist.items():
                d_row[s] += count
                c_row[q] += count
                if m == n:
                    t_row[s] += count
                joint[(m, s)] = joint.get((m, s), 0) + count
            assert tuple(d_row) == d_rows[n], (k, n, "short")
            assert tuple(c_row) == tuple(component_row(k, n)), (k, n, "components")
            assert tuple(t_row) == nc_rows[n], (k, n, "noncrossing")
            trip = triple_table(k, n)
            for m in range(n + 1):
                for s in range(m + 1):
                    assert joint.get((m, s), 0) == trip[m][s], (k, n, m, s)
            if n == n_cap:
                assert sum(hist.values()) == top_count
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"took {elapsed:.1f}s"
    _passed(3, "oracle matches d, c, T and the joint array at stated sizes")


def test_criterion_4_fuss_catalan_identity():
    for k in (2, 3, 4, 5):
        rows = tuple(noncrossing_rows(k, 40))
        for m in range(41):
            assert sum(rows[m]) == comb(k * m, m) // ((k - 1) * m + 1)
            assert sum(rows[m]) == fuss_catalan(k, m)
    narayana_rows = tuple(noncrossing_rows(2, 40))
    for m in range(1, 41):
        assert sum(narayana_rows[m]) == comb(2 * m, m) // (m + 1)
        for s in range(m + 1):
            assert narayana_rows[m][s] == narayana(m, s)
    _passed(4, "row sums are Fuss-Catalan; k=2 gives Catalan and Narayana")


def test_criterion_5_mean_identities():
    for k in (2, 3, 4):
        rows = tuple(kp2_rows(k, 50))
        for n in range(1, 51):
            first_moment = sum(s * c for s, c in enumerate(rows[n]))
            assert mean_short_chords(k, n) * total_diagrams(k, n) == first_moment
    for n in range(1, 201):
        assert mean_short_chords(2, n) == 1
    _passed(5, "exact mean identities for k<=4, n<=50; k=2 mean is 1")


def test_criterion_6_poisson_convergence_k2():
    for kind in ("short_chords", "components"):
        rep = poisson_convergence_report(2, [25, 50, 100, 200], kind=kind)
        assert rep.monotone, kind
        for earlier, later in zip(rep.errors, rep.errors[1:]):
            assert later < earlier, kind
        assert float(rep.errors[-1]) < 0.02, kind
    _passed(6, "TV to Poisson(1) strictly decreases and ends below 0.02")


def test_criterion_7_normality_parameters():
    for k in range(2, 11):
        exp = characteristic_expansion(k)
        ratio = Fraction(k - 1, k)
        assert exp.mean_coefficient == ratio ** (k - 1)
        want_var = (
            ratio ** (2 * k)
            * Fraction(k, (k - 1) ** 2)
            * (1 - 2 * k + (k - 1) * Fraction(k, k - 1) ** k)
        )
        assert exp.variance_coefficient == want_var
    k2 = characteristic_expansion(2)
    assert k2.mean_coefficient == Fraction(1, 2)
    assert k2.variance_coefficient == Fraction(1, 8)

    rep = nc_mean_report(3, [50, 100])
    assert rep.errors[1] < rep.errors[0]
    assert float(rep.errors[1]) < 0.02
    _passed(7, "characteristic expansion exact for k<=10; k=3 mean converges")


def test_criterion_8_memory_game():
    board = grid_board(2, 2)
    assert mean_polyominoes(board, 2) == Fraction(4, 3)
    hist = exhaustive_distribution(board, 2)
    assert sum(hist.values()) == 3
    assert Fraction(sum(p * c for (p, _q), c in hist.items()), 3) == Fraction(4, 3)

    for k, n in [(2, 5), (3, 3), (4, 2)]:
        hist = exhaustive_distribution(path_board(k * n), k)
        poly_row = [0] * (n + 1)
        comp_row = [0] * (n + 1)
        for (p, q), count in hist.items():
            poly_row[p] += count
            comp_row[q] += count
        assert tuple(poly_row) == tuple(kp2_rows(k, n))[n], (k, n)
        assert tuple(comp_row) == tuple(component_row(k, n)), (k, n)

    g33 = grid_board(3, 3)
    exact = float(mean_polyominoes(g33, 3))
    hits = 0
    for seed in range(20):
        r = sample_placements(g33, 3, 100000, seed=seed)
        if abs(float(r.mean) - exact) <= 3 * r.stderr:
            hits += 1
    assert hits >= 19, f"only {hits}/20 seeds within 3 standard errors"
    _passed(8, "grid mean 4/3, path marginals match tables, MC within 3 SE")


def test_criterion_9_oeis_prefixes(capsys):
    cases = []
    for path in sorted(FIXTURES.glob("*.txt")):
        seq, _, slice_part = path.stem.partition("_k")
        cases.append((path, seq, slice_part or None))
    assert len(cases) == 13

    for path, seq, k_slice in cases:
        want = path.read_bytes()
        terms = len(want.splitlines())
        assert terms >= 20, path.name
        argv = ["oeis", "--seq", seq, "--terms", str(terms)]
        if k_slice:
            argv += ["--k", k_slice]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert out.encode() == want, path.name
    _passed(9, "b-file prefixes byte-identical to fixtures")
