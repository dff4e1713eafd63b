"""The four workloads: fixed lists of kchord CLI commands and their checks.

Each operation is one CLI command.  Its check reads the command's stdout
and returns a description of the first problem, or None.  Every check
compares against ``reference`` or the published b-files, never against
a stored copy of kchord's own output.  The seed orders the commands and
seeds the sampler; it changes no command's amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from pathlib import Path
from typing import Callable, Optional

import reference as ref

Check = Callable[[str], Optional[str]]

PLACES = Fraction(1, 10**18)  # kchord prints rationals with 18 decimals


class Fault(str):
    """A problem a check reports as the symptom of a known fault."""


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Check
    # A fault of the program this operation is known to show; while the
    # check reports it as a Fault, the operation counts as failed rather
    # than incorrect.  Any other problem still makes the run incorrect.
    known_fault: Optional[str] = None


# --- parsing -------------------------------------------------------------------


def table_rows(text: str, fmt: str, n_max: int) -> list[list[int]]:
    """Rows 0..n_max of a ``table`` csv or json output, zero-padded to n+1."""
    rows = [[0] * (n + 1) for n in range(n_max + 1)]
    if fmt == "json":
        for n, row in enumerate(json.loads(text)["rows"]):
            rows[n][: len(row)] = [int(c) for c in row]
        return rows
    lines = text.splitlines()
    if lines[0] != "n,value,count":
        raise ValueError(f"unexpected csv header {lines[0]!r}")
    for line in lines[1:]:
        n, value, count = (int(x) for x in line.split(","))
        rows[n][value] = count
    return rows


def bfile_rows(text: str, m_max: int) -> list[list[int]]:
    """Non-crossing rows from a b-file: rows 1..m_max, columns 1..m."""
    values = [int(line.split()[1]) for line in text.splitlines()]
    rows = [[1]]
    for m in range(1, m_max + 1):
        rows.append([0] + values[:m])
        values = values[m:]
    if values:
        raise ValueError(f"{len(values)} values past row {m_max}")
    return rows


def histogram(text: str, fmt: str) -> dict[tuple[int, int], int]:
    if fmt == "json":
        entries = json.loads(text)["histogram"]
        return {(e["polyominoes"], e["components"]): e["count"] for e in entries}
    lines = text.splitlines()
    if lines[0] != "polyominoes,components,count":
        raise ValueError(f"unexpected csv header {lines[0]!r}")
    out = {}
    for line in lines[1:]:
        p, c, count = (int(x) for x in line.split(","))
        out[(p, c)] = count
    return out


def truncated(text: str, x: Fraction) -> bool:
    """``text`` is x rounded toward zero to 18 decimals (x >= 0)."""
    shown = Fraction(text)
    return shown <= x < shown + PLACES


def rounded_up(text: str, x: Fraction) -> bool:
    shown = Fraction(text)
    return x <= shown < x + PLACES


# --- checks on count tables ------------------------------------------------------


def _spot_rows(n_max: int) -> list[int]:
    """Rows checked entry by entry: every row up to 10, then two deep rows."""
    return sorted(set(range(min(n_max, 10) + 1)) | {n_max // 2, n_max})


def _spot_columns(n: int) -> list[int]:
    return range(n + 1) if n <= 10 else sorted({0, 1, 2, 3, n // 2, n - 1, n})


def check_short(k: int, rows: list[list[int]]) -> Optional[str]:
    for n, row in enumerate(rows):
        if sum(row) != ref.total(k, n):
            return f"k={k} n={n}: row sums to {sum(row)}, not N(k,n)"
        if n and sum(s * c for s, c in enumerate(row)) != ref.short_mean_sum(k, n):
            return f"k={k} n={n}: short-chord mean identity fails"
    for n in _spot_rows(len(rows) - 1):
        for s in _spot_columns(n):
            if rows[n][s] != ref.short_entry(k, n, s):
                return f"k={k} n={n} s={s}: {rows[n][s]} != inclusion-exclusion"
    return None


def check_components(k: int, rows: list[list[int]]) -> Optional[str]:
    for n, row in enumerate(rows):
        if sum(row) != ref.total(k, n):
            return f"k={k} n={n}: component row sums to {sum(row)}, not N(k,n)"
        if sum(q * c for q, c in enumerate(row)) != ref.component_mean_sum(k, n):
            return f"k={k} n={n}: run-start identity fails"
        if row[0] != ref.short_entry(k, n, 0):
            return f"k={k} n={n}: no-run count differs from no-short-chord count"
    n_max = len(rows) - 1
    for n in sorted(set(range(min(n_max, 8) + 1)) | {n_max}):
        for q in range(n + 1) if n <= 8 else (1, 2):
            if rows[n][q] != ref.component_entry(k, n, q):
                return f"k={k} n={n} q={q}: {rows[n][q]} != Mobius sum"
    return None


def check_noncrossing(k: int, rows: list[list[int]]) -> Optional[str]:
    for m, row in enumerate(rows):
        if sum(row) != ref.fuss_catalan(k, m):
            return f"k={k} m={m}: row sums to {sum(row)}, not Fuss-Catalan"
    for m in _spot_rows(len(rows) - 1):
        for s in _spot_columns(m):
            if rows[m][s] != ref.noncrossing_entry(k, m, s):
                return f"k={k} m={m} s={s}: {rows[m][s]} != Lagrange form"
    return None


TABLE_CHECKS = {"short": check_short, "components": check_components, "nc-short": check_noncrossing}


def table(k: int, stat: str, n_max: int, route: str, fmt: str = "csv", jobs: bool = False) -> Op:
    argv = ["table", "--k", str(k), "--stat", stat, "--n-max", str(n_max), "--route", route]
    argv += ["--format", fmt] + (["--jobs", "1"] if jobs else [])

    def check(text: str) -> Optional[str]:
        if fmt == "bfile":
            rows = bfile_rows(text, n_max)
        else:
            rows = table_rows(text, fmt, n_max)
        return TABLE_CHECKS[stat](k, rows)

    return Op(tuple(argv), check)


SERIES_ENTRIES = {
    "F": lambda k, i, j: ref.short_entry(k, i, j) if j <= i else 0,
    "C": lambda k, i, j: ref.component_entry(k, i, j) if j <= i else 0,
    "T": lambda k, i, j: ref.noncrossing_entry(k, i, j) if j <= i else 0,
    "L": ref.lattice_entry,
}


def series(k: int, gf: str, order: int, order2: Optional[int] = None) -> Op:
    argv = ["series", "--k", str(k), "--gf", gf, "--order", str(order)]
    argv += ["--order2", str(order2)] if order2 is not None else []
    order2 = order if order2 is None else order2

    def check(text: str) -> Optional[str]:
        payload = json.loads(text)
        if payload["order"] != [order, order2]:
            return f"orders {payload['order']}"
        coeffs = iter(payload["coeffs"])
        for i in range(order + 1):
            for j in range(order2 + 1):
                got = int(next(coeffs))
                if got != SERIES_ENTRIES[gf](k, i, j):
                    return f"{gf} k={k}: coefficient ({i},{j}) = {got} is wrong"
        return None

    return Op(tuple(argv), check)


def oeis(seq: str, terms: int, fixtures: Path) -> Op:
    def check(text: str) -> Optional[str]:
        want = (fixtures / f"{seq}.txt").read_text(encoding="utf-8").splitlines(True)[:terms]
        return None if text == "".join(want) else f"{seq}: differs from the published b-file"

    return Op(("oeis", "--seq", seq, "--terms", str(terms)), check)


def verify(k: int, n_max: int) -> Op:
    def check(text: str) -> Optional[str]:
        lines = text.splitlines()
        if lines[-1] != "all agree":
            return f"verify k={k}: {lines[-1]}"
        if f"oracle agreement (d, c, T, triple) for n <= {n_max}" not in lines:
            return f"verify k={k}: oracle did not reach n={n_max}"
        return None

    return Op(("verify", "--k", str(k), "--n-max", str(n_max), "--jobs", "1"), check)


# --- checks on the limit reports ---------------------------------------------------

HEAD = 30  # row entries computed exactly for a TV distance; both tails are < 1e-25


def asympt(k: int, kind: str, n_values: tuple[int, ...], fmt: str = "json") -> Op:
    argv = ("asympt", "--k", str(k), "--kind", kind, "--n", ",".join(map(str, n_values)), "--format", fmt)

    def check(text: str) -> Optional[str]:
        if fmt == "json":
            payload = json.loads(text)
            exact, errors, limit = payload["exact"], payload["errors"], payload["limit"]
            monotone = payload["monotone"]
            if payload["n"] != list(n_values):
                return f"n values {payload['n']}"
        else:
            lines = text.splitlines()[1:]
            cells = [line.split(",") for line in lines]
            if [int(c[0]) for c in cells] != list(n_values):
                return "n values differ"
            exact, limit, errors = [c[1] for c in cells], cells[0][2], [c[3] for c in cells]
            monotone = None
        if kind == "nc-short":
            return _check_nc_report(k, n_values, exact, errors, limit, monotone)
        return _check_poisson_report(k, kind, n_values, exact, errors, limit, monotone)

    return Op(argv, check)


def _check_poisson_report(k, kind, n_values, exact, errors, limit, monotone) -> Optional[str]:
    if Fraction(limit) != (1 if k == 2 else 0):
        return f"limit {limit}"
    distances = []
    for n, shown_mean, shown_error in zip(n_values, exact, errors):
        count = ref.total(k, n)
        if kind == "short":
            mean = ref.short_mean_sum(k, n) / count
            head = [ref.short_entry(k, n, s) for s in range(min(n, HEAD) + 1)]
        else:
            mean = Fraction(ref.component_mean_sum(k, n), count)
            head = [ref.component_entry(k, n, q) for q in range(min(n, HEAD) + 1)]
        if k == 2 and kind == "short" and shown_mean != "1":
            return f"n={n}: exact mean {shown_mean}, not 1"
        if not truncated(shown_mean, mean):
            return f"n={n}: exact mean {shown_mean} != {float(mean)}"
        tv = ref.tv_to_poisson(head, count, ref.poisson_lambda(k, n))
        bound = float(Fraction(shown_error))
        if not tv - 1e-12 <= bound <= tv + 1e-9:
            return f"n={n}: certified TV bound {shown_error} vs float {tv!r}"
        distances.append(tv)
    gaps = [a - b for a, b in zip(distances, distances[1:])]
    if monotone is not None and all(abs(g) > 1e-9 for g in gaps):
        if monotone != all(g > 0 for g in gaps):
            return f"monotone={monotone} contradicts the distances"
    return None


def _check_nc_report(k, n_values, exact, errors, limit, monotone) -> Optional[str]:
    target = Fraction(k - 1, k) ** (k - 1)
    if not truncated(limit, target):
        return f"limit {limit}"
    gaps = []
    for n, shown_mean, shown_error in zip(n_values, exact, errors):
        row = [ref.noncrossing_entry(k, n, s) for s in range(n + 1)]
        mean = Fraction(sum(s * c for s, c in enumerate(row)), ref.fuss_catalan(k, n)) / n
        if not truncated(shown_mean, mean):
            return f"n={n}: mean/n {shown_mean} != {float(mean)}"
        if not rounded_up(shown_error, abs(mean - target)):
            return f"n={n}: error {shown_error} != {float(abs(mean - target))}"
        gaps.append(abs(mean - target))
    if monotone is not None and monotone != all(a > b for a, b in zip(gaps, gaps[1:])):
        return f"monotone={monotone} is wrong"
    return None


# --- checks on the memory game -------------------------------------------------------


def exhaustive(board: str, k: int, fmt: str = "csv") -> Op:
    argv = ("memory", "--board", board, "--k", str(k), "--exhaustive", "--format", fmt)

    def check(text: str) -> Optional[str]:
        hist = histogram(text, fmt)
        vertices, edges = ref.board_edges(board)
        n = vertices // k
        count = ref.total(k, n)
        if sum(hist.values()) != count:
            return f"{board}: {sum(hist.values())} deals, not N(k,n)"
        polys = sum(p * c for (p, _), c in hist.items())
        if Fraction(polys, count) != ref.mean_polyominoes(vertices, edges, k):
            return f"{board}: exact mean polyomino count is wrong"
        if board.startswith("path:"):
            marg_p, marg_c = [0] * (n + 1), [0] * (n + 1)
            for (p, c), cnt in hist.items():
                marg_p[p] += cnt
                marg_c[c] += cnt
            if marg_p != [ref.short_entry(k, n, s) for s in range(n + 1)]:
                return f"{board}: polyomino marginal differs from the short-chord row"
            if marg_c != [ref.component_entry(k, n, q) for q in range(n + 1)]:
                return f"{board}: component marginal differs from the run counts"
        elif hist != ref.deal_histogram(vertices, edges, k):
            return f"{board}: histogram differs from the literal enumeration"
        return None

    return Op(argv, check)


def sample(board: str, k: int, samples: int, seed: int, known_fault: Optional[str] = None) -> Op:
    argv = ("memory", "--board", board, "--k", str(k), "--sample", str(samples), "--seed", str(seed))

    def check(text: str) -> Optional[str]:
        payload = json.loads(text)
        hist = {int(v): c for v, c in payload["histogram"].items()}
        if payload["samples"] != samples or payload["seed"] != seed:
            return f"{board}: samples/seed echoed wrongly"
        if sum(hist.values()) != samples:
            return f"{board}: histogram holds {sum(hist.values())} samples"
        mean = Fraction(sum(v * c for v, c in hist.items()), samples)
        if Fraction(payload["mean"]) != mean:
            return f"{board}: mean {payload['mean']} disagrees with its histogram"
        var = sum(c * (v - mean) ** 2 for v, c in hist.items()) / (samples - 1)
        stderr = sqrt(float(var) / samples)
        if abs(float(payload["stderr"]) - stderr) > 1e-9 * stderr:
            return f"{board}: stderr {payload['stderr']} != {stderr!r}"
        vertices, edges = ref.board_edges(board)
        exact = ref.mean_polyominoes(vertices, edges, k)
        if abs(float(mean - exact)) > 5 * stderr:
            return Fault(f"{board}: mean {float(mean):.4f} is {float(mean - exact) / stderr:.1f} SE from {float(exact):.4f}")
        return None

    return Op(argv, check, known_fault)


# --- the workloads -----------------------------------------------------------------

OEIS_TERMS = {
    "A334056": 35, "A334057": 35, "A334058": 35,
    "A334059": 26, "A334060": 27, "A334061": 28,
    "A091320": 28, "A334062": 28, "A334063": 28,
}

WIDE_BOARD_FAULT = (
    "sample_placements builds block masks as np.int64(1) << vertex, which wraps "
    "on boards with 64 or more vertices"
)


def census(seed: int, fixtures: Path) -> list[Op]:
    return [
        table(2, "short", 7, "oracle", jobs=True),
        table(3, "nc-short", 8, "oracle", "json", jobs=True),
        table(3, "components", 4, "oracle", jobs=True),
        verify(3, 4),
        verify(2, 6),
        exhaustive("path:12", 3),
        exhaustive("path:14", 2, "json"),
        exhaustive("grid:3x4", 2),
        exhaustive("grid:2x6", 3, "json"),
    ]


def routes(seed: int, fixtures: Path) -> list[Op]:
    return [
        table(3, "short", 120, "closed"),
        table(3, "short", 200, "kp1"),
        table(5, "short", 150, "kp2", "json"),
        table(4, "short", 30, "series"),
        table(4, "components", 100, "closed"),
        table(3, "components", 25, "series", "json"),
        table(4, "nc-short", 60, "recurrence", "bfile"),
        table(3, "nc-short", 25, "series"),
        series(3, "T", 30),
        series(4, "F", 25),
        series(3, "C", 20),
        series(5, "L", 60, 40),
    ] + [oeis(seq, terms, fixtures) for seq, terms in OEIS_TERMS.items()]


def limits(seed: int, fixtures: Path) -> list[Op]:
    return [
        asympt(2, "short", (250, 500, 1000)),
        asympt(3, "short", (50, 100, 200), "csv"),
        asympt(2, "components", (25, 50, 100)),
        asympt(3, "nc-short", (50, 100)),
    ]


def sampler(seed: int, fixtures: Path) -> list[Op]:
    rng = random.Random(seed)
    boards = [
        ("grid:4x4", 2, 1_000_000),
        ("grid:3x6", 3, 500_000),
        ("path:20", 4, 500_000),
        ("torus:4x5", 2, 500_000),
        ("grid:5x6", 3, 100_000),
        ("torus:6x6", 2, 50_000),
        ("grid:6x8", 4, 50_000),
    ]
    ops = [sample(board, k, count, rng.randrange(2**32)) for board, k, count in boards]
    # Fixed seed: the failure must not depend on the run's seed.
    return ops + [sample("grid:8x9", 2, 50_000, 7, WIDE_BOARD_FAULT)]


WORKLOADS = {"census": census, "routes": routes, "limits": limits, "sampler": sampler}
