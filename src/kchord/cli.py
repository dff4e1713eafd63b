"""Command-line interface.

Subcommands: ``stats`` (one diagram), ``table`` (count tables by any
route), ``verify`` (cross-route and oracle agreement), ``series``
(generating-function coefficient dumps), ``oeis`` (b-file emission),
``memory`` (board game statistics and sampling), ``asympt``
(convergence reports).

Exit codes: 0 success, 1 verification mismatch, 2 invalid
configuration, 3 enumeration budget exceeded, 4 internal check failed
(a program fault).  Identical configuration produces byte-identical
output.
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import functools
import json
import os
import sys
from itertools import count, islice, zip_longest

from . import asymptotics, counting, diagrams, memory_game, series, tables
from .diagrams import (
    BudgetExceededError,
    canonicalize,
    encode_lattice_path,
    oracle_budget,
    stats as diagram_stats,
)

# --- table construction by route ---------------------------------------


def _coefficient_rows(gf, n_max: int):
    for n, row in enumerate(gf.coeffs[: n_max + 1]):
        yield tuple(row[: n + 1])


def _fold(hist, n: int, coord) -> tuple[int, ...]:
    """Row n of one statistic, read off an oracle histogram keyed (s, q, m).

    ``coord`` "s" counts diagrams by short chords and "q" by components.
    An integer coord counts by short chords only the diagrams with that
    many non-crossing blocks; coord n gives the non-crossing row.
    """
    row = [0] * (n + 1)
    for (s, q, m), count in hist.items():
        if coord == "q":
            row[q] += count
        elif coord == "s" or coord == m:
            row[s] += count
    return tuple(row)


def _oracle_rows(walk, size, k: int, n_max: int, budget: int | None):
    """Rows 0..n_max of one statistic from the oracle walk of that
    statistic alone, each walked when it is asked for.  Every row's
    ``size(k, n)`` is checked against the budget by the call, before the
    first walk."""
    for n in range(n_max + 1):
        oracle_budget(budget, size(k, n))
    hists = (walk(k, n, budget=budget) for n in range(n_max + 1))
    return (tuple(hist.get(j, 0) for j in range(n + 1)) for n, hist in enumerate(hists))


# stat -> route -> rows(k, n_max, budget), each route its own derivation:
# it checks its sizes and budget when called, then yields rows 0..n_max
# (m_max for nc-short) as it builds them.  Builders are looked up when a
# route runs, so a replaced module function is the one called.  kp1 and
# kp2 build exact Decimal rows, which print in time linear in their
# digits; the other routes print small numbers or build rows in ways that
# do not gain from Decimal, and stay on int.
ROUTES = {
    "short": {
        "closed": lambda k, n_max, *_: (tuple(counting.short_chord_row(k, n)) for n in range(n_max + 1)),
        "kp1": lambda k, n_max, *_: tables.kp1_rows(k, n_max, one=decimal.Decimal(1)),
        "kp2": lambda k, n_max, *_: tables.kp2_rows(k, n_max, one=decimal.Decimal(1)),
        "series": lambda k, n_max, *_: _coefficient_rows(series.F_series(k, n_max), n_max),
        "oracle": lambda *args: _oracle_rows(diagrams.short_survey, counting.total_diagrams, *args),
    },
    "components": {
        "closed": lambda k, n_max, *_: tables.component_rows(k, n_max),
        "series": lambda k, n_max, *_: _coefficient_rows(series.C_series(k, n_max), n_max),
        "oracle": lambda *args: _oracle_rows(diagrams.component_survey, counting.total_diagrams, *args),
    },
    "nc-short": {
        "recurrence": lambda k, m_max, *_: tables.noncrossing_rows(k, m_max),
        "series": lambda k, m_max, *_: _coefficient_rows(series.T_series(k, m_max, m_max), m_max),
        "oracle": lambda *args: _oracle_rows(diagrams.noncrossing_survey, tables.fuss_catalan, *args),
    },
}
STATS = tuple(ROUTES)
DEFAULT_ROUTE = {"short": "kp2", "components": "closed", "nc-short": "recurrence"}

OEIS_SEQUENCES = {
    "A334056": ("short", 3),
    "A334057": ("short", 4),
    "A334058": ("short", 5),
    "A334059": ("components", 2),
    "A334060": ("components", 3),
    "A334061": ("components", 4),
    "A091320": ("nc-short", 3),
    "A334062": ("nc-short", 4),
    "A334063": ("nc-short", 5),
    "A062993": ("fuss", None),
}


@contextlib.contextmanager
def _emit(out: str | None):
    """The ``write`` of the destination: stdout, or the ``--out`` file.

    Commands check their input and budget before they enter here, so exit
    2 and 3 write nothing.  Tables are written a row at a time as their
    routes yield them, so only one row is held; a check that fails partway
    (exit 4) can follow partial output on stdout.  An ``--out`` file is
    written under a temporary name in its directory and moved into place
    only when the command succeeds: a failed run leaves neither a new
    file nor a changed old one.  A device or pipe is written in place."""
    if out in (None, "-"):
        yield sys.stdout.write
        return
    if os.path.exists(out) and not os.path.isfile(out):
        with open(out, "w", encoding="utf-8", newline="") as handle:
            yield handle.write
        return
    target = os.path.realpath(out)  # through a symbolic link, as a plain open writes
    temp = f"{target}.{os.getpid()}.tmp"
    try:
        handle = open(temp, "x", encoding="utf-8", newline="")
    except OSError as exc:  # named as the user wrote it, as a plain open names it
        raise OSError(exc.errno, exc.strerror, out) from None
    try:
        with handle:
            yield handle.write
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _trim(row) -> tuple[int, ...]:
    row = list(row)
    while len(row) > 1 and row[-1] == 0:
        row.pop()
    return tuple(row)


def build_rows(stat: str, k: int, n_max: int, route: str, budget: int | None = None):
    """Rows 0..n_max of one statistic by one route of ``ROUTES``, as the
    route gives them; component rows drop trailing zeros, as the
    published triangles do.  Sizes, route and budget are checked here,
    before any row is built."""
    counting._check_sizes(k, n_max, "n_max")
    oracle_budget(budget)  # a bad budget is an error on every route
    if route not in ROUTES[stat]:
        raise ValueError(
            f"route {route!r} not applicable to stat {stat!r}; "
            f"choose from {', '.join(ROUTES[stat])}"
        )
    rows = ROUTES[stat][route](k, n_max, budget)
    return map(_trim, rows) if stat == "components" else rows


# The writers convert entries with !s: a Decimal's str is its digits, and
# its __format__, which a bare {} calls, is slower (0.6 against 0.2 us
# for a 5-digit entry).
def rows_to_csv(rows, write) -> None:
    write("n,value,count\n")
    for n, row in enumerate(rows):
        write("".join(f"{n},{value},{count!s}\n" for value, count in enumerate(row) if count))


def rows_to_json(rows, k: int, stat: str, write) -> None:
    """The table as ``json.dumps({"k", "kind", "rows"}, indent=2)`` writes
    it, entries as decimal strings, without the pure-Python encoder that
    ``indent`` selects."""
    write(f'{{\n  "k": {k},\n  "kind": {json.dumps(stat)},\n  "rows": [')
    separator = "\n"
    for row in rows:
        if row:  # the entries in a write of their own, not copied into a larger string
            write(f'{separator}    [\n      "')
            write('",\n      "'.join(map(str, row)))
            write('"\n    ]')
        else:
            write(f"{separator}    []")
        separator = ",\n"
    write("]\n}\n" if separator == "\n" else "\n  ]\n}\n")  # "[]" when there is no row


def linearize_rows(stat: str, rows):
    """Row-by-row reading of a ``build_rows`` table, as in the published
    triangles, as an iterator: non-crossing rows start at s = 1; row 0 is
    never read."""
    skip = 1 if stat == "nc-short" else 0
    return (value for row in islice(rows, 1, None) for value in row[skip:])


def rows_to_bfile(values, offset: int, write) -> None:
    """A b-file of ``values`` (a ``linearize_rows`` table or a slice of
    a sequence), numbered from ``offset``."""
    for i, v in enumerate(values, offset):
        write(f"{i} {v!s}\n")


# --- subcommand handlers ------------------------------------------------


def _cmd_stats(args) -> int:
    word = [tok.strip() for tok in args.word.split(",") if tok.strip() != ""]
    diagram = canonicalize(word, args.k)
    st = diagram_stats(diagram)
    payload = {
        "k": diagram.k,
        "n": diagram.n,
        "word": diagram.as_text(),
        "short_chords": st.short_chords,
        "components": st.components,
        "noncrossing": st.noncrossing,
        "crossing_pairs": st.crossing_pairs,
    }
    if st.crossing_pairs == 0:
        payload["lattice_path"] = encode_lattice_path(diagram).steps
    if args.format == "json":
        text = json.dumps(payload, indent=2)
    else:
        text = " ".join(f"{key}={val}" for key, val in payload.items())
    with _emit(args.out) as write:
        write(text + "\n")
    return 0


def _cmd_table(args) -> int:
    if args.offset is not None and args.format != "bfile":
        raise ValueError("--offset needs --format bfile")
    route = args.route or DEFAULT_ROUTE[args.stat]
    rows = build_rows(args.stat, args.k, args.n_max, route, args.budget)
    with _emit(args.out) as write:
        if args.format == "csv":
            rows_to_csv(rows, write)
        elif args.format == "json":
            rows_to_json(rows, args.k, args.stat, write)
        else:
            offset = 1 if args.offset is None else args.offset
            rows_to_bfile(linearize_rows(args.stat, rows), offset, write)
    return 0


def _cmd_series(args) -> int:
    if args.order2 is not None and args.gf in ("F", "C"):
        raise ValueError("--order2 needs --gf T or L")
    order2 = args.order2 if args.order2 is not None else args.order
    builders = {
        "F": lambda: series.F_series(args.k, args.order),
        "C": lambda: series.C_series(args.k, args.order),
        "T": lambda: series.T_series(args.k, args.order, order2),
        "L": lambda: series.L_series(args.k, args.order, order2),
    }
    gf = builders[args.gf]()
    payload = {
        "k": args.k,
        "gf": args.gf,
        "var_names": list(gf.var_names),
        "order": [gf.order1, gf.order2],
        "coeffs": [str(c) for row in gf.coeffs for c in row],
    }
    with _emit(args.out) as write:
        write(json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_oeis(args) -> int:
    if args.seq not in OEIS_SEQUENCES:
        raise ValueError(f"unknown sequence {args.seq}; known: {', '.join(sorted(OEIS_SEQUENCES))}")
    stat, k = OEIS_SEQUENCES[args.seq]
    if stat == "fuss":
        if args.k is None:
            raise ValueError(f"{args.seq} is a family of slices; pass --k")
        if args.k < 2:
            raise ValueError(f"--k must be at least 2 for {args.seq}, got {args.k}")
        offset = args.offset if args.offset is not None else 0
        values = [tables.fuss_catalan(args.k, m) for m in range(args.terms)]
    else:
        if args.k is not None and args.k != k:
            raise ValueError(f"{args.seq} is the k = {k} sequence; --k {args.k} does not match")
        offset = args.offset if args.offset is not None else 1
        # Row n >= 1 gives n + 1 short-chord values, n non-crossing ones and
        # at least one component value.  The kp2 weights and the nc-short
        # recurrence are sized by the rows asked for, so those two are asked
        # for the fewest rows that hold --terms values.  The component rows
        # are streamed: none past the last value read is built.
        n_max = args.terms
        if stat != "components":
            n_max = next(n for n in count() if n * (n + 1) // 2 >= args.terms)
        values = islice(linearize_rows(stat, build_rows(stat, k, n_max, DEFAULT_ROUTE[stat])), args.terms)
    with _emit(args.out) as write:
        rows_to_bfile(values, offset, write)
    return 0


def _cmd_memory(args) -> int:
    if args.format == "csv" and not args.exhaustive:
        raise ValueError("--format csv needs --exhaustive")
    if args.sample is not None and args.format not in (None, "json"):
        raise ValueError(f"--sample writes json; --format {args.format} does not apply")
    if args.exhaustive and args.format == "text":
        raise ValueError("--exhaustive writes csv or json; --format text does not apply")
    oracle_budget(args.budget)  # a bad budget is an error in every mode
    board = (
        memory_game.board_from_spec(args.board)
        if ":" in args.board and not args.board.endswith(".json")
        else _board_from_file(args.board)
    )
    k = args.k
    n = board.vertex_count // k if board.vertex_count % k == 0 else None
    if args.sample is not None:
        result = memory_game.sample_placements(board, k, args.sample, args.seed)
        payload = {
            "board": board.label,
            "k": k,
            "n": n,
            "samples": result.samples,
            "seed": result.seed,
            "rng_algorithm": result.rng_algorithm,
            "mean": str(result.mean),
            "mean_decimal": asymptotics.decimal_str(result.mean),
            "stderr": repr(result.stderr),
            "histogram": {str(key): val for key, val in sorted(result.histogram.items())},
        }
    elif args.exhaustive:
        hist = sorted(memory_game.exhaustive_distribution(board, k, budget=args.budget).items())
        payload = {
            "board": board.label,
            "k": k,
            "histogram": [{"polyominoes": p, "components": c, "count": count} for (p, c), count in hist],
        }
    else:
        r = memory_game.connected_k_subgraphs(board, k)
        payload = {"board": board.label, "k": k, "connected_k_subgraphs": r}
        if args.mean:
            mean = memory_game.mean_polyominoes(board, k)
            payload["n"] = n
            payload["mean_polyominoes"] = str(mean)
            payload["mean_decimal"] = asymptotics.decimal_str(mean)
    with _emit(args.out) as write:
        if args.format == "json" or args.sample is not None:
            write(json.dumps(payload, indent=2) + "\n")
        elif args.exhaustive:
            write("polyominoes,components,count\n")
            for (p, c), count in hist:
                write(f"{p},{c},{count}\n")
        else:
            write(" ".join(f"{key}={val}" for key, val in payload.items()) + "\n")
    return 0


def _board_from_file(path: str) -> memory_game.Board:
    """The board of a JSON file; every error in its content names the file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
            if not isinstance(data, dict) or not {"vertices", "edges"} <= data.keys():
                raise ValueError("a board file is a JSON object with 'vertices' and 'edges'")
            return memory_game.board_from_edges(data["vertices"], data["edges"], label=path)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _cmd_asympt(args) -> int:
    if args.kind == "nc-short":
        report = asymptotics.nc_mean_report(args.k, args.n)
    else:
        kind = "short_chords" if args.kind == "short" else "components"
        report = asymptotics.poisson_convergence_report(args.k, args.n, kind)
    with _emit(args.out) as write:
        if args.format == "csv":
            write(report.to_csv_text())
        else:
            write(json.dumps(report.to_json_dict(), indent=2) + "\n")
    return 0


# --- verify -------------------------------------------------------------
# A check takes (rows, k, n_max, m_max, budget), where rows(stat,
# route) is that route's table, built once per run.  It returns its
# success line, its first MISMATCH line, or "" when it does not apply.

# The routes that derive each table; the oracle is checked on its own.
DERIVED_ROUTES = {stat: tuple(r for r in routes if r != "oracle") for stat, routes in ROUTES.items()}


def _row_mismatch(k: int, n: int, coord: str, first: str, a, other: str, b) -> str:
    for j, (va, vb) in enumerate(zip_longest(a, b, fillvalue=0)):
        if va != vb:
            return f"MISMATCH k={k} n={n} {coord}={j} {first}={va} {other}={vb}\n"
    return ""


def _route_mismatch(rows, k: int, stat: str, coord: str) -> str:
    first, *others = DERIVED_ROUTES[stat]
    for other in others:
        for n, (a, b) in enumerate(zip(rows(stat, first), rows(stat, other))):
            if mismatch := _row_mismatch(k, n, coord, first, a, other, b):
                return mismatch
    return ""


def _short_routes(rows, k, n_max, *_) -> str:
    agreed = "/".join(DERIVED_ROUTES["short"])
    return _route_mismatch(rows, k, "short", "s") or f"short-chord table: {agreed} agree, n <= {n_max}\n"


def _short_row_sums(rows, k, *_) -> str:
    for n, row in enumerate(rows("short", "closed")):
        if sum(row) != counting.total_diagrams(k, n):
            return f"MISMATCH k={k} n={n} row_sum={sum(row)} total={counting.total_diagrams(k, n)}\n"
    return "short-chord row sums match the diagram totals\n"


def _short_mean(rows, k, *_) -> str:
    for n, row in enumerate(rows("short", "closed")[1:], 1):
        lhs = counting.mean_short_chords(k, n) * counting.total_diagrams(k, n)
        rhs = sum(s * c for s, c in enumerate(row))
        if lhs != rhs:
            return f"MISMATCH k={k} n={n} mean_identity lhs={lhs} rhs={rhs}\n"
    return "short-chord mean identity holds\n"


def _component_routes(rows, k, n_max, *_) -> str:
    last = rows("components", "closed")[n_max]
    if mismatch := _route_mismatch(rows, k, "components", "q") or _row_mismatch(
        k, n_max, "q", "closed", last, "component_row", counting.component_row(k, n_max)
    ):
        return mismatch
    for n, row in enumerate(rows("components", "series")):  # closed rows sum to N(k, n) by construction
        if sum(row) != counting.total_diagrams(k, n):
            return f"MISMATCH k={k} n={n} component row sum\n"
    agreed = "/".join(DERIVED_ROUTES["components"])
    return f"components table: {agreed} agree, n <= {n_max}\n"


def _noncrossing_routes(rows, k, _n_max, m_max, *_) -> str:
    last = rows("nc-short", "recurrence")[m_max]
    if mismatch := _route_mismatch(rows, k, "nc-short", "s") or _row_mismatch(
        k, m_max, "s", "recurrence", last, "noncrossing_row", tables.noncrossing_row(k, m_max)
    ):
        return mismatch
    for m, row in enumerate(rows("nc-short", "recurrence")):
        if sum(row) != tables.fuss_catalan(k, m):
            return f"MISMATCH k={k} m={m} non-crossing row sum vs Fuss-Catalan\n"
    agreed = "/".join(DERIVED_ROUTES["nc-short"])
    return f"non-crossing table: {agreed} agree and rows sum to Fuss-Catalan, m <= {m_max}\n"


def _narayana_k2(rows, k, *_) -> str:
    if k != 2:
        return ""
    for m, row in enumerate(rows("nc-short", "recurrence")[1:], 1):
        for s in range(m + 1):
            if row[s] != counting.narayana(m, s):
                return f"MISMATCH k=2 m={m} s={s} narayana={counting.narayana(m, s)} table={row[s]}\n"
    return "k=2 non-crossing table matches the Narayana triangle\n"


def _triples_k2(rows, k, n_max, *_) -> str:
    if k != 2:
        return ""
    for n in range(min(n_max, 7) + 1):
        for m, row in enumerate(series.triple_table(2, n)):
            for s, count in enumerate(row):
                expect = counting.triple_count_closed_k2(n, s, m)
                if count != expect:
                    return f"MISMATCH k=2 n={n} s={s} m={m} closed={expect} series={count}\n"
    return "k=2 triple counts match the closed form\n"


def _oracle_agreement(rows, k, n_max, m_max, budget) -> str:
    """Folds one survey per n, within the budget, into the d, c, T and
    triple rows and compares them with the derived tables."""
    within = [n for n in range(n_max + 1) if counting.total_diagrams(k, n) <= oracle_budget(budget)]
    for n in within:
        hist = diagrams.survey(k, n, budget=budget)
        against = [("short-chord", "s", "short", "closed"), ("component", "q", "components", "closed")]
        if n <= m_max:
            against.append(("non-crossing", n, "nc-short", "recurrence"))
        for label, coord, stat, route in against:
            got, want = _fold(hist, n, coord), rows(stat, route)[n]
            if _trim(got) != _trim(want):
                return f"MISMATCH k={k} n={n} oracle {label} row {list(got)} vs {want}\n"
        for m, row in enumerate(series.triple_table(k, n)):
            got = _fold(hist, n, m)
            for s, want in enumerate(row):
                if got[s] != want:
                    return f"MISMATCH k={k} n={n} s={s} m={m} oracle={got[s]} series={want}\n"
    return f"oracle agreement (d, c, T, triple) for n <= {within[-1]}\n" if within else ""


VERIFY_CHECKS = (
    _short_routes, _short_row_sums, _short_mean, _component_routes,
    _noncrossing_routes, _narayana_k2, _triples_k2, _oracle_agreement,
)


def run_verify(
    k: int,
    n_max: int,
    m_max: int | None = None,
    budget: int | None = None,
    write=None,
) -> int:
    """Run ``VERIFY_CHECKS`` in order, writing the line each returns;
    0 when all agree, 1 at the first mismatch."""
    write = write or sys.stdout.write
    m_max = n_max if m_max is None else m_max

    @functools.cache
    def rows(stat: str, route: str) -> list:
        return list(build_rows(stat, k, m_max if stat == "nc-short" else n_max, route, budget))

    for check in VERIFY_CHECKS:
        line = check(rows, k, n_max, m_max, budget)
        write(line)
        if line.startswith("MISMATCH"):
            return 1
    write("all agree\n")
    return 0


def _cmd_verify(args) -> int:
    chunks: list[str] = []
    code = run_verify(args.k, args.n_max, args.m_max, budget=args.budget, write=chunks.append)
    with _emit(args.out) as write:
        write("".join(chunks))
    return code


# --- parser -------------------------------------------------------------


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # argparse would name the type function, not the type
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def positive_int(text: str, low: int = 1) -> int:
    value = _int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    return positive_int(text, 0)


def int_list(text: str) -> list[int]:
    return [_int(tok) for tok in text.split(",") if tok.strip()]


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one ``error: <message>`` line, exit 2."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _stats_arguments(p) -> None:
    p.add_argument("--word", required=True, help="comma-separated label word, e.g. 0,1,0,1")
    p.add_argument("--k", type=int, default=None, help="block size (inferred when omitted)")
    p.add_argument("--format", choices=("text", "json"), default="text")


JOBS_HELP = "checked to be at least 1, then ignored: every oracle walks its diagrams in one process"


def _table_arguments(p) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--stat", choices=STATS, required=True)
    p.add_argument("--n-max", type=int, required=True, help="largest row (m-max for nc-short)")
    p.add_argument("--route", default=None, help="closed|kp1|kp2|series|recurrence|oracle")
    p.add_argument("--format", choices=("csv", "json", "bfile"), default="csv")
    p.add_argument("--offset", type=int, default=None, help="first index for bfile output (default 1)")
    p.add_argument("--jobs", type=positive_int, default=1, help=JOBS_HELP)
    p.add_argument("--budget", type=int, default=None)


def _verify_arguments(p) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--m-max", type=nonnegative_int, default=None)
    p.add_argument("--jobs", type=positive_int, default=1, help=JOBS_HELP)
    p.add_argument("--budget", type=int, default=None)


def _series_arguments(p) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--gf", choices=("F", "C", "T", "L"), required=True)
    p.add_argument("--order", type=nonnegative_int, required=True)
    p.add_argument("--order2", type=nonnegative_int, default=None)


def _oeis_arguments(p) -> None:
    p.add_argument("--seq", required=True)
    p.add_argument("--terms", type=nonnegative_int, default=20)
    p.add_argument("--k", type=int, default=None, help="slice parameter where required")
    p.add_argument("--offset", type=int, default=None)


def _memory_arguments(p) -> None:
    p.add_argument("--board", required=True, help="path:M | grid:RxC | torus:RxC (ASCII digits, no leading zero)"
                   ' | JSON file {"vertices": V, "edges": [[u, v], ...]}')
    p.add_argument("--k", type=positive_int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--mean", action="store_true", help="exact mean polyomino count")
    mode.add_argument("--exhaustive", action="store_true", help="full (polyominoes, components) histogram")
    mode.add_argument("--sample", type=positive_int, default=None, help="Monte Carlo sample count")
    p.add_argument("--seed", type=nonnegative_int, default=0)
    p.add_argument("--format", choices=("text", "json", "csv"), default=None, help="default text; json for --sample")
    p.add_argument("--budget", type=int, default=None)


def _asympt_arguments(p) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", choices=STATS, default="short")
    p.add_argument("--n", type=int_list, required=True, help="comma-separated n values")
    p.add_argument("--format", choices=("json", "csv"), default="json")


# name -> (help, adds the arguments, handler); every subcommand also takes --out.
SUBCOMMANDS = {
    "stats": ("statistics of one diagram word", _stats_arguments, _cmd_stats),
    "table": ("count table for one statistic", _table_arguments, _cmd_table),
    "verify": ("cross-route and oracle agreement", _verify_arguments, _cmd_verify),
    "series": ("generating-function coefficients as JSON", _series_arguments, _cmd_series),
    "oeis": ("b-file for a registered sequence", _oeis_arguments, _cmd_oeis),
    "memory": ("memory game on a board graph", _memory_arguments, _cmd_memory),
    "asympt": ("convergence report for a statistic", _asympt_arguments, _cmd_asympt),
}


def _add_subcommand(p, name: str) -> argparse.ArgumentParser:
    _, add_arguments, handler = SUBCOMMANDS[name]
    add_arguments(p)
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(command=name, func=handler)
    return p


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every subcommand under ``kchord``."""
    parser = _Parser(
        prog="kchord",
        description="Linear k-chord diagrams: exact counts, series, asymptotics, and the memory game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, *_) in SUBCOMMANDS.items():
        _add_subcommand(sub.add_parser(name, help=help_text), name)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse a command line as ``build_parser`` does, building only the
    named subcommand's parser when ``argv[0]`` names one."""
    if argv and argv[0] in SUBCOMMANDS:
        return _add_subcommand(_Parser(prog=f"kchord {argv[0]}"), argv[0]).parse_args(argv[1:])
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    # Exact counts outgrow CPython's default 4300-digit int/str limit.
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (counting.SelfCheckError, decimal.DecimalException) as exc:  # a program fault, whatever the input
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 4
    except (BudgetExceededError, ValueError, ArithmeticError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BudgetExceededError) else 2
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
