"""Command-line interface.

Subcommands: ``stats`` (one diagram), ``table`` (count tables by any
route), ``verify`` (cross-route and oracle agreement), ``series``
(generating-function coefficient dumps), ``oeis`` (b-file emission),
``memory`` (board game statistics and sampling), ``asympt``
(convergence reports).

Exit codes: 0 success, 1 verification mismatch, 2 invalid
configuration, 3 enumeration budget exceeded.  Identical configuration
produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import asymptotics, counting, memory_game, series, tables
from .diagrams import (
    BudgetExceededError,
    canonicalize,
    encode_lattice_path,
    noncrossing_survey,
    oracle_budget,
    stats as diagram_stats,
    survey,
    survey_parallel,
)

STATS = ("short", "components", "nc-short")
ROUTE_ALIASES = {"closed_form": "closed", "closed-form": "closed"}
ROUTES_BY_STAT = {
    "short": ("closed", "kp1", "kp2", "series", "oracle"),
    "components": ("closed", "series", "oracle"),
    "nc-short": ("recurrence", "series", "oracle"),
}
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


def _emit(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


# --- table construction by route ---------------------------------------


def _short_rows(k: int, n_max: int, route: str, jobs: int, budget: int | None):
    if route == "closed":
        return [tuple(counting.short_chord_row(k, n)) for n in range(n_max + 1)]
    if route == "kp1":
        return list(tables.d_table_kp1(k, n_max).rows)
    if route == "kp2":
        return list(tables.d_table_kp2(k, n_max).rows)
    if route == "series":
        f = series.F_series(k, n_max)
        return [tuple(f.coefficient(n, s) for s in range(n + 1)) for n in range(n_max + 1)]
    if route == "oracle":
        rows = []
        for n in range(n_max + 1):
            hist = survey_parallel(k, n, jobs=jobs, budget=budget)
            row = [0] * (n + 1)
            for (s, _q, _m), count in hist.items():
                row[s] += count
            rows.append(tuple(row))
        return rows
    raise ValueError(f"route {route!r} not applicable to the short-chord table")


def _component_rows(k: int, n_max: int, route: str, jobs: int, budget: int | None):
    if route == "closed":
        return [_trim(counting.component_row(k, n)) for n in range(n_max + 1)]
    if route == "series":
        c = series.C_series(k, n_max)
        return [
            _trim(tuple(c.coefficient(n, q) for q in range(n + 1)))
            for n in range(n_max + 1)
        ]
    if route == "oracle":
        rows = []
        for n in range(n_max + 1):
            hist = survey_parallel(k, n, jobs=jobs, budget=budget)
            row = [0] * (n + 1)
            for (_s, q, _m), count in hist.items():
                row[q] += count
            rows.append(_trim(tuple(row)))
        return rows
    raise ValueError(f"route {route!r} not applicable to the components table")


def _nc_rows(k: int, m_max: int, route: str, budget: int | None):
    if route == "recurrence":
        return list(tables.noncrossing_table(k, m_max).rows)
    if route == "series":
        t = series.T_series(k, m_max, m_max)
        return [tuple(t.coefficient(m, s) for s in range(m + 1)) for m in range(m_max + 1)]
    if route == "oracle":
        return noncrossing_survey(k, m_max, budget)
    raise ValueError(f"route {route!r} not applicable to the non-crossing table")


def _trim(row) -> tuple[int, ...]:
    row = list(row)
    while len(row) > 1 and row[-1] == 0:
        row.pop()
    return tuple(row)


def build_rows(stat: str, k: int, n_max: int, route: str, jobs: int = 1, budget: int | None = None):
    if k < 2 or n_max < 0:
        raise ValueError("need k >= 2 and n_max >= 0")
    route = ROUTE_ALIASES.get(route, route)
    if route not in ROUTES_BY_STAT[stat]:
        raise ValueError(
            f"route {route!r} not applicable to stat {stat!r}; "
            f"choose from {', '.join(ROUTES_BY_STAT[stat])}"
        )
    if stat == "short":
        return _short_rows(k, n_max, route, jobs, budget)
    if stat == "components":
        return _component_rows(k, n_max, route, jobs, budget)
    return _nc_rows(k, n_max, route, budget)


def rows_to_csv(rows) -> str:
    lines = ["n,value,count"]
    for n, row in enumerate(rows):
        for value, count in enumerate(row):
            if count:
                lines.append(f"{n},{value},{count}")
    return "\n".join(lines) + "\n"


def rows_to_json(rows, k: int, stat: str) -> str:
    payload = {
        "k": k,
        "kind": stat,
        "rows": [[str(c) for c in row] for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def linearize_rows(stat: str, rows) -> list[int]:
    """Row-by-row reading of a table, matching the published triangles.

    Short-chord rows are full (s = 0..n); component rows drop trailing
    zeros; non-crossing rows start at s = 1.  Row 0 is never included.
    """
    out: list[int] = []
    for n, row in enumerate(rows):
        if n == 0:
            continue
        if stat == "short":
            out.extend(row)
        elif stat == "components":
            out.extend(_trim(row))
        else:
            out.extend(row[1:])
    return out


def rows_to_bfile(stat: str, rows, offset: int) -> str:
    values = linearize_rows(stat, rows)
    return "".join(f"{offset + i} {v}\n" for i, v in enumerate(values))


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
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        text = " ".join(f"{key}={val}" for key, val in payload.items())
        _emit(text + "\n", args.out)
    return 0


def _cmd_table(args) -> int:
    route = args.route or DEFAULT_ROUTE[args.stat]
    rows = build_rows(args.stat, args.k, args.n_max, route, args.jobs, args.budget)
    if args.format == "csv":
        _emit(rows_to_csv(rows), args.out)
    elif args.format == "json":
        _emit(rows_to_json(rows, args.k, args.stat), args.out)
    else:
        _emit(rows_to_bfile(args.stat, rows, args.offset), args.out)
    return 0


def _cmd_series(args) -> int:
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
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
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
        offset = args.offset if args.offset is not None else 1
        values = []
        n_max = 1
        while True:
            rows = build_rows(stat, k, n_max, DEFAULT_ROUTE[stat])
            values = linearize_rows(stat, rows)
            if len(values) >= args.terms:
                break
            n_max += 1
        values = values[: args.terms]
    _emit("".join(f"{offset + i} {v}\n" for i, v in enumerate(values)), args.out)
    return 0


def _cmd_memory(args) -> int:
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
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    if args.exhaustive:
        hist = memory_game.exhaustive_distribution(board, k, budget=args.budget)
        if args.format == "json":
            payload = {
                "board": board.label,
                "k": k,
                "histogram": [
                    {"polyominoes": p, "components": c, "count": count}
                    for (p, c), count in sorted(hist.items())
                ],
            }
            _emit(json.dumps(payload, indent=2) + "\n", args.out)
        else:
            lines = ["polyominoes,components,count"]
            for (p, c), count in sorted(hist.items()):
                lines.append(f"{p},{c},{count}")
            _emit("\n".join(lines) + "\n", args.out)
        return 0
    r = memory_game.connected_k_subgraphs(board, k)
    payload = {"board": board.label, "k": k, "connected_k_subgraphs": r}
    if args.mean:
        mean = memory_game.mean_polyominoes(board, k)
        payload["n"] = n
        payload["mean_polyominoes"] = str(mean)
        payload["mean_decimal"] = asymptotics.decimal_str(mean)
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(" ".join(f"{key}={val}" for key, val in payload.items()) + "\n", args.out)
    return 0


def _board_from_file(path: str) -> memory_game.Board:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or not {"vertices", "edges"} <= data.keys():
        raise ValueError(f"{path}: a board file is a JSON object with 'vertices' and 'edges'")
    return memory_game.board_from_edges(data["vertices"], data["edges"], label=path)


def _cmd_asympt(args) -> int:
    n_values = [int(tok) for tok in args.n.split(",") if tok.strip()]
    if args.kind == "nc-short":
        report = asymptotics.nc_mean_report(args.k, n_values)
    else:
        kind = "short_chords" if args.kind == "short" else "components"
        report = asymptotics.poisson_convergence_report(args.k, n_values, kind)
    if args.format == "csv":
        _emit(report.to_csv_text(), args.out)
    else:
        _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", args.out)
    return 0


# --- verify -------------------------------------------------------------


def _compare_rows(write, k, label_a, rows_a, label_b, rows_b, coord: str) -> bool:
    depth = min(len(rows_a), len(rows_b))
    for n in range(depth):
        ra, rb = rows_a[n], rows_b[n]
        for j in range(max(len(ra), len(rb))):
            va = ra[j] if j < len(ra) else 0
            vb = rb[j] if j < len(rb) else 0
            if va != vb:
                write(
                    f"MISMATCH k={k} n={n} {coord}={j} "
                    f"{label_a}={va} {label_b}={vb}\n"
                )
                return False
    return True


def run_verify(
    k: int,
    n_max: int,
    m_max: int | None = None,
    jobs: int = 1,
    budget: int | None = None,
    write=None,
) -> int:
    """Cross-check every route against every other, and the oracle.

    Returns 0 when all agree, 1 at the first mismatch.
    """
    if write is None:
        write = sys.stdout.write
    if m_max is None:
        m_max = n_max
    cap = oracle_budget(budget)

    by_route = {
        route: _short_rows(k, n_max, route, jobs, budget)
        for route in ("closed", "kp1", "kp2", "series")
    }
    base = by_route["closed"]
    for other in ("kp1", "kp2", "series"):
        if not _compare_rows(write, k, "closed", base, other, by_route[other], "s"):
            return 1
    write(f"short-chord table: closed/kp1/kp2/series agree, n <= {n_max}\n")

    for n in range(n_max + 1):
        if sum(base[n]) != counting.total_diagrams(k, n):
            write(f"MISMATCH k={k} n={n} row_sum={sum(base[n])} total={counting.total_diagrams(k, n)}\n")
            return 1
    write("short-chord row sums match the diagram totals\n")

    for n in range(1, n_max + 1):
        lhs = counting.mean_short_chords(k, n) * counting.total_diagrams(k, n)
        rhs = sum(s * c for s, c in enumerate(base[n]))
        if lhs != rhs:
            write(f"MISMATCH k={k} n={n} mean_identity lhs={lhs} rhs={rhs}\n")
            return 1
    write("short-chord mean identity holds\n")

    comp = {
        route: _component_rows(k, n_max, route, jobs, budget)
        for route in ("closed", "series")
    }
    if not _compare_rows(write, k, "closed", comp["closed"], "series", comp["series"], "q"):
        return 1
    for n in range(n_max + 1):
        if sum(comp["closed"][n]) != counting.total_diagrams(k, n):
            write(f"MISMATCH k={k} n={n} component row sum\n")
            return 1
    write(f"components table: closed/series agree, n <= {n_max}\n")

    nc = {route: _nc_rows(k, m_max, route, budget) for route in ("recurrence", "series")}
    if not _compare_rows(write, k, "recurrence", nc["recurrence"], "series", nc["series"], "s"):
        return 1
    for m in range(m_max + 1):
        if sum(nc["recurrence"][m]) != tables.fuss_catalan(k, m):
            write(f"MISMATCH k={k} m={m} non-crossing row sum vs Fuss-Catalan\n")
            return 1
    write(f"non-crossing table: recurrence/series agree and rows sum to Fuss-Catalan, m <= {m_max}\n")

    if k == 2:
        for m in range(1, m_max + 1):
            for s in range(m + 1):
                expect = counting.narayana(m, s)
                if nc["recurrence"][m][s] != expect:
                    write(f"MISMATCH k=2 m={m} s={s} narayana={expect} table={nc['recurrence'][m][s]}\n")
                    return 1
        write("k=2 non-crossing table matches the Narayana triangle\n")
        for n in range(min(n_max, 7) + 1):
            trip = series.triple_table(2, n)
            for m in range(n + 1):
                for s in range(m + 1):
                    expect = counting.triple_count_closed_k2(n, s, m)
                    if trip[m][s] != expect:
                        write(f"MISMATCH k=2 n={n} s={s} m={m} closed={expect} series={trip[m][s]}\n")
                        return 1
        write("k=2 triple counts match the closed form\n")

    checked = []
    for n in range(n_max + 1):
        if counting.total_diagrams(k, n) > cap:
            break
        hist = survey_parallel(k, n, jobs=jobs, budget=budget)
        d_row = [0] * (n + 1)
        c_row = [0] * (n + 1)
        t_row = [0] * (n + 1)
        trip_or: dict[tuple[int, int], int] = {}
        for (s, q, m), count in hist.items():
            d_row[s] += count
            c_row[q] += count
            if m == n:
                t_row[s] += count
            key = (m, s)
            trip_or[key] = trip_or.get(key, 0) + count
        if tuple(d_row) != tuple(base[n]):
            write(f"MISMATCH k={k} n={n} oracle short-chord row {d_row} vs {base[n]}\n")
            return 1
        if _trim(c_row) != tuple(comp["closed"][n]):
            write(f"MISMATCH k={k} n={n} oracle component row {c_row} vs {comp['closed'][n]}\n")
            return 1
        if n <= m_max and tuple(t_row) != tuple(nc["recurrence"][n]):
            write(f"MISMATCH k={k} n={n} oracle non-crossing row {t_row} vs {nc['recurrence'][n]}\n")
            return 1
        trip = series.triple_table(k, n)
        for m in range(n + 1):
            for s in range(m + 1):
                expect = trip[m][s]
                got = trip_or.get((m, s), 0)
                if expect != got:
                    write(f"MISMATCH k={k} n={n} s={s} m={m} oracle={got} series={expect}\n")
                    return 1
        checked.append(n)
    if checked:
        write(f"oracle agreement (d, c, T, triple) for n <= {checked[-1]}\n")
    write("all agree\n")
    return 0


def _cmd_verify(args) -> int:
    chunks: list[str] = []
    code = run_verify(
        args.k, args.n_max, args.m_max, jobs=args.jobs, budget=args.budget, write=chunks.append
    )
    _emit("".join(chunks), args.out)
    return code


# --- parser -------------------------------------------------------------


def positive_int(text: str, low: int = 1) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    return positive_int(text, 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kchord",
        description="Linear k-chord diagrams: exact counts, series, asymptotics, and the memory game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("stats", help="statistics of one diagram word")
    p.add_argument("--word", required=True, help="comma-separated label word, e.g. 0,1,0,1")
    p.add_argument("--k", type=int, default=None, help="block size (inferred when omitted)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    common(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("table", help="count table for one statistic")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--stat", choices=STATS, required=True)
    p.add_argument("--n-max", type=int, required=True, help="largest row (m-max for nc-short)")
    p.add_argument("--route", default=None, help="closed|kp1|kp2|series|recurrence|oracle")
    p.add_argument("--format", choices=("csv", "json", "bfile"), default="csv")
    p.add_argument("--offset", type=int, default=1, help="first index for bfile output")
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--budget", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="cross-route and oracle agreement")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--budget", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("series", help="generating-function coefficients as JSON")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--gf", choices=("F", "C", "T", "L"), required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--order2", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("oeis", help="b-file for a registered sequence")
    p.add_argument("--seq", required=True)
    p.add_argument("--terms", type=nonnegative_int, default=20)
    p.add_argument("--k", type=int, default=None, help="slice parameter where required")
    p.add_argument("--offset", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_oeis)

    p = sub.add_parser("memory", help="memory game on a board graph")
    p.add_argument("--board", required=True, help="path:M | grid:RxC | torus:RxC | file.json")
    p.add_argument("--k", type=positive_int, required=True)
    p.add_argument("--mean", action="store_true", help="exact mean polyomino count")
    p.add_argument("--exhaustive", action="store_true", help="full (polyominoes, components) histogram")
    p.add_argument("--sample", type=int, default=None, help="Monte Carlo sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--budget", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_memory)

    p = sub.add_parser("asympt", help="convergence report for a statistic")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", choices=STATS, default="short")
    p.add_argument("--n", required=True, help="comma-separated n values")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p)
    p.set_defaults(func=_cmd_asympt)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    # Exact counts outgrow CPython's default 4300-digit int/str limit.
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
