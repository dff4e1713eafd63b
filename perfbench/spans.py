"""Layer spans recorded from outside kchord, and the metrics read from them.

``install`` replaces public functions where their callers look them up
(a module attribute, or a method on its class) with wrappers that open
a span: name, start, end, parent, and a work count taken from the
result.  Spans stay in memory; the worker writes them out when the
command ends.  ``layer_metrics`` turns the spans of one round of
commands into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import time

LAYERS = ("cli", "diagrams", "memory_game", "tables", "counting", "series", "asymptotics")

# Boards up to this many vertices take the sampler's lookup-table path.
LOOKUP_MAX_VERTICES = 22


def _histogram_total(result) -> int:
    return sum(result.values())


def _table_entries(result) -> int:
    return sum(len(row) for row in result.rows)


def _sample_kind(board, *_args, **_kwargs) -> str:
    path = "lookup" if board.vertex_count <= LOOKUP_MAX_VERTICES else "scan"
    return f"memory_game.sample_{path}"


# (module, attribute, span name or name-of-arguments, work count of the
# result, whether the function is a generator whose items are counted)
WRAPPED = (
    ("kchord.cli", "main", "cli.main", None, False),
    ("kchord.cli", "run_verify", "cli.verify", None, False),
    ("kchord.cli", "rows_to_csv", "cli.format", None, False),
    ("kchord.cli", "rows_to_json", "cli.format", None, False),
    ("kchord.cli", "rows_to_bfile", "cli.format", None, False),
    ("kchord.cli", "linearize_rows", "cli.format", None, False),
    ("kchord.cli", "survey_parallel", "diagrams.survey", _histogram_total, False),
    ("kchord.diagrams", "survey", "diagrams.survey", _histogram_total, False),
    ("kchord.cli", "enumerate_noncrossing", "diagrams.noncrossing", None, True),
    ("kchord.memory_game", "exhaustive_distribution", "memory_game.exhaustive", _histogram_total, False),
    ("kchord.memory_game", "connected_k_sets", "memory_game.connected_sets", None, True),
    ("kchord.memory_game", "sample_placements", _sample_kind, lambda r: r.samples, False),
    ("kchord.tables", "d_table_kp1", "tables.kp1", _table_entries, False),
    ("kchord.tables", "d_table_kp2", "tables.kp2", _table_entries, False),
    ("kchord.tables", "noncrossing_table", "tables.noncrossing", _table_entries, False),
    ("kchord.counting", "count_exact_short", "counting.closed", None, False),
    ("kchord.counting", "component_row", "counting.closed", None, False),
    ("kchord.tables", "count_zero_short", "counting.zero_short", None, False),
    ("kchord.series", "count_zero_short", "counting.zero_short", None, False),
    ("kchord.series", "F_series", "series.build", None, False),
    ("kchord.series", "C_series", "series.build", None, False),
    ("kchord.series", "T_series", "series.build", None, False),
    ("kchord.series", "L_series", "series.build", None, False),
    ("kchord.series", "BivariateSeries.__mul__", "series.mul", None, False),
    ("kchord.series", "triple_table", "series.triple_table", None, False),
    ("kchord.asymptotics", "poisson_convergence_report", "asymptotics.report", None, False),
    ("kchord.asymptotics", "nc_mean_report", "asymptotics.report", None, False),
    ("kchord.asymptotics", "tv_distance_interval", "asymptotics.tv", None, False),
)


class Tracer:
    """Spans as lists ``[name, start, end, parent index, work]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, 0])
        self._open.append(index)
        return index

    def close(self, index: int, work: int = 0) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = work
        self._open.remove(index)


def _wrap(tracer: Tracer, fn, name, work, generator: bool):
    span_name = name if callable(name) else (lambda *a, **kw: name)

    if generator:

        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            index = tracer.open(span_name(*args, **kwargs))
            items = 0
            try:
                for item in fn(*args, **kwargs):
                    items += 1
                    yield item
            finally:
                tracer.close(index, items)

        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(span_name(*args, **kwargs))
        done = 0
        try:
            result = fn(*args, **kwargs)
            done = work(result) if work else 0
            return result
        finally:
            tracer.close(index, done)

    return traced


def install() -> tuple[Tracer, list[str]]:
    """Wrap every function in WRAPPED that exists.

    Returns the tracer the wrappers report to and the targets that were
    not found (their metrics then read 0).
    """
    tracer = Tracer()
    missing = []
    for module_name, attr, name, work, generator in WRAPPED:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if not callable(getattr(owner, leaf, None)):
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(owner, leaf, _wrap(tracer, getattr(owner, leaf), name, work, generator))
    return tracer, missing


# --- aggregation ---------------------------------------------------------------

TIMES = {
    "cli.format_s": "cli.format",
    "cli.verify_s": "cli.verify",
    "diagrams.survey_s": "diagrams.survey",
    "diagrams.noncrossing_s": "diagrams.noncrossing",
    "memory_game.exhaustive_s": "memory_game.exhaustive",
    "memory_game.connected_sets_s": "memory_game.connected_sets",
    "tables.kp1_s": "tables.kp1",
    "tables.kp2_s": "tables.kp2",
    "tables.noncrossing_s": "tables.noncrossing",
    "counting.closed_s": "counting.closed",
    "series.build_s": "series.build",
    "series.mul_s": "series.mul",
    "series.triple_table_s": "series.triple_table",
    "asymptotics.tv_s": "asymptotics.tv",
}

# rate metric -> (span name, unit, divide by self time instead of span time)
RATES = {
    "diagrams.survey_rate": ("diagrams.survey", "diagrams/s", False),
    "diagrams.noncrossing_rate": ("diagrams.noncrossing", "diagrams/s", False),
    "memory_game.exhaustive_rate": ("memory_game.exhaustive", "deals/s", False),
    "memory_game.lookup_rate": ("memory_game.sample_lookup", "samples/s", True),
    "memory_game.scan_rate": ("memory_game.sample_scan", "samples/s", True),
}

UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: "s" for name in TIMES},
    **{name: unit for name, (_, unit, _) in RATES.items()},
    "tables.entries_built": "count",
    "series.mul_calls": "count",
}


def layer_metrics(commands: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics of one round, from the span lists of its commands.

    A name's time sums its outermost spans (those with no ancestor of the
    same name); a layer's self time sums, over its spans, the duration
    minus the durations of direct children.
    """
    total: dict[str, float] = {}
    selfs: dict[str, float] = {}
    work: dict[str, int] = {}
    calls: dict[str, int] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for spans in commands:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, done) in enumerate(spans):
            own = end - start - child_time[index]
            layer_self[name.split(".")[0]] += own
            selfs[name] = selfs.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                total[name] = total.get(name, 0.0) + end - start
                work[name] = work.get(name, 0) + done

    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    out.update({metric: total.get(name, 0.0) for metric, name in TIMES.items()})
    for metric, (name, _, by_self) in RATES.items():
        seconds = (selfs if by_self else total).get(name, 0.0)
        out[metric] = work.get(name, 0) / seconds if seconds > 0 else 0.0
    out["tables.entries_built"] = sum(
        work.get(name, 0) for name in ("tables.kp1", "tables.kp2", "tables.noncrossing")
    )
    out["series.mul_calls"] = calls.get("series.mul", 0)
    return out
