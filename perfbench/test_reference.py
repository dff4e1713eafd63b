"""Tests of the benchmark's own reference values, checks and span bookkeeping.

    python3 -m pytest perfbench -p no:cacheprovider

The references are checked against literal enumeration of small
diagrams and boards, written here from the definitions, and against
published values; none of it imports kchord.
"""

import json
from fractions import Fraction
from itertools import combinations
from math import comb, exp

import pytest

import reference as ref
import spans
import workloads


def diagrams(k: int, n: int):
    """Every partition of 0..kn-1 into n blocks of size k."""

    def walk(free, blocks):
        if not free:
            yield blocks
            return
        for partners in combinations(free[1:], k - 1):
            block = (free[0],) + partners
            yield from walk([v for v in free if v not in block], blocks + [block])

    yield from walk(list(range(k * n)), [])


def is_short(block) -> bool:
    return block[-1] - block[0] == len(block) - 1


def runs(blocks) -> int:
    starts = {b[0] for b in blocks if is_short(b)}
    k = len(blocks[0]) if blocks else 1
    return sum(1 for s in starts if s - k not in starts)


def crossing(a, b) -> bool:
    return any(x < y < z < w for x, z in combinations(a, 2) for y, w in combinations(b, 2)) or any(
        x < y < z < w for x, z in combinations(b, 2) for y, w in combinations(a, 2)
    )


def noncrossing(blocks) -> bool:
    return not any(crossing(a, b) for a, b in combinations(blocks, 2))


SMALL = [(2, n) for n in range(6)] + [(3, n) for n in range(4)] + [(4, 2), (4, 3)]


@pytest.mark.parametrize("k,n", SMALL)
def test_counts_match_enumeration(k, n):
    all_blocks = list(diagrams(k, n))
    assert len(all_blocks) == ref.total(k, n)
    shorts = [sum(map(is_short, b)) for b in all_blocks]
    assert [shorts.count(s) for s in range(n + 1)] == [ref.short_entry(k, n, s) for s in range(n + 1)]
    if n:
        assert sum(shorts) == ref.short_mean_sum(k, n)
    comps = [runs(b) for b in all_blocks]
    assert [comps.count(q) for q in range(n + 1)] == [ref.component_entry(k, n, q) for q in range(n + 1)]
    assert sum(comps) == ref.component_mean_sum(k, n)
    nc = [sum(map(is_short, b)) for b in all_blocks if noncrossing(b)]
    assert len(nc) == ref.fuss_catalan(k, n)
    assert [nc.count(s) for s in range(n + 1)] == [ref.noncrossing_entry(k, n, s) for s in range(n + 1)]


def test_published_values():
    # d(3, 4, s), c(3, 4, q) and T(7, s) for k = 3 (OEIS A334056, A334060, A091320)
    assert [ref.short_entry(3, 4, s) for s in range(5)] == [12861, 2296, 226, 16, 1]
    assert [ref.component_entry(3, 4, q) for q in range(5)] == [12861, 2352, 183, 4, 0]
    assert [ref.noncrossing_entry(3, 7, s) for s in range(1, 8)] == [64, 912, 2920, 2875, 903, 77, 1]
    # k = 2: the Narayana triangle, and a mean of exactly one short chord
    assert [ref.noncrossing_entry(2, 5, s) for s in range(1, 6)] == [1, 10, 20, 10, 1]
    assert all(ref.short_mean_sum(2, n) == ref.total(2, n) for n in range(1, 40))


def test_lattice_entries_expand_the_series():
    k, order = 3, 12
    # 1 / (1 - y(1 + x^k y^(k-1))) = sum_t y^t (1 + x^k y^(k-1))^t
    coeff = {}
    for t in range(order + 1):
        for j in range(t + 1):
            key = (k * j, t + (k - 1) * j)
            coeff[key] = coeff.get(key, 0) + comb(t, j)
    for i in range(order + 1):
        for t in range(order + 1):
            assert ref.lattice_entry(k, i, t) == coeff.get((i, t), 0), (i, t)


def test_tv_to_poisson_two_point_row():
    # row (1, 1): masses 1/2, 1/2 against Poisson(1)
    q0 = q1 = exp(-1)
    want = (abs(0.5 - q0) + abs(0.5 - q1) + (1 - q0 - q1)) / 2
    assert ref.tv_to_poisson([1, 1], 2, Fraction(1)) == pytest.approx(want, abs=1e-15)


def test_boards():
    assert ref.board_edges("path:4") == (4, {(0, 1), (1, 2), (2, 3)})
    vertices, edges = ref.board_edges("grid:3x4")
    assert vertices == 12 and len(edges) == 3 * 3 + 2 * 4
    assert len(ref.board_edges("torus:3x3")[1]) == 18
    assert len(ref.board_edges("torus:2x2")[1]) == 4  # wrap edges merge with grid edges
    assert len(ref.connected_subsets(*ref.board_edges("path:9"), 3)) == 7
    assert ref.mean_polyominoes(*ref.board_edges("grid:2x2"), 2) == Fraction(4, 3)
    assert ref.mean_polyominoes(*ref.board_edges("grid:8x9"), 2) == Fraction(127, 71)


@pytest.mark.parametrize("k,n", [(2, 4), (3, 3)])
def test_deal_histogram_on_a_path(k, n):
    hist = ref.deal_histogram(*ref.board_edges(f"path:{k * n}"), k)
    polys, comps = [0] * (n + 1), [0] * (n + 1)
    for (p, c), count in hist.items():
        polys[p] += count
        comps[c] += count
    assert polys == [ref.short_entry(k, n, s) for s in range(n + 1)]
    assert comps == [ref.component_entry(k, n, q) for q in range(n + 1)]


def test_output_readers():
    rows = [[1], [0, 1], [0, 2, 1], [0, 4, 7, 1]]
    text = "".join(f"{i + 1} {v}\n" for i, v in enumerate([1, 2, 1, 4, 7, 1]))
    assert workloads.bfile_rows(text, 3) == rows
    assert workloads.table_rows("n,value,count\n0,0,1\n1,1,1\n2,0,2\n2,2,1\n", "csv", 2) == [
        [1],
        [0, 1],
        [2, 0, 1],
    ]
    assert workloads.truncated("0.333333333333333333", Fraction(1, 3))
    assert not workloads.truncated("0.333333333333333334", Fraction(1, 3))
    assert workloads.rounded_up("0.333333333333333334", Fraction(1, 3))


def test_sample_check_names_only_the_off_mean_as_the_fault():
    op = workloads.sample("path:4", 2, 4, 9, known_fault="wrapped masks")
    exact = ref.mean_polyominoes(*ref.board_edges("path:4"), 2)
    off = int(exact) + 5
    hist = {off: 2, off + 1: 2}
    mean = Fraction(2 * off + 2 * (off + 1), 4)
    payload = {"samples": 4, "seed": 9, "histogram": {str(v): c for v, c in hist.items()},
               "mean": str(mean), "stderr": (1 / 3 / 4) ** 0.5}
    assert isinstance(op.check(json.dumps(payload)), workloads.Fault)
    for broken in ({"seed": 8}, {"samples": 5}, {"mean": str(mean + 1)}, {"stderr": 1.0}):
        problem = op.check(json.dumps({**payload, **broken}))
        assert problem and not isinstance(problem, workloads.Fault)


def test_layer_metrics_self_time_and_outermost_spans():
    # cli.main [0, 10] > diagrams.survey [1, 7] > diagrams.survey [2, 6]; series.mul [7, 8]
    command = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["diagrams.survey", 1.0, 7.0, 0, 600],
        ["diagrams.survey", 2.0, 6.0, 1, 400],
        ["series.mul", 7.0, 8.0, 0, 0],
    ]
    out = spans.layer_metrics([command, command])
    assert out["cli.self_s"] == 2 * (10 - 6 - 1)
    assert out["diagrams.self_s"] == 2 * 6
    assert out["diagrams.survey_s"] == 2 * 6
    assert out["diagrams.survey_rate"] == 100
    assert out["series.mul_calls"] == 2
    assert out["memory_game.scan_rate"] == 0.0
    assert set(out) == set(spans.UNITS)
