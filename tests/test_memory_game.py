from __future__ import annotations

import os
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import naive_blocks, naive_enumerate, naive_stats
from kchord import (
    Board,
    BudgetExceededError,
    SelfCheckError,
    board_from_edges,
    board_from_spec,
    cli,
    exhaustive_distribution,
    grid_board,
    mean_polyominoes,
    memory_game,
    path_board,
    sample_placements,
    torus_board,
)
from kchord.counting import component_row, mean_short_chords, short_chord_row, total_diagrams
from kchord.memory_game import _mask_components, connected_k_sets, connected_k_subgraphs


# Size words of a board spec: a plain number, or two characters that may
# be digits, a fullwidth digit, a sign, an underscore or a space.
SPEC_SIZE = st.one_of(st.integers(0, 30).map(str), st.text("0123456789\uff11_+- ", max_size=2))


def loop_histogram(board: Board, k: int, samples: int, seed: int, chunk_size: int) -> dict:
    """Per-block reference for sample_placements: the same random stream,
    each block tested as a Python-int bitmask against the connected sets."""
    connected = set(connected_k_sets(board, k))
    hist: Counter = Counter()
    done = chunk = 0
    while done < samples:
        m = min(chunk_size, samples - done)
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk,))
        rng = np.random.Generator(np.random.Philox(ss))
        perms = rng.permuted(np.tile(np.arange(board.vertex_count), (m, 1)), axis=1)
        for perm in perms.tolist():
            blocks = (perm[i : i + k] for i in range(0, len(perm), k))
            hist[sum(sum(1 << v for v in block) in connected for block in blocks)] += 1
        done += m
        chunk += 1
    return dict(hist)


def draw_board(data) -> Board:
    """A board of 0 to 8 vertices (an even number) with arbitrary edges."""
    vertices = data.draw(st.sampled_from([0, 2, 4, 6, 8]), label="vertices")
    pairs = list(combinations(range(vertices), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True), label="edges") if pairs else []
    return board_from_edges(vertices, edges)


def key_kind(board: Board, k: int) -> str:
    """Which block key sample_placements uses on this board."""
    return "base-V" if board.vertex_count**k <= memory_game.TABLE_LIMIT else "isin"


def naive_connected_sets(board: Board, k: int) -> set[frozenset]:
    """All connected k-vertex sets, by BFS over each combination."""
    adj = {v: set() for v in range(board.vertex_count)}
    for a, b in board.edges:
        adj[a].add(b)
        adj[b].add(a)
    out = set()
    for combo in combinations(range(board.vertex_count), k):
        members = set(combo)
        seen = {combo[0]}
        frontier = [combo[0]]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w in members and w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if seen == members:
            out.add(frozenset(combo))
    return out


def literal_distribution(board: Board, k: int) -> Counter:
    """(polyominoes, components of their union) over every deal, from
    naive_enumerate, naive_connected_sets and a search of the union."""
    connected = naive_connected_sets(board, k)
    adj = {v: set() for v in range(board.vertex_count)}
    for a, b in board.edges:
        adj[a].add(b)
        adj[b].add(a)
    hist: Counter = Counter()
    for word in naive_enumerate(k, board.vertex_count // k):
        polyominoes = [b for b in naive_blocks(word) if frozenset(b) in connected]
        covered = set().union(*polyominoes)
        seen: set = set()
        components = 0
        for v in covered:
            if v in seen:
                continue
            components += 1
            stack = [v]
            seen.add(v)
            while stack:
                for w in adj[stack.pop()] & covered - seen:
                    seen.add(w)
                    stack.append(w)
        hist[len(polyominoes), components] += 1
    return hist


class TestBoards:
    def test_path(self):
        b = path_board(5)
        assert b.vertex_count == 5
        assert set(b.edges) == {(0, 1), (1, 2), (2, 3), (3, 4)}
        assert b.label == "path:5"

    def test_grid(self):
        b = grid_board(2, 3)
        assert b.vertex_count == 6
        assert len(b.edges) == 7  # 2 rows of 2 horizontal edges + 3 vertical
        assert b.label == "grid:2x3"

    def test_torus_merges_wrap_duplicates(self):
        b = torus_board(3, 3)
        assert b.vertex_count == 9
        assert len(b.edges) == 18
        two = torus_board(2, 2)
        # wrap edges coincide with the grid edges on a 2x2 torus
        assert len(two.edges) == 4

    def test_from_spec(self):
        assert board_from_spec("path:7").vertex_count == 7
        assert board_from_spec("grid:3x4").vertex_count == 12
        assert board_from_spec("torus:3x3").vertex_count == 9
        with pytest.raises(ValueError):
            board_from_spec("prism:3")
        with pytest.raises(ValueError):
            board_from_spec("grid:3")

    @given(
        st.one_of(
            st.builds("path:{}".format, st.integers(0, 30)),
            st.builds("{}:{}x{}".format, st.sampled_from(["grid", "torus"]), st.integers(1, 9), st.integers(1, 9)),
            st.tuples(
                st.sampled_from(["path:", "grid:", "torus:", "hex:", "path", "Grid:", ""]),
                SPEC_SIZE,
                st.sampled_from(["", "x", "X", "x0"]),
                SPEC_SIZE,
            ).map("".join),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_spec_is_its_label(self, spec):
        """A spec is accepted only as the label of the board it names."""
        try:
            board = board_from_spec(spec)
        except ValueError as exc:
            event("rejected")
            assert str(exc).startswith(f"unknown board spec {spec!r}:")
        else:
            event("accepted")
            assert board.label == spec

    def test_validation(self):
        with pytest.raises(ValueError):
            Board(3, ((0, 3),))
        with pytest.raises(ValueError):
            Board(3, ((1, 1),))
        with pytest.raises(ValueError):
            Board(3, ((0, 1), (1, 0)))

    def test_from_edges_normalizes(self):
        b = board_from_edges(4, [(2, 0), (1, 3)])
        assert (0, 2) in b.edges and (1, 3) in b.edges

    @pytest.mark.parametrize(
        "count, edges",
        [("x", []), (2.0, []), (True, []), (4, 5), (4, [(0,)]), (4, [(0, 1.5)]), (4, ["01"])],
    )
    def test_from_edges_rejects_malformed_input(self, count, edges):
        with pytest.raises(ValueError, match="must be|pair"):
            board_from_edges(count, edges)


class TestConnectedSets:
    @pytest.mark.parametrize(
        "board,k",
        [
            (path_board(8), 3),
            (grid_board(3, 3), 3),
            (grid_board(2, 4), 2),
            (torus_board(3, 3), 2),
            (grid_board(3, 4), 4),
        ],
    )
    def test_matches_naive(self, board, k):
        got = {
            frozenset(i for i in range(board.vertex_count) if mask >> i & 1)
            for mask in connected_k_sets(board, k)
        }
        assert got == naive_connected_sets(board, k)

    def test_path_count_formula(self):
        for k in (2, 3, 4):
            for n in (1, 2, 3):
                assert connected_k_subgraphs(path_board(k * n), k) == k * n - k + 1

    def test_grid_3x3_k3(self):
        assert connected_k_subgraphs(grid_board(3, 3), 3) == 22


class TestExactStatistics:
    def test_grid_2x2_mean(self):
        assert mean_polyominoes(grid_board(2, 2), 2) == Fraction(4, 3)

    def test_path_mean_equals_diagram_mean(self):
        for k, n in [(2, 4), (2, 6), (3, 3), (4, 2)]:
            assert mean_polyominoes(path_board(k * n), k) == mean_short_chords(k, n)

    def test_grid_2x2_exhaustive(self):
        hist = exhaustive_distribution(grid_board(2, 2), 2)
        assert hist == {(0, 0): 1, (2, 1): 2}

    @pytest.mark.parametrize("k,n", [(2, 3), (2, 4), (3, 3), (4, 2)])
    def test_path_joint_matches_diagrams(self, k, n):
        want: Counter = Counter()
        for w in naive_enumerate(k, n):
            s, q, _m, _xp = naive_stats(w)
            want[(s, q)] += 1
        got = exhaustive_distribution(path_board(k * n), k)
        assert got == dict(want)

    # path:4 and path:6 have n = 2 blocks (the root is the leaf level),
    # grid:2x3 and grid:3x3 have n = 3 (the root calls the leaf), and
    # grid:2x4 and torus:3x4 have n = 4 (the walk keeps pair facts).
    @pytest.mark.parametrize(
        "spec,k",
        [("path:4", 2), ("grid:2x3", 2), ("grid:2x4", 2), ("path:6", 3), ("grid:3x3", 3), ("torus:3x4", 3)],
    )
    def test_shallow_walks_match_literal_enumeration(self, spec, k):
        board = board_from_spec(spec)
        assert exhaustive_distribution(board, k) == dict(literal_distribution(board, k))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_exhaustive_matches_per_deal_recount(self, data):
        board = draw_board(data)
        connected = set(connected_k_sets(board, 2))
        want: Counter = Counter()
        for word in naive_enumerate(2, board.vertex_count // 2):
            deal = [sum(1 << v for v in block) for block in naive_blocks(word)]
            polyominoes = [block for block in deal if block in connected]
            union = sum(polyominoes)
            want[(len(polyominoes), _mask_components(board.neighbor_masks, union))] += 1
        assert exhaustive_distribution(board, 2) == dict(want)

    def test_exhaustive_mean_consistency(self):
        board = grid_board(2, 3)
        hist = exhaustive_distribution(board, 2)
        total = sum(hist.values())
        mean = Fraction(sum(p * c for (p, _q), c in hist.items()), total)
        assert mean == mean_polyominoes(board, 2)

    def test_path_16_marginals_match_closed_forms(self):
        """The 2,027,025 deals of path:16 at k = 2 are the diagrams of
        (2, 8): polyominoes are short chords and the components agree."""
        polyominoes, components = Counter(), Counter()
        for (p, q), count in exhaustive_distribution(path_board(16), 2).items():
            polyominoes[p] += count
            components[q] += count
        assert [polyominoes[s] for s in range(9)] == short_chord_row(2, 8)
        assert tuple(components[q] for q in range(9)) == component_row(2, 8)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            exhaustive_distribution(grid_board(4, 4), 2, budget=100)

    def test_indivisible_board_rejected(self):
        with pytest.raises(ValueError):
            exhaustive_distribution(path_board(5), 2)


class TestSampling:
    def test_deterministic_per_seed(self):
        board = grid_board(2, 2)
        r1 = sample_placements(board, 2, 5000, seed=3)
        r2 = sample_placements(board, 2, 5000, seed=3)
        assert r1.histogram == r2.histogram
        assert r1.mean == r2.mean
        r3 = sample_placements(board, 2, 5000, seed=4)
        assert r3.histogram != r1.histogram

    def test_mass_and_exact_mean(self):
        board = grid_board(2, 2)
        r = sample_placements(board, 2, 30000, seed=0)
        assert sum(r.histogram.values()) == 30000
        assert isinstance(r.mean, Fraction)
        assert abs(float(r.mean) - 4 / 3) < 4 * r.stderr

    def test_matches_exhaustive_distribution(self):
        board = grid_board(2, 3)
        exact = exhaustive_distribution(board, 2)
        total = sum(exact.values())
        r = sample_placements(board, 2, 60000, seed=12)
        sampled_poly: Counter = Counter()
        for value, count in r.histogram.items():
            sampled_poly[value] += count
        for value in sampled_poly:
            want = sum(c for (p, _q), c in exact.items() if p == value) / total
            got = sampled_poly[value] / 60000
            sigma = (want * (1 - want) / 60000) ** 0.5
            assert abs(got - want) < 5 * sigma + 1e-9, value

    @pytest.mark.parametrize("spec,k,seed", [("grid:4x4", 2, 2024), ("grid:3x6", 3, 2025)])
    def test_fixed_seed_histogram_fits_exact_law(self, spec, k, seed):
        """200,000 sampled deals against the exact polyomino law of every
        deal.  Statistic: Pearson's X^2 over the polyomino counts, each bin
        expecting fewer than 5 deals pooled into the next lower count.
        Threshold: the 0.999 quantile of chi-square with bins - 1 degrees
        of freedom, by the Wilson-Hilferty cube."""
        board = board_from_spec(spec)
        exact = exhaustive_distribution(board, k, budget=total_diagrams(k, board.vertex_count // k))
        law: Counter = Counter()
        for (p, _q), count in exact.items():
            law[p] += count
        total = sum(law.values())
        samples = 200_000
        got = sample_placements(board, k, samples, seed).histogram
        assert set(got) <= set(law)
        bins, observed, expected = [], 0, 0.0
        for p in sorted(law, reverse=True):
            observed += got.get(p, 0)
            expected += samples * law[p] / total
            if expected >= 5:
                bins.append((observed, expected))
                observed, expected = 0, 0.0
        assert expected == 0  # the lowest counts carry most of the mass
        x2 = sum((o - e) ** 2 / e for o, e in bins)
        df = len(bins) - 1
        z = 3.090232  # the 0.999 quantile of the standard normal
        assert x2 < df * (1 - 2 / (9 * df) + z * (2 / (9 * df)) ** 0.5) ** 3

    def test_path26_base_v_table_mean(self):
        # 26^2 keys fit the base-V table, so path:26 samples by table lookup
        board = path_board(26)
        assert key_kind(board, 2) == "base-V"
        r = sample_placements(board, 2, 2000, seed=1)
        assert sum(r.histogram.values()) == 2000
        exact = float(mean_short_chords(2, 13))
        assert abs(float(r.mean) - exact) < 6 * r.stderr + 0.05

    @pytest.mark.parametrize(
        "spec, k, kind",
        [
            pytest.param(spec, k, kind, id=f"{spec}-{k}")
            for spec, k, kind in [
                ("grid:4x4", 2, "base-V"),
                ("path:20", 4, "base-V"),
                ("grid:8x9", 2, "base-V"),
                ("path:26", 2, "base-V"),
                ("grid:5x6", 3, "base-V"),
                ("torus:6x6", 4, "base-V"),
                ("path:600", 2, "base-V"),  # 300 blocks: a row's count needs more than 8 bits
                # the benchmark's boards not listed above
                ("grid:3x6", 3, "base-V"),
                ("torus:4x5", 2, "base-V"),
                ("torus:6x6", 2, "base-V"),
                ("grid:6x8", 4, "base-V"),  # 48^4 = 5.3 M table entries
                ("path:18", 6, "isin"),  # 18^6 > 2^23
                ("grid:5x6", 5, "isin"),  # 30^5 > 2^23
                ("path:66", 33, "isin"),
            ]
        ],
    )
    def test_each_key_kind_matches_loop_reference(self, monkeypatch, spec, k, kind):
        board = board_from_spec(spec)
        assert key_kind(board, k) == kind
        # 1000 does not divide 2500: the last chunk is partial
        monkeypatch.setattr(memory_game, "SAMPLE_CHUNK", 1000)
        r = sample_placements(board, k, 2500, seed=5)
        assert r.histogram == loop_histogram(board, k, 2500, 5, 1000)

    @pytest.mark.parametrize(
        "spec, k, kind", [("grid:4x4", 2, "base-V"), ("path:18", 6, "isin"), ("grid:5x6", 5, "isin")]
    )
    def test_slices_that_do_not_divide_the_chunk(self, monkeypatch, spec, k, kind):
        # 7 divides neither 1000 nor the last chunk's 500 rows
        monkeypatch.setattr(memory_game, "SAMPLE_SLICE", 7)
        monkeypatch.setattr(memory_game, "SAMPLE_CHUNK", 1000)
        board = board_from_spec(spec)
        assert key_kind(board, k) == kind
        r = sample_placements(board, k, 2500, seed=8)
        assert r.histogram == loop_histogram(board, k, 2500, 8, 1000)

    def test_histogram_independent_of_thread_count(self, monkeypatch):
        started: list = []

        class Spy(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Spy)
        monkeypatch.setattr(memory_game, "SAMPLE_CHUNK", 300)
        board = grid_board(4, 4)
        want = loop_histogram(board, 2, 2000, 6, 300)
        workers = []

        def histogram() -> dict:
            started.clear()
            hist = sample_placements(board, 2, 2000, seed=6).histogram
            assert not any(t.is_alive() for t in started)
            workers.append(len(started))
            return hist

        for cpus in (1, 3, 16):  # 16 CPUs: capped at the 7 chunks
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)), raising=False)
            assert histogram() == want, cpus
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for cpus in (1, 4):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            assert histogram() == want, cpus
        assert workers == [1, 3, 7, 1, 4]

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_failed_chunk_fails_the_call(self, monkeypatch, cpus):
        philox = np.random.Philox

        def failing(seed_sequence):
            if seed_sequence.spawn_key == (4,):
                raise RuntimeError("chunk 4 failed")
            return philox(seed_sequence)

        monkeypatch.setattr(np.random, "Philox", failing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(memory_game, "SAMPLE_CHUNK", 300)
        with pytest.raises(RuntimeError, match="chunk 4 failed"):
            sample_placements(grid_board(4, 4), 2, 2000, seed=6)

    def test_lost_worker_fails_the_self_check(self, monkeypatch, capsys):
        class Idle(threading.Thread):
            def run(self):  # a worker that never runs its chunks
                pass

        monkeypatch.setattr(threading, "Thread", Idle)
        monkeypatch.setattr(memory_game, "SAMPLE_CHUNK", 300)
        with pytest.raises(SelfCheckError, match="holds 0 deals, not 2000"):
            sample_placements(grid_board(4, 4), 2, 2000, seed=6)
        assert cli.main("memory --board grid:4x4 --k 2 --sample 2000".split()) == 4
        assert capsys.readouterr().err == "error: internal check failed: sampled histogram holds 0 deals, not 2000\n"

    def test_counts_past_255_blocks_per_deal(self):
        # on the complete graph every block is a polyomino: 256 in each deal
        board = board_from_edges(512, list(combinations(range(512), 2)))
        assert key_kind(board, 2) == "base-V"
        r = sample_placements(board, 2, 300, seed=3)
        assert r.histogram == loop_histogram(board, 2, 300, 3, memory_game.SAMPLE_CHUNK) == {256: 300}

    def test_cli_import_leaves_the_thread_pool_unloaded(self):
        loaded = "print('concurrent.futures' in sys.modules, 'logging' in sys.modules, file=sys.stderr)"
        for script in (
            "import sys, kchord.cli",
            "import sys, kchord.cli; kchord.cli.main('memory --board grid:4x4 --k 2 --sample 40000'.split())",
        ):
            proc = subprocess.run([sys.executable, "-c", f"{script}; {loaded}"], capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == "False False\n", script

    @pytest.mark.parametrize(
        "spec, k, size, kind",
        [("grid:4x4", 2, 16**2, "base-V"), ("path:12", 4, 12**4, "base-V")],  # 12^4 > 2^12
    )
    def test_table_limit_boundary(self, monkeypatch, spec, k, size, kind):
        board = board_from_spec(spec)
        monkeypatch.setattr(memory_game, "SAMPLE_CHUNK", 300)
        for limit, want in [(size, kind), (size - 1, "isin")]:
            monkeypatch.setattr(memory_game, "TABLE_LIMIT", limit)
            assert key_kind(board, k) == want, limit
            r = sample_placements(board, k, 700, seed=limit)
            assert r.histogram == loop_histogram(board, k, 700, limit, 300), limit

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_key_kind_matches_loop_reference(self, data):
        board = draw_board(data)
        k = data.draw(st.sampled_from([d for d in range(2, 9) if board.vertex_count % d == 0]), label="k")
        # V^k runs from 0 to 8^8 here, so a limit up to 300 reaches both kinds
        limit = data.draw(st.integers(0, 300), label="TABLE_LIMIT")
        samples = data.draw(st.integers(1, 200), label="samples")
        chunk_rows = data.draw(st.integers(1, 64), label="SAMPLE_CHUNK")
        slice_rows = data.draw(st.integers(1, 64), label="SAMPLE_SLICE")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(memory_game, "TABLE_LIMIT", limit)
            patch.setattr(memory_game, "SAMPLE_SLICE", slice_rows)
            patch.setattr(memory_game, "SAMPLE_CHUNK", chunk_rows)
            event(key_kind(board, k))
            r = sample_placements(board, k, samples, seed=limit)
        assert r.histogram == loop_histogram(board, k, samples, limit, chunk_rows)

    def test_board_of_72_vertices(self):
        # 64 or more vertices once wrapped 64-bit block masks
        board = grid_board(8, 9)
        exact = mean_polyominoes(board, 2)
        assert exact == Fraction(127, 71)
        r = sample_placements(board, 2, 50_000, seed=7)
        assert abs(float(r.mean - exact)) < 5 * r.stderr

    def test_rejects_boards_past_63_bit_ranks(self):
        with pytest.raises(ValueError, match="2\\^63"):
            sample_placements(path_board(128), 64, 10, seed=0)
        # C(66, 33) still fits, as does the one block of path:70 at k = 70
        # (whose unreachable rank terms such as C(69, 35) would not)
        assert sample_placements(path_board(66), 33, 10, seed=0).samples == 10
        assert sample_placements(path_board(70), 70, 10, seed=0).mean == 1

    def test_spawn_key_layout_recorded(self):
        r = sample_placements(grid_board(2, 2), 2, 100, seed=9)
        assert "philox" in r.rng_algorithm
        assert r.seed == 9
