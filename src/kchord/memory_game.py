"""The memory game on graphs.

The kn cards of a concentration-style game with n ranks of k matching
cards are dealt onto the vertices of a board graph.  A rank whose cards
land on a connected k-vertex induced subgraph is a "polyomino"; the
polyomino-occupied vertices split into connected components.  A path
board recovers the linear diagram statistics: polyominoes are short
chords and the components coincide.
"""

from __future__ import annotations

import os
import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from math import comb, sqrt
from typing import Callable, Iterator, Sequence

import numpy as np

from .counting import SelfCheckError, total_diagrams
from .diagrams import _integer, _partitions, oracle_budget

SAMPLE_CHUNK = 1 << 14
SAMPLE_SLICE = 1 << 11  # rows shuffled and keyed at a time within a chunk
TABLE_LIMIT = 1 << 23  # entries of the sampler's block-key table
RNG_ALGORITHM = "philox4x64/seedseq(entropy=seed,spawn_key=(chunk,))"


@dataclass(frozen=True)
class Board:
    """An undirected simple graph with vertices 0..vertex_count-1."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    label: str = ""

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("negative vertex count")
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add(key)

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        masks = [0] * self.vertex_count
        for a, b in self.edges:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        return tuple(masks)


def path_board(m: int) -> Board:
    """The path on m vertices, the board of the linear diagram model."""
    return Board(m, tuple((i, i + 1) for i in range(m - 1)), f"path:{m}")


def _grid_edges(rows: int, cols: int, wrap: bool) -> set[tuple[int, int]]:
    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges: set[tuple[int, int]] = set()

    def add(a: int, b: int):
        if a != b:
            edges.add((a, b) if a < b else (b, a))

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                add(vid(r, c), vid(r, c + 1))
            elif wrap and cols > 1:
                add(vid(r, c), vid(r, 0))
            if r + 1 < rows:
                add(vid(r, c), vid(r + 1, c))
            elif wrap and rows > 1:
                add(vid(r, c), vid(0, c))
    return edges


def grid_board(rows: int, cols: int) -> Board:
    if rows < 1 or cols < 1:
        raise ValueError("grid needs positive dimensions")
    return Board(rows * cols, tuple(sorted(_grid_edges(rows, cols, False))), f"grid:{rows}x{cols}")


def torus_board(rows: int, cols: int) -> Board:
    """Grid with wraparound; wrap edges that duplicate grid edges are merged."""
    if rows < 1 or cols < 1:
        raise ValueError("torus needs positive dimensions")
    return Board(rows * cols, tuple(sorted(_grid_edges(rows, cols, True))), f"torus:{rows}x{cols}")


def board_from_edges(vertex_count: int, edges: Sequence[Sequence[int]], label: str = "") -> Board:
    """Explicit edge-list board; endpoints are ordered, lists deduplicated
    only by validation (a repeated edge is an input error).  The count
    and the endpoints must be integers and every edge a pair, since the
    arguments may come straight from a user's JSON file."""
    count = _integer(vertex_count, "vertex count")
    if not isinstance(edges, (list, tuple)):
        raise ValueError(f"edges must be a list of vertex pairs, got {edges!r}")
    normalized = []
    for edge in edges:
        if not isinstance(edge, (list, tuple)) or len(edge) != 2:
            raise ValueError(f"edge {edge!r} is not a pair of vertices")
        u, v = (_integer(end, "edge endpoint") for end in edge)
        normalized.append((u, v) if u <= v else (v, u))
    return Board(count, tuple(normalized), label or f"edges:{count}")


def board_from_spec(text: str) -> Board:
    """Parse ``path:M``, ``grid:RxC`` or ``torus:RxC``, with sizes in ASCII
    digits and no leading zero, so that the board's label is ``text``."""
    match = re.fullmatch(r"path:(0|[1-9][0-9]*)|(grid|torus):([1-9][0-9]*)x([1-9][0-9]*)", text)
    if match is None:
        raise ValueError(f"unknown board spec {text!r}: expected path:M, grid:RxC or torus:RxC")
    path, kind, rows, cols = match.groups()
    if path is not None:
        return path_board(int(path))
    return (grid_board if kind == "grid" else torus_board)(int(rows), int(cols))


def connected_k_sets(board: Board, k: int) -> Iterator[int]:
    """Yield each connected k-vertex set exactly once, as a bitmask.

    Frontier-extension enumeration: grow from each anchor vertex using
    only higher-numbered vertices, extending by exclusive neighbors, so
    no set is reached twice.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    nbrs = board.neighbor_masks
    for anchor in range(board.vertex_count):
        above = -1 << (anchor + 1)
        yield from _grow(nbrs, k, above, 1 << anchor, (1 << anchor) | nbrs[anchor], nbrs[anchor] & above, 1)


def _grow(
    nbrs: Sequence[int], k: int, above: int, sub: int, forbidden: int, ext: int, size: int
) -> Iterator[int]:
    """The connected k-sets that grow ``sub`` by vertices of ``above``,
    each next vertex taken from the frontier ``ext``."""
    if size == k:
        yield sub
        return
    while ext:
        w_bit = ext & -ext
        ext ^= w_bit
        w = w_bit.bit_length() - 1
        new_ext = ext | (nbrs[w] & above & ~forbidden)
        yield from _grow(nbrs, k, above, sub | w_bit, forbidden | nbrs[w] | w_bit, new_ext, size + 1)


def connected_k_subgraphs(board: Board, k: int) -> int:
    """Number of k-vertex subsets inducing a connected subgraph.

    >>> connected_k_subgraphs(path_board(6), 3)
    4
    """
    return sum(1 for _ in connected_k_sets(board, k))


def mean_polyominoes(board: Board, k: int) -> Fraction:
    """Expected polyomino count of a uniform deal: n * r / C(kn, k).

    >>> mean_polyominoes(grid_board(2, 2), 2)
    Fraction(4, 3)
    """
    n = _resolve_n(board, k)
    if n == 0:
        return Fraction(0)
    r = connected_k_subgraphs(board, k)
    return Fraction(n * r, comb(k * n, k))


def _resolve_n(board: Board, k: int) -> int:
    if k < 2:
        raise ValueError("need k >= 2")
    blocks, rem = divmod(board.vertex_count, k)
    if rem:
        raise ValueError(f"{board.vertex_count} vertices not divisible by k={k}")
    return blocks


def _mask_components(nbrs: Sequence[int], mask: int) -> int:
    comps = 0
    rem = mask
    while rem:
        comps += 1
        comp = rem & -rem
        frontier = comp
        while frontier:
            grow = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                grow |= nbrs[bit.bit_length() - 1]
            grow &= mask & ~comp
            comp |= grow
            frontier = grow
        rem &= ~comp
    return comps


def exhaustive_distribution(board: Board, k: int, budget: int | None = None) -> dict[tuple[int, int], int]:
    """Histogram of (polyominoes, components) over every deal.

    Deals are partitions of the vertices into unlabeled k-sets, visited
    as block bitmasks by the partition walk of ``kchord.diagrams``; the
    count is total_diagrams(k, n), checked against the oracle budget.
    """
    n = _resolve_n(board, k)
    oracle_budget(budget, total_diagrams(k, n))
    connected = set(connected_k_sets(board, k))
    nbrs = board.neighbor_masks
    components: dict[int, int] = {}  # by union; a board has few distinct unions

    # A prefix's state and the last blocks' fact are both (polyominoes,
    # union of the polyominoes): the components need the whole union.
    def step(rest: int, state: tuple[int, int], m: int) -> tuple[int, int]:
        return (state[0] + 1, state[1] | m) if m in connected else state

    def extend(free: int, a: int, fact: tuple[int, int]) -> tuple[int, int]:
        return (fact[0] + 1, fact[1] | a) if a in connected else fact

    def leaf(state: tuple[int, int], tail: list, hist: dict, times: int) -> None:
        polyominoes, union = state
        get = hist.get
        for (more, covered), count in tail:
            u = union | covered
            comps = components.get(u)
            if comps is None:
                comps = components[u] = _mask_components(nbrs, u)
            key = polyominoes + more, comps
            hist[key] = get(key, 0) + count * times

    return _partitions(board.vertex_count, k, step, (0, 0), extend, (0, 0), leaf)


@dataclass(frozen=True)
class SampleResult:
    """Monte Carlo estimate of the polyomino count distribution."""

    samples: int
    seed: int
    mean: Fraction
    stderr: float
    histogram: dict[int, int]
    rng_algorithm: str


def _block_flags(board: Board, k: int) -> Callable[[np.ndarray], np.ndarray]:
    """A function from a (rows, n, k) int64 array of blocks to their
    (rows, n) uint8 flags, 1 where a block is a connected k-set."""
    v_count = board.vertex_count
    entries = v_count**k  # of the base-V table
    if entries > TABLE_LIMIT and comb(v_count, k) >= 1 << 63:
        raise ValueError(f"board too large to sample: C({v_count}, {k}) >= 2^63 vertex sets")
    sets = []
    for mask in connected_k_sets(board, k):  # k steps per set, not V
        sets.append([])
        while mask:
            sets[-1].append((mask & -mask).bit_length() - 1)
            mask &= mask - 1
    conn = np.array(sets, dtype=np.int64).reshape(-1, k)

    if entries <= TABLE_LIMIT:
        def key(blocks: np.ndarray) -> np.ndarray:
            """The block in dealt order read in base V, by Horner's rule
            b0 + V(b1 + V(b2 + ...)): no gathers through the block columns."""
            keys = blocks[..., k - 1] * v_count
            for i in range(k - 2, 0, -1):
                keys += blocks[..., i]
                keys *= v_count
            keys += blocks[..., 0]
            return keys

        table = np.zeros(entries, dtype=np.uint8)
        # dealt order: mark every ordering of a connected set
        table[key(np.concatenate([conn[:, list(order)] for order in permutations(range(k))]))] = 1
        return lambda blocks: table[key(blocks)]

    # a sorted block's rank C(v_0, 1) + C(v_1, 2) + ..., with weight 0 where v is never i-th
    weights = np.array(
        [[comb(v, i + 1) if v <= v_count - k + i else 0 for v in range(v_count)] for i in range(k)], dtype=np.int64
    )

    def rank(blocks: np.ndarray) -> np.ndarray:
        keys = weights[0][blocks[..., 0]]
        for i in range(1, k):
            keys += weights[i][blocks[..., i]]
        return keys

    conn_ranks = rank(conn)  # each row of conn is sorted: its mask was read lowest bit first

    def flags(blocks: np.ndarray) -> np.ndarray:
        blocks.sort(axis=2)
        return np.isin(rank(blocks), conn_ranks).view(np.uint8)

    return flags


def sample_placements(board: Board, k: int, samples: int, seed: int) -> SampleResult:
    """Sample uniform deals and estimate the mean polyomino count.

    Sampling is a seeded shuffle of the vertex list cut into consecutive
    k-blocks.  Streams are reproducible: chunk c of the run uses a
    Philox generator seeded with SeedSequence(seed, spawn_key=(c,)), so
    results are deterministic for fixed (seed, samples, SAMPLE_CHUNK).
    Chunks run on up to one thread per available CPU, thread t taking
    chunks t, t + T, ...; a chunk shuffles, keys and counts its rows in
    slices of SAMPLE_SLICE rows, each slice continuing the chunk's one
    stream, and the histograms are summed, so the output does not depend
    on the thread count.  The shuffle (Generator.permuted) holds the
    interpreter lock, so the threads overlap only the key and count
    steps.  The first exception raised in a thread is raised again here,
    and a summed histogram that does not hold every sample raises
    SelfCheckError.

    A block is flagged connected by one of two keys.  When V^k <=
    TABLE_LIMIT, the block in dealt order read in base V indexes a uint8
    table that marks every ordering of each connected k-set.  Otherwise
    the block is sorted and its combinatorial rank is matched against the
    ranks of the connected k-sets with np.isin, which needs C(V, k) <
    2^63.  A row's flags are counted in one matrix product with a vector
    of ones.
    """
    n = _resolve_n(board, k)
    if samples < 1:
        raise ValueError("need samples >= 1")
    chunk_size = SAMPLE_CHUNK
    flags = _block_flags(board, k)
    v_count = board.vertex_count
    ones = np.ones(n, dtype=np.min_scalar_type(n))  # wide enough that a row's count cannot wrap

    def chunk_histogram(chunk_index: int) -> np.ndarray:
        m = min(chunk_size, samples - chunk_index * chunk_size)
        ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(chunk_index,))
        rng = np.random.Generator(np.random.Philox(ss))
        work = np.empty((min(SAMPLE_SLICE, m), v_count), dtype=np.int64)
        hist = np.zeros(n + 1, dtype=np.int64)
        for start in range(0, m, SAMPLE_SLICE):
            rows = work[: min(SAMPLE_SLICE, m - start)]
            rows[:] = np.arange(v_count)  # shuffled in place, row by row
            blocks = rng.permuted(rows, axis=1, out=rows).reshape(len(rows), n, k)
            hist += np.bincount(flags(blocks) @ ones, minlength=n + 1)
        return hist

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    chunks = -(-samples // chunk_size)
    threads = min(chunks, cpus)
    hists = np.zeros((threads, n + 1), dtype=np.int64)
    errors: list[BaseException] = []

    def work_on(t: int) -> None:
        try:
            for chunk_index in range(t, chunks, threads):
                hists[t] += chunk_histogram(chunk_index)
        except BaseException as exc:  # raised again in the calling thread
            errors.append(exc)

    workers = [threading.Thread(target=work_on, args=(t,)) for t in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]
    counts_hist = hists.sum(axis=0)
    if counts_hist.sum() != samples:
        raise SelfCheckError(f"sampled histogram holds {counts_hist.sum()} deals, not {samples}")
    total = int(np.arange(n + 1) @ counts_hist)
    mean = Fraction(total, samples)
    if samples > 1:
        sq = sum(int(c) * (Fraction(v) - mean) ** 2 for v, c in enumerate(counts_hist))
        variance = sq / (samples - 1)
        stderr = sqrt(float(variance) / samples)
    else:
        stderr = float("nan")
    histogram = {v: int(c) for v, c in enumerate(counts_hist) if c}
    return SampleResult(
        samples=samples,
        seed=seed,
        mean=mean,
        stderr=stderr,
        histogram=histogram,
        rng_algorithm=f"{RNG_ALGORITHM},chunk={chunk_size}",
    )
