"""The memory game on graphs.

The kn cards of a concentration-style game with n ranks of k matching
cards are dealt onto the vertices of a board graph.  A rank whose cards
land on a connected k-vertex induced subgraph is a "polyomino"; the
polyomino-occupied vertices split into connected components.  A path
board recovers the linear diagram statistics: polyominoes are short
chords and the components coincide.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from math import comb, sqrt
from typing import Iterable, Iterator, Sequence

import numpy as np

from .counting import total_diagrams
from .diagrams import _partitions, oracle_budget

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
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
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


def _integer(value, what: str) -> int:
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def board_from_spec(text: str) -> Board:
    """Parse ``path:M``, ``grid:RxC`` or ``torus:RxC``."""
    kind, _, rest = text.partition(":")
    if kind == "path":
        return path_board(int(rest))
    if kind in ("grid", "torus"):
        r, _, c = rest.partition("x")
        make = grid_board if kind == "grid" else torus_board
        return make(int(r), int(c))
    raise ValueError(f"unknown board spec {text!r}")


def connected_k_sets(board: Board, k: int) -> Iterator[int]:
    """Yield each connected k-vertex set exactly once, as a bitmask.

    Frontier-extension enumeration: grow from each anchor vertex using
    only higher-numbered vertices, extending by exclusive neighbors, so
    no set is reached twice.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    nbrs = board.neighbor_masks
    v_count = board.vertex_count

    def extend(sub: int, forbidden: int, ext: int, size: int) -> Iterator[int]:
        if size == k:
            yield sub
            return
        while ext:
            w_bit = ext & -ext
            ext ^= w_bit
            w = w_bit.bit_length() - 1
            new_ext = ext | (nbrs[w] & anchor_gt & ~forbidden)
            yield from extend(sub | w_bit, forbidden | nbrs[w] | w_bit, new_ext, size + 1)

    for v in range(v_count):
        anchor_gt = -1 << (v + 1)
        start = nbrs[v] & anchor_gt
        yield from extend(1 << v, (1 << v) | nbrs[v], start, 1)


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
    if n < 2:  # one deal: no block, or the whole board
        polyominoes = int((1 << board.vertex_count) - 1 in connected)
        return {(polyominoes, polyominoes): 1}
    nbrs = board.neighbor_masks
    components: dict[int, int] = {}  # by union; a board has few distinct unions

    # The walk carries (polyominoes, union of the polyominoes) down each
    # prefix of blocks, and ``pair`` gives the same two for the last two.
    def step(state: tuple[int, int], m: int) -> tuple[int, int]:
        return (state[0] + 1, state[1] | m) if m in connected else state

    def pair(free: int, a: int) -> tuple[int, int]:
        b = free - a
        if a in connected:
            return (2, free) if b in connected else (1, a)
        return (1, b) if b in connected else (0, 0)

    def leaf(state: tuple[int, int], facts: Iterable, hist: dict) -> None:
        polyominoes, union = state
        get = hist.get
        for more, covered in facts:
            u = union | covered
            comps = components.get(u)
            if comps is None:
                comps = components[u] = _mask_components(nbrs, u)
            key = polyominoes + more, comps
            hist[key] = get(key, 0) + 1

    return _partitions(board.vertex_count, k, step, (0, 0), pair, leaf)


@dataclass(frozen=True)
class SampleResult:
    """Monte Carlo estimate of the polyomino count distribution."""

    samples: int
    seed: int
    mean: Fraction
    stderr: float
    histogram: dict[int, int]
    rng_algorithm: str


def _block_key(board: Board, k: int) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """The (k, V) int64 weights W of the block key sum_i W[i][block[i]],
    and either the boolean table of connected k-sets that the key
    indexes, or (past TABLE_LIMIT) the keys of the connected k-sets."""
    v_count = board.vertex_count
    size = min(v_count**k, 1 << v_count)
    if size > TABLE_LIMIT and comb(v_count, k) >= 1 << 63:
        raise ValueError(f"board too large to sample: C({v_count}, {k}) >= 2^63 vertex sets")

    def weight(i: int, v: int) -> int:
        if size > TABLE_LIMIT:  # a sorted block's rank C(v_0, 1) + C(v_1, 2) + ...
            return comb(v, i + 1) if v <= v_count - k + i else 0  # 0 where v is never i-th
        return v * v_count**i if size == v_count**k else 1 << v  # base V, or the bitmask

    weights = np.array([[weight(i, v) for v in range(v_count)] for i in range(k)], dtype=np.int64)
    sets = [[v for v in range(v_count) if mask >> v & 1] for mask in connected_k_sets(board, k)]
    conn = np.array(sets, dtype=np.int64).reshape(-1, k)
    if size > TABLE_LIMIT:
        return weights, None, _keys(weights, conn)
    if size == v_count**k:  # dealt order: mark every ordering of a connected set
        conn = np.concatenate([conn[:, list(order)] for order in permutations(range(k))])
    table = np.zeros(size, dtype=bool)
    table[_keys(weights, conn)] = True
    return weights, table, None


def _keys(weights: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    keys = weights[0][blocks[..., 0]]
    for i in range(1, len(weights)):
        keys += weights[i][blocks[..., i]]
    return keys


def sample_placements(board: Board, k: int, samples: int, seed: int) -> SampleResult:
    """Sample uniform deals and estimate the mean polyomino count.

    Sampling is a seeded shuffle of the vertex list cut into consecutive
    k-blocks.  Streams are reproducible: chunk c of the run uses a
    Philox generator seeded with SeedSequence(seed, spawn_key=(c,)), so
    results are deterministic for fixed (seed, samples, SAMPLE_CHUNK).
    Chunks run on up to one thread per available CPU; a chunk shuffles,
    keys and counts its rows in slices of SAMPLE_SLICE rows, each slice
    continuing the chunk's one stream, and the per-chunk histograms are
    summed, so the output does not depend on the thread count.  Each
    block gets one integer key, which indexes a boolean table of the
    connected k-sets: the block in dealt order read in base V when
    V^k <= 2^V (every ordering of a connected set is marked), else the
    block's bitmask.  Boards whose table, min(V^k, 2^V) entries, would
    exceed TABLE_LIMIT sort each block and match its combinatorial rank
    against the ranks of the connected k-sets with np.isin, which needs
    C(V, k) < 2^63.
    """
    n = _resolve_n(board, k)
    if samples < 1:
        raise ValueError("need samples >= 1")
    chunk_size = SAMPLE_CHUNK
    weights, table, conn_keys = _block_key(board, k)
    v_count = board.vertex_count

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
            if table is None:
                blocks.sort(axis=2)
            keys = _keys(weights, blocks)
            flags = np.isin(keys, conn_keys) if table is None else table[keys]
            hist += np.bincount(np.count_nonzero(flags, axis=1), minlength=n + 1)
        return hist

    from concurrent.futures import ThreadPoolExecutor  # here, not at start-up of every command

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    chunks = -(-samples // chunk_size)
    with ThreadPoolExecutor(min(chunks, cpus)) as pool:
        counts_hist = sum(pool.map(chunk_histogram, range(chunks)))
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
