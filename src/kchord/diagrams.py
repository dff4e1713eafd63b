"""Linear k-chord diagrams.

A diagram places ``k*n`` linearly ordered vertices into ``n`` blocks
("chords") of ``k`` vertices each.  The canonical form is the word that
lists, for each position, the label of its block, with labels numbered
by first occurrence.  This module provides canonicalization, per-diagram
statistics computed on block bitmasks, the lattice-path encoding of
non-crossing diagrams, the brute-force non-crossing survey on numpy level
arrays, and the one partition walk behind the brute-force statistics
survey (the test oracle) and the memory game's exhaustive deals, with
deterministic sub-ranges for parallel runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial, reduce
from itertools import combinations, repeat
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

DEFAULT_ORACLE_BUDGET = 10**7


class BudgetExceededError(Exception):
    """Raised when an exhaustive enumeration would visit too many objects."""

    def __init__(self, total: int, budget: int):
        super().__init__(f"enumeration size {total} exceeds budget {budget}")
        self.total = total
        self.budget = budget


def oracle_budget(override: int | None = None, total: int = 0) -> int:
    """Enumeration cap for brute-force surveys, checked against the
    ``total`` objects an enumeration would visit.

    Priority: explicit argument, then the ``KCHORD_ORACLE_BUDGET``
    environment variable, then the default of 10**7.  A negative budget
    is rejected, and a ``total`` above the cap raises
    :class:`BudgetExceededError`.
    """
    if override is None:
        env = os.environ.get("KCHORD_ORACLE_BUDGET")
        override = env if env else DEFAULT_ORACLE_BUDGET
    budget = int(override)
    if budget < 0:
        raise ValueError(f"oracle budget must be nonnegative, got {budget}")
    if total > budget:
        raise BudgetExceededError(total, budget)
    return budget


@dataclass(frozen=True)
class Diagram:
    """A linear k-chord diagram in canonical form.

    ``word[i]`` is the label of the block covering position ``i``; labels
    are 0..n-1 in order of first occurrence, and each label occurs
    exactly ``k`` times.  Two diagrams are equal iff their words are.
    """

    k: int
    n: int
    word: tuple[int, ...]

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"block size must be at least 2, got {self.k}")
        if self.n < 0:
            raise ValueError(f"block count must be nonnegative, got {self.n}")
        if len(self.word) != self.k * self.n:
            raise ValueError(
                f"word length {len(self.word)} != k*n = {self.k * self.n}"
            )
        counts = [0] * self.n
        seen = 0
        for label in self.word:
            if not isinstance(label, int) or not 0 <= label < self.n:
                raise ValueError(f"label {label!r} out of range")
            if label > seen:
                raise ValueError("labels must appear in first-occurrence order")
            if label == seen:
                seen += 1
            counts[label] += 1
        for label, count in enumerate(counts):
            if count != self.k:
                raise ValueError(f"label {label} occurs {count} times, expected {self.k}")

    def masks(self) -> list[int]:
        """Bitmask of the positions of each block, indexed by label."""
        out = [0] * self.n
        for pos, label in enumerate(self.word):
            out[label] |= 1 << pos
        return out

    def as_text(self) -> str:
        return ",".join(str(c) for c in self.word)


@dataclass(frozen=True)
class BlockStats:
    """Per-diagram statistics.

    short_chords   blocks occupying k consecutive positions
    components     maximal runs of position-adjacent short chords
    noncrossing    blocks that are crossed by no block and whose span
                   contains only such blocks (innermost-outward fixpoint)
    crossing_pairs unordered block pairs that interleave
    """

    short_chords: int
    components: int
    noncrossing: int
    crossing_pairs: int


@dataclass(frozen=True)
class LatticePath:
    """A path of U (north) and D (east) steps.

    Encodes a non-crossing diagram: U for a vertex that is not the last
    of its block, D for the last.  U steps outnumber D steps (k-1):1,
    so the path starts and ends on the line y = (k-1)x.
    """

    steps: str

    def __post_init__(self):
        if set(self.steps) - {"U", "D"}:
            raise ValueError("steps must consist of 'U' and 'D' only")


def canonicalize(word: Sequence[Hashable], k: int | None = None) -> Diagram:
    """Relabel a block word by first occurrence.

    Symbols may be arbitrary hashables; each must occur exactly ``k``
    times, which :class:`Diagram` checks.  ``k`` is inferred from the
    word length when omitted (an empty word then needs an explicit ``k``).

    >>> canonicalize(["b", "a", "a", "b"]).word
    (0, 1, 1, 0)
    """
    if not word:
        if k is None:
            raise ValueError("empty word needs an explicit k")
        return Diagram(k, 0, ())
    order: dict[Hashable, int] = {}
    relabeled = []
    for sym in word:
        if sym not in order:
            order[sym] = len(order)
        relabeled.append(order[sym])
    n = len(order)
    if k is None:
        k, rem = divmod(len(word), n)
        if rem:
            raise ValueError("word length not divisible by symbol count")
    return Diagram(k, n, tuple(relabeled))


def block0_placements(k: int, n: int) -> list[tuple[int, ...]]:
    """All possible position sets for block 0 (always containing 0).

    Fixing one of these splits the enumeration into independent,
    deterministic sub-ranges.
    """
    if n == 0:
        return []
    return [(0,) + rest for rest in combinations(range(1, k * n), k - 1)]


def _span(mask: int) -> int:
    """The bits from a block's lowest vertex to its highest.

    >>> bin(_span(0b100101))
    '0b111111'
    """
    return (1 << mask.bit_length()) - (mask & -mask)


def _crosses(a: int, b: int) -> bool:
    """Whether two disjoint blocks interleave: each one has a vertex
    inside the other's span."""
    return bool(_span(a) & b and _span(b) & a)


def encode_lattice_path(diagram: Diagram) -> LatticePath:
    """Encode a non-crossing diagram as a U/D lattice path.

    Every vertex that is not the last of its block becomes U; each
    block's last vertex becomes D.  Rejects diagrams with any crossing.
    """
    masks = diagram.masks()
    for (i, a), (j, b) in combinations(enumerate(masks), 2):
        if _crosses(a, b):
            raise ValueError(f"blocks {i} and {j} cross; diagram has no path encoding")
    lasts = 0
    for m in masks:
        lasts |= 1 << (m.bit_length() - 1)
    return LatticePath("".join("D" if lasts >> p & 1 else "U" for p in range(len(diagram.word))))


NONCROSSING_SLICE_ROWS = 2048


def _noncrossing_levels(k: int, m_max: int) -> Iterator:
    """Yield every non-crossing diagram of at most ``m_max`` blocks, level
    by level, as slices of at most NONCROSSING_SLICE_ROWS rows of an
    integer array: one row per diagram and one column per block bitmask,
    blocks in order of their lowest vertex.

    Vertex 0's block sits at p_0 = 0 < p_1 < ... < p_{k-1}.  The gap
    after p_i holds k*g_i vertices, g_0 + ... + g_{k-1} = m - 1 (a
    composition drawn by stars and bars), filled by a row of level g_i
    shifted into place; each composition adds the cartesian product of
    those levels, its rows found by index arithmetic.  The levels below
    ``m_max`` are kept whole for the gaps.  Level ``m_max`` is built one
    slice at a time into one buffer, so each of its slices is valid only
    until the next is yielded.  Masks are int64 while k*m_max < 64 and
    Python ints (dtype object) past that, so every mask is exact.
    """
    import numpy as np

    rows = NONCROSSING_SLICE_ROWS
    dtype = np.int64 if k * m_max < 64 else object
    levels = [np.zeros((1, 0), dtype)]
    yield levels[0]
    for m in range(1, m_max + 1):
        slots = m + k - 2  # m - 1 stars and k - 1 bars
        pieces = []  # (block 0, [(gap level, shift)], rows of the product)
        for bars in combinations(range(slots), k - 1):
            block, p, parts, size = 0, 0, [], 1
            for lo, hi in zip((-1,) + bars, bars + (slots,)):
                g = hi - lo - 1
                block |= 1 << p
                if g:
                    parts.append((levels[g], p + 1))
                    size *= len(levels[g])
                p += k * g + 1
            pieces.append((block, parts, size))
        total = sum(size for *_, size in pieces)
        keep = m < m_max
        out = np.empty((total if keep else min(rows, total), m), dtype)
        start = at = 0  # level rows: the open slice starts at start, at are written
        for block, parts, size in pieces:
            first = 0
            while first < size:
                base = 0 if keep else start
                count = min(size - first, start + rows - at)
                _fill_product(out[at - base : at - base + count], block, parts, first)
                first += count
                at += count
                if at == min(start + rows, total):
                    yield out[start - base : at - base]
                    start = at
        if keep:
            levels.append(out)


def _fill_product(out, block: int, parts: list, first: int) -> None:
    """Write rows ``first``.. of one composition's product into ``out``:
    block 0 in column 0, then each gap's level row shifted into place."""
    import numpy as np

    out[:, 0] = block
    if not parts:
        return
    picks = np.unravel_index(np.arange(first, first + len(out)), [len(level) for level, _ in parts])
    col = 1
    for (level, shift), pick in zip(parts, picks):
        width = level.shape[1]
        np.left_shift(level[pick], shift, out=out[:, col : col + width])
        col += width


def _short_counts(masks) -> list[int]:
    """Rows of one slice (blocks in order of lowest vertex) that are
    non-crossing, counted by short blocks.

    A row is non-crossing iff no block's span meets the union of the
    earlier blocks, and its short blocks are those equal to their span.
    Spans are exact at any width: int64 masks are smeared right, with no
    float, and Python-int masks go through ``_span``.
    """
    import numpy as np

    if masks.dtype == object:
        spans = np.frompyfunc(_span, 1, 1)(masks)
    else:
        top = masks.copy()
        for shift in (1, 2, 4, 8, 16, 32):  # every bit below the highest one
            top |= top >> shift
        spans = top & -(masks & -masks)
    seen = np.bitwise_or.accumulate(masks, axis=1)
    crossing = ((spans[:, 1:] & seen[:, :-1]) != 0).any(axis=1)
    shorts = (masks == spans).sum(axis=1)
    return np.bincount(shorts[~crossing], minlength=masks.shape[1] + 1).tolist()


def noncrossing_survey(k: int, m_max: int, budget: int | None = None) -> list[tuple[int, ...]]:
    """Brute-force non-crossing diagrams by short chords, rows m = 0..m_max.

    One walk up to ``m_max``, checked a slice at a time by
    ``_short_counts``; a crossing row is dropped, so a fault of the walk
    shows as a row summing short of Fuss-Catalan.
    """
    from .tables import fuss_catalan

    if k < 2 or m_max < 0:
        raise ValueError("need k >= 2 and m_max >= 0")
    oracle_budget(budget, fuss_catalan(k, m_max))
    rows = [[0] * (m + 1) for m in range(m_max + 1)]
    for masks in _noncrossing_levels(k, m_max):
        row = rows[masks.shape[1]]
        for s, count in enumerate(_short_counts(masks)):
            row[s] += count
    return [tuple(row) for row in rows]


def _partitions(
    vertices: int,
    k: int,
    step: Callable[[Any, int], Any],
    root: Any,
    pair: Callable[[int, int], Any],
    leaf: Callable[[Any, Iterable, dict], None],
    block0: int = 0,
) -> dict[Hashable, int]:
    """The histogram that ``leaf`` fills over the partitions of
    range(vertices) into k-sets, at least two of them.

    The blocks of a partition are bitmasks in order of their lowest
    vertex.  ``state`` is ``root`` folded by ``step(state, m)`` over
    every block but the last two; each prefix is folded once and shared
    by all partitions below it.  ``pair(free, a)`` gives the facts of
    the last two blocks ``a`` and ``free - a`` that need no state, and
    ``leaf(state, facts, hist)`` adds to ``hist`` every partition below
    a node with two blocks left, one per entry of ``facts``.  Each block
    takes the lowest free vertex and k-1 partners from the rest (Knuth,
    TAOCP 7.2.1.5), and the last block takes what is left.  Candidate
    blocks and pair facts depend only on the free mask, so each walk
    builds them once for a mask two or more blocks down, which has many
    parents (no state or histogram is reused).  A non-zero ``block0``
    fixes the block of vertex 0, so that the walks over its possible
    values split the partitions into disjoint sub-ranges.
    """
    n = vertices // k
    if n < 2:
        raise ValueError(f"the partition walk needs two or more blocks, got {n}")
    hist: dict[Hashable, int] = {}
    children: dict[int, list[int]] = {}
    facts: dict[int, list] = {}

    def last_two(free: int) -> Iterator:
        return map(pair, repeat(free), _blocks(free, k))

    def place(state: Any, free: int, depth: int, blocks: list[int]) -> None:
        if depth + 3 == n:  # fold the third block from last, count the last two
            for m in blocks:
                rest = free - m
                if depth:
                    below = facts.get(rest) or facts.setdefault(rest, list(last_two(rest)))
                else:  # a free mask one block down has one parent: no reuse
                    below = last_two(rest)
                leaf(step(state, m), below, hist)
            return
        for m in blocks:
            rest = free - m
            if depth:
                below = children.get(rest) or children.setdefault(rest, _blocks(rest, k))
            else:
                below = _blocks(rest, k)
            place(step(state, m), rest, depth + 1, below)

    free = (1 << vertices) - 1
    top = [block0] if block0 else _blocks(free, k)
    if n == 2:  # the root is the leaf level
        leaf(root, map(pair, repeat(free), top), hist)
    else:
        place(root, free, 0, top)
    return hist


def _blocks(free: int, k: int) -> list[int]:
    """The lowest vertex of the mask ``free`` with each choice of k-1
    partners among its other vertices."""
    low, *bits = [1 << v for v in range(free.bit_length()) if free >> v & 1]
    return [low + partners for partners in map(sum, combinations(bits, k - 1))]


# The survey's walk state after a prefix of blocks: (short blocks, union
# of the short blocks, union of all blocks, crossed, spans of the other
# blocks outside ``crossed``).  A short block fills its span, so it
# crosses nothing.  ``crossed`` is the union of the blocks whose span
# meets an earlier block, which they then cross.  A crossed block is in
# ``crossed`` or crosses a later block that is, so its span meets
# ``crossed``.  A span that meets a crossed block either contains that
# block's span or is the span of a block that crosses it, so it meets
# ``crossed`` too: a block is non-crossing iff its span misses
# ``crossed``.
_SURVEY_ROOT = (0, 0, 0, 0, ())


def _survey_step(state: tuple, m: int) -> tuple:
    """The survey state after block ``m`` is placed."""
    shorts, union, seen, crossed, outside = state
    s = (1 << m.bit_length()) - (m & -m)  # _span, inlined
    if m == s:
        return shorts + 1, union | m, seen | m, crossed, outside
    if s & seen:
        return shorts, union, seen | m, crossed | m, outside
    return shorts, union, seen | m, crossed, outside + (s,)


def _survey_pair(free: int, a: int) -> tuple[int, int, int, int]:
    """(short blocks, their union, the bits they add to ``crossed``,
    non-crossing blocks) of the last two blocks ``a`` and ``b = free - a``.

    Every vertex outside ``free`` is in an earlier block, so ``a``
    crosses an earlier block iff its span meets ``~free``, and ``b``,
    the last block, does unless it is short.  Otherwise the span of
    ``a`` lies in ``free`` and misses every crossed block before it, so
    ``a`` is non-crossing iff it is short or its span misses a crossed
    ``b``.
    """
    b = free - a
    s = (1 << a.bit_length()) - (a & -a)  # _span, inlined
    if b == (1 << b.bit_length()) - (b & -b):  # b is short
        if a == s:
            return 2, free, 0, 2
        return (1, b, a, 1) if s & ~free else (1, b, 0, 2)
    if a == s:
        return 1, a, b, 1
    if s & ~free:
        return 0, 0, free, 0
    return 0, 0, b, 0 if s & b else 1


def _survey_leaf(state: tuple, facts: Iterable, hist: dict) -> None:
    """Count (short chords, components, non-crossing blocks) for every
    diagram whose blocks are the prefix folded into ``state``, then the
    last two blocks of each entry of ``facts``.

    The components are the runs of the union U of the short blocks, one
    per bit of U & ~(U << 1), and a block is non-crossing iff its span
    misses ``crossed``.
    """
    shorts, union, _, crossed, outside = state
    live = [s for s in outside if not s & crossed] if outside else outside
    runs = (union & ~(union << 1)).bit_count()
    get = hist.get
    for more, covered, cross, noncrossing in facts:
        noncrossing += shorts
        for s in live:
            if not s & cross:
                noncrossing += 1
        if covered:
            u = union | covered
            key = shorts + more, (u & ~(u << 1)).bit_count(), noncrossing
        else:
            key = shorts + more, runs, noncrossing
        hist[key] = get(key, 0) + 1


def stats(diagram: Diagram) -> BlockStats:
    """Compute the four block statistics of a diagram.

    The first three fold the survey's walk step over every block but the
    last two and read those two through its pair and leaf, as the
    oracle does.
    """
    masks = diagram.masks()
    if diagram.n < 2:  # the empty diagram, or one short block
        shorts = components = noncrossing = diagram.n
    else:
        state = reduce(_survey_step, masks[:-2], _SURVEY_ROOT)
        hist: dict[tuple[int, int, int], int] = {}
        _survey_leaf(state, [_survey_pair(masks[-2] | masks[-1], masks[-2])], hist)
        ((shorts, components, noncrossing),) = hist
    return BlockStats(
        short_chords=shorts,
        components=components,
        noncrossing=noncrossing,
        crossing_pairs=sum(_crosses(a, b) for a, b in combinations(masks, 2)),
    )


def survey(
    k: int,
    n: int,
    block0: Sequence[int] | None = None,
    budget: int | None = None,
) -> dict[tuple[int, int, int], int]:
    """Brute-force joint histogram over (short_chords, components, noncrossing).

    Visits every diagram (or the sub-range with block 0 fixed) once
    with the partition walk, which carries the statistics of each
    prefix of blocks down to the diagrams below it.  This is the oracle
    that every counting formula in the package is tested against.
    """
    from .counting import total_diagrams

    if k < 2 or n < 0:
        raise ValueError("need k >= 2 and n >= 0")
    oracle_budget(budget, total_diagrams(k, n) if block0 is None else 0)
    fixed = 0
    if block0 is not None:
        positions = set(block0)
        if len(positions) != k or 0 not in positions or not all(0 <= p < k * n for p in positions):
            raise ValueError("block0 must be k distinct positions including 0")
        fixed = sum(1 << p for p in positions)
    if n < 2:  # the empty diagram, or one short block
        return {(n, n, n): 1}
    return _partitions(k * n, k, _survey_step, _SURVEY_ROOT, _survey_pair, _survey_leaf, fixed)


def survey_parallel(
    k: int,
    n: int,
    jobs: int = 1,
    budget: int | None = None,
) -> dict[tuple[int, int, int], int]:
    """Like :func:`survey`, split across worker processes.

    The work is partitioned by block 0's placement, so the result is
    deterministic and identical to the sequential survey.
    """
    from .counting import total_diagrams

    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    if jobs == 1 or n <= 1:
        return survey(k, n, budget=budget)
    oracle_budget(budget, total_diagrams(k, n))
    from multiprocessing import Pool

    merged: dict[tuple[int, int, int], int] = {}
    with Pool(jobs) as pool:
        for part in pool.imap_unordered(partial(survey, k, n), block0_placements(k, n), 8):
            for key, val in part.items():
                merged[key] = merged.get(key, 0) + val
    return merged
