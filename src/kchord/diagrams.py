"""Linear k-chord diagrams.

A diagram places ``k*n`` linearly ordered vertices into ``n`` blocks
("chords") of ``k`` vertices each.  The canonical form is the word that
lists, for each position, the label of its block, with labels numbered
by first occurrence.  This module provides canonicalization, per-diagram
statistics computed on block bitmasks, the lattice-path encoding of
non-crossing diagrams, the brute-force non-crossing survey on numpy level
arrays, and the one partition walk behind the brute-force statistics
survey (the test oracle), its walks of short chords or components alone,
and the memory game's exhaustive deals.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable, Hashable, Iterator, Sequence

from .counting import _check_sizes, total_diagrams

DEFAULT_ORACLE_BUDGET = 10**7


class BudgetExceededError(Exception):
    """Raised when an exhaustive enumeration would visit too many objects."""

    def __init__(self, total: int, budget: int):
        super().__init__(f"enumeration size {total} exceeds budget {budget}")
        self.total = total
        self.budget = budget


def _integer(value, what: str) -> int:
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def oracle_budget(override: int | None = None, total: int = 0) -> int:
    """Enumeration cap for brute-force surveys, checked against the
    ``total`` objects an enumeration would visit.

    Priority: explicit argument, then the ``KCHORD_ORACLE_BUDGET``
    environment variable, then the default of 10**7.  A budget that is
    not an integer or is negative is rejected, and a ``total`` above the
    cap raises :class:`BudgetExceededError`.
    """
    if override is not None:
        budget = _integer(override, "oracle budget")
    elif env := os.environ.get("KCHORD_ORACLE_BUDGET"):
        try:
            budget = int(env)
        except ValueError:
            raise ValueError(f"KCHORD_ORACLE_BUDGET must be an integer, got {env!r}") from None
    else:
        budget = DEFAULT_ORACLE_BUDGET
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
        _check_sizes(self.k, self.n, "block count")
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

    _check_sizes(k, m_max, "m_max")
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
    step: Callable[[int, Any, int], Any],
    root: Hashable,
    extend: Callable[[int, int, Hashable], Hashable],
    empty: Hashable,
    leaf: Callable[[Any, list, dict, int], None],
) -> dict[Hashable, int]:
    """The histogram that ``leaf`` fills over the partitions of
    range(vertices) into k-sets.

    The blocks of a partition are bitmasks in order of their lowest
    vertex; each block takes the lowest free vertex and k-1 partners
    from the rest (Knuth, TAOCP 7.2.1.5).  The walk goes one layer at a
    time over every block but the last t = min(n, 3).  Layer d maps
    each free mask d blocks down to the states of its prefixes, each
    with its number of prefixes: ``step(rest, state, m)`` is the state
    after block ``m`` is placed, leaving the free mask ``rest``, and
    equal states of one mask are summed.  The last t blocks are read as
    facts that need no state: ``empty`` is the fact of no blocks, and
    ``extend(free, a, fact)`` is the fact of the blocks of ``free``
    whose first block is ``a``, given ``fact`` of those of ``free - a``.
    The tail of a free mask lists each distinct fact of its partitions
    with its multiplicity, and ``leaf(state, tail, hist, times)`` adds
    to ``hist`` the ``count * times`` partitions of each ``(fact,
    count)`` of the tail below ``times`` prefixes with that state.  So
    each partition is counted once, as one pair of a prefix state and a
    tail fact.
    """
    n = vertices // k
    layer = {(1 << vertices) - 1: {root: 1}}
    for _ in range(n - 3):
        below: dict[int, dict] = {}
        for free, states in layer.items():
            for m in _blocks(free, k):
                rest = free - m
                merged = below.get(rest)
                if merged is None:
                    merged = below[rest] = {}
                get = merged.get
                for state, count in states.items():
                    state = step(rest, state, m)
                    merged[state] = get(state, 0) + count
        layer = below
    hist: dict[Hashable, int] = {}
    tails: dict[int, list] = {0: [(empty, 1)]}
    keep = min(2 * k, vertices - 2 * k)  # the masks below the leaf's that can have several parents
    for free, states in layer.items():
        tail = tails.get(free) or _tail(free, k, extend, tails, keep)
        for state, count in states.items():
            leaf(state, tail, hist, count)
    return hist


def _tail(free: int, k: int, extend: Callable, tails: dict[int, list], keep: int) -> list:
    """The tail of the mask ``free``, built from the tails one block
    down, and kept in ``tails`` if ``free`` has at most ``keep`` vertices."""
    merged: dict[Hashable, int] = {}
    get = merged.get
    for a in _blocks(free, k):
        rest = free - a
        for fact, count in tails.get(rest) or _tail(rest, k, extend, tails, keep):
            fact = extend(free, a, fact)
            merged[fact] = get(fact, 0) + count
    got = list(merged.items())
    if free.bit_count() <= keep:
        tails[free] = got
    return got


def _blocks(free: int, k: int) -> list[int]:
    """The lowest vertex of the mask ``free`` with each choice of k-1
    partners among its other vertices."""
    if free.bit_count() == k:  # the last block
        return [free]
    low, *bits = [1 << v for v in range(free.bit_length()) if free >> v & 1]
    return [low + partners for partners in map(sum, combinations(bits, k - 1))]


# The survey's walk state after a prefix of blocks keeps only what the
# blocks of ``rest`` can still change: (short blocks, runs of their
# union U, the bits of U next to ``rest``, settled non-crossing blocks,
# live spans cut to ``rest``).  A short block fills its span, so it
# crosses nothing and is settled at once.  With the blocks in order of
# their lowest vertex, a block crosses an earlier one iff its span meets
# a placed vertex, and a block is non-crossing iff its span meets no
# block that does (a span that meets a crossing block contains it or
# crosses it).  A block that crosses no earlier one has its span among
# the free vertices, so only later blocks can meet it, and its cut span
# is the free vertices up to its last.  The next block holds the lowest
# free vertex, so it meets every live span: if it crosses an earlier
# block, no live block is non-crossing.  If it does not and is not
# short, its span becomes the smallest live one.  A span with no free
# vertex left is settled.
# A short block C joins the runs of U where the two touch:
# runs(U | C) = runs(U) + runs(C) - popcount((U << 1 & C) | (C << 1 & U)).
_SURVEY_ROOT = (0, 0, 0, 0, ())


def _survey_step(rest: int, state: tuple, m: int) -> tuple:
    """The survey state after block ``m`` is placed, leaving ``rest``."""
    shorts, runs, edge, settled, live = state
    s = (1 << m.bit_length()) - (m & -m)  # _span, inlined
    if m == s:
        runs += 1 - (edge << 1 & m | m << 1 & edge).bit_count()
        cut = tuple(x - m for x in live if x != m)
        settled += 1 + len(live) - len(cut)
        return shorts + 1, runs, (edge | m) & (rest << 1 | rest >> 1), settled, cut
    if edge:
        edge &= rest << 1 | rest >> 1
    if s & ~rest & ~m:  # m crosses an earlier block
        return shorts, runs, edge, settled, ()
    return shorts, runs, edge, settled, (s - m,) + tuple(x - m for x in live)


# The fact of the last blocks: (short blocks, their union C, the lowest
# vertex of the blocks that cross an earlier block, non-crossing blocks).
_SURVEY_EMPTY = (0, 0, 0, 0)


def _survey_extend(free: int, a: int, fact: tuple) -> tuple[int, int, int, int]:
    """The fact of the blocks of ``free`` whose first block is ``a``,
    from ``fact``, that of the blocks of ``free - a``.

    Every vertex outside ``free`` is in an earlier block, so ``a``
    crosses an earlier block iff its span meets ``~free``.  Otherwise
    the span of ``a`` runs from the lowest vertex of ``free`` and meets
    no earlier crossing block.  The later blocks lie above that vertex,
    so ``a`` is non-crossing iff it is short or its span misses the
    lowest vertex of the later crossing blocks.
    """
    more, covered, low, noncrossing = fact
    s = (1 << a.bit_length()) - (a & -a)  # _span, inlined
    if a == s:
        return more + 1, covered | a, low, noncrossing + 1
    if s & ~free:
        return more, covered, a & -a, noncrossing
    return more, covered, low, noncrossing if s & low else noncrossing + 1


def _survey_leaf(state: tuple, tail: list, hist: dict, times: int) -> None:
    """Count (short chords, components, non-crossing blocks) for the
    ``times`` prefixes folded into ``state``, each followed by the last
    blocks of each fact of ``tail``, ``count`` diagrams per fact.

    The components are the runs of U | C, and a live span is non-crossing
    iff it misses the lowest vertex of the tail's crossing blocks.
    """
    shorts, runs, edge, settled, live = state
    get = hist.get
    for (more, covered, low, noncrossing), count in tail:
        noncrossing += settled
        for s in live:
            if not s & low:
                noncrossing += 1
        if covered:
            joins = (edge << 1 & covered | covered << 1 & edge).bit_count()
            key = shorts + more, runs + (covered & ~(covered << 1)).bit_count() - joins, noncrossing
        else:
            key = shorts + more, runs, noncrossing
        hist[key] = get(key, 0) + count * times


def stats(diagram: Diagram) -> BlockStats:
    """Compute the four block statistics of a diagram.

    The first three fold the survey's walk step over every block but the
    last min(n, 2) and read those through its extend and leaf, as the
    oracle does.
    """
    masks = diagram.masks()
    cut = diagram.n - min(diagram.n, 2)
    state, rest = _SURVEY_ROOT, (1 << len(diagram.word)) - 1
    for m in masks[:cut]:
        rest -= m
        state = _survey_step(rest, state, m)
    fact, free = _SURVEY_EMPTY, 0
    for m in reversed(masks[cut:]):
        free |= m
        fact = _survey_extend(free, m, fact)
    hist: dict[tuple[int, int, int], int] = {}
    _survey_leaf(state, [(fact, 1)], hist, 1)
    ((shorts, components, noncrossing),) = hist
    return BlockStats(
        short_chords=shorts,
        components=components,
        noncrossing=noncrossing,
        crossing_pairs=sum(_crosses(a, b) for a, b in combinations(masks, 2)),
    )


def survey(k: int, n: int, budget: int | None = None) -> dict[tuple[int, int, int], int]:
    """Brute-force joint histogram over (short_chords, components, noncrossing).

    Counts every diagram once with the partition walk, which merges the
    prefixes of blocks that leave the same free mask and survey state.
    This is the oracle that every counting formula in the package is
    tested against.
    """
    _check_sizes(k, n)
    oracle_budget(budget, total_diagrams(k, n))
    return _partitions(k * n, k, _survey_step, _SURVEY_ROOT, _survey_extend, _SURVEY_EMPTY, _survey_leaf)


# The walks of one statistic keep only what it reads, so more prefixes
# merge than in the joint survey.  For short chords the state and the
# fact are both a count of short blocks.  For components the state is
# (runs of U, the bits of U next to ``rest``) and the fact is the union
# C of the tail's short blocks, read as in the survey's step and leaf.


def _short_step(rest: int, shorts: int, m: int) -> int:
    return shorts + (m == (1 << m.bit_length()) - (m & -m))


def _short_extend(free: int, a: int, more: int) -> int:
    return more + (a == (1 << a.bit_length()) - (a & -a))


def _short_leaf(shorts: int, tail: list, hist: dict, times: int) -> None:
    get = hist.get
    for more, count in tail:
        key = shorts + more
        hist[key] = get(key, 0) + count * times


def _component_step(rest: int, state: tuple[int, int], m: int) -> tuple[int, int]:
    runs, edge = state
    if m == (1 << m.bit_length()) - (m & -m):
        runs += 1 - (edge << 1 & m | m << 1 & edge).bit_count()
        edge |= m
    return runs, edge & (rest << 1 | rest >> 1)


def _component_extend(free: int, a: int, covered: int) -> int:
    return covered | a if a == (1 << a.bit_length()) - (a & -a) else covered


def _component_leaf(state: tuple[int, int], tail: list, hist: dict, times: int) -> None:
    runs, edge = state
    get = hist.get
    for covered, count in tail:
        joins = (edge << 1 & covered | covered << 1 & edge).bit_count()
        key = runs + (covered & ~(covered << 1)).bit_count() - joins
        hist[key] = get(key, 0) + count * times


def short_survey(k: int, n: int, budget: int | None = None) -> dict[int, int]:
    """Brute-force histogram of short chords: the short-chord marginal of
    :func:`survey`, from a walk that keeps only the short-block count."""
    _check_sizes(k, n)
    oracle_budget(budget, total_diagrams(k, n))
    return _partitions(k * n, k, _short_step, 0, _short_extend, 0, _short_leaf)


def component_survey(k: int, n: int, budget: int | None = None) -> dict[int, int]:
    """Brute-force histogram of components: the component marginal of
    :func:`survey`, from a walk that keeps only the runs of short blocks."""
    _check_sizes(k, n)
    oracle_budget(budget, total_diagrams(k, n))
    return _partitions(k * n, k, _component_step, (0, 0), _component_extend, 0, _component_leaf)
