"""Linear k-chord diagrams.

A diagram places ``k*n`` linearly ordered vertices into ``n`` blocks
("chords") of ``k`` vertices each.  The canonical form is the word that
lists, for each position, the label of its block, with labels numbered
by first occurrence.  This module provides canonicalization, per-diagram
statistics computed on block bitmasks, the lattice-path encoding of
non-crossing diagrams, and the one partition walk behind the brute-force
statistics survey (the test oracle) and the memory game's exhaustive
deals, with deterministic sub-ranges for parallel runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Hashable, Iterator, Sequence

DEFAULT_ORACLE_BUDGET = 10**7


class BudgetExceededError(Exception):
    """Raised when an exhaustive enumeration would visit too many objects."""

    def __init__(self, total: int, budget: int):
        super().__init__(f"enumeration size {total} exceeds budget {budget}")
        self.total = total
        self.budget = budget


def oracle_budget(override: int | None = None) -> int:
    """Enumeration cap for brute-force surveys.

    Priority: explicit argument, then the ``KCHORD_ORACLE_BUDGET``
    environment variable, then the default of 10**7.  A negative budget
    is rejected.
    """
    if override is None:
        env = os.environ.get("KCHORD_ORACLE_BUDGET")
        override = env if env else DEFAULT_ORACLE_BUDGET
    budget = int(override)
    if budget < 0:
        raise ValueError(f"oracle budget must be nonnegative, got {budget}")
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
        if any(c != self.k for c in counts):
            raise ValueError("every label must occur exactly k times")

    def blocks(self) -> list[tuple[int, ...]]:
        """Vertex positions of each block, sorted, indexed by label."""
        out: list[list[int]] = [[] for _ in range(self.n)]
        for pos, label in enumerate(self.word):
            out[label].append(pos)
        return [tuple(b) for b in out]

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

    @property
    def up_count(self) -> int:
        return self.steps.count("U")

    @property
    def down_count(self) -> int:
        return self.steps.count("D")

    def peaks(self) -> int:
        """Number of UD factors."""
        return self.steps.count("UD")


def canonicalize(word: Sequence[Hashable], k: int | None = None) -> Diagram:
    """Relabel a block word by first occurrence.

    Symbols may be arbitrary hashables; each must occur exactly ``k``
    times.  ``k`` is inferred from the multiplicities when omitted (an
    empty word then needs an explicit ``k``).

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
    counts = [0] * n
    for lab in relabeled:
        counts[lab] += 1
    bad = [sym for sym, lab in order.items() if counts[lab] != k]
    if bad:
        raise ValueError(f"symbol {bad[0]!r} occurs {counts[order[bad[0]]]} times, expected {k}")
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


def _linear_stats(masks: Sequence[int]) -> tuple[int, int, int]:
    """(short chords, components, non-crossing blocks) of a diagram whose
    blocks ``masks`` are listed in order of their lowest vertex.

    A block is short when it fills its span.  Components are the runs
    of the union U of the short blocks, one per bit of U & ~(U << 1).  A
    block crosses an earlier-listed one exactly when its span meets it,
    so a forward pass finds the blocks crossed from the left and a
    backward pass those crossed from the right.  A block is non-crossing
    when its span meets no crossed block: the blocks inside its span are
    then all nested in its gaps, and by induction non-crossing too.
    """
    spans = [(1 << m.bit_length()) - (m & -m) for m in masks]  # _span, inlined
    shorts = union = crossed = seen = 0
    for m, s in zip(masks, spans):
        if m == s:
            shorts += 1
            union |= m
        if s & seen:
            crossed |= m
        seen |= m
    seen = 0
    for i in range(len(masks) - 1, -1, -1):
        if masks[i] & seen:
            crossed |= masks[i]
        seen |= spans[i]
    noncrossing = sum(1 for s in spans if not s & crossed)
    return shorts, (union & ~(union << 1)).bit_count(), noncrossing


def stats(diagram: Diagram) -> BlockStats:
    """Compute the four block statistics of a diagram."""
    masks = diagram.masks()
    shorts, components, noncrossing = _linear_stats(masks)
    return BlockStats(
        short_chords=shorts,
        components=components,
        noncrossing=noncrossing,
        crossing_pairs=sum(_crosses(a, b) for a, b in combinations(masks, 2)),
    )


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


def enumerate_noncrossing(k: int, n: int) -> Iterator[Diagram]:
    """Yield every non-crossing diagram exactly once.

    Recursive construction: the block holding the final position splits
    the rest into a left region plus k-1 arches, each holding a smaller
    non-crossing diagram.  The total count is the Fuss-Catalan number.
    """
    if k < 2 or n < 0:
        raise ValueError("need k >= 2 and n >= 0")

    memo: dict[int, list[tuple[int, ...]]] = {}

    def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    def build(m: int) -> list[tuple[int, ...]]:
        if m in memo:
            return memo[m]
        if m == 0:
            memo[0] = [()]
            return memo[0]
        out: list[tuple[int, ...]] = []
        for comp in compositions(m - 1, k):
            subs = [build(c) for c in comp]
            for pick in _product_lists(subs):
                word: list[int] = []
                base = 0
                regions = []
                for sub in pick:
                    regions.append([lab + base for lab in sub])
                    base += max(sub, default=-1) + 1
                new = base
                word.extend(regions[0])
                for region in regions[1:]:
                    word.append(new)
                    word.extend(region)
                word.append(new)
                out.append(canonicalize(word, k).word)
        memo[m] = out
        return out

    for w in build(n):
        yield Diagram(k, n, w)


def _product_lists(lists: list[list[tuple[int, ...]]]) -> Iterator[list[tuple[int, ...]]]:
    if not lists:
        yield []
        return
    for head in lists[0]:
        for tail in _product_lists(lists[1:]):
            yield [head] + tail


def _partitions(vertices: int, k: int, visit: Callable[[list[int]], None], block0: int = 0) -> None:
    """Call ``visit(masks)`` once for each partition of range(vertices)
    into k-sets.

    ``masks`` holds the blocks as bitmasks in order of their lowest
    vertex; the one list is reused from call to call.  Each block takes
    the lowest free vertex and k-1 partners from the rest (Knuth, TAOCP
    7.2.1.5), and the last block takes what is left.  A non-zero
    ``block0`` fixes the block of vertex 0, so that the walks over its
    possible values split the partitions into disjoint sub-ranges.
    """
    n = vertices // k
    masks = [0] * n
    free = (1 << vertices) - 1
    depth = 0
    if block0:
        masks[0] = block0
        free ^= block0
        depth = 1

    def place(free: int, bits: list[int], depth: int) -> None:
        low, rest = bits[0], bits[1:]
        for partners in combinations(rest, k - 1):
            m = low + sum(partners)
            masks[depth] = m
            if depth + 2 == n:
                masks[depth + 1] = free - m
                visit(masks)
            else:
                place(free - m, [b for b in rest if not b & m], depth + 1)

    if n - depth < 2:  # nothing, or one forced block, left to place
        masks[depth:] = [free] * (n - depth)
        visit(masks)
    else:
        place(free, [1 << v for v in range(vertices) if free >> v & 1], depth)


def survey(
    k: int,
    n: int,
    block0: Sequence[int] | None = None,
    budget: int | None = None,
) -> dict[tuple[int, int, int], int]:
    """Brute-force joint histogram over (short_chords, components, noncrossing).

    Visits every diagram (or the sub-range with block 0 fixed) once
    with the partition walk and reads the statistics off its block
    bitmasks.  This is the oracle that every counting formula in the
    package is tested against.
    """
    from .counting import total_diagrams

    if k < 2 or n < 0:
        raise ValueError("need k >= 2 and n >= 0")
    cap = oracle_budget(budget)
    if block0 is None and total_diagrams(k, n) > cap:
        raise BudgetExceededError(total_diagrams(k, n), cap)
    fixed = 0
    if block0 is not None:
        positions = set(block0)
        in_range = all(0 <= p < k * n for p in positions)
        if len(positions) != k or 0 not in positions or not in_range:
            raise ValueError("block0 must be k distinct positions including 0")
        fixed = sum(1 << p for p in positions)

    hist: dict[tuple[int, int, int], int] = {}

    def leaf(masks: list[int]) -> None:
        key = _linear_stats(masks)
        hist[key] = hist.get(key, 0) + 1

    _partitions(k * n, k, leaf, fixed)
    return hist


def _survey_worker(args: tuple[int, int, tuple[int, ...]]) -> dict[tuple[int, int, int], int]:
    k, n, placement = args
    return survey(k, n, block0=placement)


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
    cap = oracle_budget(budget)
    if total_diagrams(k, n) > cap:
        raise BudgetExceededError(total_diagrams(k, n), cap)
    if jobs == 1 or n <= 1:
        return survey(k, n, budget=budget)
    from multiprocessing import Pool

    merged: dict[tuple[int, int, int], int] = {}
    tasks = [(k, n, pl) for pl in block0_placements(k, n)]
    with Pool(jobs) as pool:
        for part in pool.imap_unordered(_survey_worker, tasks, chunksize=8):
            for key, val in part.items():
                merged[key] = merged.get(key, 0) + val
    return merged
