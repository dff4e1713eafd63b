from __future__ import annotations

import gc
import random
from collections import Counter
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    delete_block,
    enumerate_noncrossing,
    naive_blocks,
    naive_crossing,
    naive_enumerate,
    naive_noncrossing_set,
    naive_stats,
    noncrossing_masks,
)
from kchord import (
    BudgetExceededError,
    Diagram,
    canonicalize,
    encode_lattice_path,
    exhaustive_distribution,
    fuss_catalan,
    noncrossing_rows,
    path_board,
    stats,
    survey,
    total_diagrams,
)
from kchord import cli, counting, diagrams
from kchord.diagrams import (
    _SURVEY_EMPTY,
    _SURVEY_ROOT,
    _crosses,
    _noncrossing_blocks,
    _partitions,
    _span,
    _survey_extend,
    _survey_leaf,
    _survey_step,
    component_survey,
    noncrossing_survey,
    oracle_budget,
    short_survey,
)


@st.composite
def random_word(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(0, 4))
    positions = list(range(k * n))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rng.shuffle(positions)
    word = [0] * (k * n)
    for label in range(n):
        for p in positions[label * k : (label + 1) * k]:
            word[p] = label
    return k, tuple(word)


class TestDiagram:
    def test_valid_construction(self):
        d = Diagram(2, 2, (0, 1, 0, 1))
        assert d.masks() == [0b0101, 0b1010]
        assert d.as_text() == "0,1,0,1"

    def test_empty(self):
        d = Diagram(3, 0, ())
        assert d.masks() == []
        assert stats(d).short_chords == 0

    def test_rejects_wrong_multiplicity(self):
        with pytest.raises(ValueError, match="label 0 occurs 1 times, expected 2"):
            Diagram(2, 2, (0, 1, 1, 1))

    def test_rejects_non_canonical_order(self):
        with pytest.raises(ValueError):
            Diagram(2, 2, (1, 0, 1, 0))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Diagram(2, 2, (0, 1, 0))


class TestCanonicalize:
    def test_relabels_by_first_occurrence(self):
        d = canonicalize(["b", "a", "b", "a"])
        assert d.word == (0, 1, 0, 1)
        assert d.k == 2 and d.n == 2

    def test_explicit_k(self):
        d = canonicalize([5, 5, 7, 7, 5, 7], k=3)
        assert d.word == (0, 0, 1, 1, 0, 1)

    def test_rejects_mixed_multiplicity(self):
        with pytest.raises(ValueError):
            canonicalize([0, 0, 1, 1, 1])

    @given(random_word())
    def test_idempotent(self, kw):
        k, word = kw
        d = canonicalize(word, k)
        assert canonicalize(d.word, k).word == d.word


def walk_words(k: int, n: int) -> list[tuple[int, ...]]:
    """The partition walk's diagrams as label words, each as often as
    the walk counts it.  The states and tail facts are the blocks
    themselves, so no two partitions share a state or a fact."""

    def leaf(masks, tail, hist, times):
        for last, count in tail:
            word = [0] * (k * n)
            for label, mask in enumerate(masks + last):
                for p in range(k * n):
                    if mask >> p & 1:
                        word[p] = label
            word = tuple(word)
            hist[word] = hist.get(word, 0) + count * times

    def extend(free, a, last):
        return (a,) + last

    hist = _partitions(k * n, k, lambda rest, masks, m: masks + (m,), (), extend, (), leaf)
    return [word for word, count in hist.items() for _ in range(count)]


def carried_and_linear_stats(k: int, n: int) -> list[tuple]:
    """(block masks, survey statistics carried down the walk, the
    statistics naive_stats reads off the diagram's word) per diagram."""

    def step(rest, state, m):
        carried, masks = state
        return _survey_step(rest, carried, m), masks + (m,)

    def extend(free, a, fact):
        counted, last = fact
        return _survey_extend(free, a, counted), (a,) + last

    def leaf(state, tail, hist, times):
        carried, masks = state
        for (fact, last), count in tail:
            counted: dict = {}
            _survey_leaf(carried, [(fact, count)], counted, times)
            assert list(counted.values()) == [count * times] == [1]
            whole = masks + last
            word = tuple(next(i for i, m in enumerate(whole) if m >> p & 1) for p in range(k * n))
            key = whole, *counted, naive_stats(word)[:3]
            hist[key] = hist.get(key, 0) + 1

    hist = _partitions(k * n, k, step, (_SURVEY_ROOT, ()), extend, (_SURVEY_EMPTY, ()), leaf)
    assert set(hist.values()) == {1}
    return list(hist)


def leaf_calls(k: int, n: int, step, root, extend, empty) -> list[tuple[int, int, int]]:
    """(blocks in the tail, times, the sum of the tail's multiplicities)
    for each leaf call.  The state carries the number of blocks placed
    next to the caller's state."""
    calls = []

    def leaf(state, tail, hist, times):
        depth, _ = state
        calls.append((n - depth, times, sum(count for _, count in tail)))

    def counted(rest, state, m):
        depth, inner = state
        return depth + 1, step(rest, inner, m)

    _partitions(k * n, k, counted, (0, root), extend, empty, leaf)
    return calls


# (extend, empty) of three facts, from fine to none: the survey's, the
# short count alone, and no fact at all.
FACTS = [
    (_survey_extend, _SURVEY_EMPTY),
    (lambda free, a, shorts: shorts + (a == _span(a)), 0),
    (lambda free, a, fact: fact, None),
]


def block0_placements(k: int, n: int) -> list[tuple[int, ...]]:
    """The position sets block 0 can take: vertex 0 and k-1 others."""
    return [(0,) + rest for rest in combinations(range(1, k * n), k - 1)]


def survey_by_block0(k: int, n: int) -> dict[tuple[int, ...], Counter]:
    """The survey histogram of the diagrams with each placement of block
    0, from one walk that carries block 0 next to the survey's state, or
    next to its fact when block 0 is one of the last blocks."""
    whole = (1 << k * n) - 1

    def step(rest, state, m):
        first, carried = state
        return first or m, _survey_step(rest, carried, m)

    def extend(free, a, fact):
        first, counted = fact
        return a if free == whole else first, _survey_extend(free, a, counted)

    def leaf(state, tail, hist, times):
        first, carried = state
        for (last_first, fact), count in tail:
            counted: dict = {}
            _survey_leaf(carried, [(fact, count)], counted, times)
            split = hist.setdefault(first or last_first, Counter())
            split.update(counted)

    hist = _partitions(k * n, k, step, (0, _SURVEY_ROOT), extend, (0, _SURVEY_EMPTY), leaf)
    return {tuple(p for p in range(k * n) if b0 >> p & 1): split for b0, split in hist.items()}


def naive_block0_survey(k: int, n: int, block0) -> Counter:
    """naive_stats[:3] over the diagrams whose block 0 is ``block0``:
    that block, with every naive diagram on the other positions."""
    rest = [p for p in range(k * n) if p not in block0]
    want: Counter = Counter()
    for sub in naive_enumerate(k, n - 1):
        word = ["block0"] * (k * n)
        for p, label in zip(rest, sub):
            word[p] = label
        want[naive_stats(word)[:3]] += 1
    return want


def as_mask(positions) -> int:
    return sum(1 << p for p in positions)


@st.composite
def disjoint_blocks(draw):
    """Two disjoint position sets of sizes 1..5 within 0..15."""
    size_a = draw(st.integers(1, 5))
    size_b = draw(st.integers(1, 5))
    points = draw(st.permutations(range(16)))
    return tuple(sorted(points[:size_a])), tuple(sorted(points[size_a : size_a + size_b]))


class TestEnumerate:
    @pytest.mark.parametrize(
        "k,n",
        [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (4, 2), (5, 2)],
    )
    def test_matches_naive_enumeration(self, k, n):
        ours = walk_words(k, n)
        assert sorted(ours) == sorted(naive_enumerate(k, n))
        assert len(ours) == total_diagrams(k, n)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_tail_multiplicities_sum_to_partition_count(self, data):
        """Each tail the leaf gets counts every partition of its free mask
        once: its multiplicities sum to N(k, t) for its t = min(n, 3)
        blocks.  The coarser the fact, the more partitions share one
        entry."""
        k = data.draw(st.integers(2, 4), label="k")
        n = data.draw(st.integers(2, {2: 6, 3: 5, 4: 3}[k]), label="n")
        extend, empty = data.draw(st.sampled_from(FACTS), label="fact")
        calls = leaf_calls(k, n, lambda rest, state, m: state, None, extend, empty)
        for t, _, total in calls:
            assert t == min(n, 3)
            assert total == total_diagrams(k, t)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_leaf_counts_sum_to_diagram_total(self, data):
        """Summed over the leaf calls, ``times`` times the tail's
        multiplicities is N(k, n), however the prefix states merge: never
        (the blocks themselves), by the survey's state, or into one state
        per free mask."""
        k = data.draw(st.integers(2, 5), label="k")
        n = data.draw(st.integers(2, {2: 6, 3: 4, 4: 3, 5: 3}[k]), label="n")
        step, root = data.draw(
            st.sampled_from(
                [
                    (lambda rest, masks, m: masks + (m,), ()),
                    (_survey_step, _SURVEY_ROOT),
                    (lambda rest, state, m: state, None),
                ]
            ),
            label="state",
        )
        extend, empty = data.draw(st.sampled_from(FACTS), label="fact")
        calls = leaf_calls(k, n, step, root, extend, empty)
        assert sum(times * total for _, times, total in calls) == total_diagrams(k, n)

    def test_walks_share_no_child_blocks(self):
        """The tails looked up by free mask depend on k, so walks over
        the same 12 vertices with k = 2, 3, 2 in one process must each
        see only their own partitions."""
        for k in (2, 3, 2):
            ours = walk_words(k, 12 // k)
            assert len(ours) == total_diagrams(k, 12 // k)
            assert sorted(ours) == sorted(naive_enumerate(k, 12 // k))

    @pytest.mark.parametrize(
        "walk",
        [
            lambda: survey(3, 5),
            lambda: survey(2, 6),
            lambda: short_survey(3, 5),
            lambda: component_survey(3, 5),
            lambda: exhaustive_distribution(path_board(12), 3),
            lambda: exhaustive_distribution(path_board(12), 2),
        ],
        ids=[
            "survey(3, 5)", "survey(2, 6)", "short_survey(3, 5)", "component_survey(3, 5)",
            "path:12 k=3", "path:12 k=2",
        ],
    )
    def test_walk_leaves_no_garbage(self, walk):
        """A finished walk frees its layers and tails by reference count
        alone: with the collector off, nothing it made is left in a
        reference cycle."""
        walk()  # imports and caches that outlive the walk are made once
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            walk()
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    @given(disjoint_blocks())
    @settings(max_examples=300)
    def test_mask_crossing_matches_definition(self, blocks):
        a, b = blocks
        assert _crosses(as_mask(a), as_mask(b)) == naive_crossing(a, b)


class TestStats:
    @pytest.mark.parametrize("k,n", [(2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
    def test_agrees_with_naive_on_all_diagrams(self, k, n):
        for word in naive_enumerate(k, n):
            st_ = stats(Diagram(k, n, word))
            got = (st_.short_chords, st_.components, st_.noncrossing, st_.crossing_pairs)
            assert got == naive_stats(word), word

    @given(random_word())
    @settings(max_examples=150)
    def test_agrees_with_naive_on_random_words(self, kw):
        k, word = kw
        d = canonicalize(word, k)
        st_ = stats(d)
        got = (st_.short_chords, st_.components, st_.noncrossing, st_.crossing_pairs)
        assert got == naive_stats(d.word)

    @given(random_word())
    @settings(max_examples=150)
    def test_invariants(self, kw):
        k, word = kw
        st_ = stats(canonicalize(word, k))
        # short blocks are always non-crossing
        assert st_.short_chords <= st_.noncrossing
        # components group the short blocks
        assert st_.components <= st_.short_chords
        assert (st_.components == 0) == (st_.short_chords == 0)
        # a fully non-crossing diagram has no crossing pair, and vice versa
        n = st_.noncrossing if word else 0
        assert (st_.crossing_pairs == 0) == (st_.noncrossing == len(word) // k)

    def test_known_values(self):
        assert stats(canonicalize((0, 1, 0, 1))).crossing_pairs == 1
        st_ = stats(canonicalize((0, 0, 1, 1)))
        assert st_.short_chords == 2 and st_.components == 1 and st_.noncrossing == 2
        st_ = stats(canonicalize((0, 1, 1, 0)))
        assert st_.short_chords == 1 and st_.noncrossing == 2

    def test_enclosing_block_with_crossing_pair_outside(self):
        # One block encloses two adjacent short blocks; an interleaved
        # (crossing) pair sits entirely to the right of its span, so the
        # enclosing block still counts as non-crossing.
        word = (0, 1, 1, 1, 1, 2, 2, 2, 2, 0, 0, 0, 3, 4, 3, 4, 3, 4, 3, 4)
        st_ = stats(canonicalize(word, 4))
        assert st_.short_chords == 2
        assert st_.components == 1
        assert st_.noncrossing == 3
        assert st_.crossing_pairs == 1

    def test_two_adjacent_triples(self):
        d = canonicalize((0, 0, 0, 1, 1, 1), 3)
        st_ = stats(d)
        assert (st_.short_chords, st_.components, st_.noncrossing) == (2, 1, 2)
        assert encode_lattice_path(d).steps == "UUDUUD"

    @given(random_word())
    @settings(max_examples=100)
    def test_deletion_never_shrinks_noncrossing_set(self, kw):
        # Removing a block that is not in the non-crossing set keeps every
        # member in it (the set can grow, e.g. when the removed block was
        # the only one crossing some survivor).
        k, word = kw
        good = naive_noncrossing_set(word)
        for i in range(len(word) // k):
            if i in good:
                continue
            smaller = delete_block(word, i)
            shifted = {j - 1 if j > i else j for j in good}
            assert shifted <= naive_noncrossing_set(smaller)
            assert stats(canonicalize(smaller, k)).noncrossing >= len(shifted)


class TestSurvey:
    @pytest.mark.parametrize(
        "k,n", [(2, 0), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3), (2, 4), (2, 5)]
    )
    def test_matches_enumeration_with_naive_stats(self, k, n):
        want: Counter = Counter(
            naive_stats(w)[:3] for w in naive_enumerate(k, n)
        )
        got = survey(k, n)
        assert got == {key: cnt for key, cnt in want.items()}

    def test_total_mass(self):
        hist = survey(3, 4)
        assert sum(hist.values()) == total_diagrams(3, 4)

    @pytest.mark.parametrize("k,n", [(3, 3), (2, 5)])
    def test_block0_subranges_sum_to_whole(self, k, n):
        split = survey_by_block0(k, n)
        assert sorted(split) == block0_placements(k, n)
        assert sum(split.values(), Counter()) == survey(k, n)

    @given(
        st.tuples(st.integers(2, 7), st.integers(1, 5)).filter(
            lambda kn: total_diagrams(*kn) <= 20000
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_random_block0_subranges_sum_to_whole(self, kn):
        """Each placement of block 0 heads N(k, n - 1) diagrams.  Block 0
        is read from the root's tail for n <= 3 and carried in the prefix
        state from n = 4 on, where the states of equal masks merge."""
        k, n = kn
        split = survey_by_block0(k, n)
        assert sorted(split) == block0_placements(k, n)
        assert {sum(part.values()) for part in split.values()} == {total_diagrams(k, n - 1)}
        assert sum(split.values(), Counter()) == survey(k, n)

    @pytest.mark.parametrize("k,n", [(2, 5), (3, 3), (4, 2)])
    def test_carried_stats_match_linear_stats(self, k, n):
        visited = 0
        for masks, carried, naive in carried_and_linear_stats(k, n):
            assert carried == naive, masks
            visited += 1
        assert visited == total_diagrams(k, n)

    # n = 2, 3: block 0 is in the root's tail; n = 5: it is in the state.
    @pytest.mark.parametrize("k,n", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3), (2, 5)])
    def test_block0_subranges_match_naive(self, k, n):
        words = [(naive_blocks(w)[0], naive_stats(w)[:3]) for w in naive_enumerate(k, n)]
        split = survey_by_block0(k, n)
        for b0 in block0_placements(k, n):
            want = Counter(key for first, key in words if first == b0)
            assert split[b0] == want, b0

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_drawn_block0_matches_naive(self, data):
        k = data.draw(st.integers(2, 4), label="k")
        n = data.draw(st.integers(0, 4), label="n")
        if n == 0:  # no block 0: the one empty diagram
            assert survey(k, 0) == dict(Counter(naive_stats(w)[:3] for w in naive_enumerate(k, 0)))
            return
        b0 = data.draw(st.sampled_from(block0_placements(k, n)), label="block0")
        assert survey_by_block0(k, n)[b0] == naive_block0_survey(k, n, b0)

    @pytest.mark.parametrize("k,n", [(2, 8), (3, 5)])
    def test_rows_match_closed_forms(self, k, n):
        """The survey's short-chord and component marginals against the
        closed-form rows: (2, 8) has five layers of merged prefixes, the
        most within the default budget.  The single-statistic walks count
        the same marginals."""
        hist = survey(k, n)
        shorts, components = Counter(), Counter()
        for (s, q, _), count in hist.items():
            shorts[s] += count
            components[q] += count
        assert [shorts[s] for s in range(n + 1)] == counting.short_chord_row(k, n)
        assert tuple(components[q] for q in range(n + 1)) == counting.component_row(k, n)
        assert (short_survey(k, n), component_survey(k, n)) == (shorts, components)

    @given(st.sampled_from([(k, n) for k, n_max in ((2, 7), (3, 5), (4, 4)) for n in range(n_max + 1)]))
    @settings(max_examples=20, deadline=None)
    def test_single_statistic_walks_are_marginals(self, kn):
        """The short-chord and component walks keep less state than the
        survey and merge more prefixes; their histograms are the survey's
        marginals and the closed-form rows."""
        k, n = kn
        shorts, components = Counter(), Counter()
        for (s, q, _), count in survey(k, n).items():
            shorts[s] += count
            components[q] += count
        assert short_survey(k, n) == shorts
        assert component_survey(k, n) == components
        assert [shorts[s] for s in range(n + 1)] == counting.short_chord_row(k, n)
        assert tuple(components[q] for q in range(n + 1)) == counting.component_row(k, n)

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError) as exc:
            survey(3, 6, budget=1000)
        assert exc.value.total == total_diagrams(3, 6)

    def test_budget_env_var(self, monkeypatch):
        monkeypatch.setenv("KCHORD_ORACLE_BUDGET", "10")
        assert oracle_budget(None) == 10
        with pytest.raises(BudgetExceededError):
            survey(2, 3)

    def test_rejects_negative_budget(self, monkeypatch):
        with pytest.raises(ValueError):
            oracle_budget(-1)
        monkeypatch.setenv("KCHORD_ORACLE_BUDGET", "-1")
        with pytest.raises(ValueError):
            survey(2, 3)

    @pytest.mark.parametrize("budget", [2.5, 15.0, "15", True])
    def test_rejects_non_integral_budget(self, budget):
        # 2.5 is not truncated to a cap of 2, and 15.0 is not taken for 15
        with pytest.raises(ValueError, match="oracle budget must be an integer"):
            survey(2, 3, budget=budget)

    def test_budget_argument_wins(self, monkeypatch):
        monkeypatch.setenv("KCHORD_ORACLE_BUDGET", "10")
        assert sum(survey(2, 3, budget=10**6).values()) == 15


@pytest.mark.parametrize(
    "oracle, size",
    [
        (lambda budget: survey(3, 3, budget=budget), total_diagrams(3, 3)),
        (lambda budget: short_survey(3, 3, budget=budget), total_diagrams(3, 3)),
        (lambda budget: component_survey(3, 3, budget=budget), total_diagrams(3, 3)),
        (lambda budget: noncrossing_survey(3, 4, budget=budget), fuss_catalan(3, 4)),
        (lambda budget: exhaustive_distribution(path_board(8), 2, budget=budget), total_diagrams(2, 4)),
    ],
    ids=["survey", "short_survey", "component_survey", "noncrossing_survey", "exhaustive_distribution"],
)
def test_budget_is_exact(oracle, size):
    with pytest.raises(BudgetExceededError) as exc:
        oracle(size - 1)
    assert (exc.value.total, exc.value.budget) == (size, size - 1)
    assert oracle(size)  # the cap itself is within budget


@lru_cache(maxsize=None)
def naive_noncrossing_row(k: int, m: int) -> tuple[int, ...]:
    """Non-crossing words with m blocks by short blocks, filtered from
    every word by the literal crossing test."""
    counts = [0] * (m + 1)
    for word in naive_enumerate(k, m):
        blocks = naive_blocks(word)
        if not any(naive_crossing(a, b) for a, b in combinations(blocks, 2)):
            counts[sum(b[-1] - b[0] == k - 1 for b in blocks)] += 1
    return tuple(counts)


def largest_m(k: int, m_cap: int, size: int) -> int:
    return max(m for m in range(m_cap + 1) if fuss_catalan(k, m) <= size)


def noncrossing_row(k: int, m: int) -> tuple[int, ...]:
    """Row m of the non-crossing oracle, by short chords s = 0..m."""
    hist = noncrossing_survey(k, m)
    return tuple(hist.get(s, 0) for s in range(m + 1))


def literal_noncrossing_block(free: int, block: int, k: int) -> bool:
    """Whether ``block`` keeps a non-crossing diagram non-crossing, from
    the definition: its span lies among the free vertices, and each gap
    between two of its consecutive vertices holds a multiple of k."""
    vertices = [v for v in range(block.bit_length()) if block >> v & 1]
    span = sum(1 << v for v in range(vertices[0], vertices[-1] + 1))
    return not span & ~free and all((b - a - 1) % k == 0 for a, b in zip(vertices, vertices[1:]))


@st.composite
def free_masks(draw):
    """k = 2..5 and a nonzero mask of up to 136 bits made of a few runs,
    at most 33 vertices, so that ``_blocks`` stays small."""
    k = draw(st.integers(2, 5))
    length = st.integers(1, 11 if k >= 4 else 3 * k + 2)
    free = 0
    for start, run in draw(st.lists(st.tuples(st.integers(0, 135), length), min_size=1, max_size=3)):
        free |= (1 << run) - 1 << start
    return k, free & (1 << 136) - 1


def recorded_walk(k: int, m: int) -> dict[tuple[int, ...], int]:
    """Every diagram the non-crossing walk lists, as its blocks in order
    of their lowest vertex, with the number of times it is listed."""

    def leaf(masks, tail, hist, times):
        for last, count in tail:
            hist[masks + last] = hist.get(masks + last, 0) + count * times

    def extend(free, a, last):
        return (a,) + last

    return _partitions(k * m, k, lambda rest, masks, b: masks + (b,), (), extend, (), leaf, _noncrossing_blocks)


class TestNoncrossing:
    @pytest.mark.parametrize("k,m", [(2, 1), (2, 4), (2, 5), (3, 3), (3, 4), (4, 3)])
    def test_count_and_property(self, k, m):
        seen = set()
        for d in enumerate_noncrossing(k, m):
            assert d.word not in seen
            seen.add(d.word)
            s, _q, nc, xp = naive_stats(d.word)
            assert nc == m and xp == 0
        assert len(seen) == fuss_catalan(k, m)

    def test_matches_filtered_enumeration(self):
        for k, m in [(3, 3), (2, 5), (3, 4), (4, 3), (5, 2)]:
            want = {w for w in naive_enumerate(k, m) if naive_stats(w)[2] == m}
            got = [d.word for d in enumerate_noncrossing(k, m)]
            assert len(got) == len(want) and set(got) == want, (k, m)

    @pytest.mark.parametrize("k,m_max", [(2, 5), (3, 3), (4, 2)])
    def test_survey_rows_match_naive(self, k, m_max):
        for m in range(m_max + 1):
            shorts = [naive_stats(w)[0] for w in naive_enumerate(k, m) if naive_stats(w)[2] == m]
            assert noncrossing_row(k, m) == tuple(Counter(shorts)[s] for s in range(m + 1))

    @pytest.mark.parametrize(
        "k,crossing",
        [
            (2, (0b0101, 0b1010)),  # 0 1 0 1
            (2, (0b100001, 0b001010, 0b010100)),  # 0 1 2 1 2 0: blocks 1 and 2 cross
            (3, (0b000000111, 0b010101000, 0b101010000)),  # 0 0 0 1 2 1 2 1 2
            (3, (0b000100011, 0b010010100, 0b101001000)),  # 0 0 1 2 1 0 2 1 2
        ],
    )
    def test_survey_never_counts_a_crossing_diagram(self, k, crossing):
        """Replayed in order of their lowest vertex, some block of a
        crossing diagram is not offered at the free mask it meets."""
        m = len(crossing)
        assert any(_crosses(a, b) for a, b in combinations(crossing, 2))
        lowest = [b & -b for b in crossing]
        assert lowest == sorted(lowest) and sum(crossing) == (1 << k * m) - 1
        refused, free = [], (1 << k * m) - 1
        for block in crossing:
            if block not in _noncrossing_blocks(free, k):
                refused.append(block)
            free -= block
        assert refused
        assert sum(noncrossing_survey(k, m).values()) == fuss_catalan(k, m)

    @pytest.mark.parametrize("k,m_max", [(2, 6), (2, 5), (3, 4), (3, 5), (4, 3), (5, 3), (6, 2)])
    def test_walk_lists_each_noncrossing_diagram_once(self, k, m_max):
        """The partition walk offered only non-crossing blocks lists the
        diagrams of the tuple walk, each once."""
        listed = Counter()
        for m in range(m_max + 1):
            listed.update(recorded_walk(k, m))
        assert set(listed.values()) == {1}
        assert sorted(listed) == sorted(noncrossing_masks(k, m_max))

    @pytest.mark.parametrize(
        "k,m_max",
        [(26, 2), (53, 1), (27, 2), (31, 2), (21, 3), (32, 2), (22, 3), (54, 1), (63, 1), (64, 1), (2, 0), (2, 1)],
    )
    def test_exact_at_word_size(self, k, m_max):
        """Masks of 52 to 66 bits; a short block of 54 or more vertices is
        where a float bit length rounds up."""
        assert [noncrossing_row(k, m) for m in range(m_max + 1)] == list(noncrossing_rows(k, m_max))

    @settings(max_examples=60, deadline=None)
    @given(free_masks())
    def test_slice_check_matches_literal_definition(self, k_free):
        """The blocks offered at a free mask of up to 136 bits are those of
        every block that the literal definition keeps, in the same order."""
        k, free = k_free
        want = [block for block in diagrams._blocks(free, k) if literal_noncrossing_block(free, block, k)]
        assert _noncrossing_blocks(free, k) == want

    @pytest.mark.parametrize("m", [12, 31, 32, 33])
    def test_slice_check_finds_a_wide_crossing(self, m):
        """With {0, 2} placed, block {1, 2m-1} crosses it only through its
        far end, and is not offered."""
        free = (1 << 2 * m) - 1 - 0b101
        wide = 1 << 1 | 1 << 2 * m - 1
        assert wide in diagrams._blocks(free, 2)
        assert not literal_noncrossing_block(free, wide, 2)
        assert wide not in _noncrossing_blocks(free, 2)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, 12 // k))))
    def test_survey_matches_filtered_enumeration(self, k_m):
        k, m_max = k_m
        for m in range(m_max + 1):
            assert noncrossing_row(k, m) == naive_noncrossing_row(k, m), (k, m)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, largest_m(k, 8, 50_000)))))
    def test_survey_matches_recurrence(self, k_m):
        """k <= 8 and m <= 8, up to 50,000 diagrams in the top row."""
        k, m_max = k_m
        assert [noncrossing_row(k, m) for m in range(m_max + 1)] == list(noncrossing_rows(k, m_max))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, 12 // k))))
    def test_survey_is_the_joint_noncrossing_coordinate(self, k_m):
        """The non-crossing walk's row is the joint survey's diagrams with
        every block non-crossing, by short chords."""
        k, m = k_m
        assert noncrossing_row(k, m) == cli._fold(survey(k, m), m, m)

    def test_survey_budget(self):
        assert sum(noncrossing_survey(3, 4, budget=fuss_catalan(3, 4)).values()) == 55
        with pytest.raises(BudgetExceededError):
            noncrossing_survey(3, 4, budget=fuss_catalan(3, 4) - 1)
        with pytest.raises(ValueError):
            noncrossing_survey(1, 3)


class TestLatticePath:
    def test_rejects_crossing_diagram(self):
        with pytest.raises(ValueError):
            encode_lattice_path(canonicalize((0, 1, 0, 1)))

    @pytest.mark.parametrize("k,m", [(2, 4), (2, 6), (3, 3), (3, 5), (4, 2), (4, 4)])
    def test_step_counts_and_short_factors(self, k, m):
        factor = "U" * (k - 1) + "D"
        for d in enumerate_noncrossing(k, m):
            path = encode_lattice_path(d)
            assert path.steps.count("U") == (k - 1) * m
            assert path.steps.count("D") == m
            # measured property: U^(k-1)D factors mark the short blocks
            assert path.steps.count(factor) == stats(d).short_chords

    def test_peaks_equal_short_chords_for_pairs(self):
        # for k=2 every peak (UD factor) is a short chord
        for m in range(1, 7):
            for d in enumerate_noncrossing(2, m):
                assert encode_lattice_path(d).steps.count("UD") == stats(d).short_chords

    @pytest.mark.parametrize("k,m", [(2, 6), (3, 4), (3, 6), (4, 5), (4, 6)])
    def test_injective_with_fuss_catalan_image(self, k, m):
        paths = {encode_lattice_path(d).steps for d in enumerate_noncrossing(k, m)}
        assert len(paths) == fuss_catalan(k, m)
