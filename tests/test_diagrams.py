from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations

import numpy as np
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
    noncrossing_table,
    path_board,
    stats,
    survey,
    survey_parallel,
    total_diagrams,
)
from kchord import diagrams
from kchord.diagrams import (
    _SURVEY_ROOT,
    _crosses,
    _partitions,
    _survey_leaf,
    _survey_pair,
    _survey_step,
    block0_placements,
    noncrossing_survey,
    oracle_budget,
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


def walk_words(k: int, n: int, block0: int = 0) -> list[tuple[int, ...]]:
    """The partition walk's diagrams as label words, each as often as
    the walk visits it."""
    if n < 2:  # one diagram, with fewer blocks than the walk places
        return [(0,) * (k * n)]

    def leaf(masks, facts, hist):
        for a, b in facts:
            word = [0] * (k * n)
            for label, mask in enumerate(masks + (a, b)):
                for p in range(k * n):
                    if mask >> p & 1:
                        word[p] = label
            word = tuple(word)
            hist[word] = hist.get(word, 0) + 1

    def pair(free, a):
        return a, free - a

    hist = _partitions(k * n, k, lambda masks, m: masks + (m,), (), pair, leaf, block0)
    return [word for word, count in hist.items() for _ in range(count)]


def carried_and_linear_stats(k: int, n: int, block0: int) -> list[tuple]:
    """(block masks, survey statistics carried down the walk, the
    statistics naive_stats reads off the diagram's word) per diagram."""

    def step(state, m):
        carried, masks = state
        return _survey_step(carried, m), masks + (m,)

    def pair(free, a):
        return _survey_pair(free, a), a, free - a

    def leaf(state, facts, hist):
        carried, masks = state
        for fact, a, b in facts:
            counted: dict = {}
            _survey_leaf(carried, [fact], counted)
            assert list(counted.values()) == [1]
            whole = masks + (a, b)
            word = tuple(next(i for i, m in enumerate(whole) if m >> p & 1) for p in range(k * n))
            key = whole, *counted, naive_stats(word)[:3]
            hist[key] = hist.get(key, 0) + 1

    hist = _partitions(k * n, k, step, (_SURVEY_ROOT, ()), pair, leaf, block0)
    assert set(hist.values()) == {1}
    return list(hist)


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

    def test_walk_needs_two_blocks(self):
        with pytest.raises(ValueError, match="two or more blocks"):
            _partitions(3, 3, lambda masks, m: masks, (), lambda free, a: a, lambda masks, facts, hist: None)

    def test_block0_restriction(self):
        for k, n in [(2, 3), (3, 3)]:
            whole = Counter(walk_words(k, n))
            split: Counter = Counter()
            for b0 in block0_placements(k, n):
                split.update(walk_words(k, n, as_mask(b0)))
            assert whole == split, (k, n)

    def test_walks_share_no_child_blocks(self):
        """The child blocks looked up by free mask depend on k, so
        walks over the same 12 vertices with k = 2, 3, 2 in one process
        must each see only their own partitions."""
        for k in (2, 3, 2):
            ours = walk_words(k, 12 // k)
            assert len(ours) == total_diagrams(k, 12 // k)
            assert sorted(ours) == sorted(naive_enumerate(k, 12 // k))

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
        merged: Counter = Counter()
        for b0 in block0_placements(k, n):
            merged.update(survey(k, n, block0=b0))
        assert merged == survey(k, n)

    @given(
        st.tuples(st.integers(2, 7), st.integers(1, 5)).filter(
            lambda kn: total_diagrams(*kn) <= 3000
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_random_block0_subranges_sum_to_whole(self, kn):
        k, n = kn
        merged: Counter = Counter()
        for b0 in block0_placements(k, n):
            merged.update(survey(k, n, block0=b0))
        assert merged == survey(k, n)

    @pytest.mark.parametrize("k,n", [(2, 5), (3, 3), (4, 2)])
    def test_carried_stats_match_linear_stats(self, k, n):
        visited = 0
        for b0 in block0_placements(k, n):
            for masks, carried, naive in carried_and_linear_stats(k, n, as_mask(b0)):
                assert masks[0] == as_mask(b0)
                assert carried == naive, masks
                visited += 1
        assert visited == total_diagrams(k, n)

    # n = 2: the root is the leaf level; n = 3: the root folds its block
    # and calls the leaf itself.
    @pytest.mark.parametrize("k,n", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3), (2, 5)])
    def test_block0_subranges_match_naive(self, k, n):
        words = [(naive_blocks(w)[0], naive_stats(w)[:3]) for w in naive_enumerate(k, n)]
        for b0 in block0_placements(k, n):
            want = Counter(key for first, key in words if first == b0)
            assert survey(k, n, block0=b0) == dict(want), b0

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_drawn_block0_matches_naive(self, data):
        k = data.draw(st.integers(2, 4), label="k")
        n = data.draw(st.integers(0, 4), label="n")
        if n == 0:  # no block 0: the one empty diagram
            assert survey(k, 0) == dict(Counter(naive_stats(w)[:3] for w in naive_enumerate(k, 0)))
            return
        b0 = data.draw(st.sampled_from(block0_placements(k, n)), label="block0")
        assert survey(k, n, block0=b0) == dict(naive_block0_survey(k, n, b0))

    def test_rejects_bad_block0(self):
        for bad in [(1, 2), (0, 0), (0, 6), (0, 1, 2)]:
            with pytest.raises(ValueError):
                survey(2, 3, block0=bad)

    def test_parallel_equals_serial(self):
        assert survey_parallel(3, 3, jobs=2) == survey(3, 3)
        assert survey_parallel(2, 5, jobs=3) == survey(2, 5)

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError) as exc:
            survey(3, 6, budget=1000)
        assert exc.value.total == total_diagrams(3, 6)

    def test_budget_env_var(self, monkeypatch):
        monkeypatch.setenv("KCHORD_ORACLE_BUDGET", "10")
        assert oracle_budget(None) == 10
        with pytest.raises(BudgetExceededError):
            survey(2, 3)

    def test_rejects_negative_budget_and_jobs(self, monkeypatch):
        with pytest.raises(ValueError):
            oracle_budget(-1)
        monkeypatch.setenv("KCHORD_ORACLE_BUDGET", "-1")
        with pytest.raises(ValueError):
            survey(2, 3)
        with pytest.raises(ValueError, match="jobs >= 1"):
            survey_parallel(2, 3, jobs=0, budget=100)

    def test_budget_argument_wins(self, monkeypatch):
        monkeypatch.setenv("KCHORD_ORACLE_BUDGET", "10")
        assert sum(survey(2, 3, budget=10**6).values()) == 15


@pytest.mark.parametrize(
    "oracle, size",
    [
        (lambda budget: survey(3, 3, budget=budget), total_diagrams(3, 3)),
        (lambda budget: survey_parallel(2, 4, jobs=2, budget=budget), total_diagrams(2, 4)),
        (lambda budget: noncrossing_survey(3, 4, budget=budget), fuss_catalan(3, 4)),
        (lambda budget: exhaustive_distribution(path_board(8), 2, budget=budget), total_diagrams(2, 4)),
    ],
    ids=["survey", "survey_parallel", "noncrossing_survey", "exhaustive_distribution"],
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


def random_noncrossing_blocks(k: int, m: int, rng, first: int = 0) -> list[tuple[int, ...]]:
    """The blocks of a random non-crossing diagram on vertices first..,
    built as the walk builds them: block 0, then a smaller diagram in
    each gap of a random composition of m - 1."""
    if m == 0:
        return []
    bars = sorted(rng.sample(range(m + k - 2), k - 1))
    block, rest, p = [], [], first
    for lo, hi in zip([-1] + bars, bars + [m + k - 2]):
        block.append(p)
        rest += random_noncrossing_blocks(k, hi - lo - 1, rng, p + 1)
        p += k * (hi - lo - 1) + 1
    return [tuple(block)] + rest


def largest_m(k: int, m_cap: int, size: int) -> int:
    return max(m for m in range(m_cap + 1) if fuss_catalan(k, m) <= size)


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
        for m, row in enumerate(noncrossing_survey(k, m_max)):
            shorts = [naive_stats(w)[0] for w in naive_enumerate(k, m) if naive_stats(w)[2] == m]
            assert row == tuple(Counter(shorts)[s] for s in range(m + 1))

    @pytest.mark.parametrize(
        "k,crossing",
        [
            (2, (0b0101, 0b1010)),  # 0 1 0 1
            (2, (0b100001, 0b001010, 0b010100)),  # 0 1 2 1 2 0: blocks 1 and 2 cross
            (3, (0b000000111, 0b010101000, 0b101010000)),  # 0 0 0 1 2 1 2 1 2
            (3, (0b000100011, 0b010010100, 0b101001000)),  # 0 0 1 2 1 0 2 1 2
        ],
    )
    def test_survey_never_counts_a_crossing_diagram(self, monkeypatch, k, crossing):
        m = len(crossing)
        walk = diagrams._noncrossing_levels
        assert any(_crosses(a, b) for a, b in combinations(crossing, 2))
        lowest = [b & -b for b in crossing]
        assert lowest == sorted(lowest) and sum(crossing) == (1 << k * m) - 1
        injected = []

        def walk_and_crossing(k, m_max):
            for masks in walk(k, m_max):
                if masks.shape[1] == m and not injected:
                    injected.append(len(masks) // 2)
                    masks = np.insert(masks, injected[0], np.array(crossing, masks.dtype), axis=0)
                yield masks

        want = noncrossing_survey(k, m)
        monkeypatch.setattr(diagrams, "_noncrossing_levels", walk_and_crossing)
        got = noncrossing_survey(k, m)
        assert injected  # the crossing row sat inside a slice of level m
        assert got == want
        assert sum(got[m]) == fuss_catalan(k, m)

    @pytest.mark.parametrize(
        "k,m_max,rows", [(2, 6, 5), (2, 5, 4096), (3, 4, 7), (3, 5, 64), (4, 3, 1), (5, 3, 10), (6, 2, 2)]
    )
    def test_level_slices_match_tuple_walk(self, monkeypatch, k, m_max, rows):
        """The array walk lists the rows of the tuple walk, in its order, in
        slices of ``rows`` that are full but for the last of each level."""
        monkeypatch.setattr(diagrams, "NONCROSSING_SLICE_ROWS", rows)
        got, sizes = [], []
        for masks in diagrams._noncrossing_levels(k, m_max):
            got.extend(tuple(map(int, row)) for row in masks)
            sizes.append((masks.shape[1], len(masks)))
        assert got == list(noncrossing_masks(k, m_max))
        for m in range(m_max + 1):
            level = [size for width, size in sizes if width == m]
            assert level[:-1] == [rows] * (len(level) - 1) and 0 < level[-1] <= rows
            assert sum(level) == fuss_catalan(k, m)

    @pytest.mark.parametrize(
        "k,m_max",
        [(26, 2), (53, 1), (27, 2), (31, 2), (21, 3), (32, 2), (22, 3), (54, 1), (63, 1), (64, 1), (2, 0), (2, 1)],
    )
    def test_exact_at_word_size(self, k, m_max):
        """Masks of 52 to 66 bits stay exact on either side of the int64
        width; a short block of 54 or more vertices is where a float bit
        length rounds up."""
        assert noncrossing_survey(k, m_max) == list(noncrossing_table(k, m_max).rows)
        dtype = next(diagrams._noncrossing_levels(k, m_max)).dtype
        assert (dtype == object) == (k * m_max >= 64)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 4).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, 136 // k))),
        st.lists(st.tuples(st.integers(0, 2**32), st.booleans()), min_size=1, max_size=6),
    )
    def test_slice_check_matches_literal_definition(self, k_m, seeds):
        """Random non-crossing rows, some with two vertices swapped between
        blocks, up to 136 bits: the slice check against naive_crossing."""
        k, m = k_m
        rows = []
        for seed, swap in seeds:
            rng = random.Random(seed)
            row = random_noncrossing_blocks(k, m, rng)
            if swap and m >= 2:
                i, j = rng.sample(range(m), 2)
                a, b = rng.randrange(k), rng.randrange(k)
                row[i], row[j] = list(row[i]), list(row[j])
                row[i][a], row[j][b] = row[j][b], row[i][a]
            rows.append(sorted(tuple(sorted(block)) for block in row))
        self.assert_check_is_literal(k, m, rows)

    @pytest.mark.parametrize("m", [12, 31, 32, 33])
    def test_slice_check_finds_a_wide_crossing(self, m):
        """Block {1, 2m-1} crosses {0, 2} only through its far end."""
        shorts = [(v, v + 1) for v in range(3, 2 * m - 1, 2)]
        self.assert_check_is_literal(2, m, [[(0, 2), (1, 2 * m - 1), *shorts], [(0, 2 * m - 1), (1, 2), *shorts]])

    @staticmethod
    def assert_check_is_literal(k, m, rows):
        want = [0] * (m + 1)
        for blocks in rows:
            if not any(naive_crossing(a, b) for a, b in combinations(blocks, 2)):
                want[sum(b[-1] - b[0] == k - 1 for b in blocks)] += 1
        masks = [[sum(1 << v for v in block) for block in blocks] for blocks in rows]
        for dtype in (np.int64, object) if k * m < 64 else (object,):
            array = np.array(masks, dtype).reshape(len(rows), m)
            assert diagrams._short_counts(array) == want, dtype

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, 12 // k))))
    def test_survey_matches_filtered_enumeration(self, k_m):
        k, m_max = k_m
        for m, row in enumerate(noncrossing_survey(k, m_max)):
            assert row == naive_noncrossing_row(k, m), (k, m)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, largest_m(k, 8, 50_000)))))
    def test_survey_matches_recurrence(self, k_m):
        """k <= 8 and m <= 8, up to 50,000 diagrams in the top row."""
        k, m_max = k_m
        assert noncrossing_survey(k, m_max) == list(noncrossing_table(k, m_max).rows)

    def test_survey_budget(self):
        assert sum(noncrossing_survey(3, 4, budget=fuss_catalan(3, 4))[4]) == 55
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
