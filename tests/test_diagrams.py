from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    delete_block,
    naive_crossing,
    naive_enumerate,
    naive_noncrossing_set,
    naive_stats,
)
from kchord import (
    BudgetExceededError,
    Diagram,
    canonicalize,
    encode_lattice_path,
    enumerate_noncrossing,
    fuss_catalan,
    stats,
    survey,
    survey_parallel,
    total_diagrams,
)
from kchord.diagrams import (
    _crosses,
    _partitions,
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
        assert d.blocks() == [(0, 2), (1, 3)]
        assert d.as_text() == "0,1,0,1"

    def test_empty(self):
        d = Diagram(3, 0, ())
        assert d.blocks() == []
        assert stats(d).short_chords == 0

    def test_rejects_wrong_multiplicity(self):
        with pytest.raises(ValueError):
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
    """The partition walk's diagrams as label words."""
    words = []

    def visit(masks):
        word = [0] * (k * n)
        for label, mask in enumerate(masks):
            for p in range(k * n):
                if mask >> p & 1:
                    word[p] = label
        words.append(tuple(word))

    _partitions(k * n, k, visit, block0)
    return words


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
        "k,n", [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2)]
    )
    def test_matches_naive_enumeration(self, k, n):
        ours = walk_words(k, n)
        assert sorted(ours) == sorted(naive_enumerate(k, n))
        assert len(ours) == total_diagrams(k, n)

    def test_block0_restriction(self):
        whole = Counter(walk_words(2, 3))
        split: Counter = Counter()
        for b0 in block0_placements(2, 3):
            split.update(walk_words(2, 3, as_mask(b0)))
        assert whole == split

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
    @pytest.mark.parametrize("k,n", [(2, 0), (2, 4), (2, 5), (3, 3), (4, 2)])
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
            assert path.up_count == (k - 1) * m
            assert path.down_count == m
            # measured property: U^(k-1)D factors mark the short blocks
            assert path.steps.count(factor) == stats(d).short_chords

    def test_peaks_equal_short_chords_for_pairs(self):
        # for k=2 every peak (UD factor) is a short chord
        for m in range(1, 7):
            for d in enumerate_noncrossing(2, m):
                assert encode_lattice_path(d).peaks() == stats(d).short_chords

    @pytest.mark.parametrize("k,m", [(2, 6), (3, 4), (3, 6), (4, 5), (4, 6)])
    def test_injective_with_fuss_catalan_image(self, k, m):
        paths = {encode_lattice_path(d).steps for d in enumerate_noncrossing(k, m)}
        assert len(paths) == fuss_catalan(k, m)
