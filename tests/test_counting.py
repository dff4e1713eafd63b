from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    C_TABLE_K3,
    D_TABLE_K3,
    count_at_least,
    count_exact_short,
    naive_enumerate,
    naive_stats,
)
from kchord import (
    C_series,
    Diagram,
    F_series,
    L_series,
    T_series,
    count_zero_short,
    exhaustive_distribution,
    fuss_catalan,
    mean_polyominoes,
    mean_short_chords,
    nc_mean_report,
    nc_mean_variance,
    noncrossing_row,
    noncrossing_rows,
    path_board,
    poisson_convergence_report,
    poisson_lambda,
    sample_placements,
    survey,
    total_diagrams,
)
from kchord.cli import build_rows
from kchord.counting import (
    component_row,
    inverse_binomial_transform,
    narayana,
    short_chord_row,
    subpath_choices,
    triple_count_closed_k2,
)
from kchord.diagrams import noncrossing_survey
from kchord.tables import component_rows, kp1_rows, kp2_rows


def brute_subpath_choices(k: int, path_len: int, j: int) -> int:
    """Place j disjoint runs of k consecutive vertices on a path."""
    count = 0
    for starts in combinations(range(path_len - k + 1), j):
        if all(b - a >= k for a, b in zip(starts, starts[1:])):
            count += 1
    return count


class TestTotals:
    @pytest.mark.parametrize("k,n", [(2, 0), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2)])
    def test_matches_enumeration(self, k, n):
        assert total_diagrams(k, n) == len(naive_enumerate(k, n))

    @given(st.integers(2, 8), st.integers(0, 30))
    def test_multinomial_formula(self, k, n):
        want = factorial(k * n) // (factorial(k) ** n * factorial(n))
        assert total_diagrams(k, n) == want

    def test_known_values(self):
        assert total_diagrams(2, 3) == 15
        assert total_diagrams(3, 2) == 10
        assert total_diagrams(3, 6) == 190590400

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            total_diagrams(0, 3)
        with pytest.raises(ValueError):
            total_diagrams(2, -1)


class TestSubpathChoices:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("length", [0, 1, 5, 9, 12])
    def test_matches_brute_force(self, k, length):
        for j in range(0, length // k + 2):
            assert subpath_choices(k, length, j) == brute_subpath_choices(k, length, j)

    def test_zero_cases(self):
        assert subpath_choices(3, 6, 0) == 1
        assert subpath_choices(3, 5, 2) == 0


class TestShortChordCounts:
    def test_k3_table_frozen(self):
        for n, row in D_TABLE_K3.items():
            got = tuple(count_exact_short(3, n, s) for s in range(n + 1))
            assert got == row

    @pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 3), (4, 2)])
    def test_matches_enumeration(self, k, n):
        want = [0] * (n + 1)
        for w in naive_enumerate(k, n):
            want[naive_stats(w)[0]] += 1
        got = [count_exact_short(k, n, s) for s in range(n + 1)]
        assert got == want

    def test_zero_short_consistent(self):
        for k in (2, 3, 4):
            for n in range(0, 8):
                assert count_zero_short(k, n) == count_exact_short(k, n, 0)

    def test_at_least_telescopes(self):
        # the binomial transform of the exact counts recovers count_at_least
        for k in (2, 3):
            for n in range(0, 7):
                for j in range(n + 1):
                    want = sum(
                        comb(s, j) * count_exact_short(k, n, s)
                        for s in range(j, n + 1)
                    )
                    assert count_at_least(k, n, j) == want

    @given(st.integers(2, 5), st.integers(0, 12))
    @settings(max_examples=60)
    def test_row_sums_to_total(self, k, n):
        assert sum(count_exact_short(k, n, s) for s in range(n + 1)) == total_diagrams(k, n)


class TestShortChordRow:
    def test_inverse_binomial_transform_literal(self):
        marked = [7, -3, 11, 0, 5]
        want = [
            sum((-1) ** (j - s) * comb(j, s) * marked[j] for j in range(s, len(marked)))
            for s in range(len(marked))
        ]
        assert inverse_binomial_transform(marked) == want
        assert inverse_binomial_transform([]) == []

    @given(st.lists(st.integers(-(10**30), 10**30), max_size=25))
    @settings(max_examples=60)
    def test_inverts_binomial_transform(self, exact):
        marked = [
            sum(comb(s, j) * exact[s] for s in range(j, len(exact)))
            for j in range(len(exact))
        ]
        assert inverse_binomial_transform(marked) == exact

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_append_recurrence_and_closed_entries(self, k):
        rows = tuple(kp2_rows(k, 20))
        for n in range(21):
            row = short_chord_row(k, n)
            assert tuple(row) == rows[n]
            assert row == [count_exact_short(k, n, s) for s in range(n + 1)]

    @given(st.integers(2, 9), st.integers(0, 60))
    @example(2, 0)
    @example(2, 1)
    @example(9, 0)
    @example(9, 1)
    @example(100, 0)
    @example(100, 1)
    @example(100, 2)
    @example(100, 3)
    @settings(max_examples=60)
    def test_matches_marked_oracle(self, k, n):
        marked = [count_at_least(k, n, j) for j in range(n + 1)]
        assert short_chord_row(k, n) == inverse_binomial_transform(marked)

    @pytest.mark.parametrize("k,n", [(2, 2000), (3, 600)])
    def test_scale(self, k, n):
        # sizes where the O(n^2) Taylor shift of the marked counts is slow
        row = short_chord_row(k, n)
        total = total_diagrams(k, n)
        assert len(row) == n + 1
        assert sum(row) == total
        assert sum(s * d for s, d in enumerate(row)) == mean_short_chords(k, n) * total
        assert row[:4] == [count_exact_short(k, n, s) for s in range(4)]

    def test_rejects_bad_arguments(self):
        for k, n in ((1, 3), (0, 2), (2, -2)):
            with pytest.raises(ValueError):
                short_chord_row(k, n)


class TestMean:
    def test_exact_values(self):
        assert mean_short_chords(3, 2) == Fraction(2, 5)
        assert mean_short_chords(2, 5) == 1

    @given(st.integers(1, 60))
    def test_k2_mean_is_one(self, n):
        assert mean_short_chords(2, n) == 1

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_table_first_moment(self, k):
        for n in range(1, 8):
            total = total_diagrams(k, n)
            first = sum(
                s * count_exact_short(k, n, s) for s in range(n + 1)
            )
            assert mean_short_chords(k, n) == Fraction(first, total)

    def test_closed_form(self):
        for k in (2, 3, 4, 5):
            for n in range(1, 10):
                want = Fraction(n * (k * n - k + 1), comb(k * n, k))
                assert mean_short_chords(k, n) == want


class TestComponents:
    def test_k3_table_frozen(self):
        for n, row in C_TABLE_K3.items():
            got = list(component_row(3, n))
            while len(got) > 1 and got[-1] == 0:
                got.pop()
            assert tuple(got) == row

    @pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 3), (4, 2)])
    def test_matches_enumeration(self, k, n):
        want = [0] * (n + 1)
        for w in naive_enumerate(k, n):
            want[naive_stats(w)[1]] += 1
        assert list(component_row(k, n)) == want

    @given(st.integers(2, 5), st.integers(0, 10))
    @settings(max_examples=40)
    def test_row_sums_to_total(self, k, n):
        assert sum(component_row(k, n)) == total_diagrams(k, n)

    def test_support_edges(self):
        # n components require n isolated short runs, impossible once
        # n >= 2 because nothing is left to separate them
        for k in (2, 3, 4):
            for n in range(2, 7):
                assert component_row(k, n)[n] == 0
        # one long chord can separate three short runs: 0,0,1,2,2,1,3,3
        assert component_row(2, 4)[3] == naive_count_components(2, 4, 3)


def naive_count_components(k: int, n: int, q: int) -> int:
    return sum(1 for w in naive_enumerate(k, n) if naive_stats(w)[1] == q)


class TestNarayana:
    def test_row_sums_are_catalan(self):
        for m in range(1, 10):
            assert sum(narayana(m, j) for j in range(m + 1)) == comb(2 * m, m) // (m + 1)

    def test_symmetry(self):
        for m in range(1, 10):
            for j in range(1, m + 1):
                assert narayana(m, j) == narayana(m, m + 1 - j)

    def test_small_values(self):
        assert narayana(4, 2) == 6
        assert narayana(1, 1) == 1
        assert narayana(3, 0) == 0


class TestTripleClosedForm:
    def test_small_cases(self):
        # n=2: 0,0,1,1 has (s,m)=(2,2); 0,1,1,0 has (1,2); 0,1,0,1 has (0,0)
        assert triple_count_closed_k2(2, 2, 2) == 1
        assert triple_count_closed_k2(2, 1, 2) == 1
        assert triple_count_closed_k2(2, 0, 0) == 1
        assert triple_count_closed_k2(3, 1, 1) == 5

    def test_matches_enumeration(self):
        for n in range(0, 6):
            want: dict = {}
            for w in naive_enumerate(2, n):
                s, _q, m, _xp = naive_stats(w)
                want[(s, m)] = want.get((s, m), 0) + 1
            for m in range(n + 1):
                for s in range(m + 1):
                    assert triple_count_closed_k2(n, s, m) == want.get((s, m), 0)

    def test_zero_outside_support(self):
        assert triple_count_closed_k2(3, 0, 2) == 0
        assert triple_count_closed_k2(3, 3, 2) == 0


# Every function that takes a block size k, as a call at (k, count), with
# the name its size error gives the count, or None when k is its only size.
SIZE_CHECKED = {
    "total_diagrams": (total_diagrams, "n"),
    "short_chord_row": (short_chord_row, "n"),
    "component_row": (component_row, "n"),
    "count_zero_short": (count_zero_short, "n"),
    "mean_short_chords": (lambda k, _: mean_short_chords(k, 3), None),
    "kp1_rows": (kp1_rows, "n_max"),  # at the call, before the first row is asked for
    "kp2_rows": (kp2_rows, "n_max"),
    "component_rows": (component_rows, "n_max"),
    # The whole kp1/kp2 tables, as the removed d_table_kp1/d_table_kp2 wrappers
    # built them, now drained from the row generators by the caller.
    "d_table_kp1": (lambda k, n: tuple(kp1_rows(k, n)), "n_max"),
    "d_table_kp2": (lambda k, n: tuple(kp2_rows(k, n)), "n_max"),
    "noncrossing_rows": (noncrossing_rows, "m_max"),
    "noncrossing_row": (noncrossing_row, "m"),
    "fuss_catalan": (fuss_catalan, "m"),
    "F_series": (lambda k, _: F_series(k, 3), None),
    "C_series": (lambda k, _: C_series(k, 3), None),
    "L_series": (lambda k, _: L_series(k, 3, 3), None),
    "T_series": (lambda k, _: T_series(k, 3, 3), None),
    "Diagram": (lambda k, n: Diagram(k, n, ()), "block count"),
    "survey": (survey, "n"),
    "noncrossing_survey": (noncrossing_survey, "m_max"),
    "mean_polyominoes": (lambda k, _: mean_polyominoes(path_board(6), k), None),
    "exhaustive_distribution": (lambda k, _: exhaustive_distribution(path_board(6), k), None),
    "sample_placements": (lambda k, _: sample_placements(path_board(6), k, 10, 0), None),
    "build_rows": (lambda k, n: build_rows("short", k, n, "kp2"), "n_max"),
    "poisson_lambda": (lambda k, _: poisson_lambda(k, 3), None),
    "nc_mean_variance": (nc_mean_variance, "n"),
    "poisson_convergence_report": (lambda k, _: poisson_convergence_report(k, [3]), None),
    "nc_mean_report": (lambda k, _: nc_mean_report(k, [3]), None),
}


class TestSizeCheck:
    @pytest.mark.parametrize("k", [1, 0, -3])
    @pytest.mark.parametrize("function", SIZE_CHECKED)
    def test_block_size(self, function, k):
        call, _ = SIZE_CHECKED[function]
        with pytest.raises(ValueError, match=f"^block size must be at least 2, got {k}$"):
            call(k, 2)

    @pytest.mark.parametrize("function", [f for f, (_, name) in SIZE_CHECKED.items() if name])
    def test_negative_count(self, function):
        call, name = SIZE_CHECKED[function]
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative, got -1$"):
            call(2, -1)
