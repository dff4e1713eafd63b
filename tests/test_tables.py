from __future__ import annotations

import inspect
from decimal import Decimal, localcontext
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import D_TABLE_K3, T_TABLE_K3, count_exact_short, naive_enumerate, naive_stats
from kchord import (
    SelfCheckError,
    cli,
    fuss_catalan,
    kp1_rows,
    kp2_rows,
    noncrossing_rows,
    short_chord_row,
    tables,
    total_diagrams,
)
from kchord.counting import component_row, count_zero_short, narayana
from kchord.tables import _fills, component_rows, noncrossing_row


def _stars_and_bars(bins: int, balls: int) -> int:
    """Ways to drop identical balls into distinguishable bins."""
    if bins == 0:
        return 1 if balls == 0 else 0
    return comb(bins + balls - 1, balls)


def balls_in_bins_coeff(j: int, p: int, ell: int, k: int) -> int:
    """[x^j y^p] (1 + y - y(1-x)^(1-k))^(-ell-1), as C(ell+p, p) times
    [x^j] ((1-x)^(1-k) - 1)^p expanded by the binomial theorem."""
    if j < 0 or p < 0 or ell < 0:
        return 0
    power = sum(
        comb(p, i) * (-1) ** (p - i) * (comb((k - 1) * i + j - 1, j) if i else int(j == 0))
        for i in range(p + 1)
    )
    return comb(ell + p, p) * power


def kp2_double_sum(n: int, ell: int, p: int, k: int) -> int:
    """The append-recurrence weight as the literal sum over h home
    vertices and f vertices scattered into the bins."""
    bins = k * n - (k - 1) * (ell + p)
    return sum(
        _stars_and_bars(bins, f) * balls_in_bins_coeff(k - h - f, p, ell, k)
        for h in range(1, k - p + 1)
        for f in range(k - p - h + 1)
    )


def kp2_weight(n: int, ell: int, p: int, k: int) -> int:
    """The weight of d(n, ell+p) in the append recurrence for d(n+1, ell),
    as ``kp2_rows`` computes it."""
    bins = k * n - (k - 1) * (ell + p)
    return comb(ell + p, p) * _fills(k, p, bins, bins + 1)[0]


def noncrossing_by_all_powers(k: int, m_max: int) -> list[list[int]]:
    """The non-crossing table with every power T^2..T^k grown row by row."""
    rows: list[list[int]] = [[1]]
    powers: list[list[list[int]]] = [rows] + [[[1]] for _ in range(k - 1)]
    for m in range(m_max):
        for i in range(1, k):
            while len(powers[i]) <= m:
                mm = len(powers[i])
                acc = [0] * (mm + 1)
                for a in range(mm + 1):
                    for ja, ca in enumerate(powers[i - 1][a]):
                        for jb, cb in enumerate(rows[mm - a]):
                            acc[ja + jb] += ca * cb
                powers[i].append(acc)
        conv, prev = powers[k - 1][m], rows[m]
        rows.append([
            (conv[s] if s < len(conv) else 0)
            - (prev[s] if s < len(prev) else 0)
            + (prev[s - 1] if s >= 1 else 0)
            for s in range(m + 2)
        ])
    return rows


class TestShortChordTables:
    def test_kp1_frozen_k3(self):
        rows = tuple(kp1_rows(3, 6))
        for n, row in D_TABLE_K3.items():
            assert rows[n] == row

    def test_kp2_frozen_k3(self):
        rows = tuple(kp2_rows(3, 6))
        for n, row in D_TABLE_K3.items():
            assert rows[n] == row

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_all_routes_agree(self, k):
        n_max = 10
        rows1 = tuple(kp1_rows(k, n_max))
        rows2 = tuple(kp2_rows(k, n_max))
        for n in range(n_max + 1):
            closed = tuple(count_exact_short(k, n, s) for s in range(n + 1))
            assert rows1[n] == closed
            assert rows2[n] == closed

    @given(st.integers(2, 6), st.integers(0, 9))
    @settings(max_examples=40)
    def test_row_sums(self, k, n):
        assert sum(tuple(kp2_rows(k, n))[n]) == total_diagrams(k, n)

    def test_k2_classic_recurrence(self):
        # for pairs the append recurrence collapses to
        # d(n+1, s) = d(n, s-1) + (2n - s) d(n, s) + (s + 1) d(n, s + 1)
        rows = tuple(kp2_rows(2, 9))
        for n in range(9):
            for s in range(n + 2):
                def at(j, row=rows[n]):
                    return row[j] if 0 <= j < len(row) else 0

                want = at(s - 1) + (2 * n - s) * at(s) + (s + 1) * at(s + 1)
                assert rows[n + 1][s] == want

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_kp1_zero_column(self, k):
        rows = tuple(kp1_rows(k, 40))
        for n in range(41):
            assert rows[n][0] == count_zero_short(k, n)

    @given(st.integers(2, 9), st.integers(0, 60))
    @settings(max_examples=30, deadline=None)
    def test_kernels_agree(self, k, n):
        kp1, kp2 = tuple(kp1_rows(k, n)), tuple(kp2_rows(k, n))
        assert kp1 == kp2
        assert list(kp2[n]) == short_chord_row(k, n)
        assert kp2[n][0] == count_zero_short(k, n)
        assert sum(kp2[n]) == total_diagrams(k, n)
        nc = tuple(noncrossing_rows(k, n))
        assert nc[n] == noncrossing_row(k, n)
        assert [sum(row) for row in nc] == [fuss_catalan(k, m) for m in range(n + 1)]

    @given(st.integers(2, 8), st.integers(0, 30), st.data())
    @settings(max_examples=30, deadline=None)
    def test_decimal_rows_are_the_int_rows(self, k, n_max, data):
        """Seeded with Decimal(1), both kernels yield the int rows as exact
        Decimal integers, whatever the caller's context, and leave that
        context as it was, also between two rows."""
        for build in (kp1_rows, kp2_rows):
            want = list(build(k, n_max))
            half = data.draw(st.integers(0, n_max + 1), label="rows before the caller's context is narrowed")
            rows = build(k, n_max, one=Decimal(1))
            got = [next(rows) for _ in range(half)]
            with localcontext() as narrow:
                narrow.prec = 5
                narrow.clear_flags()
                got += rows
                assert narrow.prec == 5 and not any(narrow.flags.values())
            assert got == want
            assert all(type(c) is Decimal and c.as_tuple().exponent == 0 for row in got for c in row)

    @pytest.mark.parametrize("k", [2, 3, 5, 9])
    @pytest.mark.parametrize("top", [0, 1])
    def test_smallest_tables(self, k, top):
        want = ((1,), (0, 1))[: top + 1]
        assert tuple(kp2_rows(k, top)) == want
        assert tuple(noncrossing_rows(k, top)) == want

    @pytest.mark.parametrize("build", [kp1_rows, kp2_rows, noncrossing_rows])
    def test_rejects_bad_arguments(self, build):
        for k, n_max in ((1, 3), (0, 3), (2, -2)):
            with pytest.raises(ValueError):
                build(k, n_max)  # at the call, before the first row is asked for


def components_by_substitution(k: int, n: int) -> list[int]:
    """Row n of the component table from the short-chord rows, by
    c(x, u) = d(x, u / (1 - x + xu)) expanded term by term:

        c(n, q) = sum_{m, s} d(m, s) C(s+n-m-1, n-m) C(n-m, q-s) (-1)^(q-s),

    where C(s+j-1, j) is [x^j] (1 - x(1-u))^(-s), 1 at s = j = 0."""
    row = [0] * (n + 1)
    for m in range(n + 1):
        j = n - m
        for s, count in enumerate(short_chord_row(k, m)):
            spread = comb(s + j - 1, j) if s else int(j == 0)
            for i in range(j + 1):
                row[s + i] += (-1) ** i * count * spread * comb(j, i)
    return row


def mutant_component_rows(old: str, new: str):
    """``component_rows`` with one piece of its kernel's source replaced."""
    source = inspect.getsource(tables._component_rows)
    assert source.count(old) == 1, old
    namespace = dict(vars(tables))
    exec(source.replace(old, new), namespace)
    return namespace["_component_rows"]


class TestComponentRows:
    @given(st.integers(2, 8), st.integers(0, 40))
    @settings(max_examples=30, deadline=None)
    def test_matches_closed_rows(self, k, n_max):
        assert list(component_rows(k, n_max)) == [component_row(k, n) for n in range(n_max + 1)]

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_substitution_identity(self, k):
        assert [list(row) for row in component_rows(k, 15)] == [
            components_by_substitution(k, n) for n in range(16)
        ]

    def test_closed_route_streams(self):
        rows = cli.ROUTES["components"]["closed"](3, 5, None)
        assert inspect.isgenerator(rows)
        assert next(rows) == (1,)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("(2 * k - 1) * b", "(2 * k) * b", "component recurrence not integral at k=3, n=3, q=2"),
            ("(k * n + 1) * c", "(k * n + 2) * c", "component recurrence breaks the run-start identity at k=3, n=1"),
        ],
        ids=["integrality", "run-start"],
    )
    def test_wrong_coefficient_fails_its_check(self, old, new, message):
        with pytest.raises(SelfCheckError, match=f"^{message}$"):
            list(mutant_component_rows(old, new)(3, 10))


class TestKp2Coefficients:
    def test_k3_polynomials(self):
        # destroying one short chord: (l+1)(6n - 4l + 1); two: 2(l+1)(l+2)
        for n in range(2, 8):
            for ell in range(n):
                assert kp2_weight(n, ell, 1, 3) == (ell + 1) * (6 * n - 4 * ell + 1)
                if ell + 2 <= n:
                    assert kp2_weight(n, ell, 2, 3) == 2 * (ell + 1) * (ell + 2)

    def test_k2_polynomial(self):
        for n in range(1, 8):
            for ell in range(n):
                assert kp2_weight(n, ell, 1, 2) == ell + 1

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
    def test_matches_double_sum(self, k):
        for n in range(26):
            for p in range(1, k):
                for ell in range(n - p + 1):
                    assert kp2_weight(n, ell, p, k) == kp2_double_sum(n, ell, p, k)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_block_powers_match_product_from_scratch(self, k):
        factor = [comb(m + k - 2, k - 2) if m else 0 for m in range(k)]  # (1-x)^(1-k) - 1
        want, wants = [1] + [0] * (k - 1), []
        for p in range(k + 1):
            wants.append(tuple(want))
            assert wants[p] == tuple(balls_in_bins_coeff(j, p, 0, k) for j in range(k))
            want = [sum(want[i] * factor[j - i] for i in range(j + 1)) for j in range(k)]
        tables._nonshort_block_power.cache_clear()
        for p in reversed(range(k + 1)):  # the highest power first, from an empty cache
            assert tables._nonshort_block_power(k, p) == wants[p], p

    def test_balls_in_bins_small(self):
        # one run destroyed (p=1): [x^j] ((1-x)^-(k-1) - 1) scaled by l+1
        assert balls_in_bins_coeff(1, 1, 0, 3) == 2
        assert balls_in_bins_coeff(2, 1, 0, 3) == 3
        assert balls_in_bins_coeff(0, 1, 5, 3) == 0


class TestNoncrossingTable:
    def test_frozen_k3(self):
        rows = tuple(noncrossing_rows(3, 7))
        for m, row in T_TABLE_K3.items():
            assert rows[m][1:] == row
            assert rows[m][0] == 0

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_row_sums_fuss_catalan(self, k):
        rows = tuple(noncrossing_rows(k, 12))
        for m in range(13):
            assert sum(rows[m]) == fuss_catalan(k, m)

    def test_k2_is_narayana(self):
        # row 0 is the empty diagram, outside the classical triangle
        rows = tuple(noncrossing_rows(2, 10))
        for m in range(1, 11):
            for s in range(m + 1):
                assert rows[m][s] == narayana(m, s)

    @pytest.mark.parametrize("k,m_cap", [(2, 5), (3, 4), (4, 3)])
    def test_matches_enumeration(self, k, m_cap):
        rows = tuple(noncrossing_rows(k, m_cap))
        for m in range(m_cap + 1):
            want = [0] * (m + 1)
            for w in naive_enumerate(k, m):
                s, _q, nc, _xp = naive_stats(w)
                if nc == m:
                    want[s] += 1
            assert list(rows[m]) == want

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_matches_all_powers(self, k):
        assert [list(row) for row in noncrossing_rows(k, 30)] == noncrossing_by_all_powers(k, 30)

    @pytest.mark.parametrize("width", [4, 8, 16, 40])
    def test_narrow_slots_raise(self, monkeypatch, width):
        # Slots too narrow for m P_m carry into each other; the slot-sum
        # check must turn that into an error, never into wrong rows.
        monkeypatch.setattr(tables, "_slot_width", lambda k, m_max: width)
        with pytest.raises(SelfCheckError, match="overflowed"):
            tuple(noncrossing_rows(3, 30))


class TestNoncrossingRow:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_matches_recurrence(self, k):
        rows = tuple(noncrossing_rows(k, 30))
        for m in range(31):
            assert noncrossing_row(k, m) == rows[m]

    def test_rejects_bad_arguments(self):
        for k, m in ((1, 3), (3, -1)):
            with pytest.raises(ValueError):
                noncrossing_row(k, m)


class TestFussCatalan:
    def test_small_values(self):
        assert [fuss_catalan(3, m) for m in range(6)] == [1, 1, 3, 12, 55, 273]
        assert [fuss_catalan(2, m) for m in range(6)] == [1, 1, 2, 5, 14, 42]

    @given(st.integers(2, 6), st.integers(0, 25))
    @settings(max_examples=60)
    def test_closed_form(self, k, m):
        assert fuss_catalan(k, m) == comb(k * m, m) // ((k - 1) * m + 1)

    @pytest.mark.parametrize(
        "k, m, message",
        [
            pytest.param(1, 3, "block size must be at least 2, got 1", id="1-3"),
            pytest.param(0, 3, "block size must be at least 2, got 0", id="0-3"),
            pytest.param(-2, 3, "block size must be at least 2, got -2", id="-2-3"),
            pytest.param(3, -1, "m must be nonnegative, got -1", id="3--1"),
        ],
    )
    def test_rejects_bad_arguments(self, k, m, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fuss_catalan(k, m)

    def test_recursion(self):
        # the k-fold convolution of the sequence shifts it by one
        k = 4
        seq = [fuss_catalan(k, m) for m in range(10)]
        for m in range(9):
            conv = 0
            for parts in _compositions(m, k):
                prod = 1
                for p in parts:
                    prod *= seq[p]
                conv += prod
            assert conv == seq[m + 1]


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest
