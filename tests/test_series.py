from __future__ import annotations

from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    fixpoint_T_series,
    naive_enumerate,
    naive_stats,
    neg_binomial_expand,
    per_j_C_series,
    per_j_F_series,
)
from kchord import (
    BivariateSeries,
    C_series,
    F_series,
    L_series,
    T_series,
    kp2_rows,
    noncrossing_rows,
    total_diagrams,
)
from kchord.counting import component_row, triple_count_closed_k2
from kchord.series import _rational, triple_table


def small_series(order=3):
    return st.builds(
        lambda rows: BivariateSeries(order, order, tuple(map(tuple, rows))),
        st.lists(
            st.lists(st.integers(-5, 5), min_size=order + 1, max_size=order + 1),
            min_size=order + 1,
            max_size=order + 1,
        ),
    )


def naive_mul(a: BivariateSeries, b: BivariateSeries) -> BivariateSeries:
    rows = [[0] * (a.order2 + 1) for _ in range(a.order1 + 1)]
    for i1 in range(a.order1 + 1):
        for j1 in range(a.order2 + 1):
            for i2 in range(a.order1 + 1 - i1):
                for j2 in range(a.order2 + 1 - j1):
                    rows[i1 + i2][j1 + j2] += a.coefficient(i1, j1) * b.coefficient(i2, j2)
    return BivariateSeries(a.order1, a.order2, tuple(map(tuple, rows)))


class TestBivariateSeries:
    def test_monomial_and_coefficient(self):
        s = BivariateSeries.monomial(3, 3, 1, 2, 5)
        assert s.coefficient(1, 2) == 5
        assert s.coefficient(0, 0) == 0
        with pytest.raises(IndexError):
            s.coefficient(4, 0)

    def test_truncation_mismatch_rejected(self):
        a = BivariateSeries.one(2, 2)
        b = BivariateSeries.one(3, 2)
        with pytest.raises(ValueError):
            _ = a + b

    @given(small_series(), small_series(), small_series())
    @settings(max_examples=60)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c

    @given(small_series(), small_series())
    @settings(max_examples=40)
    def test_mul_matches_naive(self, a, b):
        assert a * b == naive_mul(a, b)

    @given(small_series(), st.integers(0, 4))
    @settings(max_examples=30)
    def test_pow_is_repeated_mul(self, a, e):
        expect = BivariateSeries.one(a.order1, a.order2)
        for _ in range(e):
            expect = expect * a
        assert a.pow(e) == expect

    def test_subtraction_and_scale(self):
        a = BivariateSeries.monomial(2, 2, 1, 1, 3)
        assert a - a == BivariateSeries(2, 2)
        assert a.scale(4).coefficient(1, 1) == 12


class TestNegBinomialExpand:
    def test_geometric_row(self):
        u = BivariateSeries.monomial(5, 5, 1, 0, 1)
        inv = neg_binomial_expand(u.scale(-1), 1)
        # 1/(1 - x) = sum x^i
        for i in range(6):
            assert inv.coefficient(i, 0) == 1

    def test_general_exponent(self):
        u = BivariateSeries.monomial(6, 6, 1, 0, -1)
        inv = neg_binomial_expand(u, 4)
        # (1 - x)^-4 has coefficients C(3 + i, i)
        for i in range(7):
            assert inv.coefficient(i, 0) == comb(3 + i, i)

    def test_rejects_nonzero_constant(self):
        with pytest.raises(ValueError):
            neg_binomial_expand(BivariateSeries.one(3, 3), 2)


def terms(constant: bool):
    """Sparse polynomial terms (di, dj, c), with or without (0, 0)."""
    term = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3))
    if not constant:
        term = term.filter(lambda t: t[:2] != (0, 0))
    return st.lists(term, max_size=4)


def terms_series(poly, order1, order2):
    out = BivariateSeries(order1, order2)
    for di, dj, c in poly:
        out = out + BivariateSeries.monomial(order1, order2, di, dj, c)
    return out


class TestRational:
    @given(
        st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=5),
        terms(True),
        terms(False),
        st.integers(0, 5),
        st.integers(0, 5),
    )
    # L's denominator: the (0, 1) term reads its own row, after the (2, 2)
    # term has reached that cell.
    @example([[1, 0, 0]], [(0, 0, 1)], [(0, 1, -1), (2, 2, -1)], 5, 5)
    @example([[1, 2, 3], [4, 5, 6]], [(0, 0, 1), (1, 1, 2)], [(1, 0, 1), (0, 2, 3), (1, 1, -1)], 4, 1)
    @settings(max_examples=60, deadline=None)
    def test_matches_product_and_expansion(self, rows, numer, denom, order1, order2):
        # N / (1 + D) = N * (1 + D)^-1, the latter by the tests' own expansion.
        grid = [
            [rows[i][j] if i < len(rows) and j < 3 else 0 for j in range(order2 + 1)]
            for i in range(order1 + 1)
        ]
        p = BivariateSeries(order1, order2, grid)
        want = p * terms_series(numer, order1, order2) * neg_binomial_expand(
            terms_series(denom, order1, order2), 1
        )
        assert _rational(rows, numer, denom, order1, order2) == want.coeffs


class TestGeneratingFunctions:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_F_matches_tables(self, k):
        n_max = 8
        f = F_series(k, n_max)
        rows = tuple(kp2_rows(k, n_max))
        for n in range(n_max + 1):
            for s in range(n + 1):
                assert f.coefficient(n, s) == rows[n][s]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_C_matches_closed_form(self, k):
        n_max = 7
        c = C_series(k, n_max)
        for n in range(n_max + 1):
            row = component_row(k, n)
            for q in range(n + 1):
                assert c.coefficient(n, q) == row[q]

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_T_matches_recurrence(self, k):
        m_max = 8
        t = T_series(k, m_max, m_max)
        rows = tuple(noncrossing_rows(k, m_max))
        for m in range(m_max + 1):
            for s in range(m + 1):
                assert t.coefficient(m, s) == rows[m][s]

    def test_T_functional_equation(self):
        # T = 1 + x T^k - x (1 - y) T at the truncation order
        for k in (2, 3):
            t = T_series(k, 6, 6)
            x = BivariateSeries.monomial(6, 6, 1, 0, 1)
            y = BivariateSeries.monomial(6, 6, 0, 1, 1)
            one = BivariateSeries.one(6, 6)
            rhs = one + x * t.pow(k) - x * (one - y) * t
            assert t == rhs

    @given(st.integers(2, 5), st.integers(0, 9), st.integers(0, 11))
    @example(2, 0, 0)
    @example(3, 0, 4)
    @example(4, 7, 1)
    @example(5, 9, 9)
    @settings(max_examples=60, deadline=None)
    def test_T_newton_matches_fixpoint(self, k, order1, order2):
        assert T_series(k, order1, order2) == fixpoint_T_series(k, order1, order2)

    @given(st.integers(2, 5), st.integers(0, 9))
    @example(2, 0)
    @settings(max_examples=40, deadline=None)
    def test_F_shared_powers_match_per_j_expansion(self, k, n_max):
        assert F_series(k, n_max) == per_j_F_series(k, n_max)

    @given(st.integers(2, 6), st.integers(0, 40))
    @example(6, 40)
    @example(2, 0)
    @settings(max_examples=25, deadline=None)
    def test_C_rows_match_closed_form(self, k, n_max):
        c = C_series(k, n_max)
        for n in range(n_max + 1):
            assert c.coeffs[n] == list(component_row(k, n)) + [0] * (n_max - n)

    @given(st.integers(2, 5), st.integers(0, 9))
    @example(2, 0)
    @settings(max_examples=40, deadline=None)
    def test_C_carried_power_matches_per_j_expansion(self, k, n_max):
        assert C_series(k, n_max) == per_j_C_series(k, n_max)

    @pytest.mark.parametrize("k", [2, 3])
    def test_L_counts_short_only_unions(self, k):
        # coefficient of x^i y^j: diagrams made of j blocks covering i
        # vertices, every block short: nonzero only at i = k*j with value 1
        # once weighted by the chain structure; check against the direct
        # geometric series instead
        o = 10
        series = L_series(k, o, o)
        direct = [[0] * (o + 1) for _ in range(o + 1)]
        for r in range(2 * o + 2):
            for j in range(r + 1):
                xd, yd = k * j, (r - j) + k * j
                if xd <= o and yd <= o:
                    direct[xd][yd] += comb(r, j)
        for i in range(o + 1):
            for j in range(o + 1):
                assert series.coefficient(i, j) == direct[i][j]

    @pytest.mark.parametrize(
        "build",
        [
            lambda k: F_series(k, 3),
            lambda k: C_series(k, 3),
            lambda k: T_series(k, 3, 3),
            lambda k: L_series(k, 3, 3),
        ],
    )
    def test_rejects_block_size_below_two(self, build):
        for k in (1, 0):
            with pytest.raises(ValueError, match="at least 2"):
                build(k)


class TestTripleCounts:
    @pytest.mark.parametrize("k,n_cap", [(2, 5), (3, 4), (4, 3)])
    def test_matches_enumeration(self, k, n_cap):
        for n in range(n_cap + 1):
            want: dict = {}
            for w in naive_enumerate(k, n):
                s, _q, m, _xp = naive_stats(w)
                want[(m, s)] = want.get((m, s), 0) + 1
            table = triple_table(k, n)
            for m in range(n + 1):
                for s in range(m + 1):
                    assert table[m][s] == want.get((m, s), 0), (k, n, m, s)

    def test_total_mass(self):
        for k, n in [(2, 6), (3, 5)]:
            table = triple_table(k, n)
            assert sum(map(sum, table)) == total_diagrams(k, n)

    def test_k2_closed_form(self):
        for n in range(7):
            table = triple_table(2, n)
            for m in range(n + 1):
                for s in range(m + 1):
                    assert table[m][s] == triple_count_closed_k2(n, s, m)

    def test_m_marginal_is_noncrossing_row(self):
        for k, n in [(2, 6), (3, 5), (4, 4)]:
            table = triple_table(k, n)
            nc = tuple(noncrossing_rows(k, n))
            assert tuple(table[n]) == nc[n]

    def test_s_marginal_is_short_row(self):
        for k, n in [(2, 6), (3, 5), (4, 4)]:
            table = triple_table(k, n)
            row = [0] * (n + 1)
            for m in range(n + 1):
                for s in range(m + 1):
                    row[s] += table[m][s]
            assert tuple(row) == tuple(kp2_rows(k, n))[n]
