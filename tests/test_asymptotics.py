from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    characteristic_expansion,
    fraction_exp_neg_interval,
    fraction_tv_interval,
    stepwise_tv_interval,
)
from kchord import (
    nc_mean_report,
    nc_mean_variance,
    noncrossing_rows,
    poisson_convergence_report,
    poisson_lambda,
    tv_distance_interval,
)
from kchord.asymptotics import (
    PRECISION_BITS,
    TAIL_TOLERANCE,
    _exp_neg_interval,
    _poisson_masses,
    decimal_str,
    factorial_moment,
)
from kchord import asymptotics, tables
from kchord.counting import SelfCheckError, component_row, short_chord_row
from kchord.tables import fuss_catalan, kp2_rows


def row_variance(row) -> Fraction:
    """Exact variance of a count histogram row, from its factorial moments."""
    mean = factorial_moment(row, 1)
    return factorial_moment(row, 2) + mean - mean * mean


class TestPoissonLambda:
    def test_k2_is_one(self):
        for n in (1, 5, 100):
            assert poisson_lambda(2, n) == 1

    def test_values(self):
        assert poisson_lambda(3, 1) == Fraction(2, 3)
        assert poisson_lambda(3, 3) == Fraction(2, 9)
        assert poisson_lambda(4, 2) == Fraction(3, 32)

    def test_closed_form(self):
        for k in (2, 3, 4, 5):
            for n in (1, 2, 10):
                want = (
                    Fraction(math.factorial(k), k ** (k - 1))
                    * Fraction(1, n) ** (k - 2)
                )
                assert poisson_lambda(k, n) == want


class TestExpInterval:
    @pytest.mark.parametrize("lam", [Fraction(1), Fraction(2, 27), Fraction(5), Fraction(0)])
    def test_brackets_float_exp(self, lam):
        lo, hi = _exp_neg_interval(lam)
        assert lo <= hi
        assert hi - lo <= Fraction(1, 2**200)
        float_val = math.exp(-float(lam))
        assert float(lo) - 1e-12 <= float_val <= float(hi) + 1e-12

    @given(st.fractions(min_value=0, max_value=50, max_denominator=1000))
    @example(poisson_lambda(2, 100))
    @example(poisson_lambda(3, 9))
    @example(poisson_lambda(3, 200))
    @example(poisson_lambda(4, 2))
    @example(poisson_lambda(5, 1))
    @example(Fraction(50))
    @settings(max_examples=40, deadline=None)
    def test_integer_walk_equals_fraction_series(self, lam):
        # the same partial sums, kept over one integer denominator
        assert _exp_neg_interval(lam) == fraction_exp_neg_interval(lam)


class TestFactorialMoment:
    def test_small(self):
        # distribution {0: 1, 1: 2, 2: 3} of total mass 6
        row = (1, 2, 3)
        assert factorial_moment(row, 0) == 1
        assert factorial_moment(row, 1) == Fraction(2 + 6, 6)
        assert factorial_moment(row, 2) == Fraction(6, 6)


class TestTvDistance:
    def test_point_mass_against_poisson_zero(self):
        # the zero distribution against Poisson(0) has distance 0
        lo, hi = tv_distance_interval((1,), Fraction(0))
        assert lo == 0 and float(hi) < 1e-50

    def test_known_direction(self):
        row = tuple(kp2_rows(2, 10))[10]
        lo, hi = tv_distance_interval(row, Fraction(1))
        assert 0 < lo <= hi < 1

    def test_float_crosscheck(self):
        # independent float computation of the same truncated distance
        row = tuple(kp2_rows(2, 25))[25]
        total = sum(row)
        lam = 1.0
        tv = 0.0
        mass = 0.0
        q = math.exp(-lam)
        for j in range(120):
            p = row[j] / total if j < len(row) else 0.0
            tv += abs(p - q)
            mass += q
            q *= lam / (j + 1)
        tv = (tv + (1.0 - mass)) / 2
        lo, hi = tv_distance_interval(row, Fraction(1))
        assert abs(float((lo + hi) / 2) - tv) < 1e-9

    @given(st.fractions(min_value=0, max_value=6, max_denominator=1000))
    @example(Fraction(1))
    @example(Fraction(2, 27))
    @example(Fraction(7, 3))
    @settings(max_examples=40, deadline=None)
    def test_each_poisson_mass_bracket_rounds_outward(self, lam):
        # Each scaled term must hold lam^j/j! times the e^(-lam) bracket
        # on its own; a floored upper mass or a ceiled lower one slips
        # below or above it by an ulp, which the sums can hide.
        one = 1 << PRECISION_BITS
        exp_lo, exp_hi = _exp_neg_interval(lam)
        weight = Fraction(1)
        for j, (q_lo, q_hi) in zip(range(60), _poisson_masses(lam)):
            assert q_lo <= weight * exp_lo * one, (lam, j)
            assert q_hi >= weight * exp_hi * one, (lam, j)
            weight *= lam / (j + 1)

    def test_agrees_with_fraction_oracle(self):
        row = tuple(kp2_rows(3, 30))[30]
        lam = poisson_lambda(3, 30)
        lo, hi = tv_distance_interval(row, lam)
        o_lo, o_hi = fraction_tv_interval(row, lam)
        assert lo <= o_lo <= o_hi <= hi
        assert 2 ** (PRECISION_BITS + 1) % hi.denominator == 0

    @given(
        st.lists(st.integers(0, 10**40), min_size=1, max_size=40).filter(any),
        st.fractions(min_value=0, max_value=5, max_denominator=1000),
    )
    @settings(max_examples=60, deadline=None)
    @example(row=[0, 1, 2], lam=Fraction(0))  # rounding once pushed hi to 1 + 2^-257
    def test_contains_fraction_oracle(self, row, lam):
        # Same e^(-lam) bracket, outward rounding: the dyadic interval
        # holds the exact-Fraction one and is only a few ulps wider.
        lo, hi = tv_distance_interval(row, lam)
        o_lo, o_hi = fraction_tv_interval(row, lam)
        assert 0 <= lo <= o_lo <= o_hi <= hi <= 1
        assert (o_lo - lo) + (hi - o_hi) <= Fraction(1, 2**240)
        assert hi - lo <= Fraction(1, 2**190)
        for bound in (lo, hi):
            assert 2 ** (PRECISION_BITS + 1) % bound.denominator == 0


    @given(
        st.tuples(
            st.lists(st.one_of(st.integers(0, 10), st.integers(0, 2**300)), min_size=1, max_size=40),
            st.integers(0, 60),
        ).map(lambda row_zeros: row_zeros[0] + [0] * row_zeros[1]).filter(any),
        st.fractions(min_value=0, max_value=30, max_denominator=1000),
    )
    @settings(max_examples=80, deadline=None)
    @example(row=short_chord_row(2, 300), lam=Fraction(1))  # the tail is added in one step
    @example(row=[3, 2, 1], lam=Fraction(25, 2))  # the cut is set by lam, not the row
    @example(row=[0, 1, 2], lam=Fraction(0))
    @example(row=[0] * 200 + [1], lam=Fraction(1))  # all the mass lies past the Poisson tail
    @example(row=[2**400] + [0] * 100 + [1], lam=Fraction(1))  # later mass below one unit
    @example(row=list(short_chord_row(3, 20)) + [0] * 30, lam=poisson_lambda(3, 20))
    def test_equals_stepwise_walk(self, row, lam):
        # exactly, not within ulps: the steps added in one each add 0 or 1
        assert tv_distance_interval(row, lam) == stepwise_tv_interval(row, lam)

    def test_tail_is_not_walked(self, monkeypatch):
        drawn = []

        def counted(lam):
            for mass in _poisson_masses(lam):
                drawn.append(mass)
                yield mass

        monkeypatch.setattr(asymptotics, "_poisson_masses", counted)
        row = short_chord_row(2, 300)
        assert tv_distance_interval(row, Fraction(1)) == stepwise_tv_interval(row, Fraction(1))
        # row masses and Poisson masses are both below 2^-256 well before j = 100
        assert len(drawn) < 100

    @pytest.mark.parametrize(
        "row",
        [list(short_chord_row(2, 50)) + [0] * 10_000, [1] * 10_002],
        ids=["zero-padded", "walked-to-its-end"],
    )
    def test_row_past_ten_thousand_entries(self, row):
        # the walk once stopped at j = 10,001 whatever the row's length
        lo, hi = tv_distance_interval(row, Fraction(1))
        assert (lo, hi) == stepwise_tv_interval(row, Fraction(1))
        assert 0 < lo <= hi < 1

    def test_tail_that_never_shrinks_raises(self, monkeypatch):
        monkeypatch.setattr(asymptotics, "_poisson_masses", lambda lam: itertools.repeat((0, 0)))
        with pytest.raises(SelfCheckError, match="Poisson tail failed to shrink"):
            tv_distance_interval([1, 2, 3], Fraction(1))

    def test_lambda_past_the_precision_is_rejected(self):
        # e^(-111) is bracketed finely enough to certify the tail, e^(-112)
        # is not: that lam once walked 10,000 terms into a SelfCheckError
        lo, hi = tv_distance_interval([1], Fraction(111))
        assert (lo, hi) == stepwise_tv_interval([1], Fraction(111))
        assert 1 - TAIL_TOLERANCE < lo < hi == 1
        with pytest.raises(ValueError, match=r"^lam = 112 is too large"):
            tv_distance_interval([1], Fraction(112))


class TestPoissonReport:
    def test_short_chords_k2(self):
        rep = poisson_convergence_report(2, [10, 20, 40])
        assert rep.kind == "short_chords"
        assert rep.monotone
        assert rep.errors[0] > rep.errors[1] > rep.errors[2]
        assert all(lo <= hi for lo, hi in zip(rep.errors_lower, rep.errors))
        # mean of the k=2 short-chord distribution is exactly lambda = 1
        assert all(x == 1 for x in rep.exact)

    def test_components_k2(self):
        rep = poisson_convergence_report(2, [10, 20], kind="components")
        assert rep.kind == "components"
        assert rep.errors[1] < rep.errors[0]

    def test_k3_decay(self):
        rep = poisson_convergence_report(3, [6, 12])
        assert rep.errors[1] < rep.errors[0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            poisson_convergence_report(2, [])

    @pytest.mark.parametrize("kind, row_at", [("short_chords", short_chord_row), ("components", component_row)])
    def test_errors_are_the_tv_bounds(self, kind, row_at):
        rep = poisson_convergence_report(3, [6, 12], kind)
        for n, lo, hi in zip(rep.n, rep.errors_lower, rep.errors):
            assert (lo, hi) == tv_distance_interval(row_at(3, n), poisson_lambda(3, n))

    @pytest.mark.parametrize(
        "report",
        [
            lambda ns: poisson_convergence_report(2, ns),
            lambda ns: poisson_convergence_report(2, ns, "components"),
            lambda ns: nc_mean_report(3, ns),
        ],
        ids=["short", "components", "nc-short"],
    )
    def test_monotone_needs_each_interval_strictly_below(self, report):
        assert report([10, 20]).monotone
        # an equal interval, or a higher one, is not strictly below the one before
        assert not report([10, 10]).monotone
        assert not report([20, 10]).monotone

    @pytest.mark.parametrize(
        "k, n_values, message",
        [
            pytest.param(1, [3], "block size must be at least 2, got 1", id="1-n_values0"),
            pytest.param(0, [5], "block size must be at least 2, got 0", id="0-n_values1"),
            pytest.param(2, [0, 5], "every n must be at least 1, got 0", id="2-n_values2"),
            pytest.param(3, [-1], "every n must be at least 1, got -1", id="3-n_values3"),
        ],
    )
    def test_rejects_bad_sizes(self, k, n_values, message):
        for kind in ("short_chords", "components"):
            with pytest.raises(ValueError, match=f"^{message}$"):
                poisson_convergence_report(k, n_values, kind)
        with pytest.raises(ValueError, match=f"^{message}$"):
            nc_mean_report(k, n_values)

    def test_builds_no_table(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("asympt built a kp2 table")

        monkeypatch.setattr(tables, "kp2_rows", refuse)
        monkeypatch.setattr(tables, "_fills", refuse)
        rep = poisson_convergence_report(2, [40, 80])
        assert rep.n == (40, 80)

    def test_serialization_shapes(self):
        rep = poisson_convergence_report(2, [10, 20])
        d = rep.to_json_dict()
        assert d["n"] == [10, 20]
        assert len(d["errors"]) == 2
        csv = rep.to_csv_text()
        lines = csv.strip().split("\n")
        assert lines[0] == "n,exact,limit,abs_error"
        assert len(lines) == 3
        assert csv.endswith("\n")


class TestNcMean:
    def test_limit_slopes(self):
        assert nc_mean_variance(2, 8) == (Fraction(4), Fraction(1))
        mean, var = nc_mean_variance(3, 9)
        assert mean == Fraction(4, 9) * 9
        assert var > 0

    def test_exact_mean_agrees_with_table(self):
        # recompute the mean directly from the table row
        rep = nc_mean_report(3, [10])
        row = tuple(noncrossing_rows(3, 10))[10]
        total = fuss_catalan(3, 10)
        mean = Fraction(sum(s * c for s, c in enumerate(row)), total)
        assert rep.exact[0] == mean / 10
        assert rep.errors[0] == abs(mean / 10 - Fraction(4, 9))
        assert rep.errors[0] == rep.errors_lower[0]

    def test_error_decays(self):
        rep = nc_mean_report(3, [25, 50, 100])
        assert rep.errors[0] > rep.errors[1] > rep.errors[2]
        assert float(rep.errors[2]) < 0.02

    def test_k2_variance_exact(self):
        # Narayana rows: Var_m = (m^2 - 1) / (4(2m - 1)), and m sigma^2 = m/8 is its limit
        assert nc_mean_variance(2, 1)[1] == Fraction(1, 8)
        for m in range(1, 201):
            assert row_variance(tables.noncrossing_row(2, m)) == Fraction(m * m - 1, 4 * (2 * m - 1)), m

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_variance_constant_against_exact_rows(self, k):
        # Var_m - m sigma^2 stays bounded (0.008 to 0.03 here), so an error
        # delta in sigma^2 would show as m delta: the bound is 1 at m = 400
        sigma2 = nc_mean_variance(k, 1)[1]
        for m in (100, 200, 400):
            gap = row_variance(tables.noncrossing_row(k, m)) - m * sigma2
            assert abs(gap) <= 1, (m, float(gap))


class TestCharacteristicExpansion:
    @pytest.mark.parametrize("k", range(2, 11))
    def test_matches_closed_forms(self, k):
        exp = characteristic_expansion(k)
        ratio = Fraction(k - 1, k)
        assert exp.mean_coefficient == ratio ** (k - 1)
        want_var = (
            ratio ** (2 * k)
            * Fraction(k, (k - 1) ** 2)
            * (1 - 2 * k + (k - 1) * Fraction(k, k - 1) ** k)
        )
        assert exp.variance_coefficient == want_var

    def test_leading_terms(self):
        exp = characteristic_expansion(3)
        # tau(1) = 1/(k-1), rho(1) = (k-1)^(k-1)/k^k
        assert exp.tau[0] == Fraction(1, 2)
        assert exp.rho[0] == Fraction(4, 27)

    def test_k2_values(self):
        exp = characteristic_expansion(2)
        assert exp.mean_coefficient == Fraction(1, 2)
        assert exp.variance_coefficient == Fraction(1, 8)

    def test_variance_positive(self):
        for k in range(2, 12):
            assert characteristic_expansion(k).variance_coefficient > 0


class TestDecimalStr:
    def test_simple(self):
        assert decimal_str(Fraction(1, 2)) == "0.5"
        assert decimal_str(Fraction(0)) == "0"
        assert decimal_str(Fraction(4, 3), places=6) == "1.333333"

    def test_round_up(self):
        assert decimal_str(Fraction(1, 3), places=3, round_up=True) == "0.334"
        assert decimal_str(Fraction(1, 4), places=3, round_up=True) == "0.25"

    @given(st.fractions(min_value=0, max_value=1000))
    @settings(max_examples=80)
    def test_parse_back_within_tolerance(self, x):
        text = decimal_str(x, places=18)
        assert abs(Fraction(text) - x) < Fraction(1, 10**17)

    def test_trims_trailing_zeros(self):
        assert decimal_str(Fraction(3, 4), places=10) == "0.75"
