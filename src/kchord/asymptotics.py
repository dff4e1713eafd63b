"""Limit behavior of the diagram statistics.

Short chords and components are asymptotically Poisson; the number of
short chords in a uniform *non-crossing* diagram is asymptotically
normal.  Everything exact stays exact: Poisson masses involve e^(-lam),
which is handled as a dyadic interval with outward rounding so that
"the distance decreased" is a rigorous verdict, not a float one.
The reports compute only the rows at the requested n, each report as a
per-n point given to the one builder ``_report``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Iterator, Sequence

from . import counting, tables

TAIL_TOLERANCE = Fraction(1, 10**12)
# Bits of the dyadic fixed point in which total-variation bounds are summed.
PRECISION_BITS = 256


def poisson_lambda(k: int, n: int) -> Fraction:
    """Limiting rate k! k^(1-k) n^(2-k) of the short-chord count.

    >>> poisson_lambda(2, 100)
    Fraction(1, 1)
    >>> poisson_lambda(3, 9)
    Fraction(2, 27)
    """
    counting._check_sizes(k)
    if n < 1:
        raise ValueError("need n >= 1")
    return Fraction(factorial(k), k ** (k - 1) * n ** (k - 2))


def factorial_moment(row: Sequence[int], j: int) -> Fraction:
    """j-th falling factorial moment of a count histogram row."""
    if j < 0:
        raise ValueError("need j >= 0")
    total = sum(row)
    if total == 0:
        raise ValueError("empty distribution")
    acc = 0
    for value, count in enumerate(row):
        ff = 1
        for i in range(j):
            ff *= value - i
        if ff:
            acc += ff * count
    return Fraction(acc, total)


def _exp_neg_interval(lam: Fraction) -> tuple[Fraction, Fraction]:
    """Rational bounds on e^(-lam), lam >= 0, via the alternating series.

    Once the terms decrease, consecutive partial sums bracket the value;
    iteration continues until the bracket is narrower than 2^-200.  With
    lam = a/b, partial sum i is num_i / (b^i i!), where
    num_i = num_(i-1) b i + (-a)^i, so the walk is in integers and only
    the two ends become fractions.
    """
    if lam < 0:
        raise ValueError("need lam >= 0")
    if lam == 0:
        return Fraction(1), Fraction(1)
    a, b = lam.numerator, lam.denominator
    num = den = 1  # partial sum 0
    power = 1  # a^i
    i = 0
    while True:
        i += 1
        prev_num, prev_den = num, den
        power *= a
        den *= b * i
        num = num * b * i + (-power if i & 1 else power)
        # |term i| = a^i / (b^i i!) < 2^-200, and the terms decrease (i > lam)
        if i > 1 and i * b > a and power << 200 < den:
            partial, prev = Fraction(num, den), Fraction(prev_num, prev_den)
            # an odd term is negative, so it ends below the partial sum before it
            return (partial, prev) if i & 1 else (prev, partial)


def _poisson_masses(lam: Fraction) -> Iterator[tuple[int, int]]:
    """Yield dyadic brackets (lo, hi) of the Poisson(lam) masses at
    j = 0, 1, 2, ..., as integers scaled by 2^PRECISION_BITS.

    lo / 2^PRECISION_BITS <= (lam^j / j!) * exp_lo and
    hi / 2^PRECISION_BITS >= (lam^j / j!) * exp_hi, with (exp_lo, exp_hi)
    the bracket of e^(-lam) from ``_exp_neg_interval``: every rounding
    floors a lower bound and ceils an upper one.

    The masses of the lower ends sum to exp_lo * e^lam, which falls short
    of 1 by up to (exp_hi - exp_lo) / exp_lo.  A lam for which that is
    TAIL_TOLERANCE or more is rejected with ``ValueError``, since no
    Poisson tail could then be certified below the tolerance (from about
    lam = 111 on).
    """
    one = 1 << PRECISION_BITS
    exp_lo, exp_hi = _exp_neg_interval(lam)
    if exp_hi - exp_lo >= TAIL_TOLERANCE * exp_lo:
        raise ValueError(
            f"lam = {lam} is too large: no Poisson tail can be certified below {float(TAIL_TOLERANCE):g}"
        )
    e_lo = exp_lo.numerator * one // exp_lo.denominator
    e_hi = -(-exp_hi.numerator * one // exp_hi.denominator)
    a, b = lam.numerator, lam.denominator
    w_lo = w_hi = one  # bounds on lam^j / j!, scaled
    j = 0
    while True:
        yield w_lo * e_lo // one, -(-w_hi * e_hi // one)
        j += 1
        w_lo = w_lo * a // (b * j)
        w_hi = -(-w_hi * a // (b * j))


def tv_distance_interval(row: Sequence[int], lam: Fraction) -> tuple[Fraction, Fraction]:
    """Certified bounds on the total-variation distance between the
    normalized histogram ``row`` and Poisson(lam).

    The Poisson support is cut at the first point past the row where the
    certified tail mass drops below TAIL_TOLERANCE; both tails enter
    the distance, so the bounds cover the full supports.  All masses are
    integers scaled by 2^PRECISION_BITS and rounded outward (floor for a
    lower bound, ceiling for an upper one), so the returned fractions
    have denominator dividing 2^(PRECISION_BITS+1).  The upper bound is
    clamped to 1.  A lam too large to certify raises ``ValueError``.

    The walk stops early at the first step j where the tail is below the
    tolerance, the scaled Poisson bracket is (0, 1) and can no longer grow
    (lam <= j + 1), and the row mass not yet walked is below one unit.
    Every later step up to the cut then adds exactly 0 to the lower sums
    and 1 to the upper ones, so those steps are added in one.
    """
    total = sum(row)
    if total <= 0:
        raise ValueError("empty distribution")
    one = 1 << PRECISION_BITS
    tail_bound = TAIL_TOLERANCE * one
    lam_ceil = -(-lam.numerator // lam.denominator)
    end = max(len(row) - 1, lam_ceil)  # the earliest cut
    sum_lo = sum_hi = 0
    dist_lo = dist_hi = 0
    seen = 0  # row mass walked so far
    for j, (q_lo, q_hi) in enumerate(_poisson_masses(lam)):
        if j > end + 10_000:
            raise counting.SelfCheckError("Poisson tail failed to shrink")
        sum_lo += q_lo
        sum_hi += q_hi
        count = row[j] if j < len(row) else 0
        seen += count
        p_lo = count * one // total
        p_hi = -(-count * one // total)
        dist_lo += max(0, p_lo - q_hi, q_lo - p_hi)
        dist_hi += max(q_hi - p_lo, p_hi - q_lo)
        # The cut lies past the row, so only the Poisson side has a tail.
        tail_hi = one - sum_lo
        if (
            j >= end
            or q_lo == 0 and q_hi == 1 and j + 1 >= lam_ceil
            and (total - seen) << PRECISION_BITS < total
        ) and tail_hi < tail_bound:
            # Steps j+1..end: p = (0, 0 or 1) against q = (0, 1), a
            # tail that stays put, and 1 more on each upper sum.
            skipped = max(0, end - j)
            dist_hi += skipped
            sum_hi += skipped
            break
    tail_lo = max(0, one - sum_hi)
    # A total-variation distance is at most 1, whatever the rounding adds.
    upper = min(dist_hi + tail_hi, 2 * one)
    return Fraction(dist_lo + tail_lo, 2 * one), Fraction(upper, 2 * one)


@dataclass(frozen=True)
class AsymptoticReport:
    """Per-n exact statistics against a limit, with certified errors.

    ``errors`` are upper bounds; ``errors_lower`` the matching lower
    bounds (equal for exact comparisons).  ``monotone`` certifies that
    the error intervals strictly decrease along ``n``.
    """

    k: int
    kind: str
    n: tuple[int, ...]
    exact: tuple[Fraction, ...]
    limit: Fraction
    errors: tuple[Fraction, ...]
    errors_lower: tuple[Fraction, ...]
    monotone: bool

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "kind": self.kind,
            "n": list(self.n),
            "exact": [decimal_str(x) for x in self.exact],
            "limit": decimal_str(self.limit),
            "errors": [decimal_str(e, round_up=True) for e in self.errors],
            "monotone": self.monotone,
        }

    def to_csv_text(self) -> str:
        lines = ["n,exact,limit,abs_error"]
        for nv, ex, err in zip(self.n, self.exact, self.errors):
            lines.append(
                f"{nv},{decimal_str(ex)},{decimal_str(self.limit)},"
                f"{decimal_str(err, round_up=True)}"
            )
        return "\n".join(lines) + "\n"


def decimal_str(x: Fraction, places: int = 18, round_up: bool = False) -> str:
    """Render an exact rational as a decimal string.

    Rounds toward zero by default (round_up=True rounds away from zero,
    for certified upper bounds); trailing zeros are trimmed.
    """
    sign = "-" if x < 0 else ""
    num, den = abs(x).numerator, abs(x).denominator
    scaled = num * 10**places
    q, r = divmod(scaled, den)
    if round_up and r:
        q += 1
    digits = str(q).rjust(places + 1, "0")
    whole, frac = digits[:-places], digits[-places:]
    frac = frac.rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


def _report(
    k: int,
    kind: str,
    n_values: Sequence[int],
    limit: Callable[[], Fraction],
    point: Callable[[int], tuple[Fraction, Fraction, Fraction]],
) -> AsymptoticReport:
    """The report of ``point(n)`` = (exact value, error lower bound, error
    upper bound) along ``n_values``, with sizes checked before ``limit()``
    or any point is computed."""
    n_values = tuple(n_values)
    if not n_values:
        raise ValueError("need at least one n")
    counting._check_sizes(k)
    if min(n_values) < 1:
        raise ValueError(f"every n must be at least 1, got {min(n_values)}")
    exact, lower, upper = zip(*map(point, n_values))
    # monotone: each error interval lies strictly below the one before it
    monotone = all(hi < lo for hi, lo in zip(upper[1:], lower))
    return AsymptoticReport(
        k=k, kind=kind, n=n_values, exact=exact, limit=limit(),
        errors=upper, errors_lower=lower, monotone=monotone,
    )


def poisson_convergence_report(
    k: int, n_values: Sequence[int], kind: str = "short_chords"
) -> AsymptoticReport:
    """Total-variation distance to Poisson(lambda(k, n)) along ``n_values``.

    ``kind`` selects short chords or components: a short-chord row comes
    from its recurrence in s, a component row from its inclusion-exclusion
    closed form.  The ``errors`` sequence is the certified TV upper bound
    per n; ``monotone`` holds only if the intervals strictly decrease.
    """
    if kind == "short_chords":
        row_at = counting.short_chord_row
    elif kind == "components":
        row_at = counting.component_row
    else:
        raise ValueError(f"unknown kind {kind!r}")

    def point(n: int) -> tuple[Fraction, Fraction, Fraction]:
        row = row_at(k, n)
        lo, hi = tv_distance_interval(row, poisson_lambda(k, n))
        return factorial_moment(row, 1), lo, hi

    return _report(k, kind, n_values, lambda: Fraction(1 if k == 2 else 0), point)


def nc_mean_variance(k: int, n: int) -> tuple[Fraction, Fraction]:
    """Limiting mean and variance of the short-chord count of a uniform
    non-crossing diagram with n blocks.

        mu      = ((k-1)/k)^(k-1) n
        sigma^2 = ((k-1)/k)^(2k) (k/(k-1)^2)
                  (1 - 2k + (k-1)(k/(k-1))^k) n

    >>> nc_mean_variance(2, 8)
    (Fraction(4, 1), Fraction(1, 1))
    """
    counting._check_sizes(k, n)
    ratio = Fraction(k - 1, k)
    mean = ratio ** (k - 1) * n
    var = (
        ratio ** (2 * k)
        * Fraction(k, (k - 1) ** 2)
        * (1 - 2 * k + (k - 1) * Fraction(k, k - 1) ** k)
        * n
    )
    return mean, var


def nc_mean_report(k: int, n_values: Sequence[int]) -> AsymptoticReport:
    """Exact mean/n of the non-crossing short-chord rows against its limit."""

    def limit() -> Fraction:
        return nc_mean_variance(k, 1)[0]

    def point(n: int) -> tuple[Fraction, Fraction, Fraction]:
        mean = factorial_moment(tables.noncrossing_row(k, n), 1) / n
        error = abs(mean - limit())
        return mean, error, error

    return _report(k, "noncrossing_short_mean", n_values, limit, point)
