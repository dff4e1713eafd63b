"""Exact closed-form counts for linear k-chord diagrams.

Everything here is arbitrary-precision integer or rational arithmetic;
no floats.  The alternating sums are evaluated term by term with each
term kept integral (binomial times binomial times diagram count), so no
rational intermediate is needed.  Short-chord rows take no sum at all:
their marked counts are hypergeometric, so the row follows a linear
recurrence in s with exact integer divisions (``short_chord_row``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Sequence


class SelfCheckError(RuntimeError):
    """An internal consistency check failed: a program fault, not an input error."""


def _check_sizes(k: int, n: int = 0, name: str = "n") -> None:
    """The size rule of every function that takes a block size: k >= 2,
    and the count called ``name`` nonnegative."""
    if k < 2:
        raise ValueError(f"block size must be at least 2, got {k}")
    if n < 0:
        raise ValueError(f"{name} must be nonnegative, got {n}")


@lru_cache(maxsize=None)
def _fact(m: int) -> int:
    return factorial(m)


@lru_cache(maxsize=None)
def total_diagrams(k: int, n: int) -> int:
    """Number of diagrams with n blocks of k vertices: (kn)! / ((k!)^n n!).

    >>> total_diagrams(3, 2)
    10
    >>> total_diagrams(2, 3)
    15
    """
    _check_sizes(k, n)
    return _fact(k * n) // (_fact(k) ** n * _fact(n))


def subpath_choices(k: int, path_len: int, j: int) -> int:
    """Ways to choose j pairwise disjoint k-vertex subpaths of a path.

    Equals C(path_len - j(k-1), j): contracting each chosen subpath to a
    single vertex leaves path_len - j(k-1) slots from which the j
    contracted vertices are picked.

    >>> subpath_choices(2, 4, 2)
    1
    >>> subpath_choices(3, 6, 1)
    4
    """
    if j < 0 or path_len < 0:
        raise ValueError("need j >= 0 and path_len >= 0")
    top = path_len - j * (k - 1)
    if top < 0:
        return 0
    return comb(top, j)


def inverse_binomial_transform(marked: Sequence[int]) -> list[int]:
    """e_s = sum_j (-1)^(j-s) C(j, s) a_j, for s = 0..len(marked)-1.

    Turns counts of placements with j marked features into counts of
    objects with exactly s features.  As generating functions this is
    the Taylor shift E(y) = A(y - 1), done in place by repeated
    synthetic division, with additions only.

    >>> inverse_binomial_transform([15, 6, 1])
    [10, 4, 1]
    """
    out = list(marked)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] -= out[j + 1]
    return out


def short_chord_row(k: int, n: int) -> list[int]:
    """Counts of diagrams by number of short chords, s = 0..n.

    The row is the Taylor shift E(u) = A(u - 1) of the marked counts
    a_j = N(k, n-j) C(kn - j(k-1), j), the placements of j disjoint
    marked short chords.  The a_j are hypergeometric in j:

        (j+1) P(j) a_{j+1} = k! (n-j) a_j,
        P(j) = prod_{i=0}^{k-2} (kn - i - (k-1)j),

    so A(y) = sum_j a_j y^j satisfies P(theta) A' = k! (n - theta) A
    with theta = y d/dy.  Under y = u - 1, theta acts on the
    coefficients of E as (theta e)_s = s e_s - (s+1) e_{s+1}, and the
    equation becomes a recurrence downward in s.  Start the levels at
    w^0_t = (t+1) e_{t+1} and apply one factor of P at a time,

        w^{i+1}_t = (kn - i - (k-1)t) w^i_t + (k-1)(t+1) w^i_{t+1},

    for i = 0..k-2; then

        e_s = (w^{k-1}_s - k! (s+1) e_{s+1}) / (k! (n-s)),

    from e_n = 1 (the one diagram whose blocks are all runs).  Each level
    carries its value at s+1, so a row costs k big-integer steps per s,
    O(nk) in all.  The division is exact; a remainder raises
    ``SelfCheckError``.

    >>> short_chord_row(3, 4)
    [12861, 2296, 226, 16, 1]
    """
    _check_sizes(k, n)
    kfact = factorial(k)
    kn = k * n
    row = [0] * n + [1]
    above = [0] * (k - 1)  # w^i_{s+1} for i = 0..k-2; every level is 0 at t = n
    for s in range(n - 1, -1, -1):
        base, carry = kn - (k - 1) * s, (k - 1) * (s + 1)
        w = w0 = (s + 1) * row[s + 1]
        for i in range(k - 1):
            w, above[i] = (base - i) * w + carry * above[i], w
        value, rem = divmod(w - kfact * w0, kfact * (n - s))
        if rem:
            raise SelfCheckError(f"short-chord recurrence not exact at k={k}, n={n}, s={s}")
        row[s] = value
    return row


def count_zero_short(k: int, n: int) -> int:
    """Number of diagrams with no short chord.

    sum_j (-1)^j N(k, n-j) * subpath_choices(k, kn, j).

    >>> count_zero_short(2, 3)
    5
    >>> count_zero_short(3, 1)
    0
    """
    _check_sizes(k, n)
    total = 0
    kn = k * n
    for j in range(n + 1):
        term = total_diagrams(k, n - j) * subpath_choices(k, kn, j)
        total += -term if j & 1 else term
    return total


def mean_short_chords(k: int, n: int) -> Fraction:
    """Expected number of short chords of a uniform diagram.

    n(kn - (k-1)) / C(kn, k).  Exactly 1 for k = 2 and every n >= 1.

    >>> mean_short_chords(3, 2)
    Fraction(2, 5)
    >>> mean_short_chords(2, 17)
    Fraction(1, 1)
    """
    _check_sizes(k)
    if n < 1:
        raise ValueError("need n >= 1")
    return Fraction(n * (k * n - (k - 1)), comb(k * n, k))


def component_row(k: int, n: int) -> tuple[int, ...]:
    """Counts of diagrams by number of components, for q = 0..n.

    A component is a maximal run of adjacent short chords.  Extracted
    from the series expansion of the component generating function:

        c(n, q) = sum_{l>=q} (-1)^(l-q) C(l, q) S(l),
        S(l) = sum_r (-1)^r N(k, n-l-r) C(k(n-l-r)+1, l-r) C(k(n-l-r)+r, r).
    """
    _check_sizes(k, n)
    inner = [0] * (n + 1)
    for j in range(n + 1):  # l + r = n - j; the r-th term has C(a, n-j-2r) C(a-1+r, r)
        a = k * j + 1
        r = max(0, (n - j - a + 1) // 2)  # first r with n-j-2r <= a
        t = n - j - 2 * r
        term = total_diagrams(k, j) * comb(a, t) * comb(a - 1 + r, r) if t >= 0 else 0
        while t >= 0:
            inner[n - j - r] += -term if r & 1 else term
            term = term * (t * (t - 1) * (a + r)) // ((a - t + 2) * (a - t + 1) * (r + 1))
            r, t = r + 1, t - 2
    return tuple(inverse_binomial_transform(inner))


def narayana(m: int, j: int) -> int:
    """Narayana number C(m, j) C(m, j-1) / m (0 for j outside 1..m)."""
    if m < 1 or j < 1 or j > m:
        return 0
    return comb(m, j) * comb(m, j - 1) // m


def triple_count_closed_k2(n: int, shorts: int, noncrossing: int) -> int:
    """Diagrams with given short and non-crossing chord counts, k = 2 only.

        d(n, s, m) = ((2n-2m+1)/m) C(m, s) C(2n-m, s-1) d(n-m, 0),  m >= 1,

    and the m = 0 slice is the zero-short column.
    """
    m = noncrossing
    if not 0 <= shorts <= m <= n:
        return 0
    if m == 0:
        return count_zero_short(2, n) if shorts == 0 else 0
    if shorts == 0:
        return 0
    value = Fraction(2 * n - 2 * m + 1, m) * comb(m, shorts) * comb(2 * n - m, shorts - 1)
    value *= count_zero_short(2, n - m)
    if value.denominator != 1:
        raise SelfCheckError("closed form did not produce an integer")
    return int(value)
