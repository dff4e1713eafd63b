"""Row-by-row count tables built from recurrences.

Two independent recurrences produce the short-chord table: a two-term
ratio recurrence whose zero column must be seeded from the closed form
(route ``kp1``), and a single-seed append recurrence that tracks what
happens to short chords when one extra block is threaded into a diagram
(route ``kp2``).  A third recurrence builds the table of fully
non-crossing diagrams by number of short chords; a Lagrange-inversion
sum gives any single row of that table on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .counting import count_zero_short, inverse_binomial_transform


@dataclass(frozen=True)
class CountTable:
    """A triangular table of exact counts; ``rows[n][j]`` is row n, column j."""

    k: int
    kind: str
    rows: tuple[tuple[int, ...], ...]

    def value(self, n: int, j: int) -> int:
        if not 0 <= n < len(self.rows):
            raise IndexError(f"row {n} not computed")
        row = self.rows[n]
        return row[j] if 0 <= j < len(row) else 0

    def row_sum(self, n: int) -> int:
        return sum(self.rows[n])


def _check_table(k: int, n_max: int) -> None:
    if k < 2 or n_max < 0:
        raise ValueError("need k >= 2 and a nonnegative largest row")


def _stars_and_bars(bins: int, balls: int) -> int:
    """Ways to drop identical balls into distinguishable bins."""
    if bins < 0:
        raise ValueError("negative bin count")
    if bins == 0:
        return 1 if balls == 0 else 0
    return comb(bins + balls - 1, balls)


def d_table_kp1(k: int, n_max: int) -> CountTable:
    """Short-chord table from the two-term ratio recurrence.

        s * d(n, s) = (kn - s(k-1)) d(n-1, s-1) + s(k-1) d(n-1, s)

    The relation is vacuous at s = 0, so that column is seeded from the
    zero-short closed form; every other entry divides out exactly.
    """
    _check_table(k, n_max)
    rows: list[tuple[int, ...]] = [(1,)]
    for n in range(1, n_max + 1):
        prev = rows[n - 1]
        row = [count_zero_short(k, n)]
        for s in range(1, n + 1):
            left = (k * n - s * (k - 1)) * prev[s - 1]
            right = s * (k - 1) * (prev[s] if s < len(prev) else 0)
            num = left + right
            if num % s:
                raise ArithmeticError(f"ratio recurrence not integral at n={n}, s={s}")
            row.append(num // s)
        rows.append(tuple(row))
    return CountTable(k, "short_chords", tuple(rows))


@lru_cache(maxsize=None)
def _nonshort_block_power(k: int, p: int, degree: int) -> tuple[int, ...]:
    """Coefficients of (((1-x)^(1-k)) - 1)^p up to x^degree."""
    base = [0] + [comb(m + k - 2, k - 2) for m in range(1, degree + 1)]
    out = [0] * (degree + 1)
    out[0] = 1
    for _ in range(p):
        nxt = [0] * (degree + 1)
        for i, c in enumerate(out):
            if not c:
                continue
            for m in range(1, degree + 1 - i):
                nxt[i + m] += c * base[m]
        out = nxt
    return tuple(out)


def balls_in_bins_coeff(j: int, p: int, ell: int, k: int) -> int:
    """Coefficient [x^j y^p] of (1 + y - y(1-x)^(1-k))^(-ell-1).

    Computed as C(ell+p, p) * [x^j] ((1-x)^(1-k) - 1)^p: the y-expansion
    is a negative binomial in y * ((1-x)^(1-k) - 1).
    """
    if j < 0 or p < 0 or ell < 0:
        return 0
    return comb(ell + p, p) * _nonshort_block_power(k, p, j)[j]


@lru_cache(maxsize=None)
def kp2_coefficient(n: int, ell: int, p: int, k: int) -> int:
    """Weight of d(n, ell+p) in the append recurrence for d(n+1, ell).

    Counts the ways the appended block destroys p short chords: h of its
    vertices land at the home positions, f fill out partially covered
    runs, and the rest are scattered into the kn - (k-1)(ell+p) bins
    left by the surviving configuration.
    """
    if not 1 <= p <= k - 1:
        raise ValueError("need 1 <= p <= k-1")
    bins = k * n - (k - 1) * (ell + p)
    total = 0
    for h in range(1, k - p + 1):
        for f in range(0, k - p - h + 1):
            total += _stars_and_bars(bins, f) * balls_in_bins_coeff(k - h - f, p, ell, k)
    return total


def d_table_kp2(k: int, n_max: int) -> CountTable:
    """Short-chord table from the append recurrence, grown from d(0,0)=1.

        d(n+1, s) = d(n, s-1)
                  + d(n, s) * sum_h stars_and_bars(kn - (k-1)s, k - h)
                  + sum_{p=1}^{k-1} kp2_coefficient(n, s, p, k) * d(n, s+p)
    """
    _check_table(k, n_max)
    rows: list[tuple[int, ...]] = [(1,)]
    for n in range(n_max):
        prev = rows[n]

        def at(j: int) -> int:
            return prev[j] if 0 <= j < len(prev) else 0

        row = []
        for s in range(n + 2):
            val = at(s - 1)
            if s <= n:
                keep = sum(
                    _stars_and_bars(k * n - (k - 1) * s, k - h) for h in range(1, k)
                )
                val += at(s) * keep
            for p in range(1, k):
                if s + p <= n:
                    val += kp2_coefficient(n, s, p, k) * at(s + p)
            row.append(val)
        rows.append(tuple(row))
    return CountTable(k, "short_chords", tuple(rows))


def noncrossing_table(k: int, m_max: int) -> CountTable:
    """Table of fully non-crossing diagrams by short-chord count.

    Row m+1 comes from the k-fold convolution of the table with itself
    (nesting one sub-diagram in each arch of a new outer block), minus
    the row-m table, plus the row-m table shifted by one short chord:

        T(m+1, s) = [x^m y^s] T(x,y)^k - T(m, s) + T(m, s-1),  T(0,0) = 1.

    Powers T^2..T^k are grown row by row alongside T itself.
    """
    _check_table(k, m_max)
    rows: list[list[int]] = [[1]]
    # powers[i] holds rows of T^(i+1); powers[0] is T itself.
    powers: list[list[list[int]]] = [rows] + [[[1]] for _ in range(k - 1)]
    for m in range(m_max):
        for i in range(1, k):
            lower = powers[i - 1]
            target = powers[i]
            while len(target) <= m:
                mm = len(target)
                acc = [0] * (mm + 1)
                for a in range(mm + 1):
                    u = lower[a]
                    v = rows[mm - a]
                    for ja, ca in enumerate(u):
                        if not ca:
                            continue
                        for jb, cb in enumerate(v):
                            if cb:
                                acc[ja + jb] += ca * cb
                target.append(acc)
        conv = powers[k - 1][m]
        prev = rows[m]
        new = [0] * (m + 2)
        for s in range(m + 2):
            val = conv[s] if s < len(conv) else 0
            if s < len(prev):
                val -= prev[s]
            if 0 <= s - 1 < len(prev):
                val += prev[s - 1]
            new[s] = val
        rows.append(new)
    return CountTable(k, "noncrossing_short", tuple(tuple(r) for r in rows))


def noncrossing_row(k: int, m: int) -> tuple[int, ...]:
    """Row m of the non-crossing table, by Lagrange inversion.

    With T = 1 + W and W = x phi(W), phi(u) = (1+u)^k - (1-y)(1+u),
    Lagrange inversion (Flajolet & Sedgewick, Analytic Combinatorics,
    A.6) gives

        T(m, s) = (1/m) sum_j C(m, j) C((k-1)j + m, m-1) C(m-j, s) (-1)^(m-j-s),

    the inverse binomial transform of a_(m-j) = C(m, j) C((k-1)j + m, m-1),
    divided by m.

    >>> noncrossing_row(3, 4)
    (0, 8, 30, 16, 1)
    """
    if k < 2 or m < 0:
        raise ValueError("need k >= 2 and m >= 0")
    if m == 0:
        return (1,)
    marked = [comb(m, i) * comb((k - 1) * (m - i) + m, m - 1) for i in range(m + 1)]
    row = inverse_binomial_transform(marked)
    if any(c % m for c in row):
        raise ArithmeticError(f"Lagrange form not integral at m={m}")
    return tuple(c // m for c in row)


def fuss_catalan(k: int, m: int) -> int:
    """C(km, m) / ((k-1)m + 1): total non-crossing diagrams with m blocks.

    >>> [fuss_catalan(3, m) for m in range(6)]
    [1, 1, 3, 12, 55, 273]
    """
    if k < 2 or m < 0:
        raise ValueError("need k >= 2 and m >= 0")
    return comb(k * m, m) // ((k - 1) * m + 1)
