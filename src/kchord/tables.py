"""Row-by-row count tables built from recurrences.

Two independent recurrences produce the short-chord table: a two-term
ratio recurrence whose zero column is the complement of its row in the
diagram total (route ``kp1``), and a single-seed append recurrence that
tracks what happens to short chords when one extra block is threaded
into a diagram (route ``kp2``).  A third recurrence builds the table of
fully non-crossing diagrams by number of short chords from the k-th
power of its generating function; a Lagrange-inversion sum gives any
single row of that table on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from math import comb
from operator import add, mul

from .counting import SelfCheckError, _check_sizes, inverse_binomial_transform


@dataclass(frozen=True)
class CountTable:
    """A triangular table of exact counts; ``rows[n][j]`` is row n, column j."""

    k: int
    kind: str
    rows: tuple[tuple[int, ...], ...]


def d_table_kp1(k: int, n_max: int) -> CountTable:
    """Short-chord table from the two-term ratio recurrence.

        s * d(n, s) = (kn - s(k-1)) d(n-1, s-1) + s(k-1) d(n-1, s)

    Every entry with s >= 1 divides out exactly.  The relation is vacuous
    at s = 0, so that column is the complement of the rest of the row in
    the diagram total N(k, n) = N(k, n-1) C(kn-1, k-1).
    """
    _check_sizes(k, n_max, "n_max")
    rows: list[tuple[int, ...]] = [(1,)]
    total = 1
    for n in range(1, n_max + 1):
        prev = rows[n - 1]
        total *= comb(k * n - 1, k - 1)
        row = [0]
        for s in range(1, n + 1):
            left = (k * n - s * (k - 1)) * prev[s - 1]
            right = s * (k - 1) * (prev[s] if s < len(prev) else 0)
            num = left + right
            if num % s:
                raise SelfCheckError(f"ratio recurrence not integral at n={n}, s={s}")
            row.append(num // s)
        row[0] = total - sum(row)
        rows.append(tuple(row))
    return CountTable(k, "short_chords", tuple(rows))


@lru_cache(maxsize=None)
def _nonshort_block_power(k: int, p: int) -> tuple[int, ...]:
    """Coefficients of (((1-x)^(1-k)) - 1)^p up to x^(k-1): the cached
    power p - 1 times one factor, sum_{m>=1} C(m+k-2, k-2) x^m."""
    if not p:
        return (1,) + (0,) * (k - 1)
    prev = _nonshort_block_power(k, p - 1)
    factor = [comb(m + k - 2, k - 2) for m in range(1, k)]
    out = [0] * k
    for i in range(p - 1, k - 1):  # prev starts at x^(p-1)
        if prev[i]:
            out[i + 1 :] = [o + prev[i] * f for o, f in zip(out[i + 1 :], factor)]
    return tuple(out)


def _fills(k: int, p: int, lo: int, hi: int) -> list[int]:
    """Ways to finish a block that destroys p short chords, for each bin
    count b = ``lo``..``hi``-1.

    The weight of d(n, ell+p) in the append recurrence for d(n+1, ell) is
    C(ell+p, p) _fills(k, p, b, b+1)[0], b = kn - (k-1)(ell+p).  Of the
    appended block, h >= 1 vertices land at the home positions, f are
    scattered into the b bins left by the surviving configuration
    (C(b+f-1, f) ways), and the other j = k-h-f fill out the p broken
    runs (C(ell+p, p) [x^j] ((1-x)^(1-k) - 1)^p ways).  For fixed j the
    sum over f <= F = k-j-1 is the hockey stick C(b+F, F), so

        _fills = sum_{j=p}^{k-1} [x^j] ((1-x)^(1-k) - 1)^p C(b+k-j-1, k-j-1).

    The binomials C(b+F, F), F < k-p, start at b = lo by the ratio
    C(b+F, F) = C(b+F-1, F-1) (b+F)/F and step to b+1 by the hockey
    stick C(b+1+F, F) = sum_{i<=F} C(b+i, i), a running sum.
    """
    power = _nonshort_block_power(k, p)[p:][::-1]  # [x^j] for j = k-1, ..., p: F = 0, 1, ...
    binoms = [1]
    for f in range(1, k - p):
        binoms.append(binoms[-1] * (lo + f) // f)
    out = []
    for _ in range(lo, hi):
        out.append(sum(map(mul, power, binoms)))
        binoms = list(accumulate(binoms))
    return out


def d_table_kp2(k: int, n_max: int) -> CountTable:
    """Short-chord table from the append recurrence, grown from d(0,0)=1.

        d(n+1, s) = d(n, s-1)
                  + d(n, s) * (C(kn - (k-1)s + k-1, k-1) - 1)
                  + sum_{p=1}^{k-1} C(s+p, p) F_p(kn - (k-1)(s+p)) d(n, s+p)

    The middle weight is sum_{h=1}^{k-1} C(b+k-h-1, k-h), b = kn - (k-1)s:
    h vertices of the new block at home and k-h scattered into b bins,
    summed by the hockey stick, and F_p(b) is _fills(k, p, b, b+1)[0].
    Both weights depend on n and s only through the bin count, so each
    is listed once per table by b, and row n reads b = kn, kn-(k-1), ...
    as one stride-(k-1) slice.  The
    p-th list holds F_p only at the bins some row reads,
    b = n + (k-1)u with p+u <= n < n_max: one run of b per u.
    """
    _check_sizes(k, n_max, "n_max")
    size = k * n_max
    middle = [comb(b + k - 1, k - 1) - 1 for b in range(size)]
    weights = []
    for p in range(1, min(k, n_max)):
        fills = [0] * size
        done = 0
        for u in range(n_max - p):
            lo, hi = max(p + k * u, done), n_max + (k - 1) * u
            fills[lo:hi] = _fills(k, p, lo, hi)
            done = hi
        weights.append((fills, [comb(s + p, p) for s in range(n_max)]))
    rows: list[tuple[int, ...]] = [(1,)]
    for n in range(n_max):
        prev = rows[n]
        kn = k * n
        acc = list(map(mul, prev, middle[kn::1 - k]))
        for p, (fills, runs) in enumerate(weights[:n], 1):
            terms = map(mul, map(mul, runs, fills[kn - (k - 1) * p :: 1 - k]), prev[p:])
            acc[: n + 1 - p] = map(add, acc, terms)
        rows.append(tuple(map(add, chain((0,), prev), chain(acc, (0,)))))
    return CountTable(k, "short_chords", tuple(rows))


def _slot_width(k: int, m_max: int) -> int:
    """Bits per y-slot of a packed row: every coefficient of m P_m, m < m_max,
    is at most m FC(k, m+1) <= m_max FC(k, m_max), below 2^(width-1)."""
    return (m_max * fuss_catalan(k, m_max)).bit_length() + 1


def noncrossing_table(k: int, m_max: int) -> CountTable:
    """Table of fully non-crossing diagrams by short-chord count.

    Row m+1 comes from the k-fold convolution of the table with itself
    (nesting one sub-diagram in each arch of a new outer block), minus
    the row-m table, plus the row-m table shifted by one short chord:

        T(m+1, s) = [x^m y^s] T(x,y)^k - T(m, s) + T(m, s-1),  T(0,0) = 1.

    Only the power P = T^k is carried, by J.C.P. Miller's recurrence for
    the powers of a series with constant term 1:

        m P_m = sum_{j=1}^{m} ((k+1)j - m) T_j P_{m-j},  P_0 = 1,

    where T_j and P_j are the x^j rows, polynomials in y.  Each row is
    packed into one integer, coefficient s at bit s*w (Kronecker
    substitution), so each product T_j P_{m-j} is one big-integer product.
    The coefficients of m P_m are nonnegative and below 2^w, so its slots
    are its coefficients.  A carry out of a slot lowers the slot sum below
    m P_m(1) = m FC(k, m+1), and the slot sum and the bits above slot m
    are both checked.
    """
    _check_sizes(k, m_max, "m_max")
    width = _slot_width(k, m_max)
    mask = (1 << width) - 1
    rows: list[list[int]] = [[1]]
    packed_rows = [1]
    packed_power = [1]
    power = [1]
    for m in range(m_max):
        if m:
            acc = 0
            for j in range(1, m + 1):
                weight = (k + 1) * j - m
                if weight:
                    acc += weight * packed_rows[j] * packed_power[m - j]
            slots = [(acc >> (width * s)) & mask for s in range(m + 1)]
            if acc >> (width * (m + 1)) or sum(slots) != m * fuss_catalan(k, m + 1):
                raise SelfCheckError(f"packed power recurrence overflowed at m={m}")
            if any(c % m for c in slots):
                raise SelfCheckError(f"power recurrence not integral at m={m}")
            power = [c // m for c in slots]
            packed_power.append(acc // m)
        prev = rows[m] + [0]
        row = [c - t + u for c, t, u in zip(power + [0], prev, [0] + prev)]
        rows.append(row)
        packed = 0
        for c in reversed(row):
            packed = (packed << width) | c
        packed_rows.append(packed)
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
    _check_sizes(k, m, "m")
    if m == 0:
        return (1,)
    marked = [comb(m, i) * comb((k - 1) * (m - i) + m, m - 1) for i in range(m + 1)]
    row = inverse_binomial_transform(marked)
    if any(c % m for c in row):
        raise SelfCheckError(f"Lagrange form not integral at m={m}")
    return tuple(c // m for c in row)


def fuss_catalan(k: int, m: int) -> int:
    """C(km, m) / ((k-1)m + 1): total non-crossing diagrams with m blocks.

    >>> [fuss_catalan(3, m) for m in range(6)]
    [1, 1, 3, 12, 55, 273]
    """
    _check_sizes(k, m, "m")
    return comb(k * m, m) // ((k - 1) * m + 1)
