"""Row-by-row count tables built from recurrences.

Two independent recurrences produce the short-chord table: a two-term
ratio recurrence whose zero column is the complement of its row in the
diagram total (route ``kp1``), and a single-seed append recurrence that
tracks what happens to short chords when one extra block is threaded
into a diagram (route ``kp2``).  A three-row recurrence, the ratio
recurrence carried over by a change of variable, produces the table by
components (the ``closed`` component route).  These three yield each
row as it is built and keep only the few rows they read.  A fourth
recurrence yields the table of fully non-crossing diagrams by number of
short chords from the k-th power of its generating function, keeping
the packed rows and powers it reads; a Lagrange-inversion sum gives any
single row of that table on its own.
"""

from __future__ import annotations

from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    DecimalException,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
    localcontext,
)
from functools import lru_cache
from itertools import accumulate, chain, zip_longest
from math import comb
from operator import add, mul
from typing import Iterator

from .counting import SelfCheckError, _check_sizes, inverse_binomial_transform

# The context ``Decimal`` rows are built in: exact integers of any length,
# and a trap, not a rounding, if any operation would lose a digit.
EXACT = Context(
    prec=MAX_PREC,
    Emin=MIN_EMIN,
    Emax=MAX_EMAX,
    traps=[Inexact, Rounded, InvalidOperation, DivisionByZero, Overflow],
)


def _trapped(route: str, n: int, context: Context) -> SelfCheckError:
    """The fault of row n of a route whose arithmetic in ``context``, a
    copy of ``EXACT``, trapped: the route, the row and the signals."""
    signals = ", ".join(s.__name__ for s, raised in context.flags.items() if raised and context.traps[s])
    return SelfCheckError(f"{route} row n={n} would round: {signals}")


def kp1_rows(k: int, n_max: int, *, one=1) -> Iterator[tuple]:
    """Rows 0..n_max of the short-chord table from the two-term ratio
    recurrence, yielded one at a time; only the previous row is kept.

        s * d(n, s) = (kn - s(k-1)) d(n-1, s-1) + s(k-1) d(n-1, s)

    Every entry with s >= 1 divides out exactly.  The relation is vacuous
    at s = 0, so that column is the complement of the rest of the row in
    the diagram total N(k, n) = N(k, n-1) C(kn-1, k-1).  The sizes are
    checked by the call, before the first row is asked for.

    ``one`` is the unit the rows are seeded with, d(0, 0) = one.  With
    ``Decimal(1)`` every entry is an exact ``Decimal`` integer, whose
    ``str`` is linear in its digits where an int's is quadratic.  Each
    row is computed in a copy of ``EXACT``, which traps any rounding, and
    that context is left before the row is yielded: the rows are exact
    whatever the caller's context, and the caller's context is not
    changed.  An int ``one`` never touches the context.
    """
    _check_sizes(k, n_max, "n_max")
    return _kp1_rows(k, n_max, one)


def _kp1_rows(k: int, n_max: int, one) -> Iterator[tuple]:
    prev: tuple = (one,)
    yield prev
    total = one
    for n in range(1, n_max + 1):
        try:
            with localcontext(EXACT) as context:
                total *= comb(k * n - 1, k - 1)
                # kn - s(k-1) and s(k-1) for s = 1..n, against d(n-1, s-1) and d(n-1, s)
                left = map(mul, range(k * n - k + 1, n - 1, 1 - k), prev)
                right = map(mul, range(k - 1, n * (k - 1) + 1, k - 1), chain(prev[1:], (0,)))
                row, rems = zip(*map(divmod, map(add, left, right), range(1, n + 1)))
                if any(rems):
                    s = next(s for s, rem in enumerate(rems, 1) if rem)
                    raise SelfCheckError(f"ratio recurrence not integral at n={n}, s={s}")
                prev = (total - sum(row), *row)
        except DecimalException as exc:
            raise _trapped("kp1", n, context) from exc
        yield prev


def component_rows(k: int, n_max: int) -> Iterator[tuple[int, ...]]:
    """Rows 0..n_max of the table by components, c(n, q) for q = 0..n,
    yielded one at a time; only the three previous rows are kept.

    The component and short-chord tables are one change of variable
    apart, c(x, u) = d(x, u / (1 - x + xu)): C(x, y) = W F(x W^k) with
    W = (1 + xy) / (1 + x^2 y), and the marked short-chord series is
    V F(x V^k) with V = 1 / (1 - xy), so y <- y(1 - x) / (1 + xy) turns
    V into W.  Put into the first-order equation behind ``kp1_rows``, it
    gives, with g_n(q) = (q+1) c(n, q+1) and h_n(q) = (kn+1) c(n, q),

        g_n(q) = (k+1)(g_{n-1}(q) - g_{n-1}(q-1)) - (2k-1)(g_{n-2}(q) - g_{n-2}(q-1))
               + (k-1)(g_{n-3}(q) - 2 g_{n-3}(q-1) + g_{n-3}(q-2)) + h_{n-1}(q) - h_{n-2}(q)

    for q = 0..n-1, rows before row 0 being zero.  The q = 0 column is
    the complement of the rest of the row in N(k, n), carried as in
    ``kp1_rows``.  Two self-checks raise ``SelfCheckError``: each
    c(n, q) = g_n(q-1) / q must divide out exactly, and each row must
    satisfy the run-start identity

        sum_q q c(n, q) = (kn - k + 1) N(k, n-1) - (kn - 2k + 1) N(k, n-2).

    The sizes are checked by the call, before the first row is asked for.
    """
    _check_sizes(k, n_max, "n_max")
    return _component_rows(k, n_max)


def _component_rows(k: int, n_max: int) -> Iterator[tuple[int, ...]]:
    g1: list[int] = []  # g_{n-1}, g_{n-2}, g_{n-3}
    g2: list[int] = []
    g3: list[int] = []
    h1: list[int] = []  # h_{n-1}, h_{n-2}
    h2: list[int] = []
    last = before = 0  # N(k, n-1), N(k, n-2)
    for n in range(n_max + 1):
        # (k+1) g_{n-1} - (2k-1) g_{n-2} + (k-1)(1 - u) g_{n-3}, then times (1 - u)
        inner = [
            (k + 1) * a - (2 * k - 1) * b + (k - 1) * (c - c_)
            for a, b, c, c_ in zip_longest(g1, g2, g3, [0, *g3], fillvalue=0)
        ]
        g = [a - a_ + b - b_ for a, a_, b, b_ in zip_longest(inner, [0, *inner], h1, h2, fillvalue=0)][:n]
        if sum(g) != (k * n - k + 1) * last - (k * n - 2 * k + 1) * before:
            raise SelfCheckError(f"component recurrence breaks the run-start identity at k={k}, n={n}")
        row = [0]
        for q, value in enumerate(g, 1):
            entry, rem = divmod(value, q)
            if rem:
                raise SelfCheckError(f"component recurrence not integral at k={k}, n={n}, q={q}")
            row.append(entry)
        total = last * comb(k * n - 1, k - 1) if n else 1
        row[0] = total - sum(row)
        yield tuple(row)
        last, before = total, last
        g1, g2, g3 = g, g1, g2
        h1, h2 = [(k * n + 1) * c for c in row], h1


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


def kp2_rows(k: int, n_max: int, *, one=1) -> Iterator[tuple]:
    """Rows 0..n_max of the short-chord table from the append recurrence,
    grown from d(0,0)=1 and yielded one at a time.

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
    b = n + (k-1)u with p+u <= n < n_max: one run of b per u.  Only these
    lists and the previous row are kept; the sizes are checked by the
    call, before the first row is asked for.  Each row's sum is checked
    against N(k, n) = N(k, n-1) C(kn-1, k-1), and a mismatch raises
    ``SelfCheckError``.

    ``one`` and the context are as in ``kp1_rows``: d(0, 0) = one, and a
    ``Decimal`` table is built row by row in a copy of ``EXACT``.
    """
    _check_sizes(k, n_max, "n_max")
    return _kp2_rows(k, n_max, one)


def _kp2_rows(k: int, n_max: int, one) -> Iterator[tuple]:
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
    prev: tuple = (one,)
    yield prev
    total = one
    for n in range(n_max):
        try:
            with localcontext(EXACT) as context:
                kn = k * n
                acc = list(map(mul, prev, middle[kn::1 - k]))
                for p, (fills, runs) in enumerate(weights[:n], 1):
                    terms = map(mul, map(mul, runs, fills[kn - (k - 1) * p :: 1 - k]), prev[p:])
                    acc[: n + 1 - p] = map(add, acc, terms)
                prev = tuple(map(add, chain((0,), prev), chain(acc, (0,))))
                total *= comb(kn + k - 1, k - 1)
                if sum(prev) != total:
                    raise SelfCheckError(f"append recurrence row sum is not N(k, n) at k={k}, n={n + 1}")
        except DecimalException as exc:
            raise _trapped("kp2", n + 1, context) from exc
        yield prev


def _slot_width(k: int, m_max: int) -> int:
    """Bits per y-slot of a packed row: every coefficient of m P_m, m < m_max,
    is at most m FC(k, m+1) <= m_max FC(k, m_max), below 2^(width-1)."""
    return (m_max * fuss_catalan(k, m_max)).bit_length() + 1


def noncrossing_rows(k: int, m_max: int) -> Iterator[tuple[int, ...]]:
    """Rows 0..m_max of the table of fully non-crossing diagrams by
    short-chord count, yielded one at a time.

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
    are both checked.  Only the packed rows and powers and the previous
    row are kept; the sizes are checked by the call, before the first row
    is asked for.
    """
    _check_sizes(k, m_max, "m_max")
    return _noncrossing_rows(k, m_max)


def _noncrossing_rows(k: int, m_max: int) -> Iterator[tuple[int, ...]]:
    width = _slot_width(k, m_max)
    mask = (1 << width) - 1
    prev: tuple[int, ...] = (1,)
    yield prev
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
        prev = tuple(c - t + u for c, t, u in zip(power + [0], (*prev, 0), (0, *prev)))
        packed = 0
        for c in reversed(prev):
            packed = (packed << width) | c
        packed_rows.append(packed)
        yield prev


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
