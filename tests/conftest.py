"""Shared helpers: naive reference implementations and frozen tables.

The naive functions here are deliberately slow and literal.  They share
no code with the package and serve as independent oracles, except
``count_at_least``, which takes the diagram totals N(k, n) from the
package (``count_exact_short`` carries its own), and the series oracles
at the end, which expand the generating functions term by term on the
package's ``BivariateSeries`` arithmetic (itself checked against a naive
product in test_series) with their own negative-binomial expansion.
``enumerate_noncrossing`` builds non-crossing diagrams by a tuple walk of
its own, so the package's array walk is never checked against itself.
``characteristic_expansion`` derives the non-crossing mean and variance
constants by a saddle-point expansion, independently of the closed form
``nc_mean_variance``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial

from hypothesis import settings

from kchord import BivariateSeries, Diagram, SelfCheckError, total_diagrams

# A failing property test prints the blob that reproduces it
# (@reproduce_failure).  The profile inherits the one already active, so
# deadlines and example counts stay as they were, Hypothesis's own CI
# profile included where it loads one.
settings.register_profile("print-blob", print_blob=True)
settings.load_profile("print-blob")

# Reference values for k=3, frozen.
# d(n, s): diagrams with exactly s short blocks.
D_TABLE_K3 = {
    1: (0, 1),
    2: (7, 2, 1),
    3: (219, 53, 7, 1),
    4: (12861, 2296, 226, 16, 1),
    5: (1215794, 171785, 13080, 710, 30, 1),
    6: (169509845, 19796274, 1228655, 53740, 1835, 50, 1),
}

# c(n, q): diagrams with exactly q connected components of short blocks.
C_TABLE_K3 = {
    1: (0, 1),
    2: (7, 3),
    3: (219, 56, 5),
    4: (12861, 2352, 183, 4),
    5: (1215794, 174137, 11145, 323, 1),
    6: (169509845, 19970411, 1078977, 30833, 334),
}

# T(m, s): fully non-crossing diagrams with m blocks and s short blocks,
# s running from 1 (every non-empty non-crossing diagram has one).
T_TABLE_K3 = {
    1: (1,),
    2: (2, 1),
    3: (4, 7, 1),
    4: (8, 30, 16, 1),
    5: (16, 104, 122, 30, 1),
    6: (32, 320, 660, 365, 50, 1),
    7: (64, 912, 2920, 2875, 903, 77, 1),
}


def naive_blocks(word):
    """Positions of each label, in first-occurrence order."""
    order: list = []
    pos: dict = {}
    for i, lab in enumerate(word):
        if lab not in pos:
            pos[lab] = []
            order.append(lab)
        pos[lab].append(i)
    return [tuple(pos[lab]) for lab in order]


def naive_crossing(block_a, block_b) -> bool:
    """Literal definition: a pair of A-vertices straddles part of B.

    Blocks interleave exactly when some open interval between two
    A-vertices contains a proper, non-empty subset of B.
    """
    for a1, a2 in combinations(block_a, 2):
        inside = sum(1 for b in block_b if a1 < b < a2)
        if 0 < inside < len(block_b):
            return True
    return False


def _strictly_inside(block, lo, hi) -> bool:
    return all(lo < v < hi for v in block)


def naive_stats(word):
    """(short, components, noncrossing, crossing_pairs) by definition."""
    blocks = naive_blocks(word)
    k = len(blocks[0]) if blocks else 0
    shorts = [b[-1] - b[0] == k - 1 for b in blocks]
    short_count = sum(shorts)

    # components: maximal runs of adjacent short blocks
    comp = 0
    prev_end = None
    for start in sorted(b[0] for b, s in zip(blocks, shorts) if s):
        if start != prev_end:
            comp += 1
        prev_end = start + k

    crossing_pairs = sum(
        1 for a, b in combinations(blocks, 2) if naive_crossing(a, b)
    )
    return short_count, comp, len(naive_noncrossing_set(word)), crossing_pairs


def naive_noncrossing_set(word) -> set:
    """Indices (in first-occurrence order) of the non-crossing blocks."""
    blocks = naive_blocks(word)
    good = {
        i
        for i in range(len(blocks))
        if not any(
            naive_crossing(blocks[i], blocks[j])
            for j in range(len(blocks))
            if j != i
        )
    }
    changed = True
    while changed:
        changed = False
        for i in list(good):
            lo, hi = blocks[i][0], blocks[i][-1]
            for j in range(len(blocks)):
                if j != i and j not in good and _strictly_inside(blocks[j], lo, hi):
                    good.discard(i)
                    changed = True
                    break
    return good


def delete_block(word, index: int):
    """Word with the index-th block (first-occurrence order) removed."""
    blocks = naive_blocks(word)
    victim = set(blocks[index])
    return tuple(lab for pos, lab in enumerate(word) if pos not in victim)


def naive_enumerate(k: int, n: int):
    """All canonical words, by recursive block extraction."""
    size = k * n
    out = []

    def rec(free, acc):
        if not free:
            out.append(tuple(acc))
            return
        first = free[0]
        rest = free[1:]
        for others in combinations(rest, k - 1):
            chosen = (first,) + others
            remaining = [p for p in rest if p not in others]
            rec(remaining, acc + [chosen])

    rec(list(range(size)), [])
    words = []
    for blocks in out:
        word = [0] * size
        for label, block in enumerate(blocks):
            for p in block:
                word[p] = label
        words.append(tuple(word))
    return words


def noncrossing_masks(k: int, m_max: int):
    """Yield every non-crossing diagram of at most ``m_max`` blocks as a
    tuple of block bitmasks in order of their lowest vertex, level by
    level.

    Vertex 0's block sits at p_0 = 0 < p_1 < ... < p_{k-1}.  The gap
    after p_i holds k*g_i vertices, g_0 + ... + g_{k-1} = m - 1 (a
    composition drawn by stars and bars), filled by a smaller
    non-crossing diagram shifted into place.  The levels below ``m_max``
    are kept for the gaps; level ``m_max`` is streamed and not stored.
    """
    levels: list[list[tuple[int, ...]]] = [[()]]
    yield ()
    for m in range(1, m_max + 1):
        level = []
        slots = m + k - 2  # m - 1 stars and k - 1 bars
        for bars in combinations(range(slots), k - 1):
            block, p, parts = 0, 0, []
            for lo, hi in zip((-1,) + bars, bars + (slots,)):
                g = hi - lo - 1
                block |= 1 << p
                parts.append([tuple(x << (p + 1) for x in sub) for sub in levels[g]])
                p += k * g + 1
            for pick in product(*parts):
                masks = sum(pick, (block,))
                if m < m_max:
                    level.append(masks)
                yield masks
        levels.append(level)


def enumerate_noncrossing(k: int, n: int):
    """Yield every non-crossing diagram with n blocks exactly once.

    Block i of the walk's masks is label i, so each word is canonical as
    built.  The total count is the Fuss-Catalan number.
    """
    if k < 2 or n < 0:
        raise ValueError("need k >= 2 and n >= 0")
    for masks in noncrossing_masks(k, n):
        if len(masks) == n:
            word = (label for p in range(k * n) for label, m in enumerate(masks) if m >> p & 1)
            yield Diagram(k, n, tuple(word))


def count_at_least(k: int, n: int, j: int) -> int:
    """Placements of j disjoint marked short chords among n blocks.

    N(k, n-j) * C(kn - j(k-1), j): contract each marked chord to one
    vertex and choose the j contracted vertices among the rest.  This is
    the binomial transform sum_q C(q, j) * count_exact_short(k, n, q) --
    each diagram with q short chords is counted once per j-subset of
    them -- not the number of diagrams with at least j short chords.
    """
    if j < 0 or j > n:
        return 0
    return total_diagrams(k, n - j) * comb(k * n - j * (k - 1), j)


@lru_cache(maxsize=16)
def marked_short_terms(k: int, n: int) -> tuple[int, ...]:
    """a_j = C(k(n-j)+j, j) N(k, n-j) for j = 0..n: the placements of j
    marked short chords, with N(k, i) carried as N(k, i-1) C(ki-1, k-1)."""
    totals = [1]
    for i in range(1, n + 1):
        totals.append(totals[-1] * comb(k * i - 1, k - 1))
    return tuple(comb(k * (n - j) + j, j) * totals[n - j] for j in range(n + 1))


def count_exact_short(k: int, n: int, shorts: int) -> int:
    """Diagrams with exactly ``shorts`` short chords, by the literal
    inclusion-exclusion over marked placements:

        d(n, s) = sum_{j=s}^{n} (-1)^(j-s) C(j, s) C(k(n-j)+j, j) N(k, n-j)
    """
    if shorts < 0 or shorts > n:
        return 0
    marked = marked_short_terms(k, n)
    total = 0
    for j in range(shorts, n + 1):
        term = comb(j, shorts) * marked[j]
        total += -term if (j - shorts) & 1 else term
    return total


def fraction_exp_neg_interval(lam):
    """Bounds on e^(-lam) from consecutive partial sums of its series,
    once the terms are below 2^-200 and decreasing."""
    if lam == 0:
        return Fraction(1), Fraction(1)
    term = partial = Fraction(1)
    prev = None
    i = 0
    while True:
        i += 1
        term *= -lam / i
        partial += term
        if prev is not None and abs(term) < Fraction(1, 2**200) and i > lam:
            return min(partial, prev), max(partial, prev)
        prev = partial


def fraction_tv_interval(row, lam, tail_tolerance=Fraction(1, 10**12)):
    """Bounds on the total-variation distance between the normalized
    ``row`` and Poisson(lam), summed exactly in Fractions.

    Poisson masses are lam^j/j! times the e^(-lam) bounds; the support
    is cut past the row once the certified tail is below the tolerance.
    """
    total = sum(row)
    exp_lo, exp_hi = fraction_exp_neg_interval(lam)
    masses = []
    sum_lo = Fraction(0)
    j = 0
    while True:
        w = lam**j / factorial(j)
        masses.append((w * exp_lo, w * exp_hi))
        sum_lo += w * exp_lo
        if j >= len(row) - 1 and j >= lam and 1 - sum_lo < tail_tolerance:
            break
        j += 1
    q_tail_hi = 1 - sum_lo
    q_tail_lo = max(Fraction(0), 1 - sum(hi for _, hi in masses))
    dist_lo = dist_hi = Fraction(0)
    for idx, (q_lo, q_hi) in enumerate(masses):
        p = Fraction(row[idx], total) if idx < len(row) else Fraction(0)
        if p >= q_hi:
            dist_lo += p - q_hi
            dist_hi += p - q_lo
        elif p <= q_lo:
            dist_lo += q_lo - p
            dist_hi += q_hi - p
        else:
            dist_hi += max(q_hi - p, p - q_lo)
    return (dist_lo + q_tail_lo) / 2, (dist_hi + q_tail_hi) / 2


# --- characteristic equation of the non-crossing model -----------------
#
# The saddle-point derivation of the non-crossing short-chord mean and
# variance, the reference ``nc_mean_variance`` is checked against.
# Series in eps = y - 1, truncated after eps^2, with Fraction
# coefficients: enough to read off the mean and variance growth rates.

_Eps = tuple[Fraction, Fraction, Fraction]

_ZERO: _Eps = (Fraction(0), Fraction(0), Fraction(0))
_ONE: _Eps = (Fraction(1), Fraction(0), Fraction(0))
_EPS: _Eps = (Fraction(0), Fraction(1), Fraction(0))


def _eadd(a: _Eps, b: _Eps) -> _Eps:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _esub(a: _Eps, b: _Eps) -> _Eps:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _emul(a: _Eps, b: _Eps) -> _Eps:
    return (
        a[0] * b[0],
        a[0] * b[1] + a[1] * b[0],
        a[0] * b[2] + a[1] * b[1] + a[2] * b[0],
    )


def _epow(a: _Eps, e: int) -> _Eps:
    out = _ONE
    for _ in range(e):
        out = _emul(out, a)
    return out


def _einv(a: _Eps) -> _Eps:
    c0, c1, c2 = a
    if c0 == 0:
        raise ZeroDivisionError("series has no reciprocal")
    i0 = 1 / c0
    i1 = -c1 / c0**2
    i2 = (c1 * c1 - c0 * c2) / c0**3
    return (i0, i1, i2)


@dataclass(frozen=True)
class CharacteristicExpansion:
    """Second-order expansion of the saddle point about y = 1.

    ``tau`` expands the characteristic root, ``rho`` the singularity
    radius rho(y) = tau / phi(tau) with phi(u) = (1+u)^k - (1-y)(1+u).
    The log-derivatives of rho at y = 1 give the growth rates of the
    short-chord mean and variance over non-crossing diagrams.
    """

    k: int
    tau: _Eps
    rho: _Eps

    @property
    def mean_coefficient(self) -> Fraction:
        return -self.rho[1] / self.rho[0]

    @property
    def variance_coefficient(self) -> Fraction:
        r1 = self.rho[1] / self.rho[0]
        r2 = 2 * self.rho[2] / self.rho[0]
        return -r2 - r1 + r1 * r1


def characteristic_expansion(k: int) -> CharacteristicExpansion:
    """Solve phi(tau) = tau phi'(tau) as a series in y - 1.

    tau(y) is found by undetermined coefficients, matching orders 0..2;
    the order-0 root is 1/(k-1).  The equation is affine in each unknown
    coefficient, so two evaluations pin each one down.
    """
    if k < 2:
        raise ValueError("need k >= 2")

    def residual(tau: _Eps) -> _Eps:
        one_plus = _eadd(_ONE, tau)
        phi = _eadd(_epow(one_plus, k), _emul(_EPS, one_plus))
        grad = _epow(one_plus, k - 1)
        dphi = _eadd((k * grad[0], k * grad[1], k * grad[2]), _EPS)
        return _esub(phi, _emul(tau, dphi))

    tau0 = Fraction(1, k - 1)
    base = residual((tau0, Fraction(0), Fraction(0)))
    if base[0] != 0:
        raise SelfCheckError("order-0 root check failed")

    probe = residual((tau0, Fraction(1), Fraction(0)))
    slope1 = probe[1] - base[1]
    tau1 = -base[1] / slope1

    base2 = residual((tau0, tau1, Fraction(0)))
    probe2 = residual((tau0, tau1, Fraction(1)))
    slope2 = probe2[2] - base2[2]
    tau2 = -base2[2] / slope2

    tau: _Eps = (tau0, tau1, tau2)
    check = residual(tau)
    if check != _ZERO:
        raise SelfCheckError("series solve left a residual")

    one_plus = _eadd(_ONE, tau)
    phi = _eadd(_epow(one_plus, k), _emul(_EPS, one_plus))
    rho = _emul(tau, _einv(phi))
    return CharacteristicExpansion(k=k, tau=tau, rho=rho)


def neg_binomial_expand(u: BivariateSeries, r: int) -> BivariateSeries:
    """(1 + u)^(-r) for a series u with zero constant term.

    Expanded as sum_i C(r-1+i, i) (-u)^i; u^i has total degree >= i,
    so the loop stops once the running power truncates to zero.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    if u.coeffs[0][0] != 0:
        raise ValueError("constant term must be zero")
    acc = BivariateSeries.one(u.order1, u.order2, u.var_names)
    power = acc
    neg_u = u.scale(-1)
    for i in range(1, u.order1 + u.order2 + 1):
        power = power * neg_u
        if not any(map(any, power.coeffs)):
            break
        acc = acc + power.scale(comb(r - 1 + i, i))
    return acc


def fixpoint_T_series(k, order1, order2):
    """T = 1 + x T^k - x (1 - y) T by substitution: each pass fixes one
    more x-degree, so order1 passes converge the truncation."""
    names = ("x", "y")
    one = BivariateSeries.one(order1, order2, names)
    x = BivariateSeries.monomial(order1, order2, 1, 0, 1, names)
    x_one_minus_y = x + BivariateSeries.monomial(order1, order2, 1, 1, -1, names)
    t = one
    for _ in range(order1):
        t = one + x * t.pow(k) - x_one_minus_y * t
    return t


def per_j_F_series(k, n_max):
    """sum_j N(k, j) w^j (1 + w(1-z))^-(kj+1), one expansion per j."""
    names = ("w", "z")
    u = BivariateSeries.monomial(n_max, n_max, 1, 0, 1, names) + BivariateSeries.monomial(
        n_max, n_max, 1, 1, -1, names
    )
    total = BivariateSeries(n_max, n_max, None, names)
    for j in range(n_max + 1):
        wj = BivariateSeries.monomial(n_max, n_max, j, 0, total_diagrams(k, j), names)
        total = total + wj * neg_binomial_expand(u, k * j + 1)
    return total


def per_j_C_series(k, n_max):
    """sum_j N(k, j) y^j ((1 - y(1-z)) / (1 - y^2(1-z)))^(kj+1), with a
    fresh power and expansion per j."""
    names = ("y", "z")
    numer = (
        BivariateSeries.one(n_max, n_max, names)
        + BivariateSeries.monomial(n_max, n_max, 1, 0, -1, names)
        + BivariateSeries.monomial(n_max, n_max, 1, 1, 1, names)
    )
    denom_u = BivariateSeries.monomial(n_max, n_max, 2, 0, -1, names) + BivariateSeries.monomial(
        n_max, n_max, 2, 1, 1, names
    )
    total = BivariateSeries(n_max, n_max, None, names)
    for j in range(n_max + 1):
        factor = numer.pow(k * j + 1) * neg_binomial_expand(denom_u, k * j + 1)
        yj = BivariateSeries.monomial(n_max, n_max, j, 0, total_diagrams(k, j), names)
        total = total + yj * factor
    return total
