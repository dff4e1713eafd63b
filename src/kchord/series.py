"""Truncated bivariate power series with exact integer coefficients.

The generating functions here are formal objects: none of them converge
as functions, so every operation is truncation-preserving polynomial
arithmetic.  Coefficient extraction from these series is the "series"
route for the count tables, independent of the recurrences.
"""

from __future__ import annotations

from math import comb

from .counting import _check_sizes, count_zero_short, total_diagrams


class BivariateSeries:
    """A series truncated at (order1, order2); coeffs[i][j] multiplies
    var1^i * var2^j.  Variable names are metadata only."""

    __slots__ = ("order1", "order2", "coeffs", "var_names")

    def __init__(
        self,
        order1: int,
        order2: int,
        coeffs: list[list[int]] | None = None,
        var_names: tuple[str, str] = ("x", "y"),
    ):
        if order1 < 0 or order2 < 0:
            raise ValueError("orders must be nonnegative")
        self.order1 = order1
        self.order2 = order2
        if coeffs is None:
            coeffs = [[0] * (order2 + 1) for _ in range(order1 + 1)]
        else:
            if len(coeffs) != order1 + 1 or any(len(r) != order2 + 1 for r in coeffs):
                raise ValueError("coefficient grid does not match orders")
        self.coeffs = coeffs
        self.var_names = var_names

    @classmethod
    def monomial(
        cls, order1: int, order2: int, i: int, j: int, c: int = 1, var_names=("x", "y")
    ) -> "BivariateSeries":
        out = cls(order1, order2, None, var_names)
        if i <= order1 and j <= order2:
            out.coeffs[i][j] = c
        return out

    @classmethod
    def one(cls, order1: int, order2: int, var_names=("x", "y")) -> "BivariateSeries":
        return cls.monomial(order1, order2, 0, 0, 1, var_names)

    def coefficient(self, i: int, j: int) -> int:
        if not (0 <= i <= self.order1 and 0 <= j <= self.order2):
            raise IndexError(f"coefficient ({i},{j}) beyond truncation")
        return self.coeffs[i][j]

    def _check_compatible(self, other: "BivariateSeries"):
        if (self.order1, self.order2) != (other.order1, other.order2):
            raise ValueError("series truncated at different orders")

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return (
            self.order1 == other.order1
            and self.order2 == other.order2
            and all(
                list(mine) == list(theirs)
                for mine, theirs in zip(self.coeffs, other.coeffs)
            )
        )

    def __add__(self, other: "BivariateSeries") -> "BivariateSeries":
        self._check_compatible(other)
        return BivariateSeries(
            self.order1,
            self.order2,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.coeffs, other.coeffs)
            ],
            self.var_names,
        )

    def __sub__(self, other: "BivariateSeries") -> "BivariateSeries":
        self._check_compatible(other)
        return BivariateSeries(
            self.order1,
            self.order2,
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.coeffs, other.coeffs)
            ],
            self.var_names,
        )

    def scale(self, c: int) -> "BivariateSeries":
        return BivariateSeries(
            self.order1,
            self.order2,
            [[c * a for a in row] for row in self.coeffs],
            self.var_names,
        )

    def __mul__(self, other: "BivariateSeries") -> "BivariateSeries":
        self._check_compatible(other)
        o1, o2 = self.order1, self.order2
        out = [[0] * (o2 + 1) for _ in range(o1 + 1)]
        bco = other.coeffs
        for i1, row1 in enumerate(self.coeffs):
            for j1, c1 in enumerate(row1):
                if not c1:
                    continue
                jmax = o2 - j1
                for i2 in range(o1 - i1 + 1):
                    row2 = bco[i2]
                    target = out[i1 + i2]
                    for j2 in range(jmax + 1):
                        c2 = row2[j2]
                        if c2:
                            target[j1 + j2] += c1 * c2
        return BivariateSeries(o1, o2, out, self.var_names)

    def pow(self, e: int) -> "BivariateSeries":
        if e < 0:
            raise ValueError("negative powers are not truncation-safe here")
        result = BivariateSeries.one(self.order1, self.order2, self.var_names)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __repr__(self) -> str:
        terms = sum(1 for row in self.coeffs for c in row if c)
        return (
            f"BivariateSeries(order=({self.order1},{self.order2}), "
            f"vars={self.var_names}, nonzero={terms})"
        )


def _rational(rows, numer, denom, order1: int, order2: int) -> list[list[int]]:
    """The series with coefficient rows ``rows`` times N / (1 + D),
    truncated at (order1, order2).

    ``numer`` and ``denom`` list the terms (di, dj, c) of the sparse
    polynomials N and D, and D has no constant term.  The product is
    p = rows * N; the division is the recurrence
    out[i][j] = p[i][j] - sum c * out[i - di][j - dj], run in ascending
    i and j with every term of D applied per cell, so a term with di = 0
    reads cells of its own row that are already final.
    """
    width = order2 + 1
    out: list[list[int]] = []
    for i in range(order1 + 1):
        row = [0] * width
        for di, dj, c in numer:
            if di <= i < di + len(rows):
                src = rows[i - di]
                for j in range(dj, min(width, dj + len(src))):
                    row[j] += c * src[j - dj]
        for j in range(width):
            for di, dj, c in denom:
                if di <= i and dj <= j:
                    row[j] -= c * (out[i - di] if di else row)[j - dj]
        out.append(row)
    return out


def L_series(k: int, order1: int, order2: int) -> BivariateSeries:
    """Lattice-path series 1 / (1 - y (1 + x^k y^(k-1))).

    Coefficient of x^(kj) y^s counts the paths of s D-runs with j of the
    U-runs of maximal height; it equals subpath_choices(k, s, j) after
    the change of viewpoint from paths back to chords.
    """
    _check_sizes(k)
    rows = _rational([[1]], [(0, 0, 1)], [(0, 1, -1), (k, k, -1)], order1, order2)
    return BivariateSeries(order1, order2, rows, ("x", "y"))


def F_series(k: int, n_max: int) -> BivariateSeries:
    """Short-chord generating series, truncated at (n_max, n_max).

        F(w, z) = sum_j N(k, j) w^j / (1 + w(1-z))^(kj+1)

    The coefficient of w^n z^s is the number of diagrams with n blocks
    and s short chords.  Formal only; the sum diverges as a function.
    Each denominator expands as sum_i C(kj+i, i) (-u)^i with u = w(1-z),
    so the powers of -u are computed once and shared by every j.
    """
    _check_sizes(k)
    # 1 / (1 + u) = sum_i (-u)^i, and (-u)^i = w^i (z-1)^i is its row i.
    power_rows = _rational([[1]], [(0, 0, 1)], [(1, 0, 1), (1, 1, -1)], n_max, n_max)
    out = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    for j in range(n_max + 1):
        weight = total_diagrams(k, j)
        for i in range(n_max - j + 1):
            c = weight * comb(k * j + i, i)
            target = out[i + j]
            for s, a in enumerate(power_rows[i]):
                if a:
                    target[s] += c * a
    return BivariateSeries(n_max, n_max, out, ("w", "z"))


def C_series(k: int, n_max: int) -> BivariateSeries:
    """Component generating series, truncated at (n_max, n_max).

        C(y, z) = sum_j N(k, j) y^j Q^(kj+1),  Q = (1 - y(1-z)) / (1 - y^2 (1-z))

    The coefficient of y^n z^q is the number of diagrams with n blocks
    whose short chords form exactly q maximal runs.  Q^(kj+1) is carried
    from j to j+1 by k multiplications with Q, each a product with the
    numerator and a division by the denominator; the term is multiplied
    by y^j, so those steps only need y-degree n_max - j - 1.
    """
    _check_sizes(k)
    numer, denom = [(0, 0, 1), (1, 0, -1), (1, 1, 1)], [(2, 0, -1), (2, 1, 1)]
    power = _rational([[1]], numer, denom, n_max, n_max)
    out = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    for j in range(n_max + 1):
        weight = total_diagrams(k, j)
        for i, row in enumerate(power):
            target = out[i + j]
            for s, a in enumerate(row):
                if a:
                    target[s] += weight * a
        if j < n_max:
            # Q has z-degree <= y-degree, so z is cut where y is.
            rest = n_max - j - 1
            for _ in range(k):
                power = _rational(power, numer, denom, rest, rest)
    return BivariateSeries(n_max, n_max, out, ("y", "z"))


def T_series(k: int, order1: int, order2: int) -> BivariateSeries:
    """Non-crossing diagram series, the root of

        G(T) = T - 1 - x T^k + x (1 - y) T = 0

    with T = 1 + O(x).  Coefficient of x^m y^s: non-crossing diagrams
    with m blocks and s short chords.

    Newton iteration T <- T - G(T) R doubles the number of exact
    x-degrees at each step (Brent & Kung, JACM 1978).  R approximates
    1/G'(T), with G'(T) = 1 + x((1 - y) - k T^(k-1)), and is refined
    alongside by R <- R (2 - G'(T) R).  A step that makes T exact below
    x^(2p) needs R only below x^p, so R is refined from the T^(k-1)
    that the step computes anyway.  Every step works at its own
    truncation; since s <= m, the y-order never needs to exceed it.
    """
    _check_sizes(k)
    names = ("x", "y")
    t = r = BivariateSeries.one(0, 0, names)
    exact = 1  # t and r are exact below x^exact
    while exact <= order1:
        top = min(2 * exact, order1 + 1) - 1
        top2 = min(order2, top)
        t = _truncate(t, top, top2)
        low = _truncate(t, top - 1, top2)
        one_minus_y = BivariateSeries.one(top - 1, top2, names) - BivariateSeries.monomial(
            top - 1, top2, 0, 1, 1, names
        )
        low_pow = low.pow(k - 1)
        if exact > 1:
            # R <- R (2 - G'(T) R), now exact below x^exact; R = 1 is exact below x.
            r_top, r_top2 = exact - 1, min(order2, exact - 1)
            g_prime = BivariateSeries.one(r_top, r_top2, names) + _times_x(
                _truncate(one_minus_y - low_pow.scale(k), r_top - 1, r_top2)
            )
            r = _truncate(r, r_top, r_top2)
            r = r * (BivariateSeries.monomial(r_top, r_top2, 0, 0, 2, names) - g_prime * r)
        g = t - BivariateSeries.one(top, top2, names) - _times_x(low_pow * low - one_minus_y * low)
        t = t - g * _truncate(r, top, top2)
        exact = top + 1
    return _truncate(t, order1, order2)


def _truncate(s: BivariateSeries, order1: int, order2: int) -> BivariateSeries:
    """``s`` truncated at (order1, order2), padded with zeros where that
    lies beyond its own truncation."""
    pad = [0] * max(0, order2 - s.order2)
    rows = [list(row[: order2 + 1]) + pad for row in s.coeffs[: order1 + 1]]
    rows += [[0] * (order2 + 1) for _ in range(order1 - s.order1)]
    return BivariateSeries(order1, order2, rows, s.var_names)


def _times_x(s: BivariateSeries) -> BivariateSeries:
    """x * s as a shift by one row, truncated one x-degree above s."""
    rows = [[0] * (s.order2 + 1)] + [list(row) for row in s.coeffs]
    return BivariateSeries(s.order1 + 1, s.order2, rows, s.var_names)


def triple_table(k: int, n: int) -> list[list[int]]:
    """All triple counts for n blocks: ``out[m][s]`` with 0 <= s <= m <= n."""
    t = T_series(k, n, n)
    tk = t.pow(k)
    zero_free = [count_zero_short(k, j) for j in range(n + 1)]
    out: list[list[int]] = [[] for _ in range(n + 1)]
    power = t
    for m in range(n, -1, -1):
        out[m] = [power.coefficient(m, s) * zero_free[n - m] for s in range(m + 1)]
        if m:
            # Row m - 1 is the next one read, and it has s <= m - 1.
            power = _truncate(power, m - 1, m - 1) * _truncate(tk, m - 1, m - 1)
    return out
