"""Reference values computed apart from kchord.

Nothing here imports the package.  Each function is a closed form or a
literal enumeration, written from the definitions, so a disagreement
with kchord's output points at the program.  ``test_reference.py``
checks these functions against brute force and published values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, exp, factorial


@lru_cache(maxsize=None)
def total(k: int, n: int) -> int:
    """N(k, n) = (kn)! / ((k!)^n n!): diagrams with n blocks of size k."""
    return factorial(k * n) // (factorial(k) ** n * factorial(n))


def short_mean_sum(k: int, n: int) -> Fraction:
    """Sum over diagrams of their short-chord count: n(kn-k+1) N / C(kn, k)."""
    return Fraction(n * (k * n - k + 1) * total(k, n), comb(k * n, k))


@lru_cache(maxsize=None)
def _marked(k: int, n: int) -> tuple[int, ...]:
    """Diagrams with j marked short chords: C(kn - j(k-1), j) N(k, n-j).

    Contracting each marked chord to one point leaves n-j blocks free.
    """
    return tuple(comb(k * n - j * (k - 1), j) * total(k, n - j) for j in range(n + 1))


def short_entry(k: int, n: int, s: int) -> int:
    """d(n, s), diagrams with exactly s short chords, by inclusion-exclusion."""
    marked = _marked(k, n)
    return sum((-1) ** (j - s) * comb(j, s) * marked[j] for j in range(s, n + 1))


def component_entry(k: int, n: int, q: int) -> int:
    """Diagrams with n blocks whose short chords form exactly q maximal runs.

    Mobius inversion over marked short-chord sets W: every marked window
    is kept (weight y per run start) or dropped (weight -1), and the
    n - |W| unmarked blocks form any diagram on the k(n - |W|) free
    positions.  With a kept and b dropped windows, the kept windows form
    q runs in C(free + b + 1, q) C(a - 1, q - 1) ways.
    """
    acc = 0
    for a in range(n + 1):
        if (a == 0) != (q == 0):
            continue
        for b in range(n - a + 1):
            free = k * (n - a - b)
            runs = 1 if a == 0 else comb(free + b + 1, q) * comb(a - 1, q - 1)
            acc += (-1) ** b * total(k, n - a - b) * comb(free + b, b) * runs
    return acc


def component_mean_sum(k: int, n: int) -> int:
    """Sum over diagrams of their run count.

    A run starts at each short chord not preceded by an adjacent one:
    (kn-k+1) windows hold a short chord in N(k, n-1) diagrams each, and
    (kn-2k+1) double windows hold two adjacent ones in N(k, n-2) each.
    """
    if n < 1:
        return 0
    pairs = (k * n - 2 * k + 1) * total(k, n - 2) if n >= 2 else 0
    return (k * n - k + 1) * total(k, n - 1) - pairs


def fuss_catalan(k: int, m: int) -> int:
    return comb(k * m, m) // ((k - 1) * m + 1)


def noncrossing_entry(k: int, m: int, s: int) -> int:
    """T(m, s) by Lagrange inversion of W = x((1+W)^k - (1-y)(1+W)).

    T(m, s) = (1/m) sum_j C(m, j) C((k-1)j + m, m-1) C(m-j, s) (-1)^(m-j-s).
    """
    if m == 0:
        return 1 if s == 0 else 0
    acc = sum(
        comb(m, j) * comb((k - 1) * j + m, m - 1) * comb(m - j, s) * (-1) ** (m - j - s)
        for j in range(m - s + 1)
    )
    return acc // m


def lattice_entry(k: int, i: int, t: int) -> int:
    """[x^i y^t] of 1 / (1 - y(1 + x^k y^(k-1))): C(t - (k-1)j, j) at i = kj."""
    if i % k:
        return 0
    j = i // k
    top = t - (k - 1) * j
    return comb(top, j) if top >= 0 else 0


def poisson_lambda(k: int, n: int) -> Fraction:
    """k! k^(1-k) n^(2-k), the Poisson rate of both limit statistics."""
    return Fraction(factorial(k), k ** (k - 1) * n ** (k - 2))


def tv_to_poisson(head: list[int], count: int, lam: Fraction) -> float:
    """Total-variation distance, in floats, between a count row and Poisson.

    ``head`` holds the first entries of a row summing to ``count``; the
    rest of the row and the Poisson tail past ``len(head)`` enter as
    their masses.  Callers take the head long enough that both tails are
    below double precision.
    """
    lam_f = float(lam)
    weight = exp(-lam_f)
    dist = 0.0
    poisson_head = 0.0
    for j, c in enumerate(head):
        if j:
            weight *= lam_f / j
        dist += abs(c / count - weight)
        poisson_head += weight
    row_tail = (count - sum(head)) / count
    return (dist + row_tail + max(0.0, 1.0 - poisson_head)) / 2


# --- boards ----------------------------------------------------------------


def board_edges(spec: str) -> tuple[int, set[tuple[int, int]]]:
    """Vertex count and edge set of ``path:M``, ``grid:RxC`` or ``torus:RxC``."""
    kind, _, size = spec.partition(":")
    if kind == "path":
        m = int(size)
        return m, {(i, i + 1) for i in range(m - 1)}
    rows, cols = (int(x) for x in size.split("x"))
    wrap = kind == "torus"
    edges = set()
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            right = v + 1 if c + 1 < cols else (r * cols if wrap else v)
            down = v + cols if r + 1 < rows else (c if wrap else v)
            edges.update((min(v, w), max(v, w)) for w in (right, down) if w != v)
    return rows * cols, edges


def _neighbours(vertices: int, edges) -> list[set[int]]:
    nbrs = [set() for _ in range(vertices)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def connected_subsets(vertices: int, edges, k: int) -> set[frozenset[int]]:
    """Every k-subset inducing a connected subgraph, grown breadth-first."""
    nbrs = _neighbours(vertices, edges)
    level = {frozenset([v]) for v in range(vertices)}
    for _ in range(k - 1):
        level = {s | {w} for s in level for v in s for w in nbrs[v] if w not in s}
    return level


def mean_polyominoes(vertices: int, edges, k: int) -> Fraction:
    """Exact mean polyomino count of a uniform deal: n r / C(kn, k)."""
    n = vertices // k
    return Fraction(n * len(connected_subsets(vertices, edges, k)), comb(vertices, k))


def _components(nbrs: list[set[int]], cells: set[int]) -> int:
    seen: set[int] = set()
    count = 0
    for start in cells:
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            for w in nbrs[stack.pop()] & cells:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def deal_histogram(vertices: int, edges, k: int) -> dict[tuple[int, int], int]:
    """(polyominoes, components) over every deal, by literal enumeration."""
    nbrs = _neighbours(vertices, edges)
    hist: dict[tuple[int, int], int] = {}

    def walk(free: list[int], blocks: list[frozenset[int]]):
        if not free:
            polys = [b for b in blocks if _components(nbrs, set(b)) == 1]
            key = (len(polys), _components(nbrs, set().union(*polys)))
            hist[key] = hist.get(key, 0) + 1
            return
        first, rest = free[0], free[1:]
        for partners in combinations(rest, k - 1):
            block = frozenset((first,) + partners)
            walk([v for v in rest if v not in block], blocks + [block])

    walk(list(range(vertices)), [])
    return hist
