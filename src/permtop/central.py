"""Centralizer predicates and finite-window double centralizers.

Centralizers inside the full infinite group are only ever exposed as
membership predicates. Double centralizers are computed exactly inside a
finite window of points, which is legitimate because the centralizer of
the finite symmetric group on A is exactly the pointwise stabilizer of A
once |A| >= 3, making window answers stable under enlargement.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, permutations, product
from math import factorial, prod
from typing import Iterable, Iterator, Sequence

from .errors import BadCardinality, FiniteSupport, InfiniteSupport, WindowTooSmall
from .perm import ResiduePerm, commutes, from_mapping, transposition


def in_centralizer(f: ResiduePerm, perms: Iterable[ResiduePerm]) -> bool:
    """True iff f commutes with every listed permutation."""
    return all(commutes(f, h) for h in perms)


def in_subgroup_centralizer(f: ResiduePerm, points: Iterable[int]) -> bool:
    """True iff f commutes with every permutation supported in `points`.

    Transpositions generate the finite symmetric group on the set, and
    f t(a,b) f^-1 = t(f(a), f(b)), so each generator check is a set
    comparison.
    """
    pts = sorted(set(points))
    if len(pts) < 2:
        raise BadCardinality(len(pts), 2)
    for a, b in combinations(pts, 2):
        fa, fb = f.apply(a), f.apply(b)
        if {fa, fb} != {a, b}:
            return False
    return True


def centralizer_equals_stabilizer(points: Iterable[int], window: Iterable[int]) -> bool:
    """Brute-force test: inside S(window), centralizing all of S(points)
    coincides with fixing `points` pointwise.

    True whenever |points| >= 3; the two-point case fails (a transposition
    centralizes the group it generates while moving both points).
    """
    pts = sorted(set(points))
    win = sorted(set(window))
    if not set(pts) <= set(win):
        raise WindowTooSmall(f"window misses {sorted(set(pts) - set(win))}")
    spots = [win.index(p) for p in pts]
    pairs = list(combinations(spots, 2))
    for perm in permutations(range(len(win))):
        commutes = True
        for i, j in pairs:
            pi, pj = perm[i], perm[j]
            if not ((pi == i and pj == j) or (pi == j and pj == i)):
                commutes = False
                break
        fixes = all(perm[i] == i for i in spots)
        if commutes != fixes:
            return False
    return True


def _cycles(row: Sequence[int]) -> list[list[int]]:
    seen = [False] * len(row)
    out = []
    for start in range(len(row)):
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = row[x]
        if cycle:
            out.append(cycle)
    return out


def _centralizer_order(row: Sequence[int]) -> int:
    """|C(h)| = prod over cycle lengths k of k^m_k * m_k!, m_k cycles of length k."""
    by_len = Counter(len(c) for c in _cycles(row))
    return prod(k ** m * factorial(m) for k, m in by_len.items())


def _centralizer(row: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every permutation of range(len(row)) commuting with h = row.

    g commutes with h iff g maps each cycle of h onto a cycle of the same
    length, rotated: C(h) is the product of the wreath products C_k wr S_m_k
    over the cycle lengths k of h.
    """
    by_len: dict[int, list[list[int]]] = {}
    for cycle in _cycles(row):
        by_len.setdefault(len(cycle), []).append(cycle)
    blocks = []
    for k, cycles in by_len.items():
        blocks.append([[(src[t], dst[(t + r) % k])
                        for src, dst, r in zip(cycles, targets, turns)
                        for t in range(k)]
                       for targets in permutations(cycles)
                       for turns in product(range(k), repeat=len(cycles))])
    g = [0] * len(row)
    for choice in product(*blocks):
        for pairs in choice:
            for a, b in pairs:
                g[a] = b
        yield tuple(g)


def _commute(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(a[b[i]] == b[a[i]] for i in range(len(a)))


def double_centralizer_window(perms: Sequence[ResiduePerm],
                              window: Iterable[int]) -> list[ResiduePerm]:
    """c(c(F)) computed inside the symmetric group on the window.

    Output in lexicographic one-line order. Each centralizer is enumerated
    from the cycle type of its one member with the smallest centralizer,
    then filtered by commuting with the rest: c(F) from the non-identity
    members of F, c(c(F)) from the members of c(F). With no non-identity
    member c(F) is the whole window group, represented by its generators
    (0 1) and the n-cycle.
    """
    win = sorted(set(window))
    if not win:
        raise WindowTooSmall("empty window")
    n = len(win)
    pos = {p: i for i, p in enumerate(win)}
    rows_f: list[tuple[int, ...]] = []
    for f in perms:
        if not f.has_finite_support():
            raise InfiniteSupport()
        moved = f.moved_points()
        if not set(moved) <= set(win):
            raise WindowTooSmall(f"window misses {sorted(set(moved) - set(win))}")
        rows_f.append(tuple(pos[f.apply(p)] for p in win))

    def centralizer_of(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        h = min(rows, key=_centralizer_order)
        return [g for g in _centralizer(h) if all(_commute(g, r) for r in rows)]

    ident = tuple(range(n))
    moving = [r for r in rows_f if r != ident]
    if moving:
        c1 = centralizer_of(moving)
    else:
        c1 = [ident[1:] + ident[:1]]
        if n > 1:
            c1.append((1, 0) + ident[2:])
    return [from_mapping({win[j]: win[g[j]] for j in range(n)})
            for g in sorted(centralizer_of(c1))]


def centralizer_not_open_witness(g: ResiduePerm, points: Iterable[int]) -> ResiduePerm:
    """Transposition fixing `points` pointwise yet not commuting with g.

    Exists for every finite point set exactly because supt(g) is infinite:
    take the least moved x outside the set and a fresh y, so the
    transposition avoids the set while g t g^-1 = t(g(x), g(y)) moves g(x).
    """
    if g.has_finite_support():
        raise FiniteSupport()
    avoid = set(points)
    x = next(p for p in g.support().iter_members() if p not in avoid)
    gx = g.apply(x)
    y = 0
    while y in avoid or y == x or y == gx:
        y += 1
    return transposition(x, y)
