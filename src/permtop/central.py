"""Finite-window double centralizers and centralizer witnesses.

Double centralizers are computed exactly inside the symmetric group S(W)
of a finite window W, from two facts:

1. With M the points F moves and R = W - M, anything commuting with F
   preserves Fix(F) = R, so c(F) = C_S(M)(F) x S(R).
2. c(c(F)) is the set of permutations commuting with a generating set of
   c(F): the members of C_S(M)(F), a transposition and the |R|-cycle on R.

Neither fact assumes the answer is stable as the window grows; acceptance
criterion 6 checks that stability. The stabilizer comparison (criterion 5)
uses the same cycle-type machinery: centralizing S(A) inside S(W) is fixing
A pointwise exactly when the centralizer in S(A) of its two generators, a
transposition and the |A|-cycle, is trivial, which holds once |A| >= 3.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations, product
from math import factorial, prod
from typing import Iterable, Iterator, Sequence

from .errors import FiniteSupport, InfiniteSupport, WindowTooSmall
from .perm import ResiduePerm, from_mapping, transposition


def centralizer_equals_stabilizer(points: Iterable[int], window: Iterable[int]) -> bool:
    """Inside S(window), centralizing all of S(points) coincides with fixing
    `points` pointwise: true whenever |points| >= 3, false for two points
    (a transposition centralizes the group it generates while moving both).

    Only S(A), A = points, matters: a g in S(window) mapping A onto A is
    judged by both predicates on g restricted to A, and one sending some a
    in A outside A fails both, as g(a) != a and {g(a), g(b)} != {a, b} for
    every other b in A. For |A| <= 1, S(A) is trivial, so the answer is
    whether every g fixes A: A is empty or |window| = 1.

    Inside S(A) the two sides agree iff only the identity centralizes S(A).
    Relabelled as S(k), k = |A|, the group is generated by (0 1) and the
    k-cycle, so its centralizer is theirs: the centralizer of one generator,
    read off its cycle type (the k rotations of the cycle once k >= 4),
    filtered by commuting with the other. O(k^2), not k!.
    """
    pts = set(points)
    win = set(window)
    if not pts <= win:
        raise WindowTooSmall(f"window misses {sorted(pts - win)}")
    if len(pts) <= 1:
        return not pts or len(win) == 1
    ident = tuple(range(len(pts)))
    cycle, swap = ident[1:] + ident[:1], (1, 0) + ident[2:]
    return _centralizer_of([cycle, swap], len(ident)) == [ident]


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


def _centralizer_of(rows: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """C(rows) in S(n): the centralizer of the member with the smallest one,
    filtered by commuting with the rest."""
    if not rows:
        return list(permutations(range(n)))
    h = min(rows, key=_centralizer_order)
    return [g for g in _centralizer(h) if all(_commute(g, r) for r in rows)]


def double_centralizer_window(perms: Sequence[ResiduePerm],
                              window: Iterable[int]) -> list[ResiduePerm]:
    """c(c(F)) computed inside the symmetric group on the window.

    Output in lexicographic one-line order. With M the points F moves and
    R the rest of the window, c(F) = C_S(M)(F) x S(R) (fact 1 of the module
    docstring); only C_S(M)(F) is enumerated, from the cycle type of the
    member of F with the smallest centralizer on M. c(c(F)) is then every
    permutation commuting with the generators of c(F) (fact 2): the lifted
    C_S(M)(F), (r0 r1) and the |R|-cycle on R. Its candidates are the
    centralizer of h = g0 times the |R|-cycle, g0 the member of C_S(M)(F)
    that gives h the smallest centralizer. A candidate commuting with h and
    with the lifted g0 commutes with the |R|-cycle as well, so that
    generator is not tested. The rows of c(F) are never enumerated, and
    nothing assumes |R| >= 3: for |R| <= 2 the answer is computed in
    S(window) all the same.
    """
    win = sorted(set(window))
    if not win:
        raise WindowTooSmall("empty window")
    inside, moved = set(win), set()
    for f in perms:
        if not f.has_finite_support():
            raise InfiniteSupport()
        pts = set(f.moved_points())
        if not pts <= inside:
            raise WindowTooSmall(f"window misses {sorted(pts - inside)}")
        moved |= pts
    # positions 0..k-1 hold M, positions k..n-1 hold R
    order = sorted(moved) + [p for p in win if p not in moved]
    n, k = len(order), len(moved)
    pos = {p: i for i, p in enumerate(order)}
    ident = tuple(range(k))
    rows_f = {tuple(pos[f.apply(p)] for p in order[:k]) for f in perms} - {ident}
    c_m = _centralizer_of(sorted(rows_f), k)
    rest = tuple(range(k, n))
    r_cycle = rest[1:] + rest[:1]
    gens = [g + rest for g in c_m if g != ident]
    if n - k >= 2:
        gens.append(ident + (k + 1, k) + rest[2:])
    h = min((g + r_cycle for g in c_m), key=_centralizer_order)
    out = [from_mapping({order[j]: order[g[j]] for j in range(n)})
           for g in _centralizer(h) if all(_commute(g, s) for s in gens)]
    return sorted(out, key=lambda p: [p.apply(x) for x in win])


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
