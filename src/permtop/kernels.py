"""Solution sets of one-variable word inequalities over a Cayley table.

Group elements are indices into a flat row-major Cayley table with the
identity at index 0.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


def word_inequality_masks(mul: Sequence[int], n: int, max_vars: int) -> list[int]:
    """Distinct masks {x : w(x) != identity} over all words in one unknown.

    Words are alternating products x^(+-1) c_0 x^(+-1) c_1 ... c_(m-1) with
    m <= max_vars variable occurrences and constants ranging over the whole
    group (identity included, so adjacent variables arise as a special
    case). Bit x of a mask is set iff the word evaluates off the identity
    at element x.

    Only words with s_0 = +1 are walked; they already give every mask.
    The set where w(x) != 1 is unchanged when w(x) is replaced by a
    conjugate or by its inverse, and two such moves stay in the form:
      - rotation, x^s_k c_k ... x^s_(m-1) c_(m-1) x^s_0 c_0 ... c_(k-1),
        is w(x) conjugated by x^s_0 c_0 ... c_(k-1);
      - inversion, x^-s_(m-1) c_(m-2)^-1 ... c_0^-1 x^-s_0 c_(m-1)^-1,
        is w(x)^-1 conjugated by c_(m-1).
    Both keep the number of occurrences, and their constants range over
    the whole group as the c_j do. A word with some s_k = +1 rotates to
    one starting with x; a word with every s_k = -1 inverts to one with
    every s_k = +1.

    Each prefix P = x^s_0 c_0 ... x^s_(m-1) is evaluated once, as the
    vector of its values: w(x) != 1 iff P(x) != c_(m-1)^-1, and c_(m-1)^-1
    ranges over the whole group, so the masks of all words sharing P are
    the complements of P's fibers, empty fibers giving the full mask.
    Prefixes are walked level by level in the number of variable
    occurrences, from the single vector x -> x; a level that will be
    extended is kept as a set of distinct vectors, so equal prefixes are
    extended once, and the last level is evaluated as it is generated,
    without being stored.
    """
    if max_vars < 1:
        return []
    # the inverse of x is the position of the identity in row x
    inv = [mul.index(0, x * n, (x + 1) * n) - x * n for x in range(n)]
    full = (1 << n) - 1
    bit = [1 << x for x in range(n)]
    powers = (tuple(range(n)), tuple(inv))  # x -> x and x -> x^-1
    masks: set[int] = set()

    def record(prefix: Sequence[int]) -> None:
        fibers: dict[int, int] = {}
        for x, y in enumerate(prefix):
            fibers[y] = fibers.get(y, 0) | bit[x]
        masks.update(full ^ f for f in fibers.values())
        if len(fibers) < n:
            masks.add(full)

    def children(level: Iterable[Sequence[int]]) -> Iterator[list[int]]:
        for prefix in level:
            for c in range(n):
                rows = [mul[y * n + c] * n for y in prefix]
                for power in powers:
                    yield [mul[r + v] for r, v in zip(rows, power)]

    level: Iterable[Sequence[int]] = {powers[0]}
    for depth in range(1, max_vars):
        for prefix in level:
            record(prefix)
        level = children(level)
        if depth + 1 < max_vars:
            level = set(map(tuple, level))
    for prefix in level:
        record(prefix)
    return sorted(masks)
