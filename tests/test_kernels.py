from itertools import product

import pytest

from permtop.kernels import word_inequality_masks
from permtop.oracle import FiniteGroup

from conftest import (cyclic_table_text, dihedral_table_text, quaternion_table_text,
                      reference_inverses)


def brute_word_masks(mul, n, max_vars):
    """Reference: evaluate every word x^s0 c0 ... x^s(m-1) c(m-1) at every x."""
    inv = reference_inverses(mul, n)
    masks = set()
    for m in range(1, max_vars + 1):
        for signs in product((False, True), repeat=m):
            for consts in product(range(n), repeat=m):
                mask = 0
                for x in range(n):
                    acc = 0
                    for s, c in zip(signs, consts):
                        acc = mul[mul[acc * n + (inv[x] if s else x)] * n + c]
                    if acc:
                        mask |= 1 << x
                masks.add(mask)
    return sorted(masks)


def dfs_word_masks(mul, n, max_vars):
    """Reference: the depth-first prefix walk, which extends every prefix
    vector it reaches, equal ones included, from both x and x^-1."""
    inv = reference_inverses(mul, n)
    full = (1 << n) - 1
    powers = (list(range(n)), inv)
    masks = set()

    def visit(prefix, depth):
        fibers = {}
        for x, y in enumerate(prefix):
            fibers[y] = fibers.get(y, 0) | 1 << x
        masks.update(full ^ f for f in fibers.values())
        if len(fibers) < n:
            masks.add(full)
        if depth == max_vars:
            return
        for c in range(n):
            rows = [mul[y * n + c] * n for y in prefix]
            for power in powers:
                visit([mul[r + v] for r, v in zip(rows, power)], depth + 1)

    if max_vars >= 1:
        for power in powers:
            visit(power, 1)
    return sorted(masks)


Z4 = FiniteGroup.from_table_text("4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2")
D4 = FiniteGroup.from_table_text(dihedral_table_text(4))
Z6 = FiniteGroup.from_table_text(cyclic_table_text(6))
# D6 is C2 x S3: like Q8 and D4, non-abelian with a non-trivial centre
D6 = FiniteGroup.from_table_text(dihedral_table_text(6))
Q8 = FiniteGroup.from_table_text(quaternion_table_text())


def test_word_inequality_masks_s3_single_variable():
    g = FiniteGroup.symmetric(3)
    masks = word_inequality_masks(g._flat, 6, 1)
    # solution sets of one-variable inequalities are the co-singletons
    assert masks == sorted(63 ^ (1 << i) for i in range(6))


@pytest.mark.parametrize("group, max_vars", [
    *[(FiniteGroup.symmetric(3), m) for m in (0, 1, 2, 3)],
    *[(FiniteGroup.symmetric(4), m) for m in (1, 2)],
    *[(Z4, m) for m in (1, 2, 3)],
    *[(D4, m) for m in (1, 2, 3)],
    (Z6, 2),
    (D6, 2),
])
def test_word_masks_match_brute_force(group, max_vars):
    # the references find inverses by search, the kernel reads them off
    # the position of the identity in each row
    n = group.order
    assert word_inequality_masks(group._flat, n, max_vars) == \
        brute_word_masks(group._flat, n, max_vars)


def test_word_masks_match_brute_force_cyclic_130():
    n = 130
    flat = [(i + j) % n for i in range(n) for j in range(n)]
    got = word_inequality_masks(flat, n, 1)
    assert got == brute_word_masks(flat, n, 1)
    assert len(got) > 0


@pytest.mark.parametrize("group, max_vars", [
    *[(FiniteGroup.symmetric(1), m) for m in (0, 1, 2, 8)],
    *[(FiniteGroup.symmetric(2), m) for m in (1, 2, 3, 6)],
    *[(FiniteGroup.symmetric(3), m) for m in (1, 2, 3, 4)],
    *[(FiniteGroup.symmetric(4), m) for m in (1, 2, 3)],
    *[(Z4, m) for m in (1, 2, 3, 4)],
    *[(D4, m) for m in (1, 2, 3)],
    *[(Q8, m) for m in (1, 2, 3)],
    *[(D6, m) for m in (1, 2, 3)],
    (FiniteGroup.symmetric(5), 2),
])
def test_word_masks_match_dfs(group, max_vars):
    n = group.order
    assert word_inequality_masks(group._flat, n, max_vars) == \
        dfs_word_masks(group._flat, n, max_vars)


def test_quaternion_table():
    # Q8 is the group of order 8 with a single involution, -1, and it is central
    assert Q8.order == 8
    assert [x for x in range(1, 8) if Q8.mul(x, x) == 0] == [4]
    assert all(Q8.mul(4, x) == Q8.mul(x, 4) for x in range(8))


def test_word_masks_long_words_on_tiny_groups():
    # distinct prefix vectors are extended once, so the admitted long words
    # on S1 and S2 cost no more than their few distinct vectors
    from time import perf_counter
    s1, s2 = FiniteGroup.symmetric(1), FiniteGroup.symmetric(2)
    start = perf_counter()
    assert word_inequality_masks(s1._flat, 1, 21) == [0]
    # every subset of S2 is a solution set from length 2 on
    assert word_inequality_masks(s2._flat, 2, 10) == [0, 1, 2, 3]
    assert perf_counter() - start < 1.0
