from itertools import product

import pytest

from permtop.kernels import word_inequality_masks
from permtop.oracle import FiniteGroup

from conftest import dihedral_table_text


def brute_word_masks(mul, n, max_vars):
    """Reference: evaluate every word x^s0 c0 ... x^s(m-1) c(m-1) at every x."""
    inv = [next(y for y in range(n) if mul[x * n + y] == 0) for x in range(n)]
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


Z4 = FiniteGroup.from_table_text("4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2")
D4 = FiniteGroup.from_table_text(dihedral_table_text(4))


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
])
def test_word_masks_match_brute_force(group, max_vars):
    n = group.order
    assert word_inequality_masks(group._flat, n, max_vars) == \
        brute_word_masks(group._flat, n, max_vars)


def test_word_masks_match_brute_force_cyclic_130():
    n = 130
    flat = [(i + j) % n for i in range(n) for j in range(n)]
    got = word_inequality_masks(flat, n, 1)
    assert got == brute_word_masks(flat, n, 1)
    assert len(got) > 0
