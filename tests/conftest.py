"""Shared test plumbing.

The helpers here recheck package results by direct pointwise enumeration
over a finite window, or write out Cayley tables by formula; they never
call back into the code path under test.
"""

import random

import pytest


def pytest_configure(config):
    config._acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return random.Random(20260819)


def brute_moved(f, bound):
    """Moved points of f inside [0, bound), by direct application."""
    return {x for x in range(bound) if f.apply(x) != x}


def assert_pointwise_equal(f, g, bound=200):
    for x in range(bound):
        assert f.apply(x) == g.apply(x), (x, f.apply(x), g.apply(x))


def cyclic_table_text(n):
    """Cayley table of the cyclic group of order n; i has index i."""
    return f"{n}\n" + "\n".join(" ".join(str((i + j) % n) for j in range(n))
                                 for i in range(n))


def dihedral_table_text(k):
    """Cayley table of the dihedral group of order 2k; r^i s^j has index i + k j."""
    n = 2 * k
    rows = []
    for a in range(n):
        i, j = a % k, a // k
        row = []
        for b in range(n):
            c, d = b % k, b // k
            row.append((i + (c if j == 0 else -c)) % k + k * ((j + d) % 2))
        rows.append(" ".join(map(str, row)))
    return f"{n}\n" + "\n".join(rows)


def quaternion_table_text():
    """Cayley table of the quaternion group Q8; s*u has index u + 4 j, where
    u = 0, 1, 2, 3 stands for 1, i, j, k and s = (-1)^j."""
    def unit_product(a, b):  # e_a e_b as (sign, unit)
        if a == 0 or b == 0:
            return 1, a + b
        if a == b:
            return -1, 0
        return (1 if (b - a) % 3 == 1 else -1), 6 - a - b
    rows = []
    for x in range(8):
        row = []
        for y in range(8):
            sign, u = unit_product(x % 4, y % 4)
            negative = (sign < 0) ^ (x >= 4) ^ (y >= 4)
            row.append(u + 4 * negative)
        rows.append(" ".join(map(str, row)))
    return "8\n" + "\n".join(rows)


def reference_inverses(flat, n):
    """Inverses of a flat Cayley table by search: the least y with x y = e."""
    return [next(y for y in range(n) if flat[x * n + y] == 0) for x in range(n)]
