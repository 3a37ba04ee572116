from itertools import permutations
from random import Random

import pytest

from permtop import ResiduePerm, commutes
from permtop.central import (
    centralizer_equals_stabilizer,
    centralizer_not_open_witness,
    double_centralizer_window,
    in_centralizer,
    in_subgroup_centralizer,
)
from permtop.errors import (
    BadCardinality,
    FiniteSupport,
    InfiniteSupport,
    WindowTooSmall,
)
from permtop.perm import identity, sigma, transposition
from permtop.sampling import random_finite_perm


def test_in_centralizer():
    t01 = transposition(0, 1)
    assert in_centralizer(identity(), [t01, sigma()])
    assert in_centralizer(sigma(), [t01])
    assert not in_centralizer(transposition(0, 2), [t01])
    assert in_centralizer(transposition(5, 6), [t01])


def test_in_subgroup_centralizer():
    assert in_subgroup_centralizer(transposition(5, 6), (0, 1, 2))
    assert not in_subgroup_centralizer(transposition(0, 5), (0, 1, 2))
    assert not in_subgroup_centralizer(sigma(), (0, 1, 2))
    assert in_subgroup_centralizer(identity(), (0, 1))
    with pytest.raises(BadCardinality):
        in_subgroup_centralizer(identity(), (0,))


def test_centralizer_equals_stabilizer():
    assert centralizer_equals_stabilizer((0, 1, 2), range(5))
    assert centralizer_equals_stabilizer((0, 1, 2), range(3))
    assert not centralizer_equals_stabilizer((0, 1), range(4))
    assert not centralizer_equals_stabilizer((0,), range(3))
    # vacuous: with no marked points both sides are the whole window group
    assert centralizer_equals_stabilizer((), range(3))
    with pytest.raises(WindowTooSmall):
        centralizer_equals_stabilizer((0, 1, 5), range(4))


def test_double_centralizer_frozen():
    t01 = transposition(0, 1)
    got = double_centralizer_window([t01], range(6))
    assert got == [identity(), t01]

    c = ResiduePerm.from_cycles((0, 1, 2))
    got = double_centralizer_window([c], range(6))
    assert got == sorted({identity(), c, c * c},
                         key=lambda p: [p.apply(x) for x in range(6)])
    assert set(got) == {identity(), c, c.inverse()}


def test_double_centralizer_identity_seed():
    # the bicommutant of the trivial set is the window centre, which is
    # trivial once the window has three or more points
    got = double_centralizer_window([identity()], range(4))
    assert got == [identity()]


def test_double_centralizer_full_group():
    # adjacent transpositions generate; their centralizer is trivial, so
    # the second pass returns every permutation of the window
    gens = [transposition(i, i + 1) for i in range(5)]
    got = double_centralizer_window(gens, range(6))
    assert len(got) == 720


def test_double_centralizer_is_a_subgroup():
    f = [transposition(0, 1), transposition(2, 3)]
    got = double_centralizer_window(f, range(6))
    # pair swaps and their products, and the free swap on {4, 5}
    assert len(got) == 8
    members = set(got)
    for p in members:
        assert p.inverse() in members
        for q in members:
            assert p * q in members
    assert got == sorted(got, key=lambda p: [p.apply(x) for x in range(6)])


def test_double_centralizer_errors():
    with pytest.raises(InfiniteSupport):
        double_centralizer_window([sigma()], range(6))
    with pytest.raises(WindowTooSmall):
        double_centralizer_window([transposition(0, 9)], range(4))
    with pytest.raises(WindowTooSmall):
        double_centralizer_window([transposition(0, 1)], range(0))


def test_double_centralizer_contains_seed(rng):
    for _ in range(10):
        f = random_finite_perm(rng, 5)
        got = double_centralizer_window([f], range(5))
        assert f in got
        assert identity() in got


def test_centralizer_not_open_witness_frozen():
    t = centralizer_not_open_witness(sigma(), (0, 1))
    assert t == transposition(2, 4)
    assert not commutes(t, sigma())
    assert all(t.apply(p) == p for p in (0, 1))

    t = centralizer_not_open_witness(sigma(), ())
    assert t == transposition(0, 2)
    with pytest.raises(FiniteSupport):
        centralizer_not_open_witness(transposition(0, 1), (0, 1))


def test_centralizer_not_open_witness_random(rng):
    # a transposition fixing the avoid set yet outside the centralizer
    from permtop.sampling import random_residue_perm

    for _ in range(30):
        g = random_residue_perm(rng, infinite=True)
        avoid = tuple(rng.sample(range(12), rng.randrange(4)))
        t = centralizer_not_open_witness(g, avoid)
        assert not commutes(t, g)
        assert all(t.apply(p) == p for p in avoid)


def window_scan_double_centralizer(perms, n):
    """Reference: c(c(F)) by scanning all n! permutations of range(n) twice."""
    rows = list(permutations(range(n)))
    fs = [tuple(f.apply(x) for x in range(n)) for f in perms]

    def commute(a, b):
        return all(a[b[i]] == b[a[i]] for i in range(n))

    c1 = [r for r in rows if all(commute(r, f) for f in fs)]
    return [r for r in rows if all(commute(r, c) for c in c1)]


def window_families(n):
    rng = Random(n)
    yield from ([random_finite_perm(rng, min(n, 4)) for _ in range(rng.randint(1, 3))]
                for _ in range(8))
    yield []
    yield [identity()]
    yield [identity(), identity()]
    yield [transposition(i, i + 1) for i in range(n - 1)]


@pytest.mark.parametrize("n", range(1, 8))
def test_double_centralizer_matches_window_scan(n):
    for perms in window_families(n):
        got = double_centralizer_window(perms, range(n))
        assert [tuple(p.apply(x) for x in range(n)) for p in got] == \
            window_scan_double_centralizer(perms, n), perms
