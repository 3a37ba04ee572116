from itertools import combinations, permutations
from random import Random

import pytest

from permtop import ResiduePerm, commutes
from permtop.central import (
    _centralizer,
    _centralizer_order,
    _commute,
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
from permtop.perm import from_cycles, from_mapping, identity, sigma, transposition
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
    # a one-point window: S(W) is trivial, so both sides agree
    assert centralizer_equals_stabilizer((0,), (0,))
    # the swap of a two-point window centralizes S(W) and moves both points
    assert not centralizer_equals_stabilizer((0, 1), (0, 1))
    with pytest.raises(WindowTooSmall):
        centralizer_equals_stabilizer((0, 1, 5), range(4))


def window_scan_centralizer_equals_stabilizer(points, window):
    """Reference: the test over all |W|! permutations of the window."""
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


def test_centralizer_equals_stabilizer_matches_window_scan():
    checked = 0
    for w_size in range(1, 8):
        for win in combinations(range(7), w_size):
            for a_size in range(w_size + 1):
                for pts in combinations(win, a_size):
                    checked += 1
                    assert centralizer_equals_stabilizer(pts, win) == \
                        window_scan_centralizer_equals_stabilizer(pts, win), (pts, win)
    assert checked == 2186


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


def test_double_centralizer_small_rest():
    # with |R| = 2 the rest of the window is not pointwise fixed: for (0 1)
    # on {0..3}, c(F) = S{0,1} x S{2,3} is abelian and self-centralizing
    t01, t23 = transposition(0, 1), transposition(2, 3)
    got = double_centralizer_window([t01], range(4))
    assert set(got) == {identity(), t01, t23, t01 * t23}
    assert got == reference_double_centralizer([t01], range(4))
    # on {0..4}, |R| = 3 and the answer shrinks to <(0 1)>
    assert double_centralizer_window([t01], range(5)) == [identity(), t01]


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


def reference_double_centralizer(perms, window):
    """Reference: the cycle-type implementation that built all of c(F).

    Each centralizer is enumerated from the cycle type of its member with
    the smallest centralizer, then filtered by commuting with the rest:
    c(F) from the non-identity members of F, c(c(F)) from every row of
    c(F). With no non-identity member c(F) is represented by its
    generators (0 1) and the n-cycle.
    """
    win = sorted(set(window))
    n = len(win)
    pos = {p: i for i, p in enumerate(win)}
    rows_f = [tuple(pos[f.apply(p)] for p in win) for f in perms]

    def centralizer_of(rows):
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


# the cycle shapes of the benchmark's double-centralizer families on {0..3}
BENCHMARK_SHAPES = (
    [[(0, 1)]], [[(0, 1), (2, 3)]], [[(0, 1, 2)], [(2, 3)]], [[(0, 1)], [(2, 3)]],
)


def cover_family(rng, points):
    """Cycles over a seeded partition of `points` into blocks of two or
    more, split among one to three members: the family moves every point."""
    pts = list(points)
    rng.shuffle(pts)
    blocks = []
    while pts:
        size = len(pts) if len(pts) <= 3 else rng.randint(2, len(pts) - 2)
        blocks.append(pts[:size])
        pts = pts[size:]
    members = [[] for _ in range(rng.randint(1, min(3, len(blocks))))]
    for i, block in enumerate(blocks):
        members[i % len(members)].append(block)
    return [from_cycles(*cycles) for cycles in members]


def differential_families(n):
    rng = Random(1000 + n)
    for shape in BENCHMARK_SHAPES:
        label = rng.sample(range(4), 4)
        yield [from_cycles(*[[label[x] for x in cycle] for cycle in cycles])
               for cycles in shape]
    for _ in range(6):
        yield [random_finite_perm(rng, 4) for _ in range(rng.randint(1, 3))]
    for rest in (0, 1, 2):
        for _ in range(2):
            yield cover_family(rng, rng.sample(range(n), n - rest))


@pytest.mark.parametrize("n", [8, 9])
def test_double_centralizer_matches_reference(n):
    rests = set()
    for perms in differential_families(n):
        moved = {x for f in perms for x in f.moved_points()}
        rests.add(n - len(moved))
        assert double_centralizer_window(perms, range(n)) == \
            reference_double_centralizer(perms, range(n)), perms
    assert {0, 1, 2} <= rests
