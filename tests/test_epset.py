import copy
import pickle
from itertools import islice
from random import Random

import pytest

from permtop import EPSet
from permtop.perm import noncommuting_transposition, transposition
from permtop.sampling import random_epset


def test_construction_canonicalizes():
    assert EPSet(4, (0, 2)) == EPSet.evens()
    assert EPSet(4, (0, 2)).modulus == 2
    assert EPSet(6, (0, 2, 4)) == EPSet.evens()
    # corrections already implied by the rule are dropped
    assert EPSet(2, (0,), added=[4]) == EPSet.evens()
    assert EPSet(2, (0,), removed=[3]) == EPSet.evens()
    s = EPSet(2, (0,), added=[1], removed=[0])
    assert s.added == frozenset({1})
    assert s.removed == frozenset({0})
    # residues are read mod the modulus
    assert EPSet(2, (2,)) == EPSet.evens()


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        EPSet(0, ())
    with pytest.raises(ValueError):
        EPSet(2, (0,), added=[-1])
    with pytest.raises(ValueError):
        EPSet(2, (0,), removed=[-3])


def test_factories():
    assert 0 in EPSet.evens() and 1 not in EPSet.evens()
    assert 1 in EPSet.odds() and 2 not in EPSet.odds()
    assert EPSet.empty().is_empty()
    assert not EPSet.naturals().is_empty()
    assert 17 in EPSet.naturals()
    f = EPSet.finite([3, 5])
    assert 3 in f and 4 not in f and not f.is_infinite()
    c = EPSet.cofinite([3, 5])
    assert 3 not in c and 4 in c and c.is_infinite()
    r = EPSet.residue_class(5, 2)
    assert 2 in r and 7 in r and 3 not in r


def test_boolean_algebra_pointwise(rng):
    for _ in range(80):
        a = random_epset(rng)
        b = random_epset(rng)
        union = a | b
        inter = a & b
        diff = a - b
        comp = ~a
        for x in range(120):
            assert (x in union) == (x in a or x in b)
            assert (x in inter) == (x in a and x in b)
            assert (x in diff) == (x in a and x not in b)
            assert (x in comp) == (x not in a)


def test_far_corrections_cost_nothing():
    from time import perf_counter
    start = perf_counter()
    far = 10**7 + 1
    assert EPSet.finite([far]) | EPSet.evens() == EPSet(2, (0,), added=[far])
    assert EPSet.evens() | EPSet.finite([far - 1]) == EPSet.evens()
    assert EPSet.cofinite([far]) & EPSet.odds() == EPSet(2, (1,), removed=[far])
    assert EPSet.odds() - EPSet.finite([far, 4]) == EPSet(2, (1,), removed=[far])
    assert EPSet.finite([far]).issubset(EPSet.odds())
    assert EPSet.finite([far]).isdisjoint(EPSet.evens())
    assert perf_counter() - start < 1.0


def test_algebra_laws(rng):
    assert (EPSet.evens() & EPSet.odds()).is_empty()
    assert (EPSet.evens() | EPSet.odds()) == EPSet.naturals()
    for _ in range(30):
        a = random_epset(rng)
        b = random_epset(rng)
        assert (a | a) == a
        assert (a & a) == a
        assert ~(a | b) == (~a & ~b)
        assert ~(a & b) == (~a | ~b)
        assert (a - b) == (a & ~b)
        assert ~~a == a


def test_subset_and_disjoint(rng):
    assert EPSet.finite([0, 2]).issubset(EPSet.evens())
    assert not EPSet.evens().issubset(EPSet.finite([0, 2]))
    assert EPSet.evens().isdisjoint(EPSet.odds())
    assert not EPSet.evens().isdisjoint(EPSet.finite([4]))
    for _ in range(40):
        a = random_epset(rng)
        b = random_epset(rng)
        brute_sub = all(x in b for x in range(150) if x in a)
        brute_dis = all(not (x in a and x in b) for x in range(150))
        assert a.issubset(b) == brute_sub
        assert a.isdisjoint(b) == brute_dis


def test_finiteness_and_members():
    f = EPSet.finite([5, 1, 9])
    assert not f.is_infinite()
    assert f.members() == [1, 5, 9]
    assert EPSet.evens().is_infinite()
    with pytest.raises(ValueError):
        EPSet.evens().members()
    assert EPSet.empty().members() == []


def test_enumeration():
    e = EPSet.evens()
    assert e.list_below(7) == [0, 2, 4, 6]
    assert list(islice(e.iter_members(), 5)) == [0, 2, 4, 6, 8]
    assert e.least_member() == 0
    assert EPSet.empty().least_member() is None
    assert EPSet.cofinite([0, 1, 2]).least_member() == 3
    assert (~e).least_member() == 1
    assert (~EPSet.cofinite([5])).least_member() == 5
    assert (~EPSet.naturals()).least_member() is None


def scan_least_member(s):
    """Reference: scan every point below threshold + modulus."""
    return next((x for x in range(s.threshold + s.modulus) if x in s), None)


def scan_least_outside(s):
    """Reference: scan every point up to threshold + modulus."""
    return next((x for x in range(s.threshold + s.modulus + 1) if x not in s), None)


def test_least_member_and_outside_match_scan():
    rng = Random(8)
    for i in range(3000):
        s = random_epset(rng)
        if i % 3 == 0:
            # far corrections, and removed points that run a class up
            far = rng.randrange(50, 200)
            s = s | EPSet.finite([far]) if i % 2 else s - EPSet.finite(
                [s.modulus * k + r for r in s.residues for k in range(rng.randrange(4))])
        assert s.least_member() == scan_least_member(s), s
        assert (~s).least_member() == scan_least_outside(s), s


def test_far_least_points_cost_nothing():
    from time import perf_counter
    start = perf_counter()
    far = 10**7 + 1
    assert EPSet.finite([far]).least_member() == far
    assert (~EPSet.cofinite([far])).least_member() == far
    assert EPSet(2, (0,), added=[far], removed=[0, 2]).least_member() == 4
    assert (~EPSet.evens()).least_member() == 1
    assert (~(EPSet.naturals() - EPSet.finite([far]))).least_member() == far
    t = transposition(far, far + 1)
    assert t.least_moved() == far
    assert noncommuting_transposition(t) == transposition(far, 0)
    assert perf_counter() - start < 1.0


def test_threshold_covers_corrections():
    s = EPSet(2, (0,), added=[7], removed=[4])
    assert s.threshold > 7
    for x in range(s.threshold, s.threshold + 10):
        assert (x in s) == (x % 2 == 0)


def test_equality_and_hash():
    a = EPSet(2, (0,))
    b = EPSet(6, (0, 2, 4))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != EPSet.odds()


@pytest.mark.parametrize("value", [
    EPSet(2, [0]),
    EPSet.empty(),
    EPSet.finite([2, 5]),
    EPSet(6, (1, 4), added=[0, 9], removed=[1, 22]),
])
def test_copy_and_pickle_round_trip(value):
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is EPSet
        assert twin == value and hash(twin) == hash(value)
        assert (twin.added, twin.removed) == (value.added, value.removed)


def test_to_literal():
    assert EPSet.evens().to_literal() == "ep[2; 0]"
    assert EPSet.finite([2, 5]).to_literal() == "ep[1; ; +{2,5}]"
    assert EPSet.empty().to_literal() == "ep[1; ]"
    s = EPSet(2, (0,), added=[1], removed=[0])
    assert s.to_literal() == "ep[2; 0; +{1}; -{0}]"
