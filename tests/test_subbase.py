import pytest

from permtop import ResiduePerm, conjugate
from permtop.errors import InfiniteSupport, NotInvolution, NotMember, WitnessError
from permtop.perm import identity, sigma, transposition
from permtop.sampling import random_finite_perm, random_involution, random_perm_mixed
from permtop.subbase import (
    ConjEq,
    ConjNeq,
    Const,
    DoubleConjNeq,
    FixesAll,
    GroupWord,
    Intersection,
    PointFiber,
    SupportIn,
    Var,
    WordNeq,
    eval_word,
    member,
    tp_open_witness,
    traced_point_eval,
)


def perm_with_pairs(pairs):
    """Any permutation honoring every (p, q) constraint, nothing else fixed."""
    m = dict(pairs)
    assert len(set(m.values())) == len(m)
    extra_src = sorted(set(m.values()) - set(m))
    extra_dst = sorted(set(m) - set(m.values()))
    for s, d in zip(extra_src, extra_dst):
        m[s] = d
    return ResiduePerm.from_mapping(m)


def test_word_construction():
    with pytest.raises(ValueError):
        Var(0)
    with pytest.raises(ValueError):
        GroupWord((Const(sigma()),))
    w = GroupWord((Var(1), Const(transposition(0, 1)), Var(-1)))
    assert len(w.letters) == 3
    assert GroupWord.conj(transposition(0, 1)) == w


def test_eval_word():
    x = GroupWord((Var(1),))
    assert eval_word(x, sigma()) == sigma()
    w = GroupWord.conj(transposition(0, 1))
    assert eval_word(w, transposition(1, 2)) == transposition(0, 2)
    inv = GroupWord((Var(-1),))
    c = ResiduePerm.from_cycles((0, 1, 2))
    assert eval_word(inv, c) == c.inverse()
    both = GroupWord((Var(1), Var(1)))
    assert eval_word(both, c) == c * c


def test_traced_point_eval_records_forward_queries(rng):
    w = GroupWord.conj(transposition(0, 1))
    v, pairs = traced_point_eval(w, transposition(1, 2), 0)
    assert v == eval_word(w, transposition(1, 2)).apply(0)
    for p, q in pairs:
        assert transposition(1, 2).apply(p) == q
    for _ in range(20):
        f = random_perm_mixed(rng)
        value, got = traced_point_eval(w, f, rng.randrange(10))
        g = perm_with_pairs(got)
        assert eval_word(w, g).apply(got[0][0] if got else 0) is not None
        for p, q in got:
            assert f.apply(p) == q
            assert g.apply(p) == q


def test_membership_shapes():
    t01 = transposition(0, 1)
    x = GroupWord((Var(1),))
    assert member(WordNeq(x), t01)
    assert not member(WordNeq(x), identity())

    e = ConjNeq(identity(), t01)
    assert member(e, transposition(1, 2))
    assert not member(e, t01)
    assert not member(e, identity())

    d = DoubleConjNeq(t01, transposition(2, 3))
    assert not member(d, identity())
    assert member(d, transposition(1, 2))

    assert member(PointFiber(0, 1), sigma())
    assert not member(PointFiber(3, 3), sigma())

    assert member(ConjEq(identity(), t01), transposition(2, 3))
    assert not member(ConjEq(identity(), t01), transposition(1, 2))

    assert member(FixesAll((0, 1)), transposition(2, 5))
    assert not member(FixesAll((0, 1)), t01)
    assert member(FixesAll(()), sigma())

    assert member(SupportIn(frozenset({0, 1, 2})), t01)
    assert not member(SupportIn(frozenset({0, 1})), transposition(1, 2))
    assert not member(SupportIn(frozenset({0, 1})), sigma())

    both = Intersection((PointFiber(0, 1), FixesAll((5,))))
    assert member(both, t01)
    assert not member(both, transposition(0, 1) * transposition(5, 6))


def test_involution_guards():
    c = ResiduePerm.from_cycles((0, 1, 2))
    with pytest.raises(NotInvolution):
        ConjNeq(identity(), c)
    with pytest.raises(NotInvolution):
        DoubleConjNeq(c, transposition(0, 1))
    with pytest.raises(NotInvolution):
        DoubleConjNeq(transposition(0, 1), c)
    # the identity is an involution here, giving the empty set
    e = ConjNeq(identity(), identity())
    assert not member(e, sigma())
    with pytest.raises(ValueError):
        PointFiber(-1, 0)


def test_conjneq_word_detects_membership(rng):
    for _ in range(40):
        a = random_finite_perm(rng, 8)
        b = random_involution(rng, 8)
        e = ConjNeq(a, b)
        f = random_perm_mixed(rng)
        # x b x^-1 (a b a^-1)^-1
        w = GroupWord((Var(1), Const(b), Var(-1), Const(conjugate(a, b).inverse())))
        assert member(e, f) == (not eval_word(w, f).is_identity())


def test_tp_open_witness_frozen_examples():
    e = ConjNeq(identity(), transposition(0, 1))
    assert tp_open_witness(e, transposition(1, 2)) == [(0, 0), (1, 2)]
    e2 = ConjNeq(identity(), sigma())
    assert tp_open_witness(e2, transposition(0, 2)) == [(2, 0), (3, 3)]
    assert tp_open_witness(PointFiber(4, 7), transposition(4, 7)) == [(4, 7)]
    assert tp_open_witness(FixesAll((2, 9)), sigma() * sigma()) == [(2, 2), (9, 9)]
    assert tp_open_witness(ConjEq(identity(), transposition(0, 1)),
                           transposition(2, 3)) == [(0, 0), (1, 1)]


def test_tp_open_witness_rejects_nonmembers():
    e = ConjNeq(identity(), transposition(0, 1))
    with pytest.raises(NotMember):
        tp_open_witness(e, identity())
    with pytest.raises(InfiniteSupport):
        tp_open_witness(ConjEq(identity(), sigma()), sigma())
    with pytest.raises(WitnessError):
        tp_open_witness(SupportIn(frozenset({0, 1})), transposition(0, 1))


def test_tp_open_witness_pins_membership(rng):
    # every permutation satisfying the returned constraints is a member
    for _ in range(60):
        a = random_finite_perm(rng, 6)
        b = random_involution(rng, 6)
        e = ConjNeq(a, b)
        f = random_perm_mixed(rng)
        if not member(e, f):
            continue
        pairs = tp_open_witness(e, f)
        assert pairs == sorted(set(pairs))
        for p, q in pairs:
            assert f.apply(p) == q
        g = perm_with_pairs(pairs)
        assert member(e, g)
        # adding moves away from the pinned points cannot leave the set
        fresh = max([p for p, _ in pairs] + [q for _, q in pairs] + [10]) + 1
        g2 = transposition(fresh, fresh + 1) * g
        assert member(e, g2)


def test_tp_open_witness_intersection():
    e = Intersection((PointFiber(0, 1), FixesAll((5,))))
    assert tp_open_witness(e, transposition(0, 1)) == [(0, 1), (5, 5)]


def test_double_conj_witness(rng):
    for _ in range(40):
        b = random_involution(rng, 6)
        c = random_involution(rng, 6)
        e = DoubleConjNeq(b, c)
        f = random_perm_mixed(rng)
        if not member(e, f):
            continue
        pairs = tp_open_witness(e, f)
        g = perm_with_pairs(pairs)
        assert member(e, g)


def test_conjugation_word_matches_direct_conjugation(rng):
    for _ in range(30):
        b = random_involution(rng, 8)
        w = GroupWord.conj(b)
        f = random_perm_mixed(rng)
        assert eval_word(w, f) == conjugate(f, b)
