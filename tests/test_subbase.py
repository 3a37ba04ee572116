from itertools import permutations

import pytest

from permtop import ResiduePerm, conjugate
from permtop.errors import InfiniteSupport, NotInvolution, NotMember, WitnessError
from permtop.perm import from_cycles, from_mapping, identity, sigma, transposition
from permtop.sampling import (random_finite_perm, random_involution, random_perm_mixed,
                              random_sigma_type)
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
from permtop.witness import closed_ball_witness


def perm_with_pairs(pairs):
    """Any permutation honoring every (p, q) constraint, nothing else fixed."""
    m = dict(pairs)
    assert len(set(m.values())) == len(m)
    extra_src = sorted(set(m.values()) - set(m))
    extra_dst = sorted(set(m) - set(m.values()))
    for s, d in zip(extra_src, extra_dst):
        m[s] = d
    return from_mapping(m)


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
    c = from_cycles((0, 1, 2))
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
    c = from_cycles((0, 1, 2))
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


def test_tp_open_witness_pins_word_inequalities():
    # g = f*u agrees with f on every pinned source point, so it stays a
    # member; u runs over every permutation of the free points below 6
    x, y = Var(1), Var(-1)
    words = [(x, Const(transposition(0, 1))), (x, x),
             (x, Const(transposition(0, 1)), y), (x, Const(sigma()), x),
             (x, x, Const(from_cycles((0, 2))))]
    checked = 0
    for f in (sigma(), from_cycles((0, 1, 2)), transposition(1, 3)):
        for letters in words:
            e = WordNeq(GroupWord(letters))
            if not member(e, f):
                continue
            pairs = tp_open_witness(e, f)
            free = [q for q in range(6) if q not in {p for p, _ in pairs}]
            for images in permutations(free):
                u = from_mapping(dict(zip(free, images)))
                g = f * u
                assert all(g.apply(p) == q for p, q in pairs)
                assert member(e, g), (letters, f, u)
            checked += 1
    assert checked >= 10


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


# -- conjugation-set membership against the two-conjugate formulas ----------

def _random_involution(rng):
    """Finite, sigma-type and residue-swap involutions, some conjugated by a
    mixed permutation, and the identity."""
    roll = rng.randrange(5)
    if roll == 0:
        return identity()
    if roll == 1:
        return random_involution(rng, 8)
    if roll == 2:
        return random_sigma_type(rng)
    b = ResiduePerm(4, (2, 0, -2, 0)) if roll == 3 else random_involution(rng, 6)
    return conjugate(random_perm_mixed(rng), b)


def _candidate(rng, a, b):
    """A random f, or one that lands on a b a^-1 (a, a b, a times a far
    transposition when b has finite support)."""
    roll = rng.randrange(4)
    if roll == 0:
        return a
    if roll == 1:
        return a * b
    if roll == 2 and b.has_finite_support():
        return a * transposition(40, 41 + rng.randrange(5))
    return random_perm_mixed(rng)


def test_conjugation_membership_matches_conjugate_formulas(rng):
    seen = set()
    for _ in range(600):
        a, b, c = random_perm_mixed(rng), _random_involution(rng), _random_involution(rng)
        f = _candidate(rng, a, b)
        differs = conjugate(f, b) != conjugate(a, b)
        assert member(ConjNeq(a, b), f) == differs, (a, b, f)
        assert member(ConjEq(a, b), f) == (not differs), (a, b, f)
        g = _candidate(rng, identity(), c) if rng.random() < 0.3 else f
        moves = conjugate(conjugate(g, c), b) != b
        assert member(DoubleConjNeq(b, c), g) == moves, (b, c, g)
        seen.add((differs, moves))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_conjugation_target_is_not_a_field():
    a, t = sigma(), transposition(0, 1)
    for kind in (ConjNeq, ConjEq):
        e = kind(a, t)
        assert e.target == conjugate(a, t) == t  # sigma swaps 0 and 1
        assert e == kind(a, t) and hash(e) == hash(kind(a, t))
        assert repr(e) == f"{kind.__name__}(a=sigma, b=(0 1))"
        with pytest.raises(TypeError):
            kind(a, t, t)
    assert ConjNeq(identity(), t).target is t


def _count_builds(monkeypatch):
    count = [0]
    init = ResiduePerm.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ResiduePerm, "__init__", counted)
    return count


def test_conjugation_membership_build_counts(monkeypatch):
    t, u = transposition(0, 1), transposition(2, 3)
    a = from_cycles((0, 2, 4))
    f, at, h = transposition(0, 3), a * t, from_cycles((1, 2, 3))
    neq, eq, dbl = ConjNeq(a, t), ConjEq(a, t), DoubleConjNeq(t, u)
    g = from_cycles((0, 1, 2), (5, 6))
    ball, _ = closed_ball_witness(g, 2)
    builds = _count_builds(monkeypatch)
    assert member(neq, f) and not member(neq, a) and not member(neq, at)
    assert not member(eq, f) and member(eq, a)
    assert member(ball, g) and not member(ball, f)
    assert builds[0] == 0
    ConjNeq(a=identity(), b=t)
    assert builds[0] == 0
    assert member(dbl, h)
    assert builds[0] == 1
