import pytest

from permtop import conjugate
from permtop.errors import (
    BadCardinality,
    EqualInputs,
    IdentityInput,
    InfiniteSupport,
    NotInvolution,
    PointNotInSupport,
    PointwiseFixed,
    SupportTooLarge,
    SupportTooSmall,
    TooLarge,
)
from permtop.perm import from_cycles, identity, sigma, transposition
from permtop.sampling import random_finite_perm, random_involution, random_perm_mixed
from permtop.subbase import ConjNeq, Intersection, member
from permtop.witness import (
    EscapeInstance,
    InjectiveTable,
    closed_ball_witness,
    escape_witness,
    ISOLATION_SUPPORT_LIMIT,
    isolation_witness,
    point_support_witness,
    stabilizer_closed_witness,
    t1_separator,
)


def test_t1_separator_frozen():
    e = t1_separator(identity(), transposition(0, 1))
    assert e == ConjNeq(identity(), transposition(0, 2))
    assert member(e, transposition(0, 1))
    assert not member(e, identity())
    with pytest.raises(EqualInputs):
        t1_separator(sigma(), sigma())


def test_t1_separator_random(rng):
    for _ in range(50):
        f = random_perm_mixed(rng)
        g = random_perm_mixed(rng)
        if f == g:
            continue
        e = t1_separator(f, g)
        assert member(e, g)
        assert not member(e, f)


def test_stabilizer_closed_witness():
    c = from_cycles((0, 1, 2))
    e = stabilizer_closed_witness(c, (0, 1, 2))
    assert isinstance(e, ConjNeq)
    assert member(e, c)
    # anything fixing the three points stays outside
    assert not member(e, identity())
    assert not member(e, transposition(5, 6))
    with pytest.raises(PointwiseFixed):
        stabilizer_closed_witness(transposition(5, 6), (0, 1, 2))
    with pytest.raises(BadCardinality):
        stabilizer_closed_witness(c, (0, 1))
    with pytest.raises(BadCardinality):
        stabilizer_closed_witness(c, (0, 1, 2, 3))


def test_stabilizer_closed_witness_random(rng):
    pts = (0, 1, 2)
    for _ in range(40):
        f = random_perm_mixed(rng)
        if all(f.apply(p) == p for p in pts):
            continue
        e = stabilizer_closed_witness(f, pts)
        assert member(e, f)
        g = random_finite_perm(rng, 9)
        if all(g.apply(p) == p for p in pts):
            assert not member(e, g)


def test_escape_instance_validation():
    with pytest.raises(IdentityInput):
        EscapeInstance(((identity(), identity()),), 0)
    with pytest.raises(NotInvolution):
        EscapeInstance(((from_cycles((0, 1, 2)), identity()),), 0)
    with pytest.raises(ValueError):
        EscapeInstance(((transposition(0, 1), identity()),), -1)
    inst = EscapeInstance(
        ((transposition(0, 1), identity()), (sigma(), identity())), 5
    )
    # pairs keep the caller's order; k counts the infinite-support ones
    assert inst.pairs[0][0] == transposition(0, 1)
    assert inst.k == 1
    assert inst.anchor == 5


def test_escape_witness_takes_the_infinite_support_pairs_first():
    finite = (transposition(0, 1), identity())
    infinite = (sigma(), identity())
    assert escape_witness(EscapeInstance((finite, infinite), 5)) == \
        escape_witness(EscapeInstance((infinite, finite), 5)) == \
        from_cycles((0, 2, 1, 3, 5, 4, 7))


def test_escape_witness_frozen():
    inst = EscapeInstance(((transposition(0, 1), identity()),), 5)
    u = escape_witness(inst)
    assert u == from_cycles((0, 2), (1, 3), (4, 5))
    assert conjugate(u, transposition(0, 1)) == transposition(2, 3)
    assert u.apply(5) == 4


def test_escape_witness_contract(rng):
    # u moves the anchor and conjugates every b_i off its paired g_i
    for _ in range(30):
        rows = []
        for _ in range(rng.randrange(1, 4)):
            b = random_involution(rng, 8)
            g = random_perm_mixed(rng)
            rows.append((b, g))
        anchor = rng.randrange(10)
        inst = EscapeInstance(tuple(rows), anchor)
        u = escape_witness(inst)
        assert u.has_finite_support()
        assert u.apply(anchor) != anchor
        for b, g in inst.pairs:
            assert conjugate(u, b) != g


def test_escape_witness_sigma_row():
    inst = EscapeInstance(((sigma(), identity()),), 0)
    u = escape_witness(inst)
    assert u.has_finite_support()
    assert u.apply(0) != 0
    assert conjugate(u, sigma()) != identity()


def test_injective_table():
    t = InjectiveTable(
        (0, 1), 1, (((0, 0), 2), ((0, 1), 3), ((1, 0), 4), ((1, 1), 5))
    )
    assert t(0, 1) == 3
    assert t(1, 0) == 4
    with pytest.raises(ValueError):
        InjectiveTable((0, 1), 1, (((0, 0), 2), ((0, 1), 3)))
    with pytest.raises(ValueError):
        # collision
        InjectiveTable(
            (0, 1), 1, (((0, 0), 2), ((0, 1), 3), ((1, 0), 2), ((1, 1), 5))
        )
    with pytest.raises(ValueError):
        # image meets the domain
        InjectiveTable(
            (0, 1), 1, (((0, 0), 1), ((0, 1), 3), ((1, 0), 4), ((1, 1), 5))
        )


def test_injective_table_lookup_dict_is_not_a_field():
    mapping = (((0, 0), 2), ((0, 1), 3), ((1, 0), 4), ((1, 1), 5))
    t, u = InjectiveTable((0, 1), 1, mapping), InjectiveTable((0, 1), 1, mapping)
    assert t == u and hash(t) == hash(u)
    assert repr(t) == f"InjectiveTable(domain=(0, 1), levels=1, mapping={mapping!r})"
    assert [t(a, k) for (a, k), _ in mapping] == [2, 3, 4, 5]


def test_closed_ball_witness_frozen():
    c = from_cycles((0, 1, 2))
    expr, table = closed_ball_witness(c, 2)
    assert isinstance(expr, Intersection)
    assert len(expr.parts) == 9
    entries = dict(table.mapping)
    assert set(entries) == {(a, k) for a in (0, 1, 2) for k in (0, 1, 2)}
    assert set(entries.values()) == set(range(3, 12))
    assert table.levels == 2
    assert member(expr, c)
    assert not member(expr, identity())
    assert not member(expr, transposition(0, 1))


def test_closed_ball_witness_excludes_small_support(rng):
    c = from_cycles((0, 1, 2), (4, 5))
    expr, _ = closed_ball_witness(c, 3)
    assert member(expr, c)
    for _ in range(60):
        g = random_finite_perm(rng, 8)
        if g.has_finite_support() and len(g.moved_points()) <= 3:
            assert not member(expr, g)


def test_closed_ball_witness_at_radius_zero():
    # the ball of radius 0 is {id}: one factor per moved point of g
    t = transposition(0, 1)
    expr, table = closed_ball_witness(t, 0)
    assert len(expr.parts) == 2
    assert table.levels == 0
    assert dict(table.mapping) == {(0, 0): 2, (1, 0): 3}
    assert member(expr, t)
    assert not member(expr, identity())
    with pytest.raises(SupportTooSmall):
        closed_ball_witness(identity(), 0)


def test_closed_ball_witness_errors():
    with pytest.raises(InfiniteSupport):
        closed_ball_witness(sigma(), 2)
    with pytest.raises(SupportTooSmall):
        closed_ball_witness(transposition(0, 1), 2)
    with pytest.raises(SupportTooSmall) as caught:
        closed_ball_witness(from_cycles((0, 1, 2)), 3)
    # the error names the support size and the size a witness needs
    assert caught.value.size == 3
    assert str(caught.value) == "support has 3 points, need 4"


def test_point_support_witness_frozen():
    expr = point_support_witness(transposition(0, 1), 0, 2)
    assert isinstance(expr, Intersection)
    bs = {part.b for part in expr.parts}
    assert bs == {transposition(0, 2), transposition(0, 3), transposition(0, 4)}
    assert member(expr, transposition(0, 1))
    assert not member(expr, transposition(2, 3))
    assert not member(expr, identity())


def test_point_support_witness_errors():
    with pytest.raises(PointNotInSupport):
        point_support_witness(transposition(0, 1), 5, 2)
    with pytest.raises(SupportTooLarge, match="support has 3 points, bound is 2"):
        point_support_witness(from_cycles((0, 1, 2)), 0, 2)
    with pytest.raises(SupportTooLarge, match="support is infinite, bound is 2"):
        point_support_witness(sigma(), 0, 2)


def test_point_support_witness_random(rng):
    for _ in range(30):
        g = random_finite_perm(rng, 7)
        if g.is_identity():
            continue
        moved = g.moved_points()
        n = len(moved)
        x = moved[rng.randrange(len(moved))]
        expr = point_support_witness(g, x, n)
        assert member(expr, g)


def test_isolation_witness():
    expr, cands = isolation_witness(transposition(0, 1))
    assert cands == [transposition(0, 1)]
    assert member(expr, transposition(0, 1))

    c = from_cycles((0, 1, 2))
    expr, cands = isolation_witness(c)
    assert set(cands) == {c, c.inverse()}
    assert member(expr, c)
    assert member(expr, c.inverse())
    assert not member(expr, identity())
    assert not member(expr, transposition(0, 1))

    expr, cands = isolation_witness(identity())
    assert cands == [identity()]
    assert member(expr, identity())

    with pytest.raises(InfiniteSupport):
        isolation_witness(sigma())


def test_isolation_refuses_large_supports_before_scanning(monkeypatch):
    def no_scan(points):
        raise AssertionError("scanned the permutations of the support")

    monkeypatch.setattr("permtop.witness.permutations", no_scan)
    with pytest.raises(TooLarge, match="isolation support of 12 points > 8"):
        isolation_witness(from_cycles(tuple(range(12))))
    # the bound itself is admitted
    monkeypatch.setattr("permtop.witness.permutations", lambda points: iter(()))
    assert isolation_witness(from_cycles(tuple(range(ISOLATION_SUPPORT_LIMIT))))[1] == []


def test_isolation_witness_random(rng):
    # members of the expression permute the support of g within itself
    for _ in range(10):
        g = random_finite_perm(rng, 5)
        if g.is_identity():
            continue
        expr, cands = isolation_witness(g)
        assert g in cands
        for h in cands:
            assert member(expr, h)
            assert set(h.moved_points() or []) <= set(g.moved_points())
