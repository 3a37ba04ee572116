import pytest

from permtop import (
    EPSet,
    ResiduePerm,
    commutes,
    conjugate,
    image,
    noncommuting_transposition,
    support,
)
from permtop.errors import (
    BadResidueShift,
    FixedPointGiven,
    IdentityInput,
    NegativeImage,
    NotBijective,
)
from permtop.literals import parse_perm
from permtop.perm import identity, sigma, transposition
from permtop.sampling import random_perm_mixed, random_residue_perm

from conftest import assert_pointwise_equal, brute_moved


def test_apply_basics():
    e = identity()
    assert e.apply(7) == 7
    assert e(0) == 0
    t = transposition(0, 3)
    assert t.apply(0) == 3
    assert t.apply(3) == 0
    assert t.apply(1) == 1
    s = sigma()
    assert [s.apply(x) for x in range(6)] == [1, 0, 3, 2, 5, 4]
    with pytest.raises(ValueError):
        e.apply(-1)


def test_rule_must_be_bijective():
    with pytest.raises(NotBijective):
        ResiduePerm(2, (2, 0))
    with pytest.raises(BadResidueShift):
        ResiduePerm(2, (0, 1))
    with pytest.raises(NegativeImage):
        ResiduePerm(2, (0, 0), {0: -1})
    with pytest.raises(NotBijective):
        # images of 0 and 1 collide
        ResiduePerm(2, (0, 0), {0: 1})
    with pytest.raises(ValueError):
        ResiduePerm(2, (0, 0), {-1: 0})
    with pytest.raises(ValueError):
        ResiduePerm(0, ())
    with pytest.raises(ValueError):
        ResiduePerm(2, (0,))


def test_odd_modulus_is_doubled():
    p = ResiduePerm(3, (1, 1, -2))
    assert p.modulus == 6
    assert p.shifts == (1, 1, -2, 1, 1, -2)
    assert [p.apply(x) for x in range(7)] == [1, 2, 0, 4, 5, 3, 7]
    assert ResiduePerm(1, (0,)) == identity()


def test_canonical_minimal_modulus():
    assert ResiduePerm(4, (1, -1, 1, -1)) == sigma()
    assert ResiduePerm(4, (1, -1, 1, -1)).modulus == 2
    assert ResiduePerm(6, (0,) * 6) == identity()
    mixed = ResiduePerm(4, (2, 0, -2, 0))
    assert mixed.modulus == 4


def test_patch_entries_matching_rule_are_dropped():
    assert ResiduePerm(2, (0, 0), {3: 3}) == identity()
    assert ResiduePerm(2, (1, -1), {0: 1, 1: 0}) == sigma()
    t = ResiduePerm(2, (0, 0), {0: 3, 3: 0, 5: 5})
    assert t == transposition(0, 3)
    assert t.patch == ((0, 3), (3, 0))


def test_compose_follows_right_then_left():
    t01 = transposition(0, 1)
    t12 = transposition(1, 2)
    assert t01 * t12 == ResiduePerm.from_cycles((0, 1, 2))
    assert t12 * t01 == ResiduePerm.from_cycles((0, 2, 1))
    f = random_perm_mixed(__import__("random").Random(5))
    assert f * identity() == f
    assert identity() * f == f


def test_compose_pointwise(rng):
    for _ in range(40):
        f = random_perm_mixed(rng)
        g = random_perm_mixed(rng)
        h = f * g
        for x in range(120):
            assert h.apply(x) == f.apply(g.apply(x))


def test_inverse(rng):
    assert identity().inverse() == identity()
    assert sigma().inverse() == sigma()
    c = ResiduePerm.from_cycles((0, 1, 2))
    assert c.inverse() == ResiduePerm.from_cycles((0, 2, 1))
    for _ in range(25):
        f = random_perm_mixed(rng)
        assert (f * f.inverse()).is_identity()
        assert (f.inverse() * f).is_identity()
        for y in range(80):
            assert f.apply(f.apply_inverse(y)) == y


def test_pow(rng):
    c = ResiduePerm.from_cycles((0, 1, 2))
    assert c**0 == identity()
    assert c**3 == identity()
    assert c**-1 == c.inverse()
    assert sigma() ** 2 == identity()
    f = random_perm_mixed(rng)
    assert f**4 == f * f * f * f
    assert f**-3 == (f.inverse()) ** 3


def test_pow_large_exponents():
    # linear-time powering would not return from these
    assert parse_perm("(0 1)^1000000001") == transposition(0, 1)
    assert parse_perm("(0 1)^1000000000") == identity()
    assert sigma() ** -7 == sigma()
    c = ResiduePerm.from_cycles((0, 1, 2, 3, 4))
    assert c ** (5 * 10**12 + 2) == c * c


def test_pow_matches_repeated_products():
    f = random_residue_perm(__import__("random").Random(11), infinite=True)
    assert not f.has_finite_support()
    product = identity()
    for k in range(10):
        assert f**k == product, k
        assert f**-k == product.inverse(), k
        product = product * f


def test_support(rng):
    assert support(transposition(2, 5)) == EPSet.finite((2, 5))
    assert support(identity()).is_empty()
    tail = sigma() * transposition(0, 1)
    assert support(tail) == EPSet.cofinite((0, 1))
    assert support(tail).complement().is_finite()
    for _ in range(30):
        f = random_perm_mixed(rng)
        got = support(f)
        assert {x for x in range(200) if x in got} == brute_moved(f, 200)


def test_moved_points():
    assert transposition(2, 5).moved_points() == [2, 5]
    assert identity().moved_points() == []
    with pytest.raises(ValueError):
        sigma().moved_points()
    assert sigma().least_moved() == 0
    assert transposition(4, 9).least_moved() == 4
    assert identity().least_moved() is None


def test_equality_and_hash():
    assert sigma() * sigma() == identity()
    assert transposition(0, 1) == transposition(1, 0)
    a = ResiduePerm.from_cycles((0, 1, 2))
    b = transposition(0, 1) * transposition(1, 2)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_commutes():
    t01 = transposition(0, 1)
    assert commutes(sigma(), t01)
    assert not commutes(t01, ResiduePerm.from_cycles((0, 1, 2)))
    assert commutes(t01, transposition(5, 6))
    assert commutes(identity(), sigma())


def test_involutions():
    assert sigma().is_involution()
    assert transposition(0, 1).is_involution()
    assert identity().is_involution()
    assert not ResiduePerm.from_cycles((0, 1, 2)).is_involution()
    f = ResiduePerm.from_cycles((0, 1), (2, 3), (4, 5))
    assert f.is_involution()
    assert f.inverse() == f


def test_involution_iff_self_inverse(rng):
    for _ in range(60):
        f = random_perm_mixed(rng)
        assert f.is_involution() == (f.inverse() == f)


def test_cycles():
    f = ResiduePerm.from_cycles((0, 1, 2), (5, 6))
    assert f.cycles() == [(0, 1, 2), (5, 6)]
    assert identity().cycles() == []
    with pytest.raises(ValueError):
        sigma().cycles()


def test_from_cycles_rejects_repeats():
    with pytest.raises(ValueError):
        ResiduePerm.from_cycles((0, 0, 1))
    with pytest.raises(ValueError):
        ResiduePerm.from_cycles((0, 1), (1, 2))
    assert ResiduePerm.from_cycles((3,)) == identity()
    assert ResiduePerm.from_cycles() == identity()


def test_from_mapping():
    assert ResiduePerm.from_mapping({0: 1, 1: 0}) == transposition(0, 1)
    assert ResiduePerm.from_mapping({}) == identity()
    with pytest.raises(NotBijective):
        ResiduePerm.from_mapping({0: 1, 1: 1})
    with pytest.raises(ValueError):
        ResiduePerm.from_mapping({0: -2})


def test_conjugate_relabels_transpositions(rng):
    for _ in range(40):
        g = random_perm_mixed(rng)
        a, b = rng.sample(range(30), 2)
        assert conjugate(g, transposition(a, b)) == transposition(
            g.apply(a), g.apply(b)
        )


def test_noncommuting_transposition():
    t = noncommuting_transposition(sigma(), 0)
    assert t == transposition(0, 2)
    assert not commutes(sigma(), t)
    with pytest.raises(IdentityInput):
        noncommuting_transposition(identity())
    with pytest.raises(FixedPointGiven):
        noncommuting_transposition(transposition(0, 1), 5)
    u = noncommuting_transposition(transposition(3, 4))
    assert u == transposition(0, 3)
    assert not commutes(transposition(3, 4), u)


def test_noncommuting_transposition_random(rng):
    for _ in range(40):
        f = random_perm_mixed(rng)
        if f.is_identity():
            continue
        t = noncommuting_transposition(f)
        assert not commutes(f, t)


def test_image_is_exact(rng):
    assert image(sigma(), EPSet.evens()) == EPSet.odds()
    assert image(sigma(), EPSet.odds()) == EPSet.evens()
    assert image(transposition(0, 1), EPSet.finite([0])) == EPSet.finite([1])
    for _ in range(25):
        f = random_perm_mixed(rng)
        s = EPSet.residue_class(3, rng.randrange(3)) | EPSet.finite(
            rng.sample(range(40), 3)
        )
        img = image(f, s)
        for y in range(150):
            assert (y in img) == (f.apply_inverse(y) in s)


def test_residue_perm_sampling_stays_bijective(rng):
    # constructor validation would reject anything broken; exercise it
    for _ in range(50):
        f = random_residue_perm(rng)
        assert_pointwise_equal(f * f.inverse(), identity(), 150)


def test_to_literal_shapes():
    assert identity().to_literal() == "id"
    assert sigma().to_literal() == "sigma"
    assert transposition(0, 1).to_literal() == "(0 1)"
    assert ResiduePerm.from_cycles((0, 1, 2), (5, 6)).to_literal() == "(0 1 2)(5 6)"
    assert ResiduePerm(4, (2, 0, -2, 0)).to_literal() == "res[4; 2,0,-2,0]"
    p = ResiduePerm(2, (1, -1), {0: 3, 3: 0, 1: 2, 2: 1})
    assert p.to_literal() == "res[2; 1,-1; patch: 0->3, 1->2, 2->1, 3->0]"


def test_support_properties():
    s = ResiduePerm(4, (2, 0, -2, 0))
    sup = support(s)
    assert sup == EPSet.residue_class(4, 0) | EPSet.residue_class(4, 2)
    assert s.has_finite_support() is False
    assert transposition(1, 2).has_finite_support() is True
