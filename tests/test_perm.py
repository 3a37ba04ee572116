import copy
import pickle
from math import lcm

import pytest

from permtop import (
    EPSet,
    ResiduePerm,
    commutes,
    conjugate,
    image,
    intertwines,
    noncommuting_transposition,
    support,
)
from permtop.errors import (
    BadResidueShift,
    IdentityInput,
    NegativeImage,
    NotBijective,
)
from permtop.literals import parse_perm
from permtop.perm import from_cycles, from_mapping, identity, sigma, transposition
from permtop.sampling import (random_epset, random_finite_perm, random_involution,
                              random_perm_mixed, random_residue_perm, random_sigma_type)

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
    assert t01 * t12 == from_cycles((0, 1, 2))
    assert t12 * t01 == from_cycles((0, 2, 1))
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
    c = from_cycles((0, 1, 2))
    assert c.inverse() == from_cycles((0, 2, 1))
    for _ in range(25):
        f = random_perm_mixed(rng)
        assert (f * f.inverse()).is_identity()
        assert (f.inverse() * f).is_identity()
        for y in range(80):
            assert f.apply(f.apply_inverse(y)) == y


def test_pow(rng):
    c = from_cycles((0, 1, 2))
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
    c = from_cycles((0, 1, 2, 3, 4))
    assert c ** (5 * 10**12 + 2) == c * c


def test_pow_matches_repeated_products():
    f = random_residue_perm(__import__("random").Random(11), infinite=True)
    assert not f.has_finite_support()
    product = identity()
    for k in range(10):
        assert f**k == product, k
        assert f**-k == product.inverse(), k
        product = product * f


def test_pow_builds_no_throwaway_value(monkeypatch):
    f = ResiduePerm(2, (1, -1), {0: 0, 1: 1})
    count = [0]
    init = ResiduePerm.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ResiduePerm, "__init__", counted)
    assert f ** 1 is f
    assert count[0] == 0
    assert f ** 2 == identity()
    assert count[0] == 1
    assert f ** 0 is identity()
    assert count[0] == 1


@pytest.mark.parametrize("value", [
    transposition(0, 1),
    from_cycles((0, 3, 5), (7, 9)),
    sigma(),
    ResiduePerm(4, (2, 0, -2, 0)) * transposition(0, 5),
])
def test_copy_and_pickle_round_trip(value):
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is ResiduePerm
        assert twin == value and hash(twin) == hash(value)
        assert twin.patch == value.patch
        assert [twin.apply(x) for x in range(30)] == [value.apply(x) for x in range(30)]
    held = {"ball": [value, (value, identity())]}
    assert copy.deepcopy(held) == held


def test_support(rng):
    assert support(transposition(2, 5)) == EPSet.finite((2, 5))
    assert support(identity()).is_empty()
    tail = sigma() * transposition(0, 1)
    assert support(tail) == EPSet.cofinite((0, 1))
    assert not support(tail).complement().is_infinite()
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
    a = from_cycles((0, 1, 2))
    b = transposition(0, 1) * transposition(1, 2)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_hash_is_the_canonical_tuple_hash(rng):
    for _ in range(500):
        f = random_perm_mixed(rng)
        assert hash(f) == hash((f.modulus, f.shifts, f.patch))
        assert hash(f) == hash(f)


def test_identity_is_one_shared_immutable_value():
    e = identity()
    assert e is identity() is identity()
    assert e == ResiduePerm(2, (0, 0)) and e.is_identity()
    with pytest.raises(AttributeError):
        e.modulus = 4
    with pytest.raises(AttributeError):
        e.extra = 1
    assert e.modulus == 2 and e.shifts == (0, 0) and e.patch == ()


def test_redundant_patch_entries_are_canonical(rng):
    for _ in range(500):
        f = random_perm_mixed(rng)
        # entries the rule already gives, over a multiple of the modulus
        extra = [(x, f.apply(x)) for x in rng.sample(range(60), 6)]
        items = list(f.patch) + extra
        rng.shuffle(items)
        g = ResiduePerm(3 * f.modulus, f.shifts * 3, items)
        assert g == f and hash(g) == hash(f)
        assert (g.modulus, g.shifts, g.patch) == (f.modulus, f.shifts, f.patch)
    # a repeated source keeps its last value
    assert ResiduePerm(2, (0, 0), [(0, 5), (0, 1), (1, 0)]) == transposition(0, 1)


def test_commutes():
    t01 = transposition(0, 1)
    assert commutes(sigma(), t01)
    assert not commutes(t01, from_cycles((0, 1, 2)))
    assert commutes(t01, transposition(5, 6))
    assert commutes(identity(), sigma())


def test_involutions():
    assert sigma().is_involution()
    assert transposition(0, 1).is_involution()
    assert identity().is_involution()
    assert not from_cycles((0, 1, 2)).is_involution()
    f = from_cycles((0, 1), (2, 3), (4, 5))
    assert f.is_involution()
    assert f.inverse() == f


def test_involution_iff_self_inverse(rng):
    for _ in range(60):
        f = random_perm_mixed(rng)
        assert f.is_involution() == (f.inverse() == f)


def test_cycles():
    f = from_cycles((0, 1, 2), (5, 6))
    assert f.cycles() == [(0, 1, 2), (5, 6)]
    assert identity().cycles() == []
    with pytest.raises(ValueError):
        sigma().cycles()


def test_from_cycles_rejects_repeats():
    with pytest.raises(ValueError):
        from_cycles((0, 0, 1))
    with pytest.raises(ValueError):
        from_cycles((0, 1), (1, 2))
    assert from_cycles((3,)) == identity()
    assert from_cycles() == identity()


def test_from_mapping():
    assert from_mapping({0: 1, 1: 0}) == transposition(0, 1)
    assert from_mapping({}) == identity()
    with pytest.raises(NotBijective):
        from_mapping({0: 1, 1: 1})
    with pytest.raises(ValueError):
        from_mapping({0: -2})


def test_conjugate_relabels_transpositions(rng):
    for _ in range(40):
        g = random_perm_mixed(rng)
        a, b = rng.sample(range(30), 2)
        assert conjugate(g, transposition(a, b)) == transposition(
            g.apply(a), g.apply(b)
        )


def test_noncommuting_transposition():
    t = noncommuting_transposition(sigma())
    assert t == transposition(0, 2)
    assert not commutes(sigma(), t)
    with pytest.raises(IdentityInput):
        noncommuting_transposition(identity())
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
    assert from_cycles((0, 1, 2), (5, 6)).to_literal() == "(0 1 2)(5 6)"
    assert ResiduePerm(4, (2, 0, -2, 0)).to_literal() == "res[4; 2,0,-2,0]"
    p = ResiduePerm(2, (1, -1), {0: 3, 3: 0, 1: 2, 2: 1})
    assert p.to_literal() == "res[2; 1,-1; patch: 0->3, 1->2, 2->1, 3->0]"


def test_support_properties():
    s = ResiduePerm(4, (2, 0, -2, 0))
    sup = support(s)
    assert sup == EPSet.residue_class(4, 0) | EPSet.residue_class(4, 2)
    assert s.has_finite_support() is False
    assert transposition(1, 2).has_finite_support() is True


# -- constructor against the window scan it replaced --------------------------

def reference_construct(modulus, shifts, patch):
    """The constructor as a full window scan: O(max patch point + modulus +
    max shift), the least offending point named by the scan. Returns the
    canonical (modulus, shifts, patch) or raises."""
    shifts = tuple(shifts)
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    if len(shifts) != modulus:
        raise ValueError(f"need {modulus} shifts, got {len(shifts)}")
    if modulus % 2:
        modulus, shifts = 2 * modulus, shifts * 2
    if {(r + shifts[r]) % modulus for r in range(modulus)} != set(range(modulus)):
        raise BadResidueShift(modulus)
    patch_map = dict(patch)
    for x, y in patch_map.items():
        if x < 0:
            raise ValueError(f"patch source {x} is not a natural")
        if y < 0:
            raise NegativeImage(x, y)
    patch_map = {x: y for x, y in patch_map.items() if y != x + shifts[x % modulus]}
    for d in range(2, modulus + 1, 2):
        if modulus % d == 0 and all(shifts[r] == shifts[r % d] for r in range(modulus)):
            modulus, shifts = d, shifts[:d]
            break
    n0 = 1 + max((max(patch_map), max(patch_map.values())), default=-1) if patch_map else 0
    big = max(abs(s) for s in shifts)
    window = n0 + 2 * modulus + 2 * big
    seen = {}
    for x in range(window):
        y = patch_map.get(x)
        if y is None:
            y = x + shifts[x % modulus]
            if y < 0:
                raise NegativeImage(x, y)
        if y in seen:
            raise NotBijective(y, f"images of {seen[y]} and {x} collide")
        seen[y] = x
    for y in range(window - big):
        if y not in seen:
            raise NotBijective(y, "no preimage")
    return modulus, shifts, tuple(sorted(patch_map.items()))


def _rule(modulus, shifts):
    m = len(shifts)
    src = {(r + shifts[r]) % m: r for r in range(m)}
    return (lambda x: x + shifts[x % m]), (lambda y: y - shifts[src[y % m]])


def random_raw_input(rng):
    """(modulus, shifts, patch items) for the constructor: about half valid.

    The eventual rule is a residue permutation with random whole-period
    jumps, so it may send points below zero or miss some; a valid patch
    (when the counts allow one) sends those points onto the missed ones,
    composed with a random finite rearrangement. Invalid inputs then come
    from perturbing it: a value changed, an entry dropped or added, a value
    made negative, a patch pushed far out, or a broken residue rule.
    """
    m = rng.choice((1, 2, 2, 3, 4, 6))
    rho = list(range(m))
    rng.shuffle(rho)
    jumps = [rng.choice((0, 0, 1, -1, 2, -2)) for _ in range(m)]
    if rng.random() < 0.8:
        jumps[-1] -= sum(jumps)  # zero net flow: some patch can repair it
    shifts = [rho[r] - r + m * jumps[r] for r in range(m)]
    if rng.random() < 0.05:
        shifts = [rng.randint(-3, 3) for _ in range(m)]
    rule = shifts * 2 if m % 2 else shifts
    patch = {}
    if {(r + rule[r]) % len(rule) for r in range(len(rule))} == set(range(len(rule))):
        fwd, back = _rule(len(rule), rule)
        big = max(abs(s) for s in rule)
        sunk = [x for x in range(big) if fwd(x) < 0]
        missed = [y for y in range(big) if back(y) < 0]
        if len(sunk) == len(missed):
            rng.shuffle(missed)
            patch = dict(zip(sunk, missed))
        span = rng.choice((4, 12, 40))
        pts = rng.sample(range(span), rng.randint(0, min(6, span)))
        if rng.random() < 0.1:
            pts = [p + rng.choice((100, 5000)) for p in pts]
        moved = pts[:]
        rng.shuffle(moved)
        f = {x: patch[x] if x in patch else fwd(x) for x in set(pts) | set(patch)}
        patch = {x: f[moved[pts.index(x)]] if x in pts else f[x] for x in f}
    items = list(patch.items())
    roll = rng.random()
    if items and roll < 0.15:
        i = rng.randrange(len(items))
        items[i] = (items[i][0], rng.randrange(2 * max(abs(v) for _, v in items) + 3))
    elif items and roll < 0.25:
        del items[rng.randrange(len(items))]
    elif roll < 0.35:
        items.append((rng.randrange(30), rng.randrange(30)))
    elif roll < 0.38:
        items.append((rng.randrange(30), -rng.randint(1, 3)))
    elif roll < 0.40:
        items.append((-1, 0))
    elif items and roll < 0.45:
        far = rng.choice((1, 1000))
        items = [(x + far, y + far) for x, y in items]
    rng.shuffle(items)
    return m, shifts, items


def _outcome(build, modulus, shifts, items):
    try:
        return build(modulus, shifts, items)
    except ValueError as e:
        return type(e), str(e)


def _fields(modulus, shifts, items):
    f = ResiduePerm(modulus, shifts, items)
    return f.modulus, f.shifts, f.patch


@pytest.mark.parametrize("seed", range(4))
def test_constructor_matches_window_scan(seed):
    rng = __import__("random").Random(seed)
    accepted = rejected = 0
    for _ in range(2500):
        raw = random_raw_input(rng)
        want = _outcome(reference_construct, *raw)
        assert _outcome(_fields, *raw) == want, raw
        if isinstance(want[0], int):
            accepted += 1
        else:
            rejected += 1
    assert accepted > 500 and rejected > 500, (accepted, rejected)


# -- direct conjugation and commutation against the group products -------------

def _partner(rng, f):
    roll = rng.randrange(10)
    if roll == 0:
        return f
    if roll == 1:
        return f * f
    if roll == 2:
        return f.inverse()
    if roll == 3:
        return identity()
    if roll == 4:
        return sigma()
    if roll == 5:
        return random_sigma_type(rng)
    if roll == 6:
        return random_residue_perm(rng, infinite=True)
    if roll == 7:
        return transposition(*rng.sample(range(40, 60), 2))
    return random_perm_mixed(rng)


@pytest.mark.parametrize("seed", range(3))
def test_direct_operations_match_products(seed):
    rng = __import__("random").Random(seed)
    outcomes = set()
    for _ in range(400):
        f = random_perm_mixed(rng)
        g = _partner(rng, f)
        for a, b in ((g, f), (f, g)):
            h = conjugate(a, b)
            assert h == a * b * a.inverse(), (a, b)
            for x in range(60):
                assert h.apply(a.apply(x)) == a.apply(b.apply(x))
        both = commutes(f, g)
        assert both == (f * g == g * f) == commutes(g, f), (f, g)
        outcomes.add(both)
    assert outcomes == {True, False}


@pytest.mark.parametrize("seed", range(2))
def test_intertwines_matches_products(seed):
    """intertwines(f, b, c) == (f b == c f) on 2,500 triples per seed; every
    third c is f b f^-1, so the true branch is exercised."""
    rng = __import__("random").Random(seed)
    outcomes, conjugates, infinite = set(), 0, 0
    for i in range(2500):
        f = random_perm_mixed(rng)
        b = _partner(rng, f) if i % 2 else random_perm_mixed(rng)
        if i % 3 == 0:
            c = conjugate(f, b)
            conjugates += 1
        elif i % 3 == 1:
            # one point off the conjugate, or a partner of it
            a = rng.randrange(30)
            c = conjugate(f, b) * transposition(a, a + rng.choice((1, 2, 50)))
        else:
            c = _partner(rng, b)
        got = intertwines(f, b, c)
        assert got == (f * b == c * f), (f, b, c)
        outcomes.add(got)
        infinite += any(not p.has_finite_support() for p in (f, b, c))
    assert outcomes == {True, False}
    assert 3 * conjugates >= 2500 and infinite > 1000, (conjugates, infinite)


def test_intertwines_checks_the_patch_domain_of_f():
    # f sigma and f f differ only at 1 and 2, the patch domain of f; the
    # other candidate points (sigma^-1 and f^-1 of that domain) are 0 and 3
    f = ResiduePerm(2, (1, -1), {1: 3, 2: 0})
    assert f * sigma() != f * f
    assert not intertwines(f, sigma(), f)


def _involution_candidate(rng):
    """Mixed, finite-involution, sigma-type and residue-swap permutations,
    some conjugated or spoiled by a transposition so both answers occur."""
    roll = rng.randrange(6)
    if roll == 0:
        return random_perm_mixed(rng)
    if roll == 1:
        return random_involution(rng, 12)
    if roll == 2:
        return random_sigma_type(rng)
    if roll == 3:
        return random_residue_perm(rng, infinite=True)
    # a residue rule that swaps classes in pairs, conjugated by finite noise
    m = 2 * rng.randint(1, 4)
    classes = list(range(m))
    rng.shuffle(classes)
    rho = list(range(m))
    for a, b in zip(classes[::2], classes[1::2]):
        if rng.random() < 0.7:
            rho[a], rho[b] = b, a
    u = random_finite_perm(rng, 2 * m + 4)
    f = u * ResiduePerm(m, [rho[r] - r for r in range(m)]) * u.inverse()
    if roll == 5:
        f = f * transposition(*rng.sample(range(2 * m + 4), 2))
    return f


@pytest.mark.parametrize("seed", range(2))
def test_is_involution_matches_product(seed):
    rng = __import__("random").Random(seed)
    outcomes = []
    for _ in range(5000):
        f = _involution_candidate(rng)
        got = f.is_involution()
        assert got == (f * f).is_identity(), f
        outcomes.append(got)
    assert 1000 < sum(outcomes) < 4000, sum(outcomes)


# -- set images against the window scan they replaced ---------------------------

def reference_image(f, s):
    """The image as a window scan over every y below max(thresholds) plus
    max|shift| + 1: O(largest patch or correction point)."""
    m = lcm(f.modulus, s.modulus)
    residues = {(r + f.shifts[r % f.modulus]) % m
                for r in range(m) if r % s.modulus in s.residues}
    window = max(s.threshold, f.patch_threshold) + f.max_shift + 1
    added, removed = [], []
    for y in range(window):
        actual = f.apply_inverse(y) in s
        periodic = y % m in residues
        if actual and not periodic:
            added.append(y)
        elif periodic and not actual:
            removed.append(y)
    return EPSet(m, residues, added=added, removed=removed)


def _image_pair(rng):
    """(f, s): mixed, infinite-rule and sigma-type f, some moved by a far
    transposition; random s, some with far corrections."""
    roll = rng.randrange(4)
    if roll == 0:
        f = random_residue_perm(rng, infinite=True)
    elif roll == 1:
        f = random_sigma_type(rng)
    else:
        f = random_perm_mixed(rng)
    if rng.random() < 0.3:
        a = rng.randrange(40)
        f = f * transposition(a, a + rng.choice((1, 100, 1000)))
    s = random_epset(rng)
    roll = rng.random()
    if roll < 0.2:
        s = s | EPSet.finite([rng.randrange(500, 1500)])
    elif roll < 0.4:
        s = s - EPSet.finite([rng.randrange(500, 1500)])
    elif roll < 0.5:
        s = EPSet.finite(rng.sample(range(60), rng.randint(0, 4)))
    return f, s


@pytest.mark.parametrize("seed", range(4))
def test_image_matches_window_scan(seed):
    rng = __import__("random").Random(seed)
    for _ in range(1000):
        f, s = _image_pair(rng)
        assert image(f, s) == reference_image(f, s), (f, s)


def test_far_points_cost_nothing():
    from time import perf_counter
    start = perf_counter()
    t = transposition(0, 10**7)
    u = transposition(0, 10**7 + 1)
    assert (t * u).apply(10**7) == 0
    assert t.inverse() == t
    assert conjugate(u, t) == transposition(10**7, 10**7 + 1)
    assert not commutes(t, transposition(0, 1))
    assert commutes(t, sigma() * sigma())
    assert intertwines(u, t, transposition(10**7, 10**7 + 1))
    assert image(t, EPSet.finite([0])) == EPSet.finite([10**7])
    assert perf_counter() - start < 1.0
