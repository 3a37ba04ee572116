import random
from math import lcm
from time import perf_counter

import pytest

from permtop import EPSet, ResiduePerm, image, tbeta
from permtop.errors import FiniteSupport, Gap, OddModulus, Overlap
from permtop.perm import identity, sigma, transposition
from permtop.sampling import random_partition, random_residue_perm
from permtop.tbeta import (
    Partition,
    alpha_basic_equivalence,
    disjoint_mover_set,
    infinite_support_stabilizer,
    nbhd_member,
    stabilizes,
    validate_partition,
)


def test_validate_partition():
    part = validate_partition([EPSet.evens(), EPSet.odds()])
    assert isinstance(part, Partition)
    assert part.modulus == 2
    assert len(part.pieces) == 2

    thirds = [EPSet.residue_class(3, r) for r in range(3)]
    assert validate_partition(thirds).modulus == 6

    fin = validate_partition([EPSet.finite([0, 1, 2]), EPSet.cofinite([0, 1, 2])])
    assert fin.modulus == 2


def test_validate_partition_rejections():
    with pytest.raises(Overlap):
        validate_partition([EPSet.evens(), EPSet.evens()])
    with pytest.raises(Gap):
        validate_partition([EPSet.evens()])
    with pytest.raises(Gap):
        validate_partition([])
    with pytest.raises(OddModulus):
        validate_partition([EPSet.naturals()], modulus=3)
    with pytest.raises(ValueError):
        validate_partition([EPSet.evens(), EPSet.odds()], modulus=6)
        validate_partition([EPSet.evens(), EPSet.odds()], modulus=3)
    with pytest.raises(ValueError):
        # declared modulus must be a multiple of every piece's period
        validate_partition([EPSet.residue_class(4, 0),
                            ~EPSet.residue_class(4, 0)], modulus=2)


def reference_validate_partition(pieces):
    """The point scan: every x below the largest threshold plus the
    modulus, counting the pieces that hold it."""
    m = lcm(*(p.modulus for p in pieces))
    if m % 2:
        m *= 2
    for x in range(max(p.threshold for p in pieces) + m):
        owners = sum(1 for p in pieces if x in p)
        if owners == 0:
            raise Gap(x)
        if owners > 1:
            raise Overlap(x)


def _defect(check, pieces):
    try:
        check(pieces)
    except (Gap, Overlap) as exc:
        return type(exc), exc.point
    return None


def _corrupted_partitions(rng):
    """Seeded partitions as they are, with a point dropped from its piece,
    and with a point added to a second piece."""
    for _ in range(150):
        pieces = list(random_partition(rng).pieces)
        yield pieces
        x = rng.randrange(4 * max(p.threshold + p.modulus for p in pieces))
        owner = next(i for i, p in enumerate(pieces) if x in p)
        dropped = pieces[:]
        dropped[owner] = dropped[owner] - EPSet.finite([x])
        yield dropped
        if len(pieces) > 1:
            other = rng.choice([i for i in range(len(pieces)) if i != owner])
            added = pieces[:]
            added[other] = added[other] | EPSet.finite([x])
            yield added


def test_validate_partition_matches_scan():
    seen = set()
    for pieces in _corrupted_partitions(random.Random(12)):
        got = _defect(validate_partition, pieces)
        assert got == _defect(reference_validate_partition, pieces), pieces
        seen.add(got and got[0])
    assert seen == {None, Gap, Overlap}
    # a gap below an overlap, an overlap below a gap, and a later piece
    # overlapping below an earlier one
    for pieces, want in (([EPSet.cofinite([3]), EPSet.finite([7])], (Gap, 3)),
                         ([EPSet.cofinite([7]), EPSet.finite([3])], (Overlap, 3)),
                         ([EPSet.cofinite([3]), EPSet.finite([7]), EPSet.finite([3, 5])],
                          (Overlap, 5))):
        assert _defect(validate_partition, pieces) == want
        assert _defect(reference_validate_partition, pieces) == want


def test_validate_partition_far_corrections():
    # the defects are read off the corrections: a far point costs nothing
    far = 10 ** 6
    start = perf_counter()
    assert validate_partition([EPSet.finite([far]), EPSet.cofinite([far])]).modulus == 2
    assert _defect(validate_partition, [EPSet.cofinite([far])]) == (Gap, far)
    assert _defect(validate_partition, [EPSet.naturals(), EPSet.finite([far])]) == \
        (Overlap, far)
    assert perf_counter() - start < 1.0


def test_partition_lookup():
    part = validate_partition([EPSet.evens(), EPSet.odds()])
    assert [4 in p for p in part.pieces] == [True, False]
    assert [7 in p for p in part.pieces] == [False, True]
    assert part.to_literal() == "part[2; ep[2; 0]; ep[2; 1]]"
    assert part.max_threshold() >= 0


def test_stabilizes():
    part = validate_partition([EPSet.evens(), EPSet.odds()])
    assert stabilizes(identity(), part)
    assert not stabilizes(sigma(), part)
    pair_swap = ResiduePerm(4, (2, 0, -2, 0))
    assert stabilizes(pair_swap, part)
    assert not stabilizes(transposition(0, 1), part)
    assert stabilizes(transposition(0, 2), part)


def test_nbhd_member():
    part = validate_partition([EPSet.evens(), EPSet.odds()])
    assert nbhd_member(sigma(), sigma(), part)
    assert not nbhd_member(transposition(0, 1), sigma(), part)
    # a finite tweak inside one piece preserves both piece images
    assert nbhd_member(sigma() * transposition(0, 2), sigma(), part)
    # but a tweak across pieces shifts the image of the evens off the odds
    assert not nbhd_member(sigma() * transposition(0, 1), sigma(), part)
    assert not nbhd_member(transposition(0, 1) * sigma(), sigma(), part)


def test_disjoint_mover_set_frozen():
    u = disjoint_mover_set(sigma())
    assert u == EPSet.evens()
    assert image(sigma(), u) == EPSet.odds()

    f = ResiduePerm(4, (2, 0, -2, 0))
    u = disjoint_mover_set(f)
    assert u == EPSet.residue_class(4, 0)
    assert image(f, u) == EPSet.residue_class(4, 2)

    with pytest.raises(FiniteSupport):
        disjoint_mover_set(transposition(0, 1))
    with pytest.raises(FiniteSupport):
        disjoint_mover_set(identity())


def test_disjoint_mover_set_random(rng):
    for _ in range(60):
        f = random_residue_perm(rng, infinite=True)
        if f.has_finite_support():
            continue
        u = disjoint_mover_set(f)
        assert u.is_infinite()
        assert u.isdisjoint(image(f, u))
        for x in range(200):
            if x in u:
                assert f.apply(x) not in u


def test_infinite_support_stabilizer_frozen():
    part = validate_partition([EPSet.evens(), EPSet.odds()])
    h = infinite_support_stabilizer(part)
    assert h == ResiduePerm(4, (2, 0, -2, 0))
    assert stabilizes(h, part)
    assert not h.has_finite_support()


def test_infinite_support_stabilizer_with_finite_piece():
    head = EPSet.finite([0, 1, 2])
    part = validate_partition([head, ~head])
    h = infinite_support_stabilizer(part)
    assert stabilizes(h, part)
    assert not h.has_finite_support()
    for p in (0, 1, 2):
        assert h.apply(p) == p
    sup = h.support()
    assert sup.issubset(~head)


def test_infinite_support_stabilizer_random(rng):
    for _ in range(25):
        part = random_partition(rng)
        h = infinite_support_stabilizer(part)
        assert stabilizes(h, part)
        assert not h.has_finite_support()


def test_infinite_support_stabilizer_moves_only_its_piece():
    # the pinned prefix keeps every patched point of the piece's class fixed
    rng = random.Random(124)
    for _ in range(200):
        part = random_partition(rng)
        h = infinite_support_stabilizer(part)
        piece = next(p for p in part.pieces if p.is_infinite())
        assert h.support().issubset(piece), part
        assert stabilizes(h, part), part


def test_alpha_basic_equivalence():
    assert alpha_basic_equivalence((0, 1))
    assert alpha_basic_equivalence(())
    assert alpha_basic_equivalence((0, 1, 2))


def test_alpha_basic_equivalence_tells_a_wrong_neighborhood_apart(monkeypatch):
    # a neighbourhood that compares only the first piece's image misses the
    # battery's permutations that fix 0 but move 1
    monkeypatch.setattr(tbeta, "nbhd_member", lambda g, f, part: (
        image(g, part.pieces[0]) == image(f, part.pieces[0])))
    assert not alpha_basic_equivalence((0, 1))


def test_alpha_basic_equivalence_examples():
    # singleton pieces make the basic neighborhood the pointwise stabilizer
    from permtop.subbase import FixesAll, member

    pieces = [EPSet.finite([0]), EPSet.finite([1]), EPSet.cofinite([0, 1])]
    part = validate_partition(pieces)
    fixes = FixesAll((0, 1))
    for g in (transposition(0, 1), transposition(5, 6), sigma(), identity()):
        assert nbhd_member(g, identity(), part) == member(fixes, g)
