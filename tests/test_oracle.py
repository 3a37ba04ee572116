import random
from array import array

import pytest

from conftest import cyclic_table_text, dihedral_table_text, reference_inverses
from permtop.errors import CarrierMismatch, NotAGroup, SpecMismatch, TooLarge
from permtop.oracle import (
    _validate_table,
    ContinuityReport,
    FiniteGroup,
    MinNbhdMap,
    Subbase,
    SubbaseSpec,
    build_group,
    classify_continuity,
    compare,
    generate_subbase,
    mask_bits,
    min_neighborhoods,
    topology_props,
    translate_set,
)

KINDS = ("tp", "zpp", "zp", "zariski", "cent")

Z4_TEXT = "4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2"

# order-5 loop: Latin square with two-sided identity, (1*1)*2 != 1*(1*2)
LOOP5_TEXT = """5
0 1 2 3 4
1 0 3 4 2
2 3 4 0 1
3 4 1 2 0
4 2 0 1 3"""


def small_group(source):
    """`sn:k`, or a Cayley table: z4, z6, z12 (cyclic), d8, d12 (dihedral)."""
    texts = {"z4": Z4_TEXT, "z6": cyclic_table_text(6), "z12": cyclic_table_text(12),
             "d8": dihedral_table_text(4), "d12": dihedral_table_text(6)}
    if source in texts:
        return FiniteGroup.from_table_text(texts[source])
    return build_group(source)


@pytest.fixture(scope="module")
def s6():
    return FiniteGroup.symmetric(6)


def test_symmetric_group_basics():
    g = FiniteGroup.symmetric(4)
    assert g.order == 24
    assert g.has_realization
    assert g.names[0] == "0123"
    assert g.mul(0, 5) == 5
    assert g.inverse[0] == 0
    assert FiniteGroup.symmetric(1).order == 1
    for degree in (7, 8, 9):
        with pytest.raises(TooLarge, match=f"degree {degree} > 6"):
            FiniteGroup.symmetric(degree)
    with pytest.raises(ValueError):
        FiniteGroup.symmetric(0)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_symmetric_group_composition_matches_rows(degree):
    g = FiniteGroup.symmetric(degree)
    # one-line images under lexicographic indexing
    assert g.row(0) == tuple(range(degree))
    assert g.row(g.order - 1) == tuple(reversed(range(degree)))
    for i in range(g.order):
        for j in range(g.order):
            ri, rj = g.row(i), g.row(j)
            assert g.row(g.mul(i, j)) == tuple(ri[rj[x]] for x in range(degree))
    for i in range(g.order):
        assert g.mul(i, g.inverse[i]) == 0
    assert g.inverse == reference_inverses(g._flat, g.order)


def test_from_table_text_valid():
    g = FiniteGroup.from_table_text(Z4_TEXT)
    assert g.order == 4
    assert g.mul(1, 3) == 0
    assert g.inverse[1] == 3
    assert not g.has_realization
    named = FiniteGroup.from_table_text("2 names: e a 0 1 1 0")
    assert named.names == ["e", "a"]


def test_from_table_text_rejections():
    with pytest.raises(NotAGroup):
        FiniteGroup.from_table_text("")
    with pytest.raises(NotAGroup):
        FiniteGroup.from_table_text("x")
    with pytest.raises(NotAGroup):
        FiniteGroup.from_table_text("2 0 1 1")
    with pytest.raises(NotAGroup):
        FiniteGroup.from_table_text("2 0 1 1 2")
    with pytest.raises(NotAGroup):
        # rows must be permutations
        FiniteGroup.from_table_text("2 0 1 1 1")
    with pytest.raises(NotAGroup, match="associat"):
        FiniteGroup.from_table_text(LOOP5_TEXT)
    with pytest.raises(NotAGroup):
        FiniteGroup.from_table_text("2 names: e 0 1 1 0")
    with pytest.raises(TooLarge):
        FiniteGroup.from_table_text("201\n0")


@pytest.mark.parametrize("source", ["z4", "z6", "z12", "d8", "d12", "c200"])
def test_table_inverses_match_search(source):
    # the position of the identity in each row, against the search for it
    if source == "c200":
        group = FiniteGroup.from_table_text(cyclic_table_text(200))
    else:
        group = small_group(source)
    assert group.inverse == reference_inverses(group._flat, group.order)


def reference_validate_table(flat, n):
    """The entry-by-entry axiom check: associativity one triple at a time."""
    for j in range(n):
        if flat[j] != j:
            raise NotAGroup("index 0 must be a left identity")
        if flat[j * n] != j:
            raise NotAGroup("index 0 must be a right identity")
    full = set(range(n))
    for i in range(n):
        if {flat[i * n + j] for j in range(n)} != full:
            raise NotAGroup(f"row {i} is not a permutation")
        if {flat[j * n + i] for j in range(n)} != full:
            raise NotAGroup(f"column {i} is not a permutation")
    for a in range(n):
        for b in range(n):
            ab = flat[a * n + b]
            for c in range(n):
                if flat[ab * n + c] != flat[a * n + flat[b * n + c]]:
                    raise NotAGroup(f"associativity fails at ({a},{b},{c})")


def _random_reduced_latin_square(rng, n):
    """A Latin square whose first row and column read 0..n-1, filled cell by
    cell with the candidates in random order, backtracking on a dead end."""
    sq = [[j if i == 0 else i if j == 0 else None for j in range(n)]
          for i in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(sq[i][:j]) | {sq[r][j] for r in range(i)}
        candidates = [v for v in range(n) if v not in used]
        rng.shuffle(candidates)
        for v in candidates:
            sq[i][j] = v
            if fill(k + 1):
                return True
        sq[i][j] = None
        return False

    assert fill(0)
    return array("i", [v for row in sq for v in row])


def _corrupted_tables(rng):
    """Group tables with two entries swapped or an identity entry changed,
    and reduced Latin squares, most of them not associative."""
    for source in ("sn:3", "sn:4", "z4", "z6", "z12", "d8", "d12"):
        group = small_group(source)
        flat, n = group._flat, group.order
        for _ in range(20):
            out = array("i", flat)
            p, q = rng.sample(range(n * n), 2)
            out[p], out[q] = out[q], out[p]
            yield out, n
            out = array("i", flat)
            j = rng.randrange(n)
            p = rng.choice((j, j * n))
            out[p] = rng.choice([v for v in range(n) if v != out[p]])
            yield out, n
    for n in (1, 2) + (3, 4, 5, 6) * 15:
        yield _random_reduced_latin_square(rng, n), n


def _outcome(check, flat, n):
    try:
        check(flat, n)
    except NotAGroup as exc:
        return exc.reason
    return None


def test_validate_table_matches_reference():
    # the checks fire in the same order, so every rejection names the same
    # first defect, the least failing triple for associativity
    seen = set()
    for flat, n in _corrupted_tables(random.Random(10)):
        got = _outcome(_validate_table, flat, n)
        assert got == _outcome(reference_validate_table, flat, n), (list(flat), n)
        seen.add(got.split()[0] if got else None)
    assert seen == {None, "index", "row", "column", "associativity"}


def test_build_group(tmp_path):
    assert build_group("sn:4").order == 24
    p = tmp_path / "sn_z4.txt"
    p.write_text(Z4_TEXT)
    assert build_group(f"table:{p}").order == 4
    # one spelling each: no sn(N), no bare path, even one that starts with sn
    for spec in ("sn:zzz", "sn(4)", "sn4", str(p), "sn_z4.txt", ""):
        with pytest.raises(NotAGroup):
            build_group(spec)
    # an empty table path is a bad spec, not a read of the directory "."
    with pytest.raises(NotAGroup, match=r"bad group spec 'table:': use sn:N or table:PATH"):
        build_group("table:")
    with pytest.raises(TooLarge, match="degree 7 > 6"):
        build_group("sn:7")


def test_subbase_spec():
    assert SubbaseSpec("tp").kind == "tp"
    assert SubbaseSpec("zariski", max_word_len=3).max_word_len == 3
    with pytest.raises(ValueError):
        SubbaseSpec("nope")
    with pytest.raises(ValueError):
        SubbaseSpec("zariski", max_word_len=0)


def test_point_fiber_subbase_on_s3():
    g = FiniteGroup.symmetric(3)
    fam = generate_subbase(g, SubbaseSpec("tp"))
    assert len(fam) == 9
    assert all(bin(m).count("1") == 2 for m in fam)
    nbhd = min_neighborhoods(g, fam)
    assert nbhd.masks == tuple(1 << i for i in range(6))


def test_conjugation_subbase_on_s3():
    g = FiniteGroup.symmetric(3)
    fam = generate_subbase(g, SubbaseSpec("zpp"))
    assert 0 in fam
    # {x : x (01) x^-1 != (12)} holds exactly at indices 0, 1, 2, 4
    assert 0b010111 in fam
    nbhd = min_neighborhoods(g, fam)
    props = topology_props(nbhd)
    assert props.discrete and props.t1


def test_zariski_subbase_on_s3():
    g = FiniteGroup.symmetric(3)
    fam = generate_subbase(g, SubbaseSpec("zariski", max_word_len=1))
    assert fam == tuple(sorted(63 ^ (1 << i) for i in range(6)))


def test_subbase_guards(s6, monkeypatch):
    table_only = FiniteGroup.from_table_text(Z4_TEXT)
    with pytest.raises(SpecMismatch):
        generate_subbase(table_only, SubbaseSpec("tp"))
    # the word enumeration is refused before it starts:
    # about 1.4e7 table entries on S5 and 3e9 on S6 at length 3; S6 at
    # length 2 (about 2.1e6) is admitted
    calls = []

    def no_masks(mul, n, max_vars):
        calls.append((n, max_vars))
        return []

    monkeypatch.setattr("permtop.oracle.kernels.word_inequality_masks", no_masks)
    for group in (FiniteGroup.symmetric(5), s6):
        with pytest.raises(TooLarge, match="zariski"):
            generate_subbase(group, SubbaseSpec("zariski", max_word_len=3))
    assert calls == []
    assert generate_subbase(s6, SubbaseSpec("zariski", max_word_len=2)) == ()
    assert calls == [(720, 2)]


def reference_point_fibers(group):
    """The d^2 scan: one pass of `row` calls over the group per pair of
    points (x, y)."""
    n, degree = group.order, len(group.row(0))
    masks = set()
    for x in range(degree):
        for y in range(degree):
            m = 0
            for i in range(n):
                if group.row(i)[x] == y:
                    m |= 1 << i
            masks.add(m)
    return tuple(sorted(masks))


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
def test_point_fibers_match_reference(degree):
    group = FiniteGroup.symmetric(degree)
    assert generate_subbase(group, SubbaseSpec("tp")) == reference_point_fibers(group)


def reference_conj_family(group, kind):
    """The O(n^3) scans: one pass over the group per pair (a, b) for `cent`
    and `zpp`, and per pair of involutions (b, c) for the rest of `zp`."""
    n = group.order
    masks = set()
    if kind in ("zpp", "zp"):
        invs = [b for b in range(n) if group.mul(b, b) == 0]
        for b in invs:
            for a in range(n):
                rhs = group.conj(a, b)
                m = 0
                for x in range(n):
                    if group.conj(x, b) != rhs:
                        m |= 1 << x
                masks.add(m)
        if kind == "zp":
            for b in invs:
                for c in invs:
                    m = 0
                    for x in range(n):
                        d = group.conj(x, c)
                        if group.conj(d, b) != b:
                            m |= 1 << x
                    masks.add(m)
    else:  # cent
        for b in range(n):
            for a in range(n):
                rhs = group.conj(a, b)
                m = 0
                for x in range(n):
                    if group.conj(x, b) == rhs:
                        m |= 1 << x
                masks.add(m)
    return tuple(sorted(masks))


@pytest.mark.parametrize("source", ["sn:1", "sn:2", "sn:3", "sn:4", "sn:5",
                                    "z4", "z6", "d8"])
@pytest.mark.parametrize("kind", ["cent", "zpp", "zp"])
def test_conjugation_families_match_reference(source, kind):
    group = small_group(source)
    assert generate_subbase(group, SubbaseSpec(kind)) == \
        reference_conj_family(group, kind)


def test_zpp_on_s6(s6):
    # min(e) under zpp is the centralizer of the involutions, which is
    # trivial in S6, and the topology is discrete
    n = s6.order
    invs = [b for b in range(n) if s6.mul(b, b) == 0]
    assert len(invs) == 76
    cent_invs = sum(1 << x for x in range(n)
                    if all(s6.mul(x, b) == s6.mul(b, x) for b in invs))
    assert cent_invs == 1
    nbhd = min_neighborhoods(s6, generate_subbase(s6, SubbaseSpec("zpp")))
    assert nbhd.masks[0] == cent_invs
    assert topology_props(nbhd).discrete


def test_all_subbases_discrete_on_s4():
    g = FiniteGroup.symmetric(4)
    for kind in ("tp", "zpp", "zp", "cent"):
        nbhd = min_neighborhoods(g, generate_subbase(g, SubbaseSpec(kind)))
        assert topology_props(nbhd).discrete, kind


def test_zariski_matches_point_fibers_on_s4():
    g = FiniteGroup.symmetric(4)
    tp = min_neighborhoods(g, generate_subbase(g, SubbaseSpec("tp")))
    za = min_neighborhoods(g, generate_subbase(g, SubbaseSpec("zariski", max_word_len=2)))
    assert compare(tp, za).verdict == "equal"


def reference_min_neighborhoods(group, family):
    """The n |family| probe: min(g) is the intersection of the sets that
    hold g, for any family at all."""
    n = group.order
    full = (1 << n) - 1
    out = []
    for g in range(n):
        acc = full
        probe = 1 << g
        for s in family:
            if s & probe:
                acc &= s
        out.append(acc)
    return MinNbhdMap(n, tuple(out))


def _families(group, max_word_len=4):
    """(spec, family) for every kind, `tp` only on permutation groups and
    `zariski` at each length up to `max_word_len` that the word-work limit
    admits."""
    kinds = (["tp"] if group.has_realization else []) + ["zpp", "zp", "cent"]
    specs = [SubbaseSpec(k) for k in kinds]
    specs += [SubbaseSpec("zariski", length) for length in range(1, max_word_len + 1)]
    for spec in specs:
        try:
            yield spec, generate_subbase(group, spec)
        except TooLarge:
            assert spec.kind == "zariski" and spec.max_word_len > 2


@pytest.mark.parametrize("source", ["sn:1", "sn:2", "sn:3", "sn:4", "sn:5",
                                    "z4", "z6", "z12", "d8", "d12"])
def test_min_neighborhoods_match_reference(source):
    group = small_group(source)
    for spec, family in _families(group):
        assert min_neighborhoods(group, family) == \
            reference_min_neighborhoods(group, family), spec


def test_min_neighborhoods_on_s6(s6, monkeypatch):
    # one pass over the family and at most 2 n |U| products; the reference
    # probe is skipped on cent (27,710 sets) and zariski (66,051 sets),
    # where it takes seconds
    passes = [0]

    def counted_iter(self, it=tuple.__iter__):
        passes[0] += 1
        return it(self)

    maps = {}
    for kind in KINDS:
        family = generate_subbase(s6, SubbaseSpec(kind, 2))
        passes[0] = 0
        monkeypatch.setattr(Subbase, "__iter__", counted_iter)
        calls = _count_products(monkeypatch)
        nbhd = maps[kind] = min_neighborhoods(s6, family)
        assert calls[0] <= 2 * s6.order * bin(nbhd.masks[0]).count("1"), kind
        assert passes[0] == 1, kind
        monkeypatch.undo()
        if kind not in ("cent", "zariski"):
            assert nbhd == reference_min_neighborhoods(s6, family), kind
        assert topology_props(nbhd).discrete, kind
    for a in KINDS:
        for b in KINDS:
            assert compare(maps[a], maps[b]).verdict == "equal", (a, b)


def test_min_neighborhoods_refuses_foreign_families():
    g = FiniteGroup.symmetric(3)
    family = generate_subbase(g, SubbaseSpec("tp"))
    assert family == tuple(family)
    for foreign in (tuple(family), list(family), set(family)):
        with pytest.raises(SpecMismatch):
            min_neighborhoods(g, foreign)
    # built for another group of the same order
    with pytest.raises(SpecMismatch):
        min_neighborhoods(FiniteGroup.symmetric(3), family)
    with pytest.raises(TypeError):
        Subbase(family)


def is_open(nbhd, mask):
    """Reference: the minimal neighbourhood of each point of the mask lies inside it."""
    return all(not nbhd.masks[g] & ~mask for g in range(nbhd.order) if mask >> g & 1)


def test_min_neighborhoods_are_open():
    g = FiniteGroup.symmetric(3)
    fam = generate_subbase(g, SubbaseSpec("zpp"))
    nbhd = min_neighborhoods(g, fam)
    for i in range(6):
        assert nbhd.masks[i] >> i & 1
        assert is_open(nbhd, nbhd.masks[i])
    for mask in fam:
        assert is_open(nbhd, mask)


def test_set_is_open_counterexample():
    full = (1 << 6) - 1
    indiscrete = MinNbhdMap(6, (full,) * 6)
    assert not is_open(indiscrete, 1)
    assert is_open(indiscrete, full)
    assert is_open(indiscrete, 0)
    props = topology_props(indiscrete)
    assert not props.discrete and not props.t1


def test_translate_set():
    g = FiniteGroup.symmetric(3)
    got = translate_set(g, 1, 0b000001, 2)
    # s * {identity} * t = {s * t}
    assert got == 1 << g.mul(g.mul(1, 0), 2)
    assert translate_set(g, 0, 0b101, 0) == 0b101


@pytest.mark.parametrize("mask", [-1, -6, 1 << 6, (1 << 6) | 1])
def test_translate_set_rejects_masks_outside_the_group(mask):
    with pytest.raises(SpecMismatch):
        translate_set(FiniteGroup.symmetric(3), 0, mask, 0)


def test_mask_bits():
    assert mask_bits(0) == []
    assert mask_bits(0b1011) == [0, 1, 3]


def test_compare_verdicts():
    g = FiniteGroup.symmetric(3)
    full = (1 << 6) - 1
    indiscrete = MinNbhdMap(6, (full,) * 6)
    discrete = MinNbhdMap(6, tuple(1 << i for i in range(6)))
    c = compare(indiscrete, discrete)
    assert c.verdict == "first_coarser"
    assert compare(discrete, indiscrete).verdict == "first_finer"
    assert compare(discrete, discrete).verdict == "equal"
    left = MinNbhdMap(2, (0b11, 0b10))
    right = MinNbhdMap(2, (0b01, 0b11))
    c = compare(left, right)
    assert c.verdict == "incomparable"
    assert c.not_coarser_witness is not None
    assert c.not_finer_witness is not None
    with pytest.raises(CarrierMismatch):
        compare(discrete, MinNbhdMap(2, (1, 2)))


def test_classify_continuity_discrete_is_topological():
    g = FiniteGroup.symmetric(3)
    discrete = MinNbhdMap(6, tuple(1 << i for i in range(6)))
    rep = classify_continuity(g, discrete)
    assert rep.sep_mult and rep.sep_q and rep.joint_mult and rep.joint_q
    assert rep.conjugators
    assert "topological" in rep.labels
    assert rep.diagram_consistent()


def test_classify_continuity_frozen_z4():
    g = FiniteGroup.from_table_text(Z4_TEXT)
    # min(0) = {0, 2}, the rest are singletons: translation by 1 sends the
    # cluster at 0 to {1, 3}, never inside min(1) = {1}
    nbhd = MinNbhdMap(4, (0b0101, 0b0010, 0b0100, 0b1000))
    rep = classify_continuity(g, nbhd)
    assert rep.sep_mult is False
    assert rep.sep_q is False
    assert rep.joint_mult is False
    assert rep.joint_q is False
    assert rep.conjugators is True
    assert rep.labels == ()
    assert rep.diagram_consistent()


def test_classify_continuity_indiscrete():
    g = FiniteGroup.from_table_text(Z4_TEXT)
    full = 0b1111
    rep = classify_continuity(g, MinNbhdMap(4, (full,) * 4))
    assert rep.joint_q and rep.labels[0] == "topological"


def test_mismatched_and_non_alexandrov_maps_rejected():
    g = FiniteGroup.symmetric(3)
    with pytest.raises(CarrierMismatch):
        classify_continuity(g, MinNbhdMap(2, (1, 2)))
    bad = [
        (6, (1, 2)),                              # too few masks
        (4, (0b0011, 0b0110, 0b1100, 0b1001)),    # min(1) not inside min(0)
        (2, (0b10, 0b10)),                        # min(0) misses 0
        (2, (0b101, 0b10)),                       # bit beyond the carrier
        (2, (-1, 0b10)),
    ]
    for order, masks in bad:
        with pytest.raises(SpecMismatch):
            MinNbhdMap(order, masks)


def test_min_nbhd_map_accepts_exactly_preorders():
    # min(g) is the down-set of g in the preorder "h in min(g)": accepted
    # iff that relation is reflexive and transitive
    rng = random.Random(6)
    accepted = 0
    for _ in range(400):
        masks = tuple(rng.getrandbits(4) for _ in range(4))
        rel = {(g, h) for g in range(4) for h in range(4) if masks[g] >> h & 1}
        preorder = all((g, g) in rel for g in range(4)) and all(
            (g, k) in rel for g, h in rel for h2, k in rel if h == h2)
        try:
            MinNbhdMap(4, masks)
        except SpecMismatch:
            assert not preorder, masks
        else:
            assert preorder, masks
            accepted += 1
    assert accepted > 0


def reference_classify_continuity(group, nbhd):
    """The O(n^2 |U|^2) scan: every operation is checked to send the
    minimal neighborhoods of its arguments into that of its value."""
    n = group.order
    mul = group.mul
    inv = group.inverse
    masks = nbhd.masks
    bits = [mask_bits(m) for m in masks]

    def unary(fn) -> bool:
        for x in range(n):
            target = masks[fn(x)]
            for u in bits[x]:
                if not (target >> fn(u)) & 1:
                    return False
        return True

    def joint(op) -> bool:
        for x in range(n):
            for y in range(n):
                target = masks[op(x, y)]
                for u in bits[x]:
                    for v in bits[y]:
                        if not (target >> op(u, v)) & 1:
                            return False
        return True

    sep_mult = all(unary(lambda x, a=a: mul(a, x)) and unary(lambda x, a=a: mul(x, a))
                   for a in range(n))
    sep_q = all(unary(lambda x, a=a: mul(x, inv[a])) and unary(lambda y, a=a: mul(a, inv[y]))
                for a in range(n))
    joint_mult = joint(mul)
    joint_q = joint(lambda u, v: mul(u, inv[v]))
    conjugators = all(unary(lambda x, a=a: mul(mul(x, a), inv[x])) for a in range(n))
    return ContinuityReport(sep_mult, sep_q, joint_mult, joint_q, conjugators)


def _cyclic_subgroup(group, c):
    mask, x = 1, c
    while x:
        mask |= 1 << x
        x = group.mul(x, c)
    return mask


def _differential_maps(group, rng):
    """Every sub-base family, the left and the right cosets of every cyclic
    subgroup, and the topologies of random families, both closed under
    left translation and not. A random set is a union of left cosets of a
    random cyclic subgroup H, so that min(e) contains H."""
    n = group.order
    kinds = ["tp"] if group.has_realization else []
    kinds += ["zpp", "zp", "zariski", "cent"]
    maps = [min_neighborhoods(group, generate_subbase(group, SubbaseSpec(k)))
            for k in kinds]
    subgroups = sorted({_cyclic_subgroup(group, c) for c in range(n)})
    for h in subgroups:
        maps.append(MinNbhdMap(n, tuple(translate_set(group, g, h, 0) for g in range(n))))
        maps.append(MinNbhdMap(n, tuple(translate_set(group, 0, h, g) for g in range(n))))

    def random_set(h):
        out = 0
        for x in mask_bits(rng.getrandbits(n) & rng.getrandbits(n)):
            out |= translate_set(group, x, h, 0)
        return out

    # the reference scan is O(n^2 |U|^2), and these U are large
    for _ in range(100 if n <= 8 else 50 if n <= 24 else 0):
        h = rng.choice(subgroups)
        seeds = [random_set(h) for _ in range(rng.randint(1, 3))]
        maps.append(reference_min_neighborhoods(group, seeds))
        maps.append(reference_min_neighborhoods(
            group, {translate_set(group, g, s, 0) for s in seeds for g in range(n)}))
    return maps


@pytest.mark.parametrize("source", ["sn:1", "sn:2", "sn:3", "sn:4", "sn:5",
                                    "z4", "z6", "z12", "d8", "d12"])
def test_classify_continuity_matches_reference(source):
    group = small_group(source)
    maps = _differential_maps(group, random.Random(source))
    if source == "z4":
        maps += [MinNbhdMap(4, (0b0101, 0b0010, 0b0100, 0b1000)),
                 MinNbhdMap(4, (0b1111,) * 4)]
    outcomes = set()
    for nbhd in maps:
        got = classify_continuity(group, nbhd)
        assert got == reference_classify_continuity(group, nbhd), nbhd
        assert got.diagram_consistent()
        outcomes.add(got)
    if group.order > 2:
        # both a group topology and a non-group topology were met
        assert len({rep.joint_q for rep in outcomes}) == 2


def _count_products(monkeypatch):
    calls = [0]
    mul = FiniteGroup.mul

    def counted(self, i, j):
        calls[0] += 1
        return mul(self, i, j)

    monkeypatch.setattr(FiniteGroup, "mul", counted)
    return calls


def test_classify_continuity_indiscrete_order_200(monkeypatch):
    # cyclic of order 200, the largest table file accepted; `cent` is
    # indiscrete on an abelian group (U = G), where the reference scan
    # makes over n^4 = 1.6e9 products
    n = 200
    group = FiniteGroup.from_table_text(cyclic_table_text(n))
    nbhd = min_neighborhoods(group, generate_subbase(group, SubbaseSpec("cent")))
    assert nbhd.masks == ((1 << n) - 1,) * n
    calls = _count_products(monkeypatch)
    rep = classify_continuity(group, nbhd)
    assert rep == ContinuityReport(True, True, True, True, True)
    assert calls[0] <= 8 * n * n


def test_classify_continuity_discrete_s6(s6, monkeypatch):
    nbhd = min_neighborhoods(s6, generate_subbase(s6, SubbaseSpec("tp")))
    assert topology_props(nbhd).discrete
    calls = _count_products(monkeypatch)
    rep = classify_continuity(s6, nbhd)
    assert rep == ContinuityReport(True, True, True, True, True)
    assert calls[0] <= 8 * s6.order
