"""Exhaustive ground truth on finite groups.

Finite topologies are Alexandrov: a sub-base family is fully described by
the map g -> min(g), the intersection of generated sets containing g.
Everything downstream (discreteness, comparison, continuity of the group
operations) is decided from that map. Subsets of the group are bitmasks
over element indices; the identity always has index 0.

Group facts are read off whole rows (one-line images or Cayley-table
rows): products compose rows, associativity is row(ab) = row(a) o row(b)
per pair, the inverse of i is where the identity sits in row i, and the
point fibers `tp` come from one pass over the rows. Past validation, the
table is read a whole row or column at a time in C (`_line`), never one
product per method call.

The conjugation families `cent`, `zpp` and `zp` come from the fibers of
x -> x b x^-1, which are the left cosets of the centralizer C(b): one read
of column b gives x b x^-1 for every x. `cent` builds the fibers once per
distinct centralizer, found where row b and column b agree, and `zp`
decides whether d commutes with b as d in C(b), b's own fiber (see
`generate_subbase` for why the `zp` sets are unions of fibers).

Every family `generate_subbase` builds is closed under left translation,
so min(g) = gU with U = min(e): one pass over the family finds U, and one
column read per element of U gives gU for every g (`min_neighborhoods`).
Continuity is read off U too: the translations are continuous iff
min(g) = gU = Ug, and then the group is topological (`ContinuityReport`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress, permutations, repeat
from operator import add, eq, itemgetter, lshift, or_
from pathlib import Path

from . import kernels
from .errors import CarrierMismatch, NotAGroup, SpecMismatch, TooLarge


def mask_bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class FiniteGroup:
    """Validated finite group: a flat Cayley table, the inverses read off
    it, and for S_n the one-line rows as its permutation realization."""

    __slots__ = ("order", "names", "inverse", "_flat", "_rows")

    FILE_ORDER_LIMIT = 200
    # Bound on the table entries the zariski word enumeration computes (and
    # on the masks it can emit): admits S6 at word length 2 (about 2.1e6),
    # refuses S5 at length 3 (about 1.4e7).
    WORD_WORK_LIMIT = 5_000_000

    def __init__(self, order: int, flat: array, names: list[str],
                 rows: list[tuple[int, ...]] | None):
        self.order = order
        self.names = names
        self._flat = flat
        self._rows = rows
        # the inverse of i is the position of the identity in row i
        self.inverse = [flat.index(0, i * order, (i + 1) * order) - i * order
                        for i in range(order)]

    def mul(self, i: int, j: int) -> int:
        return self._flat[i * self.order + j]

    def conj(self, x: int, b: int) -> int:
        return self.mul(self.mul(x, b), self.inverse[x])

    @property
    def has_realization(self) -> bool:
        return self._rows is not None

    def row(self, i: int) -> tuple[int, ...]:
        return self._rows[i]

    @staticmethod
    def symmetric(n: int) -> "FiniteGroup":
        """S_n on {0..n-1}, elements in lexicographic one-line order. The
        table of S7 would hold 25.4M entries, so degrees above 6 are refused."""
        if n > 6:
            raise TooLarge(f"symmetric group degree {n} > 6")
        if n < 1:
            raise ValueError("degree must be positive")
        rows = list(permutations(range(n)))
        index, right = {r: i for i, r in enumerate(rows)}, _composers(rows)
        # composing bijections is associative and the lex-least row is the
        # identity, so unlike a table file this needs no validation
        flat = array("i", [index[rb(a)] for a in rows for rb in right])
        return FiniteGroup(len(rows), flat, ["".join(map(str, r)) for r in rows], rows)

    @staticmethod
    def from_table_text(text: str) -> "FiniteGroup":
        tokens = text.split()
        if not tokens:
            raise NotAGroup("empty table")
        try:
            order = int(tokens[0])
        except ValueError:
            raise NotAGroup(f"bad order line {tokens[0]!r}") from None
        if order < 1:
            raise NotAGroup("order must be positive")
        if order > FiniteGroup.FILE_ORDER_LIMIT:
            raise TooLarge(f"table order {order} > {FiniteGroup.FILE_ORDER_LIMIT}")
        rest = tokens[1:]
        names = [str(i) for i in range(order)]
        if rest and rest[0] == "names:":
            names = rest[1:order + 1]
            if len(names) != order:
                raise NotAGroup("names header shorter than the order")
            rest = rest[order + 1:]
        if len(rest) != order * order:
            raise NotAGroup(f"expected {order * order} entries, got {len(rest)}")
        try:
            entries = [int(t) for t in rest]
        except ValueError as exc:
            raise NotAGroup(f"non-integer entry: {exc}") from None
        if any(e < 0 or e >= order for e in entries):
            raise NotAGroup("entry out of range")
        flat = array("i", entries)
        _validate_table(flat, order)
        return FiniteGroup(order, flat, names, None)

    @staticmethod
    def from_table_file(path: str | Path) -> "FiniteGroup":
        return FiniteGroup.from_table_text(Path(path).read_text())


def _composers(rows: list[tuple[int, ...]]) -> list:
    """Per row b, a -> a o b, (a o b)[x] = a[b[x]]; on one point, a o b = a."""
    return [itemgetter(*b) for b in rows] if len(rows[0]) > 1 else [tuple]


def _validate_table(flat: array, n: int) -> None:
    """The group axioms on whole rows; row(ab) = row(a) o row(b) for a
    pair (a, b) is (ab)c = a(bc) for every c at once."""
    rows = [tuple(flat[i * n:(i + 1) * n]) for i in range(n)]
    cols = list(zip(*rows))
    for j in range(n):
        if rows[0][j] != j:
            raise NotAGroup("index 0 must be a left identity")
        if cols[0][j] != j:
            raise NotAGroup("index 0 must be a right identity")
    full = set(range(n))
    for i in range(n):
        if set(rows[i]) != full:
            raise NotAGroup(f"row {i} is not a permutation")
        if set(cols[i]) != full:
            raise NotAGroup(f"column {i} is not a permutation")
    right = _composers(rows)
    for a, ra in enumerate(rows):
        for b, rb in enumerate(rows):
            rab = rows[ra[b]]
            if rab != right[b](ra):
                c = next(c for c in range(n) if rab[c] != ra[rb[c]])
                raise NotAGroup(f"associativity fails at ({a},{b},{c})")


def build_group(source: str) -> FiniteGroup:
    """`sn:N` for the symmetric group of degree N, `table:PATH` for a
    Cayley-table file."""
    kind, _, arg = source.strip().partition(":")
    if kind == "table" and arg:
        return FiniteGroup.from_table_file(arg)
    if kind != "sn":
        raise NotAGroup(f"bad group spec {source!r}: use sn:N or table:PATH")
    try:
        n = int(arg)
    except ValueError:
        raise NotAGroup(f"bad symmetric-group spec {source!r}") from None
    if n < 1:
        raise NotAGroup(f"bad symmetric-group spec {source!r}: degree must be positive")
    return FiniteGroup.symmetric(n)


# the sub-base families, in the order the reports list them
KINDS = ("tp", "zpp", "zp", "zariski", "cent")


@dataclass(frozen=True)
class SubbaseSpec:
    kind: str  # one of KINDS
    max_word_len: int = 2

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sub-base kind {self.kind!r}")
        if self.kind == "zariski" and self.max_word_len < 1:
            raise ValueError("word length bound must be at least 1")


def _line(g: FiniteGroup, start: int, step: int) -> array:
    """The n table entries from flat position `start` on, `step` apart, in
    one C-level read: row i is (i n, 1), column j is (j, n) and the
    diagonal of squares is (0, n + 1). Past table validation, every row
    and column read goes through here."""
    return g._flat[start:start + g.order * step:step]


def _involutions(g: FiniteGroup) -> list[int]:
    return [b for b, square in enumerate(_line(g, 0, g.order + 1)) if not square]


def _centralizers(g: FiniteGroup) -> list[int]:
    """C(b) as a mask for every b: the x where row b and column b agree."""
    n = g.order
    bits = [1 << x for x in range(n)]
    return [sum(compress(bits, map(eq, _line(g, b * n, 1), _line(g, b, n))))
            for b in range(n)]


def _conj_fibers(g: FiniteGroup, b: int) -> dict[int, int]:
    """d -> {x : x b x^-1 = d} as a mask; these are the left cosets of C(b).
    x b x^-1 is entry (x b, x^-1), so column b locates all n of them."""
    n = g.order
    if n == 1:  # itemgetter of one position returns the bare entry
        return {0: 1}
    conj = itemgetter(*map(add, map(n.__mul__, _line(g, b, n)), g.inverse))(g._flat)
    fibers: dict[int, int] = {}
    for x, d in enumerate(conj):
        fibers[d] = fibers.get(d, 0) | 1 << x
    return fibers


def _translates(n: int, lines) -> list[int]:
    """Per g, the set of the g-th entries across `lines`, as a mask: g U
    for every g when the lines are the columns u of U, U g for the rows."""
    out = [0] * n
    for line in lines:
        out = list(map(or_, out, map(lshift, repeat(1), line)))
    return out


def _word_work(n: int, max_word_len: int) -> int:
    """Admission rule for `word_inequality_masks`: table entries in the
    full enumeration of prefixes, where each of the 2 (2n)^(m-1) prefixes
    with m variable occurrences is a vector of n. The kernel walks only
    the half that starts with x, and extends equal vectors once."""
    return n * sum(2 * (2 * n) ** (m - 1) for m in range(1, max_word_len + 1))


class Subbase(tuple):
    """Sorted sub-base masks that `generate_subbase` built for `group`.

    Only `generate_subbase` builds one, so holding a Subbase certifies the
    family is closed under left translation by `group`; it compares equal
    to the plain tuple of its masks."""

    group: FiniteGroup

    def __new__(cls, *args):
        raise TypeError("only generate_subbase builds a Subbase")


def generate_subbase(group: FiniteGroup, spec: SubbaseSpec) -> Subbase:
    """The full deduplicated sub-base family as sorted bitmasks.

    `cent`, `zpp` and `zp` are read off the conjugation fibers of each b,
    the left cosets a C(b) = {x : x b x^-1 = a b a^-1}, with one column
    read per b: `cent` is every fiber, built once per distinct centralizer
    C(b) (equal centralizers have equal cosets), and `zpp` every complement
    of a fiber of an involution b. The `zp` set
    {x : (x c x^-1) b (x c x^-1)^-1 != b} of involutions b, c is the union
    of the fibers of c whose conjugate d does not commute with b, since
    d b d^-1 = b iff d is in C(b), which is b's own fiber.

    Every family is closed under left translation by s:
      - `tp`: s {x : x(i) = j} = {y : y(i) = s(j)};
      - `cent` and `zpp`: s a C(b) is the coset (sa) C(b), and s maps
        complements to complements;
      - `zp`: the set of (b, c) goes to that of (s b s^-1, c), as s d s^-1
        commutes with s b s^-1 iff d commutes with b;
      - `zariski`: w(s^-1 y) is a word in y with as many variable
        occurrences (s joins the adjacent constant; a leading s^-1 moves to
        the end, as s^-1 v != e iff v s^-1 != e), and constants range over G.
    """
    n = group.order
    full = (1 << n) - 1
    masks: set[int] = set()
    if spec.kind == "tp":
        if not group.has_realization:
            raise SpecMismatch("point fibers need a permutation realization")
        # the fibers of (x, g(x)) over the rows; on S_n none is empty
        point_fibers: dict[tuple[int, int], int] = {}
        for i, row in enumerate(group._rows):
            bit = 1 << i
            for point in enumerate(row):
                point_fibers[point] = point_fibers.get(point, 0) | bit
        masks.update(point_fibers.values())
    elif spec.kind in ("zpp", "zp"):
        fibers = {b: _conj_fibers(group, b) for b in _involutions(group)}
        for fb in fibers.values():
            masks.update(full ^ f for f in fb.values())
        if spec.kind == "zp":
            for b, fb in fibers.items():
                cb = fb[b]
                for fc in fibers.values():
                    m = full
                    for d, f in fc.items():
                        if cb >> d & 1:
                            m ^= f
                    masks.add(m)
    elif spec.kind == "cent":
        seen: set[int] = set()
        for b, cb in enumerate(_centralizers(group)):
            if cb not in seen:
                seen.add(cb)
                masks.update(_conj_fibers(group, b).values())
    else:  # zariski
        work = _word_work(n, spec.max_word_len)
        if work > FiniteGroup.WORD_WORK_LIMIT:
            raise TooLarge(f"zariski sub-base of length {spec.max_word_len} on "
                           f"order {n} computes {work} table entries > "
                           f"{FiniteGroup.WORD_WORK_LIMIT}")
        masks.update(kernels.word_inequality_masks(
            group._flat, n, spec.max_word_len))
    family = tuple.__new__(Subbase, sorted(masks))
    family.group = group
    return family


@dataclass(frozen=True)
class MinNbhdMap:
    """g -> smallest generated open set containing g. Only Alexandrov maps
    are accepted: g in min(g), and min(h) inside min(g) for h in min(g)."""
    order: int
    masks: tuple[int, ...]

    def __post_init__(self):
        if len(self.masks) != self.order:
            raise SpecMismatch(f"{len(self.masks)} masks for order {self.order}")
        for g, m in enumerate(self.masks):
            if m >> self.order or not m >> g & 1 or any(
                    self.masks[h] & ~m for h in mask_bits(m)):
                raise SpecMismatch(f"min({g}) = {m:#b} is not an open set around {g}")


def min_neighborhoods(group: FiniteGroup, family: Subbase) -> MinNbhdMap:
    """min(g) = g U, where U = min(e) is the intersection of the sets that
    hold the identity: the family is closed under left translation, so the
    sets holding g are the g T with e in T. One pass over the family and
    one column read per element of U. Refuses any family `generate_subbase`
    did not build for this group, since the translation is only valid
    there."""
    if not isinstance(family, Subbase) or family.group is not group:
        raise SpecMismatch("minimal neighborhoods need a family that "
                           "generate_subbase built for this group")
    n = group.order
    u = (1 << n) - 1
    for s in family:
        if s & 1:
            u &= s
    return MinNbhdMap(n, tuple(_translates(n, (_line(group, x, n) for x in mask_bits(u)))))


def _check_mask(mask: int, order: int) -> None:
    if mask < 0 or mask >> order:
        raise SpecMismatch(f"mask {mask:#b} is not a set of {order} elements")


def translate_set(group: FiniteGroup, s: int, mask: int, t: int) -> int:
    """{s*x*t : x in mask} as a mask."""
    _check_mask(mask, group.order)
    out = 0
    for x in mask_bits(mask):
        out |= 1 << group.mul(group.mul(s, x), t)
    return out


@dataclass(frozen=True)
class TopologyProps:
    discrete: bool
    t1: bool


def topology_props(nbhd: MinNbhdMap) -> TopologyProps:
    discrete = all(m == 1 << g for g, m in enumerate(nbhd.masks))
    return TopologyProps(discrete, discrete)  # a finite T1 space is discrete


@dataclass(frozen=True)
class Comparison:
    """verdict: equal | first_coarser | first_finer | incomparable.

    Coarser-than holds iff every minimal neighborhood of the finer map is
    inside the coarser one's; witnesses are elements where that fails.
    """
    verdict: str
    not_coarser_witness: int | None
    not_finer_witness: int | None


def compare(first: MinNbhdMap, second: MinNbhdMap) -> Comparison:
    if first.order != second.order:
        raise CarrierMismatch(first.order, second.order)
    not_coarser = next((g for g in range(first.order)
                        if second.masks[g] & ~first.masks[g]), None)
    not_finer = next((g for g in range(first.order)
                      if first.masks[g] & ~second.masks[g]), None)
    if not_coarser is None and not_finer is None:
        verdict = "equal"
    elif not_coarser is None:
        verdict = "first_coarser"
    elif not_finer is None:
        verdict = "first_finer"
    else:
        verdict = "incomparable"
    return Comparison(verdict, not_coarser, not_finer)


@dataclass(frozen=True)
class ContinuityReport:
    """Continuity of x -> ax, xa (sep_mult); x -> xa^-1, ay^-1 (sep_q);
    (x, y) -> xy (joint_mult), xy^-1 (joint_q); x -> xax^-1 (conjugators).

    On a finite group the first four are equal. If min(g) = gU = Ug for all
    g, then hU = min(h) lies in U for h in U, so U is a normal subgroup and
    min(x) min(y)^-1 = xy^-1 U = min(xy^-1). Conversely the joint flags
    restrict to the separate ones, and sep_q, with inversion as its a = e
    case, composes to the translations."""
    sep_mult: bool
    sep_q: bool
    joint_mult: bool
    joint_q: bool
    conjugators: bool

    @property
    def labels(self) -> tuple[str, ...]:
        out = []
        if self.joint_q:
            out.append("topological")
        if self.joint_mult:
            out.append("paratopological")
        if self.sep_q and self.conjugators:
            out.append("[quasi]topological")
        if self.sep_q:
            out.append("quasitopological")
        if self.sep_mult and self.conjugators:
            out.append("[semi]topological")
        if self.sep_mult:
            out.append("semitopological")
        return tuple(out)

    def diagram_consistent(self) -> bool:
        implications = [
            (self.joint_q, self.joint_mult),
            (self.joint_q, self.sep_q),
            (self.joint_q, self.conjugators),
            (self.joint_mult, self.sep_mult),
            (self.sep_q, self.sep_mult),
        ]
        return all(not a or b for a, b in implications)


def classify_continuity(group: FiniteGroup, nbhd: MinNbhdMap) -> ContinuityReport:
    """Translations: a min(x) in min(ax) for all a, x iff min(a) = aU, and
    likewise on the right. Conjugations: v a v^-1 = w b w^-1 with w = vx^-1
    and b = xax^-1, so they are continuous iff w b w^-1 lies in min(b) for
    all b and all w in W = {vx^-1 : v in min(x)}. One column and one row
    read per element of U for the translations, and per w in W, row w and
    column w^-1 give w b w^-1 for every b: O(n^2) entries."""
    n = group.order
    if nbhd.order != n:
        raise CarrierMismatch(n, nbhd.order)
    masks = nbhd.masks
    us = mask_bits(masks[0])
    translations = (list(masks) == _translates(n, (_line(group, u, n) for u in us))
                    == _translates(n, (_line(group, u * n, 1) for u in us)))
    flat, inverse = group._flat, group.inverse
    shifts = {flat[v * n + inverse[x]]
              for x in range(n) for v in mask_bits(masks[x])}
    conjugators = all(
        m >> d & 1
        for w in shifts
        for m, d in zip(masks, map(_line(group, inverse[w], n).__getitem__,
                                   _line(group, w * n, 1))))
    return ContinuityReport(translations, translations, translations,
                            translations, conjugators)
