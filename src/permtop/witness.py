"""Witness-producing constructions behind the separation results.

Each operation returns concrete data (an open-set expression, a finite
table, a finitely supported permutation) whose defining property can be
re-checked directly, independent of how it was built. Wherever the
underlying argument says "choose", the least admissible point is taken,
so outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

from .errors import (
    BadCardinality,
    EqualInputs,
    IdentityInput,
    InfiniteSupport,
    NotInvolution,
    PointNotInSupport,
    PointwiseFixed,
    SupportTooSmall,
    SupportTooLarge,
    TooLarge,
    WitnessError,
)
from .perm import ResiduePerm, from_mapping, identity, noncommuting_transposition, transposition
from .subbase import ConjNeq, Intersection


def t1_separator(f: ResiduePerm, g: ResiduePerm) -> ConjNeq:
    """Sub-basic conjugation set containing g but not f.

    With h = f^-1 g and t a transposition not commuting with h, the set
    {x : x t x^-1 != f t f^-1} misses f trivially and catches g because
    g t g^-1 = f t f^-1 would force h t h^-1 = t.
    """
    if f == g:
        raise EqualInputs()
    return ConjNeq(a=f, b=noncommuting_transposition(f.inverse() * g))


def stabilizer_closed_witness(f: ResiduePerm, points) -> ConjNeq:
    """Sub-basic set containing f and missing every g fixing `points`.

    Takes the least a in points moved by f and the least b in points
    outside {a, f(a)}: t(a, b) commutes with everything supported off the
    three-point set, while f t(a, b) f^-1 moves f(a) and so differs.
    """
    pts = sorted(set(points))
    if len(pts) != 3:
        raise BadCardinality(len(pts), 3)
    moved = [p for p in pts if f.apply(p) != p]
    if not moved:
        raise PointwiseFixed(pts)
    a = moved[0]
    fa = f.apply(a)
    b = next(p for p in pts if p != a and p != fa)
    return ConjNeq(a=identity(), b=transposition(a, b))


@dataclass(frozen=True)
class EscapeInstance:
    """Finitely many conjugation targets to miss, plus a point to move.

    pairs: (f_i, g_i) in the caller's order, every f_i a non-identity
    involution; k counts the infinite-support f_i.
    """
    pairs: tuple[tuple[ResiduePerm, ResiduePerm], ...]
    anchor: int

    def __post_init__(self):
        pairs = tuple((f, g) for f, g in self.pairs)
        for i, (f, _) in enumerate(pairs, start=1):
            if f.is_identity():
                raise IdentityInput(i)
            if not f.is_involution():
                raise NotInvolution(i)
        if self.anchor < 0:
            raise ValueError("anchor must be a natural")
        object.__setattr__(self, "pairs", pairs)

    @property
    def k(self) -> int:
        return sum(1 for f, _ in self.pairs if not f.has_finite_support())


def _least_extension(inj: dict[int, int]) -> ResiduePerm:
    # Close a partial injection to a finitely supported permutation by
    # pairing spare range points with spare domain points in order.
    spare_range = sorted(set(inj.values()) - set(inj))
    spare_domain = sorted(set(inj) - set(inj.values()))
    full = dict(inj)
    full.update(zip(spare_range, spare_domain))
    return from_mapping(full)


def escape_witness(inst: EscapeInstance) -> ResiduePerm:
    """Finitely supported u with u f_i u^-1 != g_i f_i g_i^-1 for all i,
    and u(anchor) != anchor.

    The k infinite-support pairs go first, in their given order. The
    finite tail is neutralized wholesale by displacing a set containing
    all its supports and their g_i-images, so only the first k pairs
    need the inductive point choices.
    """
    k = inst.k
    pairs = sorted(inst.pairs, key=lambda p: p[0].has_finite_support())
    frozen: set[int] = {inst.anchor}
    for f, g in pairs[k:]:
        supp = f.moved_points()
        frozen.update(supp)
        frozen.update(g.apply(p) for p in supp)

    # u0: least injective map of the frozen set off itself. It already
    # settles the finite tail: u f_i u^-1 is supported inside u0(frozen),
    # g_i f_i g_i^-1 inside frozen, and disjoint non-identity perms differ.
    u0: dict[int, int] = {}
    taken: set[int] = set()
    for p in sorted(frozen):
        t = 0
        while t in frozen or t in taken:
            t += 1
        u0[p] = t
        taken.add(t)

    inj = dict(u0)
    used_domain: set[int] = set()
    used_range: set[int] = set()
    range_floor = set(u0.values())
    for f, g in pairs[:k]:
        bad_domain = frozen | used_domain
        bad_range = range_floor | used_range
        x = next(c for c in f.support().iter_members()
                 if c not in bad_domain
                 and f.apply(c) not in bad_domain
                 and g.apply(c) not in bad_range)
        fx, gx, gfx = f.apply(x), g.apply(x), g.apply(f.apply(x))
        y = 0
        while y == gx or y == gfx or y in bad_range:
            y += 1
        # u sends g_i(x) to y, the wrong place: g_i f_i g_i^-1 sends it to
        # g_i(f_i(x)) and y was chosen off that point.
        inj[x] = gx
        inj[fx] = y
        used_domain.update((x, fx))
        used_range.update((gx, y))
    return _least_extension(inj)


@dataclass(frozen=True)
class InjectiveTable:
    """Injective assignment of fresh points, (a, k) -> alpha(a, k).

    domain x {0..levels} maps injectively outside the domain set.
    """
    domain: tuple[int, ...]
    levels: int
    mapping: tuple[tuple[tuple[int, int], int], ...]
    _table: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_table", dict(self.mapping))
        keys = {(a, kk) for a in self.domain for kk in range(self.levels + 1)}
        if set(self._table) != keys:
            raise ValueError("table keys must cover domain x levels")
        values = list(self._table.values())
        if len(set(values)) != len(values):
            raise ValueError("table must be injective")
        if set(values) & set(self.domain):
            raise ValueError("table image must avoid the domain")

    def __call__(self, a: int, kk: int) -> int:
        return self._table[(a, kk)]


def closed_ball_witness(g: ResiduePerm, n: int) -> tuple[Intersection, InjectiveTable]:
    """Open expression around g missing every f with |supt(f)| <= n.

    Each factor {x : x t(a, alpha(a,k)) x^-1 != t(a, alpha(a,k))} forces a
    member's support to meet {a, alpha(a, k)}; a support of size <= n
    cannot meet all n+1 pairs of any column without containing a itself,
    nor contain every a of a support larger than n.
    """
    if n < 0:
        raise WitnessError(f"ball radius must be >= 0, got {n}")
    if not g.has_finite_support():
        raise InfiniteSupport()
    support = g.moved_points()
    if len(support) <= n:
        raise SupportTooSmall(len(support), n + 1)
    alpha: dict[tuple[int, int], int] = {}
    cursor = 0
    for a in support:
        for kk in range(n + 1):
            while cursor in support:
                cursor += 1
            alpha[(a, kk)] = cursor
            cursor += 1
    expr = Intersection(tuple(
        ConjNeq(a=identity(), b=transposition(a, alpha[(a, kk)]))
        for a in support for kk in range(n + 1)))
    table = InjectiveTable(tuple(support), n, tuple(sorted(alpha.items())))
    return expr, table


def point_support_witness(g: ResiduePerm, x: int, n: int) -> Intersection:
    """Expression containing g whose members of support size <= n move x."""
    if not g.has_finite_support():
        raise SupportTooLarge(None, n)
    support = g.moved_points()
    if len(support) > n:
        raise SupportTooLarge(len(support), n)
    if x not in support:
        raise PointNotInSupport(x)
    fresh: list[int] = []
    cursor = 0
    while len(fresh) < n + 1:
        if cursor not in support:
            fresh.append(cursor)
        cursor += 1
    return Intersection(tuple(
        ConjNeq(a=identity(), b=transposition(x, a)) for a in fresh))


# largest support isolation_witness scans: 8! = 40,320 permutations
ISOLATION_SUPPORT_LIMIT = 8


def isolation_witness(g: ResiduePerm) -> tuple[Intersection, list[ResiduePerm]]:
    """Expression isolating g within the perms of its own support size.

    Any member f with |supt(f)| = |supt(g)| must move every point g moves,
    so supt(f) = supt(g) and f is one of the finitely many fixed-point-free
    permutations of that set; they are all returned. The |supt(g)|! scan
    refuses supports above ISOLATION_SUPPORT_LIMIT points.
    """
    if not g.has_finite_support():
        raise InfiniteSupport()
    support = g.moved_points()
    n = len(support)
    if n > ISOLATION_SUPPORT_LIMIT:
        raise TooLarge(f"isolation support of {n} points > {ISOLATION_SUPPORT_LIMIT}")
    expr = Intersection(tuple(point_support_witness(g, x, n) for x in support))
    candidates = []
    for images in permutations(support):
        if any(a == b for a, b in zip(support, images)):
            continue
        candidates.append(from_mapping(dict(zip(support, images))))
    return expr, candidates
