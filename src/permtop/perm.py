"""Eventually residue-shift permutations of the naturals.

A ResiduePerm moves every sufficiently large point x to x + shift(x mod M)
and finitely many small points through an explicit patch table. The class
is a group under composition: it contains every finitely supported
permutation, the fixed-point-free pair swap `sigma` (2m <-> 2m+1), and
infinite-support elements of any even modulus, while keeping every
predicate used here (equality, support, commuting, set images) decidable.

Every value is built by the one constructor, which the named permutations
(identity, sigma, transposition, from_cycles, from_mapping) call. It proves
each value bijective with an exact test in O(|patch| + max|shift|),
independent of how far out the patch lies; only a rejected input pays for
a window scan that names the least offending point. The constructor checks
the residue rule, the patch and the minimal modulus in one pass each; the
sorted patch tuple and the hash are derived only when asked for. Products
read the factors' tables directly and conjugation g f g^-1 is built in one
pass. `intertwines` decides f b f^-1 == c, and so commutation, without
building anything.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from math import lcm

from .epset import EPSet
from .errors import BadResidueShift, IdentityInput, NegativeImage, NotBijective


def _is_bijection(modulus: int, shifts: tuple[int, ...], src: list[int],
                  patch_map: dict[int, int], patch_inv: dict[int, int]) -> bool:
    """Exact test that the patched rule is a bijection of the naturals.

    Preconditions: the eventual rule R(x) = x + shifts[x % modulus] is a
    bijection of the integers (residue condition; src inverts it on
    residues), the patch D -> V has natural sources and values, and
    patch_inv is the patch read backwards. Then f = patch on D, R off D is
    a bijection of the naturals iff
      - the patch is injective (|V| = |D|);
      - no value y is also hit by R from outside D: R^-1(y) >= 0 implies
        R^-1(y) in D;
      - no x outside D has R(x) < 0, which needs x < max|shift|;
      - V fills what R leaves to the patch. The second condition puts V
        inside the disjoint union {y >= 0 : R^-1(y) < 0} + (R(D) n N), so V
        fills it iff |D| = #{y >= 0 : R^-1(y) < 0} + |D| - #{x in D : R(x) < 0};
        both counts only involve points below max|shift|.
    Cost O(|patch| + max|shift|), independent of where the patch lies.
    """
    if len(patch_inv) != len(patch_map):
        return False
    for y in patch_inv:
        x = y - shifts[src[y % modulus]]
        if x >= 0 and x not in patch_map:
            return False
    sunk = missed = 0
    for x in range(max(map(abs, shifts))):
        if x + shifts[x % modulus] < 0:
            if x not in patch_map:
                return False
            sunk += 1
        if x - shifts[src[x % modulus]] < 0:
            missed += 1
    return sunk == missed


def _raise_least_fault(modulus: int, shifts: tuple[int, ...],
                       patch_map: dict[int, int]) -> None:
    """Name the least point at which a rejected patched rule fails.

    Scans a window that holds every fault: the eventual rule is a bijection
    of the integers, so any collision or negative image involves a patched
    point and lies below n0 + big; any unhit y below the window top minus
    big has all candidate preimages inside the window. Runs only after
    _is_bijection has rejected, so its O(n0) cost is never paid on success.
    """
    n0 = 1 + max(max(patch_map), max(patch_map.values())) if patch_map else 0
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
    raise AssertionError("bijectivity test rejected a rule the window scan accepts")


class ResiduePerm:
    """Bijection of the naturals: patch table over an eventual residue shift.

    Canonical form: even minimal modulus, patch entries only where the
    eventual rule is overridden. Equality and hashing are structural, which
    canonicality makes coincide with pointwise equality. Instances are
    immutable; all operations return new values.
    """

    __slots__ = ("modulus", "shifts",
                 "_patch_map", "_patch_inv", "_source_residue", "_hash")

    def __init__(self, modulus: int, shifts: Iterable[int],
                 patch: Mapping[int, int] | Iterable[tuple[int, int]] | None = None):
        shifts = tuple(shifts)
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        if len(shifts) != modulus:
            raise ValueError(f"need {modulus} shifts, got {len(shifts)}")
        if modulus % 2:
            modulus, shifts = 2 * modulus, shifts * 2
        # Residue condition: r -> r + shifts[r] permutes the residues, read
        # off the source table as it is filled (a repeated target fails it).
        src = [-1] * modulus
        for r in range(modulus):
            t = (r + shifts[r]) % modulus
            if src[t] >= 0:
                raise BadResidueShift(modulus)
            src[t] = r

        # Natural entries only; a minimal patch drops entries the eventual
        # rule already produces.
        patch_map = {}
        if patch:
            for x, y in dict(patch).items():
                if x < 0:
                    raise ValueError(f"patch source {x} is not a natural")
                if y < 0:
                    raise NegativeImage(x, y)
                if y != x + shifts[x % modulus]:
                    patch_map[x] = y
        # Minimal even modulus with the same eventual rule.
        for d in range(2, modulus, 2):
            if modulus % d == 0 and shifts == shifts[:d] * (modulus // d):
                modulus, shifts = d, shifts[:d]
                src = [src[t] % d for t in range(d)]
                break

        patch_inv = {y: x for x, y in patch_map.items()}
        if not _is_bijection(modulus, shifts, src, patch_map, patch_inv):
            _raise_least_fault(modulus, shifts, patch_map)

        setattr_ = object.__setattr__
        setattr_(self, "modulus", modulus)
        setattr_(self, "shifts", shifts)
        setattr_(self, "_patch_map", patch_map)
        setattr_(self, "_patch_inv", patch_inv)
        setattr_(self, "_source_residue", tuple(src))

    def __setattr__(self, name, value):
        raise AttributeError("ResiduePerm is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the one constructor
        return ResiduePerm, (self.modulus, self.shifts, self.patch)

    # -- evaluation --------------------------------------------------------

    @property
    def patch(self) -> tuple[tuple[int, int], ...]:
        """The patch entries (x, f(x)), sorted by x."""
        return tuple(sorted(self._patch_map.items()))

    @property
    def patch_threshold(self) -> int:
        if not self._patch_map:
            return 0
        return 1 + max(max(self._patch_map), max(self._patch_map.values()))

    @property
    def max_shift(self) -> int:
        return max(abs(s) for s in self.shifts)

    def apply(self, x: int) -> int:
        if x < 0:
            raise ValueError(f"points are naturals, got {x}")
        y = self._patch_map.get(x)
        return y if y is not None else x + self.shifts[x % self.modulus]

    __call__ = apply

    def apply_inverse(self, y: int) -> int:
        if y < 0:
            raise ValueError(f"points are naturals, got {y}")
        x = self._patch_inv.get(y)
        if x is not None:
            return x
        r = self._source_residue[y % self.modulus]
        return y - self.shifts[r]

    # -- group structure -----------------------------------------------------

    def __mul__(self, other: "ResiduePerm") -> "ResiduePerm":
        """Composition: (self * other)(x) = self(other(x))."""
        if not isinstance(other, ResiduePerm):
            return NotImplemented
        sm, ss, sp = self.modulus, self.shifts, self._patch_map
        om, osh, op = other.modulus, other.shifts, other._patch_map
        oinv, osrc = other._patch_inv, other._source_residue
        m = lcm(sm, om)
        shifts = []
        for r in range(m):
            d = osh[r % om]
            shifts.append(d + ss[(r + d) % sm])
        # Off these points both factors follow their eventual rules.
        candidates = set(op)
        for k in sp:
            x = oinv.get(k)
            candidates.add(k - osh[osrc[k % om]] if x is None else x)
        patch = {}
        for x in candidates:
            y = op.get(x)
            if y is None:
                y = x + osh[x % om]
            z = sp.get(y)
            if z is None:
                z = y + ss[y % sm]
            if z != x + shifts[x % m]:
                patch[x] = z
        return ResiduePerm(m, shifts, patch)

    def inverse(self) -> "ResiduePerm":
        shifts = [-self.shifts[self._source_residue[s]] for s in range(self.modulus)]
        return ResiduePerm(self.modulus, shifts, self._patch_inv)

    def __pow__(self, n: int) -> "ResiduePerm":
        if n < 0:
            return self.inverse() ** (-n)
        # the first factor needed starts the product: no identity * f
        out, square = None, self
        while n:
            if n & 1:
                out = square if out is None else out * square
            n >>= 1
            if n:
                square = square * square
        return _IDENTITY if out is None else out

    # -- predicates ------------------------------------------------------------

    def is_identity(self) -> bool:
        return not self._patch_map and not any(self.shifts)

    def has_finite_support(self) -> bool:
        return not any(self.shifts)

    def support(self) -> EPSet:
        residues = [r for r in range(self.modulus) if self.shifts[r]]
        added, removed = [], []
        for x, y in self._patch_map.items():
            moving_class = bool(self.shifts[x % self.modulus])
            if y != x and not moving_class:
                added.append(x)
            elif y == x and moving_class:
                removed.append(x)
        return EPSet(self.modulus, residues, added=added, removed=removed)

    def moved_points(self) -> list[int]:
        """Support of a finitely supported permutation, ascending."""
        if any(self.shifts):
            raise ValueError("support is infinite")
        return sorted(x for x, y in self._patch_map.items() if y != x)

    def least_moved(self) -> int | None:
        return self.support().least_member()

    def is_involution(self) -> bool:
        """f f == id, decided without building the product.

        The eventual rule must undo itself on every residue; off
        D + f^-1(D), D the patch domain, f f follows that rule. A point
        x = f^-1(y) with y in D returns to itself exactly when
        f(y) = f^-1(y), that is f(f(y)) = y, so checking D covers both.
        """
        m, s = self.modulus, self.shifts
        if any(s[(r + s[r]) % m] != -s[r] for r in range(m)):
            return False
        apply = self.apply
        return all(apply(apply(x)) == x for x in self._patch_map)

    # -- identity ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResiduePerm):
            return NotImplemented
        return (self.modulus == other.modulus and self.shifts == other.shifts
                and self._patch_map == other._patch_map)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.modulus, self.shifts, self.patch))
            object.__setattr__(self, "_hash", h)
            return h

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition of a finitely supported permutation."""
        moved = self.moved_points()
        out, done = [], set()
        for start in moved:
            if start in done:
                continue
            cycle = [start]
            done.add(start)
            p = self.apply(start)
            while p != start:
                cycle.append(p)
                done.add(p)
                p = self.apply(p)
            out.append(tuple(cycle))
        return out

    def to_literal(self) -> str:
        if self.is_identity():
            return "id"
        if not any(self.shifts):
            return "".join("(" + " ".join(str(p) for p in c) + ")" for c in self.cycles())
        if self.shifts == (1, -1) and not self._patch_map:
            return "sigma"
        body = f"res[{self.modulus}; {','.join(str(s) for s in self.shifts)}"
        if self._patch_map:
            body += "; patch: " + ", ".join(f"{x}->{y}" for x, y in self.patch)
        return body + "]"

    def __repr__(self) -> str:
        return self.to_literal()


# -- constructors: the one spelling of each named permutation -----------------

_IDENTITY = ResiduePerm(2, (0, 0))


def identity() -> ResiduePerm:
    """The identity, one shared value (instances are immutable)."""
    return _IDENTITY


def sigma() -> ResiduePerm:
    """The base involution 2m <-> 2m+1 (infinite support, no patch)."""
    return ResiduePerm(2, (1, -1))


def transposition(x: int, y: int) -> ResiduePerm:
    if x == y:
        raise ValueError("a transposition needs two distinct points")
    return ResiduePerm(2, (0, 0), {x: y, y: x})


def from_cycles(*cycles: Iterable[int]) -> ResiduePerm:
    patch: dict[int, int] = {}
    seen: set[int] = set()
    for cycle in cycles:
        cycle = tuple(cycle)
        for p in cycle:
            if p in seen:
                raise ValueError(f"point {p} repeated in cycle notation")
            seen.add(p)
        if len(cycle) < 2:
            continue
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            patch[a] = b
    return ResiduePerm(2, (0, 0), patch)


def from_mapping(mapping: Mapping[int, int]) -> ResiduePerm:
    """Finitely supported permutation from an explicit point map."""
    return ResiduePerm(2, (0, 0), mapping)


def conjugate(g: ResiduePerm, f: ResiduePerm) -> ResiduePerm:
    """g f g^-1, built in one pass: it sends g(x) to g(f(x)).

    Its eventual rule on a residue y mod lcm is y -> g(f(g^-1(y))) under
    the eventual rules, and g(x) can leave that rule only when x is a patch
    point of g or f or f(x) is one of g: x in D_g + D_f + f^-1(D_g).
    Conjugating by the identity returns f itself.
    """
    if g.is_identity():
        return f
    gm, gs, gp = g.modulus, g.shifts, g._patch_map
    fm, fs, fp = f.modulus, f.shifts, f._patch_map
    gsrc = g._source_residue
    m = lcm(gm, fm)
    shifts = []
    for r in range(m):
        a = r - gs[gsrc[r % gm]]
        b = a + fs[a % fm]
        shifts.append(b + gs[b % gm] - r)
    candidates = set(gp)
    candidates.update(fp)
    candidates.update(f.apply_inverse(k) for k in gp)
    patch = {}
    for x in candidates:
        y, w = g.apply(x), g.apply(f.apply(x))
        if w != y + shifts[y % m]:
            patch[y] = w
    return ResiduePerm(m, shifts, patch)


def intertwines(f: ResiduePerm, b: ResiduePerm, c: ResiduePerm) -> bool:
    """f b == c f, that is f b f^-1 == c, decided without building anything.

    The eventual rules of fb and cf must agree on every residue mod
    lcm(f, b, c). Off D_b + b^-1(D_f) both b and then f follow their rules
    at x, and off D_f + f^-1(D_c) so do f and then c; so the two sides can
    differ elsewhere only at those finitely many points.
    """
    fm, fs, fp = f.modulus, f.shifts, f._patch_map
    bm, bs, bp = b.modulus, b.shifts, b._patch_map
    cm, cs, cp = c.modulus, c.shifts, c._patch_map
    for r in range(lcm(fm, bm, cm)):
        d, e = bs[r % bm], fs[r % fm]
        if d + fs[(r + d) % fm] != e + cs[(r + e) % cm]:
            return False
    candidates = set(bp)
    candidates.update(fp)
    candidates.update(b.apply_inverse(k) for k in fp)
    candidates.update(f.apply_inverse(k) for k in cp)
    return all(f.apply(b.apply(x)) == c.apply(f.apply(x)) for x in candidates)


def commutes(f: ResiduePerm, g: ResiduePerm) -> bool:
    """f g == g f, decided without building either product."""
    return intertwines(f, g, g)


def support(f: ResiduePerm) -> EPSet:
    return f.support()


def image(f: ResiduePerm, s: EPSet) -> EPSet:
    """Exact image {f(x) : x in s} as an EPSet.

    The eventual rule R permutes residue classes mod lcm(moduli) by
    translation, so the image is again eventually periodic: y % m is an
    image residue iff R^-1(y) is in the periodic rule of s. Off the patch
    values f^-1(y) = R^-1(y), so y leaves that rule only if it is a patch
    value or f^-1(y) is a correction of s: O(|patch| + |corrections|)
    points, wherever they lie.
    """
    m = lcm(f.modulus, s.modulus)
    residues = {(r + f.shifts[r % f.modulus]) % m
                for r in range(m) if r % s.modulus in s.residues}
    candidates = set(f._patch_inv)
    candidates.update(f.apply(x) for x in s.added | s.removed)
    added, removed = [], []
    for y in candidates:
        actual = f.apply_inverse(y) in s
        periodic = y % m in residues
        if actual and not periodic:
            added.append(y)
        elif periodic and not actual:
            removed.append(y)
    return EPSet(m, residues, added=added, removed=removed)


def noncommuting_transposition(f: ResiduePerm) -> ResiduePerm:
    """Transposition t(x, y) that fails to commute with f.

    x is the least moved point; y is the least point outside {x, f(x)}, so
    t fixes f(x) while moving x, and t(f(x)) = f(x) differs from
    f(t(x)) = f(y) by injectivity.
    """
    if f.is_identity():
        raise IdentityInput()
    x = f.least_moved()
    fx = f.apply(x)
    y = 0
    while y == x or y == fx:
        y += 1
    return transposition(x, y)
