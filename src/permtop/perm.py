"""Eventually residue-shift permutations of the naturals.

A ResiduePerm moves every sufficiently large point x to x + shift(x mod M)
and finitely many small points through an explicit patch table. The class
is a group under composition: it contains every finitely supported
permutation, the fixed-point-free pair swap `sigma` (2m <-> 2m+1), and
infinite-support elements of any even modulus, while keeping every
predicate used here (equality, support, commuting, set images) decidable.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Mapping

from .epset import EPSet
from .errors import (
    BadResidueShift,
    FixedPointGiven,
    IdentityInput,
    NegativeImage,
    NotBijective,
)


class ResiduePerm:
    """Bijection of the naturals: patch table over an eventual residue shift.

    Canonical form: even minimal modulus, patch entries only where the
    eventual rule is overridden. Equality and hashing are structural, which
    canonicality makes coincide with pointwise equality. Instances are
    immutable; all operations return new values.
    """

    __slots__ = ("modulus", "shifts", "patch",
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
        if {(r + shifts[r]) % modulus for r in range(modulus)} != set(range(modulus)):
            raise BadResidueShift(modulus)

        patch_map = dict(patch.items() if isinstance(patch, Mapping) else (patch or ()))
        for x, y in patch_map.items():
            if x < 0:
                raise ValueError(f"patch source {x} is not a natural")
            if y < 0:
                raise NegativeImage(x, y)
        # Minimal patch: drop entries the eventual rule already produces.
        patch_map = {x: y for x, y in patch_map.items() if y != x + shifts[x % modulus]}
        # Minimal even modulus with the same eventual rule.
        for d in range(2, modulus + 1, 2):
            if modulus % d == 0 and all(shifts[r] == shifts[r % d] for r in range(modulus)):
                modulus, shifts = d, shifts[:d]
                break

        n0 = 1 + max((max(patch_map), max(patch_map.values())), default=-1) if patch_map else 0
        big = max(abs(s) for s in shifts)
        # Window soundness: the eventual rule is a bijection of the integers
        # (residue condition), so any collision or negative image involves a
        # patched point and lies below n0 + big; any unhit y below the window
        # top minus big has all candidate preimages inside the window.
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

        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "patch", tuple(sorted(patch_map.items())))
        object.__setattr__(self, "_patch_map", patch_map)
        object.__setattr__(self, "_patch_inv", {y: x for x, y in patch_map.items()})
        src = [0] * modulus
        for r in range(modulus):
            src[(r + shifts[r]) % modulus] = r
        object.__setattr__(self, "_source_residue", tuple(src))
        object.__setattr__(self, "_hash", hash((modulus, shifts, self.patch)))

    def __setattr__(self, name, value):
        raise AttributeError("ResiduePerm is immutable")

    # -- construction -----------------------------------------------------

    @staticmethod
    def identity() -> "ResiduePerm":
        return ResiduePerm(2, (0, 0))

    @staticmethod
    def sigma() -> "ResiduePerm":
        """The base involution 2m <-> 2m+1 (infinite support, no patch)."""
        return ResiduePerm(2, (1, -1))

    @staticmethod
    def transposition(x: int, y: int) -> "ResiduePerm":
        if x == y:
            raise ValueError("a transposition needs two distinct points")
        return ResiduePerm(2, (0, 0), {x: y, y: x})

    @staticmethod
    def from_cycles(*cycles: Iterable[int]) -> "ResiduePerm":
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

    @staticmethod
    def from_mapping(mapping: Mapping[int, int]) -> "ResiduePerm":
        """Finitely supported permutation from an explicit point map."""
        return ResiduePerm(2, (0, 0), mapping)

    # -- evaluation --------------------------------------------------------

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
        m = lcm(self.modulus, other.modulus)
        shifts = []
        for r in range(m):
            d = other.shifts[r % other.modulus]
            shifts.append(d + self.shifts[(r + d) % self.modulus])
        candidates = set(other._patch_map)
        candidates.update(other.apply_inverse(k) for k in self._patch_map)
        patch = {}
        for x in candidates:
            y = self.apply(other.apply(x))
            if y != x + shifts[x % m]:
                patch[x] = y
        return ResiduePerm(m, shifts, patch)

    def inverse(self) -> "ResiduePerm":
        shifts = [-self.shifts[self._source_residue[s]] for s in range(self.modulus)]
        return ResiduePerm(self.modulus, shifts, self._patch_inv)

    def __pow__(self, n: int) -> "ResiduePerm":
        if n < 0:
            return self.inverse() ** (-n)
        out, square = ResiduePerm.identity(), self
        while n:
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
        return out

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
        return (self * self).is_identity()

    # -- identity ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResiduePerm):
            return NotImplemented
        return (self.modulus == other.modulus and self.shifts == other.shifts
                and self.patch == other.patch)

    def __hash__(self) -> int:
        return self._hash

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
        if self == ResiduePerm(2, (1, -1)) :
            return "sigma"
        body = f"res[{self.modulus}; {','.join(str(s) for s in self.shifts)}"
        if self.patch:
            body += "; patch: " + ", ".join(f"{x}->{y}" for x, y in self.patch)
        return body + "]"

    def __repr__(self) -> str:
        return self.to_literal()


# -- module-level conveniences (the operation vocabulary used everywhere) ----

identity = ResiduePerm.identity
sigma = ResiduePerm.sigma
transposition = ResiduePerm.transposition
from_cycles = ResiduePerm.from_cycles
from_mapping = ResiduePerm.from_mapping


def conjugate(g: ResiduePerm, f: ResiduePerm) -> ResiduePerm:
    """g f g^-1."""
    return g * f * g.inverse()


def commutes(f: ResiduePerm, g: ResiduePerm) -> bool:
    return f * g == g * f


def support(f: ResiduePerm) -> EPSet:
    return f.support()


def image(f: ResiduePerm, s: EPSet) -> EPSet:
    """Exact image {f(x) : x in s} as an EPSet.

    The eventual rule permutes residue classes mod lcm(moduli) by
    translation, so the image is again eventually periodic; deviations
    come only from patched points and from corrections of s, all of which
    land below max(thresholds) + max|shift| + 1.
    """
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


def noncommuting_transposition(f: ResiduePerm, x: int | None = None) -> ResiduePerm:
    """Transposition t(x, y) that fails to commute with f.

    x defaults to the least moved point; y is the least point outside
    {x, f(x)}, so t fixes f(x) while moving x, and t(f(x)) = f(x) differs
    from f(t(x)) = f(y) by injectivity.
    """
    if f.is_identity():
        raise IdentityInput()
    if x is None:
        x = f.least_moved()
    fx = f.apply(x)
    if fx == x:
        raise FixedPointGiven(x)
    y = 0
    while y == x or y == fx:
        y += 1
    return ResiduePerm.transposition(x, y)
