"""Eventually periodic subsets of the naturals.

An EPSet is a union of residue classes mod M corrected by finitely many
explicitly added or removed points. The class is closed under boolean
algebra, and under images of the eventually-residue-shift permutations in
perm.py, which is what makes every set predicate in this package decidable.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Iterator


class EPSet:
    """Union of residue classes mod `modulus`, with finite corrections.

    Canonical form (enforced on construction):
      - modulus is minimal: no proper divisor gives the same eventual set;
      - every added point escapes the periodic rule, every removed point
        would otherwise satisfy it;
      - added and removed are therefore disjoint.
    Membership below max(corrections)+1 is decided by the corrections,
    membership above is x % modulus in residues. Instances are immutable
    and hashable; equality is structural, which by canonicality coincides
    with equality as subsets of the naturals.
    """

    __slots__ = ("modulus", "residues", "added", "removed", "_hash")

    def __init__(self, modulus: int, residues: Iterable[int],
                 added: Iterable[int] = (), removed: Iterable[int] = ()):
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        residues = frozenset(r % modulus for r in residues)
        # Minimal period of the residue pattern.
        for d in range(1, modulus + 1):
            if modulus % d:
                continue
            if all(((r + d) % modulus in residues) == (r in residues)
                   for r in range(modulus)):
                residues = frozenset(r for r in residues if r < d)
                modulus = d
                break
        added_set = set()
        removed_set = set()
        for x in added:
            if x < 0:
                raise ValueError(f"points must be naturals, got {x}")
            if x % modulus not in residues:
                added_set.add(x)
        for x in removed:
            if x < 0:
                raise ValueError(f"points must be naturals, got {x}")
            if x % modulus in residues:
                removed_set.add(x)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "residues", residues)
        object.__setattr__(self, "added", frozenset(added_set))
        object.__setattr__(self, "removed", frozenset(removed_set))
        object.__setattr__(self, "_hash",
                           hash((modulus, residues, self.added, self.removed)))

    def __setattr__(self, name, value):
        raise AttributeError("EPSet is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor
        return EPSet, (self.modulus, sorted(self.residues),
                       sorted(self.added), sorted(self.removed))

    # -- construction ---------------------------------------------------

    @staticmethod
    def empty() -> "EPSet":
        return EPSet(1, ())

    @staticmethod
    def naturals() -> "EPSet":
        return EPSet(1, (0,))

    @staticmethod
    def finite(points: Iterable[int]) -> "EPSet":
        return EPSet(1, (), added=points)

    @staticmethod
    def cofinite(excluded: Iterable[int]) -> "EPSet":
        return EPSet(1, (0,), removed=excluded)

    @staticmethod
    def residue_class(modulus: int, residue: int) -> "EPSet":
        return EPSet(modulus, (residue,))

    @staticmethod
    def evens() -> "EPSet":
        return EPSet(2, (0,))

    @staticmethod
    def odds() -> "EPSet":
        return EPSet(2, (1,))

    # -- basic queries ----------------------------------------------------

    @property
    def threshold(self) -> int:
        """First point from which membership is purely periodic."""
        corrections = self.added | self.removed
        return 1 + max(corrections) if corrections else 0

    def __contains__(self, x: int) -> bool:
        if x < 0:
            return False
        if x in self.added:
            return True
        if x in self.removed:
            return False
        return x % self.modulus in self.residues

    def is_infinite(self) -> bool:
        return bool(self.residues)

    def is_empty(self) -> bool:
        return not self.residues and not self.added

    def members(self) -> list[int]:
        """All members of a finite set, ascending."""
        if self.residues:
            raise ValueError("set is infinite")
        return sorted(self.added)

    def list_below(self, bound: int) -> list[int]:
        return [x for x in range(bound) if x in self]

    def iter_members(self) -> Iterator[int]:
        """Members in increasing order (finite iterator only if finite)."""
        if not self.residues:
            yield from sorted(self.added)
            return
        x = 0
        while True:
            if x in self:
                yield x
            x += 1

    def least_member(self) -> int | None:
        # Members are the added points and, per residue, its class minus
        # the removed points: O(|corrections| + modulus).
        return _least(self.added, self.residues, self.modulus, self.removed)

    # -- boolean algebra ---------------------------------------------------

    def complement(self) -> "EPSet":
        return EPSet(self.modulus,
                     frozenset(range(self.modulus)) - self.residues,
                     added=self.removed, removed=self.added)

    def __invert__(self) -> "EPSet":
        return self.complement()

    def _combine(self, other: "EPSet", op) -> "EPSet":
        if not isinstance(other, EPSet):
            return NotImplemented
        m = lcm(self.modulus, other.modulus)
        residues = [r for r in range(m)
                    if op(r % self.modulus in self.residues,
                          r % other.modulus in other.residues)]
        added, removed = [], []
        # Deviations from the periodic rule can only occur where one of the
        # inputs deviates, hence at one of their corrections.
        for x in self.added | self.removed | other.added | other.removed:
            actual = op(x in self, x in other)
            if actual and x % m not in residues:
                added.append(x)
            elif not actual and x % m in residues:
                removed.append(x)
        return EPSet(m, residues, added=added, removed=removed)

    def __and__(self, other: "EPSet") -> "EPSet":
        return self._combine(other, lambda a, b: a and b)

    def __or__(self, other: "EPSet") -> "EPSet":
        return self._combine(other, lambda a, b: a or b)

    def __sub__(self, other: "EPSet") -> "EPSet":
        return self._combine(other, lambda a, b: a and not b)

    def issubset(self, other: "EPSet") -> bool:
        return (self - other).is_empty()

    def isdisjoint(self, other: "EPSet") -> bool:
        return (self & other).is_empty()

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, EPSet):
            return NotImplemented
        return (self.modulus == other.modulus and self.residues == other.residues
                and self.added == other.added and self.removed == other.removed)

    def __hash__(self) -> int:
        return self._hash

    def to_literal(self) -> str:
        parts = [str(self.modulus), ",".join(str(r) for r in sorted(self.residues))]
        if self.added:
            parts.append("+{" + ",".join(str(x) for x in sorted(self.added)) + "}")
        if self.removed:
            parts.append("-{" + ",".join(str(x) for x in sorted(self.removed)) + "}")
        return "ep[" + "; ".join(parts) + "]"

    def __repr__(self) -> str:
        return f"EPSet({self.to_literal()})"


def _least(points: Iterable[int], residues: Iterable[int], modulus: int,
           holes: frozenset[int]) -> int | None:
    """Least of `points` and of each residue class mod `modulus` minus `holes`."""
    best = min(points, default=None)
    for x in residues:
        while x in holes:
            x += modulus
        if best is None or x < best:
            best = x
    return best
