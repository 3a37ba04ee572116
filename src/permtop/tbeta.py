"""Cover-stabilizer neighborhoods from finite eventually periodic partitions.

A basic neighborhood of f is fixed by a finite disjoint cover of the
naturals: it collects the g whose piece images agree with f's. Pieces are
EPSets over one shared even modulus, so every image is computable exactly
and each membership question is decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable

from .epset import EPSet
from .errors import FiniteSupport, Gap, OddModulus, Overlap
from .perm import ResiduePerm, from_cycles, identity, image, sigma, transposition
from .subbase import FixesAll, member


@dataclass(frozen=True)
class Partition:
    """Finite disjoint cover of the naturals by EPSets; built via
    validate_partition."""
    pieces: tuple[EPSet, ...]
    modulus: int

    def max_threshold(self) -> int:
        return max(p.threshold for p in self.pieces)

    def to_literal(self) -> str:
        inner = "; ".join(p.to_literal() for p in self.pieces)
        return f"part[{self.modulus}; {inner}]"

    def __repr__(self) -> str:
        return self.to_literal()


def validate_partition(pieces: Iterable[EPSet], modulus: int | None = None) -> Partition:
    """Check disjointness and covering exactly; normalize the modulus.

    The modulus is the lcm of the pieces' periods, doubled when odd; an
    explicitly requested odd modulus is refused rather than silently
    lifted. Any defect is reported at its least point, by `least_member`:
    a gap lies outside the union, an overlap in a piece and in the union
    of the pieces before it.
    """
    pieces = tuple(pieces)
    if not pieces:
        raise Gap(0)
    m = lcm(*(p.modulus for p in pieces))
    if modulus is not None:
        if modulus % 2:
            raise OddModulus(modulus)
        if modulus % m:
            raise ValueError(f"modulus {modulus} cannot host period {m}")
        m = modulus
    elif m % 2:
        m *= 2
    union, overlap = EPSet.empty(), None
    for p in pieces:
        x = (p & union).least_member()
        if x is not None and (overlap is None or x < overlap):
            overlap = x
        union |= p
    gap = (~union).least_member()
    if gap is not None and (overlap is None or gap < overlap):
        raise Gap(gap)
    if overlap is not None:
        raise Overlap(overlap)
    return Partition(pieces, m)


def stabilizes(f: ResiduePerm, part: Partition) -> bool:
    """True iff f maps every piece onto itself."""
    return all(image(f, p) == p for p in part.pieces)


def nbhd_member(g: ResiduePerm, f: ResiduePerm, part: Partition) -> bool:
    """True iff g lies in the cover neighborhood of f: piecewise equal images."""
    return all(image(g, p) == image(f, p) for p in part.pieces)


def disjoint_mover_set(f: ResiduePerm) -> EPSet:
    """Infinite EPSet U with image(f, U) disjoint from U.

    Built from the least residue r that f's eventual rule translates by
    d != 0: the class of r modulo the modulus (or modulo 2|d| when d is a
    multiple of it) lands in a different class, and dropping the patched
    prefix makes the translation exact.
    """
    if f.has_finite_support():
        raise FiniteSupport()
    m = f.modulus
    r = next(s for s in range(m) if f.shifts[s])
    d = f.shifts[r]
    step = m if d % m else 2 * abs(d)
    base = EPSet.residue_class(step, r)
    return base - EPSet.finite(range(f.patch_threshold))


def infinite_support_stabilizer(part: Partition) -> ResiduePerm:
    """A partition-stabilizing permutation with infinite support in one piece.

    Swaps x with x+M along the least residue class of the first infinite
    piece, doubled to modulus 2M so the swap is a residue bijection, and
    pinned to the identity below the corrected zone. Support stays inside
    the piece (possibly missing finitely many of its points).
    """
    u = next(p for p in part.pieces if p.is_infinite())
    m = part.modulus
    r = min(s for s in range(m) if s % u.modulus in u.residues)
    shifts = [0] * (2 * m)
    shifts[r] = m
    shifts[r + m] = -m
    span = 2 * m
    z = -(-part.max_threshold() // span) * span
    patch = {x: x for x in range(z) if x % m == r}
    return ResiduePerm(span, shifts, patch)


def alpha_basic_equivalence(points: Iterable[int]) -> bool:
    """Check that the cover neighborhood of the identity for
    {singletons of points} + {rest} captures exactly FixesAll(points).

    Returns true iff no permutation of a small deterministic battery,
    mixing finite and sigma-type elements around the point set,
    distinguishes the two.
    """
    pts = sorted(set(points))
    pieces = tuple(EPSet.finite([p]) for p in pts) + (EPSet.cofinite(pts),)
    part = validate_partition(pieces)
    fixes = FixesAll(frozenset(pts))
    cap = (pts[-1] + 1) if pts else 0
    perms = [identity(), sigma(), sigma() * transposition(cap, cap + 1)]
    perms.extend(transposition(p, cap + 1 + p) for p in pts)
    perms.extend(transposition(p, q) for p in pts for q in pts if p < q)
    perms.append(transposition(cap + 2, cap + 3))
    if pts:
        perms.append(from_cycles((pts[0], cap, cap + 1)))
    return all(nbhd_member(g, identity(), part) == member(fixes, g) for g in perms)
