"""Free-by-shift group elements and certified self-normalizing subgroups.

The ambient group is the set of pairs (word, shift): a freely reduced
word over integer generators z_k together with an integer power of the
shift automorphism z_k -> z_{k+1}, multiplied by

    (v, n) * (u, m) = (v * shift^n(u), n + m).

For a thin set A of generators (A and A+n overlap finitely for n != 0),
the free factor F_A is its own normalizer; the certifier below produces
a checkable witness for every element outside it. It reads the witness
off the closed form

    (u, n) * z_k * (u, n)^-1 = (u * z_{k+n} * u^-1, 0),

whose word freely reduces to p * z_{k+n} * p^-1, where p is u with a
trailing z_{k+n} syllable removed; so each generator tried costs O(1)
after one O(|u|) scan of u, with no group arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Callable, Iterable, Iterator

from .errors import ZeroExponent


@dataclass(frozen=True)
class FreeWord:
    """Freely reduced word; syllables are (generator, nonzero exponent)
    with adjacent generators distinct."""
    syllables: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "syllables", tuple(tuple(s) for s in self.syllables))
        for g, e in self.syllables:
            if e == 0:
                raise ZeroExponent(g)
        for (g1, _), (g2, _) in zip(self.syllables, self.syllables[1:]):
            if g1 == g2:
                raise ValueError(f"unreduced word: repeated generator {g1}")

    @staticmethod
    def from_raw(raw: Iterable[tuple[int, int]]) -> "FreeWord":
        """Free reduction of an arbitrary syllable list."""
        stack: list[list[int]] = []
        for g, e in raw:
            if e == 0:
                raise ZeroExponent(g)
            if stack and stack[-1][0] == g:
                stack[-1][1] += e
                if stack[-1][1] == 0:
                    stack.pop()
            else:
                stack.append([g, e])
        return _word(tuple((g, e) for g, e in stack))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if not isinstance(other, FreeWord):
            return NotImplemented
        # Both factors are reduced, so only the junction can cancel.
        merged = list(self.syllables)
        rest = other.syllables
        j = 0
        while merged and j < len(rest):
            g, e = rest[j]
            if merged[-1][0] != g:
                break
            s = merged[-1][1] + e
            j += 1
            if s == 0:
                merged.pop()
            else:
                merged[-1] = (g, s)
                break
        merged.extend(rest[j:])
        return _word(tuple(merged))

    def inverse(self) -> "FreeWord":
        return _word(tuple((g, -e) for g, e in reversed(self.syllables)))

    def shifted(self, n: int) -> "FreeWord":
        """Image under the shift automorphism z_k -> z_{k+n}."""
        if n == 0:
            return self
        return _word(tuple((g + n, e) for g, e in self.syllables))

    def letters(self) -> set[int]:
        return {g for g, _ in self.syllables}

    def is_identity(self) -> bool:
        return not self.syllables

    def length(self) -> int:
        return sum(abs(e) for _, e in self.syllables)

    def to_literal(self) -> str:
        if not self.syllables:
            return "1"
        parts = []
        for g, e in self.syllables:
            parts.extend([f"z{g}" if k > 0 else f"z{g}^-1"
                          for k in ([1] * e if e > 0 else [-1] * -e)])
        return " * ".join(parts)

    def __repr__(self) -> str:
        return self.to_literal()


def _word(syllables: tuple[tuple[int, int], ...]) -> FreeWord:
    # Internal constructor for syllable tuples that are reduced by
    # construction; skips the dataclass validation pass.
    w = object.__new__(FreeWord)
    object.__setattr__(w, "syllables", syllables)
    return w


ONE = FreeWord(())


def generator(k: int) -> FreeWord:
    return _word(((k, 1),))


@dataclass(frozen=True)
class SDElement:
    """Group element (word, shift)."""
    word: FreeWord = ONE
    shift: int = 0

    def __mul__(self, other: "SDElement") -> "SDElement":
        if not isinstance(other, SDElement):
            return NotImplemented
        return SDElement(self.word * other.word.shifted(self.shift),
                         self.shift + other.shift)

    def inverse(self) -> "SDElement":
        return SDElement(self.word.inverse().shifted(-self.shift), -self.shift)

    def is_identity(self) -> bool:
        return self.shift == 0 and self.word.is_identity()

    def to_literal(self) -> str:
        return f"( {self.word.to_literal()} ; {self.shift} )"

    def __repr__(self) -> str:
        return self.to_literal()


SD_ONE = SDElement(ONE, 0)


def sd_conj(h: SDElement, w: SDElement) -> SDElement:
    """h w h^-1."""
    return h * w * h.inverse()


def word_element(v: FreeWord) -> SDElement:
    return SDElement(v, 0)


class ThinSet:
    """Decidable set of generators with finite self-overlap under shifts.

    Each instance provides membership, ascending enumeration, and a bound
    on |A intersected with A+n| declared by the family's arithmetic:
    powers of two because 2^a - 2^b = n fixes (a, b) up to one solution,
    squares because x^2 - y^2 = n factors n, finite sets trivially.
    """

    def __init__(self, name: str,
                 contains: Callable[[int], bool],
                 enumerate_from: Callable[[], Iterator[int]],
                 overlap_bound: Callable[[int], int]):
        self.name = name
        self._contains = contains
        self._enumerate = enumerate_from
        self._overlap_bound = overlap_bound

    def __contains__(self, x: int) -> bool:
        return self._contains(x)

    def __iter__(self) -> Iterator[int]:
        return self._enumerate()

    def overlap_bound(self, n: int) -> int:
        return self._overlap_bound(n)

    def __repr__(self) -> str:
        return f"ThinSet({self.name})"

    @staticmethod
    def powers_of_two() -> "ThinSet":
        def gen():
            x = 1
            while True:
                yield x
                x *= 2
        return ThinSet("pow2",
                       lambda x: x >= 1 and x & (x - 1) == 0,
                       gen,
                       lambda n: 1)

    @staticmethod
    def squares() -> "ThinSet":
        def gen():
            k = 0
            while True:
                yield k * k
                k += 1

        def divisors(n: int) -> int:
            n = abs(n)
            return sum(1 for d in range(1, n + 1) if n % d == 0)

        return ThinSet("squares",
                       lambda x: x >= 0 and isqrt(x) ** 2 == x,
                       gen,
                       divisors)

    @staticmethod
    def explicit(points: Iterable[int]) -> "ThinSet":
        pts = frozenset(points)

        def gen():
            yield from sorted(pts)

        name = "finite{" + ",".join(str(p) for p in sorted(pts)) + "}"
        return ThinSet(name, pts.__contains__, gen, lambda n: len(pts))


def in_free_factor(w: FreeWord, a: ThinSet) -> bool:
    """F_A membership: every letter is a generator from A."""
    return all(g in a for g, _ in w.syllables)


@dataclass(frozen=True)
class ThinReport:
    name: str
    bound: int
    overlaps: tuple[tuple[int, tuple[int, ...]], ...]
    violations: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def thin_check(a: ThinSet, bound: int) -> ThinReport:
    """Inspect A against all its translates A+n for 0 < |n| <= bound.

    Restricted to the window [-bound, bound]; an overlap larger than the
    family's declared bound for that n is flagged.
    """
    window = [x for x in range(-bound, bound + 1) if x in a]
    overlaps = []
    violations = []
    for n in range(-bound, bound + 1):
        if n == 0:
            continue
        both = tuple(x for x in window if x - n in a)
        overlaps.append((n, both))
        if len(both) > a.overlap_bound(n):
            violations.append(n)
    return ThinReport(a.name, bound, tuple(overlaps), tuple(violations))


class Verdict:
    __slots__ = ()


@dataclass(frozen=True)
class InSubgroup(Verdict):
    pass


@dataclass(frozen=True)
class MovesOut(Verdict):
    """Generator a in A whose conjugate under h leaves the free factor."""
    witness: int
    conjugate: SDElement


@dataclass(frozen=True)
class Inconclusive(Verdict):
    tried: tuple[int, ...]


def certify_self_normalizing(h: SDElement, a: ThinSet, depth: int = 10) -> Verdict:
    """Decide h in F_A versus h F_A h^-1 != F_A, with a checkable witness.

    For h = (u, n) the conjugate of z_k is (u z_j u^-1, 0) with j = k+n,
    and its word reduces to p z_j p^-1, where p is u without a trailing
    z_j syllable (p then ends in another letter, so nothing further
    cancels). It lies in F_A exactly when j and every letter of p are in
    A, that is, when j is in A and u is in F_A (a dropped trailing z_j is
    then in A too). So after one O(|u|) membership scan of u, each k
    costs O(1) and needs no group arithmetic.

    Completeness for the registered families: with shift n != 0, thinness
    leaves at most finitely many k in A with k+n also in A; with shift 0
    and u outside F_A, already the first k escapes.
    """
    u = h.word.syllables
    u_in = in_free_factor(h.word, a)
    if h.shift == 0 and u_in:
        return InSubgroup()
    tried = []
    for k in a:
        if len(tried) >= depth:
            break
        tried.append(k)
        j = k + h.shift
        if u_in and j in a:
            continue
        p = u[:-1] if u and u[-1][0] == j else u
        word = _word(p + ((j, 1),) + tuple((g, -e) for g, e in reversed(p)))
        return MovesOut(k, SDElement(word, 0))
    return Inconclusive(tuple(tried))
