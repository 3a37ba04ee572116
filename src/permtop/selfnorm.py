"""Free-by-shift group elements and certified self-normalizing subgroups.

The ambient group is the set of pairs (word, shift): a freely reduced
word over integer generators z_k together with an integer power of the
shift automorphism z_k -> z_{k+1}, multiplied by

    (v, n) * (u, m) = (v * shift^n(u), n + m).

Values are tuples: a FreeWord is the tuple of its syllables and an
SDElement the pair (word, shift), each equal only to its own type. A
product takes one pass, shifting u's syllables while cancelling them
against v at the junction, and builds one word and one element; so does
a conjugate h w h^-1, which joins the three words without building the
two intermediate elements or h^-1.

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
from functools import partial
from itertools import count
from math import isqrt
from operator import itemgetter, mul
from typing import Callable, Iterable, Iterator

from .errors import ZeroExponent

_new = tuple.__new__


class _TupleValue(tuple):
    """Immutable value stored as a tuple, compared only with its own type.

    The inherited concatenation and repetition would build unreduced
    words, so `+` and `int * value` are refused, and so is the inherited
    ordering, which would also compare with plain tuples.
    """
    __slots__ = ()

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not (type(other) is type(self) and tuple.__eq__(self, other))

    __hash__ = tuple.__hash__

    def __add__(self, other):
        return NotImplemented

    def __rmul__(self, other):
        return NotImplemented

    def _unordered(self, other):
        raise TypeError(f"{type(self).__name__} values are not ordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered


class FreeWord(_TupleValue):
    """Freely reduced word: the tuple of its syllables (generator, nonzero
    exponent), with adjacent generators distinct."""
    __slots__ = ()

    def __new__(cls, syllables: Iterable[tuple[int, int]] = ()) -> "FreeWord":
        syllables = tuple(map(tuple, syllables))
        for g, e in syllables:
            if e == 0:
                raise ZeroExponent(g)
        last = None
        for g, _ in syllables:
            if g == last:
                raise ValueError(f"unreduced word: repeated generator {g}")
            last = g
        return _new(cls, syllables)

    @property
    def syllables(self) -> tuple[tuple[int, int], ...]:
        """The syllables as a plain tuple."""
        return tuple(self)

    @staticmethod
    def from_raw(raw: Iterable[tuple[int, int]]) -> "FreeWord":
        """Free reduction of an arbitrary syllable list."""
        stack: list[tuple[int, int]] = []
        for g, e in raw:
            if e == 0:
                raise ZeroExponent(g)
            if stack and stack[-1][0] == g:
                e += stack.pop()[1]
                if e == 0:
                    continue
            stack.append((g, e))
        return _word(tuple(stack))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if not isinstance(other, FreeWord):
            return NotImplemented
        return _word(_join(self, other, 0))

    def inverse(self) -> "FreeWord":
        return _word(tuple([(g, -e) for g, e in reversed(self)]))

    def shifted(self, n: int) -> "FreeWord":
        """Image under the shift automorphism z_k -> z_{k+n}."""
        if n == 0:
            return self
        return _word(tuple([(g + n, e) for g, e in self]))

    def is_identity(self) -> bool:
        return not self

    def to_literal(self) -> str:
        if not self:
            return "1"
        parts = []
        for g, e in self:
            parts.extend([f"z{g}" if k > 0 else f"z{g}^-1"
                          for k in ([1] * e if e > 0 else [-1] * -e)])
        return " * ".join(parts)

    def __repr__(self) -> str:
        return self.to_literal()


# Internal constructor for syllable tuples that are reduced by construction;
# skips the validation pass.
_word = partial(_new, FreeWord)


def _join(v: tuple, u: tuple, n: int) -> tuple:
    """Syllables of v * shift^n(u) for reduced v and u, in one pass.

    Both factors are reduced, so only the junction can cancel; u is shifted
    as its syllables are copied.
    """
    i, j, last = len(v), 0, len(u)
    mid = ()
    while i and j < last:
        g, e = v[i - 1]
        k, f = u[j]
        if g != k + n:
            break
        i -= 1
        j += 1
        if e + f:
            mid = ((g, e + f),)
            break
    tail = tuple([(k + n, f) for k, f in u[j:]]) if n else u[j:]
    return v[:i] + mid + tail


ONE = FreeWord(())


def generator(k: int) -> FreeWord:
    return _word(((k, 1),))


class SDElement(_TupleValue):
    """Group element: the pair (word, shift)."""
    __slots__ = ()

    def __new__(cls, word: FreeWord = ONE, shift: int = 0) -> "SDElement":
        return _new(cls, (word, shift))

    def __getnewargs__(self):
        # copy and pickle rebuild through __new__(word, shift)
        return tuple(self)

    word = property(itemgetter(0))
    shift = property(itemgetter(1))

    def __mul__(self, other: "SDElement") -> "SDElement":
        """(v, n) * (u, m) = (v * shift^n(u), n + m)."""
        if not isinstance(other, SDElement):
            return NotImplemented
        v, n = self
        u, m = other
        return _sd((_word(_join(v, u, n)), n + m))

    def inverse(self) -> "SDElement":
        """(v, n)^-1 = (shift^-n(v^-1), -n)."""
        v, n = self
        return _sd((_word(tuple([(g - n, -e) for g, e in reversed(v)])), -n))

    def is_identity(self) -> bool:
        return self.shift == 0 and not self.word

    def to_literal(self) -> str:
        return f"( {self.word.to_literal()} ; {self.shift} )"

    def __repr__(self) -> str:
        return self.to_literal()


# Internal constructor from a (word, shift) pair.
_sd = partial(_new, SDElement)

SD_ONE = SDElement(ONE, 0)


def sd_conj(h: SDElement, w: SDElement) -> SDElement:
    """h w h^-1 in one pass: for h = (u, n) and w = (v, m) it is

        (u * shift^n(v) * shift^m(u^-1), m),

    whose word is two junction joins, with u^-1 inverted and shifted as
    its syllables are copied."""
    u, n = h
    v, m = w
    tail = tuple([(g + m, -e) for g, e in reversed(u)])
    return _sd((_word(_join(_join(u, v, n), tail, 0)), m))


def word_element(v: FreeWord) -> SDElement:
    return _sd((v, 0))


@dataclass(eq=False, repr=False)
class ThinSet:
    """Decidable set A of generators, enumerable in ascending order.

    Each family is thin, that is, A and A+n overlap finitely for n != 0,
    and that is why the certifier is complete on it. For n != 0,
    2^a - 2^b = n has at most one solution (a, b), x^2 - y^2 = n has one
    per factorization n = (x - y)(x + y), and a finite set overlaps every
    translate finitely. The empty set is refused: its factor is trivial
    and normalized by every element. Equality is identity.
    """
    name: str
    contains: Callable[[int], bool]
    members: Callable[[], Iterator[int]]

    def __contains__(self, x: int) -> bool:
        return self.contains(x)

    def __iter__(self) -> Iterator[int]:
        return self.members()

    def __repr__(self) -> str:
        return f"ThinSet({self.name})"

    # The certifier starts one enumeration per call, and a map over count()
    # starts faster than a generator: 1 << k and k * k for k = 0, 1, 2, ...
    @staticmethod
    def powers_of_two() -> "ThinSet":
        return ThinSet("pow2", lambda x: x >= 1 and x & (x - 1) == 0,
                       lambda: map((1).__lshift__, count()))

    @staticmethod
    def squares() -> "ThinSet":
        return ThinSet("squares", lambda x: x >= 0 and isqrt(x) ** 2 == x,
                       lambda: map(mul, count(), count()))

    @staticmethod
    def explicit(points: Iterable[int]) -> "ThinSet":
        pts = tuple(sorted(set(points)))
        if not pts:
            raise ValueError("a finite thin set needs at least one point")
        return ThinSet("finite{" + ",".join(map(str, pts)) + "}",
                       frozenset(pts).__contains__, lambda: iter(pts))


def in_free_factor(w: FreeWord, a: ThinSet) -> bool:
    """F_A membership: every letter is a generator from A."""
    contains = a.contains
    for g, _ in w:
        if not contains(g):
            return False
    return True


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
    u, n = h
    contains = a.contains
    u_in = in_free_factor(u, a)
    if n == 0 and u_in:
        return InSubgroup()
    tried = []
    for k in a:
        if len(tried) >= depth:
            break
        tried.append(k)
        j = k + n
        if u_in and contains(j):
            continue
        # p: u without a trailing z_j syllable, as a plain tuple
        p = u[:-1] if u and u[-1][0] == j else u[:]
        word = _word(p + ((j, 1),) + tuple([(g, -e) for g, e in reversed(p)]))
        return MovesOut(k, _sd((word, 0)))
    return Inconclusive(tuple(tried))
