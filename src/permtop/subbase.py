"""Symbolic open-set expressions over the permutation group.

The topologies studied here are generated by sub-basic sets of a handful
of shapes: word inequalities, conjugation (in)equalities, point fibers,
pointwise stabilizers and support confinements. Carriers are infinite, so
sets stay symbolic: each expression only answers membership queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

from .errors import NotInvolution, NotMember, WitnessError, InfiniteSupport
from .perm import ResiduePerm, conjugate, identity


@dataclass(frozen=True)
class Var:
    """One occurrence of the unknown, as x (exp=+1) or x^-1 (exp=-1)."""
    exp: int = 1

    def __post_init__(self):
        if self.exp not in (-1, 1):
            raise ValueError(f"variable exponent must be +-1, got {self.exp}")


@dataclass(frozen=True)
class Const:
    perm: ResiduePerm


Letter = Union[Var, Const]


@dataclass(frozen=True)
class GroupWord:
    """Product of variable occurrences and constants, composed left to right."""
    letters: tuple[Letter, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if not any(isinstance(l, Var) for l in self.letters):
            raise ValueError("a group word needs at least one variable occurrence")
        for l in self.letters:
            if not isinstance(l, (Var, Const)):
                raise TypeError(f"bad word letter {l!r}")

    @staticmethod
    def conj(b: ResiduePerm) -> "GroupWord":
        """x b x^-1."""
        return GroupWord((Var(1), Const(b), Var(-1)))


def eval_word(w: GroupWord, x: ResiduePerm) -> ResiduePerm:
    out = identity()
    for letter in w.letters:
        if isinstance(letter, Var):
            out = out * (x if letter.exp == 1 else x.inverse())
        else:
            out = out * letter.perm
    return out


def traced_point_eval(w: GroupWord, f: ResiduePerm, p: int) -> tuple[int, list[tuple[int, int]]]:
    """Evaluate w(f) at the point p, recording every query made to f.

    Walks letters right to left (composition acts rightmost first).
    Inverse queries f^-1(q)=p are recorded as the forward pair (p, q), so
    any g satisfying all recorded pairs evaluates w(g) at p identically.
    """
    pairs: list[tuple[int, int]] = []
    v = p
    for letter in reversed(w.letters):
        if isinstance(letter, Const):
            v = letter.perm.apply(v)
        elif letter.exp == 1:
            fv = f.apply(v)
            pairs.append((v, fv))
            v = fv
        else:
            u = f.apply_inverse(v)
            pairs.append((u, v))
            v = u
    return v, pairs


class OpenSetExpr:
    """Base for sub-basic (and finitely intersected) open-set expressions."""
    __slots__ = ()


@dataclass(frozen=True)
class WordNeq(OpenSetExpr):
    """{x : w(x) != 1}."""
    word: GroupWord


@dataclass(frozen=True)
class ConjNeq(OpenSetExpr):
    """{x : x b x^-1 != a b a^-1}, b an involution (b=1 allowed, empty set)."""
    a: ResiduePerm
    b: ResiduePerm

    def __post_init__(self):
        if not self.b.is_involution():
            raise NotInvolution()


@dataclass(frozen=True)
class DoubleConjNeq(OpenSetExpr):
    """{x : (x c x^-1) b (x c x^-1)^-1 != b}, b and c involutions."""
    b: ResiduePerm
    c: ResiduePerm

    def __post_init__(self):
        if not self.b.is_involution() or not self.c.is_involution():
            raise NotInvolution()


@dataclass(frozen=True)
class PointFiber(OpenSetExpr):
    """{g : g(x) = y}."""
    x: int
    y: int

    def __post_init__(self):
        if self.x < 0 or self.y < 0:
            raise ValueError("fiber points are naturals")


@dataclass(frozen=True)
class ConjEq(OpenSetExpr):
    """{x : x b x^-1 = a b a^-1}."""
    a: ResiduePerm
    b: ResiduePerm


@dataclass(frozen=True)
class FixesAll(OpenSetExpr):
    """{g : g(p) = p for every p in points}."""
    points: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "points", frozenset(self.points))
        if any(p < 0 for p in self.points):
            raise ValueError("stabilized points are naturals")


@dataclass(frozen=True)
class SupportIn(OpenSetExpr):
    """{g : supt(g) a subset of points}."""
    points: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "points", frozenset(self.points))
        if any(p < 0 for p in self.points):
            raise ValueError("support points are naturals")


@dataclass(frozen=True)
class Intersection(OpenSetExpr):
    parts: tuple[OpenSetExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


def member(e: OpenSetExpr, f: ResiduePerm) -> bool:
    if isinstance(e, WordNeq):
        return not eval_word(e.word, f).is_identity()
    if isinstance(e, ConjNeq):
        return conjugate(f, e.b) != conjugate(e.a, e.b)
    if isinstance(e, DoubleConjNeq):
        d = conjugate(f, e.c)
        return conjugate(d, e.b) != e.b
    if isinstance(e, PointFiber):
        return f.apply(e.x) == e.y
    if isinstance(e, ConjEq):
        return conjugate(f, e.b) == conjugate(e.a, e.b)
    if isinstance(e, FixesAll):
        return all(f.apply(p) == p for p in e.points)
    if isinstance(e, SupportIn):
        return f.has_finite_support() and set(f.moved_points()) <= e.points
    if isinstance(e, Intersection):
        return all(member(part, f) for part in e.parts)
    raise TypeError(f"not an open-set expression: {e!r}")


def _defining_inequality(e: OpenSetExpr) -> tuple[GroupWord, ResiduePerm]:
    """LHS word in the unknown and constant RHS with e = {x : LHS(x) != RHS}."""
    if isinstance(e, WordNeq):
        return e.word, identity()
    if isinstance(e, ConjNeq):
        return GroupWord.conj(e.b), conjugate(e.a, e.b)
    if isinstance(e, DoubleConjNeq):
        w = GroupWord((Var(1), Const(e.c), Var(-1), Const(e.b),
                       Var(1), Const(e.c.inverse()), Var(-1)))
        return w, e.b
    raise TypeError(f"no defining inequality for {type(e).__name__}")


def tp_open_witness(e: OpenSetExpr, f: ResiduePerm) -> list[tuple[int, int]]:
    """Finite constraint list C = [(p, q)] with f(p)=q pinning membership.

    Every g with g(p)=q for all (p, q) in C is again a member of e. For
    inequality-shaped sets C records exactly the queries made to f while
    evaluating the defining inequality at its least witnessing point; for
    equality-shaped sets C pins the finitely many values that determine
    the constrained expression.
    """
    if not member(e, f):
        raise NotMember()
    if isinstance(e, (WordNeq, ConjNeq, DoubleConjNeq)):
        w, rhs = _defining_inequality(e)
        lhs = eval_word(w, f)
        # least p with lhs(p) != rhs(p); rhs^-1 lhs moves exactly those p
        p = (rhs.inverse() * lhs).least_moved()
        _, pairs = traced_point_eval(w, f, p)
        return sorted(set(pairs))
    if isinstance(e, ConjEq):
        # pinning f on supt(b) pins x b x^-1 entirely; needs finite support
        if not e.b.has_finite_support():
            raise InfiniteSupport()
        return sorted((v, f.apply(v)) for v in e.b.moved_points())
    if isinstance(e, PointFiber):
        return [(e.x, e.y)]
    if isinstance(e, FixesAll):
        return sorted((p, p) for p in e.points)
    if isinstance(e, Intersection):
        out: set[tuple[int, int]] = set()
        for part in e.parts:
            out.update(tp_open_witness(part, f))
        return sorted(out)
    raise WitnessError(f"no pointwise witness shape for {type(e).__name__}")
