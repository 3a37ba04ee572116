"""Text literals for every value the command line accepts or prints.

One shared tokenizer, one recursive-descent rule per value shape, and one
list rule (`_Parser.many`) that reads every separated list. Integers are
ASCII digits. Besides the value types, the grammar reads the command
line's point sets (`0,1,2`, `{0,1,2}`, or empty for none) and constraint
pairs (`F | G`). Grammar defects and rejected component values raise
ParseError with line and column; the one exception is partition coverage
(gaps, overlaps, odd moduli), which keeps its own error types since the
pieces parse fine. The printers here and the to_literal methods on the
value types round-trip through these parsers.
"""

from __future__ import annotations

import re
from functools import partial, reduce
from operator import mul

from .epset import EPSet
from .errors import ParseError
from .perm import ResiduePerm, from_cycles, identity, sigma
from .selfnorm import FreeWord, SDElement, ThinSet
from .subbase import (ConjEq, ConjNeq, Const, DoubleConjNeq, FixesAll, GroupWord,
                      Intersection, OpenSetExpr, PointFiber, SupportIn, Var, WordNeq)
from .tbeta import Partition, validate_partition

# whitespace, then an int, a symbol, a name or any other (refused) character
_TOKEN = re.compile(r"\s+|([0-9]+)|(->|[\^*()\[\]{};,|+\-:])|([A-Za-z_][A-Za-z_0-9]*)|(.)")


class _Parser:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, str, int, int]] = []
        line, col = 1, 1
        for m in _TOKEN.finditer(text):
            value = m.group(0)
            if m.lastindex is None:
                newlines = value.count("\n")
                line += newlines
                col = len(value) - value.rindex("\n") if newlines else col + len(value)
                continue
            if m.lastindex == 4:
                raise ParseError(f"unexpected character {value!r}", line, col)
            kind = "int" if m.lastindex == 1 else "name" if m.lastindex == 3 else value
            self.tokens.append((kind, value, line, col))
            col += len(value)
        self.i = 0

    def _where(self) -> tuple[int, int]:
        if self.i < len(self.tokens):
            return self.tokens[self.i][2], self.tokens[self.i][3]
        if self.tokens:
            t = self.tokens[-1]
            return t[2], t[3] + len(t[1])
        return 1, 1

    def error(self, message: str):
        line, col = self._where()
        raise ParseError(message, line, col)

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def peek_value(self) -> str | None:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else None

    def take(self, kind: str | None = None) -> str:
        if self.i >= len(self.tokens):
            self.error(f"expected {kind or 'more input'}, found end of input")
        k, v, _, _ = self.tokens[self.i]
        if kind is not None and k != kind:
            self.error(f"expected {kind}, found {v!r}")
        self.i += 1
        return v

    def many(self, rule, sep: str = ",", ends: tuple = (), first=None) -> list:
        """Values of `rule` separated by `sep`, the first one read by `first`
        when given; none at all when the next token is one of `ends` (None
        for the end of input)."""
        if self.peek() in ends:
            return []
        out = [(first or rule)(self)]
        while self.peek() == sep:
            self.take(sep)
            out.append(rule(self))
        return out

    def build(self, where: tuple[int, int], fn, *args, **kwargs):
        # Value constructors validate their inputs; surface any rejection
        # as a parse failure at the literal that produced it.
        try:
            return fn(*args, **kwargs)
        except ValueError as exc:
            raise ParseError(str(exc), *where) from exc


def _parse(text: str, rule):
    """The value `rule` reads from the whole of `text`."""
    p = _Parser(text)
    out = rule(p)
    if p.peek() is not None:
        p.error(f"trailing input {p.peek_value()!r}")
    return out


# -- integers and point sets ------------------------------------------------------

def _nat(p: _Parser) -> int:
    return int(p.take("int"))


def _int(p: _Parser) -> int:
    if p.peek() == "-":
        p.take("-")
        return -_nat(p)
    return _nat(p)


def _braced(p: _Parser, item) -> list[int]:
    """`{a, b, ...}`, possibly empty."""
    p.take("{")
    out = p.many(item, ends=("}",))
    p.take("}")
    return out


def _maps_to(p: _Parser) -> tuple[int, int]:
    a = _nat(p)
    p.take("->")
    return a, _nat(p)


def _exponent(p: _Parser) -> int:
    """The `^k` after a factor; 1 when there is none."""
    if p.peek() != "^":
        return 1
    p.take("^")
    return _int(p)


def _points(p: _Parser) -> frozenset[int]:
    return frozenset(_braced(p, _nat) if p.peek() == "{" else p.many(_nat, ends=(None,)))


def parse_points(text: str) -> frozenset[int]:
    """A point set of the command line: `0,1,2`, `{0,1,2}`, or empty for none."""
    return _parse(text, _points)


# -- permutations -------------------------------------------------------------

def _perm_atom(p: _Parser) -> ResiduePerm:
    start = p._where()
    if p.peek() == "(":
        cycles = []
        while p.peek() == "(":
            p.take("(")
            pts = []
            while p.peek() != ")":
                pts.append(_nat(p))
            p.take(")")
            cycles.append(tuple(pts))
        return p.build(start, from_cycles, *cycles)
    name = p.take("name")
    if name == "id":
        return identity()
    if name == "sigma":
        return sigma()
    if name == "res":
        p.take("[")
        modulus = _nat(p)
        p.take(";")
        shifts = p.many(_int)
        patch = {}
        if p.peek() == ";":
            p.take(";")
            if p.take("name") != "patch":
                p.error("expected 'patch'")
            p.take(":")
            patch = dict(p.many(_maps_to))
        p.take("]")
        return p.build(start, ResiduePerm, modulus, shifts, patch)
    p.error(f"unknown permutation {name!r}")


def _perm_factor(p: _Parser) -> ResiduePerm:
    return _perm_atom(p) ** _exponent(p)


def _perm_expr(p: _Parser) -> ResiduePerm:
    return reduce(mul, p.many(_perm_factor, "*"))


def _perm_pair(p: _Parser, sep: str) -> tuple[ResiduePerm, ResiduePerm]:
    first = _perm_expr(p)
    p.take(sep)
    return first, _perm_expr(p)


def parse_perm(text: str) -> ResiduePerm:
    return _parse(text, _perm_expr)


def parse_pair(text: str) -> tuple[ResiduePerm, ResiduePerm]:
    """A constraint pair of the command line: `F | G`."""
    return _parse(text, partial(_perm_pair, sep="|"))


# -- eventually periodic sets ---------------------------------------------------

def _residues(p: _Parser) -> list[int]:
    return p.many(_int, ends=(";", "]"))


def _correction(p: _Parser) -> tuple[str, list[int]]:
    sign = p.take()
    if sign not in ("+", "-"):
        p.error("expected '+' or '-' correction block")
    return sign, _braced(p, _int)


def _epset_body(p: _Parser) -> EPSet:
    start = p._where()
    if p.take("name") != "ep":
        p.error("expected 'ep'")
    p.take("[")
    modulus = _nat(p)
    p.take(";")
    residues, *blocks = p.many(_correction, ";", first=_residues)
    p.take("]")
    added = [x for sign, pts in blocks if sign == "+" for x in pts]
    removed = [x for sign, pts in blocks if sign == "-" for x in pts]
    return p.build(start, EPSet, modulus, residues, added=added, removed=removed)


def parse_epset(text: str) -> EPSet:
    return _parse(text, _epset_body)


# -- group words and open-set expressions ---------------------------------------

def _word_factor(p: _Parser) -> list:
    if p.peek_value() != "x":
        return [Const(_perm_factor(p))]
    p.take()
    exp = _exponent(p)
    if exp == 0:
        p.error("variable exponent must be nonzero")
    return [Var(1 if exp > 0 else -1)] * abs(exp)


def _group_word(p: _Parser) -> GroupWord:
    start = p._where()
    factors = p.many(_word_factor, "*")
    return p.build(start, GroupWord, tuple(letter for f in factors for letter in f))


def parse_group_word(text: str) -> GroupWord:
    return _parse(text, _group_word)


# Every expression shape's name, read by _expr and printed by expr_to_literal.
# name(f; g) over two permutations: the class and the fields printed back
_PAIR_EXPRS = {"conjneq": (ConjNeq, "a", "b"), "conjeq": (ConjEq, "a", "b"),
               "dconjneq": (DoubleConjNeq, "b", "c")}
# name{p, q, ...} over a point set
_POINT_EXPRS = {"fixes": FixesAll, "suppin": SupportIn}
# name(...) over a group word, a point pair x->y, or a list of expressions
_OTHER_EXPRS = {"wordneq": WordNeq, "fiber": PointFiber, "and": Intersection}
_EXPRS = {**{name: cls for name, (cls, _, _) in _PAIR_EXPRS.items()},
          **_POINT_EXPRS, **_OTHER_EXPRS}
_NAMES = {cls: name for name, cls in _EXPRS.items()}


def _expr(p: _Parser) -> OpenSetExpr:
    start = p._where()
    name = p.take("name")
    cls = _EXPRS.get(name)
    if cls is None:
        p.error(f"unknown expression {name!r}")
    if name in _POINT_EXPRS:
        return p.build(start, cls, frozenset(_braced(p, _int)))
    p.take("(")
    if cls is WordNeq:
        args = (_group_word(p),)
    elif cls is PointFiber:
        args = _maps_to(p)
    elif cls is Intersection:
        args = (tuple(p.many(_expr)),)
    else:
        args = _perm_pair(p, ";")
    p.take(")")
    return p.build(start, cls, *args)


def parse_expr(text: str) -> OpenSetExpr:
    return _parse(text, _expr)


def word_to_literal(w: GroupWord) -> str:
    parts = []
    for letter in w.letters:
        if isinstance(letter, Var):
            parts.append("x" if letter.exp == 1 else "x^-1")
        else:
            parts.append(letter.perm.to_literal())
    return " * ".join(parts)


def expr_to_literal(e: OpenSetExpr) -> str:
    name = _NAMES.get(type(e))
    if name is None:
        raise TypeError(f"not an open-set expression: {e!r}")
    if name in _PAIR_EXPRS:
        _, first, second = _PAIR_EXPRS[name]
        return (f"{name}({getattr(e, first).to_literal()}; "
                f"{getattr(e, second).to_literal()})")
    if name in _POINT_EXPRS:
        return name + "{" + ",".join(map(str, sorted(e.points))) + "}"
    if isinstance(e, WordNeq):
        arg = word_to_literal(e.word)
    elif isinstance(e, PointFiber):
        arg = f"{e.x}->{e.y}"
    else:
        arg = ", ".join(map(expr_to_literal, e.parts))
    return f"{name}({arg})"


# -- free words, group elements, thin sets ---------------------------------------

def _syllable(p: _Parser) -> tuple[int, int]:
    name = p.take("name")
    if not name.startswith("z"):
        p.error(f"expected generator zK, found {name!r}")
    if name == "z":
        gen = _int(p)
    elif name[1:].isdigit():
        gen = int(name[1:])
    else:
        p.error(f"bad generator {name!r}")
    exp = _exponent(p)
    if exp == 0:
        p.error("generator exponent must be nonzero")
    return gen, exp


def _free_word(p: _Parser) -> FreeWord:
    if p.peek_value() == "1":
        p.take()
        return FreeWord(())
    return FreeWord.from_raw(p.many(_syllable, "*"))


def parse_free_word(text: str) -> FreeWord:
    return _parse(text, _free_word)


def _sd_element(p: _Parser) -> SDElement:
    p.take("(")
    word = _free_word(p)
    p.take(";")
    shift = _int(p)
    p.take(")")
    return SDElement(word, shift)


def parse_sd_element(text: str) -> SDElement:
    return _parse(text, _sd_element)


def _thin_set(p: _Parser) -> ThinSet:
    name = p.take("name")
    if name == "pow2":
        return ThinSet.powers_of_two()
    if name == "squares":
        return ThinSet.squares()
    if name == "finite":
        p.take("{")
        thin = p.build(p._where(), ThinSet.explicit, p.many(_int, ends=("}",)))
        p.take("}")
        return thin
    p.error(f"unknown thin set {name!r}")


def parse_thin_set(text: str) -> ThinSet:
    return _parse(text, _thin_set)


# -- partitions -----------------------------------------------------------------

def _partition(p: _Parser) -> tuple[list[EPSet], int]:
    if p.take("name") != "part":
        p.error("expected 'part'")
    p.take("[")
    modulus = _nat(p)
    p.take(";")
    pieces = p.many(_epset_body, ";")
    p.take("]")
    return pieces, modulus


def parse_partition(text: str) -> Partition:
    # the whole text parses before coverage is checked
    pieces, modulus = _parse(text, _partition)
    return validate_partition(pieces, modulus=modulus)
