"""Text literals for every value the command line accepts or prints.

One shared tokenizer, one recursive-descent parser per value shape.
Grammar defects and rejected component values raise ParseError with line
and column; the one exception is partition coverage (gaps, overlaps, odd
moduli), which keeps its own error types since the pieces parse fine.
The printers here and the to_literal methods on the value types round-trip
through these parsers.
"""

from __future__ import annotations

import re

from .epset import EPSet
from .errors import ParseError
from .perm import ResiduePerm, from_cycles, identity, sigma
from .selfnorm import FreeWord, SDElement, ThinSet
from .subbase import (ConjEq, ConjNeq, Const, DoubleConjNeq, FixesAll, GroupWord,
                      Intersection, OpenSetExpr, PointFiber, SupportIn, Var, WordNeq)
from .tbeta import Partition, validate_partition

# whitespace, then an int, a symbol, a name or any other (refused) character
_TOKEN = re.compile(r"\s+|(\d+)|(->|[\^*()\[\]{};,|+\-:])|([A-Za-z_][A-Za-z_0-9]*)|(.)")


class _Parser:
    def __init__(self, text: str):
        self.text = text
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

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)

    def expect_end(self):
        if not self.at_end():
            self.error(f"trailing input {self.peek_value()!r}")

    def build(self, where: tuple[int, int], fn, *args, **kwargs):
        # Value constructors validate their inputs; surface any rejection
        # as a parse failure at the literal that produced it.
        try:
            return fn(*args, **kwargs)
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(str(exc), *where) from exc

    def signed_int(self) -> int:
        if self.peek() == "-":
            self.take("-")
            return -int(self.take("int"))
        return int(self.take("int"))

    def int_list(self, stop: str) -> list[int]:
        out: list[int] = []
        if self.peek() == stop:
            return out
        out.append(self.signed_int())
        while self.peek() == ",":
            self.take(",")
            out.append(self.signed_int())
        return out


def _parse(text: str, rule):
    """The value `rule` reads from the whole of `text`."""
    p = _Parser(text)
    out = rule(p)
    p.expect_end()
    return out


# -- permutations -------------------------------------------------------------

def _perm_atom(p: _Parser) -> ResiduePerm:
    start = p._where()
    if p.peek() == "(":
        cycles = []
        while p.peek() == "(":
            p.take("(")
            pts = []
            while p.peek() != ")":
                pts.append(int(p.take("int")))
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
        modulus = int(p.take("int"))
        p.take(";")
        shifts = [p.signed_int()]
        while p.peek() == ",":
            p.take(",")
            shifts.append(p.signed_int())
        patch = {}
        if p.peek() == ";":
            p.take(";")
            if p.take("name") != "patch":
                p.error("expected 'patch'")
            p.take(":")
            while True:
                a = int(p.take("int"))
                p.take("->")
                b = int(p.take("int"))
                patch[a] = b
                if p.peek() != ",":
                    break
                p.take(",")
        p.take("]")
        return p.build(start, ResiduePerm, modulus, shifts, patch)
    p.error(f"unknown permutation {name!r}")


def _perm_factor(p: _Parser) -> ResiduePerm:
    atom = _perm_atom(p)
    if p.peek() == "^":
        p.take("^")
        atom = atom ** p.signed_int()
    return atom


def _perm_expr(p: _Parser) -> ResiduePerm:
    out = _perm_factor(p)
    while p.peek() == "*":
        p.take("*")
        out = out * _perm_factor(p)
    return out


def parse_perm(text: str) -> ResiduePerm:
    return _parse(text, _perm_expr)


# -- eventually periodic sets ---------------------------------------------------

def _epset_body(p: _Parser) -> EPSet:
    start = p._where()
    if p.take("name") != "ep":
        p.error("expected 'ep'")
    p.take("[")
    modulus = int(p.take("int"))
    p.take(";")
    residues = [] if p.peek() in (";", "]") else p.int_list("]")
    added: list[int] = []
    removed: list[int] = []
    while p.peek() == ";":
        p.take(";")
        sign = p.take()
        if sign not in ("+", "-"):
            p.error("expected '+' or '-' correction block")
        p.take("{")
        target = added if sign == "+" else removed
        target.extend(p.int_list("}"))
        p.take("}")
    p.take("]")
    return p.build(start, EPSet, modulus, residues, added=added, removed=removed)


def parse_epset(text: str) -> EPSet:
    return _parse(text, _epset_body)


# -- group words and open-set expressions ---------------------------------------

def _group_word(p: _Parser) -> GroupWord:
    start = p._where()
    letters = []

    def factor():
        if p.peek() == "name" and p.peek_value() == "x":
            p.take("name")
            exp = 1
            if p.peek() == "^":
                p.take("^")
                exp = p.signed_int()
            if exp == 0:
                p.error("variable exponent must be nonzero")
            letters.extend([Var(1 if exp > 0 else -1)] * abs(exp))
        else:
            letters.append(Const(_perm_factor(p)))

    factor()
    while p.peek() == "*":
        p.take("*")
        factor()
    return p.build(start, GroupWord, tuple(letters))


def parse_group_word(text: str) -> GroupWord:
    return _parse(text, _group_word)


# expressions over a pair of permutations, name(a; b), and over a point set,
# name{p, q, ...}
_PAIR_EXPRS = {"conjneq": ConjNeq, "conjeq": ConjEq, "dconjneq": DoubleConjNeq}
_POINT_EXPRS = {"fixes": FixesAll, "suppin": SupportIn}


def _expr(p: _Parser) -> OpenSetExpr:
    start = p._where()
    name = p.take("name")
    if name in _PAIR_EXPRS:
        p.take("(")
        first = _perm_expr(p)
        p.take(";")
        second = _perm_expr(p)
        p.take(")")
        return p.build(start, _PAIR_EXPRS[name], first, second)
    if name == "wordneq":
        p.take("(")
        w = _group_word(p)
        p.take(")")
        return WordNeq(w)
    if name == "fiber":
        p.take("(")
        x = int(p.take("int"))
        p.take("->")
        y = int(p.take("int"))
        p.take(")")
        return p.build(start, PointFiber, x, y)
    if name in _POINT_EXPRS:
        p.take("{")
        pts = frozenset(p.int_list("}"))
        p.take("}")
        return p.build(start, _POINT_EXPRS[name], pts)
    if name == "and":
        p.take("(")
        parts = [_expr(p)]
        while p.peek() == ",":
            p.take(",")
            parts.append(_expr(p))
        p.take(")")
        return Intersection(tuple(parts))
    p.error(f"unknown expression {name!r}")


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
    if isinstance(e, ConjNeq):
        return f"conjneq({e.a.to_literal()}; {e.b.to_literal()})"
    if isinstance(e, DoubleConjNeq):
        return f"dconjneq({e.b.to_literal()}; {e.c.to_literal()})"
    if isinstance(e, ConjEq):
        return f"conjeq({e.a.to_literal()}; {e.b.to_literal()})"
    if isinstance(e, WordNeq):
        return f"wordneq({word_to_literal(e.word)})"
    if isinstance(e, PointFiber):
        return f"fiber({e.x}->{e.y})"
    if isinstance(e, FixesAll):
        return "fixes{" + ",".join(str(x) for x in sorted(e.points)) + "}"
    if isinstance(e, SupportIn):
        return "suppin{" + ",".join(str(x) for x in sorted(e.points)) + "}"
    if isinstance(e, Intersection):
        return "and(" + ", ".join(expr_to_literal(part) for part in e.parts) + ")"
    raise TypeError(f"not an open-set expression: {e!r}")


# -- free words, group elements, thin sets ---------------------------------------

def _free_word(p: _Parser) -> FreeWord:
    if p.peek() == "int" and p.peek_value() == "1":
        p.take("int")
        return FreeWord(())
    raw = []

    def syllable():
        name = p.take("name")
        if not name.startswith("z"):
            p.error(f"expected generator zK, found {name!r}")
        if name == "z":
            gen = p.signed_int()
        else:
            try:
                gen = int(name[1:])
            except ValueError:
                p.error(f"bad generator {name!r}")
        exp = 1
        if p.peek() == "^":
            p.take("^")
            exp = p.signed_int()
        if exp == 0:
            p.error("generator exponent must be nonzero")
        raw.append((gen, exp))

    syllable()
    while p.peek() == "*":
        p.take("*")
        syllable()
    return FreeWord.from_raw(raw)


def parse_free_word(text: str) -> FreeWord:
    return _parse(text, _free_word)


def parse_sd_element(text: str) -> SDElement:
    p = _Parser(text)
    p.take("(")
    word = _free_word(p)
    p.take(";")
    shift = p.signed_int()
    p.take(")")
    p.expect_end()
    return SDElement(word, shift)


def parse_thin_set(text: str) -> ThinSet:
    p = _Parser(text)
    name = p.take("name")
    if name == "pow2":
        p.expect_end()
        return ThinSet.powers_of_two()
    if name == "squares":
        p.expect_end()
        return ThinSet.squares()
    if name == "finite":
        p.take("{")
        thin = p.build(p._where(), ThinSet.explicit, p.int_list("}"))
        p.take("}")
        p.expect_end()
        return thin
    p.error(f"unknown thin set {name!r}")


# -- partitions -----------------------------------------------------------------

def parse_partition(text: str) -> Partition:
    p = _Parser(text)
    if p.take("name") != "part":
        p.error("expected 'part'")
    p.take("[")
    modulus = int(p.take("int"))
    p.take(";")
    pieces = [_epset_body(p)]
    while p.peek() == ";":
        p.take(";")
        pieces.append(_epset_body(p))
    p.take("]")
    p.expect_end()
    return validate_partition(pieces, modulus=modulus)
