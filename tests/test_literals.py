import pytest

from permtop import EPSet, ResiduePerm
from permtop.errors import OddModulus, Overlap, ParseError
from permtop.literals import (
    expr_to_literal,
    parse_epset,
    parse_expr,
    parse_free_word,
    parse_group_word,
    parse_pair,
    parse_partition,
    parse_perm,
    parse_points,
    parse_sd_element,
    parse_thin_set,
    word_to_literal,
)
from permtop.perm import from_cycles, identity, sigma, transposition
from permtop.sampling import (
    random_epset,
    random_free_word,
    random_partition,
    random_perm_mixed,
    random_sd_element,
)
from permtop.selfnorm import FreeWord, SDElement
from permtop.subbase import (
    ConjEq,
    ConjNeq,
    Const,
    DoubleConjNeq,
    FixesAll,
    GroupWord,
    Intersection,
    PointFiber,
    SupportIn,
    Var,
    WordNeq,
)


def test_parse_perm_basics():
    assert parse_perm("id") == identity()
    assert parse_perm("sigma") == sigma()
    assert parse_perm("(0 1 2)") == from_cycles((0, 1, 2))
    assert parse_perm("(0 1)(2 3)") == from_cycles((0, 1), (2, 3))
    assert parse_perm("sigma * (0 1)") == sigma() * transposition(0, 1)
    assert parse_perm("res[2; 1,-1]") == sigma()
    assert parse_perm("res[4; 2,0,-2,0]") == ResiduePerm(4, (2, 0, -2, 0))
    assert parse_perm("res[2; 0,0; patch: 0->1, 1->0]") == transposition(0, 1)


def test_parse_perm_powers_and_products():
    assert parse_perm("sigma^2") == identity()
    assert parse_perm("sigma^-1") == sigma()
    assert parse_perm("(0 1 2)^-1") == from_cycles((0, 2, 1))
    assert parse_perm("(0 1) * (1 2) * (2 3)") == (
        transposition(0, 1) * transposition(1, 2) * transposition(2, 3)
    )


def test_parse_perm_errors():
    with pytest.raises(ParseError):
        parse_perm("")
    with pytest.raises(ParseError):
        parse_perm("bogus")
    with pytest.raises(ParseError):
        parse_perm("(0 1")
    with pytest.raises(ParseError):
        parse_perm("(0 1) junk")
    with pytest.raises(ParseError):
        parse_perm("(0 @)")
    # value rejections surface as parse failures with a position
    with pytest.raises(ParseError, match="repeated"):
        parse_perm("(0 0 1)")
    with pytest.raises(ParseError):
        parse_perm("(0 1)(1 2)")
    with pytest.raises(ParseError, match="bijection"):
        parse_perm("res[2; 2,0]")
    with pytest.raises(ParseError):
        parse_perm("res[2; 0,0; patch: 0->1]")


def test_parse_error_carries_position():
    try:
        parse_perm("(0 @)")
    except ParseError as exc:
        assert exc.line == 1
        assert exc.col == 4
    else:
        pytest.fail("no error raised")


def test_digits_are_ascii():
    # one spelling per number: other decimal digits are refused where they stand
    for text, col in (("(\u0663 \u0664)", 2), ("(0 1)\n(2 \u0663)", 4)):
        with pytest.raises(ParseError) as info:
            parse_perm(text)
        assert str(info.value) == (f"unexpected character '\u0663' "
                                   f"(line {text.count(chr(10)) + 1}, col {col})")
    with pytest.raises(ParseError, match="bad generator 'z1_0'"):
        parse_free_word("z1_0")


def test_parse_points():
    for text in ("", "  ", "{}", "{ }"):
        assert parse_points(text) == frozenset()
    for text in ("0,1,2", "{0,1,2}", " { 2, 0 ,1 } ", "2,0,1,0"):
        assert parse_points(text) == frozenset({0, 1, 2})
    for text, message in (("{0,1", "expected }, found end of input (line 1, col 5)"),
                          ("0,1}", "trailing input '}' (line 1, col 4)"),
                          ("-1", "expected int, found '-' (line 1, col 1)"),
                          ("+3", "expected int, found '+' (line 1, col 1)"),
                          ("1_000", "trailing input '_000' (line 1, col 2)"),
                          ("0,,1", "expected int, found ',' (line 1, col 3)"),
                          ("0 1", "trailing input '1' (line 1, col 3)")):
        with pytest.raises(ParseError) as info:
            parse_points(text)
        assert str(info.value) == message, text


def test_parse_pair():
    assert parse_pair("(0 1) | id") == (transposition(0, 1), identity())
    assert parse_pair("sigma*(0 1)|(2 3)^-1") == (sigma() * transposition(0, 1),
                                                  transposition(2, 3))
    for text, message in (("(0 1)", "expected |, found end of input (line 1, col 6)"),
                          ("(0 1) | id | id", "trailing input '|' (line 1, col 12)"),
                          ("(0 1) |", "expected name, found end of input (line 1, col 8)")):
        with pytest.raises(ParseError) as info:
            parse_pair(text)
        assert str(info.value) == message, text


def test_perm_roundtrip(rng):
    battery = [
        identity(),
        sigma(),
        transposition(0, 1),
        from_cycles((0, 1, 2), (5, 6)),
        ResiduePerm(4, (2, 0, -2, 0)),
        ResiduePerm(2, (1, -1), {0: 3, 3: 0, 1: 2, 2: 1}),
    ]
    battery += [random_perm_mixed(rng) for _ in range(60)]
    for p in battery:
        assert parse_perm(p.to_literal()) == p


def test_parse_epset():
    assert parse_epset("ep[2; 0]") == EPSet.evens()
    assert parse_epset("ep[1; ]") == EPSet.empty()
    assert parse_epset("ep[1; ; +{2,5}]") == EPSet.finite([2, 5])
    s = parse_epset("ep[2; 0; +{1}; -{0,2}]")
    assert 1 in s and 0 not in s and 2 not in s and 4 in s
    with pytest.raises(ParseError):
        parse_epset("ep[2 0]")
    with pytest.raises(ParseError):
        parse_epset("ep[0; ]")
    with pytest.raises(ParseError):
        parse_epset("set[2; 0]")


def test_epset_roundtrip(rng):
    for _ in range(80):
        s = random_epset(rng)
        assert parse_epset(s.to_literal()) == s


def test_parse_group_word():
    w = parse_group_word("x")
    assert w == GroupWord((Var(1),))
    w = parse_group_word("x^-1 * (0 1) * x")
    assert w == GroupWord((Var(-1), Const(transposition(0, 1)), Var(1)))
    assert parse_group_word("x^2") == GroupWord((Var(1), Var(1)))
    with pytest.raises(ParseError):
        parse_group_word("x^0")
    with pytest.raises(ParseError):
        # a group word needs at least one variable letter
        parse_group_word("(0 1) * (1 2)")


def test_group_word_roundtrip(rng):
    w = GroupWord((Var(1), Const(sigma()), Var(-1), Const(transposition(0, 1))))
    assert parse_group_word(word_to_literal(w)) == w
    for _ in range(20):
        letters = []
        for _ in range(rng.randrange(1, 5)):
            if rng.random() < 0.5:
                letters.append(Var(rng.choice((1, -1))))
            else:
                letters.append(Const(random_perm_mixed(rng)))
        if not any(isinstance(l, Var) for l in letters):
            letters.append(Var(1))
        w = GroupWord(tuple(letters))
        assert parse_group_word(word_to_literal(w)) == w


def test_parse_expr_shapes():
    assert parse_expr("conjneq(id; (0 1))") == ConjNeq(identity(), transposition(0, 1))
    assert parse_expr("dconjneq((0 1); (2 3))") == DoubleConjNeq(
        transposition(0, 1), transposition(2, 3)
    )
    assert parse_expr("conjeq(sigma; (0 1))") == ConjEq(sigma(), transposition(0, 1))
    assert parse_expr("wordneq(x * (0 1) * x^-1)") == WordNeq(
        GroupWord((Var(1), Const(transposition(0, 1)), Var(-1)))
    )
    assert parse_expr("fiber(3->7)") == PointFiber(3, 7)
    assert parse_expr("fixes{0,1}") == FixesAll((0, 1))
    assert parse_expr("suppin{0,1,2}") == SupportIn(frozenset({0, 1, 2}))
    e = parse_expr("and(fiber(0->1), fixes{5})")
    assert e == Intersection((PointFiber(0, 1), FixesAll((5,))))


def test_parse_expr_value_errors_become_parse_errors():
    with pytest.raises(ParseError):
        # second argument must be an involution
        parse_expr("conjneq(id; (0 1 2))")
    with pytest.raises(ParseError):
        parse_expr("fiber(0->1->2)")
    with pytest.raises(ParseError):
        parse_expr("conjneq(id)")
    with pytest.raises(ParseError):
        parse_expr("nope(id; id)")


def test_expr_roundtrip():
    exprs = [
        ConjNeq(identity(), transposition(0, 1)),
        ConjNeq(sigma(), identity()),
        DoubleConjNeq(sigma(), transposition(2, 3)),
        ConjEq(transposition(0, 5), transposition(0, 1)),
        WordNeq(GroupWord((Var(1), Const(sigma()), Var(-1)))),
        PointFiber(0, 0),
        FixesAll((1, 4)),
        SupportIn(frozenset({0, 2})),
        Intersection((PointFiber(0, 1), FixesAll((5,)), ConjNeq(identity(), sigma()))),
    ]
    for e in exprs:
        assert parse_expr(expr_to_literal(e)) == e


def test_parse_free_word():
    assert parse_free_word("1") == FreeWord(())
    assert parse_free_word("z3 * z1 * z3^-1") == FreeWord(((3, 1), (1, 1), (3, -1)))
    assert parse_free_word("z2^3") == FreeWord(((2, 3),))
    assert parse_free_word("z-1") == FreeWord(((-1, 1),))
    # adjacent inverse syllables cancel on parse
    assert parse_free_word("z2 * z2^-1") == FreeWord(())
    with pytest.raises(ParseError):
        parse_free_word("z3^0")
    with pytest.raises(ParseError):
        parse_free_word("w3")


def test_free_word_roundtrip(rng):
    for _ in range(60):
        w = random_free_word(rng, (1, 2, 3, 7))
        assert parse_free_word(w.to_literal()) == w


def test_parse_sd_element(rng):
    assert parse_sd_element("( z2 ; 0 )") == SDElement(FreeWord(((2, 1),)), 0)
    assert parse_sd_element("( 1 ; -3 )") == SDElement(FreeWord(()), -3)
    with pytest.raises(ParseError):
        parse_sd_element("( z2 ; )")
    with pytest.raises(ParseError):
        parse_sd_element("z2 ; 0")
    for _ in range(40):
        h = random_sd_element(rng, (1, 2, 5))
        assert parse_sd_element(h.to_literal()) == h


def test_parse_thin_set():
    assert parse_thin_set("pow2").name == "pow2"
    assert parse_thin_set("squares").name == "squares"
    ex = parse_thin_set("finite{1,2}")
    assert 1 in ex and 3 not in ex
    with pytest.raises(ParseError):
        parse_thin_set("cubes")
    with pytest.raises(ParseError, match="at least one point"):
        parse_thin_set("finite{}")


def test_parse_partition(rng):
    part = parse_partition("part[2; ep[2; 0]; ep[2; 1]]")
    assert part.modulus == 2
    assert part.pieces[0] == EPSet.evens()
    # coverage defects keep their own exception types
    with pytest.raises(Overlap):
        parse_partition("part[2; ep[2; 0]; ep[2; 0]]")
    with pytest.raises(OddModulus):
        parse_partition("part[3; ep[1; 0]]")
    with pytest.raises(ParseError):
        parse_partition("part[2; ep[2; 0] ep[2; 1]]")
    for _ in range(25):
        part = random_partition(rng)
        assert parse_partition(part.to_literal()) == part
