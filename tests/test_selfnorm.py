import copy
import pickle

import pytest

from permtop.errors import ZeroExponent
from permtop.sampling import random_free_word, random_sd_element
from permtop.selfnorm import (
    ONE,
    SD_ONE,
    FreeWord,
    Inconclusive,
    InSubgroup,
    MovesOut,
    SDElement,
    ThinSet,
    certify_self_normalizing,
    generator,
    in_free_factor,
    sd_conj,
    word_element,
)


def test_free_word_reduction():
    assert FreeWord.from_raw([(1, 1), (1, -1)]).is_identity()
    assert FreeWord.from_raw([(1, 2), (1, -1)]) == FreeWord(((1, 1),))
    assert FreeWord.from_raw([(1, 1), (2, 1), (2, -1), (1, 1)]) == FreeWord(((1, 2),))
    with pytest.raises(ValueError):
        FreeWord(((1, 0),))
    with pytest.raises(ValueError):
        # adjacent syllables with one generator must be merged already
        FreeWord(((1, 1), (1, 1)))
    # generator indices are arbitrary integers
    assert FreeWord.from_raw([(0, 1)]) == FreeWord(((0, 1),))


def test_free_word_group_laws(rng):
    gens = (1, 2, 3)
    for _ in range(60):
        u = random_free_word(rng, gens)
        v = random_free_word(rng, gens)
        w = random_free_word(rng, gens)
        assert (u * v) * w == u * (v * w)
        assert (u * u.inverse()).is_identity()
        assert (u * v).inverse() == v.inverse() * u.inverse()


def test_free_word_shift_and_letters():
    w = FreeWord(((1, 1), (3, -2)))
    assert w.shifted(2) == FreeWord(((3, 1), (5, -2)))
    assert w.shifted(0) == w
    assert generator(4) == FreeWord(((4, 1),))


def test_free_word_literals():
    assert FreeWord(()).to_literal() == "1"
    assert FreeWord(((3, 1), (1, 2))).to_literal() == "z3 * z1 * z1"
    assert FreeWord(((-1, 1),)).to_literal() == "z-1"
    assert FreeWord(((3, -2),)).to_literal() == "z3^-1 * z3^-1"


def test_sd_element_group_laws(rng):
    gens = (1, 2, 3)
    for _ in range(60):
        a = random_sd_element(rng, gens)
        b = random_sd_element(rng, gens)
        c = random_sd_element(rng, gens)
        assert (a * b) * c == a * (b * c)
        assert (a * a.inverse()) == SD_ONE
        assert (a * b).inverse() == b.inverse() * a.inverse()
        assert a * SD_ONE == a


def test_sd_element_basics():
    assert SDElement().is_identity()
    assert SDElement(FreeWord(()), 0).inverse() == SD_ONE
    z2 = SDElement(generator(2), 0)
    assert z2.inverse() == SDElement(generator(2).inverse(), 0)
    shift = SDElement(FreeWord(()), 1)
    assert sd_conj(shift, z2) == SDElement(generator(3), 0)
    assert SDElement(generator(2), 0).to_literal() == "( z2 ; 0 )"
    assert SD_ONE.to_literal() == "( 1 ; 0 )"



# -- the value types are tuples, compared only with their own type -------------

def test_value_types_compare_only_with_their_own_type():
    assert FreeWord(()) != ()
    assert not FreeWord(()) == ()
    assert () != FreeWord(())
    assert FreeWord(((1, 1),)) != ((1, 1),)
    assert SDElement() != (ONE, 0)
    assert (ONE, 0) != SDElement()
    assert ONE != SD_ONE and SD_ONE != ONE
    # equal as plain tuples, still never equal across the two types
    w = FreeWord(((1, 1), (2, 1)))
    h = SDElement((1, 1), (2, 1))
    assert tuple(w) == tuple(h)
    assert w != h and h != w and not w == h


def test_value_types_hash_with_equality():
    assert FreeWord.from_raw([(1, 1), (2, 1), (2, -2)]) == FreeWord(((1, 1), (2, -1)))
    assert hash(FreeWord.from_raw([(1, 1), (2, 1), (2, -2)])) == \
        hash(FreeWord(((1, 1), (2, -1))))
    assert hash(SDElement(generator(2), 1)) == hash(SDElement(FreeWord(((2, 1),)), 1))
    assert len({SD_ONE, SDElement(), SDElement(ONE, 0), SDElement(FreeWord(()))}) == 1


def test_value_types_refuse_tuple_arithmetic():
    w = FreeWord(((1, 1),))
    h = SDElement(w, 1)
    for op in (lambda: 3 * w, lambda: w + w, lambda: w * 3,
               lambda: 3 * h, lambda: h + h, lambda: h * 3,
               lambda: w < w, lambda: () <= ONE, lambda: h > SD_ONE):
        with pytest.raises(TypeError):
            op()


def test_value_type_attributes():
    w = FreeWord(((1, 1), (2, -1)))
    assert type(w.syllables) is tuple
    assert w.syllables == ((1, 1), (2, -1))
    assert type(ONE.syllables) is tuple and ONE.syllables == ()
    h = SDElement(w, 3)
    assert h.word is w and h.shift == 3
    assert SDElement(shift=2) == SDElement(ONE, 2)
    assert SDElement(word=w) == SDElement(w, 0)


def test_value_types_copy_and_pickle():
    for v in (ONE, FreeWord(((1, 1), (2, -1))), SD_ONE,
              SDElement(FreeWord(((3, 2),)), -4)):
        for dup in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert dup == v and type(dup) is type(v)
            assert type(dup.to_literal()) is str and dup.to_literal() == v.to_literal()


def test_validating_constructor_errors():
    with pytest.raises(ZeroExponent, match="generator 1 has exponent 0"):
        FreeWord(((1, 0),))
    with pytest.raises(ValueError, match="unreduced word: repeated generator 1"):
        FreeWord(((1, 1), (1, 1)))
    with pytest.raises(ZeroExponent, match="generator 2 has exponent 0"):
        FreeWord.from_raw([(1, 1), (2, 0)])
    # every zero exponent is reported before any repeated generator
    with pytest.raises(ZeroExponent, match="generator 3 has exponent 0"):
        FreeWord(((2, 1), (2, 1), (3, 0)))
    # syllables may be lists, and each must be a pair
    assert FreeWord(syllables=[[1, 2], (3, -1)]) == FreeWord(((1, 2), (3, -1)))
    with pytest.raises(ValueError):
        FreeWord(((1, 2, 3),))
    with pytest.raises(ValueError):
        FreeWord(((1,),))
    with pytest.raises(TypeError):
        FreeWord((5,))


# -- the one-pass product, inverse and conjugate against free reduction ----------

def _short_words():
    """Every reduced word of length <= 2 over z0, z1, z2, exponents +-1."""
    letters = [(g, e) for g in (0, 1, 2) for e in (1, -1)]
    raws = [[]] + [[x] for x in letters]
    raws += [[x, y] for x in letters for y in letters if y != (x[0], -x[1])]
    return [FreeWord.from_raw(raw) for raw in raws]


def test_one_pass_product_matches_free_reduction():
    words = _short_words()
    assert len(words) == 37
    for v in words:
        for u in words:
            assert v * u == FreeWord.from_raw(list(v) + list(u)), (v, u)
    elements = [SDElement(w, n) for w in words for n in range(-2, 3)]
    assert len(elements) == 185
    for h in elements:
        v, n = h.word, h.shift
        assert h * h.inverse() == SD_ONE, h
        assert h.inverse() == SDElement(
            FreeWord.from_raw([(g - n, -e) for g, e in reversed(v)]), -n), h
        assert sd_conj(h, h) == h, h
        assert sd_conj(h, h.inverse()) == h.inverse(), h
        assert sd_conj(h, SD_ONE) == SD_ONE, h
        vinv = [(g, -e) for g, e in reversed(v)]
        for k in elements:
            u, m = k.word, k.shift
            assert h * k == SDElement(
                FreeWord.from_raw(list(v) + [(g + n, e) for g, e in u]), n + m), (h, k)
            # h k h^-1 = (v * shift^n(u) * shift^m(v^-1), m)
            conj = sd_conj(h, k)
            assert conj == h * k * h.inverse(), (h, k)
            assert conj == SDElement(FreeWord.from_raw(
                list(v) + [(g + n, e) for g, e in u] + [(g + m, e) for g, e in vinv]),
                m), (h, k)


def test_thin_sets():
    p2 = ThinSet.powers_of_two()
    assert p2.name == "pow2"
    assert all(v in p2 for v in (1, 2, 4, 1024))
    assert all(v not in p2 for v in (0, 3, 6))
    sq = ThinSet.squares()
    assert all(v in sq for v in (0, 1, 4, 9, 144))
    assert 2 not in sq
    ex = ThinSet.explicit((5, 0, 5))
    assert 5 in ex and 3 not in ex
    assert ex.contains(0) and not ex.contains(3)
    assert ex.name == "finite{0,5}"
    assert list(ex) == list(ex.members()) == [0, 5]
    from itertools import islice

    assert list(islice(iter(p2), 4)) == [1, 2, 4, 8]
    assert list(islice(sq.members(), 5)) == [0, 1, 4, 9, 16]
    assert repr(sq) == "ThinSet(squares)"
    # equality is identity: two builds of one family are two sets
    assert p2 == p2 and p2 != ThinSet.powers_of_two()


def test_in_free_factor():
    p2 = ThinSet.powers_of_two()
    assert in_free_factor(FreeWord(((1, 1), (2, -1))), p2)
    assert in_free_factor(FreeWord(()), p2)
    assert not in_free_factor(generator(3), p2)


def test_certify_in_subgroup():
    p2 = ThinSet.powers_of_two()
    v = certify_self_normalizing(SDElement(FreeWord(((1, 1), (2, 1))), 0), p2)
    assert v == InSubgroup()


def test_certify_moves_out_shift():
    p2 = ThinSet.powers_of_two()
    v = certify_self_normalizing(SDElement(FreeWord(()), 1), p2)
    assert isinstance(v, MovesOut)
    # z1 conjugates to z2, still inside; z2 is the first escaping generator
    assert v.witness == 2
    assert v.conjugate == SDElement(generator(3), 0)


def test_certify_moves_out_letter():
    p2 = ThinSet.powers_of_two()
    v = certify_self_normalizing(SDElement(generator(3), 0), p2)
    assert isinstance(v, MovesOut)
    assert v.witness == 1
    assert v.conjugate == SDElement(
        FreeWord(((3, 1), (1, 1), (3, -1))), 0
    )


def test_certify_verdicts_are_sound(rng):
    p2 = ThinSet.powers_of_two()
    for _ in range(60):
        h = random_sd_element(rng, (1, 2, 4, 3, 5), max_shift=1)
        v = certify_self_normalizing(h, p2, depth=6)
        if isinstance(v, InSubgroup):
            assert h.shift == 0
            assert in_free_factor(h.word, p2)
        elif isinstance(v, MovesOut):
            assert v.witness in p2
            conj = sd_conj(h, SDElement(generator(v.witness), 0))
            assert conj == v.conjugate
            assert conj.shift != 0 or not in_free_factor(conj.word, p2)


def test_certify_inconclusive_at_zero_depth():
    p2 = ThinSet.powers_of_two()
    v = certify_self_normalizing(SDElement(FreeWord(()), 1), p2, depth=0)
    assert isinstance(v, Inconclusive)
    assert v.tried == ()


def test_certify_exhaustive_small():
    # every (word, shift) over letters {1, 2, 4} and 3 with |word| <= 2
    p2 = ThinSet.powers_of_two()
    letters = [1, 2, 4, 3]
    words = [FreeWord(())]
    words += [FreeWord(((g, e),)) for g in letters for e in (1, -1)]
    for g in letters:
        for h in letters:
            if g != h:
                words.append(FreeWord(((g, 1), (h, 1))))
    for w in words:
        for shift in (-1, 0, 1):
            h = SDElement(w, shift)
            v = certify_self_normalizing(h, p2, depth=8)
            inside = shift == 0 and in_free_factor(w, p2)
            if inside:
                assert v == InSubgroup()
            else:
                assert isinstance(v, MovesOut), (w, shift, v)


def reference_certify(h, a, depth):
    """The trial-conjugation certifier: multiply out h z_k h^-1 per k."""
    if h.shift == 0 and in_free_factor(h.word, a):
        return InSubgroup()
    tried = []
    hinv = h.inverse()
    for k in a:
        if len(tried) >= depth:
            break
        tried.append(k)
        conj = h * word_element(generator(k)) * hinv
        if conj.shift != 0 or not in_free_factor(conj.word, a):
            return MovesOut(k, conj)
    return Inconclusive(tuple(tried))


def test_empty_thin_set_is_refused():
    # F_A is trivial for A empty: every element normalizes it
    with pytest.raises(ValueError, match="at least one point"):
        ThinSet.explicit([])


@pytest.mark.parametrize("a", [
    ThinSet.powers_of_two(),
    ThinSet.squares(),
    ThinSet.explicit((0, 5)),
    ThinSet.explicit((-1, 2)),
], ids=lambda a: a.name)
def test_certify_matches_trial_conjugation(a):
    # every reduced word of up to 3 letters, shifts -3..3, depths 0, 1, 2, 10
    letters = [(g, e) for g in (-1, 0, 1, 2, 3, 4, 5, 8) for e in (1, -1)]
    raws = [[]]
    frontier = [[]]
    for _ in range(3):
        frontier = [w + [x] for w in frontier for x in letters
                    if not w or w[-1] != (x[0], -x[1])]
        raws += frontier
    for raw in raws:
        word = FreeWord.from_raw(raw)
        for shift in range(-3, 4):
            h = SDElement(word, shift)
            for depth in (0, 1, 2, 10):
                assert certify_self_normalizing(h, a, depth) == \
                    reference_certify(h, a, depth), (h, depth)


def test_certify_does_no_group_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("group arithmetic in the certifier")

    for cls, name in ((SDElement, "__mul__"), (SDElement, "inverse"),
                      (FreeWord, "__mul__"), (FreeWord, "inverse")):
        monkeypatch.setattr(cls, name, refuse)
    p2 = ThinSet.powers_of_two()
    u = FreeWord(((3, 1), (1, -2), (2, 1)))
    for h in (SDElement(u, 0), SDElement(u, 2), SDElement(generator(1), -1)):
        assert isinstance(certify_self_normalizing(h, p2), MovesOut)
