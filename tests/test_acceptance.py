"""End-to-end acceptance battery.

Runs every numbered criterion at its stated tolerance and prints one
status line per criterion in the terminal summary.
"""

from itertools import count, islice, permutations

import pytest

from permtop import suites, witness
from permtop.perm import identity, transposition
from permtop.selfnorm import FreeWord, MovesOut, SDElement, ThinSet, \
    certify_self_normalizing, generator, sd_conj, word_element
from permtop.suites import CRITERIA, SUITES, _fixed_pairs, _pair_bit, criterion_2, \
    run_suite


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(number, request):
    result = CRITERIA[number](seed=1)
    lines = getattr(request.config, "_acceptance_lines", None)
    if lines is not None:
        lines.append(result.line())
    assert result.ok, result.line()
    if number == 4:
        assert result.detail == \
            "271470 ball exclusions and 4151 isolation enumerations verified"
    if number == 8:
        assert result.detail == "578570 elements certified, none inconclusive"


def test_criterion_5_detail():
    assert CRITERIA[5](seed=1).detail == \
        "939 (A, W) pairs exhaustive, two-point case fails as documented"


def test_sampled_criterion_counts_failures_and_names_the_first(monkeypatch):
    # a separator built for the swapped pair contains f and misses g
    separate = witness.t1_separator
    monkeypatch.setattr(witness, "t1_separator", lambda f, g: separate(g, f))
    result = criterion_2(samples=5)
    assert not result.ok
    assert result.detail == "5 of 5 items failed; first failure: contains g on item 1"


def test_criterion_3_fails_and_says_why_on_too_few_infinite_constraints(monkeypatch):
    finite_only = witness.EscapeInstance(((transposition(0, 1), identity()),), 5)
    monkeypatch.setattr(suites, "_escape_instances",
                        lambda rng, count: [finite_only] * count)
    result = CRITERIA[3](samples=10)
    assert not result.ok
    assert result.detail == ("0 of 10 items failed; 0 instances with an "
                             "infinite-support constraint, 2 needed")


def test_a_failed_check_ends_its_item(monkeypatch):
    # the certificate names generator 3, outside pow2, so the runner stops
    # before the conjugate is recomputed
    pow2 = ThinSet.powers_of_two()
    h = SDElement(FreeWord(((1, 1),)), 0)
    verdict = MovesOut(3, sd_conj(h, word_element(generator(3))))
    calls = []
    monkeypatch.setattr(suites, "sd_conj",
                        lambda h, w: calls.append(w) or sd_conj(h, w))
    result = suites._run(8, "stub", 0.0, "{items} elements certified",
                         ([(h, pow2, verdict)], suites.check_self_normalizing))
    assert calls == []
    assert result.detail == \
        "1 of 1 items failed; first failure: generator in the set on item 1"


def test_check_self_normalizing_recomputes_the_conjugate():
    # a tampered conjugate fails the recomputation and only that check
    pow2 = ThinSet.powers_of_two()
    for h in (SDElement(FreeWord(((3, 1),)), 0), SDElement(FreeWord(()), 1),
              SDElement(FreeWord(((3, 1), (1, -2))), 2)):
        verdict = certify_self_normalizing(h, pow2)
        assert isinstance(verdict, MovesOut)
        assert all(ok for _, ok, _ in suites.check_self_normalizing(h, pow2, verdict))
        word, shift = verdict.conjugate
        tampered = [SDElement(word, 1)]
        for i, (g, e) in enumerate(word):
            tampered.append(SDElement(
                FreeWord(word[:i] + ((g, -e),) + word[i + 1:]), shift))
        for conj in tampered:
            checks = suites.check_self_normalizing(h, pow2, MovesOut(verdict.witness, conj))
            assert [name for name, ok, _ in checks if not ok] == \
                ["conjugate recomputed"], conj


def slow_clock(monkeypatch):
    # every reading of the clock is 1000 s after the one before
    ticks = count(step=1000.0)
    monkeypatch.setattr(suites.time, "perf_counter", lambda: next(ticks))


def test_criteria_1_and_5_fail_over_their_budgets(monkeypatch):
    slow_clock(monkeypatch)
    one = CRITERIA[1]()
    assert not one.ok
    assert one.detail == \
        "3 of 3 items failed; first failure: sn(3) within 1s budget on item 1"
    five = CRITERIA[5]()
    assert not five.ok
    assert five.detail == "0 of 940 items failed; over 10s budget"


def test_criterion_8_fails_over_its_budget(monkeypatch):
    elements = suites._thin_set_elements
    monkeypatch.setattr(suites, "_thin_set_elements", lambda: islice(elements(), 5))
    slow_clock(monkeypatch)
    result = CRITERIA[8]()
    assert not result.ok
    assert result.detail == "0 of 5 items failed; over 30s budget"


def pair_fixed(f, a, c):
    """Reference: {a, c} invariant under the window permutation f, points
    beyond the window fixed."""
    fa = f[a] if a < len(f) else a
    fc = f[c] if c < len(f) else c
    return (fa == a and fc == c) or (fa == c and fc == a)


@pytest.mark.parametrize("window", [1, 3, 5])
def test_fixed_pair_masks_match_pair_check(window):
    points = range(window + 3)
    for f in permutations(range(window)):
        fixed = _fixed_pairs(f)
        for a in points:
            for c in points:
                assert bool(fixed & _pair_bit(a, c, window)) == pair_fixed(f, a, c), \
                    (f, a, c)


def test_suites_cover_every_criterion():
    assert SUITES["all"] == tuple(range(1, 11))
    named = sorted(n for name in ("s2", "s5", "s6", "s7") for n in SUITES[name])
    assert named == list(range(1, 11))


def test_run_suite_rejects_unknown_name():
    with pytest.raises(KeyError):
        run_suite("weekend")
