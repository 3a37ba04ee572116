"""End-to-end acceptance battery.

Runs every numbered criterion at its stated tolerance and prints one
status line per criterion in the terminal summary.
"""

from itertools import count, islice, permutations

import pytest

from permtop import suites, witness
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
    assert result.detail == \
        "5 random pairs, 5 separation failures; first failure: contains g on item 1"


def slow_clock(monkeypatch):
    # every reading of the clock is 1000 s after the one before
    ticks = count(step=1000.0)
    monkeypatch.setattr(suites.time, "perf_counter", lambda: next(ticks))


def test_criteria_1_and_5_fail_over_their_budgets(monkeypatch):
    slow_clock(monkeypatch)
    one = CRITERIA[1]()
    assert not one.ok
    assert one.detail.endswith("; first failure: sn(3) within 1s budget on item 1")
    five = CRITERIA[5]()
    assert not five.ok
    assert five.detail == ("939 (A, W) pairs exhaustive, two-point case fails as "
                           "documented; over 10s budget")


def test_criterion_8_fails_over_its_budget(monkeypatch):
    elements = suites._thin_set_elements
    monkeypatch.setattr(suites, "_thin_set_elements", lambda: islice(elements(), 5))
    slow_clock(monkeypatch)
    result = CRITERIA[8]()
    assert not result.ok
    assert result.detail == "5 elements certified, none inconclusive; over 30s budget"


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
