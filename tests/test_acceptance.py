"""End-to-end acceptance battery.

Runs every numbered criterion at its stated tolerance and prints one
status line per criterion in the terminal summary.
"""

import pytest

from permtop.suites import CRITERIA, SUITES, run_suite


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(number, request):
    result = CRITERIA[number](seed=1)
    lines = getattr(request.config, "_acceptance_lines", None)
    if lines is not None:
        lines.append(result.line())
    assert result.ok, result.line()


def test_criterion_5_detail():
    assert CRITERIA[5](seed=1).detail == \
        "939 (A, W) pairs exhaustive, two-point case fails as documented"


def test_suites_cover_every_criterion():
    assert SUITES["all"] == tuple(range(1, 11))
    named = sorted(n for name in ("s2", "s5", "s6", "s7") for n in SUITES[name])
    assert named == list(range(1, 11))


def test_run_suite_rejects_unknown_name():
    with pytest.raises(KeyError):
        run_suite("weekend")
