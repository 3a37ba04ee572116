import json
import os
import shlex
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import permtop
from conftest import cyclic_table_text
from permtop import cli, suites, witness
from permtop.errors import WitnessError
from permtop.perm import from_cycles
from permtop.report import Check, Report
from permtop.selfnorm import generator


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_text_format():
    rep = Report("demo", {"b": 2, "a": 1}, [Check("works", True, "fine")],
                 ["(0 1)"], seed=7)
    text = rep.to_text()
    lines = text.splitlines()
    assert lines[0] == "command: demo"
    assert "param a = 1" in lines
    assert "param b = 2" in lines
    assert lines.index("param a = 1") < lines.index("param b = 2")
    assert "seed: 7" in lines
    assert "check works: PASS  (fine)" in lines
    assert "witness: (0 1)" in lines
    assert lines[-1] == "overall: PASS"
    assert rep.passed()


def test_report_failure_and_json():
    rep = Report("demo", {}, [Check("works", False)])
    assert not rep.passed()
    assert rep.to_text().splitlines()[-1] == "overall: FAIL"
    payload = json.loads(rep.to_json())
    assert payload["command"] == "demo"
    assert payload["verdicts"][0] == {"detail": "", "name": "works", "ok": False}
    assert not all(v["ok"] for v in payload["verdicts"])
    with pytest.raises(ValueError):
        rep.emit("yaml")


def test_exit_code_pass(capsys):
    code, out, err = run(capsys, "witness", "separate", "--f", "(0 1)", "--g", "(0 2)")
    assert code == 0
    assert err == ""
    assert "overall: PASS" in out


def test_exit_code_check_failure(capsys):
    code, out, _ = run(capsys, "selfnorm", "certify", "--set", "pow2",
                       "--element", "( 1 ; 1 )", "--depth", "0")
    assert code == 1
    assert "overall: FAIL" in out


def test_exit_code_domain_error(capsys):
    code, out, err = run(capsys, "witness", "separate", "--f", "(0 1", "--g", "id")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    # equal inputs are a domain error, not a failed check
    code, _, err = run(capsys, "witness", "separate", "--f", "id", "--g", "id")
    assert code == 2
    assert "error:" in err


def test_exit_code_usage_errors(capsys):
    assert cli.main(["no-such-command"]) == 2
    capsys.readouterr()
    assert cli.main(["witness", "separate", "--f", "(0 1)"]) == 2
    capsys.readouterr()
    assert cli.main(["verify", "--suite", "nope"]) == 2
    capsys.readouterr()
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_json_output_is_canonical(capsys):
    code, out, _ = run(capsys, "witness", "separate", "--f", "(0 1)",
                       "--g", "(0 2)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert payload["timings_ms"] is None
    assert payload["version"] == permtop.__version__


def test_runs_are_deterministic(capsys):
    args = ("witness", "escape", "--pair", "(0 1) | id", "--anchor", "5")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "(0 2)(1 3)(4 5)" in out1


def test_timings_flag(capsys):
    base = ("witness", "isolation", "--g", "(0 1)")
    _, out, _ = run(capsys, *base)
    assert "timing" not in out
    _, out, _ = run(capsys, *base, "--timings")
    assert "timing total:" in out
    _, out, _ = run(capsys, *base, "--timings", "--format", "json")
    assert json.loads(out)["timings_ms"] is not None


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--group", "sn:3",
                       "--subbases", "tp,zpp")
    assert code == 0
    assert "discrete" in out
    assert "overall: PASS" in out
    code, out, err = run(capsys, "oracle", "--group", "sn:99")
    assert code == 2
    assert "error:" in err
    # the S7 table would hold 25.4M entries: refused before any row is built
    code, out, err = run(capsys, "oracle", "--group", "sn:7")
    assert code == 2
    assert out == ""
    assert "degree 7 > 6" in err
    # refused up front: the word enumeration would compute ~1.4e7 entries
    code, out, err = run(capsys, "oracle", "--group", "sn:5",
                         "--subbases", "zariski", "--max-word-len", "3")
    assert code == 2
    assert out == ""
    assert "zariski" in err


SN4_ORACLE_REPORT = """\
command: oracle
param group = sn:4
param max_word_len = 2
param subbases = tp,zpp,zp,zariski,cent
check tp generated: PASS  (16 basic sets, discrete=True, t1=True)
check zpp generated: PASS  (28 basic sets, discrete=True, t1=True)
check zp generated: PASS  (28 basic sets, discrete=True, t1=True)
check zariski generated: PASS  (163 basic sets, discrete=True, t1=True)
check cent generated: PASS  (78 basic sets, discrete=True, t1=True)
check tp vs zpp: PASS  (equal)
check tp vs zp: PASS  (equal)
check tp vs zariski: PASS  (equal)
check tp vs cent: PASS  (equal)
check zpp vs zp: PASS  (equal)
check zpp vs zariski: PASS  (equal)
check zpp vs cent: PASS  (equal)
check zp vs zariski: PASS  (equal)
check zp vs cent: PASS  (equal)
check zariski vs cent: PASS  (equal)
overall: PASS
"""


def test_oracle_report_on_s4_is_pinned(capsys):
    # every family's set count and every pairwise verdict on S4
    code, out, _ = run(capsys, "oracle", "--group", "sn:4")
    assert code == 0
    assert out == SN4_ORACLE_REPORT


SN5_ORACLE_JSON = """\
{
  "command": "oracle",
  "params": {
    "group": "sn:5",
    "max_word_len": "2",
    "subbases": "tp,zpp,zp,zariski,cent"
  },
  "seed": null,
  "timings_ms": null,
  "verdicts": [
    {
      "detail": "25 basic sets, discrete=True, t1=True",
      "name": "tp generated",
      "ok": true
    },
    {
      "detail": "326 basic sets, discrete=True, t1=True",
      "name": "zpp generated",
      "ok": true
    },
    {
      "detail": "751 basic sets, discrete=True, t1=True",
      "name": "zp generated",
      "ok": true
    },
    {
      "detail": "2861 basic sets, discrete=True, t1=True",
      "name": "zariski generated",
      "ok": true
    },
    {
      "detail": "1120 basic sets, discrete=True, t1=True",
      "name": "cent generated",
      "ok": true
    },
    {
      "detail": "equal",
      "name": "tp vs zpp",
      "ok": true
    },
    {
      "detail": "equal",
      "name": "tp vs zp",
      "ok": true
    },
    {
      "detail": "equal",
      "name": "tp vs zariski",
      "ok": true
    },
    {
      "detail": "equal",
      "name": "tp vs cent",
      "ok": true
    },
    {
      "detail": "equal",
      "name": "zpp vs zp",
      "ok": true
    },
    {
      "detail": "equal",
      "name": "zpp vs zariski",
      "ok": true
    },
    {
      "detail": "equal",
      "name": "zpp vs cent",
      "ok": true
    },
    {
      "detail": "equal",
      "name": "zp vs zariski",
      "ok": true
    },
    {
      "detail": "equal",
      "name": "zp vs cent",
      "ok": true
    },
    {
      "detail": "equal",
      "name": "zariski vs cent",
      "ok": true
    }
  ],
  "version": "VERSION",
  "witnesses": []
}
"""


def test_oracle_json_on_s5_is_pinned(capsys):
    # the JSON report on S5, byte for byte but for the package version
    code, out, _ = run(capsys, "oracle", "--group", "sn:5", "--format", "json")
    assert code == 0
    assert out == SN5_ORACLE_JSON.replace('"VERSION"', json.dumps(permtop.__version__))


def test_witness_closed_ball(capsys):
    code, out, _ = run(capsys, "witness", "closed-ball", "--g", "(0 1 2)",
                       "--n", "2")
    assert code == 0
    assert "overall: PASS" in out
    code, _, err = run(capsys, "witness", "closed-ball", "--g", "(0 1)",
                       "--n", "2")
    assert code == 2


def test_witness_closed_ball_rejects_negative_radius(capsys):
    code, out, err = run(capsys, "witness", "closed-ball", "--g", "(0 1 2)",
                         "--n", "-1")
    assert (code, out) == (2, "")
    assert "radius" in err
    with pytest.raises(WitnessError):
        witness.closed_ball_witness(from_cycles((0, 1, 2)), -1)


def test_oracle_rejects_empty_subbase_list(capsys):
    for kinds in (",", "", " , "):
        code, out, err = run(capsys, "oracle", "--group", "sn:3", "--subbases", kinds)
        assert (code, out) == (2, ""), kinds
        assert "names no family" in err


def test_witness_cent_open(capsys):
    code, out, _ = run(capsys, "witness", "cent-open", "--g", "sigma",
                       "--avoid", "{0,1}")
    assert code == 0
    assert "(2 4)" in out


def test_selfnorm_certify(capsys):
    code, out, _ = run(capsys, "selfnorm", "certify", "--set", "pow2",
                       "--element", "( z3 ; 0 )")
    assert code == 0
    assert "overall: PASS" in out
    code, out, _ = run(capsys, "selfnorm", "certify", "--set", "pow2",
                       "--element", "( z1 * z2 ; 0 )")
    assert code == 0


def test_selfnorm_rejects_an_empty_finite_set(capsys):
    # an empty generator set is a parse error, not a failed certificate
    code, out, err = run(capsys, "selfnorm", "certify", "--set", "finite{}",
                         "--element", "( z1 ; 0 )")
    assert (code, out) == (2, "")
    assert err == "error: a finite thin set needs at least one point (line 1, col 8)\n"


def test_tbeta_commands(capsys):
    code, out, _ = run(capsys, "tbeta", "closed", "--f", "sigma")
    assert code == 0
    assert "ep[2; 0]" in out
    code, out, _ = run(capsys, "tbeta", "nowhere-dense", "--partition",
                       "part[2; ep[2; 0]; ep[2; 1]]")
    assert code == 0
    assert "res[4; 2,0,-2,0]" in out
    code, out, _ = run(capsys, "tbeta", "alpha-check", "--points", "0,1")
    assert code == 0
    code, _, err = run(capsys, "tbeta", "closed", "--f", "(0 1)")
    assert code == 2
    assert "error:" in err


CERTIFICATE_REPORTS = [
    (("witness", "escape", "--pair", "(0 1) | id", "--anchor", "5"), """\
command: witness escape
param anchor = 5
param pair_1 = (0 1) | id
check finitely supported: PASS
check moves the anchor: PASS
check constraint 1 escaped: PASS
witness: (0 2)(1 3)(4 5)
overall: PASS
"""),
    (("witness", "separate", "--f", "(0 1)", "--g", "(0 2)"), """\
command: witness separate
param f = (0 1)
param g = (0 2)
check contains g: PASS
check excludes f: PASS
witness: conjneq((0 1); (0 1))
overall: PASS
"""),
    (("witness", "cent-open", "--g", "sigma", "--avoid", "{0,1}"), """\
command: witness cent-open
param avoid = {0,1}
param g = sigma
check avoids the point set: PASS
check breaks commutation: PASS
witness: (2 4)
overall: PASS
"""),
    (("selfnorm", "certify", "--set", "pow2", "--element", "( z3 ; 0 )"), """\
command: selfnorm certify
param depth = 10
param element = ( z3 ; 0 )
param set = pow2
check generator in the set: PASS
check conjugate recomputed: PASS  (generator 1)
check conjugate leaves the factor: PASS
witness: ( z3 * z1 * z3^-1 ; 0 )
overall: PASS
"""),
    (("selfnorm", "certify", "--set", "pow2", "--element", "( z1 * z2 ; 0 )"), """\
command: selfnorm certify
param depth = 10
param element = ( z1 * z2 ; 0 )
param set = pow2
check inside the free factor: PASS  (zero shift and every letter in the set)
overall: PASS
"""),
    (("tbeta", "closed", "--f", "sigma"), """\
command: tbeta closed
param f = sigma
check image disjoint from the set: PASS
check pointwise disjoint on [0,1000): PASS
witness: ep[2; 0]
overall: PASS
"""),
    (("tbeta", "nowhere-dense", "--partition", "part[2; ep[2; 0]; ep[2; 1]]"), """\
command: tbeta nowhere-dense
param partition = part[2; ep[2; 0]; ep[2; 1]]
check infinite support: PASS
check stabilizes every piece: PASS
witness: res[4; 2,0,-2,0]
overall: PASS
"""),
]


@pytest.mark.parametrize("argv,report", CERTIFICATE_REPORTS,
                         ids=[" ".join(argv[:2]) + f" {i}" for i, (argv, _)
                              in enumerate(CERTIFICATE_REPORTS)])
def test_certificate_report_is_pinned(capsys, argv, report):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == report


def test_escape_rejects_an_infinite_support_witness(capsys, monkeypatch):
    # sigma * (1 2) moves the anchor and escapes the constraint, but its
    # support is infinite
    monkeypatch.setattr(witness, "escape_witness",
                        lambda inst: permtop.sigma() * permtop.transposition(1, 2))
    code, out, _ = run(capsys, "witness", "escape", "--pair", "(0 1) | id",
                       "--anchor", "5")
    assert code == 1
    assert "check finitely supported: FAIL" in out
    assert "check moves the anchor: PASS" in out
    assert "witness: res[2; 1,-1; patch: 1->3, 2->0]" in out


def test_escape_numbers_its_constraints_in_pair_order(capsys, monkeypatch):
    # only the (0 1) constraint fails, so constraint 1 must be pair_1
    member = suites.member
    monkeypatch.setattr(suites, "member", lambda expr, u: (
        expr.b != permtop.transposition(0, 1) and member(expr, u)))
    code, out, _ = run(capsys, "witness", "escape", "--pair", "(0 1) | id",
                       "--pair", "sigma | id", "--anchor", "5")
    assert code == 1
    assert "param pair_1 = (0 1) | id" in out
    assert "check constraint 1 escaped: FAIL" in out
    assert "check constraint 2 escaped: PASS" in out


def test_selfnorm_rejects_a_false_membership_verdict(capsys, monkeypatch):
    monkeypatch.setattr(cli, "certify_self_normalizing",
                        lambda h, a, depth: permtop.InSubgroup())
    code, out, _ = run(capsys, "selfnorm", "certify", "--set", "pow2",
                       "--element", "( z3 ; 1 )")
    assert code == 1
    assert "check inside the free factor: FAIL" in out


def moves_out_by_z3(h, a, depth=10):
    # a witness generator outside pow2: its conjugate leaves F_A whatever h is
    return permtop.MovesOut(3, permtop.sd_conj(h, permtop.word_element(generator(3))))


def test_selfnorm_rejects_a_witness_generator_outside_the_set(capsys, monkeypatch):
    monkeypatch.setattr(cli, "certify_self_normalizing", moves_out_by_z3)
    code, out, _ = run(capsys, "selfnorm", "certify", "--set", "pow2",
                       "--element", "( z1 ; 0 )")
    assert code == 1
    assert "check generator in the set: FAIL" in out
    assert "check conjugate recomputed: PASS  (generator 3)" in out
    assert "check conjugate leaves the factor: PASS" in out


def test_criterion_8_rejects_a_witness_generator_outside_the_set(monkeypatch):
    # the runner checks every element, so a prefix keeps a failing run short
    elements = suites._thin_set_elements
    monkeypatch.setattr(suites, "_thin_set_elements", lambda: islice(elements(), 100))
    monkeypatch.setattr(suites, "certify_self_normalizing", moves_out_by_z3)
    result = suites.criterion_8()
    assert not result.ok
    assert result.detail == ("100 of 100 items failed; "
                             "first failure: generator in the set on item 1")


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "s7", "--seed", "3")
    assert code == 0
    assert "criterion 09" in out or "criterion 9" in out
    assert "overall: PASS" in out


def test_verify_samples_leave_exhaustive_criteria_alone(capsys, monkeypatch):
    # Criterion 8 ignores --samples too; it is stubbed here because the
    # acceptance battery already runs it, and it is the slowest criterion.
    monkeypatch.setitem(suites.CRITERIA, 8, lambda seed, samples: suites.CriterionResult(
        8, "stub", True, "not run", 0.0))
    code, out, _ = run(capsys, "verify", "--suite", "s5", "--samples", "5")
    assert code == 0
    assert "param samples = 5" in out
    assert "939 (A, W) pairs exhaustive, two-point case fails as documented)" in out
    assert "5 random families stable over three windows" in out


def test_verify_rejects_nonpositive_samples(capsys):
    for suite, samples in (("s7", "0"), ("s2", "-3")):
        code, out, err = run(capsys, "verify", "--suite", suite, "--samples", samples)
        assert (code, out) == (2, ""), (suite, samples)
        assert "samples must be positive, got " + samples in err
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples must be positive"):
            suites.run_suite("s2", samples=samples)


def readme_examples():
    """(argv, printed report or None) for every `permtop` line in the README's
    "Command line" section; a `$ permtop` block prints its report below it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    examples = []
    for block in section.split("```sh\n")[1:]:
        lines = block.split("```")[0].splitlines()
        if lines[0].startswith("$ permtop "):
            examples.append((shlex.split(lines[0])[2:], "\n".join(lines[1:]) + "\n"))
        else:
            examples.extend((shlex.split(line)[1:], None)
                            for line in lines if line.startswith("permtop "))
    return examples


def test_readme_command_line_examples(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "z4.txt").write_text(cyclic_table_text(4))
    examples = readme_examples()
    assert len(examples) == 10
    for argv, report in examples:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, out, err)
        if report is not None:
            assert out == report, argv


def test_module_runs_from_source_tree():
    src = Path(permtop.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-m", "permtop", "--help"],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: permtop")
