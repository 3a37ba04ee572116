"""Command-line front end: parse literals, run one verification command,
emit a deterministic report. A certificate command checks its witness
with the certificate check in `suites` that the acceptance criteria use.

Exit codes: 0 when every check in the report passed, 1 when a check
failed (the report carries the counterexample), 2 for usage, parse, or
domain errors.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import central, literals, suites, tbeta, witness
from .errors import PermtopError
from .oracle import KINDS, SubbaseSpec, build_group, compare, generate_subbase, \
    min_neighborhoods, topology_props
from .perm import identity
from .report import Report
from .selfnorm import MovesOut, certify_self_normalizing
from .subbase import member


def _int_list(text: str) -> list[int]:
    """Point lists for flags: `0,1,2` or `{0,1,2}`; empty means none."""
    body = text.strip().removeprefix("{").removesuffix("}").strip()
    if not body:
        return []
    return [int(part) for part in body.split(",")]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="report serialization (default text)")
    common.add_argument("--timings", action="store_true",
                        help="include wall-clock timings in the report")

    ap = argparse.ArgumentParser(
        prog="permtop",
        description="verification laboratory for algebraically determined "
                    "topologies on permutation groups")
    sub = ap.add_subparsers(dest="command", required=True)

    oracle = sub.add_parser("oracle", parents=[common],
                            help="generate and compare sub-base topologies on "
                                 "a finite group")
    oracle.add_argument("--group", required=True,
                        help="sn:N for the symmetric group of degree N <= 6, "
                             "or table:FILE")
    oracle.add_argument("--subbases", default=",".join(KINDS),
                        help="comma list from " + ",".join(KINDS))
    oracle.add_argument("--max-word-len", type=int, default=2,
                        help="word length bound for the zariski family")

    wit = sub.add_parser("witness", help="construct and re-check one witness")
    wsub = wit.add_subparsers(dest="shape", required=True)

    sep = wsub.add_parser("separate", parents=[common],
                          help="open set containing --g and missing --f")
    sep.add_argument("--f", required=True)
    sep.add_argument("--g", required=True)

    esc = wsub.add_parser("escape", parents=[common],
                          help="finitely supported element moving --anchor and "
                               "escaping every conjugation constraint")
    esc.add_argument("--pair", action="append", required=True,
                     metavar="'F | G'",
                     help="constraint pair, repeatable; F must be a "
                          "non-identity involution")
    esc.add_argument("--anchor", type=int, default=0)

    ball = wsub.add_parser("closed-ball", parents=[common],
                           help="open set around --g missing every "
                                "permutation of support size at most --n")
    ball.add_argument("--g", required=True)
    ball.add_argument("--n", type=int, required=True)

    iso = wsub.add_parser("isolation", parents=[common],
                          help="open set isolating --g among permutations of "
                               "its own support size")
    iso.add_argument("--g", required=True)

    cent = wsub.add_parser("cent-open", parents=[common],
                           help="transposition avoiding --avoid and not "
                                "commuting with --g")
    cent.add_argument("--g", required=True)
    cent.add_argument("--avoid", default="")

    sn = sub.add_parser("selfnorm", help="free-factor certificates")
    snsub = sn.add_subparsers(dest="shape", required=True)
    cert = snsub.add_parser("certify", parents=[common],
                            help="certify membership or escape for --element "
                                 "against the factor over --set")
    cert.add_argument("--set", required=True, dest="thin",
                      help="pow2, squares, or finite{...}")
    cert.add_argument("--element", required=True,
                      help="semidirect element literal, e.g. '( z1 * z2^-1 ; 1 )'")
    cert.add_argument("--depth", type=int, default=10)

    tb = sub.add_parser("tbeta", help="stabilizer-topology checks")
    tbsub = tb.add_subparsers(dest="shape", required=True)
    closed = tbsub.add_parser("closed", parents=[common],
                              help="set moved wholly off itself by --f")
    closed.add_argument("--f", required=True)
    nwd = tbsub.add_parser("nowhere-dense", parents=[common],
                           help="infinite-support element stabilizing every "
                                "piece of --partition")
    nwd.add_argument("--partition", required=True)
    alpha = tbsub.add_parser("alpha-check", parents=[common],
                             help="cover neighborhood of the identity matches "
                                  "the pointwise stabilizer of --points")
    alpha.add_argument("--points", default="")

    ver = sub.add_parser("verify", parents=[common],
                         help="run named verification suites")
    ver.add_argument("--suite", choices=sorted(suites.SUITES), default="all")
    ver.add_argument("--seed", type=int, default=1)
    ver.add_argument("--samples", type=int, default=None,
                     help="override the sample counts of the sampling criteria "
                          "(2, 3, 6, 7, 9 and 10); criteria 1, 4, 5 and 8 are "
                          "exhaustive and ignore it")
    return ap


def _run_oracle(args, rep: Report) -> None:
    rep.params.update(group=args.group, subbases=args.subbases,
                      max_word_len=str(args.max_word_len))
    group = build_group(args.group)
    kinds = [k.strip() for k in args.subbases.split(",") if k.strip()]
    if not kinds:
        raise PermtopError(f"--subbases names no family: {args.subbases!r}")
    maps = {}
    for kind in kinds:
        t0 = time.perf_counter()
        family = generate_subbase(group, SubbaseSpec(kind, args.max_word_len))
        nb = min_neighborhoods(group, family)
        maps[kind] = nb
        props = topology_props(nb)
        rep.check(f"{kind} generated", True,
                  f"{len(family)} basic sets, discrete={props.discrete}, "
                  f"t1={props.t1}")
        if rep.timings_ms is not None:
            rep.timings_ms[kind] = (time.perf_counter() - t0) * 1000
    for i, a in enumerate(kinds):
        for b in kinds[i + 1:]:
            rep.check(f"{a} vs {b}", True, compare(maps[a], maps[b]).verdict)


def _run_witness(args, rep: Report) -> None:
    if args.shape == "separate":
        rep.params.update(f=args.f, g=args.g)
        f = literals.parse_perm(args.f)
        g = literals.parse_perm(args.g)
        expr = witness.t1_separator(f, g)
        rep.witness(literals.expr_to_literal(expr))
        rep.extend(suites.check_separator(f, g, expr))
    elif args.shape == "escape":
        rep.params.update(anchor=str(args.anchor),
                          **{f"pair_{i + 1}": p for i, p in enumerate(args.pair)})
        pairs = []
        for text in args.pair:
            left, bar, right = text.partition("|")
            if not bar:
                raise PermtopError(f"pair needs 'F | G', got {text!r}")
            pairs.append((literals.parse_perm(left), literals.parse_perm(right)))
        inst = witness.EscapeInstance(tuple(pairs), args.anchor)
        u = witness.escape_witness(inst)
        rep.witness(u.to_literal())
        rep.extend(suites.check_escape(inst, u))
    elif args.shape == "closed-ball":
        rep.params.update(g=args.g, n=str(args.n))
        g = literals.parse_perm(args.g)
        expr, table = witness.closed_ball_witness(g, args.n)
        rep.witness(literals.expr_to_literal(expr))
        rep.check("contains the permutation", member(expr, g),
                  f"{len(table.mapping)} pinned pairs")
        rep.check("excludes the identity", not member(expr, identity()))
    elif args.shape == "isolation":
        rep.params.update(g=args.g)
        g = literals.parse_perm(args.g)
        expr, candidates = witness.isolation_witness(g)
        rep.witness(literals.expr_to_literal(expr))
        for cand in candidates[:24]:
            rep.witness(cand.to_literal())
        rep.check("contains the permutation", member(expr, g))
        rep.check("candidates enumerated", g in candidates,
                  f"{len(candidates)} of matching support size")
    else:  # cent-open
        rep.params.update(g=args.g, avoid=args.avoid)
        g = literals.parse_perm(args.g)
        avoid = _int_list(args.avoid)
        t = central.centralizer_not_open_witness(g, avoid)
        rep.witness(t.to_literal())
        rep.extend(suites.check_cent_open(g, avoid, t))


def _run_selfnorm(args, rep: Report) -> None:
    rep.params.update({"set": args.thin, "element": args.element,
                       "depth": str(args.depth)})
    a = literals.parse_thin_set(args.thin)
    h = literals.parse_sd_element(args.element)
    verdict = certify_self_normalizing(h, a, args.depth)
    if isinstance(verdict, MovesOut):
        rep.witness(verdict.conjugate.to_literal())
    rep.extend(suites.check_self_normalizing(h, a, verdict))


def _run_tbeta(args, rep: Report) -> None:
    if args.shape == "closed":
        rep.params.update(f=args.f)
        f = literals.parse_perm(args.f)
        u = tbeta.disjoint_mover_set(f)
        rep.witness(u.to_literal())
        rep.extend(suites.check_mover_set(f, u))
    elif args.shape == "nowhere-dense":
        rep.params.update(partition=args.partition)
        part = literals.parse_partition(args.partition)
        h = tbeta.infinite_support_stabilizer(part)
        rep.witness(h.to_literal())
        rep.extend(suites.check_partition_stabilizer(part, h))
    else:  # alpha-check
        rep.params.update(points=args.points)
        pts = _int_list(args.points)
        rep.check("cover neighborhood matches the pointwise stabilizer",
                  tbeta.alpha_basic_equivalence(pts))


def _run_verify(args, rep: Report) -> None:
    rep.params.update(suite=args.suite,
                      samples="default" if args.samples is None
                      else str(args.samples))
    rep.seed = args.seed
    for r in suites.run_suite(args.suite, seed=args.seed, samples=args.samples):
        rep.check(f"criterion {r.number}", r.ok, f"{r.title}: {r.detail}")
        if rep.timings_ms is not None:
            rep.timings_ms[f"criterion_{r.number}"] = r.elapsed_s * 1000


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0

    command = args.command
    shape = getattr(args, "shape", None)
    rep = Report(command=command if shape is None else f"{command} {shape}")
    if args.timings:
        rep.timings_ms = {}

    handlers = {"oracle": _run_oracle, "witness": _run_witness,
                "selfnorm": _run_selfnorm, "tbeta": _run_tbeta,
                "verify": _run_verify}
    started = time.perf_counter()
    try:
        handlers[command](args, rep)
    except (PermtopError, ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    if rep.timings_ms is not None:
        rep.timings_ms["total"] = (time.perf_counter() - started) * 1000
    sys.stdout.write(rep.emit(args.format))
    return 0 if rep.passed() else 1


if __name__ == "__main__":
    raise SystemExit(main())
