"""The ten verification suites behind `permtop verify` and the acceptance
tests.

Each criterion function runs one self-contained battery and reports a
single pass/fail with a deterministic detail string (timing lives in
elapsed_s, never in the detail, so reports stay byte-identical for a
fixed seed). Criteria with a stated runtime budget fail when they blow
it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, permutations
from random import Random

from . import central, tbeta, witness
from .epset import EPSet
from .oracle import FiniteGroup, SubbaseSpec, compare, generate_subbase, \
    min_neighborhoods, topology_props
from .perm import commutes, conjugate, from_mapping, identity, image, sigma, support
from .sampling import random_finite_perm, random_involution, random_partition, \
    random_perm_mixed, random_residue_perm, random_sigma_type
from .selfnorm import FreeWord, InSubgroup, Inconclusive, MovesOut, SDElement, \
    ThinSet, certify_self_normalizing, generator, in_free_factor, sd_conj, word_element
from .subbase import ConjNeq, member
from .witness import EscapeInstance


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    ok: bool
    detail: str
    elapsed_s: float

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return (f"criterion {self.number:2d} [{mark}] {self.title}: "
                f"{self.detail} ({self.elapsed_s:.2f}s)")


def _result(number: int, title: str, started: float, ok: bool,
            detail: str) -> CriterionResult:
    return CriterionResult(number, title, ok, detail, time.perf_counter() - started)


# -- 1: finite symmetric groups -------------------------------------------------

def criterion_1(seed: int = 1, samples: int | None = None) -> CriterionResult:
    title = "five sub-base families discrete and equal on small symmetric groups"
    t0 = time.perf_counter()
    kinds = ("tp", "zpp", "zp", "zariski", "cent")
    budgets = {3: 1.0, 4: 1.0, 5: 300.0}
    problems: list[str] = []
    for n in (3, 4, 5):
        started = time.perf_counter()
        group = FiniteGroup.symmetric(n)
        maps = {k: min_neighborhoods(group, generate_subbase(group, SubbaseSpec(k, 2)))
                for k in kinds}
        for k, m in maps.items():
            if not topology_props(m).discrete:
                problems.append(f"sn({n}) {k} not discrete")
        for a, b in combinations(kinds, 2):
            verdict = compare(maps[a], maps[b]).verdict
            if verdict != "equal":
                problems.append(f"sn({n}) {a} vs {b}: {verdict}")
        took = time.perf_counter() - started
        if took > budgets[n]:
            problems.append(f"sn({n}) over budget")
    ok = not problems
    detail = ("sn(3)/sn(4)/sn(5): tp, zpp, zp, zariski(2), cent all discrete and "
              "pairwise equal, within time budgets" if ok else "; ".join(problems[:4]))
    return _result(1, title, t0, ok, detail)


# -- 2: separating distinct permutations ----------------------------------------

def criterion_2(seed: int = 1, samples: int | None = None) -> CriterionResult:
    title = "separating open set around each of two distinct permutations"
    t0 = time.perf_counter()
    count = samples or 1000
    rng = Random(seed)
    bad = 0
    for _ in range(count):
        f = random_finite_perm(rng, 50)
        g = random_finite_perm(rng, 50)
        while g == f:
            g = random_finite_perm(rng, 50)
        expr = witness.t1_separator(f, g)
        if not member(expr, g) or member(expr, f):
            bad += 1
    return _result(2, title, t0, bad == 0,
                   f"{count} random pairs, {bad} separation failures")


# -- 3: escaping finitely many conjugation constraints ---------------------------

def criterion_3(seed: int = 1, samples: int | None = None) -> CriterionResult:
    title = "finitely supported escape from conjugation constraints"
    t0 = time.perf_counter()
    count = samples or 100
    rng = Random(seed)
    bad = 0
    with_infinite = 0
    for i in range(count):
        n_pairs = rng.randint(1, 4)
        pairs = []
        force_sigma = i % 5 == 0
        for j in range(n_pairs):
            if force_sigma and j == 0:
                f = random_sigma_type(rng, 12)
            else:
                f = random_involution(rng, 30)
            g = random_residue_perm(rng) if rng.random() < 0.2 \
                else random_finite_perm(rng, 30)
            pairs.append((f, g))
        anchor = rng.randrange(40)
        inst = EscapeInstance(tuple(pairs), anchor)
        if inst.k >= 1:
            with_infinite += 1
        u = witness.escape_witness(inst)
        good = (u.has_finite_support()
                and u.apply(anchor) != anchor
                and all(member(ConjNeq(a=g, b=f), u) for f, g in inst.pairs))
        if not good:
            bad += 1
    ok = bad == 0 and with_infinite >= min(20, count // 5)
    return _result(3, title, t0, ok,
                   f"{count} instances ({with_infinite} with an infinite-support "
                   f"constraint), {bad} failures")


# -- 4: closed balls and isolation ------------------------------------------------

def _pair_bit(a: int, c: int, window: int) -> int:
    # Points beyond the window are fixed by convention, so for the pair
    # {a, c} they all behave alike: each stands in as the point `window`.
    return 1 << (min(a, window) * (window + 1) + min(c, window))


def _fixed_pairs(f: tuple[int, ...]) -> int:
    """Bit mask of the ordered pairs (a, c) whose set {a, c} the window
    permutation f maps onto itself, with `_pair_bit` numbering."""
    window = len(f)
    g = f + (window,)
    mask = 0
    for a in range(window + 1):
        for c in range(window + 1):
            if (g[a] == a and g[c] == c) or (g[a] == c and g[c] == a):
                mask |= _pair_bit(a, c, window)
    return mask


def criterion_4(seed: int = 1, samples: int | None = None) -> CriterionResult:
    title = "support balls excluded and equal-size permutations isolated"
    t0 = time.perf_counter()
    problems: list[str] = []

    window = 6
    world = list(permutations(range(window)))
    # each window permutation with the pairs it fixes, by support size
    by_size: dict[int, list[tuple[tuple[int, ...], int]]] = \
        {s: [] for s in range(window + 1)}
    for w in world:
        by_size[sum(1 for i, v in enumerate(w) if i != v)].append((w, _fixed_pairs(w)))

    ball_checks = 0
    spot = 0
    for size in range(3, 7):
        for spt in combinations(range(window), size):
            for images in permutations(spt):
                if any(a == b for a, b in zip(spt, images)):
                    continue
                g = from_mapping(dict(zip(spt, images)))
                for n in range(size):
                    expr, table = witness.closed_ball_witness(g, n)
                    if not member(expr, g):
                        problems.append(f"ball witness omits g on {spt} n={n}")
                        continue
                    pairs = 0
                    for a in spt:
                        for kk in range(n + 1):
                            pairs |= _pair_bit(a, table(a, kk), window)
                    for s in range(n + 1):
                        for f, fixed in by_size[s]:
                            if not fixed & pairs:
                                problems.append(f"ball admits |supt|={s} on {spt} n={n}")
                                break
                            spot += 1
                            if spot % 397 == 0 and member(expr, from_mapping(
                                    {i: v for i, v in enumerate(f) if i != v})):
                                problems.append(f"member() disagrees on {spt} n={n}")
                            ball_checks += 1
                if problems:
                    break
            if problems:
                break
        if problems:
            break

    iso_checks = 0
    if not problems:
        small = [(f, _fixed_pairs(f)) for f in permutations(range(5))]
        for size in range(0, 5):
            for spt in combinations(range(5), size):
                for images in permutations(spt):
                    if any(a == b for a, b in zip(spt, images)):
                        continue
                    g = from_mapping(dict(zip(spt, images)))
                    expr, candidates = witness.isolation_witness(g)
                    pairs = 0
                    for sub in expr.parts:
                        for factor in sub.parts:
                            x, c = sorted(factor.b.moved_points())
                            pairs |= _pair_bit(x, c, 5)
                    found = set()
                    for f, fixed in small:
                        if sum(1 for i, v in enumerate(f) if i != v) > size:
                            continue
                        if not fixed & pairs:
                            found.add(f)
                        iso_checks += 1
                    expected = {tuple(cand.apply(i) for i in range(5))
                                for cand in candidates}
                    if found != expected:
                        problems.append(f"isolation mismatch on {spt}")
    ok = not problems
    detail = (f"{ball_checks} ball exclusions and {iso_checks} isolation "
              f"enumerations verified" if ok else "; ".join(problems[:3]))
    return _result(4, title, t0, ok, detail)


# -- 5: centralizer of a full point group vs pointwise stabilizer ----------------

def criterion_5(seed: int = 1, samples: int | None = None) -> CriterionResult:
    title = "centralizing a point group is fixing its points (three or more)"
    t0 = time.perf_counter()
    problems: list[str] = []
    checked = 0
    for w_size in range(3, 8):
        for win in combinations(range(7), w_size):
            for a_size in range(3, w_size + 1):
                for pts in combinations(win, a_size):
                    checked += 1
                    if not central.centralizer_equals_stabilizer(pts, win):
                        problems.append(f"A={pts} W={win}")
    two_point = central.centralizer_equals_stabilizer((0, 1), range(4))
    if two_point:
        problems.append("two-point counterexample did not reproduce")
    budget = time.perf_counter() - t0 < 10.0
    if not budget:
        problems.append("over 10s budget")
    ok = not problems
    detail = (f"{checked} (A, W) pairs exhaustive, two-point case fails as "
              f"documented" if ok else "; ".join(problems[:3]))
    return _result(5, title, t0, ok, detail)


# -- 6: double centralizer stability across windows ------------------------------

def criterion_6(seed: int = 1, samples: int | None = None) -> CriterionResult:
    title = "windowed double centralizer independent of the window"
    t0 = time.perf_counter()
    count = samples or 50
    rng = Random(seed)
    inside = EPSet.finite(range(4))
    bad = 0
    for _ in range(count):
        perms = [random_finite_perm(rng, 4) for _ in range(rng.randint(1, 3))]
        results = [frozenset(central.double_centralizer_window(perms, range(w)))
                   for w in (7, 8, 9)]
        if results[0] != results[1] or results[1] != results[2]:
            bad += 1
            continue
        if not all(support(h).issubset(inside) for h in results[0]):
            bad += 1
    return _result(6, title, t0, bad == 0,
                   f"{count} random families stable over three windows, "
                   f"{bad} failures")


# -- 7: centralizers are not neighborhoods of finite-set stabilizers -------------

def criterion_7(seed: int = 1, samples: int | None = None) -> CriterionResult:
    title = "noncommuting transposition avoiding any small point set"
    t0 = time.perf_counter()
    rng = Random(seed)
    count = samples or 20
    gs = [sigma()] + [random_sigma_type(rng, 10) for _ in range(count)]
    sets = [pts for k in range(5) for pts in combinations(range(10), k)]
    bad = 0
    for g in gs:
        for pts in sets:
            t = central.centralizer_not_open_witness(g, pts)
            if set(t.moved_points()) & set(pts) or commutes(t, g):
                bad += 1
    return _result(7, title, t0, bad == 0,
                   f"{len(gs)} permutations x {len(sets)} point sets, "
                   f"{bad} failures")


# -- 8: self-normalization certificates ------------------------------------------

def _reduced_words(gens: list[int], max_len: int):
    """All freely reduced words up to max_len letters, as raw syllable lists."""
    alphabet = [(g, 1) for g in gens] + [(g, -1) for g in gens]
    frontier: list[tuple[tuple[int, int], ...]] = [()]
    yield ()
    for _ in range(max_len):
        grown = []
        for word in frontier:
            for g, e in alphabet:
                if word and word[-1] == (g, -e):
                    continue
                out = word + ((g, e),)
                grown.append(out)
                yield out
        frontier = grown


def criterion_8(seed: int = 1, samples: int | None = None) -> CriterionResult:
    title = "free-factor membership and escape certificates over thin sets"
    t0 = time.perf_counter()
    problems: list[str] = []
    total = 0
    inconclusive = 0
    for a in (ThinSet.powers_of_two(), ThinSet.squares()):
        gens = sorted({k for k in range(17) if k in a} | {3, 5, 6})
        for raw in _reduced_words(gens, 4):
            word = FreeWord.from_raw(raw)
            all_in = in_free_factor(word, a)
            for n in (-2, -1, 0, 1, 2):
                total += 1
                h = SDElement(word, n)
                verdict = certify_self_normalizing(h, a)
                if n == 0 and all_in:
                    if not isinstance(verdict, InSubgroup):
                        problems.append(f"missed membership: {h.to_literal()}")
                elif isinstance(verdict, MovesOut):
                    conj = sd_conj(h, word_element(generator(verdict.witness)))
                    if conj != verdict.conjugate:
                        problems.append(f"stale witness: {h.to_literal()}")
                    elif conj.shift == 0 and in_free_factor(conj.word, a):
                        problems.append(f"witness stays inside: {h.to_literal()}")
                elif isinstance(verdict, Inconclusive):
                    inconclusive += 1
                else:
                    problems.append(f"wrong verdict: {h.to_literal()}")
                if problems:
                    break
            if problems:
                break
        if problems:
            break
    if inconclusive:
        problems.append(f"{inconclusive} inconclusive")
    took = time.perf_counter() - t0
    if took > 30.0:
        problems.append("over 30s budget")
    ok = not problems
    return _result(8, title, t0, ok,
                   f"{total} elements certified, none inconclusive"
                   if ok else "; ".join(problems[:3]))


# -- 9: mover sets and partition stabilizers --------------------------------------

def criterion_9(seed: int = 1, samples: int | None = None) -> CriterionResult:
    title = "exact mover sets and infinite-support partition stabilizers"
    t0 = time.perf_counter()
    rng = Random(seed)
    count = samples or 10
    problems: list[str] = []
    movers = [sigma()] + [random_residue_perm(rng, infinite=True)
                          for _ in range(count)]
    for f in movers:
        u = tbeta.disjoint_mover_set(f)
        if not (image(f, u) & u).is_empty():
            problems.append(f"algebraic overlap for {f.to_literal()}")
            continue
        for x in range(1000):
            if x in u and f.apply(x) in u:
                problems.append(f"pointwise overlap at {x}")
                break
    for _ in range(count):
        part = random_partition(rng)
        h = tbeta.infinite_support_stabilizer(part)
        if h.has_finite_support():
            problems.append("stabilizer with finite support")
        elif not tbeta.stabilizes(h, part):
            problems.append("stabilizer moves a piece")
    ok = not problems
    return _result(9, title, t0, ok,
                   f"{len(movers)} mover sets exact on [0,1000), {count} "
                   f"partitions stabilized" if ok else "; ".join(problems[:3]))


# -- 10: algebraic law battery -----------------------------------------------------

def criterion_10(seed: int = 1, samples: int | None = None) -> CriterionResult:
    title = "group and support laws on mixed random permutations"
    t0 = time.perf_counter()
    count = samples or 10000
    rng = Random(seed)
    bad = 0
    for i in range(count):
        law = i % 6
        f = random_perm_mixed(rng, 16)
        if law == 0:
            g = random_perm_mixed(rng, 16)
            h = random_perm_mixed(rng, 16)
            ok = (f * g) * h == f * (g * h)
        elif law == 1:
            ok = (f * f.inverse()).is_identity() and (f * identity() == f)
        elif law == 2:
            g = random_perm_mixed(rng, 16)
            x = rng.randrange(40)
            ok = ((f * g).apply(x) == f.apply(g.apply(x))
                  and f.apply_inverse(f.apply(x)) == x)
        elif law == 3:
            g = random_perm_mixed(rng, 16)
            ok = support(f * g).issubset(support(f) | support(g)) \
                and support(f.inverse()) == support(f)
        elif law == 4:
            g = random_perm_mixed(rng, 16)
            ok = support(conjugate(g, f)) == image(g, support(f))
        else:
            g = random_perm_mixed(rng, 16)
            ok = commutes(f, g) == (f * g == g * f) \
                and f.is_involution() == (f.inverse() == f)
        if not ok:
            bad += 1
    return _result(10, title, t0, bad == 0, f"{count} samples, {bad} law failures")


# -- runner ------------------------------------------------------------------------

CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10,
}

SUITES = {
    "all": tuple(range(1, 11)),
    "s2": (1, 2, 3, 10),
    "s5": (5, 6, 7, 8),
    "s6": (4,),
    "s7": (9,),
}


def run_suite(name: str, seed: int = 1,
              samples: int | None = None) -> list[CriterionResult]:
    numbers = SUITES.get(name)
    if numbers is None:
        raise KeyError(f"unknown suite {name!r}")
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    return [CRITERIA[n](seed=seed, samples=samples) for n in numbers]
