"""The certificate checks and the ten verification suites behind the
certificate commands, `permtop verify` and the acceptance tests.

A certificate check yields named `(name, ok, detail)` checks, one at a time,
from a construction's inputs and output, using checking primitives only. Each
criterion is a source of items and a check of one item, decided by the one
runner `_run` with a deterministic detail (timing lives only in elapsed_s).
The runner fails criterion 5 past 10 s and criterion 8 past 30 s; criterion
1's check holds S3 and S4 to 1 s each and S5 to 300 s.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, permutations
from math import inf
from random import Random
from typing import Callable, Iterable, Iterator

from . import central, tbeta, witness
from .epset import EPSet
from .oracle import KINDS, FiniteGroup, MinNbhdMap, SubbaseSpec, compare, \
    generate_subbase, min_neighborhoods, topology_props
from .perm import ResiduePerm, commutes, conjugate, from_mapping, identity, image, \
    sigma, support
from .sampling import random_finite_perm, random_involution, random_partition, \
    random_perm_mixed, random_residue_perm, random_sigma_type
from .selfnorm import FreeWord, InSubgroup, MovesOut, SDElement, ThinSet, Verdict, \
    certify_self_normalizing, generator, in_free_factor, sd_conj, word_element
from .subbase import ConjNeq, OpenSetExpr, member

Checks = Iterator[tuple[str, bool, str]]


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


def _run(number: int, title: str, started: float, detail: str,
         *stages: tuple[Iterable[tuple], Callable[..., Checks]],
         shortfall: str = "", budget: float = inf) -> CriterionResult:
    """Run each stage's check on each of its items, as `check(*item)`, up to the
    item's first failed check. The criterion passes when no item fails, there is
    no `shortfall` (why the items are too few to count) and it took <= `budget` s.
    A pass reports `detail`, which may name the counts of `{items}` and of `{bad}`
    items; a failure reports those counts and each reason it failed."""
    items = bad = 0
    failures = ""
    for source, check in stages:
        for item in source:
            items += 1
            for name, ok, _ in check(*item):
                if not ok:
                    bad += 1
                    failures = failures or f"; first failure: {name} on item {items}"
                    break
    if shortfall:
        failures += f"; {shortfall}"
    elapsed = time.perf_counter() - started
    if elapsed > budget:
        failures += f"; over {budget:g}s budget"
    detail = f"{bad} of {items} items failed{failures}" if failures \
        else detail.format(items=items, bad=bad)
    return CriterionResult(number, title, not failures, detail, elapsed)


# -- certificate checks ------------------------------------------------------------

def check_separator(f: ResiduePerm, g: ResiduePerm, expr: OpenSetExpr) -> Checks:
    """An open set around g that misses f."""
    yield "contains g", member(expr, g), ""
    yield "excludes f", not member(expr, f), ""


def check_escape(inst: witness.EscapeInstance, u: ResiduePerm) -> Checks:
    """Finitely supported u moving the anchor, with u f_i u^-1 != g_i f_i g_i^-1."""
    yield "finitely supported", u.has_finite_support(), ""
    yield "moves the anchor", u.apply(inst.anchor) != inst.anchor, ""
    for i, (f, g) in enumerate(inst.pairs, start=1):
        yield f"constraint {i} escaped", member(ConjNeq(a=g, b=f), u), ""


def check_cent_open(g: ResiduePerm, avoid: Iterable[int], t: ResiduePerm) -> Checks:
    """A t fixing every point of `avoid` that does not commute with g."""
    yield "avoids the point set", not set(t.moved_points()) & set(avoid), ""
    yield "breaks commutation", not commutes(t, g), ""


def check_self_normalizing(h: SDElement, a: ThinSet, verdict: Verdict) -> Checks:
    """h in F_A, or a generator k in A with h z_k h^-1 outside F_A."""
    if isinstance(verdict, InSubgroup):
        yield ("inside the free factor", h.shift == 0 and in_free_factor(h.word, a),
               "zero shift and every letter in the set")
    elif isinstance(verdict, MovesOut):
        k = verdict.witness
        yield "generator in the set", k in a, ""
        conj = sd_conj(h, word_element(generator(k)))
        yield "conjugate recomputed", conj == verdict.conjugate, f"generator {k}"
        yield ("conjugate leaves the factor",
               conj.shift != 0 or not in_free_factor(conj.word, a), "")
    else:
        yield ("certificate found", False,
               f"no witness among the first {len(verdict.tried)} generators")


def check_mover_set(f: ResiduePerm, u: EPSet) -> Checks:
    """A set u that f moves wholly off itself."""
    yield "image disjoint from the set", (image(f, u) & u).is_empty(), ""
    yield ("pointwise disjoint on [0,1000)",
           all(f.apply(x) not in u for x in u.list_below(1000)), "")


def check_partition_stabilizer(part: tbeta.Partition, h: ResiduePerm) -> Checks:
    """An infinite-support h mapping every piece of the partition onto itself."""
    yield "infinite support", not h.has_finite_support(), ""
    yield "stabilizes every piece", tbeta.stabilizes(h, part), ""


# -- 1: finite symmetric groups -------------------------------------------------

def _symmetric_maps() -> Iterator[tuple[int, dict[str, MinNbhdMap], float]]:
    """Per degree, every family's minimal-neighbourhood map and their build time."""
    for n in (3, 4, 5):
        started = time.perf_counter()
        group = FiniteGroup.symmetric(n)
        maps = {k: min_neighborhoods(group, generate_subbase(group, SubbaseSpec(k, 2)))
                for k in KINDS}
        yield n, maps, time.perf_counter() - started


def _check_symmetric(n: int, maps: dict[str, MinNbhdMap], took: float) -> Checks:
    """Every family discrete, every two equal, and the degree within its budget."""
    budget = {3: 1.0, 4: 1.0, 5: 300.0}[n]
    for k, m in maps.items():
        yield f"sn({n}) {k} discrete", topology_props(m).discrete, ""
    for a, b in combinations(maps, 2):
        equal = compare(maps[a], maps[b]).verdict == "equal"
        yield f"sn({n}) {a} vs {b} equal", equal, ""
    yield f"sn({n}) within {budget:g}s budget", took <= budget, ""


def criterion_1(seed: int = 1, samples: int | None = None) -> CriterionResult:
    title = "five sub-base families discrete and equal on small symmetric groups"
    t0 = time.perf_counter()
    return _run(1, title, t0, "sn(3)/sn(4)/sn(5): tp, zpp, zp, zariski(2), cent all "
                "discrete and pairwise equal, within time budgets",
                (_symmetric_maps(), _check_symmetric))


# -- 2: separating distinct permutations ----------------------------------------

def _distinct_pairs(rng: Random, count: int) -> Iterator[tuple[ResiduePerm, ResiduePerm]]:
    for _ in range(count):
        f = random_finite_perm(rng, 50)
        g = random_finite_perm(rng, 50)
        while g == f:
            g = random_finite_perm(rng, 50)
        yield f, g


def criterion_2(seed: int = 1, samples: int | None = None) -> CriterionResult:
    title = "separating open set around each of two distinct permutations"
    t0 = time.perf_counter()
    pairs = _distinct_pairs(Random(seed), samples or 1000)
    return _run(2, title, t0, "{items} random pairs, {bad} separation failures",
                (((f, g, witness.t1_separator(f, g)) for f, g in pairs),
                 check_separator))


# -- 3: escaping finitely many conjugation constraints ---------------------------

def _escape_instances(rng: Random, count: int) -> Iterator[witness.EscapeInstance]:
    for i in range(count):
        pairs = []
        force_sigma = i % 5 == 0
        for j in range(rng.randint(1, 4)):
            if force_sigma and j == 0:
                f = random_sigma_type(rng, 12)
            else:
                f = random_involution(rng, 30)
            g = random_residue_perm(rng) if rng.random() < 0.2 \
                else random_finite_perm(rng, 30)
            pairs.append((f, g))
        yield witness.EscapeInstance(tuple(pairs), rng.randrange(40))


def criterion_3(seed: int = 1, samples: int | None = None) -> CriterionResult:
    title = "finitely supported escape from conjugation constraints"
    t0 = time.perf_counter()
    count = samples or 100
    instances = list(_escape_instances(Random(seed), count))
    with_infinite = sum(1 for inst in instances if inst.k >= 1)
    need = min(20, count // 5)
    return _run(3, title, t0,
                f"{{items}} instances ({with_infinite} with an infinite-support "
                f"constraint), {{bad}} failures",
                (((inst, witness.escape_witness(inst)) for inst in instances),
                 check_escape),
                shortfall="" if with_infinite >= need else
                f"{with_infinite} instances with an infinite-support constraint, "
                f"{need} needed")


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


def _scans(window: int) -> list[list[tuple[tuple[int, ...], int]]]:
    """Entry n: the window permutations moving at most n points, by support size."""
    by_size: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(window + 1)]
    for w in permutations(range(window)):
        by_size[sum(1 for i, v in enumerate(w) if i != v)].append((w, _fixed_pairs(w)))
    return [sum(by_size[:n + 1], []) for n in range(window + 1)]


def _derangements(window: int, sizes: range) -> Iterator[ResiduePerm]:
    for size in sizes:
        for spt in combinations(range(window), size):
            for images in permutations(spt):
                if all(a != b for a, b in zip(spt, images)):
                    yield from_mapping(dict(zip(spt, images)))


def criterion_4(seed: int = 1, samples: int | None = None) -> CriterionResult:
    title = "support balls excluded and equal-size permutations isolated"
    t0 = time.perf_counter()
    ball_scans, iso_scans = _scans(6), _scans(5)
    balls = [(g, n) for g in _derangements(6, range(3, 7))
             for n in range(len(g.moved_points()))]
    isolated = list(_derangements(5, range(5)))
    spot = 0  # permutations the ball checks scanned so far

    def check_ball(g: ResiduePerm, n: int) -> Checks:
        nonlocal spot
        spt = tuple(g.moved_points())
        expr, table = witness.closed_ball_witness(g, n)
        pairs = 0
        for (a, _), c in table.mapping:
            pairs |= _pair_bit(a, c, 6)
        scan = ball_scans[n]
        spots = scan[-(spot + 1) % 397::397]  # every 397th scanned overall
        spot += len(scan)
        yield f"ball on {spt} n={n} contains g", member(expr, g), ""
        yield (f"ball on {spt} n={n} excludes support <= n",
               all(fixed & pairs for _, fixed in scan), "")
        yield (f"member() agrees on {spt} n={n}", not any(member(
            expr, from_mapping({i: v for i, v in enumerate(f) if i != v}))
            for f, _ in spots), "")

    def check_isolation(g: ResiduePerm) -> Checks:
        spt = tuple(g.moved_points())
        expr, candidates = witness.isolation_witness(g)
        pairs = 0
        for sub in expr.parts:
            for factor in sub.parts:
                x, c = sorted(factor.b.moved_points())
                pairs |= _pair_bit(x, c, 5)
        found = {f for f, fixed in iso_scans[len(spt)] if not fixed & pairs}
        expected = {tuple(cand.apply(i) for i in range(5)) for cand in candidates}
        yield f"isolation on {spt} finds the candidates", found == expected, ""

    return _run(4, title, t0,
                f"{sum(len(ball_scans[n]) for _, n in balls)} ball exclusions and "
                f"{sum(len(iso_scans[len(g.moved_points())]) for g in isolated)} "
                f"isolation enumerations verified",
                (balls, check_ball), (((g,) for g in isolated), check_isolation))


# -- 5: centralizer of a full point group vs pointwise stabilizer ----------------

def _check_stabilizer(points: tuple[int, ...], window: tuple[int, ...]) -> Checks:
    # one name for all: formatting A and W into each of 940 names costs 6%
    fixing = central.centralizer_equals_stabilizer(points, window)
    yield "centralizer is stabilizer iff |A| >= 3", fixing == (len(points) >= 3), ""


def criterion_5(seed: int = 1, samples: int | None = None) -> CriterionResult:
    title = "centralizing a point group is fixing its points (three or more)"
    t0 = time.perf_counter()
    pairs = [(pts, win) for w_size in range(3, 8)
             for win in combinations(range(7), w_size)
             for a_size in range(3, w_size + 1) for pts in combinations(win, a_size)]
    return _run(5, title, t0, f"{len(pairs)} (A, W) pairs exhaustive, two-point case "
                "fails as documented",
                (pairs + [((0, 1), (0, 1, 2, 3))], _check_stabilizer), budget=10.0)


# -- 6: double centralizer stability across windows ------------------------------

def _check_window_stability(perms: list[ResiduePerm],
                            results: list[frozenset[ResiduePerm]]) -> Checks:
    """Double centralizers of a family on {0..3}: equal over all windows, on {0..3}."""
    yield "same over every window", all(r == results[0] for r in results), ""
    inside = EPSet.finite(range(4))
    yield "supported on {0..3}", all(support(h).issubset(inside) for h in results[0]), ""


def criterion_6(seed: int = 1, samples: int | None = None) -> CriterionResult:
    title = "windowed double centralizer independent of the window"
    t0 = time.perf_counter()
    rng = Random(seed)
    families = ([random_finite_perm(rng, 4) for _ in range(rng.randint(1, 3))]
                for _ in range(samples or 50))
    items = ((perms, [frozenset(central.double_centralizer_window(perms, range(w)))
                      for w in (7, 8, 9)])
             for perms in families)
    return _run(6, title, t0,
                "{items} random families stable over three windows, {bad} failures",
                (items, _check_window_stability))


# -- 7: centralizers are not neighborhoods of finite-set stabilizers -------------

def criterion_7(seed: int = 1, samples: int | None = None) -> CriterionResult:
    title = "noncommuting transposition avoiding any small point set"
    t0 = time.perf_counter()
    rng = Random(seed)
    gs = [sigma()] + [random_sigma_type(rng, 10) for _ in range(samples or 20)]
    sets = [pts for k in range(5) for pts in combinations(range(10), k)]
    items = ((g, pts, central.centralizer_not_open_witness(g, pts))
             for g in gs for pts in sets)
    return _run(7, title, t0,
                f"{len(gs)} permutations x {len(sets)} point sets, {{bad}} failures",
                (items, check_cent_open))


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


def _thin_set_elements() -> Iterator[tuple[SDElement, ThinSet]]:
    """(w ; n), |n| <= 2, w reduced on at most four of A's letters < 17 and 3, 5, 6."""
    for a in (ThinSet.powers_of_two(), ThinSet.squares()):
        gens = sorted({k for k in range(17) if k in a} | {3, 5, 6})
        for raw in _reduced_words(gens, 4):
            word = FreeWord.from_raw(raw)
            for n in (-2, -1, 0, 1, 2):
                yield SDElement(word, n), a


def criterion_8(seed: int = 1, samples: int | None = None) -> CriterionResult:
    title = "free-factor membership and escape certificates over thin sets"
    t0 = time.perf_counter()
    items = ((h, a, certify_self_normalizing(h, a)) for h, a in _thin_set_elements())
    return _run(8, title, t0, "{items} elements certified, none inconclusive",
                (items, check_self_normalizing), budget=30.0)


# -- 9: mover sets and partition stabilizers --------------------------------------

def criterion_9(seed: int = 1, samples: int | None = None) -> CriterionResult:
    title = "exact mover sets and infinite-support partition stabilizers"
    t0 = time.perf_counter()
    rng = Random(seed)
    count = samples or 10
    movers = [sigma()] + [random_residue_perm(rng, infinite=True)
                          for _ in range(count)]
    parts = [random_partition(rng) for _ in range(count)]
    return _run(9, title, t0,
                f"{len(movers)} mover sets exact on [0,1000), {count} "
                f"partitions stabilized",
                (((f, tbeta.disjoint_mover_set(f)) for f in movers), check_mover_set),
                (((p, tbeta.infinite_support_stabilizer(p)) for p in parts),
                 check_partition_stabilizer))


# -- 10: algebraic law battery -----------------------------------------------------

def _law_samples(rng: Random, count: int) -> Iterator[tuple]:
    """Sample i tests law i % 6 and draws only the values that law needs."""
    for i in range(count):
        law = i % 6
        f = random_perm_mixed(rng, 16)
        g = random_perm_mixed(rng, 16) if law != 1 else None
        h = random_perm_mixed(rng, 16) if law == 0 else None
        x = rng.randrange(40) if law == 2 else None
        yield law, f, g, h, x


_LAWS = (
    lambda f, g, h, x: (f * g) * h == f * (g * h),
    lambda f, g, h, x: (f * f.inverse()).is_identity() and (f * identity() == f),
    lambda f, g, h, x: ((f * g).apply(x) == f.apply(g.apply(x))
                        and f.apply_inverse(f.apply(x)) == x),
    lambda f, g, h, x: (support(f * g).issubset(support(f) | support(g))
                        and support(f.inverse()) == support(f)),
    lambda f, g, h, x: support(conjugate(g, f)) == image(g, support(f)),
    lambda f, g, h, x: (commutes(f, g) == (f * g == g * f)
                        and f.is_involution() == (f.inverse() == f)),
)


def _check_law(law: int, *values) -> Checks:
    yield f"law {law}", _LAWS[law](*values), ""


def criterion_10(seed: int = 1, samples: int | None = None) -> CriterionResult:
    title = "group and support laws on mixed random permutations"
    t0 = time.perf_counter()
    count = samples or 10000
    return _run(10, title, t0, "{items} samples, {bad} law failures",
                (_law_samples(Random(seed), count), _check_law))


# -- suites ------------------------------------------------------------------------

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
