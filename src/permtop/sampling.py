"""Seeded random generators for the value types, used by the verification
suites and the property tests. Every function takes an explicit
random.Random so runs are reproducible from a single seed."""

from __future__ import annotations

from random import Random

from .epset import EPSet
from .perm import ResiduePerm, from_mapping, sigma
from .selfnorm import FreeWord, SDElement
from .tbeta import Partition, validate_partition


def random_window_perm(rng: Random, window) -> ResiduePerm:
    """Uniform permutation of the window's points, as a finite perm."""
    pts = sorted(window)
    images = pts[:]
    rng.shuffle(images)
    return from_mapping(dict(zip(pts, images)))


def random_finite_perm(rng: Random, bound: int) -> ResiduePerm:
    """Permutation supported within [0, bound): shuffle a random subset."""
    size = rng.randint(0, bound)
    pts = rng.sample(range(bound), size)
    return random_window_perm(rng, pts)


def random_involution(rng: Random, bound: int) -> ResiduePerm:
    """Product of one or more disjoint transpositions within [0, bound)."""
    pts = rng.sample(range(bound), 2 * rng.randint(1, bound // 2))
    rng.shuffle(pts)
    mapping = {}
    for i in range(0, len(pts), 2):
        a, b = pts[i], pts[i + 1]
        mapping[a] = b
        mapping[b] = a
    return from_mapping(mapping)


def random_sigma_type(rng: Random, bound: int = 12) -> ResiduePerm:
    """Conjugate of the base involution by a random finite permutation."""
    u = random_finite_perm(rng, bound)
    return u * sigma() * u.inverse()


def random_residue_perm(rng: Random, infinite: bool = False) -> ResiduePerm:
    """Residue-class rearrangement composed with finite noise.

    The eventual rule permutes residue classes mod an even M <= 8 wholesale
    (x = r + Mq maps to rho(r) + Mq), so it is always a bijection; a
    random finite permutation supplies patch irregularity. infinite=True
    forces a nontrivial rho; otherwise rho is the identity with
    probability 0.3.
    """
    m = 2 * rng.randint(1, 4)
    rho = list(range(m))
    if infinite or rng.random() >= 0.3:
        while rho == list(range(m)):
            rng.shuffle(rho)
    base = ResiduePerm(m, [rho[r] - r for r in range(m)])
    noise = random_finite_perm(rng, 2 * m + rng.randint(0, 6))
    return noise * base if rng.random() < 0.5 else base * noise


def random_perm_mixed(rng: Random, bound: int = 20) -> ResiduePerm:
    """Finite, sigma-type, or residue-rule permutation, for law sampling."""
    roll = rng.random()
    if roll < 0.5:
        return random_finite_perm(rng, bound)
    if roll < 0.7:
        return random_sigma_type(rng, bound // 2)
    return random_residue_perm(rng)


def random_epset(rng: Random) -> EPSet:
    """Residue classes mod m <= 8 with up to three points added and removed."""
    m = rng.randint(1, 8)
    residues = [r for r in range(m) if rng.random() < 0.5]
    added = rng.sample(range(3 * m), rng.randint(0, 3))
    removed = rng.sample(range(3 * m), rng.randint(0, 3))
    return EPSet(m, residues, added=added, removed=removed)


def random_partition(rng: Random) -> Partition:
    """Disjoint cover of the naturals by at most five pieces: grouped
    residue classes mod an even modulus <= 12, with a few single points
    traded between pieces."""
    m = 2 * rng.randint(1, 6)
    k = rng.randint(1, min(5, m))
    groups: list[list[int]] = [[] for _ in range(k)]
    for r in range(m):
        groups[rng.randrange(k) if r >= k else r].append(r)
    added: list[set[int]] = [set() for _ in range(k)]
    removed: list[set[int]] = [set() for _ in range(k)]
    for _ in range(rng.randint(0, 4)):
        x = rng.randrange(4 * m)
        owner = next(i for i, g in enumerate(groups) if x % m in g)
        thief = rng.randrange(k)
        if thief == owner or x in removed[owner] or x in added[thief]:
            continue
        removed[owner].add(x)
        added[thief].add(x)
    pieces = [EPSet(m, groups[i], added=added[i], removed=removed[i])
              for i in range(k)]
    return validate_partition(pieces)


def random_free_word(rng: Random, generators) -> FreeWord:
    """Free reduction of up to four random syllables."""
    gens = sorted(generators)
    raw = [(rng.choice(gens), rng.choice((-2, -1, 1, 2)))
           for _ in range(rng.randint(0, 4))]
    return FreeWord.from_raw(raw)


def random_sd_element(rng: Random, generators, max_shift: int = 2) -> SDElement:
    word = random_free_word(rng, generators)
    return SDElement(word, rng.randint(-max_shift, max_shift))
