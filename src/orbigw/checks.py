"""Field-theory axiom checks on the surface counts.

Everything here is exact rational arithmetic; a report lists the number
of identities tested and any mismatches (expected none).
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement

from .correlators import OrbifoldTheory, _multiset_difference, _submultisets
from .util import Q, rat_str

# Randomized keys, and conjugations, drawn by ``invariance_check``.
INVARIANCE_TRIALS = 25


def cutting_trees_check(theory: OrbifoldTheory, *, genus_max: int = 2,
                        n_max: int = 4) -> dict:
    """Omega_g(c) = sum_z |C(z)| Omega_{g1}(c_I, z) Omega_{g2}(z^-1, c_J)
    for every genus split and every multiset splitting."""
    cd = theory.cd
    checked = 0
    mismatches = []
    for genus in range(genus_max + 1):
        for n in range(n_max + 1):
            for classes in combinations_with_replacement(range(cd.r), n):
                total = theory.surface_count(genus, classes)
                for g1 in range(genus + 1):
                    g2 = genus - g1
                    for left, _weight in _submultisets(classes):
                        right = _multiset_difference(classes, left)
                        glued = Q(0)
                        for z in range(cd.r):
                            glued += cd.centralizer_of_class(z) \
                                * theory.surface_count(g1, left + (z,)) \
                                * theory.surface_count(
                                    g2, (cd.inverse_class[z],) + right)
                        checked += 1
                        if glued != total:
                            mismatches.append({
                                "genus": genus, "classes": list(classes),
                                "split": [list(left), list(right)],
                                "genera": [g1, g2],
                                "lhs": rat_str(total), "rhs": rat_str(glued),
                            })
    return {"name": "cutting_trees", "checked": checked,
            "mismatches": mismatches, "passed": not mismatches}


def cutting_loops_check(theory: OrbifoldTheory, *, genus_max: int = 2,
                        n_max: int = 4) -> dict:
    """Omega_g(c) = sum_z |C(z)| Omega_{g-1}(z, z^-1, c) for g >= 1.

    The left side multiplies by the algebra's cached handle element H;
    the right side inserts each pair (z, z^-1) as two ordinary classes,
    rebuilding one factor of H from the structure constants.  The identity
    therefore tests H; the brute-force oracle tests everything else.
    """
    cd = theory.cd
    checked = 0
    mismatches = []
    for genus in range(1, genus_max + 1):
        for n in range(n_max + 1):
            for classes in combinations_with_replacement(range(cd.r), n):
                total = theory.surface_count(genus, classes)
                glued = Q(0)
                for z in range(cd.r):
                    glued += cd.centralizer_of_class(z) * theory.surface_count(
                        genus - 1, classes + (z, cd.inverse_class[z]))
                checked += 1
                if glued != total:
                    mismatches.append({
                        "genus": genus, "classes": list(classes),
                        "lhs": rat_str(total), "rhs": rat_str(glued)})
    return {"name": "cutting_loops", "checked": checked,
            "mismatches": mismatches, "passed": not mismatches}


def forgetting_tails_check(theory: OrbifoldTheory, *, genus_max: int = 2,
                           n_max: int = 4) -> dict:
    """Adding an identity-class insertion never changes the count."""
    cd = theory.cd
    checked = 0
    mismatches = []
    for genus in range(genus_max + 1):
        for n in range(n_max + 1):
            for classes in combinations_with_replacement(range(cd.r), n):
                plain = theory.surface_count(genus, classes)
                tailed = theory.surface_count(genus, (0,) + classes)
                checked += 1
                if plain != tailed:
                    mismatches.append({
                        "genus": genus, "classes": list(classes),
                        "lhs": rat_str(plain), "rhs": rat_str(tailed)})
    return {"name": "forgetting_tails", "checked": checked,
            "mismatches": mismatches, "passed": not mismatches}


def invariance_check(theory: OrbifoldTheory, *, genus_max: int = 2,
                     n_max: int = 4, seed: int = 0) -> dict:
    """Permutation invariance of the oracle on randomized ordered keys, and
    stability of class membership under conjugation."""
    rng = random.Random(seed)
    cd = theory.cd
    g = theory.group
    checked = 0
    mismatches = []
    for _ in range(INVARIANCE_TRIALS):
        genus = rng.randint(0, genus_max)
        n = rng.randint(0, n_max)
        ordered = [rng.randrange(cd.r) for _ in range(n)]
        shuffled = ordered[:]
        rng.shuffle(shuffled)
        base = theory.surface_count_brute(genus, tuple(ordered))
        perm = theory.surface_count_brute(genus, tuple(shuffled))
        rec = theory.surface_count(genus, tuple(ordered))
        checked += 1
        if not (base == perm == rec):
            mismatches.append({"genus": genus, "ordered": ordered,
                               "shuffled": shuffled,
                               "values": [rat_str(base), rat_str(perm),
                                          rat_str(rec)]})
    for _ in range(INVARIANCE_TRIALS):
        x = rng.randrange(g.order)
        a = rng.randrange(g.order)
        checked += 1
        if cd.class_of[g.conjugate(a, x)] != cd.class_of[x]:
            mismatches.append({"element": x, "conjugator": a})
    return {"name": "invariance", "checked": checked,
            "mismatches": mismatches, "passed": not mismatches}


def cohft_check(theory: OrbifoldTheory, *, genus_max: int = 2, n_max: int = 4,
                seed: int = 0) -> dict:
    parts = [
        cutting_trees_check(theory, genus_max=genus_max, n_max=n_max),
        cutting_loops_check(theory, genus_max=genus_max, n_max=n_max),
        forgetting_tails_check(theory, genus_max=genus_max, n_max=n_max),
        invariance_check(theory, genus_max=genus_max, n_max=n_max, seed=seed),
    ]
    return {"parts": parts, "passed": all(p["passed"] for p in parts)}
