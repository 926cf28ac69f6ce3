"""Field-theory axiom checks on the surface counts.

Everything here is exact rational arithmetic; a report lists the number
of identities tested and any mismatches (expected none).  The cutting and
forgetting identities share one key walk, ``_identity_report``.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement

from .correlators import OrbifoldTheory, _multiset_difference, _submultisets
from .util import Q, rat_str

# Randomized keys, and conjugations, drawn by ``invariance_check``.
INVARIANCE_TRIALS = 25


def _identity_report(name: str, r: int, genera, n_max: int, cases) -> dict:
    """Count the (lhs, rhs, where) cases(genus, classes) yields per genus and
    class multiset of size <= n_max; list each unequal one with its key."""
    checked = 0
    mismatches = []
    for genus in genera:
        for n in range(n_max + 1):
            for classes in combinations_with_replacement(range(r), n):
                for lhs, rhs, where in cases(genus, classes):
                    checked += 1
                    if lhs != rhs:
                        mismatches.append({
                            "genus": genus, "classes": list(classes), **where,
                            "lhs": rat_str(lhs), "rhs": rat_str(rhs)})
    return {"name": name, "checked": checked,
            "mismatches": mismatches, "passed": not mismatches}


def cutting_trees_check(theory: OrbifoldTheory, *, genus_max: int = 2,
                        n_max: int = 4) -> dict:
    """Omega_g(c) = sum_z |C(z)| Omega_{g1}(c_I, z) Omega_{g2}(z^-1, c_J)
    for every genus split and every multiset splitting."""
    pairs = theory.algebra.pairs()
    count = theory.surface_count

    def cases(genus, classes):
        total = count(genus, classes)
        for g1 in range(genus + 1):
            g2 = genus - g1
            for left, _weight in _submultisets(classes):
                right = _multiset_difference(classes, left)
                glued = Q(0)
                for z, z_inv, c in pairs:
                    glued += c * count(g1, left + (z,)) \
                        * count(g2, (z_inv,) + right)
                yield total, glued, {"split": [list(left), list(right)],
                                     "genera": [g1, g2]}

    return _identity_report("cutting_trees", theory.r, range(genus_max + 1),
                            n_max, cases)


def cutting_loops_check(theory: OrbifoldTheory, *, genus_max: int = 2,
                        n_max: int = 4) -> dict:
    """Omega_g(c) = sum_z |C(z)| Omega_{g-1}(z, z^-1, c) for g >= 1.

    Both sides read the algebra's ``pairs`` (z, z^-1, |C(z)|): the left
    through the cached handle element H, the right by inserting each pair
    as two ordinary classes, so that the structure constants rebuild one
    factor of H.  The identity therefore tests how H is summed and cached,
    not the pairs themselves; a wrong pair shows against the brute-force
    oracle, which counts without them.
    """
    pairs = theory.algebra.pairs()
    count = theory.surface_count

    def cases(genus, classes):
        total = count(genus, classes)
        glued = Q(0)
        for z, z_inv, c in pairs:
            glued += c * count(genus - 1, classes + (z, z_inv))
        yield total, glued, {}

    return _identity_report("cutting_loops", theory.r,
                            range(1, genus_max + 1), n_max, cases)


def forgetting_tails_check(theory: OrbifoldTheory, *, genus_max: int = 2,
                           n_max: int = 4) -> dict:
    """Adding an identity-class insertion never changes the count."""
    count = theory.surface_count

    def cases(genus, classes):
        yield count(genus, classes), count(genus, (0,) + classes), {}

    return _identity_report("forgetting_tails", theory.r,
                            range(genus_max + 1), n_max, cases)


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
