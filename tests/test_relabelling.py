"""A relabelled Cayley table is the same group: after the class bijection
that matches the two class algebras, the oracle's surface counts, the
class-basis potential and the constraint reports must agree.  Every
other oracle compares two algorithms on one labelling, so a fault that
reads an element index as its role (the identity at index 0, say)
passes them all."""

import random
from itertools import combinations_with_replacement, permutations

import pytest

from orbigw.correlators import CLASS_BASIS, OrbifoldTheory
from orbigw.groups import build_from_cayley, named_group
from orbigw.series import SeriesCaps
from orbigw.virasoro import kdv_check, virasoro_check


def relabelled(group, seed):
    """The Cayley table of ``group`` under a seeded random permutation of
    its elements, built from scratch."""
    n = group.order
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    back = [0] * n
    for x, y in enumerate(perm):
        back[y] = x
    return build_from_cayley([[perm[group.mult[back[x]][back[y]]]
                               for y in range(n)] for x in range(n)])


def class_bijection(theory, other):
    """The first pi with a'[pi i][pi j][pi k] = a[i][j][k], searched over
    all r! bijections."""
    a = theory.algebra.structure_constants()
    b = other.algebra.structure_constants()
    r = theory.r
    return next(pi for pi in permutations(range(r))
                if all(b[pi[i]][pi[j]][pi[k]] == a[i][j][k]
                       for i in range(r) for j in range(r) for k in range(r)))


def counts(reports):
    return [(rep.checked_monomials, rep.max_residual, rep.passed)
            for rep in reports]


# Z5's classes are not self-inverse; Q8 is nonabelian
@pytest.mark.parametrize("name, param", [("Z", 5), ("Q8", 0)],
                         ids=["Z5", "Q8"])
def test_relabelled_cayley_table_gives_the_same_theory(name, param):
    group = named_group(name, param)
    other = relabelled(group, seed=7)
    assert other.identity != group.identity      # the identity moved
    theory, twin = OrbifoldTheory(group), OrbifoldTheory(other)
    pi = class_bijection(theory, twin)

    # the brute-force oracle enumerates elements, not classes; genus 2
    # runs its byte leaves, whose rows and counts are element indices
    for genus in (0, 1, 2):
        for classes in combinations_with_replacement(range(theory.r), 2):
            assert twin.surface_count_brute(
                genus, tuple(pi[c] for c in classes)) == \
                theory.surface_count_brute(genus, classes)

    caps = SeriesCaps(degree=4, genus=1)
    moved = {(tuple(sorted(((a, pi[m]), e) for (a, m), e in mono)), lam): c
             for mono, lam, c in theory.potential(
                 caps, basis=CLASS_BASIS).iter_terms()}
    assert moved == {(mono, lam): c for mono, lam, c in twin.potential(
        caps, basis=CLASS_BASIS).iter_terms()}

    # the per-index reports follow the character order, which the class
    # order can change; the class-basis reports are the last four
    want, got = (virasoro_check(t, degree=4, genus=1)
                 for t in (theory, twin))
    assert all(rep.passed for rep in want + got)
    assert sorted(counts(got[:-4])) == sorted(counts(want[:-4]))
    assert counts(got[-4:]) == counts(want[-4:])

    # one KdV report per (a, direction class c); D1 G1 keeps it cheap
    want, got = (kdv_check(t, degree=1, genus=1) for t in (theory, twin))
    assert all(rep.passed for rep in want + got)
    by_class = {(rep.operator["kdv_a"], rep.operator["direction_class"]):
                counts([rep]) for rep in got}
    assert by_class == {(rep.operator["kdv_a"],
                         pi[rep.operator["direction_class"]]): counts([rep])
                        for rep in want}
