"""Descendant Gromov-Witten theory of a finite-group classifying orbifold.

The state space is spanned by conjugacy classes; correlators factor as
psi-class intersection numbers times normalized solution counts of the
surface relation prod [a_i, b_i] = prod s_j.  The package computes the
Frobenius structure, both correlator halves (with independent oracles),
the truncated potential, and verifies the Virasoro and KdV constraints
that pin the theory down, all in exact rational arithmetic.
"""

from .algebra import (CanonicalBasis, CharacterTable, ClassAlgebra,
                      canonical_basis, character_table)
from .correlators import (CANONICAL_RESCALED, CLASS_BASIS, CorrelatorKey,
                          OrbifoldTheory, genus0_closed_form, psi_correlator,
                          tensor_omega_check)
from .groups import (ConjugacyData, GroupTable, build_from_cayley,
                     build_from_generators, conjugacy_data, direct_product,
                     group_from_spec, joint_centralizer_order, named_group)
from .series import SeriesCaps, TruncatedSeries
from .virasoro import (ConstraintReport, VirasoroSpec, apply_virasoro,
                       commutator_check, factorization_check, kdv_check,
                       mutation_sensitivity, virasoro_check)

__version__ = "0.1.0"

__all__ = [
    "CanonicalBasis", "CharacterTable", "ClassAlgebra", "canonical_basis",
    "character_table", "CANONICAL_RESCALED", "CLASS_BASIS", "CorrelatorKey",
    "OrbifoldTheory", "genus0_closed_form", "psi_correlator",
    "tensor_omega_check", "ConjugacyData", "GroupTable",
    "build_from_cayley", "build_from_generators", "conjugacy_data",
    "direct_product", "group_from_spec", "joint_centralizer_order",
    "named_group", "SeriesCaps", "TruncatedSeries", "ConstraintReport",
    "VirasoroSpec", "apply_virasoro", "commutator_check",
    "factorization_check", "kdv_check", "mutation_sensitivity",
    "virasoro_check", "__version__",
]
