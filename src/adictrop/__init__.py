"""Exact adic tropicalization: admissible polyhedra over Q, extended
tropicalizations in toric varieties, tilted algebras and their special
fibers, and combinatorial skeletons of models with refinement morphisms.

All arithmetic is exact (`fractions.Fraction` and integers); every
container has a canonical, deterministic form, so equal objects serialize
to identical bytes.  The `adictrop` console script exposes the same
operations on JSON files.
"""

from .complexes import (FAMILY_NODE, ExtendedComplex, Rank1Family, RefinementMap,
                        ValidationReport, Violation, adjacency_components,
                        common_refinement, detect_accumulation, is_complete,
                        is_locally_finite, is_union_of_faces, refinement_map,
                        support_contains, validate_complex)
from .degeneration import (InitialIdeal, LaurentPoly, ResiduePoly,
                           SpecialFiberRelations, TiltedPresentation, ValuedCoeff,
                           hypersurface_trop, initial_degeneration_ideal,
                           initial_form, initial_form_on_stratum, is_integral_at,
                           linearity_complex, monomial_polyhedron,
                           special_fiber_relations, tilted_algebra, trop_eval)
from .errors import (AdictropError, DenominatorMismatch, DomainError,
                     EmbeddingMismatch, EmptyPolyhedron, ExponentOutsideSublattice,
                     FamilyNotSupported, MalformedInput, NonRationalPoint,
                     NotACover, NotAdmissible, NotAFan, NotARefinement, NotPointed,
                     SupportMismatch, UnverifiedBasis, ZeroPolynomial)
from .gubler import (Chart, CoverDecision, EmbeddingData, FaceArrow, GublerSkeleton,
                     SkeletonMorphism, StratumRow, adapted_to, adic_trop_strata,
                     build_skeleton, covers, skeleton_dot, skeleton_morphism,
                     tropicalization_pieces)
from .parsing import parse_poly
from .polyhedra import (AdmissibilityResult, Cone, Fan, HalfSpace, Polyhedron,
                        VRep, face_of, is_admissible, recession_cone)
from .toric import (ExtendedPoint, ExtendedPolyhedron, SemigroupGenerators,
                    StratumLattice, closure_strata, dual_cone, extended_contains,
                    hilbert_basis, semigroup_generators, stratum_lattice)

import types as _types

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _types.ModuleType))
__version__ = "0.1.0"
