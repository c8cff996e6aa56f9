"""Exact adic tropicalization: admissible polyhedra over Q, extended
tropicalizations in toric varieties, tilted algebras and their special
fibers, and combinatorial skeletons of models with refinement morphisms.

All arithmetic is exact (`fractions.Fraction` and integers); every
container has a canonical, deterministic form, so equal objects serialize
to identical bytes.  The `adictrop` console script exposes the same
operations on JSON files.

Names load on first use (PEP 562): `from adictrop import X` imports only
the submodule that defines X, and what that submodule imports.
"""

import importlib as _importlib

_EXPORTS = {  # module: the names it exports
    "complexes": "FAMILY_NODE ExtendedComplex Rank1Family RefinementMap ValidationReport "
                 "Violation adjacency_components common_refinement detect_accumulation "
                 "is_complete is_locally_finite is_union_of_faces refinement_map "
                 "support_contains validate_complex",
    "degeneration": "InitialIdeal LaurentPoly ResiduePoly SpecialFiberRelations "
                    "TiltedPresentation ValuedCoeff hypersurface_trop "
                    "initial_degeneration_ideal initial_form initial_form_on_stratum "
                    "is_integral_at linearity_complex monomial_polyhedron "
                    "special_fiber_relations tilted_algebra trop_eval",
    "errors": "AdictropError DenominatorMismatch DomainError EmbeddingMismatch EmptyPolyhedron "
              "ExponentOutsideSublattice FamilyNotSupported MalformedInput NonRationalPoint "
              "NotACover NotAdmissible NotAFan NotARefinement NotPointed SupportMismatch "
              "UnverifiedBasis ZeroPolynomial",
    "gubler": "Chart CoverDecision EmbeddingData FaceArrow GublerSkeleton SkeletonMorphism "
              "StratumRow adapted_to adic_trop_strata build_skeleton covers skeleton_dot "
              "skeleton_morphism tropicalization_pieces",
    "parsing": "parse_poly",
    "polyhedra": "AdmissibilityResult Cone Fan HalfSpace Polyhedron VRep face_of is_admissible "
                 "recession_cone",
    "toric": "ExtendedPoint ExtendedPolyhedron SemigroupGenerators StratumLattice "
             "closure_strata dual_cone extended_contains hilbert_basis semigroup_generators "
             "stratum_lattice",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
