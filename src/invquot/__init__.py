"""Exact invariants of diagonal symmetry quotients of invertible polynomials.

The package parses an invertible polynomial (as many monomials as variables,
with an invertible exponent matrix), computes its diagonal symmetry group and
the quotient by the scalar subgroup, counts sections and Ext groups of line
bundles on the quotient hypersurface in both gradings, sums orbifold
cohomology over twisted sectors, and searches for the longest exceptional
collection of line bundles, certifying optimality.
"""

__version__ = "0.1.0"

from .errors import (
    CohomologyInvariantError,
    DegenerateLoopError,
    FixedLocusNotImplementedError,
    GcdNotOneError,
    InvquotError,
    LatticeInvariantError,
    NoPositiveWeightsError,
    NotAtomicSumError,
    NotSquareError,
    PolynomialSyntaxError,
    SearchInvariantError,
    SearchTimeoutError,
    SingularMatrixError,
    SymmetryInvariantError,
    UnsupportedGeometryError,
)
from .lattice import (
    det,
    smith_normal_form,
    solve_positive_weights,
    splitting_coefficients,
)
from .polynomials import (
    AtomicDecomposition,
    Block,
    InvertiblePolynomial,
    atomic_decomposition,
    parse,
    parse_json_matrix,
)
from .symmetry import (
    DiagonalElement,
    FiniteAbelianGroup,
    SymmetryQuotient,
    diagonal_symmetry_group,
    loop_generator,
    spans_group,
    symmetry_group_of_matrix,
    symmetry_quotient,
)
from .homs import (
    BiDegree,
    bidegree,
    canonical_bidegree,
    ext_dims,
    ext_dims_via_les,
    hom_dim,
    hom_table,
    monomial_dim,
    representative_table,
)
from .chen_ruan import chen_ruan_dim, enumerate_sectors, untwisted_invariants
from .search import (
    CollectionReport,
    SearchResult,
    candidate_window,
    export_digraph_json,
    max_exceptional,
    verify_collection,
)
from .presets import PRESETS, get_preset

__all__ = [
    "AtomicDecomposition",
    "BiDegree",
    "Block",
    "CohomologyInvariantError",
    "CollectionReport",
    "DegenerateLoopError",
    "DiagonalElement",
    "FiniteAbelianGroup",
    "FixedLocusNotImplementedError",
    "GcdNotOneError",
    "InvertiblePolynomial",
    "InvquotError",
    "LatticeInvariantError",
    "NoPositiveWeightsError",
    "NotAtomicSumError",
    "NotSquareError",
    "PolynomialSyntaxError",
    "PRESETS",
    "SearchResult",
    "SearchInvariantError",
    "SearchTimeoutError",
    "SingularMatrixError",
    "SymmetryInvariantError",
    "SymmetryQuotient",
    "UnsupportedGeometryError",
    "atomic_decomposition",
    "bidegree",
    "candidate_window",
    "canonical_bidegree",
    "chen_ruan_dim",
    "det",
    "diagonal_symmetry_group",
    "enumerate_sectors",
    "export_digraph_json",
    "ext_dims",
    "ext_dims_via_les",
    "get_preset",
    "hom_dim",
    "hom_table",
    "loop_generator",
    "max_exceptional",
    "monomial_dim",
    "parse",
    "parse_json_matrix",
    "representative_table",
    "smith_normal_form",
    "solve_positive_weights",
    "spans_group",
    "splitting_coefficients",
    "symmetry_group_of_matrix",
    "symmetry_quotient",
    "untwisted_invariants",
    "verify_collection",
]
