"""Exact computer algebra for symmetric functions in noncommuting variables.

Sparse rational expressions over set partitions in the m/p/e/x bases, the
refinement lattice with its closed-form Möbius function, the Hopf monoid of
set partitions with its graded collapse, complete multipartite graph
machinery, and an independent truncated-monomial oracle that certifies the
basis-change formulas.
"""

from .expressions import (
    NCSymExpr,
    NCTensorExpr,
    convert,
    coproduct,
    lift_R,
    omega,
    permute,
    product,
    rho,
    set_partitions_of_shape,
    tensor_convert,
    tensor_product,
    x_coproduct_coefficient,
    x_e_expansion_coefficient,
    x_to_m_top,
    x_top_coproduct_coefficient,
)
from .graphs import (
    ChromaticPolynomial,
    MultipartiteGraph,
    chromatic_polynomial,
    count_acyclic_unique_sink,
    count_acyclic_unique_sink_by_enumeration,
    count_proper_colorings,
    stable_partitions,
)
from .lattice import (
    coarsenings,
    interval,
    is_refinement,
    join,
    meet,
    mobius,
    mobius_to_top,
    refinements,
    set_partitions,
)
from .limits import DegreeLimitError, check_degree, max_degree
from .monomials import (
    CPolynomial,
    NCPolynomial,
    commute,
    expand_c,
    expand_nc,
    position_permute,
    symmetrize_R,
)
from .parsing import (
    ParseError,
    format_ncsym,
    format_nctensor,
    format_species,
    format_species_tensor,
    format_sym,
    format_terms,
    parse_ncsym,
    parse_species,
    parse_sym,
    terms_json,
)
from .partitions import (
    IntegerPartition,
    Permutation,
    SetPartition,
    apply_permutation,
    bracket,
    disjoint_union,
    integer_partitions,
    lambda_factorial,
    lambda_superfactorial,
    slash,
)
from .species import (
    SpeciesElement,
    SpeciesTensor,
    c_coefficient,
    fock_coproduct,
    fock_product,
    relabel,
    species_delta,
    species_mu,
)
from .sym import SymExpr, convert_sym, is_e_positive, omega_sym, product_sym

__version__ = "0.1.0"
