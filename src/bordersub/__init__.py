"""Exact-arithmetic certificates for maximal border subrank of n x n x n
tensors: nullcone feasibility with integer cocharacter certificates,
invariant-monomial obstructions, Lie-algebra stabilizer and orbit dimension
counts, unit-orbit membership, and tight supports.

All arithmetic is exact.  The API is rational (Tensor3 and LieTriple hold
fractions.Fraction values); every kernel below it works on integers, and
tensors.integer_entries is the one place a tensor's denominators are
cleared.  Every rank and kernel comes from one structured elimination on
sparse integer rows, in bordersub.linalg.  Every verdict is a checkable
certificate or a reproducible dimension count.
"""

from .errors import (
    BordersubError,
    CapExceededError,
    DimensionMismatchError,
    InternalError,
    InvalidValueError,
    PreconditionError,
)
from .monomials import (
    Monomial,
    duality_degree_cap,
    generator_family,
    has_invariant_monomial_within,
    invariant_monomials_within,
    is_torus_invariant,
)
from .nullcone import (
    ComponentEnumeration,
    FeasibilityOutcome,
    enumerate_maximal_components,
    is_maximal_nullcone_support,
    nullcone_feasible,
)
from .orbit import (
    OrbitVerdict,
    apply_gl,
    is_concise,
    unit_orbit_member,
)
from .stabilizer import (
    LieTriple,
    StructureReport,
    TangentReport,
    act,
    cone_stabilizer_dim,
    cone_stabilizer_structure,
    orbit_cone_tangent_dim,
    orbit_dim_unit,
    qmax_dimension_bound,
    stabilizer_basis,
    stabilizer_dim,
)
from .tensors import (
    Support,
    Symmetry,
    Tensor3,
    build_tight_U,
    build_W,
    diagonal_support,
    sample_coefficients,
    sample_support,
    tensor_from_support,
    unit_tensor,
)
from .tight import (
    TightWitness,
    check_tight_witness,
    exhaustive_tight_search,
    find_tight_witness,
)
from .weights import (
    CertificateVerdict,
    TorusWeight,
    binary_cocharacter,
    check_degeneration_certificate,
    positive_support,
    weight_of,
)

__version__ = "0.1.0"


def backend_name():
    """The kernels are plain Python; the name is reported by the CLI."""
    return "python"


# the API names, grouped by module as imported above; the submodules stay
# package attributes but are not exported
__all__ = [
    "BordersubError", "CapExceededError", "DimensionMismatchError", "InternalError", "InvalidValueError",
    "PreconditionError",
    "Monomial", "duality_degree_cap", "generator_family", "has_invariant_monomial_within",
    "invariant_monomials_within", "is_torus_invariant",
    "ComponentEnumeration", "FeasibilityOutcome", "enumerate_maximal_components",
    "is_maximal_nullcone_support", "nullcone_feasible",
    "OrbitVerdict", "apply_gl", "is_concise", "unit_orbit_member",
    "LieTriple", "StructureReport", "TangentReport", "act", "cone_stabilizer_dim",
    "cone_stabilizer_structure", "orbit_cone_tangent_dim", "orbit_dim_unit", "qmax_dimension_bound",
    "stabilizer_basis", "stabilizer_dim",
    "Support", "Symmetry", "Tensor3", "build_tight_U", "build_W", "diagonal_support",
    "sample_coefficients", "sample_support", "tensor_from_support", "unit_tensor",
    "TightWitness", "check_tight_witness", "exhaustive_tight_search", "find_tight_witness",
    "CertificateVerdict", "TorusWeight", "binary_cocharacter", "check_degeneration_certificate",
    "positive_support", "weight_of",
    "backend_name",
]
