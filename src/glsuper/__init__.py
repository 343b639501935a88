"""Exact block combinatorics, complexity formulas, and module oracles for gl(m|n)."""

from . import _lazy

__version__ = "0.1.0"

# these run on first use; registered before invariants imports weights, so
# that there is one weights module, the registered one
_lazy.register(__name__, ("weights", "dimensions", "ratlinalg", "polytope", "suzhang"))
from . import invariants  # the parser needs ModuleKind
# every public name, under the submodule that defines it; the first use of a
# name reads it from there and binds it here
_EXPORTS = {
    "weights": (
        "BlockDescriptor", "Root", "SuperParams", "Weight", "atypicality", "berezinian_weight",
        "bilinear_form", "bruhat_leq_principal", "is_dominant", "length", "naive_length", "rho",
        "rho_m", "rho_n", "root_partition", "same_block",
    ),
    "dimensions": (
        "DimBound", "ExtDegreeWindow", "cauchy_symmetric_decomposition", "ext_degree_constraint",
        "kac_ext_trivial", "partitions_at_most_k_parts", "proj_growth_exponent",
        "projective_dim_bounds", "weyl_dim_g0",
    ),
    "invariants": (
        "InvariantReport", "ModuleKind", "complexity", "rank_orbit_closure_dim", "variety_dims",
        "z_invariant",
    ),
    "polytope": (
        "QuasiPolynomial", "RationalPolytope", "build_polytope", "count_lattice_points",
        "enumerate_lattice_points", "fit_quasipolynomial", "interior_witness",
        "k1_degenerate_point", "lower_bound_poly",
    ),
    "suzhang": (
        "WeightPairSet", "ZetaInput", "block_B_descriptor", "build_S", "check_pair_conditions",
        "mu_a", "nu", "phi_k1", "phi_on_zeta", "zeta",
    ),
}
__getattr__ = _lazy.exports(__name__, _EXPORTS)

# what ``from glsuper import *`` binds: the submodules and every name above
__all__ = [
    "dimensions", "errors", "invariants", "polytope", "ratlinalg", "suzhang", "weights",
    *(name for names in _EXPORTS.values() for name in names),
]


def __dir__():
    return sorted({*globals(), *__all__})
