"""Exact block combinatorics, complexity formulas, and module oracles for gl(m|n)."""

from . import _lazy
from .weights import (
    BlockDescriptor,
    Root,
    SuperParams,
    Weight,
    atypicality,
    berezinian_weight,
    bilinear_form,
    bruhat_leq_principal,
    is_dominant,
    length,
    naive_length,
    rho,
    rho_m,
    rho_n,
    root_partition,
    same_block,
)
from .dimensions import (
    DimBound,
    ExtDegreeWindow,
    cauchy_symmetric_decomposition,
    ext_degree_constraint,
    kac_ext_trivial,
    partitions_at_most_k_parts,
    proj_growth_exponent,
    projective_dim_bounds,
    weyl_dim_g0,
)
from .invariants import (
    InvariantReport,
    ModuleKind,
    complexity,
    rank_orbit_closure_dim,
    variety_dims,
    z_invariant,
)

__version__ = "0.1.0"

# polytope and suzhang (and ratlinalg, which polytope imports) run on first use
_lazy.register(__name__, ("ratlinalg", "polytope", "suzhang"))
__getattr__ = _lazy.exports(
    __name__,
    {
        "polytope": (
            "QuasiPolynomial", "RationalPolytope", "build_polytope", "count_lattice_points",
            "enumerate_lattice_points", "fit_quasipolynomial", "interior_witness",
            "k1_degenerate_point", "lower_bound_poly",
        ),
        "suzhang": (
            "WeightPairSet", "ZetaInput", "block_B_descriptor", "build_S", "check_pair_conditions",
            "mu_a", "nu", "phi_k1", "phi_on_zeta", "zeta",
        ),
    },
)

# what ``from glsuper import *`` binds: the submodules and every name above
__all__ = [
    "dimensions", "errors", "invariants", "polytope", "ratlinalg", "suzhang", "weights",
    "BlockDescriptor", "Root", "SuperParams", "Weight", "atypicality", "berezinian_weight",
    "bilinear_form", "bruhat_leq_principal", "is_dominant", "length", "naive_length", "rho",
    "rho_m", "rho_n", "root_partition", "same_block",
    "DimBound", "ExtDegreeWindow", "cauchy_symmetric_decomposition", "ext_degree_constraint",
    "kac_ext_trivial", "partitions_at_most_k_parts", "proj_growth_exponent",
    "projective_dim_bounds", "weyl_dim_g0",
    "InvariantReport", "ModuleKind", "complexity", "rank_orbit_closure_dim", "variety_dims",
    "z_invariant",
    "QuasiPolynomial", "RationalPolytope", "build_polytope", "count_lattice_points",
    "enumerate_lattice_points", "fit_quasipolynomial", "interior_witness",
    "k1_degenerate_point", "lower_bound_poly",
    "WeightPairSet", "ZetaInput", "block_B_descriptor", "build_S", "check_pair_conditions",
    "mu_a", "nu", "phi_k1", "phi_on_zeta", "zeta",
]


def __dir__():
    return sorted({*globals(), *__all__})
