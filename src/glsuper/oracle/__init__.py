"""Brute-force ground truth: explicit matrix modules, rank tests, and gl(1|1) resolutions."""

from .. import _lazy
from ..dimensions import weyl_dim_gl

_lazy.register(__name__, ("gt", "modules", "gl11"))
_LAZY_NAMES = {
    "gt": ("GTPattern", "GlRep", "gl_simple", "gt_patterns"),
    "modules": (
        "MatrixModule", "direct_sum", "dual_kac_module", "element_matrix", "f_odd_element",
        "kac_module", "matrix_to_csv", "odd_projectivity_test", "rank_element",
        "rank_variety", "standard_rank_element", "trivial_module", "trivial_summand_check",
    ),
    "gl11": (
        "GrowthFit", "ResolutionTrace", "gl11_ext", "gl11_kac", "gl11_minimal_resolution",
        "gl11_projective", "gl11_simple", "kl_poly_gl11", "measured_growth",
    ),
}
__getattr__ = _lazy.exports(__name__, _LAZY_NAMES)

__all__ = sorted(["weyl_dim_gl", *(name for names in _LAZY_NAMES.values() for name in names)])


def __dir__():
    return sorted({*globals(), *__all__})
