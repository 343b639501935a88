import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glsuper.dimensions
import glsuper.oracle
from glsuper.errors import DomainError, ResourceLimitError
from glsuper.oracle.gt import GTPattern, gl_simple, gt_patterns, weyl_dim_gl
from glsuper.dimensions import weyl_dim_g0
from glsuper.weights import SuperParams, Weight


def test_pattern_validation():
    GTPattern(((2, 0), (1,)))
    with pytest.raises(DomainError):
        GTPattern(((2, 0), (3,)))
    with pytest.raises(DomainError):
        GTPattern(((2, 0),))


def test_pattern_counts():
    assert len(gt_patterns((1, 0))) == 2
    assert len(gt_patterns((2, 0))) == 3
    assert len(gt_patterns((2, 1, 0))) == 8
    assert len(gt_patterns((1, 1))) == 1
    # negative entries are patterns too
    assert len(gt_patterns((0, -2))) == 3


@pytest.mark.parametrize(
    "hw",
    [(1, 0), (3, 1), (2, 1, 0), (3, 1, 0), (1, 0, -1), (2, 2, 0, 0), (0, -1, -2)],
)
def test_dimension_matches_weyl(hw):
    rep = gl_simple(len(hw), hw)
    assert rep.dim == weyl_dim_gl(hw)


def test_dimension_matches_g0_weyl():
    # gl_simple(...).dim is gated to equal the formula, so count patterns instead
    p32 = SuperParams(3, 2)
    for left, right in [((2, 1, 0), (1, 0)), ((1, 1, 0), (0, -1)), ((3, 0, 0), (2, 2))]:
        combined = weyl_dim_g0(Weight(p32, left + right))
        assert combined == len(gt_patterns(left)) * len(gt_patterns(right))


def test_one_weyl_formula_behind_every_public_name():
    assert glsuper.oracle.weyl_dim_gl is glsuper.dimensions.weyl_dim_gl
    assert weyl_dim_gl is glsuper.dimensions.weyl_dim_gl


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4).flatmap(lambda r: st.lists(st.integers(-4, 4), min_size=r, max_size=r)))
def test_weyl_dim_counts_gt_patterns(entries):
    hw = tuple(sorted(entries, reverse=True))
    assert weyl_dim_gl(hw) == len(gt_patterns(hw))


def test_cartan_action_is_diagonal_with_weights():
    rep = gl_simple(2, (1, 0))
    e11, e22 = rep.actions[(1, 1)], rep.actions[(2, 2)]
    diag = sorted((e11[i].get(i, 0), e22[i].get(i, 0)) for i in range(rep.dim))
    assert diag == [(0, 1), (1, 0)]
    for cols in (e11, e22):
        for j, col in enumerate(cols):
            assert set(col) <= {j}


def test_sl2_structure_on_adjoint_weight():
    # gl(2) with highest weight (1, -1): three dimensional, e/f ladder
    rep = gl_simple(2, (1, -1))
    assert rep.dim == 3
    rep.check_brackets()


def test_weight_multiset_gl3():
    rep = gl_simple(3, (1, 0, 0))
    weights = sorted(
        tuple(rep.actions[(k, k)][i].get(i, 0) for k in (1, 2, 3)) for i in range(rep.dim)
    )
    assert weights == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_resource_guard():
    with pytest.raises(ResourceLimitError):
        gl_simple(3, (60, 0, -60))


def test_brackets_on_larger_modules():
    gl_simple(3, (2, 1, 0)).check_brackets()
    gl_simple(4, (1, 0, 0, 0)).check_brackets()
    gl_simple(2, (4, -4)).check_brackets()
