import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glsuper.dimensions
import glsuper.oracle
from glsuper.errors import DomainError, ResourceLimitError
from glsuper.oracle.gt import GTPattern, gl_simple, gt_patterns, weyl_dim_gl
from glsuper.oracle.modules import matrix_to_csv
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


# sha256 of matrix_to_csv per unit, recorded from the construction that had
# separate raising and lowering loops
GT_DIGESTS = {
    (3, (2, 1, 0)): {
        (1, 1): "49cec267ba36c49f4a95477da940d78f112c97cc7140aea606b73d9859dcf88c",
        (1, 2): "560ef8fed0f26d9e0c15a7a3cac4697d8ad83b7bad911b057bb9fa2df7b0dcd9",
        (1, 3): "10203d5d201de10a6e8876f212cf5dd58ce91b14d97dcfe2de8521aeada78bf8",
        (2, 1): "1d8ed563a4ddb22352417d6b603fcf7645fcaa4a3f2e8f07d514a647b80af8c6",
        (2, 2): "d61bb651f1f52eec8fc05ca0c33cd20de6dfb04438fff1094eacbcc758818165",
        (2, 3): "2946b73cd05144928ace5df307874b496f06843557d422ca3b0b574082a21992",
        (3, 1): "a60c105eaff49ce4dffba261d48ce4a27f4358c2e2a1c5a72907d9b6bc4fa36f",
        (3, 2): "8581bc1346eea6bb207ee3bf4cd74a96c7fd1ee17b291c37d0dbb7bb5053a681",
        (3, 3): "7f8307a444a6bf481775861a771d606fd09db67baa5ff060bdb164755aa750af",
    },
    (4, (2, 1, 0, -1)): {
        (1, 1): "281d669eccd4840b1be7191d03b1a3d0b8b7754a26b2f6db3b17936bf93318ef",
        (1, 2): "985a874ee0fd241817bcdfb8db72248b4abf612c1a80d8f1bbaf656cd41ca751",
        (1, 3): "567263f119e44fc307842b8b9449f8f460ed1b2e538f2d61c1eff28783ece9bb",
        (1, 4): "b6f5877a1c6f1d1bdb3272de2b0a485188d7e3fad05f06121eb1b33852c9c343",
        (2, 1): "4a87a4e5709dacf7559e7cc46f948d85a92a7ce773d49bb6c84b952af20b1c5d",
        (2, 2): "32fb60c3e54633feb6084642ec3a3e90396d7388346a8afd9e419b5ff6cbd694",
        (2, 3): "65361583c604068d6369011fa03c4f6415968be2ccb938f509b4627e6176df6b",
        (2, 4): "f57b62354eaaf8967a279859472f50e5974bb92632edfb31a17e193060b600ba",
        (3, 1): "05438693f6a56ce237047b3591da2e834f9293505be496651b423e883235578d",
        (3, 2): "a43033cce9df8c04515ca495d7fbef454a9d05dc76a9ecc457b08902d025600f",
        (3, 3): "778710de8a873019405d69789c82dd5df1180013be82027cd9737db3b17651e4",
        (3, 4): "ae3fa279a6e703e2653123ac59d9249e2051bc779def2da65411f75ff9b2421c",
        (4, 1): "87539514f9fb49c76b0f6e5eea4a92cc828561a078c0ce886a89ff5d360603a7",
        (4, 2): "d7ecb061edbea0d5dcf7e4d528917c5c886f60418a47a9aa8ae77c48fa674f77",
        (4, 3): "89f6c018734b21af65c8bc436627948a6f244cfe60bfffd339458a208b6e66f8",
        (4, 4): "21ab54e829c332490f91b7ede2999f94c69d99a9ea1db734745ec74a4ef49012",
    },
}


@pytest.mark.parametrize("r,hw", list(GT_DIGESTS))
def test_gt_entries_pinned(r, hw):
    rep = gl_simple(r, hw)
    digests = {
        unit: hashlib.sha256(matrix_to_csv(cols).encode()).hexdigest()
        for unit, cols in rep.actions.items()
    }
    assert digests == GT_DIGESTS[(r, hw)]


def test_patterns_refuse_non_integer_top_rows():
    # gt_patterns owns the top row: 1.9 is not truncated to build L(1, 0), and
    # neither a float nor a bool reaches the Weyl work count
    for top in ((1.9, 0), (1.5, 0), (True, 0)):
        with pytest.raises(DomainError, match="must hold integers"):
            gt_patterns(top)
        with pytest.raises(DomainError, match="must hold integers"):
            gl_simple(2, top)
