import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glsuper.errors import DomainError, ParameterError
from glsuper.weights import (
    BlockDescriptor,
    Root,
    SuperParams,
    Weight,
    atypicality,
    atypicality_exhaustive,
    berezinian_weight,
    bilinear_form,
    bruhat_leq_principal,
    is_dominant,
    length,
    naive_length,
    odd_positive_roots,
    positive_roots_m,
    positive_roots_n,
    rho,
    rho_m,
    rho_n,
    root_partition,
    same_block,
    weight_from_json,
    weight_to_json,
)

P11 = SuperParams(1, 1)
P21 = SuperParams(2, 1)
P22 = SuperParams(2, 2)
P32 = SuperParams(3, 2)


def sample_dominant(params, rng, spread=6):
    raw = sorted((rng.randint(-spread, spread) for _ in range(params.m)), reverse=True)
    raw2 = sorted((rng.randint(-spread, spread) for _ in range(params.n)), reverse=True)
    return Weight(params, tuple(raw + raw2))


def test_params_normalization():
    with pytest.raises(ParameterError):
        SuperParams(1, 2)
    with pytest.raises(ParameterError):
        SuperParams(2, 0)


@pytest.mark.parametrize("m,n", [(True, 1), (2, True), (True, True)])
def test_params_refuse_bool(m, n):
    # bool is an int subclass, but gl(True|True) is no algebra
    with pytest.raises(ParameterError, match="m and n must be integers"):
        SuperParams(m, n)


def test_weight_validation():
    with pytest.raises(ParameterError):
        Weight(P21, (1, 2))
    with pytest.raises(ParameterError):
        Weight(P21, (1, 2, 0.5))


def test_bilinear_form_basis():
    e1, e2 = Weight.eps(P11, 1), Weight.eps(P11, 2)
    assert bilinear_form(e1, e1) == 1
    assert bilinear_form(e2, e2) == -1
    assert bilinear_form(e1, e2) == 0


def test_bilinear_form_rho_and_zero():
    r = rho(P21)
    assert bilinear_form(r, r) == 4
    for w in (r, Weight.eps(P21, 2)):
        assert bilinear_form(w, Weight.zero(P21)) == 0


def test_bilinear_form_param_mismatch():
    with pytest.raises(ParameterError):
        bilinear_form(Weight.zero(P21), Weight.zero(P11))


@pytest.mark.parametrize(
    "params,expected",
    [
        (P11, (1, -1)),
        (P22, (2, 1, -1, -2)),
        (P32, (3, 2, 1, -1, -2)),
    ],
)
def test_rho_values(params, expected):
    assert rho(params).coeffs == expected


@pytest.mark.parametrize("params", [P11, P21, P22, P32, SuperParams(4, 3)])
def test_rho_splits(params):
    assert rho(params) == rho_m(params) + rho_n(params)


def test_dominance():
    assert is_dominant(Weight(P21, (1, 0, -1)))
    assert not is_dominant(Weight(P21, (0, 1, 0)))
    # no constraint across the bar
    assert is_dominant(Weight(P22, (0, 0, 5, 5)))


def test_atypicality_gl11():
    desc = atypicality(Weight(P11, (3, -3)))
    assert desc.atypicality == 1
    assert desc.omega == (Root(1, 2),)
    assert desc.core_left == () and desc.core_right == ()


def test_atypicality_gl21_zero():
    desc = atypicality(Weight.zero(P21))
    assert desc.atypicality == 1
    assert desc.omega == (Root(2, 3),)
    assert desc.core_left == (2,) and desc.core_right == ()


def test_atypicality_gl21_typical():
    desc = atypicality(Weight(P21, (1, 1, 0)))
    assert desc.atypicality == 0
    assert desc.core_left == (2, 3) and desc.core_right == (1,)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_principal_block_max_atypicality(k):
    params = SuperParams(k, k)
    desc = atypicality(Weight.zero(params))
    assert desc.atypicality == k
    assert desc.core_left == () and desc.core_right == ()


def test_atypicality_requires_dominant():
    with pytest.raises(DomainError):
        atypicality(Weight(P21, (0, 1, 0)))


def test_atypicality_matches_exhaustive_search():
    rng = random.Random(7)
    for params in (P11, P21, P22, P32):
        for _ in range(40):
            w = sample_dominant(params, rng)
            assert atypicality(w).atypicality == atypicality_exhaustive(w)


@st.composite
def dominant_weights(draw, params, spread):
    def side(size):
        entries = draw(st.lists(st.integers(-spread, spread), min_size=size, max_size=size))
        return sorted(entries, reverse=True)

    return Weight(params, tuple(side(params.m) + side(params.n)))


SMALL_PARAMS = st.integers(1, 4).flatmap(
    lambda n: st.integers(n, 5).map(lambda m: SuperParams(m, n))
)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), params=SMALL_PARAMS)
def test_atypicality_matches_exhaustive_property(data, params):
    w = data.draw(dominant_weights(params, 4))
    assert atypicality(w).atypicality == atypicality_exhaustive(w)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), params=SMALL_PARAMS)
def test_same_block_symmetric_and_matches_descriptors(data, params):
    a = data.draw(dominant_weights(params, 3))
    b = data.draw(dominant_weights(params, 3))
    omega = atypicality(a).omega
    if omega and data.draw(st.booleans()):
        # moving along an atypical root keeps the core, so b often shares a's block
        root = data.draw(st.sampled_from(omega))
        moved = a + root.to_weight(params).scale(data.draw(st.integers(-3, 3)))
        if is_dominant(moved):
            b = moved
    assert same_block(a, b) == same_block(b, a)
    assert same_block(a, b) == (atypicality(a).block_key() == atypicality(b).block_key())


def test_omega_orthogonality_and_bounds():
    rng = random.Random(11)
    for params in (P21, P22, P32):
        shift = rho(params)
        for _ in range(30):
            w = sample_dominant(params, rng)
            desc = atypicality(w)
            assert 0 <= desc.atypicality <= params.n
            shifted = w + shift
            for root in desc.omega:
                assert bilinear_form(shifted, root.to_weight(params)) == 0
            for r, s in itertools.combinations(desc.omega, 2):
                assert bilinear_form(r.to_weight(params), s.to_weight(params)) == 0


def test_berezinian_shift_preserves_atypicality():
    rng = random.Random(13)
    for params in (P21, P22, P32):
        ber = berezinian_weight(params)
        for _ in range(25):
            w = sample_dominant(params, rng)
            a, b = atypicality(w), atypicality(w + ber)
            assert a.atypicality == b.atypicality
            # (ber, eps_s) = +1 on both sides of the bar, so every core value shifts by one
            assert b.core_left == tuple(c + 1 for c in a.core_left)
            assert b.core_right == tuple(c + 1 for c in a.core_right)


def test_same_block_examples():
    assert same_block(Weight(P11, (3, -3)), Weight(P11, (7, -7)))
    assert not same_block(Weight.zero(P21), Weight(P21, (1, 1, 0)))


def test_same_block_is_equivalence():
    rng = random.Random(17)
    sample = [sample_dominant(P22, rng, spread=3) for _ in range(12)]
    for a in sample:
        assert same_block(a, a)
        for b in sample:
            assert same_block(a, b) == same_block(b, a)
            for c in sample:
                if same_block(a, b) and same_block(b, c):
                    assert same_block(a, c)


def test_lengths():
    w = Weight(P11, (3, -3))
    assert naive_length(w) == 3
    assert length(w) == 3
    assert naive_length(Weight(P22, (2, 1, -1, -2))) == 3
    assert naive_length(Weight.zero(P22)) == 0
    assert length(Weight(P21, (1, 1, 0))) == 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_length_equals_naive_on_principal_block(k):
    params = SuperParams(k, k)
    rng = random.Random(19 + k)
    for _ in range(20):
        left = sorted((rng.randint(-5, 5) for _ in range(k)), reverse=True)
        w = Weight(params, tuple(left) + tuple(-v for v in reversed(left)))
        assert atypicality(w).atypicality == k
        assert length(w) == naive_length(w)


def _length_by_form(lam):
    """length as the form on Weight values: k(k+1)/2 + sum over omega of
    (lam^+ + rho_n, alpha)."""
    params = lam.params
    desc = atypicality(lam)
    k = desc.atypicality
    shifted = Weight(params, lam.coeffs[: params.m] + (0,) * params.n) + rho_n(params)
    return k * (k + 1) // 2 + sum(bilinear_form(shifted, r.to_weight(params)) for r in desc.omega)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), params=SMALL_PARAMS)
def test_length_matches_the_bilinear_form(data, params):
    w = data.draw(dominant_weights(params, 4))
    assert length(w) == _length_by_form(w)
    assert length(w, atypicality(w)) == length(w)


def test_bruhat_principal():
    assert bruhat_leq_principal(Weight(P11, (-2, 2)), Weight.zero(P11))
    assert bruhat_leq_principal(Weight(P22, (0, -1, 1, 0)), Weight.zero(P22))
    assert not bruhat_leq_principal(Weight(P22, (1, 0, 0, -1)), Weight.zero(P22))
    w = Weight(P22, (2, -1, 1, -2))
    assert bruhat_leq_principal(w, w)


def test_bruhat_rejects_non_principal():
    with pytest.raises(DomainError):
        bruhat_leq_principal(Weight.zero(P21), Weight.zero(P21))
    with pytest.raises(DomainError):
        bruhat_leq_principal(Weight(P22, (1, 0, 0, 0)), Weight.zero(P22))


def test_root_partition_gl21():
    part = root_partition(Weight.zero(P21))
    assert part.A_m == () and part.B_m == (Root(1, 2),) and part.C_m == ()
    assert part.A_n == () and part.B_n == () and part.C_n == ()


def test_root_partition_cardinalities_and_cover():
    rng = random.Random(23)
    for params in (P21, P22, P32, SuperParams(4, 2)):
        for _ in range(15):
            w = sample_dominant(params, rng)
            k = atypicality(w).atypicality
            part = root_partition(w)
            m, n = params.m, params.n
            assert len(part.B_m) == (m - k) * k
            assert len(part.C_m) == (k * k - k) // 2
            assert len(part.B_n) == (n - k) * k
            assert len(part.C_n) == (k * k - k) // 2
            assert sorted(part.A_m + part.B_m + part.C_m) == sorted(positive_roots_m(params))
            assert sorted(part.A_n + part.B_n + part.C_n) == sorted(positive_roots_n(params))


def test_root_parity():
    assert all(not r.is_odd(P22) for r in positive_roots_m(P22))
    assert all(not r.is_odd(P22) for r in positive_roots_n(P22))
    assert all(r.is_odd(P22) for r in odd_positive_roots(P22))
    assert len(list(odd_positive_roots(P32))) == 6


def test_block_descriptor_validation():
    with pytest.raises(ParameterError):
        BlockDescriptor(2, (), (), (Root(1, 3), Root(1, 4)))


def test_weight_json_round_trip():
    w = Weight(P32, (3, 1, 0, -1, -4))
    assert weight_from_json(weight_to_json(w)) == w
    desc = atypicality(Weight.zero(P21))
    assert desc.to_json() == {
        "k": 1,
        "core_left": [2],
        "core_right": [],
        "omega": [[2, 3]],
    }


@pytest.mark.parametrize(
    "data",
    [
        {"m": 2, "n": 1, "coeffs": [1.5, 0, -0.9]},
        {"m": True, "n": True, "coeffs": [0, 0]},
        {"m": 2, "n": 1, "coeffs": ["3", 0, 0]},
    ],
    ids=["float-coeffs", "bool-sizes", "str-coeff"],
)
def test_weight_from_json_refuses_non_integers(data):
    # the values reach SuperParams and Weight unchanged, so none is truncated
    with pytest.raises(ParameterError):
        weight_from_json(data)
