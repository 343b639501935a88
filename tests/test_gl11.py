import json

import pytest

from glsuper.dimensions import ext_degree_constraint
from glsuper.errors import DomainError, ResourceLimitError
from glsuper.oracle import (
    gl11_ext,
    gl11_kac,
    gl11_minimal_resolution,
    gl11_projective,
    gl11_simple,
    kac_module,
    kl_poly_gl11,
    measured_growth,
    odd_projectivity_test,
    rank_variety,
)
from glsuper.ratlinalg import sparse_rank
from glsuper.weights import SuperParams, Weight

P11 = SuperParams(1, 1)


def test_projective_structure():
    for lam in (-2, 0, 5):
        proj = gl11_projective(lam)
        assert proj.dim == 4
        weights = [w[0] for w in proj.weight_diagonal()]
        assert sorted(weights) == [lam - 1, lam, lam, lam + 1]
        # head is L(lam): one generator survives modulo the odd image
        x, y = proj.action(1, 2), proj.action(2, 1)
        assert proj.dim - sparse_rank(x) - sparse_rank(y) == 4 - 2 - 2


def test_projective_head_multiplicities():
    # Hom(P(lam), L(mu)) = delta_{lam,mu}: the head has a single weight-lam line
    trace = gl11_minimal_resolution("simple", 7, 0)
    assert trace.degrees[0] == {7: 1}


def test_kac_against_general_builder():
    for lam in (-1, 0, 2):
        special = gl11_kac(lam)
        general = kac_module(Weight(P11, (lam, -lam)))
        assert special.dim == general.dim == 2
        assert sorted(w[0] for w in special.weight_diagonal()) == sorted(
            w[0] for w in general.weight_diagonal()
        )
        for unit in ((1, 2), (2, 1)):
            assert sparse_rank(special.actions[unit]) == sparse_rank(general.actions[unit])


def test_simple_module():
    simple = gl11_simple(4)
    assert simple.dim == 1
    assert rank_variety(simple, 1) == 1 and rank_variety(simple, -1) == 1


def test_projective_is_projective_on_both_sides():
    proj = gl11_projective(0)
    assert odd_projectivity_test(proj, (((1, 2), 1),))
    assert odd_projectivity_test(proj, (((2, 1), 1),))
    assert rank_variety(proj, 1) == 0 and rank_variety(proj, -1) == 0


def test_kac_resolution_one_projective_per_degree():
    trace = gl11_minimal_resolution("kac", 0, 15)
    for d in range(16):
        assert trace.degrees[d] == {d: 1}
    assert measured_growth(trace, "dimP").rate == 1
    assert measured_growth(trace, "unit").rate == 1


def test_simple_resolution_linear_growth():
    trace = gl11_minimal_resolution("simple", 0, 15)
    for d in range(16):
        assert trace.degrees[d] == {w: 1 for w in range(-d, d + 1, 2)}
        assert trace.total(d, "dimP") == 4 * (d + 1)
    assert measured_growth(trace, "dimP").rate == 2
    assert measured_growth(trace, "unit").rate == 2


def test_resolution_translation_invariance():
    base = gl11_minimal_resolution("simple", 0, 6)
    shifted = gl11_minimal_resolution("simple", 3, 6)
    for d in range(7):
        assert shifted.degrees[d] == {w + 3: c for w, c in base.degrees[d].items()}


def test_ext_values():
    trace = gl11_minimal_resolution("simple", 0, 10)
    assert gl11_ext(trace, 0, 0) == 1
    assert gl11_ext(trace, 1, 0) == 0
    for d in range(11):
        assert sum(trace.degrees[d].values()) == d + 1
    kac_trace = gl11_minimal_resolution("kac", 0, 10)
    for d in range(11):
        nonzero = [mu for mu in range(-12, 13) if gl11_ext(kac_trace, mu, d)]
        assert nonzero == [d]
        # consistency with the degree constraint of the Ext window
        assert ext_degree_constraint(Weight.zero(P11), Weight(P11, (d, -d)), d)


def test_ext_insufficient_depth():
    trace = gl11_minimal_resolution("kac", 0, 3)
    with pytest.raises(DomainError):
        gl11_ext(trace, 0, 4)


def test_resolution_guards():
    with pytest.raises(ResourceLimitError):
        gl11_minimal_resolution("kac", 0, 26)
    with pytest.raises(DomainError):
        gl11_minimal_resolution("verma", 0, 3)


def test_kl_polynomials():
    assert kl_poly_gl11(0, 0) == [1]
    assert kl_poly_gl11(0, 4) == [1]
    assert kl_poly_gl11(4, 0) == []
    with pytest.raises(ResourceLimitError):
        kl_poly_gl11(0, 30)
    for lam in range(-4, 5):
        for mu in range(-4, 5):
            poly = kl_poly_gl11(lam, mu)
            if mu >= lam:
                assert poly == [1]
                assert poly[0] == 1 and len(poly) - 1 <= 1 and sum(poly) <= 1
            else:
                assert poly == []


def test_resolution_matches_hom_space_criterion():
    # Ext^d(K(lam), L(0)) from the measured resolution agrees with the
    # symmetric-power Hom criterion: two fully independent computations
    from glsuper.dimensions import kac_ext_trivial

    for lam in range(-10, 3):
        trace = gl11_minimal_resolution("kac", lam, 12)
        sigma = Weight(P11, (lam, -lam))
        for d in range(13):
            assert gl11_ext(trace, 0, d) == kac_ext_trivial(sigma, d)


def test_measured_growth_degenerate():
    from glsuper.oracle.gl11 import ResolutionTrace

    empty = ResolutionTrace("none", 4, ({},) * 5)
    fit = measured_growth(empty, "dimP")
    assert fit.rate == 0 and fit.slope == 0.0


def test_trace_serialization():
    trace = gl11_minimal_resolution("simple", 0, 2)
    payload = trace.to_json()
    assert payload[1] == {
        "degree": 1,
        "summands": [
            {"weight": -1, "multiplicity": 1},
            {"weight": 1, "multiplicity": 1},
        ],
        "total_dim": 8,
    }
    json.dumps(payload)
