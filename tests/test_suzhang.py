import hashlib
import itertools
import json
import re

import pytest

from glsuper.dimensions import kac_ext_trivial
from glsuper import suzhang
from glsuper.errors import DomainError, InternalCheckError, ParameterError
from glsuper.polytope import count_lattice_points, enumerate_lattice_points
from glsuper.suzhang import (
    ZetaInput,
    block_B_descriptor,
    build_S,
    check_pair_conditions,
    mu_a,
    nu,
    phi_k1,
    phi_on_zeta,
    zeta,
)
from glsuper.weights import (
    SuperParams,
    Weight,
    atypicality,
    bruhat_leq_principal,
    is_dominant,
    length,
)

P11 = SuperParams(1, 1)
P21 = SuperParams(2, 1)
P22 = SuperParams(2, 2)
P32 = SuperParams(3, 2)
P43 = SuperParams(4, 3)


def test_zeta_at_zero_is_nu():
    z = zeta(ZetaInput(P32, 2, (0, 0)))
    assert z.coeffs == (1, 0, 0, 0, 0)
    desc = atypicality(z)
    assert desc.atypicality == 2
    assert desc.core_left == (4,) and desc.core_right == ()
    assert [(r.i, r.j) for r in desc.omega] == [(2, 5), (3, 4)]


def test_zeta_layout_and_injectivity():
    z = zeta(ZetaInput(P43, 2, (5, -1)))
    # (p, p-1, ..., 1 | x | -x reversed | -(q+1), ...) with p=2, q=4
    assert z.coeffs == (2, 1, 5, -1, 1, -5, -5)
    seen = set()
    for x1 in range(-3, 4):
        for x2 in range(-3, 4):
            seen.add(zeta(ZetaInput(P32, 2, (x1, x2))).coeffs)
    assert len(seen) == 49


def test_zeta_input_validation():
    with pytest.raises(ParameterError):
        ZetaInput(P32, 3, (0, 0, 0))
    with pytest.raises(ParameterError):
        ZetaInput(P32, 2, (0,))


def test_block_descriptor_cores():
    assert block_B_descriptor(P32, 2).core_left == (4,)
    assert block_B_descriptor(P32, 2).core_right == ()
    # principal block when m = n = k
    desc = block_B_descriptor(P22, 2)
    assert desc.core_left == () and desc.core_right == ()
    # k = 1 block sits at the even core values
    desc = block_B_descriptor(P21, 1)
    assert desc.core_left == (2,) and desc.core_right == ()
    desc = block_B_descriptor(P32, 1)
    assert desc.core_left == (2, 4) and desc.core_right == (6,)
    desc = block_B_descriptor(P43, 2)
    assert desc.core_left == (4, 6) and desc.core_right == (8,)


def test_zeta_images_lie_in_block():
    key = block_B_descriptor(P32, 2).block_key()
    for x1 in range(-4, 1):
        for x2 in range(-4, x1 + 1):
            z = zeta(ZetaInput(P32, 2, (x1, x2)))
            if is_dominant(z):
                assert atypicality(z).block_key() == key


def test_nu():
    assert nu(P32, 2).coeffs == (1, 0, 0, 0, 0)
    assert nu(P21, 1) == Weight.zero(P21)
    assert nu(P11, 1) == Weight.zero(P11)
    n32 = nu(P32, 1)
    assert length(n32) == 0
    assert atypicality(n32).block_key() == block_B_descriptor(P32, 1).block_key()
    n43 = nu(P43, 3)
    assert atypicality(n43).atypicality == 3


def nu_k1_by_search(params):
    """The length-zero weight of the atypicality-one block B, found by trying
    every inserted value s in a window; the package's earlier implementation."""
    m, n = params.m, params.n
    core_left = suzhang._core_left_closed_form(params, 1)
    core_right = suzhang._core_right_closed_form(params, 1)
    found = []
    for s in range(-(2 * m + 2 * n + 4), 2 * m + 2 * n + 5):
        left_vals = sorted(core_left + (s,), reverse=True)
        right_raws = sorted([-c for c in core_right] + [-s], reverse=True)
        if len(set(left_vals)) < m or len(set(right_raws)) < n:
            continue
        coeffs = [left_vals[i] - (m - i) for i in range(m)]
        coeffs += [right_raws[j] + (j + 1) for j in range(n)]
        w = Weight(params, tuple(coeffs))
        desc = atypicality(w)
        if desc.block_key() != (1, core_left, core_right):
            continue
        if length(w) == 0:
            found.append(w)
    assert len(found) == 1, found
    return found[0]


def test_nu_k1_closed_form_matches_search():
    for m in range(1, 12):
        for n in range(1, m + 1):
            params = SuperParams(m, n)
            assert nu(params, 1) == nu_k1_by_search(params), params


def test_nu_k1_gate_checks_the_block(monkeypatch):
    # with cores that are not those of the closed form, the weight fails its gate
    monkeypatch.setattr(suzhang, "_core_left_closed_form", lambda params, k: (0,))
    with pytest.raises(InternalCheckError, match="is not the length-zero weight of B"):
        nu(P32, 1)


def test_phi_on_zeta_values():
    assert phi_on_zeta(ZetaInput(P32, 2, (0, 0))) == Weight.zero(P22)
    img = phi_on_zeta(ZetaInput(P32, 2, (3, 1)))
    assert img.coeffs == (3, 1, -1, -3)
    desc = atypicality(img)
    assert desc.atypicality == 2 and desc.core_left == () and desc.core_right == ()


def test_phi_preserves_length():
    for x in [(0, 0), (2, 1), (5, 5), (-1, -3), (4, 0)]:
        inp = ZetaInput(P32, 2, x)
        z = zeta(inp)
        if not is_dominant(z):
            continue
        assert length(z) == sum(x)
        assert length(phi_on_zeta(inp)) == sum(x)


def test_phi_preserves_order():
    # coordinatewise comparison of the zeta parameters matches the
    # principal-block Bruhat order of the transported weights
    xs = [(0, 0), (-1, -1), (-2, -3), (1, 0), (2, -1)]
    for x in xs:
        for y in xs:
            lhs = all(a <= b for a, b in zip(x, y))
            rhs = bruhat_leq_principal(
                phi_on_zeta(ZetaInput(P32, 2, x)), phi_on_zeta(ZetaInput(P32, 2, y))
            )
            assert lhs == rhs


def test_phi_k1_values():
    assert phi_k1(P21, 0) == Weight.zero(P11)
    assert phi_k1(P21, 5).coeffs == (5, -5)
    values = [phi_k1(P21, a).coeffs[0] for a in range(0, 6)]
    assert values == sorted(values)


def test_mu_a():
    w = mu_a(P21, 50, 60)
    assert w.coeffs == (50, 1, -51)
    desc = atypicality(w)
    assert desc.atypicality == 1
    assert desc.block_key() == block_B_descriptor(P21, 1).block_key()
    assert is_dominant(w)
    with pytest.raises(DomainError):
        mu_a(P21, 40, 60)  # outside 2d/3 < a
    with pytest.raises(DomainError):
        mu_a(P21, 61, 60)
    with pytest.raises(DomainError):
        mu_a(P21, 10, 12)  # d too small for the window


def test_mu_a_dominant_across_window():
    params = P32
    d = 6 * (params.m + params.n) + 3
    for a in range(2 * d // 3 + 1, d + 1):
        w = mu_a(params, a, d)
        assert is_dominant(w)
        assert atypicality(w).block_key() == block_B_descriptor(params, 1).block_key()


def test_build_S_k1_cardinality():
    s = build_S(P21, 1, 61)
    # integers a with 2*61/3 < a <= 61, i.e. 41..61
    assert len(s) == 21
    phis = sorted(phi_k1(P21, mu.coeffs[0]).coeffs[0] for mu, _ in s.pairs)
    assert phis == list(range(phis[0], phis[0] + len(phis)))
    for mu, sigma in s.pairs:
        assert mu == sigma


def test_build_S_k2_matches_lattice_count():
    for d in (12, 20):
        s = build_S(P32, 2, d)
        assert len(s) == count_lattice_points(2, d)
        assert len(set(s.pairs)) == len(s.pairs)
        key = s.block.block_key()
        for mu, sigma in s.pairs:
            assert atypicality(mu).block_key() == key
            assert atypicality(sigma).block_key() == key


def zeta_in_B_slow(params, k, x):
    """Whether zeta(x) is a dominant weight of B, by dominance and a full
    atypicality of the weight: the gate build_S ran before the closed form."""
    w = zeta(ZetaInput(params, k, x))
    return is_dominant(w) and atypicality(w).block_key() == block_B_descriptor(params, k).block_key()


@pytest.mark.parametrize(
    "params, k, d",
    [(P22, 2, 12), (P32, 2, 12), (SuperParams(4, 2), 2, 10), (P43, 2, 10),
     (SuperParams(3, 3), 3, 6), (P43, 3, 6), (SuperParams(5, 4), 3, 6)],
    ids=str,
)
def test_closed_form_zeta_gate_matches_atypicality(params, k, d):
    points = enumerate_lattice_points(k, d)
    halves = {point[:k] for point in points} | {point[k:] for point in points}
    for x in halves:
        assert suzhang._zeta_in_B(params, k, x) and zeta_in_B_slow(params, k, x), x
    # a box around the polytope [-d, 0]^(2k) holds vectors of both verdicts
    verdicts = set()
    for x in itertools.product(range(-d - 2, 4), repeat=k):
        fast = suzhang._zeta_in_B(params, k, x)
        assert fast == zeta_in_B_slow(params, k, x), x
        verdicts.add(fast)
    assert verdicts == {True, False}


def test_build_S_gate_refuses_a_zeta_image_outside_B(monkeypatch):
    point = enumerate_lattice_points(2, 4)[0]
    monkeypatch.setattr(suzhang, "_zeta_in_B", lambda params, k, x: x != point[:2])
    w = zeta(ZetaInput(P32, 2, point[:2]))
    with pytest.raises(InternalCheckError, match=re.escape(f"zeta image {w} is not a dominant weight of B")):
        build_S(P32, 2, 4)


# sha256 of build_S(...).to_json() dumped with sorted keys, recorded from the
# enumerator that walked every b coordinate and filtered by sum and parity
BUILD_S_SHA256 = {
    (SuperParams(4, 2), 2, 60): "b185ff19ff7ef6c60b5b19790ae7cc9b07ab00f2260dba5d77aab3c83f143fb4",
    (SuperParams(3, 3), 3, 24): "8aa920e68844ce3736a1da6d1cbf1fc92635361764cbf61e58e7056b3027f882",
}


@pytest.mark.parametrize("case,digest", BUILD_S_SHA256.items(), ids=["gl42-k2-d60", "gl33-k3-d24"])
def test_build_S_matches_recorded_digest(case, digest):
    text = json.dumps(build_S(*case).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_check_pair_conditions_positive():
    for d in (12, 20):
        s = build_S(P32, 2, d)
        assert all(check_pair_conditions(pair, d, P32, 2) for pair in s.pairs)


def test_check_pair_conditions_negative_controls():
    d = 20
    s = build_S(P32, 2, d)
    mu, sigma = s.pairs[0]
    # violating the gap inequality: flatten the zeta coordinates of mu
    x = list(mu.coeffs[1:3])
    x[0] = x[1]
    flat = zeta(ZetaInput(P32, 2, tuple(x)))
    assert not check_pair_conditions((flat, sigma), d, P32, 2)
    # breaking the degree-halving equality by shifting d
    assert not check_pair_conditions((mu, sigma), d + 1, P32, 2)
    # a non-zeta weight is rejected outright
    with pytest.raises(DomainError):
        check_pair_conditions((Weight.zero(P32), sigma), d, P32, 2)


def test_check_pair_conditions_need_k_at_least_2():
    # no pair of the k = 1 family meets them: sigma <= nu needs a <= n - 1,
    # below the window 2d/3 < a <= d
    d = 20
    s = build_S(P21, 1, d)
    for k in (1, 0, -1):
        with pytest.raises(DomainError, match=f"need atypicality k >= 2, got k={k}"):
            check_pair_conditions(s.pairs[0], d, P21, k)


def test_schmidt_parity():
    for d in (12, 20, 33):
        s = build_S(P32, 2, d)
        assert all((d - length(mu)) % 2 == 0 for mu, _ in s.pairs)


def test_ext_trivial_chain_through_cauchy_oracle():
    for d in (12, 20):
        s = build_S(P32, 2, d)
        for mu, sigma in s.pairs:
            inp = ZetaInput(P32, 2, sigma.coeffs[1:3])
            assert zeta(inp) == sigma
            degree = d - length(mu) + length(sigma)
            assert kac_ext_trivial(phi_on_zeta(inp), degree) == 1


def test_pair_set_serialization():
    s = build_S(P21, 1, 61)
    payload = s.to_json()
    assert payload["d"] == 61
    assert payload["block"] == {"k": 1, "core_left": [2], "core_right": [], "omega": [[2, 3]]}
    assert len(payload["pairs"]) == 21
    json.dumps(payload)  # serializable


def test_build_S_guards():
    with pytest.raises(DomainError):
        build_S(P21, 1, 10)  # below the d > 6(m+n) window
    with pytest.raises(DomainError):
        build_S(P32, 3, 10)  # k > n


def test_nu_and_build_S_refuse_non_integers():
    # nu(P22, 1.0) returned a weight, and build_S stopped in range() or a
    # tuple product with a bare TypeError
    for call in (lambda: nu(P22, 1.0), lambda: nu(P22, True), lambda: build_S(P22, 2.0, 40)):
        with pytest.raises(DomainError, match="^k must be an integer"):
            call()
    for d in (3.5, 61.0):
        for k in (1, 2):
            with pytest.raises(DomainError, match="^d must be an integer"):
                build_S(P22, k, d)


def test_check_pair_conditions_refuses_a_pair_outside_the_length_window():
    # sigma <= mu <= nu holds, but l(mu) - l(sigma) = 2 exceeds d = 1
    mu, sigma = (zeta(ZetaInput(P32, 2, x)) for x in ((-5, -5), (-6, -6)))
    assert (length(mu), length(sigma)) == (-10, -12)
    assert not check_pair_conditions((mu, sigma), 1, P32, 2)
