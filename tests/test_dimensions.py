import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import glsuper
from glsuper.dimensions import (
    DimBound,
    cauchy_multiplicity,
    cauchy_symmetric_decomposition,
    ext_degree_constraint,
    ext_degree_window,
    iter_partitions_at_most,
    kac_ext_trivial,
    partitions_at_most_k_parts,
    proj_growth_exponent,
    projective_dim_bounds,
    weyl_dim_g0,
)
from glsuper.errors import DomainError, ParameterError, ResourceLimitError
from glsuper.weights import SuperParams, Weight, atypicality, berezinian_weight, length

P11 = SuperParams(1, 1)
P21 = SuperParams(2, 1)
P22 = SuperParams(2, 2)
P32 = SuperParams(3, 2)


def brute_partitions(i, k):
    """Exhaustive enumeration oracle for partition counts."""

    def rec(remaining, bound):
        if remaining == 0:
            return [()]
        out = []
        for first in range(min(bound, remaining), 0, -1):
            out.extend((first,) + rest for rest in rec(remaining - first, first))
        return out

    return sum(1 for p in rec(i, i) if len(p) <= k)


def test_weyl_dim_examples():
    assert weyl_dim_g0(Weight(P22, (1, 0, 0, -1))) == 4
    assert weyl_dim_g0(Weight.zero(P21)) == 1
    # standard x standard for gl(2)xgl(2)
    assert weyl_dim_g0(Weight(P22, (1, 0, 1, 0))) == 4
    assert weyl_dim_g0(Weight(P32, (2, 1, 0, 0, 0))) == 8


def test_weyl_dim_positive_integer_on_grid():
    rng = random.Random(3)
    for params in (P21, P22, P32):
        for _ in range(25):
            left = sorted((rng.randint(-4, 4) for _ in range(params.m)), reverse=True)
            right = sorted((rng.randint(-4, 4) for _ in range(params.n)), reverse=True)
            value = weyl_dim_g0(Weight(params, tuple(left + right)))
            assert isinstance(value, int) and value >= 1


def test_weyl_requires_dominant():
    with pytest.raises(DomainError):
        weyl_dim_g0(Weight(P21, (0, 1, 0)))


def test_weyl_gate_kept_under_optimize():
    # the gate raises instead of asserting, so python -O keeps it
    script = (
        "from glsuper.dimensions import weyl_dim_gl\n"
        "from glsuper.errors import InternalCheckError\n"
        "for hw in ((0, 1), (0, 2)):\n"
        "    try:\n"
        "        weyl_dim_gl(hw)\n"
        "    except InternalCheckError as exc:\n"
        "        print('rejected:', exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(glsuper.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "rejected: Weyl dimension of (0, 1) is 0, not a positive integer\n"
        "rejected: Weyl dimension of (0, 2) is -1, not a positive integer\n"
    ), proc.stdout


def test_projective_dim_bounds():
    assert projective_dim_bounds(Weight.zero(P11)) == DimBound(1, 4)
    assert projective_dim_bounds(Weight.zero(P21)) == DimBound(1, 16)
    w = Weight(P22, (1, 0, 0, -1))
    bound = projective_dim_bounds(w)
    assert bound.upper == (1 << 8) * bound.lower


def test_dim_bound_validation():
    with pytest.raises(ParameterError):
        DimBound(4, 1)
    with pytest.raises(ParameterError):
        DimBound(0, 1)


def test_proj_growth_exponent():
    assert proj_growth_exponent(P22, 2) == 2
    assert proj_growth_exponent(P32, 1) == 3
    assert proj_growth_exponent(P32, 0) == 0
    with pytest.raises(DomainError):
        proj_growth_exponent(P32, 3)


def test_partitions_small_values():
    assert partitions_at_most_k_parts(0, 3) == 1
    assert partitions_at_most_k_parts(5, 2) == 3
    assert partitions_at_most_k_parts(6, 3) == 7


def test_partitions_clamp_parts_to_the_number():
    # no partition of i has more than i parts: (5, 10**8) looped 10**8 times
    start = time.perf_counter()
    assert partitions_at_most_k_parts(5, 10**9) == 7
    assert partitions_at_most_k_parts(5, 10**8) == partitions_at_most_k_parts(5, 5)
    assert time.perf_counter() - start < 1


def test_partitions_refuse_non_integers():
    # 3.5 stopped in a list product with a bare TypeError, and True counted as 1
    for i, k in ((3.5, 2), (3, 2.0), (True, 2), (3, True)):
        with pytest.raises(DomainError, match="^[ik] must be an integer"):
            partitions_at_most_k_parts(i, k)


def test_partitions_match_enumeration_oracle():
    for i in range(0, 13):
        for k in range(1, 5):
            assert partitions_at_most_k_parts(i, k) == brute_partitions(i, k)
            assert partitions_at_most_k_parts(i, k) == len(list(iter_partitions_at_most(i, k)))


@pytest.mark.parametrize("k", [2, 3])
def test_partitions_polynomial_growth(k):
    # p(i, k) <= C i^{k-1}: fit C on a prefix, then verify on the full range
    samples = range(1, 10_001, 211)
    c_fitted = max(partitions_at_most_k_parts(i, k) / i ** (k - 1) for i in range(1, 400))
    for i in samples:
        assert partitions_at_most_k_parts(i, k) <= c_fitted * i ** (k - 1)


def test_ext_degree_constraint_examples():
    zero = Weight.zero(P11)
    assert ext_degree_constraint(zero, Weight(P11, (1, -1)), 1)
    assert not ext_degree_constraint(zero, Weight(P11, (5, -5)), 1)
    assert ext_degree_constraint(zero, zero, 0)


def test_ext_degree_window_and_translation_invariance():
    rng = random.Random(5)
    ber = berezinian_weight(P22)
    for _ in range(20):
        left = sorted((rng.randint(-3, 3) for _ in range(2)), reverse=True)
        right = sorted((rng.randint(-3, 3) for _ in range(2)), reverse=True)
        lam = Weight(P22, tuple(left + right))
        mu = Weight(P22, tuple(sorted((rng.randint(-3, 3) for _ in range(2)), reverse=True))
                    + tuple(sorted((rng.randint(-3, 3) for _ in range(2)), reverse=True)))
        window = ext_degree_window(lam, mu)
        assert window.width == 4
        for d in range(0, 12):
            expected = ext_degree_constraint(lam, mu, d)
            assert expected == window.admissible(d)
            assert expected == ext_degree_constraint(lam + ber, mu + ber, d)


def test_cauchy_examples():
    dec = cauchy_symmetric_decomposition(P22, 1)
    assert len(dec) == 1 and dec[0].coeffs == (0, -1, 1, 0)
    dec = cauchy_symmetric_decomposition(P22, 0)
    assert len(dec) == 1 and dec[0] == Weight.zero(P22)
    p33 = SuperParams(3, 3)
    for d in range(8):
        assert len(cauchy_symmetric_decomposition(p33, d)) == partitions_at_most_k_parts(d, 3)


def test_cauchy_summands_are_principal_block():
    for d in range(6):
        for w in cauchy_symmetric_decomposition(P22, d):
            desc = atypicality(w)
            assert desc.atypicality == 2 and desc.core_left == () and desc.core_right == ()
            assert length(w) == -d


def test_cauchy_guards():
    with pytest.raises(DomainError):
        cauchy_symmetric_decomposition(P21, 2)
    with pytest.raises(ResourceLimitError):
        cauchy_symmetric_decomposition(P22, 31)


def test_kac_ext_trivial_examples():
    assert kac_ext_trivial(Weight(P22, (0, -1, 1, 0)), 1) == 1
    assert kac_ext_trivial(Weight.zero(P22), 0) == 1
    for d in range(6):
        assert kac_ext_trivial(Weight(P22, (1, 0, 0, -1)), d) == 0


def test_kac_ext_trivial_matches_cauchy_multiplicity():
    # the closed-form criterion must agree with the symmetric-power oracle
    for s1 in range(-7, 4):
        for s2 in range(-7, min(s1, 4) + 1):
            sigma = Weight(P22, (s1, s2, -s2, -s1))
            for d in range(9):
                assert kac_ext_trivial(sigma, d) == cauchy_multiplicity(sigma, d)


def test_kac_ext_trivial_matches_cauchy_gl33():
    p33 = SuperParams(3, 3)
    for d in range(6):
        for w in cauchy_symmetric_decomposition(p33, d):
            assert kac_ext_trivial(w, d) == 1
            if d:
                assert kac_ext_trivial(w, d - 1) == 0


def test_kac_ext_trivial_rejects_non_principal():
    with pytest.raises(DomainError):
        kac_ext_trivial(Weight(P22, (1, 0, 0, 0)), 0)
    with pytest.raises(DomainError):
        kac_ext_trivial(Weight.zero(P21), 0)
