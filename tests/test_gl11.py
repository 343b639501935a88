import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from dense_gl11 import gl11_minimal_resolution as dense_minimal_resolution
from hypothesis import given, settings
from hypothesis import strategies as st

import glsuper
from glsuper.dimensions import ext_degree_constraint
from glsuper.errors import DomainError, InternalCheckError, ResourceLimitError
from glsuper.oracle import (
    gl11,
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


def test_edited_modules_leave_later_modules_and_resolutions_alone():
    resolutions = [gl11_minimal_resolution(kind, 3, 6) for kind in ("kac", "simple")]
    for build in (gl11_kac, gl11_simple, gl11_projective):
        before = {unit: [dict(col) for col in cols] for unit, cols in build(3).actions.items()}
        for cols in build(3).actions.values():
            for col in cols:
                col[0] = 7
        assert build(3).actions == before
    assert [gl11_minimal_resolution(kind, 3, 6) for kind in ("kac", "simple")] == resolutions


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
    # the window bounds Ext from Kac modules: it holds on every summand of
    # each K(lam) resolution ...
    for lam in range(-3, 4):
        trace = gl11_minimal_resolution("kac", lam, 10)
        for d in range(11):
            for mu in trace.degrees[d]:
                assert ext_degree_constraint(Weight(P11, (lam, -lam)), Weight(P11, (mu, -mu)), d)
    # ... but not on those of the simple modules: L(0) has P(-1) in degree 1
    simple = gl11_minimal_resolution("simple", 0, 1)
    assert gl11_ext(simple, -1, 1) == 1
    assert not ext_degree_constraint(Weight.zero(P11), Weight(P11, (-1, 1)), 1)


def test_ext_insufficient_depth():
    trace = gl11_minimal_resolution("kac", 0, 3)
    with pytest.raises(DomainError):
        gl11_ext(trace, 0, 4)


def test_trace_refuses_degrees_it_does_not_hold():
    trace = gl11_minimal_resolution("simple", 0, 3)
    reads = (trace.total, lambda d: trace.total(d, "unit"), lambda d: trace.multiplicity(d, 3),
             lambda d: gl11_ext(trace, 3, d))
    for read in reads:
        with pytest.raises(DomainError, match="^degree must be nonnegative$"):
            read(-1)
        with pytest.raises(DomainError, match="^resolution computed to depth 3 < 4$"):
            read(4)


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


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(("kac", "simple")),
    lam=st.integers(-8, 8),
    depth=st.integers(0, 12),
)
def test_graded_resolution_matches_dense(kind, lam, depth):
    # the weight-graded resolution against the dense global elimination
    assert gl11_minimal_resolution(kind, lam, depth) == dense_minimal_resolution(kind, lam, depth)


def test_kl_polynomials_match_dense_kac_resolutions():
    # read each pair off its own dense resolution of Kac(a), at the depth
    # kl_poly_gl11 reads, instead of off the translated trace of Kac(0)
    for a in range(-6, 7):
        dense = dense_minimal_resolution("kac", a, 14)
        for b in range(-6, 7):
            depth = max(2, b - a + 2)
            coeffs = {}
            for n in range(depth + 1):
                if dense.multiplicity(n, b):
                    coeffs[b - a - n] = coeffs.get(b - a - n, 0) + dense.multiplicity(n, b)
            expected = [coeffs.get(e, 0) for e in range(max(coeffs) + 1)] if coeffs else []
            assert kl_poly_gl11(a, b) == expected, (a, b)


def test_kl_table_resolves_once(monkeypatch):
    calls = []
    real = gl11.gl11_minimal_resolution

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gl11, "gl11_minimal_resolution", counting)
    gl11._kac_trace.cache_clear()
    try:
        for lam in range(-9, 10):
            for mu in range(-9, 10):
                kl_poly_gl11(lam, mu)
    finally:
        gl11._kac_trace.cache_clear()
    assert calls == [("kac", 0, gl11.MAX_DEPTH)]


def test_resolution_step_size_does_not_grow(monkeypatch):
    # each step eliminates inside one weight space, so the largest set of
    # columns (columns times rows they touch) that _head or _kernel
    # eliminates is the same at depth 10 and at depth 25
    largest = [0]

    def record(cols):
        rows = set().union(*cols)
        largest[0] = max(largest[0], len(cols) * len(rows))

    real_pivots, real_relations = gl11.sparse_pivots, gl11.sparse_relations

    def pivots(cols):
        record(cols)
        return real_pivots(cols)

    def relations(cols):
        record(cols)
        return real_relations(cols)

    monkeypatch.setattr(gl11, "sparse_pivots", pivots)
    monkeypatch.setattr(gl11, "sparse_relations", relations)
    sizes = {}
    for depth in (10, 25):
        largest[0] = 0
        gl11_minimal_resolution("simple", 0, depth)
        sizes[depth] = largest[0]
    assert 0 < sizes[10] == sizes[25] <= 16


def test_ungraded_cover_rejected(monkeypatch):
    # with y and x swapped in P(w), the y-image of the head of K(0), at
    # weight -1, would be the image of a weight-1 basis vector
    monkeypatch.setattr(gl11, "_P_WEIGHT_OFFSETS", (0, 1, -1, 0))
    with pytest.raises(InternalCheckError, match="the cover does not map weight 1 to 1"):
        gl11_minimal_resolution("kac", 0, 3)


def _run_optimized(script: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(glsuper.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60, env=env
    )


# a cover that drops the head vector itself misses it, so it cannot surject
BROKEN_COVER = (
    "from glsuper.oracle import gl11\n"
    "real = gl11._cover\n"
    "def broken(x, y, reps):\n"
    "    cols = real(x, y, reps)\n"
    "    cols[0] = {}\n"
    "    return cols\n"
    "gl11._cover = broken\n"
)


def test_non_surjective_cover_rejected(monkeypatch):
    real = gl11._cover

    def broken(x, y, reps):
        cols = real(x, y, reps)
        cols[0] = {}
        return cols

    monkeypatch.setattr(gl11, "_cover", broken)
    with pytest.raises(InternalCheckError, match="fails to surject"):
        gl11_minimal_resolution("simple", 0, 3)


def test_non_surjective_cover_rejected_under_optimize():
    script = BROKEN_COVER + (
        "from glsuper.errors import InternalCheckError\n"
        "try:\n"
        "    gl11.gl11_minimal_resolution('simple', 0, 3)\n"
        "except InternalCheckError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    proc = _run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected: projective cover fails to surject"), proc.stdout


# a Kac(0) trace with P(0) twice in degree 0 gives the constant term 2
BROKEN_KL = (
    "from glsuper.oracle import gl11\n"
    "real = gl11._kac_trace()\n"
    "doubled = gl11.ResolutionTrace(real.target, real.depth, ({0: 2},) + real.degrees[1:])\n"
    "gl11._kac_trace = lambda: doubled\n"
)


def test_kl_constraint_violation_rejected_under_optimize():
    script = BROKEN_KL + (
        "from glsuper.errors import InternalCheckError\n"
        "try:\n"
        "    gl11.kl_poly_gl11(0, 0)\n"
        "except InternalCheckError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    proc = _run_optimized(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rejected: constant term must be one\n", proc.stdout


def test_kl_constraint_violation_exits_70_under_optimize():
    script = BROKEN_KL + (
        "import sys\n"
        "from glsuper.cli import main\n"
        "sys.exit(main(['resolve', '--target', 'kac', '--depth', '2', '--kl-window', '1']))\n"
    )
    proc = _run_optimized(script)
    assert proc.returncode == 70, proc.stderr
    assert proc.stdout == ""
    assert "internal check failure: constant term must be one" in proc.stderr


def test_resolution_and_kl_refuse_non_integer_weights():
    # no trace named kac(0.5) or kac(True), and no TypeError mid-way
    for lam in (0.5, True):
        with pytest.raises(DomainError, match="weights must be integers"):
            gl11_minimal_resolution("kac", lam, 2)
    for lam, mu in ((0.5, 1), (0, True)):
        with pytest.raises(DomainError, match="weights must be integers"):
            kl_poly_gl11(lam, mu)
