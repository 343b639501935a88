import functools
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glsuper
import slow_modules
from glsuper.dimensions import projective_dim_bounds, weyl_dim_g0
from glsuper.errors import DomainError, InternalCheckError, ParameterError, ResourceLimitError
from glsuper.oracle import gt, modules
from glsuper.oracle.gl11 import gl11_kac, gl11_projective
from glsuper.oracle.gt import check_super_brackets, gl_simple, super_bracket_units
from glsuper.oracle.modules import (
    KAC_MAX_COST,
    MatrixModule,
    direct_sum,
    dual_kac_module,
    f_odd_element,
    kac_cost,
    kac_module,
    matrix_to_csv,
    odd_projectivity_test,
    rank_element,
    rank_variety,
    standard_rank_element,
    trivial_module,
    trivial_summand_check,
)
from glsuper.ratlinalg import exact, sparse_mul, sparse_rank
from glsuper.weights import SuperParams, Weight

P11 = SuperParams(1, 1)
P21 = SuperParams(2, 1)
P22 = SuperParams(2, 2)


def test_gl11_kac_module_actions():
    module = kac_module(Weight.zero(P11))
    assert module.dim == 2
    assert sparse_rank(module.action(1, 2)) == 0
    assert sparse_rank(module.action(2, 1)) == 1
    assert module.parity == (0, 1)


def test_gl11_dual_kac_module_actions():
    module = dual_kac_module(Weight.zero(P11))
    assert module.dim == 2
    assert sparse_rank(module.action(2, 1)) == 0
    assert sparse_rank(module.action(1, 2)) == 1


def test_kac_dual_dims_agree():
    for coeffs in [(0, 0, 0), (1, 0, 0), (2, 1, -1)]:
        w = Weight(P21, coeffs)
        assert kac_module(w).dim == dual_kac_module(w).dim


@pytest.mark.parametrize(
    "params,coeffs",
    [
        (P11, (0, 0)),
        (P11, (3, -3)),
        (P21, (0, 0, 0)),
        (P21, (1, 1, 0)),
        (P21, (2, 0, -1)),
        (P22, (0, 0, 0, 0)),
        (P22, (1, 0, 0, -1)),
    ],
)
def test_kac_dimension_formula(params, coeffs):
    w = Weight(params, coeffs)
    module = kac_module(w)
    assert module.dim == (1 << (params.m * params.n)) * weyl_dim_g0(w)


def test_kac_g0_character():
    # weights of K(lam) = weights of L0(lam) plus sums of distinct negative odd roots
    module = kac_module(Weight.zero(P21))
    weights = sorted(module.weight_diagonal())
    assert weights == sorted(
        [
            (0, 0, 0),
            (-1, 0, 1),
            (0, -1, 1),
            (-1, -1, 2),
        ]
    )


def test_dual_kac_g0_character_matches_kac():
    # the dual Kac module carries the same g0-character as the Kac module
    for coeffs in [(0, 0, 0), (2, 0, -1)]:
        w = Weight(P21, coeffs)
        kac_weights = sorted(kac_module(w).weight_diagonal())
        dual_weights = sorted(dual_kac_module(w).weight_diagonal())
        assert kac_weights == dual_weights


def test_kac_scale_guard():
    with pytest.raises(ResourceLimitError):
        kac_module(Weight(SuperParams(4, 4), (40, 20, 10, 0, 0, -10, -20, -40)))


def test_kac_scale_guard_fires_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("the even simple module was built before the guard")

    monkeypatch.setattr(modules, "gl_simple", no_work)
    # gl(4|3) K(1,0,0,0|0,0,0): dimension 2^12 * 4, cost 7^3 * 16384 * 3;
    # gl(12|1) K(0): cost 13^3 * 4096 (12 s measured); gl(3|1) K(25,12,0|0):
    # dimension 8 * 2457, cost 4^3 * 19656 * 12 (7.8 s measured)
    refused = (
        (Weight(SuperParams(4, 3), (1, 0, 0, 0, 0, 0, 0)), 16384, 16859136),
        (Weight.zero(SuperParams(12, 1)), 4096, 8998912),
        (Weight(SuperParams(3, 1), (25, 12, 0, 0)), 19656, 15095808),
    )
    for w, dim, cost in refused:
        for build in (kac_module, dual_kac_module):
            with pytest.raises(
                ResourceLimitError,
                match=f"dimension {dim}: predicted cost {cost} exceeds {KAC_MAX_COST}",
            ):
                build(w)


@pytest.mark.parametrize(
    "build",
    [
        kac_module, dual_kac_module, kac_cost, lambda w: gl_simple(500, w.coeffs[:500]),
        weyl_dim_g0, projective_dim_bounds,
    ],
    ids=[
        "kac_module", "dual_kac_module", "kac_cost", "gl_simple",
        "weyl_dim_g0", "projective_dim_bounds",
    ],
)
def test_weyl_work_guard_fires_before_the_weyl_formula(monkeypatch, build):
    # the Weyl formula of gl(500), 124,750 factors, takes about 6 s, and
    # KAC_MAX_COST could refuse the module only after it
    def no_formula(*args):
        raise AssertionError("the Weyl formula ran before the guard")

    monkeypatch.setattr(glsuper.dimensions, "weyl_dim_gl", no_formula)
    monkeypatch.setattr(glsuper.oracle.gt, "weyl_dim_gl", no_formula)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="WEYL_MAX_WORK"):
        build(Weight.zero(SuperParams(500, 1)))
    assert time.perf_counter() - start < 1


def test_kac_cost_guard_admits_measured_modules():
    # gl(4|3) K(0) (2.3 s measured), gl(6|2) K(0) (3.9 s), the suite's
    # largest module gl(3|3) K(0), and the dimension-192 gl(3|2) modules of
    # the benchmark's modules workload
    admitted = (
        (Weight.zero(SuperParams(4, 3)), 4096, 1404928),
        (Weight.zero(SuperParams(6, 2)), 4096, 2097152),
        (Weight.zero(SuperParams(3, 3)), 512, 110592),
        (Weight(SuperParams(3, 2), (1, 0, 0, 0, 0)), 192, 48000),
        (Weight(SuperParams(3, 2), (0, 0, -1, 0, 0)), 192, 48000),
        (Weight(SuperParams(3, 2), (0, 0, 0, 2, 0)), 192, 48000),
    )
    for w, dim, cost in admitted:
        assert kac_cost(w) == (dim, cost)
        assert cost <= KAC_MAX_COST


# E11 = 1, E22 = 0 and zero odd units break [E12, E21] = E11 + E22
BROKEN_GL11 = {(1, 1): [{0: 1}], (2, 2): [{}], (1, 2): [{}], (2, 1): [{}]}


def test_broken_bracket_rejected():
    with pytest.raises(InternalCheckError, match="bracket relation fails"):
        MatrixModule(P11, 1, BROKEN_GL11, (0,))


def test_odd_square_alone_rejected():
    # E12 shifts v0 -> v1 -> v2 with E12^2 != 0, E21 = 0 and E11 = -E22 = diag(0, 1, 2):
    # every relation holds except [E12, E12] = 0, which only the diagonal pair checks;
    # in the basis v0, v1, v0 + v2 the E_ss are not diagonal, and the product loop checks it
    actions = {
        (1, 1): [{}, {1: 1}, {2: 2}],
        (2, 2): [{}, {1: -1}, {2: -2}],
        (1, 2): [{1: 1}, {2: 1}, {}],
        (2, 1): [{}, {}, {}],
    }
    s_cols, s_inv_cols = [{0: 1}, {1: 1}, {0: 1, 2: 1}], [{0: 1}, {1: 1}, {0: -1, 2: 1}]
    joined = {unit: sparse_mul(sparse_mul(s_cols, cols), s_inv_cols) for unit, cols in actions.items()}
    assert gt.basis_weights(joined) is None
    for case in (actions, joined):
        with pytest.raises(InternalCheckError, match=r"fails for \(1, 2\), \(1, 2\)$"):
            MatrixModule(P11, 3, case, (0, 1, 0))


def conjugated(module, s_cols, s_inv_cols):
    """The same module in another basis: every unit X becomes S X S^-1."""
    actions = {
        unit: [{i: exact(v) for i, v in col.items()} for col in sparse_mul(sparse_mul(s_cols, cols), s_inv_cols)]
        for unit, cols in module.actions.items()
    }
    return MatrixModule(module.params, module.dim, actions, module.parity)


def joined_basis(module):
    # S = I + E_01 adds basis vector 0 to vector 1; both are even, of weights (1,0|0) and (0,1|0)
    identity = [{j: 1} for j in range(module.dim)]
    return conjugated(module, [{0: 1}, {0: 1, 1: 1}, *identity[2:]], [{0: 1}, {0: -1, 1: 1}, *identity[2:]])


def rescaled_basis(module):
    # S = diag(2^(40 (i mod 3))): entries up to 2^80 and denominators up to 2^80
    scales = [2 ** (40 * (i % 3)) for i in range(module.dim)]
    return conjugated(
        module, [{j: c} for j, c in enumerate(scales)], [{j: Fraction(1, c)} for j, c in enumerate(scales)]
    )


def test_column_errors_do_not_cancel_across_slots():
    # gl(2) on the weight spaces (1,0) = <v0, v1> and (0,1) = <v2, v3>, with
    # E21 = I and E12 = A = [[-7, 0], [1, 1]] between them: XY - YX - [X, Y] for
    # (E12, E21) is A - I on one space and I - A on the other, both with the
    # column (-8, 1), whose packed int -8 + 1 * 2^3 vanishes in slots as wide
    # as the largest entry 7 alone
    actions = {
        (1, 1): [{0: 1}, {1: 1}, {}, {}],
        (2, 2): [{}, {}, {2: 1}, {3: 1}],
        (1, 2): [{}, {}, {0: -7, 1: 1}, {1: 1}],
        (2, 1): [{2: 1}, {3: 1}, {}, {}],
    }
    assert gt.basis_weights(actions) == [(1, 0), (1, 0), (0, 1), (0, 1)]
    for check in (check_super_brackets, slow_modules.check_super_brackets):
        with pytest.raises(InternalCheckError, match=r"fails for \(1, 2\), \(2, 1\)$"):
            check(actions, 4, 2, (0,) * 4)


# (actions, dim, m, parity) of valid modules: Kac and dual Kac modules, some with
# fractional entries, Gelfand-Tsetlin models of simple gl(r) modules, and
# Kac modules in other bases: two where the E_ss are not diagonal, one of
# them at the benchmark's dimension 192, and one with very large entries and
# denominators
BRACKET_CASES = {
    "gl11 K(0)": lambda: kac_module(Weight.zero(P11)),
    "gl11 dual K(2|-1)": lambda: dual_kac_module(Weight(P11, (2, -1))),
    "gl21 K(1,0|0)": lambda: kac_module(Weight(P21, (1, 0, 0))),
    "gl21 dual K(2,0|-1)": lambda: dual_kac_module(Weight(P21, (2, 0, -1))),
    "gl22 K(0)": lambda: kac_module(Weight.zero(P22)),
    "gl22 dual K(1,0|0,-1)": lambda: dual_kac_module(Weight(P22, (1, 0, 0, -1))),
    "gl32 K(1,0,0|0,0)": lambda: kac_module(Weight(SuperParams(3, 2), (1, 0, 0, 0, 0))),
    "gl32 dual K(0,0,0|2,0)": lambda: dual_kac_module(Weight(SuperParams(3, 2), (0, 0, 0, 2, 0))),
    "gl3 L(2,1,0)": lambda: gl_simple(3, (2, 1, 0)),
    "gl4 L(1,0,0,0)": lambda: gl_simple(4, (1, 0, 0, 0)),
    "gl2 L(4,-4)": lambda: gl_simple(2, (4, -4)),
    "gl21 K(1,0|0) joined basis": lambda: joined_basis(kac_module(Weight(P21, (1, 0, 0)))),
    "gl32 K(1,0,0|0,0) joined basis": lambda: joined_basis(kac_module(Weight(SuperParams(3, 2), (1, 0, 0, 0, 0)))),
    "gl32 K(1,0,0|0,0) rescaled basis": lambda: rescaled_basis(
        kac_module(Weight(SuperParams(3, 2), (1, 0, 0, 0, 0)))
    ),
}


@functools.cache
def bracket_case(name):
    module = BRACKET_CASES[name]()
    if isinstance(module, MatrixModule):
        return module.actions, module.dim, module.params.m, module.parity
    return module.actions, module.dim, module.r, (0,) * module.dim


def bracket_outcome(check, actions, dim, m, parity):
    try:
        check(actions, dim, m, parity)
    except InternalCheckError as exc:
        return str(exc)
    return None


NONZERO = st.fractions(-3, 3, max_denominator=4).filter(bool)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_integer_bracket_check_matches_slow_oracle(data):
    name = data.draw(st.sampled_from(sorted(BRACKET_CASES)), label="module")
    base, dim, m, parity = bracket_case(name)
    actions = {unit: [dict(col) for col in cols] for unit, cols in base.items()}
    kind = data.draw(st.sampled_from(["none", "change", "add", "delete", "scale"]), label="kind")
    units = sorted(actions)
    if kind in ("change", "delete"):
        entries = [(unit, j, i) for unit in units for j, col in enumerate(actions[unit]) for i in col]
        unit, j, i = data.draw(st.sampled_from(entries), label="entry")
    elif kind == "add":
        unit = data.draw(st.sampled_from(units), label="unit")
        j, i = data.draw(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)), label="position")
    if kind in ("change", "add"):
        value = actions[unit][j].get(i, 0) + data.draw(NONZERO, label="delta")
        if value:
            actions[unit][j][i] = exact(value)
        else:
            del actions[unit][j][i]
    elif kind == "delete":
        del actions[unit][j][i]
    elif kind == "scale":
        c = data.draw(NONZERO.filter(lambda c: c != 1), label="scale")
        actions = {u: [{i: exact(c * v) for i, v in col.items()} for col in cols] for u, cols in actions.items()}
    fast = bracket_outcome(check_super_brackets, actions, dim, m, parity)
    assert fast == bracket_outcome(slow_modules.check_super_brackets, actions, dim, m, parity)
    if kind == "none":
        assert fast is None


def test_joined_basis_is_not_graded():
    # conjugating by I + E_01 mixes two weight spaces, so E_11 is no longer diagonal
    module = BRACKET_CASES["gl21 K(1,0|0) joined basis"]()
    assert gt.basis_weights(module.actions) is None
    with pytest.raises(DomainError, match="Cartan action is not diagonal"):
        module.weight_diagonal()


def test_basis_weights_without_diagonal_units():
    # one empty tuple per basis vector, not one tuple in all ([] for dimension 2)
    assert gt.basis_weights({(1, 2): [{}, {}], (2, 1): [{}, {}]}) == [(), ()]
    assert gt.basis_weights({(1, 2): [{}]}) == [()]
    assert gt.basis_weights({}) == []


def test_weight_diagonal_refuses_non_integral_weights():
    # the one-dimensional gl(1|1)-module of weight (1/2 | -1/2) passes its
    # bracket check, through the product loop, but has no integral weight
    half = Fraction(1, 2)
    module = MatrixModule(P11, 1, {(1, 1): [{0: half}], (2, 2): [{0: -half}], (1, 2): [{}], (2, 1): [{}]}, (0,))
    with pytest.raises(InternalCheckError, match="is not integral"):
        module.weight_diagonal()


def test_package_modules_never_take_the_table_loop(monkeypatch):
    # the product loop is for actions that are not weight graded; every module
    # the package builds is graded, so the packed check covers all of them
    def no_products(*args):
        raise AssertionError("the bracket check fell back to the product loop")

    monkeypatch.setattr(gt, "_check_by_products", no_products)
    kac_module(Weight(SuperParams(3, 2), (1, 0, 0, 0, 0)))
    dual_kac_module(Weight(P22, (1, 0, 0, -1)))
    gl_simple(3, (2, 1, 0))
    gl_simple(2, (4, -4)).check_brackets()
    gl11_kac(2)
    gl11_projective(-1)
    # the patch is live: a module in a non-weight basis does reach it
    with pytest.raises(AssertionError, match="fell back"):
        joined_basis(kac_module(Weight(P21, (1, 0, 0))))


def entry_types(actions):
    return {unit: [{i: type(v) for i, v in col.items()} for col in cols] for unit, cols in actions.items()}


@pytest.mark.parametrize(
    "params,coeffs",
    [
        (P11, (0, 0)),
        (P21, (1, 0, 0)),
        (P22, (0, 0, 0, 0)),
        (SuperParams(3, 2), (1, 0, 0, 0, 0)),
        (SuperParams(3, 2), (0, 0, -1, 0, 0)),
        (SuperParams(3, 2), (0, 0, 0, 2, 0)),
        # both even factors non-trivial (dim 144), and many Fraction entries (dim 64)
        (P22, (2, 0, 1, -1)),
        (SuperParams(3, 1), (2, 1, 0, 0)),
    ],
)
def test_construction_matches_recursive_straightening(params, coeffs):
    w = Weight(params, coeffs)
    for module, (actions, parity) in (
        (kac_module(w), slow_modules.induced_actions(w, 1)),
        (dual_kac_module(w), slow_modules.dual_induced_actions(w)),
    ):
        assert module.parity == parity
        assert module.actions == actions
        assert entry_types(module.actions) == entry_types(actions)


@pytest.mark.parametrize(
    "x_parity,target",
    # side +1 on gl(1|1): wedge unit (2, 1), straight unit (1, 2), even units (1, 1), (2, 2)
    [(0, (1, 2)), (1, (2, 1))],
)
def test_bracket_off_the_built_units_rejected(monkeypatch, x_parity, target):
    # an even x must bracket a wedge unit to wedge units, a straight x to even units
    def bad_bracket(m, left, right):
        if modules.unit_parity(m, left) == x_parity:
            return [(target, 1)]
        return super_bracket_units(m, left, right)

    monkeypatch.setattr(modules, "super_bracket_units", bad_bracket)
    with pytest.raises(InternalCheckError, match="leaves the units built before"):
        kac_module(Weight(P11, (0, 0)))


def test_broken_parity_rejected():
    # an odd unit that maps an even vector to an even vector
    actions = {(1, 1): [{}, {}], (2, 2): [{}, {}], (1, 2): [{1: 1}, {}], (2, 1): [{}, {}]}
    with pytest.raises(InternalCheckError, match="parity"):
        MatrixModule(P11, 2, actions, (0, 0))


# v0 of weight (0|0) and v1 of weight (1|-1), E12: v0 -> v1 and E21 = 0: every
# superbracket holds ([E12, E21] = E11 + E22 = 0), but both vectors are even
# while E12 is odd, so only the Z2 grading is broken
PARITY_ONLY_GL11 = {(1, 1): [{}, {1: 1}], (2, 2): [{}, {1: -1}], (1, 2): [{1: 1}, {}], (2, 1): [{}, {}]}


def test_module_breaking_only_parity_rejected():
    even = (0, 0)
    for check in (check_super_brackets, slow_modules.check_super_brackets):
        with pytest.raises(InternalCheckError, match=r"^\(1, 2\) breaks the parity grading at \(1, 0\)$"):
            check(PARITY_ONLY_GL11, 2, P11.m, even)
    with pytest.raises(InternalCheckError, match=r"^\(1, 2\) breaks the parity grading at \(1, 0\)$"):
        MatrixModule(P11, 2, PARITY_ONLY_GL11, even)
    # with v1 odd it is a module, so the parity labels are all that was wrong
    check_super_brackets(PARITY_ONLY_GL11, 2, P11.m, (0, 1))
    slow_modules.check_super_brackets(PARITY_ONLY_GL11, 2, P11.m, (0, 1))
    assert MatrixModule(P11, 2, PARITY_ONLY_GL11, (0, 1)).dim == 2


def test_check_brackets_rejects_parity_edit_of_built_module():
    # check_brackets checks the grading too, so an edit after construction is caught
    module = kac_module(Weight.zero(P11))
    module.check_brackets()
    module.parity = (0, 0)
    with pytest.raises(InternalCheckError, match=r"^\(2, 1\) breaks the parity grading at \(1, 0\)$"):
        module.check_brackets()
    module = kac_module(Weight(P21, (1, 0, 0)))
    assert module.parity[:3] == (0, 0, 1)
    module.actions[(1, 1)][0][2] = 1  # an even unit joining an even and an odd vector
    with pytest.raises(InternalCheckError, match=r"^\(1, 1\) breaks the parity grading at \(2, 0\)$"):
        module.check_brackets()


def test_layout_is_refused_before_parity_and_parity_before_brackets():
    # a broken layout in a later unit wins over broken parity in an earlier
    # one, and broken parity wins over a failing bracket, as in the checks'
    # earlier order of separate passes
    bad_parity = {**BROKEN_GL11, (1, 2): [{0: 1}]}
    with pytest.raises(InternalCheckError, match="parity grading"):
        MatrixModule(P11, 1, bad_parity, (0,))
    with pytest.raises(ParameterError, match="row index 1 outside"):
        MatrixModule(P11, 1, {**bad_parity, (2, 1): [{1: 1}]}, (0,))
    with pytest.raises(InternalCheckError, match="bracket relation fails"):
        MatrixModule(P11, 1, BROKEN_GL11, (0,))


def test_malformed_layout_rejected():
    short = {**BROKEN_GL11, (1, 1): []}
    with pytest.raises(ParameterError, match="columns"):
        MatrixModule(P11, 1, short, (0,))
    outside = {**BROKEN_GL11, (1, 1): [{1: 1}]}
    with pytest.raises(ParameterError, match="row index"):
        MatrixModule(P11, 1, outside, (0,))


@pytest.mark.parametrize(
    "e12,message",
    [
        ([{3: 1}], r"\(1, 2\) has row index 3 outside 0\.\.0"),
        ([{}, {}], r"\(1, 2\) must have 1 columns"),
    ],
    ids=["row-outside", "extra-column"],
)
def test_bracket_check_refuses_malformed_layout(e12, message):
    # called directly, without MatrixModule's own checks in front of it
    actions = {**trivial_module(P11).actions, (1, 2): e12}
    with pytest.raises(ParameterError, match=message):
        check_super_brackets(actions, 1, P11.m, (0,))


def test_induced_module_checks_side_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work was done before the side check")

    monkeypatch.setattr(modules, "gl_simple", no_work)
    monkeypatch.setattr(modules, "kac_cost", no_work)
    for side in (0, 2):
        with pytest.raises(ParameterError, match="side must be"):
            modules._induced_module(Weight(P21, (0, 0, 0)), side)


# E11 maps v1 to v0, so it is not diagonal and the check takes the product
# loop; zero odd units break [E12, E21] = E11 + E22 there
BROKEN_NOT_GRADED = {(1, 1): [{}, {0: 1}], (2, 2): [{}, {}], (1, 2): [{}, {}], (2, 1): [{}, {}]}


def test_broken_module_rejected_under_optimize():
    # the gates raise instead of asserting, so python -O keeps them, on the
    # packed path and on the product loop alike, and the parity gate too
    assert gt.basis_weights(BROKEN_GL11) is not None and gt.basis_weights(BROKEN_NOT_GRADED) is None
    cases = ((1, BROKEN_GL11), (2, BROKEN_NOT_GRADED), (2, PARITY_ONLY_GL11))
    script = (
        "from glsuper.errors import InternalCheckError\n"
        "from glsuper.oracle.modules import MatrixModule\n"
        "from glsuper.weights import SuperParams\n"
        f"for dim, actions in {cases!r}:\n"
        "    try:\n"
        "        MatrixModule(SuperParams(1, 1), dim, actions, (0,) * dim)\n"
        "    except InternalCheckError as exc:\n"
        "        print('rejected:', exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(glsuper.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3, proc.stdout
    for line in lines[:2]:
        assert line.startswith("rejected: bracket relation fails"), proc.stdout
    assert lines[2] == "rejected: (1, 2) breaks the parity grading at (1, 0)", proc.stdout


def test_odd_projectivity_trivial_module():
    triv = trivial_module(P21)
    assert not odd_projectivity_test(triv, standard_rank_element(P21, 1, 1))


def test_odd_projectivity_gl11_kac():
    module = kac_module(Weight.zero(P11))
    assert odd_projectivity_test(module, (((2, 1), 1),))  # E21: rank 1 = dim/2
    assert not odd_projectivity_test(module, (((1, 2), 1),))  # E12: rank 0


def test_odd_projectivity_requires_square_zero():
    module = kac_module(Weight(P21, (1, 0, 0)))
    with pytest.raises(DomainError):
        odd_projectivity_test(module, (((1, 3), 1), ((3, 2), 1)))
    with pytest.raises(DomainError):
        odd_projectivity_test(module, (((1, 2), 1),))  # even unit


def test_rank_variety_gl21_kac():
    module = kac_module(Weight.zero(P21))
    assert rank_variety(module, 1) == 1
    assert rank_variety(module, -1) == 0


def test_rank_variety_gl21_dual_kac():
    module = dual_kac_module(Weight.zero(P21))
    assert rank_variety(module, 1) == 0
    assert rank_variety(module, -1) == 1


def test_rank_variety_gl22_kac():
    module = kac_module(Weight.zero(P22))
    assert module.dim == 16
    assert rank_variety(module, 1) == 2
    assert rank_variety(module, -1) == 0


def test_rank_variety_typical_kac_is_zero():
    module = kac_module(Weight(P21, (1, 1, 0)))
    assert rank_variety(module, 1) == 0
    assert rank_variety(module, -1) == 0


def test_rank_variety_gl22_non_principal_block():
    # atypicality-one weight of gl(2|2) outside the principal block
    w = Weight(P22, (2, 0, 0, -1))
    from glsuper.weights import atypicality

    assert atypicality(w).atypicality == 1
    module = kac_module(w)
    assert module.dim == 96
    assert rank_variety(module, 1) == 1
    assert rank_variety(module, -1) == 0
    dual = dual_kac_module(w)
    assert rank_variety(dual, 1) == 0
    assert rank_variety(dual, -1) == 1


def test_rank_variety_gl22_nonzero_principal_weight():
    w = Weight(P22, (1, 0, 0, -1))
    module = kac_module(w)
    assert rank_variety(module, 1) == 2


def test_rank_variety_gl32_zero_weight():
    p32 = SuperParams(3, 2)
    from glsuper.weights import atypicality

    w = Weight.zero(p32)
    assert atypicality(w).atypicality == 2
    module = kac_module(w)
    assert module.dim == 64
    assert rank_variety(module, 1) == 2
    assert rank_variety(module, -1) == 0


def test_rank_variety_direct_sum_monotone():
    a = kac_module(Weight.zero(P21))
    b = kac_module(Weight(P21, (1, 1, 0)))
    both = direct_sum(a, b)
    assert rank_variety(both, 1) == max(rank_variety(a, 1), rank_variety(b, 1)) == 1
    x = standard_rank_element(P21, 1, 1)
    assert odd_projectivity_test(both, x) == (
        odd_projectivity_test(a, x) and odd_projectivity_test(b, x)
    )
    assert rank_element(both, x) == rank_element(a, x) + rank_element(b, x)


def test_trivial_summand_check():
    assert trivial_summand_check(Weight.zero(P11))
    assert trivial_summand_check(Weight.zero(P22))
    with pytest.raises(DomainError):
        trivial_summand_check(Weight.zero(P21))


def test_f_elements_agree_with_standard_representatives():
    module = kac_module(Weight.zero(P22))
    for side in (1, -1):
        for r in range(0, 3):
            std = odd_projectivity_test(module, standard_rank_element(P22, side, r))
            det = odd_projectivity_test(module, f_odd_element(P22, side, r))
            assert std == det


def test_matrix_csv_export():
    module = kac_module(Weight.zero(P11))
    text = matrix_to_csv(module.action(2, 1))
    assert text == "0,0\n1,0\n"


def test_matrix_csv_refuses_rows_outside_the_square():
    # no line of the square prints such a row, so its entry would be lost
    with pytest.raises(ParameterError, match=r"row index 2 outside 0\.\.1"):
        matrix_to_csv([{0: 1, 2: 5}, {1: 1}])
    with pytest.raises(ParameterError, match=r"row index -1 outside 0\.\.1"):
        matrix_to_csv([{0: 1}, {-1: 1}])


def test_rank_variety_of_the_zero_module_is_zero():
    # every rank element, rank 0 included, acts freely on the zero module
    zero = MatrixModule(P21, 0, {(i, j): [] for i in range(1, 4) for j in range(1, 4)}, ())
    assert rank_variety(zero, 1) == 0 and rank_variety(zero, -1) == 0
