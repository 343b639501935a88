"""The heavy submodules run only when used, once, and safely across threads.

Each test that watches which module bodies ran starts a fresh interpreter:
in this one, other tests have long since loaded everything.  A module whose
body has run is a plain ``types.ModuleType``; reading any attribute of a
registered one would run it, so the tests look only at ``type(module)``.
"""

import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import glsuper
import glsuper.oracle

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(Path(glsuper.__file__).parents[1])}

LAZY = {
    "glsuper.weights",
    "glsuper.dimensions",
    "glsuper.ratlinalg",
    "glsuper.polytope",
    "glsuper.suzhang",
    "glsuper.oracle.gt",
    "glsuper.oracle.modules",
    "glsuper.oracle.gl11",
}
ALWAYS = {
    "glsuper",
    "glsuper._lazy",
    "glsuper._record",
    "glsuper.cli",
    "glsuper.errors",
    "glsuper.invariants",
    "glsuper.oracle",
}

RAN = """
import contextlib, io, json, sys, types
import glsuper.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = glsuper.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
glsuper_modules = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "glsuper"}
ran = [k for k, v in glsuper_modules.items() if type(v) is types.ModuleType]
print(json.dumps([code, sorted(glsuper_modules), sorted(ran), sorted(sys.modules)]))
"""


def _python(script: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, timeout=60, env=ENV,
    )


@functools.cache
def _ran(*argv: str) -> list:
    """RAN's result for argv; each op runs once however many tests read it."""
    proc = _python(RAN, *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


CASES = pytest.mark.parametrize(
    "argv, used, exit_code",
    [
        ([], set(), 0),
        (["classify", "--m", "2", "--n", "1", "--weight", "0,0,0"], {"weights", "dimensions"}, 0),
        (["ehrhart", "--k", "2", "--dmax", "10"], {"polytope", "ratlinalg"}, 0),
        (
            ["invariants", "--m", "3", "--n", "2", "--kind", "kac", "--weight", "0,0,0,0,0", "--verify"],
            {"weights", "dimensions", "ratlinalg", "oracle.gt", "oracle.modules"},
            0,
        ),
        (
            ["invariants", "--m", "1", "--n", "1", "--kind", "simple", "--weight", "0,0", "--verify"],
            {"weights", "ratlinalg", "oracle.gl11"},
            0,
        ),
        (
            ["resolve", "--target", "simple", "--depth", "3", "--kl-window", "1"],
            {"weights", "ratlinalg", "oracle.gl11"},
            0,
        ),
        (
            ["resolve", "--target", "kac", "--depth", "40"],
            {"weights", "ratlinalg", "oracle.gl11"},
            64,
        ),
    ],
    ids=[
        "import", "classify", "ehrhart", "invariants-verify", "invariants-verify-gl11",
        "resolve", "resolve-usage-error",
    ],
)


@CASES
def test_each_subcommand_runs_only_the_modules_it_uses(argv, used, exit_code):
    # a stray top-level import of a heavy module would cost every op its
    # compile time; here it fails instead
    code, present, ran, _ = _ran(*argv)
    assert code == exit_code
    assert set(present) == ALWAYS | LAZY
    assert set(ran) == ALWAYS | {f"glsuper.{name}" for name in used}


ONE_WEIGHTS = """
import glsuper.cli, glsuper.dimensions, glsuper.invariants, glsuper.oracle.modules
from glsuper import weights
from glsuper.weights import SuperParams, Weight
print(all([
    glsuper.invariants.weights is weights is glsuper.weights,
    glsuper.dimensions.SuperParams is glsuper.oracle.modules.SuperParams is SuperParams,
    glsuper.dimensions.Weight is glsuper.oracle.modules.Weight is Weight,
    type(glsuper.invariants.variety_dims(
        glsuper.invariants.ModuleKind.KAC, Weight.zero(SuperParams(2, 1))
    )).__name__ == "InvariantReport",
]))
"""


def test_weights_is_registered_before_any_module_imports_it():
    # an eager module that imports weights before _lazy.register runs would
    # load a second copy of it, with a second Weight and SuperParams class
    proc = _python(ONE_WEIGHTS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


@functools.cache
def _bare_modules() -> set[str]:
    proc = _python("import json, sys; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


@CASES
def test_start_up_imports_no_costly_stdlib_module(argv, used, exit_code):
    # with no bytecode cached, importing the PEP 557 record module (and with
    # it inspect, ast, dis, tokenize) cost every op about 13 ms, and fractions
    # with decimal 4 ms more, for one error message on the classify path
    avoided = {"dataclasses", "inspect"}
    if argv[:1] in ([], ["classify"]):
        avoided |= {"fractions", "decimal"}
    loaded = set(_ran(*argv)[3])
    assert avoided & loaded <= _bare_modules()


FIRST_TOUCH = """
import sys, threading
import glsuper.cli
from glsuper.weights import SuperParams, Weight

sys.setswitchinterval(1e-5)  # switch threads often, mid-body included

calls = (
    lambda: glsuper.polytope.count_lattice_points(2, 3),
    lambda: glsuper.oracle.modules.kac_cost(Weight.zero(SuperParams(2, 1))),
)
errors = []
for call in calls:
    barrier = threading.Barrier(4)

    def touch():
        barrier.wait(timeout=30)
        try:
            call()
        except Exception as exc:
            errors.append(repr(exc))

    threads = [threading.Thread(target=touch) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        if thread.is_alive():
            errors.append("a thread did not finish")
print(errors)
"""


def test_first_use_from_four_threads_at_once():
    # the waiting threads must see the module only after its body has run;
    # a module that switched to a plain module before running its body
    # (importlib.util.LazyLoader on 3.11) fails here with AttributeError
    for _ in range(10):
        proc = _python(FIRST_TOUCH)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


def test_a_write_before_first_use_survives_the_body():
    script = (
        "from glsuper import polytope\n"
        "polytope.ENUM_MAX_D = 7\n"
        "print(polytope.ENUM_MAX_D, polytope.polytope_denominator(2))\n"
    )
    proc = _python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "7 32\n"


STAR_NAMES = [
    "BlockDescriptor", "DimBound", "ExtDegreeWindow", "InvariantReport", "ModuleKind",
    "QuasiPolynomial", "RationalPolytope", "Root", "SuperParams", "Weight", "WeightPairSet",
    "ZetaInput", "atypicality", "berezinian_weight", "bilinear_form", "block_B_descriptor",
    "bruhat_leq_principal", "build_S", "build_polytope", "cauchy_symmetric_decomposition",
    "check_pair_conditions", "complexity", "count_lattice_points", "dimensions",
    "enumerate_lattice_points", "errors", "ext_degree_constraint", "fit_quasipolynomial",
    "interior_witness", "invariants", "is_dominant", "k1_degenerate_point", "kac_ext_trivial",
    "length", "lower_bound_poly", "mu_a", "naive_length", "nu", "partitions_at_most_k_parts",
    "phi_k1", "phi_on_zeta", "polytope", "proj_growth_exponent", "projective_dim_bounds",
    "rank_orbit_closure_dim", "ratlinalg", "rho", "rho_m", "rho_n", "root_partition",
    "same_block", "suzhang", "variety_dims", "weights", "weyl_dim_g0", "z_invariant", "zeta",
]
ORACLE_NAMES = [
    "GTPattern", "GlRep", "GrowthFit", "MatrixModule", "ResolutionTrace", "direct_sum",
    "dual_kac_module", "element_matrix", "f_odd_element", "gl11_ext", "gl11_kac",
    "gl11_minimal_resolution", "gl11_projective", "gl11_simple", "gl_simple", "gt_patterns",
    "kac_module", "kl_poly_gl11", "matrix_to_csv", "measured_growth", "odd_projectivity_test",
    "rank_element", "rank_variety", "standard_rank_element", "trivial_module",
    "trivial_summand_check", "weyl_dim_gl",
]


def _star(module: str) -> list[str]:
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    return sorted(name for name in namespace if name != "__builtins__")


def test_star_imports_bind_the_same_names():
    assert sorted(glsuper.__all__) == STAR_NAMES
    assert _star("glsuper") == STAR_NAMES
    assert glsuper.oracle.__all__ == ORACLE_NAMES
    assert _star("glsuper.oracle") == ORACLE_NAMES


def test_public_names_are_the_defining_objects():
    from glsuper import polytope, suzhang
    from glsuper.oracle import gl11, gt, modules

    assert glsuper.count_lattice_points is polytope.count_lattice_points
    assert glsuper.zeta is suzhang.zeta
    assert glsuper.oracle.gl_simple is gt.gl_simple
    assert glsuper.oracle.kac_module is modules.kac_module
    assert glsuper.oracle.kl_poly_gl11 is gl11.kl_poly_gl11
    assert set(STAR_NAMES) <= set(dir(glsuper))
    assert set(ORACLE_NAMES) <= set(dir(glsuper.oracle))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        glsuper.no_such_name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        glsuper.oracle.no_such_name


def test_readme_quick_start_runs_as_written():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    proc = _python(block)
    assert proc.returncode == 0, proc.stderr
