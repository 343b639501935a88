import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import glsuper

SOURCE = Path(glsuper.__file__).parent


def test_no_assert_statements_in_source():
    # python -O strips assert statements, so a gate written as one would
    # vanish; gates raise InternalCheckError instead
    found = [
        f"{path.relative_to(SOURCE.parent)}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in source: {found}"


DENSE = {"rref", "zeros", "mat_mul"}


def test_dense_routines_stay_out_of_the_package():
    # every elimination in the package runs on ratlinalg.sparse_pivots; the
    # dense routines stay only for tests/dense_linalg.py and perfbench/tracer.py
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        if path == SOURCE / "ratlinalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.rpartition(".")[2] for alias in node.names}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            found += [f"{path.relative_to(SOURCE.parent)}:{node.lineno} {n}" for n in names & DENSE]
    assert not found, f"dense routines used outside ratlinalg: {found}"


TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_names_resolve_after_cli_import():
    # perfbench/tracer.py patches each (module, attr) of TRACED by name right
    # after importing glsuper.cli, so a name that is renamed, deleted or not
    # yet imported would make every traced op fail
    import glsuper.cli  # noqa: F401

    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    ]
    assert traced
    missing = []
    for module_name, attr in traced:
        owner = sys.modules.get(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}:{attr}")
    assert not missing, f"traced names that do not resolve: {missing}"


def test_tracer_counts_a_traced_modules_op(tmp_path):
    # final_counts iterates each built module's units, so a unit must stay a
    # plain tuple of lists for every traced modules op to finish
    spans = tmp_path / "spans.json"
    argv = ["invariants", "--m", "3", "--n", "2", "--kind", "kac", "--verify", "--weight=1,0,0,0,0"]
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans), "--", *argv], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans.read_text(encoding="utf-8"))
    counts = record["counts"]
    assert counts["oracle.modules.dim"] == 192
    assert counts["oracle.modules.dense_entries"] == 25 * 192**2
    assert counts["oracle.modules.check_brackets.pairs"] == 25**2
    assert counts["oracle.modules.nnz"] > 0
    assert {"oracle.modules.kac_module", "oracle.modules.rank_variety"} <= {span[0] for span in record["spans"]}
