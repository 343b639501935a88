"""Run one glsuper CLI op with spans around the public functions of each layer.

Usage: python perfbench/tracer.py SPANS_OUT -- <glsuper argv...>

The package's own code is untouched: after import, each traced function or
method is replaced at every ``glsuper`` module attribute that binds it
(``cli`` imports names directly).  Spans stay in memory and are written to
SPANS_OUT once, at exit, together with counts taken from arguments and
return values.
"""

from __future__ import annotations

import functools
import json
import sys
import time

clock = time.perf_counter

# (module, attribute) of every traced callable; "Class.method" patches the class
TRACED = (
    ("glsuper.cli", "main"),
    ("glsuper.weights", "atypicality"),
    ("glsuper.weights", "length"),
    ("glsuper.dimensions", "weyl_dim_g0"),
    ("glsuper.dimensions", "projective_dim_bounds"),
    ("glsuper.invariants", "variety_dims"),
    ("glsuper.polytope", "count_lattice_points"),
    ("glsuper.polytope", "enumerate_lattice_points"),
    ("glsuper.polytope", "vertices"),
    ("glsuper.polytope", "fit_quasipolynomial"),
    ("glsuper.polytope", "lower_bound_poly"),
    ("glsuper.ratlinalg", "rref"),
    ("glsuper.ratlinalg", "sparse_mul"),
    ("glsuper.ratlinalg", "mat_mul"),
    ("glsuper.oracle.gt", "gl_simple"),
    ("glsuper.oracle.modules", "kac_module"),
    ("glsuper.oracle.modules", "dual_kac_module"),
    ("glsuper.oracle.modules", "MatrixModule.__init__"),
    ("glsuper.oracle.modules", "MatrixModule.check_brackets"),
    ("glsuper.oracle.modules", "rank_variety"),
    ("glsuper.oracle.gl11", "gl11_minimal_resolution"),
    ("glsuper.oracle.gl11", "kl_poly_gl11"),
    ("glsuper.oracle.gl11", "measured_growth"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('glsuper.')}.{attr.replace('__init__', 'init')}"


class Tracer:
    def __init__(self) -> None:
        # one span per call: [name, start, end, parent index]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.modules: list = []  # built modules, measured at exit
        self.resolutions: list = []  # resolution traces, measured at exit

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, func, observe=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def observers(self) -> dict:
        def rref(args, _result):
            mat = args[0]
            self.add("ratlinalg.rref.entries", len(mat) * (len(mat[0]) if mat else 0))

        def pairs(args, _result):
            self.add("oracle.modules.check_brackets.pairs", len(args[0].actions) ** 2)

        return {
            "ratlinalg.rref": rref,
            "polytope.enumerate_lattice_points": lambda a, r: self.add("polytope.points", len(r)),
            "polytope.fit_quasipolynomial": lambda a, r: self.add("polytope.fit.period", r.period),
            "oracle.modules.MatrixModule.check_brackets": pairs,
            "oracle.modules.kac_module": lambda a, r: self.modules.append(r),
            "oracle.modules.dual_kac_module": lambda a, r: self.modules.append(r),
            "oracle.gl11.gl11_minimal_resolution": lambda a, r: self.resolutions.append(r),
        }

    def install(self) -> None:
        loaded = [m for name, m in sys.modules.items() if name.split(".")[0] == "glsuper"]
        observers = self.observers()
        for module_name, attr in TRACED:
            owner = sys.modules[module_name]
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method), observers.get(name)))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, observers.get(name))
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def final_counts(self) -> dict[str, int]:
        for module in self.modules:
            self.add("oracle.modules.dim", module.dim)
            self.add("oracle.modules.dense_entries", len(module.actions) * module.dim**2)
            self.add(
                "oracle.modules.nnz",
                sum(1 for mat in module.actions.values() for row in mat for x in row if x),
            )
        for trace in self.resolutions:
            self.add("oracle.gl11.total_dim", sum(e["total_dim"] for e in trace.to_json()))
        return self.counts


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT -- <glsuper argv...>")
    start = clock()
    import glsuper.cli

    import_s = clock() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = glsuper.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    record = {
        "import_s": import_s,
        "spans": tracer.spans,
        "counts": tracer.final_counts(),
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
