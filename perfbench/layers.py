"""Per-layer metrics of the traced run, aggregated from the tracer's records.

A span's self time is its duration minus the durations of its direct child
spans.  Every metric is a mean per traced op, except the ratios, which are
formed from totals and reported with their base.  Each traced op is reduced
to a summary as soon as it ends, so the parent holds no spans.
"""

from __future__ import annotations

from tracer import TRACED, span_name

LAYER_OF = {span_name(m, a): m.removeprefix("glsuper.") for m, a in TRACED}
LAYERS = ("cli",) + tuple(dict.fromkeys(v for v in LAYER_OF.values() if v != "cli"))

# counts the tracer takes from arguments and return values
COUNTS = (
    "polytope.points",
    "polytope.fit.period",
    "ratlinalg.rref.entries",
    "oracle.modules.check_brackets.pairs",
    "oracle.modules.dim",
    "oracle.modules.nnz",
    "oracle.gl11.total_dim",
)

# the traced method names carry their class; metric names drop it
ALIASES = {"oracle.modules.check_brackets": "oracle.modules.MatrixModule.check_brackets"}


def summarize(record: dict, wall_s: float, stdout_bytes: int) -> dict:
    """Reduce one traced op's record to self times, calls and counts.

    ``wall_s`` (spawn to exit) and ``stdout_bytes`` are as the parent saw them.
    """
    spans = record["spans"]
    child_time = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    main_s = 0.0
    for (name, start, end, _parent), inner in zip(spans, child_time):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
        calls[name] = calls.get(name, 0) + 1
        if name == "cli.main":
            main_s += end - start
    return {
        "self_s": self_s,
        "calls": calls,
        "counts": record["counts"],
        "import_s": record["import_s"],
        "stdout_bytes": stdout_bytes,
        "uncovered_s": wall_s - record["import_s"] - main_s,
    }


def aggregate(summaries: list[dict], names: list[str]) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics ``names``, and the base of each ratio, from op summaries.

    ``trace.overhead`` needs the untraced ops too, so the caller adds it.
    """
    n = len(summaries)

    def total(field: str, key: str | None = None) -> float:
        if key is None:
            return sum(s[field] for s in summaries)
        return sum(s[field].get(key, 0) for s in summaries)

    self_s = {name: total("self_s", name) for name in LAYER_OF}
    metrics: dict[str, float] = {}
    for name in names:
        prefix, _, field = name.rpartition(".")
        span = ALIASES.get(prefix, prefix)
        if name == "cli.self_s":
            value = self_s["cli.main"]
        elif field == "self_s" and span in LAYERS:
            value = sum(t for s, t in self_s.items() if LAYER_OF[s] == span)
        elif field == "self_s":
            value = self_s[span]
        elif field == "calls":
            value = total("calls", span)
        elif name in COUNTS:
            value = total("counts", name)
        else:
            continue
        metrics[name] = value / n
    metrics["cli.import_s"] = total("import_s") / n
    metrics["cli.stdout_bytes"] = total("stdout_bytes") / n
    metrics["trace.uncovered_s"] = total("uncovered_s") / n

    enum_s = self_s["polytope.enumerate_lattice_points"]
    points = total("counts", "polytope.points")
    metrics["polytope.points_per_s"] = points / enum_s if enum_s else 0.0
    dense = total("counts", "oracle.modules.dense_entries")
    nnz = total("counts", "oracle.modules.nnz")
    metrics["oracle.modules.density"] = nnz / dense if dense else 0.0
    bases = {
        "polytope.points_per_s": f"{points} points / {enum_s:.4f} s enumerate self time",
        "oracle.modules.density": f"{nnz} nonzeros / {dense} dense entries (units x dim^2)",
    }
    return metrics, bases
