"""Command-line front end: classify, invariants, ehrhart, resolve.

Exit codes: 0 success, 2 domain error, 64 usage error, 70 internal
check failure.  All numeric output is exact (integers, or rationals
rendered as strings); floating point appears only in growth-fit slope
fields, which are labeled as such.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .dimensions import projective_dim_bounds
from .errors import DomainError, FitError, GlsuperError, InternalCheckError, ResourceLimitError
from .invariants import ModuleKind, rank_orbit_closure_dim, variety_dims
from .oracle import (
    dual_kac_module,
    gl11_minimal_resolution,
    kac_module,
    kl_poly_gl11,
    measured_growth,
    rank_variety,
)
from .oracle.modules import KAC_MAX_COST, kac_cost
from .polytope import (
    ENUM_MAX_D,
    check_count_cost,
    count_lattice_points,
    eval_poly,
    fit_quasipolynomial,
    k1_degenerate_point,
    lower_bound_poly,
    polytope_denominator,
)
from .weights import (
    SuperParams,
    Weight,
    atypicality,
    is_dominant,
    length,
    naive_length,
    weight_to_json,
)

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70

# classify of 100,000 sampled gl(4|3) weights takes about 16 s and 0.6 GB
# peak RSS on 2 CPUs, inside a 60-s, 2-GiB budget even on a host twice slower
SAMPLE_MAX = 100_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_weight(params: SuperParams, text: str) -> Weight:
    try:
        coeffs = tuple(int(c) for c in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed weight {text!r}") from exc
    return Weight(params, coeffs)


def _gather_weights(params: SuperParams, args) -> list[Weight]:
    if args.sample > SAMPLE_MAX:
        raise ResourceLimitError(
            f"--sample {args.sample} exceeds SAMPLE_MAX = {SAMPLE_MAX} weights"
        )
    weights = [_parse_weight(params, text) for text in args.weight or []]
    if args.weights_file:
        with open(args.weights_file, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    weights.append(_parse_weight(params, line))
    if args.sample:
        rng = random.Random(args.seed)
        for _ in range(args.sample):
            left = sorted((rng.randint(-6, 6) for _ in range(params.m)), reverse=True)
            right = sorted((rng.randint(-6, 6) for _ in range(params.n)), reverse=True)
            weights.append(Weight(params, tuple(left + right)))
    if not weights:
        raise DomainError("no weights given; use --weight, --weights-file, or --sample")
    return weights


def _emit(payload, args) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        rows = payload if isinstance(payload, list) else [payload]
        keys = sorted({k for row in rows for k in row})
        print(",".join(keys))
        for row in rows:
            print(",".join(_csv_cell(row.get(k)) for k in keys))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value, sort_keys=True).replace(",", ";")
    return str(value)


def _classify_one(w: Weight) -> dict:
    if not is_dominant(w):
        raise DomainError(f"weight {w} is not dominant")
    desc = atypicality(w)
    bounds = projective_dim_bounds(w)
    return {
        "weight": weight_to_json(w),
        "dominant": True,
        "block": desc.to_json(),
        "naive_length": naive_length(w),
        "length": length(w),
        "weyl_dim_g0": bounds.lower,
        "projective_dim_bounds": [bounds.lower, bounds.upper],
    }


def cmd_classify(args) -> int:
    params = SuperParams(args.m, args.n)
    reports = [_classify_one(w) for w in _gather_weights(params, args)]
    _emit(reports if len(reports) > 1 else reports[0], args)
    return EXIT_OK


def _verify_report(kind: ModuleKind, w: Weight, report) -> list[dict]:
    checks: list[dict] = []
    params = w.params
    if kind in (ModuleKind.KAC, ModuleKind.DUAL_KAC):
        try:
            module = kac_module(w) if kind is ModuleKind.KAC else dual_kac_module(w)
        except ResourceLimitError as exc:
            return [{"name": "rank_variety", "skipped": str(exc)}]
        for side, expected in ((1, report.dim_rank_plus), (-1, report.dim_rank_minus)):
            measured = rank_variety(module, side)
            checks.append(
                {
                    "name": f"rank_variety_side_{side:+d}",
                    "formula": expected,
                    "measured": measured,
                    "orbit_dim": rank_orbit_closure_dim(params, measured),
                    "agree": measured == expected,
                }
            )
    if params == SuperParams(1, 1) and w.coeffs[0] == -w.coeffs[1]:
        target = "kac" if kind in (ModuleKind.KAC, ModuleKind.DUAL_KAC) else "simple"
        trace = gl11_minimal_resolution(target, w.coeffs[0], 12)
        fit = measured_growth(trace, "dimP")
        zfit = measured_growth(trace, "unit")
        checks.append(
            {
                "name": "measured_complexity",
                "formula": report.complexity,
                "measured": fit.rate,
                "slope_float": fit.slope,
                "agree": fit.rate == report.complexity,
            }
        )
        checks.append(
            {
                "name": "measured_z_invariant",
                "formula": report.z_invariant,
                "measured": zfit.rate,
                "slope_float": zfit.slope,
                "agree": zfit.rate == report.z_invariant,
            }
        )
    if not checks:
        checks.append({"name": "oracle", "skipped": "no oracle at this scale"})
    return checks


def _check_verify_cost(kind: ModuleKind, weights: list[Weight]) -> None:
    """Refuse --verify before any module is built if the (dual) Kac modules
    it would build cost more in total than one module may; the modules the
    per-module guard skips are not built and do not count."""
    if kind not in (ModuleKind.KAC, ModuleKind.DUAL_KAC):
        return
    costs = [kac_cost(w)[1] for w in weights if is_dominant(w)]
    built = [cost for cost in costs if cost <= KAC_MAX_COST]
    if sum(built) > KAC_MAX_COST:
        raise ResourceLimitError(
            f"--verify would build {len(built)} modules at a predicted total cost of "
            f"{sum(built)}, over the bound KAC_MAX_COST = {KAC_MAX_COST}"
        )


def cmd_invariants(args) -> int:
    params = SuperParams(args.m, args.n)
    kind = ModuleKind(args.kind)
    weights = _gather_weights(params, args)
    if args.verify:
        _check_verify_cost(kind, weights)
    out = []
    for w in weights:
        if not is_dominant(w):
            raise DomainError(f"weight {w} is not dominant")
        report = variety_dims(kind, w)
        entry = {"kind": kind.value, "weight": weight_to_json(w), **report.to_json()}
        if args.verify:
            entry["checks"] = _verify_report(kind, w, report)
        out.append(entry)
    _emit(out if len(out) > 1 else out[0], args)
    return EXIT_OK


def cmd_ehrhart(args) -> int:
    k = args.k
    if k == 1:
        payload = {"k": 1, "degenerate_point": list(k1_degenerate_point())}
        _emit(payload, args)
        return EXIT_OK
    dmin, dmax = args.dmin, args.dmax
    if dmin < 1 or dmax < dmin:
        raise DomainError("need 1 <= dmin <= dmax")
    truncated = None
    if dmax > ENUM_MAX_D:
        truncated = f"table truncated at d={ENUM_MAX_D} (resource bound)"
        dmax = ENUM_MAX_D
    table = range(dmin, dmax + 1)
    # rejects k before vertices(k) runs, and a table too costly to count
    check_count_cost(k, table)
    # the fit tries every period up to the vertex-denominator lcm and needs
    # 2k samples per residue class plus a holdout, so counts up to fit_max
    period_bound = polytope_denominator(k)
    fit_max = (2 * k + 1) * period_bound
    fit_ds = range(1, fit_max + 1) if fit_max <= ENUM_MAX_D else range(0)
    ds = sorted({*table, *fit_ds})
    check_count_cost(k, ds)
    counts = {d: count_lattice_points(k, d) for d in ds}
    quasi = None
    bound = None
    fit_error = None
    if not fit_ds:
        fit_error = (
            f"the fit needs counts up to d={fit_max} ({2 * k + 1} x the period "
            f"bound {period_bound}), beyond the count bound d<={ENUM_MAX_D}"
        )
    else:
        try:
            quasi = fit_quasipolynomial(counts, k)
            bound = lower_bound_poly(quasi)
        except FitError as exc:
            fit_error = str(exc)
    rows = []
    for d in table:
        row = {"d": d, "count": counts[d]}
        if bound is not None:
            qd = eval_poly(bound, d)
            row["Q"] = str(qd)
            row["count_ge_Q"] = counts[d] >= qd
        rows.append(row)
    if args.format == "csv":
        print("d,count,Q,count_ge_Q")
        for row in rows:
            print(f"{row['d']},{row['count']},{row.get('Q', '')},{row.get('count_ge_Q', '')}")
        if truncated:
            print(f"WARNING,{truncated},,")
        return EXIT_OK
    payload = {
        "k": k,
        "rows": rows,
        "quasipolynomial": quasi.to_json() if quasi else None,
        "lower_bound_poly": [str(c) for c in bound] if bound else None,
        "fit_error": fit_error,
        "warning": truncated,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_resolve(args) -> int:
    from .oracle.gl11 import MAX_DEPTH

    if not 0 <= args.depth <= MAX_DEPTH:
        raise argparse.ArgumentTypeError(f"--depth must lie in 0..{MAX_DEPTH}")
    # the KL table pairs lam = -W with mu = W, and kl_poly_gl11 refuses a
    # separation beyond MAX_DEPTH; refuse it here, before the resolution runs
    if args.kl_window is not None and 2 * args.kl_window > MAX_DEPTH:
        raise ResourceLimitError(
            f"--kl-window {args.kl_window} needs pair separation {2 * args.kl_window}, "
            f"beyond resolution depth {MAX_DEPTH}"
        )
    lam = args.weight
    trace = gl11_minimal_resolution(args.target, lam, args.depth)
    fit = measured_growth(trace, "dimP")
    zfit = measured_growth(trace, "unit")
    w = Weight(SuperParams(1, 1), (lam, -lam))
    kind = ModuleKind.KAC if args.target == "kac" else ModuleKind.SIMPLE
    report = variety_dims(kind, w)
    payload = {
        "target": trace.target,
        "depth": trace.depth,
        "degrees": trace.to_json(),
        "measured_complexity": fit.rate,
        "complexity_slope_float": fit.slope,
        "formula_complexity": report.complexity,
        "complexity_agree": fit.rate == report.complexity,
        "measured_z": zfit.rate,
        "z_slope_float": zfit.slope,
        "formula_z": report.z_invariant,
        "z_agree": zfit.rate == report.z_invariant,
    }
    if args.kl_window is not None:
        table = []
        win = args.kl_window
        for a in range(-win, win + 1):
            for b in range(-win, win + 1):
                poly = kl_poly_gl11(a, b)
                table.append(
                    {
                        "lam": a,
                        "mu": b,
                        "poly": poly,
                        "constant_term_1": bool(poly) and poly[0] == 1,
                    }
                )
        payload["kl_table"] = table
    if args.format == "csv":
        print("degree,summands,total_dim")
        for entry in trace.to_json():
            summands = ";".join(f"{s['weight']}:{s['multiplicity']}" for s in entry["summands"])
            print(f"{entry['degree']},{summands},{entry['total_dim']}")
        print(f"measured_complexity,{fit.rate},formula,{report.complexity}")
        print(f"measured_z,{zfit.rate},formula,{report.z_invariant}")
        return EXIT_OK
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, with_params: bool = True) -> None:
    if with_params:
        parser.add_argument("--m", type=int, required=True)
        parser.add_argument("--n", type=int, required=True)
        parser.add_argument("--weight", action="append", help="comma-separated coefficients")
        parser.add_argument("--weights-file", help="newline-delimited weight file")
        parser.add_argument("--sample", type=int, default=0, help="sample dominant weights")
        parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="glsuper", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="block data of dominant weights")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("invariants", help="complexity / variety report")
    _add_common(p)
    p.add_argument("--kind", choices=[k.value for k in ModuleKind], required=True)
    p.add_argument("--verify", action="store_true", help="run oracle cross-checks")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("ehrhart", help="lattice counts and quasipolynomial fit")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dmin", type=int, default=1)
    p.add_argument("--dmax", type=int, default=60)
    _add_common(p, with_params=False)
    p.set_defaults(func=cmd_ehrhart)

    p = sub.add_parser("resolve", help="gl(1|1) minimal resolution and growth")
    p.add_argument("--target", choices=("kac", "simple"), required=True)
    p.add_argument("--weight", type=int, default=0, help="principal-block label")
    p.add_argument("--depth", type=int, default=15)
    p.add_argument("--kl-window", type=int, default=None)
    _add_common(p, with_params=False)
    p.set_defaults(func=cmd_resolve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        print(f"glsuper: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalCheckError as exc:
        print(f"glsuper: internal check failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (DomainError, ResourceLimitError, GlsuperError) as exc:
        print(f"glsuper: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
