"""Command-line front end: classify, invariants, ehrhart, resolve.

Exit codes: 0 success, 2 domain error, 64 usage error, 70 internal
check failure.  All numeric output is exact (integers, or rationals
rendered as strings); floating point appears only in growth-fit slope
fields, which are labeled as such.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import re
import sys
from json.encoder import encode_basestring_ascii

from . import dimensions, polytope, weights
from .errors import DomainError, FitError, GlsuperError, InternalCheckError, ResourceLimitError, is_int
from .invariants import ModuleKind, rank_orbit_closure_dim, variety_dims
from .oracle import gl11, modules

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70

# classify of 100,000 sampled gl(4|3) weights takes about 6 s and 0.26 GB
# peak RSS on 2 CPUs, inside a 60-s, 2-GiB budget even on a host twice slower
SAMPLE_MAX = 100_000
# sampled weights have entries in -SAMPLE_BOUND..SAMPLE_BOUND
SAMPLE_BOUND = 6


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a comma-separated integer list such as the weight -1,1 is a value, as
        # argparse already takes -2 or -.5 to be
        self._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$|^-\d*\.\d+$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_weight(params: weights.SuperParams, text: str, where: str = "") -> weights.Weight:
    """A weight that is not params.rank integers is a usage error; where, if
    given, says where it was read ("path:lineno: ")."""
    try:
        coeffs = tuple(int(c) for c in text.split(","))
    except ValueError:
        coeffs = ()
    if len(coeffs) != params.rank:
        raise argparse.ArgumentTypeError(
            f"{where}malformed weight {text!r}: expected {params.rank} comma-separated integers"
        )
    return weights.Weight(params, coeffs)


def _gather_weights(params: weights.SuperParams, args, weyl: bool = False) -> list[weights.Weight]:
    """The weights to report on; with weyl, the Weyl formulas they will run
    are guarded before any weight is sampled."""
    if args.sample < 0:
        raise argparse.ArgumentTypeError(f"--sample must not be negative, got {args.sample}")
    if args.sample > SAMPLE_MAX:
        raise ResourceLimitError(
            f"--sample {args.sample} exceeds SAMPLE_MAX = {SAMPLE_MAX} weights"
        )
    lams = [_parse_weight(params, text) for text in args.weight or []]
    lines: list[tuple[int, str]] = []
    path = args.weights_file
    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                # read up to the first weight over SAMPLE_MAX, and parse none before the count
                numbered = ((lineno, line.strip()) for lineno, line in enumerate(handle, 1) if line.strip())
                lines = list(itertools.islice(numbered, max(SAMPLE_MAX + 1 - args.sample - len(lams), 0)))
        except OSError as exc:
            raise argparse.ArgumentTypeError(f"cannot read --weights-file {path}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise argparse.ArgumentTypeError(f"--weights-file {path} is not UTF-8: {exc.reason}") from exc
    if len(lams) + len(lines) + args.sample > SAMPLE_MAX:
        raise ResourceLimitError(
            f"--weight, --weights-file and --sample give more than SAMPLE_MAX = {SAMPLE_MAX} weights"
        )
    lams += [_parse_weight(params, line, f"{path}:{lineno}: ") for lineno, line in lines]
    if weyl:
        # no sampled weight spreads wider than this one on either side
        widest = weights.Weight(params, tuple(
            SAMPLE_BOUND if i in (0, params.m) else -SAMPLE_BOUND for i in range(params.rank)
        ))
        dimensions.check_weyl_work(
            sum(map(dimensions.weyl_work, lams)) + args.sample * dimensions.weyl_work(widest)
        )
    if args.sample:
        rng = random.Random(args.seed)
        lo, hi = -SAMPLE_BOUND, SAMPLE_BOUND
        for _ in range(args.sample):
            left = sorted((rng.randint(lo, hi) for _ in range(params.m)), reverse=True)
            right = sorted((rng.randint(lo, hi) for _ in range(params.n)), reverse=True)
            lams.append(weights.Weight(params, tuple(left + right)))
    if not lams:
        raise DomainError("no weights given; use --weight, --weights-file, or --sample")
    return lams


def _emit(payload, args) -> str:
    if args.format == "json":
        return _json(payload, "\n") + "\n"
    rows = payload if isinstance(payload, list) else [payload]
    return "\n".join(_csv(sorted({k for row in rows for k in row}), rows)) + "\n"


def _json(value, indent: str) -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it; indent is
    the line break and indentation of value's last line.

    Each container is joined once from its children's strings, so writing it
    holds those and the result, not the pure-Python encoder's chunk list.
    """
    if isinstance(value, (dict, list, tuple)) and value:
        inner = indent + "  "
        if isinstance(value, dict):
            parts = ["{"]
            for key, item in sorted(value.items()):
                parts += (inner, encode_basestring_ascii(key), ": ", _json(item, inner), ",")
            parts[-1] = indent + "}"
        else:
            parts = ["["]
            for item in value:
                parts += (inner, _json(item, inner), ",")
            parts[-1] = indent + "]"
        return "".join(parts)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    # int.__repr__ raises the ValueError of an int too long to print, as json does
    return int.__repr__(value) if is_int(value) else json.dumps(value)


def _csv(keys, rows) -> list[str]:
    """CSV lines: the keys, then each row's cells under them (empty where the
    row lacks a key); with no rows, one line of the cells given as keys."""
    return [",".join(map(_csv_cell, keys))] + [
        ",".join(_csv_cell(row.get(k)) for k in keys) for row in rows
    ]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value, sort_keys=True).replace(",", ";")
    return str(value)


def _growth(trace, report) -> list[tuple]:
    """(name, measured growth fit, formula) of a gl(1|1) resolution for the
    complexity and the z-invariant, each named as its report field."""
    return [
        (name, gl11.measured_growth(trace, counter), getattr(report, name))
        for name, counter in (("complexity", "dimP"), ("z_invariant", "unit"))
    ]


def _classify_one(w: weights.Weight) -> dict:
    desc = weights.atypicality(w)
    bounds = dimensions.projective_dim_bounds(w)
    return {
        "weight": weights.weight_to_json(w),
        "dominant": True,
        "block": desc.to_json(),
        "naive_length": weights.naive_length(w),
        "length": weights.length(w, desc),
        "weyl_dim_g0": bounds.lower,
        "projective_dim_bounds": [bounds.lower, bounds.upper],
    }


def cmd_classify(args) -> str:
    params = weights.SuperParams(args.m, args.n)
    reports = [_classify_one(w) for w in _gather_weights(params, args, weyl=True)]
    return _emit(reports if len(reports) > 1 else reports[0], args)


def _verify_report(kind: ModuleKind, kac: bool, w: weights.Weight, report) -> list[dict]:
    """The --verify checks of one weight; kac says that kind is a (dual) Kac kind."""
    checks: list[dict] = []
    params = w.params
    if kac:
        try:
            module = modules.kac_module(w) if kind is ModuleKind.KAC else modules.dual_kac_module(w)
        except ResourceLimitError as exc:
            return [{"name": "rank_variety", "skipped": str(exc)}]
        checks = [
            {
                "name": f"rank_variety_side_{side:+d}",
                "formula": expected,
                "measured": (measured := modules.rank_variety(module, side)),
                "orbit_dim": rank_orbit_closure_dim(params, measured),
                "agree": measured == expected,
            }
            for side, expected in ((1, report.dim_rank_plus), (-1, report.dim_rank_minus))
        ]
    if params == weights.SuperParams(1, 1) and w.coeffs[0] == -w.coeffs[1]:
        trace = gl11.gl11_minimal_resolution("kac" if kac else "simple", w.coeffs[0], 12)
        checks += [
            {"name": f"measured_{name}", "formula": formula, "measured": fit.rate,
             "slope_float": fit.slope, "agree": fit.rate == formula}
            for name, fit, formula in _growth(trace, report)
        ]
    if not checks:
        checks.append({"name": "oracle", "skipped": "no oracle at this scale"})
    return checks


def _check_verify_cost(lams: list[weights.Weight]) -> None:
    """Refuse --verify of a (dual) Kac kind before any module is built if the
    modules it would build cost more in total than one module may; the modules
    the per-module guard skips are not built and do not count."""
    costs = [modules.kac_cost(w)[1] for w in lams if weights.is_dominant(w)]
    built = [cost for cost in costs if cost <= modules.KAC_MAX_COST]
    if sum(built) > modules.KAC_MAX_COST:
        raise ResourceLimitError(
            f"--verify would build {len(built)} modules at a predicted total cost of "
            f"{sum(built)}, over the bound KAC_MAX_COST = {modules.KAC_MAX_COST}"
        )


def cmd_invariants(args) -> str:
    params = weights.SuperParams(args.m, args.n)
    kind = ModuleKind(args.kind)
    # --verify builds (dual) Kac modules, and kac_cost runs the Weyl formula
    kac = kind in (ModuleKind.KAC, ModuleKind.DUAL_KAC)
    lams = _gather_weights(params, args, weyl=args.verify and kac)
    if args.verify and kac:
        _check_verify_cost(lams)
    out = []
    for w in lams:
        report = variety_dims(kind, w)
        entry = {"kind": kind.value, "weight": weights.weight_to_json(w), **report.to_json()}
        if args.verify:
            entry["checks"] = _verify_report(kind, kac, w, report)
        out.append(entry)
    return _emit(out if len(out) > 1 else out[0], args)


def cmd_ehrhart(args) -> str:
    k = args.k
    if k == 1:
        return _emit({"k": 1, "degenerate_point": list(polytope.k1_degenerate_point())}, args)
    dmin, dmax = args.dmin, args.dmax
    if dmin < 1 or dmax < dmin:
        raise DomainError("need 1 <= dmin <= dmax")
    if dmin > polytope.ENUM_MAX_D:
        raise ResourceLimitError(
            f"--dmin {dmin} leaves no row: counts stop at ENUM_MAX_D = {polytope.ENUM_MAX_D}"
        )
    truncated = None
    if dmax > polytope.ENUM_MAX_D:
        truncated = f"table truncated at d={polytope.ENUM_MAX_D} (resource bound)"
        dmax = polytope.ENUM_MAX_D
    table = range(dmin, dmax + 1)
    # rejects k before vertices(k) runs, and a table too costly to count
    polytope.check_count_cost(k, table)
    # the fit tries every period up to the vertex-denominator lcm and needs
    # 2k samples per residue class plus a holdout, so counts up to fit_max
    period_bound = polytope.polytope_denominator(k)
    fit_max = (2 * k + 1) * period_bound
    fit_ds = range(1, fit_max + 1) if fit_max <= polytope.ENUM_MAX_D else range(0)
    ds = sorted({*table, *fit_ds})
    polytope.check_count_cost(k, ds)
    counts = {d: polytope.count_lattice_points(k, d) for d in ds}
    quasi = bound = fit_error = None
    if not fit_ds:
        fit_error = (
            f"the fit needs counts up to d={fit_max} ({2 * k + 1} x the period "
            f"bound {period_bound}), beyond the count bound d<={polytope.ENUM_MAX_D}"
        )
    else:
        try:
            quasi = polytope.fit_quasipolynomial(counts, k)
            bound = polytope.lower_bound_poly(quasi)
        except FitError as exc:
            fit_error = str(exc)
    rows = [{"d": d, "count": counts[d]} for d in table]
    if bound is not None:
        # Q(d) = N(d) / scale, N with integer coefficients, printed as str(Fraction) prints it
        scale = math.lcm(*(c.denominator for c in bound))
        numer = [c.numerator * (scale // c.denominator) for c in reversed(bound)]
        for row in rows:
            q = 0
            for c in numer:
                q = q * row["d"] + c
            g = math.gcd(q, scale)
            row |= {"Q": f"{q // g}" if g == scale else f"{q // g}/{scale // g}",
                    "count_ge_Q": row["count"] * scale >= q}
    if args.format == "csv":
        warning = [{"d": "WARNING", "count": truncated}] if truncated else []
        return "\n".join(_csv(("d", "count", "Q", "count_ge_Q"), rows + warning)) + "\n"
    payload = {
        "k": k,
        "rows": rows,
        "quasipolynomial": quasi.to_json() if quasi else None,
        "lower_bound_poly": [str(c) for c in bound] if bound else None,
        "fit_error": fit_error,
        "warning": truncated,
    }
    return _emit(payload, args)


def cmd_resolve(args) -> str:
    if not 0 <= args.depth <= gl11.MAX_DEPTH:
        raise argparse.ArgumentTypeError(f"--depth must lie in 0..{gl11.MAX_DEPTH}")
    win = args.kl_window
    if win is not None and win < 0:
        raise argparse.ArgumentTypeError(f"--kl-window must not be negative, got {win}")
    # the KL table pairs lam = -W with mu = W, and kl_poly_gl11 refuses a
    # separation beyond MAX_DEPTH; refuse it here, before the resolution runs
    if win is not None and 2 * win > gl11.MAX_DEPTH:
        raise ResourceLimitError(
            f"--kl-window {win} needs pair separation {2 * win}, beyond resolution depth {gl11.MAX_DEPTH}"
        )
    lam = args.weight
    trace = gl11.gl11_minimal_resolution(args.target, lam, args.depth)
    kind = ModuleKind.KAC if args.target == "kac" else ModuleKind.SIMPLE
    report = variety_dims(kind, weights.Weight(weights.SuperParams(1, 1), (lam, -lam)))
    # resolve's keys shorten z_invariant to z
    growth = [
        (name.removesuffix("_invariant"), fit, formula) for name, fit, formula in _growth(trace, report)
    ]
    payload = {"target": trace.target, "depth": trace.depth, "degrees": trace.to_json()}
    for name, fit, formula in growth:
        payload |= {f"measured_{name}": fit.rate, f"{name}_slope_float": fit.slope,
                    f"formula_{name}": formula, f"{name}_agree": fit.rate == formula}
    if win is not None:
        payload["kl_table"] = [
            {"lam": a, "mu": b, "poly": (poly := gl11.kl_poly_gl11(a, b)),
             "constant_term_1": bool(poly) and poly[0] == 1}
            for a in range(-win, win + 1) for b in range(-win, win + 1)
        ]
    if args.format == "json":
        return _emit(payload, args)
    lines = _csv(("degree", "summands", "total_dim"), [
        {**entry, "summands": ";".join(f"{s['weight']}:{s['multiplicity']}" for s in entry["summands"])}
        for entry in payload["degrees"]
    ])
    for name, fit, formula in growth:
        lines += _csv((f"measured_{name}", fit.rate, "formula", formula), ())
    if win is not None:
        lines += _csv(("lam", "mu", "poly", "constant_term_1"), payload["kl_table"])
    return "\n".join(lines) + "\n"


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


def _stdout(args) -> str:
    """The subcommand's whole stdout, built before any of it is printed."""
    try:
        return args.func(args)
    except ValueError as exc:
        # str() of an int longer than the interpreter's limit; a library
        # error is a ValueError too, and keeps its own message
        if isinstance(exc, GlsuperError) or "integer string conversion" not in str(exc):
            raise
        raise ResourceLimitError(
            "a number to print has more digits than "
            f"sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()}"
        ) from exc


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = _stdout(args)
    except argparse.ArgumentTypeError as exc:
        print(f"glsuper: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalCheckError as exc:
        print(f"glsuper: internal check failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except GlsuperError as exc:
        print(f"glsuper: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
