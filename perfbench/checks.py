"""Output checks for benchmark ops; they run after the timed loop.

On the default seed every op's stdout must match, byte for byte, the digest
recorded from the seed commit (``digests.json``).  On any seed the output
must parse and pass its own checks, some against the package's slow oracles
(``atypicality_exhaustive``, ``brute_force_count``).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from functools import cache
from pathlib import Path

from workloads import DEFAULT_SEED, Op

DIGESTS = Path(__file__).with_name("digests.json")


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def load_digests(workload: str, seed: int) -> list[str] | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]


@cache
def _exhaustive_k(coeffs: tuple[int, ...]) -> int:
    from glsuper.weights import SuperParams, Weight, atypicality_exhaustive

    return atypicality_exhaustive(Weight(SuperParams(4, 3), coeffs))


@cache
def _brute_count(d: int) -> int:
    from glsuper.polytope import brute_force_count

    return brute_force_count(2, d)


def _check_blocks(op: Op, text: str) -> str | None:
    reports = json.loads(text)
    if not isinstance(reports, list):
        reports = [reports]
    if [tuple(r["weight"]["coeffs"]) for r in reports] != list(op.expect):
        return "reported weights differ from the input"
    for r in reports:
        if r["block"]["k"] != _exhaustive_k(tuple(r["weight"]["coeffs"])):
            return f"block.k != atypicality_exhaustive for {r['weight']['coeffs']}"
    return None


def _check_lattice(op: Op, text: str) -> str | None:
    dmin, dmax, fmt = op.expect
    if fmt == "json":
        payload = json.loads(text)
        if payload["fit_error"] is not None:
            return f"fit_error: {payload['fit_error']}"
        rows = [(r["d"], r["count"], r["count_ge_Q"] is True) for r in payload["rows"]]
    else:
        table = list(csv.reader(io.StringIO(text)))
        if table[0] != ["d", "count", "Q", "count_ge_Q"]:
            return "unexpected csv header"
        rows = [(int(r[0]), int(r[1]), r[3] == "True") for r in table[1:]]
    if [d for d, _, _ in rows] != list(range(dmin, dmax + 1)):
        return "rows do not cover the requested window"
    for d, count, ge_q in rows:
        if not ge_q:
            return f"count_ge_Q false at d={d}"
        if d <= 8 and count != _brute_count(d):
            return f"count at d={d} differs from brute_force_count"
    return None


def _check_modules(op: Op, text: str) -> str | None:
    kind, coeffs = op.expect
    payload = json.loads(text)
    if payload["kind"] != kind or tuple(payload["weight"]["coeffs"]) != coeffs:
        return "report is for another module"
    if not payload["checks"]:
        return "no oracle checks"
    for check in payload["checks"]:
        if check.get("agree") is not True:
            return f"check {check['name']} did not agree: {check}"
    return None


def _check_resolve(op: Op, text: str) -> str | None:
    _lam, depth, window = op.expect
    payload = json.loads(text)
    if payload["depth"] != depth or len(payload["degrees"]) != depth + 1:
        return "resolution has the wrong depth"
    if payload["complexity_agree"] is not True or payload["z_agree"] is not True:
        return "measured growth disagrees with the formula"
    if len(payload["kl_table"]) != (2 * window + 1) ** 2:
        return "KL table has the wrong size"
    return None


CHECKS = {
    "blocks": _check_blocks,
    "lattice": _check_lattice,
    "modules": _check_modules,
    "resolve": _check_resolve,
}


def check_output(workload: str, op: Op, stdout: bytes, digests: list[str] | None) -> str | None:
    """None when the output is right, else the reason it is wrong."""
    if digests is not None and digest(stdout) != digests[op.index]:
        return "stdout differs from the recorded default-seed output"
    try:
        return CHECKS[workload](op, stdout.decode("utf-8"))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {exc!r}"
