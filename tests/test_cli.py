import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glsuper.cli
from glsuper import dimensions, polytope, weights
from glsuper.cli import main
from glsuper.dimensions import cauchy_symmetric_decomposition
from glsuper.errors import InternalCheckError, ResourceLimitError
from glsuper.oracle import gl11, modules
from glsuper.oracle.gl11 import gl11_minimal_resolution, kl_poly_gl11
from glsuper.oracle.gt import gl_simple, gt_patterns
from glsuper.polytope import count_lattice_points, enumerate_lattice_points
from glsuper.weights import SuperParams, Weight, weight_from_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_json_schema(capsys):
    code, out, _ = run(capsys, "classify", "--m", "2", "--n", "1", "--weight", "0,0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["block"] == {"k": 1, "core_left": [2], "core_right": [], "omega": [[2, 3]]}
    assert payload["length"] == 0 and payload["naive_length"] == 0
    # round-trip through the documented weight schema
    assert weight_from_json(payload["weight"]) == Weight(SuperParams(2, 1), (0, 0, 0))


NON_DOMINANT = ["--m", "2", "--n", "1", "--weight", "0,1,0"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", *NON_DOMINANT], "weight (0,1|0) is not dominant"),
        (["invariants", "--kind", "simple", *NON_DOMINANT], "weight (0,1|0) is not dominant"),
        (["invariants", "--kind", "kac", "--verify", *NON_DOMINANT], "weight (0,1|0) is not dominant"),
        (["ehrhart", "--k", "2", "--dmin", "5", "--dmax", "3"], "need 1 <= dmin <= dmax"),
        (["classify", "--m", "2", "--n", "1"], "no weights given; use --weight, --weights-file, or --sample"),
    ],
    ids=["classify", "invariants-simple", "invariants-kac-verify", "ehrhart-dmin-over-dmax", "classify-no-weights"],
)
def test_classify_non_dominant_exits_2(capsys, argv, message):
    # a domain error exits 2 with the library's own message; for a weight that
    # is not dominant, from the first call that needs dominance
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"glsuper: {message}\n"


@pytest.mark.parametrize(
    "argv, weight",
    [
        (["invariants", "--m", "1", "--n", "1", "--kind", "kac", "--verify"], "-1,1"),
        (["classify", "--m", "2", "--n", "1"], "-1,-2,3"),
        (["resolve", "--target", "kac", "--depth", "3"], "-2"),
    ],
)
def test_negative_weight_is_a_value(capsys, argv, weight):
    # argparse takes "-1,1" for an option unless the parser reads it as a value
    code, out, err = run(capsys, *argv, "--weight", weight)
    assert (code, err) == (0, "") and out
    assert run(capsys, *argv, f"--weight={weight}") == (code, out, err)


def test_classify_malformed_weight_exits_64(capsys):
    code, _, err = run(capsys, "classify", "--m", "2", "--n", "1", "--weight", "zzz")
    assert code == 64


@pytest.mark.parametrize("command", ["classify", "invariants"])
@pytest.mark.parametrize("text", ["0,0", "0,0,0,0", "0,0,x"])
def test_bad_weight_is_a_usage_error(capsys, tmp_path, command, text):
    # a weight of the wrong length is as much a usage error as a malformed
    # one, from --weight or from a --weights-file line, which is named
    extra = ["--kind", "kac"] if command == "invariants" else []
    message = f"malformed weight {text!r}: expected 3 comma-separated integers\n"
    code, out, err = run(capsys, command, "--m", "2", "--n", "1", "--weight", text, *extra)
    assert code == 64 and out == ""
    assert err == f"glsuper: {message}"
    manifest = tmp_path / "weights.txt"
    manifest.write_text(f"0,0,0\n\n{text}\n")
    code, out, err = run(capsys, command, "--m", "2", "--n", "1", "--weights-file", str(manifest), *extra)
    assert code == 64 and out == ""
    assert err == f"glsuper: {manifest}:3: {message}"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--m", "2"])  # missing --n
    assert exc.value.code == 64


def test_classify_sampling_deterministic(capsys):
    args = ("classify", "--m", "2", "--n", "2", "--sample", "3", "--seed", "11")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_classify_computes_each_block_descriptor_once(capsys, monkeypatch):
    original = weights.atypicality
    calls = []

    def counted(lam):
        calls.append(lam)
        return original(lam)

    args = ("classify", "--m", "4", "--n", "3", "--sample", "6", "--seed", "3")
    _, expected, _ = run(capsys, *args)
    # the CLI reads weights.atypicality at call time
    monkeypatch.setattr(weights, "atypicality", counted)
    code, out, _ = run(capsys, *args)
    assert code == 0 and out == expected
    assert len(calls) == 6


def count_gt_patterns(row: tuple[int, ...]) -> int:
    """The patterns over a top row, counted one interlacing row at a time.

    gt_patterns refuses tops above GT_MAX_DIM, and seed 5 below samples a
    gl(4) top of dimension 10,164.
    """
    if len(row) < 2:
        return 1
    lower_rows = itertools.product(*(range(low, high + 1) for high, low in zip(row, row[1:])))
    return sum(map(count_gt_patterns, lower_rows))


def test_classify_rows_match_gt_pattern_counts(capsys):
    m, n = 4, 3
    args = ("classify", "--m", str(m), "--n", str(n), "--sample", "40", "--seed", "5")
    code, out, _ = run(capsys, *args)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 40
    for row in rows:
        coeffs = tuple(row["weight"]["coeffs"])
        dim = count_gt_patterns(coeffs[:m]) * count_gt_patterns(coeffs[m:])
        assert row["weyl_dim_g0"] == dim
        assert row["projective_dim_bounds"] == [dim, 2 ** (2 * m * n) * dim]
    for fmt in ("json", "csv"):
        _, first, _ = run(capsys, *args, "--format", fmt)
        _, second, _ = run(capsys, *args, "--format", fmt)
        assert first == second
    assert first.splitlines()[0].split(",") == sorted(rows[0])


class _Refused(Exception):
    pass


def _refuse(*_args):
    raise _Refused


def test_classify_sample_guard_fires_before_sampling(capsys, monkeypatch):
    monkeypatch.setattr(glsuper.cli, "_classify_one", _refuse)
    monkeypatch.setattr(glsuper.cli.random, "Random", _refuse)
    code, out, err = run(capsys, "classify", "--m", "4", "--n", "3", "--sample", str(10**12))
    assert code == 2 and out == ""
    assert f"--sample {10**12} exceeds SAMPLE_MAX = {glsuper.cli.SAMPLE_MAX}" in err
    # the bound itself is admitted: sampling starts, and hits the patched generator
    with pytest.raises(_Refused):
        main(["classify", "--m", "4", "--n", "3", "--sample", str(glsuper.cli.SAMPLE_MAX)])


def test_every_weight_counts_against_sample_max(capsys, monkeypatch, tmp_path):
    # weights from --weight and --weights-file count with --sample; a file of
    # SAMPLE_MAX + 1 weights is refused before any weight is parsed or classified
    monkeypatch.setattr(glsuper.cli, "_classify_one", _refuse)
    monkeypatch.setattr(glsuper.cli.random, "Random", _refuse)
    bound = glsuper.cli.SAMPLE_MAX
    message = f"glsuper: --weight, --weights-file and --sample give more than SAMPLE_MAX = {bound} weights\n"
    params = ["classify", "--m", "4", "--n", "3"]
    manifest = tmp_path / "weights.txt"
    manifest.write_text("3,2,1,0,0,-1,-2\n\n" * (bound + 1))
    start = time.perf_counter()
    assert run(capsys, *params, "--weights-file", str(manifest)) == (2, "", message)
    assert time.perf_counter() - start < 1
    one, two = ["--weight", "0,0,0,0,0,0,0"], ["--weight", "0,0,0,0,0,0,0"] * 2
    manifest.write_text("0,0,0,0,0,0,0\n")
    for extra in (two, [*one, "--weights-file", str(manifest)]):
        assert run(capsys, *params, *extra, "--sample", str(bound - 1)) == (2, "", message)
    # the bound itself is admitted: sampling starts, and hits the patched generator
    for extra in (one, ["--weights-file", str(manifest)]):
        with pytest.raises(_Refused):
            main([*params, *extra, "--sample", str(bound - 1)])


HUGE = ",".join(str(10**4000 * (20 - i)) for i in range(20))


@pytest.mark.parametrize(
    "argv, work",
    [
        (["classify", "--m", "1000", "--n", "1", "--sample", "1"], 159680160000000),
        (["classify", "--m", "20", "--n", "1", f"--weight={HUGE},0"], 6378049230400),
        (["invariants", "--m", "700", "--n", "1", "--kind", "kac", "--verify", "--sample", "1"],
         38306318400000),
        (["invariants", "--m", "700", "--n", "1", "--kind", "dualkac", "--verify", "--sample", "1"],
         38306318400000),
    ],
    ids=["classify-sample", "classify-weight", "verify-kac", "verify-dualkac"],
)
def test_weyl_work_guard_fires_before_sampling_and_weyl(capsys, monkeypatch, argv, work):
    monkeypatch.setattr(glsuper.cli.random, "Random", _refuse)
    monkeypatch.setattr(dimensions, "weyl_dim_gl", _refuse)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert f"would take {work} predicted steps" in err
    assert f"WEYL_MAX_WORK = {dimensions.WEYL_MAX_WORK}" in err


def test_weyl_work_guard_admits_what_verify_without_kac_skips(capsys, monkeypatch):
    # invariants runs no Weyl formula unless --verify builds (dual) Kac modules
    argv = ["invariants", "--m", "700", "--n", "1", "--sample", "1", "--kind"]
    assert run(capsys, *argv, "kac")[0] == 0
    assert run(capsys, *argv, "simple", "--verify")[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--m", "200", "--n", "1", "--weight=" + ",".join(map(str, range(199, -1, -1))) + ",0"],
        ["resolve", "--target", "kac", "--depth", "1", f"--weight={10**4300 - 1}"],
        ["resolve", "--target", "kac", "--depth", "1", f"--weight={10**4300 - 1}", "--format", "csv"],
    ],
    ids=["classify", "resolve-json", "resolve-csv"],
)
def test_a_number_too_long_to_print_is_refused(capsys, argv):
    # the Weyl dimension has about 6,000 digits; lam + 1 has 4,301
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert f"more digits than sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()}" in err


@pytest.mark.parametrize("command", ["classify", "invariants"])
def test_negative_sample_is_a_usage_error(capsys, monkeypatch, command):
    monkeypatch.setattr(glsuper.cli, "_classify_one", _refuse)
    monkeypatch.setattr(glsuper.cli, "variety_dims", _refuse)
    monkeypatch.setattr(glsuper.cli.random, "Random", _refuse)
    extra = ["--kind", "kac"] if command == "invariants" else []
    argv = [command, "--m", "2", "--n", "1", "--weight", "0,0,0", "--sample", "-3", *extra]
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert "--sample must not be negative, got -3" in err


def test_classify_weights_file(capsys, tmp_path):
    manifest = tmp_path / "grid.txt"
    manifest.write_text("0,0,0\n3,1,-1\n")
    code, out, _ = run(
        capsys, "classify", "--m", "2", "--n", "1", "--weights-file", str(manifest)
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 2
    assert payload[1]["weight"]["coeffs"] == [3, 1, -1]


def _missing(tmp_path):
    return tmp_path / "missing.txt", "No such file or directory"


def _empty_path(tmp_path):
    return "", "No such file or directory"


def _directory(tmp_path):
    return tmp_path, "Is a directory"


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"0,0,0\n\xff,0,0\n")
    return path, "is not UTF-8"


@pytest.mark.parametrize("command", ["classify", "invariants"])
@pytest.mark.parametrize("make_file", [_missing, _empty_path, _directory, _not_utf8])
def test_unreadable_weights_file_is_a_usage_error(capsys, tmp_path, command, make_file):
    path, reason = make_file(tmp_path)
    extra = ["--kind", "kac"] if command == "invariants" else []
    code, out, err = run(capsys, command, "--m", "2", "--n", "1", "--weights-file", str(path), *extra)
    assert code == 64 and out == ""
    assert err.count("\n") == 1
    assert str(path) in err and reason in err


def test_ehrhart_truncation_warning(capsys):
    code, out, _ = run(
        capsys, "ehrhart", "--k", "2", "--dmin", "199", "--dmax", "10000", "--format", "csv"
    )
    assert code == 0
    assert "WARNING" in out and "truncated" in out


def test_invariants_verify_agreement(capsys):
    code, out, _ = run(
        capsys,
        "invariants", "--m", "2", "--n", "1", "--kind", "kac", "--weight", "0,0,0", "--verify",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["complexity"] == 2 and payload["dim_X"] == 2 and payload["dim_V_g_g0"] == 0
    checks = {c["name"]: c for c in payload["checks"]}
    assert checks["rank_variety_side_+1"]["agree"] is True
    assert checks["rank_variety_side_+1"]["orbit_dim"] == 2
    assert checks["rank_variety_side_-1"]["measured"] == 0


def test_invariants_verify_total_cost_guard(capsys, monkeypatch, tmp_path):
    # two gl(4|3) K(0), each admitted alone (1,404,928 predicted steps), are
    # refused together before either module is built
    monkeypatch.setattr(modules, "kac_module", _refuse)
    monkeypatch.setattr(modules, "dual_kac_module", _refuse)
    manifest = tmp_path / "twice.txt"
    manifest.write_text("0,0,0,0,0,0,0\n" * 2)
    for kind in ("kac", "dualkac"):
        code, out, err = run(
            capsys, "invariants", "--m", "4", "--n", "3", "--kind", kind, "--verify",
            "--weights-file", str(manifest),
        )
        assert code == 2 and out == ""
        assert "would build 2 modules at a predicted total cost of 2809856" in err
        assert f"KAC_MAX_COST = {modules.KAC_MAX_COST}" in err


def test_invariants_verify_total_cost_skips_refused_modules(capsys):
    # gl(2|2) K(20,0|20,0) is over the per-module bound, so it is skipped and
    # does not count against the total; the small K(0) beside it is built
    code, out, _ = run(
        capsys, "invariants", "--m", "2", "--n", "2", "--kind", "kac", "--verify",
        "--weight", "20,0,20,0", "--weight", "0,0,0,0",
    )
    assert code == 0
    first, second = json.loads(out)
    assert "predicted cost 4064256 exceeds" in first["checks"][0]["skipped"]
    assert all("agree" in check for check in second["checks"])


def test_internal_check_failure_exits_70(capsys, monkeypatch):
    def broken(_w):
        raise InternalCheckError("bracket relation fails for (1, 2), (2, 1)")

    monkeypatch.setattr(modules, "kac_module", broken)
    code, _, err = run(
        capsys, "invariants", "--m", "2", "--n", "1", "--kind", "kac", "--weight", "0,0,0", "--verify"
    )
    assert code == 70
    assert "internal check failure: bracket relation fails" in err


def test_invariants_simple_gl11_verify(capsys):
    code, out, _ = run(
        capsys,
        "invariants", "--m", "1", "--n", "1", "--kind", "simple", "--weight", "3,-3", "--verify",
    )
    payload = json.loads(out)
    assert payload["complexity"] == 2 and payload["z_invariant"] == 2
    checks = {c["name"]: c for c in payload["checks"]}
    assert checks["measured_complexity"]["agree"] is True
    assert checks["measured_z_invariant"]["agree"] is True


def test_invariants_typical_all_zero(capsys):
    _, out, _ = run(capsys, "invariants", "--m", "2", "--n", "1", "--kind", "simple", "--weight", "4,4,0")
    payload = json.loads(out)
    assert all(payload[k] == 0 for k in (
        "complexity", "z_invariant", "dim_X", "dim_V_g_g0", "dim_V_f_f0",
        "dim_rank_plus", "dim_rank_minus",
    ))


def test_ehrhart_k1(capsys):
    code, out, _ = run(capsys, "ehrhart", "--k", "1")
    assert code == 0
    assert json.loads(out)["degenerate_point"] == [-1, -1]


def test_ehrhart_k3_reports_infeasible_fit(capsys):
    code, out, _ = run(capsys, "ehrhart", "--k", "3", "--dmax", "40")
    assert code == 0
    payload = json.loads(out)
    assert "d=3780" in payload["fit_error"] and "d<=200" in payload["fit_error"]
    assert payload["quasipolynomial"] is None and payload["lower_bound_poly"] is None
    assert [row["d"] for row in payload["rows"]] == list(range(1, 41))
    for row in payload["rows"]:
        assert row == {"d": row["d"], "count": len(enumerate_lattice_points(3, row["d"]))}


# sha256 of stdout: the ehrhart k2/k3 tables recorded from the kernel that
# looped over every b coordinate, the classify and gl(3|2) invariants JSON from
# the CLI that wrote JSON with json.dumps, the rest from the CLI that wrote
# each CSV table and each measured-growth check by hand
STDOUT_SHA256 = {
    ("ehrhart", "--k", "2", "--dmax", "160"):
        "726aa9b3c0997286bc7ea3ebe6b18a8616eee925e94481c9b1e32e6653dbbc1f",
    ("ehrhart", "--k", "2", "--dmin", "3", "--dmax", "160", "--format", "csv"):
        "5e3a8e113b469d4558c480b215e12338a658f1ec6f3a3cb1ff5c5c83de1f6911",
    ("ehrhart", "--k", "3", "--dmax", "40"):
        "492108dc72e961b513d8718e6ac686f68455b6245011fcf8e49ae92072c9fb4b",
    ("ehrhart", "--k", "2", "--dmin", "195", "--dmax", "250", "--format", "csv"):
        "7277b1babfc75b32b9288e9f637b0d21924611c1ffc4db8beec0ca8c483dd73d",
    ("resolve", "--target", "kac", "--weight", "0", "--depth", "8", "--kl-window", "2"):
        "552d711d7fb2b96760fff08f7729bbdc1169e8a65710db789e1c360102b205ec",
    ("resolve", "--target", "simple", "--weight", "1", "--depth", "10", "--kl-window", "3",
     "--format", "csv"):
        "ad747dda40754fc8764228784197768d38a7f16652ef3edf1666c8fb840cfb5d",
    ("resolve", "--target", "kac", "--weight", "-2", "--depth", "12", "--format", "csv"):
        "b5624e3c58ad8c745d1eb2dc3cf5c9e4c51ad5e5f7e37861dd61ab4eb2cf04be",
    ("resolve", "--target", "simple", "--weight", "3", "--depth", "12"):
        "0f17d03ca23cd568a87895b4c2d77cd94c49759cceda25aed6a2984b82606df1",
    ("invariants", "--m", "1", "--n", "1", "--kind", "simple", "--weight", "3,-3", "--verify"):
        "379be4424539e11b74324a8d2074fc935c285fec3a6b9477371b82b1cfdf9e24",
    ("invariants", "--m", "1", "--n", "1", "--kind", "simple", "--weight", "3,-3", "--verify",
     "--format", "csv"):
        "919d1f18682312f9a67b0cbf57ce950232403e8fd0aadac031f8a2aa74e919b9",
    ("invariants", "--m", "1", "--n", "1", "--kind", "kac", "--weight", "2,-2", "--verify"):
        "2c9d45aeacfa371079ae4cf2e1988b16e1a3dec926b4dbc824e9f09620a2f6d1",
    ("invariants", "--m", "1", "--n", "1", "--kind", "kac", "--weight", "2,-2", "--verify",
     "--format", "csv"):
        "f3d4a9119d3b9d4ccf9266635edc0ebb5dbafb6e68fc38b43c771e5b71dcb86f",
    ("classify", "--m", "4", "--n", "3", "--sample", "50", "--seed", "3"):
        "5adbc76486051555507f451ed815288638548d84ad673372cf5a2000bc1c526f",
    ("invariants", "--m", "3", "--n", "2", "--kind", "kac", "--weight=1,0,0,0,0", "--verify"):
        "d66a2dd2b9806b1a956431212f044323be47dc2b071834ba5aeb51dc82dca75c",
}


@pytest.mark.parametrize(
    "argv,digest",
    STDOUT_SHA256.items(),
    ids=[
        "ehrhart-k2-json", "ehrhart-k2-csv", "ehrhart-k3-json", "ehrhart-truncated-csv",
        "resolve-kl-json", "resolve-kl-csv", "resolve-csv", "resolve-json",
        "invariants-gl11-simple-json", "invariants-gl11-simple-csv",
        "invariants-gl11-kac-json", "invariants-gl11-kac-csv",
        "classify-sample-json", "invariants-gl32-kac-json",
    ],
)
def test_stdout_matches_recorded_digest(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=-(10**60), max_value=10**60),
    st.floats(), st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]),
    # non-ASCII, surrogates and control characters all take \u escapes
    st.text(), st.text(st.characters(max_codepoint=0x20)),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner), st.lists(inner).map(tuple), st.dictionaries(st.text(), inner),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_stdout_matches_json_dumps(value):
    args = argparse.Namespace(format="json")
    assert glsuper.cli._emit(value, args) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_json_stdout_holds_little_more_than_itself():
    # json.dumps(indent=2) keeps every chunk, about 7.8 times the text, until it joins them
    params = SuperParams(4, 3)
    args = argparse.Namespace(weight=None, weights_file=None, sample=300, seed=5, format="json")
    reports = [glsuper.cli._classify_one(w) for w in glsuper.cli._gather_weights(params, args)]
    tracemalloc.start()
    try:
        text = glsuper.cli._emit(reports, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 150_000
    assert peak <= 2.5 * len(text), peak / len(text)


def test_ehrhart_q_rows_in_integers(capsys, monkeypatch):
    # Q(d) and count >= Q(d) come from one integer polynomial, not Fraction per row
    counts = {d: count_lattice_points(2, d) for d in range(1, 161)}
    bound = polytope.lower_bound_poly(polytope.fit_quasipolynomial(counts, 2))

    def by_fractions(*_args):
        raise AssertionError("evaluated Q(d) in Fraction arithmetic")

    monkeypatch.setattr(polytope, "eval_poly", by_fractions)
    code, out, _ = run(capsys, "ehrhart", "--k", "2", "--dmax", "160")
    assert code == 0
    for row in json.loads(out)["rows"]:
        q = sum(Fraction(c) * row["d"] ** j for j, c in enumerate(bound))
        assert row["Q"] == str(q) and row["count_ge_Q"] == (row["count"] >= q)
    assert any("/" in row["Q"] for row in json.loads(out)["rows"])


def test_ehrhart_cost_guard_fires_before_counting(capsys, monkeypatch):
    def counting(*_args):
        raise AssertionError("counted before the cost guard")

    monkeypatch.setattr(polytope, "count_lattice_points", counting)
    code, out, err = run(capsys, "ehrhart", "--k", "3", "--dmax", "200")
    assert code == 2 and out == ""
    assert "predicts 3513130 steps, over the bound 600000" in err


def test_ehrhart_refuses_a_table_past_the_count_bound(capsys, monkeypatch):
    def work(*_args):
        raise AssertionError("solved or counted before the guard")

    monkeypatch.setattr(polytope, "count_lattice_points", work)
    monkeypatch.setattr(polytope, "vertices", work)
    code, out, err = run(capsys, "ehrhart", "--k", "2", "--dmin", "300", "--dmax", "400")
    assert code == 2 and out == ""
    assert "--dmin 300 leaves no row: counts stop at ENUM_MAX_D = 200" in err


def test_ehrhart_prints_the_row_at_the_count_bound(capsys):
    code, out, _ = run(capsys, "ehrhart", "--k", "2", "--dmin", "200", "--dmax", "250", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].startswith(f"200,{count_lattice_points(2, 200)},")


def test_ehrhart_csv_deterministic(capsys):
    args = ("ehrhart", "--k", "2", "--dmin", "3", "--dmax", "10", "--format", "csv")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "d,count,Q,count_ge_Q"
    first = lines[1].split(",")
    assert first[0] == "3" and first[1] == "1" and first[3] == "True"


def test_resolve_simple_agrees(capsys):
    code, out, _ = run(capsys, "resolve", "--target", "simple", "--weight", "0", "--depth", "15")
    assert code == 0
    payload = json.loads(out)
    assert payload["measured_complexity"] == 2 and payload["complexity_agree"] is True
    assert payload["measured_z"] == 2 and payload["z_agree"] is True
    assert payload["degrees"][3]["total_dim"] == 16


def test_resolve_kl_table(capsys):
    code, out, _ = run(
        capsys, "resolve", "--target", "kac", "--weight", "0", "--depth", "8", "--kl-window", "2",
    )
    payload = json.loads(out)
    assert payload["measured_complexity"] == 1 and payload["complexity_agree"] is True
    table = {(row["lam"], row["mu"]): row for row in payload["kl_table"]}
    assert table[(0, 2)]["poly"] == [1] and table[(0, 2)]["constant_term_1"] is True
    assert table[(2, 0)]["poly"] == [] and table[(2, 0)]["constant_term_1"] is False


def test_resolve_csv_prints_the_kl_table(capsys):
    args = ["resolve", "--target", "kac", "--weight", "0", "--depth", "4", "--kl-window", "2"]
    _, out, _ = run(capsys, *args)
    table = json.loads(out)["kl_table"]
    code, out, _ = run(capsys, *args, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    start = lines.index("lam,mu,poly,constant_term_1")
    assert lines[start - 2].startswith("measured_complexity,")
    assert lines[start - 1].startswith("measured_z,")
    assert lines[start + 1:] == [
        f"{row['lam']},{row['mu']},{json.dumps(row['poly']).replace(',', ';')},{row['constant_term_1']}"
        for row in table
    ]
    assert "0,2,[1],True" in lines and "2,0,[],False" in lines
    # without --kl-window the CSV ends at the measured_z line
    _, out, _ = run(capsys, *args[:-2], "--format", "csv")
    assert out.splitlines() == lines[:start]


def test_resolve_kl_window_guard_fires_before_resolving(capsys, monkeypatch):
    def resolving(*_args):
        raise AssertionError("resolved before the kl-window guard")

    monkeypatch.setattr(gl11, "gl11_minimal_resolution", resolving)
    code, out, err = run(
        capsys, "resolve", "--target", "simple", "--depth", "25", "--kl-window", "13"
    )
    assert code == 2 and out == ""
    assert "--kl-window 13 needs pair separation 26, beyond resolution depth 25" in err


def test_negative_kl_window_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(gl11, "gl11_minimal_resolution", _refuse)
    monkeypatch.setattr(gl11, "kl_poly_gl11", _refuse)
    code, out, err = run(
        capsys, "resolve", "--target", "simple", "--depth", "3", "--kl-window", "-2"
    )
    assert code == 64 and out == ""
    assert "--kl-window must not be negative, got -2" in err


def test_resolve_largest_kl_window_accepted(capsys):
    code, out, _ = run(capsys, "resolve", "--target", "kac", "--depth", "0", "--kl-window", "12")
    assert code == 0
    table = {(row["lam"], row["mu"]): row["poly"] for row in json.loads(out)["kl_table"]}
    assert len(table) == 25 * 25
    assert table[(-12, 12)] == [1] and table[(12, -12)] == []


def test_resolve_depth_guard(capsys):
    code, _, err = run(capsys, "resolve", "--target", "kac", "--weight", "0", "--depth", "40")
    assert code == 64
    assert "depth" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "glsuper", "ehrhart", "--k", "1"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(glsuper.__file__).parents[1])},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["degenerate_point"] == [-1, -1]


def sorted_weight(draw, m, n, lo, hi):
    left = sorted(draw(st.lists(st.integers(lo[0], hi[0]), min_size=m, max_size=m)), reverse=True)
    right = sorted(draw(st.lists(st.integers(lo[1], hi[1]), min_size=n, max_size=n)), reverse=True)
    return "--weight=" + ",".join(map(str, left + right))


@st.composite
def small_argv(draw):
    command = draw(st.sampled_from(["classify", "ehrhart", "resolve", "invariants"]))
    fmt = ["--format", draw(st.sampled_from(["json", "csv"]))]
    if command == "classify":
        m = draw(st.integers(1, 4))
        n = draw(st.integers(1, m))
        sample = ["--sample", str(draw(st.integers(1, 20))), "--seed", str(draw(st.integers(0, 99)))]
        return ["classify", "--m", str(m), "--n", str(n), *sample, *fmt]
    if command == "ehrhart":
        dmax = draw(st.integers(1, 40))
        return ["ehrhart", "--k", "2", "--dmin", str(draw(st.integers(1, dmax))), "--dmax", str(dmax), *fmt]
    if command == "resolve":
        target = draw(st.sampled_from(["kac", "simple"]))
        label, depth = draw(st.integers(-3, 3)), draw(st.integers(0, 10))
        return ["resolve", "--target", target, "--weight", str(label), "--depth", str(depth), *fmt]
    # coefficient ranges (left side, right side) keep every module at dimension 384 or less
    m, n, lo, hi = draw(
        st.sampled_from([(2, 1, (-2, -2), (2, 2)), (2, 2, (-1, -1), (1, 1)), (3, 2, (0, -1), (1, 0))])
    )
    kind = draw(st.sampled_from(["kac", "dualkac", "simple"]))
    weight = sorted_weight(draw, m, n, lo, hi)
    return ["invariants", "--m", str(m), "--n", str(n), "--kind", kind, "--verify", weight, *fmt]


@settings(max_examples=40, deadline=None)
@given(small_argv())
def test_reruns_are_byte_identical(argv):
    outputs = []
    for _ in range(2):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        outputs.append((code, stdout.getvalue().encode()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][1]


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: gl_simple(3, (60, 0, -60)), "dimension 226981 exceeds GT_MAX_DIM = 10000"),
        # (20, 10, 0, 0) built 61,226 patterns before the guard moved into gt_patterns
        (lambda: gt_patterns((20, 10, 0, 0)), "dimension 61226 exceeds GT_MAX_DIM = 10000"),
        (lambda: count_lattice_points(4, 5), "k=4 exceeds ENUM_MAX_K = 3"),
        (lambda: polytope.brute_force_count(3, 9), "box scan of (k=3, d=9) exceeds the bound d <= 8, k <= 3"),
        (lambda: polytope.brute_force_count(4, 2), "box scan of (k=4, d=2) exceeds the bound d <= 8, k <= 3"),
        (lambda: count_lattice_points(2, 500), "d=500 exceeds ENUM_MAX_D = 200"),
        (
            lambda: enumerate_lattice_points(2, 500),
            "(k=2, d=500) exceeds (ENUM_MAX_K, ENUM_MAX_D) = (3, 200)",
        ),
        (
            lambda: cauchy_symmetric_decomposition(SuperParams(5, 5), 1),
            "(k=5, d=1) beyond (CAUCHY_MAX_K, CAUCHY_MAX_D) = (4, 30)",
        ),
        (lambda: gl11_minimal_resolution("kac", 0, 26), "depth 26 exceeds MAX_DEPTH = 25"),
        (lambda: kl_poly_gl11(0, 26), "pair separation 26 needs resolution depth beyond MAX_DEPTH = 25"),
        # the vertex solve of k = 9 would take hours, and k = 6 about a minute
        (lambda: polytope.vertices(6), "vertices(k=6) would solve 167960 tight systems, over the bound"),
        *(
            (call, "vertices(k=9) would solve 51895935 tight systems, over the bound VERTEX_MAX_SYSTEMS = 25000")
            for call in (
                lambda: polytope.vertices(9),
                lambda: polytope.polytope_denominator(9),
                lambda: polytope.fit_quasipolynomial({1: 1}, 9),
            )
        ),
        (lambda: polytope.vertices(10**9), "would solve more than 51895935 tight systems"),
        # (3 * 10**5, 300) took 12.6 s before the guard
        (
            lambda: dimensions.partitions_at_most_k_parts(3 * 10**5, 300),
            "take 90000000 steps, over the bound PARTITIONS_MAX_WORK = 2000000",
        ),
        (
            lambda: dimensions.partitions_at_most_k_parts(10**9, 10**9),
            "take 1000000000000000000 steps, over the bound PARTITIONS_MAX_WORK = 2000000",
        ),
    ],
)
def test_resource_limit_messages_name_their_bound(call, message):
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError) as info:
        call()
    assert time.perf_counter() - start < 1
    assert message in str(info.value)
