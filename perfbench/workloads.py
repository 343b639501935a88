"""Seeded op generators for the four benchmark workloads.

An op is one ``python -m glsuper ...`` invocation.  Each workload yields a
fixed cycle of ``CYCLE`` ops from its seed; a run walks the cycle from the
start and wraps around.  Inside one workload every op is built to cost about
the same, so the median op time stays in one cost class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

CYCLE = 32
DEFAULT_SEED = 0

# classify: weights per op, about 1 s per op
BLOCKS_WEIGHTS = 300
# ehrhart --k 2: the fit always counts d = 1..(2k+1)*32 = 160
LATTICE_FIT_MAX = 160
# resolve: depth D in 23..25 paired with kl-window W = 32 - D (7..9), so the
# deep resolution and the KL table trade cost and every op costs about the same
RESOLVE_DEPTHS = (23, 24, 25)
RESOLVE_DEPTH_PLUS_WINDOW = 32


@dataclass(frozen=True)
class Op:
    index: int
    args: tuple[str, ...]
    # inputs the op reads, as (relative path, text); written before the run
    files: tuple[tuple[str, str], ...] = ()
    # what the output check needs to know about the op
    expect: tuple = ()


def _dominant(rng: random.Random, m: int, n: int, lo: int, hi: int) -> list[int]:
    left = sorted((rng.randint(lo, hi) for _ in range(m)), reverse=True)
    right = sorted((rng.randint(lo, hi) for _ in range(n)), reverse=True)
    return left + right


def _blocks(rng: random.Random, i: int, inputs: str) -> Op:
    weights = [_dominant(rng, 4, 3, -6, 6) for _ in range(BLOCKS_WEIGHTS)]
    text = "".join(",".join(map(str, w)) + "\n" for w in weights)
    path = f"{inputs}/blocks-{i:02d}.txt"
    args = ("classify", "--m", "4", "--n", "3", "--weights-file", path)
    return Op(i, args, ((path, text),), tuple(tuple(w) for w in weights))


def _lattice(rng: random.Random, i: int, inputs: str) -> Op:
    dmin = rng.randint(1, LATTICE_FIT_MAX)
    dmax = rng.randint(dmin, LATTICE_FIT_MAX)
    fmt = rng.choice(("json", "csv"))
    args = ("ehrhart", "--k", "2", "--dmin", str(dmin), "--dmax", str(dmax), "--format", fmt)
    return Op(i, args, expect=(dmin, dmax, fmt))


def _modules(rng: random.Random, i: int, inputs: str) -> Op:
    # each shape is a gl(3|2) weight whose g0-simple has dimension 3 (the
    # standard or dual gl(3) module, or Sym^2 of gl(2)), so every module has
    # dim 2^(3*2) * 3 = 192, whatever the atypicality (0, 1 or 2)
    a = rng.randint(-3, 3)
    b = rng.randint(-3, 3)
    coeffs = rng.choice(((a + 1, a, a, b, b), (a, a, a - 1, b, b), (a, a, a, b + 2, b)))
    kind = rng.choice(("kac", "dualkac"))
    # "--weight=" because a value such as -1,-1,-1,0,0 would parse as an option
    weight = ",".join(map(str, coeffs))
    args = ("invariants", "--m", "3", "--n", "2", "--kind", kind, "--verify", f"--weight={weight}")
    return Op(i, args, expect=(kind, coeffs))


def _resolve(rng: random.Random, i: int, inputs: str) -> Op:
    lam = rng.randint(-5, 5)
    depth = rng.choice(RESOLVE_DEPTHS)
    window = RESOLVE_DEPTH_PLUS_WINDOW - depth
    args = (
        "resolve", "--target", "simple", "--weight", str(lam),
        "--depth", str(depth), "--kl-window", str(window),
    )
    return Op(i, args, expect=(lam, depth, window))


GENERATORS = {
    "blocks": _blocks,
    "lattice": _lattice,
    "modules": _modules,
    "resolve": _resolve,
}


def make_ops(workload: str, seed: int, inputs: str) -> list[Op]:
    """The op cycle of one workload; ``inputs`` is where input files go."""
    rng = random.Random(f"{workload}:{seed}")
    return [GENERATORS[workload](rng, i, inputs) for i in range(CYCLE)]


def write_inputs(ops: list[Op], root: Path) -> None:
    for op in ops:
        for rel, text in op.files:
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
