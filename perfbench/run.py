"""glsuper benchmark: one closed-loop client running CLI ops, one at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload blocks|lattice|modules|resolve|all \
        --seed N --seconds S --trace 0|1

Each op is a fresh ``python -m glsuper ...`` process, so caches start cold as
they do for a user.  ``--trace 0`` times ops and fresh-interpreter set-up and
prints the end-to-end metrics; ``--trace 1`` alternates plain ops with ops run
under ``tracer.py`` and prints the per-layer metrics.  Outputs are checked
after the timed loop.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Run details (per-op
records, spans, the environment) go to ``perfbench/out/``.  ``--workload all``
runs the four workloads in turn, each printing its own report and result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_output, load_digests
from layers import aggregate, summarize
from workloads import CYCLE, DEFAULT_SEED, GENERATORS, Op, make_ops, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
clock = time.perf_counter

# per-op guard on the child: wall timeout and address-space cap.  The
# largest op (lattice) peaks near 130 MB RSS; a blow-up such as the k=3
# enumeration hits the cap and fails the op instead of the machine.
OP_TIMEOUT_S = 60.0
OP_ADDRESS_SPACE = 2 << 30


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics one run reports, in BENCHMARK.json's order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


@dataclass
class Result:
    wall_s: float
    rss_kb: int
    exit_code: int
    stdout: Path
    limit: str | None  # "timeout", "address_space" or "exit" when the op failed


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (OP_ADDRESS_SPACE, OP_ADDRESS_SPACE))


def spawn(cmd: list[str], stdout: Path) -> Result:
    """Run one child to exit under the guard; time it from spawn to exit.

    A child's ru_maxrss starts at the parent's RSS at spawn, so the parent
    keeps outputs on disk, not in memory.
    """
    timed_out = threading.Event()
    err_path = stdout.with_suffix(".err")
    with open(stdout, "wb") as out, open(err_path, "wb") as err:
        start = clock()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
            stdout=out, stderr=err, preexec_fn=_cap_address_space,
        )

        def expire() -> None:
            timed_out.set()
            proc.kill()

        timer = threading.Timer(OP_TIMEOUT_S, expire)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = clock() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    limit = None
    if timed_out.is_set():
        limit = "timeout"
    elif code != 0:
        limit = "address_space" if b"MemoryError" in err_path.read_bytes() else "exit"
    err_path.unlink()
    return Result(wall, usage.ru_maxrss, code, stdout, limit)


def glsuper_cmd(op: Op) -> list[str]:
    return [sys.executable, "-m", "glsuper", *op.args]


def traced_cmd(op: Op, spans_path: Path) -> list[str]:
    return [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--", *op.args]


SETUP_CMD = [sys.executable, "-c", "import glsuper.cli"]


def _proc_snapshot() -> dict:
    with open("/proc/loadavg", encoding="ascii") as handle:
        load = [float(x) for x in handle.read().split()[:3]]
    with open("/proc/stat", encoding="ascii") as handle:
        ticks = [int(x) for x in handle.readline().split()[1:]]
    return {"loadavg": load, "steal_ticks": ticks[7], "total_ticks": sum(ticks)}


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(start: dict, end: dict) -> dict:
    total = end["total_ticks"] - start["total_ticks"]
    steal = end["steal_ticks"] - start["steal_ticks"]
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "loadavg_start": start["loadavg"],
        "loadavg_end": end["loadavg"],
        "cpu_steal_share": steal / total if total else 0.0,
    }


def tail(walls: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 ops beyond it, never below the median.

    Returns (value, percentile, ops beyond).  Below 21 ops no percentile
    above the median has 10 ops beyond it, so the median is reported, as
    ``op_s.p50`` computes it, and its percentile says so.  A single order
    statistic of a few ops would jump between the host's fast and slow
    states more than the median of the middle two does.
    """
    ordered = sorted(walls)
    n = len(ordered)
    index = n - 11
    if index < n // 2:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def _time_left(deadline: float, rounds: list[float]) -> bool:
    """Start another round only if half a typical round fits before the deadline.

    A run then lasts about ``--seconds`` on average instead of overrunning
    by a whole op.
    """
    typical = statistics.median(rounds) if rounds else 0.0
    return clock() + typical / 2 < deadline


def timed_run(ops: list[Op], seconds: int, outputs: Path) -> tuple[list, list[float], float]:
    """Ops with their results, the set-up samples, and the loop's wall time."""
    done: list[tuple[Op, Result]] = []
    setups: list[float] = []
    rounds: list[float] = []
    loop_start = clock()
    deadline = loop_start + seconds
    while _time_left(deadline, rounds):
        start = clock()
        # one set-up sample before each op sees the same machine state
        setup = spawn(SETUP_CMD, outputs / "setup.out")
        if setup.exit_code != 0:
            raise SystemExit(f"importing glsuper.cli failed with exit code {setup.exit_code}")
        setups.append(setup.wall_s)
        op = ops[len(done) % CYCLE]
        done.append((op, spawn(glsuper_cmd(op), outputs / f"{len(done):04d}.out")))
        rounds.append(clock() - start)
    return done, setups, clock() - loop_start


def traced_run(ops: list[Op], seconds: int, outputs: Path, spans_log) -> tuple[list, list, list]:
    """Alternate each op plain and traced; spans go to ``spans_log`` as they come."""
    plain: list[tuple[Op, Result]] = []
    traced: list[tuple[Op, Result]] = []
    summaries: list[dict] = []
    spans_path = outputs / "op-spans.json"
    rounds: list[float] = []
    deadline = clock() + seconds
    while _time_left(deadline, rounds):
        start = clock()
        op = ops[len(plain) % CYCLE]
        plain.append((op, spawn(glsuper_cmd(op), outputs / f"{len(plain):04d}.out")))
        spans_path.unlink(missing_ok=True)
        result = spawn(traced_cmd(op, spans_path), outputs / f"{len(traced):04d}.traced.out")
        traced.append((op, result))
        if spans_path.is_file():
            record = json.loads(spans_path.read_text(encoding="utf-8"))
            for name, begin, end, parent in record["spans"]:
                spans_log.write(json.dumps({"op": len(traced) - 1, "name": name, "start": begin,
                                            "end": end, "parent": parent}) + "\n")
            summaries.append(summarize(record, result.wall_s, result.stdout.stat().st_size))
        rounds.append(clock() - start)
    return plain, traced, summaries


def check_all(workload: str, seed: int, done: list[tuple[Op, Result]], log) -> int:
    digests = load_digests(workload, seed)
    failed = 0
    for op, result in done:
        problem = result.limit and f"{result.limit} (exit code {result.exit_code})"
        if problem is None:
            problem = check_output(workload, op, result.stdout.read_bytes(), digests)
            if problem is not None:
                problem = f"output: {problem}"
        failed += problem is not None
        log.write(json.dumps({
            "op": op.index, "args": op.args, "wall_s": result.wall_s,
            "peak_rss_kb": result.rss_kb, "exit_code": result.exit_code, "failure": problem,
        }) + "\n")
    return failed


def end_to_end(done: list[tuple[Op, Result]], setups: list[float], loop_s: float) -> tuple[dict, dict]:
    walls = [result.wall_s for _, result in done]
    value, pct, beyond = tail(walls)
    # the loop's time minus the set-up samples: gaps between ops count
    op_loop_s = loop_s - sum(setups)
    metrics = {
        "ops_per_s": len(walls) / op_loop_s,
        "op_s.p50": statistics.median(walls),
        "op_s.tail": value,
        "peak_rss_mb.max": max(result.rss_kb for _, result in done) / 1024,
        "setup_s": statistics.median(setups),
    }
    notes = {
        "ops_per_s": f"{len(walls)} ops / {op_loop_s:.3f} s of loop time without set-up samples",
        "op_s.p50": f"median of {len(walls)} ops",
        "op_s.tail": f"p{pct:.1f}, {beyond} of {len(walls)} ops beyond it",
        "peak_rss_mb.max": "largest child peak RSS (wait4 rusage)",
        "setup_s": f"median of {len(setups)} fresh-interpreter imports of glsuper.cli",
    }
    return metrics, notes


def layer_table(metrics: dict, bases: dict, units: dict[str, str]) -> str:
    lines = [f"{'metric':<48} {'value':>14}  unit"]
    for name, unit in units.items():
        base = f"  ({bases[name]})" if name in bases else ""
        lines.append(f"{name:<48} {metrics[name]:>14.6g}  {unit}{base}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "glsuper" / "cli.py").is_file():
        print(f"glsuper sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = sorted(GENERATORS) if args.workload == "all" else [args.workload]
    return max(run_workload(name, args.seed, args.seconds, args.trace) for name in workloads)


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> int:
    """Run one workload and print its report, then its result as the last line."""
    run_dir = OUT / f"{workload}-seed{seed}-trace{trace}"
    outputs = run_dir / "stdout"
    shutil.rmtree(run_dir, ignore_errors=True)
    outputs.mkdir(parents=True)
    ops = make_ops(workload, seed, str((run_dir / "inputs").relative_to(ROOT)))
    write_inputs(ops, ROOT)
    # untimed: compile bytecode so the first timed import is not special
    if spawn(SETUP_CMD, outputs / "setup.out").exit_code != 0:
        print("importing glsuper.cli failed", file=sys.stderr)
        return 2

    snap_start = _proc_snapshot()
    if trace:
        with open(run_dir / "spans.jsonl", "w", encoding="utf-8") as spans_log:
            plain, traced, summaries = traced_run(ops, seconds, outputs, spans_log)
        done = plain + traced
    else:
        done, setups, loop_s = timed_run(ops, seconds, outputs)
    env = environment(snap_start, _proc_snapshot())

    with open(run_dir / "ops.jsonl", "w", encoding="utf-8") as log:
        failed = check_all(workload, seed, done, log)
    (run_dir / "env.json").write_text(json.dumps(env, indent=2) + "\n", encoding="utf-8")
    shutil.rmtree(outputs)

    print(f"workload {workload}  seed {seed}  trace {trace}  "
          f"closed loop, 1 client, {seconds} s")
    print("environment " + json.dumps(env))
    print(f"fail_ratio {failed / len(done):.6g} ratio  ({failed} of {len(done)} ops failed; "
          f"details in {(run_dir / 'ops.jsonl').relative_to(ROOT)})")
    units = metric_units(trace)
    if trace:
        if not summaries:
            print("no traced op completed", file=sys.stderr)
            return 1
        metrics, bases = aggregate(summaries, [n for n in units if n != "trace.overhead"])
        plain_rate = len(plain) / sum(r.wall_s for _, r in plain)
        traced_rate = len(traced) / sum(r.wall_s for _, r in traced)
        metrics["trace.overhead"] = plain_rate / traced_rate - 1
        bases["trace.overhead"] = (f"untraced {plain_rate:.4f} ops/s / "
                                   f"traced {traced_rate:.4f} ops/s - 1")
        table = layer_table(metrics, bases, units)
        (run_dir / "layers.txt").write_text(table + "\n", encoding="utf-8")
        print(table)
    else:
        metrics, notes = end_to_end(done, setups, loop_s)
        for name, unit in units.items():
            print(f"{name:<16} {metrics[name]:>12.6g} {unit:<4} ({notes[name]})")
    result = {
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
