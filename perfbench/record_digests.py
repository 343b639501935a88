"""Record the stdout digest of every default-seed op into digests.json.

Run it from the repository root on the commit whose output is the reference:

    python3 perfbench/record_digests.py

It runs each op of every workload's cycle once (several minutes) and fails
if any op exits nonzero or fails its output checks.
"""

from __future__ import annotations

import json
import shutil
import sys

from checks import DIGESTS, check_output, digest
from run import OUT, ROOT, SRC, glsuper_cmd, spawn
from workloads import DEFAULT_SEED, GENERATORS, make_ops, write_inputs


def main() -> int:
    sys.path.insert(0, str(SRC))
    run_dir = OUT / "record-digests"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    digests = {}
    for workload in sorted(GENERATORS):
        ops = make_ops(workload, DEFAULT_SEED, str((run_dir / "inputs").relative_to(ROOT)))
        write_inputs(ops, ROOT)
        digests[workload] = []
        for op in ops:
            result = spawn(glsuper_cmd(op), run_dir / "op.out")
            stdout = result.stdout.read_bytes()
            problem = result.limit or check_output(workload, op, stdout, None)
            if problem:
                print(f"{workload} op {op.index} failed: {problem}", file=sys.stderr)
                return 1
            digests[workload].append(digest(stdout))
            print(f"{workload} op {op.index}: {result.wall_s:.2f} s", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(run_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
