"""Record the reference outputs of every workload variant, as produced today.

    python3 perfbench/record_reference.py [workload ...]

Runs two passes of each variant and requires them to agree exactly before
recording.  Writes reference.json, and grow's output numbers to
reference_grow.npz.  Re-record only when the program's outputs are meant to
change, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np

import run
import workloads


def record(workload: str, v: int) -> dict:
    import silopile.cli  # noqa: F401
    import silopile as pkg

    workdir = run.ROOT / ".perfbench" / f"record-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        workloads.write_inputs(workload, 0, workdir)
        seen = []
        for _ in range(2):
            _, codes, values = workloads.run_pass(workload, pkg, v)
            if any(codes.values()):
                raise SystemExit(f"{workload} variant {v}: exit codes {codes}")
            seen.append(workloads.observe(workload, workdir, values))
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    if not workloads.exact(workload, seen[1], seen[0]):
        raise SystemExit(f"{workload} variant {v}: two passes disagree")
    return seen[0]


def main() -> int:
    if os.environ.get("PYTHONPATH") != run._env()["PYTHONPATH"]:
        # Start again with the benchmark's environment: threads pinned to 1.
        os.execve(sys.executable, [sys.executable, *sys.argv], run._env())
    path = workloads.REFERENCE
    table = json.loads(path.read_text()) if path.exists() else {}
    for workload in sys.argv[1:] or workloads.WORKLOADS:
        table[workload] = {str(v): record(workload, v) for v in range(workloads.VARIANTS)}
        if workload == "grow":
            numbers = {
                f"{v}/{name}": entry.pop("values")
                for v, files in table[workload].items()
                for name, entry in files.items()
            }
            np.savez_compressed(workloads.GROW_REFERENCE, **numbers)
        print(f"recorded {workload}", file=sys.stderr)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
