"""Record the ladder reports the benchmark checks its runs against.

Run from the repository root at the commit whose numbers are the reference:

    python3 perfbench/record_references.py

Writes ``perfbench/references.json``: for every ladder operation of every
workload, the points rows, slope and pass flag of the report it writes.  A later commit must reproduce them
within ``workloads.LADDER_REL_TOL``.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

import run
import workloads


def main():
    _, modules = run.load_package()
    ops = {name: workloads.ladder_ops(name, 0)
           for name in ("kernel-scan", "vertical-ladder", "lines-screened")}
    references = {}
    scratch = os.path.join(run.ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for workload, argvs in ops.items():
            records = workloads.run_ladder_pass(modules["cli"], argvs, tmp)
            entries = references[workload] = {}
            for record in records:
                if record["code"] != 0:
                    sys.exit(f"{record['argv']} failed: {record['stdout']}{record['error']}")
                with open(os.path.join(record["out_dir"], record["argv"][0] + ".json")) as fh:
                    entries[" ".join(record["argv"])] = workloads.ladder_summary(json.load(fh))
                print(f"{workload}: {' '.join(record['argv'])}  {record['seconds']:.1f} s",
                      flush=True)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
