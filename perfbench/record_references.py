#!/usr/bin/env python3
"""Record the reference stdout (sha256 and size) of every CLI operation the benchmark runs.

    python3 perfbench/record_references.py

Run it at a commit whose outputs are known to be right; run.py compares each
operation's stdout with what this writes to perfbench/references.json.
"""

import json

import run
from child import digest

references = {}
for small in (False, True):
    for name in run.WORKLOADS:
        workload = run.make_workload(name, seed=0, small=small)
        for argv in getattr(workload, "ops", []):
            code, out, err, *_ = run.spawn([run.PYTHON, "-m", "twoorbit.cli", *argv])
            if code != 0:
                raise SystemExit(f"{' '.join(argv)}: exit {code}: {err.decode()}")
            d = digest(out)
            references[" ".join(argv)] = {"sha256": d["sha256"], "bytes": d["bytes"]}
            print(" ".join(argv), d["bytes"], d["last_line"][:60])
with open(run.REFERENCES, "w") as f:
    json.dump(references, f, indent=2)
    f.write("\n")
