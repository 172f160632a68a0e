"""Record the output digest of every input in every workload's universe.

    PYTHONPATH=src python3 perfbench/record_digests.py [workload ...]

Writes perfbench/baseline_digests.json, which run.py compares against to
report `outputs_changed`.  Re-record only when a change to the benchmark
alters its inputs; a change to the program that alters outputs should show
up as changed digests, not be recorded away.  Takes about ten minutes for all
four workloads; prints each check's time and verdict as it goes.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import workloads

OUT = Path(__file__).resolve().parent / "baseline_digests.json"


def main() -> int:
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    doc = json.loads(OUT.read_text()) if OUT.is_file() else {"digests": {}}
    digests = doc["digests"]
    for name in names:
        cls = workloads.WORKLOADS[name]
        wl = cls(0)
        seen = set()
        for g in range(cls.cover_groups):
            for check in wl.group(g):
                if check.key in seen:
                    continue
                seen.add(check.key)
                t0 = time.perf_counter()
                result = check.compute()
                ok, why = check.verify(result)
                seconds = time.perf_counter() - t0
                digests[check.key] = hashlib.sha256(check.canonical(result)).hexdigest()
                print(f"{seconds:8.3f} {'ok  ' if ok else 'FAIL'} {check.key} {why}", flush=True)
    doc["digests"] = dict(sorted(digests.items()))
    OUT.write_text(json.dumps(doc, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
