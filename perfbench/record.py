"""Record the digests of each workload's deterministic outputs per seed.

Run from the repository root, on the code whose outputs are the reference:

    python3 perfbench/record.py 1 2 3

Each seed runs one untraced iteration per workload; its digests (bench
accuracy CSVs and fields, selector kept sets, Relief weights) go into
``perfbench/expected.json``, which later runs on that seed must match. Record
again only for a change that is meant to alter those outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run as bench
import workloads

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def main(argv: list[str]) -> int:
    root = Path.cwd()
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    status = 0
    for seed in map(int, argv):
        for name in workloads.NAMES:
            r = bench.Run(root, name, seed)
            r.recorded = None
            r.iteration("plain", 0)
            r.close()
            shutil.rmtree(r.data.parent, ignore_errors=True)
            if r.op_failures or r.problems:
                print(f"{name} seed {seed}: not recorded: {r.op_failures + r.problems}")
                status = 1
                continue
            expected.setdefault(name, {})[str(seed)] = r.reference
            EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
            print(f"{name} seed {seed}: recorded", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
