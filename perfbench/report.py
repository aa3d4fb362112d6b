"""Run every workload untraced and traced and print one summary.

Run from the repository root:

    python3 perfbench/report.py [--seed 1] [--seconds N]

For each workload this prints every end-to-end metric with its unit, the ops
attempted and failed, and the traced per-layer table (layer, calls, self
seconds, share of the traced wall time). Runs are sequential, one workload
process at a time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    default=json.loads(Path("BENCHMARK.json").read_text())["run_seconds"])
    args = ap.parse_args(argv)
    status = 0
    for name in workloads.NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            if name == workloads.NAMES[0] and not trace:
                print(lines[1])  # the environment, once
            print(f"== {lines[0]}: correct {result['correct']}")
            print("\n".join(lines[2:-1]))
            if not trace:
                for metric, v in result["metrics"].items():
                    print(f"  {metric} = {v['value']:.4f} {v['unit']}")
            status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
