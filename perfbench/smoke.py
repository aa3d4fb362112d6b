"""Smoke check of the benchmark itself, on tiny inputs for each workload.

Run from the repository root (takes a few seconds):

    python3 perfbench/smoke.py

Checks that untraced runs install no wrappers, that traced runs remove every
wrapper afterwards, that span self times never go negative, that the traced
run sees the layers each workload is meant to stress, and that a wrong
recorded output is counted as a failed op. Exits non-zero on any failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

import run as bench
import workloads

EXPECTED_LAYERS = {
    "sweep": ("lvq.train", "lvq.evaluate", "select.ife_cf", "plots.sweep_charts"),
    "select_wide": ("select.cfs_search", "select.relief", "measures.feature_stats"),
    "tall": ("data.load_csv", "lvq.train", "data.normalize"),
}


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import tracer

    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    t = tracer.Tracer()
    t.install()
    expect(len(tracer.wrapped_targets()) == len(tracer.targets()), "install wraps every target")
    t.remove()
    expect(tracer.wrapped_targets() == [], "remove restores every target")

    for name in workloads.NAMES:
        r = bench.Run(root, name, seed=1, tiny=True)
        try:
            iters = r.loop(0)[0]
            wall = bench.trimmed_mean(rec["wall_s"] * rec["scale"] for rec in iters) if iters else 0.0
            expect(not r.problems and not r.op_failures,
                   f"{name}: untraced run installs no wrapper and passes its checks")
            metrics, table = bench.layer_metrics(r, wall)
            expect(not r.problems and not r.op_failures,
                   f"{name}: traced run removes its wrappers, self times >= 0")
            seen = {row[0] for row in table}
            expect(set(EXPECTED_LAYERS[name]) <= seen, f"{name}: trace sees {EXPECTED_LAYERS[name]}")
            # Tiny inputs leave more of the time to cli.main's own work, so
            # this only checks that layer spans neither miss nor double-count.
            coverage = metrics.get("trace.coverage", 0)
            expect(0.5 < coverage <= 1.0,
                   f"{name}: layer spans cover {coverage:.2f} of the wall time")

            key = "ifecf_kept" if name == "select_wide" else "accuracy"
            r.recorded = dict(r.reference, **{key: "not the real output"})
            before = len(r.op_failures)
            r.iteration("plain", 99)
            expect(len(r.op_failures) == before + 1, f"{name}: a wrong recorded output fails one op")
        finally:
            r.close()
    print("smoke check:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
