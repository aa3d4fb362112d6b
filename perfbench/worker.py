"""Run one iteration of a workload in this fresh process and write a JSON
record of it to ``<out>/worker.json``.

Modes:
  plain  the workload's CLI calls, untraced; checks that no wrapper is installed.
  trace  the same calls with the tracer installed; checks every wrapper is
         removed afterwards and writes the spans and counters.
  alloc  only the workload's CSV load, under tracemalloc.

Usage: python3 perfbench/worker.py ROOT WORKLOAD DATA OUT MODE [--tiny]
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_ops(cli, argvs: list[list[str]]) -> tuple[float, list, list[str]]:
    """Call ``cli.main`` once per argv; time from first call to last return."""
    rcs, outs = [], []
    start = time.perf_counter()
    for argv in argvs:
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # an op that crashes counts as failed
                rc = f"{type(exc).__name__}: {exc}"
        rcs.append(rc)
        outs.append(buf.getvalue() + ("\n[stderr]\n" + err.getvalue() if rc != 0 else ""))
    return time.perf_counter() - start, rcs, outs


def main(argv: list[str]) -> int:
    root, name, data, out, mode = argv[:5]
    tiny = "--tiny" in argv
    sys.path[:0] = [str(Path(root) / "src"), str(HERE)]
    import tracer as tr
    import workloads

    import ifecf.cli as cli

    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    data = Path(data)
    argvs = workloads.ops(name, data, out, tiny)
    record: dict = {"mode": mode}

    if mode == "alloc":
        import tracemalloc

        from ifecf.data import load_csv

        tracemalloc.start()
        load_csv(data)
        record["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    elif mode == "plain":
        record["wrapped_before"] = tr.wrapped_targets()
        wall, rcs, outs = run_ops(cli, argvs)
        record.update(wall_s=wall, rcs=rcs, wrapped_after=tr.wrapped_targets())
    else:
        tracer = tr.Tracer()
        tracer.install()
        try:
            wall, rcs, outs = run_ops(cli, argvs)
        finally:
            tracer.remove()
        record.update(wall_s=wall, rcs=rcs, wrapped_after=tr.wrapped_targets(),
                      self_times=tracer.self_times(), counts=dict(tracer.counts))
    if mode != "alloc":
        for i, text in enumerate(outs):
            (out / f"op{i}.stdout").write_text(text, encoding="utf-8")
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    (out / "worker.json").write_text(json.dumps(record, default=str), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
