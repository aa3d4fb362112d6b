"""Benchmark for ifecf, driven from outside through ``ifecf.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 36 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  sweep        ifecf bench --select on the 768x8 pima-like set, fractions
               0.1 and 0.2 of the default 0.1-0.9, all else at its default.
  select_wide  stats, select ifecf / cfs / relief --samples 1000 on 1500x120.
  tall         ifecf bench --select --no-plot, one 0.02 x 0.1 cell, 100000x20.

With ``--trace 0`` the workload runs untraced, one fresh process per
iteration, for ``--seconds``, each iteration preceded by timed setup starts
and CPU-speed probes; the result holds the end-to-end metrics. Each time is
scaled to a reference CPU speed (see PROBE_REF_S), and the scaled times are
summarised by their trimmed mean (see ``trimmed_mean``), which with the 6-12
iterations of a run is steadier than their median; ``peak_rss_mb`` is the
median. With ``--trace 1`` the untraced iterations are followed by one
traced iteration and one tracemalloc pass over the CSV loads; the result
holds the per-layer metrics, with times as measured.

Every iteration's outputs are checked; a call that exits non-zero or fails a
check counts as a failed op. The last line of stdout is the JSON result; the
full record, with the environment, goes to ``.perfbench_cache/results/``.
Inputs are generated from ``--seed`` and cached in ``.perfbench_cache/inputs``;
generation is outside every measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_STARTS_PER_ITERATION = 2
PROBES_PER_GAP = 2
# Each vCPU of a shared host swings between a fast and a slow state (up to
# 2x apart, switching every few seconds, in CPU time as much as in wall
# time), so raw medians of two runs of the same code can differ by more than
# any useful bound. The benchmark therefore pins itself, and with it every
# process it starts, to one CPU. In the gaps between setup starts and
# workers this process, which never imports ifecf, times a fixed task
# (``probe``) on that CPU. Each worker's wall time and each setup start is
# scaled by PROBE_REF_S over the mean probe time just before and after it,
# so ``wall_s`` and ``setup_s`` are given at the CPU speed at which the probe
# takes PROBE_REF_S (about its median on a 2-vCPU Intel Xeon, Python 3.11).
# The raw times, the probe times and the scales are kept in the full record.
PROBE_REF_S = 0.04
RUN_LIMIT_S = 170  # a worker still running this long after the start is killed
# Span names whose self time is a per-layer metric, in table order. The self
# time of ``cli.main`` is reported as ``cli.self_s``.
LAYER_SPANS = tuple(dict.fromkeys(name for _, _, name in tracer.SPANS))


def run_quiet(cmd: list[str], cwd: Path, timeout: float,
              env: dict | None = None) -> subprocess.CompletedProcess:
    """Run a child to completion; on timeout it is killed and waited for."""
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=timeout)


def setup_start(root: Path) -> float:
    """Fresh-interpreter time to import ``ifecf.cli`` and build its parser."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    proc = run_quiet([sys.executable, "-c", "import ifecf.cli as c; c.build_parser()"],
                     root, 60, env)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import ifecf.cli: {proc.stderr.strip()}")
    return time.perf_counter() - t0


_PROBE_RNG = np.random.default_rng(0)
_PROBE_BOOK = _PROBE_RNG.normal(size=(4, 8))
_PROBE_ROWS = _PROBE_RNG.normal(size=(3000, 8))
_PROBE_LINES = [",".join(map(repr, row)) for row in _PROBE_ROWS.tolist()]


def probe() -> float:
    """Time a fixed task shaped like the workloads' hot loops: per-row
    small-array numpy updates (as in LVQ training) and parsing of CSV lines
    into floats (as in loading). Such loops slow down in the CPU's slow
    state by about as much as the workloads do; pure integer arithmetic
    slows down less."""
    t0 = time.perf_counter()
    book = _PROBE_BOOK.copy()
    for row in _PROBE_ROWS:
        d2 = ((book - row) ** 2).sum(axis=1)
        win = int(np.argmin(d2))
        book[win] += 0.01 * (row - book[win])
    for _ in range(2):
        [[float(v) for v in line.split(",")] for line in _PROBE_LINES]
    return time.perf_counter() - t0


def probe_gap() -> list[float]:
    return [probe() for _ in range(PROBES_PER_GAP)]


def scale(probe_times: list[float]) -> float:
    """Factor that brings a time measured among these probes to PROBE_REF_S speed."""
    return PROBE_REF_S / statistics.mean(probe_times)


def src_sloc(root: Path) -> int:
    """Non-blank, non-comment lines of ``src/ifecf``."""
    return sum(
        1
        for p in sorted((root / "src" / "ifecf").glob("*.py"))
        for line in p.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.strip().startswith("#")
    )


def environment(root: Path) -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    threads = {k: os.environ.get(k, "unset") for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {"nproc": os.cpu_count(), "cpu_affinity": affinity, "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": threads,
            "src_sloc": src_sloc(root)}


def trimmed_mean(values) -> float:
    """Mean without the lowest and the highest value (plain mean below 5)."""
    v = sorted(values)
    return statistics.mean(v[1:-1] if len(v) >= 5 else v)


def tail(samples: list[float]) -> str:
    """Median, the highest percentile with ten samples beyond it, and n."""
    n = len(samples)
    s = sorted(samples)
    text = f"median {statistics.median(s):.4f}"
    if n >= 11:
        text += f", p{100 * (n - 10) / n:.0f} {s[n - 11]:.4f}"
    else:
        text += ", no percentile has 10 samples beyond"
    return text + f", n={n}"


class Run:
    """One benchmark invocation: inputs, iterations, checks, metrics."""

    def __init__(self, root: Path, name: str, seed: int, tiny: bool = False):
        self.root, self.name, self.tiny = root, name, tiny
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.cache = root / ".perfbench_cache"
        tag = f"{name}-{seed}" + ("-tiny" if tiny else "")
        self.data = workloads.make_inputs(name, seed, self.cache / "inputs" / tag, tiny)
        with self.data.open(encoding="utf-8") as fh:
            self.n_features = len(fh.readline().split(",")) - 1
        self.work = self.cache / "work" / f"{tag}-{os.getpid()}"
        expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        self.recorded = None if tiny else expected.get(name, {}).get(str(seed))
        self.attempted = 0
        self.op_failures: list[str] = []  # one entry per failed op
        self.problems: list[str] = []  # faults of the benchmark's own checks
        self.reference: dict | None = None

    def worker(self, mode: str, i: int) -> tuple[dict, Path]:
        out = self.work / f"{mode}{i}"
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "worker.py"), str(self.root), self.name,
               str(self.data), str(out), mode] + (["--tiny"] if self.tiny else [])
        try:
            proc = run_quiet(cmd, self.root, max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return {"error": f"worker still running {RUN_LIMIT_S} s after the start"}, out
        if proc.returncode != 0:
            return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}, out
        return json.loads((out / "worker.json").read_text(encoding="utf-8")), out

    def iteration(self, mode: str, i: int) -> dict | None:
        """Run and check one iteration; returns the worker record or None."""
        n_ops = len(workloads.ops(self.name, self.data, self.work, self.tiny))
        self.attempted += n_ops
        rec, out = self.worker(mode, i)
        if "error" in rec:
            self.op_failures += [f"{mode}{i} op{k}: {rec['error']}" for k in range(n_ops)]
            return None
        if mode == "plain" and rec["wrapped_before"]:
            self.problems.append(f"{mode}{i}: wrappers installed untraced: {rec['wrapped_before']}")
        if rec["wrapped_after"]:
            self.problems.append(f"{mode}{i}: wrappers left after run: {rec['wrapped_after']}")
        stdouts = [(out / f"op{k}.stdout").read_text(encoding="utf-8") for k in range(n_ops)]
        errors, digests = workloads.check(self.name, self.data, out, stdouts, self.n_features)
        for k, rc in enumerate(rec["rcs"]):
            if rc != 0:
                errors[k] = f"exit {rc}: {stdouts[k].strip()[-300:]}"
        if self.reference is None:
            self.reference = digests
        for key, value in digests.items():
            op = workloads.DIGEST_OP.get(key, 0)
            if value != self.reference.get(key):
                errors[op] = errors[op] or f"{key} differs from the run's first iteration"
            elif self.recorded is not None and value != self.recorded.get(key):
                errors[op] = errors[op] or f"{key} differs from the recorded value"
        self.op_failures += [f"{mode}{i} op{k}: {e}" for k, e in enumerate(errors) if e]
        shutil.rmtree(out, ignore_errors=True)
        return rec

    def loop(self, seconds: float) -> tuple[list[dict], list[tuple[float, float]], list[float]]:
        """Untraced iterations until the next one would overrun ``seconds``.

        Each iteration runs SETUP_STARTS_PER_ITERATION timed setup starts and
        then the worker, with PROBES_PER_GAP probes in every gap, so the
        setup samples span the same stretch of time as the workload samples.
        A worker or a block of setup starts is scaled by the probes just
        before and just after it (see PROBE_REF_S). Returns the worker
        records, each with its ``scale``; the setup times, each with its
        scale; and every probe time.
        """
        setup_start(self.root)  # warm-up: writes the bytecode cache once
        start = time.perf_counter()
        durations: list[float] = []
        records, setup, probes = [], [], []
        before = probe_gap()
        while not durations or (time.perf_counter() - start
                                + statistics.median(durations) <= seconds):
            t0 = time.perf_counter()
            starts = [setup_start(self.root) for _ in range(SETUP_STARTS_PER_ITERATION)]
            middle = probe_gap()
            rec = self.iteration("plain", len(durations))
            after = probe_gap()
            durations.append(time.perf_counter() - t0)
            setup += [(t, scale(before + middle)) for t in starts]
            if rec is not None:
                rec["scale"] = scale(middle + after)
                records.append(rec)
            probes += before + middle
            before = after
        return records, setup, probes + before

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def layer_metrics(run: Run, plain_wall: float) -> tuple[dict, list]:
    """Per-layer metrics from one traced iteration and one allocation pass.

    ``plain_wall`` is the untraced iterations' scaled wall time, against
    which the traced iteration's scaled wall time gives ``trace.overhead_s``.
    """
    before = probe_gap()
    traced = run.iteration("trace", 0)
    traced_scale = scale(before + probe_gap())
    alloc, _ = run.worker("alloc", 0)
    if traced is None or "error" in alloc:
        run.problems.append(f"traced or allocation pass failed: {alloc.get('error', '')}")
        return {}, []
    selfs, counts = traced["self_times"], traced["counts"]
    for name, (_, _, lowest) in selfs.items():
        if lowest < -1e-9:
            run.problems.append(f"span {name}: negative self time {lowest}")
    wall = traced["wall_s"]

    def calls(span):
        return selfs.get(span, [0])[0]

    m = {f"{s}.self_s": selfs.get(s, [0, 0.0])[1] for s in LAYER_SPANS if s != "cli.main"}
    m["cli.self_s"] = selfs.get("cli.main", [0, 0.0])[1]
    cells = counts.get("bench.cells", 0)
    m.update({
        "data.load_csv.calls": calls("data.load_csv"),
        "data.load_csv.peak_alloc_mb": alloc["peak_alloc_mb"],
        "lvq.train.calls": calls("lvq.train"),
        "bench.train_calls_per_cell": calls("lvq.train") / cells if cells else 0.0,
        "bench.evaluate_calls_per_cell": calls("lvq.evaluate") / cells if cells else 0.0,
        "trace.wall_s": wall,
        "trace.overhead_s": wall * traced_scale - plain_wall,
        # Share of the wall time the named layers account for; time that no
        # layer span covers lands in ``cli.main``'s self time and counts against it.
        "trace.coverage": sum(v[1] for k, v in selfs.items() if k != "cli.main") / wall,
    })
    for key in ("data.load_csv.cells", "measures.c_correlation.calls",
                "measures.correlation.calls", "select.cfs_search.subsets",
                "select.cfs_merit.calls", "select.relief.distance_cells",
                "lvq.train.row_visits", "lvq.evaluate.rows", "lvq.classify_batch.temp_mb",
                "bench.cells"):
        m[key] = counts.get(key, 0)
    table = [(s, calls(s), selfs[s][1], selfs[s][1] / wall) for s in LAYER_SPANS if s in selfs]
    return m, table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ifecf" / "cli.py").is_file():
        print(f"error: {root} holds no src/ifecf; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if hasattr(os, "sched_setaffinity"):  # see PROBE_REF_S
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    run = Run(root, args.workload, args.seed)
    try:
        iters, setup_pairs, probes = run.loop(args.seconds)
        walls = [r["wall_s"] for r in iters]
        scaled_walls = [r["wall_s"] * r["scale"] for r in iters]
        rss = [r["peak_rss_mb"] for r in iters]
        setup = [t for t, _ in setup_pairs]
        scaled_setup = [t * k for t, k in setup_pairs]
        measured, table = {}, []
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        if walls and args.trace:
            measured, table = layer_metrics(run, trimmed_mean(scaled_walls))
        elif walls:
            measured = {"wall_s": trimmed_mean(scaled_walls),
                        "setup_s": trimmed_mean(scaled_setup),
                        "peak_rss_mb": statistics.median(rss)}
    finally:
        run.close()

    env = environment(root)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"recorded outputs {'yes' if run.recorded else 'no'}")
    print("environment " + json.dumps(env))
    print(f"  probe        {tail(probes)} (reference {PROBE_REF_S}) s")
    for name, scaled, raw in (("wall_s", scaled_walls, walls), ("setup_s", scaled_setup, setup)):
        if raw:
            print(f"  {name:<12} scaled: trimmed mean {trimmed_mean(scaled):.4f}, "
                  f"{tail(scaled)} s; raw: {tail(raw)} s")
    if rss:
        print(f"  peak_rss_mb  {tail(rss)} MiB")
    print(f"  ops {run.attempted}  ops_failed {len(run.op_failures)}")
    for f in run.op_failures + run.problems:
        print(f"  FAILED {f}")
    if table:
        print(f"  trace.coverage {measured['trace.coverage']:.4f}  "
              f"trace.overhead_s {measured['trace.overhead_s']:.4f}")
        print(f"  {'layer':<24}{'calls':>8}{'self s':>11}{'share':>8}")
        for name, n, own, share in table:
            print(f"  {name:<24}{n:>8}{own:>11.4f}{share:>8.1%}")

    metrics = {}
    for entry in wanted:
        if entry["name"] in measured:
            metrics[entry["name"]] = {"value": measured[entry["name"]], "unit": entry["unit"]}
    complete = len(metrics) == len(wanted)
    ok = complete and not run.op_failures and not run.problems
    result = {"correct": ok, "attempted": run.attempted,
              "failed": len(run.op_failures), "metrics": metrics}
    results = run.cache / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    full = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                environment=env, samples={"wall_s": walls, "peak_rss_mb": rss, "setup_s": setup,
                             "probe_s": probes, "wall_scale": [r["scale"] for r in iters],
                             "setup_scale": [k for _, k in setup_pairs]},
                failures=run.op_failures + run.problems, layers=table)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(full, indent=2), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
