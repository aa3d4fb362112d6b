"""Command-line front end: stats, select, train, classify, bench, plot.

Exit codes: 0 success, 1 usage error, 2 data error, 3 empty selection.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, lvq  # lvq.classify_batch is looked up per call
from .bench import BenchError, SweepConfig, run_sweep, timing_stability
from .data import DataError, load_csv
from .lvq import LVQConfig, LVQError, LVQModel, init_codebook
from .lvq import train as lvq_train
from .measures import feature_stats
from .plots import sweep_charts
from .select import (
    SelectionConfig,
    SelectionError,
    SelectionResult,
    cfs_search,
    ife_cf,
    relief,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_EMPTY_SELECTION = 3


class _UsageError(Exception):
    """An option value that a config constructor rejected."""


def _config(cls, **values):
    """Build a config from option values; any value it rejects is a usage
    error, so commands build their configs before reading the dataset."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load(args):
    delim = " " if args.format == "space" else ","
    cc = args.class_column
    if cc is not None and cc.lstrip("-").isdigit():
        cc = int(cc)
    return load_csv(args.dataset, class_column=cc, delimiter=delim)


def _write_manifest(out_dir: Path, args, digest: str) -> None:
    manifest = {
        "command": args.argv,
        "config": {k: v for k, v in vars(args).items() if k not in ("func", "argv")},
        "dataset_sha256": digest,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, default=str), encoding="utf-8"
    )


def _print_table(headers: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*headers))
    print(fmt.format(*("-" * w for w in widths)))
    for r in rows:
        print(fmt.format(*r))


def _moment(v: float) -> str:
    """``v`` to 4 decimals, or in shortest round-trip form where 4 decimals
    would hide it (nonzero below 1e-4) or spell out 16 or more integer
    digits (1e15 and up)."""
    return repr(v) if v and not 1e-4 <= abs(v) < 1e15 else f"{v:.4f}"


def cmd_stats(args) -> int:
    d = _load(args)
    ranked = list(enumerate(feature_stats(d)))
    if args.sort == "dispersion":  # descending; undefined (zero-mean) last
        ranked.sort(key=lambda js: (js[1].dispersion is None, -(js[1].dispersion or 0.0)))
    elif args.sort == "ccorr":
        ranked.sort(key=lambda js: -abs(js[1].c_correlation))
    rows = [
        [str(j), d.feature_names[j], _moment(s.mean), _moment(s.std_dev),
         "undef" if s.dispersion is None else f"{s.dispersion:.4f}", f"{s.c_correlation:.4f}"]
        for j, s in ranked
    ]
    _print_table(["idx", "feature", "mean", "std", "dispersion", "c_corr"], rows)
    return EXIT_OK


def cmd_select(args) -> int:
    cfg = _config(SelectionConfig, delta=args.delta, tau_c=args.tau_c, tau_f=args.tau_f,
                  relief_samples=args.samples, bffs_patience=args.patience, seed=args.seed)
    d = _load(args)
    if args.method == "ifecf":
        result = ife_cf(d, cfg)
    elif args.method == "cfs":
        result = cfs_search(d, cfg)
    else:
        weights = relief(d, cfg)
        kept, eliminated = [], []
        for j, w in enumerate(weights.tolist()):
            if w >= args.relief_threshold:
                kept.append(j)
            else:
                eliminated.append((j, "below-relief-threshold", w))
        if not kept:
            raise SelectionError("relief threshold eliminates every feature")
        result = SelectionResult(kept=kept, eliminated=eliminated)
        print("relief weights:", " ".join(f"{w:.4f}" for w in weights))

    if args.out:  # no indent: json's C encoder
        Path(args.out).write_text(json.dumps(result.to_dict()), encoding="utf-8")
    kept_names = [d.feature_names[j] for j in result.kept]
    print(f"kept {len(result.kept)}/{d.n_features}: {', '.join(kept_names)}")
    if result.merit_trace:
        best = max(m for _, _, m in result.merit_trace)
        print(f"best merit: {best:.6f}")
    if result.eliminated:
        rows = [
            [str(j), d.feature_names[j], reason, f"{score:.4f}"]
            for j, reason, score in result.eliminated
        ]
        _print_table(["idx", "feature", "reason", "score"], rows)
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _config(LVQConfig, alpha=args.alpha, epochs=args.epochs,
                  prototypes_per_class=args.prototypes, seed=args.seed)
    d = _load(args)
    model = lvq_train(init_codebook(d, cfg), d)
    model.save(args.out)
    print(f"trained {len(model.classes)} prototypes over {cfg.epochs} epochs -> {args.out}")
    return EXIT_OK


def cmd_classify(args) -> int:
    model = LVQModel.load(args.model)
    d = _load(args)
    cols = model.columns(d.feature_names)  # the model's columns, by name
    x = d.features if cols == list(range(d.n_features)) else d.features[:, cols]
    preds = lvq.classify_batch(model, x)  # ids into model.class_names
    for i, pred in enumerate(preds):
        print(f"{i}\t{model.class_names[pred]}")
    # the file's class ids in the model's table; a label the model lacks gets -1
    model_ids = {c: i for i, c in enumerate(model.class_names)}
    to_model = np.array([model_ids.get(c, -1) for c in d.class_names])
    correct = int((preds == to_model[d.labels]).sum())
    print(f"accuracy: {correct}/{d.n_instances} = {100 * (correct / d.n_instances):.2f}%",
          file=sys.stderr)
    return EXIT_OK


def cmd_bench(args) -> int:
    selection = None
    if args.select:
        selection = _config(SelectionConfig, delta=args.delta, tau_c=args.tau_c,
                            tau_f=args.tau_f)
    cfg = _config(
        SweepConfig,
        fractions=tuple(args.fractions),
        alphas=tuple(args.alphas),
        repeats=args.repeats,
        seed=args.seed,
        selection=selection,
        eval_target=args.eval_target,
        epochs=args.epochs,
        normalize=not args.no_normalize,
    )
    d = _load(args)
    report = run_sweep(d, cfg)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    headers = ["split"] + [f"alpha_{a:g}" for a in cfg.alphas]
    variants = ["original"] + (["reduced"] if selection else [])
    for variant in variants:
        with (out_dir / f"{variant}.csv").open("w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(headers)
            w.writerows(report.accuracy_table(variant))
    doc = report.to_dict()
    doc["timing_stability"] = timing_stability(report) if cfg.repeats >= 3 else None
    (out_dir / "report.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")
    _write_manifest(out_dir, args, d.source_sha256)
    if not args.no_plot:
        sweep_charts(doc, out_dir)
    print(f"wrote {len(report.records)} cell records to {out_dir}")
    return EXIT_OK


def cmd_plot(args) -> int:
    path = args.report
    try:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataError(f"{path}: not a JSON report: {exc}") from None
    lists = ("fractions", "alphas", "records")
    if not (isinstance(report, dict) and all(isinstance(report.get(k), list) and report[k]
                                             for k in lists)):
        raise DataError(f"{path}: a report needs non-empty lists {', '.join(map(repr, lists))}")
    number = (int, float)
    if not all(isinstance(v, number) for v in report["fractions"] + report["alphas"]):
        raise DataError(f"{path}: 'fractions' and 'alphas' must hold numbers")
    keys = ("fraction", "alpha", "accuracy", "classify_ms")  # what the charts read
    if not all(isinstance(r, dict) and isinstance(r.get("variant"), str)
               and all(isinstance(r.get(k), number) for k in keys) for r in report["records"]):
        raise DataError(f"{path}: every record needs a string 'variant' and the numbers "
                        f"{', '.join(map(repr, keys))}")
    variants = {r["variant"] for r in report["records"]} - {"original", "reduced"}
    if variants:  # a variant names the chart files and titles them
        raise DataError(f"{path}: unknown variant {min(variants)!r}; "
                        "a record's variant is 'original' or 'reduced'")
    try:
        written = sweep_charts(report, args.out)
    except BenchError as exc:
        raise DataError(f"{path}: {exc}") from None
    for p in written:
        print(p)
    return EXIT_OK


def _add_dataset_args(p):
    p.add_argument("dataset", help="path to the dataset file")
    p.add_argument("--class-column", default=None,
                   help="label column name or 0-based index (default: last)")
    p.add_argument("--format", choices=["csv", "space"], default="csv")


def _add_filter_args(p):
    p.add_argument("--delta", type=float, default=SelectionConfig.delta,
                   help="dispersion threshold")
    p.add_argument("--tau-c", type=float, default=SelectionConfig.tau_c,
                   help="class-correlation floor")
    p.add_argument("--tau-f", type=float, default=SelectionConfig.tau_f,
                   help="redundancy ceiling")


def build_parser() -> _Parser:
    parser = _Parser(prog="ifecf", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="per-feature statistics table")
    _add_dataset_args(p)
    p.add_argument("--sort", choices=["dispersion", "ccorr"], default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("select", help="run a feature-selection method")
    _add_dataset_args(p)
    p.add_argument("--method", choices=["ifecf", "cfs", "relief"], required=True)
    _add_filter_args(p)
    p.add_argument("--samples", type=int, default=SelectionConfig.relief_samples,
                   help="relief sample count")
    p.add_argument("--patience", type=int, default=SelectionConfig.bffs_patience,
                   help="best-first search patience")
    p.add_argument("--relief-threshold", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=SelectionConfig.seed)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("train", help="train an LVQ model")
    _add_dataset_args(p)
    p.add_argument("--alpha", type=float, default=LVQConfig.alpha)
    p.add_argument("--epochs", type=int, default=LVQConfig.epochs)
    p.add_argument("--prototypes", type=int, default=LVQConfig.prototypes_per_class)
    p.add_argument("--seed", type=int, default=LVQConfig.seed)
    p.add_argument("--out", required=True, help="model JSON output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="classify a dataset with a saved model")
    p.add_argument("model", help="model JSON path")
    _add_dataset_args(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bench", help="run the split x learning-rate sweep")
    _add_dataset_args(p)
    p.add_argument("--fractions", type=float, nargs="+", default=SweepConfig.fractions)
    p.add_argument("--alphas", type=float, nargs="+", default=SweepConfig.alphas)
    p.add_argument("--repeats", type=int, default=SweepConfig.repeats,
                   help="timed classification passes per cell; training runs once")
    p.add_argument("--epochs", type=int, default=SweepConfig.epochs)
    p.add_argument("--seed", type=int, default=SweepConfig.seed)
    p.add_argument("--eval-target", choices=["test", "train", "whole"], default="test")
    p.add_argument("--select", action="store_true",
                   help="also run the reduced (filtered) variant")
    _add_filter_args(p)
    p.add_argument("--no-normalize", action="store_true")
    p.add_argument("--no-plot", action="store_true")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("plot", help="regenerate SVG charts from a report.json")
    p.add_argument("report", help="path to report.json")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = ["ifecf", *argv]  # the manifest's command, also for in-process calls
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SelectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_SELECTION
    except (DataError, BenchError, LVQError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
