"""Command-line front end: stats, select, train, classify, bench, plot.

Exit codes: 0 success, 1 usage error, 2 data error, 3 empty selection.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from .bench import BenchError, SweepConfig, run_sweep
from .data import DataError, load_csv
from .lvq import LVQConfig, LVQError, LVQModel, evaluate, init_codebook
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load(args):
    delim = " " if getattr(args, "format", "csv") == "space" else ","
    cc = args.class_column
    if cc is not None and cc.lstrip("-").isdigit():
        cc = int(cc)
    return load_csv(args.dataset, class_column=cc, delimiter=delim)


def _write_manifest(out_dir: Path, args) -> None:
    digest = hashlib.sha256(Path(args.dataset).read_bytes()).hexdigest()
    manifest = {
        "command": sys.argv,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
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


def cmd_stats(args) -> int:
    d = _load(args)
    stats = feature_stats(d)
    rows = []
    for j, s in enumerate(stats):
        rows.append(
            [
                str(j),
                d.feature_names[j],
                f"{s.mean:.4f}",
                f"{s.std_dev:.4f}",
                "undef" if s.dispersion is None else f"{s.dispersion:.4f}",
                f"{s.c_correlation:.4f}",
            ]
        )
    if args.sort == "dispersion":
        rows.sort(key=lambda r: -1.0 if r[4] == "undef" else -float(r[4]))
    elif args.sort == "ccorr":
        rows.sort(key=lambda r: -abs(float(r[5])))
    _print_table(["idx", "feature", "mean", "std", "dispersion", "c_corr"], rows)
    return EXIT_OK


def _selection_config(args) -> SelectionConfig:
    return SelectionConfig(
        delta=args.delta,
        tau_c=args.tau_c,
        tau_f=args.tau_f,
        relief_samples=args.samples,
        bffs_patience=args.patience,
        seed=args.seed,
    )


def cmd_select(args) -> int:
    if args.samples < 1 or args.patience < 1:
        print("error: --samples and --patience must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    d = _load(args)
    cfg = _selection_config(args)
    if args.method == "ifecf":
        result = ife_cf(d, cfg)
    elif args.method == "cfs":
        result = cfs_search(d, cfg)
    else:
        weights = relief(d, cfg)
        kept = [j for j, w in enumerate(weights) if w >= args.relief_threshold]
        if not kept:
            raise SelectionError("relief threshold eliminates every feature")
        eliminated = [
            (j, "below-relief-threshold", float(weights[j]))
            for j in range(d.n_features)
            if j not in kept
        ]
        result = SelectionResult(kept=kept, eliminated=eliminated)
        print("relief weights:", " ".join(f"{w:.4f}" for w in weights))

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=2)
    kept_names = [d.feature_names[j] for j in result.kept]
    print(f"kept {len(result.kept)}/{d.n_features}: {', '.join(kept_names)}")
    if result.merit_trace:
        best = max(m for _, m in result.merit_trace)
        print(f"best merit: {best:.6f}")
    if result.eliminated:
        rows = [
            [str(j), d.feature_names[j], reason, f"{score:.4f}"]
            for j, reason, score in result.eliminated
        ]
        _print_table(["idx", "feature", "reason", "score"], rows)
    return EXIT_OK


def cmd_train(args) -> int:
    d = _load(args)
    cfg = LVQConfig(alpha=args.alpha, epochs=args.epochs,
                    prototypes_per_class=args.prototypes, seed=args.seed)
    model = lvq_train(init_codebook(d, cfg), d, cfg)
    model.save(args.out)
    print(f"trained {len(model.classes)} prototypes over {cfg.epochs} epochs -> {args.out}")
    return EXIT_OK


def cmd_classify(args) -> int:
    model = LVQModel.load(args.model)
    d = _load(args)
    res = evaluate(model, d)
    from .lvq import classify_batch

    for i, pred in enumerate(classify_batch(model, d.features)):
        print(f"{i}\t{d.class_names[pred]}")
    print(f"accuracy: {res.correct}/{res.total} = {100 * res.accuracy:.2f}%",
          file=sys.stderr)
    return EXIT_OK


def cmd_bench(args) -> int:
    d = _load(args)
    selection = None
    if args.select:
        selection = SelectionConfig(
            delta=args.delta, tau_c=args.tau_c, tau_f=args.tau_f, seed=args.seed
        )
    cfg = SweepConfig(
        fractions=tuple(args.fractions),
        alphas=tuple(args.alphas),
        repeats=args.repeats,
        seed=args.seed,
        selection=selection,
        eval_target=args.eval_target,
        epochs=args.epochs,
        normalize=not args.no_normalize,
    )
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
    (out_dir / "report.json").write_text(
        json.dumps(report.to_dict(), indent=2), encoding="utf-8"
    )
    _write_manifest(out_dir, args)
    if not args.no_plot:
        sweep_charts(report.to_dict(), out_dir)
    print(f"wrote {len(report.records)} cell records to {out_dir}")
    return EXIT_OK


def cmd_plot(args) -> int:
    report = json.loads(Path(args.report).read_text(encoding="utf-8"))
    written = sweep_charts(report, args.out)
    for p in written:
        print(p)
    return EXIT_OK


def _add_dataset_args(p):
    p.add_argument("dataset", help="path to the dataset file")
    p.add_argument("--class-column", default=None,
                   help="label column name or 0-based index (default: last)")
    p.add_argument("--format", choices=["csv", "space"], default="csv")


def _add_selection_args(p):
    p.add_argument("--delta", type=float, default=0.05, help="dispersion threshold")
    p.add_argument("--tau-c", type=float, default=0.1, help="class-correlation floor")
    p.add_argument("--tau-f", type=float, default=0.9, help="redundancy ceiling")
    p.add_argument("--samples", type=int, default=100, help="relief sample count")
    p.add_argument("--patience", type=int, default=5, help="best-first search patience")
    p.add_argument("--relief-threshold", type=float, default=0.0)


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
    _add_selection_args(p)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("train", help="train an LVQ model")
    _add_dataset_args(p)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--prototypes", type=int, default=1)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True, help="model JSON output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="classify a dataset with a saved model")
    p.add_argument("model", help="model JSON path")
    _add_dataset_args(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bench", help="run the split x learning-rate sweep")
    _add_dataset_args(p)
    p.add_argument("--fractions", type=float, nargs="+",
                   default=[round(0.1 * i, 1) for i in range(1, 10)])
    p.add_argument("--alphas", type=float, nargs="+", default=[0.1, 0.2, 0.3, 0.4, 0.5])
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--eval-target", choices=["test", "train", "whole"], default="test")
    p.add_argument("--select", action="store_true",
                   help="also run the reduced (filtered) variant")
    _add_selection_args(p)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SelectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_SELECTION
    except (DataError, BenchError, LVQError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
