"""Dependency-free SVG line charts for sweep reports: metric vs train split,
one line per learning rate."""

from __future__ import annotations

from pathlib import Path

from .bench import variant_grids

_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 60, 130, 40, 50


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo or 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in vals]


def line_chart(title: str, x_label: str, y_label: str,
               x_values: list[float], series: dict[str, list[float]]) -> str:
    """Render a multi-series line chart as an SVG 1.1 document string."""
    all_y = [v for ys in series.values() for v in ys]
    y_lo, y_hi = min(all_y), max(all_y)
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1, y_hi + 1
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    xs = _scale(x_values, min(x_values), max(x_values), _ML, _W - _MR)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # axes
    parts.append(
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>'
    )
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>')
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2})">{y_label}</text>'
    )
    # y ticks
    for i in range(5):
        yv = y_lo + i * (y_hi - y_lo) / 4
        ypix = _scale([yv], y_lo, y_hi, _H - _MB, _MT)[0]
        parts.append(
            f'<line x1="{_ML - 4}" y1="{ypix:.1f}" x2="{_ML}" y2="{ypix:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{ypix + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{yv:.1f}</text>'
        )
    # x ticks
    for xv, xpix in zip(x_values, xs):
        parts.append(
            f'<line x1="{xpix:.1f}" y1="{_H - _MB}" x2="{xpix:.1f}" y2="{_H - _MB + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{xpix:.1f}" y="{_H - _MB + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{xv:g}</text>'
        )
    # series
    for si, (name, ys) in enumerate(series.items()):
        color = _PALETTE[si % len(_PALETTE)]
        ypix = _scale(ys, y_lo, y_hi, _H - _MB, _MT)
        pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ypix))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        ly = _MT + 16 * si
        parts.append(
            f'<line x1="{_W - _MR + 10}" y1="{ly}" x2="{_W - _MR + 30}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_W - _MR + 36}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def sweep_charts(report_dict: dict, out_dir) -> list[Path]:
    """Emit accuracy-vs-split and time-vs-split charts per variant of a
    ``report.json`` dict, read and checked by ``bench.variant_grids``: a
    malformed dict raises ``BenchError`` before ``out_dir`` is made."""
    grids = variant_grids(report_dict)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for variant, grid in grids.items():
        for metric, ylab in (("accuracy", "accuracy (%)"), ("classify_ms", "classify time (ms)")):
            series = {f"alpha={a:g}": [row[ai][metric] for row in grid]
                      for ai, a in enumerate(report_dict["alphas"])}
            svg = line_chart(
                f"{metric.replace('_', ' ')} vs train split ({variant})",
                "train fraction",
                ylab,
                report_dict["fractions"],
                series,
            )
            path = out_dir / f"{metric}_{variant}.svg"
            path.write_text(svg, encoding="utf-8")
            written.append(path)
    return written
