"""Rendering of run records: per-cell CSVs, a pairwise significance
table, and SVG learning curves with mean and min-max bands.

SVG output is written by hand (no plotting dependency) so rendering is a
pure function of the records: identical runs give byte-identical files.
"""

from __future__ import annotations

import io
import os
from functools import partial
from itertools import combinations

import numpy as np

from .errors import AllwasError, ConfigError, DataError
from .harness import RunRecord, cell_csv, read_cell
from .stats import bonferroni, wilcoxon_signed_rank

EXACT_WILCOXON_LIMIT = 60

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")


def load_records(directory) -> list:
    """The record of every cell under a directory (``harness.read_cell``):
    each ``<label>.csv`` with a meta file, in file-name order."""
    labels = [name[:-4] for name in sorted(os.listdir(directory)) if name.endswith(".csv")]
    records = [rec for rec in map(partial(read_cell, directory), labels) if rec is not None]
    if not records:
        raise DataError(f"no run records found in {directory}")
    return records


def paired_f1(a: RunRecord, b: RunRecord):
    """F1 vectors aligned on the (seed, iteration) cells both records share."""
    index_a = {(r.seed, r.iteration): r.f1 for r in a.rows}
    shared = [r for r in b.rows if (r.seed, r.iteration) in index_a]
    return (np.array([index_a[r.seed, r.iteration] for r in shared]),
            np.array([r.f1 for r in shared]))


def pair_test(a: RunRecord, b: RunRecord):
    """Signed-rank test of two records' paired F1: (xs, ys, statistic, p).

    Fewer than five shared cells, or fewer than five that differ, give
    (nan, 1.0); up to ``EXACT_WILCOXON_LIMIT`` cells use the exact null.
    """
    xs, ys = paired_f1(a, b)
    if len(xs) < 5 or int(np.sum(xs != ys)) < 5:
        return xs, ys, float("nan"), 1.0
    mode = "exact" if len(xs) <= EXACT_WILCOXON_LIMIT else "normal-approx"
    stat, p = wilcoxon_signed_rank(xs, ys, mode=mode)
    return xs, ys, stat, p


def significance_table(records, out=None, pairs=None):
    """Signed-rank comparisons of the records' ``pairs`` of labels (default:
    every pair of records), Bonferroni corrected by their number; each row
    names the cell with the higher mean F1 (or "none") as ``better``.
    Writes the table as CSV to the text stream ``out``, if given, and
    returns its rows ``(cell_a, cell_b, n, statistic, p, p_bonferroni,
    better)``."""
    by_label = {rec.label: rec for rec in records}
    pairs = (list(combinations(records, 2)) if pairs is None
             else [(by_label[a], by_label[b]) for a, b in pairs])
    m = max(1, len(pairs))
    lines = ["cell_a,cell_b,n,statistic,p,p_bonferroni,better"]
    results = []
    for a, b in pairs:
        xs, ys, stat, p = pair_test(a, b)
        p_adj = bonferroni(p, m)
        diff = float(np.mean(xs - ys)) if len(xs) else 0.0
        better = a.label if diff > 0 else (b.label if diff < 0 else "none")
        results.append((a.label, b.label, len(xs), stat, p, p_adj, better))
        lines.append(f"{a.label},{b.label},{len(xs)},{stat:.10g},"
                     f"{p:.10g},{p_adj:.10g},{better}")
    if out is not None:
        out.write("\n".join(lines) + "\n")
    return results


def _svg_polyline(points, color, width=2.0):
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return (f'<polyline fill="none" stroke="{color}" stroke-width="{width}"'
            f' points="{coords}" />')


def _svg_polygon(points, color):
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return (f'<polygon fill="{color}" fill-opacity="0.15" '
            f'stroke="none" points="{coords}" />')


def learning_curve_svg(records, title: str) -> str:
    """One SVG: per record the mean F1 curve over labeled counts with a
    min-max band across repeats. The title and the labels are escaped."""
    # Imported here, as xml.sax.saxutils loads urllib.request, http and email.
    from xml.sax.saxutils import escape

    width, height = 640, 420
    left, right, top, bottom = 60, 150, 40, 50
    plot_w = width - left - right
    plot_h = height - top - bottom

    xs_all = sorted({row.labeled for rec in records for row in rec.rows})
    if not xs_all:
        raise AllwasError("no rows to plot")
    x_min, x_max = xs_all[0], xs_all[-1]
    span = max(1, x_max - x_min)

    def sx(x):
        return left + (x - x_min) / span * plot_w

    def sy(y):
        return top + (1.0 - y) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white" />',
        f'<text x="{left}" y="24" font-size="15" font-family="sans-serif">'
        f'{escape(title)}</text>',
    ]
    # Axes and ticks.
    parts.append(_svg_polyline([(left, top), (left, top + plot_h),
                                (left + plot_w, top + plot_h)], "#333333", 1.0))
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(frac)
        parts.append(_svg_polyline([(left - 4, y), (left, y)], "#333333", 1.0))
        parts.append(f'<text x="{left - 8:.2f}" y="{y + 4:.2f}" font-size="11" '
                     f'font-family="sans-serif" text-anchor="end">{frac:.2f}</text>')
    for x in xs_all:
        px = sx(x)
        parts.append(_svg_polyline([(px, top + plot_h), (px, top + plot_h + 4)],
                                   "#333333", 1.0))
        parts.append(f'<text x="{px:.2f}" y="{top + plot_h + 18:.2f}" '
                     f'font-size="11" font-family="sans-serif" '
                     f'text-anchor="middle">{x}</text>')
    parts.append(f'<text x="{left + plot_w / 2:.2f}" y="{height - 12}" '
                 f'font-size="12" font-family="sans-serif" '
                 f'text-anchor="middle">labeled examples</text>')
    parts.append(f'<text x="16" y="{top + plot_h / 2:.2f}" font-size="12" '
                 f'font-family="sans-serif" text-anchor="middle" '
                 f'transform="rotate(-90 16 {top + plot_h / 2:.2f})">F1</text>')

    for idx, rec in enumerate(records):
        color = _PALETTE[idx % len(_PALETTE)]
        mean = rec.curve(np.mean)
        low = rec.curve(np.min)
        high = rec.curve(np.max)
        xs = sorted(mean)
        band = ([(sx(x), sy(high[x])) for x in xs]
                + [(sx(x), sy(low[x])) for x in reversed(xs)])
        parts.append(_svg_polygon(band, color))
        parts.append(_svg_polyline([(sx(x), sy(mean[x])) for x in xs], color))
        ly = top + 16 + 18 * idx
        lx = left + plot_w + 12
        parts.append(_svg_polyline([(lx, ly - 4), (lx + 22, ly - 4)], color))
        parts.append(f'<text x="{lx + 28:.2f}" y="{ly:.2f}" font-size="11" '
                     f'font-family="sans-serif">{escape(rec.label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def validate_svg(text: str) -> None:
    """Minimal internal schema: parses as XML, svg root with viewBox, at
    least one polyline."""
    # Imported here, so that importing allwas loads no xml.etree or pyexpat.
    import xml.etree.ElementTree as ET

    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise AllwasError(f"SVG is not well-formed XML: {exc}") from exc
    if not root.tag.endswith("svg"):
        raise AllwasError(f"root element is {root.tag!r}, not svg")
    if "viewBox" not in root.attrib:
        raise AllwasError("svg root lacks a viewBox")
    ns = root.tag[: -len("svg")]
    if not root.findall(f".//{ns}polyline"):
        raise AllwasError("svg has no polyline elements")


def report(records, out_dir) -> list:
    """Write canonical per-cell CSVs, the significance table, and one
    learning-curve SVG per seed setting. Returns the written paths.

    Every file is rendered, and every SVG validated, before the first is
    written, so a failure writes nothing. A CSV it would write that is a
    cell's (the cell's meta file is beside it) is a ConfigError."""
    table = io.StringIO()
    significance_table(records, table)
    files = {f"cell_{rec.label}.csv": cell_csv(rec.rows) for rec in records}
    files["significance.csv"] = table.getvalue()
    for name in files:
        if os.path.exists(os.path.join(out_dir, name[:-4] + ".meta.json")):
            raise ConfigError(f"{out_dir} holds cell {name[:-4]!r}, which the report would "
                              "overwrite; write the report elsewhere with --out")
    for setting in sorted({row.setting for rec in records for row in rec.rows}):
        recs = [rec for rec in records if any(row.setting == setting for row in rec.rows)]
        svg = learning_curve_svg(recs, title=f"learning curves ({setting})")
        validate_svg(svg)
        files[f"curves_{setting}.svg"] = svg
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(out_dir, name), "w", newline="") as fh:
            fh.write(text)
    return [os.path.join(out_dir, name) for name in files]
