"""CSV and SVG emission.

Floats are written with 17 significant digits so every value survives a
round trip through text, and rows keep grid order, making repeated runs
byte-identical.  The SVG writer is self-contained (no plotting library)
for the same reason.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Sequence

from .experiments import SweepRow
from .model import DIAGONAL, RE_COHERENCE
from .observables import occupation_sum
from .solver import Trajectory

# the SweepRow fields written, in column order
SWEEP_HEADER = ("param", "I_S_numeric", "I_S_analytic", "I_D", "Delta_I_D", "max_violation")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def sweep_csv_text(rows: Sequence[SweepRow]) -> str:
    if not rows:
        raise ValueError("refusing to write an empty table")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    writer.writerows([_fmt(getattr(row, name)) for name in SWEEP_HEADER] for row in rows)
    return buf.getvalue()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_csv(rows: Sequence[SweepRow], path: str) -> None:
    """Sweep table as CSV; fails before creating the file when empty."""
    _write_text(path, sweep_csv_text(rows))


def column_token(entry) -> str:
    """CSV-safe column name of one slot (primes become a p suffix)."""
    tag = "".join(s.replace("'", "p") for s in entry.states)
    if entry.kind == DIAGONAL:
        return tag
    prefix = "re" if entry.kind == RE_COHERENCE else "im"
    return f"{prefix}_{tag}"


def timeseries_csv_text(traj: Trajectory, system_weights=None, detector_weights=None) -> str:
    """Columns t, every slot, I_S if system weights are given, I_D if detector ones."""
    header = ["t"] + [column_token(e) for e in traj.index.entries]
    sums = []
    if system_weights is not None:
        header.append("I_S")
        sums.append(occupation_sum(traj.index, system_weights))
    if detector_weights:
        header.append("I_D")
        sums.append(occupation_sum(traj.index, detector_weights))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for t, sample in zip(traj.times.tolist(), traj.values):
        sample = sample.tolist()
        writer.writerow([_fmt(v) for v in [t, *sample, *(f(sample) for f in sums)]])
    return buf.getvalue()


def write_timeseries_csv(traj: Trajectory, path: str,
                         system_weights=None, detector_weights=None) -> None:
    _write_text(path, timeseries_csv_text(traj, system_weights, detector_weights))


_SVG_W, _SVG_H = 640, 480
_ML, _MR, _MT, _MB = 80, 24, 24, 56


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def svg_text(rows: Sequence[SweepRow], x_label: str, y_label: str = "current") -> str:
    """Line chart of the numeric current over the sweep parameter, with a
    dashed companion line for the analytic reference where it exists."""
    if not rows:
        raise ValueError("refusing to plot an empty table")
    pts = [(r.param, r.I_S_numeric) for r in rows if math.isfinite(r.I_S_numeric)]
    if not pts:
        raise ValueError("no finite currents to plot")
    ref = [(r.param, r.I_S_analytic) for r in rows if math.isfinite(r.I_S_analytic)]

    xs = [p for p, _ in pts] + [p for p, _ in ref]
    ys = [v for _, v in pts] + [v for _, v in ref]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    if xhi == xlo:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    pad = 0.05 * (yhi - ylo) if yhi > ylo else max(abs(yhi), 1.0) * 0.05
    ylo, yhi = ylo - pad, yhi + pad

    def px(x: float) -> float:
        return _ML + (x - xlo) / (xhi - xlo) * (_SVG_W - _ML - _MR)

    def py(y: float) -> float:
        return _SVG_H - _MB - (y - ylo) / (yhi - ylo) * (_SVG_H - _MT - _MB)

    def poly(points) -> str:
        return " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in points)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_SVG_H - _MB}" x2="{_SVG_W - _MR}" y2="{_SVG_H - _MB}" '
        'stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_SVG_H - _MB}" stroke="black"/>',
    ]
    for tx in _ticks(xlo, xhi):
        x = px(tx)
        parts.append(f'<line x1="{x:.2f}" y1="{_SVG_H - _MB}" x2="{x:.2f}" '
                     f'y2="{_SVG_H - _MB + 6}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{_SVG_H - _MB + 20}" font-size="12" '
                     f'text-anchor="middle">{tx:.4g}</text>')
    for ty in _ticks(ylo, yhi):
        y = py(ty)
        parts.append(f'<line x1="{_ML - 6}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" '
                     'stroke="black"/>')
        parts.append(f'<text x="{_ML - 9}" y="{y + 4:.2f}" font-size="12" '
                     f'text-anchor="end">{ty:.4g}</text>')
    parts.append(f'<text x="{(_ML + _SVG_W - _MR) / 2:.2f}" y="{_SVG_H - 12}" font-size="14" '
                 f'text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="16" y="{(_MT + _SVG_H - _MB) / 2:.2f}" font-size="14" '
                 f'text-anchor="middle" transform="rotate(-90 16 {(_MT + _SVG_H - _MB) / 2:.2f})">'
                 f'{y_label}</text>')
    if ref:
        parts.append(f'<polyline points="{poly(ref)}" fill="none" stroke="#888888" '
                     'stroke-dasharray="6 4" stroke-width="1.5"/>')
    parts.append(f'<polyline points="{poly(pts)}" fill="none" stroke="#1f5fbf" '
                 'stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(rows: Sequence[SweepRow], path: str,
              x_label: str, y_label: str = "current") -> None:
    _write_text(path, svg_text(rows, x_label, y_label))
