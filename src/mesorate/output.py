"""CSV and SVG emission.

Floats are written with 17 significant digits so every value survives a
round trip through text, and rows keep grid order, making repeated runs
byte-identical.  The SVG writer is self-contained (no plotting library)
for the same reason.  A time series that has settled repeats its samples
bit for bit, and a row with the bytes of another has its text too, so
the time-series writer formats the columns after t once per distinct row
of a block, as a row format with a slot for t in front, and reuses it.
A piece of rows is then one join of those formats and one % of its times,
and the file writer streams the pieces, not rows.  The sweep table is one
% call too, over the table's values in row order.
"""

from __future__ import annotations

import math
import sys
from typing import Iterator

import numpy as np

from .experiments import SWEEP_HEADER, SweepTable
from .model import DIAGONAL, RE_COHERENCE
from .observables import currents
from .solver import Trajectory

# samples per block of the time-series writer: the current columns of a
# block are read at once, so the writer holds one block (and the text of
# the block before, if that block repeated a row), not the run
_BLOCK = 1024
# rows per piece of text the time-series writer yields: a block is joined
# and formatted a piece at a time, never all at once
_PIECE = 128

def sweep_csv_text(table: SweepTable) -> str:
    if not len(table):
        raise ValueError("refusing to write an empty table")
    row_format = ",".join(["%.17g"] * len(SWEEP_HEADER)) + "\n"
    values = tuple(table.values.ravel().tolist())
    return ",".join(SWEEP_HEADER) + "\n" + (row_format * len(table)) % values


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_csv(table: SweepTable, path: str) -> None:
    """Sweep table as CSV; fails before creating the file when empty."""
    _write_text(path, sweep_csv_text(table))


def column_token(entry) -> str:
    """CSV-safe column name of one slot (primes become a p suffix)."""
    tag = "".join(s.replace("'", "p") for s in entry.states)
    if entry.kind == DIAGONAL:
        return tag
    prefix = "re" if entry.kind == RE_COHERENCE else "im"
    return f"{prefix}_{tag}"


def _row_keys(values: np.ndarray) -> list[bytes]:
    """The bytes of each row of an (N, dim) float array."""
    if not values.shape[1]:
        return [b""] * len(values)
    values = np.ascontiguousarray(values)
    row = np.dtype((np.void, values.itemsize * values.shape[1]))
    return values.view(row).ravel().tolist()


def _timeseries_lines(traj: Trajectory, system_weights, detector_weights) -> Iterator[str]:
    """The header line, then the sample lines _PIECE at a time, read
    _BLOCK samples at a time.  Rows with the same bytes have the same slot
    and current text, so the columns after t are summed and formatted once
    per distinct row of a block, into a row format whose only slot is t,
    and a block that repeated a row hands its formats on to the next.  A
    piece is one join of its rows' formats and one % of its times.  A bad
    weight map raises here, before the first line is asked for."""
    header = ["t"] + [column_token(e) for e in traj.index.entries]
    weights = []
    if system_weights is not None:
        header.append("I_S")
        weights.append(system_weights)
    if detector_weights:
        header.append("I_D")
        weights.append(detector_weights)
    for w in weights:      # a weight on a missing slot raises on zero rows too
        currents(traj.index, w, traj.values[:0])
    # "%.17g" for t, then the columns after it as text; that text holds no
    # %, since %.17g of a float gives only digits, a sign, ".", "e", "nan"
    # or "inf", so the one % of a piece fills exactly the t slots
    row_format = "%%.17g" + ",%.17g" * (len(header) - 1) + "\n"

    dim = len(traj.index)

    def lines():
        yield ",".join(header) + "\n"
        known = {}      # row formats by bytes, of the block before if it repeated a row
        for lo in range(0, len(traj.times), _BLOCK):
            rows = slice(lo, lo + _BLOCK)
            keys = _row_keys(traj.values[rows])
            distinct = dict.fromkeys(keys)
            formats = {key: known[key] for key in distinct if key in known}
            fresh = [key for key in distinct if key not in formats]
            values = np.frombuffer(b"".join(fresh), dtype=float).reshape(len(fresh), dim)
            sums = [currents(traj.index, w, values) for w in weights]
            formats.update(zip(fresh, [row_format % (*sample, *row_sums)
                                       for sample, *row_sums in zip(values.tolist(), *sums)]))
            times = traj.times[rows].tolist()
            for p in range(0, len(keys), _PIECE):
                piece = slice(p, p + _PIECE)
                yield "".join(map(formats.__getitem__, keys[piece])) % tuple(times[piece])
            # a block without a repeated row has not settled, so its formats are not kept
            known = formats if len(formats) < len(keys) else {}

    return lines()


def timeseries_csv_text(traj: Trajectory, system_weights=None, detector_weights=None) -> str:
    """Columns t, every slot, I_S if system weights are given, I_D if detector ones."""
    return "".join(_timeseries_lines(traj, system_weights, detector_weights))


def write_timeseries_csv(traj: Trajectory, path: str,
                         system_weights=None, detector_weights=None) -> None:
    """timeseries_csv_text streamed to path a piece of rows at a time,
    without holding the whole text; a bad weight map fails before the file
    is created."""
    lines = _timeseries_lines(traj, system_weights, detector_weights)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)


_SVG_W, _SVG_H = 640, 480
_ML, _MR, _MT, _MB = 80, 24, 24, 56


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def svg_text(table: SweepTable, x_label: str) -> str:
    """Line chart of the numeric current I_S over the sweep parameter, with
    a dashed companion line for the analytic reference where it exists."""
    if not len(table):
        raise ValueError("refusing to plot an empty table")
    params = table["param"].tolist()
    pts = [(p, v) for p, v in zip(params, table["I_S_numeric"].tolist()) if math.isfinite(v)]
    if not pts:
        raise ValueError("no finite currents to plot")
    ref = [(p, v) for p, v in zip(params, table["I_S_analytic"].tolist()) if math.isfinite(v)]

    xs = [p for p, _ in pts] + [p for p, _ in ref]
    ys = [v for _, v in pts] + [v for _, v in ref]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    if xhi == xlo:
        # a unit around one value; from |x| = 2**53 up x + 0.5 == x, so a
        # large value takes a margin of |x| * 2**-30, kept in the float range
        half = max(0.5, abs(xlo) * 2.0 ** -30)
        xlo, xhi = max(xlo - half, -sys.float_info.max), min(xhi + half, sys.float_info.max)
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
                 'I_S [e*rate]</text>')
    if ref:
        parts.append(f'<polyline points="{poly(ref)}" fill="none" stroke="#888888" '
                     'stroke-dasharray="6 4" stroke-width="1.5"/>')
    parts.append(f'<polyline points="{poly(pts)}" fill="none" stroke="#1f5fbf" '
                 'stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(table: SweepTable, path: str, x_label: str) -> None:
    _write_text(path, svg_text(table, x_label))
