"""CSV and SVG emission.

Floats are written with 17 significant digits so every value survives a
round trip through text, and rows keep grid order, making repeated runs
byte-identical.  The SVG writer is self-contained (no plotting library)
for the same reason.  The CSV writers build UTF-8 bytes with bytes %
calls and write them to a file opened in binary mode; the *_text
functions return the same bytes decoded once.  The time-series writer
reads samples as (times, values) blocks, those of solver.evolve_blocks
or a Trajectory's own, of solver._BLOCK rows, so it holds the text of
one block, not of the run.  A time series that has settled repeats its
samples bit for bit, and a row with the bytes of another has its text
too, so each distinct row of a block is formatted once, by one % call
for all of them, into its line format: %.17g for the time, then the
row's columns after t.  A block is then one % call over its times, its
format the first row's repeated when every row has the first row's
bytes, else its rows' formats joined.  The sweep table is one % call
too, over the table's values in row order.  One writer, _write_file,
writes every file, the table, the SVG and the time series, whole or not
at all: the bytes stream into a new file next to a new path, renamed to
it once the last byte is written, or into an unnamed temporary file that
an existing path takes in full.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import sys
import tempfile
from typing import Iterable, Iterator

import numpy as np

from .experiments import SWEEP_HEADER, SweepTable
from .model import DIAGONAL, RE_COHERENCE, IndexMap
from .observables import currents
from .solver import _BLOCK, Trajectory


def _sweep_csv_bytes(table: SweepTable) -> bytes:
    if not len(table):
        raise ValueError("refusing to write an empty table")
    row_format = b",".join([b"%.17g"] * len(SWEEP_HEADER)) + b"\n"
    values = tuple(table.values.ravel().tolist())
    return ",".join(SWEEP_HEADER).encode() + b"\n" + (row_format * len(table)) % values


def sweep_csv_text(table: SweepTable) -> str:
    return _sweep_csv_bytes(table).decode()


def write_csv(table: SweepTable, path: str) -> None:
    """Sweep table as CSV, written to path whole or not at all by
    _write_file; an empty table fails before any file is touched."""
    _write_file([_sweep_csv_bytes(table)], path)


def column_token(entry) -> str:
    """CSV-safe column name of one slot (primes become a p suffix)."""
    tag = "".join(s.replace("'", "p") for s in entry.states)
    if entry.kind == DIAGONAL:
        return tag
    prefix = "re" if entry.kind == RE_COHERENCE else "im"
    return f"{prefix}_{tag}"


def _row_keys(values: np.ndarray) -> list[bytes]:
    """The bytes of each row of an (N, dim) float array, dim > 0."""
    values = np.ascontiguousarray(values)
    row = np.dtype((np.void, values.itemsize * values.shape[1]))
    return values.view(row).ravel().tolist()


def _timeseries_lines(index: IndexMap, blocks: Iterable[tuple[np.ndarray, np.ndarray]],
                      system_weights, detector_weights) -> Iterator[bytes]:
    """The header line, then the sample lines one block at a time, all as
    UTF-8 bytes; blocks are (times, values) pairs in the slot layout of
    index, read once, each before the next is asked for.  A row's line
    format is %.17g for its time followed by the text of its columns after
    t, summed and formatted once per distinct row of a block, by one %
    call for all of them; a block that repeated a row hands its formats on
    to the next.  A block is one % call over its times: a block whose rows
    all have the bytes of its first row (one compare of its bits) repeats
    that row's format, any other joins its rows' formats.  No format holds
    a % but its first, as no %.17g text holds one.  A bad weight map
    raises here, before the first line is asked for."""
    header = ["t"] + [column_token(e) for e in index.entries]
    weights = []
    if system_weights is not None:
        header.append("I_S")
        weights.append(system_weights)
    if detector_weights:
        header.append("I_D")
        weights.append(detector_weights)
    dim = len(index)
    for w in weights:      # a weight on a missing slot raises on zero rows too
        currents(index, w, np.empty((0, dim)))
    # %% leaves the %.17g of the time; a NUL, which no %.17g text holds, to split on
    row_format = b"%%.17g" + b",%.17g" * (len(header) - 1) + b"\n\0"

    def line_formats(values: np.ndarray) -> list[bytes]:
        """The line format of each row of an (N, dim) array."""
        sums = [currents(index, w, values) for w in weights]
        cells = np.column_stack((values, *sums)).ravel().tolist()
        return (row_format * len(values) % tuple(cells)).split(b"\0")[:len(values)]

    def lines():
        yield (",".join(header) + "\n").encode()
        known = {}      # line formats by bytes, of the block before if it repeated a row
        for block_times, block in blocks:
            times = tuple(block_times.tolist())
            bits = block.view(np.int64)
            if (bits == bits[0]).all():     # a block of zero-width rows is one too
                key = block[0].tobytes()
                fmt = known[key] if key in known else line_formats(block[:1])[0]
                known = {key: fmt}
                yield fmt * len(times) % times
                continue
            keys = _row_keys(block)
            distinct = dict.fromkeys(keys)
            formats = {key: known[key] for key in distinct if key in known}
            fresh = [key for key in distinct if key not in formats]
            values = np.frombuffer(b"".join(fresh), dtype=float).reshape(len(fresh), dim)
            formats.update(zip(fresh, line_formats(values)))
            yield b"".join(map(formats.__getitem__, keys)) % times
            # a block without a repeated row has not settled, so its formats are not kept
            known = formats if len(formats) < len(times) else {}

    return lines()


def timeseries_csv_text(traj: Trajectory, system_weights=None, detector_weights=None) -> str:
    """Columns t, every slot, I_S if system weights are given, I_D if detector ones."""
    lines = _timeseries_lines(traj.index, traj.blocks(), system_weights, detector_weights)
    return b"".join(lines).decode()


def write_timeseries_csv(traj: Trajectory, path: str,
                         system_weights=None, detector_weights=None) -> None:
    """The bytes of timeseries_csv_text written to path by
    write_timeseries_blocks."""
    write_timeseries_blocks(traj.index, traj.blocks(), path, system_weights, detector_weights)


def write_timeseries_blocks(index: IndexMap, blocks: Iterable[tuple[np.ndarray, np.ndarray]],
                            path: str, system_weights=None, detector_weights=None) -> None:
    """The time series of (times, values) blocks, such as those of
    solver.evolve_blocks, written to path a block at a time, whole or not
    at all, by _write_file.  A bad weight map fails before any file is
    created.  An OSError is raised only once the blocks are all stepped,
    so that an error they raise (a step over the trace budget) wins, as it
    would if path were opened after the run."""
    blocks = iter(blocks)
    lines = _timeseries_lines(index, blocks, system_weights, detector_weights)
    try:
        _write_file(lines, path)
    except OSError:
        for _ in blocks:    # the run's own error first, as above
            pass
        raise


def _write_file(chunks: Iterable[bytes], path: str) -> None:
    """The bytes of chunks written to path whole or not at all: path is
    not touched until the last chunk is written.  A new path is made as a
    new file in its directory (which must be writable) by _write_new_file.
    An existing path (a file, a link, a device, a pipe) takes the chunks
    from an unnamed temporary file once they are all there, written into
    as by open(path, "wb"), so it keeps its links, mode and owner; only a
    failure of that copy leaves it partly written.  An OSError names path
    where it would name the new file."""
    if os.path.lexists(path):
        with tempfile.TemporaryFile() as tmp:
            tmp.writelines(chunks)
            tmp.seek(0)
            with open(path, "wb") as fh:
                shutil.copyfileobj(tmp, fh)
    else:
        _write_new_file(chunks, path)


def _write_new_file(chunks: Iterable[bytes], path: str) -> None:
    """chunks written to a new file next to path, renamed to path once the
    last is written and removed on any failure; an OSError naming the new
    file names path.  The new file's name does not grow with path's, so
    any name path may have leaves room for it."""
    temporary = os.path.join(os.path.dirname(path), f".{os.urandom(6).hex()}.tmp")
    created = False
    try:
        with open(temporary, "xb") as fh:
            created = True
            fh.writelines(chunks)
        os.replace(temporary, path)
        created = False
    except OSError as exc:
        if exc.filename != temporary:
            raise
        raise type(exc)(exc.errno, exc.strerror, path) from None
    finally:
        if created:
            with contextlib.suppress(OSError):
                os.remove(temporary)


_SVG_W, _SVG_H = 640, 480
_ML, _MR, _MT, _MB = 80, 24, 24, 56


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def svg_text(table: SweepTable, x_label: str) -> str:
    """Line chart of the numeric current I_S over the sweep parameter, with
    a dashed companion line for the analytic reference where it exists.
    A table with no finite current draws empty axes over its grid, around
    a current of 0."""
    if not len(table):
        raise ValueError("refusing to plot an empty table")
    params = table["param"].tolist()
    pts = [(p, v) for p, v in zip(params, table["I_S_numeric"].tolist()) if math.isfinite(v)]
    ref = [(p, v) for p, v in zip(params, table["I_S_analytic"].tolist()) if math.isfinite(v)]

    xs = [p for p, _ in pts + ref] or params
    ys = [v for _, v in pts + ref] or [0.0]
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
    if pts:
        parts.append(f'<polyline points="{poly(pts)}" fill="none" stroke="#1f5fbf" '
                     'stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(table: SweepTable, path: str, x_label: str) -> None:
    """svg_text written to path whole or not at all by _write_file; an
    empty table fails before any file is touched."""
    _write_file([svg_text(table, x_label).encode()], path)
