"""CSV and SVG emission.

Floats are written with 17 significant digits so every value survives a
round trip through text, and rows keep grid order, making repeated runs
byte-identical.  The SVG writer is self-contained (no plotting library)
for the same reason.  The CSV writers build UTF-8 bytes and write them
to a file opened in binary mode; the *_text functions return the same
bytes decoded once.  Every CSV float is written by _g17, which gives the
bytes of b"%.17g" % v for a whole array at once: a numpy kernel that
rounds each float exactly to its 17 digits (its docstring has the proof)
and lays them out through tables of digit groups, and % itself for the
few floats it does not decide.  The time-series writer reads samples as
(times, values) blocks, those of solver.evolve_blocks or a Trajectory's
own, of solver._BLOCK rows, so it holds the text of one block, not of
the run.  A time series that has settled repeats its samples bit for
bit, and a row with the bytes of another has its text too, so each
distinct row of a block is formatted once, by one _g17 call for all of
them: its columns after t.  A block's times are one _g17 call, and each
line is a time's text then its row's.  The sweep table is one _g17 call
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


# The %.17g kernel.  _TABLE holds four ASCII bytes per entry, read as one
# uint32: at _D4 + c the digits of c < 10000, at _D4S + c the same with
# their trailing '0's written as NUL, at _D3 + c a point and the digits of
# c < 1000, at _D3S + c that with its trailing '0's as NUL (and no point
# for c = 0), and at _D1 + c the digit of c < 10, NUL for 0, then NULs.
_W = 25            # bytes of a record: the widest text, -2.2250738585072014e-308, and a separator
_CHUNK = 2048      # floats per kernel pass, which bounds its temporaries
_D4, _D4S, _D3, _D3S, _D1 = 0, 10_000, 20_000, 21_000, 22_000


def _digit_table() -> np.ndarray:
    """_TABLE, filled through views of its bytes that index each entry by
    its digits."""
    table = np.zeros((22_010, 4), np.uint8)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for base in (_D4, _D4S):
        d4 = table[base:base + 10_000].reshape(10, 10, 10, 10, 4)
        for place in range(4):
            d4[..., place] = digits.reshape([10 if axis == place else 1 for axis in range(4)])
    for base in (_D3, _D3S):
        d3 = table[base:base + 1000].reshape(10, 10, 10, 4)
        d3[..., 0] = ord(".")
        for place in range(3):
            d3[..., place + 1] = digits.reshape([10 if axis == place else 1 for axis in range(3)])
    table[_D1 + 1:_D1 + 10, 0] = digits[1:]
    # a '0' that only '0's follow is NUL, and so is the point of .000
    d4 = table[_D4S:_D4S + 10_000].reshape(10, 10, 10, 10, 4)
    d4[:, :, :, 0, 3] = d4[:, :, 0, 0, 2] = d4[:, 0, 0, 0, 1] = d4[0, 0, 0, 0, 0] = 0
    d3 = table[_D3S:_D3S + 1000].reshape(10, 10, 10, 4)
    d3[:, :, 0, 3] = d3[:, 0, 0, 2] = d3[0, 0, 0, 1] = d3[0, 0, 0, 0] = 0
    return table.view(np.uint32)[:, 0]


_TABLE = _digit_table()

# By kk = k + 6, for the exponents k = -6 .. 16: 10**(16 - k), a double, and
# its Veltkamp split; with a the digits before the point (none for
# -4 <= k < 0, one in exponent notation) and z the zeros after it,
# 10**(17 - a), 10**a, 10**(10 + z), 10**(3 - z) and the bytes before the
# point, a or the 0 of 0.ddd.
_SPLIT = 2.0 ** 27 + 1
_P = np.array([float(10 ** p) for p in range(22, -1, -1)])
_P_HI = _P * _SPLIT - (_P * _SPLIT - _P)
_P_LO = _P - _P_HI
_A = [max(k + 1, 0) if k >= -4 else 1 for k in range(-6, 17)]
_Z = [max(-k - 1, 0) if k >= -4 else 0 for k in range(-6, 17)]
_I_DIV = np.array([10 ** (17 - a) for a in _A])
_Q_MUL = np.array([10 ** a for a in _A])
_V_DIV = np.array([10 ** (10 + z) for z in _Z])
_V_MUL = np.array([10 ** (3 - z) for z in _Z])
_I_LEN = np.array([max(a, 1) for a in _A])
del _A, _Z
_SUFFIX = np.array([b"e-06", b"e-05"]).view(np.uint8).reshape(2, 4)     # by kk, k = -6, -5
_NAMED = np.array([b"0", b"-0", b"inf", b"-inf", b"nan"])


def _g17_digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """kk = k + 6 and the 17-digit integer r of each |x| = a that
    _g17_records decides; see its docstring."""
    kk = np.clip(np.log10(a) + 6.0, 0.0, 22.0).astype(np.intp)
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    while True:
        hi = a * _P[kk]
        p_hi, p_lo = _P_HI[kk], _P_LO[kk]
        lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
        up = (hi - 1e17) + lo >= 0
        down = (hi - 1e16) + lo < 0
        if not (up.any() or down.any()):
            r = hi.astype(np.int64)
            r += np.rint(lo).astype(np.int64)
            return kk, r
        kk += up
        kk -= down


def _g17_records(x: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """The records of at most _CHUNK floats x, one (_W,) uint8 row each:
    the bytes of b"%.17g" % x[j], NULs, and seps[j] in the last byte,
    which no text reaches.  The caller drops the NULs.

    %.17g rounds |x| half to even to 17 significant digits, d.ddd 10**k,
    and writes them in fixed notation for -4 <= k <= 16 and in exponent
    notation otherwise, without trailing zeros or a bare point.  The
    kernel decides the x with 1e-6 < |x| < 1e17, which are the doubles
    with k in [-6, 16]: 1e-6 is a double below 10**-6 and the next one
    is above it, and 1e17 is a double.  0, -0, inf, -inf and nan of
    either sign come from _NAMED, and the rest from % itself: |x| below
    10**-6 (the subnormals among them) or of 10**17 and up.

    Digits.  With p = 16 - k in [0, 22], 10**p is a double (5**22 <
    2**53), and Dekker's TwoProduct (Numer. Math. 18, 224 (1971)) gives
    hi = fl(|x| 10**p) and lo with hi + lo = |x| 10**p exactly: nothing
    overflows, and nothing underflows for |x| > 1e-6.  k is the exponent
    when 10**16 <= hi + lo < 10**17.  (hi - 10**16) + lo has the sign of
    hi + lo - 10**16: hi = 10**16 leaves lo, and any other hi is at least
    ulp(hi) >= 2 |lo| away from 10**16, as 10**16 is a double, so no
    rounding turns the sign; so for 10**17.  k starts at
    floor(log10 |x|), clipped to [-6, 16], and steps by one toward the
    range until both tests hold; the tests are exact, so the last bit of
    log10, which numpy's SIMD target may move, changes only how many
    steps are taken.  Then hi >= 10**16 > 2**53 is an even integer and
    |lo| <= ulp(hi) / 2 <= 8, so r = hi + rint(lo), rint rounding half to
    even as % does, is the 17-digit integer.  No r rounds up to 10**17:
    that needs a double below 10**(k + 1) by less than 5e-18 of it, and
    for k + 1 >= 0 the double below 10**(k + 1) is 2**-53 of it away, for
    k + 1 in [-5, -1] more than 8e-17.  Every other step is integer
    arithmetic or exact IEEE arithmetic, so the bytes do not depend on
    the SIMD target either.

    Layout.  Of the digits, a stand before the point (k + 1 for k >= 0,
    none for k < 0, one in exponent notation), after z = -k - 1 zeros
    for -4 <= k < 0.  i = r // 10**(17 - a) is the integer part, q =
    (r mod 10**(17 - a)) 10**a the other digits in 17 places, and the
    fraction is the 20 digits of v = q 10**(3 - z), split as vh =
    v // 10**13 = q // 10**(10 + z) and vl = v mod 10**13.  A text row is
    12 four-byte cells: i's 17 digits, padded with zeros, as 1, 4, 4, 4,
    4; the point and v as 3, 4, 4, 4, 4, 1; a NUL cell, all read from
    _TABLE.  A cell of v that only zeros follow is read in its stripped
    form, so the fraction ends at its last nonzero digit, and a zero v
    loses its point.  The text starts head = max(a, 1) bytes before the
    point, one more for a sign, which takes the place of a padding zero;
    exponent notation, at most 19 bytes, adds e-0 and -k in bytes 20-23,
    past NULs of the fraction."""
    n = len(x)
    a = np.abs(x)
    decided = (a > 1e-6) & (a < 1e17)
    a[~decided] = 1.0
    kk, r = _g17_digits(a)
    div = _I_DIV[kk]
    i = r // div
    q = (r - i * div) * _Q_MUL[kk]
    div = _V_DIV[kk]
    vh = q // div
    vl = (q - vh * div) * _V_MUL[kk]
    cells = np.empty((12, n), np.uint32)
    if i.max() < 10 ** 4:     # the common case, cheaper: the last cell holds every integer part
        cells[:4] = _TABLE[_D4]
        np.take(_TABLE, i, out=cells[4])
    else:
        c = i // 10 ** 16
        np.take(_TABLE, c, out=cells[0])
        i -= c * 10 ** 16
        c = i // 10 ** 8
        i -= c * 10 ** 8
        for row, group in ((1, c // 10 ** 4), (2, c % 10 ** 4),
                           (3, i // 10 ** 4), (4, i % 10 ** 4)):
            np.take(_TABLE, group, out=cells[row])
    group = vl % 10
    np.take(_TABLE, group + _D1, out=cells[10])
    zeros = group == 0      # only zeros follow the next cell to the left
    for row, group in ((9, vl // 10 % 10 ** 4), (8, vl // 10 ** 5 % 10 ** 4), (7, vl // 10 ** 9),
                       (6, vh % 10 ** 4)):
        np.take(_TABLE, group + zeros * _D4S, out=cells[row])
        zeros &= group == 0
    np.take(_TABLE, vh // 10 ** 4 + _D3 + zeros * (_D3S - _D3), out=cells[5])
    cells[11] = 0
    text = cells.T.copy()
    neg = np.signbit(x)
    windows = np.ndarray((n, 48 - _W + 1, _W), np.uint8, text, 0, (48, 1, 1))
    out = windows[np.arange(n), 20 - _I_LEN[kk] - neg]
    out[neg, 0] = ord("-")
    exp = np.flatnonzero(kk < 2)
    if exp.size:
        out[exp, 20:24] = _SUFFIX[kk[exp]]
    other = np.flatnonzero(~decided)
    if other.size:
        v = x[other]
        texts = _NAMED[np.where(np.isnan(v), 4, 2 * np.isinf(v) + np.signbit(v))].astype("S24")
        computed = np.flatnonzero((v != 0) & np.isfinite(v))
        texts[computed] = [b"%.17g" % f for f in v[computed].tolist()]
        out[other, :24] = texts[:, None].view(np.uint8)
    out[:, 24] = seps
    return out


def _g17(values: np.ndarray, seps: bytes) -> bytes:
    """The bytes of b"%.17g" % v for each float v of an (n, len(seps))
    array, row by row, each followed by its column's byte of seps: the
    records of _g17_records, _CHUNK floats at a time, less their NULs."""
    flat = np.ascontiguousarray(values, dtype=float).ravel()
    sep = np.tile(np.frombuffer(seps, np.uint8), len(values))
    parts = []
    for lo in range(0, flat.size, _CHUNK):
        records = _g17_records(flat[lo:lo + _CHUNK], sep[lo:lo + _CHUNK]).ravel()
        parts.append(records[records != 0].tobytes())
    return b"".join(parts)


def _sweep_csv_bytes(table: SweepTable) -> bytes:
    if not len(table):
        raise ValueError("refusing to write an empty table")
    seps = b"," * (len(SWEEP_HEADER) - 1) + b"\n"
    return ",".join(SWEEP_HEADER).encode() + b"\n" + _g17(table.values, seps)


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
    index, read once, each before the next is asked for.  A line is its
    time's text, from one _g17 call over the block's times, then its
    row's text: a comma and the row's columns after t, summed and
    formatted once per distinct row of a block, by one _g17 call for all
    of them, then a newline (a row of no column has the newline alone).
    A block that repeated a row hands its row texts on to the next.  A
    block whose rows all have the bytes of its first row (one compare of
    its bits) joins its times with that row's text; any other joins each
    time with its own row's.  A bad weight map raises here, before the
    first line is asked for."""
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
    seps = b"," * (len(header) - 2) + b"\n"

    def row_texts(values: np.ndarray) -> list[bytes]:
        """The text after t of each row of an (N, dim) array."""
        if len(header) == 1:
            return [b"\n"] * len(values)
        cells = np.column_stack((values, *[currents(index, w, values) for w in weights]))
        return [b"," + line for line in _g17(cells, seps).splitlines(keepends=True)]

    def lines():
        yield (",".join(header) + "\n").encode()
        known = {}      # row texts by bytes, of the block before if it repeated a row
        for block_times, block in blocks:
            times = _g17(block_times[:, None], b"\n").splitlines()
            bits = block.view(np.int64)
            if (bits == bits[0]).all():     # a block of zero-width rows is one too
                key = block[0].tobytes()
                text = known[key] if key in known else row_texts(block[:1])[0]
                known = {key: text}
                yield text.join(times) + text
                continue
            keys = _row_keys(block)
            distinct = dict.fromkeys(keys)
            texts = {key: known[key] for key in distinct if key in known}
            fresh = [key for key in distinct if key not in texts]
            values = np.frombuffer(b"".join(fresh), dtype=float).reshape(len(fresh), dim)
            texts.update(zip(fresh, row_texts(values)))
            parts = [b""] * (2 * len(times))
            parts[::2] = times
            parts[1::2] = map(texts.__getitem__, keys)
            yield b"".join(parts)
            # a block without a repeated row has not settled, so its texts are not kept
            known = texts if len(texts) < len(times) else {}

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
    failure of that copy leaves it partly written.  An OSError that names
    no file (a failed write) or the new file names path."""
    if not os.path.lexists(path):
        _write_new_file(chunks, path)
        return
    try:
        with tempfile.TemporaryFile() as tmp:
            tmp.writelines(chunks)
            tmp.seek(0)
            with open(path, "wb") as fh:
                shutil.copyfileobj(tmp, fh)
    except OSError as exc:
        if exc.filename is not None:
            raise
        raise type(exc)(exc.errno, exc.strerror, path) from None


def _write_new_file(chunks: Iterable[bytes], path: str) -> None:
    """chunks written to a new file next to path, renamed to path once the
    last is written and removed on any failure; an OSError naming no file
    or the new file names path.  The new file's name does not grow with
    path's, so any name path may have leaves room for it."""
    temporary = os.path.join(os.path.dirname(path), f".{os.urandom(6).hex()}.tmp")
    created = False
    try:
        with open(temporary, "xb") as fh:
            created = True
            fh.writelines(chunks)
        os.replace(temporary, path)
        created = False
    except OSError as exc:
        if exc.filename not in (None, temporary):
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
