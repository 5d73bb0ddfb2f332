import ast
import errno
import hashlib
import math
import os
import pathlib
import re
import stat
import threading
import tracemalloc

import numpy as np
import pytest

import mesorate
from mesorate import (
    IndexMap,
    RateSet,
    Trajectory,
    basis_state,
    evolve,
    run_fermi_sweep,
    run_sweep,
    scenario_table,
    write_csv,
    write_svg,
)
from mesorate.experiments import SWEEP_HEADER, SweepTable
from mesorate.output import (_BLOCK, _timeseries_lines, column_token, sweep_csv_text,
                             svg_text, timeseries_csv_text, write_timeseries_blocks,
                             write_timeseries_csv)
from mesorate.solver import StepTooLarge, evolve_blocks
from test_observables import reference_occupation_sum

ROW = (1.0, 0.5, 0.5, math.nan, math.nan, 0.0)     # in SWEEP_HEADER order
# rows 128 apart inside a time-series block: the repeat cases put runs up
# to, from and across these edges too
PIECE = 128


def assert_same_text(actual, expected):
    """actual == expected, two str or two bytes, failing with the first
    line that differs: pytest's own report of a failed == diffs the two
    texts, which for a time series of a few MB does not finish."""
    if actual == expected:
        return
    got, want = actual.splitlines(keepends=True), expected.splitlines(keepends=True)
    k = next((k for k, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
             min(len(got), len(want)))
    pytest.fail(f"texts of {len(got)} and {len(want)} lines differ first at line {k + 1}: "
                f"{got[k:k + 1]!r} != {want[k:k + 1]!r}")


def table(*rows) -> SweepTable:
    return SweepTable(np.array(rows, dtype=float).reshape(-1, len(SWEEP_HEADER)), None,
                      (None,) * len(rows))


class TestSweepCsv:
    def test_single_row_table_is_two_lines(self):
        text = sweep_csv_text(table(ROW))
        lines = text.split("\n")
        assert lines[0] == "param,I_S_numeric,I_S_analytic,I_D,Delta_I_D,max_violation"
        assert lines[1].startswith("1,0.5,0.5,nan,nan,0")
        assert text.endswith("\n")
        assert len([ln for ln in lines if ln]) == 2

    def test_lf_line_endings_only(self):
        assert "\r" not in sweep_csv_text(table(ROW, ROW))

    def test_full_precision_round_trip(self):
        value = 1.0 / 3.0 + 1e-16
        line = sweep_csv_text(table((value,) * len(SWEEP_HEADER))).split("\n")[1]
        for token in line.split(","):
            assert float(token) == value

    def test_empty_table_rejected_before_file_creation(self, tmp_path):
        path = tmp_path / "empty.csv"
        with pytest.raises(ValueError, match="empty"):
            write_csv(table(), str(path))
        assert not path.exists()

    def test_write_and_reread(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(table(ROW), str(path))
        assert path.read_text().startswith("param,")

    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_bytes_equal_the_per_row_reference(self, n):
        rng = np.random.default_rng(n)
        specials = [math.nan, -math.nan, -0.0, 0.0, math.inf, -math.inf, 5e-324, 1.0 / 3.0]
        values = rng.normal(size=(n, len(SWEEP_HEADER))) * 10.0 ** rng.integers(
            -300, 300, size=(n, len(SWEEP_HEADER)))
        values.ravel()[:len(specials)] = specials[:values.size]
        row_format = ",".join(["%.17g"] * len(SWEEP_HEADER)) + "\n"
        expected = ",".join(SWEEP_HEADER) + "\n" + "".join(
            row_format % tuple(row) for row in values.tolist())
        assert_same_text(sweep_csv_text(table(*values)), expected)
        assert "nan" in expected and ",-0," in expected

    def test_byte_determinism(self, tmp_path):
        base = RateSet(gamma_L=1, gamma_R=1, Gamma_L=1, Gamma_R=1)
        args = ("single_dot_set", base, "gamma_R", (1.0, 3.0, 9.0))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_sweep(*args), str(a))
        write_csv(run_sweep(*args), str(b))
        assert a.read_bytes() == b.read_bytes()


class TestTimeseriesCsv:
    def test_header_tokens(self):
        r = RateSet(gamma_L=1, gamma_R=1, Gamma_L=1, Gamma_R=1)
        g = scenario_table("single_dot_set").generator(r)
        traj = evolve(g, basis_state(g.index, "a"), 1.0, dt=0.5)
        w = scenario_table("single_dot_set").weights(r)
        text = timeseries_csv_text(traj, w["system"], w["detector"])
        assert text.split("\n")[0] == "t,a,b,ap,bp,I_S,I_D"
        assert len(text.strip().split("\n")) == 1 + len(traj.times)

    def test_weight_on_missing_slot_rejected(self, tmp_path):
        r = RateSet(gamma_L=1, gamma_R=1, Gamma_L=1, Gamma_R=1)
        g = scenario_table("single_dot_set").generator(r)
        traj = evolve(g, basis_state(g.index, "a"), 1.0, dt=0.5)
        with pytest.raises(ValueError, match="missing"):
            timeseries_csv_text(traj, {"c": 1.0})
        path = tmp_path / "ts.csv"
        system = scenario_table("single_dot_set").weights(r)["system"]
        for weights in (({"c": 1.0},), (system, {"c": 1.0})):
            with pytest.raises(ValueError, match="missing"):
                write_timeseries_csv(traj, str(path), *weights)
            assert not path.exists()


# A hand-built trajectory, independent of the integrator: signed zeros,
# extremes of the exponent range, a subnormal and values that need all 17
# significant digits, with non-dyadic weights so the current columns do too.
HAND_RATES = RateSet(gamma_L=1.0 / 3.0, gamma_R=0.7, Gamma_L=2.0 ** 0.5, Gamma_R=0.1,
                     Omega=1.0, U1=1.0, U2=2.0)
HAND_TIMES = [-0.0, 1e-300, 0.1 + 0.2, 1.0 / 3.0, 1e300]
HAND_VALUES = [
    [1.0, -0.0, 0.0, -0.0, 0.0, 0.0, -0.0, 0.0, -0.0, 0.0],
    [1e-300, 1e300, -1e-300, -1e300, 5e-324, 1.0 / 3.0, 2.0 / 3.0, 0.1, -0.1, math.pi],
    [0.1 + 0.2, 1.0 - 2.0 ** -52, 2.0 ** -1074, 123456789.12345678, -math.e, 1e-17,
     9007199254740993.0, 1.7976931348623157e308 / 1e10, -2.2250738585072014e-308, 1e22],
    [math.sqrt(2.0), -math.sqrt(3.0), 1e-5 / 3.0, 7e-8, 0.30000000000000004, -1e-320,
     6.02214076e23 / 7.0, 1.0 / 7.0, -5.0 / 11.0, 0.5],
    [0.25, 0.25, 0.125, 0.125, 0.0625, 0.0625, 0.0, -1.0 / 9.0, 1.0 / 9.0, -0.0],
]
HAND_SHA256 = "eeb7f5e8eef360a3ddccd1090b2e632e557078eb667c813e535d39b88e186efc"


class TestTimeseriesBytes:
    def hand_trajectory(self):
        g = scenario_table("double_dot_set").generator(HAND_RATES)
        return Trajectory(np.array(HAND_TIMES), np.array(HAND_VALUES), g.index)

    def test_hand_built_trajectory_bytes(self):
        w = scenario_table("double_dot_set").weights(HAND_RATES)
        text = timeseries_csv_text(self.hand_trajectory(), w["system"], w["detector"])
        assert hashlib.sha256(text.encode()).hexdigest() == HAND_SHA256

    def test_file_bytes_equal_text(self, tmp_path):
        traj = self.hand_trajectory()
        w = scenario_table("double_dot_set").weights(HAND_RATES)
        for weights in ((), (w["system"],), (w["system"], w["detector"])):
            path = tmp_path / "ts.csv"
            write_timeseries_csv(traj, str(path), *weights)
            assert_same_text(path.read_bytes(), timeseries_csv_text(traj, *weights).encode())


def reference_timeseries_text(traj, system_weights=None, detector_weights=None):
    """The time-series CSV one row at a time, each current column the
    per-state occupation sum of the row's Python floats."""
    header = ["t"] + [column_token(e) for e in traj.index.entries]
    sums = []
    if system_weights is not None:
        header.append("I_S")
        sums.append(reference_occupation_sum(traj.index, system_weights))
    if detector_weights:
        header.append("I_D")
        sums.append(reference_occupation_sum(traj.index, detector_weights))
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    lines = [",".join(header) + "\n"]
    for t, sample in zip(traj.times.tolist(), traj.values.tolist()):
        lines.append(row_format % (t, *sample, *[f(sample) for f in sums]))
    return "".join(lines)


class TestTimeseriesBlocks:
    """The current columns are read a block of samples at a time; the bytes
    are those of the per-row reference on either side of a block edge."""

    def random_trajectory(self, n):
        rng = np.random.default_rng(n)
        g = scenario_table("double_dot_set").generator(HAND_RATES)
        values = rng.normal(size=(n, g.dim)) * 10.0 ** rng.integers(-300, 300, size=(n, g.dim))
        values[rng.random(values.shape) < 0.05] = -0.0
        values[rng.random(values.shape) < 0.01] = math.nan
        values[:len(HAND_VALUES)] = HAND_VALUES
        return Trajectory(np.cumsum(rng.exponential(size=n)), values, g.index)

    @pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_bytes_at_block_edges(self, tmp_path, n):
        traj = self.random_trajectory(n)
        w = scenario_table("double_dot_set").weights(HAND_RATES)
        for weights in ((), (w["system"],), (w["system"], w["detector"])):
            expected = reference_timeseries_text(traj, *weights)
            assert expected.count("\n") == n + 1
            assert_same_text(timeseries_csv_text(traj, *weights), expected)
            path = tmp_path / "ts.csv"
            write_timeseries_csv(traj, str(path), *weights)
            assert_same_text(path.read_bytes(), expected.encode())

    def test_signed_zero_breaks_a_uniform_block(self):
        # block 1 repeats one row but for -0.0 in one slot of one row:
        # equal under ==, not in its bits, so that block is not uniform
        traj = repeating_trajectory(2 * _BLOCK + 3, runs(_BLOCK + 1, 2 * _BLOCK))
        values = np.array(traj.values)
        a = traj.index.diagonal("a")
        values[_BLOCK:2 * _BLOCK, a] = 0.0
        values[_BLOCK + 500, a] = -0.0
        traj = Trajectory(traj.times, values, traj.index)
        w = scenario_table("double_dot_set").weights(HAND_RATES)
        for weights in ((), (w["system"],), (w["system"], w["detector"])):
            text = timeseries_csv_text(traj, *weights)
            assert_same_text(text, reference_timeseries_text(traj, *weights))
            column = [line.split(",")[1 + a] for line in text.splitlines()[1 + _BLOCK:]]
            assert column[:_BLOCK].count("-0") == 1 and column[500] == "-0"

    @pytest.mark.parametrize("n", [1, _BLOCK + PIECE + 1])
    def test_zero_slot_trajectory(self, n):
        # rows of no slot all have the bytes of the first: every block is
        # uniform, with no text after t but the currents
        traj = Trajectory(np.arange(n) / 3.0, np.zeros((n, 0)), IndexMap(()))
        for weights in ((), ({},), ({}, {})):
            text = timeseries_csv_text(traj, *weights)
            assert_same_text(text, reference_timeseries_text(traj, *weights))
            assert text.count("\n") == n + 1
        header, *blocks = _timeseries_lines(traj.index, traj.blocks(), {}, None)
        assert header == b"t,I_S\n" and blocks[0].startswith(b"0,0\n")
        assert [block.count(b"\n") for block in blocks] == block_rows(n)


def block_rows(n):
    """The rows of each block of an n-row time series."""
    return [min(_BLOCK, n - lo) for lo in range(0, n, _BLOCK)]


def repeating_trajectory(n, copies, seed=0):
    """n random rows; (dst, src) in copies makes row dst a copy of row src."""
    rng = np.random.default_rng(seed)
    g = scenario_table("double_dot_set").generator(HAND_RATES)
    values = rng.normal(size=(n, g.dim)) * 10.0 ** rng.integers(-300, 300, size=(n, g.dim))
    for dst, src in copies:
        values[dst] = values[src]
    return Trajectory(np.cumsum(rng.exponential(size=n)), values, g.index)


def runs(start, stop):
    """Rows start..stop-1 repeat row start - 1."""
    return [(k, start - 1) for k in range(start, stop)]


def cycle(start, stop, period):
    """From row start on, each row repeats the row period before it."""
    return [(k, k - period) for k in range(start, stop)]


REPEAT_CASES = {
    "run_straddles_block_edge": (3 * _BLOCK, runs(_BLOCK - 3, _BLOCK + 4)),
    "run_starts_at_block_edge": (2 * _BLOCK, runs(_BLOCK, _BLOCK + 2)),
    "run_ends_at_block_edge": (2 * _BLOCK, runs(_BLOCK - 5, _BLOCK)),
    "short_final_block": (2 * _BLOCK + 7, runs(2 * _BLOCK - 2, 2 * _BLOCK + 7)),
    "repeat_at_rows_0_1": (10, runs(1, 2)),
    "every_row_repeats_the_first": (_BLOCK + 2, runs(1, _BLOCK + 2)),
    "cycle_across_block_edges": (3 * _BLOCK + 5, cycle(300, 3 * _BLOCK + 5, 226)),
    "cycle_longer_than_a_block": (4 * _BLOCK, cycle(_BLOCK + 10, 4 * _BLOCK, _BLOCK + 3)),
    "no_rows": (0, []),
    # runs at the PIECE-row edges inside a block
    "run_starts_at_piece_edge": (_BLOCK, runs(3 * PIECE, 3 * PIECE + 9)),
    "run_ends_at_piece_edge": (2 * _BLOCK, runs(_BLOCK + 2 * PIECE - 7, _BLOCK + 2 * PIECE)),
    "run_straddles_piece_edge": (_BLOCK, runs(PIECE - 2, PIECE + 3)),
    "settled_block_in_pieces": (3 * _BLOCK, runs(_BLOCK - 10, 3 * _BLOCK)),
    "short_final_piece": (2 * _BLOCK + PIECE + 3, runs(2 * _BLOCK + 1, 2 * _BLOCK + PIECE + 3)),
    "one_row_final_piece": (_BLOCK + 1, runs(_BLOCK - 3, _BLOCK + 1)),
    # blocks whose rows all have the bytes of the first, and blocks that miss by one row
    "uniform_block_the_block_before_never_held": (2 * _BLOCK + 3, runs(_BLOCK + 1, 2 * _BLOCK)),
    "uniform_block_but_its_last_row": (2 * _BLOCK + 5, runs(_BLOCK, 2 * _BLOCK - 1)),
    "uniform_block_but_its_first_row": (3 * _BLOCK, runs(_BLOCK + 2, 2 * _BLOCK)),
    "uniform_block_after_a_cycle": (3 * _BLOCK + 4, cycle(300, 2 * _BLOCK, 226)
                                    + runs(2 * _BLOCK, 3 * _BLOCK)),
}


class TestTimeseriesRepeats:
    """Rows with the bytes of another row in their block, or in the block
    before when that block repeated a row, reuse its text after t; the
    bytes are those of the per-row reference."""

    @pytest.mark.parametrize("case", sorted(REPEAT_CASES))
    def test_bytes_equal_the_per_row_reference(self, case):
        traj = repeating_trajectory(*REPEAT_CASES[case])
        w = scenario_table("double_dot_set").weights(HAND_RATES)
        for weights in ((), (w["system"],), (w["system"], w["detector"])):
            assert_same_text(timeseries_csv_text(traj, *weights),
                             reference_timeseries_text(traj, *weights))

    @pytest.mark.parametrize("case", ["settled_block_in_pieces", "short_final_piece",
                                      "cycle_across_block_edges", "uniform_block_after_a_cycle"])
    def test_lines_stream_a_block_at_a_time(self, case):
        n, copies = REPEAT_CASES[case]
        traj = repeating_trajectory(n, copies)
        w = scenario_table("double_dot_set").weights(HAND_RATES)
        header, *blocks = _timeseries_lines(traj.index, traj.blocks(),
                                            w["system"], w["detector"])
        assert header.count(b"\n") == 1 and header.endswith(b"\n")
        # one bytes object per block, the whole block and nothing of the next
        assert all(type(block) is bytes for block in blocks)
        assert [block.count(b"\n") for block in blocks] == block_rows(n)

    def test_signed_zeros_do_not_share_text(self):
        # rows equal under == but not in their bits: 0.0 and -0.0 in a
        # slot, and in the current it weighs into
        traj = repeating_trajectory(4, runs(1, 4))
        values = np.array(traj.values)
        a = traj.index.diagonal("a")
        values[:, a] = [0.0, -0.0, 0.0, -0.0]
        values[:, [k for k in range(len(traj.index)) if k != a]] = 0.0
        traj = Trajectory(traj.times, values, traj.index)
        w = scenario_table("double_dot_set").weights(HAND_RATES)
        text = timeseries_csv_text(traj, {"a": 1.0}, w["detector"])
        assert_same_text(text, reference_timeseries_text(traj, {"a": 1.0}, w["detector"]))
        assert [line.split(",")[1] for line in text.splitlines()[1:]] == ["0", "-0", "0", "-0"]

    def test_nan_rows_of_either_sign(self):
        traj = repeating_trajectory(6, runs(1, 6))
        values = np.array(traj.values)
        values[::2, 0] = np.nan
        values[1::2, 0] = -np.nan
        traj = Trajectory(traj.times, values, traj.index)
        w = scenario_table("double_dot_set").weights(HAND_RATES)
        text = timeseries_csv_text(traj, w["system"], w["detector"])
        assert_same_text(text, reference_timeseries_text(traj, w["system"], w["detector"]))


def special_values_trajectory():
    """NaN of either sign, +-inf and -0.0 in the slots, and so in the currents."""
    traj = repeating_trajectory(7, [])
    values = np.array(traj.values)
    values[0, 0], values[1, 0] = math.nan, -math.nan
    values[2, 1], values[3, 2] = math.inf, -math.inf
    values[4] = -0.0
    values[5:] = 0.0
    values[6, 3] = -0.0
    return Trajectory(traj.times, values, traj.index)


def settled_from_the_block_before():
    """Block 1 repeats, bit for bit, the last row of block 0, which block 0
    repeats too, so block 1 is uniform and takes its text from block 0."""
    traj = repeating_trajectory(*REPEAT_CASES["settled_block_in_pieces"])
    assert (traj.values[_BLOCK - 11:2 * _BLOCK] == traj.values[_BLOCK - 11]).all()
    return traj


def non_ascii_trajectory():
    rng = np.random.default_rng(5)
    index = IndexMap(("α", "β'"), [("α", "β'")])
    return Trajectory(np.arange(9) / 7.0, rng.normal(size=(9, len(index))), index)


FILE_CASES = {
    "nan_inf_and_signed_zeros": (special_values_trajectory,
                                 scenario_table("double_dot_set").weights(HAND_RATES)),
    "zero_slot_trajectory": (
        lambda: Trajectory(np.arange(_BLOCK + 3) / 3.0, np.zeros((_BLOCK + 3, 0)), IndexMap(())),
        {"system": {}, "detector": {}}),
    "settled_block_from_the_block_before": (settled_from_the_block_before,
                                            scenario_table("double_dot_set").weights(HAND_RATES)),
    "non_ascii_labels": (non_ascii_trajectory, {"system": {"α": 1.0 / 3.0}, "detector": {"β'": 0.1}}),
}


class TestFileBytesEqualText:
    """Each writer writes the UTF-8 bytes of the text its *_text function
    returns; the time series also the per-row reference's."""

    @pytest.mark.parametrize("case", sorted(FILE_CASES))
    def test_timeseries(self, tmp_path, case):
        make, w = FILE_CASES[case]
        traj = make()
        path = tmp_path / "ts.csv"
        for weights in ((), (w["system"],), (w["system"], w["detector"])):
            text = timeseries_csv_text(traj, *weights)
            assert_same_text(text, reference_timeseries_text(traj, *weights))
            write_timeseries_csv(traj, str(path), *weights)
            assert_same_text(path.read_bytes(), text.encode("utf-8"))

    def test_non_ascii_header_is_utf8(self, tmp_path):
        traj = non_ascii_trajectory()
        path = tmp_path / "ts.csv"
        write_timeseries_csv(traj, str(path), {"α": 1.0})
        assert path.read_bytes().split(b"\n")[0] == "t,α,βp,re_αβp,im_αβp,I_S".encode("utf-8")

    def test_sweep_table(self, tmp_path):
        t = table(ROW, (2.0, math.inf, -math.inf, -0.0, math.nan, -math.nan),
                  (-0.0, 5e-324, 1.0 / 3.0, -1e300, math.inf, 0.0))
        text = sweep_csv_text(t)
        assert text.splitlines()[2:] == ["2,inf,-inf,-0,nan,nan",
                                         "-0,4.9406564584124654e-324,0.33333333333333331,"
                                         "-1.0000000000000001e+300,inf,0"]
        path = tmp_path / "sweep.csv"
        write_csv(t, str(path))
        assert_same_text(path.read_bytes(), text.encode("utf-8"))
        path = tmp_path / "sweep.svg"
        write_svg(t, str(path), x_label="Ω")
        assert_same_text(path.read_bytes(), svg_text(t, "Ω").encode("utf-8"))


class TestTimeseriesStream:
    """write_timeseries_blocks writes the file whole or not at all, and a
    run streamed through the writer holds one block, not its samples."""

    def test_a_stream_failing_mid_run_leaves_the_file_as_it_was(self, tmp_path):
        traj = repeating_trajectory(3 * _BLOCK, [])

        def failing():
            yield from list(traj.blocks())[:2]
            raise StepTooLarge("late")

        path = tmp_path / "ts.csv"
        path.write_bytes(b"kept\n")
        with pytest.raises(StepTooLarge, match="^late$"):
            write_timeseries_blocks(traj.index, failing(), str(path))
        assert path.read_bytes() == b"kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["ts.csv"]

    def test_memory_does_not_grow_with_the_step_count(self):
        # the seed-2 cycle, which never reaches a fixed point: every block
        # is stepped, and each of its rows is read and looked up
        scenario, gamma_R = "double_dot_set", 3.2028859394138767
        rates = RateSet(gamma_L=1.0, gamma_R=gamma_R, Gamma_L=1.0, Gamma_R=1.0, Omega=1.0,
                        U1=1.0, U2=2.0)
        g, w = scenario_table(scenario).generator(rates), scenario_table(scenario).weights(rates)
        x0 = basis_state(g.index, "a")
        peaks = []
        for steps in (20_000, 200_000):
            tracemalloc.start()
            try:
                _, blocks = evolve_blocks(g, x0, steps * 0.02, 0.02)
                for _ in _timeseries_lines(g.index, blocks, w["system"], w["detector"]):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 256 * 1024


def read_through_fifo(fifo, write):
    """Make a FIFO at fifo; return the bytes that write() sends into it,
    and what write() returns.  A write end held open here keeps the reader
    waiting for write's bytes, and ends its read once closed, whatever
    write did."""
    os.mkfifo(fifo)
    rfd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    wfd = os.open(fifo, os.O_WRONLY)
    os.set_blocking(rfd, True)
    read = []

    def reader():
        with open(rfd, "rb") as fh:
            read.append(fh.read())

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        result = write()
    finally:
        os.close(wfd)
        thread.join()
    return read[0], result


@pytest.fixture(params=["csv", "svg", "timeseries"])
def writer(request):
    """A function that writes a file to a path through one of output.py's
    writers, and the bytes it writes."""
    if request.param == "timeseries":
        traj = repeating_trajectory(2 * _BLOCK + 5, runs(3, 9))
        return (lambda path: write_timeseries_blocks(traj.index, traj.blocks(), path),
                timeseries_csv_text(traj).encode())
    rows = table(ROW, (2.0, 0.6, 0.6, math.nan, math.nan, 0.0))
    if request.param == "csv":
        return lambda path: write_csv(rows, path), sweep_csv_text(rows).encode()
    return lambda path: write_svg(rows, path, x_label="x"), svg_text(rows, "x").encode()


class TestOneWriter:
    """write_csv, write_svg and write_timeseries_blocks reach the disk
    through one writer: a new path is renamed in once its last byte is
    written, and an existing one is written into once every byte exists."""

    # the writer's own new file is named apart from the path, so a name
    # of the longest length a file system takes is written too
    @pytest.mark.parametrize("name", ["out", "x" * 255], ids=["short", "longest"])
    def test_a_new_path(self, tmp_path, writer, name):
        write, data = writer
        path = tmp_path / name
        write(str(path))
        assert path.read_bytes() == data
        assert os.listdir(tmp_path) == [name]

    def test_an_existing_file_keeps_its_inode_mode_and_links(self, tmp_path, writer):
        write, data = writer
        path, other = tmp_path / "out", tmp_path / "other"
        path.write_bytes(b"old\n" * 100_000)
        path.chmod(0o640)
        os.link(path, other)
        before = os.stat(path)
        write(str(path))
        after = os.stat(path)
        assert (after.st_ino, after.st_mode, after.st_nlink) == (before.st_ino, before.st_mode, 2)
        assert path.read_bytes() == other.read_bytes() == data
        assert sorted(os.listdir(tmp_path)) == ["other", "out"]

    def test_a_link_keeps_its_link_and_updates_its_target(self, tmp_path, writer):
        write, data = writer
        target = tmp_path / "data" / "out"
        target.parent.mkdir()
        target.write_bytes(b"old\n")
        link = tmp_path / "out"
        link.symlink_to(target)
        write(str(link))
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == data
        assert sorted(os.listdir(tmp_path)) == ["data", "out"]
        assert os.listdir(target.parent) == ["out"]

    def test_a_fifo_is_written_into(self, tmp_path, writer):
        write, data = writer
        fifo = tmp_path / "out"
        assert read_through_fifo(fifo, lambda: write(str(fifo))) == (data, None)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["out"]

    def test_a_directory_is_named(self, tmp_path, writer):
        write, _ = writer
        path = tmp_path / "out"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            write(str(path))
        assert str(info.value) == f"[Errno 21] Is a directory: {str(path)!r}"
        assert os.listdir(tmp_path) == ["out"] and os.listdir(path) == []

    def test_a_new_path_whose_write_fails_is_left_absent(self, tmp_path, writer, monkeypatch):
        # the rename, the last step of writing a new path, fails as a full
        # or vanished disk would make it fail: the error names the path,
        # and neither the path nor the writer's own new file is left
        write, _ = writer

        def fail(src, dst):
            raise OSError(errno.EIO, os.strerror(errno.EIO), src, None, dst)

        monkeypatch.setattr(os, "replace", fail)
        path = tmp_path / "out"
        with pytest.raises(OSError) as info:
            write(str(path))
        assert str(info.value) == f"[Errno 5] Input/output error: {str(path)!r}"
        assert os.listdir(tmp_path) == []


class TestSvg:
    def fig3_table(self):
        base = RateSet(gamma_L=1.0, gamma_R=1e4, Gamma_L=1.0, Gamma_R=1.0,
                       Omega=1.0, U1=1.0, U2=2.0)
        return run_fermi_sweep(base, 0.0, [0.2, 0.5, 0.8, 1.2, 1.5, 1.8])

    def test_contains_labeled_axes_and_line(self):
        text = svg_text(table(ROW, (2.0, 0.6, 0.6, math.nan, math.nan, 0.0)), x_label="Omega")
        assert text.startswith("<svg")
        assert "<polyline" in text
        assert ">Omega</text>" in text
        assert ">I_S [e*rate]</text>" in text

    def test_step_plot_has_two_plateaus(self):
        text = svg_text(self.fig3_table(), x_label="Fermi level")
        polylines = re.findall(r'<polyline points="([^"]+)"', text)
        ys = [float(pt.split(",")[1]) for pt in polylines[-1].split()]
        levels = sorted(set(round(y, 1) for y in ys))
        assert len(levels) == 2  # two distinct plateau heights

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "plot.svg"
        with pytest.raises(ValueError, match="empty"):
            write_svg(table(), str(path), x_label="x")
        assert not path.exists()

    def test_all_nan_draws_empty_axes(self):
        # x spans the grid, y the band around a current of 0, and no line is drawn
        text = svg_text(table(*[(p, math.nan, math.nan, math.nan, math.nan, math.nan)
                                for p in (1.0, 2.0)]), x_label="x")
        ticks = re.findall(r'text-anchor="(?:middle|end)">([^<]+)</text>', text)
        assert ticks[:10] == ["1", "1.25", "1.5", "1.75", "2",
                              "-0.05", "-0.025", "0", "0.025", "0.05"]
        assert "<polyline" not in text and text.rstrip().endswith("</svg>")

    def test_one_point_spans_a_unit_around_it(self):
        # a single parameter value is widened by 0.5 on each side, so the
        # axis still has five ticks
        text = svg_text(table(ROW), x_label="x")
        ticks = re.findall(r'text-anchor="middle">([^<]+)</text>', text)
        assert ticks[:5] == ["0.5", "0.75", "1", "1.25", "1.5"]
        assert text.count("<polyline") == 2

    @pytest.mark.parametrize("param", [1e20, -1e300, 1.7976931348623157e308])
    def test_one_point_far_from_zero_spans_a_margin_around_it(self, param):
        # +-0.5 would be absorbed here: the margin is relative to |param|,
        # and at the largest float it stays in the float range
        text = svg_text(table((param, *ROW[1:])), x_label="x")
        ticks = re.findall(r'text-anchor="middle">([^<]+)</text>', text)[:5]
        assert len(ticks) == 5 and not any(t in ("inf", "-inf", "nan") for t in ticks)
        x = float(re.findall(r'<polyline points="([\d.]+),', text)[-1])
        assert 80.0 < x <= 616.0
        if abs(param) < 1e308:
            assert x == 348.0      # centred

    def test_write_file(self, tmp_path):
        path = tmp_path / "plot.svg"
        write_svg(self.fig3_table(), str(path), x_label="Fermi level")
        content = path.read_text()
        assert content.startswith("<svg")
        assert content.rstrip().endswith("</svg>")


def _write_opens(node, function=None):
    """(function, line) of each call under node, in the function that
    holds it, that opens a file for writing: open() with a mode that
    writes or one that is not a constant, or a pathlib write_*."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _write_opens(child, child.name)
            continue
        if isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Name) and func.id == "open":
                modes = child.args[1:2] + [k.value for k in child.keywords if k.arg == "mode"]
                mode = modes[0] if modes else ast.Constant("r")
                if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wxa+"):
                    yield function, child.lineno
            elif isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
                yield function, child.lineno
        yield from _write_opens(child, function)


def test_every_file_is_written_by_the_one_writer():
    # a second route to the disk would write a file by other rules: every
    # open for writing in the package sits in the one writer or in the
    # function that makes a new file for it
    package = pathlib.Path(mesorate.__file__).parent
    opens = {}
    for source in sorted(package.glob("*.py")):
        for function, line in _write_opens(ast.parse(source.read_text(), str(source))):
            opens.setdefault(f"{source.name}:{function}", []).append(line)
    assert sorted(opens) == ["output.py:_write_file", "output.py:_write_new_file"], opens
