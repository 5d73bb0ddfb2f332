import os
import re
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

import mesorate
from mesorate import cli, cli_main, validate_state

BARE_CFG = """\
[scenario]
name = double_dot_bare

[rates]
Gamma_L = 1.0
Gamma_R = 1.0
Omega = 1.0
epsilon = 0.0

[run]
t_final = 30.0
"""

SET_CFG = """\
[scenario]
name = double_dot_set

[rates]
gamma_L = 1.0
gamma_R = 100.0
Gamma_L = 1.0
Gamma_R = 1.0
Omega = 1.0
U1 = 1.0
U2 = 2.0
"""

# single_dot_set without unprimed detector widths: the primed ones keep
# the detector running, but its bare current gamma_L*gamma_R/(gamma_L + gamma_R)
# is undefined
ZERO_WIDTHS_CFG = """\
[scenario]
name = single_dot_set

[rates]
gamma_L = 0
gamma_R = 0
gamma_L_p = 1
gamma_R_p = 1
Gamma_L = 1
Gamma_R = 1
"""

FIG3_CFG = """\
[scenario]
name = generalized_double_dot_set

[rates]
gamma_L = 1.0
gamma_R = 1e4
Gamma_L = 1.0
Gamma_R = 1.0
Omega = 1.0
U1 = 1.0
U2 = 2.0

[energies]
E0 = 0.0
"""


@pytest.fixture
def bare_cfg(tmp_path):
    p = tmp_path / "bare.cfg"
    p.write_text(BARE_CFG)
    return str(p)


class TestSteady:
    def test_prints_symmetric_current(self, bare_cfg, capsys):
        assert cli_main(["steady", "--config", bare_cfg]) == 0
        out = capsys.readouterr().out
        match = re.search(r"^I_S = ([0-9.eE+-]+)$", out, re.M)
        assert match, out
        assert float(match.group(1)) == pytest.approx(0.3076923076923077, rel=1e-9)

    def test_detector_currents_printed_for_monitored_scenario(self, tmp_path, capsys):
        p = tmp_path / "set.cfg"
        p.write_text(SET_CFG)
        assert cli_main(["steady", "--config", str(p)]) == 0
        out = capsys.readouterr().out
        assert "I_D = " in out
        assert "Delta_I_D = " in out

    def test_no_detector_widths_give_a_nan_drop(self, tmp_path, capsys):
        # the model solves; only the bare detector current is undefined
        p = tmp_path / "zero.cfg"
        p.write_text(ZERO_WIDTHS_CFG)
        assert cli_main(["steady", "--config", str(p)]) == 0
        out = capsys.readouterr().out
        assert out.endswith("I_S = 0.5\nI_D = 0\nDelta_I_D = nan\n")

    def test_signed_zeros_print_as_zero(self, tmp_path, capsys):
        # the primed occupations solve to -0.0 here
        p = tmp_path / "zero.cfg"
        p.write_text(ZERO_WIDTHS_CFG)
        assert cli_main(["steady", "--config", str(p)]) == 0
        out = capsys.readouterr().out
        assert "a'  = 0\n" in out and "b'  = 0\n" in out
        assert not re.search(r"-0(?![.\d])", out), out

    @pytest.mark.parametrize("reader", ["stationary_outputs", "validate_state"])
    def test_a_failing_read_prints_nothing(self, bare_cfg, capsys, monkeypatch, reader):
        def raising(*args):
            raise OverflowError("absolute value too large")

        target = cli.observables if reader == "stationary_outputs" else cli
        monkeypatch.setattr(target, reader, raising)
        assert cli_main(["steady", "--config", bare_cfg]) == 3
        assert capsys.readouterr() == ("", "numerical failure: absolute value too large\n")


class TestOneFailureMap:
    """A refusal reads the same line whichever command meets it."""

    def test_unequal_amplitudes(self, tmp_path, capsys):
        p = tmp_path / "unequal.cfg"
        p.write_text(SET_CFG.replace("gamma_R = 100.0", "gamma_R = 100.0\ngamma_R_p = 2.0")
                     + "\n[run]\nt_final = 1.0\n")
        out = tmp_path / "x.csv"
        errs = []
        for argv in (["steady"], ["evolve", "--out", str(out)],
                     ["sweep", "--out", str(out), "--param", "gamma_L", "--grid", "1:2:3"]):
            assert cli_main([*argv, "--config", str(p)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            errs.append(captured.err)
        assert errs == ["config error: double_dot_set assumes equal tunneling amplitudes; "
                        "primed widths must equal unprimed ones\n"] * 3

    def test_no_detector_widths_sweep(self, tmp_path, capsys):
        p = tmp_path / "zero.cfg"
        p.write_text(ZERO_WIDTHS_CFG)
        out = tmp_path / "z.csv"
        assert cli_main(["sweep", "--config", str(p), "--param", "Gamma_L", "--grid", "1:2:3",
                         "--out", str(out)]) == 0
        assert capsys.readouterr() == (f"wrote 3 rows to {out}\n", "")
        rows = out.read_text().splitlines()
        assert rows[0].split(",")[4] == "Delta_I_D"
        assert [row.split(",")[4] for row in rows[1:]] == ["nan"] * 3


class TestEvolve:
    def test_writes_time_series(self, bare_cfg, tmp_path, capsys):
        out_path = tmp_path / "ts.csv"
        assert cli_main(["evolve", "--config", bare_cfg, "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t,a,b,c,re_bc,im_bc,I_S"
        assert len(lines) > 100

    @pytest.mark.parametrize("t_final,dt,last", [
        ("0.9", "0.3", "0.90000000000000002"), ("0.7", "0.02", "0.69999999999999996")])
    def test_last_sample_is_at_t_final(self, tmp_path, capsys, t_final, dt, last):
        # n_steps * h rounds off t_final here (to 0.89999999999999991 and
        # 0.70000000000000007); the last line's time is t_final's %.17g text
        p = tmp_path / "unit.cfg"
        p.write_text("[scenario]\nname = single_dot_set\n[rates]\ngamma_L = 1\ngamma_R = 1\n"
                     f"Gamma_L = 1\nGamma_R = 1\n[run]\nt_final = {t_final}\ndt = {dt}\n")
        out = tmp_path / "ts.csv"
        assert cli_main(["evolve", "--config", str(p), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[-1].split(",")[0] == last

    def test_unstable_step_is_numerical_failure(self, tmp_path, capsys):
        # the README rates with gamma_R = 3: trace-conserving, but dt = 2
        # is outside RK4's stability region
        p = tmp_path / "unstable.cfg"
        p.write_text(SET_CFG.replace("gamma_R = 100.0", "gamma_R = 3.0")
                     + "\n[run]\nt_final = 2000.0\ndt = 2.0\n")
        out_path = tmp_path / "ts.csv"
        assert cli_main(["evolve", "--config", str(p), "--out", str(out_path)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: trace moved by 2.375e-07 in one step of 2.000e+00; shrink dt\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("gamma_R", ["1e80", "1e200"])
    def test_overflowing_propagator_is_numerical_failure(self, tmp_path, capsys, gamma_R):
        # at dt = 0.02 the RK4 polynomial in h * G overflows (its fourth
        # power at 1e80, its square at 1e200): refused before the first
        # step, with one line and no numpy warning
        p = tmp_path / "overflow.cfg"
        p.write_text(SET_CFG.replace("gamma_R = 100.0", f"gamma_R = {gamma_R}")
                     + "\n[run]\nt_final = 1.0\ndt = 0.02\n")
        out_path = tmp_path / "ts.csv"
        assert cli_main(["evolve", "--config", str(p), "--out", str(out_path)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: the RK4 propagator of a step of 2.000e-02 overflows; "
            "shrink dt\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("rates,run,code", [
        ("gamma_R = 3.0", "t_final = 500.0\ndt = 0.52", 3),
        ("gamma_R = 1e80", "t_final = 1.0\ndt = 0.02", 3),
        ("gamma_R = 100.0\ngamma_R_p = 2.0", "t_final = 1.0", 2),
    ], ids=["drift", "overflowing-propagator", "unequal-amplitudes"])
    def test_a_failed_run_leaves_out_as_it_was(self, tmp_path, capsys, rates, run, code):
        # the drifting run fails at step 484, after its file was opened; onto
        # a new path and onto an existing file, a run fails alike
        p = tmp_path / "run.cfg"
        p.write_text(SET_CFG.replace("gamma_R = 100.0", rates) + f"\n[run]\n{run}\n")
        out = tmp_path / "out" / "ts.csv"
        out.parent.mkdir()
        assert cli_main(["evolve", "--config", str(p), "--out", str(out)]) == code
        fresh = capsys.readouterr()
        assert fresh.out == "" and os.listdir(out.parent) == []
        out.write_bytes(b"kept\n")
        assert cli_main(["evolve", "--config", str(p), "--out", str(out)]) == code
        assert capsys.readouterr() == fresh
        assert out.read_bytes() == b"kept\n"
        assert os.listdir(out.parent) == ["ts.csv"]

    def test_a_run_replaces_out_whole(self, bare_cfg, tmp_path, capsys):
        out = tmp_path / "out" / "ts.csv"
        out.parent.mkdir()
        out.write_bytes(b"old\n" * 100000)
        assert cli_main(["evolve", "--config", bare_cfg, "--out", str(out)]) == 0
        written = out.read_bytes()
        samples = written.count(b"\n") - 1
        assert capsys.readouterr().out == f"wrote {samples} samples to {out}\n"
        assert written.startswith(b"t,a,b,c,re_bc,im_bc,I_S\n0,1,0,0,0,0,")
        assert os.listdir(out.parent) == ["ts.csv"]

    def test_a_linked_out_keeps_its_link_and_updates_its_target(self, bare_cfg, tmp_path,
                                                                 capsys):
        # a run writes through the link; a failed one leaves the target as it was
        fresh = tmp_path / "fresh.csv"
        assert cli_main(["evolve", "--config", bare_cfg, "--out", str(fresh)]) == 0
        target = tmp_path / "data" / "ts.csv"
        target.parent.mkdir()
        target.write_bytes(b"kept\n")
        link = tmp_path / "out" / "ts.csv"
        link.parent.mkdir()
        link.symlink_to(target)
        drift = tmp_path / "drift.cfg"
        drift.write_text(SET_CFG.replace("gamma_R = 100.0", "gamma_R = 3.0")
                         + "\n[run]\nt_final = 500.0\ndt = 0.52\n")
        assert cli_main(["evolve", "--config", str(drift), "--out", str(link)]) == 3
        assert target.read_bytes() == b"kept\n"
        assert cli_main(["evolve", "--config", bare_cfg, "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == fresh.read_bytes()
        assert sorted(os.listdir(tmp_path / "out")) == ["ts.csv"]
        assert sorted(os.listdir(target.parent)) == ["ts.csv"]

    def test_an_existing_out_keeps_its_file_mode_and_links(self, bare_cfg, tmp_path, capsys):
        fresh = tmp_path / "fresh.csv"
        assert cli_main(["evolve", "--config", bare_cfg, "--out", str(fresh)]) == 0
        out = tmp_path / "ts.csv"
        out.write_bytes(b"old\n")
        out.chmod(0o640)
        other = tmp_path / "other-name.csv"
        os.link(out, other)
        before = os.stat(out)
        assert cli_main(["evolve", "--config", bare_cfg, "--out", str(out)]) == 0
        after = os.stat(out)
        assert (after.st_ino, after.st_mode, after.st_uid, after.st_nlink) == (
            before.st_ino, before.st_mode, before.st_uid, 2)
        assert out.read_bytes() == other.read_bytes() == fresh.read_bytes()

    def test_an_out_that_is_a_pipe_is_written_into(self, bare_cfg, tmp_path, capsys):
        fresh = tmp_path / "fresh.csv"
        assert cli_main(["evolve", "--config", bare_cfg, "--out", str(fresh)]) == 0
        fifo = tmp_path / "ts.fifo"
        os.mkfifo(fifo)
        # a write end held open here keeps the reader waiting for the run's
        # bytes, and ends its read once closed whatever the run did
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
            code = cli_main(["evolve", "--config", bare_cfg, "--out", str(fifo)])
        finally:
            os.close(wfd)
            thread.join()
        assert code == 0
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert read == [fresh.read_bytes()]
        assert sorted(os.listdir(tmp_path)) == ["bare.cfg", "fresh.csv", "ts.fifo"]

    def test_a_drift_wins_over_a_missing_directory(self, tmp_path, capsys):
        # the run is stepped to its failure although its file cannot be
        # made: the numerical failure is reported, as when the file was
        # opened after the run
        p = tmp_path / "drift.cfg"
        p.write_text(SET_CFG.replace("gamma_R = 100.0", "gamma_R = 3.0")
                     + "\n[run]\nt_final = 500.0\ndt = 0.52\n")
        out = tmp_path / "missing" / "ts.csv"
        assert cli_main(["evolve", "--config", str(p), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: trace moved by 1.304e-08 in one step of 5.198e-01; shrink dt\n")
        assert not out.parent.exists()

    def test_infinite_step_count_is_refused_by_the_cap(self, tmp_path, capsys):
        p = tmp_path / "tiny_dt.cfg"
        p.write_text(BARE_CFG.replace("t_final = 30.0", "t_final = 1e308\ndt = 5e-324"))
        out_path = tmp_path / "ts.csv"
        assert cli_main(["evolve", "--config", str(p), "--out", str(out_path)]) == 2
        assert "asks for inf steps (cap 1000000)" in capsys.readouterr().err
        assert not out_path.exists()

    def test_missing_t_final_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "no_t.cfg"
        p.write_text(BARE_CFG.replace("t_final = 30.0", ""))
        assert cli_main(["evolve", "--config", str(p), "--out",
                         str(tmp_path / "x.csv")]) == 2


class TestSweep:
    def test_log_grid_deterministic_bytes(self, bare_cfg, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--config", bare_cfg, "--param", "Gamma_R",
                "--grid", "1:1e4:4log"]
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        content = a.read_bytes()
        assert content == b.read_bytes()
        assert content.count(b"\n") == 5  # header plus four rows

    # the flags are the one setter of the swept parameter and the grid
    @pytest.mark.parametrize("argv", [
        ["sweep", "--grid", "0:1:2"], ["sweep", "--param", "Omega"], ["fig3"],
    ], ids=["sweep-param", "sweep-grid", "fig3-grid"])
    def test_missing_param_or_grid_is_usage_error(self, bare_cfg, tmp_path, argv):
        out = tmp_path / "x.csv"
        assert cli_main(argv + ["--config", bare_cfg, "--out", str(out)]) == 1
        assert not out.exists()

    def test_bad_param_is_config_error(self, bare_cfg, tmp_path):
        assert cli_main(["sweep", "--config", bare_cfg, "--param", "warp",
                         "--grid", "0:1:2", "--out", str(tmp_path / "x.csv")]) == 2

    def test_svg_format(self, bare_cfg, tmp_path):
        out = tmp_path / "sweep.svg"
        assert cli_main(["sweep", "--config", bare_cfg, "--param", "Omega",
                         "--grid", "0.5:2:4", "--format", "svg",
                         "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    def test_grid_starting_negative(self, bare_cfg, tmp_path):
        out = tmp_path / "eps.csv"
        assert cli_main(["sweep", "--config", bare_cfg, "--param", "epsilon",
                         "--grid", "-3:3:7", "--out", str(out)]) == 0
        first = out.read_text().splitlines()[1]
        assert first.startswith("-3,")

    def test_coulomb_shift_U_is_refused(self, bare_cfg, tmp_path, capsys):
        out = tmp_path / "u.csv"
        assert cli_main(["sweep", "--config", bare_cfg, "--param", "U", "--grid", "0:100:5",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: parameter 'U' is not a RateSet field\n"
        assert not out.exists()
        cfg = tmp_path / "u.cfg"
        cfg.write_text(SET_CFG + "U = 3.0\n")
        assert cli_main(["steady", "--config", str(cfg)]) == 2
        assert "unknown key U in section [rates]" in capsys.readouterr().err

    # refused at the first point and at the last
    @pytest.mark.parametrize("grid", ["-1:1:3", "1:-1:3"])
    def test_negative_width_in_grid_is_config_error(self, tmp_path, capsys, grid):
        cfg = tmp_path / "set.cfg"
        cfg.write_text(SET_CFG)
        out = tmp_path / "x.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--param", "gamma_R",
                         "--grid", grid, "--out", str(out)]) == 2
        # a refused point is a configuration error of sweep, as of fig3
        assert capsys.readouterr().err == "config error: width gamma_R must be >= 0, got -1.0\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "fig3"])
    def test_grid_count_above_the_cap_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                       command):
        # numpy could not allocate this grid: it is refused before it is built
        def refuse(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(np, "linspace", refuse)
        monkeypatch.setattr(np, "geomspace", refuse)
        cfg = tmp_path / "fig3.cfg"
        cfg.write_text(FIG3_CFG)
        out = tmp_path / "x.csv"
        argv = [command, "--config", str(cfg), "--grid", "1:10:99999999999", "--out", str(out)]
        if command == "sweep":
            argv += ["--param", "gamma_R"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert "grid count 99999999999 exceeds the cap of 100000 points" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_overflowing_grid_value_is_config_error(self, tmp_path, capfd):
        # 2 * Omega overflows at Omega = 1e308; the point is refused before
        # LAPACK sees an inf, so no DLASCL line is printed by the library
        cfg = tmp_path / "fig3.cfg"
        cfg.write_text(FIG3_CFG)
        out = tmp_path / "x.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--param", "Omega",
                         "--grid", "1:1e308:3", "--out", str(out)]) == 2
        captured = capfd.readouterr()
        assert "a generator entry from Omega overflows" in captured.err
        assert "DLASCL" not in captured.out + captured.err
        assert not out.exists()

    def test_overflowing_closed_form_is_a_nan_reference(self, tmp_path, capsys):
        # epsilon**2 overflows the closed form at 1e200 while every generator
        # entry stays finite: the sweep runs and its reference column is NaN
        cfg = tmp_path / "set.cfg"
        cfg.write_text(SET_CFG)
        out = tmp_path / "eps.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--param", "epsilon",
                         "--grid", "0:1e200:3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert [line.split(",")[2] == "nan" for line in lines[1:]] == [False, True, True]

    @pytest.mark.parametrize("scenario,rates", [
        ("double_dot_bare", "Gamma_L = 1.0\nGamma_R = 0.0\nOmega = 1.0\nepsilon = 0.0\n"),
        ("reduced_double_dot",
         "gamma_L = 1.0\nGamma_L = 1.0\nGamma_R = 1e-200\nOmega = 1.0\nepsilon = 0.0\n"),
    ], ids=["bare", "dephased"])
    def test_underflowed_closed_form_is_a_nan_reference(self, tmp_path, capsys, scenario,
                                                        rates):
        # Omega**2 underflows to 0 at Omega = 1e-170: the closed form divides
        # zero by zero, and the row keeps a NaN reference
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(f"[scenario]\nname = {scenario}\n\n[rates]\n{rates}")
        out = tmp_path / "omega.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--param", "Omega",
                         "--grid", "1e-170:1:3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert [line.split(",")[2] == "nan" for line in lines[1:]] == [True, False, False]

    def test_assembly_error_wins_over_an_overflowing_closed_form(self, tmp_path, capsys):
        # Omega**2 in the closed form overflows at 1e308, and so does 2*Omega
        # in the generator: the point is refused, naming Omega
        cfg = tmp_path / "set.cfg"
        cfg.write_text(SET_CFG)
        out = tmp_path / "omega.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--param", "Omega",
                         "--grid", "0:1e308:3", "--out", str(out)]) == 2
        assert "a generator entry from Omega overflows" in capsys.readouterr().err
        assert not out.exists()


STIFF_CFG = """\
[scenario]
name = double_dot_set

[rates]
gamma_L = 1.0
gamma_R = 1.0
Gamma_L = 1e-3
Gamma_R = 1e-3
Omega = 1e-3
U1 = 0.0
U2 = 0.0
"""

ZERO_FIG3_CFG = """\
[scenario]
name = generalized_double_dot_set

[rates]
gamma_L = 0.0
gamma_R = 0.0
Gamma_L = 0.0
Gamma_R = 0.0
Omega = 0.0
U1 = 1.0
U2 = 2.0

[energies]
E0 = 0.0
"""


class TestNanRows:
    """A sweep with NaN rows says so on stderr, once: the count, and the
    first NaN row's parameter value and message.  stdout, the exit code
    and the file stay as they are."""

    def run(self, tmp_path, capsys, cfg_text, argv):
        cfg, out = tmp_path / "run.cfg", tmp_path / "out.csv"
        cfg.write_text(cfg_text)
        code = cli_main([argv[0], "--config", str(cfg), *argv[1:], "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert captured.out == f"wrote {len(rows)} rows to {out}\n"
        return rows, captured.err

    def test_stiff_grid(self, tmp_path, capsys):
        rows, err = self.run(tmp_path, capsys, STIFF_CFG,
                             ["sweep", "--param", "gamma_R", "--grid", "1:1e12:1000log"])
        nan_rows = [row for row in rows if row[1] == "nan"]
        assert 0 < len(nan_rows) < len(rows)
        assert err == (f"warning: {len(nan_rows)} of 1000 rows are NaN; the first, at "
                       f"gamma_R = {float(nan_rows[0][0])!r}: 2-dimensional numerical "
                       "null space (singular values <= RANK_TOL * sigma_max)\n")

    def test_all_nan_sweep(self, tmp_path, capsys):
        # Gamma_R = 0 leaves the b-c oscillation undamped at every point
        rows, err = self.run(tmp_path, capsys, BARE_CFG.replace("Gamma_R = 1.0", "Gamma_R = 0.0"),
                             ["sweep", "--param", "Gamma_L", "--grid", "0.5:2:3"])
        assert all(row[1] == "nan" for row in rows)
        assert err == ("warning: 3 of 3 rows are NaN; the first, at Gamma_L = 0.5: "
                       "2-dimensional numerical null space "
                       "(singular values <= RANK_TOL * sigma_max)\n")

    def test_all_nan_fig3(self, tmp_path, capsys):
        rows, err = self.run(tmp_path, capsys, ZERO_FIG3_CFG,
                             ["fig3", "--grid", "0.5:1.5:3"])
        assert all(row[1] == "nan" for row in rows)
        assert re.fullmatch(r"warning: 3 of 3 rows are NaN; the first, at detector Fermi "
                            r"level = 0\.5: .+\n", err)

    def test_all_nan_svg_and_csv_agree(self, tmp_path, capsys):
        # no numeric current to plot is no refusal: the SVG draws empty
        # axes, and both formats exit 0 with the same warning
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BARE_CFG.replace("= 1.0", "= 0.0"))
        results = []
        for fmt in ("csv", "svg"):
            out = tmp_path / f"out.{fmt}"
            code = cli_main(["sweep", "--config", str(cfg), "--param", "Omega",
                             "--grid", "0:0:2", "--format", fmt, "--out", str(out)])
            captured = capsys.readouterr()
            assert captured.out == f"wrote 2 rows to {out}\n" and out.stat().st_size > 0
            results.append((code, captured.err))
        assert results[0] == results[1] == (
            0, "warning: 2 of 2 rows are NaN; the first, at Omega = 0.0: "
               "zero generator: every state is stationary\n")

    def test_no_nan_row_no_line(self, tmp_path, capsys):
        rows, err = self.run(tmp_path, capsys, SET_CFG,
                             ["sweep", "--param", "gamma_R", "--grid", "1:1e4:25log"])
        assert len(rows) == 25 and err == ""


class TestFig3:
    def test_csv_and_svg(self, tmp_path):
        p = tmp_path / "fig3.cfg"
        p.write_text(FIG3_CFG)
        out_csv = tmp_path / "f3.csv"
        assert cli_main(["fig3", "--config", str(p), "--grid", "0.1:1.9:13",
                         "--out", str(out_csv)]) == 0
        assert len(out_csv.read_text().splitlines()) == 14
        out_svg = tmp_path / "f3.svg"
        assert cli_main(["fig3", "--config", str(p), "--grid", "0.1:1.9:13",
                         "--format", "svg", "--out", str(out_svg)]) == 0
        assert "<polyline" in out_svg.read_text()

    def test_wrong_scenario_rejected(self, bare_cfg, tmp_path):
        assert cli_main(["fig3", "--config", bare_cfg, "--grid", "0.1:1.9:5",
                         "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("config,message", [
        (FIG3_CFG.replace("\n[energies]\nE0 = 0.0\n", ""), "fig3 needs an [energies] section"),
        (FIG3_CFG.replace("E0 = 0.0\n", ""), "missing required key E0 in section [energies]"),
    ], ids=["no-section", "empty-section"])
    def test_missing_detector_level_named(self, tmp_path, capsys, config, message):
        p = tmp_path / "fig3.cfg"
        p.write_text(config)
        out = tmp_path / "x.csv"
        assert cli_main(["fig3", "--config", str(p), "--grid", "0.1:1.9:5",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_grid_beyond_second_threshold_rejected(self, tmp_path):
        p = tmp_path / "fig3.cfg"
        p.write_text(FIG3_CFG)
        assert cli_main(["fig3", "--config", str(p), "--grid", "0.5:2.5:5",
                         "--out", str(tmp_path / "x.csv")]) == 2


class TestTolOverride:
    def test_environment_is_not_read(self, bare_cfg, monkeypatch, capsys):
        # steady --tol is the one setter of the tolerance
        assert cli_main(["steady", "--config", bare_cfg]) == 0
        expected = capsys.readouterr()
        monkeypatch.setenv("MESORATE_TOL", "not-a-number")
        assert cli_main(["steady", "--config", bare_cfg]) == 0
        assert capsys.readouterr() == expected

    # NaN fails every comparison in validate_state, so it would switch the
    # warnings off; a negative or infinite tolerance means nothing either
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-300"])
    def test_flag_tolerance_must_be_finite_and_nonnegative(self, bare_cfg, capsys, value):
        assert cli_main(["steady", "--config", bare_cfg, f"--tol={value}"]) == 2
        assert "--tol must be a finite number >= 0" in capsys.readouterr().err

    def test_zero_tolerance_accepted(self, bare_cfg):
        assert cli_main(["steady", "--config", bare_cfg, "--tol", "0"]) == 0


class TestCachedParser:
    """cli_main parses every call with one parser, built on the first call;
    no call leaves a value behind for the next."""

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.fixture
    def tolerances(self, monkeypatch):
        seen = []

        def spy(x, tol):
            seen.append(tol)
            return validate_state(x, tol)

        monkeypatch.setattr(cli, "validate_state", spy)
        return seen

    def test_tol_falls_back_to_its_default(self, bare_cfg, tolerances):
        assert cli_main(["steady", "--config", bare_cfg, "--tol", "0"]) == 0
        assert cli_main(["steady", "--config", bare_cfg]) == 0
        assert tolerances == [0.0, 1e-9]

    def test_format_falls_back_to_csv(self, bare_cfg, tmp_path):
        argv = ["sweep", "--config", bare_cfg, "--param", "Omega", "--grid", "0.5:2:4"]
        svg, csv = tmp_path / "a.svg", tmp_path / "b.csv"
        assert cli_main(argv + ["--format", "svg", "--out", str(svg)]) == 0
        assert cli_main(argv + ["--out", str(csv)]) == 0
        assert svg.read_text().startswith("<svg")
        assert csv.read_text().startswith("param,I_S_numeric,")

    @pytest.mark.parametrize("bad", [
        ["steady", "--tol", "x"],
        ["sweep", "--param", "Omega", "--format", "svg", "--out", "x.svg"],
        ["fig3", "--grid", "0.1:0.9:3", "--format", "png", "--out", "x.png"],
    ], ids=["steady-bad-tol", "sweep-no-grid", "fig3-bad-format"])
    def test_usage_error_between_good_calls(self, bare_cfg, tmp_path, monkeypatch, capsys,
                                            tolerances, bad):
        monkeypatch.chdir(tmp_path)
        good = ["steady", "--config", bare_cfg]
        assert cli_main(good) == 0
        first = capsys.readouterr()
        assert cli_main(bad[:1] + ["--config", bare_cfg] + bad[1:]) == 1
        assert capsys.readouterr().out == ""
        assert cli_main(good) == 0
        assert capsys.readouterr() == first
        assert tolerances == [1e-9, 1e-9]
        sweep = ["sweep", "--config", bare_cfg, "--param", "Omega", "--grid", "0.5:2:4"]
        assert cli_main(sweep + ["--out", "y.csv"]) == 0
        assert (tmp_path / "y.csv").read_text().startswith("param,")
        assert not list(tmp_path.glob("x.*"))


class TestExitCodes:
    def test_usage_error(self):
        assert cli_main(["warp"]) == 1
        assert cli_main([]) == 1
        assert cli_main(["sweep"]) == 1  # --config is required

    @pytest.mark.parametrize("argv", [
        ["steady", "--out", "x.out"],
        ["evolve", "--out", "x.out", "--tol", "1e-8"],
        ["sweep", "--param", "Omega", "--grid", "1:2:2", "--out", "x.out", "--tol", "1e-8"],
        ["fig3", "--grid", "0.1:0.9:3", "--out", "x.out", "--tol", "1e-8"],
    ], ids=["steady-out", "evolve-tol", "sweep-tol", "fig3-tol"])
    def test_removed_flags_are_usage_errors(self, bare_cfg, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert cli_main(argv[:1] + ["--config", bare_cfg] + argv[1:]) == 1
        assert not (tmp_path / "x.out").exists()

    @pytest.mark.parametrize("section,line", [
        ("run", "tol = -1e-300"), ("run", "out = x.out"), ("energies", "EFL_det = 1.5"),
        ("run", "param = Omega"), ("run", "grid = 0:2:5"), ("run", "format = svg"),
    ])
    def test_removed_config_keys_are_config_errors(self, tmp_path, capsys, section, line):
        p = tmp_path / "removed.cfg"
        # BARE_CFG ends inside its [run] section
        p.write_text(BARE_CFG + (f"{line}\n" if section == "run" else f"[energies]\n{line}\n"))
        assert cli_main(["steady", "--config", str(p)]) == 2
        assert f"unknown key {line.split()[0]} in section [{section}]" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert cli_main(["--help"]) == 0

    def test_missing_config_file(self):
        assert cli_main(["steady", "--config", "/nonexistent/x.cfg"]) == 2

    @pytest.mark.parametrize("argv", [
        ["evolve"], ["sweep", "--param", "Omega", "--grid", "1:2:2"],
        ["sweep", "--param", "Omega", "--grid", "1:2:2", "--format", "svg"],
    ], ids=["evolve", "sweep-csv", "sweep-svg"])
    def test_out_into_a_missing_directory_is_an_io_error(self, bare_cfg, tmp_path, capsys,
                                                         argv):
        out = tmp_path / "missing" / "x.out"
        assert cli_main(argv[:1] + ["--config", bare_cfg] + argv[1:] + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"i/o error: [Errno 2] No such file or directory: {str(out)!r}\n")
        assert not out.parent.exists()

    def test_config_parse_error(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[scenario]\nname = double_dot_bare\n[rates]\nGamma_L = abc\n")
        assert cli_main(["steady", "--config", str(p)]) == 2

    def test_degenerate_model_is_numerical_failure(self, tmp_path):
        p = tmp_path / "zero.cfg"
        p.write_text("[scenario]\nname = double_dot_bare\n"
                     "[rates]\nGamma_L = 0\nGamma_R = 0\nOmega = 0\n")
        assert cli_main(["steady", "--config", str(p)]) == 3

    @staticmethod
    def stationary_argv(command, tmp_path):
        """A steady, sweep or fig3 command line on a model it solves."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FIG3_CFG if command == "fig3" else BARE_CFG)
        out = ["--out", str(tmp_path / "x.out")]
        return {"steady": ["steady", "--config", str(cfg)],
                "sweep": ["sweep", "--config", str(cfg), "--param", "Omega",
                          "--grid", "1:2:3"] + out,
                "fig3": ["fig3", "--config", str(cfg), "--grid", "0.1:0.9:3"] + out}[command]

    @pytest.mark.parametrize("command", ["steady", "sweep", "fig3"])
    def test_residual_beyond_its_bound_is_numerical_failure(self, tmp_path, capsys,
                                                            monkeypatch, command):
        # every solve, the refinement's included, misses by 1e-3 in each
        # slot, so the residual backstop refuses the state
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1e-3)
        assert cli_main(self.stationary_argv(command, tmp_path)) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"numerical failure: stationary residual \S+ exceeds "
                            r"1e-12 \* \|\|G\|\|_inf = \S+\n", err), err
        assert not (tmp_path / "x.out").exists()

    @pytest.mark.parametrize("command", ["steady", "sweep", "fig3"])
    def test_svd_without_convergence_is_numerical_failure(self, tmp_path, capsys,
                                                          monkeypatch, command):
        # a LinAlgError is a ValueError, but not a configuration error
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        monkeypatch.setattr(np.linalg, "cholesky", fail)    # the rank proof defers to the SVD
        assert cli_main(self.stationary_argv(command, tmp_path)) == 3
        assert capsys.readouterr().err == "numerical failure: SVD did not converge\n"
        assert not (tmp_path / "x.out").exists()

    def test_module_entry_point_runs_clean(self):
        # python -m mesorate, with numpy's RuntimeWarnings as errors: no
        # runpy warning, and validate exits 4 while criterion 5 fails
        src = os.path.dirname(os.path.dirname(mesorate.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "mesorate",
                               "validate"], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 4
        assert proc.stderr == ""
        assert "criteria passed" in proc.stdout

    def test_validate_reports_every_criterion(self, capsys):
        code = cli_main(["validate"])
        out = capsys.readouterr().out
        for number in range(1, 10):
            assert re.search(rf"^criterion {number}: (PASS|FAIL)", out, re.M)
        assert re.search(r"^\d/9 criteria passed$|^9/9 criteria passed$", out, re.M)
        assert code in (0, 4)
