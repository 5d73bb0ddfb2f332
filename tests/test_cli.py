import re

import pytest

from mesorate import cli_main

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


class TestEvolve:
    def test_writes_time_series(self, bare_cfg, tmp_path, capsys):
        out_path = tmp_path / "ts.csv"
        assert cli_main(["evolve", "--config", bare_cfg, "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t,a,b,c,re_bc,im_bc,I_S"
        assert len(lines) > 100

    def test_unstable_step_is_numerical_failure(self, tmp_path, capsys):
        # the README rates with gamma_R = 3: trace-conserving, but dt = 2
        # is outside RK4's stability region
        p = tmp_path / "unstable.cfg"
        p.write_text(SET_CFG.replace("gamma_R = 100.0", "gamma_R = 3.0")
                     + "\n[run]\nt_final = 2000.0\ndt = 2.0\n")
        out_path = tmp_path / "ts.csv"
        assert cli_main(["evolve", "--config", str(p), "--out", str(out_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err
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

    def test_param_from_run_section(self, tmp_path):
        p = tmp_path / "cfg.cfg"
        p.write_text(BARE_CFG + "param = Omega\ngrid = 0:2:5\n")
        out = tmp_path / "sweep.csv"
        assert cli_main(["sweep", "--config", str(p), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 6

    def test_missing_param_is_config_error(self, bare_cfg, tmp_path):
        assert cli_main(["sweep", "--config", bare_cfg, "--grid", "0:1:2",
                         "--out", str(tmp_path / "x.csv")]) == 2

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

    def test_negative_width_in_grid_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "set.cfg"
        cfg.write_text(SET_CFG)
        out = tmp_path / "x.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--param", "gamma_R",
                         "--grid", "-1:1:3", "--out", str(out)]) == 2
        assert "width gamma_R must be >= 0, got -1.0" in capsys.readouterr().err
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

    def test_grid_beyond_second_threshold_rejected(self, tmp_path):
        p = tmp_path / "fig3.cfg"
        p.write_text(FIG3_CFG)
        assert cli_main(["fig3", "--config", str(p), "--grid", "0.5:2.5:5",
                         "--out", str(tmp_path / "x.csv")]) == 2


class TestTolOverride:
    def test_env_tolerance_accepted(self, bare_cfg, monkeypatch):
        monkeypatch.setenv("MESORATE_TOL", "1e-6")
        assert cli_main(["steady", "--config", bare_cfg]) == 0

    def test_env_tolerance_malformed(self, bare_cfg, monkeypatch):
        monkeypatch.setenv("MESORATE_TOL", "not-a-number")
        assert cli_main(["steady", "--config", bare_cfg]) == 2

    def test_flag_beats_env(self, bare_cfg, monkeypatch):
        monkeypatch.setenv("MESORATE_TOL", "not-a-number")
        assert cli_main(["steady", "--config", bare_cfg, "--tol", "1e-8"]) == 0

    # NaN fails every comparison in validate_state, so it would switch the
    # warnings off; a negative or infinite tolerance means nothing either
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-300"])
    def test_env_tolerance_must_be_finite_and_nonnegative(self, bare_cfg, monkeypatch, capsys,
                                                          value):
        monkeypatch.setenv("MESORATE_TOL", value)
        assert cli_main(["steady", "--config", bare_cfg]) == 2
        assert "MESORATE_TOL must be a finite number >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-300"])
    def test_flag_tolerance_must_be_finite_and_nonnegative(self, bare_cfg, monkeypatch, capsys,
                                                           value):
        monkeypatch.setenv("MESORATE_TOL", "1e-6")
        assert cli_main(["steady", "--config", bare_cfg, f"--tol={value}"]) == 2
        assert "--tol must be a finite number >= 0" in capsys.readouterr().err

    def test_zero_tolerance_accepted(self, bare_cfg, monkeypatch):
        assert cli_main(["steady", "--config", bare_cfg, "--tol", "0"]) == 0
        monkeypatch.setenv("MESORATE_TOL", "0")
        assert cli_main(["steady", "--config", bare_cfg]) == 0


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

    def test_config_parse_error(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[scenario]\nname = double_dot_bare\n[rates]\nGamma_L = abc\n")
        assert cli_main(["steady", "--config", str(p)]) == 2

    def test_degenerate_model_is_numerical_failure(self, tmp_path):
        p = tmp_path / "zero.cfg"
        p.write_text("[scenario]\nname = double_dot_bare\n"
                     "[rates]\nGamma_L = 0\nGamma_R = 0\nOmega = 0\n")
        assert cli_main(["steady", "--config", str(p)]) == 3

    def test_validate_reports_every_criterion(self, capsys):
        code = cli_main(["validate"])
        out = capsys.readouterr().out
        for number in range(1, 10):
            assert re.search(rf"^criterion {number}: (PASS|FAIL)", out, re.M)
        assert re.search(r"^\d/9 criteria passed$|^9/9 criteria passed$", out, re.M)
        assert code in (0, 4)
