import codecs
import dataclasses
import itertools

import numpy as np
import pytest

from mesorate import (BlockingConfig, ConfigError, RateSet, experiments, load_config,
                      parse_config, parse_grid, run_fermi_sweep)
from mesorate.builders import scenario_table
from mesorate.config import MAX_GRID_POINTS, RunConfig, required_rates

# the hand table the channel-table derivation replaced, kept literally so
# the derivation cannot silently drop a key
REQUIRED_RATES = {
    "single_dot_set": ("gamma_L", "gamma_R", "Gamma_L", "Gamma_R"),
    "double_dot_bare": ("Gamma_L", "Gamma_R", "Omega"),
    "reduced_double_dot": ("Gamma_L", "Gamma_R", "Omega", "gamma_L"),
    "double_dot_set": ("Gamma_L", "Gamma_R", "Omega", "gamma_L", "gamma_R"),
    "generalized_double_dot_set": ("Gamma_L", "Gamma_R", "Omega", "gamma_L", "gamma_R"),
}
REQUIRED_CASES = [(s, key) for s, keys in REQUIRED_RATES.items() for key in keys]


def rates_config(scenario, keys):
    return f"[scenario]\nname = {scenario}\n[rates]\n" + "".join(f"{k} = 1\n" for k in keys)

FULL = """\
# monitored coupled dots
[scenario]
name = double_dot_set

[rates]
gamma_L = 1.0
gamma_R = 1e4   # fast collector
Gamma_L = 1.0
Gamma_R = 1.0
Omega = 1.0
epsilon = 0.0
U1 = 1.0
U2 = 2.0

[run]
t_final = 40.0
dt = 0.01
"""


class TestParseConfig:
    def test_full_file(self):
        cfg = parse_config(FULL)
        assert cfg.scenario == "double_dot_set"
        assert cfg.rates.gamma_R == 1e4
        assert cfg.rates.gamma_R_p == 1e4  # primed follows unprimed
        assert cfg.rates.U2 == 2.0
        assert cfg.t_final == 40.0
        assert cfg.dt == 0.01
        assert cfg.E0 is None

    def test_energies_section(self):
        cfg = parse_config(FULL + "\n[energies]\nE0 = 2.0\n")
        assert cfg.E0 == 2.0

    @pytest.mark.parametrize("tail", ["\n[energies]\n", "\n[energies]\n# no level\n[run]\n"])
    def test_energies_section_without_E0_rejected(self, tail):
        # a section that sets nothing names its one key, not the section
        with pytest.raises(ConfigError, match=r"^missing required key E0 in section \[energies\]$"):
            parse_config(FULL + tail)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_nonfinite_detector_level_rejected(self, token):
        with pytest.raises(ConfigError, match=f"E0 must be finite, got '{token}'"):
            parse_config(FULL + f"\n[energies]\nE0 = {token}\n")

    @pytest.mark.parametrize("section,line", [
        ("energies", "E1 = 0.0"), ("energies", "E2 = 0.0"),
        ("energies", "EFL_det = 1.5"), ("energies", "EFR_det = -1.5"),
        ("energies", "EFL_sys = 1.5"), ("energies", "EFR_sys = -1.5"),
        ("run", "tol = 1e-8"), ("run", "out = x.csv"),
        # the flags --param, --grid and --format are their one setter
        ("run", "param = Omega"), ("run", "grid = 0:2:5"), ("run", "format = svg"),
    ])
    def test_removed_keys_are_unknown(self, section, line):
        # settings no command read are rejected, not silently ignored
        key = line.split()[0]
        # FULL ends inside its [run] section
        text = FULL + (f"{line}\n" if section == "run" else f"\n[energies]\n{line}\n")
        with pytest.raises(ConfigError, match=f"unknown key {key} in section \\[{section}\\]"):
            parse_config(text)

    def test_coulomb_shift_U_is_unknown(self):
        # RateSet.U is gone: nothing read it
        text = "[scenario]\nname = double_dot_bare\n[rates]\nGamma_L = 1\nGamma_R = 1\n" \
               "Omega = 1\nU = 3.0\n"
        with pytest.raises(ConfigError, match=r"line 7: unknown key U in section \[rates\]"):
            parse_config(text)

    def test_malformed_number_names_line(self):
        text = "[scenario]\nname = double_dot_bare\n[rates]\nGamma_L = abc\n"
        with pytest.raises(ConfigError, match="line 4"):
            parse_config(text)

    def test_duplicate_key_names_line(self):
        text = FULL + "\n[run]\n"  # second [run] section reopens it
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(text + "t_final = 1.0\n")

    def test_duplicate_rate_key(self):
        text = "[scenario]\nname = double_dot_bare\n[rates]\nOmega = 1\nOmega = 2\n"
        with pytest.raises(ConfigError, match="duplicate key Omega"):
            parse_config(text)

    def test_unknown_key_rejected(self):
        text = "[scenario]\nname = double_dot_bare\n[rates]\nOmega = 1\nspin = 2\n"
        with pytest.raises(ConfigError, match="unknown key spin"):
            parse_config(text)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section \[magic\]"):
            parse_config("[magic]\nx = 1\n")

    def test_line_without_equals_names_line(self):
        with pytest.raises(ConfigError, match=r"^line 2: expected key = value, got 'name'$"):
            parse_config("[scenario]\nname\n")

    def test_unknown_scenario_key_names_line(self):
        with pytest.raises(ConfigError,
                           match=r"^line 3: unknown key label in section \[scenario\]$"):
            parse_config("[scenario]\nname = double_dot_bare\nlabel = x\n")

    @pytest.mark.parametrize("token", ["0", "-1.0"])
    def test_nonpositive_t_final_rejected(self, token):
        text = FULL.replace("t_final = 40.0", f"t_final = {token}")
        with pytest.raises(ConfigError, match="^t_final must be positive$"):
            parse_config(text)

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("name = double_dot_bare\n")

    def test_missing_scenario_name(self):
        with pytest.raises(ConfigError, match="missing required key name"):
            parse_config("[rates]\nOmega = 1\n")

    @pytest.mark.parametrize("scenario,key", REQUIRED_CASES,
                             ids=[f"{s}-{k}" for s, k in REQUIRED_CASES])
    def test_missing_required_rate(self, scenario, key):
        text = rates_config(scenario, [k for k in REQUIRED_RATES[scenario] if k != key])
        with pytest.raises(ConfigError, match=f"missing required key {key} for scenario"):
            parse_config(text)

    @pytest.mark.parametrize("scenario", sorted(REQUIRED_RATES))
    def test_required_rates_suffice(self, scenario):
        assert parse_config(rates_config(scenario, REQUIRED_RATES[scenario])).scenario == scenario

    @pytest.mark.parametrize("scenario", sorted(REQUIRED_RATES))
    def test_required_rates_are_the_hand_table(self, scenario):
        assert sorted(required_rates(scenario)) == sorted(REQUIRED_RATES[scenario])

    def test_every_blocking_reads_the_same_widths(self):
        # required_rates derives the generalized scenario's keys from one blocking
        read = {frozenset(ch.rate for ch in scenario_table(
                    "generalized_double_dot_set", BlockingConfig(*flags)).channels)
                for flags in itertools.product((False, True), repeat=2)}
        assert read == {frozenset(("Gamma_L", "Gamma_R", "gamma_L", "gamma_R"))}

    def test_unknown_scenario_named_with_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[scenario]\nname = warp_dot\n")

    def test_negative_width_reported_as_config_error(self):
        text = "[scenario]\nname = double_dot_bare\n[rates]\nGamma_L = -1\nGamma_R = 1\nOmega = 1\n"
        with pytest.raises(ConfigError, match="width"):
            parse_config(text)

    def test_bad_blocking_value(self):
        with pytest.raises(ConfigError, match="blocking"):
            parse_config(FULL + "blocking = sideways\n")

    @pytest.mark.parametrize("scenario", sorted(REQUIRED_RATES))
    def test_blocking_only_for_the_generalized_scenario(self, scenario):
        # every other scenario fixes its own blocking, which the key would
        # not change
        text = rates_config(scenario, REQUIRED_RATES[scenario]) + "[run]\nblocking = blind\n"
        if scenario == "generalized_double_dot_set":
            assert parse_config(text).blocking == BlockingConfig(True, True)
            return
        with pytest.raises(ConfigError, match=f"blocking applies to generalized_double_dot_set "
                                              f"only, not to {scenario},"):
            parse_config(text)

    @pytest.mark.parametrize("scenario", sorted(REQUIRED_RATES))
    def test_blocking_config_of_each_scenario(self, scenario):
        # resolving when unset on the generalized scenario, None on every
        # scenario that fixes its own, so none compiles a table under a
        # blocking it would not read
        text = rates_config(scenario, REQUIRED_RATES[scenario])
        cfg = parse_config(text)
        if scenario == "generalized_double_dot_set":
            assert cfg.blocking == BlockingConfig(False, True)
            for name, flags in (("blind", (True, True)), ("open", (False, False))):
                named = parse_config(text + f"[run]\nblocking = {name}\n")
                assert named == dataclasses.replace(cfg, blocking=BlockingConfig(*flags))
        else:
            assert cfg.blocking is None
            assert scenario_table(scenario, cfg.blocking).label == scenario

    def test_resolving_blocking_and_fig3_share_one_table(self, monkeypatch):
        # [run] blocking = resolving and the resolving points of a Fermi
        # sweep reach the same cached table object
        text = (rates_config("generalized_double_dot_set",
                             REQUIRED_RATES["generalized_double_dot_set"])
                + "U1 = 1\nU2 = 2\n[run]\nblocking = resolving\n")
        cfg = parse_config(text)
        solved = []
        solve = experiments._solved_rows

        def recorded(table, *args, **kwargs):
            solved.append(table)
            return solve(table, *args, **kwargs)

        monkeypatch.setattr(experiments, "_solved_rows", recorded)
        table = run_fermi_sweep(cfg.rates, 0.0, [0.5, 1.5])
        assert table.regime == ("blind", "resolving")
        assert solved[1] is scenario_table(cfg.scenario, cfg.blocking)

    def test_nonpositive_dt(self):
        with pytest.raises(ConfigError, match="dt"):
            parse_config(FULL.replace("dt = 0.01", "dt = 0"))


# configs with two or more faults and the one error each reports: the
# sections are checked in order ([scenario], [rates], [energies], [run]),
# each section's keys in file order, then the section's own checks
MULTI_ERROR_CASES = [
    ("[scenario]\nname = nope\n[rates]\ngamma_L = abc\n",
     "line 2: unknown scenario 'nope'"),
    ("[scenario]\nlabel = x\nname = nope\n",
     "line 2: unknown key label in section [scenario]"),
    ("[scenario]\nname = double_dot_bare\n[rates]\nbogus = 1\nGamma_L = abc\n",
     "line 4: unknown key bogus in section [rates]"),
    ("[scenario]\nname = double_dot_bare\n[rates]\nGamma_L = abc\nbogus = 1\n",
     "line 4: malformed number for Gamma_L: 'abc'"),
    ("[scenario]\nname = double_dot_bare\n[rates]\nGamma_L = -1\nGamma_R = 1\nOmega = 1\n"
     "[energies]\nE1 = 0\n",
     "width Gamma_L must be >= 0, got -1.0"),
    ("[scenario]\nname = double_dot_bare\n[rates]\nGamma_L = 1\n[run]\nspeed = 2\n",
     "missing required key Gamma_R for scenario double_dot_bare"),
    (FULL.replace("double_dot_set", "generalized_double_dot_set")
     + "blocking = sideways\nspeed = 2\n",
     "line 19: unknown key speed in section [run]"),
    (FULL.replace("dt = 0.01", "dt = 0") + "blocking = blind\n",
     "blocking applies to generalized_double_dot_set only, not to double_dot_set, "
     "which fixes its own"),
    (FULL.replace("dt = 0.01", "dt = 0").replace("t_final = 40.0", "t_final = -1"),
     "dt must be positive"),
    (FULL.replace("dt = 0.01", "dt = abc") + "\n[energies]\nE0 = nan\n",
     "line 20: E0 must be finite, got 'nan'"),
    (FULL + "bogus = 1\n\n[energies]\n",
     "missing required key E0 in section [energies]"),
]


@pytest.mark.parametrize("text,message", MULTI_ERROR_CASES,
                         ids=[str(k) for k in range(len(MULTI_ERROR_CASES))])
def test_multi_error_config_reports_its_first_error(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message


class TestParsedConfig:
    """parse_config reads a file into exactly the RunConfig it spells out."""

    def test_full_file_exactly(self):
        assert parse_config(FULL) == RunConfig(
            scenario="double_dot_set",
            rates=RateSet(gamma_L=1.0, gamma_R=1e4, Gamma_L=1.0, Gamma_R=1.0, Omega=1.0,
                          epsilon=0.0, U1=1.0, U2=2.0),
            E0=None,
            dt=0.01,
            t_final=40.0,
            blocking=None,
        )

    def test_file_with_a_byte_order_mark(self, tmp_path):
        # Windows editors may start a UTF-8 file with a byte-order mark
        path = tmp_path / "run.cfg"
        path.write_bytes(codecs.BOM_UTF8 + FULL.encode())
        assert load_config(str(path)) == parse_config(FULL)

    def test_energies_section_sets_only_the_energy(self):
        cfg = parse_config(FULL + "\n[energies]\nE0 = 0.25\n")
        assert cfg == dataclasses.replace(parse_config(FULL), E0=0.25)

    def test_string_run_keys_and_a_primed_width(self):
        text = (
            "[scenario]\nname = generalized_double_dot_set\n\n[rates]\n"
            "gamma_L = 0.1\ngamma_R = 1e4\ngamma_L_p = 0.05\nGamma_L = 0.3333333333333333\n"
            "Gamma_R = 2.0\nOmega = 0.0\n\n[run]\n"
            "blocking = blind\n")
        assert parse_config(text) == RunConfig(
            scenario="generalized_double_dot_set",
            rates=RateSet(gamma_L=0.1, gamma_R=1e4, gamma_L_p=0.05,
                          Gamma_L=1 / 3, Gamma_R=2.0),
            E0=None,
            dt=None,
            t_final=None,
            blocking=BlockingConfig(True, True),
        )


class TestParseGrid:
    def test_linear(self):
        assert parse_grid("0:2:5").tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_log(self):
        grid = parse_grid("1:1e4:4log")
        assert len(grid) == 4
        assert grid[0] == pytest.approx(1.0)
        assert grid[-1] == pytest.approx(1e4)
        assert grid[1] == pytest.approx(10.0 ** (4 / 3))

    def test_explicit_linear_suffix(self):
        assert parse_grid("1:3:3lin").tolist() == [1.0, 2.0, 3.0]

    def test_single_point(self):
        assert parse_grid("2.5:2.5:1").tolist() == [2.5]

    @pytest.mark.parametrize("spec,expected", [
        ("1:1e4:25log", np.geomspace(1.0, 1e4, 25)),
        ("-3:3:13", np.linspace(-3.0, 3.0, 13)),
        ("0.1:1.9:40lin", np.linspace(0.1, 1.9, 40)),
    ])
    def test_is_the_numpy_array_itself(self, spec, expected):
        # the float64 array both sweeps take, with numpy's bits
        grid = parse_grid(spec)
        assert isinstance(grid, np.ndarray) and grid.dtype == np.float64 and grid.ndim == 1
        assert grid.tobytes() == expected.tobytes()

    def test_bad_shapes(self):
        for bad in ("1:2", "1:2:3:4", "a:2:3", "1:2:xlog", "1:2:0"):
            with pytest.raises(ConfigError):
                parse_grid(bad)

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_overflowing_linear_span_refused(self, count):
        # numpy would warn on the overflow, then return a NaN first point
        with pytest.raises(ConfigError, match=r"grid span 1e\+308 - -1e\+308 overflows"):
            parse_grid(f"-1e308:1e308:{count}")
        assert parse_grid(f"-8e307:8e307:{count}")[-1] == (8e307 if count > 1 else -8e307)

    @pytest.mark.parametrize("suffix", ["", "lin", "log"])
    def test_count_above_the_cap_refused_before_allocating(self, monkeypatch, suffix):
        def refuse(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(np, "linspace", refuse)
        monkeypatch.setattr(np, "geomspace", refuse)
        for count in (MAX_GRID_POINTS + 1, 99999999999):
            with pytest.raises(ConfigError, match=f"grid count {count} exceeds the cap of "
                                                  f"{MAX_GRID_POINTS} points"):
                parse_grid(f"1:10:{count}{suffix}")

    def test_infinite_endpoint_refused(self):
        with pytest.raises(ConfigError, match="^grid endpoints must be finite$"):
            parse_grid("1:inf:3")

    def test_log_needs_positive_endpoints(self):
        with pytest.raises(ConfigError, match="positive"):
            parse_grid("0:10:3log")
