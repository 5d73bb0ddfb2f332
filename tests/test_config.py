import itertools

import pytest

from mesorate import BlockingConfig, ConfigError, RateSet, parse_config, parse_grid, render_config
from mesorate.builders import scenario_table
from mesorate.config import RunConfig, RunOptions, required_rates

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
        assert cfg.run.t_final == 40.0
        assert cfg.run.dt == 0.01
        assert cfg.energy is None

    def test_energies_section(self):
        cfg = parse_config(FULL + "\n[energies]\nE0 = 2.0\n")
        assert cfg.energy.E0 == 2.0

    @pytest.mark.parametrize("section,line", [
        ("energies", "E1 = 0.0"), ("energies", "E2 = 0.0"),
        ("energies", "EFL_det = 1.5"), ("energies", "EFR_det = -1.5"),
        ("energies", "EFL_sys = 1.5"), ("energies", "EFR_sys = -1.5"),
        ("run", "tol = 1e-8"), ("run", "out = x.csv"),
    ])
    def test_removed_keys_are_unknown(self, section, line):
        # settings no command read are rejected, not silently ignored
        key = line.split()[0]
        # FULL ends inside its [run] section
        text = FULL + (f"{line}\n" if section == "run" else f"\n[energies]\n{line}\n")
        with pytest.raises(ConfigError, match=f"unknown key {key} in section \\[{section}\\]"):
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
                for flags in itertools.product((False, True), repeat=3)}
        assert read == {frozenset(("Gamma_L", "Gamma_R", "gamma_L", "gamma_R"))}

    def test_unknown_scenario_named_with_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[scenario]\nname = warp_dot\n")

    def test_negative_width_reported_as_config_error(self):
        text = "[scenario]\nname = double_dot_bare\n[rates]\nGamma_L = -1\nGamma_R = 1\nOmega = 1\n"
        with pytest.raises(ConfigError, match="width"):
            parse_config(text)

    def test_bad_format_value(self):
        with pytest.raises(ConfigError, match="format"):
            parse_config(FULL + "format = pdf\n")

    def test_bad_blocking_value(self):
        with pytest.raises(ConfigError, match="blocking"):
            parse_config(FULL + "blocking = sideways\n")

    def test_nonpositive_dt(self):
        with pytest.raises(ConfigError, match="dt"):
            parse_config(FULL.replace("dt = 0.01", "dt = 0"))


class TestRoundTrip:
    def cases(self):
        yield parse_config(FULL)
        yield parse_config(FULL + "\n[energies]\nE0 = 0.25\n")
        yield RunConfig(
            scenario="single_dot_set",
            rates=RateSet(gamma_L=0.1, gamma_R=1e4, gamma_L_p=0.05,
                          Gamma_L=1 / 3, Gamma_R=2.0),
            energy=None,
            run=RunOptions(param="gamma_R", grid="1:1e4:5log", format="csv", blocking="blind"),
        )

    def test_parse_of_render_is_identity(self):
        for cfg in self.cases():
            assert parse_config(render_config(cfg)) == cfg

    def test_render_is_stable(self):
        for cfg in self.cases():
            assert render_config(parse_config(render_config(cfg))) == render_config(cfg)


class TestParseGrid:
    def test_linear(self):
        assert parse_grid("0:2:5") == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_log(self):
        grid = parse_grid("1:1e4:4log")
        assert len(grid) == 4
        assert grid[0] == pytest.approx(1.0)
        assert grid[-1] == pytest.approx(1e4)
        assert grid[1] == pytest.approx(10.0 ** (4 / 3))

    def test_explicit_linear_suffix(self):
        assert parse_grid("1:3:3lin") == [1.0, 2.0, 3.0]

    def test_single_point(self):
        assert parse_grid("2.5:2.5:1") == [2.5]

    def test_bad_shapes(self):
        for bad in ("1:2", "1:2:3:4", "a:2:3", "1:2:xlog", "1:2:0"):
            with pytest.raises(ConfigError):
                parse_grid(bad)

    def test_log_needs_positive_endpoints(self):
        with pytest.raises(ConfigError, match="positive"):
            parse_grid("0:10:3log")
