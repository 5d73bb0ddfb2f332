"""What each entry point loads, and the lazy `mesorate` namespace.

A name of `mesorate` loads the module that defines it on first use, and
each command imports the modules only it needs, so start-up pays for what
the caller uses.  What a process has loaded is only seen from a fresh
interpreter: each case below starts one, runs one entry point and reports
its `sys.modules`.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import mesorate

# the 43 public names of the package, by the module that defines each
EXPORTS = {
    "model": ["DIAGONAL", "IM_COHERENCE", "RE_COHERENCE", "Generator", "IndexMap", "RateSet",
              "StateVector", "VariableIndex", "basis_state", "pack", "validate_state"],
    "builders": ["DOUBLE_DOT_BARE", "DOUBLE_DOT_SET", "GENERALIZED_DOUBLE_DOT_SET",
                 "REDUCED_DOUBLE_DOT", "REGIMES", "SCENARIOS", "SINGLE_DOT_SET",
                 "BlockingConfig", "scenario_table"],
    "solver": ["DegenerateSteadyState", "ResidualTooLarge", "StepTooLarge", "Trajectory",
               "default_step", "evolve", "steady_state", "steady_states"],
    "analytic": ["bare_current", "dephased_current", "single_dot_current"],
    "experiments": ["SweepTable", "run_fermi_sweep", "run_sweep"],
    "config": ["ConfigError", "RunConfig", "load_config", "parse_config", "parse_grid"],
    "output": ["write_csv", "write_svg", "write_timeseries_csv"],
    "cli": ["cli_main"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)

SUBMODULES = ["acceptance", "analytic", "builders", "cli", "config", "experiments", "model",
              "observables", "output", "solver"]

CONFIGS = {
    "bare.cfg": "[scenario]\nname = double_dot_bare\n[rates]\nGamma_L = 1\nGamma_R = 1\n"
                "Omega = 1\n[run]\nt_final = 3\n",
    "fig3.cfg": "[scenario]\nname = generalized_double_dot_set\n[rates]\ngamma_L = 1\n"
                "gamma_R = 1e4\nGamma_L = 1\nGamma_R = 1\nOmega = 1\nU1 = 1\nU2 = 2\n"
                "[energies]\nE0 = 0\n",
}

# the child reports the modules it loaded: numpy, and mesorate's submodules
# by their short names
CHILD = """\
import contextlib, io, json, sys
{code}
print(json.dumps(sorted(name.removeprefix("mesorate.") for name in sys.modules
                        if name == "numpy" or name.startswith("mesorate."))))
"""


def loaded_by(code, cwd):
    """The modules a fresh interpreter has loaded after running code."""
    src = os.path.dirname(os.path.dirname(mesorate.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", CHILD.format(code=code)], cwd=cwd, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def command(argv, code):
    """Child code running argv through cli_main, its stdout kept out of the
    report, and checking its exit code."""
    return ("from mesorate.cli import cli_main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli_main({argv!r}) == {code}\n")


COMMANDS = {
    "steady": (["steady", "--config", "bare.cfg"], 0),
    "evolve": (["evolve", "--config", "bare.cfg", "--out", "ts.csv"], 0),
    "sweep": (["sweep", "--config", "bare.cfg", "--param", "Omega", "--grid", "1:2:3",
               "--out", "sweep.csv"], 0),
    "fig3": (["fig3", "--config", "fig3.cfg", "--grid", "0.1:0.9:3", "--format", "svg",
              "--out", "fig3.svg"], 0),
    "validate": (["validate"], 4),      # criteria 5 and 10 fail by design
}

# command -> the modules it must not load
NOT_LOADED = {
    "steady": {"acceptance", "experiments", "analytic", "output"},
    "evolve": {"acceptance"},
    "sweep": {"acceptance"},
    "fig3": {"acceptance"},
    "validate": {"output"},
}


@pytest.fixture
def configs(tmp_path):
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text)
    return tmp_path


class TestWhatLoads:
    def test_the_bare_package_loads_no_submodule_and_not_numpy(self, tmp_path):
        assert loaded_by("import mesorate", tmp_path) == set()

    def test_the_set_up_probe_loads_config_builders_and_model(self, configs):
        # perfbench's set-up probe: the package, a config and a grid
        code = ("import mesorate\nfrom mesorate.config import load_config, parse_grid\n"
                "load_config('fig3.cfg'); parse_grid('0.1:0.9:3')")
        assert loaded_by(code, configs) == {"numpy", "builders", "config", "model"}

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_a_command_loads_only_what_it_uses(self, configs, name):
        loaded = loaded_by(command(*COMMANDS[name]), configs)
        assert {"cli", "config", "builders", "model"} <= loaded
        assert not loaded & NOT_LOADED[name]


class TestNamespace:
    """The lazy namespace has the names the package exported when it
    imported every module."""

    def test_a_name_is_its_modules_own(self):
        for module, names in EXPORTS.items():
            defining = importlib.import_module(f"mesorate.{module}")
            for name in names:
                assert getattr(mesorate, name) is getattr(defining, name), name

    def test_every_name_imports_from_the_package(self):
        ns = {}
        exec(f"from mesorate import {', '.join(NAMES)}", ns)
        assert all(ns[name] is getattr(mesorate, name) for name in NAMES)

    def test_all_and_dir_list_the_names(self):
        assert len(NAMES) == 43
        assert sorted(mesorate.__all__) == NAMES
        assert set(NAMES) | {"__version__"} <= set(dir(mesorate))

    def test_a_star_import_gives_the_names(self):
        ns = {}
        exec("from mesorate import *", ns)
        assert sorted(name for name in ns if name != "__builtins__") == NAMES

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            mesorate.no_such_name
        with pytest.raises(ImportError):
            exec("from mesorate import no_such_name", {})

    def test_a_submodule_resolves_after_a_bare_import(self, tmp_path):
        # observables defines no name of the package
        code = "import mesorate\n" + "".join(
            f"assert mesorate.{name} is sys.modules['mesorate.{name}']\n"
            for name in ["solver", "observables"])
        assert {"solver", "observables"} <= loaded_by(code, tmp_path)

    def test_every_submodule_is_an_attribute(self):
        for name in SUBMODULES:
            assert getattr(mesorate, name) is importlib.import_module(f"mesorate.{name}")
