"""The failure contract of cli_main, fuzzed in process.

Seeded random configs and flags over every scenario and blocking regime,
with rates across the whole float range and its edges (0, -0.0, NaN, inf,
negative values), zero unprimed detector widths, missing, duplicate and
unknown keys and bad grids, each run with numpy's overflow, invalid-value
and divide errors raised and RuntimeWarnings as errors.  Every case must
end in a documented exit code without an exception leaving cli_main; a
failure must write exactly one stderr line, prefixed by its class, nothing
to stdout and no output file.
"""

import contextlib
import io
import math
import random
import warnings

import numpy as np

from mesorate import cli_main
from mesorate.builders import GENERALIZED_DOUBLE_DOT_SET, REGIMES, SCENARIOS
from mesorate.model import RATE_FIELDS

CASES = 300
PREFIXES = {2: ("config error: ", "i/o error: "), 3: ("numerical failure: ",)}
EDGES = (0.0, -0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf, -1.0)
UNPRIMED = [f for f in RATE_FIELDS if not f.endswith("_p")]
PRIMED = [f for f in RATE_FIELDS if f.endswith("_p")]
BAD_GRIDS = ("1:2", "a:1:3", "1:2:0", "1:2:-3", "1:2:100001", "1:2:3.5", "0:1:3log",
             "-1:1:3log", "nan:1:3", "1:inf:3", "-1e308:1e308:3", "1e308:1.7e308:3lin",
             "5e-324:1e308:7log", "::", "")


def _magnitude(rng, decades):
    """A positive float, log-uniform over decades either side of 1 (the
    whole float range, subnormals included, when decades reaches it)."""
    return 10.0 ** rng.uniform(-min(decades, 323.3), min(decades, 308.25))


def _rate(rng, decades):
    return rng.choice(EDGES) if rng.random() < 0.025 else _magnitude(rng, decades)


def _config(rng, decades):
    """The config text of one case and its scenario."""
    scenario = rng.choice(SCENARIOS)
    rates = {f: _rate(rng, decades) for f in UNPRIMED}
    if rng.random() < 0.25:             # no unprimed detector widths
        rates["gamma_L"] = rates["gamma_R"] = rng.choice((0.0, -0.0))
    if rng.random() < 0.25:             # primed widths, mostly equal amplitudes
        for f in PRIMED:
            rates[f] = rates[f[:-2]] if rng.random() < 0.8 else _rate(rng, decades)
    if rates["U2"] < rates["U1"] and rng.random() < 0.8:
        rates["U1"], rates["U2"] = rates["U2"], rates["U1"]
    lines = ["[scenario]", f"name = {scenario}", "[rates]"]
    lines += [f"{key} = {value!r}" for key, value in rates.items()]
    lines += ["[energies]", f"E0 = {rng.choice((0.0, 0.0, -0.5, 1e308, _rate(rng, 3)))!r}"]
    # at most a few hundred steps, so a case stays cheap: a given dt and a
    # multiple of it, or the default step and a multiple of the one it
    # takes when the largest rate sets the generator's scale
    lines.append("[run]")
    if rng.random() < 0.5:
        dt = rng.choice((_magnitude(rng, 3), _rate(rng, decades)))
        lines.append(f"dt = {dt!r}")
        t_final = dt * rng.randint(1, 300)
    else:
        t_final = 0.1 * rng.randint(1, 50) / max(abs(v) for v in rates.values())
    if rng.random() < 0.05:
        t_final = _rate(rng, decades)
    lines.append(f"t_final = {t_final!r}")
    if scenario == GENERALIZED_DOUBLE_DOT_SET and rng.random() < 0.7 or rng.random() < 0.03:
        lines.append(f"blocking = {'bogus' if rng.random() < 0.05 else rng.choice(list(REGIMES))}")
    fault = rng.random()
    if fault < 0.06:                    # a missing key or section header
        del lines[rng.randrange(len(lines))]
    elif fault < 0.10:                  # a duplicate key
        k = rng.randrange(len(lines))
        if "=" in lines[k]:
            lines.insert(k, lines[k])
    elif fault < 0.13:                  # an unknown key
        lines.insert(rng.randrange(1, len(lines) + 1), rng.choice(("U = 1.0", "tol = 1e-9")))
    return "\n".join(lines) + "\n", scenario


def _grid(rng, decades, fermi):
    if rng.random() < 0.12:
        return rng.choice(BAD_GRIDS)
    count = rng.randint(1, 30)
    if fermi:
        lo, hi = rng.uniform(-0.2, 2.2), rng.uniform(-0.2, 2.2)
        return f"{lo!r}:{hi!r}:{count}"
    lo, hi = _magnitude(rng, decades), _magnitude(rng, decades)
    if rng.random() < 0.15:
        lo = -lo
    return f"{lo!r}:{hi!r}:{count}{rng.choice(('', 'log', 'lin'))}"


def _argv(rng, decades, scenario, config, out):
    fig3 = rng.random() < (0.4 if scenario == GENERALIZED_DOUBLE_DOT_SET else 0.03)
    command = "fig3" if fig3 else rng.choice(("steady", "evolve", "sweep"))
    argv = [command, "--config", config]
    if command == "steady":
        if rng.random() < 0.1:
            argv.append(f"--tol={rng.choice((0.0, 1e-12, 1.0, math.nan, -1.0, math.inf))!r}")
        return argv
    argv += ["--out", out]
    if command == "sweep":
        argv.append(f"--param={rng.choice([*RATE_FIELDS, 'U'])}")
    if command in ("sweep", "fig3"):
        argv.append(f"--grid={_grid(rng, decades, command == 'fig3')}")
        argv.append(f"--format={rng.choice(('csv', 'svg'))}")
    return argv


def _run(argv):
    """cli_main's exit code (or the exception that left it), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            np.errstate(over="raise", invalid="raise", divide="raise"), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli_main(argv)
        except Exception as exc:     # anything escaping cli_main breaks the contract
            code = exc
    return code, out.getvalue(), err.getvalue()


def _breaches(code, out, err, command, output):
    """How one case breaks the contract; empty when it keeps it."""
    if code == 0:
        breaches = [f"stderr line {line!r}" for line in err.splitlines()
                    if not line.startswith("warning: ")]
        if not out:
            breaches.append("no stdout")
        if command != "steady" and not output.exists():
            breaches.append("no output file")
        return breaches
    if code not in PREFIXES:
        return [f"exit {code!r}"]
    breaches = []
    if not (err.endswith("\n") and err.count("\n") == 1 and err.startswith(PREFIXES[code])):
        breaches.append(f"stderr {err!r}")
    if out:
        breaches.append(f"stdout {out!r}")
    if output.exists():
        breaches.append("an output file")
    return breaches


def test_every_case_ends_in_a_documented_exit(tmp_path):
    rng = random.Random(29)
    breaches, codes = [], []
    for case in range(CASES):
        decades = rng.choice((9.0, 330.0))
        text, scenario = _config(rng, decades)
        config = tmp_path / f"case{case}.cfg"
        config.write_text(text)
        config_arg = str(config) if rng.random() < 0.98 else str(tmp_path / "missing.cfg")
        output = tmp_path / f"out{case}"
        out_arg = str(output) if rng.random() < 0.98 else str(tmp_path / "no" / "such" / "dir")
        argv = _argv(rng, decades, scenario, config_arg, out_arg)
        code, out, err = _run(argv)
        codes.append(code)
        found = _breaches(code, out, err, argv[0], output)
        if found:
            breaches.append((argv, text, found))
    assert not breaches, "\n\n".join(f"{argv}: {found}\n{text}" for argv, text, found in breaches[:3])
    # the cases reach each documented code
    assert {0, 2, 3} <= set(codes)
