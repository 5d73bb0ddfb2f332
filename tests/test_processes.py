"""Outputs that one test process cannot vary: the hash seed and the CPUs.

The sweeps iterate dicts and sets of RateSet field names, so their bytes
could follow the interpreter's hash seed, which a running process cannot
change.  One child interpreter per seed runs every command below through
cli_main, with numpy's RuntimeWarnings as errors, and the two must agree
on every output file, stdout, stderr and exit code.  A third child runs
the stiff sweep on one CPU, where steady_states solves its 1000 members in
one part, as against one part per CPU otherwise: its bytes must be those
of the split run.  The children start together and inherit the
environment, so the CPU-kernel settings of the test process hold in them
too.
"""

import json
import os
import subprocess
import sys

import pytest

import mesorate

RATES = """\
[rates]
gamma_L = 1.0
gamma_R = 1e4
Gamma_L = 1.0
Gamma_R = 1.0
Omega = 1.0
epsilon = 0.0
U1 = 1.0
U2 = 2.0
"""


def _double_dot(gamma_R, more=""):
    """double_dot_set at the README rates with gamma_R set, and more text
    after its [rates] section"""
    return ("[scenario]\nname = double_dot_set\n"
            + RATES.replace("gamma_R = 1e4", f"gamma_R = {gamma_R}") + more)


# the files a child writes before its commands, into its own directory
FILES = {
    "run.cfg": _double_dot("1e4"),
    "fig3.cfg": "[scenario]\nname = generalized_double_dot_set\n" + RATES
                + "[energies]\nE0 = 0.0\n",
    # the sweep_stiff benchmark input, where the rank test's proof and its
    # SVD each decide rows of one stack
    "stiff.cfg": "[scenario]\nname = double_dot_set\n[rates]\ngamma_L = 1.0\ngamma_R = 1.0\n"
                 "Gamma_L = 1e-3\nGamma_R = 1e-3\nOmega = 1e-3\nU1 = 0.0\nU2 = 0.0\n",
    # the README rates exceed the step cap; gamma_R = 3 does not
    "evolve.cfg": _double_dot("3.0", "[run]\nt_final = 40.0\n"),
    # long past the samples' fixed point
    "evolve-long.cfg": _double_dot("3.0", "[run]\ndt = 0.02\nt_final = 500.0\n"),
    # samples that cycle with period 226 and never reach a fixed point
    "evolve-cycle.cfg": _double_dot("3.2028859394138767", "[run]\ndt = 0.02\nt_final = 500.0\n"),
    # 3 * (0.9 / 3) rounds below t_final
    "endpoint.cfg": "[scenario]\nname = single_dot_set\n[rates]\ngamma_L = 1\ngamma_R = 1\n"
                    "Gamma_L = 1\nGamma_R = 1\n[run]\ndt = 0.3\nt_final = 0.9\n",
    "evolve-overflow.cfg": _double_dot("1e80", "[run]\ndt = 0.02\nt_final = 1.0\n"),
    # fails its trace check at step 484
    "evolve-drift.cfg": _double_dot("3.0", "[run]\ndt = 0.52\nt_final = 500.0\n"),
    "unequal.cfg": _double_dot("1e4", "gamma_R_p = 2.0\n[run]\nt_final = 1.0\n"),
    # solves, but its bare detector current is undefined
    "zero.cfg": "[scenario]\nname = single_dot_set\n[rates]\ngamma_L = 0\ngamma_R = 0\n"
                "gamma_L_p = 1\ngamma_R_p = 1\nGamma_L = 1\nGamma_R = 1\n",
    # every row NaN
    "nan.cfg": "[scenario]\nname = double_dot_bare\n[rates]\nGamma_L = 0\nGamma_R = 0\n"
               "Omega = 0\n",
    "ts-kept.csv": "kept\n",
}

STIFF_SWEEP = ["sweep", "--config", "stiff.cfg", "--param", "gamma_R",
               "--grid", "1:1e12:1000log", "--out", "stiff.csv"]

# name -> argv, in the order a child runs them
COMMANDS = {
    "sweep": ["sweep", "--config", "run.cfg", "--param", "gamma_R", "--grid", "1:1e4:25log",
              "--out", "sweep.csv"],
    "sweep-svg": ["sweep", "--config", "run.cfg", "--param", "gamma_R", "--grid", "1:1e4:25log",
                  "--format", "svg", "--out", "sweep.svg"],
    "stiff": STIFF_SWEEP,
    "fig3": ["fig3", "--config", "fig3.cfg", "--grid", "0.1:1.9:40", "--out", "step.csv"],
    "fig3-svg": ["fig3", "--config", "fig3.cfg", "--grid", "0.1:1.9:40", "--format", "svg",
                 "--out", "step.svg"],
    "steady": ["steady", "--config", "run.cfg"],
    "evolve": ["evolve", "--config", "evolve.cfg", "--out", "ts.csv"],
    "evolve-long": ["evolve", "--config", "evolve-long.cfg", "--out", "ts-long.csv"],
    "evolve-cycle": ["evolve", "--config", "evolve-cycle.cfg", "--out", "ts-cycle.csv"],
    "evolve-endpoint": ["evolve", "--config", "endpoint.cfg", "--out", "ts-endpoint.csv"],
    # refused by assembly (2 * Omega overflows), by the RateSet rule, and
    # by unequal tunneling amplitudes, which every command reads alike
    "refused-overflow": ["sweep", "--config", "fig3.cfg", "--param", "Omega",
                         "--grid", "1:1e308:3", "--out", "overflow.csv"],
    "refused-negative": ["sweep", "--config", "run.cfg", "--param", "gamma_R",
                         "--grid", "1:-1:3", "--out", "negative.csv"],
    "refused-unequal": ["sweep", "--config", "unequal.cfg", "--param", "gamma_L",
                        "--grid", "1:2:3", "--out", "unequal.csv"],
    "unequal-steady": ["steady", "--config", "unequal.cfg"],
    "unequal-evolve": ["evolve", "--config", "unequal.cfg", "--out", "unequal-ts.csv"],
    "zero": ["steady", "--config", "zero.cfg"],
    "nan": ["sweep", "--config", "nan.cfg", "--param", "Omega", "--grid", "0:0:2",
            "--out", "nan.csv"],
    "nan-svg": ["sweep", "--config", "nan.cfg", "--param", "Omega", "--grid", "0:0:2",
                "--format", "svg", "--out", "nan.svg"],
    "evolve-overflow": ["evolve", "--config", "evolve-overflow.cfg", "--out", "ts-overflow.csv"],
    "evolve-drift": ["evolve", "--config", "evolve-drift.cfg", "--out", "ts-drift.csv"],
    "evolve-drift-kept": ["evolve", "--config", "evolve-drift.cfg", "--out", "ts-kept.csv"],
    "validate": ["validate"],
}

# takes a job as its argument, runs its commands in its directory through
# cli_main and writes {name: [exit code, stdout, stderr]} to stdout
CHILD = """\
import contextlib, io, json, os, sys
from mesorate import cli_main
job = json.loads(sys.argv[1])
os.chdir(job["dir"])
if job["one_cpu"]:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
for name, text in job["files"].items():
    with open(name, "w", encoding="utf-8") as fh:
        fh.write(text)
results = {}
for name, argv in job["commands"].items():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    results[name] = [code, out.getvalue(), err.getvalue()]
json.dump(results, sys.stdout)
"""

ONE_CPU = hasattr(os, "sched_setaffinity")


@pytest.fixture(scope="module")
def children(tmp_path_factory):
    """{label: (directory, results)} for the children of hash seeds 0 and 1
    and, where the platform can pin a process to one CPU, the one-CPU
    child; all started before the first is waited for."""
    src = os.path.dirname(os.path.dirname(mesorate.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    jobs = {0: COMMANDS, 1: COMMANDS}
    if ONE_CPU:
        jobs["one-cpu"] = {"stiff": STIFF_SWEEP}
    started = {}
    try:
        for label, commands in jobs.items():
            directory = tmp_path_factory.mktemp(f"child-{label}")
            job = {"dir": str(directory), "one_cpu": label == "one-cpu", "files": FILES,
                   "commands": commands}
            started[label] = directory, subprocess.Popen(
                [sys.executable, "-W", "error::RuntimeWarning", "-c", CHILD, json.dumps(job)],
                env={**env, "PYTHONHASHSEED": "0" if label == "one-cpu" else str(label)},
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True)
        done = {}
        for label, (directory, proc) in started.items():
            out, err = proc.communicate(timeout=300)
            assert (proc.returncode, err) == (0, ""), f"child {label}: {err}"
            done[label] = directory, json.loads(out)
        return done
    finally:
        for _, proc in started.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def _outcome(child, name):
    """A command's exit code, stdout, stderr and the bytes of its --out
    (None where the command left no file)."""
    directory, results = child
    argv = COMMANDS[name]
    out = directory / argv[argv.index("--out") + 1] if "--out" in argv else None
    return results[name], out.read_bytes() if out and out.exists() else None


@pytest.mark.parametrize("name", COMMANDS)
def test_a_command_does_not_depend_on_the_hash_seed(children, name):
    assert _outcome(children[0], name) == _outcome(children[1], name)


def test_the_children_leave_the_same_files(children):
    (dir0, _), (dir1, _) = children[0], children[1]
    assert sorted(os.listdir(dir0)) == sorted(os.listdir(dir1))
    for name in os.listdir(dir0):
        assert (dir0 / name).read_bytes() == (dir1 / name).read_bytes(), name


@pytest.mark.skipif(not ONE_CPU, reason="os.sched_setaffinity is missing on this platform")
def test_the_stiff_sweep_on_one_cpu_has_the_bytes_of_the_split_run(children):
    assert _outcome(children["one-cpu"], "stiff") == _outcome(children[0], "stiff")
