"""Bit-identity regression: SHA-256 digests of every generator, every
weight map, the CLI outputs on the README configs and the `validate`
report.

`np.array_equal` cannot see the sign of a zero (-0.0 == 0.0), but the
CSV writer prints `-0`, so the digests pin the raw bytes instead.  The
expected values were recorded from the hand-coded builders that preceded
the channel tables; the evolve and time-series digests were recorded
from the one-matrix RK4 propagator, which departs from the stage-wise
step at rounding level (test_solver.py bounds the gap); the long evolve
digest was recorded before evolve and the time-series writer stopped
redoing the work of repeated samples, and the cycling evolve digest
before the writer formatted a piece of rows in one call.  Regenerate them only for a
deliberate change of numbers, never to make a refactor pass.
"""

import hashlib
import itertools

import numpy as np
import pytest

from mesorate import BlockingConfig, RateSet, basis_state, cli_main, evolve, scenario_table
from mesorate.acceptance import _GOLDEN_SETS, _hand_coded_double_dot_set
from mesorate.output import timeseries_csv_text

WIDTHS = ("gamma_L", "gamma_R", "Gamma_L", "Gamma_R")


def random_sets(n=50, seed=20261017):
    """Log-uniform widths with exact zeros mixed in; every other set has
    independent primed widths."""
    rng = np.random.default_rng(seed)

    def width():
        return 0.0 if rng.random() < 0.25 else float(10.0 ** rng.uniform(-2, 2))

    out = []
    for k in range(n):
        kwargs = {name: width() for name in WIDTHS}
        if k % 2:
            kwargs.update({name + "_p": width() for name in WIDTHS})
        kwargs["Omega"] = width()
        kwargs["epsilon"] = 0.0 if rng.random() < 0.25 else float(rng.uniform(-10, 10))
        kwargs["U1"] = float(rng.uniform(-3, 3))
        kwargs["U2"] = float(rng.uniform(0, 6))
        out.append(RateSet(**kwargs))
    return out


# negative zeros pass RateSet validation (-0.0 < 0.0 is False), so they
# reach the builders and must keep their sign through assembly
SIGNED_ZERO_SETS = (
    RateSet(**{name: -0.0 for name in WIDTHS}, Omega=-0.0, epsilon=-0.0, U1=-0.0, U2=-0.0),
    RateSet(gamma_L=-0.0, gamma_R=1.5, Gamma_L=-0.0, Gamma_R=0.75, Omega=-0.0,
            epsilon=-0.0, U1=0.0, U2=-0.0),
    RateSet(gamma_L=0.5, gamma_R=-0.0, Gamma_L=2.0, Gamma_R=-0.0, Omega=1.0,
            epsilon=0.0, U1=-0.0, U2=0.0),
    RateSet(gamma_L=-0.0, gamma_R=-0.0, Gamma_L=1.0, Gamma_R=1.0, gamma_L_p=0.25,
            gamma_R_p=-0.0, Gamma_L_p=-0.0, Gamma_R_p=3.0, Omega=0.5),
)

SETS = {
    "golden_and_random": tuple(_GOLDEN_SETS) + (RateSet(),) + tuple(random_sets()),
    "signed_zero": SIGNED_ZERO_SETS,
}

CONFIGS = [("single_dot_set", None), ("double_dot_bare", None),
           ("reduced_double_dot", None), ("double_dot_set", None)] + [
    ("generalized_double_dot_set", BlockingConfig(*flags))
    for flags in itertools.product((False, True), repeat=2)]


def config_id(scenario, blocking):
    if blocking is None:
        return scenario
    flags = (blocking.blocked_when_dot1, blocking.blocked_when_dot2)
    return f"{scenario}:{''.join(str(int(f)) for f in flags)}"


def generator_digest(build, sets):
    h = hashlib.sha256()
    for r in sets:
        try:
            h.update(build(r).matrix.tobytes())
        except ValueError:
            h.update(b"ValueError")
    return h.hexdigest()


def weights_digest(scenario, blocking, sets):
    h = hashlib.sha256()
    table = scenario_table(scenario, blocking)
    for r in sets:
        w = table.weights(r)
        for name in ("system", "detector", "detector_return"):
            h.update(repr(sorted(w[name].items())).encode())
    return h.hexdigest()


GENERATOR_SHA256 = {
    "single_dot_set/golden_and_random": "feb6a42b1b45037aee592e163402dae4f780bacb9664c05339c1eadb543dc67d",
    "single_dot_set/signed_zero": "12a56c2b8fb67103d1e21d91dbfbc62dd24200d72e0600d46820384ceaa8e055",
    "double_dot_bare/golden_and_random": "8f08647d4793492ced98d335d2be8700f4b1ad294de0ade8cd5aa75ee260bfb3",
    "double_dot_bare/signed_zero": "f5b65ff32242437ab1bfd37be7117fa08f8dfd27b9ebced10b3ec1d1cb1c54db",
    "reduced_double_dot/golden_and_random": "ea8e34bf045b320aad66e43335ba7b63331cb2e76645ffb1254189df08db2b19",
    "reduced_double_dot/signed_zero": "a9a25311189c8aa11e673c8edf03acf7a86dae8d052f6ae777b42c7841a7206c",
    "double_dot_set/golden_and_random": "426774975899d0d1ae64d9bb397a3ef71b0e49a6aa96f88ed86c5f8e29aa2276",
    "double_dot_set/signed_zero": "055dfb163ad26dc4d1bc7f793da07019412c5d061473318e3ff68e03caa452d4",
    "generalized_double_dot_set:00/golden_and_random": "d2731622c7adfad9bb65e584ab719829b4339a9276455479760e91b8a6bdad14",
    "generalized_double_dot_set:00/signed_zero": "67bc5fcd24db1c55316b602db20b7b7125959a480add8a09f1d8f63d4bdc7239",
    "generalized_double_dot_set:01/golden_and_random": "f6599e27e29a6008c5e54548632a7abc6b5ff1416a642b9671856f256283f4e3",
    "generalized_double_dot_set:01/signed_zero": "c6f100e8695a2230a59533ab37b675ef213680c612cc6fe7ab91f1941b27a8f8",
    "generalized_double_dot_set:10/golden_and_random": "862d852406dd40be7b41d47585679a15bde3b2fa6bf2b46053e719d5750ebcb1",
    "generalized_double_dot_set:10/signed_zero": "c17bf9045ef9234bd7f3485cb48261f0ad2d301b47d0f6d3304ba776530552f8",
    "generalized_double_dot_set:11/golden_and_random": "b375d3e8639ed33d42743feeedbdb2c1b9136d4c94da876bb6678fcbaa3e45e7",
    "generalized_double_dot_set:11/signed_zero": "a2f76b0d5fec12a14f248e76873fd9547c65c0ffb8da6b7751cbb0bc00fb1d30",
}

WEIGHTS_SHA256 = {
    "single_dot_set": "4b3ec74c55738484a7cd258e684cdc5c6e981d3f2b5cf261e9ed9e8caf898960",
    "double_dot_bare": "2d875d7fca463f9299bb613b3ed340f731d4337f86ee10b197bd86db21153851",
    "reduced_double_dot": "2d875d7fca463f9299bb613b3ed340f731d4337f86ee10b197bd86db21153851",
    "double_dot_set": "3cb2e4f18566bd9f0f086d122837dc62d79a410e8d170928955a778ef6935d28",
    "generalized_double_dot_set:00": "0cd4eafb297a9d3a0b63b931c389231152ab0245ea394d918f8eb127b25abc8f",
    "generalized_double_dot_set:01": "3cb2e4f18566bd9f0f086d122837dc62d79a410e8d170928955a778ef6935d28",
    "generalized_double_dot_set:10": "a8c681df657a851692f9719fb903684b31c0f5a4667948fa55df620ac74c34c4",
    "generalized_double_dot_set:11": "dbac892c3f99702f3233ae52daf7accb9e2aa573f18d8e77be85bc364401299c",
}


@pytest.mark.parametrize("group", sorted(SETS))
@pytest.mark.parametrize("scenario,blocking", CONFIGS,
                         ids=[config_id(*c) for c in CONFIGS])
def test_generator_bytes(scenario, blocking, group):
    key = f"{config_id(scenario, blocking)}/{group}"
    digest = generator_digest(scenario_table(scenario, blocking).generator, SETS[group])
    assert digest == GENERATOR_SHA256[key]


@pytest.mark.parametrize("group", sorted(SETS))
def test_oracle_is_the_hand_coded_builder(group):
    # the criterion-7 oracle must stay the hand-coded double_dot_set builder
    digest = generator_digest(_hand_coded_double_dot_set, SETS[group])
    assert digest == GENERATOR_SHA256[f"double_dot_set/{group}"]


@pytest.mark.parametrize("scenario,blocking", CONFIGS,
                         ids=[config_id(*c) for c in CONFIGS])
def test_weight_maps(scenario, blocking):
    sets = SETS["golden_and_random"] + SETS["signed_zero"]
    assert weights_digest(scenario, blocking, sets) == WEIGHTS_SHA256[config_id(scenario, blocking)]


README_RATES = """\
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


def readme_config(scenario, extra=""):
    return f"[scenario]\nname = {scenario}\n\n{README_RATES}{extra}"


# the README evolve config needs 4M guard steps at gamma_R = 1e4, above the
# step cap, so the time series runs at a slower detector
EVOLVE_RATES = README_RATES.replace("gamma_R = 1e4", "gamma_R = 3.0")

CLI_RUNS = {
    **{f"steady:{s}": (readme_config(s), ["steady"]) for s in (
        "single_dot_set", "double_dot_bare", "reduced_double_dot", "double_dot_set")},
    **{f"steady:generalized:{b}": (
        readme_config("generalized_double_dot_set", f"\n[run]\nblocking = {b}\n"), ["steady"])
       for b in ("blind", "resolving", "open")},
    "sweep:double_dot_set": (readme_config("double_dot_set"),
                             ["sweep", "--param", "gamma_R", "--grid", "1:1e4:25log"]),
    "sweep:single_dot_set": (readme_config("single_dot_set"),
                             ["sweep", "--param", "gamma_R", "--grid", "1:1e4:25log"]),
    "sweep:generalized:blind": (
        readme_config("generalized_double_dot_set", "\n[run]\nblocking = blind\n"),
        ["sweep", "--param", "Omega", "--grid", "0:2:9"]),
    "fig3": (readme_config("generalized_double_dot_set", "\n[energies]\nE0 = 0.0\n"),
             ["fig3", "--grid", "0.1:1.9:40"]),
    # the two charts the CLI draws, axis labels included
    "sweep:double_dot_set:svg": (
        readme_config("double_dot_set"),
        ["sweep", "--param", "gamma_R", "--grid", "1:1e4:25log", "--format", "svg"]),
    "fig3:svg": (readme_config("generalized_double_dot_set", "\n[energies]\nE0 = 0.0\n"),
                 ["fig3", "--grid", "0.1:1.9:40", "--format", "svg"]),
    "evolve:double_dot_set": (
        f"[scenario]\nname = double_dot_set\n\n{EVOLVE_RATES}\n[run]\nt_final = 10.0\n",
        ["evolve"]),
    "evolve:single_dot_set": (
        f"[scenario]\nname = single_dot_set\n\n{EVOLVE_RATES}\n[run]\nt_final = 10.0\n",
        ["evolve"]),
    # a run that outlasts its relaxation: the samples reach a fixed point
    # of the propagator at t ~ 43 and repeat it to t = 500
    "evolve:double_dot_set:long": (
        f"[scenario]\nname = double_dot_set\n\n{EVOLVE_RATES}\n[run]\ndt = 0.02\nt_final = 500.0\n",
        ["evolve"]),
    # a run whose samples enter a 226-step cycle at row 2439 and never
    # reach a fixed point, so evolve steps to the end and the writer reuses
    # the text of a cycle that crosses its block edges
    "evolve:double_dot_set:cycle": (
        "[scenario]\nname = double_dot_set\n\n"
        + README_RATES.replace("gamma_R = 1e4", "gamma_R = 3.2028859394138767")
        + "\n[run]\ndt = 0.02\nt_final = 500.0\n",
        ["evolve"]),
    # no detector, so no I_D column
    **{f"evolve:{s}": (
        f"[scenario]\nname = {s}\n\n{EVOLVE_RATES}\n[run]\nt_final = 10.0\n", ["evolve"])
       for s in ("double_dot_bare", "reduced_double_dot")},
}

CLI_SHA256 = {
    "evolve:double_dot_bare": "166c9831e7c63b54b1a858b3f2925e448a599e8f2ba1df0eace8ca707b8a5847",
    "evolve:double_dot_set": "ed67fc3fe5d38a9f35793fe4c7624fc2eda58b09170e05c2562c49513085d20f",
    "evolve:double_dot_set:long": "4d328dbef5cdc5439e66fffe0cef04635da848f2fd33748126f013a5d2ce5066",
    "evolve:double_dot_set:cycle": "d91505bc98974f841d6d1d07fdec55137e2a4c25d53a5e2b1a51f252dd2a4cbb",
    "evolve:reduced_double_dot": "4cfa0e327c72e7c280672804bb4d5f6598eb45ed01fd0d093240f279f70b89aa",
    "evolve:single_dot_set": "e10c46b51c8431a26c036e38fb785a6e43f57eb08d1b2b844203bdde541924e3",
    "fig3": "1330a4e34280eaa3818e6b4b25a679da8ee32b49a5fde7597238056e51ac49f7",
    "fig3:svg": "277626f91b029c2a70bd6edc4b15d764271b6f1fcdd4b97a4c544ab204070fb2",
    "steady:double_dot_bare": "c90b9b475fb3de921e6d8bfa75d1e5f397ce196a7f668f88665d5e0ebb6b631a",
    "steady:double_dot_set": "3aa2c6bef8a0f3fa9511da593ee59127bf16ea2169da4dad20a3ba7defb78f36",
    "steady:generalized:blind": "0468cba777b7f815e6f91f3d0eabe4ce31df5c4989be5a724185096c934fb926",
    "steady:generalized:open": "ebd34bb8ec78a93b04ad767a118757d0b993de2619fc51278f3b9f922335d464",
    "steady:generalized:resolving": "98837b861df7b62bde9c1b515ba2a844567c424c792188712e16a5dba781a1fd",
    "steady:reduced_double_dot": "192d655c28fdba1038870ec46be3e0ba65ad7e228656dbe724d7f5c2a4b5da0c",
    "steady:single_dot_set": "e46ca2f11ac3370cf14b733314e35c0e970ad330f08b0cc654c9b3770f5d0f4d",
    "sweep:double_dot_set": "a0ef7aa199ccd3457ff4524874b63cbcc2b4e5db64ecca26802fe433a8f6252a",
    "sweep:double_dot_set:svg": "ca603d1cd6af34b437f2028557e311343fe6f74a4af058169c17f157ba46e8b7",
    "sweep:generalized:blind": "878821a38d6ab28f7a54d66f226e9e2258084ace0984aa51fb0797c860bc3cf3",
    "sweep:single_dot_set": "a17dbe99551e36582dd9bf64abf870f55f5c35aa1f7948c9c180790470d8fbf0",
}


def cli_output(name, tmp_path, capsys):
    text, argv = CLI_RUNS[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out.csv"
    args = argv + ["--config", str(cfg)]
    if argv[0] != "steady":
        args += ["--out", str(out)]
    assert cli_main(args) == 0
    return capsys.readouterr().out.encode() if argv[0] == "steady" else out.read_bytes()


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_output_bytes(name, tmp_path, capsys):
    digest = hashlib.sha256(cli_output(name, tmp_path, capsys)).hexdigest()
    assert digest == CLI_SHA256[name]


# the acceptance report, one line per criterion; criterion 5 fails by
# design (see the README), so validate exits 4
VALIDATE_SHA256 = "aa725b8d7dd1497895b2313b5fae96e04ca84db19e62ab6bc0d70d6ac880e4a2"


def test_validate_output_bytes(capsys):
    assert cli_main(["validate"]) == 4
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VALIDATE_SHA256


# the time-series writer with no weights at all: slot columns only
TIMESERIES_SHA256 = {
    "double_dot_bare": "f9aade37ba4ca4340d7ebdb39938c7a91f0e5f431a58a25a6c6d93564bf1edf3",
    "double_dot_set": "91befa947950da1dfa09aeb9da5174d2f440acc6935b8fecb1a9376465386b1e",
}


@pytest.mark.parametrize("scenario", sorted(TIMESERIES_SHA256))
def test_timeseries_without_weights_bytes(scenario):
    r = RateSet(gamma_L=1.0, gamma_R=3.0, Gamma_L=1.0, Gamma_R=1.0, Omega=1.0, U1=1.0, U2=2.0)
    g = scenario_table(scenario).generator(r)
    traj = evolve(g, basis_state(g.index, "a"), 10.0)
    digest = hashlib.sha256(timeseries_csv_text(traj).encode()).hexdigest()
    assert digest == TIMESERIES_SHA256[scenario]
