"""Bit-identity regression: SHA-256 digests of every generator, every
weight map and the CLI outputs on the README configs.

`np.array_equal` cannot see the sign of a zero (-0.0 == 0.0), but the
CSV writer prints `-0`, so the digests pin the raw bytes instead.  The
expected values were recorded from the hand-coded builders that preceded
the channel tables, and the evolve and time-series digests from the
writer that kept one StateVector per sample; regenerate them only for a
deliberate change of numbers, never to make a refactor pass.
"""

import hashlib
import itertools

import numpy as np
import pytest

from mesorate import (BlockingConfig, RateSet, basis_state, build_scenario, cli_main, evolve,
                      weights_for)
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
    for flags in itertools.product((False, True), repeat=3)]


def config_id(scenario, blocking):
    if blocking is None:
        return scenario
    flags = (blocking.blocked_when_dot1, blocking.blocked_when_dot2,
             blocking.backflow_when_blocked)
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
    for r in sets:
        w = weights_for(scenario, r, blocking)
        for name in ("system", "detector", "detector_return"):
            h.update(repr(sorted(getattr(w, name).items())).encode())
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
    "generalized_double_dot_set:000/golden_and_random": "d2731622c7adfad9bb65e584ab719829b4339a9276455479760e91b8a6bdad14",
    "generalized_double_dot_set:000/signed_zero": "67bc5fcd24db1c55316b602db20b7b7125959a480add8a09f1d8f63d4bdc7239",
    "generalized_double_dot_set:001/golden_and_random": "d2731622c7adfad9bb65e584ab719829b4339a9276455479760e91b8a6bdad14",
    "generalized_double_dot_set:001/signed_zero": "67bc5fcd24db1c55316b602db20b7b7125959a480add8a09f1d8f63d4bdc7239",
    "generalized_double_dot_set:010/golden_and_random": "910658b32776ff8b61a0ff77740860c96a85c591d8aba41821a7bfdf2c3af6a5",
    "generalized_double_dot_set:010/signed_zero": "1d8f39373efb0b16347b36e733eda5f80966a0ad48e6b7a798772e3fd79205f7",
    "generalized_double_dot_set:011/golden_and_random": "f6599e27e29a6008c5e54548632a7abc6b5ff1416a642b9671856f256283f4e3",
    "generalized_double_dot_set:011/signed_zero": "c6f100e8695a2230a59533ab37b675ef213680c612cc6fe7ab91f1941b27a8f8",
    "generalized_double_dot_set:100/golden_and_random": "2a97299372b438e1377f1061844cd523cb9635367f00d8d224cb24ef5e76f26f",
    "generalized_double_dot_set:100/signed_zero": "3d993b3a421444fa339254c9b7a19e9858e73c125dc7e816071117347d495efc",
    "generalized_double_dot_set:101/golden_and_random": "862d852406dd40be7b41d47585679a15bde3b2fa6bf2b46053e719d5750ebcb1",
    "generalized_double_dot_set:101/signed_zero": "c17bf9045ef9234bd7f3485cb48261f0ad2d301b47d0f6d3304ba776530552f8",
    "generalized_double_dot_set:110/golden_and_random": "6c844e5ebb2806edfa9e85f8ec0ff299e2a995e37929677c2d87dccb0a10c425",
    "generalized_double_dot_set:110/signed_zero": "1930500eaaf0a1af63a5ae48630c4bb3a64abf3700682dcf5e542bd9f2d5aa01",
    "generalized_double_dot_set:111/golden_and_random": "b375d3e8639ed33d42743feeedbdb2c1b9136d4c94da876bb6678fcbaa3e45e7",
    "generalized_double_dot_set:111/signed_zero": "a2f76b0d5fec12a14f248e76873fd9547c65c0ffb8da6b7751cbb0bc00fb1d30",
}

WEIGHTS_SHA256 = {
    "single_dot_set": "4b3ec74c55738484a7cd258e684cdc5c6e981d3f2b5cf261e9ed9e8caf898960",
    "double_dot_bare": "2d875d7fca463f9299bb613b3ed340f731d4337f86ee10b197bd86db21153851",
    "reduced_double_dot": "2d875d7fca463f9299bb613b3ed340f731d4337f86ee10b197bd86db21153851",
    "double_dot_set": "3cb2e4f18566bd9f0f086d122837dc62d79a410e8d170928955a778ef6935d28",
    "generalized_double_dot_set:000": "0cd4eafb297a9d3a0b63b931c389231152ab0245ea394d918f8eb127b25abc8f",
    "generalized_double_dot_set:001": "0cd4eafb297a9d3a0b63b931c389231152ab0245ea394d918f8eb127b25abc8f",
    "generalized_double_dot_set:010": "0cd4eafb297a9d3a0b63b931c389231152ab0245ea394d918f8eb127b25abc8f",
    "generalized_double_dot_set:011": "3cb2e4f18566bd9f0f086d122837dc62d79a410e8d170928955a778ef6935d28",
    "generalized_double_dot_set:100": "0cd4eafb297a9d3a0b63b931c389231152ab0245ea394d918f8eb127b25abc8f",
    "generalized_double_dot_set:101": "a8c681df657a851692f9719fb903684b31c0f5a4667948fa55df620ac74c34c4",
    "generalized_double_dot_set:110": "0cd4eafb297a9d3a0b63b931c389231152ab0245ea394d918f8eb127b25abc8f",
    "generalized_double_dot_set:111": "dbac892c3f99702f3233ae52daf7accb9e2aa573f18d8e77be85bc364401299c",
}


@pytest.mark.parametrize("group", sorted(SETS))
@pytest.mark.parametrize("scenario,blocking", CONFIGS,
                         ids=[config_id(*c) for c in CONFIGS])
def test_generator_bytes(scenario, blocking, group):
    key = f"{config_id(scenario, blocking)}/{group}"
    digest = generator_digest(lambda r: build_scenario(scenario, r, blocking), SETS[group])
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
    "evolve:double_dot_set": (
        f"[scenario]\nname = double_dot_set\n\n{EVOLVE_RATES}\n[run]\nt_final = 10.0\n",
        ["evolve"]),
    "evolve:single_dot_set": (
        f"[scenario]\nname = single_dot_set\n\n{EVOLVE_RATES}\n[run]\nt_final = 10.0\n",
        ["evolve"]),
    # no detector, so no I_D column
    **{f"evolve:{s}": (
        f"[scenario]\nname = {s}\n\n{EVOLVE_RATES}\n[run]\nt_final = 10.0\n", ["evolve"])
       for s in ("double_dot_bare", "reduced_double_dot")},
}

CLI_SHA256 = {
    "evolve:double_dot_bare": "a990434f11405c1bd0b883778a5cc1d03ed342e5378a7baf3a8fdf24f35c24cd",
    "evolve:double_dot_set": "5a5aa97eadc7a902acb400dad63dc80564fa3f471496da04862da2da778cdead",
    "evolve:reduced_double_dot": "fbeced60c5c2e9f608905d98d1adc8db89e54b6db2001a10870a4797fa16c07b",
    "evolve:single_dot_set": "1125be2e35e8bf3ba4b612621afc15d9986a8f5b507f6e9f050c9d743798d7c3",
    "fig3": "1330a4e34280eaa3818e6b4b25a679da8ee32b49a5fde7597238056e51ac49f7",
    "steady:double_dot_bare": "c90b9b475fb3de921e6d8bfa75d1e5f397ce196a7f668f88665d5e0ebb6b631a",
    "steady:double_dot_set": "3aa2c6bef8a0f3fa9511da593ee59127bf16ea2169da4dad20a3ba7defb78f36",
    "steady:generalized:blind": "0468cba777b7f815e6f91f3d0eabe4ce31df5c4989be5a724185096c934fb926",
    "steady:generalized:open": "ebd34bb8ec78a93b04ad767a118757d0b993de2619fc51278f3b9f922335d464",
    "steady:generalized:resolving": "98837b861df7b62bde9c1b515ba2a844567c424c792188712e16a5dba781a1fd",
    "steady:reduced_double_dot": "192d655c28fdba1038870ec46be3e0ba65ad7e228656dbe724d7f5c2a4b5da0c",
    "steady:single_dot_set": "e46ca2f11ac3370cf14b733314e35c0e970ad330f08b0cc654c9b3770f5d0f4d",
    "sweep:double_dot_set": "a0ef7aa199ccd3457ff4524874b63cbcc2b4e5db64ecca26802fe433a8f6252a",
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


# the time-series writer with no weights at all: slot columns only
TIMESERIES_SHA256 = {
    "double_dot_bare": "ef82f366ffe2368f62d834ad1194d0f5ae9b96d7c1c60bf9f3f6eb69ed549a0a",
    "double_dot_set": "36c8170dcc1821572e8e29bc1184784c46c3763a1eca4823a5bd219a1cc657b2",
}


@pytest.mark.parametrize("scenario", sorted(TIMESERIES_SHA256))
def test_timeseries_without_weights_bytes(scenario):
    r = RateSet(gamma_L=1.0, gamma_R=3.0, Gamma_L=1.0, Gamma_R=1.0, Omega=1.0, U1=1.0, U2=2.0)
    g = build_scenario(scenario, r)
    traj = evolve(g, basis_state(g.index, "a"), 10.0)
    digest = hashlib.sha256(timeseries_csv_text(traj).encode()).hexdigest()
    assert digest == TIMESERIES_SHA256[scenario]
