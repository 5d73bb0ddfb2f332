"""The stationary engine against the exact rational oracle (tests/exact.py).

Each case sweeps one width of the stiff rates over a 200-point log grid
from 1 to 1e12, or gamma_R of the README rates from 1 to 1e4 (the README
sweep), and compares every row the engine solves with the exact solution
of the same constrained system, rounded once.  The bounds are
the ones measured to hold on today's engine: normwise within one eps of
the row's largest component everywhere, componentwise correctly rounded
where the engine is, and a few hundred ulps where it is not, or 2**28
where the Gamma_R sweeps of the resolving double dot leave the
occupations of a and a' near 3e-10 off by up to 3e-8 relative.  The
currents are within two ulps.  A bound may tighten; it never widens.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from exact import exact_current, exact_solution
from mesorate import RateSet, scenario_table
from mesorate.builders import GENERALIZED_DOUBLE_DOT_SET, REGIMES
from mesorate.model import IndexMap
from mesorate.observables import currents
from mesorate.solver import steady_states
from test_solver import README_SWEEP, STIFF_BASE

# unequal Coulomb shifts, so no closed form is exact (the resolving
# generalized case is double_dot_set at U1 = U2)
DETUNED_BASE = dataclasses.replace(STIFF_BASE, U1=1.0, U2=2.0)
# every primed width unlike its unprimed twin
UNLIKE_BASE = RateSet(gamma_L=1.0, gamma_R=1.0, Gamma_L=1e-3, Gamma_R=1e-3, gamma_L_p=0.5,
                      gamma_R_p=3.0, Gamma_L_p=2e-3, Gamma_R_p=7e-4)
GRID = np.geomspace(1.0, 1e12, 200).tolist()
# config -> (scenario, blocking, base rates, grid of the swept width)
CONFIGS = {
    "double_dot_set": ("double_dot_set", None, DETUNED_BASE, GRID),
    "single_dot_set:unlike": ("single_dot_set", None, UNLIKE_BASE, GRID),
    **{f"generalized:{name}": (GENERALIZED_DOUBLE_DOT_SET, REGIMES[name], STIFF_BASE, GRID)
       for name in REGIMES},
    "double_dot_bare": ("double_dot_bare", None, STIFF_BASE, GRID),
    "reduced_double_dot": ("reduced_double_dot", None, STIFF_BASE, GRID),
    "readme": ("double_dot_set", None, README_SWEEP, np.geomspace(1.0, 1e4, 200).tolist()),
}
# (config, swept width) -> most ulps of the exact component a solved one is
# off; the bare and reduced models are swept in the widths they read
COMPONENT_ULPS = {
    ("double_dot_set", "gamma_R"): 128,
    ("single_dot_set:unlike", "gamma_R"): 0,
    ("generalized:blind", "gamma_R"): 0,
    ("generalized:resolving", "gamma_R"): 128,
    ("generalized:open", "gamma_R"): 256,
    ("double_dot_set", "Gamma_R"): 2 ** 28,
    ("single_dot_set:unlike", "Gamma_R"): 1,
    ("generalized:blind", "Gamma_R"): 0,
    ("generalized:resolving", "Gamma_R"): 2 ** 28,
    ("generalized:open", "Gamma_R"): 2 ** 28,
    ("double_dot_bare", "Gamma_R"): 0,
    ("double_dot_bare", "Omega"): 0,
    ("reduced_double_dot", "gamma_L"): 0,
    ("reduced_double_dot", "Gamma_R"): 0,
    ("readme", "gamma_R"): 1,       # 1 of its 2000 components is off, by 1.2e-16
}
CURRENT_ULPS = 2


class TestOracle:
    def test_two_state_balance(self):
        index = IndexMap(["a", "b"])
        x = exact_solution(np.array([[-0.1, 0.3], [0.1, -0.3]]), 2)
        # the balance of the binary fractions nearest 0.1 and 0.3, not of 1/10 and 3/10
        a, b = Fraction(0.1), Fraction(0.3)
        assert x == [b / (a + b), a / (a + b)]
        assert exact_current(index, {"b": 2.0}, x) == float(2 * x[1])

    def test_singular_system_is_none(self):
        # two disconnected states: the normalization row leaves one balance row of zeros
        assert exact_solution(np.zeros((2, 2)), 2) is None


@pytest.mark.parametrize("config,param", sorted(COMPONENT_ULPS))
def test_solved_rows_against_the_exact_solution(config, param):
    scenario, blocking, base, grid = CONFIGS[config]
    table = scenario_table(scenario, blocking)
    rates = [base.replacing(param, v) for v in grid]
    G = np.stack([table.generator(r).matrix for r in rates])
    values, errors = steady_states(G, table.index)
    n_diag = len(table.index.diagonal_positions)
    ulps = COMPONENT_ULPS[config, param]
    solved = 0
    for k, r in enumerate(rates):
        exact = exact_solution(G[k], n_diag)
        assert exact is not None     # the exact stationary state is unique at every point
        if errors[k] is not None:
            continue
        solved += 1
        rounded = [float(v) for v in exact]
        top = max(map(abs, rounded))
        for got, want in zip(values[k].tolist(), rounded):
            assert abs(got - want) <= math.ulp(1.0) * top
            assert abs(got - want) <= ulps * math.ulp(want)
        collectors = table.weights(r)
        for weights in (collectors["system"], collectors["detector"]):
            if weights:
                want = exact_current(table.index, weights, exact)
                got = currents(table.index, weights, values[k:k + 1])[0]
                assert abs(got - want) <= CURRENT_ULPS * math.ulp(want)
    assert solved >= 100
