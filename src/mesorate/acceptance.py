"""End-to-end validation: every numbered check compares the numeric
pipeline against an independent closed form or a structural guarantee, at
a pinned tolerance.  The `validate` CLI command prints one line per check
and exits nonzero if any fails; the test suite asserts them one by one.

All randomness is seeded, so the suite is reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum

import numpy as np

from . import analytic, builders, observables
from .model import (Generator, IndexMap, RateColumns, RateSet, basis_state, fixed_columns, pack,
                    sweep_columns)
from .solver import evolve, steady_states
from .experiments import run_fermi_sweep

SEED = 20260810
N_RANDOM_SETS = 200
N_RESIDUAL_SETS = 40
RATE_DECADES = (-2.0, 2.0)      # widths and hopping drawn log-uniform in [1e-2, 1e2]
DETUNING_RANGE = (-10.0, 10.0)
ORACLE_RTOL = 1e-10
LIMIT_RATIOS = (1e2, 1e3, 1e4)
LIMIT_TOL = 1e-2
SUPPRESSION_TOL = 5e-2
MONOTONE_FLOOR = 1e-12          # errors this small count as converged-to-zero


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str


def _solve_all(scenario: str, columns: RateColumns, n: int):
    """Generators of one scenario at n rows of rate columns, shape
    (n, dim, dim), and their stationary states, solved as one stack; the
    first failing point raises its error.  Returns the table, the
    generators and the states."""
    table = builders.scenario_table(scenario)
    matrices, _, error = table.stack(columns, n)
    if error is not None:
        raise error
    values, errors = steady_states(matrices, table.index)
    for err in errors:
        if err is not None:
            raise err
    return table, matrices, values


def _currents(scenario: str, columns: RateColumns, n: int = 1) -> dict[str, list[float]]:
    """The stationary outputs of one scenario at each of n rows of rate
    columns, read from the solved rows by the sweeps' reader,
    observables.stationary_outputs."""
    table, _, values = _solve_all(scenario, columns, n)
    return observables.stationary_outputs(table, columns, values)


def _monotone_decreasing(errors, floor=MONOTONE_FLOOR) -> bool:
    """Strictly decreasing, except consecutive values both at rounding
    level count as already converged (their ordering is noise)."""
    for prev, nxt in zip(errors, errors[1:]):
        if nxt < prev:
            continue
        if prev <= floor and nxt <= floor:
            continue
        return False
    return True


def _drawn_columns(seed: int, n: int, dephased: bool) -> dict:
    """n random rate sets as rate columns, each row drawn in turn from one
    generator: Gamma_L, Gamma_R and Omega log-uniform over RATE_DECADES,
    epsilon uniform over DETUNING_RANGE and, when dephased, gamma_L
    log-uniform too; every other field is zero and each primed width
    equals its unprimed one.  A uniform value is low + (high - low) * u,
    as Generator.uniform computes it.  gamma_L's power is Python's scalar
    one: numpy's array power can differ from it in the last bit."""
    lo, hi = RATE_DECADES
    u = np.random.default_rng(seed).random((n, 5 if dephased else 4))
    g_l, g_r, om = (10.0 ** (lo + (hi - lo) * u[:, :3])).T
    d_lo, d_hi = DETUNING_RANGE
    eps = d_lo + (d_hi - d_lo) * u[:, 3]
    drawn = {"Gamma_L": g_l, "Gamma_R": g_r, "Omega": om, "epsilon": eps}
    if dephased:
        drawn["gamma_L"] = np.array([10.0 ** e for e in (lo + (hi - lo) * u[:, 4]).tolist()])
    zero = RateSet()
    columns = fixed_columns(zero)
    for name, values in drawn.items():
        columns.update(dict.fromkeys(zero.swept_fields(name), values))
    return columns


# the fields the closed forms of criteria 1 and 2 take, in argument order
_BARE_FIELDS = ("Gamma_L", "Gamma_R", "Omega", "epsilon")
_DEPHASED_FIELDS = (*_BARE_FIELDS, "gamma_L")


def _worst_rel_err(scenario: str, seed: int, dephased: bool) -> float:
    """Largest relative error of the stationary I_S of scenario at
    N_RANDOM_SETS drawn rate sets against the bare or dephased closed form,
    fed each row's fields as Python floats."""
    columns = _drawn_columns(seed, N_RANDOM_SETS, dephased)
    form, names = ((analytic.dephased_current, _DEPHASED_FIELDS) if dephased
                   else (analytic.bare_current, _BARE_FIELDS))
    references = map(form, *(columns[name].tolist() for name in names))
    worst = 0.0
    for numeric, reference in zip(_currents(scenario, columns, N_RANDOM_SETS)["I_S"], references):
        worst = max(worst, abs(numeric - reference) / abs(reference))
    return worst


def criterion_1() -> CriterionResult:
    """Bare coupled-dot steady current against its closed form."""
    worst = _worst_rel_err(builders.DOUBLE_DOT_BARE, SEED, dephased=False)
    return CriterionResult(
        1, "bare coupled-dot current matches the closed form",
        worst <= ORACLE_RTOL,
        f"max rel err {worst:.3e} over {N_RANDOM_SETS} random rate sets (tol {ORACLE_RTOL:g})")


def criterion_2() -> CriterionResult:
    """Dephased coupled-dot steady current against its closed form."""
    worst = _worst_rel_err(builders.REDUCED_DOUBLE_DOT, SEED + 1, dephased=True)
    return CriterionResult(
        2, "dephased coupled-dot current matches the closed form",
        worst <= ORACLE_RTOL,
        f"max rel err {worst:.3e} over {N_RANDOM_SETS} random rate sets (tol {ORACLE_RTOL:g})")


def criterion_3() -> CriterionResult:
    """Single-dot back-action vanishes as the detector empties faster."""
    r = RateSet(gamma_L=1.0, Gamma_L=1.0, Gamma_R=1.0)
    columns = sweep_columns(r, "gamma_R", np.array(LIMIT_RATIOS))
    outputs = _currents(builders.SINGLE_DOT_SET, columns, len(LIMIT_RATIOS))
    undistorted = analytic.single_dot_current(r.Gamma_L, r.Gamma_R)
    amplification = analytic.amplification_ratio(r.gamma_L, r.Gamma_R)
    current_errors = []
    ratio_errors = []
    for i_s, delta in zip(outputs["I_S"], outputs["Delta_I_D"]):
        current_errors.append(abs(i_s - undistorted) / i_s)
        ratio_errors.append(abs(delta / i_s - amplification))
    ok = (_monotone_decreasing(current_errors) and _monotone_decreasing(ratio_errors)
          and current_errors[-1] < LIMIT_TOL and ratio_errors[-1] < LIMIT_TOL)
    return CriterionResult(
        3, "single-dot current undistorted in the fast-detector limit",
        ok,
        f"current err {['%.3e' % e for e in current_errors]}, "
        f"amplification err {['%.3e' % e for e in ratio_errors]} over ratios {LIMIT_RATIOS}")


def criterion_4() -> CriterionResult:
    """Full detector model converges to the dephased closed form.

    Unequal Coulomb shifts keep the primed coherence rotating, which is
    the only finite-ratio correction to the reduction; with U1 = U2 the
    stationary current would equal the closed form identically and there
    would be no convergence to observe.
    """
    r = RateSet(gamma_L=1.0, Gamma_L=1.0, Gamma_R=1.0, Omega=1.0, U1=1.0, U2=2.0)
    target = analytic.dephased_current(r.Gamma_L, r.Gamma_R, r.Omega, r.epsilon,
                                       r.gamma_L)  # gamma_R-independent
    columns = sweep_columns(r, "gamma_R", np.array(LIMIT_RATIOS))
    errors = [abs(numeric - target) / target for numeric in
              _currents(builders.DOUBLE_DOT_SET, columns, len(LIMIT_RATIOS))["I_S"]]
    ok = _monotone_decreasing(errors) and errors[-1] < LIMIT_TOL
    return CriterionResult(
        4, "monitored coupled-dot current converges to the dephased form",
        ok,
        f"rel err {['%.3e' % e for e in errors]} over detector ratios {LIMIT_RATIOS}, "
        f"target {target:.6f}")


def criterion_5() -> CriterionResult:
    """Strong-dephasing suppression of the measured current: the ratio of
    the measured to the bare current is compared against 1/eta at the
    pinned parameters (hopping equal to the system widths)."""
    r = RateSet(Gamma_L=1.0, Gamma_R=1.0, Omega=1.0)
    gamma_ls = (10.0, 100.0)                # each with gamma_R = 1e4 * gamma_L
    detector = np.array(gamma_ls)
    columns = {**sweep_columns(r, "gamma_L", detector),
               **dict.fromkeys(r.swept_fields("gamma_R"), 1e4 * detector)}
    measured, bare = (_currents(scenario, columns, len(gamma_ls))["I_S"]
                      for scenario in (builders.DOUBLE_DOT_SET, builders.DOUBLE_DOT_BARE))
    details = []
    ok = True
    for gamma_l, measured_i_s, bare_i_s in zip(gamma_ls, measured, bare):
        eta = analytic.eta(gamma_l, r.Gamma_R)
        ratio = measured_i_s / bare_i_s
        rel = abs(ratio - 1.0 / eta) / (1.0 / eta)
        ok = ok and rel <= SUPPRESSION_TOL
        details.append(f"gamma_L={gamma_l:g}: measured/bare {ratio:.4f} vs 1/eta "
                       f"{1.0 / eta:.4f} (rel dev {rel:.2e})")
    return CriterionResult(
        5, "suppression factor approaches 1/eta at the pinned parameters",
        ok, "; ".join(details) + f" (tol {SUPPRESSION_TOL:g})")


def criterion_6() -> CriterionResult:
    """Two-plateau step of the current versus the detector Fermi level."""
    base = RateSet(gamma_L=1.0, gamma_R=1e4, Gamma_L=1.0, Gamma_R=1.0,
                   Omega=1.0, U1=1.0, U2=2.0)
    grid = np.linspace(0.1, 1.9, 13)
    table = run_fermi_sweep(base, 0.0, grid)
    bare_value = analytic.bare_current(base.Gamma_L, base.Gamma_R, base.Omega, base.epsilon)
    dephased_value = analytic.dephased_current(base.Gamma_L, base.Gamma_R, base.Omega,
                                               base.epsilon, base.gamma_L)
    blind = np.array(table.regime) == "blind"
    plateau = np.where(blind, bare_value, dephased_value)
    errors = np.abs(table["I_S_numeric"] - plateau) / plateau
    worst_low, worst_high = errors[blind].max(initial=0.0), errors[~blind].max(initial=0.0)
    min_delta = np.abs(table["Delta_I_D"]).min()
    ok = worst_low < LIMIT_TOL and worst_high < LIMIT_TOL and min_delta > 1e-6
    return CriterionResult(
        6, "Fermi-level sweep shows the undistorted and dephased plateaus",
        ok,
        f"low plateau err {worst_low:.3e} vs {bare_value:.6f}, high plateau err "
        f"{worst_high:.3e} vs {dephased_value:.6f}, min |Delta I_D| {min_delta:.3e}")


_GOLDEN_SETS = (
    RateSet(gamma_L=1.0, gamma_R=1e4, Gamma_L=1.0, Gamma_R=1.0, Omega=1.0, U1=1.0, U2=2.0),
    RateSet(gamma_L=0.13, gamma_R=7.7, Gamma_L=0.55, Gamma_R=2.25, Omega=0.8,
            epsilon=0.37, U1=0.21, U2=1.9),
    RateSet(gamma_L=3.0, gamma_R=0.25, Gamma_L=9.0, Gamma_R=0.1, Omega=2.5,
            epsilon=-4.4, U1=0.0, U2=0.0),
    RateSet(),
)


# criterion-7 oracle, written cell by cell independently of the channel tables
def _hand_coded_double_dot_set(r: RateSet) -> Generator:
    """Coupled dots monitored by the detector, entry blocked by dot 2 only.

    Requires equal amplitudes (primed widths equal to unprimed); the fully
    independent-width variant of this scenario is not defined.  Layout
    [a, a', b, b', c, c', Re, Im, Re', Im'].  Notable structure:

    * c' drains both through the system channel (Gamma_R) and through the
      detector leaving either way (gamma_L + gamma_R), since its detector
      electron sits above the left Fermi level;
    * the primed coherence feeds the unprimed one at gamma_R, the shared
      collector-exit channel of b' and c';
    * the primed coherence rotates at the shifted detuning
      epsilon - U1 + U2 and decays at (gamma_L + 2*gamma_R + Gamma_R)/2.
    """
    if not r.is_equal_amplitudes:
        raise ValueError("the oracle assumes equal tunneling amplitudes")
    idx = IndexMap(("a", "a'", "b", "b'", "c", "c'"), (("b", "c"), ("b'", "c'")))
    a, ap, b, bp, c, cp, u, v, up, vp = range(10)
    g = np.zeros((10, 10))

    g[a, a] = -fsum((r.Gamma_L, r.gamma_L))
    g[a, ap] = r.gamma_R
    g[a, c] = r.Gamma_R

    g[ap, a] = r.gamma_L
    g[ap, ap] = -fsum((r.Gamma_L, r.gamma_R))
    g[ap, cp] = r.Gamma_R

    g[b, a] = r.Gamma_L
    g[b, b] = -r.gamma_L
    g[b, bp] = r.gamma_R
    g[b, v] = -2.0 * r.Omega

    g[bp, ap] = r.Gamma_L
    g[bp, b] = r.gamma_L
    g[bp, bp] = -r.gamma_R
    g[bp, vp] = -2.0 * r.Omega

    g[c, c] = -r.Gamma_R
    g[c, cp] = fsum((r.gamma_L, r.gamma_R))
    g[c, v] = 2.0 * r.Omega

    g[cp, cp] = -fsum((r.Gamma_R, r.gamma_L, r.gamma_R))
    g[cp, vp] = 2.0 * r.Omega

    decay = fsum((r.Gamma_R, r.gamma_L)) / 2.0
    g[u, u] = -decay
    g[u, v] = -r.epsilon
    g[u, up] = r.gamma_R

    g[v, b] = r.Omega
    g[v, c] = -r.Omega
    g[v, u] = r.epsilon
    g[v, v] = -decay
    g[v, vp] = r.gamma_R

    decay_p = fsum((r.gamma_L, r.gamma_R, r.gamma_R, r.Gamma_R)) / 2.0
    shift = fsum((r.epsilon, -r.U1, r.U2))
    g[up, up] = -decay_p
    g[up, vp] = -shift

    g[vp, bp] = r.Omega
    g[vp, cp] = -r.Omega
    g[vp, up] = shift
    g[vp, vp] = -decay_p

    return Generator(g, idx, builders.DOUBLE_DOT_SET)


def criterion_7() -> CriterionResult:
    """Table-built generators equal the hand-coded one, byte for byte, so
    the sign of every zero entry counts."""
    tables = (builders.scenario_table(builders.DOUBLE_DOT_SET),
              builders.scenario_table(builders.GENERALIZED_DOUBLE_DOT_SET,
                                      builders.REGIMES["resolving"]))

    def first_difference() -> str | None:
        for r in _GOLDEN_SETS:
            hand_coded = _hand_coded_double_dot_set(r)
            for rule_built in (table.generator(r) for table in tables):
                if rule_built.matrix.tobytes() != hand_coded.matrix.tobytes():
                    return f"{rule_built.label} matrix differs for {r}"
            bare = builders.scenario_table(builders.DOUBLE_DOT_BARE).generator(r)
            undephased = builders.scenario_table(builders.REDUCED_DOUBLE_DOT).generator(
                r.replacing("gamma_L", 0.0))
            if bare.matrix.tobytes() != undephased.matrix.tobytes():
                return f"dephasing-free reduced matrix differs for {r}"
        return None

    difference = first_difference()
    return CriterionResult(
        7, "rule-built and hand-coded generators agree exactly", difference is None,
        difference or f"entrywise equality on {len(_GOLDEN_SETS)} parameter sets, "
                      "including the zero-rate set")


def _suite_evolve_runs():
    """The evolve workload whose conservation bounds criterion 8 asserts."""
    runs = []
    r = RateSet(gamma_L=1.0, gamma_R=1.0, Gamma_L=1.0, Gamma_R=1.0)
    g = builders.scenario_table(builders.SINGLE_DOT_SET).generator(r)
    runs.append(("single dot, unit rates", g, basis_state(g.index, "a"), 25.0, None))

    r = RateSet(Gamma_L=1.0, Gamma_R=1.0, Omega=1.0, epsilon=0.5)
    g = builders.scenario_table(builders.DOUBLE_DOT_BARE).generator(r)
    runs.append(("bare coupled dots", g, basis_state(g.index, "a"), 40.0, None))

    r = RateSet(gamma_L=1.0, gamma_R=3.0, Gamma_L=1.0, Gamma_R=1.0, Omega=1.0,
                U1=1.0, U2=2.0)
    g = builders.scenario_table(builders.DOUBLE_DOT_SET).generator(r)
    runs.append(("monitored coupled dots", g, basis_state(g.index, "a"), 40.0, None))

    rabi = RateSet(Omega=1.0)
    g = builders.scenario_table(builders.DOUBLE_DOT_BARE).generator(rabi)
    x0 = pack(g.index, {"b": 1.0})
    runs.append(("undamped hopping, coarse", g, x0, 2.0, 0.02))
    runs.append(("undamped hopping, fine", g, x0, 2.0, 0.01))
    return runs


def _relative_residuals(matrices: np.ndarray, values: np.ndarray) -> np.ndarray:
    """||G x||_inf / ||G||_inf of each generator of the (N, dim, dim) stack
    at its row of the (N, dim) states, as one product on the stack."""
    residuals = np.abs(matrices @ values[:, :, np.newaxis]).max(axis=(1, 2))
    return residuals / np.abs(matrices).sum(axis=2).max(axis=1)


def criterion_8() -> CriterionResult:
    """Trace drift, positivity and stationary residual bounds."""
    worst_drift_rate = 0.0
    worst_negativity = 0.0
    for _, g, x0, t_final, dt in _suite_evolve_runs():
        traj = evolve(g, x0, t_final, dt)
        drift = abs(traj.final.trace() - x0.trace()) / t_final
        worst_drift_rate = max(worst_drift_rate, drift)
        n_diag = len(g.index.diagonal_positions)     # IndexMap puts them first
        worst_negativity = max(worst_negativity, -float(traj.values[:, :n_diag].min()))

    columns = _drawn_columns(SEED + 2, N_RESIDUAL_SETS, dephased=True)
    worst_residual = 0.0
    for scenario in (builders.DOUBLE_DOT_BARE, builders.REDUCED_DOUBLE_DOT):
        _, matrices, values = _solve_all(scenario, columns, N_RESIDUAL_SETS)
        worst_residual = max(worst_residual, float(_relative_residuals(matrices, values).max()))

    ok = worst_drift_rate < 1e-9 and worst_negativity < 1e-6 and worst_residual <= 1e-12
    return CriterionResult(
        8, "conservation, positivity and residual bounds hold",
        ok,
        f"trace drift {worst_drift_rate:.3e}/unit time, negativity {worst_negativity:.3e}, "
        f"stationary residual {worst_residual:.3e} (relative)")


def criterion_9() -> CriterionResult:
    """Fourth-order convergence of the integrator on the undamped
    hopping oscillation, where the occupation is cos(Omega t)^2."""
    rabi = RateSet(Omega=1.0)
    g = builders.scenario_table(builders.DOUBLE_DOT_BARE).generator(rabi)
    x0 = pack(g.index, {"b": 1.0})
    t_final = 2.0
    exact = math.cos(t_final) ** 2

    def endpoint_error(dt):
        traj = evolve(g, x0, t_final, dt)
        return abs(traj.final.occupation("b") - exact)

    coarse = endpoint_error(0.02)
    fine = endpoint_error(0.01)
    ratio = coarse / fine if fine > 0.0 else math.inf
    return CriterionResult(
        9, "integrator error drops at least 15x when the step is halved",
        ratio >= 15.0,
        f"endpoint error {coarse:.3e} -> {fine:.3e}, ratio {ratio:.1f}")


_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
             criterion_6, criterion_7, criterion_8, criterion_9)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in _CRITERIA]

