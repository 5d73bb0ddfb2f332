"""Output checks, run after the timed passes.

Each check returns a `Check`: how many output points it examined, how
many came out right, how many are wrong (a finite value that disagrees
with the oracle, or a malformed output) and the largest relative error
seen.  A point that is NaN, or that fails its oracle, is not ok.  Only
wrong points make a run incorrect; NaN rows and criteria reported FAIL
are failures the program reports itself.

Oracles, independent of the solver under test:
- `sweep`: the null vector of the rule-built generator from numpy's SVD,
  normalized to unit trace; I_S = Gamma_R (c + c').
- `sweep_stiff`: the fast-detector closed form (Gurvitz-Prager, with the
  Stoof-Nazarov bare current at eta = 1), exact when U1 = U2.
- `evolve`: unit trace on every sample within 1e-9, the last sample
  within 1e-9 of the SVD null vector, and the current columns equal to
  their weighted occupation sums.
- `validate`: the package's own criteria, one point each.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass

import numpy as np

from mesorate import builders
from mesorate.acceptance import ORACLE_RTOL
from mesorate.model import RateSet

EVOLVE_TOL = 1e-9
CURRENT_COLUMN_RTOL = 1e-12
GRID_RTOL = 1e-12
SWEEP_HEADER = ["param", "I_S_numeric", "I_S_analytic", "I_D", "Delta_I_D", "max_violation"]


@dataclass
class Check:
    points: int = 0
    ok: int = 0
    wrong: int = 0
    max_rel_err: float = 0.0
    problem: str = ""


def _malformed(reason: str, points: int) -> Check:
    return Check(points=points, wrong=points, problem=reason)


def _null_vector(g) -> np.ndarray:
    """Stationary vector of a generator from its smallest right singular
    vector, scaled so the diagonal slots sum to one."""
    _, _, vt = np.linalg.svd(g.matrix)
    x = vt[-1]
    return x / x[list(g.index.diagonal_positions)].sum()


def _resolving_generator(rates: dict):
    r = RateSet(**rates)
    return builders.build_generalized_double_dot_set(
        r, builders.BlockingConfig.blocked_on_second_dot()), r


def monitored_current(rates: dict) -> float:
    g, r = _resolving_generator(rates)
    x = _null_vector(g)
    return r.Gamma_R * (x[g.index.diagonal("c")] + x[g.index.diagonal("c'")])


def dephased_current(rates: dict) -> float:
    """Gamma_R Omega^2 / (eps^2/eta + eta Gamma_R^2/4 + Omega^2 (2 + Gamma_R/Gamma_L)),
    eta = 1 + gamma_L/Gamma_R; gamma_R only sets how fast the detector is."""
    g_l, g_r, om = rates["Gamma_L"], rates["Gamma_R"], rates["Omega"]
    eps = rates.get("epsilon", 0.0)
    eta = 1.0 + rates["gamma_L"] / g_r
    return g_r * om * om / (eps * eps / eta + eta * g_r * g_r / 4.0
                            + om * om * (2.0 + g_r / g_l))


def expected_grid(spec: str) -> np.ndarray:
    start, stop, count = spec.split(":")
    return np.geomspace(float(start), float(stop), int(count[:-3]))


def check_sweep(text: str, workload) -> Check:
    grid = expected_grid(workload.grid)
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SWEEP_HEADER:
        return _malformed("sweep CSV header differs", len(grid))
    body = rows[1:]
    if len(body) != len(grid):
        return _malformed(f"{len(body)} rows for {len(grid)} grid points", len(grid))
    reference = monitored_current if workload.name == "sweep" else dephased_current
    out = Check(points=len(grid))
    for row, expected_param in zip(body, grid):
        param, numeric = float(row[0]), float(row[1])
        if abs(param - expected_param) > GRID_RTOL * expected_param:
            out.wrong += 1
            out.problem = f"param {param!r} is not grid value {expected_param!r}"
            continue
        if math.isnan(numeric):
            continue
        want = reference(dict(workload.rates, gamma_R=param))
        rel = abs(numeric - want) / abs(want)
        out.max_rel_err = max(out.max_rel_err, rel)
        if rel <= ORACLE_RTOL:
            out.ok += 1
        else:
            out.wrong += 1
            out.problem = f"I_S {numeric!r} at {param!r} is off the oracle {want!r} by {rel:.2e}"
    return out


def check_evolve(path: str, workload) -> Check:
    n_rows = round(workload.t_final / workload.dt) + 1
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    g, r = _resolving_generator(workload.rates)
    slot_names = [_column(e) for e in g.index.entries]
    if (data.shape != (n_rows, len(slot_names) + 3)
            or header != ["t"] + slot_names + ["I_S", "I_D"]):
        return _malformed(f"time series has shape {data.shape}, header {header}", n_rows)
    diag_cols = [header.index(lab.replace("'", "p")) for lab in g.index.diagonal_labels]
    occ = {lab: data[:, col] for lab, col in zip(g.index.diagonal_labels, diag_cols)}
    trace_err = np.abs(data[:, diag_cols].sum(axis=1) - 1.0)
    i_s = r.Gamma_R * (occ["c"] + occ["c'"])
    i_d = r.gamma_R * (occ["a'"] + occ["b'"] + occ["c'"])
    scale_s = max(float(np.abs(i_s).max()), 1e-300)
    scale_d = max(float(np.abs(i_d).max()), 1e-300)
    row_ok = ((trace_err <= EVOLVE_TOL)
              & (np.abs(data[:, -2] - i_s) <= CURRENT_COLUMN_RTOL * scale_s)
              & (np.abs(data[:, -1] - i_d) <= CURRENT_COLUMN_RTOL * scale_d))
    target = _null_vector(g)
    final_gap = float(np.abs(data[-1, 1:-2] - target).max())
    row_ok[-1] &= final_gap <= EVOLVE_TOL
    out = Check(points=n_rows, ok=int(row_ok.sum()),
                max_rel_err=max(float(trace_err.max()), final_gap))
    out.wrong = n_rows - out.ok
    if out.wrong:
        out.problem = (f"{out.wrong} samples fail: max trace error {trace_err.max():.2e}, "
                       f"final gap to the stationary state {final_gap:.2e}")
    return out


def _column(entry) -> str:
    """Time-series column name of a slot: primes become p, coherences
    get an re_/im_ prefix."""
    tag = "".join(s.replace("'", "p") for s in entry.states)
    return tag if entry.kind == "diag" else f"{entry.kind}_{tag}"


_CRITERION = re.compile(r"^criterion (\d+): (PASS|FAIL)\b")
_SUMMARY = re.compile(r"^(\d+)/(\d+) criteria passed$")


def check_validate(stdout: str, rc: int) -> Check:
    """Each criterion line is a point; the summary line and the exit code
    (0 all passed, 4 some failed) must agree with the lines."""
    results = {}
    summary = None
    for line in stdout.splitlines():
        m = _CRITERION.match(line)
        if m:
            results[int(m.group(1))] = m.group(2) == "PASS"
        m = _SUMMARY.match(line)
        if m:
            summary = (int(m.group(1)), int(m.group(2)))
    passed = sum(results.values())
    n = len(results)
    expected_rc = 0 if passed == n else 4
    if not n or summary != (passed, n) or rc != expected_rc \
            or sorted(results) != list(range(1, n + 1)):
        return _malformed(f"validate printed {n} criteria, summary {summary}, rc {rc}",
                          max(n, 1))
    return Check(points=n, ok=passed)
