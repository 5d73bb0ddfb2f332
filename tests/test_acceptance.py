"""Validation gate: every numbered criterion at its pinned tolerance.

Each test prints its own pass/fail line (run pytest -s to see them all;
the `mesorate validate` command prints the same report).
"""

import dataclasses
import time

import numpy as np
import pytest

from mesorate import RateSet, acceptance, cli_main
from mesorate.model import RATE_FIELDS


@pytest.fixture(scope="module")
def results():
    run = acceptance.run_all()
    return {r.number: r for r in run}


def _check(results, number):
    r = results[number]
    print(f"criterion {r.number}: {'PASS' if r.passed else 'FAIL'}  {r.title}  [{r.detail}]")
    assert r.passed, f"criterion {r.number} failed: {r.detail}"


def test_criterion_1_bare_current_oracle(results):
    _check(results, 1)


def test_criterion_2_dephased_current_oracle(results):
    _check(results, 2)


def test_criterion_3_single_dot_negative_result_limit(results):
    _check(results, 3)


def test_criterion_4_coupled_dot_negative_result_limit(results):
    _check(results, 4)


def test_criterion_5_suppression_factor(results):
    _check(results, 5)


def test_criterion_6_fermi_level_step(results):
    _check(results, 6)


def test_criterion_7_golden_matrices(results):
    _check(results, 7)


def test_criterion_7_fails_under_its_own_title(results, monkeypatch):
    hand_coded = acceptance._hand_coded_double_dot_set

    def perturbed(r):
        g = hand_coded(r)
        return dataclasses.replace(g, matrix=g.matrix + 1.0)

    monkeypatch.setattr(acceptance, "_hand_coded_double_dot_set", perturbed)
    r = acceptance.criterion_7()
    assert r.passed is False
    assert r.title == results[7].title
    assert r.detail.startswith("double_dot_set matrix differs for RateSet(")


def test_criterion_7_sees_the_sign_of_a_zero(monkeypatch):
    # np.array_equal takes -0.0 for 0.0; criterion 7 compares raw bytes
    hand_coded = acceptance._hand_coded_double_dot_set

    def negated_zeros(r):
        g = hand_coded(r)
        return dataclasses.replace(g, matrix=np.where(g.matrix == 0.0, -g.matrix, g.matrix))

    monkeypatch.setattr(acceptance, "_hand_coded_double_dot_set", negated_zeros)
    r = acceptance.criterion_7()
    assert r.passed is False
    assert r.detail.startswith("double_dot_set matrix differs for RateSet(")


# --- row-by-row reference of the random rate sets of criteria 1, 2 and 8:
# one RateSet per row, each drawn by Generator.uniform, gamma_L's power a
# Python scalar one ---

def _draw_bare(rng):
    lo, hi = acceptance.RATE_DECADES
    g_l, g_r, om = 10.0 ** rng.uniform(lo, hi, size=3)
    eps = rng.uniform(*acceptance.DETUNING_RANGE)
    return RateSet(Gamma_L=g_l, Gamma_R=g_r, Omega=om, epsilon=eps)


def _row_draws(seed, n, dephased):
    rng = np.random.default_rng(seed)
    if not dephased:
        return [_draw_bare(rng) for _ in range(n)]
    lo, hi = acceptance.RATE_DECADES
    return [_draw_bare(rng).replacing("gamma_L", float(10.0 ** rng.uniform(lo, hi)))
            for _ in range(n)]


@pytest.mark.parametrize("seed, n, dephased", [
    (acceptance.SEED, acceptance.N_RANDOM_SETS, False),
    (acceptance.SEED + 1, acceptance.N_RANDOM_SETS, True),
    (acceptance.SEED + 2, acceptance.N_RESIDUAL_SETS, True),
], ids=["criterion_1", "criterion_2", "criterion_8"])
def test_drawn_columns_equal_row_by_row_draws(seed, n, dephased):
    # bit for bit, so that validate's numbers cannot move with the draw
    columns = acceptance._drawn_columns(seed, n, dephased)
    for name in RATE_FIELDS:
        expected = np.array([getattr(r, name) for r in _row_draws(seed, n, dephased)])
        assert np.broadcast_to(columns[name], n).tobytes() == expected.tobytes(), name


def test_criterion_8_conservation_and_positivity(results):
    _check(results, 8)


def test_criterion_9_integrator_order(results):
    _check(results, 9)


def test_criterion_10_validate_cli_runs_clean_and_fast(capsys):
    start = time.monotonic()
    code = cli_main(["validate"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    print(f"criterion 10: {'PASS' if code == 0 and elapsed < 60 else 'FAIL'}  "
          f"validate exits {code} in {elapsed:.2f}s")
    assert elapsed < 60.0, f"validate took {elapsed:.1f}s"
    assert "criterion 9" in out
    assert code == 0, "validate must exit 0 with every criterion passing"
