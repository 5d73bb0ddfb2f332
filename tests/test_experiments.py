import math

import numpy as np
import pytest

from mesorate import (
    REGIME_BLIND,
    REGIME_EXTRAPOLATED,
    REGIME_RESOLVING,
    BlockingConfig,
    DegenerateSteadyState,
    EnergyConfig,
    RateSet,
    RegimeSelector,
    SweepSpec,
    build_generalized_double_dot_set,
    build_scenario,
    double_dot_current_bare,
    double_dot_current_measured,
    run_fermi_sweep,
    run_sweep,
    steady_state,
)
from mesorate import experiments
from mesorate.acceptance import ORACLE_RTOL

BARE_BASE = RateSet(Gamma_L=1.0, Gamma_R=1.0, Omega=1.0)
SET_BASE = RateSet(gamma_L=1.0, gamma_R=1.0, Gamma_L=1.0, Gamma_R=1.0, Omega=1.0,
                   U1=1.0, U2=2.0)


class TestSweepSpec:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SweepSpec("double_dot_bare", BARE_BASE, "Omega", ())

    def test_nonfinite_grid_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SweepSpec("double_dot_bare", BARE_BASE, "Omega", (1.0, math.inf))

    def test_unresolvable_parameter_rejected(self):
        with pytest.raises(ValueError, match="not a RateSet field"):
            SweepSpec("double_dot_bare", BARE_BASE, "momentum", (1.0,))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            SweepSpec("quadruple_dot", BARE_BASE, "Omega", (1.0,))


class TestRunSweep:
    def test_zero_hopping_row_has_zero_current(self):
        rows = run_sweep(SweepSpec("double_dot_bare", BARE_BASE, "Omega", (0.0,)))
        assert len(rows) == 1
        assert rows[0].I_S_numeric == pytest.approx(0.0, abs=1e-14)

    def test_detuning_symmetry(self):
        grid = (-4.0, -1.0, -0.25, 0.25, 1.0, 4.0)
        rows = run_sweep(SweepSpec("double_dot_bare", BARE_BASE, "epsilon", grid))
        by_param = {row.param: row.I_S_numeric for row in rows}
        for e in (0.25, 1.0, 4.0):
            assert by_param[e] == pytest.approx(by_param[-e], rel=1e-12)

    def test_detector_ratio_convergence_study(self):
        rows = run_sweep(SweepSpec("double_dot_set", SET_BASE, "gamma_R",
                                   (1e2, 1e3, 1e4)))
        target = double_dot_current_measured(SET_BASE)
        errors = [abs(row.I_S_numeric - target) for row in rows]
        assert errors[0] > errors[1] > errors[2]
        assert rows[0].I_S_analytic == pytest.approx(target, rel=1e-15)

    def test_degenerate_points_marked_not_fatal(self):
        # Omega 0 with no widths is the zero generator; Omega 1 with no
        # widths is the undamped oscillator: both rows must carry the error
        rows = run_sweep(SweepSpec("double_dot_bare", RateSet(), "Omega", (0.0, 1.0)))
        assert all(math.isnan(row.I_S_numeric) for row in rows)
        assert all(row.error for row in rows)

    def test_detector_columns_nan_for_bare_scenario(self):
        rows = run_sweep(SweepSpec("double_dot_bare", BARE_BASE, "Omega", (1.0,)))
        assert math.isnan(rows[0].I_D)
        assert math.isnan(rows[0].Delta_I_D)

    def test_rows_carry_invariant_violation_magnitude(self):
        rows = run_sweep(SweepSpec("single_dot_set",
                                   RateSet(gamma_L=1, gamma_R=1, Gamma_L=1, Gamma_R=1),
                                   "gamma_R", (1.0, 2.0)))
        assert all(row.max_violation < 1e-12 for row in rows)

    def test_sweeping_unprimed_width_keeps_equal_amplitudes(self):
        rows = run_sweep(SweepSpec("double_dot_set", SET_BASE, "gamma_R", (5.0,)))
        assert not rows[0].error


class TestSweepErrors:
    """Every grid point is solved in one stack, but the rows and errors are
    those of solving the points one by one in grid order."""

    def test_degenerate_point_mid_batch_is_a_nan_row(self):
        # Gamma_R = 0 leaves the b-c oscillation undamped: a degenerate model
        grid = (0.5, 1.0, 0.0, 2.0, 4.0)
        rows = run_sweep(SweepSpec("double_dot_bare", BARE_BASE, "Gamma_R", grid))
        assert math.isnan(rows[2].I_S_numeric)
        assert rows[2].error == "2-dimensional null space: the model is disconnected"
        # every row, the failed one included, is the row of its point alone
        for value, row in zip(grid, rows):
            alone = run_sweep(SweepSpec("double_dot_bare", BARE_BASE, "Gamma_R", (value,)))
            assert repr(row) == repr(alone[0])

    @pytest.mark.parametrize("grid,error", [
        ((1.0, 1e200, -1.0), OverflowError),    # Gamma_R**2 in the closed form
        ((1.0, -1.0, 1e200), ValueError),       # a negative width
        ((0.0, -1.0, 1e200), ValueError),       # after a degenerate point
    ])
    def test_first_error_in_grid_order_is_raised(self, grid, error):
        with pytest.raises(error) as caught:
            run_sweep(SweepSpec("double_dot_set", SET_BASE, "Gamma_R", grid))
        assert type(caught.value) is error

    def test_solver_error_of_one_member_is_raised(self, monkeypatch):
        # an engine error other than DegenerateSteadyState is raised, not
        # hidden in a NaN row, and wins over a later point's assembly error
        engine = experiments.steady_states

        def second_member_fails(matrices, index):
            values, errors = engine(matrices, index)
            values[1], errors[1] = math.nan, ArithmeticError("stationary residual too large")
            return values, errors

        monkeypatch.setattr(experiments, "steady_states", second_member_fails)
        blocking = BlockingConfig.blocked_on_second_dot()
        for grid in ((1.0, 2.0, 3.0), (1.0, 2.0, 1e308)):
            with pytest.raises(ArithmeticError, match="stationary residual") as caught:
                run_sweep(SweepSpec("generalized_double_dot_set", SET_BASE, "Omega", grid,
                                    blocking))
            assert type(caught.value) is ArithmeticError

    def test_overflowing_assembly_names_the_fields(self):
        # 2 * Omega overflows at Omega = 1e308 and a sum of widths past the
        # float range overflows fsum: both are refused in assembly, before
        # any point after them and before LAPACK could see an inf
        blocking = BlockingConfig.blocked_on_second_dot()
        alone = SET_BASE.replacing("Omega", 1e308)
        with pytest.raises(ValueError, match="a generator entry from Omega overflows"):
            build_generalized_double_dot_set(alone, blocking)
        with pytest.raises(ValueError, match="a generator entry from Omega overflows"):
            run_sweep(SweepSpec("generalized_double_dot_set", SET_BASE, "Omega",
                                (1.0, 1e308, -1.0), blocking))
        with pytest.raises(ValueError, match=r"from Gamma_R, gamma_R, gamma_L overflows"):
            run_sweep(SweepSpec("generalized_double_dot_set", SET_BASE, "gamma_R",
                                (1.0, 1e308), blocking))
        # the largest widths whose entries stay finite still assemble
        build_generalized_double_dot_set(SET_BASE.replacing("Omega", 5e307), blocking)

    def test_fermi_sweep_solves_each_regime(self):
        base = TestFermiSweep.BASE
        grid = [1.5, 0.5, 1.2, 0.2]
        rows = run_fermi_sweep(base, TestFermiSweep.ENERGY, grid)
        for v, row in zip(grid, rows):
            alone = run_fermi_sweep(base, TestFermiSweep.ENERGY, [v])
            assert repr(row) == repr(alone[0])


class TestRegimeSelector:
    def test_thresholds(self):
        sel = RegimeSelector(E0=0.0, U1=1.0, U2=2.0)
        assert sel.classify(0.5)[0] == REGIME_BLIND
        assert sel.classify(1.5)[0] == REGIME_RESOLVING
        assert sel.classify(2.5)[0] == REGIME_EXTRAPOLATED

    def test_boundaries_half_open_upward(self):
        sel = RegimeSelector(E0=0.0, U1=1.0, U2=2.0)
        assert sel.classify(1.0)[0] == REGIME_RESOLVING
        assert sel.classify(2.0)[0] == REGIME_EXTRAPOLATED

    def test_blocking_configs(self):
        sel = RegimeSelector(E0=0.0, U1=1.0, U2=2.0)
        assert sel.classify(0.5)[1] == BlockingConfig.blocked_on_either_dot()
        assert sel.classify(1.5)[1] == BlockingConfig.blocked_on_second_dot()

    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="U2"):
            RegimeSelector(E0=0.0, U1=2.0, U2=1.0)

    def test_from_parts(self):
        sel = RegimeSelector.from_parts(EnergyConfig(E0=0.5), SET_BASE)
        assert sel.threshold_resolving == 1.5
        assert sel.threshold_extrapolated == 2.5


class TestFermiSweep:
    BASE = RateSet(gamma_L=1.0, gamma_R=1e4, Gamma_L=1.0, Gamma_R=1.0, Omega=1.0,
                   U1=1.0, U2=2.0)
    ENERGY = EnergyConfig(E0=0.0)

    def test_two_plateau_step(self):
        grid = [0.2, 0.6, 1.0, 1.4, 1.8]
        rows = run_fermi_sweep(self.BASE, self.ENERGY, grid)
        bare = double_dot_current_bare(self.BASE)
        dephased = double_dot_current_measured(self.BASE)
        for row in rows:
            if row.param < 1.0:
                assert row.regime == REGIME_BLIND
                assert row.I_S_numeric == pytest.approx(bare, rel=1e-2)
                assert row.I_S_analytic == pytest.approx(bare, rel=1e-15)
            else:
                assert row.regime == REGIME_RESOLVING
                assert row.I_S_numeric == pytest.approx(dephased, rel=1e-2)
            assert abs(row.Delta_I_D) > 1e-6  # the detector interacts on both sides

    def test_no_step_without_detector_coupling(self):
        base = self.BASE.replacing("gamma_L", 0.0)
        rows = run_fermi_sweep(base, self.ENERGY, [0.5, 1.5])
        assert rows[0].I_S_numeric == pytest.approx(rows[1].I_S_numeric, rel=1e-12)

    def test_entirely_blind_grid_matches_bare_value(self):
        rows = run_fermi_sweep(self.BASE, self.ENERGY, [0.3, 0.5, 0.7])
        bare = double_dot_current_bare(self.BASE)
        for row in rows:
            assert row.I_S_numeric == pytest.approx(bare, rel=1e-2)

    def test_grid_below_detector_level_rejected(self):
        with pytest.raises(ValueError, match="not above"):
            run_fermi_sweep(self.BASE, self.ENERGY, [-0.5, 0.5])

    def test_extrapolated_grid_needs_flag(self):
        with pytest.raises(ValueError, match="extrapolated"):
            run_fermi_sweep(self.BASE, self.ENERGY, [0.5, 2.5])
        rows = run_fermi_sweep(self.BASE, self.ENERGY, [0.5, 2.5],
                               allow_extrapolation=True)
        assert rows[1].regime == REGIME_EXTRAPOLATED
        assert math.isnan(rows[1].I_S_analytic)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            run_fermi_sweep(self.BASE, self.ENERGY, [])


class TestDeterminism:
    def test_sweep_rows_identical_between_runs(self):
        from mesorate.output import sweep_csv_text
        spec = SweepSpec("double_dot_set", SET_BASE, "gamma_R",
                         tuple(np.geomspace(1, 1e4, 7)))
        text1 = sweep_csv_text(run_sweep(spec))
        text2 = sweep_csv_text(run_sweep(spec))
        assert text1 == text2


class TestStiffRegime:
    """Rate spreads up to 1e12, the regime of the sweep_stiff benchmark: the
    incoherent single-dot current stays undistorted at any detector speed,
    and at U1 = U2 the coherent current is exactly the dephased form."""

    BASE = RateSet(gamma_L=1.0, gamma_R=1.0, Gamma_L=1e-3, Gamma_R=1e-3, Omega=1e-3,
                   U1=0.0, U2=0.0)
    GRID = tuple(np.geomspace(1.0, 1e12, 25))

    @pytest.mark.parametrize("scenario,param", [
        ("single_dot_set", "gamma_R"), ("double_dot_set", "gamma_R"),
        ("double_dot_bare", "Gamma_R"), ("reduced_double_dot", "gamma_L"),
    ])
    def test_rows_match_the_closed_form_or_are_degenerate(self, scenario, param):
        rows = run_sweep(SweepSpec(scenario, self.BASE, param, self.GRID))
        solved = [row for row in rows if not math.isnan(row.I_S_numeric)]
        assert solved
        for row in solved:
            assert row.I_S_numeric == pytest.approx(row.I_S_analytic, rel=ORACLE_RTOL, abs=0)
        # a NaN row is a point the rank test calls disconnected, never a
        # lost answer: solved alone it raises that same degeneracy
        for row in rows:
            if math.isnan(row.I_S_numeric):
                g = build_scenario(scenario, self.BASE.replacing(param, row.param))
                with pytest.raises(DegenerateSteadyState) as caught:
                    steady_state(g)
                assert str(caught.value) == row.error
