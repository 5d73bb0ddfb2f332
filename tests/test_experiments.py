import math

import numpy as np
import pytest

from mesorate import (
    REGIMES,
    BlockingConfig,
    DegenerateSteadyState,
    RateSet,
    bare_current,
    dephased_current,
    run_fermi_sweep,
    run_sweep,
    scenario_table,
    steady_state,
    steady_states,
)
from mesorate import (StateVector, SweepTable, analytic, builders, experiments, model,
                      observables)
from mesorate.acceptance import ORACLE_RTOL
from mesorate.experiments import SWEEP_HEADER
from mesorate.model import RATE_FIELDS
from mesorate.output import sweep_csv_text
from test_model import reference_violation_magnitude
from test_observables import reference_current, reference_delta_detector_current

BARE_BASE = RateSet(Gamma_L=1.0, Gamma_R=1.0, Omega=1.0)
SET_BASE = RateSet(gamma_L=1.0, gamma_R=1.0, Gamma_L=1.0, Gamma_R=1.0, Omega=1.0,
                   U1=1.0, U2=2.0)


def closed_form_args(r):
    """r's fields in dephased_current's argument order; the first four
    are bare_current's."""
    return r.Gamma_L, r.Gamma_R, r.Omega, r.epsilon, r.gamma_L


class TestSweepArguments:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="^unknown scenario 'quadruple_dot'$"):
            run_sweep("quadruple_dot", BARE_BASE, "Omega", (1.0,))

    def test_unresolvable_parameter_rejected(self):
        with pytest.raises(ValueError, match="^parameter 'momentum' is not a RateSet field$"):
            run_sweep("double_dot_bare", BARE_BASE, "momentum", (1.0,))

    @pytest.mark.parametrize("scenario,blocking,message", [
        ("double_dot_set", REGIMES["resolving"],
         "^double_dot_set fixes its own blocking and takes no BlockingConfig$"),
        ("generalized_double_dot_set", None, "^the generalized scenario needs a BlockingConfig$"),
    ])
    def test_misused_blocking_is_refused_before_a_refused_row_0(self, scenario, blocking,
                                                                 message):
        # like an unknown scenario, the blocking is checked before any row
        for grid in ((-1.0,), (math.nan, 1.0)):
            with pytest.raises(ValueError, match=message):
                run_sweep(scenario, SET_BASE, "gamma_R", grid, blocking)

    def test_scenario_and_parameter_are_checked_before_the_grid(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_sweep("quadruple_dot", BARE_BASE, "momentum", ())
        with pytest.raises(ValueError, match="not a RateSet field"):
            run_sweep("double_dot_bare", BARE_BASE, "momentum", "1.5")

    def test_empty_grid_rejected(self):
        for grid in ((), [], np.array([])):
            with pytest.raises(ValueError, match="^grid must not be empty$"):
                run_sweep("double_dot_bare", BARE_BASE, "Omega", grid)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_nonfinite_point_raises_its_rateset_error_after_the_rows_before_it(
            self, monkeypatch, value):
        # the non-finite row is refused by the RateSet rule, with the
        # message that point alone raises, once row 0 has been solved
        solved = []

        def recorded(matrices, index):
            solved.append(len(matrices))
            return steady_states(matrices, index)

        monkeypatch.setattr(experiments, "steady_states", recorded)
        with pytest.raises(ValueError) as alone:
            BARE_BASE.replacing("Omega", value)
        with pytest.raises(ValueError) as swept:
            run_sweep("double_dot_bare", BARE_BASE, "Omega", (1.0, value))
        assert str(swept.value) == str(alone.value) == f"Omega must be finite, got {value!r}"
        assert solved == [1]

    def test_earlier_overflow_wins_over_a_later_nonfinite_point(self):
        # 2 * Omega overflows at Omega = 1e308, before the inf is reached
        blocking = REGIMES["resolving"]
        with pytest.raises(ValueError, match="a generator entry from Omega overflows"):
            run_sweep("generalized_double_dot_set", SET_BASE, "Omega", (1.0, 1e308, math.inf),
                      blocking)
        with pytest.raises(ValueError, match="^Omega must be finite, got inf$"):
            run_sweep("generalized_double_dot_set", SET_BASE, "Omega", (1.0, math.inf, 1e308),
                      blocking)


# grids both sweeps refuse with a ValueError: a scalar, a string (which
# numpy would read as one number), two dimensions, a ragged nesting, a
# set, a generator and a value that is no number
MALFORMED_GRIDS = [1.5, "1.5", [[0.5, 1.5], [0.6, 1.6]], [[0.5], [0.6, 1.6]], {0.5, 1.5},
                   (v for v in (0.5, 1.5)), [0.5, object()]]


@pytest.mark.parametrize("grid", MALFORMED_GRIDS,
                         ids=["scalar", "string", "2d", "ragged", "set", "generator", "object"])
@pytest.mark.parametrize("sweep", [
    lambda grid: run_sweep("double_dot_set", SET_BASE, "gamma_R", grid),
    lambda grid: run_fermi_sweep(SET_BASE, 0.0, grid),
], ids=["run_sweep", "run_fermi_sweep"])
def test_malformed_grid_is_a_value_error(sweep, grid):
    with pytest.raises(ValueError, match="grid must be a one-dimensional sequence of numbers"):
        sweep(grid)


class TestRunSweep:
    def test_zero_hopping_row_has_zero_current(self):
        table = run_sweep("double_dot_bare", BARE_BASE, "Omega", (0.0,))
        assert len(table) == 1
        assert table["I_S_numeric"][0] == pytest.approx(0.0, abs=1e-14)

    def test_detuning_symmetry(self):
        grid = (-4.0, -1.0, -0.25, 0.25, 1.0, 4.0)
        table = run_sweep("double_dot_bare", BARE_BASE, "epsilon", grid)
        by_param = dict(zip(table["param"].tolist(), table["I_S_numeric"].tolist()))
        for e in (0.25, 1.0, 4.0):
            assert by_param[e] == pytest.approx(by_param[-e], rel=1e-12)

    def test_detector_ratio_convergence_study(self):
        table = run_sweep("double_dot_set", SET_BASE, "gamma_R", (1e2, 1e3, 1e4))
        target = dephased_current(*closed_form_args(SET_BASE))
        errors = np.abs(table["I_S_numeric"] - target)
        assert errors[0] > errors[1] > errors[2]
        assert table["I_S_analytic"][0] == pytest.approx(target, rel=1e-15)

    def test_degenerate_points_marked_not_fatal(self):
        # Omega 0 with no widths is the zero generator; Omega 1 with no
        # widths is the undamped oscillator: both rows must carry the error
        table = run_sweep("double_dot_bare", RateSet(), "Omega", (0.0, 1.0))
        assert np.isnan(table["I_S_numeric"]).all()
        assert all(table.message)

    def test_detector_columns_nan_for_bare_scenario(self):
        table = run_sweep("double_dot_bare", BARE_BASE, "Omega", (1.0,))
        assert math.isnan(table["I_D"][0])
        assert math.isnan(table["Delta_I_D"][0])

    def test_rows_carry_invariant_violation_magnitude(self):
        table = run_sweep("single_dot_set", RateSet(gamma_L=1, gamma_R=1, Gamma_L=1, Gamma_R=1),
                          "gamma_R", (1.0, 2.0))
        assert (table["max_violation"] < 1e-12).all()

    def test_sweeping_unprimed_width_keeps_equal_amplitudes(self):
        table = run_sweep("double_dot_set", SET_BASE, "gamma_R", (5.0,))
        assert table.message == (None,)
        assert table.regime is None

    def test_table_is_read_only_columns(self):
        table = run_sweep("double_dot_set", SET_BASE, "gamma_R", (1.0, 2.0, 3.0))
        assert len(table) == 3 and table.values.shape == (3, len(SWEEP_HEADER))
        for k, name in enumerate(SWEEP_HEADER):
            assert table[name].tobytes() == table.values[:, k].tobytes()
        with pytest.raises(ValueError, match="read-only"):
            table["I_S_numeric"][0] = 0.0


class TestSweepTableRecord:
    """SweepTable owns a read-only copy of values, unless a sweep hands over
    its own array, and refuses columns of the wrong shape."""

    def test_caller_array_is_not_aliased(self):
        base = np.zeros((2, len(SWEEP_HEADER)))
        table = SweepTable(base[:], None, (None, None))
        base[0, 0] = 5.0
        assert table.values[0, 0] == 0.0
        assert base.flags.writeable     # the caller's array stays its own

    def test_the_owner_of_a_read_only_array_cannot_write_through_it(self):
        # the owner of a read-only array may turn writes back on; the
        # table's values must not change
        values = np.zeros((2, len(SWEEP_HEADER)))
        values.setflags(write=False)
        table = SweepTable(values, None, (None, None))
        values.setflags(write=True)
        values[0, 0] = 5.0
        assert table.values[0, 0] == 0.0 and not table.values.flags.writeable

    def test_integer_values_become_read_only_floats(self):
        table = SweepTable(np.zeros((1, len(SWEEP_HEADER)), dtype=int), None, (None,))
        assert table.values.dtype == np.float64 and not table.values.flags.writeable

    @pytest.mark.parametrize("shape", [(2, 5), (2, 7), (6,), (1, 2, 6)])
    def test_values_shape_refused(self, shape):
        with pytest.raises(ValueError, match=r"values must have shape \(N, 6\)"):
            SweepTable(np.zeros(shape), None, (None, None))

    def test_message_length_refused(self):
        with pytest.raises(ValueError, match="^message must have 2 entries, got 1$"):
            SweepTable(np.zeros((2, len(SWEEP_HEADER))), None, (None,))

    def test_regime_length_refused(self):
        with pytest.raises(ValueError, match="^regime must have 2 entries, got 3$"):
            SweepTable(np.zeros((2, len(SWEEP_HEADER))), ("blind",) * 3, (None, None))

    @pytest.mark.parametrize("sweep", [
        lambda: run_sweep("double_dot_set", SET_BASE, "gamma_R", (1.0, 2.0)),
        lambda: run_fermi_sweep(SET_BASE, 0.0, (0.5, 1.5, 0.7)),
    ], ids=["run_sweep", "run_fermi_sweep"])
    def test_sweeps_hand_over_their_own_array(self, monkeypatch, sweep):
        # both sweeps hand over the array they built, which no caller has
        # seen, through model._Owned, and it is not copied
        taken, read_only = [], experiments.read_only

        def recorded(a):
            values = read_only(a)
            taken.append(isinstance(a, model._Owned) and values is a.array)
            return values

        monkeypatch.setattr(experiments, "read_only", recorded)
        sweep()
        assert taken and all(taken)


class TestSweepErrors:
    """Every grid point is solved in one stack, but the rows and errors are
    those of solving the points one by one in grid order."""

    def test_degenerate_point_mid_batch_is_a_nan_row(self):
        # Gamma_R = 0 leaves the b-c oscillation undamped: a degenerate model
        grid = (0.5, 1.0, 0.0, 2.0, 4.0, -0.0)
        table = run_sweep("double_dot_bare", BARE_BASE, "Gamma_R", grid)
        assert math.isnan(table["I_S_numeric"][2])
        assert table.message[2] == "2-dimensional null space: the model is disconnected"
        # every column, the failed rows and their messages included, is
        # that of the points swept one at a time
        alone = [run_sweep("double_dot_bare", BARE_BASE, "Gamma_R", (value,))
                 for value in grid]
        assert len(table) == len(grid)
        for name in SWEEP_HEADER:
            assert table[name].tobytes() == b"".join(a[name].tobytes() for a in alone), name
        assert table.message == tuple(a.message[0] for a in alone)
        assert table.message[-1] == table.message[2] and table.message.count(None) == 4

    @pytest.mark.parametrize("grid,error", [
        ((1.0, 1e200, -1.0), ValueError),       # past a NaN closed form (Gamma_R**2 overflows)
        ((1.0, -1.0, 1e200), ValueError),       # a negative width
        ((0.0, -1.0, 1e200), ValueError),       # after a degenerate point
    ])
    def test_first_error_in_grid_order_is_raised(self, grid, error):
        with pytest.raises(error, match="width Gamma_R must be >= 0, got -1.0") as caught:
            run_sweep("double_dot_set", SET_BASE, "Gamma_R", grid)
        assert type(caught.value) is error

    def test_unrepresentable_closed_form_is_a_nan_reference(self):
        # Gamma_R**2 overflows at 1e200: the reference is NaN, the row is kept
        table = run_sweep("double_dot_set", SET_BASE, "Gamma_R", (1.0, 1e200))
        assert table["I_S_analytic"][0] == dephased_current(*closed_form_args(SET_BASE))
        assert math.isnan(table["I_S_analytic"][1])

    # Omega**2 underflows to 0 at Omega = 1e-170, and with it both terms of
    # the closed form's fraction: bare_current(1, 0, 1e-170, 0) and
    # dephased_current(1, 1e-200, 1e-170, 0, 1) divide zero by zero
    UNDERFLOWING = (
        ("double_dot_bare", RateSet(Gamma_L=1.0, Omega=1.0)),
        ("reduced_double_dot", RateSet(gamma_L=1.0, Gamma_L=1.0, Gamma_R=1e-200, Omega=1.0)),
    )

    @pytest.mark.parametrize("scenario,base", UNDERFLOWING, ids=["bare", "dephased"])
    def test_underflowed_closed_form_is_a_nan_reference(self, scenario, base):
        form, names = experiments._CLOSED_FORMS[scenario]
        with pytest.raises(ZeroDivisionError):
            form(*[getattr(base.replacing("Omega", 1e-170), name) for name in names])
        args = (scenario, base, "Omega", (1e-170, 0.5, 1.0))
        reference = run_sweep(*args)["I_S_analytic"]
        assert math.isnan(reference[0])
        assert np.isfinite(reference[1:]).all()
        assert _outcome(lambda: run_sweep(*args)) == _outcome(lambda: _reference_sweep(*args))

    def test_underflowed_plateau_is_a_nan_reference(self):
        base = RateSet(gamma_L=1.0, gamma_R=1.0, Gamma_L=1.0, Gamma_R=1e-200, Omega=1e-170,
                       U1=1.0, U2=2.0)
        E0, grid = 0.0, (0.5, 1.5)
        table = run_fermi_sweep(base, E0, grid)
        assert table.regime == ("blind", "resolving")
        assert np.isnan(table["I_S_analytic"]).all()
        assert (_outcome(lambda: run_fermi_sweep(base, E0, grid))
                == _outcome(lambda: _reference_fermi_sweep(base, E0, grid, [])))

    def test_solver_error_of_one_member_is_raised(self, monkeypatch):
        # an engine error other than DegenerateSteadyState is raised, not
        # hidden in a NaN row, and wins over a later point's assembly error
        engine = experiments.steady_states

        def second_member_fails(matrices, index):
            values, errors = engine(matrices, index)
            values[1], errors[1] = math.nan, ArithmeticError("stationary residual too large")
            return values, errors

        monkeypatch.setattr(experiments, "steady_states", second_member_fails)
        blocking = REGIMES["resolving"]
        for grid in ((1.0, 2.0, 3.0), (1.0, 2.0, 1e308)):
            with pytest.raises(ArithmeticError, match="stationary residual") as caught:
                run_sweep("generalized_double_dot_set", SET_BASE, "Omega", grid, blocking)
            assert type(caught.value) is ArithmeticError

    @pytest.mark.parametrize("failing,engine_fails,expected", [
        ((4.0, 2.0), False, "drop at gamma_R = 2.0"),   # the first in grid order
        ((1.0, 4.0), True, "drop at gamma_R = 1.0"),    # before the engine error
        ((4.0,), True, "stationary residual"),          # after it
    ])
    def test_first_output_error_in_grid_order_is_raised(self, monkeypatch, failing,
                                                        engine_fails, expected):
        # the row outputs of all points are read at once, but a failing one
        # raises as the points would one by one: an output error of an
        # earlier point, then an engine error, then later points
        engine, drops = experiments.steady_states, observables.detector_drops

        def third_member_fails(matrices, index):
            values, errors = engine(matrices, index)
            if engine_fails:
                values[2], errors[2] = math.nan, ArithmeticError("stationary residual")
            return values, errors

        def picky_drops(columns, detector_currents):
            for g in np.atleast_1d(columns["gamma_R"]).tolist():
                if g in failing:
                    raise ValueError(f"drop at gamma_R = {g}")
            return drops(columns, detector_currents)

        monkeypatch.setattr(experiments, "steady_states", third_member_fails)
        monkeypatch.setattr(observables, "detector_drops", picky_drops)
        with pytest.raises((ValueError, ArithmeticError), match=expected):
            run_sweep("double_dot_set", SET_BASE, "gamma_R", (1.0, 2.0, 3.0, 4.0))

    def test_overflowing_assembly_names_the_fields(self):
        # 2 * Omega overflows at Omega = 1e308 and a sum of widths past the
        # float range overflows fsum: both are refused in assembly, before
        # any point after them and before LAPACK could see an inf
        blocking = REGIMES["resolving"]
        alone = SET_BASE.replacing("Omega", 1e308)
        with pytest.raises(ValueError, match="a generator entry from Omega overflows"):
            scenario_table("generalized_double_dot_set", blocking).generator(alone)
        with pytest.raises(ValueError, match="a generator entry from Omega overflows"):
            run_sweep("generalized_double_dot_set", SET_BASE, "Omega", (1.0, 1e308, -1.0),
                      blocking)
        with pytest.raises(ValueError, match=r"from Gamma_R, gamma_R, gamma_L overflows"):
            run_sweep("generalized_double_dot_set", SET_BASE, "gamma_R", (1.0, 1e308),
                      blocking)
        # the largest widths whose entries stay finite still assemble
        scenario_table("generalized_double_dot_set", blocking).generator(
            SET_BASE.replacing("Omega", 5e307))

    @pytest.mark.parametrize("grid,expected", [
        ((1.0, 2.0), "assumes equal tunneling amplitudes"),
        ((2.0, 1.0), "a generator entry from Omega overflows"),
    ])
    def test_unequal_amplitudes_win_over_overflow(self, grid, expected):
        # 2 * Omega overflows at every point and gamma_R_p = 2.0 is unequal
        # to gamma_R except at gamma_R = 2.0: the first refused row raises
        # what its point alone raises, the unequal amplitudes first
        base = SET_BASE.replacing("Omega", 1e308).replacing("gamma_R_p", 2.0)
        with pytest.raises(ValueError, match=expected) as alone:
            scenario_table("double_dot_set").generator(base.replacing("gamma_R", grid[0]))
        with pytest.raises(ValueError) as swept:
            run_sweep("double_dot_set", base, "gamma_R", grid)
        assert str(swept.value) == str(alone.value)

    def test_fermi_sweep_solves_each_regime(self):
        # every column, regimes and messages included, is that of the
        # points swept one at a time, each a one-member solve of its regime;
        # RateSet(U1=1, U2=2) is degenerate in both regimes
        grid = [1.5, 0.5, 1.2, 0.2, 1.0, 0.5]
        for base in (TestFermiSweep.BASE, RateSet(U1=1.0, U2=2.0)):
            table = run_fermi_sweep(base, TestFermiSweep.E0, grid)
            alone = [run_fermi_sweep(base, TestFermiSweep.E0, [v]) for v in grid]
            assert len(table) == len(grid)
            for name in SWEEP_HEADER:
                assert table[name].tobytes() == b"".join(a[name].tobytes() for a in alone)
            assert table.regime == tuple(a.regime[0] for a in alone)
            assert table.message == tuple(a.message[0] for a in alone)
            assert table["param"].tolist() == grid
        assert all(table.message)


class TestFermiRegimes:
    """The regime of a Fermi level: blind below E0 + U1, resolving from
    there up to E0 + U2, each threshold belonging to the regime above it."""

    E0 = 0.5

    def test_level_at_e0_plus_u1_is_resolving(self):
        table = run_fermi_sweep(SET_BASE, self.E0, [1.0, 1.5, 2.0])
        assert table.regime == ("blind", "resolving", "resolving")

    def test_level_at_e0_plus_u2_is_refused(self):
        with pytest.raises(ValueError, match=r"reaches E0 \+ U2 = 2.5"):
            run_fermi_sweep(SET_BASE, self.E0, [1.0, 2.5])

    def test_u2_below_u1_is_refused_before_the_grid_checks(self):
        base = SET_BASE.replacing("U1", 2.0).replacing("U2", 1.0)
        for grid in ([], [-1.0], [0.75]):
            with pytest.raises(ValueError, match="U2 must be >= U1"):
                run_fermi_sweep(base, self.E0, grid)


class TestFermiSweep:
    BASE = RateSet(gamma_L=1.0, gamma_R=1e4, Gamma_L=1.0, Gamma_R=1.0, Omega=1.0,
                   U1=1.0, U2=2.0)
    E0 = 0.0

    def test_two_plateau_step(self):
        grid = [0.2, 0.6, 1.0, 1.4, 1.8]
        table = run_fermi_sweep(self.BASE, self.E0, grid)
        bare = bare_current(*closed_form_args(self.BASE)[:4])
        dephased = dephased_current(*closed_form_args(self.BASE))
        for param, i_s, reference, regime in zip(table["param"], table["I_S_numeric"],
                                                  table["I_S_analytic"], table.regime):
            if param < 1.0:
                assert regime == "blind"
                assert i_s == pytest.approx(bare, rel=1e-2)
                assert reference == pytest.approx(bare, rel=1e-15)
            else:
                assert regime == "resolving"
                assert i_s == pytest.approx(dephased, rel=1e-2)
        assert (np.abs(table["Delta_I_D"]) > 1e-6).all()  # the detector interacts on both sides

    def test_no_step_without_detector_coupling(self):
        base = self.BASE.replacing("gamma_L", 0.0)
        i_s = run_fermi_sweep(base, self.E0, [0.5, 1.5])["I_S_numeric"]
        assert i_s[0] == pytest.approx(i_s[1], rel=1e-12)

    def test_entirely_blind_grid_matches_bare_value(self):
        table = run_fermi_sweep(self.BASE, self.E0, [0.3, 0.5, 0.7])
        bare = bare_current(*closed_form_args(self.BASE)[:4])
        assert table["I_S_numeric"] == pytest.approx(bare, rel=1e-2)

    def test_grid_below_detector_level_rejected(self):
        with pytest.raises(ValueError, match="not above"):
            run_fermi_sweep(self.BASE, self.E0, [-0.5, 0.5])

    def test_extrapolated_grid_rejected(self):
        # the open regime is reachable only as a sweep with [run] blocking = open
        with pytest.raises(ValueError, match=r"extrapolated, reachable only as a sweep with "
                                             r"\[run\] blocking = open"):
            run_fermi_sweep(self.BASE, self.E0, [0.5, 2.5])

    @pytest.mark.parametrize("grid,message", [
        ([0.5, 2.5, -0.5], "Fermi level 2.5 reaches E0 + U2 = 2.0;"),
        ([0.5, -0.5, 2.5], "Fermi level -0.5 is not above the detector level E0 = 0.0"),
        ([0.5, 0.0, 2.0], "Fermi level 0.0 is not above"),
        ([0.5, 1.5, 2.0, 0.0], "Fermi level 2.0 reaches"),
        ([0.5, math.nan, 2.5], "Fermi level nan is not above"),
        ([0.5, math.inf], "Fermi level inf reaches"),
    ])
    def test_first_refused_level_in_grid_order_raises(self, grid, message):
        # the grid is checked at once; the first refused level in grid
        # order raises its own message, its value a plain float
        for levels in (grid, np.array(grid)):
            with pytest.raises(ValueError) as caught:
                run_fermi_sweep(self.BASE, self.E0, levels)
            assert str(caught.value).startswith(message)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            run_fermi_sweep(self.BASE, self.E0, [])

    @pytest.mark.parametrize("E0", [math.nan, math.inf, -math.inf])
    def test_nonfinite_detector_level_rejected(self, E0):
        # a library caller reaches the sweep without the config file's check
        with pytest.raises(ValueError, match="^E0 must be finite$"):
            run_fermi_sweep(self.BASE, E0, [0.5])


class TestDeterminism:
    def test_sweep_rows_identical_between_runs(self):
        from mesorate.output import sweep_csv_text
        args = ("double_dot_set", SET_BASE, "gamma_R", np.geomspace(1, 1e4, 7))
        text1 = sweep_csv_text(run_sweep(*args))
        text2 = sweep_csv_text(run_sweep(*args))
        assert text1 == text2


class TestStiffRegime:
    """Rate spreads up to 1e12, the regime of the sweep_stiff benchmark: the
    incoherent single-dot current stays undistorted at any detector speed,
    and at U1 = U2 the coherent current is exactly the dephased form."""

    BASE = RateSet(gamma_L=1.0, gamma_R=1.0, Gamma_L=1e-3, Gamma_R=1e-3, Omega=1e-3,
                   U1=0.0, U2=0.0)
    GRID = np.geomspace(1.0, 1e12, 25)

    @pytest.mark.parametrize("scenario,param", [
        ("single_dot_set", "gamma_R"), ("double_dot_set", "gamma_R"),
        ("double_dot_bare", "Gamma_R"), ("reduced_double_dot", "gamma_L"),
    ])
    def test_rows_match_the_closed_form_or_are_degenerate(self, scenario, param):
        table = run_sweep(scenario, self.BASE, param, self.GRID)
        solved = ~np.isnan(table["I_S_numeric"])
        assert solved.any()
        assert table["I_S_numeric"][solved] == pytest.approx(table["I_S_analytic"][solved],
                                                             rel=ORACLE_RTOL, abs=0)
        # a NaN row is a point the rank test calls disconnected, never a
        # lost answer: solved alone it raises that same degeneracy
        for value, message in zip(table["param"][~solved].tolist(),
                                  np.array(table.message, dtype=object)[~solved]):
            g = scenario_table(scenario).generator(self.BASE.replacing(param, value))
            with pytest.raises(DegenerateSteadyState) as caught:
                steady_state(g)
            assert str(caught.value) == message


# --- per-point reference: every grid point on its own, with one RateSet,
# quantities row, StateVector and weight map per point ---

def _reference_quantities(table, r):
    """The quantities ChannelTable.stack evaluates at one RateSet, as one
    Python pass over the compiled cells."""
    if table.equal_amplitudes and not r.is_equal_amplitudes:
        raise ValueError(f"{table.label} assumes equal tunneling amplitudes; "
                         "primed widths must equal unprimed ones")
    keys, gains = table._cells[0], table._cells[4]
    try:
        q = [math.fsum([s * getattr(r, f) for f, s in terms])
             if len(terms) != 1 else terms[0][1] * getattr(r, terms[0][0])
             for terms in keys]
        if all(math.isfinite(g * v) for g, v in zip(gains, q)):
            return q
    except OverflowError:
        pass
    fields = []
    for terms, gain in zip(keys, gains):
        try:
            finite = math.isfinite(gain * math.fsum([s * getattr(r, f) for f, s in terms]))
        except OverflowError:
            finite = False
        fields += [] if finite else [f for f, _ in terms]
    raise ValueError(f"rates too large for {table.label}: a generator entry from "
                     f"{', '.join(dict.fromkeys(fields))} overflows the float range")


def _reference_closed_form(scenario, r):
    try:
        if scenario == builders.SINGLE_DOT_SET:
            return analytic.single_dot_current(r.Gamma_L, r.Gamma_R)
        if scenario == builders.DOUBLE_DOT_BARE:
            return analytic.bare_current(*closed_form_args(r)[:4])
        if scenario in (builders.REDUCED_DOUBLE_DOT, builders.DOUBLE_DOT_SET):
            return analytic.dephased_current(*closed_form_args(r))
    except (ValueError, ArithmeticError):
        return math.nan
    return math.nan


def _reference_rows(scenario, points, stacks, failure=None):
    """points: (param, rates, blocking, reference, regime, quantities);
    a row is its SWEEP_HEADER values, its regime and its message."""
    solved = [None] * len(points)
    for blocking in dict.fromkeys(p[2] for p in points):
        members = [k for k, p in enumerate(points) if p[2] == blocking]
        table = builders.scenario_table(scenario, blocking)
        _, flat, coefs, of, _ = table._cells
        dim = len(table.index)
        stack = np.zeros((len(members), dim * dim))
        stack[:, flat] = coefs * np.array([points[k][5] for k in members])[:, of]
        stack = stack.reshape(-1, dim, dim)
        stacks.append(stack)
        values, errors = steady_states(stack, table.index)
        for k, v, err in zip(members, values, errors):
            solved[k] = (v, table.index, err)
    rows = []
    for (param, r, blocking, reference, regime, _), (v, index, err) in zip(points, solved):
        if isinstance(err, DegenerateSteadyState):
            rows.append((param, math.nan, reference, math.nan, math.nan, math.nan, regime,
                         str(err)))
            continue
        if err is not None:
            raise err
        x = StateVector(v, index)
        w = builders.scenario_table(scenario, blocking).weights(r)
        i_s = reference_current(x, w["system"])
        if w["detector"]:
            i_d = reference_current(x, w["detector"])
            delta = reference_delta_detector_current(r, i_d)
        else:
            i_d = delta = math.nan
        rows.append((param, i_s, reference, i_d, delta, reference_violation_magnitude(x),
                     regime, None))
    if failure is not None:
        raise failure
    return rows


def _reference_sweep(scenario, base, parameter, grid, blocking=None, stacks=None):
    stacks = [] if stacks is None else stacks
    points = []
    for value in grid:
        try:
            r = base.replacing(parameter, value)
            reference = _reference_closed_form(scenario, r)
            table = builders.scenario_table(scenario, blocking)
            points.append((value, r, blocking, reference, None,
                           _reference_quantities(table, r)))
        except (ValueError, ArithmeticError) as exc:
            return _reference_rows(scenario, points, stacks, exc)
    return _reference_rows(scenario, points, stacks)


def _reference_fermi_sweep(base, E0, grid, stacks):
    if base.U2 < base.U1:
        raise ValueError("U2 must be >= U1 (second dot closer to the detector)")
    grid = [float(v) for v in grid]
    if not grid:
        raise ValueError("grid must not be empty")
    for v in grid:
        if not v > E0:
            raise ValueError(f"Fermi level {v!r} is not above the detector level "
                             f"E0 = {E0!r}")
        if v >= E0 + base.U2:
            raise ValueError(
                f"Fermi level {v!r} reaches E0 + U2 = {E0 + base.U2!r}; that territory is "
                "extrapolated, reachable only as a sweep with [run] blocking = open")
    scenario = builders.GENERALIZED_DOUBLE_DOT_SET
    points = []
    for v in grid:
        resolving = v >= E0 + base.U1
        regime = "resolving" if resolving else "blind"
        blocking = BlockingConfig(not resolving, True)
        plateau = builders.REDUCED_DOUBLE_DOT if resolving else builders.DOUBLE_DOT_BARE
        try:
            reference = _reference_closed_form(plateau, base)
            table = builders.scenario_table(scenario, blocking)
            points.append((v, base, blocking, reference, regime,
                           _reference_quantities(table, base)))
        except (ValueError, ArithmeticError) as exc:
            return _reference_rows(scenario, points, stacks, exc)
    return _reference_rows(scenario, points, stacks)


def _outcome(run):
    """(rows repr, CSV text) of a run, or (exception type, message).  run
    returns a SweepTable, or the reference's rows: tuples of the
    SWEEP_HEADER values, the regime and the message, and CSV text written
    a row at a time."""
    try:
        result = run()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    if not isinstance(result, SweepTable):
        row_format = ",".join(["%.17g"] * len(SWEEP_HEADER)) + "\n"
        return repr(result), ",".join(SWEEP_HEADER) + "\n" + "".join(
            row_format % row[:len(SWEEP_HEADER)] for row in result)
    regimes = result.regime or (None,) * len(result)
    return (repr(list(zip(*result.values.T.tolist(), regimes, result.message))),
            sweep_csv_text(result))


def _same_bits(stacks, other):
    return len(stacks) == len(other) and all(
        a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
        for a, b in zip(stacks, other))


def _regime_bits(stacks, other):
    """The Fermi sweep solves one generator per regime: each of its
    one-member stacks has the bits of every member the reference solves
    for that regime."""
    return len(stacks) == len(other) and all(
        a.shape == (1, *b.shape[1:]) and np.array_equal(np.broadcast_to(a, b.shape).view(np.int64),
                                                        b.view(np.int64))
        for a, b in zip(stacks, other))


_DIFF_CONFIGS = [(s, None) for s in builders.SCENARIOS if s != "generalized_double_dot_set"]
_DIFF_CONFIGS += [("generalized_double_dot_set", b) for b in (*REGIMES.values(), None)]
_DIFF_BASES = (
    RateSet(gamma_L=1.0, gamma_R=2.0, Gamma_L=0.5, Gamma_R=1.5, Omega=0.75, epsilon=0.25,
            U1=1.0, U2=2.0),
    # unequal primed widths: refused by the equal-amplitude scenarios
    RateSet(gamma_L=1.0, gamma_R=2.0, Gamma_L=0.5, Gamma_R=1.5, gamma_R_p=3.0,
            Gamma_L_p=0.25, Omega=0.75, U1=1.0, U2=2.0),
    # signed zeros, so the fsum cells see all-zero sums
    RateSet(gamma_L=-0.0, gamma_R=0.0, Gamma_L=1.0, Gamma_R=-0.0, Omega=1.0, epsilon=-0.0,
            U1=0.0, U2=-0.0),
)
_DIFF_GRIDS = (
    tuple(np.geomspace(1e-3, 1e12, 6).tolist()),
    (0.5, 2.0, -1.0, 3.0),              # a negative width ends a width sweep
    (1.0, 0.0, -0.0, 2.0, -1.0),        # through zero
    (1.0, 1e200, 1e308),                # overflowing closed forms and entries
    (2.0, 3.0),                         # meets the unequal primed widths
    (1.0, 1e308, -math.inf, math.nan),  # overflowing entries, then non-finite points
)


class TestColumnarMatchesPerPoint:
    """The columnar sweeps against the per-point reference: the same CSV
    bytes and rows, the same generator stacks bit for bit (the sign of zero
    included), or the same exception type and message."""

    @pytest.mark.parametrize("field", RATE_FIELDS)
    @pytest.mark.parametrize("scenario,blocking", _DIFF_CONFIGS,
                             ids=[f"{s}-{i}" for i, (s, _) in enumerate(_DIFF_CONFIGS)])
    def test_sweep(self, monkeypatch, scenario, blocking, field):
        stacks = []

        def recorded(matrices, index):
            stacks.append(np.array(matrices))
            return steady_states(matrices, index)

        monkeypatch.setattr(experiments, "steady_states", recorded)
        for base in _DIFF_BASES:
            for grid in _DIFF_GRIDS:
                args = (scenario, base, field, grid, blocking)
                expected_stacks = []
                expected = _outcome(lambda: _reference_sweep(*args, stacks=expected_stacks))
                stacks.clear()
                assert _outcome(lambda: run_sweep(*args)) == expected, (base, grid)
                assert _same_bits(stacks, expected_stacks), (base, grid)

    @pytest.mark.parametrize("base", [
        TestFermiSweep.BASE,
        TestFermiSweep.BASE.replacing("gamma_L", 0.0),
        RateSet(gamma_L=1.0, gamma_R=1e4, Gamma_L=1.0, Gamma_R=1.0, gamma_R_p=2.0, Omega=1.0,
                U1=1.0, U2=2.0),                                        # unequal amplitudes
        RateSet(Gamma_L=1.0, Gamma_R=1.0, Omega=1e308, U1=1.0, U2=2.0),  # overflows
        RateSet(U1=1.0, U2=2.0),                                        # degenerate
        RateSet(gamma_L=1.0, gamma_R=1.0, Gamma_L=1.0, Omega=1.0, U1=1.0, U2=2.0),
    ], ids=["monitored", "uncoupled", "unequal", "overflow", "zero", "no-collector"])
    @pytest.mark.parametrize("grid", [
        (0.2, 0.6, 1.0, 1.4, 1.8),
        (1.5, 0.5, 1.2, 0.2),       # both regimes, interleaved
        (0.5, 2.5),                 # extrapolated
        (0.5, -0.5),                # below E0
    ], ids=["step", "interleaved", "extrapolated", "below-E0"])
    def test_fermi_sweep(self, monkeypatch, base, grid):
        stacks, expected_stacks = [], []

        def recorded(matrices, index):
            stacks.append(np.array(matrices))
            return steady_states(matrices, index)

        monkeypatch.setattr(experiments, "steady_states", recorded)
        E0 = 0.0
        expected = _outcome(lambda: _reference_fermi_sweep(base, E0, grid, expected_stacks))
        assert _outcome(lambda: run_fermi_sweep(base, E0, grid)) == expected
        assert _regime_bits(stacks, expected_stacks)
