
import itertools
import math

import numpy as np
import pytest

from mesorate import (
    BlockingConfig,
    RateSet,
    StateVector,
    scenario_table,
    steady_state,
)
from mesorate.analytic import single_dot_current
from mesorate.builders import DETECTOR_ENTRY
from mesorate.model import fixed_columns, refused_rows, sweep_columns
from mesorate.observables import currents, detector_drops

# --- per-state reference: the weighted occupation sum as one fsum over the
# state's Python floats, with the weight labels resolved to slots first ---

def reference_occupation_sum(index, weights):
    try:
        terms = [(index.diagonal(label), w) for label, w in weights.items()]
    except KeyError as exc:
        raise ValueError(f"weight refers to a slot missing from the state: {exc}") from exc
    return lambda sample: math.fsum([sample[slot] * w for slot, w in terms])


def reference_current(x, weights):
    return reference_occupation_sum(x.index, weights)(x.values.tolist())


def reference_delta_detector_current(r, detector_current):
    """The closed-form bare detector current less detector_current; NaN
    where the bare current is undefined (both unprimed widths zero)."""
    try:
        bare = single_dot_current(r.gamma_L, r.gamma_R)
    except ValueError:
        bare = math.nan
    return bare - detector_current


# --- the package's columnar readers on one state and one RateSet ---

def one_current(x, weights):
    return currents(x.index, weights, x.values[np.newaxis])[0]


def one_drop(r, detector_current):
    return detector_drops(fixed_columns(r), [detector_current])[0]


ALL_ONES = RateSet(gamma_L=1, gamma_R=1, Gamma_L=1, Gamma_R=1)
STEADY_ALL_ONES = StateVector(np.array([5, 7, 3, 1]) / 16, scenario_table("single_dot_set").index)


class TestWeightsFor:
    def test_single_dot_detector_weights(self):
        w = scenario_table("single_dot_set").weights(ALL_ONES)
        assert w["detector"] == {"a'": 1.0, "b'": 1.0}
        assert w["system"] == {"b": 1.0, "b'": 1.0}

    def test_single_dot_primed_widths_used(self):
        r = RateSet(gamma_L=1, gamma_R=2, gamma_R_p=0.5, Gamma_L=1, Gamma_R=3,
                    Gamma_R_p=4)
        w = scenario_table("single_dot_set").weights(r)
        assert w["detector"] == {"a'": 2.0, "b'": 0.5}
        assert w["system"] == {"b": 3.0, "b'": 4.0}

    def test_bare_double_dot_single_collector_state(self):
        r = RateSet(Gamma_L=1, Gamma_R=2.5, Omega=1)
        w = scenario_table("double_dot_bare").weights(r)
        assert w["system"] == {"c": 2.5}
        assert w["detector"] == {}

    def test_monitored_double_dot_weights(self):
        r = RateSet(gamma_L=1, gamma_R=7, Gamma_L=1, Gamma_R=2, Omega=1)
        w = scenario_table("double_dot_set").weights(r)
        assert w["detector"] == {"a'": 7.0, "b'": 7.0, "c'": 7.0}
        assert w["system"] == {"c": 2.0, "c'": 2.0}
        assert w["detector_return"] == {"c'": 1.0}

    def test_generalized_backflow_diagnostic_follows_blocking(self):
        r = RateSet(gamma_L=0.5, gamma_R=7, Gamma_L=1, Gamma_R=2, Omega=1)
        w = scenario_table("generalized_double_dot_set", BlockingConfig(True, True)).weights(r)
        assert w["detector_return"] == {"b'": 0.5, "c'": 0.5}

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_table("triple_dot").weights(ALL_ONES)

    def test_negative_weight_rejected(self):
        # every weight is a width of a validated RateSet or rate column, so
        # a negative width is refused before it can become a weight
        with pytest.raises(ValueError, match=">= 0"):
            scenario_table("single_dot_set").weights(RateSet(gamma_L=1, gamma_R=-1.0))
        columns = sweep_columns(ALL_ONES, "gamma_R", np.array([1.0, -1.0]))
        first, error = refused_rows(columns, 2)
        assert first == 1 and str(error) == "width gamma_R must be >= 0, got -1.0"


class TestRefusedRows:
    # the RateSet rule on rate columns: the first refused row, with the
    # message of its first fault, non-finite before negative and unprimed
    # widths before primed ones
    def columns(self, **fields):
        n = max(len(v) for v in fields.values())
        return {**fixed_columns(ALL_ONES), **{f: np.array(v) for f, v in fields.items()}}, n

    def test_non_finite_is_named_before_a_negative_width(self):
        columns, n = self.columns(gamma_L=[1.0, -1.0], U2=[0.0, math.nan])
        first, error = refused_rows(columns, n)
        assert first == 1 and str(error) == "U2 must be finite, got nan"

    def test_unprimed_width_is_named_before_primed(self):
        columns, n = self.columns(Gamma_R=[-2.0], gamma_L_p=[-1.0])
        assert str(refused_rows(columns, n)[1]) == "width Gamma_R must be >= 0, got -2.0"

    def test_first_bad_row_is_reported(self):
        columns, n = self.columns(gamma_R=[1.0, 2.0, -3.0, math.inf, -5.0])
        first, error = refused_rows(columns, n)
        assert first == 2 and str(error) == "width gamma_R must be >= 0, got -3.0"
        columns, n = self.columns(epsilon=[0.0, -math.inf, math.nan])
        first, error = refused_rows(columns, n)
        assert first == 1 and str(error) == "epsilon must be finite, got -inf"
        # a float column is in every row: breaking the rule, it refuses row 0
        columns, n = self.columns(gamma_R=[1.0, -3.0])
        first, error = refused_rows({**columns, "Gamma_L_p": -0.5}, n)
        assert first == 0 and str(error) == "width Gamma_L_p must be >= 0, got -0.5"

    def test_clean_table_refuses_no_row(self):
        columns, n = self.columns(Gamma_L=[0.0, 1.0, 1e300], epsilon=[-1.0, 0.0, 1.0])
        assert refused_rows(columns, n) == (3, None)


class TestCurrent:
    def test_system_current_of_all_ones_steady(self):
        w = scenario_table("single_dot_set").weights(ALL_ONES)
        assert one_current(STEADY_ALL_ONES, w["system"]) == 0.5

    def test_detector_current_of_all_ones_steady(self):
        w = scenario_table("single_dot_set").weights(ALL_ONES)
        assert one_current(STEADY_ALL_ONES, w["detector"]) == 0.25

    def test_zero_weights_give_zero(self):
        assert one_current(STEADY_ALL_ONES, {}) == 0.0

    def test_slot_mismatch(self):
        with pytest.raises(ValueError, match="missing"):
            one_current(STEADY_ALL_ONES, {"c'": 1.0})


def _outcome(fn, *args):
    """The bits of fn's float result, or its exception type and message."""
    try:
        return int(np.float64(fn(*args)).view(np.int64))
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _is_nan(outcome):
    return isinstance(outcome, int) and math.isnan(np.int64(outcome).view(np.float64))


# occupations that stress the per-row fsum: signed zeros, subnormals,
# values whose products overflow, and NaN
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1.0 / 3.0, -0.1,
           1e300, -1e300, 1.7976931348623157e308, math.inf, -math.inf, math.nan)


class TestCurrentMatchesReference:
    """currents and detector_drops, bit for bit the per-state reference
    above, on one row and on a stack of rows."""

    INDEX = scenario_table("double_dot_set").index

    def random_states(self, rng, n):
        for _ in range(n):
            values = rng.uniform(-1.0, 1.0, len(self.INDEX)) * 10.0 ** rng.integers(-320, 309)
            special = rng.random(len(self.INDEX)) < 0.3
            values[special] = rng.choice(SPECIAL, special.sum())
            yield StateVector(values, self.INDEX)

    def random_weights(self, rng):
        labels = [label for label in self.INDEX.diagonal_labels if rng.random() < 0.6]
        pool = (0.0, -0.0, 5e-324, 1.0, 0.7, 1e-300, 1e200, 1e308, 1.7976931348623157e308)
        return {label: float(rng.choice(pool) if rng.random() < 0.5 else rng.exponential())
                for label in labels}

    def test_current_on_random_states(self):
        rng = np.random.default_rng(7)
        for x in self.random_states(rng, 2000):
            w = self.random_weights(rng)
            assert _outcome(one_current, x, w) == _outcome(reference_current, x, w), (x.values, w)

    def test_stack_rows_match_reference(self):
        # the rows whose reference sum is a float, read as one (N, dim) stack
        rng = np.random.default_rng(8)
        for _ in range(50):
            w = self.random_weights(rng)
            states = [x for x in self.random_states(rng, 40)
                      if isinstance(_outcome(reference_current, x, w), int)]
            values = np.array([x.values for x in states]).reshape(-1, len(self.INDEX))
            got = currents(self.INDEX, w, values)
            assert [_outcome(float, v) for v in got] == [
                _outcome(reference_current, x, w) for x in states], w

    def test_overflowing_and_empty_weights(self):
        # products that overflow to inf, a finite sum past the float range
        # (fsum raises), inf - inf (fsum raises), signed zeros (fsum gives
        # +0.0 where numpy's add would give -0.0) and no weights at all
        # (slots a, a', b, b', c, c', then the coherences)
        x = StateVector([1e300, -1e300, 1e308, -0.0, 1e308, 0.0, 0.25, -0.25, 1.0, 2.0],
                        self.INDEX)
        outcomes = []
        for w in ({}, {"a": 1e308}, {"a": 1e308, "a'": 1e308}, {"a": 1e10, "c'": 1e10},
                  {"b": 1.0, "c": 1.0}, {"b'": 1.0, "c'": -0.0}, {"c": 5e-324}):
            outcomes.append(_outcome(one_current, x, w))
            assert outcomes[-1] == _outcome(reference_current, x, w), w
        assert outcomes[0] == outcomes[5] == 0     # the bits of +0.0
        assert outcomes[2] == (ValueError, "-inf + inf in fsum")
        assert outcomes[4] == (OverflowError, "intermediate overflow in fsum")

    def test_missing_slot_message(self):
        x = StateVector(np.zeros(len(self.INDEX)), self.INDEX)
        for w in ({"d": 1.0}, {"a": 1.0, "z'": 0.0}):
            assert _outcome(one_current, x, w) == _outcome(reference_current, x, w)
        assert _outcome(one_current, x, {"d": 1.0}) == (
            ValueError, "weight refers to a slot missing from the state: "
                        "\"no diagonal slot for state 'd'\"")

    def test_delta_detector_current_on_random_rates(self):
        rng = np.random.default_rng(11)
        widths = (0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0, 3.0, 1e300, 1.7976931348623157e308)
        for _ in range(2000):
            r = RateSet(gamma_L=float(rng.choice(widths)), gamma_R=float(rng.choice(widths)))
            i_d = float(rng.choice(SPECIAL) if rng.random() < 0.5 else rng.normal())
            got = _outcome(one_drop, r, i_d)
            expected = _outcome(reference_delta_detector_current, r, i_d)
            # a NaN's sign and payload follow the operation that made it
            assert got == expected or _is_nan(got) and _is_nan(expected), (r, i_d)


class TestDeltaDetectorCurrent:
    def test_all_ones_value(self):
        assert one_drop(ALL_ONES, 0.25) == 0.25

    def test_undisturbed_detector(self):
        assert one_drop(ALL_ONES, 0.5) == 0.0

    def test_undefined_without_detector_widths(self):
        assert math.isnan(one_drop(RateSet(Gamma_L=1, Gamma_R=1), 0.1))

    def test_a_column_of_rows(self):
        columns = {"gamma_L": np.array([1.0, 0.0, 1.0]), "gamma_R": np.array([1.0, 0.0, 3.0])}
        drops = detector_drops(columns, [0.25, 0.0, 0.5])
        assert drops.dtype == np.float64
        assert drops[[0, 2]].tolist() == [0.25, 0.25] and math.isnan(drops[1])

    def test_amplification_ratio_in_fast_detector_limit(self):
        r = RateSet(gamma_L=1.0, gamma_R=1e4, Gamma_L=1.0, Gamma_R=1.0, Omega=1.0,
                    U1=1.0, U2=2.0)
        x = steady_state(scenario_table("double_dot_set").generator(r))
        w = scenario_table("double_dot_set").weights(r)
        i_s = one_current(x, w["system"])
        i_d = one_current(x, w["detector"])
        ratio = one_drop(r, i_d) / i_s
        assert ratio == pytest.approx(r.gamma_L / r.Gamma_R, rel=1e-2)


FLUX_CONFIGS = [("single_dot_set", None), ("double_dot_bare", None),
                ("reduced_double_dot", None), ("double_dot_set", None)] + [
    ("generalized_double_dot_set", BlockingConfig(*flags))
    for flags in itertools.product((False, True), repeat=2)]


def flux_id(scenario, blocking):
    if blocking is None:
        return scenario
    flags = (blocking.blocked_when_dot1, blocking.blocked_when_dot2)
    return f"{scenario}:{''.join(str(int(f)) for f in flags)}"


class TestFluxBalance:
    @pytest.mark.parametrize("scenario,blocking", FLUX_CONFIGS,
                             ids=[flux_id(*c) for c in FLUX_CONFIGS])
    def test_detector_injection_matches_collector_outflow(self, scenario, blocking):
        # in the stationary state the net inflow from the left (entry minus
        # backflow) equals the collector outflow the weights report, for the
        # system and the detector alike; the fluxes are written out here per
        # scenario, independently of the channel tables
        if scenario == "single_dot_set":
            r = RateSet(gamma_L=0.8, gamma_R=2.0, gamma_L_p=0.3, gamma_R_p=1.5,
                        Gamma_L=1.1, Gamma_R=0.9, Gamma_L_p=0.7, Gamma_R_p=1.3)
        else:
            r = RateSet(gamma_L=0.8, gamma_R=2.0, Gamma_L=1.1, Gamma_R=0.9,
                        Omega=0.7, epsilon=0.3, U1=1.0, U2=2.0)
        x = steady_state(scenario_table(scenario, blocking).generator(r))
        p = {label: x.occupation(label) for label in x.index.diagonal_labels}
        w = scenario_table(scenario, blocking).weights(r)
        if scenario == "single_dot_set":
            system_entry = r.Gamma_L * p["a"] + r.Gamma_L_p * p["a'"]
            detector_entry = r.gamma_L * p["a"] - r.gamma_L_p * p["b'"]
        elif scenario in ("double_dot_bare", "reduced_double_dot"):
            system_entry = r.Gamma_L * p["a"]
            detector_entry = 0.0
        else:
            cfg = blocking or BlockingConfig(False, True)   # double_dot_set: resolving
            blocked = {"a": False, "b": cfg.blocked_when_dot1, "c": cfg.blocked_when_dot2}
            system_entry = r.Gamma_L * (p["a"] + p["a'"])
            detector_entry = r.gamma_L * math.fsum(
                p[s] if not blocked[s] else -p[s + "'"] for s in "abc")
        assert abs(system_entry - one_current(x, w["system"])) < 1e-10
        assert abs(detector_entry - one_current(x, w["detector"])) < 1e-10


SWEEP_BASE = RateSet(gamma_L=0.8, gamma_R=2.0, Gamma_L=1.1, Gamma_R=0.9,
                     Omega=0.7, epsilon=0.3, U1=1.0, U2=2.0)
SWEEP_GRID = np.array([0.0, 0.5, 3.0, 1e4])


def row_weights(weight_columns, k):
    """Row k of weight_columns, every width a float."""
    return {name: {label: float(w[k]) if isinstance(w, np.ndarray) else w
                   for label, w in widths.items()}
            for name, widths in weight_columns.items()}


class TestWeightColumns:
    @pytest.mark.parametrize("scenario,blocking", FLUX_CONFIGS,
                             ids=[flux_id(*c) for c in FLUX_CONFIGS])
    def test_rows_are_the_weights_at_each_rate_set(self, scenario, blocking):
        # a swept detector width and a swept system width: row k of the
        # columns is the weights at the k-th rate set of the sweep
        table = scenario_table(scenario, blocking)
        for name in ("gamma_R", "Gamma_R"):
            columns = table.weight_columns(sweep_columns(SWEEP_BASE, name, SWEEP_GRID))
            for k, v in enumerate(SWEEP_GRID.tolist()):
                assert row_weights(columns, k) == table.weights(
                    SWEEP_BASE.replacing(name, v)), (name, v)

    @pytest.mark.parametrize("scenario,blocking", FLUX_CONFIGS,
                             ids=[flux_id(*c) for c in FLUX_CONFIGS])
    def test_stack_currents_match_each_point(self, scenario, blocking):
        # the stationary states of a gamma_L sweep read as one stack with
        # the weight columns: each row has the bits of the per-point
        # reference at that point's own weights
        table = scenario_table(scenario, blocking)
        grid = np.array([0.1, 0.8, 5.0])
        points = [SWEEP_BASE.replacing("gamma_L", v) for v in grid.tolist()]
        states = [steady_state(table.generator(r)) for r in points]
        values = np.array([x.values for x in states])
        columns = table.weight_columns(sweep_columns(SWEEP_BASE, "gamma_L", grid))
        for name in ("system", "detector", "detector_return"):
            got = currents(table.index, columns[name], values)
            want = [reference_current(x, table.weights(r)[name])
                    for x, r in zip(states, points)]
            assert [_outcome(float, v) for v in got] == [
                _outcome(float, v) for v in want], name

    @pytest.mark.parametrize("scenario,blocking", FLUX_CONFIGS[4:],
                             ids=[flux_id(*c) for c in FLUX_CONFIGS[4:]])
    def test_backflow_channel_iff_blocked(self, scenario, blocking):
        # a blocked configuration has no entry channel and always its
        # backflow channel; an open one has its entry and no backflow
        r = RateSet(gamma_L=0.5, gamma_R=7, Gamma_L=1, Gamma_R=2, Omega=1)
        table = scenario_table(scenario, blocking)
        blocked = {"a": False, "b": blocking.blocked_when_dot1,
                   "c": blocking.blocked_when_dot2}
        assert table.weights(r)["detector_return"] == {
            s + "'": 0.5 for s in "abc" if blocked[s]}
        assert {ch.source for ch in table.channels if ch.kind == DETECTOR_ENTRY} == {
            s for s in "abc" if not blocked[s]}
        assert table.weights(r)["detector"] == {"a'": 7.0, "b'": 7.0, "c'": 7.0}


class TestScaleInvariance:
    def test_currents_scale_linearly_with_all_rates(self):
        kappa = 4.0  # power of two: scaling the generator is exact
        r = RateSet(gamma_L=0.5, gamma_R=2.0, gamma_L_p=0.25, gamma_R_p=1.0,
                    Gamma_L=1.0, Gamma_R=0.75, Gamma_L_p=0.5, Gamma_R_p=1.5)
        scaled = RateSet(**{k: kappa * getattr(r, k) for k in
                            ("gamma_L", "gamma_R", "gamma_L_p", "gamma_R_p",
                             "Gamma_L", "Gamma_R", "Gamma_L_p", "Gamma_R_p")})
        x1 = steady_state(scenario_table("single_dot_set").generator(r))
        x2 = steady_state(scenario_table("single_dot_set").generator(scaled))
        w1 = scenario_table("single_dot_set").weights(r)
        w2 = scenario_table("single_dot_set").weights(scaled)
        i_s1, i_s2 = one_current(x1, w1["system"]), one_current(x2, w2["system"])
        i_d1, i_d2 = one_current(x1, w1["detector"]), one_current(x2, w2["detector"])
        assert i_s2 == pytest.approx(kappa * i_s1, rel=1e-13)
        assert i_d2 == pytest.approx(kappa * i_d1, rel=1e-13)
        ratio1 = one_drop(r, i_d1) / i_s1
        ratio2 = one_drop(scaled, i_d2) / i_s2
        assert ratio2 == pytest.approx(ratio1, rel=1e-12)

    def test_occupations_invariant_under_scaling(self):
        r = RateSet(gamma_L=0.5, gamma_R=2.0, Gamma_L=1.0, Gamma_R=0.75)
        scaled = RateSet(gamma_L=2.0, gamma_R=8.0, Gamma_L=4.0, Gamma_R=3.0)
        x1 = steady_state(scenario_table("single_dot_set").generator(r))
        x2 = steady_state(scenario_table("single_dot_set").generator(scaled))
        assert np.allclose(x1.values, x2.values, rtol=1e-13, atol=0)


class TestTimeResolvedCurrent:
    def test_transient_current_starts_at_zero_and_reaches_dc(self):
        from mesorate import basis_state, evolve
        g = scenario_table("single_dot_set").generator(ALL_ONES)
        w = scenario_table("single_dot_set").weights(ALL_ONES)
        traj = evolve(g, basis_state(g.index, "a"), 30.0)
        assert currents(traj.index, w["system"], traj.values[[0, -1]]) == [
            0.0, pytest.approx(0.5, abs=1e-8)]
