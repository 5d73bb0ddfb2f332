import math

import numpy as np
import pytest

from mesorate import (
    DIAGONAL,
    Generator,
    IndexMap,
    RateSet,
    StateVector,
    basis_state,
    pack,
    scenario_table,
    validate_state,
)
from mesorate.model import RATE_FIELDS, sweep_columns, take_rows, violation_magnitudes

# the slot layouts of three scenarios
SINGLE_DOT_SET_INDEX = scenario_table("single_dot_set").index
DOUBLE_DOT_INDEX = scenario_table("double_dot_bare").index
DOUBLE_DOT_SET_INDEX = scenario_table("double_dot_set").index


class TestRateSet:
    def test_primed_widths_default_to_unprimed(self):
        r = RateSet(gamma_L=1.0, gamma_R=2.0, Gamma_L=3.0, Gamma_R=4.0)
        assert r.gamma_L_p == 1.0
        assert r.gamma_R_p == 2.0
        assert r.Gamma_L_p == 3.0
        assert r.Gamma_R_p == 4.0
        assert r.is_equal_amplitudes

    def test_explicit_primed_widths_kept(self):
        r = RateSet(gamma_L=1.0, gamma_L_p=0.5)
        assert r.gamma_L_p == 0.5
        assert not r.is_equal_amplitudes

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError, match="width"):
            RateSet(gamma_L=-0.1)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            RateSet(Omega=math.inf)
        with pytest.raises(ValueError, match="finite"):
            RateSet(epsilon=math.nan)

    def test_negative_energies_allowed(self):
        r = RateSet(epsilon=-3.0, U1=-1.0)
        assert r.epsilon == -3.0

    def test_replacing_moves_primed_twin(self):
        r = RateSet(gamma_L=1.0, gamma_R=1.0, Gamma_L=1.0, Gamma_R=1.0)
        r2 = r.replacing("gamma_R", 100.0)
        assert r2.gamma_R == 100.0
        assert r2.gamma_R_p == 100.0
        assert r2.is_equal_amplitudes

    def test_replacing_leaves_diverged_twin(self):
        r = RateSet(gamma_R=1.0, gamma_R_p=0.25)
        r2 = r.replacing("gamma_R", 100.0)
        assert r2.gamma_R_p == 0.25

    def test_replacing_unknown_field(self):
        with pytest.raises(ValueError, match="unknown RateSet field"):
            RateSet().replacing("bogus", 1.0)

    def test_coulomb_shift_U_is_gone(self):
        # no channel table, closed form or observable ever read it
        assert "U" not in RATE_FIELDS
        with pytest.raises(TypeError):
            RateSet(U=1.0)
        with pytest.raises(ValueError, match="unknown RateSet field 'U'"):
            RateSet().replacing("U", 1.0)


class TestRateColumns:
    def test_rows_are_the_replaced_rate_sets(self):
        base = RateSet(gamma_L=1.0, gamma_R=2.0, gamma_R_p=3.0, Gamma_L=0.5, Gamma_R=0.5)
        for name in ("gamma_L", "gamma_R", "Gamma_R", "epsilon"):
            values = np.array([0.25, 4.0])
            columns = sweep_columns(base, name, values)
            for k, v in enumerate(values.tolist()):
                assert RateSet(**take_rows(columns, k)) == base.replacing(name, v)


def reference_violation_magnitude(x):
    """The per-state Python fold that violation_magnitudes replaces: the
    reference for its bits.  Any NaN invariant makes the result NaN."""
    total = math.fsum(x.values[p] for p in x.index.diagonal_positions)
    invariants = [abs(total - 1.0)]
    for label in x.index.diagonal_labels:
        p = x.occupation(label)
        invariants += [-p, p - 1.0]
    for pair in x.index.coherence_pairs:
        bound = max(x.occupation(pair[0]), 0.0) * max(x.occupation(pair[1]), 0.0)
        invariants.append(abs(x.coherence(pair)) ** 2 - bound)
    if any(map(math.isnan, invariants)):
        return math.nan
    return max(invariants + [0.0])


class TestViolationMagnitudes:
    """The columnar magnitude against the per-state fold, bit for bit."""

    @staticmethod
    def _scalar(index, values):
        return np.array([reference_violation_magnitude(StateVector(v, index)) for v in values])

    @staticmethod
    def _same(a, b):
        return np.array_equal(a.view(np.int64), b.view(np.int64)) or all(
            x == y and math.copysign(1, x) == math.copysign(1, y) or math.isnan(x) and math.isnan(y)
            for x, y in zip(a.tolist(), b.tolist()))

    def test_random_states_with_coherences_past_their_bound(self):
        # sigma^2 squares with libm pow, which differs from x*x in the last
        # bit on roughly 1 draw in 1000; 20,000 coherences meet such draws
        rng = np.random.default_rng(11)
        index = DOUBLE_DOT_SET_INDEX
        values = rng.uniform(-0.2, 1.2, size=(10_000, 10))
        values[:, 6:] *= 10.0 ** rng.uniform(-3, 3, size=(10_000, 4))
        values[::5, :6] = np.abs(values[::5, :6]) / np.abs(values[::5, :6]).sum(axis=1)[:, None]
        values[1::7, :6] = 0.0
        values[2::7, 6:] = -0.0
        values[3::11, 1] = np.nan
        values[4::11, 7] = np.nan
        values[5::11, 8] = np.inf
        assert self._same(violation_magnitudes(index, values), self._scalar(index, values))

    def test_clean_and_signed_zero_states(self):
        index = DOUBLE_DOT_INDEX
        values = np.array([[1.0, 0.0, 0.0, 0.0, 0.0], [-0.0, 1.0, -0.0, -0.0, -0.0],
                           [0.5, 0.25, 0.25, 0.0, -0.0]])
        got = violation_magnitudes(index, values)
        assert self._same(got, self._scalar(index, values))
        assert got.tolist() == [0.0, 0.0, 0.0]
        assert all(math.copysign(1.0, v) == 1.0 for v in got.tolist())

    def test_a_nan_coherence_reads_nan_as_validate_state_reports_it(self):
        x = StateVector(np.array([0.0, 0.5, 0.5, math.nan, 0.1]), DOUBLE_DOT_INDEX)
        got = violation_magnitudes(x.index, x.values[np.newaxis])
        assert math.isnan(got[0]) and math.isnan(reference_violation_magnitude(x))
        assert validate_state(x) == ["coherence block b,c: |sigma|^2 = nan exceeds 2.500e-01"]

    @pytest.mark.parametrize("coherence", [(1e200, 0.0), (1e308, 1e308)])
    def test_overflow_raises_as_the_scalar_path(self, coherence):
        index = DOUBLE_DOT_INDEX
        values = np.array([[1.0, 0.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, *coherence]])
        with pytest.raises(OverflowError) as scalar:
            self._scalar(index, values)
        with pytest.raises(OverflowError) as columnar:
            violation_magnitudes(index, values)
        assert str(columnar.value) == str(scalar.value)

    def test_one_state_is_the_one_row_case(self):
        x = pack(DOUBLE_DOT_INDEX, {"b": 0.5, "c": 0.5}, {("b", "c"): 0.75j})
        assert violation_magnitudes(x.index, x.values[np.newaxis]).tolist() == [
            reference_violation_magnitude(x)] == [0.3125]


class TestIndexMap:
    def test_diagonals_precede_coherences(self):
        idx = DOUBLE_DOT_INDEX
        kinds = [e.kind for e in idx.entries]
        assert kinds == [DIAGONAL, DIAGONAL, DIAGONAL, "re", "im"]

    def test_lookups(self):
        idx = DOUBLE_DOT_INDEX
        assert idx.diagonal("c") == 2
        assert idx.coherence(("b", "c")) == (3, 4)
        with pytest.raises(KeyError):
            idx.diagonal("z")
        with pytest.raises(KeyError):
            idx.coherence(("a", "b"))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            IndexMap(("a", "a"))

    def test_arguments_are_read_once(self):
        # generators are read once, as tuples, like any other sequence
        idx = IndexMap((label for label in "abc"), (pair for pair in [("b", "c")]))
        assert idx == IndexMap(("a", "b", "c"), (("b", "c"),))
        assert idx.coherence(("b", "c")) == (3, 4)

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate coherence pair"):
            IndexMap(("a", "b"), [("a", "b"), ["a", "b"]])

    def test_pair_of_a_state_with_itself_rejected(self):
        # a diagonal element is not a coherence: it would get Re/Im slots
        with pytest.raises(ValueError, match=r"^coherence pair \('b', 'b'\) joins a state "
                                             r"with itself$"):
            IndexMap(("a", "b"), [("b", "b")])

    def test_pair_in_both_orders_rejected(self):
        # one coherence and its conjugate would get two slot pairs
        with pytest.raises(ValueError, match=r"^coherence pair \('a', 'b'\) is also given "
                                             r"as \('b', 'a'\)$"):
            IndexMap(("a", "b"), [("a", "b"), ("b", "a")])
        with pytest.raises(ValueError, match=r"^coherence pair \('b', 'a'\) is also given "
                                             r"as \('a', 'b'\)$"):
            IndexMap(("a", "b", "c"), [("b", "a"), ("b", "c"), ("a", "b")])

    def test_pair_without_a_diagonal_slot_rejected(self):
        with pytest.raises(ValueError, match=r"^coherence pair \('a', 'x'\) names a state "
                                             r"with no diagonal slot$"):
            IndexMap(("a", "b"), [("a", "x")])


class TestPackUnpack:
    def test_point_mass_single_dot(self):
        x = pack(SINGLE_DOT_SET_INDEX, {"a": 1.0})
        assert np.array_equal(x.values, [1.0, 0.0, 0.0, 0.0])

    def test_symmetric_superposition_double_dot(self):
        x = pack(DOUBLE_DOT_INDEX, {"b": 0.5, "c": 0.5}, {("b", "c"): 0.5 + 0.0j})
        assert np.array_equal(x.values, [0.0, 0.5, 0.5, 0.5, 0.0])

    def test_normalization_violation_rejected(self):
        with pytest.raises(ValueError, match="sum to"):
            pack(SINGLE_DOT_SET_INDEX, {"a": 0.9, "b": 0.2})

    def test_unknown_label_rejected(self):
        with pytest.raises(KeyError):
            pack(SINGLE_DOT_SET_INDEX, {"q": 1.0})

    @pytest.mark.parametrize("occupations", [{"a": math.nan}, {"a": 1.0, "b": math.nan}])
    def test_nan_occupation_rejected(self, occupations):
        with pytest.raises(ValueError) as refused:
            pack(IndexMap(("a", "b")), occupations)
        assert str(refused.value) == "occupations sum to nan, expected 1 within 1e-12"

    @pytest.mark.parametrize("values,shape", [(np.zeros(3), "(3,)"),
                                              (np.zeros((4, 1)), "(4, 1)")])
    def test_wrong_slot_count_rejected(self, values, shape):
        with pytest.raises(ValueError) as refused:
            StateVector(values, SINGLE_DOT_SET_INDEX)
        assert str(refused.value) == f"expected 4 slots, got shape {shape}"

    def test_round_trip_exact(self):
        idx = DOUBLE_DOT_INDEX
        rng = np.random.default_rng(7)
        for _ in range(25):
            probs = rng.dirichlet(np.ones(3))
            occ = dict(zip(idx.diagonal_labels, (float(p) for p in probs)))
            coh = {("b", "c"): complex(rng.normal(), rng.normal())}
            x = pack(idx, occ, coh)
            occ2 = {label: x.occupation(label) for label in idx.diagonal_labels}
            coh2 = {pair: x.coherence(pair) for pair in idx.coherence_pairs}
            assert occ2 == occ
            assert coh2 == coh
            assert np.array_equal(pack(idx, occ2, coh2).values, x.values)


class TestValidateState:
    def test_clean_point_mass(self):
        x = basis_state(SINGLE_DOT_SET_INDEX, "a")
        assert validate_state(x, 1e-9) == []

    def test_negative_occupation_is_the_only_violation(self):
        # sums to one, so only the negative slot is reported
        x = StateVector(np.array([0.5, 0.6, -0.1, 0.0, 0.0]), DOUBLE_DOT_INDEX)
        violations = validate_state(x, 1e-9)
        assert len(violations) == 1
        assert "negativity" in violations[0]
        assert "c" in violations[0]

    def test_normalization_reported(self):
        x = StateVector(np.array([0.4, 0.4, 0.0, 0.0, 0.0]), DOUBLE_DOT_INDEX)
        assert any("normalization" in v for v in validate_state(x, 1e-9))

    def test_coherence_block_positivity(self):
        # |sigma_bc| too large for the populations it connects
        x = StateVector(np.array([0.0, 0.5, 0.5, 0.7, 0.0]), DOUBLE_DOT_INDEX)
        assert any("coherence block" in v for v in validate_state(x, 1e-9))

    def test_nan_occupation_reported(self):
        x = StateVector(np.array([np.nan, 0.0]), IndexMap(("a", "b")))
        assert validate_state(x, 1e-9) == [
            "normalization: diagonal sum nan differs from 1 by nan"]

    @pytest.mark.parametrize("slot", [3, 4])
    def test_nan_coherence_reported(self, slot):
        values = np.array([0.0, 0.5, 0.5, 0.1, 0.1])
        values[slot] = np.nan
        x = StateVector(values, DOUBLE_DOT_INDEX)
        assert validate_state(x, 1e-9) == [
            "coherence block b,c: |sigma|^2 = nan exceeds 2.500e-01"]

    def test_magnitude_zero_for_clean_state(self):
        x = pack(DOUBLE_DOT_INDEX, {"b": 0.5, "c": 0.5}, {("b", "c"): 0.5j})
        assert violation_magnitudes(x.index, x.values[np.newaxis]).tolist() == [0.0]

    def test_magnitude_tracks_worst_violation(self):
        x = StateVector(np.array([0.5, 0.6, -0.1, 0.0, 0.0]), DOUBLE_DOT_INDEX)
        assert violation_magnitudes(x.index, x.values[np.newaxis]).tolist() == [
            pytest.approx(0.1)]


def reference_validate_state(x, tol):
    """The per-state Python walk that validate_state replaces: the
    reference for its messages, the bits of every number they print
    included.  A NaN trace or |sigma|^2 is a violation."""
    occupations = [(label, x.occupation(label)) for label in x.index.diagonal_labels]
    blocks = []
    for pair in x.index.coherence_pairs:
        bound = max(x.occupation(pair[0]), 0.0) * max(x.occupation(pair[1]), 0.0)
        blocks.append((pair, abs(x.coherence(pair)) ** 2, bound))
    total = x.trace()
    violations = []
    if not abs(total - 1.0) <= tol:
        violations.append(f"normalization: diagonal sum {total!r} differs from 1 by {abs(total - 1.0):.3e}")
    for label, p in occupations:
        if p < -tol:
            violations.append(f"negativity: occupation of {label} is {p:.3e}")
        if p > 1.0 + tol:
            violations.append(f"overflow: occupation of {label} is {p:.3e} > 1")
    for pair, sigma2, bound in blocks:
        if not sigma2 <= bound + tol:
            violations.append(
                f"coherence block {pair[0]},{pair[1]}: |sigma|^2 = {sigma2:.3e} exceeds {bound:.3e}")
    return violations


class TestValidateStateMatchesPerState:
    """validate_state reads the columnar invariant walk; its messages are
    those of the per-state walk, or it raises the same error."""

    @staticmethod
    def _outcome(check, x, tol):
        # CPython's abs(complex) returns NaN for a NaN part without clearing
        # errno, so an ERANGE left by an earlier overflowing ** makes the
        # per-state walk raise "absolute value too large"; math.sqrt clears it
        math.sqrt(4.0)
        try:
            return check(x, tol)
        except ArithmeticError as exc:
            return type(exc), str(exc)

    @pytest.mark.parametrize("tol", [1e-9, 0.0])
    def test_random_states(self, tol):
        rng = np.random.default_rng(23)
        index = DOUBLE_DOT_SET_INDEX
        values = rng.uniform(-0.2, 1.2, size=(2_000, 10))
        values[:, 6:] *= 10.0 ** rng.uniform(-3, 1, size=(2_000, 4))
        values[::5, :6] = np.abs(values[::5, :6]) / np.abs(values[::5, :6]).sum(axis=1)[:, None]
        values[1::7, 2] = -0.0          # max(-0.0, 0.0) is -0.0, so the bound prints -0
        values[2::7, 6:] = -0.0
        values[3::11, 1] = np.nan
        values[4::11, 7] = np.nan
        values[5::11, 8] = np.inf
        values[6::13, 6] = 1e200        # |sigma|^2 overflows pow
        values[7::13, 8:] = 1.5e308     # |sigma| overflows hypot
        outcomes = []
        for v in values:
            x = StateVector(v, index)
            outcomes.append(self._outcome(validate_state, x, tol))
            assert outcomes[-1] == self._outcome(reference_validate_state, x, tol)
        messages = [m for o in outcomes if isinstance(o, list) for m in o]
        assert any("exceeds -0.000e+00" in m for m in messages)
        assert any(m.startswith("normalization: diagonal sum ") for m in messages)
        assert {o[1] for o in outcomes if isinstance(o, tuple)} == {
            "absolute value too large", "(34, 'Numerical result out of range')"}

    def test_states_without_coherences(self):
        index = SINGLE_DOT_SET_INDEX
        for v in ([0.25, 0.25, 0.25, 0.25], [-0.0, 1.5, -0.5, 0.0], [np.nan, 0.0, 1.0, 0.0]):
            x = StateVector(np.array(v), index)
            assert validate_state(x, 1e-9) == reference_validate_state(x, 1e-9)


class TestImmutability:
    def test_state_vector_read_only(self):
        x = basis_state(SINGLE_DOT_SET_INDEX, "a")
        with pytest.raises(ValueError):
            x.values[0] = 0.5

    def test_generator_read_only(self):
        g = Generator(np.zeros((4, 4)), SINGLE_DOT_SET_INDEX, "zero")
        with pytest.raises(ValueError):
            g.matrix[0, 0] = 1.0

    @pytest.mark.parametrize("make,attr,shape", [
        (lambda a: StateVector(a, SINGLE_DOT_SET_INDEX), "values", (4,)),
        (lambda a: Generator(a, SINGLE_DOT_SET_INDEX, "g"), "matrix", (4, 4)),
    ], ids=["StateVector", "Generator"])
    def test_intake_copies_every_array(self, make, attr, shape):
        # both take their array through model.read_only, which copies a
        # writable array and a read-only one alike
        writable = np.zeros(shape)
        taken = getattr(make(writable), attr)
        writable[0] = 1.0
        assert not taken.any()
        owned = np.zeros(shape)
        owned.setflags(write=False)
        assert getattr(make(owned), attr) is not owned

    @pytest.mark.parametrize("make,attr,shape", [
        (lambda a: StateVector(a, IndexMap(("a",))), "values", (1,)),
        (lambda a: Generator(a, IndexMap(("a",)), "x"), "matrix", (1, 1)),
    ], ids=["StateVector", "Generator"])
    def test_the_owner_of_a_read_only_array_cannot_write_through_it(self, make, attr, shape):
        # the owner of a read-only array may turn writes back on; what it
        # handed over must not change
        a = np.zeros(shape)
        a.setflags(write=False)
        taken = getattr(make(a), attr)
        a.setflags(write=True)
        a[0] = 5.0
        assert not taken.any() and not taken.flags.writeable

    def test_generator_shape_checked(self):
        with pytest.raises(ValueError, match="4x4"):
            Generator(np.zeros((3, 3)), SINGLE_DOT_SET_INDEX, "bad")
