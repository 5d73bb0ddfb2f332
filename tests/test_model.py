import math

import numpy as np
import pytest

from mesorate import (
    DIAGONAL,
    EnergyConfig,
    Generator,
    IndexMap,
    RateSet,
    StateVector,
    basis_state,
    index_double_dot,
    index_single_dot_set,
    pack,
    state_violation_magnitude,
    validate_state,
)


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


class TestEnergyConfig:
    def test_detector_level_is_the_only_field(self):
        assert EnergyConfig().E0 == 0.0
        assert EnergyConfig(E0=2.0).E0 == 2.0   # no Fermi-level window to fit in
        for removed in ("E1", "E2", "EFL_det", "EFR_det", "EFL_sys", "EFR_sys"):
            with pytest.raises(TypeError):
                EnergyConfig(**{removed: 0.0})

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="E0 must be finite"):
            EnergyConfig(E0=math.nan)


class TestIndexMap:
    def test_diagonals_precede_coherences(self):
        idx = index_double_dot()
        kinds = [e.kind for e in idx.entries]
        assert kinds == [DIAGONAL, DIAGONAL, DIAGONAL, "re", "im"]

    def test_lookups(self):
        idx = index_double_dot()
        assert idx.diagonal("c") == 2
        assert idx.coherence(("b", "c")) == (3, 4)
        with pytest.raises(KeyError):
            idx.diagonal("z")
        with pytest.raises(KeyError):
            idx.coherence(("a", "b"))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            IndexMap(("a", "a"))


class TestPackUnpack:
    def test_point_mass_single_dot(self):
        x = pack(index_single_dot_set(), {"a": 1.0})
        assert np.array_equal(x.values, [1.0, 0.0, 0.0, 0.0])

    def test_symmetric_superposition_double_dot(self):
        x = pack(index_double_dot(), {"b": 0.5, "c": 0.5}, {("b", "c"): 0.5 + 0.0j})
        assert np.array_equal(x.values, [0.0, 0.5, 0.5, 0.5, 0.0])

    def test_normalization_violation_rejected(self):
        with pytest.raises(ValueError, match="sum to"):
            pack(index_single_dot_set(), {"a": 0.9, "b": 0.2})

    def test_unknown_label_rejected(self):
        with pytest.raises(KeyError):
            pack(index_single_dot_set(), {"q": 1.0})

    def test_round_trip_exact(self):
        idx = index_double_dot()
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
        x = basis_state(index_single_dot_set(), "a")
        assert validate_state(x, 1e-9) == []

    def test_negative_occupation_is_the_only_violation(self):
        # sums to one, so only the negative slot is reported
        x = StateVector(np.array([0.5, 0.6, -0.1, 0.0, 0.0]), index_double_dot())
        violations = validate_state(x, 1e-9)
        assert len(violations) == 1
        assert "negativity" in violations[0]
        assert "c" in violations[0]

    def test_normalization_reported(self):
        x = StateVector(np.array([0.4, 0.4, 0.0, 0.0, 0.0]), index_double_dot())
        assert any("normalization" in v for v in validate_state(x, 1e-9))

    def test_coherence_block_positivity(self):
        # |sigma_bc| too large for the populations it connects
        x = StateVector(np.array([0.0, 0.5, 0.5, 0.7, 0.0]), index_double_dot())
        assert any("coherence block" in v for v in validate_state(x, 1e-9))

    def test_magnitude_zero_for_clean_state(self):
        x = pack(index_double_dot(), {"b": 0.5, "c": 0.5}, {("b", "c"): 0.5j})
        assert state_violation_magnitude(x) == 0.0

    def test_magnitude_tracks_worst_violation(self):
        x = StateVector(np.array([0.5, 0.6, -0.1, 0.0, 0.0]), index_double_dot())
        assert state_violation_magnitude(x) == pytest.approx(0.1)


class TestImmutability:
    def test_state_vector_read_only(self):
        x = basis_state(index_single_dot_set(), "a")
        with pytest.raises(ValueError):
            x.values[0] = 0.5

    def test_generator_read_only(self):
        g = Generator(np.zeros((4, 4)), index_single_dot_set(), "zero")
        with pytest.raises(ValueError):
            g.matrix[0, 0] = 1.0

    def test_generator_shape_checked(self):
        with pytest.raises(ValueError, match="4x4"):
            Generator(np.zeros((3, 3)), index_single_dot_set(), "bad")
