"""Postselection channel: probabilities, weak values, collapsed-state information.

The independent oracle for the real-superposition scenario is the closed trig
form p(g) = cos^2(g) cos^2(alpha - theta) + sin^2(g) cos^2(alpha + theta);
the production path computes everything through the coupling unitary.
"""

import ast
import dataclasses
import importlib
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wva_costlab import (
    ContractViolationError,
    DensityMatrix,
    HermitianOperator,
    Ket,
    OrthogonalPostselectionError,
    PostselectionResult,
    ReferenceBasis,
    UnsupportedInputError,
    VanishingPostselectionError,
    WvaError,
    WvaSetup,
    cfi_discrete,
    conditional_outcome_model,
    coupling_unitary,
    fm_exact,
    fm_leading,
    hermitian_eigs,
    in_weak_regime,
    near_orthogonal_postselection,
    optimal_postselection,
    overlap_sq,
    postselect,
    postselect_mixed,
    postselected_meter_family,
    probabilistic_qfi,
    qfi_mixed,
    real_superposition_setup,
    weak_regime_margin,
    weak_value,
)
from wva_costlab.fisher import RANK_CUTOFF, STEP
from test_pinned_outputs import qfi_panel

BASIS = ReferenceBasis.standard()
SIGMA = BASIS.sigma()
BALANCED_METER = BASIS.superposition(np.pi / 4.0)
# The package re-exports the function ``postselect`` under the module's name.
postselect_module = importlib.import_module("wva_costlab.postselect")
FIXTURE = Path(__file__).resolve().parent / "data" / "postselect_mixed_fixture.json"


def oracle_p(theta, alpha, g):
    return (
        np.cos(g) ** 2 * np.cos(alpha - theta) ** 2
        + np.sin(g) ** 2 * np.cos(alpha + theta) ** 2
    )


def oracle_weak_value(theta, alpha):
    return np.cos(alpha + theta) / np.cos(alpha - theta)


class TestWeakValue:
    def test_equal_states_give_expectation(self):
        theta = 0.37
        psi = BASIS.superposition(theta)
        assert weak_value(psi, psi, SIGMA) == pytest.approx(np.cos(2 * theta), abs=1e-12)

    def test_moderate_amplification(self):
        got = weak_value(
            BASIS.superposition(np.pi / 6), BASIS.superposition(-np.pi / 6), SIGMA
        )
        assert got == pytest.approx(2.0, abs=1e-10)

    def test_near_orthogonal_amplification(self):
        alpha = np.radians(115.0)
        got = weak_value(BASIS.superposition(np.pi / 6), BASIS.superposition(alpha), SIGMA)
        expected = oracle_weak_value(np.pi / 6, alpha)
        assert got == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(-9.399, abs=5e-4)

    def test_orthogonal_pair_rejected(self):
        with pytest.raises(OrthogonalPostselectionError):
            weak_value(BASIS.ket0, BASIS.ket1, SIGMA)


class TestPostselect:
    def test_identity_evolution(self):
        theta, alpha = 0.3, 0.9
        setup = real_superposition_setup(theta, alpha, 0.0)
        res = postselect(setup)
        assert res.p == pytest.approx(np.cos(alpha - theta) ** 2, abs=1e-12)
        assert overlap_sq(res.phi_mf, BALANCED_METER) == pytest.approx(1.0, abs=1e-12)

    def test_example_probabilities(self):
        res = postselect(real_superposition_setup(np.pi / 6, -np.pi / 6, 0.0349))
        assert res.p == pytest.approx(oracle_p(np.pi / 6, -np.pi / 6, 0.0349), abs=1e-12)
        assert res.p == pytest.approx(0.2509131, abs=1e-6)

        res2 = postselect(real_superposition_setup(np.pi / 6, np.pi / 3, 0.0349))
        assert res2.p == pytest.approx(0.75 * np.cos(0.0349) ** 2, abs=1e-10)
        assert res2.p == pytest.approx(0.7490869, abs=1e-6)

    def test_closed_form_oracle_random_sweep(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            theta = rng.uniform(0, np.pi / 4)
            alpha = rng.uniform(-np.pi / 2, np.pi / 2)
            g = rng.uniform(-0.5, 0.5)
            try:
                res = postselect(real_superposition_setup(theta, alpha, g))
            except VanishingPostselectionError:
                assert oracle_p(theta, alpha, g) < 1e-12
                continue
            assert res.p == pytest.approx(oracle_p(theta, alpha, g), abs=1e-12)

    def test_vanishing_postselection(self):
        theta = 0.4
        with pytest.raises(VanishingPostselectionError):
            postselect(real_superposition_setup(theta, theta + np.pi / 2, 0.0))

    def test_small_coupling_probability_drift(self):
        # |p(g) - p(0)| = sin^2(g) |c+^2 - c-^2| <= g^2, so the constant is 1
        drift_bound = 1.0
        for g in (1e-2, 1e-3):
            for theta in np.linspace(0.05, np.pi / 4, 5):
                for alpha in np.linspace(-1.4, 1.4, 11):
                    base = np.cos(alpha - theta) ** 2
                    if base < 1e-10:
                        continue
                    p = postselect(real_superposition_setup(theta, alpha, g)).p
                    assert abs(p - base) <= drift_bound * g * g + 1e-15

    @pytest.mark.parametrize("g", [np.nan, np.inf, -np.inf])
    def test_non_finite_coupling_rejected(self, g):
        with pytest.raises(ContractViolationError, match="finite"):
            real_superposition_setup(np.pi / 6, -np.pi / 6, g)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("psi_si", np.array([1.0, 0.0])),
            ("psi_si", HermitianOperator(np.eye(2))),
            ("psi_sf", DensityMatrix(np.eye(2) / 2.0)),
            ("phi_mi", np.array([1.0, 1.0])),
            ("A", np.eye(2)),
            ("M", np.diag([1.0, -1.0])),
        ],
        ids=["psi_si-array", "psi_si-operator", "psi_sf-density", "phi_mi-array", "A-array",
             "M-array"],
    )
    def test_field_of_the_wrong_type_rejected(self, field, bad):
        fields = dict(psi_si=Ket([1, 0]), psi_sf=Ket([1, 1]), phi_mi=Ket([1, 1]), A=SIGMA,
                      M=SIGMA, g=0.1)
        with pytest.raises(ContractViolationError, match="^WvaSetup: psi_si must be a Ket or"):
            WvaSetup(**{**fields, field: bad})

    def test_balance_point_enforced(self):
        with pytest.raises(ContractViolationError):
            WvaSetup(
                psi_si=BASIS.ket0,
                psi_sf=BASIS.ket0,
                phi_mi=BASIS.ket0,  # <M> = 1, not balanced
                A=SIGMA,
                M=SIGMA,
                g=0.1,
            )

    @pytest.mark.parametrize(
        "field, bad, message",
        [
            ("psi_si", Ket(np.ones(4)), "system and meter must be qubits"),
            ("psi_si", DensityMatrix(np.eye(4) / 4.0), "system and meter must be qubits"),
            ("psi_sf", Ket(np.ones(4)), "system and meter must be qubits"),
            ("phi_mi", Ket(np.ones(4)), "system and meter must be qubits"),
            ("A", HermitianOperator(np.diag([1.0, -1.0, 1.0, -1.0])), "A and M must act on qubits"),
            ("M", HermitianOperator(np.diag([1.0, -1.0, 1.0, -1.0])), "A and M must act on qubits"),
        ],
        ids=["psi_si-ket", "psi_si-density", "psi_sf", "phi_mi", "A", "M"],
    )
    def test_non_qubit_field_rejected(self, field, bad, message):
        # the kernel checks nothing, so this is the one dimension check on its path
        fields = dict(psi_si=Ket([1, 0]), psi_sf=Ket([1, 1]), phi_mi=BALANCED_METER, A=SIGMA,
                      M=SIGMA, g=0.1)
        with pytest.raises(ContractViolationError, match=f"^WvaSetup: {message}$"):
            WvaSetup(**{**fields, field: bad})

    def test_meter_without_second_moment_rejected(self):
        # M = diag(1, 0) annihilates |1>: <M> = 0 passes, Omega = <M^2> = 0 does not
        with pytest.raises(ContractViolationError, match=r"^WvaSetup: <M\^2> must be positive$"):
            WvaSetup(BASIS.ket0, BASIS.ket0, BASIS.ket1, SIGMA,
                     HermitianOperator(np.diag([1.0, 0.0])), 0.1)


class TestMeterMoments:
    """<M> and Omega are derived once per (M, phi) pair of objects; the checks run every time."""

    @staticmethod
    def setup(meter, phi, g=0.1):
        return WvaSetup(BASIS.ket0, Ket([1.0, 1.0]), phi, SIGMA, meter, g)

    @staticmethod
    def reference_omega(meter, phi):
        m_phi = meter.entries @ phi.amplitudes
        return float(np.real(np.vdot(m_phi, m_phi)))

    def test_the_same_objects_hit_the_slot(self, monkeypatch):
        meter = HermitianOperator(np.array([[0.0, 2.0], [2.0, 0.0]]))
        phi = Ket([1.0, 1j])
        calls = []
        moments = HermitianOperator._moments

        def counting(self, ket):
            slot = self.__dict__.get("_moment_slot")
            calls.append(slot is not None and slot[0] is ket)
            return moments(self, ket)

        monkeypatch.setattr(HermitianOperator, "_moments", counting)
        first = self.setup(meter, phi)
        slot = meter.__dict__["_moment_slot"]
        second = self.setup(meter, phi, g=0.2)
        assert calls == [False, True]
        assert meter.__dict__["_moment_slot"] is slot  # not recomputed
        assert first.omega == second.omega == self.reference_omega(meter, phi)

    def test_an_equal_but_distinct_ket_misses_the_slot(self):
        meter = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
        phi, twin = Ket([1.0, 1j]), Ket([1.0, 1j])
        self.setup(meter, phi)
        slot = meter.__dict__["_moment_slot"]
        self.setup(meter, twin)
        assert meter.__dict__["_moment_slot"] is not slot
        assert meter.__dict__["_moment_slot"][0] is twin
        assert meter.__dict__["_moment_slot"][1:] == slot[1:]

    def test_omega_matches_the_direct_product(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            a = rng.normal()
            c = complex(*rng.normal(size=2))
            meter = HermitianOperator(np.array([[a, c], [c.conjugate(), -a]]))
            # the eigenvectors' equal superposition sits at <M> = 0
            _, vecs = np.linalg.eigh(meter.entries)
            phi = Ket(vecs[:, 0] + vecs[:, 1])
            for _ in range(2):
                assert self.setup(meter, phi).omega == self.reference_omega(meter, phi)

    def test_a_failing_balance_check_raises_every_time(self):
        meter = HermitianOperator(np.diag([1.0, -1.0]))
        for _ in range(3):
            with pytest.raises(ContractViolationError, match=r"balance zero point"):
                self.setup(meter, BASIS.ket0)
        assert "_moment_slot" in meter.__dict__  # the values were cached, the check still ran

    def test_the_slot_leaves_equality_and_repr_alone(self):
        meter = HermitianOperator(np.diag([1.0, -1.0]))
        before = repr(meter)
        self.setup(meter, BALANCED_METER)
        assert repr(meter) == before
        assert meter == HermitianOperator(np.diag([1.0, -1.0]))
        with pytest.raises(TypeError):
            hash(meter)
        setup = self.setup(meter, BALANCED_METER)
        assert setup == self.setup(HermitianOperator(meter.entries.copy()), BALANCED_METER)


class TestCollapsedStateInformation:
    def test_moderate_amplification_leading_order(self):
        setup = real_superposition_setup(np.pi / 6, -np.pi / 6, 1e-4)
        assert fm_exact(setup) == pytest.approx(16.0, abs=1e-3)

    def test_no_amplification(self):
        setup = WvaSetup(
            psi_si=BASIS.ket0,
            psi_sf=BASIS.ket0,
            phi_mi=BALANCED_METER,
            A=SIGMA,
            M=SIGMA,
            g=1e-4,
        )
        assert fm_exact(setup) == pytest.approx(4.0, abs=1e-3)

    def test_near_orthogonal_amplification(self):
        alpha = np.radians(115.0)
        setup = real_superposition_setup(np.pi / 6, alpha, 1e-4)
        target = 4.0 * oracle_weak_value(np.pi / 6, alpha) ** 2
        assert target == pytest.approx(353.4, abs=0.1)
        assert fm_exact(setup) == pytest.approx(target, rel=5e-3)

    def test_convergence_to_leading_order(self):
        for theta, alpha in [(np.pi / 6, -np.pi / 6), (np.pi / 8, -0.2), (0.5, 0.9)]:
            a_w = abs(oracle_weak_value(theta, alpha))
            target = 4.0 * a_w**2
            diffs = [
                abs(fm_exact(real_superposition_setup(theta, alpha, g)) - target)
                for g in (1e-2, 1e-3, 1e-4)
            ]
            assert diffs[0] >= diffs[1] >= diffs[2]
            assert diffs[2] < 1e-3 * target

    def test_orthogonal_postselection_follows_the_inverse_quartic_law(self):
        # |<sf|si>| = eps ~ 1e-12, so v and dv are nearly parallel and
        # F_m = 4 eps^2 cos^2(a+t) / p^2 with p = cos^2(a+t) sin^2 g to 1e-10 here.
        # The kernel forms eps from amplitudes near 0.43, so it resolves eps to
        # about 1e-4 relative: the ratios hold to 1.3e-4.
        theta, alpha = 0.5235987755982988, -1.0471975511975977
        gs = np.unique(np.append(np.geomspace(1.485e-7, 0.7, 60), [4.047e-4, 1.326e-3, 0.0349]))
        fm = np.array([fm_exact(real_superposition_setup(theta, alpha, g)) for g in gs])
        assert np.all(fm > 0.0)
        law = (np.sin(gs[1:]) / np.sin(gs[:-1])) ** 4
        np.testing.assert_allclose(fm[:-1] / fm[1:], law, rtol=1e-3)

    @pytest.mark.parametrize("g", [1e-7, 1e-3])
    @pytest.mark.parametrize("epsilon", [1e-3, 1e-4, 1e-5])
    def test_near_orthogonal_postselection_is_exact(self, epsilon, g):
        # Inside the documented epsilon range, where a finite-difference
        # derivative loses accuracy and at 1e-5 fails outright.
        theta = np.pi / 6
        psi_si = BASIS.superposition(theta)
        psi_sf = near_orthogonal_postselection(psi_si, SIGMA, epsilon)
        alpha = np.arctan2(psi_sf.amplitudes[1].real, psi_sf.amplitudes[0].real)
        k = oracle_weak_value(theta, alpha)
        d = np.cos(g) ** 2 + k**2 * np.sin(g) ** 2
        setup = WvaSetup(psi_si, psi_sf, BALANCED_METER, SIGMA, SIGMA, g)
        assert fm_exact(setup) == pytest.approx(4.0 * k**2 / d**2, rel=1e-9)

    def test_fm_leading_values(self):
        assert fm_leading(1.0, 2.0) == 16.0
        assert fm_leading(1.0, 0.0) == 0.0
        assert fm_leading(1.0, -9.399) == pytest.approx(353.4, abs=0.1)
        with pytest.raises(ContractViolationError):
            fm_leading(0.0, 1.0)

    @pytest.mark.parametrize(
        "omega, a_w",
        [(1e308, 10.0), (1.0, complex(1e200, 1e200)), (1.0, complex(1.5e308, 1.5e308)),
         (np.float64(1e308), np.complex128(10.0))],
        ids=["product-overflows", "square-overflows", "modulus-overflows", "numpy-scalars"],
    )
    def test_fm_leading_that_overflows_raises(self, omega, a_w):
        # finite inputs used to give inf, or a raw OverflowError from |A_w| ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError, match="overflows the float range"):
                fm_leading(omega, a_w)
        assert fm_leading(1e290, 1e4) == 4.0 * 1e290 * 1e4**2


class TestProbabilisticQfi:
    def test_optimal_alpha_attains_conventional_value(self):
        setup = real_superposition_setup(np.pi / 6, -np.pi / 6, 1e-4)
        exact, leading = probabilistic_qfi(setup)
        assert leading == pytest.approx(4.0, abs=1e-12)
        assert exact <= 4.0 * (1.0 + 1e-3)
        assert exact == pytest.approx(4.0, abs=1e-3)

    def test_signal_free_postselection(self):
        # <sf|A|si> = cos(pi/2) = 0 at alpha = pi/3, theta = pi/6
        setup = real_superposition_setup(np.pi / 6, np.pi / 3, 1e-4)
        _, leading = probabilistic_qfi(setup)
        assert leading == pytest.approx(0.0, abs=1e-20)

    def test_near_orthogonal_leading_term(self):
        setup = real_superposition_setup(np.pi / 6, np.radians(115.0), 1e-4)
        _, leading = probabilistic_qfi(setup)
        assert leading == pytest.approx(4.0 * np.cos(np.radians(145.0)) ** 2, abs=1e-10)
        assert leading == pytest.approx(2.684, abs=5e-4)


def _scaled_setup(a, g, mixed=False):
    """A = diag(a, -a), M = sigma_z, the |+> meter, sf at -0.4 and si a ket or a fixed rho."""
    psi_si = DensityMatrix([[0.6, 0.2], [0.2, 0.4]]) if mixed else BASIS.superposition(0.3)
    A = HermitianOperator(np.diag([a, -a]))
    return WvaSetup(psi_si, BASIS.superposition(-0.4), BALANCED_METER, A, SIGMA, g)


class TestBeyondTheFloatRange:
    """A setup the float range cannot evaluate raises ContractViolationError.

    Without the checks these calls raised a bare ValueError from ``cmath.exp``
    (a = g = 1e200), a bare OverflowError from ``abs(...) ** 2`` (a = 1e300) or
    returned NaN from a split of diag(1e308, -1e308) whose projectors held NaN.
    """

    @pytest.mark.parametrize("mixed", [False, True], ids=["ket", "rho"])
    @pytest.mark.parametrize(
        "a, g, call",
        [(1e200, 1e200, postselect_mixed), (1e200, 1e200, fm_exact),
         (1e300, 1.0, fm_exact), (1e308, 10.0, fm_exact), (1e308, 10.0, postselect_mixed)],
        ids=["phase-mixed", "phase-fm", "fm-overflows", "split-fm", "split-mixed"],
    )
    def test_setup_function_raises_contract_violation(self, a, g, call, mixed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError, match="overflows the float range"):
                call(_scaled_setup(a, g, mixed))

    @pytest.mark.parametrize("a, g", [(1e300, 1.0), (1e308, 10.0)])
    def test_weighted_qfi_raises_contract_violation(self, a, g):
        with pytest.raises(ContractViolationError, match="overflows the float range"):
            probabilistic_qfi(_scaled_setup(a, g))

    @pytest.mark.parametrize("mixed", [False, True], ids=["ket", "rho"])
    def test_meter_family_probe_beyond_the_range_raises(self, mixed):
        family = postselected_meter_family(_scaled_setup(1e200, 1e-200, mixed))
        family(1e-200)
        with pytest.raises(ContractViolationError, match="WvaSetup: .* overflows the float range"):
            family(1e200)

    @pytest.mark.parametrize("a, g", [(1e200, 1e200), (1e308, 10.0)])
    def test_coupling_unitary_raises_contract_violation(self, a, g):
        with pytest.raises(ContractViolationError, match="overflows the float range"):
            coupling_unitary(HermitianOperator(np.diag([a, -a])), SIGMA, g)

    def test_split_of_the_largest_diagonal_is_finite_and_exact(self):
        biggest = sys.float_info.max
        (up, P), (down, Q) = HermitianOperator(np.diag([biggest, -biggest]))._split
        assert (up, down) == (biggest, -biggest)
        assert P == (1.0, 0j, 0j, 0.0) and Q[0] == 0.0 and Q[3] == 1.0

    def test_halving_first_keeps_the_bits_of_normal_diagonals(self):
        import wva_costlab.states as states_module

        rng = np.random.default_rng(32)
        for _ in range(2000):
            h00, h11 = rng.normal(size=2) * 10.0 ** rng.integers(-300, 300, size=2)
            parts = states_module._qubit_parts([complex(h00), 0j, 0j, complex(h11)])
            assert parts[:2] == (0.5 * (h00 + h11), 0.5 * (h00 - h11))


class TestRealSuperpositionDomain:
    @pytest.mark.parametrize("theta", [1.2, -0.3, 0.0, np.pi / 4 + 1e-9, np.nan, np.inf])
    def test_theta_outside_domain_rejected(self, theta):
        with pytest.raises(ContractViolationError, match=r"theta must lie in \(0, pi/4\]"):
            real_superposition_setup(theta, -0.5, 0.01)

    def test_theta_domain_includes_pi_over_4(self):
        assert postselect(real_superposition_setup(np.pi / 4, -0.5, 0.01)).p > 0.0


def _random_hermitian(rng):
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return HermitianOperator((raw + raw.conj().T) / 2.0)


def _random_ket(rng):
    return Ket(rng.normal(size=2) + 1j * rng.normal(size=2))


class TestMeterCore:
    """The kernel body against U = expm(-i g A (x) M) and dU/dg = -i (A (x) M) U."""

    def core(self, psi_si, psi_sf, phi_mi, A, M, g):
        amplitudes = (k.amplitudes.tolist() for k in (psi_si, psi_sf, phi_mi))
        v0, v1, d0, d1 = postselect_module._meter_core(*amplitudes, A._split, M._split, g)
        return np.array([v0, v1]), np.array([d0, d1])

    def dense_reference(self, psi_si, psi_sf, phi_mi, A, M, g):
        generator = np.kron(A.entries, M.entries)
        u = scipy.linalg.expm(-1j * g * generator)
        project = np.kron(psi_sf.amplitudes.conj(), np.eye(2))  # <sf| (x) I
        joint = np.kron(psi_si.amplitudes, phi_mi.amplitudes)
        return project @ u @ joint, project @ (-1j * generator) @ u @ joint

    def test_matches_dense_evolution(self):
        rng = np.random.default_rng(12)
        degenerate = HermitianOperator(-1.3 * np.eye(2))
        for k in range(20):
            A = degenerate if k == 0 else _random_hermitian(rng)
            M = degenerate if k == 1 else _random_hermitian(rng)
            kets = [_random_ket(rng) for _ in range(3)]
            g = rng.uniform(-2.0, 2.0)
            v, dv = self.core(*kets, A, M, g)
            v_ref, dv_ref = self.dense_reference(*kets, A, M, g)
            assert np.max(np.abs(v - v_ref)) < 1e-12
            assert np.max(np.abs(dv - dv_ref)) < 1e-12

    def test_matches_dense_evolution_at_degenerate_and_near_degenerate_observables(self):
        rng = np.random.default_rng(13)
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        specials = [
            HermitianOperator(0.4 * np.eye(2)),
            HermitianOperator(-1.1 * np.eye(2) + 1e-13 * sigma_x),
        ]
        for special in specials:
            for g in (0.0, 1e-3, 1.0):
                for A, M in ((special, _random_hermitian(rng)), (_random_hermitian(rng), special),
                             (special, special)):
                    kets = [_random_ket(rng) for _ in range(3)]
                    v, dv = self.core(*kets, A, M, g)
                    v_ref, dv_ref = self.dense_reference(*kets, A, M, g)
                    assert np.max(np.abs(v - v_ref)) < 1e-12
                    assert np.max(np.abs(dv - dv_ref)) < 1e-12
                    expected = scipy.linalg.expm(-1j * g * np.kron(A.entries, M.entries))
                    u = coupling_unitary(A, M, g).entries
                    assert np.max(np.abs(u - expected)) < 1e-12


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count the postselection-kernel evaluations made through WvaSetup."""
    calls = []
    original = postselect_module._meter_core

    def counted(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(postselect_module, "_meter_core", counted)
    return calls


class TestKernelSharing:
    def test_one_evaluation_per_setup(self, kernel_calls):
        setup = real_superposition_setup(np.pi / 6, -np.pi / 5, 0.0349)
        postselect(setup)
        fm_exact(setup)
        probabilistic_qfi(setup)
        postselect(setup)
        assert kernel_calls == [0.0349]
        _, v, core = setup._out
        assert not v.flags.writeable and v.tobytes() == np.array(core[:2]).tobytes()
        assert [type(z) for z in core] == [complex] * 4

    def test_repeated_reads_give_the_first_reads_bits(self):
        setup = real_superposition_setup(np.pi / 6, -np.pi / 5, 0.0349)
        seen = []
        for _ in range(2):
            result = postselect(setup)
            fm = fm_exact(setup)
            exact, leading = probabilistic_qfi(setup)
            values = (result.p, fm, exact, leading, result.a_w, weak_regime_margin(setup),
                      in_weak_regime(setup))
            seen.append((repr(values), result.phi_mf.amplitudes.tobytes()))  # repr: every bit
        assert seen[0] == seen[1]
        assert result.a_w == weak_value(setup.psi_si, setup.psi_sf, setup.A)
        assert fm == exact / result.p

    def test_postselect_gives_the_same_collapsed_ket_bits_on_every_call(self):
        setup = real_superposition_setup(np.pi / 6, -np.pi / 5, 0.0349)
        kets = [postselect(s).phi_mf.amplitudes.tobytes() for s in (setup, setup, setup.at(setup.g))]
        assert kets == [Ket(setup._out[1]).amplitudes.tobytes()] * 3

    def test_at_and_replace_run_the_kernel_in_their_constructor(self, kernel_calls):
        setup = real_superposition_setup(np.pi / 6, -np.pi / 5, 0.0349)
        fm_exact(setup)
        postselect_mixed(setup)
        assert kernel_calls == [0.0349]
        for fresh in (setup.at(setup.g), dataclasses.replace(setup)):
            assert fresh._out is not setup._out
            assert fresh._out[1].tobytes() == setup._out[1].tobytes()
        other = setup.at(0.02)
        fm_exact(other)
        fm_exact(dataclasses.replace(setup, psi_sf=BASIS.superposition(-np.pi / 4)))
        assert kernel_calls == [0.0349, 0.0349, 0.0349, 0.02, 0.0349]
        assert fm_exact(other) == fm_exact(real_superposition_setup(np.pi / 6, -np.pi / 5, 0.02))

    def test_cached_values_stay_outside_equality_and_hash(self):
        setup = real_superposition_setup(np.pi / 6, -np.pi / 5, 0.0349)
        fresh = setup.at(setup.g)
        fm_exact(setup)
        assert setup == fresh
        assert setup != setup.at(0.02)
        assert repr(setup) == repr(fresh)
        for candidate in (setup, fresh):
            with pytest.raises(TypeError, match="unhashable"):
                hash(candidate)  # the Ket fields hold arrays

    def test_checks_run_on_every_call(self):
        theta = 0.4
        vanishing = real_superposition_setup(theta, theta + np.pi / 2, 0.0)
        mixed = dataclasses.replace(
            real_superposition_setup(theta, -theta, 0.01),
            psi_si=DensityMatrix.mixture([0.5, 0.5], [BASIS.ket0, BASIS.ket1]),
        )
        for _ in range(2):
            with pytest.raises(VanishingPostselectionError):
                fm_exact(vanishing)
            with pytest.raises(UnsupportedInputError):
                probabilistic_qfi(mixed)


class TestLazyResult:
    """A postselect result takes p; it derives phi_mf and a_w on first read, as the eager code did."""

    ORTHOGONAL = [(0.4, 0.4 + np.pi / 2, 0.3), (np.pi / 4, -np.pi / 4, 0.1)]

    def test_result_values_equal_the_eager_derivation_on_the_panel(self):
        undefined = 0
        for theta, alpha, g in [*qfi_panel(), *self.ORTHOGONAL]:
            setup = real_superposition_setup(theta, alpha, g)
            result = postselect(setup)
            assert "a_w" not in vars(result) and "_collapsed" not in vars(setup)
            try:
                eager_a_w = weak_value(setup.psi_si, setup.psi_sf, setup.A)
            except OrthogonalPostselectionError:
                eager_a_w = None
                undefined += 1
            assert repr(result.a_w) == repr(eager_a_w)  # repr tells every bit, signed zeros too
            assert result.phi_mf.amplitudes.tobytes() == Ket(setup._out[1]).amplitudes.tobytes()
        assert undefined == 1 + len(self.ORTHOGONAL)

    @pytest.mark.parametrize("theta, alpha, g", [(np.pi / 6, -np.pi / 5, 0.0349), ORTHOGONAL[0]])
    def test_equality_and_repr_are_by_value_over_the_three_values(self, theta, alpha, g):
        setup = real_superposition_setup(theta, alpha, g)
        a, b = postselect(setup), postselect(setup.at(g))  # distinct setups, each uncached
        assert a is not b and a == b and not (a != b)
        assert repr(a) == repr(b)
        assert repr(a) == f"PostselectionResult(p={a.p!r}, phi_mf={a.phi_mf!r}, a_w={a.a_w!r})"
        assert a != postselect(setup.at(2.0 * g)) and a != (a.p, a.phi_mf, a.a_w)
        # the same p from a postselection ket of the other sign, which negates phi_mf
        flipped = dataclasses.replace(setup, psi_sf=Ket(-setup.psi_sf.amplitudes))
        assert PostselectionResult(a.p, flipped) != a
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.p = 0.5


class TestExactness:
    """p and F_m against their closed forms in double: relative error at most K eps / delta."""

    K = 16.0  # measured below 7.2 over 2e5 points, and below 3.1 where delta <= 1e-2

    @settings(max_examples=300, deadline=None)
    @given(
        theta=st.floats(0.0, np.pi / 4, exclude_min=True),
        log_delta=st.floats(-10.0, 0.0),
        near=st.sampled_from(["orthogonal", "no-signal", "anywhere"]),
        side=st.sampled_from([-1.0, 1.0]),
        log_g=st.floats(-7.0, 0.0),
        g_sign=st.sampled_from([-1.0, 1.0]),
        anywhere=st.floats(-np.pi / 2, np.pi / 2),
    )
    def test_relative_error_within_k_eps_over_delta(
        self, theta, log_delta, near, side, log_g, g_sign, anywhere
    ):
        offset = side * 10.0 ** log_delta
        alpha = {"orthogonal": theta - np.pi / 2 + offset,
                 "no-signal": np.pi / 2 - theta + offset, "anywhere": anywhere}[near]
        g = g_sign * 10.0 ** log_g
        c_plus, c_minus = math.cos(alpha + theta), math.cos(alpha - theta)
        delta = min(abs(c_plus), abs(c_minus))
        k = c_plus / c_minus
        d = math.cos(g) ** 2 + k * k * math.sin(g) ** 2
        p_closed, fm_closed = c_minus**2 * d, 4.0 * k * k / d**2
        assume(delta > 1e-12 and p_closed > 1e-13)  # the degeneracy edge and the P_FLOOR
        setup = real_superposition_setup(theta, alpha, g)
        bound = self.K * np.finfo(float).eps / delta
        assert abs(postselect(setup).p / p_closed - 1.0) <= bound
        assert abs(fm_exact(setup) / fm_closed - 1.0) <= bound


class TestReturnTypes:
    def test_public_scalars_are_python_floats(self):
        setup = real_superposition_setup(np.pi / 6, -np.pi / 5, 0.0349)
        exact, leading = probabilistic_qfi(setup)
        model = conditional_outcome_model(np.pi / 6, -np.pi / 5)
        for value in (postselect(setup).p, fm_exact(setup), exact, leading,
                      cfi_discrete(model, 0.0349)):
            assert type(value) is float


class TestPostselectionConstructors:
    def test_optimal_reflects_superposition(self):
        theta = np.pi / 6
        got = optimal_postselection(BASIS.superposition(theta), SIGMA)
        assert overlap_sq(got, BASIS.superposition(-theta)) == pytest.approx(1.0, abs=1e-12)

    def test_optimal_fixes_eigenstate(self):
        got = optimal_postselection(BASIS.ket0, SIGMA)
        assert overlap_sq(got, BASIS.ket0) == pytest.approx(1.0, abs=1e-12)

    def test_optimal_at_max_coherence_is_orthogonal(self):
        theta = np.pi / 4
        got = optimal_postselection(BASIS.superposition(theta), SIGMA)
        assert overlap_sq(got, BASIS.superposition(theta)) == pytest.approx(0.0, abs=1e-12)

    def test_optimal_attains_conventional_leading_term(self):
        theta = np.pi / 6
        psi = BASIS.superposition(theta)
        setup = WvaSetup(
            psi_si=psi,
            psi_sf=optimal_postselection(psi, SIGMA),
            phi_mi=BALANCED_METER,
            A=SIGMA,
            M=SIGMA,
            g=1e-4,
        )
        _, leading = probabilistic_qfi(setup)
        assert leading == pytest.approx(4.0, abs=1e-12)

    def test_near_orthogonal_overlap_modulus(self):
        theta = np.pi / 6
        eps = np.sin(np.radians(5.0))
        psi = BASIS.superposition(theta)
        got = near_orthogonal_postselection(psi, SIGMA, eps)
        assert abs(psi.inner(got)) == pytest.approx(eps, abs=1e-10)

    def test_near_orthogonal_max_coherence_amplification(self):
        psi = BASIS.superposition(np.pi / 4)
        got = near_orthogonal_postselection(psi, SIGMA, 0.1)
        assert abs(weak_value(psi, got, SIGMA)) == pytest.approx(
            np.sqrt(1.0 - 0.01) / 0.1, abs=1e-9
        )
        assert abs(weak_value(psi, got, SIGMA)) == pytest.approx(9.950, abs=5e-4)

    def test_near_orthogonal_maximizes_amplification_over_sweep(self):
        # among all postselection angles with the same overlap modulus, the
        # constructed state carries the largest weak-value magnitude
        theta = np.pi / 6
        eps = np.sin(np.radians(5.0))
        psi = BASIS.superposition(theta)
        got = near_orthogonal_postselection(psi, SIGMA, eps)
        got_aw = abs(weak_value(psi, got, SIGMA))
        for alpha in np.linspace(-np.pi, np.pi, 14401):
            cand = BASIS.superposition(alpha)
            if abs(abs(psi.inner(cand)) - eps) > 1e-4:
                continue
            assert got_aw >= abs(weak_value(psi, cand, SIGMA)) - 2e-3

    def test_near_orthogonal_epsilon_validation(self):
        psi = BASIS.superposition(np.pi / 6)
        with pytest.raises(OrthogonalPostselectionError):
            near_orthogonal_postselection(psi, SIGMA, 0.0)
        with pytest.raises(ContractViolationError):
            near_orthogonal_postselection(psi, SIGMA, 1.0)

    def test_optimal_rejects_an_annihilated_input(self):
        with pytest.raises(ContractViolationError, match="A annihilates the input"):
            optimal_postselection(BASIS.ket1, HermitianOperator(np.diag([1.0, 0.0])))

    def test_near_orthogonal_rejects_eigenstate(self):
        with pytest.raises(UnsupportedInputError):
            near_orthogonal_postselection(BASIS.ket0, SIGMA, 0.1)


class TestWeakRegime:
    def test_margin_and_flag(self):
        setup = real_superposition_setup(np.pi / 6, -np.pi / 6, 0.0349)
        assert weak_regime_margin(setup) == pytest.approx(2.0 * 0.0349, abs=1e-10)
        assert in_weak_regime(setup)
        strong = real_superposition_setup(np.pi / 6, np.radians(115.0), 0.02)
        assert weak_regime_margin(strong) > 0.1
        assert not in_weak_regime(strong)

    def test_margin_beyond_the_float_range_raises(self):
        setup = real_superposition_setup(0.5, -0.5, 1e308)  # g |A_w| Omega = 1e308 |A_w| > max
        for check in (weak_regime_margin, in_weak_regime):
            with pytest.raises(ContractViolationError, match="overflows the float range"):
                check(setup)
        a_w = postselect(setup).a_w
        assert weak_regime_margin(setup.at(1e307)) == pytest.approx(1e307 * abs(a_w))

    def test_margin_at_an_orthogonal_pair_raises_as_the_weak_value_does(self):
        setup = real_superposition_setup(0.4, 0.4 + np.pi / 2, 0.3)
        for check in (weak_regime_margin, in_weak_regime):
            with pytest.raises(OrthogonalPostselectionError,
                               match="^weak_value: pre- and postselection are orthogonal$"):
                check(setup)

    def test_margin_needs_a_pure_input(self):
        pure = real_superposition_setup(np.pi / 6, -np.pi / 6, 0.0349)
        mixed = dataclasses.replace(pure, psi_si=_bloch_density(0.3, 0.0, 0.0))
        for check in (weak_regime_margin, in_weak_regime):
            with pytest.raises(UnsupportedInputError, match="needs a pure system input"):
                check(mixed)


class TestIncoherentInput:
    @staticmethod
    def _mixed_setup(mu, alpha, g):
        rho = DensityMatrix.mixture([mu, 1.0 - mu], [BASIS.ket0, BASIS.ket1])
        return WvaSetup(
            psi_si=rho,
            psi_sf=BASIS.superposition(alpha),
            phi_mi=BALANCED_METER,
            A=SIGMA,
            M=SIGMA,
            g=g,
        )

    def test_success_probability_oracle(self):
        # branch probabilities are g-independent: p = mu cos^2 a + (1-mu) sin^2 a
        for mu in (0.2, 0.5, 0.8):
            for alpha in (-0.7, 0.1, 1.2):
                p, _ = postselect_mixed(self._mixed_setup(mu, alpha, 0.0349))
                expected = mu * np.cos(alpha) ** 2 + (1 - mu) * np.sin(alpha) ** 2
                assert p == pytest.approx(expected, abs=1e-12)

    def test_meter_information_never_exceeds_conventional(self):
        for mu in (0.1, 0.4, 0.9):
            for alpha in (-1.0, -0.3, 0.6):
                for g in (1e-3, 0.0349, 0.1):
                    setup = self._mixed_setup(mu, alpha, g)
                    value = qfi_mixed(postselected_meter_family(setup), g)
                    assert value <= 4.0 + 1e-4

    def test_matches_purification_construction(self):
        # oracle: purify the mixture with an auxiliary qubit, postselect the
        # pure state, and trace the auxiliary system out again
        mu, alpha, g = 0.4, 0.5, 0.0698
        setup = self._mixed_setup(mu, alpha, g)
        _, rho_direct = postselect_mixed(setup)

        m_vals, m_vecs = hermitian_eigs(setup.M)
        evolve = lambda sign: sum(
            np.exp(-1j * sign * g * lam) * v.projector()
            for lam, v in zip(m_vals, m_vecs)
        )
        sf = BASIS.superposition(alpha).amplitudes
        branch0 = np.sqrt(mu) * sf.conj()[0] * (evolve(+1.0) @ BALANCED_METER.amplitudes)
        branch1 = np.sqrt(1 - mu) * sf.conj()[1] * (evolve(-1.0) @ BALANCED_METER.amplitudes)
        joint = np.concatenate([branch0, branch1])  # aux-major ordering
        norm_sq = float(np.vdot(joint, joint).real)
        joint = joint / np.sqrt(norm_sq)
        full = np.outer(joint, joint.conj())
        reduced = full[:2, :2] + full[2:, 2:]  # trace out the auxiliary qubit
        assert np.max(np.abs(reduced - rho_direct.entries)) < 1e-10

        # the purified family carries exactly the conventional information
        def purified(gp):
            ev_p = sum(
                np.exp(-1j * gp * lam) * v.projector() for lam, v in zip(m_vals, m_vecs)
            )
            ev_m = sum(
                np.exp(+1j * gp * lam) * v.projector() for lam, v in zip(m_vals, m_vecs)
            )
            b0 = np.sqrt(mu) * sf.conj()[0] * (ev_p @ BALANCED_METER.amplitudes)
            b1 = np.sqrt(1 - mu) * sf.conj()[1] * (ev_m @ BALANCED_METER.amplitudes)
            return Ket(np.concatenate([b0, b1]))

        from wva_costlab import qfi_pure

        assert qfi_pure(purified, g) == pytest.approx(4.0, abs=1e-6)


def _complex(pairs):
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _bloch_density(rx, ry, rz):
    return DensityMatrix(0.5 * np.array([[1 + rz, rx - 1j * ry], [rx + 1j * ry, 1 - rz]]))


def _eager_meter_operator(rho_s, psi_sf, phi_mi, A, M, g):
    """The eager kernel that formed dK and the determinant term on every call, as a reference."""
    f, x = psi_sf.amplitudes.tolist(), phi_mi.amplitudes.tolist()
    a_split, m_split = A._split, M._split
    a0, a1, da0, da1 = postselect_module._meter_core((1.0, 0.0), f, x, a_split, m_split, g)
    b0, b1, db0, db1 = postselect_module._meter_core((0.0, 1.0), f, x, a_split, m_split, g)
    (r00, r01), (r10, r11) = rho_s.entries.tolist()

    def form(u0, u1, w0, w1):
        return (u0 * r00 + u1 * r10) * w0.conjugate() + (u0 * r01 + u1 * r11) * w1.conjugate()

    def wedge(P, u):
        return abs((P[0] * u[0] + P[1] * u[1]) * u[1] - (P[2] * u[0] + P[3] * u[1]) * u[0])

    k00, k11, k10 = form(a0, b0, a0, b0).real, form(a1, b1, a1, b1).real, form(a1, b1, a0, b0)
    d00, d11 = 2.0 * form(da0, db0, a0, b0).real, 2.0 * form(da1, db1, a1, b1).real
    d10 = form(da1, db1, a0, b0) + form(da0, db0, a1, b1).conjugate()
    e = de = 0.0
    if len(a_split) == 2 and len(m_split) == 2:
        (a_0, P0), (a_1, _), (m_0, Q0), (m_1, _) = *a_split, *m_split
        scale, d = wedge(P0, f) * wedge(Q0, x), (a_0 - a_1) * (m_0 - m_1)
        e, de = 2.0 * scale * math.sin(0.5 * g * d), scale * d * math.cos(0.5 * g * d)
    K = np.array([[k00, k10.conjugate()], [k10, k11]])
    dK = np.array([[d00, d10.conjugate()], [d10, d11]])
    return k00 + k11, K, dK, (r00.real * r11.real - abs(r10) ** 2, e, de)


def _meter_operator(k):
    """The 2x2 array K of the kernel's (k00, k10, k11), as the kernel once returned it."""
    k00, k10, k11 = k
    return np.array([[k00, k10.conjugate()], [k10, k11]])


def _bits_or_error(make):
    """The bytes of the state that ``make`` builds, or the repr of the WvaError it raises."""
    try:
        return make().entries.tobytes()
    except WvaError as exc:
        return repr(exc)


def _bloch_qfi(p, K, dK, det_parts):
    """The Bloch-form qubit QFI of K / p from the eager kernel's output, as a reference.

    |dr|^2 + 4 det rho_s (dE - E dp/p)^2 / p^2, with r the Bloch vector of K / p
    and ``det_parts`` = (det rho_s, E, dE).
    """
    (k00, _), (k10, k11) = K.tolist()
    (d00, _), (d10, d11) = dK.tolist()
    dp = (d00 + d11).real
    r = (2.0 * k10.real / p, 2.0 * k10.imag / p, (k00 - k11).real / p)
    dr = [(s - c * dp) / p for s, c in zip((2 * d10.real, 2 * d10.imag, (d00 - d11).real), r)]
    det_rho, e, de = det_parts
    return sum(d * d for d in dr) + 4.0 * det_rho * (de - e * dp / p) ** 2 / (p * p)


def _count_kernels(monkeypatch):
    """Lists that grow by one per call of the value-only column pass and of the full kernel."""
    columns, cores = [], []
    original_columns = postselect_module._meter_columns
    original_core = postselect_module._meter_core
    monkeypatch.setattr(
        postselect_module, "_meter_columns", lambda *a: columns.append(1) or original_columns(*a)
    )
    monkeypatch.setattr(
        postselect_module, "_meter_core", lambda *a: cores.append(1) or original_core(*a)
    )
    return columns, cores


def _seeded_mixed_setups(seed, count):
    """Random Bloch-ball inputs, complex sf, complex or degenerate A, g with both zeros."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        direction = rng.normal(size=3)
        r = direction / np.linalg.norm(direction) * rng.uniform(0.0, 1.0) ** (1.0 / 3.0)
        h = rng.normal(size=4)
        A = HermitianOperator(np.array([[h[0], h[1] - 1j * h[2]], [h[1] + 1j * h[2], h[3]]]))
        if k % 10 == 0:
            A = HermitianOperator(np.eye(2) * h[0])  # degenerate: E = 0
        g = (0.0, -0.0, 1e-9, -1e-3)[k % 4] if k % 5 == 0 else rng.uniform(-0.7, 0.7)
        yield WvaSetup(
            _bloch_density(*r), Ket(rng.normal(size=2) + 1j * rng.normal(size=2)),
            BALANCED_METER, A, SIGMA, g,
        )


def _mixed_sld_oracle(setup):
    """SLD QFI of the postselected meter family, with a 5-point derivative at fisher.STEP.

    The same sum as ``qfi_mixed``, whose 3-point difference has an O(STEP^2)
    truncation error that reaches 1e-6 relative on near-pure collapsed states;
    this stencil's is O(STEP^4).
    """
    family, g, h = postselected_meter_family(setup), setup.g, STEP
    rho = {k: family(g + k * h).entries for k in (-2, -1, 0, 1, 2)}
    drho = (8.0 * (rho[1] - rho[-1]) - (rho[2] - rho[-2])) / (12.0 * h)
    lam, vecs = np.linalg.eigh(rho[0])
    cross = vecs.conj().T @ drho @ vecs
    return sum(
        2.0 * abs(cross[i, j]) ** 2 / (lam[i] + lam[j])
        for i in range(2) for j in range(2) if lam[i] + lam[j] > RANK_CUTOFF
    )


UNIT = st.floats(-1.0, 1.0)


class TestMixedKernel:
    """postselect_mixed and fm_exact of a density matrix from K = V rho_s V^dag."""

    @settings(max_examples=150, deadline=None)
    @given(
        radius=st.floats(0.0, 1.0 - 1e-13),
        polar=st.floats(0.0, math.pi),
        azimuth=st.floats(0.0, 2.0 * math.pi),
        sf=st.tuples(UNIT, UNIT, UNIT, UNIT),
        # the oracle is trusted on these families only for g >= 1e-3
        # (see test_small_coupling_joins_the_oracle_checked_value)
        g=st.floats(1e-3, 0.5),
    )
    # a near-pure collapsed state (eigenvalues 0.021, 0.979), where a 3-point oracle is
    # off by 1.5e-6 relative
    @example(radius=0.99999, polar=1.734375, azimuth=0.0, sf=(-0.515625, 0.0, 0.4375, 0.0),
             g=0.015625)
    def test_fm_exact_matches_sld_oracle(self, radius, polar, azimuth, sf, g):
        sin_polar = math.sin(polar)
        rho = _bloch_density(
            radius * sin_polar * math.cos(azimuth),
            radius * sin_polar * math.sin(azimuth),
            radius * math.cos(polar),
        )
        try:
            psi_sf = Ket(np.array([sf[0] + 1j * sf[1], sf[2] + 1j * sf[3]]))
            setup = WvaSetup(rho, psi_sf, BALANCED_METER, SIGMA, SIGMA, g)
            got = fm_exact(setup)
        except WvaError:
            return
        assert type(got) is float
        # the oracle drops an eigenvalue's SLD term under its rank cutoff and
        # differentiates it poorly just above; the exact F is checked there by
        # test_incoherent_input_saturates_the_ceiling_at_every_coupling
        if np.linalg.eigvalsh(postselect_mixed(setup)[1].entries)[0] < 1e-8:
            return
        assert got == pytest.approx(_mixed_sld_oracle(setup), rel=1e-6)

    @pytest.mark.parametrize("g", [1e-8, 1e-6, 1e-5, 1e-4])
    def test_small_coupling_joins_the_oracle_checked_value(self, g):
        # K(0) has rank 1, so the small eigenvalue grows like g^2. The oracle
        # drops its SLD term once it falls under the rank cutoff, so below
        # g ~ 1e-3 only the exact F is trusted. F is smooth in g, with
        # F(g) - F(0) of order g^2, so its change from g = 0 stays within the
        # linear interpolation to the oracle-checked F(1e-3).
        rng = np.random.default_rng(11)
        for _ in range(20):
            r = rng.normal(size=3)
            r *= rng.uniform() ** (1.0 / 3.0) / np.linalg.norm(r)
            sf = Ket(rng.normal(size=2) + 1j * rng.normal(size=2))
            anchor = WvaSetup(_bloch_density(*r), sf, BALANCED_METER, SIGMA, SIGMA, 1e-3)
            f_anchor, f_zero = fm_exact(anchor), fm_exact(anchor.at(0.0))
            assert f_anchor == pytest.approx(_mixed_sld_oracle(anchor), rel=1e-6)
            bound = abs(f_anchor - f_zero) * g / 1e-3 + 1e-12 * f_zero
            assert abs(fm_exact(anchor.at(g)) - f_zero) <= bound

    @pytest.mark.parametrize("g", [0.0, 1e-8, 3e-6, 1e-5, 0.5])
    def test_maximally_mixed_input_keeps_its_information_at_every_coupling(self, g):
        # The rank-1 limit: K(0) is pure, and the old rank cutoff gave 0.003673
        # here for g <= 3e-6. At g = 0 the value is the limit g -> 0, so F is
        # continuous; the exact information is 4 at every g.
        sigma_z = HermitianOperator(np.diag([1.0, -1.0]))
        setup = WvaSetup(
            DensityMatrix(np.eye(2) / 2.0), Ket(np.array([1j, 1.0 + 0.25j])),
            BALANCED_METER, sigma_z, sigma_z, g,
        )
        assert fm_exact(setup) == pytest.approx(4.0, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        mu=st.floats(0.0, 1.0),
        sf=st.tuples(UNIT, UNIT, UNIT, UNIT),
        g=st.one_of(st.just(0.0), st.floats(-1e-4, 1e-4), st.floats(-1.5, 1.5)),
    )
    def test_incoherent_input_saturates_the_ceiling_at_every_coupling(self, mu, sf, g):
        # With rho_s diagonal in the eigenbasis of A = M = sigma_z, the meter
        # is a mixture of exp(-+i g sigma_z)|+>, whose Bloch vector
        # (cos 2g, (w1 - w0) sin 2g, 0) gives F = 4 for any weights and any g:
        # an analytic value where the rank of K changes, which the oracle misses.
        try:
            psi_sf = Ket(np.array([sf[0] + 1j * sf[1], sf[2] + 1j * sf[3]]))
            rho = DensityMatrix.mixture([mu, 1.0 - mu], [BASIS.ket0, BASIS.ket1])
            got = fm_exact(WvaSetup(rho, psi_sf, BALANCED_METER, SIGMA, SIGMA, g))
        except WvaError:
            return
        assert got == pytest.approx(4.0, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        radius=st.floats(0.0, 1.0 - 1e-13),
        polar=st.floats(0.0, math.pi),
        azimuth=st.floats(0.0, 2.0 * math.pi),
        sf=st.tuples(UNIT, UNIT, UNIT, UNIT),
        g=st.floats(-1.5, 1.5),
    )
    def test_weighted_information_never_exceeds_the_conventional(
        self, radius, polar, azimuth, sf, g
    ):
        # Information conservation over the whole Bloch ball: postselection can
        # concentrate the conventional information 4 Omega into fewer samples,
        # but p F_m never exceeds it, for any mixed and coherent preparation.
        sin_polar = math.sin(polar)
        rho = _bloch_density(
            radius * sin_polar * math.cos(azimuth),
            radius * sin_polar * math.sin(azimuth),
            radius * math.cos(polar),
        )
        try:
            psi_sf = Ket(np.array([sf[0] + 1j * sf[1], sf[2] + 1j * sf[3]]))
            setup = WvaSetup(rho, psi_sf, BALANCED_METER, SIGMA, SIGMA, g)
            weighted = postselect_mixed(setup)[0] * fm_exact(setup)
        except WvaError:
            return
        assert weighted <= 4.0 * setup.omega * (1.0 + 1e-12)

    def test_postselect_mixed_matches_recorded_branch_mixture(self):
        # recorded from the eigenbranch-mixture implementation this kernel replaced
        cases = json.loads(FIXTURE.read_text())["cases"]
        assert len(cases) == 200
        for case in cases:
            setup = WvaSetup(
                psi_si=DensityMatrix(_complex(case["rho_s"])),
                psi_sf=Ket(_complex(case["psi_sf"])),
                phi_mi=BALANCED_METER,
                A=HermitianOperator(_complex(case["A"])),
                M=SIGMA,
                g=case["g"],
            )
            p, rho_m = postselect_mixed(setup)
            assert abs(p - case["p"]) <= 1e-13
            assert np.max(np.abs(rho_m.entries - _complex(case["entries"]))) <= 1e-13

    def test_one_kernel_evaluation_per_setup(self, monkeypatch):
        calls, columns = [], []
        original = postselect_module._meter_core
        original_columns = postselect_module._meter_columns

        def counted(s, *args):
            calls.append(tuple(s))
            return original(s, *args)

        monkeypatch.setattr(postselect_module, "_meter_core", counted)
        monkeypatch.setattr(
            postselect_module, "_meter_columns",
            lambda *a: columns.append(1) or original_columns(*a),
        )
        setup = WvaSetup(
            _bloch_density(0.3, -0.2, 0.4), BASIS.superposition(-0.6), BALANCED_METER,
            SIGMA, SIGMA, 0.0349,
        )
        p, rho_m = postselect_mixed(setup)
        fm = fm_exact(setup)
        assert postselect_mixed(setup)[0] == p and fm_exact(setup).hex() == fm.hex()
        # V's two columns in one pass per setup; dV's on the basis kets on each fm_exact call
        assert (len(columns), calls) == (1, [(1.0, 0.0), (0.0, 1.0)] * 2)
        _, k = setup._out
        assert rho_m.entries.tobytes() == (_meter_operator(k) / p).tobytes()
        fm_exact(setup.at(0.02))
        assert (len(columns), len(calls)) == (2, 6)

    def test_lazy_kernel_same_bits_as_the_eager_one(self):
        for setup in _seeded_mixed_setups(11, 400):
            args = (setup.psi_si, setup.psi_sf, setup.phi_mi, setup.A, setup.M, setup.g)
            p_ref, K_ref, dK_ref, det_ref = _eager_meter_operator(*args)
            p, k = postselect_module._evaluate(setup, setup.g)
            # signed zeros too
            assert (p.hex(), _meter_operator(k).tobytes()) == (p_ref.hex(), K_ref.tobytes())
            if p_ref >= postselect_module.P_FLOOR:
                expected = _bloch_qfi(p_ref, K_ref, dK_ref, det_ref)
                assert postselect_module._meter_qfi(setup).hex() == expected.hex()
                assert fm_exact(setup).hex() == expected.hex()

    # signed zeros, subnormals, the largest floats, and anything else finite
    PART = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         1.7976931348623157e308, -1.7976931348623157e308]),
        st.floats(allow_nan=False, allow_infinity=False),
    )

    @settings(max_examples=500, deadline=None)
    @given(p=st.floats(1e-14, 1e3), k00=PART, k11=PART, re=PART, im=PART)
    @example(p=0.5, k00=-0.0, k11=-0.0, re=-0.0, im=0.0)  # the signs numpy's zeros take
    def test_collapsed_state_entries_are_numpys_quotients(self, p, k00, k11, re, im):
        # The helper forms K / p in Python scalars; numpy's complex divide must give the
        # same bytes, overflow to inf included, or the collapsed states' bits would move.
        k10 = complex(re, im)
        with pytest.MonkeyPatch.context() as patch:  # catch the rows the constructor gets
            patch.setattr(postselect_module, "DensityMatrix", lambda rows: rows)
            rows = postselect_module._collapsed_state(p, (k00, k10, k11))
        with np.errstate(all="ignore"):
            for got, z in zip([*rows[0], *rows[1]], (k00, k10.conjugate(), k10, k11)):
                assert np.array([got]).tobytes() == (np.array([complex(z)]) / p).tobytes()
            assert np.array(rows).tobytes() == (_meter_operator((k00, k10, k11)) / p).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), g=st.floats(1e-4, 1.0))
    def test_collapsed_states_same_bits_as_dividing_the_array(self, seed, g):
        # The setup's state and both probes of qfi_mixed equal DensityMatrix(K / p) of the
        # eager kernel's array, byte for byte, and fail where it fails, with its message.
        rng = np.random.default_rng(seed)
        r = rng.normal(size=3)
        r *= rng.uniform() ** (1.0 / 3.0) / np.linalg.norm(r)
        args = (_bloch_density(*r), Ket(rng.normal(size=2) + 1j * rng.normal(size=2)),
                BALANCED_METER, SIGMA, SIGMA)
        setup = WvaSetup(*args, g)
        family = postselected_meter_family(setup)
        for at in (g, g - STEP, g + STEP):  # family(g) is the state postselect_mixed returns
            p_ref, K_ref, _, _ = _eager_meter_operator(*args, at)
            if p_ref < postselect_module.P_FLOOR:
                with pytest.raises(VanishingPostselectionError):
                    family(at)
            else:
                expected = _bits_or_error(lambda: DensityMatrix(K_ref / p_ref))
                assert _bits_or_error(lambda: family(at)) == expected

    def test_slope_formed_only_by_fm_exact(self, monkeypatch):
        (columns, cores), slopes = _count_kernels(monkeypatch), []
        original_qfi = postselect_module._meter_qfi
        monkeypatch.setattr(
            postselect_module, "_meter_qfi", lambda *a: slopes.append(1) or original_qfi(*a)
        )
        setup = WvaSetup(
            _bloch_density(0.3, -0.2, 0.4), BASIS.superposition(-0.6), BALANCED_METER,
            SIGMA, SIGMA, 0.0349,
        )
        p, rho_m = postselect_mixed(setup)
        assert (len(columns), len(cores), len(slopes)) == (1, 0, 0)
        qfi = qfi_mixed(postselected_meter_family(setup), setup.g)
        # g - h and g + h run afresh; g is cached
        assert (len(columns), len(cores), len(slopes)) == (1 + 2, 0, 0)
        fm = fm_exact(setup)
        assert (len(columns), len(cores), len(slopes)) == (3, 2, 1)  # dV's two columns
        assert fm_exact(setup).hex() == fm.hex() and postselect_mixed(setup) == (p, rho_m)
        assert fm == pytest.approx(qfi, rel=1e-6)

    @pytest.mark.parametrize("degenerate", [None, "A", "M"])
    def test_value_columns_same_bits_as_the_core(self, degenerate):
        # one pass over both basis kets equals the derivative kernel's v on each, signed zeros too
        rng = np.random.default_rng(16)
        for k in range(100):
            f = (rng.normal(size=2) + 1j * rng.normal(size=2)).tolist()
            x = (rng.normal(size=2) + 1j * rng.normal(size=2)).tolist()
            splits = []
            for name in ("A", "M"):
                h = rng.normal(size=4)
                H = np.array([[h[0], h[1] - 1j * h[2]], [h[1] + 1j * h[2], h[3]]])
                if name == degenerate:
                    H = np.eye(2) * h[0]  # the single projector I
                splits.append(HermitianOperator(H)._split)
            g = (0.0, -0.0, -rng.uniform(0.0, 2.0), 1.3)[k % 4]
            a0, a1, _, _ = postselect_module._meter_core((1.0, 0.0), f, x, *splits, g)
            b0, b1, _, _ = postselect_module._meter_core((0.0, 1.0), f, x, *splits, g)
            got = postselect_module._meter_columns(f, x, *splits, g)
            assert [(z.real.hex(), z.imag.hex()) for z in got] == [
                (z.real.hex(), z.imag.hex()) for z in (a0, a1, b0, b1)
            ]

    def test_own_coupling_probe_returns_the_cached_state(self, monkeypatch):
        mixed = WvaSetup(
            _bloch_density(0.3, -0.2, 0.4), BASIS.superposition(-0.6), BALANCED_METER,
            SIGMA, SIGMA, 0.0349,
        )
        pure = real_superposition_setup(np.pi / 6, -np.pi / 5, 0.0349)
        cached = postselect_mixed(mixed)[1], postselect_mixed(pure)[1]
        columns, cores = _count_kernels(monkeypatch)
        assert postselected_meter_family(mixed)(0.0349) is cached[0]
        # a ket input's state is formed on each read, from the setup's kernel output
        probed = postselected_meter_family(pure)(0.0349)
        assert probed is not cached[1] and probed.entries.tobytes() == cached[1].entries.tobytes()
        assert (columns, cores) == ([], [])

    @pytest.mark.parametrize("g, probe", [(0.0, -0.0), (-0.0, 0.0)])
    def test_other_signed_zero_runs_afresh(self, monkeypatch, g, probe):
        setup = WvaSetup(
            _bloch_density(0.3, -0.2, 0.4), Ket(np.array([1j, 1.0 + 0.25j])), BALANCED_METER,
            SIGMA, SIGMA, g,
        )
        cached = postselect_mixed(setup)[1]
        columns, cores = _count_kernels(monkeypatch)
        got = postselected_meter_family(setup)(probe)
        assert got is not cached and (len(columns), len(cores)) == (1, 0)
        assert got.entries.tobytes() == postselect_mixed(setup.at(probe))[1].entries.tobytes()

    def test_matches_pure_kernel_on_a_projector(self):
        setup = real_superposition_setup(np.pi / 6, -np.pi / 5, 0.0349)
        as_matrix = dataclasses.replace(setup, psi_si=DensityMatrix.from_ket(setup.psi_si))
        p_mixed, rho_m = postselect_mixed(as_matrix)
        res = postselect(setup)
        assert p_mixed == pytest.approx(res.p, rel=1e-14)
        assert rho_m.entries == pytest.approx(res.phi_mf.projector(), abs=1e-14)
        assert fm_exact(as_matrix) == pytest.approx(fm_exact(setup), rel=1e-12)

    def test_floor_checked_on_every_call(self):
        setup = WvaSetup(
            DensityMatrix.from_ket(BASIS.ket1), BASIS.ket0, BALANCED_METER, SIGMA, SIGMA, 0.0
        )
        for _ in range(2):
            with pytest.raises(VanishingPostselectionError, match="postselect_mixed"):
                postselect_mixed(setup)
            with pytest.raises(VanishingPostselectionError, match="fm_exact"):
                fm_exact(setup)


def _fixture_setups():
    for case in json.loads(FIXTURE.read_text())["cases"]:
        yield WvaSetup(
            psi_si=DensityMatrix(_complex(case["rho_s"])),
            psi_sf=Ket(_complex(case["psi_sf"])),
            phi_mi=BALANCED_METER,
            A=HermitianOperator(_complex(case["A"])),
            M=SIGMA,
            g=case["g"],
        )


class TestMeterFamilies:
    """A family probe runs only the kernel, and equals the setup.at(g) path bit for bit."""

    def test_mixed_probes_equal_postselect_mixed_at_g(self):
        for setup in _fixture_setups():
            family = postselected_meter_family(setup)
            for g in (setup.g, setup.g + 1e-5, setup.g - 1e-5):
                got = family(g).entries
                assert got.tobytes() == postselect_mixed(setup.at(g))[1].entries.tobytes()

    def test_pure_probes_equal_postselect_at_g(self):
        for setup in _fixture_setups():
            pure = WvaSetup(
                Ket(np.array([0.8, 0.6j])), setup.psi_sf, setup.phi_mi, setup.A, setup.M, setup.g
            )
            meter = postselected_meter_family(pure)
            for g in (pure.g, pure.g + 1e-5, pure.g - 1e-5):
                as_matrix = postselect_mixed(pure.at(g))[1].entries
                assert meter(g).entries.tobytes() == as_matrix.tobytes()

    @pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
    def test_non_finite_coupling_rejected(self, g):
        mixed = dataclasses.replace(
            real_superposition_setup(0.4, -0.4, 0.01), psi_si=_bloch_density(0.2, 0.0, 0.3)
        )
        pure = real_superposition_setup(0.4, -0.4, 0.01)
        for family in (
            postselected_meter_family(mixed),
            postselected_meter_family(pure),
        ):
            with pytest.raises(ContractViolationError, match="coupling strength g must be finite"):
                family(g)

    @pytest.mark.parametrize("own", [0.1, 0.0])
    def test_vanishing_and_mixed_probes_rejected(self, own):
        sigma_x = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
        # orthogonal pre/postselection: p = sin^2 g vanishes only at g = 0; a probe at
        # the setup's own coupling reads its cache and still runs the checks every time
        vanishing = WvaSetup(BASIS.ket1, BASIS.ket0, BALANCED_METER, sigma_x, SIGMA, own)
        vanishing_mixed = dataclasses.replace(
            vanishing, psi_si=DensityMatrix.from_ket(BASIS.ket1)
        )
        for family, where in (
            (postselected_meter_family(vanishing), "postselect"),
            (postselected_meter_family(vanishing_mixed), "postselect_mixed"),
        ):
            family(0.1)  # finite coupling still postselects
            for g in (0.0, 0.0, -0.0):
                with pytest.raises(VanishingPostselectionError, match=f"^{where}: success"):
                    family(g)
        for _ in range(2):
            with pytest.raises(UnsupportedInputError, match="use postselect_mixed"):
                postselect(vanishing_mixed)

    @pytest.mark.parametrize("mixed, cores", [(True, 0), (False, 1)])
    def test_probe_runs_the_kernel_and_builds_no_setup(self, monkeypatch, mixed, cores):
        setup = real_superposition_setup(np.pi / 6, -np.pi / 5, 0.0349)
        if mixed:
            setup = dataclasses.replace(setup, psi_si=_bloch_density(0.3, -0.2, 0.4))
        family = postselected_meter_family(setup)
        built = []
        columns, calls = _count_kernels(monkeypatch)
        original_init = WvaSetup.__post_init__
        monkeypatch.setattr(
            WvaSetup, "__post_init__", lambda self: built.append(1) or original_init(self)
        )
        family(0.02)
        # a density matrix takes both columns of V from one value-only pass
        assert (len(columns), len(calls), built) == (int(mixed), cores, [])


class TestSetupEquality:
    def test_equal_values_compare_equal(self):
        # independently built kets and observables, no shared objects; a basis
        # memo may share one ket between setups, so these are built with Ket(...)
        def built(alpha):
            return WvaSetup(
                Ket(np.array([math.cos(0.5), math.sin(0.5)])),
                Ket(np.array([math.cos(alpha), math.sin(alpha)])),
                Ket(np.array([math.cos(np.pi / 4), math.sin(np.pi / 4)])),
                HermitianOperator(np.diag([1.0, -1.0])),
                HermitianOperator(np.diag([1.0, -1.0])),
                0.01,
            )

        a, b = built(-0.5), built(-0.5)
        assert a.psi_si is not b.psi_si and a.A is not b.A
        assert a == b == real_superposition_setup(0.5, -0.5, 0.01)
        assert a != real_superposition_setup(0.5, -0.5 + 1e-15, 0.01)
        mixed = dataclasses.replace(a, psi_si=_bloch_density(0.1, 0.2, 0.3))
        assert mixed == dataclasses.replace(b, psi_si=_bloch_density(0.1, 0.2, 0.3))
        assert mixed != a


class TestModuleBoundaries:
    # Each entry is a private helper that one module lends another on purpose: the kernel
    # core to the standard-basis readout, two array helpers, the unchecked cost sweep, the
    # per-trial streams and the block sampler that campaigns draw through, and the qubit
    # split h0 +- r that the SLD oracle reads for a qubit's eigenvalues, so that split
    # keeps one owner. A change that adds an entry says why.
    REVIEWED = {
        ("experiment", "postselect", "_meter_core"),
        ("experiment", "streams", "_block_seed_type"),
        ("experiment", "streams", "_block_size"),
        ("experiment", "streams", "_sample_blocks"),
        ("experiment", "streams", "_trial_rng"),
        ("fisher", "states", "_qubit_parts"),
        ("postselect", "states", "_phase_fixed"),
        ("postselect", "states", "_readonly"),
        ("verify", "costs", "_leading_sweep"),
    }

    def test_private_imports_between_modules_are_the_reviewed_set(self):
        found = set()
        for path in sorted(Path(postselect_module.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.ImportFrom):
                    continue
                source = node.module or ""
                if node.level == 1 or source.startswith("wva_costlab."):
                    found |= {
                        (path.stem, source.rsplit(".", 1)[-1], alias.name)
                        for alias in node.names if alias.name.startswith("_")
                    }
        assert found == self.REVIEWED

    def test_no_module_uses_functools_cached_property(self):
        """Per-instance values are built in constructors, never by ``functools.cached_property``.

        Before Python 3.12 a ``cached_property``'s first read takes one lock per
        descriptor, shared by every instance of the class and held while the value
        is computed, which more than doubles the cost of a fresh setup's first read
        on the exact-sweep path and serializes threads that derive unrelated setups.
        """
        for path in sorted(Path(postselect_module.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute):
                    assert node.attr != "cached_property", path.name
                if isinstance(node, ast.ImportFrom) and node.module == "functools":
                    assert "cached_property" not in {a.name for a in node.names}, path.name

    @staticmethod
    def _writes_instance_state(node) -> bool:
        """Whether a node is ``object.__setattr__(...)``, ``....__dict__[...] = ...`` or
        ``....__dict__.setdefault(...)``."""

        def is_dict(n):
            return isinstance(n, ast.Attribute) and n.attr == "__dict__"

        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if func.attr == "__setattr__" and getattr(func.value, "id", None) == "object":
                return True
            return func.attr == "setdefault" and is_dict(func.value)
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            return any(isinstance(t, ast.Subscript) and is_dict(t.value) for t in targets)
        return False

    def test_instance_state_is_written_only_in_constructors_and_the_moments_slot(self):
        """No per-instance value is computed on first read: outside a ``__post_init__``,
        only the <M>/Omega slot of ``HermitianOperator._moments`` writes instance state."""
        found = set()
        for path in sorted(Path(postselect_module.__file__).parent.glob("*.py")):
            for func in ast.walk(ast.parse(path.read_text())):
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if func.name != "__post_init__" and any(
                    self._writes_instance_state(n) for n in ast.walk(func)
                ):
                    found.add((path.stem, func.name))
        assert found == {("states", "_moments")}
