"""Postselection channel: probabilities, weak values, collapsed-state information.

The independent oracle for the real-superposition scenario is the closed trig
form p(g) = cos^2(g) cos^2(alpha - theta) + sin^2(g) cos^2(alpha + theta);
the production path computes everything through the coupling unitary.
"""

import dataclasses
import importlib

import numpy as np
import pytest

from wva_costlab import (
    ContractViolationError,
    DensityMatrix,
    Ket,
    OrthogonalPostselectionError,
    ReferenceBasis,
    UnsupportedInputError,
    VanishingPostselectionError,
    WvaSetup,
    cfi_discrete,
    conditional_outcome_model,
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

BASIS = ReferenceBasis.standard()
SIGMA = BASIS.sigma()
BALANCED_METER = BASIS.superposition(np.pi / 4.0)
# The package re-exports the function ``postselect`` under the module's name.
postselect_module = importlib.import_module("wva_costlab.postselect")


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

    def test_ceiling_on_grid(self):
        for theta in (np.pi / 12, np.pi / 6, np.pi / 4):
            for alpha in np.linspace(-1.3, 1.3, 11):
                setup = real_superposition_setup(theta, alpha, 1e-3)
                exact, _ = probabilistic_qfi(setup)
                assert exact <= 4.0 * (1.0 + 1e-3)


class TestRealSuperpositionDomain:
    @pytest.mark.parametrize("theta", [1.2, -0.3, 0.0, np.pi / 4 + 1e-9, np.nan, np.inf])
    def test_theta_outside_domain_rejected(self, theta):
        with pytest.raises(ContractViolationError, match=r"theta must lie in \(0, pi/4\]"):
            real_superposition_setup(theta, -0.5, 0.01)

    def test_theta_domain_includes_pi_over_4(self):
        assert postselect(real_superposition_setup(np.pi / 4, -0.5, 0.01)).p > 0.0


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count the postselection-kernel evaluations made through WvaSetup."""
    calls = []
    original = postselect_module.postselected_meter

    def counted(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(postselect_module, "postselected_meter", counted)
    return calls


class TestKernelSharing:
    def test_one_evaluation_per_setup(self, kernel_calls):
        setup = real_superposition_setup(np.pi / 6, -np.pi / 5, 0.0349)
        postselect(setup)
        fm_exact(setup)
        probabilistic_qfi(setup)
        postselect(setup)
        assert kernel_calls == [0.0349]
        _, v, dv = setup._meter
        assert not v.flags.writeable and not dv.flags.writeable

    def test_at_and_replace_start_uncached(self, kernel_calls):
        setup = real_superposition_setup(np.pi / 6, -np.pi / 5, 0.0349)
        fm_exact(setup)
        other = setup.at(0.02)
        fm_exact(other)
        fm_exact(dataclasses.replace(setup, psi_sf=BASIS.superposition(-np.pi / 4)))
        assert kernel_calls == [0.0349, 0.02, 0.0349]
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
