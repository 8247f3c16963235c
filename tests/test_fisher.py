"""Fisher information operations against closed-form and cross-method oracles."""

import numpy as np
import pytest

from wva_costlab import (
    ContractViolationError,
    DensityMatrix,
    HermitianOperator,
    Ket,
    OutcomeModel,
    ReferenceBasis,
    StepTooLargeError,
    UnsupportedInputError,
    cfi_discrete,
    collapsed_meter_family,
    coupling_unitary,
    hermitian_eigs,
    qfi_mixed,
    qfi_product_coupling,
    qfi_pure,
    qfi_spectral_unitary,
    real_superposition_setup,
    tensor,
)

BASIS = ReferenceBasis.standard()
SIGMA = BASIS.sigma()
BALANCED_METER = BASIS.superposition(np.pi / 4.0)


def product_family(theta):
    """g -> U(g) (cos t |0> + sin t |1>) (x) balanced meter."""
    psi0 = tensor(BASIS.superposition(theta), BALANCED_METER)
    return lambda g: coupling_unitary(SIGMA, SIGMA, g).apply(psi0)


def mixed_product_family(rho_s):
    joint0 = np.kron(rho_s.entries, BALANCED_METER.projector())

    def family(g):
        u = coupling_unitary(SIGMA, SIGMA, g).entries
        return DensityMatrix(u @ joint0 @ u.conj().T)

    return family


class TestQfiPure:
    def test_constant_family_is_zero(self):
        fam = lambda g: BASIS.ket0
        assert abs(qfi_pure(fam, 0.3)) < 1e-12

    @pytest.mark.parametrize("theta", [np.pi / 16, np.pi / 8, np.pi / 6, np.pi / 4])
    def test_product_family_reaches_four(self, theta):
        # with <sigma^2> = 1 and a balanced meter the family carries QFI 4
        assert qfi_pure(product_family(theta), 0.0349, step=1e-4) == pytest.approx(
            4.0, abs=1e-6
        )

    def test_collapsed_meter_approaches_leading_order(self):
        setup = real_superposition_setup(np.pi / 6, -np.pi / 6, 1e-4)
        fam = collapsed_meter_family(setup)
        value = qfi_pure(fam, 1e-4)
        assert value == pytest.approx(16.0, abs=1e-3)
        rho_fam = lambda g: DensityMatrix.from_ket(fam(g))
        assert qfi_mixed(rho_fam, 1e-4) == pytest.approx(value, abs=1e-6)

    def test_step_too_large(self):
        fam = lambda g: Ket(np.array([np.cos(50 * g), np.sin(50 * g)]))
        with pytest.raises(StepTooLargeError):
            qfi_pure(fam, 0.0, step=0.05)

    def test_rejects_bad_step(self):
        with pytest.raises(ContractViolationError):
            qfi_pure(product_family(0.3), 0.0, step=0.0)


class TestQfiProductCoupling:
    def test_pure_eigenstate_balanced_meter(self):
        assert qfi_product_coupling(BASIS.ket0, BALANCED_METER, SIGMA, SIGMA) == 4.0

    def test_incoherent_mixture_balanced_meter(self):
        rho = DensityMatrix.mixture([0.3, 0.7], [BASIS.ket0, BASIS.ket1])
        assert qfi_product_coupling(rho, BALANCED_METER, SIGMA, SIGMA) == 4.0

    def test_double_eigenstate_carries_nothing(self):
        # system and meter both in eigenstates: 4(1*1 - 1*1) = 0
        assert qfi_product_coupling(BASIS.ket0, BASIS.ket0, SIGMA, SIGMA) == 0.0

    def test_general_pure_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            theta = rng.uniform(0.1, 1.4)
            psi = BASIS.superposition(theta)
            got = qfi_product_coupling(psi, BALANCED_METER, SIGMA, SIGMA)
            # oracle: direct expectations, 4(<A^2><M^2> - <A>^2<M>^2) with <M> = 0
            assert got == pytest.approx(4.0, abs=1e-12)
            # full-family cross-check
            assert qfi_pure(product_family(theta), 0.2, step=1e-5) == pytest.approx(
                got, abs=1e-6
            )

    def test_mixed_non_diagonal_rejected(self):
        rho = DensityMatrix(
            0.5 * BASIS.superposition(0.3).projector()
            + 0.5 * BASIS.superposition(1.1).projector()
        )
        with pytest.raises(UnsupportedInputError):
            qfi_product_coupling(rho, BALANCED_METER, SIGMA, SIGMA)

    def test_mixed_diagonal_needs_balanced_meter(self):
        rho = DensityMatrix.mixture([0.3, 0.7], [BASIS.ket0, BASIS.ket1])
        with pytest.raises(UnsupportedInputError):
            qfi_product_coupling(rho, BASIS.ket0, SIGMA, SIGMA)

    def test_incoherent_matches_mixed_family(self):
        for mu in (0.1, 0.4, 0.8):
            rho = DensityMatrix.mixture([mu, 1.0 - mu], [BASIS.ket0, BASIS.ket1])
            closed = qfi_product_coupling(rho, BALANCED_METER, SIGMA, SIGMA)
            numeric = qfi_mixed(mixed_product_family(rho), 0.05)
            assert numeric == pytest.approx(closed, abs=1e-6)


class TestQfiMixed:
    def test_constant_family_is_zero(self):
        rho = DensityMatrix.mixture([0.5, 0.5], [BASIS.ket0, BASIS.ket1])
        assert abs(qfi_mixed(lambda g: rho, 0.1)) < 1e-12

    def test_rank_one_consistency(self):
        fam = product_family(np.pi / 6)
        rho_fam = lambda g: DensityMatrix.from_ket(fam(g))
        assert qfi_mixed(rho_fam, 0.3) == pytest.approx(qfi_pure(fam, 0.3), abs=1e-6)

    def test_postselected_incoherent_meter_capped(self):
        from wva_costlab import WvaSetup, postselected_meter_family

        rho = DensityMatrix.mixture([0.4, 0.6], [BASIS.ket0, BASIS.ket1])
        for alpha in (-0.6, 0.2, 1.0):
            setup = WvaSetup(
                psi_si=rho,
                psi_sf=BASIS.superposition(alpha),
                phi_mi=BALANCED_METER,
                A=SIGMA,
                M=SIGMA,
                g=1e-3,
            )
            assert qfi_mixed(postselected_meter_family(setup), 1e-3) <= 4.0 + 1e-4


class TestQfiSpectralUnitary:
    def test_pure_term_matches_qfi_pure(self):
        psi = BASIS.superposition(0.4)
        u_fam = lambda g: coupling_unitary(SIGMA, SIGMA, g)
        psi4 = tensor(psi, BALANCED_METER)
        spectral = qfi_spectral_unitary([1.0], [psi4], u_fam, 0.2)
        pure = qfi_pure(lambda g: u_fam(g).apply(psi4), 0.2)
        assert spectral == pytest.approx(pure, abs=1e-6)

    def test_incoherent_product_input(self):
        u_fam = lambda g: coupling_unitary(SIGMA, SIGMA, g)
        vectors = [tensor(BASIS.ket0, BALANCED_METER), tensor(BASIS.ket1, BALANCED_METER)]
        value = qfi_spectral_unitary([0.35, 0.65], vectors, u_fam, 0.1)
        assert value == pytest.approx(4.0, abs=1e-6)

    def test_random_mixture_matches_sld(self):
        rng = np.random.default_rng(21)
        u_fam = lambda g: coupling_unitary(SIGMA, SIGMA, g)
        for _ in range(10):
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            q, _ = np.linalg.qr(raw)
            vectors = [Ket(q[:, 0]), Ket(q[:, 1])]
            w = rng.uniform(0.2, 0.8)
            weights = [w, 1.0 - w]
            rho0 = sum(wk * v.projector() for wk, v in zip(weights, vectors))
            fam = lambda g: DensityMatrix(
                u_fam(g).entries @ rho0 @ u_fam(g).entries.conj().T
            )
            spectral = qfi_spectral_unitary(weights, vectors, u_fam, 0.2)
            assert spectral == pytest.approx(qfi_mixed(fam, 0.2), abs=1e-6)

    def test_non_orthonormal_rejected(self):
        u_fam = lambda g: coupling_unitary(SIGMA, SIGMA, g)
        vectors = [tensor(BASIS.ket0, BALANCED_METER), tensor(BASIS.ket0, BALANCED_METER)]
        with pytest.raises(ContractViolationError):
            qfi_spectral_unitary([0.5, 0.5], vectors, u_fam, 0.1)


class TestCfiDiscrete:
    def test_linear_binomial(self):
        model = OutcomeModel(lambda g: np.array([(1.0 - g) / 2.0, (1.0 + g) / 2.0]))
        # binomial information q'^2 / (q (1-q)) = (1/4) / (1/4) = 1 at g = 0
        assert cfi_discrete(model, 0.0) == pytest.approx(1.0, abs=1e-8)

    def test_constant_model_is_zero(self):
        model = OutcomeModel(lambda g: np.array([0.25, 0.75]))
        assert cfi_discrete(model, 0.1) == 0.0

    def test_conditional_readout_saturates_leading_order(self):
        from wva_costlab import conditional_outcome_model

        model = conditional_outcome_model(np.pi / 6, -np.pi / 6)
        assert cfi_discrete(model, 1e-3) == pytest.approx(16.0, rel=0.01)

    def test_distribution_validated(self):
        bad = OutcomeModel(lambda g: np.array([0.5, 0.4]))
        with pytest.raises(ContractViolationError):
            cfi_discrete(bad, 0.0)

    def test_non_finite_distribution_rejected(self):
        bad = OutcomeModel(lambda g: np.array([np.nan, 0.5]))
        with pytest.raises(ContractViolationError, match="finite"):
            cfi_discrete(bad, 0.0)


def linear_binomial_with_derivative(calls):
    """q = (1 + g)/2 with its exact slope; counts each evaluation path."""

    def probabilities(g):
        calls["probabilities"] += 1
        return np.array([(1.0 - g) / 2.0, (1.0 + g) / 2.0])

    def derivative(g):
        calls["derivative"] += 1
        return probabilities(g), np.array([-0.5, 0.5])

    return OutcomeModel(probabilities, derivative=derivative)


class TestCfiDiscreteExactDerivative:
    def test_derivative_replaces_the_probes(self):
        calls = {"probabilities": 0, "derivative": 0}
        model = linear_binomial_with_derivative(calls)
        # (1/2)^2 / q + (1/2)^2 / (1 - q) at q = 0.6
        value = cfi_discrete(model, 0.2)
        assert value == pytest.approx(0.25 / 0.6 + 0.25 / 0.4, rel=1e-15)
        assert calls == {"probabilities": 1, "derivative": 1}

    def test_returns_python_float(self):
        model = linear_binomial_with_derivative({"probabilities": 0, "derivative": 0})
        assert type(cfi_discrete(model, 0.1)) is float

    @pytest.mark.parametrize("step", [0.0, -1e-5])
    def test_step_still_must_be_positive(self, step):
        model = linear_binomial_with_derivative({"probabilities": 0, "derivative": 0})
        with pytest.raises(ContractViolationError, match="step"):
            cfi_discrete(model, 0.1, step=step)

    def test_derivative_probabilities_pass_the_model_checks(self):
        bad = OutcomeModel(
            lambda g: np.array([0.5, 0.5]),
            derivative=lambda g: (np.array([0.5, 0.4]), np.array([0.0, 0.0])),
        )
        with pytest.raises(ContractViolationError, match="sum to 1"):
            cfi_discrete(bad, 0.0)

    @pytest.mark.parametrize(
        "slope", [np.array([0.1]), np.array([np.nan, 0.0]), np.array([np.inf, -np.inf])]
    )
    def test_malformed_derivative_rejected(self, slope):
        bad = OutcomeModel(
            lambda g: np.array([0.5, 0.5]),
            derivative=lambda g: (np.array([0.5, 0.5]), slope),
        )
        with pytest.raises(ContractViolationError):
            cfi_discrete(bad, 0.0)

    def test_outcome_below_floor_is_skipped(self):
        model = OutcomeModel(
            lambda g: np.array([0.0, 1.0]),
            derivative=lambda g: (np.array([0.0, 1.0]), np.array([1.0, -1.0])),
        )
        assert cfi_discrete(model, 0.0) == 1.0


class TestProperties:
    def test_non_negativity(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            theta = rng.uniform(0.05, np.pi / 4)
            assert qfi_pure(product_family(theta), rng.uniform(-0.5, 0.5)) >= -1e-8
            rho = DensityMatrix.mixture(
                [0.5, 0.5], [BASIS.ket0, BASIS.ket1]
            )
            assert qfi_mixed(mixed_product_family(rho), rng.uniform(-0.5, 0.5)) >= -1e-8

    def test_success_weighted_information_cannot_beat_conventional(self):
        from wva_costlab import postselect, fm_exact

        g = 1e-3
        for theta in (np.pi / 12, np.pi / 6, np.pi / 4):
            for alpha in np.linspace(-1.2, 1.2, 9):
                setup = real_superposition_setup(theta, alpha, g)
                p = postselect(setup).p
                assert p * fm_exact(setup) <= 4.0 * (1.0 + 1e-3)

    def test_data_processing_inequality(self):
        from wva_costlab import conditional_outcome_model

        for theta, alpha, g in [
            (np.pi / 6, -np.pi / 6, 0.0349),
            (np.pi / 6, -np.pi / 4, 0.02),
            (np.pi / 8, 0.4, 0.05),
        ]:
            setup = real_superposition_setup(theta, alpha, g)
            meter_qfi = qfi_pure(collapsed_meter_family(setup), g)
            readout_cfi = cfi_discrete(conditional_outcome_model(theta, alpha), g)
            assert readout_cfi <= meter_qfi + 1e-6

    def test_spectral_vs_sld_randomized(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            dim = int(rng.choice([2, 4]))
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = HermitianOperator((raw + raw.conj().T) / 2.0)
            vals, vecs = hermitian_eigs(h)
            projless = [v.projector() for v in vecs]

            def u_fam(g, vals=vals, projless=projless):
                mat = sum(np.exp(-1j * g * lam) * pr for lam, pr in zip(vals, projless))
                from wva_costlab import UnitaryOperator

                return UnitaryOperator(mat)

            count = int(rng.integers(1, dim + 1))
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            vectors = [Ket(q[:, k]) for k in range(count)]
            weights = rng.random(count) + 0.1
            weights = weights / weights.sum()
            rho0 = sum(w * v.projector() for w, v in zip(weights, vectors))
            fam = lambda g: DensityMatrix(u_fam(g).entries @ rho0 @ u_fam(g).entries.conj().T)
            g = float(rng.uniform(-1.0, 1.0))
            assert qfi_spectral_unitary(weights, vectors, u_fam, g) == pytest.approx(
                qfi_mixed(fam, g), abs=1e-6
            )
