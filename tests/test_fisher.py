"""Fisher information operations against closed-form and cross-method oracles."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wva_costlab import (
    ContractViolationError,
    DensityMatrix,
    HermitianOperator,
    Ket,
    ReferenceBasis,
    StepTooLargeError,
    UnsupportedInputError,
    WvaError,
    WvaSetup,
    cfi_discrete,
    conditional_outcome_model,
    coupling_unitary,
    fisher,
    fm_exact,
    hermitian_eigs,
    postselect,
    postselected_meter_family,
    qfi_mixed,
    qfi_product_coupling,
    qfi_pure,
    qfi_spectral_unitary,
    real_superposition_setup,
    tensor,
)
from wva_costlab.fisher import STEP

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
        assert qfi_pure(product_family(theta), 0.0349) == pytest.approx(4.0, abs=1e-6)

    def test_collapsed_meter_approaches_leading_order(self):
        setup = real_superposition_setup(np.pi / 6, -np.pi / 6, 1e-4)
        fam = lambda g: postselect(setup.at(g)).phi_mf
        value = qfi_pure(fam, 1e-4)
        assert value == pytest.approx(16.0, abs=1e-3)
        rho_fam = lambda g: DensityMatrix.from_ket(fam(g))
        assert qfi_mixed(rho_fam, 1e-4) == pytest.approx(value, abs=1e-6)

    def test_step_too_large(self):
        # the fixed step of 1e-5 turns this family by 1 rad: overlap cos(1) < 0.9
        fam = lambda g: Ket(np.array([np.cos(1e5 * g), np.sin(1e5 * g)]))
        with pytest.raises(StepTooLargeError, match="moves too fast") as err:
            qfi_pure(fam, 0.0)
        assert "reduce step" not in str(err.value)


class TestFixedStep:
    """Every central difference uses the one module step; no caller can pick a harmful one."""

    def test_no_oracle_takes_a_step(self):
        for fn in (qfi_pure, qfi_mixed, qfi_spectral_unitary, cfi_discrete, fisher._aligned):
            assert "step" not in inspect.signature(fn).parameters, fn.__name__
        assert fisher.STEP == 1e-5 and not hasattr(fisher, "DEFAULT_STEP")

    def test_only_the_oracles_read_the_step(self):
        """No exact quantity depends on the step: only the four oracle bodies read it."""
        readers = {"qfi_pure", "qfi_mixed", "qfi_spectral_unitary", "_aligned"}
        found = []
        for path in sorted(Path(fisher.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                owner = getattr(top, "name", None)
                for node in ast.walk(top):
                    if isinstance(node, ast.ImportFrom):
                        reads = any(alias.name == "STEP" for alias in node.names)
                    elif isinstance(node, ast.Attribute):
                        reads = node.attr == "STEP"
                    elif isinstance(node, ast.Name) and path.stem == "fisher":
                        reads = node.id == "STEP" and isinstance(node.ctx, ast.Load)
                    else:
                        reads = False
                    if reads and not (path.stem == "fisher" and owner in readers):
                        found.append(f"{path.name}:{node.lineno} in {owner}")
        assert found == []

    # Each family below carries information 4; a caller-chosen step of 2 pi,
    # 1e300 or 0 made these oracles return about 0 or NaN.
    PROBE = tensor(BASIS.superposition(0.5), BALANCED_METER)

    def test_qfi_pure_family(self):
        fam = lambda g: coupling_unitary(SIGMA, SIGMA, g).apply(self.PROBE)
        assert qfi_pure(fam, 0.1) == pytest.approx(4.0, abs=1e-6)

    def test_qfi_mixed_family(self):
        plus = tensor(BASIS.ket0, BALANCED_METER)
        fam = lambda g: DensityMatrix.from_ket(coupling_unitary(SIGMA, SIGMA, g).apply(plus))
        assert qfi_mixed(fam, 0.1) == pytest.approx(4.0, abs=1e-6)

    def test_qfi_spectral_unitary_family(self):
        plus = tensor(BASIS.ket0, BALANCED_METER)
        fam = lambda g: coupling_unitary(SIGMA, SIGMA, g)
        assert qfi_spectral_unitary([1.0], [plus], fam, 0.1) == pytest.approx(4.0, abs=1e-6)


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
            assert qfi_pure(product_family(theta), 0.2) == pytest.approx(got, abs=1e-6)

    def test_mixed_non_diagonal_rejected(self):
        rho = DensityMatrix(
            0.5 * BASIS.superposition(0.3).projector()
            + 0.5 * BASIS.superposition(1.1).projector()
        )
        with pytest.raises(UnsupportedInputError):
            qfi_product_coupling(rho, BALANCED_METER, SIGMA, SIGMA)

    def test_mixed_input_commuting_with_degenerate_A(self):
        # every basis is an eigenbasis of A = 2 I, so any mixed input qualifies
        rho = DensityMatrix(
            0.5 * BASIS.superposition(0.3).projector()
            + 0.5 * BASIS.superposition(1.1).projector()
        )
        doubled = HermitianOperator(2.0 * np.eye(2))
        assert qfi_product_coupling(rho, BALANCED_METER, doubled, SIGMA) == pytest.approx(16.0)

    @pytest.mark.parametrize(
        "system, meter",
        [(tensor(BASIS.ket0, BALANCED_METER), BALANCED_METER),
         (BASIS.ket0, tensor(BASIS.ket0, BALANCED_METER))],
        ids=["system", "meter"],
    )
    def test_non_qubit_input_rejected(self, system, meter):
        with pytest.raises(ContractViolationError, match="system and meter must be qubits"):
            qfi_product_coupling(system, meter, SIGMA, SIGMA)

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


def unitary_family(rng, dim):
    """g -> exp(-i g H) rho0 exp(i g H) for a random H and rho0; rho0's first weight is at
    times scaled under the rank cutoff."""
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    unitary, _ = np.linalg.qr(raw)
    spectrum = rng.dirichlet(np.ones(dim))
    spectrum[0] *= rng.choice([1.0, 1e-11])  # one term under the rank cutoff
    spectrum /= spectrum.sum()
    rho0 = unitary @ np.diag(spectrum) @ unitary.conj().T
    h, hv = np.linalg.eigh(raw + raw.conj().T)

    def family(g):
        u = hv @ np.diag(np.exp(-1j * g * h)) @ hv.conj().T
        return DensityMatrix(u @ rho0 @ u.conj().T)

    return family


def lapack_sld_sum(family, g):
    """The SLD sum over LAPACK eigh of rho(g) and the product V^dag d rho V, as a reference."""
    rho0 = family(g)
    drho = (family(g + STEP).entries - family(g - STEP).entries) / (2.0 * STEP)
    lam, vecs = np.linalg.eigh(rho0.entries)
    lam, cross = lam.tolist(), (vecs.conj().T @ drho @ vecs).tolist()
    total = 0.0
    for li, row in zip(lam, cross):
        for lj, c in zip(lam, row):
            if li + lj > fisher.RANK_CUTOFF:
                total += 2.0 * abs(c) ** 2 / (li + lj)
    return total


class TestQfiMixed:
    def test_constant_family_is_zero(self):
        rho = DensityMatrix.mixture([0.5, 0.5], [BASIS.ket0, BASIS.ket1])
        assert abs(qfi_mixed(lambda g: rho, 0.1)) < 1e-12

    def test_rank_one_consistency(self):
        fam = product_family(np.pi / 6)
        rho_fam = lambda g: DensityMatrix.from_ket(fam(g))
        assert qfi_mixed(rho_fam, 0.3) == pytest.approx(qfi_pure(fam, 0.3), abs=1e-6)

    def test_postselected_incoherent_meter_capped(self):
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

    def test_sld_sum_same_bits_as_the_numpy_loop(self):
        # A 4x4 family keeps LAPACK eigh and the matrix product, bit for bit.
        rng = np.random.default_rng(6)
        for _ in range(50):  # the panel's qubit half: test_qubit_path_agrees_with_the_lapack_loop
            unitary_family(rng, 2)
        dim = 4
        for _ in range(50):
            family = unitary_family(rng, dim)
            lam, vecs = np.linalg.eigh(family(0.0).entries)
            drho = (family(1e-5).entries - family(-1e-5).entries) / 2e-5
            cross = vecs.conj().T @ drho @ vecs
            expected = 0.0
            for i in range(dim):
                for j in range(dim):
                    if lam[i] + lam[j] > 1e-10:
                        expected += 2.0 * abs(cross[i, j]) ** 2 / (lam[i] + lam[j])
            assert qfi_mixed(family, 0.0).hex() == float(expected).hex()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), g=st.floats(-1.0, 1.0))
    @example(seed=6, g=0.0)  # the qubit half of the numpy-loop panel above
    def test_qubit_path_agrees_with_the_lapack_loop(self, seed, g):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            family = unitary_family(rng, 2)
            assert qfi_mixed(family, g) == pytest.approx(lapack_sld_sum(family, g), rel=1e-13)

    @pytest.mark.parametrize("mu", [0.8, 0.5, 0.2])  # kz > 0, r = 0 (rho = I/2), kz < 0
    def test_diagonal_state_closed_form(self, mu):
        # rho(g) = exp(-i g X) diag(mu + g, 1 - mu - g) exp(i g X) is diagonal at g = 0
        # (h10 = 0), where F = 1/mu + 1/(1 - mu) from the populations plus 4 (2 mu - 1)^2
        # from the rotation.
        x = np.array([[0.0, 1.0], [1.0, 0.0]])

        def family(g):
            u = np.cos(g) * np.eye(2) - 1j * np.sin(g) * x
            return DensityMatrix(u @ np.diag([mu + g, 1.0 - mu - g]) @ u.conj().T)

        lam, _ = fisher._qubit_eigen_cross(family(0.0), family(STEP), family(-STEP), 2 * STEP)
        assert lam == pytest.approx([min(mu, 1.0 - mu), max(mu, 1.0 - mu)], abs=1e-16)
        closed = 1.0 / mu + 1.0 / (1.0 - mu) + 4.0 * (2.0 * mu - 1.0) ** 2
        assert qfi_mixed(family, 0.0) == pytest.approx(closed, rel=1e-9)
        assert qfi_mixed(family, 0.0) == pytest.approx(lapack_sld_sum(family, 0.0), rel=1e-13)

    @pytest.mark.parametrize("t", [0.3, 1.2])  # kz > 0 and kz < 0
    def test_pure_state_drops_the_null_term(self, t):
        # |psi(g)> = exp(-i g X)(cos t|0> + sin t|1>) carries F = 4 (1 - <X>^2) = 4 cos^2 2t;
        # its zero eigenvalue's own term falls under the rank cutoff.
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        psi = np.array([np.cos(t), np.sin(t)])

        def family(g):
            return DensityMatrix.from_ket(Ket((np.cos(g) * np.eye(2) - 1j * np.sin(g) * x) @ psi))

        g = 0.1
        lam, _ = fisher._qubit_eigen_cross(family(g), family(g + STEP), family(g - STEP), 2 * STEP)
        assert 2.0 * lam[0] <= fisher.RANK_CUTOFF < lam[0] + lam[1]
        assert qfi_mixed(family, g) == pytest.approx(4.0 * np.cos(2.0 * t) ** 2, rel=1e-9)
        assert qfi_mixed(family, g) == pytest.approx(lapack_sld_sum(family, g), rel=1e-13)

    @pytest.mark.parametrize("dims", [(2, 4, 4), (2, 4, 2), (2, 2, 4), (4, 2, 2), (4, 4, 2)])
    def test_mixed_dimensions_fail_as_the_lapack_loop(self, dims):
        states = {2: DensityMatrix(np.eye(2) / 2.0), 4: DensityMatrix(np.eye(4) / 4.0)}
        calls = []

        def family(g):
            calls.append(g)
            return states[dims[len(calls) - 1]]

        with pytest.raises(ValueError) as expected:
            lapack_sld_sum(family, 0.1)
        calls.clear()
        with pytest.raises(ValueError) as got:
            qfi_mixed(family, 0.1)
        assert str(got.value) == str(expected.value)
        assert calls == [0.1, 0.1 + STEP, 0.1 - STEP]  # g, g + STEP, g - STEP, as before

    def test_postselected_panel_as_accurate_as_the_lapack_loop(self):
        # Seeded mixed inputs in the oracle's trusted region: g >= 1e-3 and a smaller
        # eigenvalue of the collapsed state above 1e-8.
        rng = np.random.default_rng(4)
        worst = {"qubit": 0.0, "lapack": 0.0}
        checked = 0
        for _ in range(1000):
            r = rng.normal(size=3)
            r *= 0.99 * rng.uniform() ** (1.0 / 3.0) / np.linalg.norm(r)
            rho = DensityMatrix(0.5 * np.array([[1 + r[2], r[0] - 1j * r[1]],
                                                [r[0] + 1j * r[1], 1 - r[2]]]))
            psi_sf = Ket(rng.normal(size=2) + 1j * rng.normal(size=2))
            g = 10.0 ** rng.uniform(-3.0, 0.0)
            try:
                setup = WvaSetup(rho, psi_sf, BALANCED_METER, SIGMA, SIGMA, g)
                exact, family = fm_exact(setup), postselected_meter_family(setup)
                if np.linalg.eigvalsh(family(g).entries)[0] <= 1e-8:
                    continue
                values = {"qubit": qfi_mixed(family, g), "lapack": lapack_sld_sum(family, g)}
            except WvaError:
                continue
            checked += 1
            for path, value in values.items():
                worst[path] = max(worst[path], abs(value - exact) / exact)
        assert checked > 900
        # The two worsts sit about 1e-6 relative apart, an order that eigen rounding
        # decides; the margin keeps the claim while letting another LAPACK build round.
        assert worst["qubit"] <= worst["lapack"] * (1 + 1e-3)
        assert max(worst.values()) < 1e-6


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

    @pytest.mark.parametrize("weights, count", [([1.0], 2), ([0.5, 0.5], 1), ([], 0)])
    def test_weights_and_vectors_must_match(self, weights, count):
        vectors = [tensor(BASIS.ket0, BALANCED_METER), tensor(BASIS.ket1, BALANCED_METER)][:count]
        u_fam = lambda g: coupling_unitary(SIGMA, SIGMA, g)
        with pytest.raises(ContractViolationError, match="lambdas/vectors mismatch"):
            qfi_spectral_unitary(weights, vectors, u_fam, 0.1)

    @pytest.mark.parametrize("weights", [[0.5, 0.4], [1.2, -0.2], [0.7, 0.7]])
    def test_weights_must_be_a_distribution(self, weights):
        vectors = [tensor(BASIS.ket0, BALANCED_METER), tensor(BASIS.ket1, BALANCED_METER)]
        u_fam = lambda g: coupling_unitary(SIGMA, SIGMA, g)
        with pytest.raises(ContractViolationError, match="weights must be a distribution"):
            qfi_spectral_unitary(weights, vectors, u_fam, 0.1)

    def test_non_orthonormal_rejected(self):
        u_fam = lambda g: coupling_unitary(SIGMA, SIGMA, g)
        vectors = [tensor(BASIS.ket0, BALANCED_METER), tensor(BASIS.ket0, BALANCED_METER)]
        with pytest.raises(ContractViolationError):
            qfi_spectral_unitary([0.5, 0.5], vectors, u_fam, 0.1)


def linear_binomial(g):
    """q = (1 + g)/2 with its exact slope."""
    return [(1.0 - g) / 2.0, (1.0 + g) / 2.0], [-0.5, 0.5]


class TestCfiDiscrete:
    def test_linear_binomial(self):
        # binomial information q'^2 / (q (1-q)) = (1/4) / (1/4) = 1 at g = 0
        assert cfi_discrete(linear_binomial, 0.0) == 1.0
        # (1/2)^2 / q + (1/2)^2 / (1 - q) at q = 0.6
        expected = 0.25 / 0.6 + 0.25 / 0.4
        assert cfi_discrete(linear_binomial, 0.2) == pytest.approx(expected, rel=1e-15)

    def test_one_law_evaluation(self):
        calls = []
        law = lambda g: calls.append(g) or linear_binomial(g)
        cfi_discrete(law, 0.2)
        assert calls == [0.2]

    def test_returns_python_float(self):
        assert type(cfi_discrete(linear_binomial, 0.1)) is float
        law = lambda g: (np.array([0.25, 0.75]), np.array([0.5, -0.5]))
        assert type(cfi_discrete(law, 0.1)) is float

    def test_constant_law_is_zero(self):
        assert cfi_discrete(lambda g: ([0.25, 0.75], [0.0, 0.0]), 0.1) == 0.0

    def test_conditional_readout_saturates_leading_order(self):
        law = conditional_outcome_model(np.pi / 6, -np.pi / 6)
        assert cfi_discrete(law, 1e-3) == pytest.approx(16.0, rel=0.01)

    def test_distribution_validated(self):
        with pytest.raises(ContractViolationError, match="^cfi_discrete: .* must sum to 1$"):
            cfi_discrete(lambda g: ([0.5, 0.4], [0.0, 0.0]), 0.0)

    def test_non_finite_distribution_rejected(self):
        with pytest.raises(ContractViolationError, match="^cfi_discrete: .* must be finite$"):
            cfi_discrete(lambda g: ([np.nan, 0.5], [0.0, 0.0]), 0.0)

    @pytest.mark.parametrize("slope", [[0.1], [np.nan, 0.0], [np.inf, -np.inf]])
    def test_malformed_derivative_rejected(self, slope):
        with pytest.raises(ContractViolationError, match="cfi_discrete: derivative"):
            cfi_discrete(lambda g: ([0.5, 0.5], slope), 0.0)

    @pytest.mark.parametrize("zero", [0.0, -0.0, -1e-13])
    def test_zero_probability_outcome_is_skipped(self, zero):
        # -1e-13 is inside the 1e-12 range tolerance and is clipped to 0
        assert cfi_discrete(lambda g: ([zero, 1.0 - zero], [1.0, -1.0]), 0.0) == 1.0

    @pytest.mark.parametrize("rare", [1e-13, 1e-20, 1e-300])
    def test_rare_outcome_keeps_its_term(self, rare):
        # (d p)^2 / p = 100 for the rare outcome; its partner adds 100 * rare / (1 - rare)
        slope = 10.0 * np.sqrt(rare)
        value = cfi_discrete(lambda g: ([rare, 1.0 - rare], [slope, -slope]), 0.0)
        assert value == pytest.approx(100.0, rel=1e-12)


def _numpy_distribution(probabilities):
    """The numpy outcome checks the scalar ones replaced, kept as their oracle."""
    p = np.asarray(probabilities, dtype=float).reshape(-1)
    if p.size == 0:
        raise ContractViolationError("cfi_discrete: empty distribution")
    if not np.isfinite(p).all():
        raise ContractViolationError("cfi_discrete: probabilities must be finite")
    if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
        raise ContractViolationError("cfi_discrete: probability outside [0, 1]")
    if abs(p.sum() - 1.0) > 1e-12:
        raise ContractViolationError("cfi_discrete: probabilities must sum to 1")
    return np.clip(p, 0.0, 1.0)


def _numpy_cfi(law, g):
    """The numpy cfi_discrete body the scalar one replaced, skipping only p_k == 0."""
    probabilities, slope = law(g)
    p0 = _numpy_distribution(probabilities)
    dp = np.asarray(slope, dtype=float).reshape(-1)
    if dp.size != p0.size:
        raise ContractViolationError("cfi_discrete: derivative and distribution sizes differ")
    if not np.isfinite(dp).all():
        raise ContractViolationError("cfi_discrete: derivative must be finite")
    total = 0.0
    for k in range(p0.size):
        if p0[k] == 0.0:
            continue
        total += dp[k] ** 2 / p0[k]
    if not np.isfinite(total):  # where numpy overflowed to inf, the library raises
        raise ContractViolationError("cfi_discrete: information overflows the float range")
    return float(total)


def _outcome(call):
    """A float's bits, an array's bytes, or the exception type and message."""
    try:
        with np.errstate(over="ignore"):
            value = call()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)
    return value.hex() if isinstance(value, float) else value.tobytes()


def _distributions(seed):
    """Seeded distributions, the 1e-12 range and sum edges, non-finite entries, bad sizes."""
    rng = np.random.default_rng(seed)
    out = [rng.dirichlet(np.ones(k)) for k in rng.integers(1, 6, size=200)]
    for edge in (-1e-12, 1.0 + 1e-12):  # one entry either side of the range edge
        for factor in (1.0 - 1e-4, 1.0, 1.0 + 1e-4):
            value = edge * factor if edge < 0 else 1.0 + (edge - 1.0) * factor
            out.append(np.array([value, 1.0 - value]))
    for excess in (1e-12 * (1.0 - 1e-3), 1e-12 * (1.0 + 1e-3)):  # sum either side of 1 +- 1e-12
        out += [np.array([0.3, 0.7 + excess]), np.array([0.3, 0.7 - excess])]
    for magnitude in 10.0 ** np.arange(-300.0, 301.0, 50.0):
        out += [np.array([magnitude, 1.0 - magnitude]), np.array([1.0, magnitude])]
    base = rng.dirichlet(np.ones(3))
    for k in range(3):
        for bad in (np.nan, np.inf, -np.inf):
            p = base.copy()
            p[k] = bad
            out.append(p)
    out += [np.array([-0.0, 1.0]), np.array([]), [[0.25, 0.25], [0.25, 0.25]]]
    # a tuple of Python floats, as a law returns, skips the array conversion
    out += [tuple(np.asarray(p, dtype=float).ravel().tolist()) for p in out[::7]]
    return out


def _long_distributions(seed):
    """Laws of 8 outcomes and more, which numpy sums pairwise; half a sum edge away from 1."""
    rng = np.random.default_rng(seed)
    out = []
    for k in (*rng.integers(8, 300, size=20), 8, 128, 129, 136, 1000):
        p = rng.dirichlet(np.ones(k))
        out += [p, tuple((p * (1.0 + 1e-12 * rng.uniform(0.9, 1.1))).tolist())]
    return out


class TestScalarOutcomeChecks:
    """The outcome checks and the CFI sum agree bit for bit with the numpy code they replaced."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_distribution_same_bytes_exception_type_and_message(self, seed):
        messages = set()
        for p in [*_distributions(seed), *_long_distributions(seed)]:
            expected = _outcome(lambda: _numpy_distribution(p))
            assert _outcome(lambda: np.array(fisher._distribution(p))) == expected, p
            messages.add(expected[1] if isinstance(expected, tuple) else "accepted")
        assert messages == {
            "accepted",
            "cfi_discrete: empty distribution",
            "cfi_discrete: probabilities must be finite",
            "cfi_discrete: probability outside [0, 1]",
            "cfi_discrete: probabilities must sum to 1",
        }

    @pytest.mark.parametrize("seed", [3, 4])
    def test_cfi_same_bits_exception_type_and_message(self, seed):
        rng = np.random.default_rng(seed)
        messages = set()
        for p in _distributions(seed):
            size = np.asarray(p).size
            slopes = [rng.normal(size=size) * 10.0 ** rng.uniform(-300.0, 300.0),
                      rng.normal(size=size + 1)]
            for k in range(size):
                for bad in (np.nan, np.inf, -np.inf):
                    slope = rng.normal(size=size)
                    slope[k] = bad
                    slopes.append(slope)
            for slope in slopes:
                law = lambda g: (p, slope)
                expected = _outcome(lambda: _numpy_cfi(law, 0.0))
                assert _outcome(lambda: cfi_discrete(law, 0.0)) == expected, (p, slope)
                messages.add(expected[1] if isinstance(expected, tuple) else "accepted")
        assert {
            "accepted",
            "cfi_discrete: derivative and distribution sizes differ",
            "cfi_discrete: derivative must be finite",
            "cfi_discrete: information overflows the float range",
        } <= messages

    @settings(max_examples=300, deadline=None)
    @given(
        size=st.one_of(st.integers(1, 16), st.integers(1, 300)),
        seed=st.integers(0, 2**32 - 1),
        excess=st.one_of(
            st.floats(-2e-12, 2e-12),
            st.builds(lambda side, ulps: side * 1e-12 + ulps * 2.0**-52,
                      st.sampled_from([-1.0, 1.0]), st.integers(-16, 16)),
        ),
        negative=st.sampled_from([None, -0.0, -5e-13, -2e-12]),
        as_tuple=st.booleans(),
    )
    # at 8 values numpy's pairwise sum first departs from left to right; here the two decide apart
    @example(size=8, seed=0, excess=1e-12 - 2.0**-52, negative=None, as_tuple=True)
    @example(size=8, seed=1, excess=-1e-12 - 2.0**-52, negative=None, as_tuple=False)
    def test_distribution_is_numpys_at_every_length(self, size, seed, excess, negative, as_tuple):
        # sums within 2e-12 of 1 straddle the 1e-12 accept/reject line, some within a few
        # ulps of it, where the summation order decides; a moved-out entry straddles the
        # range edge at -1e-12, and a law of size 1 the edge at 1
        p = np.random.default_rng(seed).dirichlet(np.ones(size)) * (1.0 + excess)
        if negative is not None and size > 1:
            p[-1] += p[0] - negative
            p[0] = negative
        law = tuple(p.tolist()) if as_tuple else p
        expected = _outcome(lambda: _numpy_distribution(law))
        assert _outcome(lambda: np.array(fisher._distribution(law))) == expected

    def test_readout_models_same_bits(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            theta, alpha = rng.uniform(0.01, np.pi / 4.0), rng.uniform(-1.5, 1.5)
            g = 10.0 ** rng.uniform(-6.0, 0.0)
            law = conditional_outcome_model(theta, alpha)
            expected = _outcome(lambda: _numpy_cfi(law, g))
            assert _outcome(lambda: cfi_discrete(law, g)) == expected

    @pytest.mark.parametrize(
        "probabilities, slope",
        [
            ([0.5, 0.5], [1e200, -1e200]),  # dk ** 2 overflows
            ([1e-12, 1.0 - 1e-12], [1e150, -1e150]),  # dk ** 2 / pk overflows
            ([0.5, 0.5], [7e153, -7e153]),  # each term is finite, their sum is not
        ],
    )
    def test_overflowing_information_raises(self, probabilities, slope):
        with pytest.raises(ContractViolationError, match="overflows the float range"):
            cfi_discrete(lambda g: (np.array(probabilities), np.array(slope)), 0.0)


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

    def test_data_processing_inequality(self):
        for theta, alpha, g in [
            (np.pi / 6, -np.pi / 6, 0.0349),
            (np.pi / 6, -np.pi / 4, 0.02),
            (np.pi / 8, 0.4, 0.05),
        ]:
            setup = real_superposition_setup(theta, alpha, g)
            meter_qfi = qfi_pure(lambda gp: postselect(setup.at(gp)).phi_mf, g)
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
