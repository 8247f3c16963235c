"""Exact linear-algebra layer: construction invariants, operations, geometry."""

import dataclasses
import math
import sys
import threading
import time
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from wva_costlab import (
    BlochVector,
    ContractViolationError,
    DensityMatrix,
    HermitianOperator,
    Ket,
    ModelDimensionError,
    ReferenceBasis,
    UnitaryOperator,
    bloch_angle,
    bloch_of,
    coupling_unitary,
    hermitian_eigs,
    overlap_sq,
    tensor,
)
from wva_costlab.costs import (
    UNIT_RATES,
    CostPoint,
    CostRates,
    boundary_curve,
    bound_rhs,
    cost_point,
    l1_coherence,
    leading_costs,
    preparation_coherence,
    tradeoff_slack,
)
from wva_costlab.experiment import (
    ExperimentConfig,
    FixedPostselected,
    TrialCounts,
    conditional_outcome_model,
    hwp_settings,
    mle_g,
)
from wva_costlab.postselect import (
    WvaSetup,
    fm_exact,
    fm_leading,
    in_weak_regime,
    near_orthogonal_postselection,
    postselect,
    postselect_mixed,
    postselected_meter_family,
    probabilistic_qfi,
    real_superposition_setup,
    weak_regime_margin,
)
from wva_costlab.states import (
    METER_MINUS,
    METER_PLUS,
    STANDARD_BASIS,
    STANDARD_SIGMA,
    check_count,
    finite_real,
)

BASIS = ReferenceBasis.standard()

SIGMA_Y = HermitianOperator(np.array([[0, -1j], [1j, 0]]))
SIGMA_Z = HermitianOperator(np.array([[1, 0], [0, -1]], dtype=complex))


def random_hermitian(rng, dim=2):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator((raw + raw.conj().T) / 2.0)


def random_kets(dim=2):
    """Strategy producing normalized random kets of the given dimension."""
    finite = st.floats(-5, 5, allow_nan=False, allow_infinity=False)
    return st.tuples(*([finite] * (2 * dim))).filter(
        lambda xs: np.linalg.norm(np.asarray(xs[:dim]) + 1j * np.asarray(xs[dim:])) > 1e-3
    ).map(lambda xs: Ket(np.asarray(xs[:dim]) + 1j * np.asarray(xs[dim:])))


class TestTypes:
    def test_ket_normalizes(self):
        k = Ket(np.array([3.0, 4.0]))
        assert np.allclose(k.amplitudes, [0.6, 0.8])
        assert abs(np.linalg.norm(k.amplitudes) - 1.0) < 1e-12

    def test_ket_rejects_null_and_bad_dims(self):
        with pytest.raises(ContractViolationError):
            Ket(np.zeros(2))
        with pytest.raises(ModelDimensionError):
            Ket(np.ones(3))

    def test_mixture_of_kets_of_different_sizes_rejected(self):
        # a qubit and a two-qubit ket used to end in numpy's broadcast ValueError
        qubit = STANDARD_BASIS.ket0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelDimensionError, match="one dimension"):
                DensityMatrix.mixture([0.5, 0.5], [qubit, tensor(qubit, STANDARD_BASIS.ket1)])
        assert DensityMatrix.mixture([1.0], [tensor(qubit, qubit)]).dim == 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_ket_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ContractViolationError, match="finite"):
            Ket(np.array([1.0, bad]))

    @pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
    def test_superposition_rejects_non_finite_angle(self, angle):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from np.cos(inf)
            with pytest.raises(ContractViolationError, match="finite"):
                BASIS.superposition(angle)

    def test_ket_amplitudes_readonly(self):
        k = Ket(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            k.amplitudes[0] = 0.0

    def test_hermitian_validation(self):
        with pytest.raises(ContractViolationError):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_unitary_validation(self):
        UnitaryOperator(np.eye(2))
        with pytest.raises(ContractViolationError):
            UnitaryOperator(np.array([[1.0, 0.0], [0.0, 2.0]]))
        # finite entries whose U U† overflows: rejected, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError, match="not unitary"):
                UnitaryOperator(np.array([[0.5, 1.5e308 + 1.5e308j], [0, 0.5]]))

    def test_density_matrix_validation(self):
        DensityMatrix(np.eye(2) / 2.0)
        with pytest.raises(ContractViolationError):
            DensityMatrix(np.eye(2))  # trace 2
        with pytest.raises(ContractViolationError):
            DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_hermitian_rejects_non_finite_entries(self, bad):
        with pytest.raises(ContractViolationError, match="finite"):
            HermitianOperator(np.array([[bad, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_unitary_rejects_non_finite_entries(self, bad):
        with pytest.raises(ContractViolationError, match="finite"):
            UnitaryOperator(np.array([[1.0, 0.0], [0.0, bad]]))

    @pytest.mark.parametrize("lowest, accepted", [(-2e-10, False), (-5e-11, True)])
    def test_qubit_positivity_floor_matches_eigvalsh(self, lowest, accepted):
        # diag(1 - lowest, lowest) in a complex basis: the closed-form
        # eigenvalue sits on the same side of the floor as eigvalsh's
        a, b = Ket(np.array([0.6, 0.8j])), Ket(np.array([0.8, -0.6j]))
        reflection = a.projector() - b.projector()
        mat = reflection @ np.diag([1.0 - lowest, lowest]) @ reflection
        assert np.min(np.linalg.eigvalsh(mat)) == pytest.approx(lowest, abs=1e-15)
        if accepted:
            DensityMatrix(mat)
        else:
            with pytest.raises(ContractViolationError, match="negative eigenvalue"):
                DensityMatrix(mat)

    def test_two_qubit_positivity_still_checked(self):
        with pytest.raises(ContractViolationError, match="negative eigenvalue"):
            DensityMatrix(np.diag([0.5, 0.5 + 2e-10, 0.0, -2e-10]))
        DensityMatrix(np.diag([0.5, 0.5 + 5e-11, 0.0, -5e-11]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_density_matrix_rejects_non_finite_entries(self, bad):
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # nan * 0 off the support is the input here
            entries = 0.5 * (np.eye(2) + bad * sigma_x)
        with pytest.raises(ContractViolationError, match="finite"):
            DensityMatrix(entries)

    def test_reference_basis_orthogonality(self):
        with pytest.raises(ContractViolationError):
            ReferenceBasis(Ket(np.array([1.0, 0.0])), Ket(np.array([1.0, 1.0])))

    def test_bloch_vector_norm_cap(self):
        with pytest.raises(ContractViolationError):
            BlochVector(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("big", [1e200, -1e200, 1e155, 1.7e308, 1.0 + 2e-12])
    def test_bloch_vector_large_component_rejected_before_the_norm(self, big):
        # squaring 1e200 overflows, so a norm-first check ended in an OverflowError
        for components in ((big, 0.0, 0.0), (0.0, big, 0.0), (0.0, 0.0, big)):
            with pytest.raises(ContractViolationError, match="norm exceeds 1"):
                BlochVector(*components)

    def test_bloch_vector_edge_unmoved(self):
        edge = 1.0 + 1e-12
        assert BlochVector(edge, 0.0, 0.0).norm() == edge
        assert BlochVector(0.0, -edge, 0.0).r2 == -edge
        with pytest.raises(ContractViolationError, match="norm exceeds 1"):
            BlochVector(math.nextafter(edge, 2.0), 0.0, 0.0)
        with pytest.raises(ContractViolationError, match="norm exceeds 1"):
            BlochVector(0.8, 0.0, 0.6 + 1e-11)  # every component below the edge, the norm above


class TestTensor:
    def test_product_basis_vector(self):
        up = BASIS.ket0
        out = tensor(BASIS.ket0, up)
        assert np.allclose(out.amplitudes, [1, 0, 0, 0])

    def test_identity_tensor_identity(self):
        ident = HermitianOperator(np.eye(2))
        assert np.allclose(tensor(ident, ident).entries, np.eye(4))

    def test_diag_kronecker_expansion(self):
        # hand expansion: diag(1,-1) (x) diag(1,-1) = diag(1,-1,-1,1)
        sz = BASIS.sigma()
        assert np.allclose(tensor(sz, sz).entries, np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_dimension_mismatch_rejected(self):
        four = Ket(np.array([1.0, 0, 0, 0]))
        with pytest.raises(ModelDimensionError):
            tensor(four, BASIS.ket0)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ContractViolationError):
            tensor(BASIS.ket0, BASIS.sigma())


class TestCouplingUnitary:
    def test_zero_coupling_is_identity(self):
        u = coupling_unitary(SIGMA_Y, SIGMA_Z, 0.0)
        assert np.max(np.abs(u.entries - np.eye(4))) < 1e-12

    def test_quarter_turn_power_series(self):
        # (A (x) M)^2 = I makes exp(-i pi/2 A (x) M) = -i A (x) M exactly
        generator = np.kron(SIGMA_Y.entries, SIGMA_Z.entries)
        u = coupling_unitary(SIGMA_Y, SIGMA_Z, np.pi / 2.0)
        assert np.max(np.abs(u.entries - (-1j) * generator)) < 1e-10

    def test_involutory_closed_form(self):
        # for involutory generators the series collapses to cos g I - i sin g A(x)M
        g = 0.0349
        generator = np.kron(SIGMA_Y.entries, SIGMA_Z.entries)
        expected = np.cos(g) * np.eye(4) - 1j * np.sin(g) * generator
        u = coupling_unitary(SIGMA_Y, SIGMA_Z, g)
        assert np.max(np.abs(u.entries - expected)) < 1e-10

    def test_inverse_composition(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = rng.uniform(-np.pi, np.pi)
            forward = coupling_unitary(SIGMA_Y, SIGMA_Z, g)
            backward = coupling_unitary(SIGMA_Y, SIGMA_Z, -g)
            assert np.max(np.abs(forward.entries @ backward.entries - np.eye(4))) < 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(ContractViolationError):
            coupling_unitary(np.array([[0.0, 1.0], [0.0, 0.0]]), SIGMA_Z, 0.1)

    def test_plain_hermitian_arrays_rejected(self):
        # only HermitianOperators are observables; an array is never converted
        with pytest.raises(ContractViolationError, match="HermitianOperators"):
            coupling_unitary(SIGMA_Y.entries, SIGMA_Z, 0.1)
        with pytest.raises(ContractViolationError, match="HermitianOperators"):
            coupling_unitary(SIGMA_Y, np.diag([1.0, -1.0]), 0.1)

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(11)
        degenerate = HermitianOperator(0.7 * np.eye(2))
        for k in range(20):
            A = degenerate if k == 0 else random_hermitian(rng)
            M = random_hermitian(rng)
            g = rng.uniform(-2.0, 2.0)
            expected = scipy.linalg.expm(-1j * g * np.kron(A.entries, M.entries))
            assert np.max(np.abs(coupling_unitary(A, M, g).entries - expected)) < 1e-12


class TestSharedConstants:
    def test_standard_basis_is_shared(self):
        assert ReferenceBasis.standard() is STANDARD_BASIS
        assert np.array_equal(STANDARD_SIGMA.entries, np.diag([1.0, -1.0]))
        assert np.allclose(METER_PLUS.amplitudes, np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert np.allclose(METER_MINUS.amplitudes, np.array([1.0, -1.0]) / np.sqrt(2.0))

    @pytest.mark.parametrize(
        "array",
        [
            STANDARD_BASIS.ket0.amplitudes,
            STANDARD_BASIS.ket1.amplitudes,
            STANDARD_SIGMA.entries,
            METER_PLUS.amplitudes,
            METER_MINUS.amplitudes,
        ],
    )
    def test_arrays_are_read_only(self, array):
        with pytest.raises(ValueError):
            array[0] = 0.5


class TestFiniteReal:
    """One decision of "finite real", which a big integer cannot escape."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: BASIS.superposition(2**1100), "superposition: angle must be finite"),
            (lambda: BlochVector(2**1100, 0, 0), "BlochVector: components must be finite"),
            (lambda: leading_costs(0.5, 2**1100), "leading_costs: alpha must be finite"),
            (lambda: hwp_settings(0.5, 0.1, 2**1100), "hwp_settings: g must be finite"),
            (lambda: real_superposition_setup(0.5, 0.1, 2**1100),
             "WvaSetup: coupling strength g must be finite"),
            (lambda: preparation_coherence(2**1100),
             r"preparation_coherence: theta must lie in \(0, pi/4\]"),
        ],
        ids=["superposition", "BlochVector", "leading_costs", "hwp_settings",
             "real_superposition_setup", "preparation_coherence"],
    )
    def test_integer_beyond_the_float_range_is_not_finite(self, call, message):
        # float() and math.isfinite overflow on such an integer
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError, match=message):
                call()

    def test_integer_inside_the_float_range_is_its_float(self):
        # numpy's cos takes no Python int beyond int64, so the angle must reach it as a float
        big = 2**70
        assert BASIS.superposition(big) == BASIS.superposition(float(big))
        setup = real_superposition_setup(0.5, big, 0.01)
        assert setup.psi_sf == BASIS.superposition(float(big))

    def test_floats_keep_their_bits(self):
        rng = np.random.default_rng(3)
        scaled = rng.normal(size=50) * 10.0 ** rng.integers(-300, 300, size=50)
        values = [0.0, -0.0, 5e-324, -1.7976931348623157e308, *scaled]
        for x in values:
            assert finite_real(x, "x").hex() == float(x).hex()
            assert finite_real(np.float64(x), "x").hex() == float(x).hex()
            assert type(finite_real(np.float64(x), "x")) is float
        assert finite_real(3, "x") == 3.0 and type(finite_real(3, "x")) is float

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, 2**1024, -(2**1100)],
        ids=["nan", "inf", "-inf", "2**1024", "-2**1100"],
    )
    def test_not_finite_raises(self, bad):
        with pytest.raises(ContractViolationError, match="^x must be finite$"):
            finite_real(bad, "x")
        with pytest.raises(ContractViolationError, match="^where: x must be finite$"):
            finite_real(bad, "where", "x")

    @pytest.mark.parametrize(
        "bad", [1j, 0j, np.complex128(0.5), None, "0.5", b"0.5", True, False, np.bool_(True)],
        ids=["complex", "complex-zero", "numpy-complex-real-valued", "None", "str", "bytes",
             "True", "False", "numpy-bool"],
    )
    def test_not_real_raises(self, bad):
        # a complex with a zero imaginary part is not real, a string is never parsed, and a
        # bool is no real number although it is a numbers.Real (check_count rejects it too)
        with pytest.raises(ContractViolationError, match="^where: x must be real$"):
            finite_real(bad, "where", "x")

    @pytest.mark.parametrize(
        "call",
        [
            lambda: leading_costs(0.5, 1j),
            lambda: real_superposition_setup(0.5, 0.1, 1j),
            lambda: real_superposition_setup("0.5", 0.1, 0.01),
            lambda: real_superposition_setup(None, 0.1, 0.01),
            lambda: real_superposition_setup(0.5, np.complex128(0.1 + 5j), 0.01),
            lambda: boundary_curve(None),
            lambda: BlochVector(None, 0, 0),
            lambda: hwp_settings(0.5, 0.1, "0.1"),
            lambda: ExperimentConfig(None, 0.1, 0.01, FixedPostselected(5), 2, 1),
            lambda: mle_g(TrialCounts(10, 10, 5, 5), 0.5, 1j),
            lambda: conditional_outcome_model(0.5, "x"),
            lambda: preparation_coherence(1j),
            lambda: bound_rhs("0.5"),
            lambda: tradeoff_slack(cost_point(4.0, 1.0, 4.0, UNIT_RATES), None),
            lambda: CostRates("1", 1, 1),
            lambda: cost_point(4.0, "1", 1.0, UNIT_RATES),
            lambda: CostPoint(1.0, 0.5, 1.0, 0.5, 1j),
            lambda: real_superposition_setup(0.5, 0.1, True),
            lambda: real_superposition_setup(True, 0.1, 0.01),
            lambda: leading_costs(0.5, False),
            lambda: hwp_settings(0.5, 0.1, False),
            lambda: mle_g(TrialCounts(10, 10, 5, 5), True, 0.1),
            lambda: preparation_coherence(True),
            lambda: bound_rhs(True),
            lambda: cost_point(4.0, 1.0, True, UNIT_RATES),
        ],
        ids=[
            "leading_costs", "real_superposition_setup-g", "real_superposition_setup-theta-str",
            "real_superposition_setup-theta-None", "real_superposition_setup-alpha-numpy-complex",
            "boundary_curve", "BlochVector", "hwp_settings", "ExperimentConfig", "mle_g",
            "conditional_outcome_model", "preparation_coherence", "bound_rhs", "tradeoff_slack",
            "CostRates", "cost_point", "CostPoint", "real_superposition_setup-g-True",
            "real_superposition_setup-theta-True", "leading_costs-False", "hwp_settings-False",
            "mle_g-True", "preparation_coherence-True", "bound_rhs-True", "cost_point-True",
        ],
    )
    def test_scenario_entry_points_reject_non_real_scalars(self, call):
        # not a bare TypeError, and a numpy complex is not cast to its real part with a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError, match="must be real$"):
                call()


class TestCheckCount:
    """Counts are Python or numpy integers, never bool, at least ``minimum``."""

    class Count(int):
        pass

    @pytest.mark.parametrize(
        "good", [0, 1, 2**70, np.int8(0), np.int64(7), np.uint64(2**64 - 1), Count(3)],
        ids=["zero", "one", "2**70", "int8", "int64", "uint64-max", "int-subclass"],
    )
    def test_integers_at_the_minimum_or_above_come_back_unchanged(self, good):
        assert check_count(good, "n", minimum=0) is good

    @pytest.mark.parametrize(
        "bad", [True, False, np.bool_(True), 3.0, np.float64(3.0), "3", None, 3 + 0j],
        ids=["True", "False", "numpy-bool", "float", "numpy-float", "str", "None", "complex"],
    )
    def test_non_integers_rejected_even_above_the_minimum(self, bad):
        with pytest.raises(ContractViolationError, match="^n must be an integer$"):
            check_count(bad, "n", minimum=0)

    @pytest.mark.parametrize("low", [0, -1, np.int64(0), np.uint8(0), Count(0)],
                             ids=["zero", "minus-one", "int64", "uint8", "int-subclass"])
    def test_below_the_minimum_rejected(self, low):
        with pytest.raises(ContractViolationError, match="^n must be >= 1$"):
            check_count(low, "n")


class TestBlochGeometry:
    def test_basis_state_points_north(self):
        r = bloch_of(BASIS.ket0, BASIS)
        assert np.allclose([r.r1, r.r2, r.r3], [0, 0, 1], atol=1e-12)

    def test_real_superposition_pi_over_8(self):
        r = bloch_of(BASIS.superposition(np.pi / 8.0), BASIS)
        expected = (np.sin(np.pi / 4.0), 0.0, np.cos(np.pi / 4.0))
        assert np.allclose([r.r1, r.r2, r.r3], expected, atol=1e-12)
        assert abs(r.r1 - 0.70711) < 5e-6 and abs(r.r3 - 0.70711) < 5e-6

    def test_real_superposition_pi_over_6(self):
        r = bloch_of(BASIS.superposition(np.pi / 6.0), BASIS)
        assert np.allclose([r.r1, r.r2, r.r3], [np.sin(np.pi / 3.0), 0.0, 0.5], atol=1e-12)

    def test_overlap_examples(self):
        a = BASIS.superposition(np.pi / 6.0)
        b = BASIS.superposition(np.pi / 3.0)
        assert overlap_sq(a, a) == pytest.approx(1.0, abs=1e-12)
        assert overlap_sq(BASIS.ket0, BASIS.ket1) == pytest.approx(0.0, abs=1e-12)
        # direct inner product: cos(pi/3 - pi/6)^2 = cos(pi/6)^2 = 3/4
        assert overlap_sq(a, b) == pytest.approx(0.75, abs=1e-12)

    def test_overlap_dim_mismatch(self):
        with pytest.raises(ModelDimensionError):
            overlap_sq(BASIS.ket0, Ket(np.array([1.0, 0, 0, 0])))

    def test_bloch_angle_examples(self):
        north = BlochVector(0.0, 0.0, 1.0)
        south = BlochVector(0.0, 0.0, -1.0)
        assert bloch_angle(north, north) == 0.0
        assert bloch_angle(north, south) == pytest.approx(np.pi, abs=1e-12)
        s, c = np.sin(np.pi / 3.0), np.cos(np.pi / 3.0)
        # dot = cos^2 - sin^2 = cos(2 pi/3); angle = 2 pi / 3
        angle = bloch_angle(BlochVector(s, 0, c), BlochVector(-s, 0, c))
        assert angle == pytest.approx(2.0 * np.pi / 3.0, abs=1e-12)
        assert abs(angle - 2.0944) < 1e-4

    def test_bloch_angle_requires_unit_vectors(self):
        with pytest.raises(ContractViolationError):
            bloch_angle(BlochVector(0.5, 0, 0), BlochVector(0, 0, 1.0))

    @settings(max_examples=150, deadline=None)
    @given(random_kets(), random_kets())
    def test_overlap_equals_bloch_half_angle(self, a, b):
        angle = bloch_angle(bloch_of(a, BASIS), bloch_of(b, BASIS))
        assert overlap_sq(a, b) == pytest.approx(np.cos(angle / 2.0) ** 2, abs=1e-10)


class TestHermitianEigs:
    def test_diagonal_spectrum(self):
        vals, vecs = hermitian_eigs(BASIS.sigma())
        assert np.allclose(vals, [1.0, -1.0])
        assert np.allclose(np.abs(vecs[0].amplitudes), [1.0, 0.0])
        assert np.allclose(np.abs(vecs[1].amplitudes), [0.0, 1.0])

    def test_sigma_y_spectrum(self):
        vals, vecs = hermitian_eigs(SIGMA_Y)
        assert np.allclose(vals, [1.0, -1.0])
        plus = np.array([1.0, 1j]) / np.sqrt(2.0)
        minus = np.array([1.0, -1j]) / np.sqrt(2.0)
        assert abs(np.vdot(plus, vecs[0].amplitudes)) == pytest.approx(1.0, abs=1e-10)
        assert abs(np.vdot(minus, vecs[1].amplitudes)) == pytest.approx(1.0, abs=1e-10)

    def test_tensor_spectrum(self):
        vals, _ = hermitian_eigs(tensor(SIGMA_Y, SIGMA_Z))
        assert np.allclose(vals, [1.0, 1.0, -1.0, -1.0])

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = HermitianOperator((raw + raw.conj().T) / 2.0)
            vals, vecs = hermitian_eigs(h)
            assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(3))
            rebuilt = sum(v * k.projector() for v, k in zip(vals, vecs))
            assert np.max(np.abs(rebuilt - h.entries)) < 1e-9
            gram = np.array(
                [[ki.inner(kj) for kj in vecs] for ki in vecs]
            )
            assert np.max(np.abs(gram - np.eye(4))) < 1e-9

    def test_plain_array_rejected(self):
        with pytest.raises(ContractViolationError, match="HermitianOperator"):
            hermitian_eigs(np.diag([1.0, -1.0]))

    def test_phase_convention(self):
        _, vecs = hermitian_eigs(SIGMA_Y)
        for v in vecs:
            first = next(x for x in v.amplitudes if abs(x) > 1e-12)
            assert first.real > 0 and abs(first.imag) < 1e-12


def _numpy_checks(entries, where):
    """The numpy accept/reject checks the scalar validator replaced, kept as its oracle."""
    mat = np.asarray(entries, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ContractViolationError(f"{where}: entries must be square")
    if mat.shape[0] not in (2, 4):
        raise ModelDimensionError(
            f"{where}: dimension {mat.shape[0]} outside the 2-qubit model (expected 2 or 4)"
        )
    if not np.isfinite(mat).all():
        raise ContractViolationError(f"{where}: entries must be finite")
    if where == "UnitaryOperator":
        if not np.max(np.abs(mat @ mat.conj().T - np.eye(mat.shape[0]))) <= 1e-10:
            raise ContractViolationError("UnitaryOperator: entries are not unitary")
        return
    with np.errstate(over="ignore"):
        skew = np.max(np.abs(mat - mat.conj().T))
    if skew > 1e-12:
        raise ContractViolationError(f"{where}: entries are not Hermitian")
    if where == "HermitianOperator":
        return
    trace = complex(np.trace(mat))
    if abs(trace.real - 1.0) > 1e-12 or abs(trace.imag) > 1e-12:
        raise ContractViolationError("DensityMatrix: trace must be 1")
    if mat.shape[0] == 2:
        (h00, _), (h10, h11) = mat.tolist()
        kz = 0.5 * (h00.real - h11.real)
        lowest = 0.5 * (h00.real + h11.real) - math.hypot(kz, h10.real, h10.imag)
    else:
        lowest = np.min(np.linalg.eigvalsh(mat))
    if lowest < -1e-10:
        raise ContractViolationError("DensityMatrix: negative eigenvalue")


def _verdict(check, entries):
    try:
        check(entries)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)
    return None


def _random_state(rng, dim, lowest=None):
    """Random density matrix; with ``lowest``, its smallest eigenvalue is set to that."""
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    unitary, _ = np.linalg.qr(raw)
    spectrum = rng.uniform(0.05, 1.0, size=dim)
    spectrum /= spectrum.sum()
    if lowest is not None:
        spectrum[0] = 0.0
        spectrum *= (1.0 - lowest) / spectrum.sum()
        spectrum[0] = lowest
    return unitary @ np.diag(spectrum) @ unitary.conj().T


def _straddling_matrices(seed, dim):
    """Matrices on both sides of each tolerance, then non-finite entries in every slot."""
    rng = np.random.default_rng(seed)
    factors = lambda: rng.uniform(0.5, 1.5)  # noqa: E731
    out = []
    for _ in range(40):
        # Hermitian 1e-12: one entry pair skewed by about the tolerance
        mat = _random_state(rng, dim)
        i, j = rng.integers(dim, size=2)
        mat[i, j] += 1e-12 * factors() * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        out.append(mat)
        # trace 1e-12: real or imaginary excess spread over the diagonal
        mat = _random_state(rng, dim)
        # (an imaginary excess also skews the diagonal, by 2|shift|/dim per entry)
        mat += 1e-12 * factors() * rng.choice([1.0, -1.0, 1j, -1j]) / dim * np.eye(dim)
        out.append(mat)
        # eigenvalue floor -1e-10
        out.append(_random_state(rng, dim, lowest=-1e-10 * factors()))
    base = _random_state(rng, dim)
    skewed = base.copy()
    skewed[0, -1] += 1.0  # not Hermitian either: the finite check must still come first
    for start in (base, skewed):
        for k in range(dim * dim):
            for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 1.0)):
                mat = start.copy()
                mat.flat[k] = bad
                out.append(mat)
    huge = np.eye(dim, dtype=complex) / dim
    huge[0, 1] = complex(1.5e308, 1.5e308)  # |H01 - conj(H10)| beyond the float range
    out.append(huge)
    out.append(np.eye(dim, dtype=complex)[:, :1])  # not square
    out.append(np.eye(3) / 3.0)  # outside the model
    return out


class TestScalarValidator:
    """The scalar accept/reject checks agree with the numpy checks they replaced."""

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_exception_type_and_message_as_numpy(self, dim, seed):
        verdicts = []
        for mat in _straddling_matrices(seed, dim):
            for cls in (HermitianOperator, DensityMatrix, UnitaryOperator):
                name = cls.__name__
                with np.errstate(over="ignore", invalid="ignore"):  # U U^dag of huge entries
                    expected = _verdict(lambda m: _numpy_checks(m, name), mat)
                    assert _verdict(cls, mat) == expected, (name, mat)
                verdicts.append(expected)
        messages = {v[1].split(": ", 1)[1] if v else "accepted" for v in verdicts}
        # every tolerance was met on both sides
        assert {
            "accepted",
            "entries must be finite",
            "entries are not Hermitian",
            "trace must be 1",
            "negative eigenvalue",
        } <= messages

    def test_stored_entries_unchanged(self):
        rng = np.random.default_rng(4)
        for dim in (2, 4):
            mat = _random_state(rng, dim)
            for cls in (HermitianOperator, DensityMatrix):
                stored = cls(mat).entries
                assert stored.dtype == complex and not stored.flags.writeable
                assert stored.tobytes() == np.asarray(mat, dtype=complex).tobytes()


def _numpy_ket(amplitudes):
    """The numpy Ket normalisation the scalar one replaced, kept as its oracle."""
    vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if vec.size not in (2, 4):
        raise ModelDimensionError(
            f"Ket: dimension {vec.size} outside the 2-qubit model (expected 2 or 4)"
        )
    norm = float(np.linalg.norm(vec))
    if not np.isfinite(norm):
        raise ContractViolationError("Ket: amplitudes must be finite")
    if norm < 1e-12:
        raise ContractViolationError("Ket: cannot normalize a null vector")
    return vec / norm


def _ket_outcome(build, amplitudes):
    """Stored bytes, or the exception type and message; numpy overflow stays quiet."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return build(amplitudes).tobytes()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)


def _ket_inputs(seed):
    """Seeded vectors from 1e-300 to 1e300, the 1e-12 norm edge, non-finite entries, bad sizes."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(400):
        dim = rng.choice([2, 4])
        scale = 10.0 ** rng.uniform(-300.0, 300.0)
        vec = (rng.normal(size=dim) + 1j * rng.normal(size=dim)) * scale
        out += [vec, vec.real, vec.imag.astype(complex)]
    for factor in (0.999999, 1.0, 1.000001):  # a norm either side of 1e-12
        out.append(np.array([0.6e-12, 0.8e-12j]) * factor)
    for dim in (2, 4):
        base = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        for k in range(dim):
            for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, -np.inf)):
                vec = base.copy()
                vec[k] = bad
                out.append(vec)
    matrix = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    out += [matrix[:, 1], matrix[:2, :2], [0.6, 0.8], (1, 1j), np.zeros(2), np.ones(3), []]
    return out


class TestScalarKet:
    """Ket's normalisation and superposition agree bit for bit with the numpy code they replaced."""

    @pytest.mark.parametrize("seed", [5, 6])
    def test_same_bytes_exception_type_and_message_as_numpy(self, seed):
        outcomes = set()
        for vec in _ket_inputs(seed):
            expected = _ket_outcome(_numpy_ket, vec)
            assert _ket_outcome(lambda v: Ket(v).amplitudes, vec) == expected, vec
            outcomes.add(expected[1] if isinstance(expected, tuple) else "accepted")
        assert outcomes == {
            "accepted",
            "Ket: amplitudes must be finite",
            "Ket: cannot normalize a null vector",
            "Ket: dimension 3 outside the 2-qubit model (expected 2 or 4)",
            "Ket: dimension 0 outside the 2-qubit model (expected 2 or 4)",
        }

    def test_amplitudes_stored_once_and_read_only(self):
        vec = np.array([0.6, 0.8j])
        ket = Ket(vec)
        assert not ket.amplitudes.flags.writeable and ket.amplitudes.flags.owndata
        assert ket.amplitudes is not vec

    def test_superposition_matches_numpy(self):
        rng = np.random.default_rng(8)
        bases = [BASIS] + [
            ReferenceBasis(*(Ket(col) for col in np.linalg.qr(
                rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0].T))
            for _ in range(20)
        ]
        for basis in bases:
            for angle in [0.0, np.pi / 4.0, -np.pi / 2.0, *rng.uniform(-10.0, 10.0, 50)]:
                expected = _numpy_ket(
                    np.cos(angle) * basis.ket0.amplitudes + np.sin(angle) * basis.ket1.amplitudes
                )
                assert basis.superposition(angle).amplitudes.tobytes() == expected.tobytes()


class TestSuperpositionMemo:
    """One angle, one shared ket, equal to a fresh build; rejected angles never stored; bounded."""

    @staticmethod
    def fresh_basis():
        return ReferenceBasis(Ket(np.array([1.0, 0.0])), Ket(np.array([0.0, 1.0])))

    def test_a_repeated_angle_returns_one_ket_equal_to_a_fresh_build(self):
        basis = self.fresh_basis()
        rng = np.random.default_rng(9)
        for angle in [0.0, np.pi / 4.0, -np.pi / 2.0, *rng.uniform(-10.0, 10.0, 50)]:
            ket = basis.superposition(angle)
            assert basis.superposition(float(angle)) is ket
            fresh = Ket(np.cos(angle) * basis.ket0.amplitudes + np.sin(angle) * basis.ket1.amplitudes)
            assert ket == fresh and ket.amplitudes.tobytes() == fresh.amplitudes.tobytes()
        assert basis.superposition(1) is basis.superposition(1.0)
        assert basis.superposition(np.float64(0.3)) is basis.superposition(0.3)

    def test_signed_zeros_get_their_own_kets(self):
        basis = self.fresh_basis()
        plus, minus = basis.superposition(0.0), basis.superposition(-0.0)
        assert plus is not minus
        assert basis.superposition(0.0) is plus and basis.superposition(-0.0) is minus
        for angle, ket in ((0.0, plus), (-0.0, minus)):
            fresh = Ket(np.cos(angle) * basis.ket0.amplitudes + np.sin(angle) * basis.ket1.amplitudes)
            assert ket.amplitudes.tobytes() == fresh.amplitudes.tobytes()

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf, 10**400, "0.5", None, True])
    def test_a_rejected_angle_raises_on_every_call_and_is_never_stored(self, angle):
        basis = self.fresh_basis()
        for _ in range(3):
            with pytest.raises(ContractViolationError, match="superposition: angle must be"):
                basis.superposition(angle)
        assert basis._kets == {}

    def test_the_memo_stays_within_its_bound(self, monkeypatch):
        import wva_costlab.states as states_module

        assert len(STANDARD_BASIS._kets) <= states_module.SUPERPOSITION_MEMO_SIZE
        monkeypatch.setattr(states_module, "SUPERPOSITION_MEMO_SIZE", 8)
        basis = self.fresh_basis()
        sizes = []
        for k in range(50):
            basis.superposition(0.01 * k)
            sizes.append(len(basis._kets))
        assert max(sizes) == 8 and min(sizes[8:]) >= 1

    def test_the_memo_stays_outside_equality_and_repr(self):
        used, unused = self.fresh_basis(), self.fresh_basis()
        used.superposition(0.3)
        assert used == unused and repr(used) == repr(unused)


class TestCachedDerivations:
    def test_split_computed_once_per_observable(self, monkeypatch):
        import wva_costlab.states as states_module

        calls = []
        original = states_module._qubit_parts
        monkeypatch.setattr(
            states_module, "_qubit_parts", lambda flat: calls.append(1) or original(flat)
        )
        A = HermitianOperator(np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.7]]))
        M = HermitianOperator(np.array([[1.0, 0.0], [0.0, -1.0]]))
        assert len(calls) == 2  # one split each for A and M, in their constructors
        coupling_unitary(A, M, 0.1)
        postselect(WvaSetup(BASIS.ket0, BASIS.superposition(0.4), METER_PLUS, A, M, 0.2))
        coupling_unitary(A, M, 0.3)
        assert len(calls) == 2
        assert "_split" not in vars(HermitianOperator(np.diag([1.0, -1.0, 1.0, -1.0])))

    def test_sigma_is_built_once_per_basis(self):
        fresh_basis = ReferenceBasis(Ket(np.array([1.0, 0.0])), Ket(np.array([0.0, 1.0])))
        sigma = STANDARD_BASIS.sigma()
        assert sigma is STANDARD_SIGMA and sigma is STANDARD_BASIS.sigma()
        assert fresh_basis.sigma() is fresh_basis.sigma()

    # each type, its constructor-built values and a builder of fresh, equal instances
    BUILT = {
        "operator": (lambda: HermitianOperator(np.diag([1.0, -1.0])), ("_split",)),
        "basis": (lambda: ReferenceBasis(Ket(np.array([1.0, 0.0])), Ket(np.array([0.0, 1.0]))),
                  ("_pairs", "_sigma", "_kets")),
        "ket-setup": (lambda: _sigma_z_setup(BASIS.superposition(0.3)), ("_out",)),
        "rho-setup": (lambda: _sigma_z_setup(DensityMatrix([[0.6, 0.2], [0.2, 0.4]])),
                      ("_out", "_collapsed")),
    }

    @pytest.mark.parametrize("case", BUILT)
    def test_values_are_set_when_the_constructor_returns(self, case):
        build, names = self.BUILT[case]
        assert set(names) <= set(vars(build()))

    @pytest.mark.parametrize("case", BUILT)
    def test_values_stay_outside_equality_repr_and_hash(self, case):
        build, names = self.BUILT[case]
        instance, twin = build(), build()
        field_names = {f.name for f in dataclasses.fields(instance)}
        assert not field_names & set(names)  # so the generated __eq__, __repr__, __hash__ skip them
        for name in names:
            vars(twin)[name] = None
        assert instance == twin and repr(instance) == repr(twin)
        with pytest.raises(TypeError, match="unhashable"):
            hash(instance)  # each type holds an array or a Ket, so none is hashable

    def test_only_a_density_matrix_past_the_floor_keeps_a_collapsed_state(self):
        vanishing = WvaSetup(DensityMatrix.from_ket(BASIS.ket1), BASIS.ket0, METER_PLUS,
                             SIGMA_Z, SIGMA_Z, 0.0)
        assert vanishing._out[0] == 0.0 and "_collapsed" not in vars(vanishing)
        ket_setup = _sigma_z_setup(BASIS.superposition(0.3))
        assert "_collapsed" not in vars(ket_setup)  # a ket's collapsed state is formed where read


def _sigma_z_setup(psi_si):
    return WvaSetup(psi_si, BASIS.superposition(-0.4), METER_PLUS, SIGMA_Z, SIGMA_Z, 0.05)


class TestMalformedInput:
    """Input that numpy cannot convert, and scalars of the wrong type, raise the contract error."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: Ket("ab"), "Ket: amplitudes must be finite numbers"),
            (lambda: Ket([1, "a"]), "Ket: amplitudes must be finite numbers"),
            (lambda: Ket([10**400, 1]), "Ket: amplitudes must be finite numbers"),
            (lambda: HermitianOperator("ab"), "HermitianOperator: entries must be a rectangular"),
            (lambda: HermitianOperator([[1, 0], [0]]),
             "HermitianOperator: entries must be a rectangular"),
            (lambda: DensityMatrix([[10**400, 0], [0, 1]]),
             "DensityMatrix: entries must be a rectangular"),
            (lambda: DensityMatrix.mixture(["a", 1.0], [BASIS.ket0, BASIS.ket1]),
             "mixture: weights must be finite real numbers"),
            (lambda: DensityMatrix.mixture([1j, 1.0], [BASIS.ket0, BASIS.ket1]),
             "mixture: weights must be finite real numbers"),
            (lambda: fm_leading("1", 1j), "fm_leading: omega must be real"),
            (lambda: fm_leading(math.inf, 1j), "fm_leading: omega must be finite"),
            (lambda: fm_leading(1.0, "1"), "fm_leading: a_w must be a number"),
            (lambda: fm_leading(1.0, True), "fm_leading: a_w must be a number"),
            (lambda: near_orthogonal_postselection(BASIS.superposition(0.5), SIGMA_Z, "0.1"),
             "near_orthogonal_postselection: epsilon must be real"),
            (lambda: near_orthogonal_postselection(BASIS.superposition(0.5), SIGMA_Z, math.nan),
             "near_orthogonal_postselection: epsilon must be finite"),
            (lambda: coupling_unitary(SIGMA_Y, SIGMA_Z, "0.1"),
             "coupling_unitary: g must be real"),
            (lambda: coupling_unitary(SIGMA_Y, SIGMA_Z, math.inf),
             "coupling_unitary: g must be finite"),
            (lambda: l1_coherence(0.3, BASIS),
             "l1_coherence: rho must be a Ket or DensityMatrix and basis a ReferenceBasis"),
            (lambda: l1_coherence(BASIS.ket0, "basis"),
             "l1_coherence: rho must be a Ket or DensityMatrix and basis a ReferenceBasis"),
            (lambda: mle_g(TrialCounts(10, 10, 5, 5), 0.5, 0.1, g_max="1"),
             "mle_g: g_max must be real"),
            (lambda: fm_leading(1.0, 10**400),
             "fm_leading: omega must be positive and finite, a_w finite"),
            (lambda: DensityMatrix.mixture([math.nan, 1.0], [BASIS.ket0, BASIS.ket1]),
             "mixture: weights must be finite real numbers"),
            (lambda: postselect(None), "postselect: setup must be a WvaSetup"),
            (lambda: postselect_mixed(None), "postselect_mixed: setup must be a WvaSetup"),
            (lambda: probabilistic_qfi(None), "probabilistic_qfi: setup must be a WvaSetup"),
            (lambda: fm_exact("x"), "fm_exact: setup must be a WvaSetup"),
            (lambda: postselected_meter_family(None),
             "postselected_meter_family: setup must be a WvaSetup"),
            (lambda: weak_regime_margin(None), "weak_regime_margin: setup must be a WvaSetup"),
            (lambda: in_weak_regime(None), "weak_regime_margin: setup must be a WvaSetup"),
            (lambda: ReferenceBasis(0.3, BASIS.ket1),
             "ReferenceBasis: ket0 and ket1 must be Kets"),
            (lambda: DensityMatrix.from_ket(0.3), "from_ket: psi must be a Ket"),
        ],
        ids=["ket-str", "ket-mixed-list", "ket-big-int", "operator-str", "operator-ragged",
             "density-big-int", "mixture-str-weight", "mixture-complex-weight", "fm-omega-str",
             "fm-omega-inf", "fm-a_w-str", "fm-a_w-bool", "near-orthogonal-str",
             "near-orthogonal-nan", "coupling-str", "coupling-inf", "l1-state-float",
             "l1-basis-str", "mle-g_max-str", "fm-a_w-big-int", "mixture-nan-weight",
             "postselect-none", "postselect-mixed-none", "probabilistic-qfi-none", "fm-exact-str",
             "meter-family-none", "weak-margin-none", "in-weak-regime-none", "basis-float-ket",
             "from-ket-float"],
    )
    def test_raises_contract_violation(self, call, message):
        with pytest.raises(ContractViolationError, match=message):
            call()


class TestSharedFreshSetups:
    """Threads that share fresh setups and a fresh basis get the single-threaded bits.

    Every per-instance value is built in a constructor, so the threads race only
    on a basis's superposition memo and the <M>/Omega slot of an observable.
    """

    @staticmethod
    def _bits(setup):
        """A setup's public values and kernel output, as bytes."""
        p, rho = postselect_mixed(setup)
        values, arrays = [p, fm_exact(setup)], [rho.entries]
        if isinstance(setup.psi_si, Ket):
            result, (_, v, core) = postselect(setup), setup._out
            values += [*core, *probabilistic_qfi(setup), result.a_w]
            arrays += [v, result.phi_mf.amplitudes]
        else:
            values += setup._out[1]
        return np.array(values, dtype=complex).tobytes() + b"".join(a.tobytes() for a in arrays)

    def test_threads_reading_shared_fresh_setups_see_the_single_threaded_bits(self):
        rng = np.random.default_rng(30)
        points = [(t, a, g) for t, a, g in zip(rng.uniform(0.1, 0.78, 12),
                                               rng.uniform(-1.4, -0.2, 12),
                                               rng.uniform(1e-3, 0.1, 12))]
        rhos = [DensityMatrix(0.5 * np.array([[1.0 + rz, rx], [rx, 1.0 - rz]]))
                for rx, rz in zip(rng.uniform(-0.6, 0.6, 4), rng.uniform(-0.6, 0.6, 4))]
        angles = list(rng.uniform(-3.0, 3.0, 24))

        def fresh_round():
            """New setups, basis and observables, so every memo and slot starts empty."""
            basis = ReferenceBasis(Ket(np.array([1.0, 0.0])), Ket(np.array([0.0, 1.0])))
            A, M = HermitianOperator(np.diag([1.0, -1.0])), HermitianOperator(np.diag([1.0, -1.0]))
            setups = [WvaSetup(basis.superposition(t), basis.superposition(a), METER_PLUS, A, M, g)
                      for t, a, g in points]
            setups += [dataclasses.replace(setups[k], psi_si=rho) for k, rho in enumerate(rhos)]
            return ReferenceBasis(basis.ket0, basis.ket1), setups

        reference_basis, reference = fresh_round()
        expected = [self._bits(s) for s in reference]
        expected_kets = [reference_basis.superposition(x).amplitudes.tobytes() for x in angles]
        expected_sigma = reference_basis.sigma().entries.tobytes()

        threads_n, deadline = 8, time.monotonic() + 1.5
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rounds = 0
            while rounds < 3 or (rounds < 40 and time.monotonic() < deadline):
                rounds += 1
                basis, setups = fresh_round()
                seen = [None] * threads_n
                failures = []
                start = threading.Barrier(threads_n, timeout=10.0)

                def read(k):
                    try:
                        start.wait()  # released together, so the memo and slot reads overlap
                        order = setups[k:] + setups[:k]
                        # equal meter kets, distinct objects: rebuilding flips M's <M>/Omega slot
                        meters = (METER_PLUS, basis.superposition(np.pi / 4.0))
                        got = {
                            id(s): (self._bits(s), self._bits(
                                dataclasses.replace(s, phi_mi=meters[(k + j) % 2])))
                            for j, s in enumerate(order)
                        }
                        kets = [basis.superposition(x).amplitudes.tobytes() for x in angles]
                        seen[k] = got, kets, basis.sigma()
                    except Exception as exc:  # reported in the main thread
                        failures.append(exc)

                threads = [threading.Thread(target=read, args=(k,)) for k in range(threads_n)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=20.0)
                assert not any(t.is_alive() for t in threads)
                assert failures == [] and None not in seen
                for got, kets, sigma in seen:
                    assert [got[id(s)] for s in setups] == [(e, e) for e in expected]
                    assert kets == expected_kets and sigma.entries.tobytes() == expected_sigma
                    assert sigma is basis.sigma()
        finally:
            sys.setswitchinterval(interval)


class TestValueEquality:
    """Ket and the operator types compare their stored arrays exactly and stay unhashable."""

    def test_equal_arrays_compare_equal(self):
        mat = np.array([[0.6, 0.1j], [-0.1j, 0.4]])
        for cls, value in (
            (Ket, np.array([0.6, 0.8j])),
            (HermitianOperator, mat),
            (DensityMatrix, mat),
            (UnitaryOperator, np.array([[0.0, 1.0], [1.0, 0.0]])),
        ):
            a, b = cls(value), cls(value.copy())
            assert a == b and not (a != b)
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)

    def test_different_arrays_or_types_compare_unequal(self):
        mat = np.diag([0.5, 0.5])
        assert HermitianOperator(mat) != DensityMatrix(mat)
        assert DensityMatrix(mat) != DensityMatrix(np.diag([0.5 + 1e-15, 0.5 - 1e-15]))
        assert Ket(np.array([1.0, 0.0])) != Ket(np.array([-1.0, 0.0]))  # global phase counts
        assert Ket(np.array([1.0, 0.0])) != Ket(np.array([1.0, 0.0, 0.0, 0.0]))
        assert Ket(np.array([1.0, 0.0])) != (1.0, 0.0)
