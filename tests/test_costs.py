"""Cost accounting, coherence, the tradeoff bound, and boundary curves."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from wva_costlab import (
    BlochVector,
    ContractViolationError,
    CostPoint,
    CostRates,
    DensityMatrix,
    InfinitePreparationCostError,
    Ket,
    ReferenceBasis,
    bloch_of,
    bloch_angle,
    bound_rhs,
    boundary_curve,
    classify_region,
    cost_point,
    default_alpha_grid,
    fm_leading,
    hwp_settings,
    l1_coherence,
    leading_costs,
    preparation_coherence,
    tradeoff_slack,
)

BASIS = ReferenceBasis.standard()
RATES = CostRates(r_p=2.0, r_m=3.0, n_samples=500)
UNIT_RATES = CostRates(1.0, 1.0, 1)

THETA_GRID = (np.pi / 16, np.pi / 12, np.pi / 8, np.pi / 6, np.pi / 5, np.pi / 4.5, np.pi / 4)


def leading_point(theta, alpha):
    cp = 1.0 / np.cos(alpha + theta) ** 2
    cm = np.cos(alpha - theta) ** 2 * cp
    return CostPoint(cp, cm, cp, cm, cp)


class TestCoherence:
    def test_incoherent_mixture(self):
        rho = DensityMatrix.mixture([0.35, 0.65], [BASIS.ket0, BASIS.ket1])
        assert l1_coherence(rho, BASIS) == 0.0

    def test_maximally_coherent(self):
        assert l1_coherence(BASIS.superposition(np.pi / 4), BASIS) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_density_matrix_coherence_is_twice_the_off_diagonal(self):
        # in the standard basis <0|rho|1> is rho01 exactly; in any basis it is the
        # ket's value on a pure state, within rounding
        rng = np.random.default_rng(35)
        bases = [ReferenceBasis(*(Ket(col) for col in np.linalg.qr(
            rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0].T)) for _ in range(5)]
        for _ in range(300):
            r = rng.normal(size=3)
            r *= rng.uniform() ** (1.0 / 3.0) / np.linalg.norm(r)
            rho = DensityMatrix(0.5 * np.array([[1 + r[2], r[0] - 1j * r[1]],
                                                [r[0] + 1j * r[1], 1 - r[2]]]))
            assert l1_coherence(rho, BASIS) == min(2.0 * abs(rho._flat[1]), 1.0)
            psi = Ket(rng.normal(size=2) + 1j * rng.normal(size=2))
            for basis in bases:
                assert l1_coherence(DensityMatrix.from_ket(psi), basis) == pytest.approx(
                    l1_coherence(psi, basis), abs=1e-15)

    def test_l1_coherence_needs_a_qubit(self):
        with pytest.raises(ContractViolationError, match="^l1_coherence: state must be a qubit$"):
            l1_coherence(Ket(np.ones(4)), BASIS)

    def test_partial_coherence(self):
        got = l1_coherence(BASIS.superposition(np.pi / 6), BASIS)
        assert got == pytest.approx(np.sin(np.pi / 3), abs=1e-12)
        assert got == pytest.approx(0.8660254, abs=1e-7)

    def test_preparation_coherence_is_the_ket_built_value(self):
        thetas = [
            *np.linspace(np.pi / 16, np.pi / 4, 50),
            *np.random.default_rng(11).uniform(1e-9, np.pi / 4, 1000),
        ]
        for theta in thetas:
            expected = l1_coherence(BASIS.superposition(theta), BASIS)
            assert preparation_coherence(theta) == expected

    @pytest.mark.parametrize("theta", [5.0, -0.3])
    def test_preparation_coherence_keeps_the_theta_domain(self, theta):
        # outside the domain |sin 2 theta| is 0.544 and 0.565, which these once returned
        with pytest.raises(
            ContractViolationError, match=r"^preparation_coherence: theta must lie in \(0, pi/4\]$"
        ):
            preparation_coherence(theta)


class TestCostRates:
    @pytest.mark.parametrize("field", ["r_p", "r_m"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rates_rejected(self, field, bad):
        fields = {"r_p": 1.0, "r_m": 1.0, "n_samples": 1, field: bad}
        with pytest.raises(ContractViolationError, match="finite"):
            CostRates(**fields)


    @pytest.mark.parametrize("field", ["r_p", "r_m"])
    @pytest.mark.parametrize("bad", [0.0, -0.0, -2.0])
    def test_non_positive_rates_rejected(self, field, bad):
        fields = {"r_p": 1.0, "r_m": 1.0, "n_samples": 1, field: bad}
        with pytest.raises(ContractViolationError, match="^CostRates: all fields must be positive"):
            CostRates(**fields)

    @pytest.mark.parametrize("bad", [1.5, math.nan, True, 0, np.float64(2.0)])
    def test_sample_count_must_be_a_positive_integer(self, bad):
        with pytest.raises(ContractViolationError, match="n_samples"):
            CostRates(1.0, 1.0, bad)
        assert CostRates(1.0, 1.0, np.int64(3)).n_samples == 3


@pytest.mark.parametrize(
    "call",
    [
        lambda: bound_rhs(math.nan),
        lambda: bound_rhs(2.0),
        lambda: fm_leading(math.nan, 1.0),
        lambda: fm_leading(1.0, math.nan),
        lambda: fm_leading(1.0, complex(1.0, math.inf)),
        lambda: hwp_settings(math.nan, 0.0, 0.0),
        lambda: hwp_settings(0.5, 0.0, math.inf),
        lambda: BlochVector(math.nan, 0.0, 0.0),
        lambda: bloch_angle(BlochVector(1.0, 0.0, 0.0), BlochVector(0.0, math.nan, 1.0)),
        lambda: leading_costs(math.nan, 0.0),
        lambda: leading_costs(0.5, math.inf),
    ],
    ids=[
        "bound_rhs-nan", "bound_rhs-2", "fm_leading-omega-nan", "fm_leading-a_w-nan",
        "fm_leading-a_w-inf", "hwp_settings-theta-nan", "hwp_settings-g-inf", "BlochVector-nan",
        "bloch_angle-nan", "leading_costs-theta-nan", "leading_costs-alpha-inf",
    ],
)
def test_non_finite_or_out_of_range_scalars_raise(call):
    with pytest.raises(ContractViolationError):
        call()


def test_scalar_helpers_keep_their_domain_edges():
    # hwp_settings takes the campaign's domain: theta in (0, pi/4], g in [0, G_MAX = pi/4]
    assert hwp_settings(np.pi / 4.0, 0.0, 0.0)["hwp1"] == np.pi / 8.0 - np.pi / 8.0
    assert hwp_settings(1e-9, 0.0, np.pi / 4.0)["hwp2"] == np.pi / 8.0
    for theta, g in ((0.0, 0.0), (np.nextafter(np.pi / 4.0 + 1e-12, 1.0), 0.0),
                     (0.5, -1e-300), (0.5, np.nextafter(np.pi / 4.0, 1.0))):
        with pytest.raises(ContractViolationError):
            hwp_settings(theta, 0.0, g)
    assert bound_rhs(1.0 + 1e-10) == bound_rhs(1.0) == math.pi
    assert bound_rhs(-1e-10) == bound_rhs(0.0) == 0.0
    assert fm_leading(0.5, 2.0) == 8.0


@pytest.mark.parametrize("c", [1e-300, 1e-12, 1e-9, 1e-7])
def test_bound_keeps_a_small_coherence(c):
    # 1 - C^2 rounds to 1 below C ~ 1e-8, where 2 arccos(sqrt(1 - C^2)) gave 0.0;
    # 2 arcsin(C) = 2 C (1 + C^2 / 6 + ...)
    assert bound_rhs(c) == pytest.approx(2.0 * c, rel=1e-12)
    assert bound_rhs(c, printed_form=True) == pytest.approx(2.0 * math.sqrt(c), rel=1e-7)


class TestCostPoint:
    def test_negative_measurement_cost_rejected(self):
        with pytest.raises(ContractViolationError, match="^CostPoint: costs must be non-negative$"):
            CostPoint(1.0, -0.5, 1.0, -0.5, 1.0)

    @pytest.mark.parametrize("F, Fm", [(0.0, 4.0), (-4.0, 4.0), (4.0, 0.0), (4.0, -1.0)])
    def test_non_positive_information_rejected(self, F, Fm):
        with pytest.raises(ContractViolationError, match="^cost_point: F and Fm must be positive$"):
            cost_point(F, 1.0, Fm, UNIT_RATES)

    def test_conventional_scheme_recovered(self):
        point = cost_point(4.0, 4.0, 4.0, RATES)
        assert point.cp_norm == pytest.approx(1.0)
        assert point.cm_norm == pytest.approx(1.0)
        assert point.cp_raw == pytest.approx(RATES.r_p * RATES.n_samples)
        assert point.cm_raw == pytest.approx(RATES.r_m * RATES.n_samples)
        assert point.n_wva == pytest.approx(RATES.n_samples)

    def test_optimal_postselection_point(self):
        # theta = pi/6, alpha = -theta: F = 4, f_m = 4, F_m = 16
        point = cost_point(4.0, 4.0, 16.0, UNIT_RATES)
        assert (point.cp_norm, point.cm_norm) == (1.0, 0.25)

    def test_intermediate_point(self):
        theta, alpha = np.pi / 6, -np.pi / 4
        f_m = 4.0 * np.cos(alpha + theta) ** 2
        big_f_m = 4.0 * np.cos(alpha + theta) ** 2 / np.cos(alpha - theta) ** 2
        point = cost_point(4.0, f_m, big_f_m, UNIT_RATES)
        assert point.cp_norm == pytest.approx(1.0717968, abs=1e-7)
        assert point.cm_norm == pytest.approx(0.0717968, abs=1e-7)

    def test_zero_signal_rejected(self):
        with pytest.raises(InfinitePreparationCostError):
            cost_point(4.0, 0.0, 16.0, UNIT_RATES)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", range(3))
    def test_non_finite_information_rejected(self, field, bad):
        # an infinite Fm would give cm_norm = 0, which classifies as 'advantage'
        values = [4.0, 1.0, 4.0]
        values[field] = bad
        with pytest.raises(ContractViolationError, match="cost_point: F, fm and Fm must be finite"):
            cost_point(*values, UNIT_RATES)

    def test_success_ratio_capped(self):
        with pytest.raises(ContractViolationError):
            CostPoint(1.0, 1.5, 1.0, 1.5, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", range(5))
    def test_non_finite_costs_rejected(self, field, bad):
        # a NaN cm_norm would otherwise classify as 'trivial'
        values = [2.0, 0.5, 2.0, 0.5, 2.0]
        values[field] = bad
        with pytest.raises(ContractViolationError, match="finite"):
            CostPoint(*values)


def geometric_costs(theta, alpha):
    """The paper's Bloch-angle form of the leading-order costs, or None where cp diverges.

    With r1, r2, r3 the Bloch vectors of the postselection, of sigma applied to
    the input and of the input: cp = 1 / cos^2(angle(r1, r2) / 2) and
    cm = cos^2(angle(r1, r3) / 2) / cos^2(angle(r1, r2) / 2).
    """
    r1 = bloch_of(BASIS.superposition(alpha), BASIS)
    r2 = bloch_of(BASIS.superposition(-theta), BASIS)
    r3 = bloch_of(BASIS.superposition(theta), BASIS)
    c12 = math.cos(bloch_angle(r1, r2) / 2.0) ** 2
    if c12 < 1e-15:
        return None
    return 1.0 / c12, math.cos(bloch_angle(r1, r3) / 2.0) ** 2 / c12


class TestGeometricCosts:
    """leading_costs against the Bloch-angle statement of the same costs."""

    def test_aligned_vectors_give_unit_cost(self):
        # r1 = r2: postselecting on sigma applied to the input
        theta = np.pi / 6
        assert geometric_costs(theta, -theta)[0] == pytest.approx(1.0, abs=1e-12)
        assert leading_costs(theta, -theta)[0] == pytest.approx(1.0, abs=1e-12)

    def test_optimal_point_matches_information_costs(self):
        theta = np.pi / 6
        for cp, cm in (geometric_costs(theta, -theta), leading_costs(theta, -theta)):
            assert cp == pytest.approx(1.0, abs=1e-9)
            assert cm == pytest.approx(0.25, abs=1e-9)

    def test_agrees_with_information_form_on_sweep(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            theta = rng.uniform(0.05, np.pi / 4)
            alpha = rng.uniform(-1.2, 1.2)
            if abs(np.cos(alpha + theta)) < 1e-3:
                continue
            geometric, leading = geometric_costs(theta, alpha), leading_costs(theta, alpha)
            assert geometric[0] == pytest.approx(leading[0], rel=1e-9)
            assert geometric[1] == pytest.approx(leading[1], abs=1e-9)

    def test_orthogonal_signal_direction_has_no_cost(self):
        theta = np.pi / 6
        assert geometric_costs(theta, np.pi / 2 - theta) is None
        assert leading_costs(theta, np.pi / 2 - theta) is None


class TestTradeoffSlack:
    def test_boundary_saturation_at_minimal_preparation(self):
        coherence = np.sin(np.pi / 3)  # theta = pi/6
        point = CostPoint(1.0, 1.0 - coherence**2, 1.0, 1.0 - coherence**2, 1.0)
        assert tradeoff_slack(point, coherence) == pytest.approx(0.0, abs=1e-12)

    def test_maximal_coherence_bound_is_vacuous(self):
        point = CostPoint(1.3, 0.4, 1.3, 0.4, 1.3)
        slack = tradeoff_slack(point, 1.0)
        lhs = abs(
            2 * np.arccos(np.sqrt(1 / 1.3)) - 2 * np.arccos(np.sqrt(0.4 / 1.3))
        )
        assert slack == pytest.approx(np.pi - lhs, abs=1e-12)
        assert slack >= 0.0

    def test_coplanar_point_saturates(self):
        point = leading_point(np.pi / 6, -np.pi / 4)
        slack = tradeoff_slack(point, np.sin(np.pi / 3))
        assert slack == pytest.approx(0.0, abs=1e-9)

    def test_precondition_validation(self):
        point = CostPoint(1.2, 0.4, 1.2, 0.4, 1.2)
        with pytest.raises(ContractViolationError):
            tradeoff_slack(point, 1.5)

    def test_published_variant_is_looser(self):
        for c in np.linspace(0.05, 0.95, 10):
            assert bound_rhs(c, printed_form=True) >= bound_rhs(c) - 1e-12


class TestLeadingCosts:
    def test_none_exactly_where_cp_diverges(self):
        rng = np.random.default_rng(3)
        for theta in (np.pi / 16, 0.3, np.pi / 6, np.pi / 4):
            # grid angles plus angles within 1e-6 of the pole alpha = pi/2 - theta
            near = np.pi / 2 - theta + rng.uniform(-2e-6, 2e-6, 200)
            for alpha in (*default_alpha_grid(), *near):
                c_plus = np.cos(alpha + theta)
                costs = leading_costs(theta, alpha)
                assert (costs is None) == (abs(c_plus) < 1e-6)
                if costs is not None:
                    assert costs == (1.0 / c_plus**2, np.cos(alpha - theta) ** 2 / c_plus**2)

    def test_scaled_matches_hand_built_raw_costs(self):
        for cp, cm in ((1.0, 0.25), (1.7, 0.3), (4.2, 4.2)):
            n = RATES.n_samples
            hand = CostPoint(cp, cm, cp * RATES.r_p * n, cm * RATES.r_m * n, cp * n)
            assert CostPoint.scaled(cp, cm, RATES) == hand


BOUNDARY_FIXTURE = Path(__file__).parent / "data" / "boundary_curve.json"


class TestBoundaryCurve:
    @pytest.mark.parametrize("case", json.loads(BOUNDARY_FIXTURE.read_text()))
    def test_pinned_envelope(self, case):
        # rows (alpha, cp_norm, cm_norm, slack) recorded from the per-angle
        # implementation that built a cost point and a slack at every angle
        samples = boundary_curve(case["theta"], printed_form=case["printed_form"])
        assert [s.alpha for s in samples] == [row[0] for row in case["rows"]]
        got = [x for s in samples for x in (s.cost.cp_norm, s.cost.cm_norm, s.slack)]
        want = [x for row in case["rows"] for x in row[1:]]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_maximal_coherence_reaches_origin_corner(self):
        samples = boundary_curve(np.pi / 4)
        first = samples[0]
        assert first.cost.cp_norm == pytest.approx(1.0, abs=1e-9)
        assert first.cost.cm_norm == pytest.approx(0.0, abs=1e-9)

    def test_partial_coherence_floor(self):
        samples = boundary_curve(np.pi / 6)
        first = samples[0]
        assert first.cost.cp_norm == pytest.approx(1.0, abs=1e-9)
        assert first.cost.cm_norm == pytest.approx(0.25, abs=1e-9)

    def test_vanishing_coherence_gives_no_advantage(self):
        samples = boundary_curve(1e-10)
        assert all(s.cost.cm_norm >= 1.0 - 1e-6 for s in samples)

    def test_monotone_envelope(self):
        for theta in (np.pi / 8, np.pi / 5):
            samples = boundary_curve(theta)
            cps = [s.cost.cp_norm for s in samples]
            cms = [s.cost.cm_norm for s in samples]
            assert cps == sorted(cps)
            assert all(cms[i] >= cms[i + 1] for i in range(len(cms) - 1))

    def test_envelope_saturates_bound(self):
        samples = boundary_curve(np.pi / 6)
        assert max(abs(s.slack) for s in samples) <= 1e-6

    def test_reaches_vanishing_measurement_cost(self):
        theta = np.pi / 5
        samples = boundary_curve(theta)
        last = samples[-1]
        assert last.cost.cm_norm <= 1e-9
        assert last.cost.cp_norm == pytest.approx(1.0 / np.sin(2 * theta) ** 2, rel=1e-9)

    def test_min_measurement_cost_falls_with_coherence(self):
        floors = []
        for theta in THETA_GRID:
            samples = boundary_curve(theta)
            floors.append(samples[0].cost.cm_norm)
        assert all(floors[i] > floors[i + 1] for i in range(len(floors) - 1))
        for theta, floor in zip(THETA_GRID, floors):
            coherence = l1_coherence(BASIS.superposition(theta), BASIS)
            assert floor == pytest.approx(1.0 - coherence**2, abs=1e-9)

    def test_theta_domain(self):
        with pytest.raises(ContractViolationError):
            boundary_curve(0.0)
        with pytest.raises(ContractViolationError):
            boundary_curve(1.0)

    def test_printed_form_is_keyword_only(self):
        with pytest.raises(TypeError):
            boundary_curve(np.pi / 6, True)


class TestExactVersusLeadingOrder:
    def test_exact_cost_points_match_leading_order_at_small_coupling(self):
        from wva_costlab import fm_exact, in_weak_regime, postselect, real_superposition_setup

        g = 1e-4
        for theta in (np.pi / 12, np.pi / 6, np.pi / 5):
            for alpha in np.linspace(-1.2, 1.2, 9):
                if abs(np.cos(alpha + theta)) < 1e-2 or abs(np.cos(alpha - theta)) < 0.05:
                    continue
                setup = real_superposition_setup(theta, alpha, g)
                if not in_weak_regime(setup):
                    continue
                p = postselect(setup).p
                fm = fm_exact(setup)
                exact = cost_point(4.0, p * fm, fm, UNIT_RATES)
                leading = leading_point(theta, alpha)
                assert exact.cp_norm == pytest.approx(leading.cp_norm, rel=1e-3)
                assert exact.cm_norm == pytest.approx(leading.cm_norm, rel=1e-3)


class TestPublishedVariantCounterexample:
    def test_saturating_points_miss_published_bound(self):
        # the published right-hand side cannot be met with equality: at
        # theta = pi/8 the saturating branch misses it by more than 0.1 rad
        theta = np.pi / 8
        samples = boundary_curve(theta, printed_form=True)
        assert max(s.slack for s in samples) > 0.1
        corrected = boundary_curve(theta)
        assert max(abs(s.slack) for s in corrected) <= 1e-6


class TestRegionClassification:
    def test_advantage_point(self):
        assert classify_region(cost_point(4.0, 4.0, 16.0, UNIT_RATES)) == "advantage"

    def test_boundary_counts_as_trivial(self):
        assert classify_region(CostPoint(1.33, 1.0, 1.33, 1.0, 1.33)) == "trivial"

    def test_incoherent_points_are_trivial(self):
        # collapsed-state information never beats the conventional value for
        # incoherent inputs, so cm_norm >= 1 for every postselection angle
        from wva_costlab import WvaSetup, postselect_mixed, postselected_meter_family, qfi_mixed

        rho = DensityMatrix.mixture([0.3, 0.7], [BASIS.ket0, BASIS.ket1])
        for alpha in (-0.9, 0.0, 0.7):
            setup = WvaSetup(
                psi_si=rho,
                psi_sf=BASIS.superposition(alpha),
                phi_mi=BASIS.superposition(np.pi / 4),
                A=BASIS.sigma(),
                M=BASIS.sigma(),
                g=0.0349,
            )
            p, _ = postselect_mixed(setup)
            fm = qfi_mixed(postselected_meter_family(setup), setup.g)
            point = cost_point(4.0, p * fm, fm, UNIT_RATES)
            assert classify_region(point) == "trivial"
