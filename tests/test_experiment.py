"""Photon-counting simulation: outcome law, trials, MLE, campaign statistics.

Closed trig forms serve as the independent oracle for the exact state-vector
production path: p(g) = cos^2 g cos^2(a-t) + sin^2 g cos^2(a+t) and the joint
minus probability sin^2 g cos^2(a+t). The MLE's independent oracle is a
512-point grid search over the conditional binomial log-likelihood.

"Standard configurations" for the asymptotic estimator checks are those whose
expected minus count nu * q(g_true) is at least 10; below that the
boundary-clipped estimator is measurably outside its asymptotic regime (its
variance is inflated relative to the information bound, see the campaign
small-count test).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wva_costlab import (
    ContractViolationError,
    EstimationUndefinedError,
    ExperimentConfig,
    FixedPostselected,
    FixedPrepared,
    TrialCounts,
    WvaError,
    cfi_discrete,
    conditional_outcome_model,
    fm_exact,
    hwp_settings,
    mle_g,
    outcome_model,
    postselect,
    probabilistic_qfi,
    real_superposition_setup,
    run_campaign,
    run_trial,
)
from wva_costlab.experiment import _readout_probabilities

THETA = np.pi / 6
ALPHA = -np.pi / 6

STANDARD_CONFIGURATIONS = [
    (np.pi / 6, -np.pi / 6, 0.0698),
    (np.pi / 6, -np.pi / 4, 0.0349),
    (np.pi / 6, -np.pi / 4, 0.0698),
]


def oracle_p(theta, alpha, g):
    return (
        np.cos(g) ** 2 * np.cos(alpha - theta) ** 2
        + np.sin(g) ** 2 * np.cos(alpha + theta) ** 2
    )


def oracle_minus_joint(theta, alpha, g):
    return np.sin(g) ** 2 * np.cos(alpha + theta) ** 2


def oracle_q(theta, alpha, g):
    return oracle_minus_joint(theta, alpha, g) / oracle_p(theta, alpha, g)


def oracle_conditional_cfi(theta, alpha, g):
    """(k^2 sin 2g / D^2)^2 / (q (1 - q)), k = cos(a+t)/cos(a-t), D = cos^2 g + k^2 sin^2 g."""
    k = np.cos(alpha + theta) / np.cos(alpha - theta)
    d = np.cos(g) ** 2 + k**2 * np.sin(g) ** 2
    q = k**2 * np.sin(g) ** 2 / d
    return (k**2 * np.sin(2 * g) / d**2) ** 2 / (q * (1.0 - q))


def oracle_joint_cfi(theta, alpha, g):
    """sum_k p_k'^2 / p_k over (fail, plus, minus) from the closed trig forms."""
    c_minus, c_plus = np.cos(alpha - theta) ** 2, np.cos(alpha + theta) ** 2
    plus, minus = c_minus * np.cos(g) ** 2, c_plus * np.sin(g) ** 2
    d_plus, d_minus = -c_minus * np.sin(2 * g), c_plus * np.sin(2 * g)
    fail, d_fail = 1.0 - plus - minus, -d_plus - d_minus
    return d_fail**2 / fail + d_plus**2 / plus + d_minus**2 / minus


def config(g=0.0349, nu=700, reps=10, seed=1, theta=THETA, alpha=ALPHA):
    return ExperimentConfig(
        theta=theta,
        alpha=alpha,
        g_true=g,
        stopping=FixedPostselected(nu),
        n_reps=reps,
        master_seed=seed,
    )


class TestOutcomeModel:
    def test_identity_evolution(self):
        model = outcome_model(THETA, 0.4)
        fail, plus, minus = model(0.0)
        assert minus == 0.0
        assert plus == pytest.approx(np.cos(0.4 - THETA) ** 2, abs=1e-12)
        assert fail == pytest.approx(1.0 - plus, abs=1e-12)

    def test_example_values(self):
        model = outcome_model(THETA, ALPHA)
        fail, plus, minus = model(0.0349)
        assert plus + minus == pytest.approx(0.2509131, abs=1e-6)
        assert minus / (plus + minus) == pytest.approx(0.0048523, abs=1e-6)

    def test_matches_trig_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            theta = rng.uniform(0.05, np.pi / 4)
            alpha = rng.uniform(-1.3, 1.3)
            g = rng.uniform(-0.4, 0.4)
            fail, plus, minus = outcome_model(theta, alpha)(g)
            assert plus + minus == pytest.approx(oracle_p(theta, alpha, g), abs=1e-12)
            assert minus == pytest.approx(oracle_minus_joint(theta, alpha, g), abs=1e-12)
            assert fail + plus + minus == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_configuration_rejected(self):
        with pytest.raises(ContractViolationError):
            outcome_model(np.pi / 2, 0.0)  # both cosines vanish, p identically 0

    def test_conditional_readout_information_limit(self):
        model = conditional_outcome_model(THETA, ALPHA)
        assert cfi_discrete(model, 1e-3) == pytest.approx(16.0, rel=0.01)


READOUT_POINTS = [
    (np.pi / 6, -np.pi / 6, 1e-3),
    (np.pi / 6, -np.pi / 6, 0.0349),
    (np.pi / 6, -np.pi / 4, 0.0698),
    (np.pi / 8, 0.4, 0.05),
    (np.pi / 4, -0.7, 1e-3),
    (0.3, 0.9, 0.2),
    (np.pi / 12, -1.2, 0.5),
]


class TestExactReadoutInformation:
    @pytest.mark.parametrize("theta, alpha, g", READOUT_POINTS)
    def test_conditional_cfi_matches_closed_form(self, theta, alpha, g):
        value = cfi_discrete(conditional_outcome_model(theta, alpha), g)
        assert type(value) is float
        assert value == pytest.approx(oracle_conditional_cfi(theta, alpha, g), rel=1e-10)

    @pytest.mark.parametrize("theta, alpha, g", READOUT_POINTS)
    def test_three_outcome_cfi_matches_closed_form(self, theta, alpha, g):
        value = cfi_discrete(outcome_model(theta, alpha), g)
        assert value == pytest.approx(oracle_joint_cfi(theta, alpha, g), rel=1e-10)

    def test_derivative_agrees_with_the_cached_probabilities(self):
        model = conditional_outcome_model(THETA, ALPHA)
        probabilities, slope = model.derivative(0.0349)
        plus, minus = _readout_probabilities(THETA, ALPHA, 0.0349)
        np.testing.assert_allclose(probabilities, [plus / (plus + minus), minus / (plus + minus)],
                                   rtol=1e-14)
        assert slope[0] == -slope[1]

    @pytest.mark.parametrize("field", ["theta", "alpha", "g"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_readout_input_rejected(self, field, bad):
        values = {"theta": THETA, "alpha": ALPHA, "g": 0.0349, field: bad}
        theta, alpha, g = values["theta"], values["alpha"], values["g"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any trig call
            with pytest.raises(WvaError):
                _readout_probabilities(theta, alpha, g)
            with pytest.raises(WvaError):
                cfi_discrete(conditional_outcome_model(theta, alpha), g)
            with pytest.raises(WvaError):
                outcome_model(theta, alpha)(g)

    def test_huge_finite_angles_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # alpha + theta would overflow to inf
            model = conditional_outcome_model(1.7e308, 1.7e308)
            assert math.isfinite(cfi_discrete(model, 0.03))


class TestRunTrial:
    def test_zero_coupling_never_fires_minus(self):
        cfg = config(g=0.0, nu=50, reps=1)
        assert all(run_trial(cfg, i).n_minus == 0 for i in range(20))

    def test_determinism(self):
        cfg = config(seed=123456789)
        assert run_trial(cfg, 7) == run_trial(cfg, 7)
        assert run_trial(cfg, 7) != run_trial(cfg, 8)

    def test_pinned_trial_stream(self):
        # Counts of PCG64(SeedSequence((2024, i))) under both stopping rules.
        expected = {
            FixedPostselected(700): [(9867, 700, 660, 40), (10510, 700, 657, 43),
                                     (10085, 700, 649, 51)],
            FixedPrepared(2000): [(2000, 138, 135, 3), (2000, 139, 128, 11),
                                  (2000, 145, 139, 6)],
        }
        for stopping, rows in expected.items():
            cfg = ExperimentConfig(np.pi / 6, -np.pi / 4, 0.0698, stopping, 3, 2024)
            assert [run_trial(cfg, i) for i in range(3)] == [TrialCounts(*r) for r in rows]

    def test_counts_are_consistent(self):
        cfg = config(nu=300)
        for i in range(10):
            counts = run_trial(cfg, i)
            assert counts.n_postselected == 300
            assert counts.n_plus + counts.n_minus == 300
            assert counts.n_prepared >= 300

    def test_fixed_prepared_stopping(self):
        cfg = ExperimentConfig(
            theta=THETA,
            alpha=ALPHA,
            g_true=0.0349,
            stopping=FixedPrepared(5000),
            n_reps=1,
            master_seed=3,
        )
        counts = run_trial(cfg, 0)
        assert counts.n_prepared == 5000
        p = oracle_p(THETA, ALPHA, 0.0349)
        assert abs(counts.n_postselected - 5000 * p) < 5 * np.sqrt(5000 * p * (1 - p))

    def test_preparation_count_follows_stopping_statistics(self):
        nu, trials = 700, 1000
        cfg = config(nu=nu, seed=42)
        p = oracle_p(THETA, ALPHA, 0.0349)
        prepared = np.array([run_trial(cfg, i).n_prepared for i in range(trials)])
        mean_expected = nu / p
        sd_of_mean = np.sqrt(nu * (1.0 - p) / p**2 / trials)
        assert abs(prepared.mean() - mean_expected) < 4.0 * sd_of_mean

    def test_counts_validation(self):
        with pytest.raises(ContractViolationError):
            TrialCounts(n_prepared=10, n_postselected=5, n_plus=3, n_minus=3)
        with pytest.raises(ContractViolationError):
            TrialCounts(n_prepared=4, n_postselected=5, n_plus=2, n_minus=3)

    def test_vanishing_success_probability_guard(self):
        from wva_costlab import NonTerminationError

        # overlap 1e-10 passes config validation but p(0) = 1e-20 can never
        # fill a postselected quota within the preparation budget
        theta = np.pi / 6
        cfg = ExperimentConfig(
            theta=theta,
            alpha=theta + np.pi / 2 - 1e-10,
            g_true=0.0,
            stopping=FixedPostselected(10),
            n_reps=1,
            master_seed=1,
        )
        with pytest.raises(NonTerminationError):
            run_trial(cfg, 0)


class TestMleG:
    def test_boundary_at_zero(self):
        counts = TrialCounts(1000, 700, 700, 0)
        assert mle_g(counts, THETA, ALPHA) == 0.0

    def test_documented_inversion(self):
        counts = TrialCounts(2800, 700, 696, 4)
        q_hat = 4.0 / 700.0
        expected = np.arctan(np.sqrt(0.25 * q_hat / (1.0 - q_hat)))
        got = mle_g(counts, THETA, ALPHA)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.037887, abs=1e-6)

    def test_inversion_consistency(self):
        # the estimate reproduces the observed fraction through the outcome law
        for n_minus in (1, 4, 25, 300):
            counts = TrialCounts(2800, 700, 700 - n_minus, n_minus)
            g_est = mle_g(counts, THETA, ALPHA)
            assert oracle_q(THETA, ALPHA, g_est) == pytest.approx(
                n_minus / 700.0, abs=1e-10
            )

    def test_ceiling_at_g_max(self):
        counts = TrialCounts(1000, 700, 0, 700)
        assert mle_g(counts, THETA, ALPHA, g_max=0.3) == 0.3

    def test_no_postselections_rejected(self):
        with pytest.raises(EstimationUndefinedError):
            mle_g(TrialCounts(10, 0, 0, 0), THETA, ALPHA)

    def test_grid_search_oracle(self):
        # independent oracle: maximize the conditional binomial log-likelihood
        # over a 512-point grid built from the closed trig outcome law
        rng = np.random.default_rng(99)
        g_max = np.pi / 4
        grid = np.linspace(0.0, g_max, 512)
        cell = grid[1] - grid[0]
        for _ in range(1000):
            theta = rng.uniform(0.1, np.pi / 4 - 0.05)
            alpha = rng.uniform(-1.1, 1.1)
            if abs(np.cos(alpha + theta)) < 0.05 or abs(np.cos(alpha - theta)) < 0.05:
                continue
            n_post = int(rng.integers(1, 2000))
            n_minus = int(rng.integers(0, n_post + 1))
            counts = TrialCounts(n_post, n_post, n_post - n_minus, n_minus)
            closed = mle_g(counts, theta, alpha, g_max)

            q = oracle_q(theta, alpha, grid)
            q = np.clip(q, 1e-300, 1.0 - 1e-16)
            loglik = n_minus * np.log(q) + (n_post - n_minus) * np.log1p(-q)
            best = grid[int(np.argmax(loglik))]
            assert abs(closed - best) <= cell + 1e-12


class TestRunCampaign:
    def test_determinism(self):
        cfg = config(nu=200, reps=40, seed=2024)
        assert run_campaign(cfg) == run_campaign(cfg)

    def test_zero_coupling_is_degenerate(self):
        cfg = config(g=0.0, nu=50, reps=30)
        report = run_campaign(cfg)
        assert report.degenerate
        assert report.g_est_var == 0.0
        assert report.fm_empirical is None
        assert report.cost_empirical is None

    def test_all_clipped_campaign_is_degenerate(self):
        # nu = 1: every estimate is 0 (a plus photon) or g_max (a minus photon),
        # so the spread of the estimates measures the clipping, not the readout.
        cfg = ExperimentConfig(0.5236, -0.5236, 0.05, FixedPostselected(1), 50, 3)
        report = run_campaign(cfg)
        estimates = {g for _, g in report.per_trial}
        assert estimates == {0.0, cfg.g_max}
        assert report.g_est_var > 0.0
        assert report.degenerate
        assert report.fm_empirical is None
        assert report.cost_empirical is None
        assert report.slack_empirical is None

    def test_partly_clipped_campaign_is_not_degenerate(self):
        report = run_campaign(config(nu=50, reps=40, seed=3))
        assert 0.0 in {g for _, g in report.per_trial}
        assert not report.degenerate
        assert report.fm_empirical is not None

    def test_single_rep_leaves_variance_undefined(self):
        report = run_campaign(config(reps=1))
        assert report.g_est_var is None
        assert report.fm_empirical is None
        assert not report.degenerate

    def test_probability_estimate_tracks_exact_value(self):
        cfg = config(nu=700, reps=300, seed=5)
        report = run_campaign(cfg)
        assert report.p_exact == pytest.approx(oracle_p(THETA, ALPHA, 0.0349), abs=1e-12)
        assert report.p_empirical == pytest.approx(report.p_exact, rel=0.01)

    @pytest.mark.parametrize("theta,alpha,g", STANDARD_CONFIGURATIONS)
    def test_estimator_bias_within_three_standard_errors(self, theta, alpha, g):
        # 400 repetitions keep the standard error above the O(1/count)
        # estimator bias, so the band tests sanity rather than asymptotics
        cfg = ExperimentConfig(
            theta=theta,
            alpha=alpha,
            g_true=g,
            stopping=FixedPostselected(700),
            n_reps=400,
            master_seed=11,
        )
        report = run_campaign(cfg)
        se = np.sqrt(report.g_est_var / cfg.n_reps)
        assert abs(report.g_est_mean - g) <= 3.0 * se

    @pytest.mark.parametrize("theta,alpha,g", STANDARD_CONFIGURATIONS)
    def test_information_attainment_on_standard_configurations(self, theta, alpha, g):
        cfg = ExperimentConfig(
            theta=theta,
            alpha=alpha,
            g_true=g,
            stopping=FixedPostselected(700),
            n_reps=1000,
            master_seed=17,
        )
        report = run_campaign(cfg)
        reference = cfi_discrete(conditional_outcome_model(theta, alpha), g)
        assert 0.9 * reference <= report.fm_empirical <= 1.1 * reference

    def test_small_count_variance_inflation(self):
        # at nu * q ~ 3.4 the boundary-clipped estimator is outside its
        # asymptotic regime: the inverse variance sits well below the
        # per-sample information, matching the exact sampling law
        cfg = config(nu=700, reps=4000, seed=23)
        report = run_campaign(cfg)
        assert report.fm_empirical < 0.9 * report.fm_exact
        assert report.fm_empirical == pytest.approx(12.27, rel=0.08)

    def test_stopping_rule_equivalence(self):
        theta, alpha, g = np.pi / 6, -np.pi / 4, 0.0349
        reps = 1200
        p = oracle_p(theta, alpha, g)
        by_quota = run_campaign(
            ExperimentConfig(theta, alpha, g, FixedPostselected(700), reps, 31)
        )
        by_budget = run_campaign(
            ExperimentConfig(theta, alpha, g, FixedPrepared(round(700 / p)), reps, 32)
        )
        sd = np.sqrt(2.0 / (reps - 1))
        sigma = np.hypot(by_quota.fm_empirical * sd, by_budget.fm_empirical * sd)
        assert abs(by_quota.fm_empirical - by_budget.fm_empirical) <= 2.0 * sigma

    def test_aggregates_match_per_trial_data(self):
        cfg = config(nu=150, reps=25, seed=8)
        report = run_campaign(cfg)
        ests = np.array([e for _, e in report.per_trial])
        assert report.g_est_mean == pytest.approx(ests.mean())
        assert report.g_est_var == pytest.approx(ests.var(ddof=1))
        prepared = sum(c.n_prepared for c, _ in report.per_trial)
        postselected = sum(c.n_postselected for c, _ in report.per_trial)
        assert report.p_empirical == pytest.approx(postselected / prepared)
        assert report.seed_echo == 8


class TestWavePlateSettings:
    def test_documented_mapping(self):
        settings = hwp_settings(np.pi / 6, -np.pi / 6, 0.0349)
        assert settings["meter_hwp"] == pytest.approx(np.pi / 8)
        assert settings["hwp1"] == pytest.approx(np.pi / 8 - np.pi / 12)
        assert settings["hwp1"] == pytest.approx(np.pi / 24)
        assert settings["hwp2"] == pytest.approx(0.01745, abs=5e-6)
        assert settings["hwp3"] == pytest.approx(-0.01745, abs=5e-6)
        assert settings["hwp4"] == pytest.approx(np.pi / 8 + np.pi / 12)

    def test_zero_angle_matches_meter_convention(self):
        assert hwp_settings(0.0, 0.0, 0.0)["hwp1"] == pytest.approx(np.pi / 8)


class TestConfigValidation:
    def test_degenerate_angles_rejected(self):
        with pytest.raises(ContractViolationError):
            config(theta=np.pi / 4, alpha=np.pi / 4)
        with pytest.raises(ContractViolationError):
            config(theta=np.pi / 4, alpha=-np.pi / 4)

    @pytest.mark.parametrize("field", ["theta", "alpha", "g"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_angles_rejected(self, field, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any trig call
            with pytest.raises(ContractViolationError, match="finite"):
                config(**{field: bad})

    @pytest.mark.parametrize("theta", [1.2, -0.3, 0.0, np.pi / 4.0 + 1e-9])
    def test_theta_outside_domain_rejected(self, theta):
        with pytest.raises(ContractViolationError, match=r"theta must lie in \(0, pi/4\]"):
            config(theta=theta)

    def test_theta_domain_includes_pi_over_4(self):
        assert config(theta=np.pi / 4).theta == np.pi / 4

    @pytest.mark.parametrize("g", [-0.05, -1e-12, np.pi / 4.0 + 1e-9, 1.2])
    def test_coupling_outside_estimator_range_rejected(self, g):
        with pytest.raises(ContractViolationError, match="g_max"):
            config(g=g)

    def test_coupling_range_follows_g_max(self):
        ExperimentConfig(THETA, ALPHA, 0.5, FixedPostselected(10), 1, 1, g_max=0.6)
        with pytest.raises(ContractViolationError, match="g_max"):
            ExperimentConfig(THETA, ALPHA, 0.5, FixedPostselected(10), 1, 1, g_max=0.4)

    def test_counts_and_seed_ranges(self):
        with pytest.raises(ContractViolationError):
            FixedPostselected(0)
        with pytest.raises(ContractViolationError):
            FixedPrepared(0)
        with pytest.raises(ContractViolationError):
            config(seed=-1)
        with pytest.raises(ContractViolationError):
            ExperimentConfig(THETA, ALPHA, 0.03, FixedPostselected(10), 1, 1, g_max=2.0)


def _finite_floats_or_wva_error(call):
    """Run ``call``; it must return a tuple of finite Python floats or raise WvaError."""
    try:
        values = call()
    except WvaError:
        return
    for value in values:
        assert type(value) is float and math.isfinite(value), values


ANY_FLOAT = st.one_of(st.floats(), st.floats(-2.0, 2.0))


@settings(max_examples=300, deadline=None)
@given(theta=ANY_FLOAT, alpha=ANY_FLOAT, g=ANY_FLOAT)
def test_public_entry_points_return_finite_floats_or_raise_wva_error(theta, alpha, g):
    def pure_quantities():
        setup = real_superposition_setup(theta, alpha, g)
        weighted, leading = probabilistic_qfi(setup)
        return postselect(setup).p, fm_exact(setup), weighted, leading

    def readout_information():
        return (cfi_discrete(conditional_outcome_model(theta, alpha), g),)

    def experiment_config():
        cfg = ExperimentConfig(theta, alpha, g, FixedPostselected(10), 2, 1)
        return cfg.theta, cfg.alpha, cfg.g_true

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (pure_quantities, readout_information, experiment_config):
            _finite_floats_or_wva_error(call)
