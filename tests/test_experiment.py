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
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    fm_leading,
    hwp_settings,
    in_weak_regime,
    leading_costs,
    mle_g,
    postselect,
    probabilistic_qfi,
    real_superposition_setup,
    run_campaign,
    run_trial,
    weak_regime_margin,
)
from wva_costlab import experiment, streams
from wva_costlab.experiment import (
    _MAX_CHUNK,
    G_MAX,
    _degenerate,
    _readout_law,
    _readout_probabilities,
    _trial_rng,
)
from wva_costlab.postselect import WEAK_REGIME_LIMIT

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


def config(g=0.0349, nu=700, reps=10, seed=1, theta=THETA, alpha=ALPHA):
    return ExperimentConfig(
        theta=theta,
        alpha=alpha,
        g_true=g,
        stopping=FixedPostselected(nu),
        n_reps=reps,
        master_seed=seed,
    )


def oracle_joint_slopes(theta, alpha, g):
    """d/dg of the joint plus and minus probabilities cos^2(a-t) cos^2 g, cos^2(a+t) sin^2 g."""
    sin_2g = np.sin(2 * g)
    return -np.cos(alpha - theta) ** 2 * sin_2g, np.cos(alpha + theta) ** 2 * sin_2g


class TestReadout:
    """The joint readout law (plus, minus) and its slopes, against the closed trig forms."""

    def test_identity_evolution(self):
        (plus, minus), _ = _readout_law(THETA, 0.4, 0.0)
        assert minus == 0.0
        assert plus == pytest.approx(np.cos(0.4 - THETA) ** 2, abs=1e-12)

    def test_example_values(self):
        (plus, minus), _ = _readout_law(THETA, ALPHA, 0.0349)
        assert plus + minus == pytest.approx(0.2509131, abs=1e-6)
        assert minus / (plus + minus) == pytest.approx(0.0048523, abs=1e-6)

    def test_matches_trig_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            theta = rng.uniform(0.05, np.pi / 4)
            alpha = rng.uniform(-1.3, 1.3)
            g = rng.uniform(-0.4, 0.4)
            (plus, minus), _ = _readout_law(theta, alpha, g)
            assert plus + minus == pytest.approx(oracle_p(theta, alpha, g), abs=1e-12)
            assert minus == pytest.approx(oracle_minus_joint(theta, alpha, g), abs=1e-12)

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
    def test_joint_slopes_match_closed_form(self, theta, alpha, g):
        _, slopes = _readout_law(theta, alpha, g)
        np.testing.assert_allclose(slopes, oracle_joint_slopes(theta, alpha, g), rtol=1e-10)

    def test_derivative_agrees_with_the_cached_probabilities(self):
        law = conditional_outcome_model(THETA, ALPHA)
        probabilities, slope = law(0.0349)
        plus, minus = _readout_probabilities(THETA, ALPHA, 0.0349)
        np.testing.assert_allclose(probabilities, [plus / (plus + minus), minus / (plus + minus)],
                                   rtol=1e-14)
        assert slope[0] == -slope[1]

    def test_conditional_readout_information_is_fm_exact(self):
        """The conditional readout carries the whole collapsed-meter QFI: cfi == fm_exact.

        A seeded panel with |cos(alpha +- theta)| > 1e-2 and log-uniform g in
        [1e-8, 0.7], plus its worst corner, g = 1e-8 at |cos(alpha + theta)|
        just above 1e-2. The readout's minus amplitude, about
        g cos(alpha + theta), keeps a rounding residue of about one ulp out of
        phase with it, whose square adds to the minus probability: a relative
        error of about (eps / (g cos(alpha + theta)))^2 in q and in the
        information, 1.7e-12 at worst seen (g = 1.15e-8, |cos| = 0.011).
        Elsewhere the two agree within 1e-12 relative.
        """
        rng = np.random.default_rng(41)
        corner = (0.7255152730522272, np.pi / 2 - 0.7255152730522272 + 0.0100002, 1e-8)
        panel = [corner]
        while len(panel) < 400:
            theta, alpha = rng.uniform(1e-3, np.pi / 4), rng.uniform(-np.pi / 2, np.pi / 2)
            if min(abs(np.cos(alpha + theta)), abs(np.cos(alpha - theta))) > 1e-2:
                panel.append((theta, alpha, 10.0 ** rng.uniform(-8.0, np.log10(0.7))))
        eps = np.finfo(float).eps
        for theta, alpha, g in panel:
            readout = cfi_discrete(conditional_outcome_model(theta, alpha), g)
            exact = fm_exact(real_superposition_setup(theta, alpha, g))
            rounding = (eps / (g * abs(np.cos(alpha + theta)))) ** 2
            assert abs(readout / exact - 1.0) <= 1e-12 + rounding, (theta, alpha, g)

    def test_the_law_checks_only_g_and_equals_the_readout_law(self, monkeypatch):
        law = conditional_outcome_model(THETA, ALPHA)
        points = (0.0349, -0.2, 0.0, 1)
        expected = []
        for g in points:
            (p_plus, p_minus), (dp_plus, dp_minus) = _readout_law(THETA, ALPHA, g)
            total = p_plus + p_minus
            dq = (p_plus * dp_minus - p_minus * dp_plus) / total**2
            expected.append(((p_plus / total, p_minus / total), (-dq, dq)))
        checked = []
        original = experiment.finite_real
        monkeypatch.setattr(
            experiment, "finite_real", lambda value, *what: checked.append(what) or original(value, *what)
        )
        assert repr([law(g) for g in points]) == repr(expected)  # every bit, signed zeros too
        assert checked == [("readout", "g")] * len(points)

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

    def test_huge_finite_angles_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # a huge alpha stays finite: theta <= pi/4 cannot push alpha + theta to inf
            model = conditional_outcome_model(THETA, 1.7e308)
            assert math.isfinite(cfi_discrete(model, 0.03))
            with pytest.raises(ContractViolationError, match=r"theta must lie in \(0, pi/4\]"):
                conditional_outcome_model(1.7e308, 1.7e308)


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

    def test_pinned_stream_across_a_seed_block_edge(self):
        # Counts of trials 254-258 under a two-word seed, recorded with numpy's
        # own PCG64(SeedSequence((s, i))) constructor; they straddle index 256.
        expected = {
            FixedPostselected(700): [(9872, 700, 656, 44), (10156, 700, 644, 56),
                                     (10188, 700, 662, 38), (10507, 700, 650, 50),
                                     (9748, 700, 666, 34)],
            FixedPrepared(2000): [(2000, 142, 133, 9), (2000, 136, 128, 8),
                                  (2000, 151, 144, 7), (2000, 141, 135, 6),
                                  (2000, 133, 126, 7)],
        }
        for stopping, rows in expected.items():
            cfg = ExperimentConfig(np.pi / 6, -np.pi / 4, 0.0698, stopping, 3, 2**40 + 7)
            got = [run_trial(cfg, i) for i in range(254, 259)]
            assert got == [TrialCounts(*r) for r in rows]

    def test_quota_beyond_one_chunk(self):
        # p ~ 1e-4, so 700 hits need about 6.6 million preparations, drawn in chunks of
        # at most _MAX_CHUNK; a test-local replay of the documented chunk rule on the
        # trial's own generator gives the same counts
        theta, alpha, g = np.pi / 6, np.pi / 6 - np.pi / 2 + 0.01, 1e-3
        cfg = ExperimentConfig(theta, alpha, g, FixedPostselected(700), 1, 3)
        counts = run_trial(cfg, 0)
        assert counts == TrialCounts(6612099, 700, 695, 5)

        p_plus, p_minus = _readout_probabilities(theta, alpha, g)
        p = p_plus + p_minus
        rng, remaining, prepared, full_chunks = _trial_rng(3, 0), 700, 0, 0
        while remaining > 0:
            chunk = min(max(int(remaining / p * 1.2) + 64, 1024), _MAX_CHUNK)
            hits = np.flatnonzero(rng.random(chunk) < p)
            if hits.size >= remaining:
                prepared += int(hits[remaining - 1]) + 1
                remaining = 0
            else:
                prepared += chunk
                remaining -= hits.size
                full_chunks += 1
        n_minus = int(np.count_nonzero(rng.random(700) < p_minus / p))
        assert full_chunks == 6 and prepared > 6 * _MAX_CHUNK
        assert counts == TrialCounts(prepared, 700, 700 - n_minus, n_minus)

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


def numpy_trial_state(seed, index):
    return np.random.PCG64(np.random.SeedSequence((seed, index))).state


class TestTrialStream:
    """The block-seeded generator is numpy's PCG64(SeedSequence((s, i))), bit for bit."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1] + [
        int(s) for s in np.random.default_rng(13).integers(0, 2**64, 50, dtype=np.uint64)
    ]
    INDICES = [0, 1, 255, 256, 257, 511, 512, 2**32 - 1, 2**32, 2**64 - 1]

    def test_matches_numpy_on_word_and_block_edges(self):
        for seed in self.SEEDS:
            for index in self.INDICES:
                state = _trial_rng(seed, index).bit_generator.state
                assert state == numpy_trial_state(seed, index), (seed, index)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), index=st.integers(0, 2**64 - 1))
    def test_matches_numpy_everywhere(self, seed, index):
        assert _trial_rng(seed, index).bit_generator.state == numpy_trial_state(seed, index)

    def test_drawing_leaves_the_cached_seed_words_unchanged(self):
        first = _trial_rng(2**40 + 7, 300)
        first.random(5000)
        first.bit_generator.advance(12345)
        again = _trial_rng(2**40 + 7, 300).bit_generator.state
        assert again == numpy_trial_state(2**40 + 7, 300)


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
        # nu = 1: every estimate is 0 (a plus photon) or G_MAX (a minus photon),
        # so the spread of the estimates measures the clipping, not the readout.
        cfg = ExperimentConfig(0.5236, -0.5236, 0.05, FixedPostselected(1), 50, 3)
        report = run_campaign(cfg)
        estimates = {g for _, g in report.per_trial}
        assert estimates == {0.0, G_MAX}
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


def force_workers(monkeypatch, workers):
    """Make every campaign split its trials over ``workers`` threads."""
    monkeypatch.setattr(experiment, "_worker_count", lambda n_reps, fill: workers)


def force_block(monkeypatch, size):
    """Make every campaign sample ``size`` trials per block (0: the serial path)."""
    monkeypatch.setattr(experiment, "_block_size", lambda width, workers: size)


def count_calls(monkeypatch, name):
    """Count the calls of a private experiment function, on any thread."""
    calls = []
    fn = getattr(experiment, name)

    def counting(*args):
        calls.append(None)
        return fn(*args)

    monkeypatch.setattr(experiment, name, counting)
    return calls


def serial_rows(cfg):
    """The campaign rows that the public trial and estimator functions give."""
    return tuple((c, mle_g(c, cfg.theta, cfg.alpha))
                 for c in (run_trial(cfg, i) for i in range(cfg.n_reps)))


class TestCampaignThreads:
    """Trials split over threads give the report of one thread, bit for bit."""

    # a C08 cell: p ~ 0.07, so each trial's first draw is about 12k uniforms
    C08_CELL = (np.pi / 6, -np.pi / 4, 0.0349)
    # p ~ 3e-4 at 5000 preparations: trial 1 of seed 17 postselects nothing, trial 0 does
    EMPTY_TRIAL = (0.5, 0.5 - np.pi / 2 + 0.015, 0.01, FixedPrepared(5000))

    @pytest.mark.parametrize("reps", [201, 600])
    @pytest.mark.parametrize("rule", ["postselected", "prepared"])
    def test_worker_count_leaves_the_report_unchanged(self, monkeypatch, rule, reps):
        theta, alpha, g = self.C08_CELL
        stopping = (FixedPostselected(700) if rule == "postselected"
                    else FixedPrepared(round(700 / oracle_p(theta, alpha, g))))
        cfg = ExperimentConfig(theta, alpha, g, stopping, reps, 2**32 - 5)
        reports = []
        for workers in (1, 2, 3):
            force_workers(monkeypatch, workers)
            reports.append(run_campaign(cfg))
        assert reports[1] == reports[0] and reports[2] == reports[0]
        # the public trial and estimator functions give the same rows
        counts = [run_trial(cfg, i) for i in range(reps)]
        assert reports[0].per_trial == tuple((c, mle_g(c, theta, alpha)) for c in counts)

    def test_worker_count_leaves_multi_chunk_trials_unchanged(self, monkeypatch):
        # the trial that test_quota_beyond_one_chunk pins, drawn in 7 chunks
        theta, alpha, g = np.pi / 6, np.pi / 6 - np.pi / 2 + 0.01, 1e-3
        cfg = ExperimentConfig(theta, alpha, g, FixedPostselected(700), 3, 3)
        reports = []
        for workers in (1, 2, 3):
            force_workers(monkeypatch, workers)
            reports.append(run_campaign(cfg))
        assert reports[0].per_trial[0][0] == TrialCounts(6612099, 700, 695, 5)
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_more_workers_than_cpus_under_fast_switching(self, monkeypatch):
        # every worker misses the seed-block cache at once and is preempted often
        cfg = ExperimentConfig(*self.C08_CELL, FixedPrepared(5000), 600, 2**40 + 9)
        force_workers(monkeypatch, 1)
        serial = run_campaign(cfg)
        force_workers(monkeypatch, experiment._usable_cpus() + 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            streams._seed_block.cache_clear()
            threaded = run_campaign(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_gate_follows_the_first_draw(self, monkeypatch):
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
        assert experiment._worker_count(100, experiment._THREAD_MIN_DRAW - 1) == 1
        assert experiment._worker_count(100, experiment._THREAD_MIN_DRAW) == 2
        assert experiment._worker_count(1, experiment._THREAD_MIN_DRAW) == 1
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 1)
        assert experiment._worker_count(100, 10**6) == 1

    def test_empty_trial_raises_the_estimator_error(self):
        # FixedPrepared(1) at p ~ 2.5e-3: a trial postselects nothing
        cfg = ExperimentConfig(0.5, 0.5 - np.pi / 2 + 0.05, 0.01, FixedPrepared(1), 5, 3)
        with pytest.raises(EstimationUndefinedError, match="^mle_g: no postselected samples$"):
            run_campaign(cfg)

    @pytest.mark.parametrize("seed", [17, 18], ids=["worker-only", "both-shares"])
    def test_empty_trial_on_a_worker_raises_the_estimator_error(self, monkeypatch, seed):
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
        *angles, stopping = self.EMPTY_TRIAL
        cfg = ExperimentConfig(*angles, stopping, 2, seed)
        assert experiment._worker_count(2, stopping.n) == 2
        threads = threading.active_count()
        with pytest.raises(EstimationUndefinedError, match="^mle_g: no postselected samples$"):
            run_campaign(cfg)
        assert threading.active_count() == threads

    def test_threads_end_with_the_campaign(self, monkeypatch):
        force_workers(monkeypatch, 2)
        threads = threading.active_count()
        run_campaign(ExperimentConfig(*self.C08_CELL, FixedPostselected(700), 50, 1))
        assert threading.active_count() == threads


class TestBlockSampler:
    """Block-sampled campaigns give the rows of the serial trial loop, bit for bit."""

    C08_CELL = (np.pi / 6, -np.pi / 4, 0.0349)  # p ~ 0.068: fills of 13.1k (nu = 700)
    # 601 trials: three shares of about 200 cross the seed blocks at 256 and 512
    REPS = 601

    @pytest.fixture(scope="class", params=["postselected", "prepared"])
    def case(self, request):
        theta, alpha, g = self.C08_CELL
        stopping = (FixedPostselected(700) if request.param == "postselected"
                    else FixedPrepared(round(700 / oracle_p(theta, alpha, g))))
        cfg = ExperimentConfig(theta, alpha, g, stopping, self.REPS, 2**32 - 3)
        return cfg, serial_rows(cfg)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block", [1, 3])
    def test_block_and_worker_counts_leave_the_rows_unchanged(self, monkeypatch, case, block,
                                                              workers):
        # TestCampaignThreads covers the budget's block sizes, 9 to 32 on this cell
        cfg, rows = case
        force_workers(monkeypatch, workers)
        force_block(monkeypatch, block)
        reads = count_calls(monkeypatch, "_sample_blocks")
        assert run_campaign(cfg).per_trial == rows
        assert len(reads) == workers

    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_short_first_chunks_are_drawn_again(self, monkeypatch, nu):
        # p ~ 4.7e-4: the first chunk holds fewer than nu successes for about a quarter
        cfg = ExperimentConfig(0.5, 0.5 - np.pi / 2 + 0.02, 0.01, FixedPostselected(nu), 300, 8)
        rows = serial_rows(cfg)
        force_workers(monkeypatch, 2)
        redone = count_calls(monkeypatch, "_sample_trial")
        assert run_campaign(cfg).per_trial == rows
        assert 30 < len(redone) < 150

    def test_readouts_beyond_the_bound_are_drawn_again(self, monkeypatch):
        # n = 400 at p ~ 0.16 with room for 65 readouts, about the mean: half miss;
        # q ~ 0.5, so a readout count cut at the room would show
        cfg = ExperimentConfig(np.pi / 6, np.pi / 6 - np.pi / 2 + 0.3, 0.3, FixedPrepared(400),
                               200, 9)
        rows = serial_rows(cfg)
        monkeypatch.setattr(experiment, "_speculation",
                            lambda stopping, p: (stopping.n, stopping.n + 65))
        force_block(monkeypatch, 7)
        redone = count_calls(monkeypatch, "_sample_trial")
        assert run_campaign(cfg).per_trial == rows
        assert 40 < len(redone) < 160

    def test_a_bound_below_n(self):
        # the readout bound n p + 6 sigma + 8 binds below n from moderate n on
        prepare, width = experiment._speculation(FixedPrepared(10_000), 0.068)
        assert prepare == 10_000 and width - prepare == int(680 + 6 * math.sqrt(680 * 0.932)) + 8
        assert experiment._speculation(FixedPrepared(3), 0.5) == (3, 6)
        # a rounded p above 1 leaves sigma at 0
        assert experiment._speculation(FixedPrepared(10), 1.0 + 2e-16) == (10, 20)

    def test_wide_fills_take_the_serial_path(self, monkeypatch):
        cfg = ExperimentConfig(*self.C08_CELL, FixedPrepared(10**5), 5, 4)
        assert experiment._block_size(experiment._speculation(cfg.stopping, 0.07)[1], 2) == 0
        rows = serial_rows(cfg)
        force_workers(monkeypatch, 2)
        reads = count_calls(monkeypatch, "_sample_blocks")
        assert run_campaign(cfg).per_trial == rows
        assert not reads

    def test_the_budget_bounds_the_buffers(self):
        for workers in (1, 2):
            for width in (2, 100, 1234, 4111, 13109, 30000):
                block = streams._block_size(width, workers)
                padded = 8 * -(-width // 8)
                assert 1 <= block <= streams._MAX_BLOCK
                used = 8 * width * (1 + workers) + workers * block * padded
                assert used <= streams._BLOCK_BUDGET
            # the block reader counts in uint16, so wider fills take the serial path
            assert streams._block_size(2**16, workers) == 0

    @settings(max_examples=40, deadline=None)
    @given(
        theta=st.floats(0.05, np.pi / 4),
        alpha=st.floats(-1.5, 1.5),
        g=st.floats(0.0, 0.3),
        rule=st.sampled_from(["postselected", "prepared"]),
        count=st.integers(1, 400),
        reps=st.integers(1, 40),
        seed=st.integers(0, 2**64 - 1),
        block=st.sampled_from([1, 2, 3, 5, 8, 32]),
        workers=st.sampled_from([1, 2, 3]),
    )
    def test_property_matches_the_serial_loop(self, theta, alpha, g, rule, count, reps, seed,
                                              block, workers):
        assume(min(abs(np.cos(alpha + theta)), abs(np.cos(alpha - theta))) >= 0.05)
        stopping = FixedPostselected(count) if rule == "postselected" else FixedPrepared(10 * count)
        cfg = ExperimentConfig(theta, alpha, g, stopping, reps, seed)
        try:
            rows = serial_rows(cfg)
        except EstimationUndefinedError:
            rows = None
        with pytest.MonkeyPatch.context() as monkeypatch:
            force_workers(monkeypatch, workers)
            force_block(monkeypatch, block)
            if rows is None:
                with pytest.raises(EstimationUndefinedError):
                    run_campaign(cfg)
            else:
                assert run_campaign(cfg).per_trial == rows


class TestPreparationBudget:
    def test_prepared_counts_beyond_the_budget_rejected(self):
        assert FixedPrepared(experiment.PREPARATION_BUDGET).n == experiment.PREPARATION_BUDGET
        with pytest.raises(ContractViolationError, match="^FixedPrepared: n must be at most"):
            FixedPrepared(experiment.PREPARATION_BUDGET + 1)
        # this used to escape as numpy's _ArrayMemoryError from run_campaign
        with pytest.raises(ContractViolationError):
            run_campaign(ExperimentConfig(np.pi / 6, -np.pi / 6, 0.0349, FixedPrepared(10**13),
                                          1, 1))

    def test_serial_draws_come_in_slices_of_at_most_max_chunk(self):
        n, p, q = 3 * _MAX_CHUNK + 7, 0.3, 0.2

        class Recording:
            def __init__(self, rng):
                self.rng, self.sizes = rng, []

            def random(self, size):
                self.sizes.append(size)
                return self.rng.random(size)

        rng = Recording(_trial_rng(5, 1))
        counts = experiment._sample_trial(rng, FixedPrepared(n), p, q)
        assert max(rng.sizes) == _MAX_CHUNK and sum(rng.sizes) == n + counts.n_postselected
        # one draw of n, then one of the postselected count, gives the same counts
        reference = _trial_rng(5, 1)
        post = int(np.count_nonzero(reference.random(n) < p))
        minus = int(np.count_nonzero(reference.random(post) < q))
        assert counts == TrialCounts(n, post, post - minus, minus)


class TestWavePlateSettings:
    def test_documented_mapping(self):
        settings = hwp_settings(np.pi / 6, -np.pi / 6, 0.0349)
        assert settings["meter_hwp"] == pytest.approx(np.pi / 8)
        assert settings["hwp1"] == pytest.approx(np.pi / 8 - np.pi / 12)
        assert settings["hwp1"] == pytest.approx(np.pi / 24)
        assert settings["hwp2"] == pytest.approx(0.01745, abs=5e-6)
        assert settings["hwp3"] == pytest.approx(-0.01745, abs=5e-6)
        assert settings["hwp4"] == pytest.approx(np.pi / 8 + np.pi / 12)

    def test_largest_angle_matches_meter_convention(self):
        # theta = pi/4, the top of the domain, puts the preparation plate at 0
        assert hwp_settings(np.pi / 4, 0.0, 0.0)["hwp1"] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize(
        "theta, alpha, g, message",
        [
            (0.0, 0.0, 0.0, "theta must lie in"),
            (5.0, 0.0, 0.0, "theta must lie in"),
            (0.5, np.inf, 0.0, "alpha must be finite"),
            (0.5, -0.5, 3.0, r"g must lie in \[0, g_max\]"),
            (0.5, -0.5, -0.01, r"g must lie in \[0, g_max\]"),
            (0.5, -0.5, np.nan, "g must be finite"),
        ],
    )
    def test_outside_the_campaign_domain_rejected(self, theta, alpha, g, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError, match=message):
                hwp_settings(theta, alpha, g)


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
        # a campaign's range is the constant G_MAX; mle_g's ceiling follows its own g_max
        ExperimentConfig(THETA, ALPHA, G_MAX, FixedPostselected(10), 1, 1)
        with pytest.raises(ContractViolationError, match="g_max"):
            ExperimentConfig(THETA, ALPHA, np.nextafter(G_MAX, 1.0), FixedPostselected(10), 1, 1)
        all_minus = TrialCounts(1000, 700, 0, 700)
        assert mle_g(all_minus, THETA, ALPHA, g_max=0.6) == 0.6
        assert mle_g(all_minus, THETA, ALPHA, g_max=np.pi / 2 - 1e-6) == np.pi / 2 - 1e-6
        for g_max in (-1.0, 0.0, np.pi / 2, 10.0):
            with pytest.raises(ContractViolationError, match="mle_g: g_max out of range"):
                mle_g(all_minus, THETA, ALPHA, g_max=g_max)
        for g_max in (math.nan, math.inf):
            with pytest.raises(ContractViolationError, match="mle_g: g_max must be finite"):
                mle_g(all_minus, THETA, ALPHA, g_max=g_max)

    def test_counts_and_seed_ranges(self):
        with pytest.raises(ContractViolationError):
            FixedPostselected(0)
        with pytest.raises(ContractViolationError):
            FixedPrepared(0)
        with pytest.raises(ContractViolationError):
            config(seed=-1)
        with pytest.raises(ContractViolationError, match="master_seed must fit in 64 bits"):
            config(seed=2**64)
        with pytest.raises(ContractViolationError, match="g_max out of range"):
            mle_g(TrialCounts(20, 10, 9, 1), THETA, ALPHA, g_max=2.0)


class TestIntegerCounts:
    """Counts, seeds and trial indices are integers: Python or numpy, never bool."""

    @pytest.mark.parametrize("bad", [2.5, 10.5, math.nan, math.inf, True, np.float64(3.0), "3"])
    def test_non_integral_stopping_counts_rejected(self, bad):
        for stopping, name in ((FixedPostselected, "nu"), (FixedPrepared, "n")):
            with pytest.raises(ContractViolationError, match=f": {name} must be an integer"):
                stopping(bad)

    @pytest.mark.parametrize("field, name", [("reps", "n_reps"), ("seed", "master_seed")])
    @pytest.mark.parametrize("bad", [2.5, math.nan, False, np.float64(2.0)])
    def test_non_integral_campaign_counts_rejected(self, field, name, bad):
        with pytest.raises(ContractViolationError, match=f"{name} must be an integer"):
            config(**{field: bad})

    def test_negative_or_fractional_trial_index_rejected(self):
        with pytest.raises(ContractViolationError, match="trial_index must be >= 0"):
            run_trial(config(), -1)
        with pytest.raises(ContractViolationError, match="trial_index must be an integer"):
            run_trial(config(), 1.5)

    def test_trial_index_must_fit_in_64_bits(self):
        cfg = ExperimentConfig(THETA, ALPHA, 0.0349, FixedPrepared(300), 1, 5)
        assert run_trial(cfg, 2**64 - 1).n_prepared == 300
        with pytest.raises(ContractViolationError, match="trial_index must fit in 64 bits"):
            run_trial(cfg, 2**64)

    def test_numpy_seed_and_index_give_the_python_counts(self):
        for seed, numpy_seeds in ((9, (np.int64(9), np.uint64(9))),
                                  (2**40 + 7, (np.int64(2**40 + 7), np.uint64(2**40 + 7))),
                                  (2**64 - 1, (np.uint64(2**64 - 1),))):
            as_python = ExperimentConfig(THETA, ALPHA, 0.0349, FixedPostselected(50), 1, seed)
            for index in (0, 255, 256, 2**40):
                expected = run_trial(as_python, index)
                assert run_trial(as_python, np.int64(index)) == expected
                assert run_trial(as_python, np.uint64(index)) == expected
                for numpy_seed in numpy_seeds:
                    as_numpy = ExperimentConfig(
                        THETA, ALPHA, 0.0349, FixedPostselected(50), 1, numpy_seed
                    )
                    assert run_trial(as_numpy, index) == expected
                    assert run_trial(as_numpy, np.uint64(index)) == expected

    @pytest.mark.parametrize(
        "counts, message",
        [
            ((10.5, 10.5, 5.5, 5.0), "n_prepared must be an integer"),  # mle_g gave 0.4757
            ((math.nan, 1, 1, 0), "n_prepared must be an integer"),
            ((10, 10.0, 5, 5), "n_postselected must be an integer"),
            ((10, 10, True, 9), "n_plus must be an integer"),
            ((10, 10, 5, "5"), "n_minus must be an integer"),
            ((10, 10, 11, -1), "n_minus must be >= 0"),
        ],
    )
    def test_trial_counts_are_non_negative_integers(self, counts, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError, match=message):
                TrialCounts(*counts)
        assert TrialCounts(np.int64(10), np.uint32(4), np.int8(1), 3).n_postselected == 4

    @pytest.mark.parametrize("stopping", [700, None, "nu", (700,)])
    def test_stopping_must_be_a_rule(self, stopping):
        # a bare count used to construct and then end in AttributeError in run_campaign
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError, match="stopping must be"):
                ExperimentConfig(0.5, -0.5, 0.03, stopping, 10, 1)

    def test_numpy_integers_accepted(self):
        as_numpy = ExperimentConfig(
            THETA, ALPHA, 0.0349, FixedPrepared(np.int64(300)), np.int32(4), np.uint64(9)
        )
        as_python = ExperimentConfig(THETA, ALPHA, 0.0349, FixedPrepared(300), 4, 9)
        assert run_campaign(as_numpy) == run_campaign(as_python)
        assert run_trial(as_python, np.int64(2)) == run_trial(as_python, 2)
        assert FixedPostselected(np.int16(5)).nu == 5


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
@example(theta=0.5, alpha=-0.5, g=1e308)  # g |A_w| Omega overflows
def test_public_entry_points_return_finite_floats_or_raise_wva_error(theta, alpha, g):
    def pure_quantities():
        setup = real_superposition_setup(theta, alpha, g)
        weighted, leading = probabilistic_qfi(setup)
        result = postselect(setup)
        margin = weak_regime_margin(setup)  # raises where a_w is None, so fm_leading gets a value
        assert in_weak_regime(setup) is (margin < WEAK_REGIME_LIMIT)
        leading_fm = fm_leading(setup.omega, result.a_w)
        return result.p, fm_exact(setup), weighted, leading, margin, leading_fm

    def readout_information():
        return (cfi_discrete(conditional_outcome_model(theta, alpha), g),)

    def experiment_config():
        cfg = ExperimentConfig(theta, alpha, g, FixedPostselected(10), 2, 1)
        return cfg.theta, cfg.alpha, cfg.g_true

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (pure_quantities, readout_information, experiment_config):
            _finite_floats_or_wva_error(call)


class TestDegeneracyRules:
    """One helper decides when cos(alpha +- theta) vanishes; each caller keeps its rule."""

    THETA = np.pi / 6
    PLUS_ZERO = np.pi / 2 - np.pi / 6  # cos(alpha + theta) vanishes
    MINUS_ZERO = np.pi / 2 + np.pi / 6  # cos(alpha - theta) vanishes

    def test_boundary_is_inclusive(self):
        assert _degenerate(1e-12, -1e-12) == (True, True)
        assert _degenerate(np.nextafter(1e-12, 1.0), 0.0) == (False, True)
        assert _degenerate(0.5, -np.nextafter(1e-12, 1.0)) == (False, False)
        assert _degenerate(math.nan, 0.5) == (False, False)

    def test_conditional_model_and_mle_reject_either(self):
        counts = TrialCounts(n_prepared=20, n_postselected=10, n_plus=9, n_minus=1)
        for alpha in (self.PLUS_ZERO, self.MINUS_ZERO):
            with pytest.raises(ContractViolationError, match="degenerate pre/postselection"):
                conditional_outcome_model(self.THETA, alpha)
            with pytest.raises(ContractViolationError, match="mle_g: degenerate"):
                mle_g(counts, self.THETA, alpha)

    def test_config_names_the_vanishing_side(self):
        with pytest.raises(ContractViolationError, match="no readout signal"):
            config(theta=self.THETA, alpha=self.PLUS_ZERO)
        with pytest.raises(ContractViolationError, match="starves postselection"):
            config(theta=self.THETA, alpha=self.MINUS_ZERO)


# The domain and cosine code that mle_g, leading_costs and the outcome models
# each carried before states.selection_cosines decided it once: the reference
# that every in-domain answer is compared against.
def reference_selection_cosines(theta, alpha):
    cc = math.cos(alpha) * math.cos(theta)
    ss = math.sin(alpha) * math.sin(theta)
    return cc - ss, cc + ss


def reference_degenerate(c_plus, c_minus, strict=False):
    if strict:
        return abs(c_plus) < 1e-12, abs(c_minus) < 1e-12
    return abs(c_plus) <= 1e-12, abs(c_minus) <= 1e-12


def reference_mle_g(counts, theta, alpha, g_max=np.pi / 4.0):
    if counts.n_postselected < 1:
        raise EstimationUndefinedError("mle_g: no postselected samples")
    c_plus = np.cos(alpha + theta)
    c_minus = np.cos(alpha - theta)
    if any(reference_degenerate(c_plus, c_minus)):
        raise ContractViolationError("mle_g: degenerate configuration")
    q_hat = counts.n_minus / counts.n_postselected
    if q_hat == 0.0:
        return 0.0
    p_plus_max, p_minus_max = _readout_probabilities(theta, alpha, g_max)
    q_max = p_minus_max / (p_plus_max + p_minus_max)
    if q_hat >= q_max:
        return float(g_max)
    tan_sq = q_hat / (1.0 - q_hat) * (c_minus**2 / c_plus**2)
    return float(np.arctan(np.sqrt(tan_sq)))


def reference_leading_costs(theta, alpha):
    c_plus = np.cos(alpha + theta)
    if abs(c_plus) < 1e-6:
        return None
    c_minus = np.cos(alpha - theta)
    return 1.0 / c_plus**2, c_minus**2 / c_plus**2


def reference_outcome_rejects(theta, alpha):
    return any(reference_degenerate(*reference_selection_cosines(theta, alpha), strict=True))


def outcome_error(build, theta, alpha):
    """The type of error ``build(theta, alpha)`` raises, or None when it returns a model."""
    try:
        build(theta, alpha)
    except WvaError as exc:
        return type(exc)
    return None


def near_tolerance(theta, alpha):
    """Whether a cosine lies within rounding of the degeneracy tolerance 1e-12.

    There the outcome models' decision may move: their rule went from strict to
    inclusive and their cosines from the expanded cos/sin form to cos(alpha +- theta).
    """
    cosines = (*reference_selection_cosines(theta, alpha), np.cos(alpha + theta),
               np.cos(alpha - theta))
    return any(abs(abs(c) - 1e-12) <= 1e-15 for c in cosines)


def assert_matches_reference(theta, alpha, counts, g_max):
    try:
        expected = reference_mle_g(counts, theta, alpha, g_max)
    except WvaError as exc:
        with pytest.raises(type(exc)):
            mle_g(counts, theta, alpha, g_max)
    else:
        got = mle_g(counts, theta, alpha, g_max)
        assert got == expected and type(got) is float, (theta, alpha, counts, g_max)
    assert leading_costs(theta, alpha) == reference_leading_costs(theta, alpha)
    if not near_tolerance(theta, alpha):
        rejected = reference_outcome_rejects(theta, alpha)
        error = outcome_error(conditional_outcome_model, theta, alpha)
        assert error is (ContractViolationError if rejected else None), (theta, alpha)


def in_domain_points(seed, count):
    """Seeded (theta, alpha) pairs: random ones, and ones with a cosine near +-1e-12 or near 0."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        theta = np.pi / 4 - rng.uniform(0.0, np.pi / 4)
        points.append((theta, rng.uniform(-np.pi / 2, np.pi / 2)))
        # cos(alpha + theta) is about d at alpha = pi/2 - theta - d and at -pi/2 - theta + d;
        # cos(alpha - theta) is about d at alpha = pi/2 + theta - d
        d = rng.choice([-1.0, 1.0]) * 1e-12 * rng.choice([0.5, 0.99, 1.01, 2.0, rng.uniform(0, 3)])
        points.append((theta, np.pi / 2 - theta - d))
        points.append((theta, np.pi / 2 + theta - d))
        points.append((theta, -np.pi / 2 - theta + d))
        points.append((theta, np.pi / 2 - theta + rng.uniform(-2e-6, 2e-6)))  # the cp pole
    return points


class TestSelectionDomain:
    """Every in-domain answer is the one the per-caller checks gave; the rest raise."""

    COUNTS = (TrialCounts(700, 700, 700, 0), TrialCounts(2800, 700, 696, 4),
              TrialCounts(1000, 700, 350, 350), TrialCounts(1000, 700, 0, 700))

    def test_seeded_points_match_the_reference(self):
        points = in_domain_points(2024, 60)
        assert sum(near_tolerance(*p) for p in points) == 0  # every decision is compared
        for i, (theta, alpha) in enumerate(points):
            g_max = (np.pi / 4, 0.3, 0.6, 1.2)[i % 4]
            assert_matches_reference(theta, alpha, self.COUNTS[i % 4], g_max)

    def test_reference_sees_both_decisions(self):
        points = in_domain_points(2024, 60)
        decisions = {reference_outcome_rejects(*p) for p in points}
        assert decisions == {True, False}
        assert {reference_leading_costs(*p) is None for p in points} == {True, False}

    @settings(max_examples=300, deadline=None)
    @given(
        theta=st.floats(1e-300, np.pi / 4),
        alpha=st.one_of(st.floats(-4.0, 4.0), st.floats(-1e300, 1e300)),
        offset=st.one_of(st.none(), st.floats(-3e-12, 3e-12)),
        n_minus=st.integers(0, 50),
        g_max=st.sampled_from([np.pi / 4, 0.05, 0.6, np.pi / 2 - 1e-6]),
    )
    def test_property_matches_the_reference(self, theta, alpha, offset, n_minus, g_max):
        if offset is not None:  # put cos(alpha + theta) at about offset
            alpha = np.pi / 2 - theta - offset
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = TrialCounts(100, 50, 50 - n_minus, n_minus)
            assert_matches_reference(theta, alpha, counts, g_max)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: mle_g(TrialCounts(10, 10, 10, 0), math.nan, 0.3),
            lambda: mle_g(TrialCounts(20, 10, 9, 1), 5.0, -0.3),
            lambda: mle_g(TrialCounts(20, 10, 9, 1), 0.5, -0.3, g_max=-1.0),
            lambda: mle_g(TrialCounts(20, 10, 9, 1), 0.5, -0.3, g_max=10.0),
            lambda: leading_costs(1e308, 1e308),
            lambda: leading_costs(5.0, 0.3),
            lambda: conditional_outcome_model(-0.3, 0.2),
            lambda: mle_g(TrialCounts(20, 10, 9, 1), 0.5, math.inf),
        ],
        ids=["mle-theta-nan", "mle-theta-5", "mle-g_max-neg", "mle-g_max-10",
             "leading-huge", "leading-theta-5", "conditional-theta-neg",
             "mle-alpha-inf"],
    )
    def test_out_of_domain_raises_without_a_warning(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError):
                call()
