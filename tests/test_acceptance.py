"""Acceptance suite: one test per release criterion, with a printed verdict line.

Criterion 08 (the benchmark photon-counting campaigns, with a 10% band on the
recovered information) is expected to fail in part: with 700 postselected
photons per trial, the expected minus count at the smaller coupling is only
~3-12, and the exact sampling law of the boundary-clipped maximum-likelihood
estimator puts the empirical inverse variance 4-23% below the collapsed-state
information there, outside the band. The same inflation reverses the expected
small-coupling ordering of the empirical distances to the theory curve. The
two `criterion 08 supplement` tests pin the implementation to the exactly
computed sampling law and verify the intended ordering on the exact
(noise-free) theory points, demonstrating that the failures are properties of
the counting protocol itself, not of the code.
"""

import time

import numpy as np
import pytest
from scipy.stats import binom

import wva_costlab as w
from wva_costlab.verify import (
    DEFAULT_THETAS,
    suite_conventional_information,
    suite_incoherent_ceiling,
    suite_leading_order,
    suite_overlap_identity,
    suite_tradeoff_bound,
    suite_weighted_ceiling,
)

THETAS = (np.pi / 16, np.pi / 12, np.pi / 8, np.pi / 6, np.pi / 5, np.pi / 4.5, np.pi / 4)
BASIS = w.ReferenceBasis.standard()
UNIT_RATES = w.CostRates(1.0, 1.0, 1)

BENCH_GS = (0.0349, 0.0698)
BENCH_ALPHAS = (-np.pi / 6, -np.pi / 5, -np.pi / 4.5, -np.pi / 4)
BENCH_NU = 700
BENCH_REPS = 1000
BENCH_SEED = 20240810

# configurations with expected minus count nu * q >= 10, where the estimator
# is inside its asymptotic regime (see the module docstring)
STANDARD_CONFIGURATIONS = (
    (np.pi / 6, -np.pi / 4, 0.0349),
    (np.pi / 6, -np.pi / 6, 0.0698),
    (np.pi / 6, -np.pi / 5, 0.0698),
    (np.pi / 6, -np.pi / 4.5, 0.0698),
    (np.pi / 6, -np.pi / 4, 0.0698),
)


def _verdict(num, ok, detail=""):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}")


def _campaign(theta, alpha, g, seed=BENCH_SEED, reps=BENCH_REPS):
    cfg = w.ExperimentConfig(
        theta=theta,
        alpha=alpha,
        g_true=g,
        stopping=w.FixedPostselected(BENCH_NU),
        n_reps=reps,
        master_seed=seed,
    )
    return w.run_campaign(cfg)


def test_c01_overlap_identity():
    """1000 random ket pairs satisfy the Bloch half-angle overlap identity."""
    start = time.perf_counter()
    suite = suite_overlap_identity(seed=101)
    worst = suite.detail["worst_abs_error"]
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _verdict(1, ok, f"worst error {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_c02_conventional_information_reproduction():
    """Coupled product inputs carry information 4*Omega, pure or incoherent."""
    start = time.perf_counter()
    suite = suite_conventional_information()
    elapsed = time.perf_counter() - start
    worst = suite.detail["worst_abs_deviation"]
    _verdict(2, suite.passed and elapsed < 2.0,
             f"worst deviation from 4 is {worst:.2e}, {elapsed:.2f}s")
    assert suite.detail["points"] == len(THETAS) + 9  # every theta, mu = 0.1, ..., 0.9
    assert worst <= 1e-6
    assert elapsed < 2.0


def test_c03_weak_value_leading_order_convergence():
    """Collapsed-state information converges monotonically to 4*Omega*|A_w|^2."""
    start = time.perf_counter()
    suite = suite_leading_order()
    elapsed = time.perf_counter() - start
    checked = suite.detail["points"]
    _verdict(3, suite.passed and checked > 100 and elapsed < 5.0,
             f"{checked} grid configurations, {elapsed:.2f}s")
    assert suite.detail["monotone"]
    assert suite.detail["worst_rel_distance"] < 1e-3
    assert checked > 100
    assert elapsed < 5.0


def test_c04_success_weighted_information_ceiling():
    """p * F_m never exceeds 4*Omega and attains it at optimal postselection.

    The attainment clause is a leading-order statement, so it carries the
    weak-regime gate g |A_w| Omega < 0.1: at theta = pi/4 the optimal
    postselection is exactly orthogonal (unbounded weak value) and is
    excluded, as for every leading-order assertion.
    """
    suite = suite_weighted_ceiling()
    worst = suite.detail["worst_excess"]
    _verdict(4, suite.passed, f"worst excess over 4 is {worst:.2e}")
    assert suite.detail["points"] == 5040  # every grid angle but theta's singular one
    assert worst <= 1e-12
    assert suite.detail["optimal_points"] == len(THETAS) - 1  # all but theta = pi/4
    assert suite.detail["attainment_gap"] <= 1e-3


def test_c05_incoherent_inputs_grant_no_advantage():
    """Postselected meter information from incoherent inputs stays at 4*Omega."""
    suite = suite_incoherent_ceiling()
    worst = suite.detail["worst_excess"]
    _verdict(5, suite.passed, f"worst excess over 4 is {worst:.2e}")
    assert worst <= 1e-12
    assert suite.detail["oracle_abs_difference"] <= 1e-6
    assert suite.detail["advantage_points"] == 0


def test_c06_tradeoff_bound_soundness_and_endpoints():
    """The coherence bound holds on the full sweep and the curve endpoints match."""
    start = time.perf_counter()
    assert DEFAULT_THETAS == THETAS  # the suite's one panel is the criterion's
    suite = suite_tradeoff_bound()
    min_slack = suite.worst_slack
    max_sat_gap = suite.detail["saturation_gap"]
    assert suite.detail["points"] == 5040
    assert suite.detail["sound"] and suite.detail["saturated"]

    curve_pi6 = w.boundary_curve(np.pi / 6)
    curve_pi4 = w.boundary_curve(np.pi / 4)
    endpoint_pi6 = (curve_pi6[0].cost.cp_norm, curve_pi6[0].cost.cm_norm)
    endpoint_pi4 = (curve_pi4[0].cost.cp_norm, curve_pi4[0].cost.cm_norm)
    elapsed = time.perf_counter() - start

    ok = (
        min_slack >= -1e-9
        and max_sat_gap <= 1e-6
        and abs(endpoint_pi6[0] - 1.0) <= 1e-9
        and abs(endpoint_pi6[1] - 0.25) <= 1e-9
        and abs(endpoint_pi4[0] - 1.0) <= 1e-9
        and abs(endpoint_pi4[1]) <= 1e-9
        and elapsed < 5.0
    )
    _verdict(6, ok, f"min slack {min_slack:.2e}, saturation gap {max_sat_gap:.2e}, {elapsed:.2f}s")
    assert min_slack >= -1e-9
    assert max_sat_gap <= 1e-6
    assert endpoint_pi6 == pytest.approx((1.0, 0.25), abs=1e-9)
    assert endpoint_pi4 == pytest.approx((1.0, 0.0), abs=1e-9)
    assert elapsed < 5.0


def test_c07_published_bound_counterexample():
    """Compatibility mode shows the published bound form cannot be saturated."""
    theta = np.pi / 8
    printed = w.boundary_curve(theta, printed_form=True)
    worst_gap = max(s.slack for s in printed)
    suite = w.run_suites(names=["tradeoff-bound"], printed_form=True)[0]
    ok = worst_gap > 0.1 and not suite.passed
    _verdict(7, ok, f"saturating points miss the published bound by {worst_gap:.3f} rad")
    assert worst_gap > 0.1
    assert not suite.passed


def _benchmark_reports():
    reports = {}
    for g in BENCH_GS:
        for alpha in BENCH_ALPHAS:
            reports[(g, alpha)] = _campaign(np.pi / 6, alpha, g)
    return reports


def test_c08_campaign_statistical_surrogate():
    """Seeded benchmark campaigns recover the exact information quantities.

    Expected to fail in part; see the module docstring and the two
    criterion 08 supplement tests.
    """
    start = time.perf_counter()
    reports = _benchmark_reports()
    elapsed = time.perf_counter() - start

    band_failures = []
    slack_failures = []
    for (g, alpha), report in reports.items():
        ratio = report.fm_empirical / report.fm_exact
        if not 0.9 <= ratio <= 1.1:
            band_failures.append(f"(g={g}, alpha={alpha:.4f}): ratio {ratio:.3f}")
        sigma_fm = report.fm_empirical * np.sqrt(2.0 / (BENCH_REPS - 1))
        coherence = w.l1_coherence(BASIS.superposition(np.pi / 6), BASIS)

        def slack_at(fm, report=report, coherence=coherence):
            point = w.cost_point(4.0, report.p_empirical * fm, fm, UNIT_RATES)
            return w.tradeoff_slack(point, coherence)

        sigma_slack = abs(
            slack_at(report.fm_empirical + sigma_fm)
            - slack_at(report.fm_empirical - sigma_fm)
        ) / 2.0
        if report.slack_empirical < -3.0 * sigma_slack:
            slack_failures.append(f"(g={g}, alpha={alpha:.4f})")

    mean_gap = {
        g: np.mean([abs(reports[(g, a)].slack_empirical) for a in BENCH_ALPHAS])
        for g in BENCH_GS
    }
    ordering_ok = mean_gap[0.0349] < mean_gap[0.0698]

    for (g, alpha), report in sorted(reports.items()):
        print(
            f"  g={g:.4f} alpha={alpha:+.4f}: fm_emp={report.fm_empirical:7.3f}"
            f" fm_exact={report.fm_exact:7.3f} ratio={report.fm_empirical / report.fm_exact:.3f}"
            f" slack_emp={report.slack_empirical:+.4f}"
        )
    print(f"  mean |slack|: g=0.0349 -> {mean_gap[0.0349]:.4f}, g=0.0698 -> {mean_gap[0.0698]:.4f}")

    ok = not band_failures and not slack_failures and ordering_ok and elapsed < 60.0
    _verdict(
        8,
        ok,
        f"{len(band_failures)} band misses, {len(slack_failures)} slack misses,"
        f" ordering {'holds' if ordering_ok else 'reversed'}, {elapsed:.1f}s",
    )
    assert elapsed < 60.0
    assert not slack_failures, f"empirical points below -3 sigma: {slack_failures}"
    assert not band_failures, (
        "empirical information outside the 10% band (small-count estimator"
        f" inflation; see module docstring): {band_failures}"
    )
    assert ordering_ok, (
        "empirical distance-to-curve ordering reversed by small-count"
        f" estimator inflation: {mean_gap}"
    )


def test_c08_supplement_exact_sampling_law():
    """The simulated inverse variance matches the exactly computed estimator law.

    This pins the campaign machinery to the analytic sampling distribution of
    the pinned estimator, isolating the criterion 08 band misses as a
    property of the protocol (700 postselected photons) rather than a bug.
    """
    theta = np.pi / 6
    for g, alpha in [(0.0349, -np.pi / 6), (0.0698, -np.pi / 6), (0.0349, -np.pi / 4)]:
        q = w.conditional_outcome_model(theta, alpha)(g)[0][1]
        ks = np.arange(BENCH_NU + 1)
        pmf = binom.pmf(ks, BENCH_NU, q)
        estimates = np.array(
            [
                w.mle_g(
                    w.TrialCounts(BENCH_NU, BENCH_NU, BENCH_NU - k, k), theta, alpha
                )
                for k in ks
            ]
        )
        mean = float((pmf * estimates).sum())
        var = float((pmf * (estimates - mean) ** 2).sum())
        law_fm = 1.0 / (BENCH_NU * var)

        report = _campaign(theta, alpha, g, seed=5150, reps=4000)
        assert report.fm_empirical == pytest.approx(law_fm, rel=0.06)
    print("  campaign inverse variance matches the exact sampling law within 6%")


def test_c08_supplement_exact_theory_ordering():
    """Noise-free theory points do sit closer to the curve at smaller coupling."""
    theta = np.pi / 6
    coherence = w.l1_coherence(BASIS.superposition(theta), BASIS)
    mean_gap = {}
    for g in BENCH_GS:
        gaps = []
        for alpha in BENCH_ALPHAS:
            setup = w.real_superposition_setup(theta, alpha, g)
            p = w.postselect(setup).p
            fm = w.fm_exact(setup)
            point = w.cost_point(4.0, p * fm, fm, UNIT_RATES)
            gaps.append(abs(w.tradeoff_slack(point, coherence)))
        mean_gap[g] = float(np.mean(gaps))
    print(f"  exact-theory mean |slack|: {mean_gap}")
    assert mean_gap[0.0349] < mean_gap[0.0698]


def test_c09_information_attainment_on_standard_configurations():
    """Empirical inverse variance tracks the readout information within 10%."""
    failures = []
    for theta, alpha, g in STANDARD_CONFIGURATIONS:
        report = _campaign(theta, alpha, g)
        reference = w.cfi_discrete(w.conditional_outcome_model(theta, alpha), g)
        ratio = report.fm_empirical / reference
        if not 0.9 <= ratio <= 1.1:
            failures.append(f"(theta={theta:.3f}, alpha={alpha:.3f}, g={g}): {ratio:.3f}")
    ok = not failures
    _verdict(9, ok, f"{len(STANDARD_CONFIGURATIONS)} standard configurations")
    assert not failures, failures


def test_c10_oracle_equivalences():
    """Spectral-vs-SLD agreement and closed-form-vs-grid-search MLE agreement."""
    suite = w.run_suites(names=["oracle-agreement"], seed=424242)[0]

    rng = np.random.default_rng(31337)
    g_max = np.pi / 4
    grid = np.linspace(0.0, g_max, 512)
    cell = grid[1] - grid[0]
    worst = 0.0
    checked = 0
    while checked < 1000:
        theta = rng.uniform(0.1, np.pi / 4 - 0.05)
        alpha = rng.uniform(-1.1, 1.1)
        if abs(np.cos(alpha + theta)) < 0.05 or abs(np.cos(alpha - theta)) < 0.05:
            continue
        n_post = int(rng.integers(1, 2000))
        n_minus = int(rng.integers(0, n_post + 1))
        counts = w.TrialCounts(n_post, n_post, n_post - n_minus, n_minus)
        closed = w.mle_g(counts, theta, alpha, g_max)
        q = np.sin(grid) ** 2 * np.cos(alpha + theta) ** 2 / (
            np.cos(grid) ** 2 * np.cos(alpha - theta) ** 2
            + np.sin(grid) ** 2 * np.cos(alpha + theta) ** 2
        )
        q = np.clip(q, 1e-300, 1.0 - 1e-16)
        loglik = n_minus * np.log(q) + (n_post - n_minus) * np.log1p(-q)
        best = grid[int(np.argmax(loglik))]
        worst = max(worst, abs(closed - best))
        checked += 1

    ok = suite.passed and worst <= cell + 1e-12
    _verdict(
        10,
        ok,
        f"spectral-vs-SLD worst {suite.detail['worst_abs_difference']:.2e},"
        f" MLE worst offset {worst:.2e} (cell {cell:.2e})",
    )
    assert suite.passed
    assert worst <= cell + 1e-12


def test_c11_simulate_determinism(tmp_path):
    """Identical seeds produce byte-identical campaign artifacts."""
    from wva_costlab.cli import main

    args = [
        "simulate",
        "--theta",
        str(np.pi / 6),
        "--alpha",
        str(-np.pi / 6),
        "--g",
        "0.0349",
        "--nu",
        "80",
        "--reps",
        "60",
        "--seed",
        "99",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    ta, tb = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a), "--trials-out", str(ta)]) == 0
    assert main(args + ["--out", str(b), "--trials-out", str(tb)]) == 0
    ok = a.read_bytes() == b.read_bytes() and ta.read_bytes() == tb.read_bytes()
    _verdict(11, ok, "byte-identical report and per-trial files")
    assert ok
