"""Stochastic simulation of the photon-counting postselection experiment.

A single trial prepares photons one at a time: each photon is postselected
with the exact success probability of the scenario and, on success, read out
on the meter in the recombined (plus/minus) basis. Trials stop either after a
fixed number of postselected photons or after a fixed number of prepared
photons. A campaign repeats many trials, estimates the coupling strength per
trial by maximum likelihood, and converts the estimator variance into an
empirical information value and an empirical cost point.

Randomness is fully reproducible: trial ``i`` of a campaign with master seed
``s`` draws from PCG64 seeded by ``SeedSequence((s, i))``, so reports are
bit-identical for identical configurations regardless of execution order.

The readout law comes from one evaluation of the scalar postselection kernel
per (theta, alpha, g), which also yields the exact derivative of the plus and
minus probabilities in g. The outcome models hand that derivative to
:func:`~wva_costlab.fisher.cfi_discrete`, so the readout information is exact
and needs no finite-difference step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .costs import CostPoint, CostRates, cost_point, l1_coherence, tradeoff_slack
from .errors import (
    ContractViolationError,
    EstimationUndefinedError,
    NonTerminationError,
    VanishingPostselectionError,
)
from .fisher import OutcomeModel
from .postselect import fm_exact, postselect, real_superposition_setup
from .states import (
    METER_MINUS,
    METER_PLUS,
    SIGMA_SPLIT,
    STANDARD_BASIS,
    _meter_core,
    check_theta,
)

PREPARATION_BUDGET = 10**9
_DEGENERACY_TOL = 1e-12
_PROB_FLOOR = 1e-30
_MAX_CHUNK = 1 << 20
# Amplitude pairs of the recombined readout basis |+>, |->.
_READOUT_BASIS = (tuple(METER_PLUS.amplitudes.tolist()), tuple(METER_MINUS.amplitudes.tolist()))


def _require_finite(where: str, **values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ContractViolationError(f"{where}: {name} must be finite")


@dataclass(frozen=True)
class FixedPostselected:
    """Stop a trial once ``nu`` photons have passed postselection."""

    nu: int

    def __post_init__(self):
        if self.nu < 1:
            raise ContractViolationError("FixedPostselected: nu must be >= 1")


@dataclass(frozen=True)
class FixedPrepared:
    """Stop a trial after exactly ``n`` prepared photons."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ContractViolationError("FixedPrepared: n must be >= 1")


Stopping = Union[FixedPostselected, FixedPrepared]


@dataclass(frozen=True)
class ExperimentConfig:
    """Full configuration of a simulated estimation campaign.

    Angles must be finite, the preparation angle must lie in (0, pi/4] and
    the true coupling must lie in [0, g_max], the interval on which the
    maximum-likelihood estimator inverts the readout.
    """

    theta: float
    alpha: float
    g_true: float
    stopping: Stopping
    n_reps: int
    master_seed: int
    g_max: float = np.pi / 4.0

    def __post_init__(self):
        _require_finite(
            "ExperimentConfig", theta=self.theta, alpha=self.alpha, g_true=self.g_true
        )
        check_theta(self.theta, "ExperimentConfig: theta")
        if self.n_reps < 1:
            raise ContractViolationError("ExperimentConfig: n_reps must be >= 1")
        if not (0 <= self.master_seed < 2**64):
            raise ContractViolationError("ExperimentConfig: master_seed must fit in 64 bits")
        if not (0.0 < self.g_max <= np.pi / 2.0 - 1e-6):
            raise ContractViolationError("ExperimentConfig: g_max out of range")
        # The estimator's readout curve is monotone on [0, g_max] only.
        if not (0.0 <= self.g_true <= self.g_max):
            raise ContractViolationError("ExperimentConfig: g_true must lie in [0, g_max]")
        # The estimator inverts the conditional readout probability, which is
        # strictly increasing on [0, g_max] only away from these degeneracies.
        if abs(np.cos(self.alpha + self.theta)) <= _DEGENERACY_TOL:
            raise ContractViolationError(
                "ExperimentConfig: cos(alpha + theta) = 0 leaves no readout signal"
            )
        if abs(np.cos(self.alpha - self.theta)) <= _DEGENERACY_TOL:
            raise ContractViolationError(
                "ExperimentConfig: cos(alpha - theta) = 0 starves postselection at g = 0"
            )


@dataclass(frozen=True)
class TrialCounts:
    """Photon counts of one trial: prepared, postselected, and readout split."""

    n_prepared: int
    n_postselected: int
    n_plus: int
    n_minus: int

    def __post_init__(self):
        if min(self.n_prepared, self.n_postselected, self.n_plus, self.n_minus) < 0:
            raise ContractViolationError("TrialCounts: counts must be non-negative")
        if self.n_plus + self.n_minus != self.n_postselected:
            raise ContractViolationError("TrialCounts: readout counts must sum up")
        if self.n_postselected > self.n_prepared:
            raise ContractViolationError("TrialCounts: more postselected than prepared")


@dataclass(frozen=True)
class CampaignReport:
    """Aggregated statistics of a campaign of independent trials.

    ``fm_empirical`` is 1 / (nu * var(g_est)) with nu the per-trial
    postselected count; it is None when the variance is undefined (single
    repetition). ``degenerate`` is set, and the empirical information, cost
    point and slack are None, when the variance of two or more estimates is
    zero (e.g. estimating g = 0) or every estimate is clipped to the
    boundary 0 or g_max, where the spread measures the clipping rather than
    the readout. Cost points use the conventional QFI 4 * Omega as reference.
    """

    g_est_mean: float
    g_est_var: Optional[float]
    fm_empirical: Optional[float]
    p_empirical: float
    fm_exact: float
    p_exact: float
    cost_empirical: Optional[CostPoint]
    cost_exact: CostPoint
    slack_empirical: Optional[float]
    slack_exact: float
    degenerate: bool
    per_trial: tuple[tuple[TrialCounts, float], ...]
    seed_echo: int


def _selection_cosines(theta: float, alpha: float, where: str) -> tuple[float, float]:
    """cos(alpha + theta) and cos(alpha - theta) of finite angles.

    Expanded in cos and sin of each angle, so no sum of two angles can
    overflow to infinity.
    """
    _require_finite(where, theta=theta, alpha=alpha)
    cc = math.cos(alpha) * math.cos(theta)
    ss = math.sin(alpha) * math.sin(theta)
    return cc - ss, cc + ss


def _readout(
    theta: float, alpha: float, g: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Exact joint readout probabilities (plus, minus) and their g-derivatives.

    One evaluation of the scalar postselection kernel for the preparation
    cos(theta)|0> + sin(theta)|1>, the postselection
    cos(alpha)|0> + sin(alpha)|1>, the meter |+> and A = M = sigma. The meter
    vector v and its derivative dv are projected on |+> and |->, and
    d|<e|v>|^2/dg = 2 Re(conj(<e|v>) <e|dv>). Probabilities below 1e-30
    collapse to exact zero. Non-finite inputs raise ContractViolationError.
    """
    _require_finite("readout", theta=theta, alpha=alpha, g=g)
    v0, v1, d0, d1 = _meter_core(
        (math.cos(theta), math.sin(theta)),
        (math.cos(alpha), math.sin(alpha)),
        _READOUT_BASIS[0],
        SIGMA_SPLIT,
        SIGMA_SPLIT,
        g,
    )
    probabilities = []
    slopes = []
    for e0, e1 in _READOUT_BASIS:
        amp = e0.conjugate() * v0 + e1.conjugate() * v1
        damp = e0.conjugate() * d0 + e1.conjugate() * d1
        p = abs(amp) ** 2
        probabilities.append(p if p >= _PROB_FLOOR else 0.0)
        slopes.append(2.0 * (amp.conjugate() * damp).real)
    return (probabilities[0], probabilities[1]), (slopes[0], slopes[1])


@lru_cache(maxsize=256)
def _readout_probabilities(theta: float, alpha: float, g: float) -> tuple[float, float]:
    """Exact joint probabilities (plus, minus) of a postselected readout.

    The probability half of :func:`_readout`, cached for the trial sampler
    and the estimator.
    """
    return _readout(theta, alpha, g)[0]


def outcome_model(theta: float, alpha: float) -> OutcomeModel:
    """Three-outcome model (fail, plus, minus) of one prepared photon.

    Probabilities and their exact g-derivatives come from the kernel
    (:func:`_readout`); closed trig forms exist only as test oracles.
    """
    c_plus, c_minus = _selection_cosines(theta, alpha, "outcome_model")
    if abs(c_plus) < _DEGENERACY_TOL and abs(c_minus) < _DEGENERACY_TOL:
        raise ContractViolationError("outcome_model: postselection never succeeds")

    def derivative(g: float) -> tuple[np.ndarray, np.ndarray]:
        (p_plus, p_minus), (dp_plus, dp_minus) = _readout(theta, alpha, g)
        return (
            np.array([1.0 - p_plus - p_minus, p_plus, p_minus]),
            np.array([-dp_plus - dp_minus, dp_plus, dp_minus]),
        )

    return OutcomeModel(
        probabilities=lambda g: derivative(g)[0],
        labels=("fail", "plus", "minus"),
        derivative=derivative,
    )


def conditional_outcome_model(theta: float, alpha: float) -> OutcomeModel:
    """Two-outcome model (plus, minus) conditioned on successful postselection.

    With q = p_minus / (p_plus + p_minus), the exact slope is
    dq/dg = (p_plus dp_minus - p_minus dp_plus) / (p_plus + p_minus)^2.
    """
    c_plus, c_minus = _selection_cosines(theta, alpha, "conditional_outcome_model")
    if abs(c_plus) < _DEGENERACY_TOL or abs(c_minus) < _DEGENERACY_TOL:
        raise ContractViolationError(
            "conditional_outcome_model: degenerate pre/postselection pair"
        )

    def derivative(g: float) -> tuple[np.ndarray, np.ndarray]:
        (p_plus, p_minus), (dp_plus, dp_minus) = _readout(theta, alpha, g)
        total = p_plus + p_minus
        if total <= 0.0:
            raise VanishingPostselectionError(
                "conditional_outcome_model: postselection never succeeds at this coupling"
            )
        dq = (p_plus * dp_minus - p_minus * dp_plus) / total**2
        return np.array([p_plus / total, p_minus / total]), np.array([-dq, dq])

    return OutcomeModel(
        probabilities=lambda g: derivative(g)[0],
        labels=("plus", "minus"),
        derivative=derivative,
    )


def _trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed, trial_index))))


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialCounts:
    """Simulate one trial; deterministic given (master_seed, trial_index).

    Photons are prepared one at a time: postselection succeeds with the exact
    scenario probability, and each postselected photon is read out from the
    conditional plus/minus law. The Bernoulli stream is consumed in
    preparation order, then in readout order.
    """
    rng = _trial_rng(config.master_seed, trial_index)
    p_plus, p_minus = _readout_probabilities(config.theta, config.alpha, config.g_true)
    p = p_plus + p_minus
    q = p_minus / p if p > 0 else 0.0

    if isinstance(config.stopping, FixedPostselected):
        if p < 1e-12:
            raise NonTerminationError(
                "run_trial: success probability below 1e-12; the postselected"
                f" quota cannot be met within {PREPARATION_BUDGET} preparations"
            )
        remaining = config.stopping.nu
        n_prepared = 0
        while remaining > 0:
            if n_prepared >= PREPARATION_BUDGET:
                raise NonTerminationError(
                    f"run_trial: exceeded {PREPARATION_BUDGET} preparations"
                )
            estimate = int(remaining / p * 1.2) + 64
            chunk = min(max(estimate, 1024), _MAX_CHUNK, PREPARATION_BUDGET - n_prepared)
            hits = rng.random(chunk) < p
            n_hits = int(np.count_nonzero(hits))
            if n_hits >= remaining:
                last = int(np.flatnonzero(hits)[remaining - 1])
                n_prepared += last + 1
                remaining = 0
            else:
                n_prepared += chunk
                remaining -= n_hits
        n_postselected = config.stopping.nu
    else:
        n_prepared = config.stopping.n
        n_postselected = int(np.count_nonzero(rng.random(n_prepared) < p))

    n_minus = int(np.count_nonzero(rng.random(n_postselected) < q)) if n_postselected else 0
    return TrialCounts(
        n_prepared=n_prepared,
        n_postselected=n_postselected,
        n_plus=n_postselected - n_minus,
        n_minus=n_minus,
    )


def mle_g(counts: TrialCounts, theta: float, alpha: float, g_max: float = np.pi / 4.0) -> float:
    """Maximum-likelihood estimate of the coupling from one trial's counts.

    The conditional minus-fraction is a strictly increasing function of the
    coupling on [0, g_max], so the binomial MLE is its closed-form inverse at
    the observed fraction, clipped to the boundary: an empty minus count maps
    to 0 and a fraction at or above the g_max value maps to g_max.
    """
    if counts.n_postselected < 1:
        raise EstimationUndefinedError("mle_g: no postselected samples")
    c_plus = np.cos(alpha + theta)
    c_minus = np.cos(alpha - theta)
    if abs(c_plus) <= _DEGENERACY_TOL or abs(c_minus) <= _DEGENERACY_TOL:
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


def run_campaign(
    config: ExperimentConfig, rates: CostRates = CostRates(1.0, 1.0, 1)
) -> CampaignReport:
    """Run all trials of a campaign and aggregate the estimation statistics.

    Aggregation runs in trial-index order with fixed-order summation, so the
    report is a pure function of the configuration.
    """
    per_trial: list[tuple[TrialCounts, float]] = []
    for index in range(config.n_reps):
        counts = run_trial(config, index)
        per_trial.append((counts, mle_g(counts, config.theta, config.alpha, config.g_max)))

    estimates = np.array([g for _, g in per_trial])
    g_mean = float(estimates.mean())
    g_var = float(estimates.var(ddof=1)) if config.n_reps >= 2 else None

    if isinstance(config.stopping, FixedPostselected):
        nu_eff = float(config.stopping.nu)
    else:
        nu_eff = float(np.mean([c.n_postselected for c, _ in per_trial]))

    all_clipped = all(g in (0.0, config.g_max) for _, g in per_trial)
    degenerate = g_var is not None and (g_var == 0.0 or all_clipped)
    fm_emp = None
    if g_var is not None and not degenerate and nu_eff > 0.0:
        fm_emp = 1.0 / (nu_eff * g_var)

    total_prepared = sum(c.n_prepared for c, _ in per_trial)
    total_postselected = sum(c.n_postselected for c, _ in per_trial)
    p_emp = total_postselected / total_prepared if total_prepared else 0.0

    setup = real_superposition_setup(config.theta, config.alpha, config.g_true)
    omega = setup.omega
    p_exact = postselect(setup).p
    fm_ex = fm_exact(setup)

    coherence = l1_coherence(STANDARD_BASIS.superposition(config.theta), STANDARD_BASIS)

    cost_ex = cost_point(4.0 * omega, p_exact * fm_ex, fm_ex, rates)
    slack_ex = tradeoff_slack(cost_ex, coherence)
    cost_emp = None
    slack_emp = None
    if fm_emp is not None:
        cost_emp = cost_point(4.0 * omega, p_emp * fm_emp, fm_emp, rates)
        slack_emp = tradeoff_slack(cost_emp, coherence)

    return CampaignReport(
        g_est_mean=g_mean,
        g_est_var=g_var,
        fm_empirical=fm_emp,
        p_empirical=p_emp,
        fm_exact=fm_ex,
        p_exact=p_exact,
        cost_empirical=cost_emp,
        cost_exact=cost_ex,
        slack_empirical=slack_emp,
        slack_exact=slack_ex,
        degenerate=bool(degenerate),
        per_trial=tuple(per_trial),
        seed_echo=config.master_seed,
    )


def hwp_settings(theta: float, alpha: float, g: float) -> dict[str, float]:
    """Wave-plate angles (radians) that realize the scenario on the bench.

    Documentation-grade mapping: the meter plate sits at pi/8, the preparation
    plate at pi/8 - theta/2, the two coupling plates at +-g/2, and the
    postselection plate mirrors the preparation convention at pi/8 - alpha/2.
    """
    return {
        "meter_hwp": np.pi / 8.0,
        "hwp1": np.pi / 8.0 - theta / 2.0,
        "hwp2": g / 2.0,
        "hwp3": -g / 2.0,
        "hwp4": np.pi / 8.0 - alpha / 2.0,
    }
