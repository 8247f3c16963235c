"""Stochastic simulation of the photon-counting postselection experiment.

A single trial prepares photons one at a time: each photon is postselected
with the exact success probability of the scenario and, on success, read out
on the meter in the recombined (plus/minus) basis. Trials stop either after a
fixed number of postselected photons or after a fixed number of prepared
photons. A campaign repeats many trials, estimates the coupling strength per
trial by maximum likelihood, and converts the estimator variance into an
empirical information value and an empirical cost point.

Randomness is fully reproducible: trial ``i`` of a campaign with master seed
``s`` draws from PCG64 seeded by ``SeedSequence((s, i))``
(:mod:`~wva_costlab.streams`), so reports are bit-identical for identical
configurations regardless of execution order.

A campaign derives the readout law and the estimator constants once and
samples its trials in blocks of up to 32. Each trial makes one speculative
fill of its stream: the first Bernoulli chunk of a :class:`FixedPostselected`
rule, or all ``n`` preparations of a :class:`FixedPrepared` one, followed by
its readout uniforms (``nu`` of them, or a 6-sigma bound on the postselected
count). One compare against a per-campaign threshold row (p, then q) keeps a
bool per uniform; then a few numpy calls per block find every count and the
nu-th success (:func:`~wva_costlab.streams._sample_blocks`). A trial whose
speculation misses (a first chunk short of ``nu``, or a postselected count
above the bound) is drawn again by the serial sampler behind
:func:`run_trial`, which stays the one definition of a trial's stream;
trials too wide for the block buffers take that path throughout. The
estimates come from the check-free half of :func:`mle_g`.

When each trial fills at least 3072 uniforms and the process may use two
CPUs, the trials are split into two contiguous shares, and a second thread
runs one while the caller's thread runs the other. numpy fills and compares
without the interpreter lock, so the trials overlap. Every trial keeps its
own stream and the shares are joined in index order, so reports are
bit-identical for any CPU count and block size. Worker threads call only
private functions: the benchmark's tracer (``bench/tracer.py``) wraps the
public ones and keeps one span stack, which assumes a single thread, so no
function it wraps may run on a worker.

The readout law comes from one evaluation of the scalar postselection kernel
``postselect._meter_core`` per (theta, alpha, g), which also yields the exact
derivative of the plus and minus probabilities in g. The conditional outcome
model is a plain law ``g -> (probabilities, slopes)`` that hands that
derivative to :func:`~wva_costlab.fisher.cfi_discrete`, so the readout
information is exact and needs no finite-difference step.

:class:`ExperimentConfig`, the conditional outcome model and :func:`mle_g`
take their angles through :func:`~wva_costlab.states.selection_cosines` and
share one degeneracy test, |cos(alpha +- theta)| <= 1e-12; each rejects a pair
where either cosine vanishes. The estimator inverts the readout on [0, G_MAX],
where it is strictly increasing in g.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .costs import UNIT_RATES, CostPoint, cost_point, preparation_coherence, tradeoff_slack
from .errors import (
    ContractViolationError,
    EstimationUndefinedError,
    NonTerminationError,
    VanishingPostselectionError,
)
from .fisher import OutcomeLaw
from .postselect import _meter_core, fm_exact, postselect, real_superposition_setup
from .states import (
    METER_MINUS,
    METER_PLUS,
    STANDARD_SIGMA,
    check_count,
    check_seed,
    finite_real,
    selection_cosines,
)
from .streams import _block_seed_type, _block_size, _sample_blocks, _trial_rng

PREPARATION_BUDGET = 10**9
G_MAX = np.pi / 4.0
_DEGENERACY_TOL = 1e-12
_PROB_FLOOR = 1e-30
_MAX_CHUNK = 1 << 20
# A campaign runs its trials on two threads only when each trial fills at
# least this many uniforms at once. Below it, starting the worker and the
# interpreter lock's hand-offs cost more than the overlapped fills gain:
# 200-trial FixedPrepared campaigns (2 vCPUs, Python 3.11, numpy 2.4, median
# of 61 alternated runs) ran on two threads 0.87-0.93x as fast as on one at
# fills of 2.0k-2.3k uniforms, 1.03x at 2.8k, 1.10-1.23x at 3.1k-3.9k and
# 1.31-1.59x at 4.5k-18k; the cli's simulate (nu = 200, 100 trials, fills of
# 1.2k) ran 0.67x as fast.
_THREAD_MIN_DRAW = 3072
# Each trial still holds the lock for about 4 us of Python between its fill
# and its compare, which caps what more threads can add. Three threads on the
# same 2 vCPUs ran 1.11-1.26x as fast as one at fills of 4.5k-18k and slower
# than two at every size; more CPUs were not measured.
_MAX_THREADS = 2
# Amplitude pairs of the recombined readout basis |+>, |->.
_READOUT_BASIS = (tuple(METER_PLUS.amplitudes.tolist()), tuple(METER_MINUS.amplitudes.tolist()))


def _check_coupling(where: str, name: str, g: float) -> None:
    """A scenario coupling must be finite and lie in [0, G_MAX]."""
    finite_real(g, where, name)
    if not (0.0 <= g <= G_MAX):
        raise ContractViolationError(f"{where}: {name} must lie in [0, g_max]")


@dataclass(frozen=True)
class FixedPostselected:
    """Stop a trial once ``nu`` photons have passed postselection."""

    nu: int

    def __post_init__(self):
        check_count(self.nu, "FixedPostselected: nu")


@dataclass(frozen=True)
class FixedPrepared:
    """Stop a trial after exactly ``n`` prepared photons, at most :data:`PREPARATION_BUDGET`."""

    n: int

    def __post_init__(self):
        check_count(self.n, "FixedPrepared: n")
        if self.n > PREPARATION_BUDGET:
            raise ContractViolationError(
                f"FixedPrepared: n must be at most {PREPARATION_BUDGET} preparations"
            )


Stopping = Union[FixedPostselected, FixedPrepared]


@dataclass(frozen=True)
class ExperimentConfig:
    """Full configuration of a simulated estimation campaign.

    The angles must pass :func:`~wva_costlab.states.selection_cosines`, the
    true coupling must lie in [0, g_max] with g_max = :data:`G_MAX`, the
    interval on which the maximum-likelihood estimator inverts the readout,
    and ``stopping`` must be a :class:`FixedPostselected` or
    :class:`FixedPrepared` rule.
    """

    theta: float
    alpha: float
    g_true: float
    stopping: Stopping
    n_reps: int
    master_seed: int

    def __post_init__(self):
        cosines = selection_cosines(self.theta, self.alpha, "ExperimentConfig")
        _check_coupling("ExperimentConfig", "g_true", self.g_true)
        if not isinstance(self.stopping, (FixedPostselected, FixedPrepared)):
            raise ContractViolationError(
                "ExperimentConfig: stopping must be FixedPostselected or FixedPrepared"
            )
        check_count(self.n_reps, "ExperimentConfig: n_reps")
        check_seed(self.master_seed, "ExperimentConfig: master_seed")
        # The estimator inverts the conditional readout probability, which is
        # strictly increasing on [0, g_max] only away from these degeneracies.
        plus_dead, minus_dead = _degenerate(*cosines)
        if plus_dead:
            raise ContractViolationError(
                "ExperimentConfig: cos(alpha + theta) = 0 leaves no readout signal"
            )
        if minus_dead:
            raise ContractViolationError(
                "ExperimentConfig: cos(alpha - theta) = 0 starves postselection at g = 0"
            )


@dataclass(frozen=True)
class TrialCounts:
    """Non-negative integer photon counts of one trial: prepared, postselected, readout split."""

    n_prepared: int
    n_postselected: int
    n_plus: int
    n_minus: int

    def __post_init__(self):
        check_count(self.n_prepared, "TrialCounts: n_prepared", minimum=0)
        check_count(self.n_postselected, "TrialCounts: n_postselected", minimum=0)
        check_count(self.n_plus, "TrialCounts: n_plus", minimum=0)
        check_count(self.n_minus, "TrialCounts: n_minus", minimum=0)
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
    boundary 0 or G_MAX, where the spread measures the clipping rather than
    the readout. The empirical cost point uses the conventional QFI 4 * Omega
    as reference; ``fm_exact`` and ``p_exact`` are the exact values at g_true.
    """

    g_est_mean: float
    g_est_var: Optional[float]
    fm_empirical: Optional[float]
    p_empirical: float
    fm_exact: float
    p_exact: float
    cost_empirical: Optional[CostPoint]
    slack_empirical: Optional[float]
    degenerate: bool
    per_trial: tuple[tuple[TrialCounts, float], ...]


def _degenerate(c_plus: float, c_minus: float) -> tuple[bool, bool]:
    """Whether each of cos(alpha + theta), cos(alpha - theta) counts as zero: |c| <= 1e-12."""
    return abs(c_plus) <= _DEGENERACY_TOL, abs(c_minus) <= _DEGENERACY_TOL


def _readout_law(
    theta: float, alpha: float, g: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Exact joint readout probabilities (plus, minus) and their g-derivatives.

    One evaluation of the scalar postselection kernel for the preparation
    cos(theta)|0> + sin(theta)|1>, the postselection
    cos(alpha)|0> + sin(alpha)|1>, the meter |+> and A = M = sigma. The meter
    vector v and its derivative dv are projected on |+> and |->, and
    d|<e|v>|^2/dg = 2 Re(conj(<e|v>) <e|dv>). Probabilities below 1e-30
    collapse to exact zero. Nothing is checked: callers check that all three
    inputs are finite, as :func:`_readout_probabilities` and the conditional
    outcome model do.
    """
    v0, v1, d0, d1 = _meter_core(
        (math.cos(theta), math.sin(theta)),
        (math.cos(alpha), math.sin(alpha)),
        _READOUT_BASIS[0],
        STANDARD_SIGMA._split,
        STANDARD_SIGMA._split,
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

    The probability half of :func:`_readout_law`, cached for the trial sampler
    and the estimator. Non-finite inputs raise ContractViolationError.
    """
    for name, value in (("theta", theta), ("alpha", alpha), ("g", g)):
        finite_real(value, "readout", name)
    return _readout_law(theta, alpha, g)[0]


def conditional_outcome_model(theta: float, alpha: float) -> OutcomeLaw:
    """Two-outcome readout law (plus, minus) conditioned on successful postselection.

    Returns ``g -> ((1 - q, q), (-dq/dg, dq/dg))`` for
    :func:`~wva_costlab.fisher.cfi_discrete`, with q = p_minus / (p_plus + p_minus)
    and the exact slope dq/dg = (p_plus dp_minus - p_minus dp_plus) / (p_plus + p_minus)^2.
    """
    cosines = selection_cosines(theta, alpha, "conditional_outcome_model")
    if any(_degenerate(*cosines)):
        raise ContractViolationError(
            "conditional_outcome_model: degenerate pre/postselection pair"
        )

    def law(g: float) -> tuple[tuple[float, float], tuple[float, float]]:
        finite_real(g, "readout", "g")  # theta and alpha passed selection_cosines above
        (p_plus, p_minus), (dp_plus, dp_minus) = _readout_law(theta, alpha, g)
        total = p_plus + p_minus
        if total <= 0.0:
            raise VanishingPostselectionError(
                "conditional_outcome_model: postselection never succeeds at this coupling"
            )
        dq = (p_plus * dp_minus - p_minus * dp_plus) / total**2
        return (p_plus / total, p_minus / total), (-dq, dq)

    return law


def _chunk(remaining: int, p: float, n_prepared: int) -> int:
    """Size of a FixedPostselected trial's next Bernoulli draw.

    About 1.2 times the preparations the ``remaining`` quota needs, plus 64,
    within [1024, 2**20] and the preparations left in the budget. The sizes
    decide which draws the readout consumes, so they are part of the stream.
    """
    estimate = int(remaining / p * 1.2) + 64
    return min(max(estimate, 1024), _MAX_CHUNK, PREPARATION_BUDGET - n_prepared)


def _trial_law(config: ExperimentConfig) -> tuple[float, float]:
    """Success probability p and conditional minus probability q of the scenario.

    Raises NonTerminationError when a postselected quota cannot be met.
    """
    p_plus, p_minus = _readout_probabilities(config.theta, config.alpha, config.g_true)
    p = p_plus + p_minus
    if isinstance(config.stopping, FixedPostselected) and p < 1e-12:
        raise NonTerminationError(
            "run_trial: success probability below 1e-12; the postselected"
            f" quota cannot be met within {PREPARATION_BUDGET} preparations"
        )
    return p, (p_minus / p if p > 0 else 0.0)


def _count_below(rng: np.random.Generator, n: int, threshold: float) -> int:
    """How many of the generator's next ``n`` uniforms fall below ``threshold``.

    The uniforms are drawn in slices of at most 2**20, which consume the same
    stream as one draw of ``n``, so no call holds more than 9 MB of them.
    """
    count = 0
    for start in range(0, n, _MAX_CHUNK):
        count += int(np.count_nonzero(rng.random(min(_MAX_CHUNK, n - start)) < threshold))
    return count


def _sample_trial(rng: np.random.Generator, stopping: Stopping, p: float, q: float) -> TrialCounts:
    """One trial's counts from its generator under the law (p, q) of :func:`_trial_law`.

    The one definition of a trial's stream: :func:`run_trial` calls it, and so
    does a campaign for every trial whose block speculation misses.
    """
    if isinstance(stopping, FixedPostselected):
        remaining = stopping.nu
        n_prepared = 0
        while remaining > 0:
            if n_prepared >= PREPARATION_BUDGET:
                raise NonTerminationError(
                    f"run_trial: exceeded {PREPARATION_BUDGET} preparations"
                )
            chunk = _chunk(remaining, p, n_prepared)
            hits = rng.random(chunk) < p
            n_hits = int(np.count_nonzero(hits))
            if n_hits >= remaining:
                last = int(np.flatnonzero(hits)[remaining - 1])
                n_prepared += last + 1
                remaining = 0
            else:
                n_prepared += chunk
                remaining -= n_hits
        n_postselected = stopping.nu
    else:
        n_prepared = stopping.n
        n_postselected = _count_below(rng, n_prepared, p)

    n_minus = _count_below(rng, n_postselected, q)
    return TrialCounts(
        n_prepared=n_prepared,
        n_postselected=n_postselected,
        n_plus=n_postselected - n_minus,
        n_minus=n_minus,
    )


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialCounts:
    """Simulate one trial; deterministic given (master_seed, trial_index).

    Photons are prepared one at a time: postselection succeeds with the exact
    scenario probability, and each postselected photon is read out from the
    conditional plus/minus law. The Bernoulli stream is consumed in
    preparation order, then in readout order.
    """
    check_seed(trial_index, "run_trial: trial_index")
    rng = _trial_rng(config.master_seed, trial_index)
    return _sample_trial(rng, config.stopping, *_trial_law(config))


def _estimator(
    theta: float, alpha: float, c_plus: float, c_minus: float, g_max: float
) -> tuple[float, float, float]:
    """The constants of :func:`mle_g` for one scenario.

    They are (c_minus**2 / c_plus**2, the conditional minus probability at
    g_max, float(g_max)).
    """
    p_plus_max, p_minus_max = _readout_probabilities(theta, alpha, g_max)
    q_max = p_minus_max / (p_plus_max + p_minus_max)
    return c_minus**2 / c_plus**2, q_max, float(g_max)


def _estimate(counts: TrialCounts, estimator: tuple[float, float, float]) -> float:
    """The clipped closed-form MLE of :func:`mle_g` from the constants of :func:`_estimator`."""
    if counts.n_postselected < 1:
        raise EstimationUndefinedError("mle_g: no postselected samples")
    ratio, q_max, g_max = estimator
    q_hat = counts.n_minus / counts.n_postselected
    if q_hat == 0.0:
        return 0.0
    if q_hat >= q_max:
        return g_max
    return float(np.arctan(np.sqrt(q_hat / (1.0 - q_hat) * ratio)))


def mle_g(counts: TrialCounts, theta: float, alpha: float, g_max: float = G_MAX) -> float:
    """Maximum-likelihood estimate of the coupling from one trial's counts.

    The conditional minus-fraction is a strictly increasing function of the
    coupling on [0, g_max], so the binomial MLE is its closed-form inverse at
    the observed fraction, clipped to the boundary: an empty minus count maps
    to 0 and a fraction at or above the g_max value maps to g_max. Neither
    cosine may vanish, and g_max must lie in (0, pi/2 - 1e-6].
    """
    c_plus, c_minus = selection_cosines(theta, alpha, "mle_g")
    if any(_degenerate(c_plus, c_minus)):
        raise ContractViolationError("mle_g: degenerate configuration")
    g_max = finite_real(g_max, "mle_g", "g_max")
    if not (0.0 < g_max <= np.pi / 2.0 - 1e-6):
        raise ContractViolationError("mle_g: g_max out of range")
    return _estimate(counts, _estimator(theta, alpha, c_plus, c_minus, g_max))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(n_reps: int, fill: int) -> int:
    """Threads for a campaign whose trials each fill ``fill`` uniforms at once."""
    if fill < _THREAD_MIN_DRAW:
        return 1
    return min(_MAX_THREADS, _usable_cpus(), n_reps)


def _speculation(stopping: Stopping, p: float) -> tuple[int, int]:
    """(prepare, width) of a campaign's speculative fill.

    ``prepare`` uniforms decide postselection: the first chunk
    ``_chunk(nu, p, 0)`` of a :class:`FixedPostselected` trial, or all ``n``
    of a :class:`FixedPrepared` one. The readout uniforms follow: ``nu`` of
    them, or min(n, n p + 6 sigma + 8) with sigma**2 = n p (1 - p), a bound on
    the postselected count. The fill holds ``width`` uniforms in all.
    """
    if isinstance(stopping, FixedPostselected):
        prepare = _chunk(stopping.nu, p, 0)
        return prepare, prepare + stopping.nu
    n = stopping.n
    return n, n + min(n, int(n * p + 6.0 * math.sqrt(max(n * p * (1.0 - p), 0.0))) + 8)


def _run_trials(config: ExperimentConfig) -> list[tuple[TrialCounts, float]]:
    """Every trial's counts and estimate, in index order, on one or two threads.

    The law, the estimator constants and the threshold row are derived once.
    Share k of the trial indices is a contiguous range; the caller's thread
    runs share 0. Each share runs in blocks (``streams._sample_blocks``) and
    redraws a trial whose speculation missed through :func:`_sample_trial`,
    or runs trial by trial through it when a block of one does not fit the
    byte budget. Every worker is joined, and the error of the
    lowest-indexed failing share is raised, which is the error of the lowest
    failing trial. Workers run only private functions: the benchmark's
    tracer wraps the public ones and assumes a single thread.
    """
    p, q = _trial_law(config)
    c_plus, c_minus = selection_cosines(config.theta, config.alpha, "run_campaign")
    estimator = _estimator(config.theta, config.alpha, c_plus, c_minus, G_MAX)
    stopping, seed, n_reps = config.stopping, config.master_seed, config.n_reps
    prepare, width = _speculation(stopping, p)
    workers = _worker_count(n_reps, width)
    block = _block_size(width, workers)
    if block:
        thresholds = np.full(width, q)
        thresholds[:prepare] = p
        nu = stopping.nu if isinstance(stopping, FixedPostselected) else None
    bounds = [n_reps * k // workers for k in range(workers + 1)]
    shares: list[list[tuple[TrialCounts, float]]] = [[] for _ in range(workers)]
    errors: list[Optional[Exception]] = [None] * workers

    def run_share(k: int) -> None:
        indices = range(bounds[k], bounds[k + 1])
        try:
            if block:
                trials = (
                    TrialCounts(prepared, post, post - minus, minus) if hit
                    else _sample_trial(_trial_rng(seed, index), stopping, p, q)
                    for index, hit, prepared, post, minus
                    in _sample_blocks(seed, indices, thresholds, prepare, nu, block)
                )
            else:
                trials = (_sample_trial(_trial_rng(seed, i), stopping, p, q) for i in indices)
            for counts in trials:
                shares[k].append((counts, _estimate(counts, estimator)))
        except Exception as exc:  # raised on the caller's thread below
            errors[k] = exc

    _block_seed_type()  # import numpy.random and build the seed type once, here
    threads = [threading.Thread(target=run_share, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        run_share(0)
    finally:
        for thread in threads:
            thread.join()
    for error in errors:
        if error is not None:
            raise error
    return [row for share in shares for row in share]


def run_campaign(config: ExperimentConfig) -> CampaignReport:
    """Run all trials of a campaign and aggregate the estimation statistics.

    Trial ``i`` gives the counts of ``run_trial(config, i)`` and the estimate
    of :func:`mle_g` on them. Trials are sampled in blocks: one fill and one
    compare per trial, the counts of a whole block read at once, and a trial
    whose speculative fill misses drawn again by ``run_trial``'s sampler.
    When each trial fills at least 3072 uniforms and the process may use two
    CPUs, a second thread runs the upper half of the trial indices; the
    error of the lowest failing trial is raised after both halves end.
    Aggregation runs in trial-index order with fixed-order summation, so the
    report is a pure function of the configuration, bit-identical for any
    CPU count. Raw costs are at UNIT_RATES.
    """
    per_trial = _run_trials(config)
    estimates = np.array([g for _, g in per_trial])
    g_mean = float(estimates.mean())
    g_var = float(estimates.var(ddof=1)) if config.n_reps >= 2 else None

    if isinstance(config.stopping, FixedPostselected):
        nu_eff = float(config.stopping.nu)
    else:
        nu_eff = float(np.mean([c.n_postselected for c, _ in per_trial]))

    all_clipped = all(g in (0.0, G_MAX) for _, g in per_trial)
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

    cost_emp = None
    slack_emp = None
    if fm_emp is not None:
        cost_emp = cost_point(4.0 * omega, p_emp * fm_emp, fm_emp, UNIT_RATES)
        slack_emp = tradeoff_slack(cost_emp, preparation_coherence(config.theta))

    return CampaignReport(
        g_est_mean=g_mean,
        g_est_var=g_var,
        fm_empirical=fm_emp,
        p_empirical=p_emp,
        fm_exact=fm_ex,
        p_exact=p_exact,
        cost_empirical=cost_emp,
        slack_empirical=slack_emp,
        degenerate=bool(degenerate),
        per_trial=tuple(per_trial),
    )


def hwp_settings(theta: float, alpha: float, g: float) -> dict[str, float]:
    """Wave-plate angles (radians) that realize the scenario on the bench.

    Documentation-grade mapping: the meter plate sits at pi/8, the preparation
    plate at pi/8 - theta/2, the two coupling plates at +-g/2, and the
    postselection plate mirrors the preparation convention at pi/8 - alpha/2.
    The scenario domain is :class:`ExperimentConfig`'s: the angles must pass
    :func:`~wva_costlab.states.selection_cosines` and g must lie in
    [0, :data:`G_MAX`]; anything else raises ContractViolationError.
    """
    selection_cosines(theta, alpha, "hwp_settings")
    _check_coupling("hwp_settings", "g", g)
    return {
        "meter_hwp": np.pi / 8.0,
        "hwp1": np.pi / 8.0 - theta / 2.0,
        "hwp2": g / 2.0,
        "hwp3": -g / 2.0,
        "hwp4": np.pi / 8.0 - alpha / 2.0,
    }
