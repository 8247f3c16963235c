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
Seed and index must each fit in 64 bits. The SeedSequence hash is computed
here on numpy arrays, once per block of 256 consecutive indices, and numpy's
PCG64 seeds itself from each trial's row; the stream is numpy's to the bit.
Zero-padding the entropy to the hash pool is exact: ``(s, i)`` is at most 4
32-bit words, and SeedSequence hashes 0 into every pool slot past its
entropy. ``numpy.random`` is imported on the first trial, not on import.

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

PREPARATION_BUDGET = 10**9
G_MAX = np.pi / 4.0
_DEGENERACY_TOL = 1e-12
_PROB_FLOOR = 1e-30
_MAX_CHUNK = 1 << 20
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
    """Stop a trial after exactly ``n`` prepared photons."""

    n: int

    def __post_init__(self):
        check_count(self.n, "FixedPrepared: n")


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
    for name, value in (("theta", theta), ("alpha", alpha), ("g", g)):
        finite_real(value, "readout", name)
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

    The probability half of :func:`_readout`, cached for the trial sampler
    and the estimator.
    """
    return _readout(theta, alpha, g)[0]


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
        (p_plus, p_minus), (dp_plus, dp_minus) = _readout(theta, alpha, g)
        total = p_plus + p_minus
        if total <= 0.0:
            raise VanishingPostselectionError(
                "conditional_outcome_model: postselection never succeeds at this coupling"
            )
        dq = (p_plus * dp_minus - p_minus * dp_plus) / total**2
        return (p_plus / total, p_minus / total), (-dq, dq)

    return law


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx, after
# M. E. O'Neill's seed_seq_fe), for a pool of 4 words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_SEED_BLOCK = 256


def _words(n: int) -> list[int]:
    """The 32-bit little-endian words SeedSequence takes from 0 <= n < 2**64."""
    return [n & _MASK32, n >> 32] if n >> 32 else [n]


@lru_cache(maxsize=64)
def _seed_block(master_seed: int, block: int) -> np.ndarray:
    """PCG64 seed words of trials ``256 * block`` to ``256 * block + 255``.

    Row j equals ``SeedSequence((master_seed, 256 * block + j))
    .generate_state(4, np.uint64)``: numpy's hash run on uint32 columns, one
    row per trial. A block never straddles 2**32, so every index in it has
    the same number of words. The entropy is at most 4 words, and
    ``mix_entropy`` hashes 0 into each pool slot past the entropy, so
    zero-padding it to the pool size gives the same pool. Read-only.
    """
    first = block * _SEED_BLOCK
    index = np.uint64(first) + np.arange(_SEED_BLOCK, dtype=np.uint64)
    columns = [np.full(_SEED_BLOCK, word, dtype=np.uint32) for word in _words(master_seed)]
    columns.append(index.astype(np.uint32))
    if first >> 32:
        columns.append((index >> 32).astype(np.uint32))
    columns += [np.zeros(_SEED_BLOCK, dtype=np.uint32)] * (_POOL_SIZE - len(columns))

    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(column) for column in columns]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    state = np.empty((_SEED_BLOCK, 2 * _POOL_SIZE), dtype=np.uint32)
    hash_const = _INIT_B
    for k in range(2 * _POOL_SIZE):
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state[:, k] = value ^ (value >> _XSHIFT)
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    words.flags.writeable = False
    return words


@lru_cache(maxsize=None)
def _block_seed_type() -> type:
    """An ISeedSequence that hands PCG64 one row of a seed block.

    Built on first use, so importing this module does not import numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class BlockSeed(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return BlockSeed


def _trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Trial ``i``'s generator: ``PCG64(SeedSequence((s, i)))``, bit for bit.

    The SeedSequence hash runs once per block of 256 trial indices
    (:func:`_seed_block`), and numpy's PCG64 seeds itself from the row of
    this trial. Both arguments lie in [0, 2**64).
    """
    block, offset = divmod(int(trial_index), _SEED_BLOCK)
    words = _seed_block(int(master_seed), block)[offset]
    return np.random.Generator(np.random.PCG64(_block_seed_type()(words)))


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialCounts:
    """Simulate one trial; deterministic given (master_seed, trial_index).

    Photons are prepared one at a time: postselection succeeds with the exact
    scenario probability, and each postselected photon is read out from the
    conditional plus/minus law. The Bernoulli stream is consumed in
    preparation order, then in readout order.
    """
    check_seed(trial_index, "run_trial: trial_index")
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
    if not (0.0 < g_max <= np.pi / 2.0 - 1e-6):
        raise ContractViolationError("mle_g: g_max out of range")
    if counts.n_postselected < 1:
        raise EstimationUndefinedError("mle_g: no postselected samples")
    q_hat = counts.n_minus / counts.n_postselected
    if q_hat == 0.0:
        return 0.0
    p_plus_max, p_minus_max = _readout_probabilities(theta, alpha, g_max)
    q_max = p_minus_max / (p_plus_max + p_minus_max)
    if q_hat >= q_max:
        return float(g_max)
    tan_sq = q_hat / (1.0 - q_hat) * (c_minus**2 / c_plus**2)
    return float(np.arctan(np.sqrt(tan_sq)))


def run_campaign(config: ExperimentConfig) -> CampaignReport:
    """Run all trials of a campaign and aggregate the estimation statistics.

    Aggregation runs in trial-index order with fixed-order summation, so the
    report is a pure function of the configuration. Raw costs are at UNIT_RATES.
    """
    per_trial: list[tuple[TrialCounts, float]] = []
    for index in range(config.n_reps):
        counts = run_trial(config, index)
        per_trial.append((counts, mle_g(counts, config.theta, config.alpha)))

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
