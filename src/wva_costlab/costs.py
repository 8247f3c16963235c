"""Preparation/measurement cost accounting and the coherence-bounded tradeoff.

Costs are reported on normalized axes: cp_norm = C_p / (R_p N) and
cm_norm = C_m / (R_m N), so the conventional scheme sits at (1, 1) and raw
costs follow by scaling. The tradeoff bound relates the two normalized costs
to the l1-norm coherence of the initial system state; its right-hand side is
2 arccos(sqrt(1 - C^2)).

A published variant of the bound omits the square on the coherence. That
variant is strictly looser and cannot be saturated by physical points; it is
available behind ``printed_form=True`` so the discrepancy stays demonstrable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ContractViolationError, InfinitePreparationCostError
from .states import (
    STANDARD_BASIS,
    BlochVector,
    DensityMatrix,
    Ket,
    ReferenceBasis,
    bloch_angle,
    check_theta,
)

CP_BUCKET_WIDTH = 1e-3
DEFAULT_ALPHA_COUNT = 721
ALPHA_SINGULARITY_TOL = 1e-6


@dataclass(frozen=True)
class CostRates:
    """Finite per-sample preparation/detection costs and the conventional sample count."""

    r_p: float
    r_m: float
    n_samples: int

    def __post_init__(self):
        if not (math.isfinite(self.r_p) and math.isfinite(self.r_m)):
            raise ContractViolationError("CostRates: rates must be finite")
        if self.r_p <= 0 or self.r_m <= 0 or self.n_samples < 1:
            raise ContractViolationError("CostRates: all fields must be positive")


@dataclass(frozen=True)
class CostPoint:
    """Normalized and raw preparation/measurement costs of one scheme.

    cm_norm / cp_norm equals the postselection success probability, so it can
    never exceed 1. Theory-derived points always have cp_norm >= 1; empirical
    points estimated from finite campaigns may scatter slightly below.
    """

    cp_norm: float
    cm_norm: float
    cp_raw: float
    cm_raw: float
    n_wva: float

    def __post_init__(self):
        if self.cp_norm <= 0 or self.cm_norm < 0:
            raise ContractViolationError("CostPoint: costs must be non-negative")
        if self.cm_norm > self.cp_norm * (1.0 + 1e-9):
            raise ContractViolationError(
                "CostPoint: cm_norm/cp_norm is a probability and cannot exceed 1"
            )


@dataclass(frozen=True)
class TradeoffSample:
    """One postselection angle with its cost point and bound slack (radians)."""

    alpha: float
    cost: CostPoint
    slack: float


def l1_coherence(rho: Union[Ket, DensityMatrix], basis: ReferenceBasis) -> float:
    """l1-norm coherence of a qubit state in the reference basis (2 |rho_01|).

    For a ket this is 2 |<0|psi><psi|1>|, with no density matrix built.
    """
    if rho.dim != 2:
        raise ContractViolationError("l1_coherence: state must be a qubit")
    if isinstance(rho, Ket):
        off = basis.ket0.inner(rho) * basis.ket1.inner(rho).conjugate()
    else:
        off = np.vdot(basis.ket0.amplitudes, rho.entries @ basis.ket1.amplitudes)
    return float(min(2.0 * abs(off), 1.0))


def cost_point(F: float, fm: float, Fm: float, rates: CostRates) -> CostPoint:
    """Costs of reaching the conventional accuracy target by postselection.

    C_p = (F / f_m) R_p N and C_m = (F / F_m) R_m N, where F is the
    conventional per-sample QFI, f_m the success-weighted postselected QFI and
    F_m the collapsed-state QFI.
    """
    if F <= 0 or Fm <= 0:
        raise ContractViolationError("cost_point: F and Fm must be positive")
    if fm <= 0:
        raise InfinitePreparationCostError(
            "cost_point: success-weighted QFI is zero; postselection carries no signal"
        )
    cp_norm = F / fm
    cm_norm = F / Fm
    n = rates.n_samples
    return CostPoint(
        cp_norm=cp_norm,
        cm_norm=cm_norm,
        cp_raw=cp_norm * rates.r_p * n,
        cm_raw=cm_norm * rates.r_m * n,
        n_wva=cp_norm * n,
    )


def cost_point_geometric(
    r1: BlochVector, r2: BlochVector, r3: BlochVector, rates: CostRates
) -> CostPoint:
    """Leading-order costs from Bloch geometry.

    ``r1``, ``r2``, ``r3`` are the Bloch vectors of the postselection state,
    of A applied to the initial state, and of the initial state. Then
    C_p = R_p N / cos^2(angle(r1, r2) / 2) and
    C_m = (C_p / R_p) cos^2(angle(r1, r3) / 2) R_m.
    """
    theta_12 = bloch_angle(r1, r2)
    theta_13 = bloch_angle(r1, r3)
    c12 = np.cos(theta_12 / 2.0) ** 2
    if c12 < 1e-15:
        raise InfinitePreparationCostError(
            "cost_point_geometric: postselection is orthogonal to the signal direction"
        )
    c13 = np.cos(theta_13 / 2.0) ** 2
    cp_norm = 1.0 / c12
    cm_norm = c13 / c12
    n = rates.n_samples
    return CostPoint(
        cp_norm=cp_norm,
        cm_norm=cm_norm,
        cp_raw=cp_norm * rates.r_p * n,
        cm_raw=cm_norm * rates.r_m * n,
        n_wva=cp_norm * n,
    )


def _clip_unit(x: float) -> float:
    """Clamp into [0, 1]; NaN passes through."""
    return min(max(x, 0.0), 1.0)


def bound_rhs(coherence: float, printed_form: bool = False) -> float:
    """Right-hand side of the tradeoff bound for a given l1 coherence.

    The default (corrected) form is 2 arccos(sqrt(1 - C^2)); the printed
    variant drops the square and is strictly looser.
    """
    c = _clip_unit(float(coherence))
    arg = 1.0 - (c if printed_form else c * c)
    return 2.0 * math.acos(math.sqrt(_clip_unit(arg)))


def tradeoff_slack(
    point: CostPoint,
    coherence: float,
    rates: Optional[CostRates] = None,
    printed_form: bool = False,
) -> float:
    """Slack (RHS - LHS, radians) of the coherence bound at one cost point.

    LHS = |2 arccos(sqrt(R_p N / C_p)) - 2 arccos(sqrt(C_m R_p / (C_p R_m)))|;
    on normalized axes the rate factors cancel, so ``rates`` is accepted only
    for signature compatibility. All arccos/sqrt arguments are clamped into
    [0, 1] first. Physical points have non-negative slack; empirical points
    may dip below by their statistical error.
    """
    del rates  # normalized coordinates make the rate factors cancel
    if not (-1e-9 <= coherence <= 1.0 + 1e-9):
        raise ContractViolationError("tradeoff_slack: coherence must lie in [0, 1]")
    if point.cp_norm <= 0:
        raise ContractViolationError("tradeoff_slack: cp_norm must be positive")
    ratio = point.cm_norm / point.cp_norm
    if ratio > 1.0 + 1e-9:
        raise ContractViolationError("tradeoff_slack: cm_norm/cp_norm exceeds 1")
    prep_angle = 2.0 * math.acos(math.sqrt(_clip_unit(1.0 / point.cp_norm)))
    meas_angle = 2.0 * math.acos(math.sqrt(_clip_unit(ratio)))
    lhs = abs(prep_angle - meas_angle)
    return bound_rhs(coherence, printed_form) - lhs


def default_alpha_grid(count: int = DEFAULT_ALPHA_COUNT) -> np.ndarray:
    """Postselection-angle grid spanning [-pi/2, pi/2]."""
    if count < 2:
        raise ContractViolationError("default_alpha_grid: need at least 2 points")
    return np.linspace(-np.pi / 2.0, np.pi / 2.0, count)


def boundary_curve(
    theta: float,
    alpha_grid: Sequence[float],
    rates: CostRates,
    printed_form: bool = False,
) -> list[TradeoffSample]:
    """Lower envelope of leading-order cost points over a postselection sweep.

    For every grid angle the leading-order normalized costs are
    cp = 1 / cos^2(alpha + theta) and cm = cos^2(alpha - theta) * cp; the
    envelope keeps the minimal cm per cp bucket and prunes dominated points so
    cm is non-increasing in cp. The minimum-cost sample is always retained as
    the left endpoint, so the curve starts at (1, cos^2(2 theta)) and descends
    to the cm = 0 endpoint.
    """
    check_theta(theta, "boundary_curve: theta")
    alphas = np.asarray(alpha_grid, dtype=float).reshape(-1)
    if alphas.size == 0:
        raise ContractViolationError("boundary_curve: empty alpha grid")

    coherence = l1_coherence(STANDARD_BASIS.superposition(theta), STANDARD_BASIS)

    buckets: dict[int, TradeoffSample] = {}
    cheapest: Optional[TradeoffSample] = None
    for alpha in alphas:
        c_plus = np.cos(alpha + theta)
        if abs(c_plus) < ALPHA_SINGULARITY_TOL:
            continue
        c_minus = np.cos(alpha - theta)
        cp_norm = 1.0 / c_plus**2
        cm_norm = c_minus**2 / c_plus**2
        n = rates.n_samples
        point = CostPoint(
            cp_norm=cp_norm,
            cm_norm=cm_norm,
            cp_raw=cp_norm * rates.r_p * n,
            cm_raw=cm_norm * rates.r_m * n,
            n_wva=cp_norm * n,
        )
        sample = TradeoffSample(
            alpha=float(alpha),
            cost=point,
            slack=tradeoff_slack(point, coherence, printed_form=printed_form),
        )
        key = int(round(cp_norm / CP_BUCKET_WIDTH))
        best = buckets.get(key)
        if best is None or sample.cost.cm_norm < best.cost.cm_norm:
            buckets[key] = sample
        if cheapest is None or (
            sample.cost.cp_norm,
            sample.cost.cm_norm,
        ) < (cheapest.cost.cp_norm, cheapest.cost.cm_norm):
            cheapest = sample

    envelope = sorted(buckets.values(), key=lambda s: s.cost.cp_norm)
    if cheapest is not None and envelope and envelope[0] is not cheapest:
        envelope.insert(0, cheapest)
    pruned: list[TradeoffSample] = []
    best_cm = np.inf
    for sample in envelope:
        if sample.cost.cm_norm < best_cm:
            pruned.append(sample)
            best_cm = sample.cost.cm_norm
    return pruned


def classify_region(point: CostPoint) -> str:
    """Classify a cost point: 'advantage' iff cm_norm < 1, else 'trivial'.

    Points on the divide count as trivial. The divide is applied with a 1e-6
    band so that a point that sits on the divide in exact arithmetic (for
    example |A_w| = 1, where F_m = 4 Omega) cannot cross to the advantage side
    through rounding, or through a QFI estimated by finite differences on a
    mixed family (noise around 1e-8).
    """
    return "advantage" if point.cm_norm < 1.0 - 1e-6 else "trivial"
