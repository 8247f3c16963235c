"""Preparation/measurement cost accounting and the coherence-bounded tradeoff.

Costs are reported on normalized axes: cp_norm = C_p / (R_p N) and
cm_norm = C_m / (R_m N), so the conventional scheme sits at (1, 1) and raw
costs follow by scaling. The tradeoff bound relates the two normalized costs
to the l1-norm coherence of the initial system state; its right-hand side is
2 arccos(sqrt(1 - C^2)).

Each ingredient has one definition: :func:`leading_costs` (the leading-order
cp, cm; the paper's Bloch-angle form of them is a test oracle only),
:meth:`CostPoint.scaled` (raw costs from normalized ones) and
:func:`preparation_coherence` (the l1 coherence of the preparation).
:func:`boundary_curve` sweeps :func:`default_alpha_grid`.

A published variant of the bound omits the square on the coherence. That
variant is strictly looser and cannot be saturated by physical points; it is
available behind ``printed_form=True`` so the discrepancy stays demonstrable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ContractViolationError, InfinitePreparationCostError
from .states import (
    STANDARD_BASIS,
    DensityMatrix,
    Ket,
    ReferenceBasis,
    _apply,
    _inner,
    check_count,
    check_theta,
    finite_real,
    selection_cosines,
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
        for rate in (self.r_p, self.r_m):
            finite_real(rate, "CostRates", "rates")
        if self.r_p <= 0 or self.r_m <= 0:
            raise ContractViolationError("CostRates: all fields must be positive")
        check_count(self.n_samples, "CostRates: n_samples")


# the rates of the tool's own sweeps and campaigns, which report normalized costs only
UNIT_RATES = CostRates(1.0, 1.0, 1)


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
        fields = (self.cp_norm, self.cm_norm, self.cp_raw, self.cm_raw, self.n_wva)
        for value in fields:
            finite_real(value, "CostPoint", "costs")
        if self.cp_norm <= 0 or self.cm_norm < 0:
            raise ContractViolationError("CostPoint: costs must be non-negative")
        if self.cm_norm > self.cp_norm * (1.0 + 1e-9):
            raise ContractViolationError(
                "CostPoint: cm_norm/cp_norm is a probability and cannot exceed 1"
            )

    @classmethod
    def scaled(cls, cp_norm: float, cm_norm: float, rates: CostRates) -> "CostPoint":
        """The point at normalized costs (cp_norm, cm_norm), raw costs scaled by ``rates``."""
        n = rates.n_samples
        return cls(cp_norm, cm_norm, cp_norm * rates.r_p * n, cm_norm * rates.r_m * n, cp_norm * n)


@dataclass(frozen=True)
class TradeoffSample:
    """One postselection angle with its cost point and bound slack (radians)."""

    alpha: float
    cost: CostPoint
    slack: float


def l1_coherence(rho: Union[Ket, DensityMatrix], basis: ReferenceBasis) -> float:
    """l1-norm coherence of a qubit state in the reference basis (2 |rho_01|).

    For a ket this is 2 |<0|psi><psi|1>|, with no density matrix built; for a
    density matrix 2 |<0|rho|1>| from its flat entries. Both are in Python scalars.
    """
    if not (isinstance(rho, (Ket, DensityMatrix)) and isinstance(basis, ReferenceBasis)):
        raise ContractViolationError(
            "l1_coherence: rho must be a Ket or DensityMatrix and basis a ReferenceBasis"
        )
    if rho.dim != 2:
        raise ContractViolationError("l1_coherence: state must be a qubit")
    if isinstance(rho, Ket):
        off = basis.ket0.inner(rho) * basis.ket1.inner(rho).conjugate()
    else:
        off = _inner(basis.ket0._amps, _apply(rho._flat, basis.ket1._amps))
    return float(min(2.0 * abs(off), 1.0))


def preparation_coherence(theta: float) -> float:
    """l1 coherence (sin 2 theta) of cos(theta)|0> + sin(theta)|1>, built from the ket.

    theta must lie in (0, pi/4] (:func:`~wva_costlab.states.check_theta`).
    """
    theta = check_theta(theta, "preparation_coherence: theta")
    return l1_coherence(STANDARD_BASIS.superposition(theta), STANDARD_BASIS)


def cost_point(F: float, fm: float, Fm: float, rates: CostRates) -> CostPoint:
    """Costs of reaching the conventional accuracy target by postselection.

    C_p = (F / f_m) R_p N and C_m = (F / F_m) R_m N, where F is the
    conventional per-sample QFI, f_m the success-weighted postselected QFI and
    F_m the collapsed-state QFI. All three must be finite.
    """
    if not isinstance(rates, CostRates):
        raise ContractViolationError("cost_point: rates must be a CostRates")
    for value in (F, fm, Fm):
        finite_real(value, "cost_point", "F, fm and Fm")
    if F <= 0 or Fm <= 0:
        raise ContractViolationError("cost_point: F and Fm must be positive")
    if fm <= 0:
        raise InfinitePreparationCostError(
            "cost_point: success-weighted QFI is zero; postselection carries no signal"
        )
    return CostPoint.scaled(F / fm, F / Fm, rates)


def _clip_unit(x: float) -> float:
    """Clamp into [0, 1]; NaN passes through."""
    return min(max(x, 0.0), 1.0)


def _angle(x: float) -> float:
    """2 arccos(sqrt(x)), with x clamped into [0, 1] first."""
    return 2.0 * math.acos(math.sqrt(_clip_unit(x)))


def bound_rhs(coherence: float, printed_form: bool = False) -> float:
    """Right-hand side of the tradeoff bound for a given l1 coherence.

    The default (corrected) form is 2 arccos(sqrt(1 - C^2)); the printed
    variant drops the square and is strictly looser. Both are evaluated as
    2 arcsin(C) and 2 arcsin(sqrt(C)), the same angles on [0, 1], so a small
    coherence is not lost in 1 - C^2 rounding to 1. A coherence that is not a
    finite real (:func:`~wva_costlab.states.finite_real`) or lies outside
    [0, 1] (within 1e-9) raises ContractViolationError.
    """
    c = finite_real(coherence, "tradeoff bound", "coherence")
    if not (-1e-9 <= c <= 1.0 + 1e-9):
        raise ContractViolationError("tradeoff bound: coherence must lie in [0, 1]")
    c = _clip_unit(c)
    return 2.0 * math.asin(math.sqrt(c) if printed_form else c)


def tradeoff_slack(point: CostPoint, coherence: float, printed_form: bool = False) -> float:
    """Slack (RHS - LHS, radians) of the coherence bound at one cost point.

    LHS = |2 arccos(sqrt(R_p N / C_p)) - 2 arccos(sqrt(C_m R_p / (C_p R_m)))|,
    evaluated on the normalized axes, where the rate factors cancel. All
    arccos/sqrt arguments are clamped into [0, 1] first. Physical points have
    non-negative slack; empirical points may dip below by their statistical
    error. The coherence is checked as in :func:`bound_rhs`.
    """
    if not isinstance(point, CostPoint):
        raise ContractViolationError("tradeoff_slack: point must be a CostPoint")
    ratio = point.cm_norm / point.cp_norm  # in [0, 1 + 1e-9] by CostPoint's checks
    lhs = abs(_angle(1.0 / point.cp_norm) - _angle(ratio))
    return bound_rhs(coherence, printed_form) - lhs


def default_alpha_grid() -> np.ndarray:
    """Postselection-angle grid of DEFAULT_ALPHA_COUNT angles spanning [-pi/2, pi/2]."""
    return np.linspace(-np.pi / 2.0, np.pi / 2.0, DEFAULT_ALPHA_COUNT)


def leading_costs(theta: float, alpha: float) -> Optional[tuple[float, float]]:
    """Leading-order normalized costs (cp, cm) at one postselection angle.

    cp = 1 / cos^2(alpha + theta) and cm = cos^2(alpha - theta) / cos^2(alpha + theta).
    None where |cos(alpha + theta)| < ALPHA_SINGULARITY_TOL, as cp diverges there.
    The angles pass :func:`~wva_costlab.states.selection_cosines`.
    """
    return _costs_of_cosines(*selection_cosines(theta, alpha, "leading_costs"))


def _costs_of_cosines(c_plus: float, c_minus: float) -> Optional[tuple[float, float]]:
    """:func:`leading_costs` from the cosines cos(alpha + theta), cos(alpha - theta)."""
    if abs(c_plus) < ALPHA_SINGULARITY_TOL:
        return None
    return 1.0 / c_plus**2, c_minus**2 / c_plus**2


def _leading_sweep(theta: float, where: str):
    """(alpha, cp, cm) of :func:`leading_costs` at each angle of :func:`default_alpha_grid`.

    Singular angles (None) are skipped. theta is checked once, as ``<where>: theta``,
    and the grid's angles are finite, so each angle takes the cosines of
    :func:`~wva_costlab.states.selection_cosines` without its checks.
    """
    check_theta(theta, f"{where}: theta")
    for alpha in default_alpha_grid():
        costs = _costs_of_cosines(np.cos(alpha + theta), np.cos(alpha - theta))
        if costs is not None:
            yield alpha, *costs


def boundary_curve(theta: float, *, printed_form: bool = False) -> list[TradeoffSample]:
    """Lower envelope of leading-order cost points over the postselection sweep.

    Each angle of :func:`default_alpha_grid` contributes its
    :func:`leading_costs`; the envelope keeps the minimal cm per cp bucket and
    prunes dominated points so cm is non-increasing in cp. The minimum-cost
    sample is always retained as the left endpoint, so the curve starts at
    (1, cos^2(2 theta)) and descends to the cm = 0 endpoint. Only the returned
    samples get a cost point and slack; their raw costs are at UNIT_RATES.
    ``printed_form`` is keyword-only, so a stray second positional argument
    cannot select the printed form.
    """
    # (alpha, cp, cm) per cp bucket, and the cheapest one overall
    buckets: dict[int, tuple] = {}
    cheapest = None
    for sample in _leading_sweep(theta, "boundary_curve"):
        key = int(round(sample[1] / CP_BUCKET_WIDTH))
        best = buckets.get(key)
        if best is None or sample[2] < best[2]:
            buckets[key] = sample
        if cheapest is None or sample[1:] < cheapest[1:]:
            cheapest = sample

    envelope = sorted(buckets.values(), key=lambda s: s[1])
    if cheapest is not None and envelope and envelope[0] is not cheapest:
        envelope.insert(0, cheapest)
    coherence = preparation_coherence(theta)
    pruned: list[TradeoffSample] = []
    best_cm = np.inf
    for alpha, cp_norm, cm_norm in envelope:
        if cm_norm < best_cm:
            point = CostPoint.scaled(cp_norm, cm_norm, UNIT_RATES)
            slack = tradeoff_slack(point, coherence, printed_form=printed_form)
            pruned.append(TradeoffSample(alpha=float(alpha), cost=point, slack=slack))
            best_cm = cm_norm
    return pruned


def classify_region(point: CostPoint) -> str:
    """Classify a cost point: 'advantage' iff cm_norm < 1, else 'trivial'.

    Points on the divide count as trivial. The divide is applied with a 1e-6
    band so that a point that sits on the divide in exact arithmetic (for
    example |A_w| = 1, or an incoherent input, where F_m = 4 Omega) cannot
    cross to the advantage side through rounding.
    """
    if not isinstance(point, CostPoint):
        raise ContractViolationError("classify_region: point must be a CostPoint")
    return "advantage" if point.cm_norm < 1.0 - 1e-6 else "trivial"
