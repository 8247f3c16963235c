"""Batch verification suites for the toolkit's executable invariants.

Each suite replays one family of model-level identities over one fixed,
deterministic panel (random panels are drawn from the run's seed) and reports
the worst observed slack together with a pass/fail verdict:

* ``overlap-identity``: squared ket overlaps equal the Bloch half-angle form.
* ``tradeoff-bound``: the coherence bound holds on the full postselection
  sweep of the seven :data:`DEFAULT_THETAS` and is saturated on the coplanar
  branch.
* ``incoherent-ceiling``: the exact postselected meter QFI of incoherent
  inputs never exceeds the conventional value 4 * Omega.
* ``oracle-agreement``: the spectral unitary-family QFI formula agrees with
  the symmetric-logarithmic-derivative computation on random mixtures.

The tradeoff suite accepts ``printed_form=True`` to evaluate the published
variant of the bound's right-hand side; the saturation check then fails,
which is the documented counterexample to that variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .costs import (
    UNIT_RATES,
    CostPoint,
    _leading_sweep,
    preparation_coherence,
    tradeoff_slack,
)
from .errors import ContractViolationError
from .fisher import qfi_mixed, qfi_spectral_unitary
from .postselect import WvaSetup, fm_exact
from .states import (
    METER_PLUS,
    STANDARD_SIGMA,
    DensityMatrix,
    HermitianOperator,
    Ket,
    ReferenceBasis,
    UnitaryOperator,
    bloch_angle,
    bloch_of,
    check_seed,
    overlap_sq,
)

DEFAULT_THETAS = (
    np.pi / 16,
    np.pi / 12,
    np.pi / 8,
    np.pi / 6,
    np.pi / 5,
    np.pi / 4.5,
    np.pi / 4,
)
DEFAULT_SEED = 20240

# name -> suite called with (printed_form, seed); each lambda looks its suite
# function up by name when it runs, so a rebound module attribute is used
_SUITES = {
    "overlap-identity": lambda printed, seed: suite_overlap_identity(seed=seed),
    "tradeoff-bound": lambda printed, seed: suite_tradeoff_bound(printed_form=printed),
    "incoherent-ceiling": lambda printed, seed: suite_incoherent_ceiling(),
    "oracle-agreement": lambda printed, seed: suite_oracle_agreement(seed=seed),
}
SUITE_NAMES = tuple(_SUITES)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    worst_slack: float
    detail: dict = field(default_factory=dict)


def random_ket(rng: np.random.Generator) -> Ket:
    return Ket(rng.normal(size=2) + 1j * rng.normal(size=2))


def suite_overlap_identity(seed: int) -> SuiteResult:
    """Squared overlap vs cos^2 of half the Bloch angle on 1000 random qubit ket pairs."""
    rng = np.random.default_rng(seed)
    basis = ReferenceBasis.standard()
    n_pairs = 1000
    worst = 0.0
    for _ in range(n_pairs):
        a = random_ket(rng)
        b = random_ket(rng)
        direct = overlap_sq(a, b)
        angle = bloch_angle(bloch_of(a, basis), bloch_of(b, basis))
        worst = max(worst, abs(direct - np.cos(angle / 2.0) ** 2))
    tol = 1e-10
    return SuiteResult(
        name="overlap-identity",
        passed=worst <= tol,
        worst_slack=tol - worst,
        detail={"worst_abs_error": worst, "tolerance": tol, "pairs": n_pairs},
    )


def suite_tradeoff_bound(printed_form: bool = False) -> SuiteResult:
    """Soundness and saturation of the coherence bound over the full sweep.

    Each theta of :data:`DEFAULT_THETAS` is swept over
    :func:`default_alpha_grid`, less the singular angle that
    :func:`~wva_costlab.costs.leading_costs` maps to None (each of these thetas
    puts one grid angle there), so 720 points per theta.
    """
    min_slack = np.inf
    max_sat_gap = 0.0
    checked = 0
    for theta in DEFAULT_THETAS:
        coherence = preparation_coherence(theta)
        for alpha, cp_norm, cm_norm in _leading_sweep(theta, "tradeoff-bound"):
            point = CostPoint.scaled(cp_norm, cm_norm, UNIT_RATES)
            slack = tradeoff_slack(point, coherence, printed_form=printed_form)
            min_slack = min(min_slack, slack)
            checked += 1
            if theta - np.pi / 2.0 <= alpha <= -theta:
                max_sat_gap = max(max_sat_gap, abs(slack))
    sound = min_slack >= -1e-9
    saturated = max_sat_gap <= 1e-6
    return SuiteResult(
        name="tradeoff-bound",
        passed=bool(sound and saturated),
        worst_slack=float(min_slack),
        detail={
            "saturation_gap": float(max_sat_gap),
            "points": checked,
            "printed_form": printed_form,
            "sound": bool(sound),
            "saturated": bool(saturated),
        },
    )


def suite_incoherent_ceiling() -> SuiteResult:
    """The exact meter QFI (:func:`fm_exact`) of incoherent inputs stays at or below 4 Omega.

    Swept over the populations mu = 0.1, ..., 0.9, 13 postselection angles and
    three couplings.
    """
    basis = ReferenceBasis.standard()
    alphas = np.linspace(-np.pi / 2.0 + 0.05, np.pi / 2.0 - 0.05, 13)
    worst_excess = -np.inf
    for mu in np.round(np.arange(0.1, 0.95, 0.1), 2):
        rho = DensityMatrix.mixture([mu, 1.0 - mu], [basis.ket0, basis.ket1])
        for alpha in alphas:
            for g in (1e-3, 0.0349, 0.1):
                sf = basis.superposition(alpha)
                setup = WvaSetup(rho, sf, METER_PLUS, STANDARD_SIGMA, STANDARD_SIGMA, g)
                ceiling = 4.0 * setup.omega
                value = fm_exact(setup)
                worst_excess = max(worst_excess, value - ceiling)
    tol = 1e-12
    return SuiteResult(
        name="incoherent-ceiling",
        passed=worst_excess <= tol,
        worst_slack=float(tol - worst_excess),
        detail={"worst_excess": float(worst_excess), "tolerance": tol},
    )


def _unitary_family(H: HermitianOperator):
    vals, vecs = np.linalg.eigh(H.entries)
    return lambda g: UnitaryOperator((vecs * np.exp(-1j * g * vals)) @ vecs.conj().T)


def _random_orthonormal(rng: np.random.Generator, dim: int, count: int) -> list[Ket]:
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(mat)
    return [Ket(q[:, k]) for k in range(count)]


def suite_oracle_agreement(seed: int) -> SuiteResult:
    """Spectral unitary-family QFI vs the SLD computation on 100 random mixtures."""
    rng = np.random.default_rng(seed)
    n_instances = 100
    worst = 0.0
    for _ in range(n_instances):
        dim = int(rng.choice([2, 4]))
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        H = HermitianOperator((raw + raw.conj().T) / 2.0)
        family_u = _unitary_family(H)
        count = int(rng.integers(1, dim + 1))
        vectors = _random_orthonormal(rng, dim, count)
        weights = rng.random(count) + 0.1
        weights = weights / weights.sum()
        g = float(rng.uniform(-1.0, 1.0))

        rho0 = sum(w * v.projector() for w, v in zip(weights, vectors))

        def rho_family(gp: float, rho0=rho0, family_u=family_u) -> DensityMatrix:
            u = family_u(gp).entries
            return DensityMatrix(u @ rho0 @ u.conj().T)

        spectral = qfi_spectral_unitary(weights, vectors, family_u, g)
        sld = qfi_mixed(rho_family, g)
        worst = max(worst, abs(spectral - sld))
    tol = 1e-6
    return SuiteResult(
        name="oracle-agreement",
        passed=worst <= tol,
        worst_slack=tol - worst,
        detail={"worst_abs_difference": worst, "tolerance": tol, "instances": n_instances},
    )


def run_suites(
    names=None, printed_form: bool = False, seed: int = DEFAULT_SEED
) -> list[SuiteResult]:
    """Run the selected suites (all by default) with a 64-bit ``seed``; return their results."""
    check_seed(seed, "run_suites: seed")
    selected = tuple(names) if names else SUITE_NAMES
    for name in selected:
        if name not in _SUITES:
            raise ContractViolationError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return [_SUITES[name](printed_form, seed) for name in selected]
