"""Batch verification suites: the one panel loop of each exact-model acceptance criterion.

Each suite replays one family of model-level identities over one fixed,
deterministic panel (random panels are drawn from the run's seed) and reports
the worst observed slack together with a pass/fail verdict. Its ``detail``
names the worst point under ``worst_at``: a pair or instance index, or the
panel coordinates (theta, alpha, g) or (mu, alpha, g).

* ``overlap-identity``: squared ket overlaps equal the Bloch half-angle form.
* ``tradeoff-bound``: the coherence bound holds on the full postselection
  sweep of the seven :data:`DEFAULT_THETAS` and is saturated on the coplanar branch.
* ``incoherent-ceiling``: incoherent inputs keep F_m <= 4 Omega and no advantage.
* ``oracle-agreement``: the spectral unitary-family QFI equals the SLD QFI.
* ``conventional-information``: coupled product inputs carry 4 Omega.
* ``leading-order``: F_m converges monotonically to 4 Omega |A_w|^2 as g falls.
* ``weighted-ceiling``: p F_m <= 4 Omega, attained at optimal postselection.

The tradeoff suite accepts ``printed_form=True`` to evaluate the published
variant of the bound's right-hand side; the saturation check then fails,
which is the documented counterexample to that variant.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .costs import (
    UNIT_RATES,
    CostPoint,
    _leading_sweep,
    classify_region,
    cost_point,
    default_alpha_grid,
    preparation_coherence,
    tradeoff_slack,
)
from .errors import ContractViolationError
from .fisher import qfi_mixed, qfi_product_coupling, qfi_pure, qfi_spectral_unitary
from .postselect import (
    WvaSetup,
    fm_exact,
    in_weak_regime,
    postselect_mixed,
    postselected_meter_family,
    probabilistic_qfi,
)
from .states import (
    METER_PLUS,
    STANDARD_BASIS,
    STANDARD_SIGMA,
    DensityMatrix,
    HermitianOperator,
    Ket,
    ReferenceBasis,
    UnitaryOperator,
    bloch_angle,
    bloch_of,
    check_seed,
    coupling_unitary,
    overlap_sq,
    tensor,
)

DEFAULT_THETAS = (np.pi / 16, np.pi / 12, np.pi / 8, np.pi / 6, np.pi / 5, np.pi / 4.5, np.pi / 4)
DEFAULT_SEED = 20240
# each name runs the module function suite_<name with "_" for "-">
SUITE_NAMES = (
    "overlap-identity", "tradeoff-bound", "incoherent-ceiling", "oracle-agreement",
    "conventional-information", "leading-order", "weighted-ceiling",
)
_POPULATIONS = tuple(np.round(np.arange(0.1, 0.95, 0.1), 2))  # incoherent diag(mu, 1 - mu)
# the standard scenario (balanced meter, A = M = sigma_z) on prebuilt kets: (psi_si, psi_sf, g=g)
_standard_setup = functools.partial(WvaSetup, phi_mi=METER_PLUS, A=STANDARD_SIGMA, M=STANDARD_SIGMA)
_standard_coupling = functools.partial(coupling_unitary, STANDARD_SIGMA, STANDARD_SIGMA)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    worst_slack: float
    detail: dict = field(default_factory=dict)


def _extreme(rows, names: tuple[str, ...], pick=max) -> tuple[float, dict]:
    """Value of the row (value, *coordinates) that ``pick`` selects, first on a tie,
    and its coordinates as floats named by ``names``."""
    value, *coords = pick(rows, key=itemgetter(0))
    return float(value), {name: float(c) for name, c in zip(names, coords)}


def _incoherent(mu: float) -> DensityMatrix:
    return DensityMatrix.mixture([mu, 1.0 - mu], [STANDARD_BASIS.ket0, STANDARD_BASIS.ket1])


def suite_overlap_identity(seed: int) -> SuiteResult:
    """Squared overlap vs cos^2 of half the Bloch angle on 1000 random qubit ket pairs."""
    rng = np.random.default_rng(seed)
    basis = ReferenceBasis.standard()
    n_pairs = 1000
    errors = []
    for _ in range(n_pairs):
        a = Ket(rng.normal(size=2) + 1j * rng.normal(size=2))
        b = Ket(rng.normal(size=2) + 1j * rng.normal(size=2))
        direct = overlap_sq(a, b)
        angle = bloch_angle(bloch_of(a, basis), bloch_of(b, basis))
        errors.append(abs(direct - np.cos(angle / 2.0) ** 2))
    pair = int(np.argmax(errors))
    worst = float(errors[pair])
    tol = 1e-10
    return SuiteResult(
        name="overlap-identity",
        passed=worst <= tol,
        worst_slack=tol - worst,
        detail={"worst_abs_error": worst, "tolerance": tol, "pairs": n_pairs,
                "worst_at": {"pair": pair}},
    )


def suite_tradeoff_bound(printed_form: bool = False) -> SuiteResult:
    """Soundness and saturation of the coherence bound over the full sweep.

    Each theta of :data:`DEFAULT_THETAS` is swept over
    :func:`default_alpha_grid`, less the singular angle that
    :func:`~wva_costlab.costs.leading_costs` maps to None (each of these thetas
    puts one grid angle there), so 720 points per theta.
    """
    slacks, gaps = [], []  # (slack, theta, alpha); (|slack|, theta, alpha) where saturating
    for theta in DEFAULT_THETAS:
        coherence = preparation_coherence(theta)
        for alpha, cp_norm, cm_norm in _leading_sweep(theta, "tradeoff-bound"):
            point = CostPoint.scaled(cp_norm, cm_norm, UNIT_RATES)
            slack = tradeoff_slack(point, coherence, printed_form=printed_form)
            slacks.append((slack, theta, alpha))
            if theta - np.pi / 2.0 <= alpha <= -theta:
                gaps.append((abs(slack), theta, alpha))
    min_slack, worst_at = _extreme(slacks, ("theta", "alpha"), pick=min)
    max_sat_gap, gap_at = _extreme(gaps, ("theta", "alpha"))
    sound = min_slack >= -1e-9
    saturated = max_sat_gap <= 1e-6
    return SuiteResult(
        name="tradeoff-bound",
        passed=bool(sound and saturated),
        worst_slack=min_slack,
        detail={"saturation_gap": max_sat_gap, "points": len(slacks), "printed_form": printed_form,
                "sound": bool(sound), "saturated": bool(saturated), "worst_at": worst_at,
                "saturation_gap_at": gap_at},
    )


def suite_incoherent_ceiling() -> SuiteResult:
    """Incoherent inputs grant no advantage, on 9 mu x 26 alpha x 3 g = 702 points.

    The angles are the union of linspace(-pi/2 + 0.05, pi/2 - 0.05, 13) and
    linspace(-1.4, 1.4, 13). At each point :func:`fm_exact` stays within 1e-12
    of 4 Omega, agrees with :func:`~wva_costlab.fisher.qfi_mixed` on the meter
    family within 1e-6, and the cost point is classified "trivial".
    """
    alphas = np.union1d(
        np.linspace(-np.pi / 2.0 + 0.05, np.pi / 2.0 - 0.05, 13), np.linspace(-1.4, 1.4, 13)
    )
    finals = [STANDARD_BASIS.superposition(alpha) for alpha in alphas]
    excesses = []  # (F_m - 4 Omega, mu, alpha, g)
    oracle_worst, advantage_points = 0.0, 0
    for mu in _POPULATIONS:
        rho = _incoherent(mu)
        for alpha, psi_sf in zip(alphas, finals):
            for g in (1e-3, 0.0349, 0.1):
                setup = _standard_setup(rho, psi_sf, g=g)
                ceiling = 4.0 * setup.omega
                value = fm_exact(setup)
                excesses.append((value - ceiling, mu, alpha, g))
                oracle = qfi_mixed(postselected_meter_family(setup), g)
                oracle_worst = max(oracle_worst, abs(value - oracle))
                point = cost_point(ceiling, postselect_mixed(setup)[0] * value, value, UNIT_RATES)
                advantage_points += classify_region(point) != "trivial"
    worst_excess, worst_at = _extreme(excesses, ("mu", "alpha", "g"))
    tol, oracle_tol = 1e-12, 1e-6
    return SuiteResult(
        name="incoherent-ceiling",
        passed=bool(worst_excess <= tol and oracle_worst <= oracle_tol and not advantage_points),
        worst_slack=tol - worst_excess,
        detail={"worst_excess": worst_excess, "tolerance": tol,
                "oracle_abs_difference": float(oracle_worst), "oracle_tolerance": oracle_tol,
                "advantage_points": advantage_points, "worst_at": worst_at},
    )


def _unitary_family(H: HermitianOperator):
    vals, vecs = np.linalg.eigh(H.entries)
    return lambda g: UnitaryOperator((vecs * np.exp(-1j * g * vals)) @ vecs.conj().T)


def suite_oracle_agreement(seed: int) -> SuiteResult:
    """Spectral unitary-family QFI vs the SLD computation on 100 random mixtures."""
    rng = np.random.default_rng(seed)
    n_instances = 100
    differences = []
    for _ in range(n_instances):
        dim = int(rng.choice([2, 4]))
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        H = HermitianOperator((raw + raw.conj().T) / 2.0)
        family_u = _unitary_family(H)
        count = int(rng.integers(1, dim + 1))
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        vectors = [Ket(q[:, k]) for k in range(count)]
        weights = rng.random(count) + 0.1
        weights = weights / weights.sum()
        g = float(rng.uniform(-1.0, 1.0))

        rho0 = sum(w * v.projector() for w, v in zip(weights, vectors))

        def rho_family(gp: float, rho0=rho0, family_u=family_u) -> DensityMatrix:
            u = family_u(gp).entries
            return DensityMatrix(u @ rho0 @ u.conj().T)

        spectral = qfi_spectral_unitary(weights, vectors, family_u, g)
        sld = qfi_mixed(rho_family, g)
        differences.append(abs(spectral - sld))
    instance = int(np.argmax(differences))
    worst = differences[instance]
    tol = 1e-6
    return SuiteResult(
        name="oracle-agreement",
        passed=worst <= tol,
        worst_slack=tol - worst,
        detail={"worst_abs_difference": worst, "tolerance": tol, "instances": n_instances,
                "worst_at": {"instance": instance}},
    )


def suite_conventional_information() -> SuiteResult:
    """Coupled product inputs carry the conventional information 4 Omega = 4 at g = 0.0349.

    Each pure input of :data:`DEFAULT_THETAS` by the closed form
    :func:`~wva_costlab.fisher.qfi_product_coupling` and by ``qfi_pure`` of the
    coupled state, each incoherent input mu = 0.1, ..., 0.9 by the closed form
    and by ``qfi_mixed`` of the coupled joint state, all within 1e-6 of 4.
    """
    g = 0.0349
    rows = []  # (largest deviation from 4, theta or mu, its name)
    for theta in DEFAULT_THETAS:
        psi = STANDARD_BASIS.superposition(theta)
        joint = tensor(psi, METER_PLUS)
        numeric = qfi_pure(lambda gp: _standard_coupling(gp).apply(joint), g)
        closed = qfi_product_coupling(psi, METER_PLUS, STANDARD_SIGMA, STANDARD_SIGMA)
        rows.append((max(abs(numeric - 4.0), abs(closed - 4.0)), theta, "theta"))
    for mu in _POPULATIONS:
        rho = _incoherent(mu)
        joint = np.kron(rho.entries, METER_PLUS.projector())

        def family(gp: float) -> DensityMatrix:
            u = _standard_coupling(gp).entries
            return DensityMatrix(u @ joint @ u.conj().T)

        closed = qfi_product_coupling(rho, METER_PLUS, STANDARD_SIGMA, STANDARD_SIGMA)
        rows.append((max(abs(closed - 4.0), abs(qfi_mixed(family, g) - 4.0)), mu, "mu"))
    worst, coordinate, name = max(rows, key=itemgetter(0))
    tol = 1e-6
    return SuiteResult(
        name="conventional-information",
        passed=worst <= tol,
        worst_slack=tol - worst,
        detail={"worst_abs_deviation": worst, "tolerance": tol, "points": len(rows),
                "worst_at": {name: float(coordinate), "g": g}},
    )


def suite_leading_order() -> SuiteResult:
    """|F_m - 4 |A_w|^2| shrinks from g = 1e-2 to 1e-3 to 1e-4 and ends below 1e-3 relative.

    Over :data:`DEFAULT_THETAS` and linspace(-1.4, 1.4, 25), less the angles with
    |cos(alpha - theta)| < 0.05, |A_w| < 1e-6 or 1e-2 |A_w| >= 0.1; each step
    may grow by 1e-6 relative plus 1e-12.
    """
    gs = (1e-2, 1e-3, 1e-4)
    alphas = np.linspace(-1.4, 1.4, 25)
    finals = [STANDARD_BASIS.superposition(alpha) for alpha in alphas]
    rows = []  # (relative distance at the smallest g, theta, alpha, g)
    monotone = True
    for theta in DEFAULT_THETAS:
        psi = STANDARD_BASIS.superposition(theta)
        for alpha, psi_sf in zip(alphas, finals):
            if abs(np.cos(alpha - theta)) < 0.05:
                continue
            a_w = abs(np.cos(alpha + theta) / np.cos(alpha - theta))
            if a_w < 1e-6 or max(gs) * a_w >= 0.1:
                continue
            target = 4.0 * a_w**2
            d0, d1, d2 = (abs(fm_exact(_standard_setup(psi, psi_sf, g=g)) - target) for g in gs)
            monotone &= bool(d0 >= d1 * (1.0 - 1e-6) - 1e-12 and d1 >= d2 * (1.0 - 1e-6) - 1e-12)
            rows.append((d2 / target, theta, alpha, gs[-1]))
    worst, worst_at = _extreme(rows, ("theta", "alpha", "g"))
    tol = 1e-3
    return SuiteResult(
        name="leading-order",
        passed=bool(worst < tol and monotone),
        worst_slack=tol - worst,
        detail={"worst_rel_distance": worst, "tolerance": tol, "monotone": monotone,
                "points": len(rows), "worst_at": worst_at},
    )


def suite_weighted_ceiling() -> SuiteResult:
    """p F_m stays within 1e-12 of 4 Omega and attains it at optimal postselection.

    The ceiling is swept at g = 1e-3 over :data:`DEFAULT_THETAS` and
    :func:`default_alpha_grid`, less the angles with |cos(alpha + theta)| < 1e-3.
    Attainment, p F_m within 1e-3 of 4 Omega at alpha = -theta, is a
    leading-order statement: it is checked where that postselection is not
    orthogonal (theta = pi/4 is) and :func:`in_weak_regime` holds.
    """
    g = 1e-3
    alphas = default_alpha_grid()
    finals = [STANDARD_BASIS.superposition(alpha) for alpha in alphas]
    excesses = []  # (p F_m - 4 Omega, theta, alpha, g)
    attainment_gap, optimal_points = 0.0, 0
    for theta in DEFAULT_THETAS:
        psi = STANDARD_BASIS.superposition(theta)
        for alpha, psi_sf in zip(alphas, finals):
            if abs(np.cos(alpha + theta)) >= 1e-3:
                setup = _standard_setup(psi, psi_sf, g=g)
                excesses.append((probabilistic_qfi(setup)[0] - 4.0 * setup.omega, theta, alpha, g))
        optimal = _standard_setup(psi, STANDARD_BASIS.superposition(-theta), g=g)
        if abs(np.cos(2 * theta)) > 1e-9 and in_weak_regime(optimal):
            ceiling = 4.0 * optimal.omega
            gap = abs(probabilistic_qfi(optimal)[0] - ceiling) / ceiling
            attainment_gap, optimal_points = max(attainment_gap, gap), optimal_points + 1
    worst_excess, worst_at = _extreme(excesses, ("theta", "alpha", "g"))
    tol, attainment_tol = 1e-12, 1e-3
    return SuiteResult(
        name="weighted-ceiling",
        passed=bool(worst_excess <= tol and attainment_gap <= attainment_tol),
        worst_slack=tol - worst_excess,
        detail={"worst_excess": worst_excess, "tolerance": tol, "points": len(excesses),
                "attainment_gap": float(attainment_gap), "attainment_tolerance": attainment_tol,
                "optimal_points": optimal_points, "worst_at": worst_at},
    )


def run_suites(
    names=None, printed_form: bool = False, seed: int = DEFAULT_SEED
) -> list[SuiteResult]:
    """Run the selected suites (all by default) with a 64-bit ``seed``; return their results.

    Each suite function is looked up by name when it runs, so a rebound module
    attribute is used, and gets whichever of ``printed_form`` and ``seed`` it takes.
    """
    check_seed(seed, "run_suites: seed")
    selected = tuple(names) if names else SUITE_NAMES
    for name in selected:
        if name not in SUITE_NAMES:
            raise ContractViolationError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    options = {"printed_form": printed_form, "seed": seed}
    suites = [globals()["suite_" + name.replace("-", "_")] for name in selected]
    return [suite(**{key: options[key] for key in inspect.signature(suite).parameters})
            for suite in suites]
