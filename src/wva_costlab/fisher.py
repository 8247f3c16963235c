"""Quantum and classical Fisher information for one real parameter.

Families are plain callables: a pure family maps the parameter to a
:class:`~wva_costlab.states.Ket` and a mixed family maps it to a
:class:`~wva_costlab.states.DensityMatrix`. The functions here take the
derivative of an arbitrary family by central finite differences with a
default step of 1e-5 rad, so :func:`qfi_pure` serves as the generic oracle.
The collapsed-meter QFI of the weak-value model does not come from here: its
derivative is known in closed form, and
:func:`~wva_costlab.postselect.fm_exact` evaluates it exactly.

A discrete :class:`OutcomeModel` may carry its exact derivative. Then
:func:`cfi_discrete` evaluates sum_k (d p_k)^2 / p_k from it, with no
finite-difference step; the readout models of
:mod:`~wva_costlab.experiment` do. Models without one fall back to central
differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ContractViolationError, StepTooLargeError, UnsupportedInputError
from .states import DensityMatrix, HermitianOperator, Ket, UnitaryOperator, hermitian_eigs

PureFamily = Callable[[float], Ket]
MixedFamily = Callable[[float], DensityMatrix]

DEFAULT_STEP = 1e-5
RANK_CUTOFF = 1e-10
OUTCOME_FLOOR = 1e-12
MIN_STEP_OVERLAP = 0.9


@dataclass(frozen=True)
class OutcomeModel:
    """Discrete outcome distribution parameterized by the coupling strength.

    ``probabilities`` maps the parameter to a vector of finite outcome
    probabilities that must sum to 1 within 1e-12. ``labels``, when given,
    names the outcomes in order. ``derivative``, when given, maps the
    parameter to the pair (probabilities, d probabilities / d g) in one
    evaluation; the probabilities it returns pass the same checks.
    """

    probabilities: Callable[[float], np.ndarray]
    labels: Optional[tuple[str, ...]] = None
    derivative: Optional[Callable[[float], tuple[np.ndarray, np.ndarray]]] = None

    def __call__(self, g: float) -> np.ndarray:
        return _distribution(self.probabilities(g))


def _distribution(probabilities) -> np.ndarray:
    """The checked outcome distribution, clipped into [0, 1]."""
    p = np.asarray(probabilities, dtype=float).reshape(-1)
    if p.size == 0:
        raise ContractViolationError("OutcomeModel: empty distribution")
    if not np.isfinite(p).all():
        raise ContractViolationError("OutcomeModel: probabilities must be finite")
    if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
        raise ContractViolationError("OutcomeModel: probability outside [0, 1]")
    if abs(p.sum() - 1.0) > 1e-12:
        raise ContractViolationError("OutcomeModel: probabilities must sum to 1")
    return np.clip(p, 0.0, 1.0)


def _aligned(reference: Ket, probe: Ket, step: float) -> np.ndarray:
    """Phase-align a probe ket so its overlap with the reference is real-positive."""
    z = reference.inner(probe)
    if abs(z) < MIN_STEP_OVERLAP:
        raise StepTooLargeError(
            f"qfi_pure: |<psi(g)|psi(g+-h)>| = {abs(z):.3f} < {MIN_STEP_OVERLAP};"
            f" reduce step {step:g}"
        )
    return probe.amplitudes * (z.conjugate() / abs(z))


def qfi_pure(family: PureFamily, g: float, step: float = DEFAULT_STEP) -> float:
    """Quantum Fisher information of a pure-state family at parameter ``g``.

    F = 4 (<d psi|d psi> - |<psi|d psi>|^2) with the derivative taken by a
    central difference after phase alignment of the probe states.
    """
    if step <= 0:
        raise ContractViolationError("qfi_pure: step must be positive")
    psi0 = family(g)
    plus = _aligned(psi0, family(g + step), step)
    minus = _aligned(psi0, family(g - step), step)
    dpsi = (plus - minus) / (2.0 * step)
    grad_sq = float(np.real(np.vdot(dpsi, dpsi)))
    berry = abs(np.vdot(psi0.amplitudes, dpsi)) ** 2
    return 4.0 * (grad_sq - float(berry))


def qfi_product_coupling(
    rho_s: Union[Ket, DensityMatrix],
    phi_m: Ket,
    A: HermitianOperator,
    M: HermitianOperator,
) -> float:
    """Closed-form QFI of the coupled product input under exp(-i g A (x) M).

    For a pure system state the value is
    4 (<A^2><M^2> - <A>^2 <M>^2) with expectations in the respective
    marginals. For a system state diagonal in the eigenbasis of ``A`` and a
    meter at the balance zero point (<M> = 0) the value is 4 <A^2><M^2>.
    Any other mixed input is rejected; use :func:`qfi_mixed` on the full
    four-dimensional family instead.
    """
    if isinstance(rho_s, Ket):
        rho_s = DensityMatrix.from_ket(rho_s)
    if rho_s.dim != 2 or phi_m.dim != 2:
        raise ContractViolationError("qfi_product_coupling: system and meter must be qubits")

    a2 = HermitianOperator(A.entries @ A.entries)
    m2 = HermitianOperator(M.entries @ M.entries)
    mean_m = M.expectation(phi_m)
    mean_m2 = m2.expectation(phi_m)

    evals = np.linalg.eigvalsh(rho_s.entries)
    if evals.max() >= 1.0 - RANK_CUTOFF:
        mean_a = A.expectation(rho_s)
        mean_a2 = a2.expectation(rho_s)
        return 4.0 * (mean_a2 * mean_m2 - mean_a**2 * mean_m**2)

    _, basis = hermitian_eigs(A)
    in_basis = np.array(
        [[np.vdot(bi.amplitudes, rho_s.entries @ bj.amplitudes) for bj in basis]
         for bi in basis]
    )
    off_diag = np.max(np.abs(in_basis - np.diag(np.diag(in_basis))))
    if off_diag > RANK_CUTOFF:
        raise UnsupportedInputError(
            "qfi_product_coupling: mixed system state is not diagonal in the"
            " eigenbasis of A; evaluate qfi_mixed on the full family instead"
        )
    if abs(mean_m) > 1e-10:
        raise UnsupportedInputError(
            "qfi_product_coupling: diagonal mixed input requires a meter at"
            " the balance zero point (<M> = 0)"
        )
    return 4.0 * a2.expectation(rho_s) * mean_m2


def qfi_mixed(family: MixedFamily, g: float, step: float = DEFAULT_STEP) -> float:
    """QFI of a density-matrix family via the symmetric-logarithmic-derivative sum.

    Eigendecomposes rho(g) and evaluates
    F = sum_{i,j} 2 |<i|d rho|j>|^2 / (lambda_i + lambda_j)
    over pairs with lambda_i + lambda_j above the rank cutoff.
    """
    if step <= 0:
        raise ContractViolationError("qfi_mixed: step must be positive")
    rho0 = family(g)
    drho = (family(g + step).entries - family(g - step).entries) / (2.0 * step)
    lam, vecs = np.linalg.eigh(rho0.entries)
    cross = vecs.conj().T @ drho @ vecs
    total = 0.0
    for i in range(lam.size):
        for j in range(lam.size):
            denom = lam[i] + lam[j]
            if denom > RANK_CUTOFF:
                total += 2.0 * abs(cross[i, j]) ** 2 / denom
    return float(total)


def qfi_spectral_unitary(
    lambdas: Sequence[float],
    vectors: Sequence[Ket],
    u_family: Callable[[float], UnitaryOperator],
    g: float,
    step: float = DEFAULT_STEP,
) -> float:
    """QFI of U(g) rho U(g)^dagger from the spectral decomposition of rho.

    ``lambdas`` and ``vectors`` give the (g-independent) spectral
    decomposition of the input state, so the classical eigenvalue-derivative
    term vanishes and
    F = sum_i 4 lambda_i <v_i|(dU^dag)(dU)|v_i>
      - sum_{i,j} (8 lambda_i lambda_j / (lambda_i + lambda_j))
        |<v_i|U^dag dU|v_j>|^2.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.size != len(vectors) or lam.size == 0:
        raise ContractViolationError("qfi_spectral_unitary: lambdas/vectors mismatch")
    if np.any(lam < -1e-12) or abs(lam.sum() - 1.0) > 1e-9:
        raise ContractViolationError("qfi_spectral_unitary: weights must be a distribution")
    for i, vi in enumerate(vectors):
        for j, vj in enumerate(vectors):
            expected = 1.0 if i == j else 0.0
            if abs(abs(vi.inner(vj)) - expected) > 1e-9:
                raise ContractViolationError("qfi_spectral_unitary: vectors not orthonormal")

    u0 = u_family(g).entries
    du = (u_family(g + step).entries - u_family(g - step).entries) / (2.0 * step)
    kinetic = du.conj().T @ du
    w = u0.conj().T @ du

    total = 0.0
    for i, vi in enumerate(vectors):
        total += 4.0 * lam[i] * float(np.real(np.vdot(vi.amplitudes, kinetic @ vi.amplitudes)))
    for i, vi in enumerate(vectors):
        for j, vj in enumerate(vectors):
            denom = lam[i] + lam[j]
            if denom > RANK_CUTOFF:
                amp = np.vdot(vi.amplitudes, w @ vj.amplitudes)
                total -= 8.0 * lam[i] * lam[j] / denom * abs(amp) ** 2
    return float(total)


def cfi_discrete(model: OutcomeModel, g: float, step: float = DEFAULT_STEP) -> float:
    """Classical Fisher information sum_k (d p_k)^2 / p_k of a discrete model.

    A model with a ``derivative`` supplies d p_k / d g exactly, in one
    evaluation, and ``step`` is not used; any other model is differentiated
    by central differences with ``step`` (Braunstein & Caves, PRL 72, 3439
    (1994)). ``step`` must be positive either way. Outcomes whose probability
    is below 1e-12 at the center point are skipped (their contribution is a
    0 * 0/0 limit).
    """
    if step <= 0:
        raise ContractViolationError("cfi_discrete: step must be positive")
    if model.derivative is not None:
        probabilities, slope = model.derivative(g)
        p0 = _distribution(probabilities)
        dp = np.asarray(slope, dtype=float).reshape(-1)
        if dp.size != p0.size:
            raise ContractViolationError("cfi_discrete: derivative and distribution sizes differ")
        if not np.isfinite(dp).all():
            raise ContractViolationError("cfi_discrete: derivative must be finite")
    else:
        p0 = model(g)
        pp = model(g + step)
        pm = model(g - step)
        if not (p0.size == pp.size == pm.size):
            raise ContractViolationError("cfi_discrete: outcome count changed across probes")
        dp = (pp - pm) / (2.0 * step)
    total = 0.0
    for k in range(p0.size):
        if p0[k] < OUTCOME_FLOOR:
            continue
        total += dp[k] ** 2 / p0[k]
    return float(total)
