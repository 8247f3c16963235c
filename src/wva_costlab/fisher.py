"""Quantum and classical Fisher information for one real parameter.

Families are plain callables: a pure family maps the parameter to a
:class:`~wva_costlab.states.Ket` and a mixed family maps it to a
:class:`~wva_costlab.states.DensityMatrix`. The functions here take the
derivative of an arbitrary family by central finite differences with one
fixed step, :data:`STEP` = 1e-5 rad, so :func:`qfi_pure` and :func:`qfi_mixed`
serve as the generic oracles; no caller chooses the step. The collapsed-meter
QFI of the weak-value model does not come from here, for pure or mixed system
inputs: its derivative is known in closed form, and
:func:`~wva_costlab.postselect.fm_exact` evaluates it exactly.

:func:`qfi_mixed` sums the symmetric logarithmic derivative over the
eigenpairs of rho(g). A qubit family's eigenpairs come in closed form, in
Python scalars, from the split rho = h0 I + K with eigenvalues h0 +- |K| that
``HermitianOperator._split`` also reads; a 4x4 family's come from LAPACK
``eigh``. It stays a finite-difference SLD sum, independent of the Bloch form
that ``fm_exact`` takes for a mixed input.

A discrete outcome law is a plain callable ``g -> (probabilities, slopes)``
with exact slopes. :func:`cfi_discrete` sums its information with no step, in
Python scalars that keep numpy's ``**`` rounding. Its distribution check adds
a law of fewer than 8 outcomes left to right, as numpy's pairwise sum does,
and leaves a longer law to ``np.sum``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ContractViolationError, StepTooLargeError, UnsupportedInputError
from .states import DensityMatrix, HermitianOperator, Ket, UnitaryOperator, _qubit_parts

PureFamily = Callable[[float], Ket]
MixedFamily = Callable[[float], DensityMatrix]
OutcomeLaw = Callable[[float], tuple[Sequence[float], Sequence[float]]]

STEP = 1e-5
RANK_CUTOFF = 1e-10
MIN_STEP_OVERLAP = 0.9


def _floats(values) -> list[float]:
    """``values`` flattened to Python floats, as ``np.asarray(values, dtype=float)`` reads them."""
    if type(values) is tuple and all(type(v) is float for v in values):
        return list(values)  # already Python floats, as a law's short tuples are
    return np.asarray(values, dtype=float).reshape(-1).tolist()


def _distribution(probabilities) -> list[float]:
    """The checked distribution clipped into [0, 1], as Python floats.

    The sum is numpy's float64 sum of the flattened array at every length, so
    the accept/reject line at 1 +- 1e-12 is numpy's: numpy's pairwise sum adds
    fewer than 8 values left to right, as here, and ``np.sum`` sums the rest.
    """
    values = _floats(probabilities)
    if not values:
        raise ContractViolationError("cfi_discrete: empty distribution")
    if not all(map(math.isfinite, values)):
        raise ContractViolationError("cfi_discrete: probabilities must be finite")
    if min(values) < -1e-12 or max(values) > 1.0 + 1e-12:
        raise ContractViolationError("cfi_discrete: probability outside [0, 1]")
    if len(values) < 8:
        total = 0.0
        for v in values:
            total += v
    else:
        total = float(np.sum(values))
    if abs(total - 1.0) > 1e-12:
        raise ContractViolationError("cfi_discrete: probabilities must sum to 1")
    return [min(max(v, 0.0), 1.0) for v in values]  # np.clip's result, -0.0 included


def _aligned(reference: Ket, probe: Ket) -> np.ndarray:
    """Phase-align a probe ket so its overlap with the reference is real-positive."""
    z = reference.inner(probe)
    if abs(z) < MIN_STEP_OVERLAP:
        raise StepTooLargeError(
            f"qfi_pure: |<psi(g)|psi(g+-h)>| = {abs(z):.3f} < {MIN_STEP_OVERLAP}"
            f" at h = {STEP:g}; the family moves too fast for a central difference"
        )
    return probe.amplitudes * (z.conjugate() / abs(z))


def qfi_pure(family: PureFamily, g: float) -> float:
    """Quantum Fisher information of a pure-state family at parameter ``g``.

    F = 4 (<d psi|d psi> - |<psi|d psi>|^2) with the derivative taken by a
    central difference with :data:`STEP` after phase alignment of the probe
    states.
    """
    psi0 = family(g)
    plus = _aligned(psi0, family(g + STEP))
    minus = _aligned(psi0, family(g - STEP))
    dpsi = (plus - minus) / (2.0 * STEP)
    grad_sq = float(np.vdot(dpsi, dpsi).real)
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
    if not (isinstance(rho_s, (Ket, DensityMatrix)) and isinstance(phi_m, Ket)
            and isinstance(A, HermitianOperator) and isinstance(M, HermitianOperator)):
        raise ContractViolationError(
            "qfi_product_coupling: rho_s must be a Ket or DensityMatrix, phi_m a Ket,"
            " A and M HermitianOperators"
        )
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

    # diagonal in an eigenbasis of A <=> commutes with A
    if np.max(np.abs(rho_s.entries @ A.entries - A.entries @ rho_s.entries)) > RANK_CUTOFF:
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


def _qubit_eigen_cross(
    rho0: DensityMatrix, plus: DensityMatrix, minus: DensityMatrix, width: float
) -> tuple[list[float], list[list[complex]]]:
    """Eigenvalues of a qubit rho0, ascending, and <i|d rho|j> over its eigenvectors.

    All in Python scalars, from each state's flat entries ``_flat``. With
    rho0 = h0 I + K (``_qubit_parts``), the eigenvalues are h0 -+ r. The h0 + r
    eigenvector x is the larger-norm column of K + r I, (r + kz, h10) for
    kz >= 0 and (conj h10, r - kz) otherwise, normalized, and the h0 - r
    eigenvector is its orthogonal complement (-conj x1, conj x0); at r = 0 they
    are the standard basis. d rho is (plus - minus) / width entry by entry.
    """
    h0, kz, h10, r = _qubit_parts(rho0._flat)
    if r == 0.0:
        x0, x1 = 1.0, 0.0
    else:
        s = r + abs(kz)  # the larger of r + kz and r - kz
        norm = math.hypot(s, h10.real, h10.imag)
        x0, x1 = (s / norm, h10 / norm) if kz >= 0.0 else (h10.conjugate() / norm, s / norm)
    d00, d01, d10, d11 = [(p - m) / width for p, m in zip(plus._flat, minus._flat)]
    y0, y1 = x0.conjugate(), x1.conjugate()  # <high| = (y0, y1), |low> = (-y1, y0)
    low0, low1 = d01 * y0 - d00 * y1, d11 * y0 - d10 * y1  # d rho |low>
    high0, high1 = d00 * x0 + d01 * x1, d10 * x0 + d11 * x1  # d rho |high>
    return [h0 - r, h0 + r], [
        [x0 * low1 - x1 * low0, x0 * high1 - x1 * high0],  # <low| = (-x1, x0)
        [y0 * low0 + y1 * low1, y0 * high0 + y1 * high1],
    ]


def qfi_mixed(family: MixedFamily, g: float) -> float:
    """QFI of a density-matrix family via the symmetric-logarithmic-derivative sum.

    Evaluates F = sum_{i,j} 2 |<i|d rho|j>|^2 / (lambda_i + lambda_j) over the
    eigenpairs of rho(g) with lambda_i + lambda_j above the rank cutoff, and
    d rho from a central difference with :data:`STEP`; the probes run at g,
    g + STEP and g - STEP, in that order. When all three are qubits the
    eigenpairs and <i|d rho|j> come in closed form, in Python scalars, from the
    split of ``HermitianOperator._split`` (:func:`_qubit_eigen_cross`); otherwise
    from LAPACK ``eigh`` and a matrix product, so a family that mixes dimensions
    fails in numpy. On the postselected meter families it is trusted only for
    g >= 1e-3 and a smaller eigenvalue above about 1e-8: that eigenvalue grows
    like g^2, and below that its term is lost under the cutoff or to the
    difference quotient's rounding.
    """
    if not callable(family):
        raise ContractViolationError("qfi_mixed: family must be callable")
    rho0, plus, minus = family(g), family(g + STEP), family(g - STEP)
    if rho0.dim == plus.dim == minus.dim == 2:
        lam, cross = _qubit_eigen_cross(rho0, plus, minus, 2.0 * STEP)
    else:
        drho = (plus.entries - minus.entries) / (2.0 * STEP)
        lam, vecs = np.linalg.eigh(rho0.entries)
        lam, cross = lam.tolist(), (vecs.conj().T @ drho @ vecs).tolist()
    total = 0.0
    for li, row in zip(lam, cross):
        for lj, c in zip(lam, row):
            if li + lj > RANK_CUTOFF:
                total += 2.0 * abs(c) ** 2 / (li + lj)
    return total


def qfi_spectral_unitary(
    lambdas: Sequence[float],
    vectors: Sequence[Ket],
    u_family: Callable[[float], UnitaryOperator],
    g: float,
) -> float:
    """QFI of U(g) rho U(g)^dagger from the spectral decomposition of rho.

    ``lambdas`` and ``vectors`` give the (g-independent) spectral
    decomposition of the input state, so the classical eigenvalue-derivative
    term vanishes and
    F = sum_i 4 lambda_i <v_i|(dU^dag)(dU)|v_i>
      - sum_{i,j} (8 lambda_i lambda_j / (lambda_i + lambda_j))
        |<v_i|U^dag dU|v_j>|^2,
    with dU from a central difference with :data:`STEP`.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.size != len(vectors) or lam.size == 0:
        raise ContractViolationError("qfi_spectral_unitary: lambdas/vectors mismatch")
    if np.any(lam < -1e-12) or abs(lam.sum() - 1.0) > 1e-9:
        raise ContractViolationError("qfi_spectral_unitary: weights must be a distribution")
    gram = np.array([[abs(vi.inner(vj)) for vj in vectors] for vi in vectors])
    if np.max(np.abs(gram - np.eye(lam.size))) > 1e-9:
        raise ContractViolationError("qfi_spectral_unitary: vectors not orthonormal")

    u0 = u_family(g).entries
    du = (u_family(g + STEP).entries - u_family(g - STEP).entries) / (2.0 * STEP)
    kinetic = du.conj().T @ du
    w = u0.conj().T @ du

    total = 0.0
    for i, vi in enumerate(vectors):
        total += 4.0 * lam[i] * float(np.vdot(vi.amplitudes, kinetic @ vi.amplitudes).real)
    for i, vi in enumerate(vectors):
        for j, vj in enumerate(vectors):
            denom = lam[i] + lam[j]
            if denom > RANK_CUTOFF:
                amp = np.vdot(vi.amplitudes, w @ vj.amplitudes)
                total -= 8.0 * lam[i] * lam[j] / denom * abs(amp) ** 2
    return float(total)


def cfi_discrete(law: OutcomeLaw, g: float) -> float:
    """Classical Fisher information sum_k (d p_k)^2 / p_k of a discrete outcome law.

    ``law(g)`` returns the probabilities (finite, summing to 1 within 1e-12)
    and their exact slopes d p_k / d g (Braunstein & Caves, PRL 72, 3439
    (1994)). Only an outcome with p_k == 0, a 0 * 0/0 limit, is skipped, so a
    rare outcome keeps its information. An information beyond the float range
    raises ``ContractViolationError``.

    On :func:`~wva_costlab.experiment.conditional_outcome_model` this is
    ``fm_exact`` up to about (eps / (g cos(alpha + theta)))^2 relative, the
    readout's rounding of its small minus probability. On the default sweep (7
    theta x 721 alpha, |cos(alpha +- theta)| > 1e-2) the worst was 1.6e-12 at
    g = 1e-8, 1.6e-6 at 1e-11 and 1.6e-2 at 1e-13. Below g |cos(alpha + theta)|
    = 1e-15 the readout's 1e-30 floor zeroes the minus outcome and its
    information (|cfi / F_m - 1| = 1 at g = 1e-14).
    """
    if not callable(law):
        raise ContractViolationError("cfi_discrete: law must be callable")
    probabilities, slope = law(g)
    p0 = _distribution(probabilities)
    dp = _floats(slope)
    if len(dp) != len(p0):
        raise ContractViolationError("cfi_discrete: derivative and distribution sizes differ")
    if not all(map(math.isfinite, dp)):
        raise ContractViolationError("cfi_discrete: derivative must be finite")
    total = 0.0
    try:
        for dk, pk in zip(dp, p0):
            if pk > 0.0:
                total += dk ** 2 / pk  # ** as numpy's scalar power: dk * dk rounds differently
    except OverflowError:  # Python's ** raises on overflow
        total = math.inf
    if not math.isfinite(total):  # / and + overflow to inf without raising
        raise ContractViolationError("cfi_discrete: information overflows the float range")
    return total
