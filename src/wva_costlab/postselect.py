"""The weak-value-amplification channel for the qubit-system / qubit-meter model.

Covers exact postselection (success probability and collapsed meter state),
weak values, the collapsed-state QFI and its small-coupling leading order, the
success-weighted (probabilistic) QFI, and the two canonical postselection
constructors: the optimal state and a near-orthogonal state.

Every pure-input quantity comes from one exact kernel,
:func:`~wva_costlab.states.postselected_meter`. It returns the unnormalized
collapsed meter vector v and its closed-form derivative dv = dv/dg from the
factorized spectrum of the coupling. The postselection probability is
p = <v|v>, and the collapsed-state QFI is the pure-state QFI of v / sqrt(p),
F_m = 4 (<dv|dv>/p - |<v|dv>|^2/p^2) (Braunstein & Caves, PRL 72, 3439
(1994); Paris, IJQI 7, 125 (2009)), so no finite-difference step enters. No
small-coupling expansion enters the production path either. Leading-order
formulas are exposed separately so tests and cost accounting can compare the
two.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import (
    ContractViolationError,
    OrthogonalPostselectionError,
    UnsupportedInputError,
    VanishingPostselectionError,
)
from .fisher import MixedFamily, PureFamily
from .states import (
    METER_PLUS,
    STANDARD_BASIS,
    STANDARD_SIGMA,
    DensityMatrix,
    HermitianOperator,
    Ket,
    ReferenceBasis,
    _phase_fixed,
    postselected_meter,
)

P_FLOOR = 1e-14
OVERLAP_FLOOR = 1e-12
BALANCE_TOL = 1e-10
WEAK_REGIME_LIMIT = 0.1


@dataclass(frozen=True)
class WvaSetup:
    """Pre/postselection pair, meter state, coupling observables and strength.

    ``psi_si`` may be a ket (the usual coherent preparation) or a density
    matrix diagonal in the eigenbasis of ``A`` for incoherent-input studies.
    The meter must sit at the balance zero point, <M> = 0, with a positive
    second moment Omega = <M^2>. The coupling strength must be finite.
    """

    psi_si: Union[Ket, DensityMatrix]
    psi_sf: Ket
    phi_mi: Ket
    A: HermitianOperator
    M: HermitianOperator
    g: float

    def __post_init__(self):
        if not math.isfinite(self.g):
            raise ContractViolationError("WvaSetup: coupling strength g must be finite")
        if self.psi_sf.dim != 2 or self.phi_mi.dim != 2 or self.psi_si.dim != 2:
            raise ContractViolationError("WvaSetup: system and meter must be qubits")
        if self.A.dim != 2 or self.M.dim != 2:
            raise ContractViolationError("WvaSetup: A and M must act on qubits")
        if abs(self.M.expectation(self.phi_mi)) > BALANCE_TOL:
            raise ContractViolationError(
                "WvaSetup: meter must be at the balance zero point (<M> = 0)"
            )
        if self.omega <= 0.0:
            raise ContractViolationError("WvaSetup: <M^2> must be positive")

    @property
    def omega(self) -> float:
        """Second moment <M^2> = ||M phi||^2 of the meter observable in the meter state."""
        m_phi = self.M.apply(self.phi_mi)
        return float(np.real(np.vdot(m_phi, m_phi)))

    def at(self, g: float) -> "WvaSetup":
        """Copy of this setup with a different coupling strength."""
        return dataclasses.replace(self, g=g)


@dataclass(frozen=True)
class PostselectionResult:
    """Success probability, collapsed meter ket and weak value of one postselection.

    ``a_w`` is None when pre- and postselection are orthogonal beyond the
    overlap floor (the weak value is undefined there, although the exact
    postselection itself may still succeed at finite coupling).
    """

    p: float
    phi_mf: Ket
    a_w: Optional[complex]


def weak_value(psi_si: Ket, psi_sf: Ket, A: HermitianOperator) -> complex:
    """Weak value <sf|A|si> / <sf|si> of the system observable."""
    denom = psi_sf.inner(psi_si)
    if abs(denom) < OVERLAP_FLOOR:
        raise OrthogonalPostselectionError(
            "weak_value: pre- and postselection are orthogonal"
        )
    numer = complex(np.vdot(psi_sf.amplitudes, A.entries @ psi_si.amplitudes))
    return numer / denom


def _pure_meter(setup: WvaSetup, where: str) -> tuple[float, np.ndarray, np.ndarray]:
    """Kernel output (p, v, dv) for a pure input whose postselection succeeds."""
    if not isinstance(setup.psi_si, Ket):
        raise UnsupportedInputError(f"{where}: mixed system input; use postselect_mixed")
    p, v, dv = postselected_meter(
        setup.psi_si, setup.psi_sf, setup.phi_mi, setup.A, setup.M, setup.g
    )
    if p < P_FLOOR:
        raise VanishingPostselectionError(
            f"{where}: success probability {p:.3e} below floor {P_FLOOR:g}"
        )
    return p, v, dv


def _weighted_qfi(p: float, v: np.ndarray, dv: np.ndarray) -> float:
    """p * F_m = 4 (<dv|dv> - |<v|dv>|^2 / p) of the unnormalized meter vector."""
    return 4.0 * float(np.real(np.vdot(dv, dv)) - abs(np.vdot(v, dv)) ** 2 / p)


def postselect(setup: WvaSetup) -> PostselectionResult:
    """Exact postselection of a pure system input.

    Projects the evolved system onto the postselection state and returns the
    success probability together with the normalized collapsed meter state.
    No small-coupling approximation is used.
    """
    p, v, _ = _pure_meter(setup, "postselect")
    try:
        a_w: Optional[complex] = weak_value(setup.psi_si, setup.psi_sf, setup.A)
    except OrthogonalPostselectionError:
        a_w = None
    return PostselectionResult(p=p, phi_mf=Ket(v), a_w=a_w)


def postselect_mixed(setup: WvaSetup) -> tuple[float, DensityMatrix]:
    """Postselection for a mixed system input, as a convex mixture of branches.

    The input density matrix is resolved in its eigenbasis; each eigenvector
    branch is postselected exactly and the collapsed meter states are mixed
    with weights (branch weight) * (branch success probability) / p.
    """
    if isinstance(setup.psi_si, Ket):
        p_res = postselect(setup)
        return p_res.p, DensityMatrix.from_ket(p_res.phi_mf)
    weights, branches = setup.psi_si.eigensystem()
    total_p = 0.0
    pieces: list[tuple[float, Ket]] = []
    for w, branch in zip(weights, branches):
        if w <= P_FLOOR:
            continue
        try:
            res = postselect(dataclasses.replace(setup, psi_si=branch))
        except VanishingPostselectionError:
            continue
        total_p += w * res.p
        pieces.append((w * res.p, res.phi_mf))
    if total_p < P_FLOOR:
        raise VanishingPostselectionError(
            "postselect_mixed: total success probability below floor"
        )
    mat = sum(wp / total_p * phi.projector() for wp, phi in pieces)
    return total_p, DensityMatrix(mat)


def collapsed_meter_family(setup: WvaSetup) -> PureFamily:
    """Map g -> collapsed meter ket, for Fisher-information evaluation."""
    return lambda g: postselect(setup.at(g)).phi_mf


def postselected_meter_family(setup: WvaSetup) -> MixedFamily:
    """Map g -> postselected meter density matrix (mixed system inputs allowed)."""
    return lambda g: postselect_mixed(setup.at(g))[1]


def fm_exact(setup: WvaSetup) -> float:
    """Exact QFI of the collapsed meter state at the setup's coupling strength.

    F_m = 4 (<dv|dv>/p - |<v|dv>|^2/p^2) from the kernel's closed-form dv.
    """
    p, v, dv = _pure_meter(setup, "fm_exact")
    return _weighted_qfi(p, v, dv) / p


def fm_leading(omega: float, a_w: complex) -> float:
    """Leading-order collapsed-state QFI, 4 * Omega * |A_w|^2."""
    if omega <= 0:
        raise ContractViolationError("fm_leading: omega must be positive")
    return 4.0 * omega * abs(a_w) ** 2


def probabilistic_qfi(setup: WvaSetup) -> tuple[float, float]:
    """Success-weighted QFI of the collapsed meter, exact and leading order.

    Returns (p * F_m, 4 * Omega * |<sf|A|si>|^2), the exact value as
    4 (<dv|dv> - |<v|dv>|^2 / p) from one kernel call. It can approach but
    never exceed the conventional-scheme QFI.
    """
    exact = _weighted_qfi(*_pure_meter(setup, "probabilistic_qfi"))
    amp = complex(np.vdot(setup.psi_sf.amplitudes, setup.A.entries @ setup.psi_si.amplitudes))
    leading = 4.0 * setup.omega * abs(amp) ** 2
    return exact, leading


def optimal_postselection(psi_si: Ket, A: HermitianOperator) -> Ket:
    """Postselection state A|si> / sqrt(<A^2>) that maximizes the weighted QFI."""
    vec = A.apply(psi_si)
    if float(np.real(np.vdot(vec, vec))) <= 1e-12:
        raise ContractViolationError("optimal_postselection: A annihilates the input")
    return Ket(_phase_fixed(vec))


def near_orthogonal_postselection(psi_si: Ket, A: HermitianOperator, epsilon: float) -> Ket:
    """Postselection state with overlap modulus ``epsilon`` against the input.

    The state is chosen in the real span of {si, A si} on the side that
    maximizes the weak-value magnitude among the two candidates with the same
    overlap modulus; exact ties fall to the deterministic convention of the
    negative coefficient along the amplification direction.
    """
    if epsilon == 0:
        raise OrthogonalPostselectionError(
            "near_orthogonal_postselection: epsilon = 0 makes the weak value undefined"
        )
    if not (0.0 < epsilon <= 0.2):
        raise ContractViolationError(
            "near_orthogonal_postselection: epsilon out of range (0, 0.2]"
        )
    raw = A.apply(psi_si)
    overlap = complex(np.vdot(psi_si.amplitudes, raw))
    residual = raw - overlap * psi_si.amplitudes
    res_norm = float(np.linalg.norm(residual))
    if res_norm < 1e-12:
        raise UnsupportedInputError(
            "near_orthogonal_postselection: input is an eigenstate of A;"
            " no amplification direction exists"
        )
    direction = _phase_fixed(residual / res_norm)
    ortho = np.sqrt(1.0 - epsilon**2)
    plus = Ket(_phase_fixed(epsilon * psi_si.amplitudes + ortho * direction))
    minus = Ket(_phase_fixed(epsilon * psi_si.amplitudes - ortho * direction))
    aw_plus = abs(weak_value(psi_si, plus, A))
    aw_minus = abs(weak_value(psi_si, minus, A))
    if abs(aw_plus - aw_minus) <= 1e-12 * max(aw_plus, aw_minus):
        return minus
    return plus if aw_plus > aw_minus else minus


def weak_regime_margin(setup: WvaSetup, a_w: Optional[complex] = None) -> float:
    """Size of g |A_w| Omega; the weak-value description needs this << 1."""
    if a_w is None:
        if not isinstance(setup.psi_si, Ket):
            raise UnsupportedInputError("weak_regime_margin: needs a pure system input")
        a_w = weak_value(setup.psi_si, setup.psi_sf, setup.A)
    return abs(setup.g) * abs(a_w) * setup.omega


def in_weak_regime(setup: WvaSetup, a_w: Optional[complex] = None) -> bool:
    """Whether the setup sits inside the quantitative weak-value regime."""
    return weak_regime_margin(setup, a_w) < WEAK_REGIME_LIMIT


def real_superposition_setup(
    theta: float,
    alpha: float,
    g: float,
    basis: Optional[ReferenceBasis] = None,
) -> WvaSetup:
    """Standard scenario: real pre/postselection superpositions of the basis states.

    System prepared as cos(theta)|0> + sin(theta)|1> and postselected onto
    cos(alpha)|0> + sin(alpha)|1>, with the coupling observable diagonal in the
    same basis and a balanced meter (the shared |+> and standard observable).
    """
    basis = basis or STANDARD_BASIS
    return WvaSetup(
        psi_si=basis.superposition(theta),
        psi_sf=basis.superposition(alpha),
        phi_mi=METER_PLUS,
        A=STANDARD_SIGMA if basis is STANDARD_BASIS else basis.sigma(),
        M=STANDARD_SIGMA,
        g=g,
    )
