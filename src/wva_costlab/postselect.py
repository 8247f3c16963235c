"""The weak-value-amplification channel for the qubit-system / qubit-meter model.

Covers exact postselection (success probability and collapsed meter state),
weak values, the collapsed-state QFI and its small-coupling leading order, the
success-weighted (probabilistic) QFI, and the two canonical postselection
constructors: the optimal state and a near-orthogonal state.

Every quantity comes from one exact kernel, kept here beside the setup that
caches it. The coupling exp(-i g A (x) M) factorizes over the closed-form
spectral splits A = sum_i a_i P_i and M = sum_j m_j Q_j
(``HermitianOperator._split``), so the unnormalized collapsed meter vector is

    v = <sf|U(g)|si>|phi> = sum_j w_j Q_j|phi>,  w_j = sum_i <sf|P_i|si> exp(-i g a_i m_j),

and its derivative dv = dv/dg takes the factor -i a_i m_j into each term.
``_meter_core`` evaluates both in Python complex scalars over plain amplitude
pairs, with no eigensolver; a degenerate A or M contributes its single
projector I. It checks nothing: a :class:`WvaSetup` checks its inputs once, at
construction, and the standard-basis readout of
:mod:`~wva_costlab.experiment` calls the core on amplitude pairs directly.

A setup evaluates the kernel once (``_evaluate``) and caches its output.
Each cached value is a ``states._derived`` attribute: derived on first read and
stored in the setup's ``__dict__`` with no lock, so threads that share a fresh
setup may each run the kernel, and all of them then read the first output
stored. For a ket that is p, the core's four scalars (v0, v1, dv0, dv1) and v
as an array, and next to it the setup caches the signal amplitude <sf|A|si>
and the weighted QFI p F_m, so :func:`postselect`, :func:`fm_exact` and
:func:`probabilistic_qfi` on one setup share one derivation of each. The
postselection probability is p = <v|v>, and the collapsed-state QFI is the
pure-state QFI of v / sqrt(p), F_m = 4 (<dv|dv>/p - |<v|dv>|^2/p^2)
(Braunstein & Caves, PRL 72, 3439 (1994); Paris, IJQI 7, 125 (2009)), taken
as 4 |v0 dv1 - v1 dv0|^2 / p^2 so that it cannot cancel below 0, and no
finite-difference step enters. No small-coupling expansion enters the
production path either. Leading-order formulas are exposed separately so
tests and cost accounting can compare the two.

A caller pays only for what it reads. :func:`postselect` takes p from the
cached output; its result reads the collapsed meter ket v / sqrt(p) and the
weak value <sf|A|si> / <sf|si> from its setup, which derives each once, on
first read. The weak value is the one that :func:`weak_regime_margin` and
:func:`in_weak_regime` read, so a setup forms <sf|si> at most once.

How exact: in the real-superposition scenario, p and F_m carry a relative
error of about k eps / delta in double precision, where eps = 2**-52 and
delta = min |cos(alpha +- theta)|. That is the conditioning of the kets' float
amplitudes near orthogonal postselection (delta = |cos(alpha - theta)|) or
near a vanishing signal (delta = |cos(alpha + theta)|), not a truncation.
Against the closed forms p = cos^2(alpha - theta) D and F_m = 4 k'^2 / D^2,
with k' = cos(alpha + theta) / cos(alpha - theta) and D = cos^2 g + k'^2 sin^2 g,
evaluated in double, k stayed below 7.2 over 2e5 points with theta in
(0, pi/4], delta from 1e-10 to 1 and 1e-7 <= |g| <= 1, and below 3.1 where
delta <= 1e-2; the closed forms' own rounding sets the larger value.

A density-matrix input gets K = V rho_s V^dag from ``_meter_columns``, one
value-only pass over both columns of V with the core's expressions. K is
Hermitian, so the kernel returns p = Tr K and the three Python scalars
(k00, k10, k11), and the setup caches them. The setup builds the collapsed
state K / p from those scalars once, with no array in between
(``_collapsed_state``, which divides as numpy would), and caches it as the
state that :func:`postselect_mixed` returns. Only :func:`fm_exact` needs the
derivative: on its first call the setup runs ``_meter_qfi``, the full kernel
on the basis kets and the Bloch-form qubit QFI of K / p, with no eigensolve
and no rank cutoff, and caches F_m.

The meter family that the finite-difference oracles of
:mod:`~wva_costlab.fisher` probe (:func:`postselected_meter_family`) runs only
the kernel at each probe g, with the finite-g and probability-floor checks of
``setup.at(g)`` but no new :class:`WvaSetup`, and builds its state from the
kernel's scalars as the setup does; a probe equals the ``setup.at(g)`` path
bit for bit. A probe at the setup's own coupling, sign included, runs the
checks and returns the setup's cached state instead of running the kernel
again.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import (
    ContractViolationError,
    OrthogonalPostselectionError,
    UnsupportedInputError,
    VanishingPostselectionError,
)
from .fisher import MixedFamily
from .states import (
    METER_PLUS,
    STANDARD_BASIS,
    STANDARD_SIGMA,
    DensityMatrix,
    HermitianOperator,
    Ket,
    _derived,
    _phase_fixed,
    _readonly,
    check_theta,
    finite_real,
)

P_FLOOR = 1e-14
OVERLAP_FLOOR = 1e-12
_ORTHOGONAL = "weak_value: pre- and postselection are orthogonal"
BALANCE_TOL = 1e-10
WEAK_REGIME_LIMIT = 0.1


def _meter_core(s, f, x, a_split, m_split, g: float) -> tuple[complex, complex, complex, complex]:
    """Postselected meter vector and its g-derivative, in Python scalars.

    ``s``, ``f`` and ``x`` are the amplitude pairs of the preparation, the
    postselection and the meter state; ``a_split`` and ``m_split`` are the
    cached spectral splits ``HermitianOperator._split`` of A and M. Returns (v0, v1, dv0, dv1).
    Inputs are not validated; :class:`WvaSetup` checks them once, at construction.
    """
    s0, s1 = s
    f0, f1 = f[0].conjugate(), f[1].conjugate()
    x0, x1 = x
    # (a_i, <sf|P_i|si>)
    sys_terms = [
        (a, f0 * (p00 * s0 + p01 * s1) + f1 * (p10 * s0 + p11 * s1))
        for a, (p00, p01, p10, p11) in a_split
    ]
    ig = -1j * g  # -1j * g * x evaluates as ig * x: hoisting it keeps every bit
    v0 = v1 = d0 = d1 = 0j
    for m, (q00, q01, q10, q11) in m_split:
        w = dw = 0j
        for a, amp in sys_terms:
            generator = a * m
            phase = cmath.exp(ig * generator)
            w += amp * phase
            dw += amp * (-1j * generator * phase)
        y0 = q00 * x0 + q01 * x1  # Q_j|phi>
        y1 = q10 * x0 + q11 * x1
        v0 += w * y0
        v1 += w * y1
        d0 += dw * y0
        d1 += dw * y1
    return v0, v1, d0, d1


def _meter_columns(
    f, x, a_split, m_split, g: float
) -> tuple[complex, complex, complex, complex]:
    """The two columns (a0, a1, b0, b1) of V = <sf|U(g)|.>|phi>, values only, in Python scalars.

    Bit for bit the v of :func:`_meter_core` on the basis kets (1, 0) and (0, 1):
    the same expressions in the same order, but each phase exp(-i g a_i m_j) is
    evaluated once for both columns and no derivative is formed.
    """
    f0, f1 = f[0].conjugate(), f[1].conjugate()
    x0, x1 = x
    # (a_i, <sf|P_i|0>, <sf|P_i|1>): _meter_core's <sf|P_i|si> with the basis amplitudes
    # written in, since dropping the products by 1.0 and 0.0 is not proved to keep signed zeros
    sys_terms = [
        (
            a,
            f0 * (p00 * 1.0 + p01 * 0.0) + f1 * (p10 * 1.0 + p11 * 0.0),
            f0 * (p00 * 0.0 + p01 * 1.0) + f1 * (p10 * 0.0 + p11 * 1.0),
        )
        for a, (p00, p01, p10, p11) in a_split
    ]
    ig = -1j * g
    a0 = a1 = b0 = b1 = 0j
    for m, (q00, q01, q10, q11) in m_split:
        u = w = 0j
        for a, amp0, amp1 in sys_terms:
            phase = cmath.exp(ig * (a * m))
            u += amp0 * phase
            w += amp1 * phase
        y0 = q00 * x0 + q01 * x1  # Q_j|phi>
        y1 = q10 * x0 + q11 * x1
        a0 += u * y0
        a1 += u * y1
        b0 += w * y0
        b1 += w * y1
    return a0, a1, b0, b1


def _sandwich(r, u0, u1, w0, w1):
    """u rho_s w^dag for rows u, w of V or dV, with ``r`` = (r00, r01, r10, r11) of rho_s."""
    r00, r01, r10, r11 = r
    return (u0 * r00 + u1 * r10) * w0.conjugate() + (u0 * r01 + u1 * r11) * w1.conjugate()


def _evaluate(setup: "WvaSetup", g: float) -> tuple:
    """Kernel output at g, in Python scalars except where a caller needs an array.

    A ket gives (p, v, (v0, v1, dv0, dv1)): the core's scalars, beside v as a
    read-only array, which callers may share and which gives p = <v|v> as BLAS
    ``vdot`` forms it (read through the scalar's ``.real``, which has the bits of
    ``np.real`` at one wrapper call less). A density matrix gives (p, (k00, k10, k11)):
    :func:`_meter_columns` gives the two columns of V = <sf|U(g)|.>|phi> in one
    value-only pass, so no derivative is formed, and the Hermitian
    K = V rho_s V^dag is kept as its real diagonal k00, k11 and its entry k10
    below the diagonal, with p = Tr K = k00 + k11.
    """
    f, x = setup.psi_sf.amplitudes.tolist(), setup.phi_mi.amplitudes.tolist()
    a_split, m_split = setup.A._split, setup.M._split
    if isinstance(setup.psi_si, Ket):
        core = _meter_core(setup.psi_si.amplitudes.tolist(), f, x, a_split, m_split, g)
        v = np.array(core[:2])
        return float(np.vdot(v, v).real), _readonly(v), core
    a0, a1, b0, b1 = _meter_columns(f, x, a_split, m_split, g)
    r = setup.psi_si.entries.ravel().tolist()
    k00, k11 = _sandwich(r, a0, b0, a0, b0).real, _sandwich(r, a1, b1, a1, b1).real
    return k00 + k11, (k00, _sandwich(r, a1, b1, a0, b0), k11)


def _collapsed_state(p: float, k: tuple) -> DensityMatrix:
    """The collapsed meter state K / p of :func:`_evaluate`'s (k00, k10, k11), for p > 0.

    Bit for bit ``DensityMatrix(K / p)`` of the 2x2 array K, with no array in
    between. numpy divides by p + 0j with Smith's method, whose ratio 0.0 / p is
    0.0, so an entry z becomes (z.real + z.imag * 0.0, z.imag - z.real * 0.0) * s
    with s = 1 / p; the products by 0.0 decide the signs of zeros. The entry
    above the diagonal is conj(k10) = (re, -im), and a diagonal entry's imaginary
    part is 0.0. The public constructor runs every check on the result.
    """
    k00, k10, k11 = k
    s, re, im = 1.0 / p, k10.real, k10.imag
    return DensityMatrix([
        [complex((k00 + 0.0) * s, (0.0 - k00 * 0.0) * s),
         complex((re - im * 0.0) * s, (-im - re * 0.0) * s)],
        [complex((re + im * 0.0) * s, (im - re * 0.0) * s),
         complex((k11 + 0.0) * s, (0.0 - k11 * 0.0) * s)],
    ])


def _meter_qfi(setup: "WvaSetup") -> float:
    """F_m of a density-matrix setup: the Bloch-form qubit QFI of K / p, in Python scalars.

    :func:`_meter_core` on the basis kets gives the columns of V and dV, so
    K = V rho_s V^dag (its k00, k10 and k11 bit for bit those of :func:`_evaluate`) and
    dK = dV rho_s V^dag + h.c. With r the Bloch vector of K / p, F_m is
    |dr|^2 + (r.dr)^2 / (1 - |r|^2) (Zhong et al., PRA 87, 022337 (2013)). By Cauchy-Binet,
    |det V| = |E| with E = 2 |det(P_0 sf, P_1 sf) det(Q_0 phi, Q_1 phi)| sin(g d / 2) and
    d = (a_0 - a_1)(m_0 - m_1), or E = 0 for a degenerate A or M, so 1 - |r|^2 =
    4 det rho_s E^2 / p^2 and the second term is 4 det rho_s (dE - E dp/p)^2 / p^2: no 1/gap,
    no rank cutoff, and continuous at E = 0 (K pure, as at g = 0), where the rank-1 state's
    SLD QFI is |dr|^2 alone (Safranek, PRA 95, 052320 (2017)). Needs p > 0.
    """
    f, x, g = setup.psi_sf.amplitudes.tolist(), setup.phi_mi.amplitudes.tolist(), setup.g
    a_split, m_split = setup.A._split, setup.M._split
    a0, a1, da0, da1 = _meter_core((1.0, 0.0), f, x, a_split, m_split, g)
    b0, b1, db0, db1 = _meter_core((0.0, 1.0), f, x, a_split, m_split, g)
    r = setup.psi_si.entries.ravel().tolist()
    k00, k11 = _sandwich(r, a0, b0, a0, b0).real, _sandwich(r, a1, b1, a1, b1).real
    k10 = _sandwich(r, a1, b1, a0, b0)
    d00 = 2.0 * _sandwich(r, da0, db0, a0, b0).real
    d11 = 2.0 * _sandwich(r, da1, db1, a1, b1).real
    d10 = _sandwich(r, da1, db1, a0, b0) + _sandwich(r, da0, db0, a1, b1).conjugate()
    e = de = 0.0
    if len(a_split) == 2 and len(m_split) == 2:
        (a_0, P0), (a_1, _), (m_0, Q0), (m_1, _) = *a_split, *m_split
        scale, d = 1.0, (a_0 - a_1) * (m_0 - m_1)
        for P, u in ((P0, f), (Q0, x)):  # times |det(P u, (I - P) u)| of each projector
            scale *= abs((P[0] * u[0] + P[1] * u[1]) * u[1] - (P[2] * u[0] + P[3] * u[1]) * u[0])
        e, de = 2.0 * scale * math.sin(0.5 * g * d), scale * d * math.cos(0.5 * g * d)
    p, dp = k00 + k11, d00 + d11
    bloch = (2.0 * k10.real / p, 2.0 * k10.imag / p, (k00 - k11) / p)
    dr = [(s - c * dp) / p for s, c in zip((2 * d10.real, 2 * d10.imag, d00 - d11), bloch)]
    det_rho = r[0].real * r[3].real - abs(r[2]) ** 2
    return sum(d * d for d in dr) + 4.0 * det_rho * (de - e * dp / p) ** 2 / (p * p)


@dataclass(frozen=True)
class WvaSetup:
    """Pre/postselection pair, meter state, coupling observables and strength.

    ``psi_si`` may be a ket (the usual coherent preparation) or any qubit
    density matrix: incoherent, partially coherent or maximally mixed;
    ``psi_sf`` and ``phi_mi`` are kets and ``A`` and ``M`` Hermitian
    operators, and a field of another type raises ContractViolationError.
    The meter must sit at the balance zero point, <M> = 0, with a positive
    second moment Omega = <M^2>. The coupling strength must be a finite real.

    These checks run once, here; the kernel checks nothing. ``omega`` =
    ||M phi||^2 is derived at construction. <M> and Omega come from a slot on
    ``M`` that keeps the last ``phi_mi`` object, so setups sharing both
    objects compute them once; every setup still runs the balance and
    positivity checks. Each kernel output is derived on first use, and only
    when a caller reads it (a ``states._derived`` attribute: threads racing on
    a first read may each derive it, and all read the first value stored):
    ``_out``, which is
    (p, v, (v0, v1, dv0, dv1)) of a ket or (p, (k00, k10, k11)) of a density
    matrix (:func:`_evaluate`);
    the F_m of a density matrix (``_fm``), which only :func:`fm_exact` reads;
    the collapsed meter ket and the weak value of a ket input, which a
    :func:`postselect` result reads as ``phi_mf`` and ``a_w`` and the weak-regime
    margin reads too; and the collapsed meter state that
    :func:`postselect_mixed` and the meter family return. None of them takes
    part in equality, hashing or the repr; :meth:`at` and
    ``dataclasses.replace`` build a fresh instance that derives them anew.
    """

    psi_si: Union[Ket, DensityMatrix]
    psi_sf: Ket
    phi_mi: Ket
    A: HermitianOperator
    M: HermitianOperator
    g: float
    omega: float = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        finite_real(self.g, "WvaSetup", "coupling strength g")
        if not (isinstance(self.psi_si, (Ket, DensityMatrix)) and isinstance(self.psi_sf, Ket)
                and isinstance(self.phi_mi, Ket) and isinstance(self.A, HermitianOperator)
                and isinstance(self.M, HermitianOperator)):
            raise ContractViolationError(
                "WvaSetup: psi_si must be a Ket or DensityMatrix, psi_sf and phi_mi Kets,"
                " A and M HermitianOperators"
            )
        if self.psi_sf.dim != 2 or self.phi_mi.dim != 2 or self.psi_si.dim != 2:
            raise ContractViolationError("WvaSetup: system and meter must be qubits")
        if self.A.dim != 2 or self.M.dim != 2:
            raise ContractViolationError("WvaSetup: A and M must act on qubits")
        mean, omega = self.M._moments(self.phi_mi)
        if abs(mean) > BALANCE_TOL:
            raise ContractViolationError(
                "WvaSetup: meter must be at the balance zero point (<M> = 0)"
            )
        object.__setattr__(self, "omega", omega)
        if self.omega <= 0.0:
            raise ContractViolationError("WvaSetup: <M^2> must be positive")

    @_derived
    def _out(self) -> tuple:
        """Kernel output at the setup's coupling (:func:`_evaluate`)."""
        return _evaluate(self, self.g)

    @_derived
    def _signal(self) -> complex:
        """<sf|A|si> of a ket input: the weak value's numerator and the leading-order signal."""
        return _amplitude(self.psi_si, self.psi_sf, self.A)

    @_derived
    def _weighted(self) -> float:
        """p * F_m of a ket input from the kernel's scalars; read only past the P_FLOOR check."""
        p, _, core = self._out
        return _weighted_qfi(p, *core)

    @_derived
    def _fm(self) -> float:
        """F_m of a density-matrix input; read only past the P_FLOOR check."""
        return _meter_qfi(self)

    @_derived
    def _weak_value(self) -> Optional[complex]:
        """Weak value <sf|A|si> / <sf|si> of a ket input, or None below OVERLAP_FLOOR."""
        try:
            return self._signal / _overlap(self.psi_si, self.psi_sf)
        except OrthogonalPostselectionError:
            return None

    @_derived
    def _collapsed_ket(self) -> Ket:
        """Collapsed meter ket v / sqrt(p) of a ket input; read only past the P_FLOOR check."""
        return Ket(self._out[1])

    @_derived
    def _collapsed(self) -> DensityMatrix:
        """Collapsed meter state of either input; read only past the P_FLOOR check."""
        if isinstance(self.psi_si, Ket):
            return DensityMatrix.from_ket(self._collapsed_ket)
        return _collapsed_state(*self._out)

    def at(self, g: float) -> "WvaSetup":
        """Copy of this setup with a different coupling strength."""
        return dataclasses.replace(self, g=g)


@dataclass(frozen=True, eq=False, repr=False)
class PostselectionResult:
    """Success probability, collapsed meter ket and weak value of one postselection.

    ``a_w`` is None when pre- and postselection are orthogonal beyond the
    overlap floor (the weak value is undefined there, although the exact
    postselection itself may still succeed at finite coupling).

    Only ``p`` is taken at construction. ``phi_mf`` and ``a_w`` are the
    setup's cached collapsed ket and weak value, each derived on its first
    read, so a caller that reads neither pays for neither and repeated reads
    return the same object. Equality and the repr are by value over (p,
    phi_mf, a_w), as for a dataclass of those three fields, and compare or
    show the derived two; like a :class:`Ket`, a result is unhashable.
    """

    p: float
    _setup: WvaSetup

    @property
    def phi_mf(self) -> Ket:
        """Normalized collapsed meter ket v / sqrt(p)."""
        return self._setup._collapsed_ket

    @property
    def a_w(self) -> Optional[complex]:
        """Weak value <sf|A|si> / <sf|si>, or None below the overlap floor."""
        return self._setup._weak_value

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.phi_mf, self.a_w) == (other.p, other.phi_mf, other.a_w)

    def __repr__(self) -> str:
        return f"PostselectionResult(p={self.p!r}, phi_mf={self.phi_mf!r}, a_w={self.a_w!r})"


def _amplitude(psi_si: Ket, psi_sf: Ket, A: HermitianOperator) -> complex:
    """<sf|A|si>, the weak value's numerator."""
    return complex(np.vdot(psi_sf.amplitudes, A.entries @ psi_si.amplitudes))


def _overlap(psi_si: Ket, psi_sf: Ket) -> complex:
    """<sf|si>, the weak value's denominator; orthogonal beyond OVERLAP_FLOOR raises."""
    denom = psi_sf.inner(psi_si)
    if abs(denom) < OVERLAP_FLOOR:
        raise OrthogonalPostselectionError(_ORTHOGONAL)
    return denom


def weak_value(psi_si: Ket, psi_sf: Ket, A: HermitianOperator) -> complex:
    """Weak value <sf|A|si> / <sf|si> of the system observable."""
    denom = _overlap(psi_si, psi_sf)
    return _amplitude(psi_si, psi_sf, A) / denom


def _kernel(setup: WvaSetup, where: str, pure: bool = False, g: Optional[float] = None) -> tuple:
    """Kernel output of a ket or (unless ``pure``) density-matrix input; checks run every call.

    Without ``g`` this is the setup's cached output. With ``g`` the kernel runs
    afresh at that coupling behind the finite-g check of ``setup.at(g)``, and
    no :class:`WvaSetup` is built: the setup's other fields were checked when
    it was built and do not depend on g.
    """
    if g is not None:
        finite_real(g, "WvaSetup", "coupling strength g")
    if pure and not isinstance(setup.psi_si, Ket):
        raise UnsupportedInputError(f"{where}: mixed system input; use postselect_mixed")
    out = setup._out if g is None else _evaluate(setup, g)
    if out[0] < P_FLOOR:
        raise VanishingPostselectionError(
            f"{where}: success probability {out[0]:.3e} below floor {P_FLOOR:g}"
        )
    return out


def _own_coupling(setup: WvaSetup, g: float) -> bool:
    """Whether a probe at g may read the setup's cache: g is setup.g, sign included.

    NaN never is, and -0.0 against 0.0 is not: the kernel's phases keep the sign of a zero.
    """
    return g == setup.g and math.copysign(1.0, g) == math.copysign(1.0, setup.g)


def _weighted_qfi(p: float, v0: complex, v1: complex, d0: complex, d1: complex) -> float:
    """p * F_m = 4 (<dv|dv> - |<v|dv>|^2 / p) of the unnormalized qubit meter vector v, dv.

    Evaluated as 4 |v0 dv1 - v1 dv0|^2 / p, equal by Lagrange's identity, which is
    non-negative by construction; the difference of the two terms cancels to garbage
    near orthogonal postselection, where v and dv are nearly parallel.
    """
    return 4.0 * abs(v0 * d1 - v1 * d0) ** 2 / p


def postselect(setup: WvaSetup) -> PostselectionResult:
    """Exact postselection of a pure system input.

    Projects the evolved system onto the postselection state and returns the
    success probability together with the normalized collapsed meter state
    and the weak value, which the result derives when first read. No
    small-coupling approximation is used.
    """
    return PostselectionResult(_kernel(setup, "postselect", pure=True)[0], setup)


def postselect_mixed(setup: WvaSetup) -> tuple[float, DensityMatrix]:
    """Exact postselection of any system input: (p, collapsed meter state).

    A density matrix gives (Tr K, K / Tr K) from the cached K = V rho_s V^dag.
    The state is the setup's cached one, the same object on every call.
    """
    where = "postselect" if isinstance(setup.psi_si, Ket) else "postselect_mixed"
    return _kernel(setup, where)[0], setup._collapsed


def postselected_meter_family(setup: WvaSetup) -> MixedFamily:
    """Map g -> postselected meter density matrix (mixed system inputs allowed).

    A probe runs the kernel once at g, for a density matrix its value-only pass
    over both columns of V, and equals ``postselect_mixed(setup.at(g))[1]`` bit for
    bit, errors included. At the setup's own coupling it runs the checks and
    returns the setup's cached state, the one :func:`postselect_mixed` returns.
    """
    ket_input = isinstance(setup.psi_si, Ket)
    where = "postselect" if ket_input else "postselect_mixed"

    def family(g: float) -> DensityMatrix:
        if _own_coupling(setup, g):
            _kernel(setup, where)
            return setup._collapsed
        out = _kernel(setup, where, g=g)
        if ket_input:
            return DensityMatrix.from_ket(Ket(out[1]))
        return _collapsed_state(*out)

    return family


def fm_exact(setup: WvaSetup) -> float:
    """Exact QFI of the collapsed meter state at the setup's coupling strength.

    F_m = 4 |v0 dv1 - v1 dv0|^2 / p^2 from the kernel's closed-form dv, or
    for a density-matrix input the Bloch form of ``_meter_qfi``.
    """
    p = _kernel(setup, "fm_exact")[0]
    if not isinstance(setup.psi_si, Ket):
        return setup._fm
    return setup._weighted / p


def fm_leading(omega: float, a_w: complex) -> float:
    """Leading-order collapsed-state QFI, 4 * Omega * |A_w|^2, which must be finite.

    ``omega`` goes through :func:`finite_real`; an ``a_w`` that is not a
    ``numbers.Complex``, or is a bool, raises ContractViolationError.
    """
    finite_real(omega, "fm_leading", "omega")
    if isinstance(a_w, bool) or not isinstance(a_w, numbers.Complex):
        raise ContractViolationError("fm_leading: a_w must be a number")
    if not (0.0 < omega and cmath.isfinite(a_w)):
        raise ContractViolationError("fm_leading: omega must be positive and finite, a_w finite")
    try:  # in Python scalars, so a numpy input cannot warn on overflow
        value = 4.0 * float(omega) * abs(complex(a_w)) ** 2
    except OverflowError:  # Python's ** raises on overflow
        value = math.inf
    if value == math.inf:  # * overflows to inf without raising
        raise ContractViolationError("fm_leading: 4 Omega |A_w|^2 overflows the float range")
    return value


def probabilistic_qfi(setup: WvaSetup) -> tuple[float, float]:
    """Success-weighted QFI of the collapsed meter, exact and leading order.

    Returns (p * F_m, 4 * Omega * |<sf|A|si>|^2), the exact value as
    4 |v0 dv1 - v1 dv0|^2 / p from the setup's kernel output. It can
    approach but never exceed the conventional-scheme QFI.
    """
    _kernel(setup, "probabilistic_qfi", pure=True)
    return setup._weighted, 4.0 * setup.omega * abs(setup._signal) ** 2


def optimal_postselection(psi_si: Ket, A: HermitianOperator) -> Ket:
    """Postselection state A|si> / sqrt(<A^2>) that maximizes the weighted QFI."""
    vec = A.apply(psi_si)
    if float(np.vdot(vec, vec).real) <= 1e-12:
        raise ContractViolationError("optimal_postselection: A annihilates the input")
    return Ket(_phase_fixed(vec))


def near_orthogonal_postselection(psi_si: Ket, A: HermitianOperator, epsilon: float) -> Ket:
    """Postselection state with overlap modulus ``epsilon`` against the input.

    The state is chosen in the real span of {si, A si} on the side that
    maximizes the weak-value magnitude among the two candidates with the same
    overlap modulus; exact ties fall to the deterministic convention of the
    negative coefficient along the amplification direction. ``epsilon`` goes
    through :func:`finite_real`.
    """
    finite_real(epsilon, "near_orthogonal_postselection", "epsilon")
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


def weak_regime_margin(setup: WvaSetup) -> float:
    """Size of g |A_w| Omega, which must be finite; the weak-value description needs this << 1."""
    if not isinstance(setup.psi_si, Ket):
        raise UnsupportedInputError("weak_regime_margin: needs a pure system input")
    a_w = setup._weak_value
    if a_w is None:
        raise OrthogonalPostselectionError(_ORTHOGONAL)
    value = abs(float(setup.g)) * abs(a_w) * setup.omega  # in Python floats: no numpy warning
    if value == math.inf:  # * overflows to inf without raising
        raise ContractViolationError("weak_regime_margin: g |A_w| Omega overflows the float range")
    return value


def in_weak_regime(setup: WvaSetup) -> bool:
    """Whether the setup sits inside the quantitative weak-value regime."""
    return weak_regime_margin(setup) < WEAK_REGIME_LIMIT


def real_superposition_setup(theta: float, alpha: float, g: float) -> WvaSetup:
    """Standard scenario: real pre/postselection superpositions of the standard basis states.

    System prepared as cos(theta)|0> + sin(theta)|1> and postselected onto
    cos(alpha)|0> + sin(alpha)|1>, with the coupling observable diagonal in the
    same basis and a balanced meter (the shared |+> and standard observable).
    The preparation angle must lie in (0, pi/4] (:func:`check_theta`).
    """
    check_theta(theta, "real_superposition_setup: theta")
    return WvaSetup(
        psi_si=STANDARD_BASIS.superposition(theta),
        psi_sf=STANDARD_BASIS.superposition(alpha),
        phi_mi=METER_PLUS,
        A=STANDARD_SIGMA,
        M=STANDARD_SIGMA,
        g=g,
    )
