"""The weak-value-amplification channel for the qubit-system / qubit-meter model.

Covers exact postselection (success probability and collapsed meter state),
weak values, the collapsed-state QFI and its small-coupling leading order, the
success-weighted (probabilistic) QFI, and the two canonical postselection
constructors: the optimal state and a near-orthogonal state.

Every quantity comes from one exact kernel. The coupling exp(-i g A (x) M)
factorizes over the closed-form spectral splits A = sum_i a_i P_i and
M = sum_j m_j Q_j (``HermitianOperator._split``), so the unnormalized
collapsed meter vector is

    v = <sf|U(g)|si>|phi> = sum_j w_j Q_j|phi>,  w_j = sum_i <sf|P_i|si> exp(-i g a_i m_j),

and its derivative dv = dv/dg takes the factor -i a_i m_j into each term.
``_meter_core`` evaluates both in Python complex scalars, with no eigensolver;
a degenerate A or M contributes its single projector I. It checks nothing; the
standard-basis readout of :mod:`~wva_costlab.experiment` calls it directly.

A :class:`WvaSetup` checks its inputs and runs the kernel once, in its
constructor (``_evaluate``), which raises ContractViolationError where a phase,
p or a slope leaves the float range. :func:`postselect`, :func:`fm_exact` and
:func:`probabilistic_qfi` share that output. p = <v|v>, and F_m is the
pure-state QFI of v / sqrt(p), 4 (<dv|dv>/p - |<v|dv>|^2/p^2) (Braunstein &
Caves, PRL 72, 3439 (1994); Paris, IJQI 7, 125 (2009)), taken as
4 |v0 dv1 - v1 dv0|^2 / p^2 so that it cannot cancel below 0; an F_m or p F_m
beyond the float range raises too. No finite-difference step or small-coupling
expansion enters; the leading-order formulas are exposed separately. The
collapsed ket v / sqrt(p) and the weak value are formed when a result is read,
and a ket input's collapsed state |v><v| / p by :func:`postselect_mixed` and
by the meter family's probe at the setup's own coupling.

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

A density-matrix setup computes the kernel's g-independent factors once, in its
constructor (``_meter_factors``): <sf|P_i|.> of both basis columns for each
eigenvalue a_i of A and Q_j|phi> for each eigenvalue m_j of M, the expressions
``_meter_core`` forms on the basis kets. At any g only the phases
exp(-i g a_i m_j) remain. ``_columns`` runs them once over both columns of V,
values only, and gives K = V rho_s V^dag, with rho_s read from its flat
entries, kept as p = Tr K and (k00, k10, k11). When p clears P_FLOOR the
constructor builds K / p from them with no array in between
(``_collapsed_state``, which divides as numpy would): the state that
:func:`postselect_mixed` returns. Only :func:`fm_exact` needs dK:
``_meter_qfi`` runs the full kernel on the basis kets and takes the Bloch-form
qubit QFI of K / p, with no eigensolve and no rank cutoff.

The meter family that the finite-difference oracles of
:mod:`~wva_costlab.fisher` probe (:func:`postselected_meter_family`) runs only
the kernel at each probe g (for a density matrix, the phase pass alone),
behind the checks of ``setup.at(g)`` but with no new :class:`WvaSetup`, and
equals that path bit for bit. A probe at the setup's own coupling, sign
included, reads the setup's kernel output instead.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Union

from .errors import (
    ContractViolationError,
    ModelDimensionError,
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
    _norm_sq,
    _phase_fixed,
    check_theta,
    finite_real,
)

P_FLOOR = 1e-14
OVERLAP_FLOOR = 1e-12
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


def _meter_factors(f, x, a_split, m_split) -> tuple:
    """The g-independent factors of V = <sf|U(g)|.>|phi>, in Python scalars.

    One entry per eigenvalue m_j of M: (y0, y1, terms), with (y0, y1) = Q_j|phi>
    and ``terms`` the (a_i m_j, <sf|P_i|0>, <sf|P_i|1>) of each eigenvalue a_i
    of A. These are :func:`_meter_core`'s expressions on the basis kets (1, 0)
    and (0, 1), so :func:`_columns` gives its bits.
    """
    f0, f1 = f[0].conjugate(), f[1].conjugate()
    x0, x1 = x
    # _meter_core's <sf|P_i|si> with the basis amplitudes written in, since dropping
    # the products by 1.0 and 0.0 is not proved to keep signed zeros
    sys_terms = []
    for a, (p00, p01, p10, p11) in a_split:
        sys_terms.append((
            a,
            f0 * (p00 * 1.0 + p01 * 0.0) + f1 * (p10 * 1.0 + p11 * 0.0),
            f0 * (p00 * 0.0 + p01 * 1.0) + f1 * (p10 * 0.0 + p11 * 1.0),
        ))
    factors = []
    for m, (q00, q01, q10, q11) in m_split:
        terms = tuple([(a * m, u, w) for a, u, w in sys_terms])
        factors.append((q00 * x0 + q01 * x1, q10 * x0 + q11 * x1, terms))
    return tuple(factors)


def _columns(factors: tuple, g: float) -> tuple[complex, complex, complex, complex]:
    """The two columns (a0, a1, b0, b1) of V at g from :func:`_meter_factors`, values only.

    Bit for bit the v of :func:`_meter_core` on the basis kets (1, 0) and (0, 1):
    each phase exp(-i g a_i m_j) is evaluated once for both columns.
    """
    ig = -1j * g  # -1j * g * x evaluates as ig * x: hoisting it keeps every bit
    a0 = a1 = b0 = b1 = 0j
    for y0, y1, terms in factors:
        u = w = 0j
        for generator, amp0, amp1 in terms:
            phase = cmath.exp(ig * generator)
            u += amp0 * phase
            w += amp1 * phase
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

    A ket gives (p, (v0, v1, dv0, dv1)): the core's scalars and
    p = |v0|^2 + |v1|^2 from them (:func:`~wva_costlab.states._norm_sq`), with no
    array; the array v is built only where the collapsed ket is read. A density
    matrix gives (p, (k00, k10, k11)): :func:`_columns` gives the two columns of
    V = <sf|U(g)|.>|phi> from the setup's ``_factors`` in one value-only phase
    pass, so no derivative is formed, and the Hermitian K = V rho_s V^dag, with
    rho_s read from its ``_flat`` entries, is kept as its real diagonal k00, k11
    and its entry k10 below the diagonal, with p = Tr K = k00 + k11.

    A phase that ``cmath.exp`` cannot take, or a p or slope that is not
    finite, raises ContractViolationError.
    """
    try:
        if isinstance(setup.psi_si, Ket):
            core = _meter_core(setup.psi_si._amps, setup.psi_sf._amps, setup.phi_mi._amps,
                               setup.A._split, setup.M._split, g)
            p = _norm_sq(core[:2])
            if math.isfinite(p) and cmath.isfinite(core[2]) and cmath.isfinite(core[3]):
                return p, core
        else:
            a0, a1, b0, b1 = _columns(setup._factors, g)
            r = setup.psi_si._flat
            k00, k11 = _sandwich(r, a0, b0, a0, b0).real, _sandwich(r, a1, b1, a1, b1).real
            p = k00 + k11
            if math.isfinite(p):
                return p, (k00, _sandwich(r, a1, b1, a0, b0), k11)
    except (ValueError, OverflowError):  # cmath.exp of a phase beyond the float range
        pass
    raise ContractViolationError("WvaSetup: the kernel output overflows the float range")


def _collapsed_state(p: float, k: tuple) -> DensityMatrix:
    """The collapsed meter state K / p of :func:`_evaluate`'s (k00, k10, k11), for p > 0.

    Bit for bit ``DensityMatrix(K / p)`` of the 2x2 array K, with no array in
    between. Each entry is :func:`~wva_costlab.states._scaled`'s quotient of
    (k00, conj(k10), k10, k11) by p, numpy's divide rule, written out here to
    save the call and its tuple on every probe; a test holds the two to the
    same bytes. The entry above the diagonal is conj(k10) =
    (re, -im), and a diagonal entry's imaginary part is 0.0. The public
    constructor reads these rows of Python complexes without numpy and runs
    every check on them.
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

    p and K = V rho_s V^dag come from the setup's kernel output (:func:`_evaluate`), and
    :func:`_meter_core` on the basis kets gives the columns of V and dV,
    so dK = dV rho_s V^dag + h.c. With r the Bloch vector of K / p, F_m is
    |dr|^2 + (r.dr)^2 / (1 - |r|^2) (Zhong et al., PRA 87, 022337 (2013)). By Cauchy-Binet,
    |det V| = |E| with E = 2 |det(P_0 sf, P_1 sf) det(Q_0 phi, Q_1 phi)| sin(g d / 2) and
    d = (a_0 - a_1)(m_0 - m_1), or E = 0 for a degenerate A or M, so 1 - |r|^2 =
    4 det rho_s E^2 / p^2 and the second term is 4 det rho_s (dE - E dp/p)^2 / p^2: no 1/gap,
    no rank cutoff, and continuous at E = 0 (K pure, as at g = 0), where the rank-1 state's
    SLD QFI is |dr|^2 alone (Safranek, PRA 95, 052320 (2017)). Needs p > 0.
    """
    f, x, g = setup.psi_sf._amps, setup.phi_mi._amps, setup.g
    a_split, m_split = setup.A._split, setup.M._split
    a0, a1, da0, da1 = _meter_core((1.0, 0.0), f, x, a_split, m_split, g)
    b0, b1, db0, db1 = _meter_core((0.0, 1.0), f, x, a_split, m_split, g)
    p, (k00, k10, k11) = setup._out
    r = setup.psi_si._flat
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
    dp = d00 + d11
    bloch = (2.0 * k10.real / p, 2.0 * k10.imag / p, (k00 - k11) / p)
    dr = [(s - c * dp) / p for s, c in zip((2 * d10.real, 2 * d10.imag, d00 - d11), bloch)]
    det_rho = r[0].real * r[3].real - _abs_sq(r[2])
    return sum(d * d for d in dr) + 4.0 * det_rho * _abs_sq(de - e * dp / p) / (p * p)


@dataclass(frozen=True)
class WvaSetup:
    """Pre/postselection pair, meter state, coupling observables and strength.

    ``psi_si`` may be a ket (the usual coherent preparation) or any qubit
    density matrix: incoherent, partially coherent or maximally mixed;
    ``psi_sf`` and ``phi_mi`` are kets and ``A`` and ``M`` Hermitian
    operators, and a field of another type raises ContractViolationError.
    The meter must sit at the balance zero point, <M> = 0, with a positive
    second moment Omega = <M^2>. The coupling strength must be a finite real.

    These checks run once, here. <M> and ``omega`` = ||M phi||^2 come from a
    slot on ``M`` that keeps the last ``phi_mi`` object, so setups sharing
    both objects compute them once. For a density-matrix input the constructor
    then keeps the kernel's g-independent factors ``_factors``
    (:func:`_meter_factors`). It keeps the kernel output ``_out``
    (:func:`_evaluate`) and, for a density-matrix input whose p clears P_FLOOR,
    the collapsed meter state ``_collapsed``; a ket input's is formed where it
    is read. None of these takes part in equality, hashing or the repr;
    :meth:`at` and ``dataclasses.replace`` build a fresh instance.
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
        ket = isinstance(self.psi_si, Ket)
        if not ket:
            object.__setattr__(self, "_factors", _meter_factors(
                self.psi_sf._amps, self.phi_mi._amps, self.A._split, self.M._split))
        out = _evaluate(self, self.g)
        object.__setattr__(self, "_out", out)
        if not ket and out[0] >= P_FLOOR:
            object.__setattr__(self, "_collapsed", _collapsed_state(*out))

    def at(self, g: float) -> "WvaSetup":
        """Copy of this setup with a different coupling strength."""
        return dataclasses.replace(self, g=g)


@dataclass(frozen=True, eq=False, repr=False)
class PostselectionResult:
    """Success probability, collapsed meter ket and weak value of one postselection.

    ``a_w`` is None when pre- and postselection are orthogonal beyond the
    overlap floor (the weak value is undefined there, although the exact
    postselection itself may still succeed at finite coupling).

    Only ``p`` is taken at construction. ``phi_mf`` and ``a_w`` are formed
    from the setup when read, so a caller that reads neither pays for neither.
    Equality and the repr are by value over (p, phi_mf, a_w), as for a
    dataclass of those three fields; like a :class:`Ket`, a result is
    unhashable.
    """

    p: float
    _setup: WvaSetup

    @property
    def phi_mf(self) -> Ket:
        """Normalized collapsed meter ket v / sqrt(p)."""
        return Ket(self._setup._out[1][:2])

    @property
    def a_w(self) -> Optional[complex]:
        """Weak value <sf|A|si> / <sf|si>, or None below the overlap floor."""
        setup = self._setup
        try:
            return weak_value(setup.psi_si, setup.psi_sf, setup.A)
        except OrthogonalPostselectionError:
            return None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.phi_mf, self.a_w) == (other.p, other.phi_mf, other.a_w)

    def __repr__(self) -> str:
        return f"PostselectionResult(p={self.p!r}, phi_mf={self.phi_mf!r}, a_w={self.a_w!r})"


def _overlap(psi_si: Ket, psi_sf: Ket) -> complex:
    """<sf|si>, the weak value's denominator; orthogonal beyond OVERLAP_FLOOR raises."""
    denom = psi_sf.inner(psi_si)
    if abs(denom) < OVERLAP_FLOOR:
        raise OrthogonalPostselectionError("weak_value: pre- and postselection are orthogonal")
    return denom


def weak_value(psi_si: Ket, psi_sf: Ket, A: HermitianOperator) -> complex:
    """Weak value <sf|A|si> / <sf|si> of the system observable.

    psi_si and psi_sf must be kets and A an observable of their dimension. The
    numerator is taken in Python scalars (``HermitianOperator._between``). A
    numerator or weak value beyond the float range raises ContractViolationError.
    """
    if not (isinstance(psi_si, Ket) and isinstance(psi_sf, Ket)
            and isinstance(A, HermitianOperator)):
        raise ContractViolationError(
            "weak_value: psi_si and psi_sf must be Kets, A a HermitianOperator"
        )
    denom = _overlap(psi_si, psi_sf)
    if A.dim != psi_si.dim:
        raise ModelDimensionError("weak_value: dimension mismatch")
    return _in_range(A._between(psi_sf, psi_si) / denom, "weak_value", "A_w")


def _ket_input(setup: WvaSetup, where: str) -> bool:
    """Whether a setup's system input is a ket; a non-setup raises. Setup functions enter here."""
    if not isinstance(setup, WvaSetup):
        raise ContractViolationError(f"{where}: setup must be a WvaSetup")
    return isinstance(setup.psi_si, Ket)


def _kernel(setup: WvaSetup, where: str, pure: bool = False, g: Optional[float] = None) -> tuple:
    """Kernel output of a ket or (unless ``pure``) density-matrix input; checks run every call.

    Without ``g`` this is the setup's ``_out``. With ``g`` the kernel runs
    afresh at that coupling behind the finite-g check of ``setup.at(g)``, and
    no :class:`WvaSetup` is built: the setup's other fields were checked when
    it was built and do not depend on g. ``postselect_mixed`` names a ket
    input's errors after ``postselect``.
    """
    ket = _ket_input(setup, where)
    if ket and where == "postselect_mixed":
        where = "postselect"
    if g is not None:
        finite_real(g, "WvaSetup", "coupling strength g")
    if pure and not ket:
        raise UnsupportedInputError(f"{where}: mixed system input; use postselect_mixed")
    out = setup._out if g is None else _evaluate(setup, g)
    if out[0] < P_FLOOR:
        raise VanishingPostselectionError(
            f"{where}: success probability {out[0]:.3e} below floor {P_FLOOR:g}"
        )
    return out


def _meter_state(setup: WvaSetup, out: tuple) -> DensityMatrix:
    """Collapsed meter state of kernel output ``out`` past P_FLOOR; ``_collapsed`` for ``_out``."""
    if isinstance(setup.psi_si, Ket):
        return DensityMatrix.from_ket(Ket(out[1][:2]))
    return setup._collapsed if out is setup._out else _collapsed_state(*out)


def _own_coupling(setup: WvaSetup, g: float) -> bool:
    """Whether a probe at g may read the setup's kernel output: g is setup.g, sign included.

    NaN never is, and -0.0 against 0.0 is not: the kernel's phases keep the sign of a zero.
    """
    return g == setup.g and math.copysign(1.0, g) == math.copysign(1.0, setup.g)


def _abs_sq(z: complex) -> float:
    """``abs(z) ** 2``, or inf where Python raises OverflowError instead."""
    try:
        return abs(z) ** 2
    except OverflowError:
        return math.inf


def _in_range(value, where: str, what: str):
    """A real or complex ``value`` if it is finite; else raise ContractViolationError."""
    if not cmath.isfinite(value):
        raise ContractViolationError(f"{where}: {what} overflows the float range")
    return value


def _weighted_qfi(p: float, v0: complex, v1: complex, d0: complex, d1: complex) -> float:
    """p * F_m = 4 (<dv|dv> - |<v|dv>|^2 / p) of the unnormalized qubit meter vector v, dv.

    Evaluated as 4 |v0 dv1 - v1 dv0|^2 / p, equal by Lagrange's identity, which is
    non-negative by construction; the difference of the two terms cancels to garbage
    near orthogonal postselection, where v and dv are nearly parallel.
    """
    return 4.0 * _abs_sq(v0 * d1 - v1 * d0) / p


def postselect(setup: WvaSetup) -> PostselectionResult:
    """Exact postselection of a pure system input.

    Projects the evolved system onto the postselection state and returns the
    success probability together with the normalized collapsed meter state
    and the weak value, which the result forms when read. No
    small-coupling approximation is used.
    """
    return PostselectionResult(_kernel(setup, "postselect", pure=True)[0], setup)


def postselect_mixed(setup: WvaSetup) -> tuple[float, DensityMatrix]:
    """Exact postselection of any system input: (p, collapsed meter state).

    A density matrix gives (Tr K, K / Tr K) from K = V rho_s V^dag. Its state
    is the setup's collapsed state, the same object on every call; a ket
    input's |v><v| / p is formed afresh on each call.
    """
    out = _kernel(setup, "postselect_mixed")
    return out[0], _meter_state(setup, out)


def postselected_meter_family(setup: WvaSetup) -> MixedFamily:
    """Map g -> postselected meter density matrix (mixed system inputs allowed).

    A probe runs the kernel once at g, for a density matrix the value-only phase
    pass over the setup's factors, and equals ``postselect_mixed(setup.at(g))[1]`` bit for
    bit, errors included. At the setup's own coupling it runs the checks and
    reads the setup's kernel output, as :func:`postselect_mixed` does.
    """
    _ket_input(setup, "postselected_meter_family")

    def family(g: float) -> DensityMatrix:
        own = _own_coupling(setup, g)
        return _meter_state(setup, _kernel(setup, "postselect_mixed", g=None if own else g))

    return family


def fm_exact(setup: WvaSetup) -> float:
    """Exact QFI of the collapsed meter state at the setup's coupling strength.

    F_m = 4 |v0 dv1 - v1 dv0|^2 / p^2 from the kernel's closed-form dv, or
    for a density-matrix input the Bloch form of ``_meter_qfi``. An F_m beyond
    the float range raises ContractViolationError.
    """
    out = _kernel(setup, "fm_exact")
    if isinstance(setup.psi_si, Ket):
        return _in_range(_weighted_qfi(out[0], *out[1]) / out[0], "fm_exact", "F_m")
    return _in_range(_meter_qfi(setup), "fm_exact", "F_m")


def fm_leading(omega: float, a_w: complex) -> float:
    """Leading-order collapsed-state QFI, 4 * Omega * |A_w|^2, which must be finite.

    ``omega`` goes through :func:`finite_real`; an ``a_w`` that is not a
    ``numbers.Complex``, or is a bool, raises ContractViolationError.
    """
    omega = finite_real(omega, "fm_leading", "omega")
    if isinstance(a_w, bool) or not isinstance(a_w, numbers.Complex):
        raise ContractViolationError("fm_leading: a_w must be a number")
    try:  # in Python scalars, so a numpy input cannot warn on overflow
        a_w = complex(a_w)
    except OverflowError:  # an integer beyond the float range
        a_w = complex(math.inf)
    if not (0.0 < omega and cmath.isfinite(a_w)):
        raise ContractViolationError("fm_leading: omega must be positive and finite, a_w finite")
    return _in_range(4.0 * omega * _abs_sq(a_w), "fm_leading", "4 Omega |A_w|^2")


def probabilistic_qfi(setup: WvaSetup) -> tuple[float, float]:
    """Success-weighted QFI of the collapsed meter, exact and leading order.

    Returns (p * F_m, 4 * Omega * |<sf|A|si>|^2), the exact value as
    4 |v0 dv1 - v1 dv0|^2 / p from the setup's kernel output. It can
    approach but never exceed the conventional-scheme QFI. Either value beyond
    the float range raises ContractViolationError.
    """
    p, core = _kernel(setup, "probabilistic_qfi", pure=True)
    exact = _in_range(_weighted_qfi(p, *core), "probabilistic_qfi", "p F_m")
    leading = 4.0 * setup.omega * _abs_sq(setup.A._between(setup.psi_sf, setup.psi_si))
    return exact, _in_range(leading, "probabilistic_qfi", "4 Omega |<sf|A|si>|^2")


def optimal_postselection(psi_si: Ket, A: HermitianOperator) -> Ket:
    """Postselection state A|si> / sqrt(<A^2>) that maximizes the weighted QFI."""
    if not (isinstance(psi_si, Ket) and isinstance(A, HermitianOperator)):
        raise ContractViolationError(
            "optimal_postselection: psi_si must be a Ket, A a HermitianOperator"
        )
    import numpy as np

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
    if not (isinstance(psi_si, Ket) and isinstance(A, HermitianOperator)):
        raise ContractViolationError(
            "near_orthogonal_postselection: psi_si must be a Ket, A a HermitianOperator"
        )
    finite_real(epsilon, "near_orthogonal_postselection", "epsilon")
    if epsilon == 0:
        raise OrthogonalPostselectionError(
            "near_orthogonal_postselection: epsilon = 0 makes the weak value undefined"
        )
    if not (0.0 < epsilon <= 0.2):
        raise ContractViolationError(
            "near_orthogonal_postselection: epsilon out of range (0, 0.2]"
        )
    import numpy as np

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
    if not _ket_input(setup, "weak_regime_margin"):
        raise UnsupportedInputError("weak_regime_margin: needs a pure system input")
    a_w = weak_value(setup.psi_si, setup.psi_sf, setup.A)
    value = abs(float(setup.g)) * abs(a_w) * setup.omega  # in Python floats: no numpy warning
    return _in_range(value, "weak_regime_margin", "g |A_w| Omega")


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
