"""Exact complex linear algebra for the qubit-system / qubit-meter model.

Provides normalized state vectors, Hermitian observables, unitaries, density
matrices, Bloch-sphere geometry, a small deterministic Hermitian eigensolver
and the exact postselection kernel of the coupling exp(-i g A (x) M). Only
dimensions 2 (single qubit) and 4 (system plus meter) are supported; the
product space is ordered system-major, meter-minor.

The coupling, the kernel and the qubit density-matrix check never call
LAPACK: a qubit observable H = h0 I + K splits in closed form into
eigenvalues h0 +- |K| with projectors (I +- K/|K|)/2, evaluated in Python
complex scalars and cached on the observable, so each observable is split
once. LAPACK serves only :func:`hermitian_eigs` and the 4x4 positivity
check. The matrix types store a read-only complex copy of their input, read
it once with ``tolist()`` and check finiteness, Hermiticity and trace in
Python scalars. Kets and matrices compare by value (equal stored arrays) and
stay unhashable. The standard basis, its observable and the balanced meter
kets are built once, as module constants, and :meth:`ReferenceBasis.sigma`
builds its observable once per basis. The kernel's arithmetic lives in
``_meter_core``, over plain amplitude pairs, so the standard-basis readout
of :mod:`~wva_costlab.experiment` runs it without building kets, and
``_meter_operator`` runs it on the basis kets for a density-matrix input.
:func:`check_theta` holds the preparation-angle domain (0, pi/4] that the
scenario constructors and the CLI share.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (
    ContractViolationError,
    ModelDimensionError,
    NumericalFailureError,
)

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
BLOCH_UNIT_TOL = 1e-10

_VALID_DIMS = (2, 4)


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


def _check_dim(dim: int, where: str) -> None:
    if dim not in _VALID_DIMS:
        raise ModelDimensionError(
            f"{where}: dimension {dim} outside the 2-qubit model (expected 2 or 4)"
        )


# Flat row-major index pairs (ij, ji) of the upper triangle, diagonal included.
_UPPER = {n: [(n * i + j, n * j + i) for i in range(n) for j in range(i, n)] for n in _VALID_DIMS}
# A qubit projector, row-major (P00, P01, P10, P11).
_Projector = tuple[complex, complex, complex, complex]


def _square_entries(
    entries, where: str, hermitian: bool = True
) -> tuple[np.ndarray, list[complex]]:
    """Read-only complex square matrix of a model dimension, checked in Python scalars.

    The matrix is read once, row-major, with ``tolist()``. Every entry must be
    finite; with ``hermitian`` each |H_ij - conj(H_ji)| must also stay within
    HERMITIAN_TOL. Returns the array to store and its flat entries.
    """
    mat = _readonly(entries)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ContractViolationError(f"{where}: entries must be square")
    _check_dim(mat.shape[0], where)
    flat = mat.ravel().tolist()
    if not all(map(cmath.isfinite, flat)):
        raise ContractViolationError(f"{where}: entries must be finite")
    if hermitian:
        try:
            skew = max([abs(flat[ij] - flat[ji].conjugate()) for ij, ji in _UPPER[mat.shape[0]]])
        except OverflowError:  # |z| beyond the float range, where numpy gives inf
            skew = math.inf
        if skew > HERMITIAN_TOL:
            raise ContractViolationError(f"{where}: entries are not Hermitian")
    return mat, flat


def _qubit_parts(flat: list[complex]) -> tuple[float, float, complex, float]:
    """(h0, kz, h10, r) of a qubit H = h0 I + K: eigenvalues h0 +- r, h10 below the diagonal."""
    h00, _, h10, h11 = flat
    kz = 0.5 * (h00.real - h11.real)
    return 0.5 * (h00.real + h11.real), kz, h10, math.hypot(kz, h10.real, h10.imag)


class _ArrayValue:
    """Value equality for the frozen types that hold one read-only array.

    Two instances of one class are equal when their stored arrays are equal
    entry by entry. Like the arrays, the instances are unhashable: defining
    ``__eq__`` sets ``__hash__`` to None.
    """

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        name = dataclasses.fields(self)[0].name
        return bool(np.array_equal(getattr(self, name), getattr(other, name)))


@dataclass(frozen=True, eq=False)
class Ket(_ArrayValue):
    """Unit-norm complex state vector of dimension 2 or 4.

    The constructor normalizes its input; a vector of near-zero or non-finite
    norm is rejected. Amplitudes are stored read-only.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        _check_dim(vec.size, "Ket")
        norm = float(np.linalg.norm(vec))
        if not np.isfinite(norm):
            raise ContractViolationError("Ket: amplitudes must be finite")
        if norm < 1e-12:
            raise ContractViolationError("Ket: cannot normalize a null vector")
        object.__setattr__(self, "amplitudes", _readonly(vec / norm))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def inner(self, other: "Ket") -> complex:
        """Return the inner product <self|other>."""
        if self.dim != other.dim:
            raise ModelDimensionError("inner: dimension mismatch")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True, eq=False)
class HermitianOperator(_ArrayValue):
    """Hermitian observable on a 2- or 4-dimensional space with finite entries.

    A qubit observable's closed-form spectral split is derived at most once,
    on first use, and takes no part in equality or the repr.
    """

    entries: np.ndarray

    def __post_init__(self):
        mat, _ = _square_entries(self.entries, "HermitianOperator")
        object.__setattr__(self, "entries", mat)

    @functools.cached_property
    def _split(self) -> tuple[tuple[float, _Projector], ...]:
        """Closed-form spectral split of a qubit observable, in Python scalars.

        With H = h0 I + K and K traceless, the eigenvalues are h0 +- r with
        r = |K| and the projectors are (I +- K/r)/2, returned row-major as
        (P00, P01, P10, P11). When r = 0 the single projector I carries both
        eigenvalues. The off-diagonal is read from the lower triangle.
        """
        h0, kz, h10, r = _qubit_parts(self.entries.ravel().tolist())
        if r == 0.0:
            return ((h0, (1.0, 0j, 0j, 1.0)),)
        z, c = kz / r, h10 / r
        up = 0.5 * c.conjugate()
        return (
            (h0 + r, (0.5 * (1.0 + z), up, 0.5 * c, 0.5 * (1.0 - z))),
            (h0 - r, (0.5 * (1.0 - z), -up, -0.5 * c, 0.5 * (1.0 + z))),
        )

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def apply(self, psi: Ket) -> np.ndarray:
        """Return the raw (unnormalized) vector of the operator acting on a ket."""
        if self.dim != psi.dim:
            raise ModelDimensionError("apply: dimension mismatch")
        return self.entries @ psi.amplitudes

    def expectation(self, state: Union[Ket, "DensityMatrix"]) -> float:
        if isinstance(state, Ket):
            val = np.vdot(state.amplitudes, self.entries @ state.amplitudes)
        else:
            val = np.trace(state.entries @ self.entries)
        return float(np.real(val))


@dataclass(frozen=True, eq=False)
class UnitaryOperator(_ArrayValue):
    """Unitary matrix on a 2- or 4-dimensional space (U U† = I within 1e-10)."""

    entries: np.ndarray

    def __post_init__(self):
        mat, _ = _square_entries(self.entries, "UnitaryOperator", hermitian=False)
        ident = np.eye(mat.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):
            residual = np.max(np.abs(mat @ mat.conj().T - ident))
        if not residual <= UNITARY_TOL:  # a U U† that overflows holds NaN: reject it too
            raise ContractViolationError("UnitaryOperator: entries are not unitary")
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def apply(self, psi: Ket) -> Ket:
        if self.dim != psi.dim:
            raise ModelDimensionError("apply: dimension mismatch")
        return Ket(self.entries @ psi.amplitudes)


@dataclass(frozen=True, eq=False)
class DensityMatrix(_ArrayValue):
    """Positive unit-trace Hermitian matrix describing a (possibly mixed) state.

    Non-finite entries are rejected before the (for a qubit, closed-form) eigenvalue check.
    """

    entries: np.ndarray

    def __post_init__(self):
        mat, flat = _square_entries(self.entries, "DensityMatrix")
        # np.trace's summation order, so the accept/reject line is numpy's too
        if len(flat) == 4:
            trace = flat[0] + flat[3]
        else:
            trace = (flat[0] + flat[5]) + (flat[10] + flat[15])
        if abs(trace.real - 1.0) > 1e-12 or abs(trace.imag) > 1e-12:
            raise ContractViolationError("DensityMatrix: trace must be 1")
        if len(flat) == 4:
            h0, _, _, r = _qubit_parts(flat)
            lowest = h0 - r
        else:
            lowest = np.min(np.linalg.eigvalsh(mat))
        if lowest < EIGENVALUE_FLOOR:
            raise ContractViolationError("DensityMatrix: negative eigenvalue")
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_ket(cls, psi: Ket) -> "DensityMatrix":
        return cls(psi.projector())

    @classmethod
    def mixture(cls, weights: Sequence[float], kets: Sequence[Ket]) -> "DensityMatrix":
        """Return the convex mixture sum_k w_k |k><k| (weights must sum to 1)."""
        w = np.asarray(weights, dtype=float)
        if w.size != len(kets) or w.size == 0:
            raise ContractViolationError("mixture: weights and kets must match")
        if np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-12:
            raise ContractViolationError("mixture: weights must be a distribution")
        mat = sum(wk * k.projector() for wk, k in zip(w, kets))
        return cls(mat)


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector r with rho = (I + r.sigma)/2; norm 1 for pure states."""

    r1: float
    r2: float
    r3: float

    def __post_init__(self):
        if self.norm() > 1.0 + 1e-12:
            raise ContractViolationError("BlochVector: norm exceeds 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.r1, self.r2, self.r3], dtype=float)

    def norm(self) -> float:
        return float(np.sqrt(self.r1**2 + self.r2**2 + self.r3**2))


@dataclass(frozen=True)
class ReferenceBasis:
    """Orthonormal qubit basis, the +1/-1 eigenstates of the system observable."""

    ket0: Ket
    ket1: Ket

    def __post_init__(self):
        if self.ket0.dim != 2 or self.ket1.dim != 2:
            raise ModelDimensionError("ReferenceBasis: kets must be qubits")
        if abs(self.ket0.inner(self.ket1)) > 1e-12:
            raise ContractViolationError("ReferenceBasis: kets are not orthogonal")

    @classmethod
    def standard(cls) -> "ReferenceBasis":
        """The shared computational basis (|0>, |1>), :data:`STANDARD_BASIS`."""
        return STANDARD_BASIS

    def superposition(self, angle: float) -> Ket:
        """Return cos(angle)*ket0 + sin(angle)*ket1 for a finite angle."""
        if not math.isfinite(angle):
            raise ContractViolationError("superposition: angle must be finite")
        vec = np.cos(angle) * self.ket0.amplitudes + np.sin(angle) * self.ket1.amplitudes
        return Ket(vec)

    def sigma(self) -> HermitianOperator:
        """The observable with eigenvalue +1 on ket0 and -1 on ket1, built once per basis."""
        return self._sigma

    @functools.cached_property
    def _sigma(self) -> HermitianOperator:
        return HermitianOperator(self.ket0.projector() - self.ket1.projector())


# Built once; every field is a frozen dataclass over a read-only array.
STANDARD_BASIS = ReferenceBasis(Ket(np.array([1.0, 0.0])), Ket(np.array([0.0, 1.0])))
STANDARD_SIGMA = STANDARD_BASIS.sigma()
# The balanced meter |+> = (|0> + |1>)/sqrt(2) and its partner |->.
METER_PLUS = STANDARD_BASIS.superposition(np.pi / 4.0)
METER_MINUS = STANDARD_BASIS.superposition(-np.pi / 4.0)


def check_theta(theta: float, where: str) -> float:
    """Return a preparation angle that lies in the documented domain (0, pi/4].

    The scenario's preparation is cos(theta)|0> + sin(theta)|1>, whose
    coherence sin(2 theta) covers [0, 1] once on this interval. Anything
    else, NaN included, raises ``ContractViolationError("<where> must lie in
    (0, pi/4]")``.
    """
    if not (0.0 < theta <= np.pi / 4.0 + 1e-12):
        raise ContractViolationError(f"{where} must lie in (0, pi/4]")
    return theta


KetOrOperator = Union[Ket, HermitianOperator]


def tensor(a: KetOrOperator, b: KetOrOperator) -> KetOrOperator:
    """Kronecker product of two qubit kets or two qubit observables.

    The composite index is ordered system-major, meter-minor: basis state
    (i, j) of the factors maps to index 2*i + j of the product.
    """
    if isinstance(a, Ket) and isinstance(b, Ket):
        if a.dim != 2 or b.dim != 2:
            raise ModelDimensionError("tensor: both kets must be qubits")
        return Ket(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, HermitianOperator) and isinstance(b, HermitianOperator):
        if a.dim != 2 or b.dim != 2:
            raise ModelDimensionError("tensor: both operators must act on qubits")
        return HermitianOperator(np.kron(a.entries, b.entries))
    raise ContractViolationError("tensor: operands must be two kets or two observables")


def _phase_fixed(vec: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the first non-negligible amplitude is real-positive."""
    for v in vec:
        if abs(v) > 1e-12:
            return vec * (v.conjugate() / abs(v))
    return vec


def hermitian_eigs(H: HermitianOperator) -> tuple[np.ndarray, list[Ket]]:
    """Eigendecomposition of a Hermitian operator with deterministic ordering.

    Returns eigenvalues in descending order together with orthonormal
    eigenvector kets. Each vector carries the global-phase convention of a
    real-positive first nonzero amplitude; degenerate eigenvalues are ordered
    lexicographically by (real, imag) of the phase-fixed amplitudes.
    """
    if not isinstance(H, HermitianOperator):
        H = HermitianOperator(np.asarray(H, dtype=complex))
    try:
        vals, vecs = np.linalg.eigh(H.entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalFailureError(f"hermitian_eigs: eigensolver failed: {exc}") from exc

    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    columns = [_phase_fixed(vecs[:, k]) for k in order]

    # Deterministic order inside (near-)degenerate runs.
    def lex_key(v: np.ndarray):
        return tuple(x for c in v for x in (round(c.real, 10), round(c.imag, 10)))

    i = 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and abs(vals[j] - vals[i]) <= 1e-9 * max(1.0, abs(vals[i])):
            j += 1
        if j - i > 1:
            block = sorted(columns[i:j], key=lex_key, reverse=True)
            columns[i:j] = block
        i = j

    return vals.astype(float), [Ket(c) for c in columns]


def _qubit_observables(A, M, where: str) -> tuple[HermitianOperator, HermitianOperator]:
    if not isinstance(A, HermitianOperator):
        A = HermitianOperator(np.asarray(A, dtype=complex))
    if not isinstance(M, HermitianOperator):
        M = HermitianOperator(np.asarray(M, dtype=complex))
    if A.dim != 2 or M.dim != 2:
        raise ModelDimensionError(f"{where}: A and M must act on qubits")
    return A, M


def coupling_unitary(A: HermitianOperator, M: HermitianOperator, g: float) -> UnitaryOperator:
    """Return exp(-i g A (x) M) for qubit observables A and M.

    With A = sum_i a_i P_i and M = sum_j m_j Q_j from the cached closed-form split,
    U = sum_ij exp(-i g a_i m_j) P_i (x) Q_j. Degenerate spectra contribute
    a single projector and need no special handling.
    """
    A, M = _qubit_observables(A, M, "coupling_unitary")
    u = np.zeros((4, 4), dtype=complex)
    for a, P in A._split:
        for m, Q in M._split:
            u += cmath.exp(-1j * g * (a * m)) * np.kron(
                np.reshape(P, (2, 2)), np.reshape(Q, (2, 2))
            )
    return UnitaryOperator(u)


def _meter_core(s, f, x, a_split, m_split, g: float) -> tuple[complex, complex, complex, complex]:
    """Postselected meter vector and its g-derivative, in Python scalars.

    ``s``, ``f`` and ``x`` are the amplitude pairs of the preparation, the
    postselection and the meter state; ``a_split`` and ``m_split`` are the
    cached spectral splits ``HermitianOperator._split`` of A and M. Returns (v0, v1, dv0, dv1).
    Inputs are not validated; :func:`postselected_meter` is the checked entry.
    """
    s0, s1 = s
    f0, f1 = (c.conjugate() for c in f)
    x0, x1 = x
    # (a_i, <sf|P_i|si>)
    sys_terms = [
        (a, f0 * (p00 * s0 + p01 * s1) + f1 * (p10 * s0 + p11 * s1))
        for a, (p00, p01, p10, p11) in a_split
    ]
    v0 = v1 = d0 = d1 = 0j
    for m, (q00, q01, q10, q11) in m_split:
        w = dw = 0j
        for a, amp in sys_terms:
            generator = a * m
            phase = cmath.exp(-1j * g * generator)
            w += amp * phase
            dw += amp * (-1j * generator * phase)
        y0 = q00 * x0 + q01 * x1  # Q_j|phi>
        y1 = q10 * x0 + q11 * x1
        v0 += w * y0
        v1 += w * y1
        d0 += dw * y0
        d1 += dw * y1
    return v0, v1, d0, d1


def postselected_meter(
    psi_si: Ket,
    psi_sf: Ket,
    phi_mi: Ket,
    A: HermitianOperator,
    M: HermitianOperator,
    g: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact postselected meter vector and its derivative in the coupling.

    Returns (p, v, dv): the unnormalized meter vector v = <sf|U(g)|si>|phi>
    left by projecting the evolved system on ``psi_sf``, its exact derivative
    dv = dv/dg, and the postselection probability p = <v|v>. The coupling
    factorizes over the closed-form spectral splits A = sum_i a_i P_i and
    M = sum_j m_j Q_j (see ``HermitianOperator._split``), so

        v = sum_j w_j Q_j|phi>,  w_j = sum_i <sf|P_i|si> exp(-i g a_i m_j),

    and dv takes the factor -i a_i m_j into each term. Everything is
    evaluated in Python complex scalars (:func:`_meter_core`); no eigensolver
    is called, and a degenerate A or M contributes its single projector I.
    """
    if psi_si.dim != 2 or psi_sf.dim != 2 or phi_mi.dim != 2:
        raise ModelDimensionError("postselected_meter: system and meter must be qubits")
    A, M = _qubit_observables(A, M, "postselected_meter")
    v0, v1, d0, d1 = _meter_core(
        psi_si.amplitudes.tolist(),
        psi_sf.amplitudes.tolist(),
        phi_mi.amplitudes.tolist(),
        A._split,
        M._split,
        g,
    )
    v = np.array([v0, v1])
    return float(np.real(np.vdot(v, v))), v, np.array([d0, d1])


def _meter_operator(rho_s, psi_sf, phi_mi, A, M, g: float):
    """(p, K, dK, det K) of a density-matrix input: K = V rho_s V^dag, dK/dg, p = Tr K.

    :func:`_meter_core` on the basis kets gives the columns of V = <sf|U(g)|.>|phi>
    and dV; det K = |det V|^2 det rho_s stays accurate where K is nearly pure.
    """
    f, x = psi_sf.amplitudes.tolist(), phi_mi.amplitudes.tolist()
    a_split, m_split = A._split, M._split
    a0, a1, da0, da1 = _meter_core((1.0, 0.0), f, x, a_split, m_split, g)
    b0, b1, db0, db1 = _meter_core((0.0, 1.0), f, x, a_split, m_split, g)
    (r00, r01), (r10, r11) = rho_s.entries.tolist()

    def form(u0, u1, w0, w1):  # u rho_s w^dag for rows u, w of V or dV
        return (u0 * r00 + u1 * r10) * w0.conjugate() + (u0 * r01 + u1 * r11) * w1.conjugate()

    k00, k11, k10 = form(a0, b0, a0, b0).real, form(a1, b1, a1, b1).real, form(a1, b1, a0, b0)
    d00, d11 = 2.0 * form(da0, db0, a0, b0).real, 2.0 * form(da1, db1, a1, b1).real
    d10 = form(da1, db1, a0, b0) + form(da0, db0, a1, b1).conjugate()
    det_k = abs(a0 * b1 - b0 * a1) ** 2 * (r00.real * r11.real - abs(r10) ** 2)
    K = np.array([[k00, k10.conjugate()], [k10, k11]])
    return k00 + k11, K, np.array([[d00, d10.conjugate()], [d10, d11]]), det_k


def bloch_of(psi: Ket, basis: ReferenceBasis) -> BlochVector:
    """Bloch vector of a qubit ket, with the third axis along the basis observable."""
    if psi.dim != 2:
        raise ModelDimensionError("bloch_of: ket must be a qubit")
    c0 = basis.ket0.inner(psi)
    c1 = basis.ket1.inner(psi)
    z = c0.conjugate() * c1
    return BlochVector(2.0 * z.real, 2.0 * z.imag, abs(c0) ** 2 - abs(c1) ** 2)


def ket_from_bloch(r: BlochVector, basis: ReferenceBasis) -> Ket:
    """Rebuild a pure qubit ket from a unit Bloch vector (inverse of bloch_of)."""
    if abs(r.norm() - 1.0) > BLOCH_UNIT_TOL:
        raise ContractViolationError("ket_from_bloch: Bloch vector must be unit norm")
    polar = np.arccos(np.clip(r.r3, -1.0, 1.0))
    azimuth = np.arctan2(r.r2, r.r1)
    vec = (
        np.cos(polar / 2.0) * basis.ket0.amplitudes
        + np.exp(1j * azimuth) * np.sin(polar / 2.0) * basis.ket1.amplitudes
    )
    return Ket(vec)


def overlap_sq(a: Ket, b: Ket) -> float:
    """Squared overlap |<a|b>|^2, clamped into [0, 1]."""
    if a.dim != b.dim:
        raise ModelDimensionError("overlap_sq: dimension mismatch")
    return float(np.clip(abs(a.inner(b)) ** 2, 0.0, 1.0))


def bloch_angle(ra: BlochVector, rb: BlochVector) -> float:
    """Angle between two unit Bloch vectors, arccos of the clamped dot product."""
    for r in (ra, rb):
        if abs(r.norm() - 1.0) > BLOCH_UNIT_TOL:
            raise ContractViolationError("bloch_angle: vectors must be unit norm")
    dot = float(np.dot(ra.as_array(), rb.as_array()))
    return float(np.arccos(np.clip(dot, -1.0, 1.0)))
