"""Exact complex linear algebra for the qubit-system / qubit-meter model.

Provides normalized state vectors, Hermitian observables, unitaries, density
matrices, Bloch-sphere geometry, a small deterministic Hermitian eigensolver
and the exact postselection kernel of the coupling exp(-i g A (x) M). Only
dimensions 2 (single qubit) and 4 (system plus meter) are supported; the
product space is ordered system-major, meter-minor.

The coupling and the kernel never call LAPACK: a qubit observable
H = h0 I + K splits in closed form into eigenvalues h0 +- |K| with projectors
(I +- K/|K|)/2, evaluated in Python complex scalars. The LAPACK wrapper
``_eigh`` serves only :func:`hermitian_eigs`. The standard basis, its
observable and the balanced meter kets are built once, as read-only module
constants.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (
    ContractViolationError,
    ModelDimensionError,
    NumericalFailureError,
)

NORM_TOL = 1e-12
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


def _square_entries(entries, where: str) -> np.ndarray:
    """Complex square matrix of a model dimension with finite entries."""
    mat = np.asarray(entries, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ContractViolationError(f"{where}: entries must be square")
    _check_dim(mat.shape[0], where)
    if not np.isfinite(mat).all():
        raise ContractViolationError(f"{where}: entries must be finite")
    return mat


@dataclass(frozen=True)
class Ket:
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


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian observable on a 2- or 4-dimensional space with finite entries."""

    entries: np.ndarray

    def __post_init__(self):
        mat = _square_entries(self.entries, "HermitianOperator")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITIAN_TOL:
            raise ContractViolationError("HermitianOperator: entries are not Hermitian")
        object.__setattr__(self, "entries", _readonly(mat))

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


@dataclass(frozen=True)
class UnitaryOperator:
    """Unitary matrix on a 2- or 4-dimensional space (U U† = I within 1e-10)."""

    entries: np.ndarray

    def __post_init__(self):
        mat = _square_entries(self.entries, "UnitaryOperator")
        ident = np.eye(mat.shape[0])
        if np.max(np.abs(mat @ mat.conj().T - ident)) > UNITARY_TOL:
            raise ContractViolationError("UnitaryOperator: entries are not unitary")
        object.__setattr__(self, "entries", _readonly(mat))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def apply(self, psi: Ket) -> Ket:
        if self.dim != psi.dim:
            raise ModelDimensionError("apply: dimension mismatch")
        return Ket(self.entries @ psi.amplitudes)


@dataclass(frozen=True)
class DensityMatrix:
    """Positive unit-trace Hermitian matrix describing a (possibly mixed) state.

    Non-finite entries are rejected before the eigenvalue check.
    """

    entries: np.ndarray

    def __post_init__(self):
        mat = _square_entries(self.entries, "DensityMatrix")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITIAN_TOL:
            raise ContractViolationError("DensityMatrix: entries are not Hermitian")
        if abs(np.trace(mat).real - 1.0) > 1e-12 or abs(np.trace(mat).imag) > 1e-12:
            raise ContractViolationError("DensityMatrix: trace must be 1")
        if np.min(np.linalg.eigvalsh(mat)) < EIGENVALUE_FLOOR:
            raise ContractViolationError("DensityMatrix: negative eigenvalue")
        object.__setattr__(self, "entries", _readonly(mat))

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

    def eigensystem(self) -> tuple[np.ndarray, list[Ket]]:
        return hermitian_eigs(HermitianOperator(self.entries))


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
        """The observable with eigenvalue +1 on ket0 and -1 on ket1."""
        return HermitianOperator(
            self.ket0.projector() - self.ket1.projector()
        )

    def pauli_triple(self) -> tuple[HermitianOperator, HermitianOperator, HermitianOperator]:
        """Right-handed Pauli triple (s1, s2, s3) with s3 = sigma()."""
        p01 = np.outer(self.ket0.amplitudes, self.ket1.amplitudes.conj())
        s1 = HermitianOperator(p01 + p01.conj().T)
        s2 = HermitianOperator(-1j * p01 + 1j * p01.conj().T)
        return s1, s2, self.sigma()


# Built once; every field is a frozen dataclass over a read-only array.
STANDARD_BASIS = ReferenceBasis(Ket(np.array([1.0, 0.0])), Ket(np.array([0.0, 1.0])))
STANDARD_SIGMA = STANDARD_BASIS.sigma()
# The balanced meter |+> = (|0> + |1>)/sqrt(2) and its partner |->.
METER_PLUS = STANDARD_BASIS.superposition(np.pi / 4.0)
METER_MINUS = STANDARD_BASIS.superposition(-np.pi / 4.0)


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


def _eigh(H: HermitianOperator, where: str) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK eigenvalues and eigenvector columns, in no particular order."""
    try:
        return np.linalg.eigh(H.entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalFailureError(f"{where}: eigensolver failed: {exc}") from exc


def hermitian_eigs(H: HermitianOperator) -> tuple[np.ndarray, list[Ket]]:
    """Eigendecomposition of a Hermitian operator with deterministic ordering.

    Returns eigenvalues in descending order together with orthonormal
    eigenvector kets. Each vector carries the global-phase convention of a
    real-positive first nonzero amplitude; degenerate eigenvalues are ordered
    lexicographically by (real, imag) of the phase-fixed amplitudes.
    """
    if not isinstance(H, HermitianOperator):
        H = HermitianOperator(np.asarray(H, dtype=complex))
    vals, vecs = _eigh(H, "hermitian_eigs")

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


_Projector = tuple[complex, complex, complex, complex]


def _qubit_split(H: HermitianOperator) -> list[tuple[float, _Projector]]:
    """Closed-form spectral split of a qubit observable, in Python scalars.

    With H = h0 I + K and K traceless, the eigenvalues are h0 +- r with
    r = |K| and the projectors are (I +- K/r)/2, returned row-major as
    (P00, P01, P10, P11). When r = 0 the single projector I carries both
    eigenvalues. The off-diagonal is read from the lower triangle.
    """
    (h00, _), (h10, h11) = H.entries.tolist()
    h0 = 0.5 * (h00.real + h11.real)
    kz = 0.5 * (h00.real - h11.real)
    r = math.hypot(kz, h10.real, h10.imag)
    if r == 0.0:
        return [(h0, (1.0, 0j, 0j, 1.0))]
    z, c = kz / r, h10 / r
    up = 0.5 * c.conjugate()
    return [
        (h0 + r, (0.5 * (1.0 + z), up, 0.5 * c, 0.5 * (1.0 - z))),
        (h0 - r, (0.5 * (1.0 - z), -up, -0.5 * c, 0.5 * (1.0 + z))),
    ]


def coupling_unitary(A: HermitianOperator, M: HermitianOperator, g: float) -> UnitaryOperator:
    """Return exp(-i g A (x) M) for qubit observables A and M.

    With A = sum_i a_i P_i and M = sum_j m_j Q_j from the closed-form split,
    U = sum_ij exp(-i g a_i m_j) P_i (x) Q_j. Degenerate spectra contribute
    a single projector and need no special handling.
    """
    A, M = _qubit_observables(A, M, "coupling_unitary")
    u = np.zeros((4, 4), dtype=complex)
    for a, P in _qubit_split(A):
        for m, Q in _qubit_split(M):
            u += cmath.exp(-1j * g * (a * m)) * np.kron(
                np.reshape(P, (2, 2)), np.reshape(Q, (2, 2))
            )
    return UnitaryOperator(u)


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
    M = sum_j m_j Q_j (see :func:`_qubit_split`), so

        v = sum_j w_j Q_j|phi>,  w_j = sum_i <sf|P_i|si> exp(-i g a_i m_j),

    and dv takes the factor -i a_i m_j into each term. Everything is
    evaluated in Python complex scalars; no eigensolver is called, and a
    degenerate A or M contributes its single projector I.
    """
    if psi_si.dim != 2 or psi_sf.dim != 2 or phi_mi.dim != 2:
        raise ModelDimensionError("postselected_meter: system and meter must be qubits")
    A, M = _qubit_observables(A, M, "postselected_meter")
    s0, s1 = psi_si.amplitudes.tolist()
    f0, f1 = (f.conjugate() for f in psi_sf.amplitudes.tolist())
    x0, x1 = phi_mi.amplitudes.tolist()
    # (a_i, <sf|P_i|si>)
    sys_terms = [
        (a, f0 * (p00 * s0 + p01 * s1) + f1 * (p10 * s0 + p11 * s1))
        for a, (p00, p01, p10, p11) in _qubit_split(A)
    ]
    v0 = v1 = d0 = d1 = 0j
    for m, (q00, q01, q10, q11) in _qubit_split(M):
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
    v = np.array([v0, v1])
    return float(np.real(np.vdot(v, v))), v, np.array([d0, d1])


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
