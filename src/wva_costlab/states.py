"""Exact complex linear algebra for the qubit-system / qubit-meter model.

Provides normalized state vectors, Hermitian observables, unitaries, density
matrices, Bloch-sphere geometry, a small deterministic Hermitian eigensolver
and the dense coupling unitary exp(-i g A (x) M). Only dimensions 2 (single
qubit) and 4 (system plus meter) are supported; the product space is ordered
system-major, meter-minor.

The coupling and the qubit density-matrix check never call LAPACK: a qubit
observable H = h0 I + K splits in closed form into eigenvalues h0 +- |K| with
projectors (I +- K/|K|)/2, evaluated in Python complex scalars when the
observable is built; the postselection kernel of
:mod:`~wva_costlab.postselect` reads the same split. LAPACK serves only
:func:`hermitian_eigs` and the 4x4 positivity check. The matrix types store a
read-only complex copy of their input, read it once with ``tolist()`` and
check finiteness, Hermiticity and trace in Python scalars. A :class:`Ket`
checks its norm in Python scalars too, but takes the norm as
``np.linalg.norm`` does (BLAS ``ddot`` over the real and imaginary parts,
which fuses multiply-adds), since a Python or ``math.hypot`` norm differs in
the last bit; it stores one read-only array. Kets and matrices compare by
value (equal stored arrays) and stay unhashable. The standard basis, its
observable and the balanced meter kets are built once, as module constants.

Every per-instance value (an observable's split; a basis's observable,
amplitude pairs and empty superposition memo; a
:class:`~wva_costlab.postselect.WvaSetup`'s kernel output) is computed in the
constructor, outside equality, hashing and the repr. Only two pieces of state
change later, with no lock: the memo, which may hand two threads distinct,
equal kets for one angle, and the <M>/Omega slot of ``HermitianOperator._moments``,
whose race costs only a later miss.

Each scenario input domain is decided in one function: :func:`finite_real`
(finite reals; an integer beyond the float range is not one, and neither is a
bool, a complex, None or a str), :func:`check_theta` (theta in (0, pi/4]),
:func:`selection_cosines` (finite angles and their cos(alpha +- theta)),
:func:`check_count` (integer counts) and :func:`check_seed` (64-bit seeds and
trial indices).
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ContractViolationError, ModelDimensionError

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
BLOCH_UNIT_TOL = 1e-10
SUPERPOSITION_MEMO_SIZE = 256

_VALID_DIMS = (2, 4)


def _real(value, what: tuple[str, ...]) -> float:
    """A ``numbers.Real`` as a Python float with its bits, +-inf beyond the float range.

    A bool, a complex (even with a zero imaginary part), None or a str (never
    parsed) raises ``ContractViolationError("<what joined by ': '> must be real")``.
    """
    # a float subclass skips the ABC check; a bool is a numbers.Real, but not a real input
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):
        raise ContractViolationError(f"{': '.join(what)} must be real")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        return math.inf if value > 0 else -math.inf


def finite_real(value, *what: str) -> float:
    """Return a finite real as a Python float with its bits; else raise ContractViolationError.

    A non-real raises as in :func:`_real`; NaN, +-inf and an integer beyond the
    float range raise "<what joined by ': '> must be finite", e.g.
    "hwp_settings: g must be finite".
    """
    if type(value) is not float:  # the fast path: a Python float is real
        value = _real(value, what)
    if math.isfinite(value):
        return value
    raise ContractViolationError(f"{': '.join(what)} must be finite")


def _readonly(arr: np.ndarray) -> np.ndarray:
    """Mark ``arr`` read-only and return it."""
    arr.setflags(write=False)
    return arr


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
    try:
        mat = _readonly(np.array(entries, dtype=complex))
    except (TypeError, ValueError, OverflowError):  # a str, a ragged list, an int beyond float
        raise ContractViolationError(
            f"{where}: entries must be a rectangular array of finite numbers"
        ) from None
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ContractViolationError(f"{where}: entries must be square")
    _check_dim(mat.shape[0], where)
    flat = mat.ravel().tolist()
    if not all(map(cmath.isfinite, flat)):
        raise ContractViolationError(f"{where}: entries must be finite")
    if hermitian:
        try:
            if len(flat) == 4:  # a qubit: _UPPER[2]'s three pairs, written out
                h00, h01, h10, h11 = flat
                skew = max(abs(h00 - h00.conjugate()), abs(h01 - h10.conjugate()),
                           abs(h11 - h11.conjugate()))
            else:
                pairs = _UPPER[mat.shape[0]]
                skew = max([abs(flat[ij] - flat[ji].conjugate()) for ij, ji in pairs])
        except OverflowError:  # |z| beyond the float range, where numpy gives inf
            skew = math.inf
        if skew > HERMITIAN_TOL:
            raise ContractViolationError(f"{where}: entries are not Hermitian")
    return mat, flat


def _qubit_parts(flat: list[complex]) -> tuple[float, float, complex, float]:
    """(h0, kz, h10, r) of a qubit H = h0 I + K: eigenvalues h0 +- r, h10 below the diagonal."""
    h00, _, h10, h11 = flat
    # halved before they meet, so diag(x, -x) stays finite up to the largest float
    d0, d1 = 0.5 * h00.real, 0.5 * h11.real
    kz = d0 - d1
    return d0 + d1, kz, h10, math.hypot(kz, h10.real, h10.imag)


def _qubit_split(flat: list[complex]) -> tuple[tuple[float, _Projector], ...]:
    """Closed-form spectral split of a qubit observable, in Python scalars.

    With H = h0 I + K and K traceless, the eigenvalues are h0 +- r with
    r = |K| and the projectors are (I +- K/r)/2, returned row-major as
    (P00, P01, P10, P11). When r = 0 the single projector I carries both
    eigenvalues. The off-diagonal is read from the lower triangle.
    """
    h0, kz, h10, r = _qubit_parts(flat)
    if r == 0.0:
        return ((h0, (1.0, 0j, 0j, 1.0)),)
    z, c = kz / r, h10 / r
    up = 0.5 * c.conjugate()
    return (
        (h0 + r, (0.5 * (1.0 + z), up, 0.5 * c, 0.5 * (1.0 - z))),
        (h0 - r, (0.5 * (1.0 - z), -up, -0.5 * c, 0.5 * (1.0 + z))),
    )


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
        try:
            vec = np.asarray(self.amplitudes, dtype=complex).ravel()
        except (TypeError, ValueError, OverflowError):  # a str, a ragged list, an int beyond float
            raise ContractViolationError("Ket: amplitudes must be finite numbers") from None
        _check_dim(vec.size, "Ket")
        norm = math.sqrt(vec.real.dot(vec.real) + vec.imag.dot(vec.imag))  # np.linalg.norm's sum
        if not math.isfinite(norm):
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

    A qubit observable's closed-form spectral split ``_split``
    (:func:`_qubit_split`) is computed at construction and takes no part in
    equality or the repr.
    """

    entries: np.ndarray

    def __post_init__(self):
        mat, flat = _square_entries(self.entries, "HermitianOperator")
        object.__setattr__(self, "entries", mat)
        if len(flat) == 4:
            object.__setattr__(self, "_split", _qubit_split(flat))

    def _moments(self, phi: Ket) -> tuple[np.float64, float]:
        """(Re <phi|H|phi>, ||H phi||^2) of a ket of the same dimension.

        One slot keeps the ket last asked about and its two values, so a
        sweep that reuses one (H, phi) pair of objects computes them once. An
        equal but distinct ket recomputes them. The slot takes no part in
        equality or the repr.
        """
        slot = self.__dict__.get("_moment_slot")
        if slot is None or slot[0] is not phi:
            h_phi = self.entries @ phi.amplitudes
            slot = (phi, np.vdot(phi.amplitudes, h_phi).real, float(np.vdot(h_phi, h_phi).real))
            self.__dict__["_moment_slot"] = slot
        return slot[1], slot[2]

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
        return float(val.real)


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
        if not isinstance(psi, Ket):
            raise ContractViolationError("from_ket: psi must be a Ket")
        return cls(psi.projector())

    @classmethod
    def mixture(cls, weights: Sequence[float], kets: Sequence[Ket]) -> "DensityMatrix":
        """Return the convex mixture sum_k w_k |k><k| of same-size kets (weights sum to 1)."""
        try:
            w = np.asarray(weights, dtype=float)
        except (TypeError, ValueError, OverflowError):  # a str, a complex, an int beyond float
            raise ContractViolationError("mixture: weights must be finite real numbers") from None
        if not np.isfinite(w).all():  # a NaN weight would pass the distribution check below
            raise ContractViolationError("mixture: weights must be finite real numbers")
        if w.size != len(kets) or w.size == 0:
            raise ContractViolationError("mixture: weights and kets must match")
        if len({k.dim for k in kets}) > 1:
            raise ModelDimensionError("mixture: kets must share one dimension")
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
        for r in (self.r1, self.r2, self.r3):
            finite_real(r, "BlochVector", "components")
        # |r_i| <= |r|: checking the components first moves no edge and keeps norm() finite
        if max(map(abs, (self.r1, self.r2, self.r3))) > 1.0 + 1e-12 or self.norm() > 1.0 + 1e-12:
            raise ContractViolationError("BlochVector: norm exceeds 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.r1, self.r2, self.r3], dtype=float)

    def norm(self) -> float:
        return math.sqrt(self.r1**2 + self.r2**2 + self.r3**2)


@dataclass(frozen=True)
class ReferenceBasis:
    """Orthonormal qubit basis, the +1/-1 eigenstates of the system observable.

    The constructor builds :meth:`sigma`'s observable, the pairs ``_pairs`` =
    (<k|ket0>, <k|ket1>) in Python scalars and the empty memo ``_kets``.
    """

    ket0: Ket
    ket1: Ket

    def __post_init__(self):
        if not (isinstance(self.ket0, Ket) and isinstance(self.ket1, Ket)):
            raise ContractViolationError("ReferenceBasis: ket0 and ket1 must be Kets")
        if self.ket0.dim != 2 or self.ket1.dim != 2:
            raise ModelDimensionError("ReferenceBasis: kets must be qubits")
        if abs(self.ket0.inner(self.ket1)) > 1e-12:
            raise ContractViolationError("ReferenceBasis: kets are not orthogonal")
        a0, a1 = self.ket0.amplitudes, self.ket1.amplitudes
        object.__setattr__(self, "_pairs", list(zip(a0.tolist(), a1.tolist())))
        sigma = HermitianOperator(self.ket0.projector() - self.ket1.projector())
        object.__setattr__(self, "_sigma", sigma)
        object.__setattr__(self, "_kets", {})

    @classmethod
    def standard(cls) -> "ReferenceBasis":
        """The shared computational basis (|0>, |1>), :data:`STANDARD_BASIS`."""
        return STANDARD_BASIS

    def superposition(self, angle: float) -> Ket:
        """Return cos(angle)*ket0 + sin(angle)*ket1 for a finite angle.

        Each basis keeps a memo of the kets it built, keyed by the angle's
        exact value as a Python float, sign of a zero included, so a repeated
        angle returns the same :class:`Ket` object. Kets compare by value and
        are read-only, so sharing one changes no result. An angle is checked
        before the memo is read, and a rejected one is never stored. A memo
        that reaches :data:`SUPERPOSITION_MEMO_SIZE` entries is emptied.
        """
        angle = finite_real(angle, "superposition", "angle")
        key = (angle, math.copysign(1.0, angle))  # -0.0 == 0.0, but each keeps its own entry
        memo = self._kets
        ket = memo.get(key)
        if ket is None:
            c, s = float(np.cos(angle)), float(np.sin(angle))
            ket = Ket(np.array([c * a + s * b for a, b in self._pairs]))
            if len(memo) >= SUPERPOSITION_MEMO_SIZE:
                memo.clear()  # one atomic call, so threads sharing a basis need no lock
            memo[key] = ket
        return ket

    def sigma(self) -> HermitianOperator:
        """The observable with eigenvalue +1 on ket0 and -1 on ket1, built once per basis."""
        return self._sigma


# Built once; every field is a frozen dataclass over a read-only array.
STANDARD_BASIS = ReferenceBasis(Ket(np.array([1.0, 0.0])), Ket(np.array([0.0, 1.0])))
STANDARD_SIGMA = STANDARD_BASIS.sigma()
# The balanced meter |+> = (|0> + |1>)/sqrt(2) and its partner |->.
METER_PLUS = STANDARD_BASIS.superposition(np.pi / 4.0)
METER_MINUS = STANDARD_BASIS.superposition(-np.pi / 4.0)


def check_theta(theta: float, where: str) -> float:
    """Return a preparation angle that lies in the documented domain (0, pi/4].

    The scenario's preparation is cos(theta)|0> + sin(theta)|1>, whose
    coherence sin(2 theta) covers [0, 1] once on this interval. A value that
    is not real raises as in :func:`finite_real`; any other value outside the
    interval, NaN and +-inf included, raises ``ContractViolationError("<where>
    must lie in (0, pi/4]")``. Returns the angle as a Python float.
    """
    if type(theta) is not float:
        theta = _real(theta, (where,))
    if not (0.0 < theta <= np.pi / 4.0 + 1e-12):
        raise ContractViolationError(f"{where} must lie in (0, pi/4]")
    return theta


def selection_cosines(theta: float, alpha: float, where: str) -> tuple[float, float]:
    """Return cos(alpha + theta), cos(alpha - theta) of finite angles; else raise.

    theta must also pass :func:`check_theta`, so alpha +- theta cannot overflow
    and no trig call warns.
    """
    theta = finite_real(theta, where, "theta")
    alpha = finite_real(alpha, where, "alpha")
    check_theta(theta, f"{where}: theta")
    return np.cos(alpha + theta), np.cos(alpha - theta)


def check_count(count, where: str, minimum: int = 1):
    """Return a Python or numpy integer, not a bool, of at least ``minimum``; else raise."""
    if type(count) is int and count >= minimum:  # the common case, before the type chain
        return count
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise ContractViolationError(f"{where} must be an integer")
    if count < minimum:
        raise ContractViolationError(f"{where} must be >= {minimum}")
    return count


def check_seed(value, where: str):
    """Return a Python or numpy integer in [0, 2**64), the range of a 64-bit seed; else raise."""
    if int(check_count(value, where, minimum=0)) >= 2**64:
        raise ContractViolationError(f"{where} must fit in 64 bits")
    return value


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
    """Eigenvalues of a Hermitian operator in descending order, with orthonormal eigenvector kets.

    Each vector carries the global-phase convention of a real-positive first
    nonzero amplitude.
    """
    if not isinstance(H, HermitianOperator):
        raise ContractViolationError("hermitian_eigs: H must be a HermitianOperator")
    vals, vecs = np.linalg.eigh(H.entries)
    order = np.argsort(-vals, kind="stable")
    return vals[order].astype(float), [Ket(_phase_fixed(vecs[:, k])) for k in order]


def coupling_unitary(A: HermitianOperator, M: HermitianOperator, g: float) -> UnitaryOperator:
    """Return exp(-i g A (x) M) for qubit observables A and M.

    With A = sum_i a_i P_i and M = sum_j m_j Q_j from each one's closed-form split,
    U = sum_ij exp(-i g a_i m_j) P_i (x) Q_j. Degenerate spectra contribute
    a single projector and need no special handling. A and M must be qubit
    :class:`HermitianOperator` instances; an array is not converted. ``g`` goes
    through :func:`finite_real`, and a phase g a_i m_j that ``cmath.exp`` cannot
    take raises ContractViolationError.
    """
    finite_real(g, "coupling_unitary", "g")
    if not (isinstance(A, HermitianOperator) and isinstance(M, HermitianOperator)):
        raise ContractViolationError("coupling_unitary: A and M must be HermitianOperators")
    if A.dim != 2 or M.dim != 2:
        raise ModelDimensionError("coupling_unitary: A and M must act on qubits")
    u = np.zeros((4, 4), dtype=complex)
    try:
        for a, P in A._split:
            for m, Q in M._split:
                u += cmath.exp(-1j * g * (a * m)) * np.kron(
                    np.reshape(P, (2, 2)), np.reshape(Q, (2, 2))
                )
    except (ValueError, OverflowError):  # cmath.exp of a phase beyond the float range
        raise ContractViolationError("coupling_unitary: phase overflows the float range") from None
    return UnitaryOperator(u)


def bloch_of(psi: Ket, basis: ReferenceBasis) -> BlochVector:
    """Bloch vector of a qubit ket, with the third axis along the basis observable."""
    if psi.dim != 2:
        raise ModelDimensionError("bloch_of: ket must be a qubit")
    c0 = basis.ket0.inner(psi)
    c1 = basis.ket1.inner(psi)
    z = c0.conjugate() * c1
    return BlochVector(2.0 * z.real, 2.0 * z.imag, abs(c0) ** 2 - abs(c1) ** 2)


def overlap_sq(a: Ket, b: Ket) -> float:
    """Squared overlap |<a|b>|^2, clamped into [0, 1]."""
    if a.dim != b.dim:
        raise ModelDimensionError("overlap_sq: dimension mismatch")
    return min(max(abs(a.inner(b)) ** 2, 0.0), 1.0)  # np.clip's bits, in Python floats


def bloch_angle(ra: BlochVector, rb: BlochVector) -> float:
    """Angle between two unit Bloch vectors, arccos of the clamped dot product."""
    for r in (ra, rb):
        if abs(r.norm() - 1.0) > BLOCH_UNIT_TOL:
            raise ContractViolationError("bloch_angle: vectors must be unit norm")
    dot = float(np.dot(ra.as_array(), rb.as_array()))
    # np.clip's bits in Python floats; np.arccos, since math.acos rounds differently
    return float(np.arccos(min(max(dot, -1.0), 1.0)))
