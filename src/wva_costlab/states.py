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
:func:`hermitian_eigs` and the 4x4 positivity check.

Kets and matrices store one form: a tuple of Python complexes, a ket's
amplitudes ``_amps`` and a matrix's flat row-major entries ``_flat``. Their
public ``amplitudes`` and ``entries`` are read-only arrays built from that
tuple on each read (:class:`_ArrayView`), so nothing on the per-point paths
imports numpy. A matrix given as a square list or tuple of rows of Python
floats and complexes is read as it is, and so is a ket given as a tuple of
two Python complexes; other input is read through numpy, once, with
``tolist()``. Finiteness, Hermiticity and trace are checked in Python
scalars. A :class:`Ket` normalizes its amplitudes by Smith's rule
(:func:`_scaled`), bit for bit numpy's ``vec / norm``.

The per-point sums of products take no BLAS call. A ket's norm, inner
products, an observable's action on a ket, its moments and its expectation in
a density matrix are fixed-order sums of Python scalar products
(:func:`_norm_sq`, :func:`_inner`, :func:`_apply`),
and angles go through ``math.cos``, ``math.sin`` and ``math.acos``, so their
bits depend neither on the host's BLAS kernel nor on numpy's SIMD dispatch.
Kets and matrices compare by value (equal stored tuples) and stay unhashable.
The standard basis, its observable and the balanced meter kets are built once,
as module constants, from Python complexes.

Every per-instance value (a ket's amplitude tuple; an observable's flat entries
and split; a density matrix's flat entries; a basis's observable, amplitude
pairs and empty superposition memo; a
:class:`~wva_costlab.postselect.WvaSetup`'s kernel output, and for a
density-matrix input its kernel factors and collapsed state) is computed in the
constructor. Only two pieces of state
change later, with no lock: the memo, which may hand two threads distinct,
equal kets for one angle, and the <M>/Omega slot of ``HermitianOperator._moments``,
whose race costs only a later miss.

Each scenario input domain is decided in one function: :func:`finite_real`
(finite reals; an integer beyond the float range is not one, and neither is a
bool, a complex, None or a str), :func:`check_theta` (theta in (0, pi/4]),
:func:`selection_cosines` (finite angles and their cos(alpha +- theta)),
:func:`check_count` (integer counts) and :func:`check_seed` (64-bit seeds and
trial indices). A numpy integer passes the last two; the check looks for
numpy's types only once numpy is loaded (:func:`_numpy_types`).
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import numbers
import sys
from dataclasses import InitVar, dataclass
from typing import Optional, Sequence, Union

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


def _numpy_types(*names: str) -> tuple[type, ...]:
    """numpy's types ``names`` (such as "integer") when numpy is loaded; else none.

    A value can be a numpy scalar only once numpy is loaded, so a check that
    accepts numpy scalars need not import numpy to look for them.
    """
    np = sys.modules.get("numpy")
    return () if np is None else tuple(getattr(np, name) for name in names)


def _readonly(arr: np.ndarray) -> np.ndarray:
    """Mark ``arr`` read-only and return it."""
    arr.setflags(write=False)
    return arr


def _check_dim(dim: int, where: str) -> None:
    if dim not in _VALID_DIMS:
        raise ModelDimensionError(
            f"{where}: dimension {dim} outside the 2-qubit model (expected 2 or 4)"
        )


def _side(flat: tuple) -> int:
    """The side n of an n x n matrix of a model dimension from its flat entries."""
    return 2 if len(flat) == 4 else 4


def _array(values: tuple, square: bool) -> np.ndarray:
    """A fresh read-only complex array of stored ``values``, n x n when ``square``."""
    import numpy as np

    arr = np.array(values, dtype=complex)
    return _readonly(arr.reshape(_side(values), -1) if square else arr)


# Flat row-major index pairs (ij, ji) of a 4x4 upper triangle, diagonal included.
_UPPER_4 = [(4 * i + j, 4 * j + i) for i in range(4) for j in range(i, 4)]
# A qubit projector, row-major (P00, P01, P10, P11).
_Projector = tuple[complex, complex, complex, complex]


def _scalar_rows(entries) -> Optional[tuple[complex, ...]]:
    """Flat entries of a square list or tuple of rows of Python floats and complexes.

    Returns None for anything else: a size outside the model, a ragged row, an
    array, or an entry of another type, a numpy scalar or an int included.
    ``complex(x)`` of a float x is numpy's conversion, x + 0j.
    """
    n = len(entries) if type(entries) in (list, tuple) else 0
    if n not in _VALID_DIMS:
        return None
    flat = []
    for row in entries:
        if type(row) not in (list, tuple) or len(row) != n:
            return None
        flat += row
    for z in flat:
        if type(z) is not complex and type(z) is not float:
            return None
    return tuple(map(complex, flat))


def _square_entries(entries, where: str, hermitian: bool = True) -> tuple[complex, ...]:
    """Flat row-major entries of a square complex matrix of a model dimension, checked.

    Rows of Python scalars are read by :func:`_scalar_rows`; any other input
    is read once through numpy, with ``tolist()``, which gives the same
    entries for those rows. Every entry must be finite; with ``hermitian``
    each |H_ij - conj(H_ji)| must also stay within HERMITIAN_TOL, checked in
    Python scalars.
    """
    flat = _scalar_rows(entries)
    if flat is None:
        import numpy as np

        try:
            mat = np.array(entries, dtype=complex)
        except (TypeError, ValueError, OverflowError):  # a str, a ragged list, an int beyond float
            raise ContractViolationError(
                f"{where}: entries must be a rectangular array of finite numbers"
            ) from None
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ContractViolationError(f"{where}: entries must be square")
        _check_dim(mat.shape[0], where)
        flat = tuple(mat.ravel().tolist())
    if not all(map(cmath.isfinite, flat)):
        raise ContractViolationError(f"{where}: entries must be finite")
    if hermitian:
        try:
            if len(flat) == 4:  # a qubit's three pairs, written out
                h00, h01, h10, h11 = flat
                skew = max(abs(h00 - h00.conjugate()), abs(h01 - h10.conjugate()),
                           abs(h11 - h11.conjugate()))
            else:
                skew = max([abs(flat[ij] - flat[ji].conjugate()) for ij, ji in _UPPER_4])
        except OverflowError:  # |z| beyond the float range, where numpy gives inf
            skew = math.inf
        if skew > HERMITIAN_TOL:
            raise ContractViolationError(f"{where}: entries are not Hermitian")
    return flat


def _qubit_parts(flat: tuple[complex, ...]) -> tuple[float, float, complex, float]:
    """(h0, kz, h10, r) of a qubit H = h0 I + K: eigenvalues h0 +- r, h10 below the diagonal."""
    h00, _, h10, h11 = flat
    # halved before they meet, so diag(x, -x) stays finite up to the largest float
    d0, d1 = 0.5 * h00.real, 0.5 * h11.real
    kz = d0 - d1
    return d0 + d1, kz, h10, math.hypot(kz, h10.real, h10.imag)


def _qubit_split(flat: tuple[complex, ...]) -> tuple[tuple[float, _Projector], ...]:
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


def _norm_sq(amps) -> float:
    """sum_k |z_k|^2 in index order, each term z.real^2 + z.imag^2; inf where it overflows."""
    total = 0.0
    for z in amps:
        total += z.real * z.real + z.imag * z.imag
    return total


def _scaled(amps, d: float) -> tuple[complex, ...]:
    """Each z / d of a positive float d, bit for bit as numpy's complex divide gives it.

    numpy divides by d + 0j with Smith's method, whose ratio 0.0 / d is 0.0, so
    z becomes ((z.real + z.imag * 0.0) * s, (z.imag - z.real * 0.0) * s) with
    s = 1 / d; the products by 0.0 decide the signs of zeros.
    ``postselect._collapsed_state`` writes this rule out for its four entries.
    """
    s = 1.0 / d
    out = []
    for z in amps:
        re, im = z.real, z.imag
        out.append(complex((re + im * 0.0) * s, (im - re * 0.0) * s))
    return tuple(out)


def _inner(x, y) -> complex:
    """<x|y> = sum_k conj(x_k) y_k of equal-length amplitude sequences, summed in index order."""
    total = x[0].conjugate() * y[0]
    for k in range(1, len(x)):
        total += x[k].conjugate() * y[k]
    return total


def _apply(flat, y) -> list[complex]:
    """H y from the flat row-major entries of a square H, each row summed in column order."""
    n = len(y)
    out = []
    for row in range(0, n * n, n):
        total = flat[row] * y[0]
        for k in range(1, n):
            total += flat[row + k] * y[k]
        out.append(total)
    return out


class _ArrayView:
    """The public array of a frozen value type, built read-only from its stored tuple per read.

    ``stored`` names the tuple of Python complexes; ``square`` reshapes the
    array to n x n. The view shares its name with the constructor's input, a
    dataclass ``InitVar``: read on the class it raises AttributeError, so
    dataclasses gives that input no default. Nothing is cached: each read
    builds a fresh array.
    """

    def __init__(self, stored: str, square: bool):
        self.stored, self.square = stored, square

    def __set_name__(self, owner, name):
        self.name = name
        owner._public, owner._stored = name, self.stored

    def __get__(self, instance, owner=None):
        if instance is None:
            raise AttributeError(f"{owner.__name__}.{self.name} is read on an instance")
        return _array(getattr(instance, self.stored), self.square)


class _FlatValue:
    """Value equality and the repr of the frozen types that store one tuple (:class:`_ArrayView`).

    Two instances of one class are equal when their stored tuples are equal
    entry by entry, as ``np.array_equal`` finds their arrays (-0.0 equals
    0.0). Defining ``__eq__`` sets ``__hash__`` to None, so, like arrays, the
    instances are unhashable. The repr shows the array, as a dataclass over
    it would.
    """

    _public: str  # the names of the array and the stored tuple, set by the view
    _stored: str

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return getattr(self, self._stored) == getattr(other, self._stored)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._public}={getattr(self, self._public)!r})"


@dataclass(frozen=True, eq=False, repr=False)
class Ket(_FlatValue):
    """Unit-norm complex state vector of dimension 2 or 4.

    The constructor normalizes its input by sqrt(:func:`_norm_sq`) in Python
    scalars (:func:`_scaled`); a vector of near-zero or non-finite norm is
    rejected. A tuple of two Python complexes is read as it is; any other input
    is read through numpy. The normalized amplitudes are stored as the tuple
    ``_amps``; ``amplitudes`` builds a read-only array from it on each read.
    """

    amplitudes: InitVar[Sequence[complex]] = _ArrayView("_amps", square=False)
    _amps: tuple[complex, ...] = dataclasses.field(init=False)

    def __post_init__(self, amplitudes):
        amps = amplitudes
        if not (type(amps) is tuple and len(amps) == 2
                and type(amps[0]) is complex and type(amps[1]) is complex):
            import numpy as np

            try:
                vec = np.asarray(amps, dtype=complex).ravel()
            except (TypeError, ValueError, OverflowError):  # a str, a ragged list, a big int
                raise ContractViolationError("Ket: amplitudes must be finite numbers") from None
            _check_dim(vec.size, "Ket")
            amps = vec.tolist()
        norm = math.sqrt(_norm_sq(amps))
        if not math.isfinite(norm):
            raise ContractViolationError("Ket: amplitudes must be finite")
        if norm < 1e-12:
            raise ContractViolationError("Ket: cannot normalize a null vector")
        object.__setattr__(self, "_amps", _scaled(amps, norm))

    @property
    def dim(self) -> int:
        return len(self._amps)

    def inner(self, other: "Ket") -> complex:
        """Return the inner product <self|other> (:func:`_inner`)."""
        if not isinstance(other, Ket):
            raise ContractViolationError("inner: other must be a Ket")
        if self.dim != other.dim:
            raise ModelDimensionError("inner: dimension mismatch")
        return _inner(self._amps, other._amps)

    def projector(self) -> np.ndarray:
        import numpy as np

        amplitudes = self.amplitudes
        return np.outer(amplitudes, amplitudes.conj())


@dataclass(frozen=True, eq=False, repr=False)
class HermitianOperator(_FlatValue):
    """Hermitian observable on a 2- or 4-dimensional space with finite entries.

    The flat row-major entries are stored as the tuple ``_flat``
    (:func:`_square_entries`); ``entries`` builds a read-only array from it on
    each read. A qubit observable's closed-form spectral split ``_split``
    (:func:`_qubit_split`) is computed at construction and takes no part in
    equality or the repr.
    """

    entries: InitVar[np.ndarray] = _ArrayView("_flat", square=True)
    _flat: tuple[complex, ...] = dataclasses.field(init=False)

    def __post_init__(self, entries):
        flat = _square_entries(entries, "HermitianOperator")
        object.__setattr__(self, "_flat", flat)
        if len(flat) == 4:
            object.__setattr__(self, "_split", _qubit_split(flat))

    def _moments(self, phi: Ket) -> tuple[float, float]:
        """(Re <phi|H|phi>, ||H phi||^2) of a ket of the same dimension, in Python scalars.

        One slot keeps the ket last asked about and its two values, so a
        sweep that reuses one (H, phi) pair of objects computes them once. An
        equal but distinct ket recomputes them. The slot takes no part in
        equality or the repr.
        """
        slot = self.__dict__.get("_moment_slot")
        if slot is None or slot[0] is not phi:
            h_phi = _apply(self._flat, phi._amps)
            slot = (phi, _inner(phi._amps, h_phi).real, _norm_sq(h_phi))
            self.__dict__["_moment_slot"] = slot
        return slot[1], slot[2]

    @property
    def dim(self) -> int:
        return _side(self._flat)

    def apply(self, psi: Ket) -> np.ndarray:
        """Return the raw (unnormalized) vector of the operator acting on a ket."""
        if self.dim != psi.dim:
            raise ModelDimensionError("apply: dimension mismatch")
        return self.entries @ psi.amplitudes

    def _between(self, x: Ket, y: Ket) -> complex:
        """<x|H|y> of kets of H's dimension, in Python scalars (:func:`_inner`, :func:`_apply`)."""
        return _inner(x._amps, _apply(self._flat, y._amps))

    def expectation(self, state: Union[Ket, "DensityMatrix"]) -> float:
        """Re <H>: <psi|H|psi> of a ket, Tr(rho H) of a density matrix, in Python scalars.

        The trace sums Re (rho H)_ii over i, each as sum_k Re rho_ik H_ki in index order.
        """
        if not isinstance(state, (Ket, DensityMatrix)):
            raise ContractViolationError("expectation: state must be a Ket or DensityMatrix")
        if self.dim != state.dim:
            raise ModelDimensionError("expectation: dimension mismatch")
        if isinstance(state, Ket):
            return self._between(state, state).real
        r, h, n = state._flat, self._flat, self.dim
        trace = 0.0
        for i in range(n):
            for k in range(n):
                trace += (r[n * i + k] * h[n * k + i]).real
        return trace


@dataclass(frozen=True, eq=False, repr=False)
class UnitaryOperator(_FlatValue):
    """Unitary matrix on a 2- or 4-dimensional space (U U† = I within 1e-10).

    Stored as its flat entries ``_flat``, with ``entries`` built on each read.
    """

    entries: InitVar[np.ndarray] = _ArrayView("_flat", square=True)
    _flat: tuple[complex, ...] = dataclasses.field(init=False)

    def __post_init__(self, entries):
        import numpy as np

        flat = _square_entries(entries, "UnitaryOperator", hermitian=False)
        mat = _array(flat, square=True)
        with np.errstate(over="ignore", invalid="ignore"):
            residual = np.max(np.abs(mat @ mat.conj().T - np.eye(mat.shape[0])))
        if not residual <= UNITARY_TOL:  # a U U† that overflows holds NaN: reject it too
            raise ContractViolationError("UnitaryOperator: entries are not unitary")
        object.__setattr__(self, "_flat", flat)

    @property
    def dim(self) -> int:
        return _side(self._flat)

    def apply(self, psi: Ket) -> Ket:
        if self.dim != psi.dim:
            raise ModelDimensionError("apply: dimension mismatch")
        return Ket(self.entries @ psi.amplitudes)


@dataclass(frozen=True, eq=False, repr=False)
class DensityMatrix(_FlatValue):
    """Positive unit-trace Hermitian matrix describing a (possibly mixed) state.

    Non-finite entries are rejected before the (for a qubit, closed-form) eigenvalue check.
    The flat row-major entries that the checks read are stored as the tuple
    ``_flat``; ``entries`` builds a read-only array from it on each read.
    """

    entries: InitVar[np.ndarray] = _ArrayView("_flat", square=True)
    _flat: tuple[complex, ...] = dataclasses.field(init=False)

    def __post_init__(self, entries):
        flat = _square_entries(entries, "DensityMatrix")
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
            import numpy as np

            lowest = np.min(np.linalg.eigvalsh(_array(flat, square=True)))
        if lowest < EIGENVALUE_FLOOR:
            raise ContractViolationError("DensityMatrix: negative eigenvalue")
        object.__setattr__(self, "_flat", flat)

    @property
    def dim(self) -> int:
        return _side(self._flat)

    @classmethod
    def from_ket(cls, psi: Ket) -> "DensityMatrix":
        if not isinstance(psi, Ket):
            raise ContractViolationError("from_ket: psi must be a Ket")
        return cls(psi.projector())

    @classmethod
    def mixture(cls, weights: Sequence[float], kets: Sequence[Ket]) -> "DensityMatrix":
        """Return the convex mixture sum_k w_k |k><k| of same-size kets (weights sum to 1)."""
        import numpy as np

        try:
            w = np.asarray(weights, dtype=float)
        except (TypeError, ValueError, OverflowError):  # a str, a complex, an int beyond float
            raise ContractViolationError("mixture: weights must be finite real numbers") from None
        if not np.isfinite(w).all():  # a NaN weight would pass the distribution check below
            raise ContractViolationError("mixture: weights must be finite real numbers")
        if w.size != len(kets) or w.size == 0:
            raise ContractViolationError("mixture: weights and kets must match")
        if not all(isinstance(k, Ket) for k in kets):
            raise ContractViolationError("mixture: kets must be Kets")
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

    def norm(self) -> float:
        return math.sqrt(self.r1**2 + self.r2**2 + self.r3**2)


@dataclass(frozen=True)
class ReferenceBasis:
    """Orthonormal qubit basis, the +1/-1 eigenstates of the system observable.

    The constructor builds, in Python scalars, :meth:`sigma`'s observable
    |ket0><ket0| - |ket1><ket1| and the pairs ``_pairs`` = (<k|ket0>, <k|ket1>),
    and the empty memo ``_kets``.
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
        pairs = list(zip(self.ket0._amps, self.ket1._amps))
        object.__setattr__(self, "_pairs", pairs)
        sigma = HermitianOperator([[a * c.conjugate() - b * d.conjugate() for c, d in pairs]
                                   for a, b in pairs])
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
            c, s = math.cos(angle), math.sin(angle)
            (a0, b0), (a1, b1) = self._pairs
            ket = Ket((c * a0 + s * b0, c * a1 + s * b1))
            if len(memo) >= SUPERPOSITION_MEMO_SIZE:
                memo.clear()  # one atomic call, so threads sharing a basis need no lock
            memo[key] = ket
        return ket

    def sigma(self) -> HermitianOperator:
        """The observable with eigenvalue +1 on ket0 and -1 on ket1, built once per basis."""
        return self._sigma


# Built once, from Python complexes; every field is a frozen value.
STANDARD_BASIS = ReferenceBasis(Ket((1.0 + 0j, 0j)), Ket((0j, 1.0 + 0j)))
STANDARD_SIGMA = STANDARD_BASIS.sigma()
# The balanced meter |+> = (|0> + |1>)/sqrt(2) and its partner |->.
METER_PLUS = STANDARD_BASIS.superposition(math.pi / 4.0)
METER_MINUS = STANDARD_BASIS.superposition(-math.pi / 4.0)


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
    if not (0.0 < theta <= math.pi / 4.0 + 1e-12):
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
    return math.cos(alpha + theta), math.cos(alpha - theta)


def check_count(count, where: str, minimum: int = 1):
    """Return a Python or numpy integer, not a bool, of at least ``minimum``; else raise."""
    if type(count) is int and count >= minimum:  # the common case, before the type chain
        return count
    if isinstance(count, bool) or not isinstance(count, (int, *_numpy_types("integer"))):
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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    if not (isinstance(psi, Ket) and isinstance(basis, ReferenceBasis)):
        raise ContractViolationError("bloch_of: psi must be a Ket and basis a ReferenceBasis")
    if psi.dim != 2:
        raise ModelDimensionError("bloch_of: ket must be a qubit")
    c0 = basis.ket0.inner(psi)
    c1 = basis.ket1.inner(psi)
    z = c0.conjugate() * c1
    return BlochVector(2.0 * z.real, 2.0 * z.imag, abs(c0) ** 2 - abs(c1) ** 2)


def overlap_sq(a: Ket, b: Ket) -> float:
    """Squared overlap |<a|b>|^2, clamped into [0, 1]."""
    if not (isinstance(a, Ket) and isinstance(b, Ket)):
        raise ContractViolationError("overlap_sq: a and b must be Kets")
    if a.dim != b.dim:
        raise ModelDimensionError("overlap_sq: dimension mismatch")
    return min(max(abs(a.inner(b)) ** 2, 0.0), 1.0)  # np.clip's bits, in Python floats


def bloch_angle(ra: BlochVector, rb: BlochVector) -> float:
    """Angle between two unit Bloch vectors, arccos of the clamped dot product."""
    if not (isinstance(ra, BlochVector) and isinstance(rb, BlochVector)):
        raise ContractViolationError("bloch_angle: ra and rb must be BlochVectors")
    for r in (ra, rb):
        if abs(r.norm() - 1.0) > BLOCH_UNIT_TOL:
            raise ContractViolationError("bloch_angle: vectors must be unit norm")
    a, b = (float(ra.r1), float(ra.r2), float(ra.r3)), (float(rb.r1), float(rb.r2), float(rb.r3))
    dot = a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    return math.acos(min(max(dot, -1.0), 1.0))  # np.clip's bits in Python floats
