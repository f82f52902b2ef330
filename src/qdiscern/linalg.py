"""Dense complex linear algebra for one qubit and for a system qubit with an
environment qubit.

Everything here operates on plain numpy arrays, stacked along leading axes
where noted; `DensityMatrix` is a thin validated wrapper of a 2x2 (one qubit)
or 4x4 (system first, environment second) matrix, whose shape fixes its
subsystems (`check_state_shape`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Every numerical tolerance of the package.
HERM_TOL = 1e-9  # max |m - m^dagger| entry of a Hermitian matrix
TRACE_TOL = 1e-9  # |tr - 1| of a state or a rank-1 projector
PSD_TOL = 1e-9  # most negative eigenvalue a state may have
DEGENERACY_GAP = 1e-9  # eigenvalue gap below which a marginal has no preferred basis
IDEMPOTENCY_TOL = 1e-9  # max |P P - P| entry of a projector
UNITARY_TOL = 1e-9  # max |V^dagger V - 1| entry of a unitary
PROB_DRIFT_TOL = 1e-9  # Born probability below 0 or sum off 1, clamped away
ESTIMATE_TRACE_TOL = 0.1  # |tr - 1| of a raw estimate handed to the physicality projection
CROSS_CHECK_TOL = 1e-9  # disagreement of the two forms of discord T
RANGE_SLACK = 1e-9  # rounding allowed outside a witness value's range


class NumericalError(ArithmeticError):
    """An internal numerical consistency check failed."""


def check_finite(values, what: str, error: type[Exception] = NumericalError) -> np.ndarray:
    """Return `values` as an array; raise `error` if any entry is not finite:
    NumericalError for a computed value, ValueError for an input, which is
    checked first, since a NaN passes every `defect > TOL` check."""
    values = np.asarray(values)
    if not np.isfinite(values).all():
        raise error(f"{what} is not finite")
    return values


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def is_finite_real(v) -> bool:
    """True for a finite real number that is not a bool."""
    return _is_real(v) and math.isfinite(v)


def is_count(n) -> bool:
    """Whether n is a non-negative integer; bool is not a count."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 0


def check_finite_real(name: str, *values):
    """ValueError naming `name` unless every value is a finite real number
    that is not a bool."""
    if not all(map(is_finite_real, values)):
        raise ValueError(f"not a finite number: {name} = {', '.join(map(repr, values))}")


def json_field(d, key: str):
    """d[key] of a JSON object; ValueError naming the key if d is not an
    object or has no such key."""
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object with key {key!r}, got {type(d).__name__}")
    if key not in d:
        raise ValueError(f"missing key {key!r}")
    return d[key]


def _as_array(m) -> np.ndarray:
    if isinstance(m, DensityMatrix):
        return m.mat
    return np.asarray(m, dtype=complex)


def hermiticity_defect(m: np.ndarray) -> float:
    """Max absolute deviation from m = m^dagger."""
    return float(np.abs(m - m.conj().T).max())


_DIMS = {(2, 2): (2,), (4, 4): (2, 2)}  # the subsystems that each state shape fixes


def check_state_shape(m: np.ndarray, what: str) -> np.ndarray:
    """m, if it is 2x2 (one qubit) or 4x4 (system x environment); ValueError otherwise."""
    if m.shape not in _DIMS:
        raise ValueError(f"{what} must be a square 2x2 or 4x4 matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix: 2x2 for one qubit, 4x4 for a system
    qubit and an environment qubit (system first). The shape fixes the
    subsystems; `dims` reports them."""

    mat: np.ndarray

    def __post_init__(self):
        mat = check_state_shape(np.array(self.mat, dtype=complex), "density matrix")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        check_finite(mat, "density matrix", ValueError)
        defect = hermiticity_defect(mat)
        if defect > HERM_TOL:
            raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
        tr = mat.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace must be 1, got {tr}")
        wmin = float(np.linalg.eigvalsh(mat)[0])
        if wmin < -PSD_TOL:
            raise ValueError(f"matrix is not positive semidefinite (min eig {wmin:.3e})")

    @property
    def dims(self) -> tuple[int, ...]:
        """(2,) for one qubit, (2, 2) for system x environment: the shape fixes them."""
        return _DIMS[self.mat.shape]

    def to_json(self) -> dict:
        d = matrix_to_json(self.mat)
        d["dims"] = list(self.dims)
        return d

    @classmethod
    def from_json(cls, d: dict) -> "DensityMatrix":
        rho, dims = cls(matrix_from_json(d)), json_field(d, "dims")
        if dims != list(rho.dims):
            raise ValueError(f"dims {dims!r} do not match a state of shape {rho.mat.shape}")
        return rho


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize a complex matrix to {"rows", "cols", "entries"} (row-major)."""
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }


def matrix_from_json(d: dict) -> np.ndarray:
    """The matrix of `matrix_to_json`'s output; ValueError naming the key or
    the entry that is missing or malformed."""
    rows, cols, entries = (json_field(d, key) for key in ("rows", "cols", "entries"))
    if not (is_count(rows) and is_count(cols)):
        raise ValueError(f"rows and cols must be non-negative integers, got {rows!r}, {cols!r}")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ValueError("entries length does not match rows*cols")
    for i, z in enumerate(entries):
        if not (isinstance(z, (list, tuple)) and len(z) == 2 and all(map(_is_real, z))):
            raise ValueError(f"entries[{i}] must be a [real, imag] pair of numbers, got {z!r}")
    flat = np.array([complex(re, im) for re, im in entries])
    return flat.reshape(rows, cols)


def kron(a, b) -> np.ndarray:
    """Kronecker product of stacked (..., m, n) and (..., p, q) matrices;
    composite row index = s*p + e."""
    a, b = _as_array(a), _as_array(b)
    out = np.einsum("...ij,...kl->...ikjl", a, b)
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


_EYE2 = np.eye(2, dtype=complex)
_EYE2.setflags(write=False)


def lift(op: np.ndarray) -> np.ndarray:
    """System operators (..., 2, 2) on the two-qubit space: op x 1."""
    return kron(op, _EYE2)


def system_unitary(v) -> np.ndarray:
    """v as a complex (2, 2) array; ValueError unless it is a system unitary."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (2, 2):
        raise ValueError("unitary dimension does not match the system factor")
    check_finite(v, "v", ValueError)
    if np.abs(v.conj().T @ v - _EYE2).max() > UNITARY_TOL:
        raise ValueError("v is not unitary")
    return v


def two_qubit(rho: DensityMatrix) -> np.ndarray:
    """The (4, 4) matrix of a system x environment DensityMatrix; ValueError otherwise."""
    if not (isinstance(rho, DensityMatrix) and rho.mat.shape == (4, 4)):
        raise ValueError(f"expected a 2x2-subsystem bipartite DensityMatrix, got a "
                         f"{type(rho).__name__} of shape {np.shape(getattr(rho, 'mat', rho))}")
    return rho.mat


def partial_trace(rho, keep: int):
    """Marginal of a two-qubit state on subsystem `keep` (0 = system).

    A DensityMatrix gives a validated DensityMatrix. A stacked (..., 4, 4)
    two-qubit array gives the unvalidated (..., 2, 2) marginals.
    """
    if keep not in (0, 1):
        raise ValueError(f"keep must be 0 or 1, got {keep}")
    wrapped = isinstance(rho, DensityMatrix)
    m = two_qubit(rho) if wrapped else np.asarray(rho)
    t = m.reshape(*m.shape[:-2], 2, 2, 2, 2)
    # the diagonal slices added in order: the same floats as np.trace, without its reduction
    marg = t[..., :, 0, :, 0] + t[..., :, 1, :, 1] if keep == 0 else t[..., 0, :, 0, :] + t[..., 1, :, 1, :]
    return DensityMatrix(marg) if wrapped else marg


def trace_norm(m):
    """Sum of absolute eigenvalues of Hermitian (..., d, d) input."""
    return np.abs(np.linalg.eigvalsh(_as_array(m))).sum(axis=-1)


def trace_distance(a, b) -> float:
    """Half the trace norm of the difference of two states."""
    a, b = _as_array(a), _as_array(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(trace_distances(a, b))


def trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched trace distance over stacked (..., d, d) Hermitian arrays."""
    return 0.5 * trace_norm(a - b)

