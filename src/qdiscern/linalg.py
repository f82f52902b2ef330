"""Dense complex linear algebra for small bipartite systems.

Everything here operates on plain numpy arrays, stacked along leading axes
where noted; `DensityMatrix` is a thin validated wrapper carrying the
subsystem dimensions (system first, environment second).
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


def check_finite(values, what: str) -> np.ndarray:
    """Return `values` as an array; raise NumericalError if any entry is not finite."""
    values = np.asarray(values)
    if not np.isfinite(values).all():
        raise NumericalError(f"{what} is not finite")
    return values


def is_finite_real(v) -> bool:
    """True for a finite real number that is not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _as_array(m) -> np.ndarray:
    if isinstance(m, DensityMatrix):
        return m.mat
    return np.asarray(m, dtype=complex)


def hermiticity_defect(m: np.ndarray) -> float:
    """Max absolute deviation from m = m^dagger."""
    return float(np.abs(m - m.conj().T).max())


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix with subsystem dimension metadata."""

    mat: np.ndarray
    dims: tuple[int, ...] = (2, 2)

    def __post_init__(self):
        mat = np.array(self.mat, dtype=complex)
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        n = mat.shape[0]
        if mat.ndim != 2 or mat.shape[1] != n:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        if math.prod(self.dims) != n:
            raise ValueError(f"dims {self.dims} incompatible with dimension {n}")
        defect = hermiticity_defect(mat)
        if defect > HERM_TOL:
            raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
        tr = mat.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace must be 1, got {tr}")
        wmin = float(np.linalg.eigvalsh(mat)[0])
        if wmin < -PSD_TOL:
            raise ValueError(f"matrix is not positive semidefinite (min eig {wmin:.3e})")

    def to_json(self) -> dict:
        d = matrix_to_json(self.mat)
        d["dims"] = list(self.dims)
        return d

    @classmethod
    def from_json(cls, d: dict) -> "DensityMatrix":
        return cls(matrix_from_json(d), tuple(d["dims"]))


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize a complex matrix to {"rows", "cols", "entries"} (row-major)."""
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }


def matrix_from_json(d: dict) -> np.ndarray:
    rows, cols = int(d["rows"]), int(d["cols"])
    entries = d["entries"]
    if len(entries) != rows * cols:
        raise ValueError("entries length does not match rows*cols")
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
    if np.abs(v.conj().T @ v - _EYE2).max() > UNITARY_TOL:
        raise ValueError("v is not unitary")
    return v


def two_qubit(rho: DensityMatrix) -> np.ndarray:
    """The (4, 4) matrix of a state with dims (2, 2); ValueError for any other."""
    if rho.dims != (2, 2):
        raise ValueError(f"expected a 2x2-subsystem bipartite state, dims {rho.dims}")
    return rho.mat


def partial_trace(rho, keep: int):
    """Marginal of a bipartite state on subsystem `keep` (0 = system).

    A DensityMatrix gives a validated DensityMatrix. A stacked (..., 4, 4)
    two-qubit array gives the unvalidated (..., 2, 2) marginals.
    """
    if keep not in (0, 1):
        raise ValueError(f"keep must be 0 or 1, got {keep}")
    wrapped = isinstance(rho, DensityMatrix)
    dims = rho.dims if wrapped else (2, 2)
    if len(dims) != 2:
        raise ValueError(f"partial_trace needs a bipartite state, dims {dims}")
    m = rho.mat if wrapped else np.asarray(rho)
    d0, d1 = dims
    t = m.reshape(*m.shape[:-2], d0, d1, d0, d1)
    # the diagonal slices added in order: the same floats as np.trace, without its reduction
    terms = [t[..., :, k, :, k] for k in range(d1)] if keep == 0 else [t[..., k, :, k, :] for k in range(d0)]
    marg = sum(terms[1:], terms[0])
    return DensityMatrix(marg, (dims[keep],)) if wrapped else marg


def trace_norm(m):
    """Sum of absolute eigenvalues of Hermitian (..., d, d) input.

    For d = 2 the eigenvalues are (tr m ± r) / 2 with
    r = sqrt((m00 - m11)^2 + 4 |m10|^2), so the norm is max(|tr m|, r).
    Like `eigvalsh`, it reads the diagonal's real part and the lower triangle.
    """
    m = _as_array(m)
    if m.shape[-1] != 2:
        return np.abs(np.linalg.eigvalsh(m)).sum(axis=-1)
    a, d, b = m[..., 0, 0].real, m[..., 1, 1].real, m[..., 1, 0]
    z, re, im = a - d, b.real, b.imag  # x * x: ** on numpy scalars rounds apart
    return np.maximum(np.abs(a + d), np.sqrt(z * z + 4 * (re * re + im * im)))


def trace_distance(a, b) -> float:
    """Half the trace norm of the difference of two states."""
    a, b = _as_array(a), _as_array(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(trace_distances(a, b))


def trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched trace distance over stacked (..., d, d) Hermitian arrays."""
    return 0.5 * trace_norm(a - b)

