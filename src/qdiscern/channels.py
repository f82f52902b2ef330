"""Global and local operations: eigenbasis dephasing, the conditional
phase gate on the environment's channel 1, and local system unitaries
(half-wave plate rotations).

The array functions (`eigenprojectors`, `pinch`, `evolve`, `rotate`) work
on stacked two-qubit states (..., 4, 4) and system operators (..., 2, 2)
without validation; the public `DensityMatrix` functions are thin calls
into them. No function here runs an eigendecomposition: the eigenprojector
is read off the marginal's Bloch vector (`witness.marginal_axis`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (_EYE2, DEGENERACY_GAP, HERM_TOL, IDEMPOTENCY_TOL, TRACE_TOL, DensityMatrix,
                     hermiticity_defect, lift, system_unitary, two_qubit)
from .witness import bloch_matrix, marginal_axis


@dataclass(frozen=True)
class Projector:
    """Rank-1 system projector, flagged if it came from a degenerate marginal."""

    matrix: np.ndarray
    degenerate_source: bool = False

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if hermiticity_defect(m) > HERM_TOL:
            raise ValueError("projector must be Hermitian")
        if np.abs(m @ m - m).max() > IDEMPOTENCY_TOL:
            raise ValueError("projector must be idempotent")
        if abs(m.trace() - 1.0) > TRACE_TOL:
            raise ValueError("projector must have rank 1")


def half_wave_plate(alpha: float) -> np.ndarray:
    """HWP at plate angle alpha: [[cos 2a, sin 2a], [sin 2a, -cos 2a]]."""
    c, s = np.cos(2 * alpha), np.sin(2 * alpha)
    return np.array([[c, s], [s, -c]], dtype=complex)


def _gate_diagonal(phi) -> np.ndarray:
    """Diagonal (..., 4) of U(phi), stacked along the leading axes of phi."""
    e = np.exp(1j * np.asarray(phi, dtype=float))
    one = np.ones_like(e)
    return np.stack([one, e, one, one], axis=-1)


def phase_gate(phi: float) -> np.ndarray:
    """U(phi) = 1 x |0><0| + Diag(e^{i phi}, 1) x |1><1| (system first)."""
    return np.diag(_gate_diagonal(phi))


def eigenprojectors(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projectors (..., 2, 2) onto the leading eigenvector of each system
    marginal of rho (..., 4, 4), and where that marginal is degenerate.

    The leading eigenvector's Bloch vector is the marginal's axis
    n = b / |b| (`marginal_axis`), and the eigenvalue gap is |b|, so no
    eigendecomposition runs. A degenerate marginal, |b| < DEGENERACY_GAP, has
    no preferred eigenbasis; by convention it gets |H><H| (n = z). The
    projectors are complex for every input dtype.
    """
    n, norm = marginal_axis(rho)
    return bloch_matrix(n), norm < DEGENERACY_GAP


def pinch(rho: np.ndarray, projs: np.ndarray) -> np.ndarray:
    """Dephase rho (..., 4, 4) in the system bases {Pi, 1-Pi} (lifted as Pi x 1)."""
    p = lift(projs)
    q = lift(_EYE2 - projs)
    return p @ rho @ p + q @ rho @ q


def evolve(rho: np.ndarray, phi) -> np.ndarray:
    """U(phi) rho U(phi)^dagger; U is diagonal, so this is elementwise."""
    u = _gate_diagonal(phi)
    return u[..., :, None] * rho * u.conj()[..., None, :]


def rotate(rho: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(V x 1) rho (V x 1)^dagger."""
    w = lift(v)
    return w @ rho @ np.swapaxes(w.conj(), -1, -2)


def system_eigenprojector(rho_se: DensityMatrix) -> Projector:
    """Projector onto the leading eigenvector of the system marginal,
    |H><H| and flagged if the marginal is degenerate."""
    proj, degenerate = eigenprojectors(two_qubit(rho_se))
    return Projector(proj, degenerate_source=bool(degenerate))


def dephase(rho_se: DensityMatrix, proj: Projector) -> DensityMatrix:
    """Pinch the state in the system basis {Pi, 1-Pi} (lifted as Pi x 1)."""
    r = two_qubit(rho_se)
    if proj.matrix.shape != (2, 2):
        raise ValueError("projector dimension does not match the system factor")
    return DensityMatrix(pinch(r, proj.matrix), rho_se.dims)


def phase_gate_evolve(rho_se: DensityMatrix, phi: float) -> DensityMatrix:
    """Conjugate by the conditional phase gate U(phi)."""
    return DensityMatrix(evolve(two_qubit(rho_se), phi), rho_se.dims)


def apply_local_system(rho_se: DensityMatrix, v: np.ndarray) -> DensityMatrix:
    """(V x 1) rho (V^dagger x 1); leaves the environment marginal unchanged."""
    return DensityMatrix(rotate(two_qubit(rho_se), system_unitary(v)), rho_se.dims)
