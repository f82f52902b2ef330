"""Figures of merit, as array functions on stacked states and as
`WitnessReport`-returning calls on one `DensityMatrix`.

* ``discord_T``: trace distance between a state and its eigenbasis-dephased
  version (a quantifier of quantum discord).
* ``witness_Td``: the same distance measured on system marginals after the
  conditional phase-gate evolution (a local discord witness).
* ``witness_growth``: growth of the system-marginal distinguishability
  between a state and its locally rotated twin (a classical-correlation
  witness).

With rho_e = <e|rho|e> the environment-diagonal blocks of rho and
U(phi) = sum_e D_e x |e><e|, where D_0 = 1 and D_1 = diag(e^{i phi}, 1),
tr_E[U X U^dagger] = sum_e D_e X_e D_e^dagger for any X, since the partial
trace keeps only the blocks X_e and U is block diagonal.

Td and growth are one real quantity of the blocks' Bloch vectors, with no
eigendecomposition. Write a traceless Hermitian block as x_e = w_e . sigma / 2.
D_1 only rephases the entry [1, 0] of x_1, which rotates w_1 about z by
R_phi, so sum_e D_e x_e D_e^dagger = (w_0 + R_phi w_1) . sigma / 2 and its
trace distance is 1/2 |w_0 + R_phi w_1| (`_evolved_distance`). With r_e the
Bloch vector of rho_e (`block_bloch`, Pauli coefficients, so
rho_e = (tr rho_e + r_e . sigma) / 2):

* Td: dephasing along the unit axis n of the system marginal's Bloch
  vector b = r_0 + r_1 keeps (r_e . n) n, so the blocks of rho - pinch(rho)
  have w_e = y_e = r_e - (r_e . n) n. n = b / |b| comes from the marginal's
  eigenvector of the larger eigenvalue; the eigenvalue gap is |b|, and
  below DEGENERACY_GAP n = z, the axis of |H><H| (`marginal_axis`);
* growth: V rho_e V^dagger - rho_e has w_e = O_V r_e - r_e, where
  O_ij = 1/2 tr(sigma_i V sigma_j V^dagger) is V's Bloch rotation
  (`bloch_rotation`), and growth is 1/2 |w_0 + R_phi w_1| - 1/2 |w_0 + w_1|,
  since sum_e (V rho_e V^dagger - rho_e) = V rho_S V^dagger - rho_S.

The Bloch arrays are component-major, r (2, 3, ...), n (3, ...) and
O (3, 3, ...), so that each component of a batch of one is a scalar.

T needs the blocks off the environment diagonal as well. With Pi = |pi><pi|
and 1 - Pi = |pi_perp><pi_perp| from the eigenprojector,
rho - pinch(rho) = |pi><pi_perp| x C + h.c. with the 2x2 environment
operator C_ab = sum_{s,s'} conj(pi_s) rho[s a, s' b] pi_perp_{s'}; its
eigenvalues are +-sigma_i(C), so T = sigma_1 + sigma_2
= sqrt(||C||_F^2 + 2 |det C|).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import eigenprojectors, lift, system_unitary
from .linalg import (
    CROSS_CHECK_TOL,
    DEGENERACY_GAP,
    RANGE_SLACK,
    DensityMatrix,
    NumericalError,
    check_finite,
    partial_trace,
    two_qubit,
)

DISCORD_QUANTIFIER = "discord_quantifier"
DISCORD_WITNESS = "discord_witness"
CORRELATION_WITNESS = "correlation_witness"

# Td's forward-error bound is TD_ERROR_ULPS units of roundoff over |b| (derived
# in the `protocol` docstring)
TD_ERROR_ULPS = 32.0
_UNIT_ROUNDOFF = 2.0 ** -53
# sigma_x, sigma_y, sigma_z
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI.setflags(write=False)


@dataclass(frozen=True)
class WitnessReport:
    value: float
    kind: str
    inputs_digest: dict = field(default_factory=dict)
    degenerate_basis: bool = False
    sigma: float | None = None  # bootstrap standard error, simulated mode only

    def __post_init__(self):
        lo = -1.0 if self.kind == CORRELATION_WITNESS else 0.0
        if not lo - RANGE_SLACK <= self.value <= 1.0 + RANGE_SLACK:
            raise ValueError(f"{self.kind} value {self.value} outside [{lo}, 1]")

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "kind": self.kind,
            "inputs_digest": dict(self.inputs_digest),
            "degenerate_basis": self.degenerate_basis,
            "sigma": self.sigma,
        }


def _components(a: np.ndarray) -> np.ndarray:
    """a with its last axis moved first, so that a[i] is component i over the
    leading axes; for a batch of one each component is a scalar."""
    return a.transpose(-1, *range(a.ndim - 1))


def block_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vectors r (2, 3, ...) of the environment-diagonal blocks
    rho_e = <e|rho|e> of stacked states (..., 4, 4), component-major: r[e] is
    (2 Re rho_e[1, 0], 2 Im rho_e[1, 0], rho_e[0, 0] - rho_e[1, 1]), the
    Pauli coefficients of rho_e, over the leading axes of rho."""
    f = _components(rho.reshape(*rho.shape[:-2], 16))  # f[4 i + j] = rho[i, j]
    low0, low1 = f[8], f[13]  # rho_e[1, 0] = rho[2 + e, e]
    return np.array([[2.0 * low0.real, 2.0 * low0.imag, f[0].real - f[10].real],
                     [2.0 * low1.real, 2.0 * low1.imag, f[5].real - f[15].real]])


def marginal_axis(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unit Bloch axis n = b / |b| (3, ...) of the leading eigenvector of
    each system marginal of stacked states (..., 4, 4), and |b| (...), that
    marginal's eigenvalue gap. Where |b| < DEGENERACY_GAP the marginal is
    degenerate and n = z, the axis of |H><H|, by convention."""
    m00, _, m10, m11 = _components(partial_trace(rho, 0).reshape(*rho.shape[:-2], 4))
    bx, by, bz = 2.0 * m10.real, 2.0 * m10.imag, m00.real - m11.real
    norm = np.sqrt(bx * bx + by * by + bz * bz)
    degenerate = norm < DEGENERACY_GAP
    den = np.where(degenerate, np.inf, norm)  # b / inf = 0 on the degenerate branch
    return np.array([bx / den, by / den, bz / den + degenerate]), norm


def axis_projector(n: np.ndarray) -> np.ndarray:
    """Pi = (1 + n . sigma) / 2 (..., 2, 2), the projector onto the pure
    state of unit Bloch vector n (3, ...); |H><H| at n = z."""
    x, y, z = n
    p = np.empty(np.shape(x) + (2, 2), dtype=complex)
    p[..., 0, 0] = 0.5 * (1.0 + z)
    p[..., 1, 1] = 0.5 * (1.0 - z)
    p[..., 1, 0] = 0.5 * (x + 1j * y)
    p[..., 0, 1] = 0.5 * (x - 1j * y)
    return p


def bloch_rotation(v: np.ndarray) -> np.ndarray:
    """O (3, 3, ...) with O_ij = 1/2 tr(sigma_i V sigma_j V^dagger): the
    rotation that system unitaries V (..., 2, 2) induce on Bloch vectors."""
    return 0.5 * np.einsum("iab,...bc,jcd,...ad->ij...", _PAULI, v, _PAULI, v.conj()).real


def _evolved_distance(w0, w1, phi) -> np.ndarray:
    """1/2 |w_0 + R_phi w_1| for the Bloch vectors w_e, each a 3-sequence of
    components, of traceless environment-diagonal blocks, with R_phi the z
    rotation that D_1 induces: the entry [1, 0] of D_1 x D_1^dagger is
    e^{-i phi} x_10."""
    phi = np.asarray(phi, dtype=float)
    cos, sin = np.cos(phi), np.sin(phi)
    x0, y0, z0 = w0
    x1, y1, z1 = w1
    x = x0 + (cos * x1 + sin * y1)
    y = y0 + (cos * y1 - sin * x1)
    z = z0 + z1
    # x * x, not x ** 2: a one-row call squares numpy scalars, whose ** calls pow
    return 0.5 * np.sqrt(x * x + y * y + z * z)


def td_bloch(r: np.ndarray, n: np.ndarray, phi) -> np.ndarray:
    """Td from block Bloch vectors r (2, 3, ...) and the dephasing axis n
    (3, ...): the evolved distance of y_e = r_e - (r_e . n) n."""
    nx, ny, nz = n
    y = []
    for rx, ry, rz in r:
        p = rx * nx + ry * ny + rz * nz
        y.append((rx - p * nx, ry - p * ny, rz - p * nz))
    return check_finite(_evolved_distance(*y, phi), "witness Td")


def growth_bloch(r: np.ndarray, o: np.ndarray, phi) -> np.ndarray:
    """Growth from block Bloch vectors r (2, 3, ...) and the Bloch rotation
    o (3, 3, ...) of the system unitary: the evolved distance of
    w_e = O r_e - r_e at phi minus the one at phi = 0."""
    w = [[oi[0] * rx + oi[1] * ry + oi[2] * rz - ri for oi, ri in zip(o, (rx, ry, rz))]
         for rx, ry, rz in r]
    x, y, z = (a + b for a, b in zip(*w))
    at_zero = 0.5 * np.sqrt(x * x + y * y + z * z)
    return check_finite(_evolved_distance(*w, phi) - at_zero, "growth witness")


def td_error_bound(norm: np.ndarray) -> np.ndarray:
    """Td's forward-error bound at marginal Bloch radius |b| = norm:
    TD_ERROR_ULPS u / |b|, or TD_ERROR_ULPS u on the degenerate branch,
    where n = z is fixed."""
    return TD_ERROR_ULPS * _UNIT_ROUNDOFF / np.where(norm < DEGENERACY_GAP, 1.0, norm)


def _kets(projs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit kets pi, pi_perp with Pi = |pi><pi| and 1 - Pi = |pi_perp><pi_perp|,
    each up to a phase: pi is the column of Pi with the larger diagonal entry,
    normalized, and pi_perp = (-conj(pi_1), conj(pi_0))."""
    p00, p11 = projs[..., 0, 0].real, projs[..., 1, 1].real
    first = (p00 >= p11)[..., None]
    ket = np.where(first, projs[..., :, 0], projs[..., :, 1]) / np.sqrt(np.maximum(p00, p11))[..., None]
    return ket, np.stack([-ket[..., 1].conj(), ket[..., 0].conj()], axis=-1)


def _coherence(rho: np.ndarray, projs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2x2 environment operator C with rho - pinch(rho) = |pi><pi_perp| x C
    + h.c., and the kets pi, pi_perp from `_kets`."""
    ket, perp = _kets(projs)
    c = np.einsum("...s,...satb->...atb", ket.conj(), rho.reshape(*rho.shape[:-2], 2, 2, 2, 2))
    return np.einsum("...atb,...t->...ab", c, perp), ket, perp


def discord_values(rho: np.ndarray, projs: np.ndarray) -> np.ndarray:
    """T for stacked states (..., 4, 4) and system projectors (..., 2, 2).

    Cross-checks ||C||_F against ||(Pi x 1) rho ((1 - Pi) x 1)||_F, built
    through `lift`, and raises NumericalError if the two disagree, guarding
    the projector-lifting convention and the kets taken from Pi.
    """
    c, _, _ = _coherence(rho, projs)
    frob2 = (c.real ** 2 + c.imag ** 2).sum(axis=(-2, -1))
    det = c[..., 0, 0] * c[..., 1, 1] - c[..., 0, 1] * c[..., 1, 0]
    value = check_finite(np.sqrt(frob2 + 2 * np.abs(det)), "discord T")
    p = lift(projs)
    frob, alt = np.sqrt(frob2), np.linalg.norm(p @ rho @ (np.eye(4) - p), axis=(-2, -1))
    if np.any(np.abs(frob - alt) > CROSS_CHECK_TOL):
        raise NumericalError(f"discord forms disagree: {frob} vs {alt}")
    return value


def td_values(rho: np.ndarray, phi) -> np.ndarray:
    """Td for stacked states and phases (broadcast)."""
    return td_bloch(block_bloch(rho), marginal_axis(rho)[0], phi)


def growth_values(rho: np.ndarray, v: np.ndarray, phi) -> np.ndarray:
    """T_u(t) - T_u(0) for stacked states, system unitaries and phases."""
    return growth_bloch(block_bloch(rho), bloch_rotation(v), phi)


def discord_T(rho_se: DensityMatrix) -> WitnessReport:
    """Trace distance between rho and its dephased version."""
    r = two_qubit(rho_se)
    projs, degenerate = eigenprojectors(r)
    return WitnessReport(
        value=float(discord_values(r, projs)),
        kind=DISCORD_QUANTIFIER,
        degenerate_basis=bool(degenerate),
    )


def witness_Td(rho_se: DensityMatrix, phi: float) -> WitnessReport:
    """Trace distance of the system marginals of rho and its dephased
    version after the phase-gate evolution at angle phi."""
    r = two_qubit(rho_se)
    n, norm = marginal_axis(r)
    return WitnessReport(
        value=float(td_bloch(block_bloch(r), n, phi)),
        kind=DISCORD_WITNESS,
        inputs_digest={"phi": phi},
        degenerate_basis=bool(norm < DEGENERACY_GAP),
    )


def witness_growth(rho_se: DensityMatrix, v: np.ndarray, phi: float) -> WitnessReport:
    """T_u(t) - T_u(0): growth of the system-marginal trace distance between
    rho and (V x 1) rho (V x 1)^dagger under the phase-gate evolution."""
    return WitnessReport(
        value=float(growth_values(two_qubit(rho_se), system_unitary(v), phi)),
        kind=CORRELATION_WITNESS,
        inputs_digest={"phi": phi},
    )


def zero_line_residual(lam: float, theta: float) -> float:
    """lam (cos 2theta - 1) - cos 2theta; zero on the undetectable QC locus
    of the phi = pi witness."""
    c = np.cos(2 * theta)
    return float(lam * (c - 1.0) - c)


def zero_line_lambda(theta: float) -> float:
    """The lambda putting (lambda, theta) on the zero line (theta in (pi/4, pi/2))."""
    c = np.cos(2 * theta)
    return float(c / (c - 1.0))
