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
eigendecomposition. Write a traceless Hermitian block as h_e = w_e . sigma / 2.
D_1 only rephases the entry [1, 0] of h_1, which rotates w_1 about z by
R_phi, so sum_e D_e h_e D_e^dagger = (w_0 + R_phi w_1) . sigma / 2 and its
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

T needs the blocks off the environment diagonal as well. With
x_ab = tr(sigma rho_ab) the complex Pauli vectors of rho_ab = <a|rho|b>_E
(x_aa = r_a, x_01 = q = conj(x_10), `_coherence_pauli`) and Pi = |pi><pi|
the projector onto n, rho - pinch(rho) = |pi><pi_perp| x C + h.c. with
C_ab = <pi|rho_ab|pi_perp> = 1/2 m . x_ab, m = <pi|sigma|pi_perp>. Its
eigenvalues are +-sigma_i(C), so T = sigma_1 + sigma_2
= sqrt(||C||_F^2 + 2 |det C|). Up to a phase, m = e_1 - i e_2 for a
right-handed orthonormal basis (e_1, e_2, n), so m . x = m . P x with
P = 1 - n n^T, |m . a| = |P a| for real a, and (`t_bloch`)

  ||2C||_F^2 = |y_0|^2 + |y_1|^2 + 2 |P q|^2,
  det 2C = (m . y_0)(m . y_1) - (m . P q)(m . P conj(q)).

The determinant takes a basis (`_plane_null`): the basis-free
sqrt(det C^dagger C) loses half the digits where C has rank one, as on pure
states. Where rho_01 = 0 (the QC, CC and F families), T = (|y_0| + |y_1|) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    CROSS_CHECK_TOL,
    DEGENERACY_GAP,
    RANGE_SLACK,
    DensityMatrix,
    NumericalError,
    check_finite,
    lift,
    partial_trace,
    system_unitary,
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
    """The unit Bloch axis n (3, ...) of the leading eigenvector of each
    system marginal of stacked states (..., 4, 4), and |b| (...), that
    marginal's eigenvalue gap, from `bloch_axis`."""
    m00, _, m10, m11 = _components(partial_trace(rho, 0).reshape(*rho.shape[:-2], 4))
    n, norm = bloch_axis(2.0 * m10.real, 2.0 * m10.imag, m00.real - m11.real)
    return np.array(n), norm


def bloch_axis(bx, by, bz) -> tuple[tuple, np.ndarray]:
    """The unit axis n = b / |b|, as three components, and |b| of a Bloch
    vector b with components bx, by, bz. Where |b| < DEGENERACY_GAP the
    marginal is degenerate and n = z, the axis of |H><H|, by convention."""
    norm = np.sqrt(bx * bx + by * by + bz * bz)
    degenerate = norm < DEGENERACY_GAP
    den = np.where(degenerate, np.inf, norm)  # b / inf = 0 on the degenerate branch
    return (bx / den, by / den, bz / den + degenerate), norm


def bloch_matrix(r) -> np.ndarray:
    """(1 + r . sigma) / 2 (..., 2, 2) of Bloch vectors r (3, ...): the
    projector Pi onto the pure state of a unit axis n, |H><H| at n = z, and
    the qubit state of any r in the unit ball."""
    x, y, z = r
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


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _transverse(r, n) -> list:
    """y_e = r_e - (r_e . n) n for the block Bloch vectors r (2, 3, ...) and
    the dephasing axis n (3, ...), each a 3-sequence of components."""
    nx, ny, nz = n
    y = []
    for rx, ry, rz in r:
        p = rx * nx + ry * ny + rz * nz
        y.append((rx - p * nx, ry - p * ny, rz - p * nz))
    return y


def _plane_null(n):
    """m = e_1 - i e_2, as three components, for an orthonormal basis e_1, e_2
    of the plane normal to the unit axis n, taken without a branch (Duff et
    al., "Building an orthonormal basis, revisited", JCGT 6(1), 2017)."""
    nx, ny, nz = n
    sign = np.copysign(1.0, nz)
    a = -1.0 / (sign + nz)
    b = nx * ny * a
    return (1.0 + sign * nx * nx * a - 1j * b, sign * b - 1j * (sign + ny * ny * a), 1j * ny - sign * nx)


def t_bloch(r, n, q=None) -> tuple[np.ndarray, np.ndarray]:
    """T, and ||2C||_F^2 for `discord_values`' cross-check, from block Bloch
    vectors r (2, 3, ...), the dephasing axis n (3, ...) and the complex Pauli
    vector q (3, ...) of the block rho_01, None where rho_01 = 0."""
    y0, y1 = _transverse(r, n)
    a0, a1 = _dot(y0, y0), _dot(y1, y1)
    if q is None:  # 2C = diag(m . y_0, m . y_1), and |m . y_e| = |y_e|
        frob2, det = a0 + a1, np.sqrt(a0 * a1)
    else:
        (pq,) = _transverse((q,), n)
        pq_bar = [c.conj() for c in pq]
        m = _plane_null(n)
        frob2 = a0 + a1 + 2.0 * _dot(pq, pq_bar).real
        det = np.abs(_dot(m, y0) * _dot(m, y1) - _dot(m, pq) * _dot(m, pq_bar))
    return check_finite(0.5 * np.sqrt(frob2 + 2.0 * det), "discord T"), frob2


def td_bloch(r, n, phi) -> np.ndarray:
    """Td from block Bloch vectors r (2, 3, ...) and the dephasing axis n
    (3, ...): the evolved distance of y_e = r_e - (r_e . n) n."""
    return check_finite(_evolved_distance(*_transverse(r, n), phi), "witness Td")


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


def _coherence_pauli(rho: np.ndarray) -> np.ndarray:
    """The complex Pauli vector q (3, ...) of the block rho_01 = <0|rho|1>_E
    of stacked states (..., 4, 4): (a_01 + a_10, i (a_01 - a_10), a_00 - a_11)
    with a = rho_01, whose entry [s, s'] is rho[2 s, 2 s' + 1]."""
    f = _components(rho.reshape(*rho.shape[:-2], 16))  # f[4 i + j] = rho[i, j]
    return np.array([f[3] + f[9], 1j * (f[3] - f[9]), f[1] - f[11]])


def discord_values(rho: np.ndarray, axis: np.ndarray | None = None) -> np.ndarray:
    """T for stacked states (..., 4, 4), on the axis n (3, ...) of
    `marginal_axis`, which a caller that has it already passes as `axis`.

    Cross-checks ||C||_F against ||(Pi x 1) rho ((1 - Pi) x 1)||_F, with
    Pi = `bloch_matrix`(n) built through `lift`, and raises NumericalError
    if the two disagree, guarding the Pauli-index convention of the blocks.
    """
    n = marginal_axis(rho)[0] if axis is None else axis
    value, frob2 = t_bloch(block_bloch(rho), n, _coherence_pauli(rho))
    p = lift(bloch_matrix(n))
    frob, alt = 0.5 * np.sqrt(frob2), np.linalg.norm(p @ rho @ (np.eye(4) - p), axis=(-2, -1))
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
    n, norm = marginal_axis(r)
    return WitnessReport(
        value=float(discord_values(r, n)),
        kind=DISCORD_QUANTIFIER,
        degenerate_basis=bool(norm < DEGENERACY_GAP),
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
    """The lambda putting (lambda, theta) on the zero line, for theta in
    (pi/4, pi/2]; raises ValueError elsewhere, where no lambda in [0, 1] does."""
    if not (0.0 <= theta <= np.pi / 2 and np.cos(2 * theta) < 0):
        raise ValueError(f"the zero line needs theta in (pi/4, pi/2], got {theta!r}")
    c = np.cos(2 * theta)
    return float(c / (c - 1.0))
