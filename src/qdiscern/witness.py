"""Figures of merit, as array functions on stacked states and as
`WitnessReport`-returning calls on one `DensityMatrix`.

* ``discord_T``: trace distance between a state and its eigenbasis-dephased
  version (a quantifier of quantum discord).
* ``witness_Td``: the same distance measured on system marginals after the
  conditional phase-gate evolution (a local discord witness).
* ``witness_growth``: growth of the system-marginal distinguishability
  between a state and its locally rotated twin (a classical-correlation
  witness).

The array functions work on 2x2 system blocks; only T's cross-check
lifts to 4x4. With rho_e = <e|rho|e> the environment-diagonal blocks of rho,
Pi = |pi><pi|, 1 - Pi = |pi_perp><pi_perp| and U(phi) = sum_e D_e x |e><e|
where D_0 = 1 and D_1 = diag(e^{i phi}, 1):

* tr_E[U X U^dagger] = sum_e D_e X_e D_e^dagger for any X, since the
  partial trace keeps only the blocks X_e and U is block diagonal;
* rho - pinch(rho) = |pi><pi_perp| x C + h.c. with the 2x2 environment
  operator C_ab = sum_{s,s'} conj(pi_s) rho[s a, s' b] pi_perp_{s'}; its
  eigenvalues are +-sigma_i(C), so T = sigma_1 + sigma_2
  = sqrt(||C||_F^2 + 2 |det C|);
* so the blocks of rho - pinch(rho) are c_e |pi><pi_perp| + h.c. with
  c_e = C_ee, and Td = 1/2 ||M||_1 = sqrt(M_00^2 + |M_10|^2) for the traceless
  Hermitian M = sum_e D_e (c_e |pi><pi_perp| + h.c.) D_e^dagger;
* growth = 1/2 || sum_e D_e (V rho_e V^dagger - rho_e) D_e^dagger ||_1
  - 1/2 || sum_e (V rho_e V^dagger - rho_e) ||_1.

Every 2x2 trace norm is the closed form of `linalg.trace_norm`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import eigenprojectors, lift, system_unitary
from .linalg import (
    CROSS_CHECK_TOL,
    RANGE_SLACK,
    DensityMatrix,
    NumericalError,
    check_finite,
    kron,
    partial_trace,
    trace_distances,
    trace_norm,
    two_qubit,
)

DISCORD_QUANTIFIER = "discord_quantifier"
DISCORD_WITNESS = "discord_witness"
CORRELATION_WITNESS = "correlation_witness"


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


def _blocks(rho: np.ndarray) -> np.ndarray:
    """The environment-diagonal system blocks rho_e (..., 2, 2, 2), e on axis -3."""
    t = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2)
    return np.stack([t[..., :, 0, :, 0], t[..., :, 1, :, 1]], axis=-3)


def _sandwich(sup: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a x b^dagger for broadcast (..., 2, 2) operators x, as one contraction
    of the row-major vec(x) with the superoperator sup = kron(a, conj(b))."""
    out = np.einsum("...ij,...j->...i", sup, x.reshape(*x.shape[:-2], 4))
    return out.reshape(*out.shape[:-1], 2, 2)


def _evolved_marginal(x: np.ndarray, phi) -> np.ndarray:
    """sum_e D_e x_e D_e^dagger: the system marginal after U(phi) of an
    operator with environment-diagonal blocks x (..., 2, 2, 2)."""
    e = np.exp(1j * np.asarray(phi, dtype=float))
    d = np.ones((*e.shape, 2), dtype=complex)  # the diagonal of D_1: (e^{i phi}, 1)
    d[..., 0] = e
    return x[..., 0, :, :] + d[..., :, None] * d.conj()[..., None, :] * x[..., 1, :, :]


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


def td_values(rho: np.ndarray, phi, projs: np.ndarray) -> np.ndarray:
    """Td for stacked states, phases and system projectors (broadcast)."""
    c, ket, perp = _coherence(rho, projs)
    x = np.diagonal(c, axis1=-2, axis2=-1)[..., None, None] \
        * (ket[..., :, None] * perp.conj()[..., None, :])[..., None, :, :]  # c_e |pi><pi_perp|
    m = _evolved_marginal(x + np.swapaxes(x.conj(), -1, -2), phi)
    m00, m10 = m[..., 0, 0].real, m[..., 1, 0]
    return check_finite(np.sqrt(m00 ** 2 + m10.real ** 2 + m10.imag ** 2), "witness Td")


def growth_values(rho: np.ndarray, v: np.ndarray, phi) -> np.ndarray:
    """T_u(t) - T_u(0) for stacked states, system unitaries and phases."""
    m = partial_trace(rho, 0)
    sup = kron(v, v.conj())  # V . V^dagger on vec, built once for the marginal and the blocks
    t0 = trace_distances(_sandwich(sup, m), m)
    blocks = _blocks(rho)
    t1 = 0.5 * trace_norm(_evolved_marginal(_sandwich(sup[..., None, :, :], blocks) - blocks, phi))
    return check_finite(t1 - t0, "growth witness")


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
    projs, degenerate = eigenprojectors(r)
    return WitnessReport(
        value=float(td_values(r, phi, projs)),
        kind=DISCORD_WITNESS,
        inputs_digest={"phi": phi},
        degenerate_basis=bool(degenerate),
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
