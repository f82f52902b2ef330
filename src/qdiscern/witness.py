"""Figures of merit, as array functions on stacked states and as
`WitnessReport`-returning calls on one `DensityMatrix`.

* ``discord_T``: trace distance between a state and its eigenbasis-dephased
  version (a quantifier of quantum discord).
* ``witness_Td``: the same distance measured on system marginals after the
  conditional phase-gate evolution (a local discord witness).
* ``witness_growth``: growth of the system-marginal distinguishability
  between a state and its locally rotated twin (a classical-correlation
  witness).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import (
    Projector,
    eigenprojectors,
    evolve,
    lift,
    pinch,
    rotate,
    system_unitary,
)
from .linalg import (
    CROSS_CHECK_TOL,
    RANGE_SLACK,
    DensityMatrix,
    NumericalError,
    check_finite,
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


def discord_values(rho: np.ndarray, projs: np.ndarray) -> np.ndarray:
    """T for stacked states (..., 4, 4) and system projectors (..., 2, 2).

    Cross-checks the equivalent anticommutator form
    || Pi rho Pi - (Pi rho + rho Pi)/2 ||_1 and raises NumericalError if
    the two disagree, guarding the projector-lifting convention.
    """
    value = check_finite(trace_distances(pinch(rho, projs), rho), "discord T")
    p = lift(projs)
    alt = trace_norm(p @ rho @ p - 0.5 * (p @ rho + rho @ p))
    if np.any(np.abs(value - alt) > CROSS_CHECK_TOL):
        raise NumericalError(f"discord forms disagree: {value} vs {alt}")
    return np.maximum(value, 0.0)


def td_values(rho: np.ndarray, phi, projs: np.ndarray) -> np.ndarray:
    """Td for stacked states, phases and system projectors (broadcast)."""
    m = partial_trace(evolve(rho, phi), 0)
    m_d = partial_trace(evolve(pinch(rho, projs), phi), 0)
    return check_finite(trace_distances(m_d, m), "witness Td")


def growth_values(rho: np.ndarray, v: np.ndarray, phi) -> np.ndarray:
    """T_u(t) - T_u(0) for stacked states, system unitaries and phases."""
    rho_u = rotate(rho, v)
    t0 = trace_distances(partial_trace(rho_u, 0), partial_trace(rho, 0))
    t1 = trace_distances(partial_trace(evolve(rho_u, phi), 0), partial_trace(evolve(rho, phi), 0))
    return check_finite(t1 - t0, "growth witness")


def _projector(r: np.ndarray, proj: Projector | None) -> tuple[np.ndarray, bool]:
    if proj is not None:
        return proj.matrix, proj.degenerate_source
    projs, degenerate = eigenprojectors(r)
    return projs, bool(degenerate)


def discord_T(rho_se: DensityMatrix, proj: Projector | None = None) -> WitnessReport:
    """Trace distance between rho and its dephased version."""
    r = two_qubit(rho_se)
    projs, degenerate = _projector(r, proj)
    return WitnessReport(
        value=float(discord_values(r, projs)),
        kind=DISCORD_QUANTIFIER,
        degenerate_basis=degenerate,
    )


def witness_Td(rho_se: DensityMatrix, phi: float, proj: Projector | None = None) -> WitnessReport:
    """Trace distance of the system marginals of rho and its dephased
    version after the phase-gate evolution at angle phi."""
    r = two_qubit(rho_se)
    projs, degenerate = _projector(r, proj)
    return WitnessReport(
        value=float(td_values(r, phi, projs)),
        kind=DISCORD_WITNESS,
        inputs_digest={"phi": phi},
        degenerate_basis=degenerate,
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
