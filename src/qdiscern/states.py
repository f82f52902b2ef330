"""Parameterized bipartite state families: classically correlated (CC),
quantum correlated (QC) and factorized (F).

Convention throughout: system (polarization) is the first tensor factor,
environment (momentum) the second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, is_finite_real, kron

FAMILIES = ("CC", "QC", "F")


def projector(ket: np.ndarray) -> np.ndarray:
    """|k><k| for (stacked, not necessarily normalized) kets (..., d)."""
    ket = np.asarray(ket, dtype=complex)
    norm = (ket.conj() * ket).sum(axis=-1)[..., None, None]
    return ket[..., :, None] * ket.conj()[..., None, :] / norm


def _constant(rows) -> np.ndarray:
    """A read-only complex matrix, so that no caller can alter a shared operator."""
    m = np.array(rows, dtype=complex)
    m.setflags(write=False)
    return m


# The families' fixed operators. Each equals, byte for byte, its projector and
# kron expression (tests/test_states.py checks this); literals keep numpy's
# first-call costs out of the import.
PROJ_H = _constant([[1, 0], [0, 0]])  # |H><H|
PROJ_1 = _constant([[0, 0], [0, 1]])  # |1><1|
PROJ_H0 = _constant([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])  # |H0><H0|
PROJ_V1 = _constant([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])  # |V1><V1|
# (K0, K1) with the state lam K0 + (1 - lam) K1. F's terms |H><H| x 1/2 and
# |V><V| x 1/2 give the same floats as kron(lam |H><H| + (1 - lam) |V><V|, 1/2):
# every factor is 0, 1/2 or 1.
_TERMS = {"CC": (PROJ_H0, PROJ_V1),
          "F": (_constant([[.5, 0, 0, 0], [0, .5, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
                _constant([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, .5, 0], [0, 0, 0, .5]]))}


def theta_ket(theta) -> np.ndarray:
    """cos(theta)|H> + sin(theta)|V>, stacked along the leading axes of theta."""
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1).astype(complex)


@dataclass(frozen=True)
class FamilyParams:
    """Which family to build and its parameters (theta only used for QC)."""

    family: str
    lam: float
    theta: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        for name, attr in (("lambda", "lam"), ("theta", "theta")):
            v = getattr(self, attr)
            if not is_finite_real(v):
                raise ValueError(f"not a finite number: {name} = {v!r}")
            object.__setattr__(self, attr, float(v))
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must be in [0,1], got {self.lam}")
        if not 0.0 <= self.theta <= np.pi / 2:
            raise ValueError(f"theta must be in [0, pi/2], got {self.theta}")
        if self.family != "QC" and self.theta != 0.0:
            raise ValueError(f"theta is meaningful only for QC, got {self.theta} for {self.family}")

    def build(self) -> DensityMatrix:
        if self.family == "QC":
            return DensityMatrix(qc_matrices(self.lam, self.theta), (2, 2))
        k0, k1 = _TERMS[self.family]
        return DensityMatrix(self.lam * k0 + (1 - self.lam) * k1, (2, 2))

    def to_json(self) -> dict:
        return {"family": self.family, "lambda": self.lam, "theta": self.theta}

    @classmethod
    def from_json(cls, d: dict) -> "FamilyParams":
        return cls(d["family"], d["lambda"], d.get("theta", 0.0))


def qc_matrices(lam, theta) -> np.ndarray:
    """Unvalidated QC states (..., 4, 4) for broadcast arrays lam, theta."""
    lam = np.asarray(lam, dtype=float)[..., None, None]
    return lam * PROJ_H0 + (1 - lam) * kron(projector(theta_ket(theta)), PROJ_1)


def make_cc(lam: float) -> DensityMatrix:
    """lam |H><H| x |0><0| + (1-lam) |V><V| x |1><1|."""
    return FamilyParams("CC", lam).build()


def make_qc(lam: float, theta: float) -> DensityMatrix:
    """lam |H><H| x |0><0| + (1-lam) |theta><theta| x |1><1|."""
    return FamilyParams("QC", lam, theta).build()


def make_f(lam: float) -> DensityMatrix:
    """(lam |H><H| + (1-lam) |V><V|) x (|0><0| + |1><1|)/2."""
    return FamilyParams("F", lam).build()
