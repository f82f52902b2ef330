"""Parameterized bipartite state families: classically correlated (CC),
quantum correlated (QC) and factorized (F).

Convention throughout: system (polarization) is the first tensor factor,
environment (momentum) the second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, is_finite_real, kron

KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)
KET_0 = np.array([1.0, 0.0], dtype=complex)
KET_1 = np.array([0.0, 1.0], dtype=complex)

FAMILIES = ("CC", "QC", "F")


def projector(ket: np.ndarray) -> np.ndarray:
    """|k><k| for (stacked, not necessarily normalized) kets (..., d)."""
    ket = np.asarray(ket, dtype=complex)
    norm = (ket.conj() * ket).sum(axis=-1)[..., None, None]
    return ket[..., :, None] * ket.conj()[..., None, :] / norm


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
        lam = self.lam
        if self.family == "CC":
            m = lam * kron(projector(KET_H), projector(KET_0)) \
                + (1 - lam) * kron(projector(KET_V), projector(KET_1))
        elif self.family == "QC":
            m = qc_matrices(lam, self.theta)
        else:
            m = kron(lam * projector(KET_H) + (1 - lam) * projector(KET_V), np.eye(2) / 2)
        return DensityMatrix(m, (2, 2))

    def to_json(self) -> dict:
        return {"family": self.family, "lambda": self.lam, "theta": self.theta}

    @classmethod
    def from_json(cls, d: dict) -> "FamilyParams":
        return cls(d["family"], d["lambda"], d.get("theta", 0.0))


def qc_matrices(lam, theta) -> np.ndarray:
    """Unvalidated QC states (..., 4, 4) for broadcast arrays lam, theta."""
    lam = np.asarray(lam, dtype=float)[..., None, None]
    return lam * kron(projector(KET_H), projector(KET_0)) \
        + (1 - lam) * kron(projector(theta_ket(theta)), projector(KET_1))


def make_cc(lam: float) -> DensityMatrix:
    """lam |H><H| x |0><0| + (1-lam) |V><V| x |1><1|."""
    return FamilyParams("CC", lam).build()


def make_qc(lam: float, theta: float) -> DensityMatrix:
    """lam |H><H| x |0><0| + (1-lam) |theta><theta| x |1><1|."""
    return FamilyParams("QC", lam, theta).build()


def make_f(lam: float) -> DensityMatrix:
    """(lam |H><H| + (1-lam) |V><V|) x (|0><0| + |1><1|)/2."""
    return FamilyParams("F", lam).build()
