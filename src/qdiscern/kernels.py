"""Td over the QC state family in rational closed form, used by `Td`
parameter sweeps with no 4x4 state ever built:

  Td = |sin(phi/2)| lam (1 - lam) sin 2theta |b_z| / (b_x^2 + b_z^2),

with (b_x, b_z) = ((1 - lam) sin 2theta, lam + (1 - lam) cos 2theta) the Bloch
vector of the system marginal; b_z is evaluated as cos^2 theta
- (1 - 2 lam) sin^2 theta, which does not cancel near the degenerate corner
(lam, theta) = (1/2, pi/2). Where |b| is below `DEGENERACY_GAP` the
projector is |H><H|, as in ``channels.eigenprojectors``, and Td = |b_x| / 2
at every phi. The tests hold it equal to ``witness.td_values`` on
``states.qc_matrices``.
"""

from __future__ import annotations

import numpy as np

from .linalg import DEGENERACY_GAP, check_finite

BACKEND = "numpy"


def td_qc_grid(lams, thetas, phi: float) -> np.ndarray:
    """Td on the outer grid, shape (len(lams), len(thetas))."""
    lams = np.asarray(lams, dtype=float)[:, None]
    thetas = np.asarray(thetas, dtype=float)
    c, s = np.cos(thetas), np.sin(thetas)
    bx = (1.0 - lams) * (2.0 * c * s)
    bz = c * c - (1.0 - 2.0 * lams) * (s * s)
    r2 = bx * bx + bz * bz
    deg = np.hypot(bx, bz) < DEGENERACY_GAP
    td = abs(np.sin(0.5 * float(phi))) * lams * np.abs(bx * bz) / np.where(deg, 1.0, r2)
    return check_finite(np.where(deg, 0.5 * np.abs(bx), td), "witness Td")
