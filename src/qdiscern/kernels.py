"""Closed-form evaluation of the phase-gate discord witness over the QC
state family, used by `Td` parameter sweeps.

The QC states are block diagonal in the environment, so the witness at a
point (lambda, theta, phi) reduces to real 2x2 algebra on broadcast numpy
arrays, with no 4x4 state ever built:

* system marginal Bloch vector -> leading eigenprojector Pi (degenerate
  marginals fall back to |H><H|, matching ``channels.eigenprojectors``),
* per-block coherence removal C_X = pinch(X) - X,
* the phase gate multiplies channel-1 off-diagonals by e^{i phi},
* Td = sqrt(a^2 + |b|^2) for the traceless Hermitian marginal difference.

`td_qc_grid` broadcasts a column of lambdas against a row of thetas, so
cos and sin run once per theta and the (lambda, theta) arrays are never
expanded.

``witness.td_values`` on ``states.qc_matrices`` is the generic form of the
same quantity; the tests hold the two equal.
"""

from __future__ import annotations

import numpy as np

from .linalg import DEGENERACY_GAP, check_finite

BACKEND = "numpy"


def td_qc_grid(lams, thetas, phi: float) -> np.ndarray:
    """Td on the outer grid, shape (len(lams), len(thetas))."""
    lams = np.asarray(lams, dtype=float)[:, None]
    thetas = np.asarray(thetas, dtype=float)
    phi = float(phi)
    c, s = np.cos(thetas), np.sin(thetas)
    w = 1.0 - lams

    bx = 2.0 * w * c * s
    bz = lams + w * (c * c - s * s)
    r = np.hypot(bx, bz)
    deg = r < DEGENERACY_GAP
    rs = np.where(deg, 1.0, r)
    nx = np.where(deg, 0.0, bx / rs)
    nz = np.where(deg, 1.0, bz / rs)

    # Pi = [[p00, p01], [p01, p11]] real symmetric; Q = 1 - Pi
    p00, p11, p01 = (1.0 + nz) / 2.0, (1.0 - nz) / 2.0, nx / 2.0
    q00, q11, q01 = p11, p00, -p01

    def coherence(x00, x01, x11):
        # C = -(Pi X Q + Q X Pi), real symmetric traceless: returns (C00, C01)
        m00 = (p00 * x00 + p01 * x01) * q00 + (p00 * x01 + p01 * x11) * q01
        m01 = (p00 * x00 + p01 * x01) * q01 + (p00 * x01 + p01 * x11) * q11
        m10 = (p01 * x00 + p11 * x01) * q00 + (p01 * x01 + p11 * x11) * q01
        return -2.0 * m00, -(m01 + m10)

    c0_00, c0_01 = coherence(1.0, 0.0, 0.0)
    c1_00, c1_01 = coherence(c * c, c * s, s * s)

    a = lams * c0_00 + w * c1_00
    b = lams * c0_01 + w * np.exp(1j * phi) * c1_01
    return check_finite(np.sqrt(a * a + np.abs(b) ** 2), "witness Td")

