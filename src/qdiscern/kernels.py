"""T, Td and growth over the QC state family: the family's input to the
Bloch core of ``witness``, so that parameter sweeps build no 4x4 state.

QC(lam, theta) has rho_01 = 0 and the block Bloch vectors r_0 = (0, 0, lam)
and r_1 = (1 - lam) (sin 2theta, 0, cos 2theta), passed as component
sequences with scalar zeros. The marginal's b_z = lam + (1 - lam) cos 2theta
is evaluated as cos^2 theta - (1 - 2 lam) sin^2 theta, which does not cancel
near the degenerate corner (lam, theta) = (1/2, pi/2). The half-wave plate
V = [[c, s], [s, -c]] = u . sigma, u = (s, 0, c) with c = cos 2alpha and
s = sin 2alpha, has the Bloch rotation O = 2 u u^T - 1.
"""

from __future__ import annotations

import numpy as np

from .linalg import CROSS_CHECK_TOL, DEGENERACY_GAP, NumericalError
from .witness import bloch_axis, growth_bloch, t_bloch, td_bloch

BACKEND = "numpy"


def _blocks(lams, thetas):
    """lam as a column, the blocks' Bloch vectors r, component-major, and the
    marginal's b_z on the outer grid."""
    lams = np.asarray(lams, dtype=float)[:, None]
    thetas = np.asarray(thetas, dtype=float)
    c, s = np.cos(thetas), np.sin(thetas)
    w = 1.0 - lams
    r = ((0.0, 0.0, lams), (w * (2.0 * c * s), 0.0, w * (c * c - s * s)))
    return lams, r, c * c - (1.0 - 2.0 * lams) * (s * s)


def t_qc_grid(lams, thetas) -> np.ndarray:
    """T on the outer grid, shape (len(lams), len(thetas)).

    Cross-checks the core's T against lam |b_x| / |b| (|b_x| / 2 where n = z
    on the degenerate branch) and raises NumericalError if they disagree.
    """
    lams, r, bz = _blocks(lams, thetas)
    bx = r[1][0]
    n, norm = bloch_axis(bx, 0.0, bz)
    t = t_bloch(r, n)[0]
    deg = norm < DEGENERACY_GAP
    alt = np.where(deg, 0.5, lams) * np.abs(bx) / np.where(deg, 1.0, norm)
    if np.any(np.abs(t - alt) > CROSS_CHECK_TOL):
        raise NumericalError(f"discord forms disagree: {t} vs {alt}")
    return t


def td_qc_grid(lams, thetas, phi: float) -> np.ndarray:
    """Td on the outer grid, shape (len(lams), len(thetas))."""
    _, r, bz = _blocks(lams, thetas)
    return td_bloch(r, bloch_axis(r[1][0], 0.0, bz)[0], phi)


def growth_qc_grid(lams, thetas, hwp_angle: float, phi: float) -> np.ndarray:
    """Growth at plate angle hwp_angle and phase phi on the outer grid,
    shape (len(lams), len(thetas))."""
    two_alpha = 2.0 * float(hwp_angle)
    u = (np.sin(two_alpha), 0.0, np.cos(two_alpha))
    o = [[2.0 * ui * uj - (i == j) for j, uj in enumerate(u)] for i, ui in enumerate(u)]
    return growth_bloch(_blocks(lams, thetas)[1], o, phi)
