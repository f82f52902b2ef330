"""T, Td and growth over the QC state family: the family's input to the
Bloch core of ``witness``, so that parameter sweeps build no 4x4 state.

QC(lam, theta) has rho_01 = 0 and the block Bloch vectors r_0 = (0, 0, lam)
and r_1 = (1 - lam) (sin 2theta, 0, cos 2theta), passed as component
sequences with scalar zeros. The marginal's b_z = lam + (1 - lam) cos 2theta
is evaluated as cos^2 theta - (1 - 2 lam) sin^2 theta, which does not cancel
near the degenerate corner (lam, theta) = (1/2, pi/2).
"""

from __future__ import annotations

import numpy as np

from .channels import half_wave_plate
from .linalg import CROSS_CHECK_TOL, NumericalError
from .witness import bloch_axis, bloch_rotation, growth_bloch, t_bloch, td_bloch

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
    n, norm, deg = bloch_axis((bx, 0.0, bz))
    t = t_bloch(r, n)[0]
    alt = np.where(deg, 0.5, lams) * np.abs(bx) / np.where(deg, 1.0, norm)
    if np.any(np.abs(t - alt) > CROSS_CHECK_TOL):
        raise NumericalError(f"discord forms disagree: {t} vs {alt}")
    return t


def td_qc_grid(lams, thetas, phi: float) -> np.ndarray:
    """Td on the outer grid, shape (len(lams), len(thetas))."""
    _, r, bz = _blocks(lams, thetas)
    return td_bloch(r, bloch_axis((r[1][0], 0.0, bz))[0], phi)


def growth_qc_grid(lams, thetas, hwp_angle: float, phi: float) -> np.ndarray:
    """Growth at plate angle hwp_angle and phase phi on the outer grid,
    shape (len(lams), len(thetas))."""
    return growth_bloch(_blocks(lams, thetas)[1], bloch_rotation(half_wave_plate(hwp_angle)), phi)
