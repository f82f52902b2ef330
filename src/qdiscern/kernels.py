"""T, Td and growth over the QC state family in closed form, used by
parameter sweeps with no 4x4 state ever built.

With (b_x, b_z) = ((1 - lam) sin 2theta, lam + (1 - lam) cos 2theta) the Bloch
vector of the system marginal and |b| = hypot(b_x, b_z):

  T  = |c_0| + |c_1| = lam |b_x| / |b|,
  Td = |sin(phi/2)| lam (1 - lam) sin 2theta |b_z| / (b_x^2 + b_z^2)
     = |sin(phi/2)| T |b_z| / |b|,

where c_e = <pi|rho_e|pi_perp> are the coherences of the two environment
blocks in the marginal's eigenbasis; c_0 = -c_1 because pi diagonalizes their
sum. On the zero line of the phi = pi witness b_z = 0, so Td = 0 while
T = lam. b_z is evaluated as cos^2 theta - (1 - 2 lam) sin^2 theta, which
does not cancel near the degenerate corner (lam, theta) = (1/2, pi/2). Where
|b| is below `DEGENERACY_GAP` the projector is |H><H|, as in
``channels.eigenprojectors``; then c_0 = 0 and c_1 = b_x / 2, and
T = Td = |b_x| / 2 at every phi.

Growth needs no eigenbasis. The environment blocks rho_0 = lam |H><H| and
rho_1 = (1 - lam) |theta><theta| are real, and the half-wave plate
V = [[c, s], [s, -c]], c = cos 2alpha and s = sin 2alpha, is a real
involution that maps |beta> to |2alpha - beta>. So with u = sin(2theta - 2alpha)
the blocks Y_e = V rho_e V - rho_e are real and traceless:

  Y_0 = lam s [[-s, c], [c, s]],   Y_1 = (1 - lam) u [[s, -c], [-c, -s]].

Their evolved distance, 1/2 |w_0 + R_phi w_1| over their Bloch vectors w_e as
in the ``witness`` docstring, takes m00 = s ((1 - lam) u - lam s),
x_0 = lam c s and x_1 = -(1 - lam) c u (half the z component of w_0 + w_1
and half the x components of w_0 and w_1; the y components are 0), and

  growth = sqrt(m00^2 + |x_0 + e^{-i phi} x_1|^2) - sqrt(m00^2 + (x_0 + x_1)^2).

Both terms are evaluated in this form, in real arithmetic. The phi = 0 term
is not shortened to |m00| / |s|, which divides by s = 0 at alpha = 0 mod pi/2.
The tests hold T equal to ``witness.discord_values`` and growth to
``witness.growth_values`` on ``states.qc_matrices``. They hold Td equal to
``witness.td_values`` within 1e-15 where |b| >= 0.1, and within Td's
forward-error bound ``witness.td_error_bound`` everywhere: the kernel
evaluates Td at (lam, theta), the witness at the rounded entries of the
state, and beside the degenerate corner Td is ill-conditioned.
"""

from __future__ import annotations

import numpy as np

from .linalg import CROSS_CHECK_TOL, DEGENERACY_GAP, NumericalError, check_finite

BACKEND = "numpy"


def _bloch(lams, thetas):
    """lam as a column, the Bloch components b_x and b_z on the outer grid,
    and cos theta and sin theta."""
    lams = np.asarray(lams, dtype=float)[:, None]
    thetas = np.asarray(thetas, dtype=float)
    c, s = np.cos(thetas), np.sin(thetas)
    bx = (1.0 - lams) * (2.0 * c * s)
    bz = c * c - (1.0 - 2.0 * lams) * (s * s)
    return lams, bx, bz, c, s


def t_qc_grid(lams, thetas) -> np.ndarray:
    """T on the outer grid, shape (len(lams), len(thetas)).

    Cross-checks lam |b_x| / |b| against |c_0| + |c_1| and raises
    NumericalError if the two disagree.
    """
    lams, bx, bz, c, s = _bloch(lams, thetas)
    r = np.hypot(bx, bz)
    deg = r < DEGENERACY_GAP
    r = np.where(deg, 1.0, r)
    t = check_finite(np.where(deg, 0.5 * np.abs(bx), lams * np.abs(bx) / r), "discord T")
    # |c_1| = (1 - lam) |b_z sin 2theta - b_x cos 2theta| / (2 |b|), and |c_0| = T / 2
    c1 = (1.0 - lams) * np.abs(bz * (2.0 * c * s) - bx * (c * c - s * s)) / (2.0 * r)
    alt = np.where(deg, t, 0.5 * t + c1)
    if np.any(np.abs(t - alt) > CROSS_CHECK_TOL):
        raise NumericalError(f"discord forms disagree: {t} vs {alt}")
    return t


def td_qc_grid(lams, thetas, phi: float) -> np.ndarray:
    """Td on the outer grid, shape (len(lams), len(thetas))."""
    lams, bx, bz, _, _ = _bloch(lams, thetas)
    r2 = bx * bx + bz * bz
    deg = np.hypot(bx, bz) < DEGENERACY_GAP
    td = abs(np.sin(0.5 * float(phi))) * lams * np.abs(bx * bz) / np.where(deg, 1.0, r2)
    return check_finite(np.where(deg, 0.5 * np.abs(bx), td), "witness Td")


def growth_qc_grid(lams, thetas, hwp_angle: float, phi: float) -> np.ndarray:
    """Growth at plate angle hwp_angle and phase phi on the outer grid,
    shape (len(lams), len(thetas))."""
    lams = np.asarray(lams, dtype=float)[:, None]
    thetas = np.asarray(thetas, dtype=float)
    alpha, phi = float(hwp_angle), float(phi)
    c, s = np.cos(2 * alpha), np.sin(2 * alpha)
    u = np.sin(2.0 * (thetas - alpha))
    m00 = s * ((1.0 - lams) * u - lams * s)
    x0 = lams * (c * s)
    x1 = -(1.0 - lams) * (c * u)
    m2 = m00 * m00
    m10_re, m10_im = x0 + np.cos(phi) * x1, -np.sin(phi) * x1  # x0 + e^{-i phi} x1
    m10_zero = x0 + x1  # the same at phi = 0
    at_phi = np.sqrt(m2 + m10_re * m10_re + m10_im * m10_im)
    return check_finite(at_phi - np.sqrt(m2 + m10_zero * m10_zero), "growth witness")
