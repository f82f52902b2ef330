"""Closed-form evaluation of the phase-gate discord witness over the QC
state family, used by `Td` parameter sweeps.

It evaluates the Td identity of ``witness.td_values``,
Td = sqrt(M_00^2 + |M_10|^2) with M = sum_e D_e (c_e |pi><pi_perp| + h.c.)
D_e^dagger (see the `witness` docstring), in real arithmetic on the QC
family's closed-form inputs, with no 4x4 state ever built:

* the marginal lam |H><H| + (1 - lam) |theta><theta| has the Bloch vector
  (b_x, b_z) = ((1 - lam) sin 2theta, lam + (1 - lam) cos 2theta), whose
  axis (n_x, n_z) = (sin a, cos a) is that of the leading eigenprojector (a
  degenerate marginal falls back to |H><H|, n_z = 1, as in
  ``channels.eigenprojectors``);
* pi = (cos a/2, sin a/2) and pi_perp = (-sin a/2, cos a/2) are real, so
  c_e = <pi| rho_e |pi_perp> for the blocks lam |H><H| and
  (1 - lam) |theta><theta| is c_0 = -lam n_x / 2 and
  c_1 = (1 - lam) sin(2theta - a) / 2 = (1 - lam)(n_z sin 2theta - n_x cos 2theta) / 2;
* |pi><pi_perp| + h.c. = [[-n_x, n_z], [n_z, n_x]] and D_1 turns the
  off-diagonal n_z into e^{i phi} n_z, so M_00 = -n_x (c_0 + c_1) and
  M_01 = n_z (c_0 + e^{i phi} c_1).

`td_qc_grid` broadcasts a column of lambdas against a row of thetas, so
cos and sin run once per theta and the (lambda, theta) arrays are never
expanded. The tests hold it equal to ``witness.td_values`` on
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
    phi = float(phi)
    c, s = np.cos(thetas), np.sin(thetas)
    sin2, cos2 = 2.0 * c * s, c * c - s * s
    w = 1.0 - lams

    bx = w * sin2
    bz = lams + w * cos2
    r = np.hypot(bx, bz)
    deg = r < DEGENERACY_GAP
    rs = np.where(deg, 1.0, r)
    nx = np.where(deg, 0.0, bx / rs)
    nz = np.where(deg, 1.0, bz / rs)

    c0 = -0.5 * lams * nx
    c1 = 0.5 * w * (nz * sin2 - nx * cos2)
    m00 = -nx * (c0 + c1)
    m01_re = nz * (c0 + np.cos(phi) * c1)
    m01_im = nz * (np.sin(phi) * c1)
    return check_finite(np.sqrt(m00 * m00 + m01_re * m01_re + m01_im * m01_im), "witness Td")
