"""Random states and unitaries for the tests."""

import numpy as np

from qdiscern.linalg import DensityMatrix


def random_density(rng: np.random.Generator, dim: int, dims=None) -> DensityMatrix:
    """Random full-rank state (Ginibre construction)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    m /= m.trace()
    return DensityMatrix(m, dims if dims is not None else (dim,))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))
