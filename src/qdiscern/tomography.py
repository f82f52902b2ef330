"""Simulated projective tomography with finite shot budgets.

Counts are multinomial per measurement setting; reconstruction is linear
inversion followed by projection onto the physical set, with parametric
bootstrap for error bars. The projection is Smolin-Gambetta-Smith's: clip
the negative eigenvalue mass and keep the trace. For one qubit it has a
closed form, the Bloch vector clipped to the unit ball (see `_physical`);
two-qubit estimates go through eigh. Probabilities, inversion and
projection work on stacked states and frequency vectors; one run is a
batch of one, equal bit for bit to its row of a stacked call. Seeding
is deterministic: setting i of a run seeded with s uses stream s + i, so
per-setting sampling is independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (COMPLETENESS_TOL, ESTIMATE_TRACE_TOL, HERM_TOL, PROB_DRIFT_TOL,
                     DensityMatrix, hermiticity_defect, kron)

_BOOT_SEED_OFFSET = 1_000_003  # keeps bootstrap streams clear of setting streams

_KETS = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "A": np.array([1, -1], dtype=complex) / np.sqrt(2),
    "R": np.array([1, 1j], dtype=complex) / np.sqrt(2),
    "L": np.array([1, -1j], dtype=complex) / np.sqrt(2),
}
_BASES = {"Z": ("H", "V"), "X": ("D", "A"), "Y": ("R", "L")}


@dataclass(frozen=True)
class MeasurementSetting:
    """One measurement basis: orthonormal rank-1 projectors summing to 1,
    kept as one read-only (k, d, d) array."""

    label: str
    projectors: np.ndarray

    def __post_init__(self):
        projs = np.array(self.projectors, dtype=complex)
        projs.setflags(write=False)
        object.__setattr__(self, "projectors", projs)
        if np.abs(projs.sum(axis=0) - np.eye(projs.shape[-1])).max() > COMPLETENESS_TOL:
            raise ValueError(f"projectors of setting {self.label!r} do not sum to identity")

    @property
    def dim(self) -> int:
        return self.projectors.shape[-1]


def _product(a: MeasurementSetting, b: MeasurementSetting) -> MeasurementSetting:
    """The two-qubit setting measuring a on the system and b on the environment."""
    projs = kron(a.projectors[:, None], b.projectors[None]).reshape(-1, 4, 4)
    return MeasurementSetting(a.label + b.label, projs)


_PAULI = [MeasurementSetting(b, [np.outer(_KETS[k], _KETS[k].conj()) for k in kets])
          for b, kets in _BASES.items()]
_DEFAULT_SETTINGS = {1: _PAULI, 2: [_product(a, b) for a in _PAULI for b in _PAULI]}
_BY_LABEL = {s.label: s for settings in _DEFAULT_SETTINGS.values() for s in settings}


def setting_from_label(label: str) -> MeasurementSetting:
    """A default setting by its label ('Z' or 'ZX' etc.)."""
    if label not in _BY_LABEL:
        raise ValueError(f"unknown setting label {label!r}")
    return _BY_LABEL[label]


def default_settings(n_qubits: int) -> list[MeasurementSetting]:
    """Three Pauli bases per qubit: 3 settings for n=1, 9 for n=2."""
    if n_qubits not in _DEFAULT_SETTINGS:
        raise ValueError(f"unsupported n_qubits {n_qubits}")
    return list(_DEFAULT_SETTINGS[n_qubits])


@dataclass(frozen=True)
class TomographyRecord:
    settings: tuple
    counts: tuple  # one integer tuple per setting
    shots_per_setting: int
    seed: int

    def __post_init__(self):
        if len(self.counts) != len(self.settings):
            raise ValueError(f"need one count tuple per setting, got {len(self.counts)} "
                             f"for {len(self.settings)}")
        for setting, c in zip(self.settings, self.counts):
            if len(c) != len(setting.projectors):
                raise ValueError("counts shape does not match settings")
            if sum(c) != self.shots_per_setting:
                raise ValueError("counts within a setting must sum to the shot budget")

    def frequencies(self) -> np.ndarray:
        return np.concatenate([np.asarray(c) for c in self.counts]) / self.shots_per_setting

    def to_json(self) -> dict:
        return {
            "settings": [s.label for s in self.settings],
            "shots": self.shots_per_setting,
            "seed": self.seed,
            "counts": [list(map(int, c)) for c in self.counts],
        }

    @classmethod
    def from_json(cls, d: dict) -> "TomographyRecord":
        settings = tuple(setting_from_label(lbl) for lbl in d["settings"])
        counts = tuple(tuple(c) for c in d["counts"])
        return cls(settings, counts, d["shots"], d["seed"])


@dataclass(frozen=True)
class ReconstructedState:
    estimate: DensityMatrix
    std_errors: np.ndarray | None
    bootstrap_samples: int


def outcome_probabilities(rho_mat: np.ndarray, setting: MeasurementSetting) -> np.ndarray:
    """Born probabilities (..., k) of one setting for stacked states
    (..., d, d), clamped and renormalized within PROB_DRIFT_TOL; larger
    drift signals an invalid state."""
    prods = setting.projectors @ np.asarray(rho_mat)[..., None, :, :]
    p = np.trace(prods, axis1=-2, axis2=-1).real
    if p.min() < -PROB_DRIFT_TOL or np.abs(p.sum(axis=-1) - 1.0).max() > PROB_DRIFT_TOL:
        raise ValueError(f"outcome probabilities drifted beyond tolerance: {p}")
    p = np.clip(p, 0.0, 1.0)
    return p / p.sum(axis=-1, keepdims=True)


def _multinomial(probs_per_setting, shots: int, n_samples: int | None, seed: int) -> list:
    """Counts per setting; setting i draws from stream seed + i.

    A probability vector (k,) gives n_samples draws (n_samples, k), or one
    draw (k,) when n_samples is None; an (n, k) array gives one draw per row.
    """
    return [np.random.default_rng(seed + i).multinomial(
                shots, p, size=n_samples if np.ndim(p) == 1 else None)
            for i, p in enumerate(probs_per_setting)]


def simulate_counts(rho, settings, shots: int, seed: int) -> TomographyRecord:
    """One multinomial draw of `shots` per setting; setting i uses stream seed+i.
    `rho` is a DensityMatrix or a plain (d, d) matrix."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    rho_mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho)
    counts = _multinomial([outcome_probabilities(rho_mat, s) for s in settings], shots, None, seed)
    return TomographyRecord(tuple(settings), tuple(tuple(c.tolist()) for c in counts), shots, seed)


_PINV_CACHE: dict = {}


def _design_pinv(settings) -> tuple[np.ndarray, np.ndarray, int]:
    """Least-squares inverse of the map vec(rho) -> outcome probabilities,
    cached under the projectors themselves: a label names no design."""
    dim = settings[0].dim
    key = tuple((s.projectors.shape, s.projectors.tobytes()) for s in settings)
    if key not in _PINV_CACHE:
        a = np.concatenate([s.projectors.conj().reshape(-1, dim * dim) for s in settings])
        if np.linalg.matrix_rank(a) < dim * dim:
            raise ValueError("singular design: settings are not informationally complete")
        _PINV_CACHE[key] = (a, np.linalg.pinv(a), dim)
    return _PINV_CACHE[key]


def linear_inversion(settings, frequencies: np.ndarray) -> np.ndarray:
    """Hermitian unit-trace estimates (..., d, d) from outcome frequencies
    (..., M) (may be unphysical)."""
    _, pinv, dim = _design_pinv(settings)
    freqs = np.asarray(frequencies, dtype=complex)
    # one row-vector product per estimate: a (B, M) @ (M, d*d) product rounds
    # differently from its rows, so a stacked call would not be B one-row calls
    m = (freqs[..., None, :] @ pinv.T).reshape(*freqs.shape[:-1], dim, dim)
    m = (m + np.swapaxes(m.conj(), -1, -2)) / 2
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def _truncate_rescale(w: np.ndarray) -> np.ndarray:
    """Truncate-and-rescale sweep over ascending eigenvalues (..., d);
    preserves each sum."""
    out = w.reshape(-1, w.shape[-1]).copy()
    n, d = out.shape
    shift = np.zeros(n)
    done = np.zeros(n, dtype=bool)
    for i in range(d):
        rest = d - i
        neg = (out[:, i] + shift / rest < 0) & ~done
        shift[neg] += out[neg, i]
        out[neg, i] = 0.0
        fin = ~neg & ~done
        out[fin, i:] += (shift[fin] / rest)[:, None]
        done |= fin
    return out.reshape(w.shape)


def _physical(h: np.ndarray) -> np.ndarray:
    """Nearest density matrices to stacked Hermitian h, after dividing each
    by its trace: clip the negative eigenvalue mass and keep the trace
    (Smolin, Gambetta & Smith, PRL 108, 070502 (2012)).

    For d = 2, h = (1 + n.sigma)/2 has eigenvalues (1 -+ |n|)/2. Inside the
    Bloch ball (|n| <= 1) nothing is negative and h is kept. Outside it the
    truncate-and-rescale sweep moves the negative eigenvalue onto the other
    one, which becomes 1: the pure state (1 + n.sigma/|n|)/2 along the
    Bloch direction. So the projection divides n by max(|n|, 1), in closed
    form; with z = (h00 - h11)/2 and x = h10, |n| = 2 sqrt(z^2 + |x|^2).
    Larger d goes through eigh and `_truncate_rescale`.
    """
    tr = np.trace(h, axis1=-2, axis2=-1).real
    h = h / tr[..., None, None]
    if h.shape[-1] == 2:
        z = (h[..., 0, 0].real - h[..., 1, 1].real) / 2
        x = h[..., 1, 0]
        scale = np.maximum(2 * np.hypot(z, np.abs(x)), 1.0)
        z, x = z / scale, x / scale
        return np.stack([0.5 + z, x.conj(), x, 0.5 - z], axis=-1).reshape(h.shape)
    w, v = np.linalg.eigh(h)
    w = _truncate_rescale(w)
    w /= w.sum(axis=-1, keepdims=True)
    return (v * w[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def project_to_physical(h: np.ndarray, dims=None) -> DensityMatrix:
    """Nearest density matrix: clip negative eigenvalue mass, keep the trace."""
    h = np.asarray(h, dtype=complex)
    if hermiticity_defect(h) > HERM_TOL:
        raise ValueError("project_to_physical expects a Hermitian matrix")
    tr = h.trace().real
    if abs(tr - 1.0) > ESTIMATE_TRACE_TOL:
        raise ValueError(f"trace {tr} too far from 1")
    d = h.shape[0]
    if dims is None:
        dims = (2, 2) if d == 4 else (d,)
    return DensityMatrix(_physical(h), dims)


def reconstruct_batch(settings, freqs: np.ndarray) -> np.ndarray:
    """Linear inversion + physicality projection of (..., M) frequencies."""
    return _physical(linear_inversion(settings, freqs))


def sample_frequencies(probs_per_setting, shots: int, n_samples: int, seed: int) -> np.ndarray:
    """Multinomial frequency samples, concatenated over settings into (n, M).

    Each entry of probs_per_setting is either one probability vector or a
    per-sample (n, k) array; setting i uses stream seed + i as in
    simulate_counts.
    """
    return np.concatenate(_multinomial(probs_per_setting, shots, n_samples, seed), axis=1) / shots


def sample_reconstructions(rho_mat: np.ndarray, settings, shots: int,
                           n_samples: int, seed: int) -> np.ndarray:
    """Reconstructions of n_samples independent synthetic runs on rho_mat,
    one state (d, d) or one state per run (n_samples, d, d)."""
    probs = [outcome_probabilities(rho_mat, s) for s in settings]
    return reconstruct_batch(settings, sample_frequencies(probs, shots, n_samples, seed))


def reconstruct(record: TomographyRecord, bootstrap_samples: int = 200,
                bootstrap_seed: int | None = None) -> ReconstructedState:
    """Linear inversion + physicality projection, with parametric bootstrap
    per-entry standard errors (skipped when bootstrap_samples = 0)."""
    estimate = project_to_physical(linear_inversion(record.settings, record.frequencies()))
    std_errors = None
    if bootstrap_samples > 0:
        if bootstrap_seed is None:
            bootstrap_seed = record.seed + _BOOT_SEED_OFFSET
        replicas = sample_reconstructions(
            estimate.mat, record.settings, record.shots_per_setting,
            bootstrap_samples, bootstrap_seed)
        std_errors = np.sqrt(replicas.real.var(axis=0) + replicas.imag.var(axis=0))
    return ReconstructedState(estimate, std_errors, bootstrap_samples)
