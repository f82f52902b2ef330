"""Simulated Pauli tomography with finite shot budgets.

A measurement setting is a Pauli product basis named by its label: one
letter of Z (H/V), X (D/A) or Y (R/L) per qubit, system first. Counts are
multinomial per setting; reconstruction is linear inversion followed by
projection onto the physical set, with parametric bootstrap for error bars
(James, Kwiat, Munro & White, PRA 64, 052312 (2001)). The projection is
Smolin-Gambetta-Smith's: clip the negative eigenvalue mass and keep the
trace.

One qubit is tomographed in real Bloch coordinates, component-major as in
`witness`: a state is its Bloch vector s (3, ...), rho = (1 + s . sigma)/2.
A setting on axis a (Z -> z, X -> x, Y -> y) has the Born probabilities
p+- = (1 +- s_a)/2 (`bloch_probabilities`); the linear-inversion estimate
of s_a is f+ - f-, averaged over the settings that measure axis a
(`bloch_estimates`); and the projection, whose eigenvalues are
(1 -+ |s|)/2, clips the estimate to the unit ball (`_unit_ball`). So a
one-qubit experiment runs no matrix product and no eigendecomposition.
Matrix callers (`outcome_probabilities`, `linear_inversion`,
`reconstruct_batch`, `sample_reconstructions`, `simulate_counts`,
`reconstruct` and `project_to_physical` on (2, 2) input) convert to and
from Bloch vectors at the boundary.

Two qubits go through the design: the rows vec(conj P) of a label list's
projectors, and their pseudo-inverse, are built once per label list and
serve both directions. The rows give every Born probability of an
experiment in one row-vector product, Tr(P rho) = vec(conj P).vec(rho),
the pseudo-inverse gives the linear-inversion estimate, and the projection
goes through eigh.

Probabilities, inversion and projection work on stacked states and
frequency vectors; one run is a batch of one, equal bit for bit to its
row of a stacked call. Seeding is deterministic: one experiment draws
every setting, in order, from one generator built from its seed, an int
or a `numpy.random.SeedSequence`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import (ESTIMATE_TRACE_TOL, HERM_TOL, PROB_DRIFT_TOL, DensityMatrix,
                     hermiticity_defect, kron)
from .witness import _components, bloch_matrix

_KETS = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "A": np.array([1, -1], dtype=complex) / np.sqrt(2),
    "R": np.array([1, 1j], dtype=complex) / np.sqrt(2),
    "L": np.array([1, -1j], dtype=complex) / np.sqrt(2),
}
_BASES = {"Z": ("H", "V"), "X": ("D", "A"), "Y": ("R", "L")}
# the Bloch axis, as a component index, that a one-qubit setting measures
_AXIS = {"X": 0, "Y": 1, "Z": 2}
_SIGNS = np.array([1.0, -1.0])  # the outcomes +, - of a one-qubit setting


@functools.cache
def _projectors(label: str) -> np.ndarray:
    """The read-only (k, d, d) projectors of a valid label; a two-qubit
    setting measures its first letter on the system, its second on the
    environment."""
    if len(label) == 1:
        projs = np.array([np.outer(_KETS[k], _KETS[k].conj()) for k in _BASES[label]])
    else:
        a, b = (_projectors(letter) for letter in label)
        projs = kron(a[:, None], b[None]).reshape(-1, 4, 4)
    projs.setflags(write=False)
    return projs


@dataclass(frozen=True)
class MeasurementSetting:
    """One Pauli product basis, named by its label ('Z' or 'ZX' etc.). Its
    projectors, and the rows and pinv of a label list, follow from the
    labels and are built once, so settings hash and compare by label."""

    label: str

    def __post_init__(self):
        if not (isinstance(self.label, str) and 1 <= len(self.label) <= 2
                and set(self.label) <= _BASES.keys()):
            raise ValueError(f"unknown setting label {self.label!r}")

    @property
    def projectors(self) -> np.ndarray:
        return _projectors(self.label)


@functools.cache
def _defaults() -> dict[int, list[MeasurementSetting]]:
    """The default settings by qubit count, ZZ, ZX, ..., YY for two."""
    return {n: [MeasurementSetting("".join(p)) for p in itertools.product(_BASES, repeat=n)]
            for n in (1, 2)}


def default_settings(n_qubits: int) -> list[MeasurementSetting]:
    """Three Pauli bases per qubit: 3 settings for n=1, 9 for n=2."""
    defaults = _defaults()
    if n_qubits not in defaults:
        raise ValueError(f"unsupported n_qubits {n_qubits}")
    return list(defaults[n_qubits])


def _is_count(n) -> bool:
    """Whether n is a non-negative integer; bool is not a count."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 0


@dataclass(frozen=True)
class TomographyRecord:
    settings: tuple
    counts: tuple  # one integer tuple per setting
    shots_per_setting: int
    seed: int

    def __post_init__(self):
        if not _is_count(self.shots_per_setting) or self.shots_per_setting == 0:
            raise ValueError(f"shots_per_setting must be a positive integer, "
                             f"got {self.shots_per_setting!r}")
        if not _is_count(self.seed):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not self.settings:
            raise ValueError("no measurement setting was given")
        if len(self.counts) != len(self.settings):
            raise ValueError(f"need one count tuple per setting, got {len(self.counts)} "
                             f"for {len(self.settings)}")
        for setting, c in zip(self.settings, self.counts):
            if len(c) != len(setting.projectors):
                raise ValueError("counts shape does not match settings")
            if not all(map(_is_count, c)):
                raise ValueError(f"counts must be non-negative integers, got {c!r}")
            if sum(c) != self.shots_per_setting:
                raise ValueError("counts within a setting must sum to the shot budget")
        # plain Python ints: JSON-serializable, as in ProtocolConfig
        object.__setattr__(self, "shots_per_setting", int(self.shots_per_setting))
        object.__setattr__(self, "seed", int(self.seed))

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
        settings = tuple(MeasurementSetting(label) for label in d["settings"])
        counts = tuple(tuple(c) for c in d["counts"])
        return cls(settings, counts, d["shots"], d["seed"])


@dataclass(frozen=True)
class ReconstructedState:
    estimate: DensityMatrix
    std_errors: np.ndarray | None
    bootstrap_samples: int


@functools.cache
def _rows(labels: tuple[str, ...]) -> np.ndarray:
    """The stacked rows vec(conj P), (M, 16), of a two-qubit label list's projectors."""
    return np.concatenate([_projectors(label).conj().reshape(-1, 16) for label in labels])


@functools.cache
def _pinv(labels: tuple[str, ...]) -> np.ndarray:
    """Least-squares inverse of the map vec(rho) -> outcome probabilities,
    for a two-qubit label list."""
    rows = _rows(labels)
    if np.linalg.matrix_rank(rows) < rows.shape[1]:
        raise ValueError("singular design: settings are not informationally complete")
    return np.linalg.pinv(rows)


def _labels(settings) -> tuple[str, ...]:
    return tuple(s.label for s in settings)


@functools.cache
def _axis_groups(labels: tuple[str, ...]) -> tuple[list, list, np.ndarray, np.ndarray]:
    """For a one-qubit label list: the axis index that each setting
    measures, the settings in axis order x, y, z, where each axis's group
    starts in that order, and the group sizes."""
    axes = [_AXIS[label] for label in labels]
    sizes = np.bincount(axes, minlength=3)
    return axes, sorted(range(len(axes)), key=axes.__getitem__), np.cumsum(sizes) - sizes, sizes


def bloch_probabilities(s: np.ndarray, settings) -> list[np.ndarray]:
    """Born probabilities (1 + s_a, 1 - s_a) / 2 of one-qubit settings for
    Bloch vectors s (3, ...): one (..., 2) array per setting, clamped to
    [0, 1]. Each pair sums to 1 up to rounding; a probability below
    -PROB_DRIFT_TOL, |s_a| > 1 + 2 PROB_DRIFT_TOL, signals an invalid state."""
    sa = np.asarray(s)[_axis_groups(_labels(settings))[0]]
    p = (1.0 + sa[..., None] * _SIGNS) / 2
    if p.min() < -PROB_DRIFT_TOL:
        raise ValueError(f"outcome probabilities drifted beyond tolerance: {p}")
    return list(np.clip(p, 0.0, 1.0))


def bloch_estimates(settings, frequencies: np.ndarray) -> np.ndarray:
    """Linear-inversion Bloch vectors (3, ...) from the outcome frequencies
    (..., 2k) of k one-qubit settings: per axis, f+ - f- averaged over the
    settings that measure it (may lie outside the unit ball)."""
    _, order, starts, sizes = _axis_groups(_labels(settings))
    if not sizes.all():
        raise ValueError("singular design: settings are not informationally complete")
    f = _components(np.asarray(frequencies))
    diffs = (f[0::2] - f[1::2])[order]
    return np.add.reduceat(diffs, starts, axis=0) / sizes.reshape(3, *[1] * (diffs.ndim - 1))


def _unit_ball(r: np.ndarray) -> np.ndarray:
    """The physicality projection of Bloch vectors r (3, ...): r / max(|r|, 1)."""
    return r / np.maximum(np.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2]), 1.0)


def _bloch(m: np.ndarray) -> np.ndarray:
    """Bloch vectors (3, ...) of stacked (..., 2, 2) matrices, read like
    eigvalsh from the diagonal's real part and the lower triangle."""
    low = m[..., 1, 0]
    return np.array([2.0 * low.real, 2.0 * low.imag, m[..., 0, 0].real - m[..., 1, 1].real])


def _is_qubit(settings) -> bool:
    return len(settings[0].label) == 1


def outcome_probabilities(rho_mat: np.ndarray, settings) -> list[np.ndarray]:
    """Born probabilities of every setting for stacked states (..., d, d):
    one (..., k) array per setting, clamped and renormalized within
    PROB_DRIFT_TOL; larger drift signals an invalid state. One qubit goes
    through `bloch_probabilities`, whose probabilities sum to 1, so a trace
    off 1 by more than PROB_DRIFT_TOL is drift there."""
    rho_mat = np.asarray(rho_mat)
    if rho_mat.shape[-1] == 2:
        tr = rho_mat[..., 0, 0].real + rho_mat[..., 1, 1].real
        if np.abs(tr - 1.0).max() > PROB_DRIFT_TOL:
            raise ValueError(f"outcome probabilities drifted beyond tolerance: trace {tr}")
        return bloch_probabilities(_bloch(rho_mat), settings)
    rows = _rows(_labels(settings))
    vec = rho_mat.reshape(*rho_mat.shape[:-2], 1, rows.shape[1])
    # one row-vector product per state: a stacked (n, d*d) @ (d*d, M) product
    # rounds differently from its rows, so a stacked call would not be n
    # one-state calls
    p = (vec @ rows.T)[..., 0, :].real
    p = p.reshape(*p.shape[:-1], len(settings), -1)
    if p.min() < -PROB_DRIFT_TOL or np.abs(p.sum(axis=-1) - 1.0).max() > PROB_DRIFT_TOL:
        raise ValueError(f"outcome probabilities drifted beyond tolerance: {p}")
    p = np.clip(p, 0.0, 1.0)
    p = p / p.sum(axis=-1, keepdims=True)
    return [p[..., i, :] for i in range(len(settings))]


def _multinomial(probs_per_setting, shots: int, n_samples: int, seed) -> list:
    """Counts per setting, drawn in turn from one generator on `seed`.

    A probability vector (k,) gives n_samples draws (n_samples, k); an
    (n, k) array gives one draw per row.
    """
    rng = np.random.default_rng(seed)
    return [rng.multinomial(shots, p, size=n_samples if np.ndim(p) == 1 else None)
            for p in probs_per_setting]


def simulate_counts(rho, settings, shots: int, seed: int) -> TomographyRecord:
    """One experiment of `shots` per setting from the stream of `seed`, drawn
    as a batch of one of `sample_frequencies`. `rho` is a DensityMatrix or a (d, d) matrix."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    if not settings:
        raise ValueError("no measurement setting was given")
    rho_mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho)
    for setting in settings:
        if 2 ** len(setting.label) != rho_mat.shape[-1]:
            raise ValueError(f"setting {setting.label!r} measures {len(setting.label)} qubit(s), "
                             f"but the state has dimension {rho_mat.shape[-1]}")
    counts = _multinomial(outcome_probabilities(rho_mat, settings), shots, 1, seed)
    return TomographyRecord(tuple(settings), tuple(tuple(c[0].tolist()) for c in counts), shots, seed)


def linear_inversion(settings, frequencies: np.ndarray) -> np.ndarray:
    """Hermitian unit-trace estimates (..., d, d) from outcome frequencies
    (..., M) (may be unphysical)."""
    if _is_qubit(settings):
        return bloch_matrix(bloch_estimates(settings, frequencies))
    pinv = _pinv(_labels(settings))
    freqs = np.asarray(frequencies, dtype=complex)
    # one row-vector product per estimate, as in outcome_probabilities
    m = (freqs[..., None, :] @ pinv.T).reshape(*freqs.shape[:-1], 4, 4)
    m = (m + np.swapaxes(m.conj(), -1, -2)) / 2
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def _truncate_rescale(w: np.ndarray) -> np.ndarray:
    """Truncate-and-rescale over ascending eigenvalues w (..., d) of
    positive sum, in closed form: with S_i = w_0 + ... + w_{i-1}, the first
    k with w_k + S_k/(d-k) >= 0 keeps w_k .. w_{d-1}, each raised by
    S_k/(d-k), and zeroes the rest. Preserves each sum."""
    d = w.shape[-1]
    idx = np.arange(d)
    s = np.concatenate([np.zeros_like(w[..., :1]), np.cumsum(w[..., :-1], axis=-1)], axis=-1)
    shift = s / (d - idx)
    k = np.argmax(w + shift >= 0, axis=-1)[..., None]
    return np.where(idx >= k, w + np.take_along_axis(shift, k, axis=-1), 0.0)


def _physical(h: np.ndarray) -> np.ndarray:
    """Nearest density matrices to stacked Hermitian h, after dividing each
    by its trace: clip the negative eigenvalue mass and keep the trace
    (Smolin, Gambetta & Smith, PRL 108, 070502 (2012)).

    For d = 2, h = (1 + n.sigma)/2 has eigenvalues (1 -+ |n|)/2. Inside the
    Bloch ball (|n| <= 1) nothing is negative and h is kept. Outside it the
    truncate-and-rescale sweep moves the negative eigenvalue onto the other
    one, which becomes 1: the pure state (1 + n.sigma/|n|)/2 along the
    Bloch direction. So the projection is `_unit_ball` on the Bloch vector.
    Larger d goes through eigh and `_truncate_rescale`.
    """
    tr = np.trace(h, axis1=-2, axis2=-1).real
    h = h / tr[..., None, None]
    if h.shape[-1] == 2:
        return bloch_matrix(_unit_ball(_bloch(h)))
    w, v = np.linalg.eigh(h)
    w = _truncate_rescale(w)
    w /= w.sum(axis=-1, keepdims=True)
    return (v * w[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def project_to_physical(h: np.ndarray) -> DensityMatrix:
    """Nearest density matrix: clip negative eigenvalue mass, keep the trace."""
    h = np.asarray(h, dtype=complex)
    if hermiticity_defect(h) > HERM_TOL:
        raise ValueError("project_to_physical expects a Hermitian matrix")
    tr = h.trace().real
    if abs(tr - 1.0) > ESTIMATE_TRACE_TOL:
        raise ValueError(f"trace {tr} too far from 1")
    d = h.shape[0]
    return DensityMatrix(_physical(h), (2, 2) if d == 4 else (d,))


def reconstruct_batch(settings, freqs: np.ndarray) -> np.ndarray:
    """Linear inversion + physicality projection of (..., M) frequencies."""
    if _is_qubit(settings):
        return bloch_matrix(_unit_ball(bloch_estimates(settings, freqs)))
    return _physical(linear_inversion(settings, freqs))


def sample_frequencies(probs_per_setting, shots: int, n_samples: int, seed) -> np.ndarray:
    """Multinomial frequency samples, concatenated over settings into (n, M).

    Each entry of probs_per_setting is either one probability vector or a
    per-sample (n, k) array; the settings draw in turn from the stream of
    `seed` (an int or a SeedSequence), as in simulate_counts.
    """
    return np.concatenate(_multinomial(probs_per_setting, shots, n_samples, seed), axis=1) / shots


def sample_reconstructions(rho_mat: np.ndarray, settings, shots: int,
                           n_samples: int, seed) -> np.ndarray:
    """Reconstructions of n_samples independent synthetic runs on rho_mat,
    one state (d, d) or one state per run (n_samples, d, d)."""
    probs = outcome_probabilities(rho_mat, settings)
    return reconstruct_batch(settings, sample_frequencies(probs, shots, n_samples, seed))


def sample_bloch(s: np.ndarray, settings, shots: int, n_samples: int, seed) -> np.ndarray:
    """`sample_reconstructions` of one-qubit settings in Bloch coordinates:
    the physical Bloch vectors (3, n_samples) of n_samples independent
    synthetic runs on one state s (3,) or on one state per run (3, n_samples)."""
    freqs = sample_frequencies(bloch_probabilities(s, settings), shots, n_samples, seed)
    return _unit_ball(bloch_estimates(settings, freqs))


def reconstruct(record: TomographyRecord, bootstrap_samples: int = 200) -> ReconstructedState:
    """Linear inversion + physicality projection, with parametric bootstrap
    per-entry standard errors (none at bootstrap_samples = 0) drawn from the
    first child of SeedSequence(record.seed): the record fixes both alone."""
    if not _is_count(bootstrap_samples):
        raise ValueError(f"bootstrap_samples must be a non-negative integer, got {bootstrap_samples!r}")
    mat = reconstruct_batch(record.settings, record.frequencies())
    estimate = DensityMatrix(mat, (2,) if _is_qubit(record.settings) else (2, 2))
    std_errors = None
    if bootstrap_samples > 0:
        replicas = sample_reconstructions(
            estimate.mat, record.settings, record.shots_per_setting, bootstrap_samples,
            np.random.SeedSequence(record.seed, spawn_key=(0,)))
        std_errors = np.sqrt(replicas.real.var(axis=0) + replicas.imag.var(axis=0))
    return ReconstructedState(estimate, std_errors, bootstrap_samples)
