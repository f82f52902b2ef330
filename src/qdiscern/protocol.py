"""The cascading two-stage classifier.

Stage 1 dephases the state in its system eigenbasis and tests the
phase-gate discord witness; a firing witness means quantum correlations
(QC). Otherwise stage 2 rotates the system with a half-wave plate and
tests for growth of the marginal trace distance: growth means classical
correlations (CC). Growth is sufficient for correlation, not necessary, so
no growth reads F, "no correlation detected", not "factorized": some
correlated states never grow (the README's sign rule).

Both modes run this cascade through one function, `_cascade`; a mode only
says how it measures each stage's value, threshold and error bar. Both
stages run once, at phi. thresholds_used["stage2_threshold"] is None unless
stage 2 ran.

Exact mode computes both witnesses from the Bloch vectors of the state's two
environment blocks (`witness.block_bloch`) and runs no eigendecomposition:
the dephasing axis is n = b / |b| for the Bloch vector b of the system
marginal, and a marginal that `witness.bloch_axis` flags degenerate (|b|
below the degeneracy gap) takes n = z. Its emitted marginals are the qubit
states of the same Bloch vectors that simulated mode measures
(`stage1_marginals`, `stage2_marginals`), and rho_s_0 is the input's own
system marginal. Stage 2 fires when growth > exact_epsilon; growth needs no n. Stage 1
fires only when Td > exact_epsilon + beta, where beta is Td's forward-error
bound, so that a QC verdict holds for every state within three units of
roundoff of the input's entries as well. thresholds_used["stage1_threshold"]
reports exact_epsilon + beta. The bound matters beside a degenerate
marginal, where Td is ill-conditioned: the float state
QC(1/2 + 1e-9, fl(pi/2)) carries a genuine Td of 1.5e-8, all of it from the
b_x = 6e-17 that sin(2 fl(pi/2)) leaves, and setting its entries of that
size to 0 takes Td to 0.

beta, to first order in u = 2^-53, for the states whose entries each lie
within k u of the input's (real and imaginary parts apart). By positivity
|r_e| <= tr rho_e, so |r_0| + |r_1| <= 1, and |b| <= 1.
* Input: r_e moves by at most 2 sqrt(3) k u and b by 4 sqrt(3) k u, so n
  by 4 sqrt(3) k u / |b|. y_e = r_e - (r_e . n) n moves by at most
  |dr_e| + |r_e| |dn|, and Td = 1/2 |y_0 + R_phi y_1| by half the sum over
  e: 2 sqrt(3) k u (1 + 1 / |b|).
* Evaluation: the computed b is within u (1 + |b|) of the exact one and
  the normalization adds 3.5 u, so n is within u / |b| + 4.5 u; the dot
  products and differences of y_e add 6 u |r_e|, and the rotation, the sum
  of squares and the square root 3.75 u; in all 0.5 u / |b| + 9 u.
So beta <= (6.93 k + 9.5) u / |b|, which is 30.3 u / |b| at k = 3, and
beta = 32 u / |b| (`witness.TD_ERROR_ULPS`). On the degenerate branch n = z
is exact, the 1 / |b| terms drop, and beta = 32 u. Measured against a
50-digit evaluation on 3000 random states with |b| down to 1e-11, the
error was at most 0.14 u / |b|.

In simulated mode every state that the experiment would measure is
tomographed from multinomial counts. Stage 1 fires when the measured
witness exceeds threshold_sigma null-bootstrap standard deviations above
the null expectation, where the null replicas rerun the whole pipeline
(full-state tomography, projector extraction, dephasing, evolution,
marginal tomography) on a zero-discord surrogate of the estimated state.
The naive rule "value > threshold_sigma * standard error" is biased for
this folded statistic and misfires on correlation-free states far too
often; it also ignores the distance that projector misestimation alone
induces. Stage 2's growth statistic is not folded, so the plain rule
applies there.

Only the two-qubit experiments, the estimate rho_hat of the state and the
null's B replicas of rho_null, tomograph 4x4 matrices. Every measured
marginal is a Bloch vector (3, ...), computed from the blocks' Bloch
vectors r_e (`witness.block_bloch`) and tomographed in Bloch coordinates
(`tomography.sample_bloch`); no 2x2 matrix is built:
* the dephasing axis n is `witness.marginal_axis` of rho_hat, and
  rho_null = pinch(rho_hat, Pi(n)) is the one 4x4 state built;
* stage 1's marginals (`stage1_marginals`) are the evolved state's,
  r_0 + R_phi r_1, and the dephased one's, (r_0 . n) n + R_phi (r_1 . n) n,
  with R_phi the z rotation of D_1 = diag(e^{i phi}, 1) (`witness.evolved`);
* the null's are the same on the blocks of rho_null, with replica k's axis
  n_k, the `marginal_axis` of its two-qubit estimate;
* stage 2's (`stage2_marginals`) are r_0 + r_1, O_V r_0 + O_V r_1 and their
  evolved twins, with O_V the plate's Bloch rotation.
A trace distance between two marginals is 1/2 |s - s'| of their Bloch
vectors.

Seeding: experiment j of a run seeded s draws its settings, in order, from
one generator on SeedSequence(s, spawn_key=(j,)), the j-th spawned child of
SeedSequence(s). So a seed reproduces every count, estimate and verdict
bit-exactly, no two seeds or experiments share a stream, and an experiment
replays alone from (s, j). An experiment is one measured state (a batch of
one) or one batch of B replicas, numbered in the order they run: the
two-qubit estimate of the state; then 7 for stage 1 (the two observed
marginals, the null's projector tomography and its two marginals, the two
bootstrapped marginals); then 8 for stage 2 (four observed marginals, four
bootstrapped). A run thus consumes 1 + 7 experiments, plus 8 if it reaches
stage 2.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .channels import half_wave_plate, pinch
from .linalg import DensityMatrix, check_finite, is_finite_real, partial_trace, two_qubit
from .states import FamilyParams
from .tomography import default_settings, sample_bloch, sample_reconstructions
from .witness import (CORRELATION_WITNESS, DISCORD_WITNESS, WitnessReport, block_bloch, bloch_matrix,
                      bloch_rotation, dephased, evolved, growth_bloch, marginal_axis, rotated, td_bloch,
                      td_error_bound, vector_norm)

VERDICT_QC = "QC"
VERDICT_CC = "CC"
VERDICT_F = "F"

# |sin(phi/2)| below this means a blind phase: the gate is the identity, so
# Td and growth are 0 for every state. At phi = 0, +-2pi and 4pi the float
# sin(phi/2) is at most 4e-16 in magnitude.
_BLIND_PHASE_SIN = 1e-12


@dataclass(frozen=True)
class ProtocolConfig:
    phi: float = np.pi
    hwp_angle: float = np.pi / 8
    mode: str = "exact"
    shots: int = 100_000
    bootstrap_samples: int = 200
    threshold_sigma: float = 3.0
    exact_epsilon: float = 1e-9
    seed: int = 0
    emit_states: bool = False

    def __post_init__(self):
        floats = {"phi": self.phi, "hwp_angle": self.hwp_angle,
                  "threshold_sigma": self.threshold_sigma, "exact_epsilon": self.exact_epsilon}
        bad = [k for k, v in floats.items() if not is_finite_real(v)]
        if bad:
            raise ValueError(f"not a finite number: {', '.join(bad)}")
        if abs(math.sin(self.phi / 2)) < _BLIND_PHASE_SIN:
            raise ValueError(f"phi must not be a multiple of 2*pi, where neither witness sees "
                             f"anything, got {self.phi!r}")
        if self.mode not in ("exact", "simulated"):
            raise ValueError(f"mode must be 'exact' or 'simulated', got {self.mode!r}")
        if self.threshold_sigma <= 0 or self.exact_epsilon <= 0:
            raise ValueError("threshold_sigma and exact_epsilon must be positive")
        ints = {"shots": self.shots, "bootstrap_samples": self.bootstrap_samples, "seed": self.seed}
        bad = [k for k, v in ints.items()
               if not (isinstance(v, numbers.Integral) and not isinstance(v, bool))]
        if bad:
            raise ValueError(f"not an integer: {', '.join(f'{k} = {ints[k]!r}' for k in bad)}")
        if self.shots <= 0 or self.bootstrap_samples <= 0:
            raise ValueError(f"shots and bootstrap_samples must be positive, got {self.shots}, "
                             f"{self.bootstrap_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not isinstance(self.emit_states, bool):
            raise ValueError(f"emit_states must be true or false, got {self.emit_states!r}")
        # plain Python numbers: hashable, comparable and JSON-serializable
        for k in ("phi", "hwp_angle", "threshold_sigma", "exact_epsilon"):
            object.__setattr__(self, k, float(getattr(self, k)))
        for k in ints:
            object.__setattr__(self, k, int(getattr(self, k)))

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ClassificationResult:
    verdict: str
    td_report: WitnessReport
    growth_report: WitnessReport | None
    degenerate_basis: bool
    thresholds_used: dict
    intermediate_states: dict | None = None

    def __post_init__(self):
        if self.verdict == VERDICT_QC and self.growth_report is not None:
            raise ValueError("QC verdict must not carry a growth report")
        if self.verdict in (VERDICT_CC, VERDICT_F) and self.growth_report is None:
            raise ValueError(f"{self.verdict} verdict requires a growth report")

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "td_report": self.td_report.to_json(),
            "growth_report": self.growth_report.to_json() if self.growth_report else None,
            "degenerate_basis": self.degenerate_basis,
            "thresholds_used": self.thresholds_used,
            "intermediate_states": (
                {k: v.to_json() for k, v in self.intermediate_states.items()}
                if self.intermediate_states is not None else None
            ),
        }


def classify(rho_se: DensityMatrix, config: ProtocolConfig,
             digest: dict | None = None) -> ClassificationResult:
    """Run the two-stage procedure on a prepared state."""
    if config.mode == "exact":
        return _classify_exact(rho_se, config, digest or {})
    return _classify_simulated(rho_se, config, digest or {})


def classify_simulated(params: FamilyParams, config: ProtocolConfig) -> ClassificationResult:
    """`classify(params.build(), config)` in simulated mode, with the family
    parameters recorded in each report's `inputs_digest`."""
    if config.mode != "simulated":
        raise ValueError("classify_simulated requires simulated mode")
    return classify(params.build(), config, digest=params.to_json())


def _cascade(config: ProtocolConfig, digest: dict, degenerate: bool, states: dict,
             stage1, stage2) -> ClassificationResult:
    """The decision policy of both modes: a stage fires when its value
    exceeds its threshold. `stage1()` and `stage2()` each return (value,
    threshold, sigma, emitted states); exact stage 1's threshold is
    exact_epsilon plus Td's forward-error bound. `states` holds the states
    emitted before stage 1 and collects the rest."""
    digest = {**digest, "phi": config.phi, "hwp_angle": config.hwp_angle}
    value, threshold, sigma, stage1_states = stage1()
    td_report = WitnessReport(value, DISCORD_WITNESS, digest, degenerate, sigma=sigma)
    states.update(stage1_states)
    thresholds = {"stage1_threshold": threshold, "stage2_threshold": None,
                  "threshold_sigma": config.threshold_sigma, "exact_epsilon": config.exact_epsilon}
    emitted = states if config.emit_states else None
    if value > threshold:
        return ClassificationResult(VERDICT_QC, td_report, None, degenerate, thresholds, emitted)

    value, threshold, sigma, stage2_states = stage2()
    growth_report = WitnessReport(value, CORRELATION_WITNESS, digest, degenerate, sigma=sigma)
    thresholds["stage2_threshold"] = threshold
    states.update(stage2_states)
    verdict = VERDICT_CC if value > threshold else VERDICT_F
    return ClassificationResult(verdict, td_report, growth_report, degenerate, thresholds, emitted)


def _classify_exact(rho: DensityMatrix, config: ProtocolConfig, digest: dict) -> ClassificationResult:
    r = two_qubit(rho)
    bloch = block_bloch(r)
    n, norm, degenerate = marginal_axis(r)
    phi, eps, emit = config.phi, config.exact_epsilon, config.emit_states

    def stage1():
        states = _qubit_states(("rho_s_t", "rho_s_d_t"), stage1_marginals(bloch, n, phi)) if emit else {}
        return float(td_bloch(bloch, n, phi)), eps + float(td_error_bound(norm)), None, states

    def stage2():
        plate = bloch_rotation(half_wave_plate(config.hwp_angle))
        growth = float(growth_bloch(bloch, plate, phi))
        # rho_u's marginals, before and after the evolution
        states = (_qubit_states(("rho_s_u_0", "rho_s_u_t"), stage2_marginals(bloch, plate, phi)[1::2])
                  if emit else {})
        return growth, eps, None, states

    states = {"rho_s_0": DensityMatrix(partial_trace(r, 0))} if emit else {}
    return _cascade(config, digest, bool(degenerate), states, stage1, stage2)


def td_stat(m: np.ndarray, md: np.ndarray, measure) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stage-1 statistic: the trace distance between the evolved system
    marginals of a state and of its dephased twin, given as Bloch vectors m
    and md (3, ...), each as `measure` sees it. Returns the distance and the
    two estimates. A trace distance of qubit states is 1/2 |a - b| of their
    Bloch vectors a and b."""
    est_m = measure(m)
    est_md = measure(md)
    return 0.5 * vector_norm(est_md - est_m), est_m, est_md


def growth_stat(marginals, measure) -> tuple[np.ndarray, list]:
    """Stage-2 statistic TD(e3, e2) - TD(e1, e0) over the system marginals
    of (rho, rho_u, rho(t), rho_u(t)), given as Bloch vectors (3, ...), each
    as `measure` sees it. Returns the growth and the four estimates."""
    e = [measure(m) for m in marginals]
    return 0.5 * vector_norm(e[3] - e[2]) - 0.5 * vector_norm(e[1] - e[0]), e


def stage1_marginals(r: np.ndarray, n, phi) -> tuple[np.ndarray, np.ndarray]:
    """Bloch vectors (3, ...) of the evolved system marginals of a state with
    block Bloch vectors r (2, 3, ...) and of its twin dephased along n (3, ...)."""
    return np.array(evolved(*r, phi)), np.array(evolved(*(dephased(w, n) for w in r), phi))


def stage2_marginals(r: np.ndarray, o: np.ndarray, phi) -> list[np.ndarray]:
    """Bloch vectors (3, ...) of the system marginals of (rho, rho_u, rho(t),
    rho_u(t)) from rho's block Bloch vectors r (2, 3, ...) and the plate's o (3, 3)."""
    u = np.array([rotated(o, w) for w in r])
    return [r[0] + r[1], u[0] + u[1], np.array(evolved(*r, phi)), np.array(evolved(*u, phi))]


def _qubit_states(names, bloch) -> dict:
    """Validated qubit states of Bloch vectors (3,), by name, for the caller."""
    return {k: DensityMatrix(bloch_matrix(v)) for k, v in zip(names, bloch)}


def _classify_simulated(rho: DensityMatrix, config: ProtocolConfig, digest: dict) -> ClassificationResult:
    settings1, settings2 = default_settings(1), default_settings(2)
    phi, shots, b = config.phi, config.shots, config.bootstrap_samples
    streams = (np.random.SeedSequence(config.seed, spawn_key=(j,)) for j in itertools.count())

    def replicate(s: np.ndarray, n: int = b) -> np.ndarray:
        """n synthetic one-qubit experiments on the state of Bloch vector s
        (3,), or one on each of s (3, n): the estimated Bloch vectors (3, n)."""
        return sample_bloch(s, settings1, shots, n, next(streams))

    def observe(s: np.ndarray) -> np.ndarray:
        """One simulated one-qubit tomography experiment: the estimated Bloch vector."""
        return replicate(s, 1)[:, 0]

    r = two_qubit(rho)
    blocks = block_bloch(r)
    # Pi from full-state tomography, as the experiment extracts it
    rho_hat = sample_reconstructions(r, settings2, shots, 1, next(streams))[0]
    n, _, degenerate = marginal_axis(rho_hat)
    # the zero-discord surrogate of the estimate, for the stage-1 null
    rho_null = pinch(rho_hat, bloch_matrix(n))

    def stage1():
        td_hat, m_t, md_t = td_stat(*stage1_marginals(blocks, n, phi), observe)
        # the null reruns the whole pipeline, projector tomography included
        null_axes = marginal_axis(sample_reconstructions(rho_null, settings2, shots, b, next(streams)))[0]
        td_null, _, _ = td_stat(*stage1_marginals(block_bloch(rho_null), null_axes, phi), replicate)
        threshold = float(td_null.mean() + config.threshold_sigma * td_null.std())
        # parametric bootstrap around the two point estimates, for the error bar
        sigma = float(td_stat(m_t, md_t, replicate)[0].std())
        check_finite([td_hat, threshold, sigma], "stage-1 statistic")
        states = _qubit_states(("rho_s_t_hat", "rho_s_d_t_hat"), (m_t, md_t)) if config.emit_states else {}
        return float(td_hat), threshold, sigma, states

    def stage2():
        plate = bloch_rotation(half_wave_plate(config.hwp_angle))
        growth_hat, estimates = growth_stat(stage2_marginals(blocks, plate, phi), observe)
        sigma2 = float(growth_stat(estimates, replicate)[0].std())
        check_finite([growth_hat, sigma2], "stage-2 statistic")
        states = (_qubit_states(("rho_s_0_hat", "rho_s_u_0_hat", "rho_s_t_hat2", "rho_s_u_t_hat"), estimates)
                  if config.emit_states else {})
        return float(growth_hat), config.threshold_sigma * sigma2, sigma2, states

    states = {"rho_se_0_hat": DensityMatrix(rho_hat)} if config.emit_states else {}
    return _cascade(config, digest, bool(degenerate), states, stage1, stage2)
