import json

import numpy as np
import pytest

from qdiscern.linalg import DensityMatrix, partial_trace, trace_distances
from qdiscern.protocol import (
    VERDICT_CC,
    VERDICT_F,
    VERDICT_QC,
    ClassificationResult,
    ProtocolConfig,
    classify,
    classify_simulated,
)
from qdiscern.states import FamilyParams, make_cc, make_f, make_qc
from qdiscern.witness import zero_line_lambda
from test_snapshot import stream_key

EXACT = ProtocolConfig(mode="exact")


class TestExactMode:
    def test_qc_reference_point(self):
        res = classify(make_qc(0.7, np.pi / 4), EXACT)
        assert res.verdict == VERDICT_QC
        assert res.growth_report is None

    def test_cc_reference_point(self):
        res = classify(make_cc(0.64), EXACT)
        assert res.verdict == VERDICT_CC
        assert res.td_report.value < 1e-12
        assert abs(res.growth_report.value - 0.321240) < 1e-6

    def test_f_reference_point(self):
        res = classify(make_f(0.65), EXACT)
        assert res.verdict == VERDICT_F
        assert res.growth_report.value < 0

    def test_confusion_grid(self):
        lams = np.arange(0.1, 0.95, 0.1)
        thetas = (np.pi / 8, np.pi / 4, 3 * np.pi / 8)
        for lam in lams:
            for theta in thetas:
                assert classify(make_qc(lam, theta), EXACT).verdict == VERDICT_QC
            assert classify(make_cc(lam), EXACT).verdict == VERDICT_CC
            assert classify(make_f(lam), EXACT).verdict == VERDICT_F

    def test_pure_product_cc_endpoints_are_factorized(self):
        for lam in (0.0, 1.0):
            assert classify(make_cc(lam), EXACT).verdict == VERDICT_F

    def test_qc_degenerate_angles(self):
        # theta = 0 collapses QC to a product state, theta = pi/2 to CC
        assert classify(make_qc(0.3, 0.0), EXACT).verdict == VERDICT_F
        assert classify(make_qc(0.3, np.pi / 2), EXACT).verdict == VERDICT_CC

    def test_zero_line_states_fall_through_to_stage_2(self):
        # stage 1 is blind on the zero line, but these discordant states do
        # carry correlations, so the growth witness reports CC
        for theta in (np.pi / 3, 1.2, 1.4):
            res = classify(make_qc(zero_line_lambda(theta), theta), EXACT)
            assert res.td_report.value < 1e-9
            assert res.verdict == VERDICT_CC
            assert res.growth_report.value > 0.1

    def test_correlated_gate_diagonal_state_with_same_sign_deltas_reads_f(self):
        # growth is sufficient for correlation, not necessary: both blocks
        # favour H (delta_0 delta_1 > 0), so no plate angle or phase grows
        rho = DensityMatrix(np.diag([0.5, 0.45, 0.0, 0.05]).astype(complex))  # |H0>, |H1>, |V0>, |V1>
        product = np.kron(partial_trace(rho, 0).mat, partial_trace(rho, 1).mat)
        assert trace_distances(rho.mat, product) > 0.04
        res = classify(rho, EXACT)
        assert res.verdict == VERDICT_F
        assert res.td_report.value == 0.0
        assert abs(res.growth_report.value - (-0.18363)) < 1e-5

    def test_degenerate_marginal_flagged(self):
        res = classify(make_f(0.5), EXACT)
        assert res.degenerate_basis
        assert res.verdict == VERDICT_F

    def test_emit_states(self):
        cfg = ProtocolConfig(mode="exact", emit_states=True)
        res = classify(make_cc(0.64), cfg)
        assert {"rho_s_0", "rho_s_t", "rho_s_d_t", "rho_s_u_0", "rho_s_u_t"} \
            <= set(res.intermediate_states)

    def test_small_phase_still_detects(self):
        # Td(phi) = |sin(phi/2)| Td(pi), well above exact_epsilon at phi = 1e-6
        res = classify(make_qc(0.5, np.pi / 4), ProtocolConfig(mode="exact", phi=1e-6))
        assert res.verdict == VERDICT_QC
        assert abs(res.td_report.value - 0.25 * np.sin(5e-7)) < 1e-15

    def test_both_stages_report_the_configured_phase(self):
        res = classify(make_cc(0.64), ProtocolConfig(mode="exact", phi=1.1))
        assert res.td_report.inputs_digest["phi"] == res.growth_report.inputs_digest["phi"] == 1.1
        assert res.verdict == VERDICT_CC

    def test_stage2_threshold_only_when_stage_2_runs(self):
        qc = classify(make_qc(0.7, np.pi / 4), EXACT).thresholds_used
        assert qc["stage2_threshold"] is None
        assert qc["exact_epsilon"] == EXACT.exact_epsilon
        for rho in (make_cc(0.64), make_f(0.65)):
            assert classify(rho, EXACT).thresholds_used["stage2_threshold"] == EXACT.exact_epsilon


class TestSimulatedMode:
    CFG = ProtocolConfig(mode="simulated", shots=100_000, seed=7)

    def test_single_seed_verdicts(self):
        assert classify_simulated(FamilyParams("QC", 0.7, np.pi / 4), self.CFG).verdict == VERDICT_QC
        assert classify_simulated(FamilyParams("CC", 0.64), self.CFG).verdict == VERDICT_CC
        assert classify_simulated(FamilyParams("F", 0.65), self.CFG).verdict == VERDICT_F

    def test_reports_carry_uncertainties(self):
        res = classify_simulated(FamilyParams("CC", 0.64), self.CFG)
        assert res.td_report.sigma is not None and res.td_report.sigma > 0
        assert res.growth_report.sigma is not None and res.growth_report.sigma > 0
        assert res.thresholds_used["stage1_threshold"] > 0

    def test_bit_exact_reproducibility(self):
        a = classify_simulated(FamilyParams("QC", 0.55, 0.9), self.CFG)
        b = classify_simulated(FamilyParams("QC", 0.55, 0.9), self.CFG)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)

    def test_stage2_threshold_only_when_stage_2_runs(self):
        qc = classify_simulated(FamilyParams("QC", 0.7, np.pi / 4), self.CFG)
        assert qc.verdict == VERDICT_QC
        assert qc.thresholds_used["stage2_threshold"] is None
        cc = classify_simulated(FamilyParams("CC", 0.64), self.CFG)
        assert cc.thresholds_used["stage2_threshold"] == self.CFG.threshold_sigma * cc.growth_report.sigma

    def test_requires_simulated_mode(self):
        with pytest.raises(ValueError):
            classify_simulated(FamilyParams("CC", 0.64), EXACT)


class TestSeedStreams:
    """Experiment j of a run seeded s draws from child j of SeedSequence(s)."""

    @staticmethod
    def run(monkeypatch, params, seed):
        """The verdict and the stream key of every generator the run builds."""
        keys, default_rng = [], np.random.default_rng

        def recording(stream=None):
            keys.append(stream_key(stream))
            return default_rng(stream)

        with monkeypatch.context() as m:
            m.setattr(np.random, "default_rng", recording)
            verdict = classify_simulated(params, ProtocolConfig(mode="simulated", seed=seed)).verdict
        return verdict, keys

    def test_one_generator_per_experiment(self, monkeypatch):
        verdict, keys = self.run(monkeypatch, FamilyParams("QC", 0.7, np.pi / 4), 7)
        assert verdict == VERDICT_QC
        assert keys == [(7, (j,)) for j in range(8)]
        verdict, keys = self.run(monkeypatch, FamilyParams("CC", 0.64), 7)
        assert verdict == VERDICT_CC
        assert keys == [(7, (j,)) for j in range(16)]

    def test_neighbouring_seeds_share_no_stream(self, monkeypatch):
        params = FamilyParams("F", 0.65)
        streams = [set(self.run(monkeypatch, params, seed)[1]) for seed in (0, 1, 100)]
        assert sum(map(len, streams)) == len(set().union(*streams))


@pytest.mark.parametrize("mode,hat", [("exact", ""), ("simulated", "_hat")])
def test_emitted_stage1_states_belong_to_the_reported_phase(mode, hat):
    cfg = ProtocolConfig(mode=mode, emit_states=True, shots=20_000, bootstrap_samples=50, seed=3)
    res = classify(make_qc(0.5, np.pi / 4), cfg)
    assert res.verdict == VERDICT_QC
    assert res.td_report.inputs_digest["phi"] == np.pi
    states = res.intermediate_states
    distance = trace_distances(states[f"rho_s_t{hat}"].mat, states[f"rho_s_d_t{hat}"].mat)
    assert abs(distance - res.td_report.value) < 1e-12


class TestStructure:
    def test_qc_forbids_growth_report(self):
        res = classify(make_qc(0.7, np.pi / 4), EXACT)
        with pytest.raises(ValueError):
            ClassificationResult(VERDICT_QC, res.td_report, res.td_report, False, {})

    def test_cc_requires_growth_report(self):
        res = classify(make_qc(0.7, np.pi / 4), EXACT)
        with pytest.raises(ValueError):
            ClassificationResult(VERDICT_CC, res.td_report, None, False, {})

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(mode="other")
        with pytest.raises(ValueError):
            ProtocolConfig(threshold_sigma=0.0)
        with pytest.raises(ValueError):
            ProtocolConfig(shots=0)

    @pytest.mark.parametrize("field,value", [
        ("phi", float("nan")), ("hwp_angle", float("inf")), ("threshold_sigma", float("inf")),
        ("exact_epsilon", float("nan")), ("phi", "abc"), ("phi", True), ("threshold_sigma", False),
    ])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            ProtocolConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("shots", True), ("shots", 2.5), ("shots", "100"), ("bootstrap_samples", 1.5),
        ("bootstrap_samples", False), ("seed", 2.5), ("seed", "3"), ("seed", True), ("seed", -5),
        ("emit_states", "false"), ("emit_states", 1),
    ])
    def test_config_rejects_bad_integers_and_flags(self, field, value):
        with pytest.raises(ValueError, match=field):
            ProtocolConfig(**{field: value})

    def test_config_accepts_numpy_integers(self):
        cfg = ProtocolConfig(shots=np.int64(1000), bootstrap_samples=np.int32(20), seed=np.int64(0))
        assert (cfg.shots, cfg.bootstrap_samples, cfg.seed) == (1000, 20, 0)

    @pytest.mark.parametrize("phi", [0.0, 2 * np.pi, -2 * np.pi, 4 * np.pi])
    def test_config_rejects_blind_phases(self, phi):
        # sin(phi/2) = 0: the phase gate is the identity and both witnesses read 0
        with pytest.raises(ValueError, match="phi"):
            ProtocolConfig(phi=phi)

    def test_config_stores_plain_python_numbers(self):
        cfg = ProtocolConfig(phi=np.float32(1), hwp_angle=np.float64(0.3), threshold_sigma=2,
                             exact_epsilon=np.float32(1e-6), shots=np.int64(5),
                             bootstrap_samples=np.int32(20), seed=np.uint8(3))
        d = cfg.to_json()
        assert json.loads(json.dumps(d)) == d
        assert all(type(d[k]) is float for k in ("phi", "hwp_angle", "threshold_sigma", "exact_epsilon"))
        assert all(type(d[k]) is int for k in ("shots", "bootstrap_samples", "seed"))

    def test_config_json_round_trip(self):
        cfg = ProtocolConfig(mode="simulated", phi=1.1, emit_states=True)
        assert ProtocolConfig(**cfg.to_json()) == cfg

    def test_result_json_shape(self):
        res = classify(make_cc(0.64), EXACT)
        d = res.to_json()
        assert d["verdict"] == VERDICT_CC
        assert d["growth_report"]["kind"] == "correlation_witness"
        assert d["intermediate_states"] is None
