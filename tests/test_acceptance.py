"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -s` to see them)."""

import functools
import subprocess
import sys

import numpy as np

import oracle
from qdiscern.channels import half_wave_plate, system_eigenprojector
from qdiscern.linalg import partial_trace
from qdiscern.protocol import ProtocolConfig, classify, classify_simulated
from qdiscern.states import FamilyParams, make_cc, make_f, make_qc
from qdiscern.tomography import default_settings, reconstruct, simulate_counts
from qdiscern.witness import (
    discord_T,
    witness_Td,
    witness_growth,
    zero_line_lambda,
    zero_line_residual,
)
from qdiscern import channels
from random_states import random_density


def criterion(n, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {n} ({label}): FAIL", flush=True)
                raise
            print(f"\nACCEPTANCE {n} ({label}): PASS", flush=True)
        return wrapper
    return deco


@criterion(1, "exact-mode golden values")
def test_exact_golden_values():
    hwp = half_wave_plate(np.pi / 8)
    cases = [
        (discord_T(make_qc(0.5, np.pi / 4)).value,
         oracle.discord(oracle.qc(0.5, np.pi / 4)),
         np.sqrt(2) / 4),
        (witness_Td(make_qc(0.5, np.pi / 4), np.pi).value,
         oracle.td_witness(oracle.qc(0.5, np.pi / 4), np.pi),
         0.25),
        (witness_growth(make_cc(0.64), hwp, np.pi).value,
         oracle.growth(oracle.cc(0.64), oracle.hwp(np.pi / 8), np.pi),
         np.sqrt(0.14 ** 2 + 0.25) - 0.14 * np.sqrt(2)),
        (witness_growth(make_f(0.65), hwp, np.pi).value,
         oracle.growth(oracle.fact(0.65), oracle.hwp(np.pi / 8), np.pi),
         (1 - np.sqrt(2)) * 0.15),
    ]
    for value, oracle_value, gold in cases:
        assert abs(oracle_value - gold) < 1e-9  # brute-force oracle confirms the constant
        assert abs(value - gold) < 1e-9


@criterion(2, "zero-line blindness and off-line sensitivity")
def test_zero_line():
    for theta in np.linspace(np.pi / 4 + 0.02, np.pi / 2 - 0.02, 20):
        lam = zero_line_lambda(theta)
        assert witness_Td(make_qc(lam, theta), np.pi).value < 1e-9

    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 2000:
        lam = rng.uniform(0, 1)
        theta = rng.uniform(0, np.pi / 2)
        if min(lam, 1 - lam) <= 1e-2 or min(theta, np.pi / 2 - theta) <= 1e-2:
            continue
        r = zero_line_residual(lam, theta)
        grad = np.hypot(np.cos(2 * theta) - 1, 2 * np.sin(2 * theta) * (1 - lam))
        if grad < 1e-12 or abs(r) / grad <= 1e-2:
            continue
        assert witness_Td(make_qc(lam, theta), np.pi).value > 1e-6
        checked += 1


@criterion(3, "reference-state verdicts, exact and simulated")
def test_reference_verdicts():
    exact = ProtocolConfig(mode="exact")
    cases = [
        (FamilyParams("QC", 0.7, np.pi / 4), "QC"),
        (FamilyParams("CC", 0.64), "CC"),
        (FamilyParams("F", 0.65), "F"),
    ]
    for params, want in cases:
        assert classify(params.build(), exact).verdict == want

    for params, want in cases:
        hits = 0
        for trial in range(100):
            cfg = ProtocolConfig(mode="simulated", shots=100_000, seed=trial * 1_000_000)
            hits += classify_simulated(params, cfg).verdict == want
        assert hits >= 95, f"{params.family}: {hits}/100"


@criterion(4, "dephasing preserves marginals and kills discord")
def test_dephasing_properties():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        rho = random_density(rng, 4, (2, 2))
        out = channels.dephase(rho, system_eigenprojector(rho))
        assert np.abs(partial_trace(out, 0).mat - partial_trace(rho, 0).mat).max() < 1e-12
        assert np.abs(partial_trace(out, 1).mat - partial_trace(rho, 1).mat).max() < 1e-12
        assert discord_T(out).value < 1e-9


@criterion(5, "factorized states never grow")
def test_factorized_no_growth():
    for lam in np.linspace(0, 1, 20):
        rho = make_f(lam)
        for alpha in np.linspace(0, np.pi / 2, 20):
            v = half_wave_plate(alpha)
            for phi in np.linspace(0, 2 * np.pi, 20):
                assert witness_growth(rho, v, phi).value <= 1e-9


@criterion(6, "bootstrap errors follow 1/sqrt(N) scaling")
def test_bootstrap_scaling():
    settings = default_settings(2)
    truths = [make_qc(0.7, np.pi / 4), make_cc(0.64), make_f(0.65)]
    for truth in truths:
        ratios = []
        for trial in range(50):
            seed = trial * 10_000
            lo = reconstruct(simulate_counts(truth, settings, 10_000, seed),
                             bootstrap_samples=200).std_errors.mean()
            hi = reconstruct(simulate_counts(truth, settings, 40_000, seed + 5000),
                             bootstrap_samples=200).std_errors.mean()
            ratios.append(lo / hi)
        assert 1.8 <= np.mean(ratios) <= 2.2


@criterion(7, "phase pi is the detection optimum")
def test_phase_optimum():
    for lam in (0.5, 0.48):
        rho = make_qc(lam, np.pi / 4)
        values = {phi: witness_Td(rho, phi).value for phi in (np.pi / 4, np.pi / 2, np.pi)}
        assert max(values, key=values.get) == np.pi


@criterion(8, "CLI output is byte-identical across runs")
def test_cli_determinism(tmp_path):
    invocations = [
        ["classify", "--family", "cc", "--lambda", "0.64", "--mode", "simulated",
         "--shots", "20000", "--seed", "13"],
        ["classify", "--family", "qc", "--lambda", "0.7", "--theta", "0.7853981634",
         "--mode", "exact"],
        ["sweep", "--quantity", "all", "--lambda-grid", "0.1:0.9:5",
         "--theta-grid", "0.1:1.4:5"],
    ]
    for argv in invocations:
        outs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "qdiscern.cli", *argv],
                                  capture_output=True, check=True)
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
