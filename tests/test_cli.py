"""CLI tests. The sweep golden hashes in tests/data/sweep_sha256.json are
regenerated (only on purpose, when sweep output is meant to change) with:
PYTHONPATH=src python tests/test_cli.py
It reports which entries changed, then rewrites the file's hashes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracle
from qdiscern import channels, cli, kernels, states, witness
from qdiscern.channels import half_wave_plate
from qdiscern.cli import SWEEP_CHUNK_POINTS, SWEEP_QUANTITIES, main
from qdiscern.states import qc_matrices
from qdiscern.witness import discord_values, growth_values

PI = repr(float(np.pi))
SWEEP_GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "sweep_sha256.json"
SWEEP_GOLDEN = json.loads(SWEEP_GOLDEN_PATH.read_text())


def refuse_states(monkeypatch):
    """Make every call that builds a state, an eigenprojector or a plate matrix
    fail, through its own module and through a binding in `cli`."""
    def refuse(*args):
        raise AssertionError("a sweep builds no state")

    for module, name in [(states, "qc_matrices"), (channels, "eigenprojectors"), (channels, "half_wave_plate"),
                         (witness, "growth_values"), (witness, "discord_values")]:
        monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(cli, name, refuse, raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_qc_exact(self, capsys):
        code, out, _ = run(capsys, "classify", "--family", "qc", "--lambda", "0.7",
                           "--theta", "0.7853981634", "--mode", "exact")
        assert code == 0
        assert json.loads(out)["verdict"] == "QC"

    def test_f_exact(self, capsys):
        code, out, _ = run(capsys, "classify", "--family", "f", "--lambda", "0.65",
                           "--mode", "exact")
        assert code == 0
        assert json.loads(out)["verdict"] == "F"

    def test_simulated_deterministic(self, capsys):
        argv = ["classify", "--family", "cc", "--lambda", "0.64", "--mode", "simulated",
                "--shots", "100000", "--seed", "7"]
        code, out1, _ = run(capsys, *argv)
        assert code == 0
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
        assert json.loads(out1)["verdict"] == "CC"

    def test_emit_states(self, capsys):
        code, out, _ = run(capsys, "classify", "--family", "cc", "--lambda", "0.64",
                           "--mode", "exact", "--emit-states")
        states = json.loads(out)["intermediate_states"]
        assert "rho_s_0" in states

    def test_missing_lambda_is_exit_2(self, capsys):
        code, _, err = run(capsys, "classify", "--family", "cc", "--mode", "exact")
        assert code == 2
        assert "lambda" in err

    def test_missing_family_is_exit_2(self, capsys):
        code, out, err = run(capsys, "classify", "--lambda", "0.64", "--mode", "exact")
        assert (code, out) == (2, "")
        assert "--family is required" in err

    def test_config_file_holding_a_list_is_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps([{"family": "cc", "lambda": 0.64}]))
        code, out, err = run(capsys, "classify", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "JSON object" in err

    def test_integral_float_config_counts_are_read_as_ints(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"family": "cc", "lambda": 0.64, "shots": 1e5, "bootstrap_samples": 2e1}')
        code, out, _ = run(capsys, "classify", "--config", str(cfg))
        assert code == 0
        config = json.loads(out)["config"]
        assert (config["shots"], config["bootstrap_samples"]) == (100000, 20)
        assert type(config["shots"]) is int and type(config["bootstrap_samples"]) is int

    def test_bad_lambda_is_exit_2(self, capsys):
        code, _, _ = run(capsys, "classify", "--family", "cc", "--lambda", "1.4",
                         "--mode", "exact")
        assert code == 2

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "exact", "phi": 0.0}))
        # config phi=0 blinds the witness; CLI flag must override it
        code, out, _ = run(capsys, "classify", "--family", "qc", "--lambda", "0.5",
                           "--theta", "0.7853981634", "--config", str(cfg), "--phi", PI)
        assert code == 0
        assert json.loads(out)["verdict"] == "QC"


    def test_config_file_sets_family_and_lambda(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"family": "cc", "lambda": 0.64}))
        code, out, _ = run(capsys, "classify", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["verdict"] == "CC"
        assert json.loads(out)["family_params"] == {"family": "CC", "lambda": 0.64, "theta": 0.0}

    def test_reported_config_lists_emit_states(self, capsys):
        code, out, _ = run(capsys, "classify", "--family", "cc", "--lambda", "0.64",
                           "--emit-states")
        assert code == 0
        assert json.loads(out)["config"]["emit_states"] is True

    def test_reported_config_reproduces_the_run(self, capsys, tmp_path):
        code, first, _ = run(capsys, "classify", "--family", "cc", "--lambda", "0.64",
                             "--mode", "simulated", "--shots", "2000", "--bootstrap", "20",
                             "--seed", "3", "--emit-states")
        report = json.loads(first)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**report["config"], **report["family_params"]}))
        rerun, again, _ = run(capsys, "classify", "--config", str(cfg))
        assert (code, rerun) == (0, 0)
        assert again == first

    @pytest.mark.parametrize("entry", [
        {"bootstrap": 20}, {"emit_states": "false"},
        {"lambda": True}, {"lambda": "0.5"}, {"theta": True, "family": "qc"},
        {"theta": "0.5", "family": "qc"}, {"shots": True}, {"shots": 1.7}, {"shots": "100"},
        {"bootstrap_samples": False}, {"bootstrap_samples": 20.5}, {"seed": "3"},
        {"seed": True}, {"seed": 3.5}, {"seed": -5}, {"retry_phis": [np.pi]},
    ], ids=["unknown-key", "non-boolean-emit-states", "boolean-lambda", "string-lambda",
            "boolean-theta", "string-theta", "boolean-shots", "fractional-shots",
            "string-shots", "boolean-bootstrap", "fractional-bootstrap", "string-seed",
            "boolean-seed", "fractional-seed", "negative-seed", "retired-key"])
    def test_bad_config_entry_is_exit_2(self, capsys, tmp_path, entry):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"family": "cc", "lambda": 0.64, **entry}))
        code, out, err = run(capsys, "classify", "--config", str(cfg))
        assert code == 2
        assert next(iter(entry)) in err
        assert out == ""


@pytest.mark.parametrize("argv,name", [
    (["phase-scan", "--family", "cc", "--lambda", "0.64", "--phis", "1,,2"], "phis"),
    (["phase-scan", "--family", "cc", "--lambda", "0.64", "--phis", ""], "phis"),
], ids=["phase-scan-phis", "phase-scan-empty-phis"])
def test_malformed_phase_list_is_exit_2_naming_the_option(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert name in err
    assert out == ""


def test_retired_fallback_phase_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--family", "cc", "--lambda", "0.64", "--retry-phis", "3.14"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


BLIND_PHASES = ["0", repr(2 * np.pi), repr(-2 * np.pi), repr(4 * np.pi)]


@pytest.mark.parametrize("phi", BLIND_PHASES)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_blind_classify_phase_is_exit_2(capsys, tmp_path, phi, source):
    argv = ["classify", "--family", "qc", "--lambda", "0.5", "--theta", "0.7853981633974483"]
    if source == "flag":
        argv += ["--phi", phi]
    else:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"phi": float(phi)}))
        argv += ["--config", str(cfg)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "phi" in err
    assert out == ""


NON_FINITE = [
    ("classify", "--phi", "nan"),
    ("classify", "--hwp-angle", "inf"),
    ("classify", "--threshold-sigma", "inf"),
    ("classify", "--exact-epsilon", "nan"),
    ("sweep", "--phi", "nan"),
    ("sweep", "--hwp-angle", "inf"),
    ("sweep", "--lambda-grid", "nan:0.9:2"),
    ("sweep", "--theta-grid", "nan:1.4:2"),
    ("phase-scan", "--phis", "0.5,nan"),
    ("sweep", "--config", '{"phi": true}'),
    ("sweep", "--config", '{"hwp_angle": false}'),
    ("classify", "--config", '{"phi": true}'),
]
BASE_ARGV = {
    "classify": ["classify", "--family", "qc", "--lambda", "0.7", "--theta", "0.7"],
    "sweep": ["sweep", "--quantity", "Td", "--lambda-grid", "0.1:0.9:2",
              "--theta-grid", "0.1:1.4:2"],
    "phase-scan": ["phase-scan", "--family", "qc", "--lambda", "0.7", "--theta", "0.7"],
}


@pytest.mark.parametrize("command,flag,value", NON_FINITE, ids=lambda x: x)
def test_non_finite_input_is_exit_2(capsys, tmp_path, command, flag, value):
    argv = [a for a in BASE_ARGV[command]]
    if flag == "--config":
        cfg = tmp_path / "c.json"
        cfg.write_text(value)
        value = str(cfg)
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "finite" in err
    assert out == ""


class TestSweep:
    def test_zero_phase_is_accepted(self, capsys):
        code, out, _ = run(capsys, "sweep", "--lambda-grid", "0.2:0.8:3", "--theta-grid",
                           "0.3:1.2:3", "--phi", "0")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert len(rows) == 9
        # no evolution at phi = 0: Td and growth are both 0
        assert all(abs(float(r[4])) < 1e-12 and abs(float(r[5])) < 1e-12 for r in rows)

    def test_td_golden_point(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--quantity", "Td",
                         "--lambda-grid", "0.25:0.75:3", "--theta-grid",
                         f"0.7853981633974483:{np.pi / 2}:2", "--output", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "lambda,theta,phi,value"
        row = lines[2 + 1 * 2].split(",")  # lambda=0.5, theta=pi/4
        assert abs(float(row[0]) - 0.5) < 1e-12
        assert abs(float(row[3]) - 0.25) < 1e-9

    def test_t_golden_point(self, capsys):
        code, out, _ = run(capsys, "sweep", "--quantity", "T",
                           "--lambda-grid", "0.5:0.6:2",
                           "--theta-grid", "0.7853981633974483:1.5:2")
        assert code == 0
        first = out.splitlines()[2].split(",")
        assert abs(float(first[3]) - np.sqrt(2) / 4) < 1e-9

    def test_all_quantities_header(self, capsys):
        code, out, _ = run(capsys, "sweep", "--lambda-grid", "0.2:0.8:2",
                           "--theta-grid", "0.3:1.2:2")
        lines = out.splitlines()
        assert lines[1] == "lambda,theta,phi,T,Td,growth"
        assert len(lines) == 2 + 4

    def test_zero_line_samples_blind(self, capsys):
        from qdiscern.witness import zero_line_lambda
        theta = 1.2
        lam = zero_line_lambda(theta)
        code, out, _ = run(capsys, "sweep", "--quantity", "Td",
                           "--lambda-grid", f"{lam}:{lam + 1e-12}:2",
                           "--theta-grid", f"{theta}:{theta + 1e-12}:2")
        assert code == 0
        for line in out.splitlines()[2:]:
            assert float(line.split(",")[3]) < 1e-9

    @pytest.mark.parametrize("theta", [1.0, 1.2, 1.4])
    def test_zero_line_rows_are_discordant_yet_blind(self, capsys, theta):
        # the phi = pi witness cannot see these discordant states: Td = 0, T = lam
        from qdiscern.witness import zero_line_lambda
        lam = zero_line_lambda(theta)
        code, out, _ = run(capsys, "sweep", "--quantity", "all",
                           "--lambda-grid", f"{lam!r}:{lam!r}:2", "--theta-grid", f"{theta!r}:{theta!r}:2")
        assert code == 0
        rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[2:]]
        assert len(rows) == 4
        discord = oracle.discord(oracle.qc(lam, theta))
        for row_lam, row_theta, _, t, td, _ in rows:
            assert (row_lam, row_theta) == (lam, theta)
            assert td < 1e-9
            assert abs(t - lam) < 1e-12
            assert abs(t - discord) < 1e-12

    def test_t_sweep_builds_no_state(self, capsys, monkeypatch):
        argv = ["sweep", "--quantity", "T", *SWEEP_GOLDEN["grids"]["two-chunks-and-a-partial"]]
        code, want, _ = run(capsys, *argv)
        assert code == 0
        refuse_states(monkeypatch)
        assert run(capsys, *argv) == (0, want, "")

    def test_all_sweep_builds_no_state(self, capsys, monkeypatch):
        argv = ["sweep", "--quantity", "all", *SWEEP_GOLDEN["grids"]["two-chunks-and-a-partial"]]
        code, want, _ = run(capsys, *argv)
        assert code == 0
        refuse_states(monkeypatch)
        rows = []
        growth = kernels.growth_qc_grid
        monkeypatch.setattr(kernels, "growth_qc_grid", lambda lams, *a: rows.append(len(lams)) or growth(lams, *a))
        assert run(capsys, *argv) == (0, want, "")
        assert rows == [64, 64, 5]

    def test_byte_identical_output(self, capsys):
        argv = ["sweep", "--lambda-grid", "0.1:0.9:4", "--theta-grid", "0.1:1.4:4"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_chunked_rows_equal_per_row_values_and_oracle(self, capsys):
        n_theta = 64
        chunk_rows = SWEEP_CHUNK_POINTS // n_theta
        n_lam = 2 * chunk_rows + 5  # two whole chunks and a partial one
        code, out, _ = run(capsys, "sweep", "--quantity", "all", "--lambda-grid", f"0:1:{n_lam}",
                           "--theta-grid", f"0:1.5707963267948966:{n_theta}")
        assert code == 0
        table = np.array([[float(x) for x in line.split(",")] for line in out.splitlines()[2:]])
        assert table.shape == (n_lam * n_theta, 6)
        table = table.reshape(n_lam, n_theta, 6)
        thetas = table[0, :, 1]
        hwp = half_wave_plate(np.pi / 8)
        for lam, row in zip(table[:, 0, 0], table):
            rho = qc_matrices(lam, thetas)
            assert_allclose(row[:, 3], discord_values(rho), rtol=0, atol=1e-12)
            assert_allclose(row[:, 5], growth_values(rho, hwp, np.pi), rtol=0, atol=1e-12)
        rng = np.random.default_rng(5)
        for i, j in zip(rng.integers(0, n_lam, 40), rng.integers(0, n_theta, 40)):
            lam, theta, phi, t, td, growth = table[i, j]
            rho = oracle.qc(lam, theta)
            want = (oracle.discord(rho), oracle.td_witness(rho, phi),
                    oracle.growth(rho, oracle.hwp(np.pi / 8), phi))
            assert_allclose([t, td, growth], want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("quantity", ["T", "Td", "growth", "all"])
    @pytest.mark.parametrize("grid", sorted(SWEEP_GOLDEN["grids"]))
    def test_output_bytes_match_golden_hashes(self, capsys, tmp_path, grid, quantity):
        argv = ["sweep", "--quantity", quantity, *SWEEP_GOLDEN["grids"][grid]]
        want = SWEEP_GOLDEN["sha256"][grid][quantity]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want["stdout"]
        path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, *argv, "--output", str(path))
        assert (code, out) == (0, "")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want["output"]

    @pytest.mark.parametrize("grid", sorted(SWEEP_GOLDEN["grids"]))
    def test_all_columns_equal_the_single_quantity_outputs(self, capsys, grid):
        def rows(quantity):
            code, out, _ = run(capsys, "sweep", "--quantity", quantity, *SWEEP_GOLDEN["grids"][grid])
            assert code == 0
            return [line.split(",") for line in out.splitlines()[2:]]

        table = rows("all")
        for column, quantity in enumerate(("T", "Td", "growth"), start=3):
            assert [row[:3] + [row[column]] for row in table] == rows(quantity), quantity

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
    def test_failure_in_the_last_chunk_writes_nothing(self, capsys, tmp_path, monkeypatch, to_file):
        chunk_sizes = []

        growth = kernels.growth_qc_grid

        def growth_nan_in_last_chunk(lams, thetas, hwp_angle, phi):
            chunk_sizes.append(len(lams))
            # a NaN phase makes the growth values NaN, which their finite check rejects
            return growth(lams, thetas, hwp_angle, float("nan") if len(chunk_sizes) == 3 else phi)

        monkeypatch.setattr(kernels, "growth_qc_grid", growth_nan_in_last_chunk)
        path = tmp_path / "sweep.csv"
        argv = ["sweep", "--lambda-grid", "0:1:133", "--theta-grid", "0:1.5707963267948966:64"]
        code, out, err = run(capsys, *argv, *(["--output", str(path)] if to_file else []))
        assert code == 3
        assert "not finite" in err
        assert chunk_sizes == [64, 64, 5]
        assert out == ""
        assert not path.exists()

    def test_config_quantity_outside_choices_is_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"quantity": "bogus"}))
        code, out, err = run(capsys, "sweep", "--lambda-grid", "0.1:0.9:2",
                             "--theta-grid", "0.1:1.4:2", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "'bogus'" in err
        assert "T, Td, growth, all" in err

    @pytest.mark.parametrize("grid", ["0:1:1", "0:1"], ids=["one-point", "no-count"])
    def test_malformed_grid_is_exit_2(self, capsys, grid):
        code, out, err = run(capsys, "sweep", "--lambda-grid", grid, "--theta-grid", "0.1:1.0:3")
        assert (code, out) == (2, "")
        assert "start:stop:count" in err and repr(grid) in err

    def test_grid_out_of_range(self, capsys):
        code, _, _ = run(capsys, "sweep", "--lambda-grid", "0.5:1.5:3",
                         "--theta-grid", "0.1:1.0:3")
        assert code == 2

    def test_unwritable_output(self, capsys):
        code, _, _ = run(capsys, "sweep", "--lambda-grid", "0.1:0.9:2",
                         "--theta-grid", "0.1:1.0:2",
                         "--output", "/nonexistent-dir/x.csv")
        assert code == 2

    def test_closed_pipe_exits_141_quietly(self):
        # 10k rows, far more than a pipe holds: the write after the reader
        # closes fails with EPIPE
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "qdiscern.cli", "sweep", "--lambda-grid", "0:1:100",
             "--theta-grid", "0:1:100"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE == 141
        assert first.startswith(b"# {")
        assert err == b""


class TestPhaseScan:
    def test_family_from_config_file_flag_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"family": "cc", "lambda": 0.64, "theta": 0.0}))
        code, out, _ = run(capsys, "phase-scan", "--config", str(cfg), "--phis", PI)
        assert code == 0
        assert float(out.splitlines()[2].split(",")[1]) < 1e-12
        code, out, _ = run(capsys, "phase-scan", "--config", str(cfg), "--family", "qc",
                           "--lambda", "0.5", "--theta", "0.7853981633974483", "--phis", PI)
        assert code == 0
        assert abs(float(out.splitlines()[2].split(",")[1]) - 0.25) < 1e-9

    def test_monotone_scan_ends_at_quarter(self, capsys):
        code, out, _ = run(capsys, "phase-scan", "--family", "qc", "--lambda", "0.5",
                           "--theta", "0.7853981634",
                           "--phis", f"{np.pi / 4},{np.pi / 2},{np.pi}")
        assert code == 0
        vals = [float(line.split(",")[1]) for line in out.splitlines()[2:]]
        assert vals == sorted(vals)
        assert abs(vals[-1] - 0.25) < 1e-9

    def test_cc_all_zero(self, capsys):
        code, out, _ = run(capsys, "phase-scan", "--family", "cc", "--lambda", "0.64",
                           "--phis", "0.5,1.5,3.0")
        assert code == 0
        assert all(float(line.split(",")[1]) < 1e-12 for line in out.splitlines()[2:])

    def test_zero_phase_blind(self, capsys):
        code, out, _ = run(capsys, "phase-scan", "--family", "qc", "--lambda", "0.6",
                           "--theta", "0.9", "--phis", ",".join(BLIND_PHASES))
        assert code == 0
        assert all(abs(float(line.split(",")[1])) < 1e-12 for line in out.splitlines()[2:])

    def test_rows_scale_with_sin_half_phi(self, capsys):
        # Td(phi) = |sin(phi/2)| Td(pi) for every state
        phis = [PI, "0.3", "-1.7", "2.9", "5.5", "-9.1"]
        code, out, _ = run(capsys, "phase-scan", "--family", "qc", "--lambda", "0.55",
                           "--theta", "0.9", "--phis", ",".join(phis))
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[2:]]
        at_pi = float(rows[0][1])
        assert at_pi > 0.1
        for phi, value in rows:
            assert abs(float(value) - abs(np.sin(float(phi) / 2)) * at_pi) < 1e-15


class TestParserReuse:
    """In-process `main` calls share one parser, built on the first call."""

    SWEEP = ["sweep", "--lambda-grid", "0.1:0.9:3", "--theta-grid", "0.1:1.4:3"]

    def test_three_commands_build_the_parser_once(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        assert run(capsys, *self.SWEEP)[0] == 0
        assert run(capsys, "classify", "--family", "cc", "--lambda", "0.64", "--mode", "exact")[0] == 0
        assert run(capsys, "phase-scan", "--family", "qc", "--lambda", "0.5", "--phis", "1.0")[0] == 0
        assert len(built) == 1

    def test_import_builds_no_parser(self):
        code = ("import argparse\n"
                "built = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
                "import qdiscern.cli\n"
                "print(len(built))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout == "0\n"

    def test_main_runs_the_current_command_binding(self, capsys, monkeypatch):
        assert run(capsys, *self.SWEEP)[0] == 0  # the parser exists from here on
        seen = []
        monkeypatch.setattr(cli, "cmd_sweep", lambda args: seen.append(args.lambda_grid) or 0)
        assert run(capsys, *self.SWEEP) == (0, "", "")
        assert seen == ["0.1:0.9:3"]

    @pytest.mark.parametrize("bad", [["sweep"], ["sweep", "--quantity", "T", "--phi", "0.5"]])
    def test_usage_error_carries_nothing_into_the_next_call(self, capsys, bad):
        code, first, _ = run(capsys, *self.SWEEP)
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, *self.SWEEP) == (0, first, "")


def sweep_sha256(argv: list[str]) -> dict:
    """sha256 of the bytes `qdiscern <argv>` writes to stdout and to --output."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.csv"
        if (code, main([*argv, "--output", str(path)])) != (0, 0):
            raise SystemExit(f"sweep failed: {argv}")
        written = path.read_bytes()
    return {"stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
            "output": hashlib.sha256(written).hexdigest()}


if __name__ == "__main__":
    golden = SWEEP_GOLDEN
    hashes = {grid: {q: sweep_sha256(["sweep", "--quantity", q, *argv]) for q in SWEEP_QUANTITIES}
              for grid, argv in golden["grids"].items()}
    for grid, by_quantity in hashes.items():
        for q, got in by_quantity.items():
            was = golden["sha256"].get(grid, {}).get(q)
            print(f"{grid} {q}: {'unchanged' if got == was else 'changed'}")
    golden["sha256"] = hashes
    SWEEP_GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {SWEEP_GOLDEN_PATH}")
