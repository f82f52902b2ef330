"""Smoke tests of tools/verdict_counts.py, on one seed per state, and of
tools/sweep_diff.py on small sweeps."""

import importlib.util
import json
from pathlib import Path

from qdiscern.cli import main as qdiscern_main

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load_tool(name="verdict_counts"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verdict_counts_reports_changed_seeds(tmp_path, capsys):
    tool = _load_tool()
    path = tmp_path / "run.json"
    assert tool.main(["--seeds", "1", "--write", str(path)]) == 0
    run = json.loads(path.read_text())
    assert sorted(run["runs"]) == ["CC(0.64)", "CC(1.0)", "F(0.5)", "F(0.65)"]
    assert capsys.readouterr().out.count("\n") == 4
    assert tool.changed_seeds(run, run) == []

    moved = json.loads(path.read_text())
    moved["runs"]["F(0.5)"][0]["td"] += 1e-12
    path.write_text(json.dumps(moved))
    assert tool.main(["--seeds", "1", "--compare", str(path)]) == 1
    out = capsys.readouterr().out
    assert "1 of 4 runs changed verdict or Td" in out
    assert "F(0.5) seed 0:" in out


def test_verdict_lines_name_the_seeds_of_minority_verdicts():
    tool = _load_tool()
    verdicts = ["F", "F", "QC", "F", "QC", "F", "CC"]
    result = {"runs": {"F(0.65)": [{"seed": s, "verdict": v, "td": 0.0}
                                   for s, v in enumerate(verdicts)],
                       "F(0.5)": [{"seed": 0, "verdict": "F", "td": 0.0}]}}
    assert tool.verdict_lines(result) == ["F(0.65): CC 1 (seeds 6), F 4, QC 2 (seeds 2, 4)",
                                          "F(0.5): F 1"]


def test_sweep_diff_reports_each_column_and_rejects_other_shapes(tmp_path, capsys):
    tool = _load_tool("sweep_diff")
    paths = {}
    for name, quantity, lams in [("a", "all", "0:1:3"), ("b", "all", "0:1:3"), ("td", "Td", "0:1:3"),
                                 ("short", "all", "0:1:2")]:
        paths[name] = tmp_path / f"{name}.csv"
        assert qdiscern_main(["sweep", "--quantity", quantity, "--lambda-grid", lams,
                              "--theta-grid", "0.1:1.4:4", "--output", str(paths[name])]) == 0
    lines = paths["b"].read_text().splitlines()
    row = lines[4].split(",")
    row[5] = repr(float(row[5]) + 0.25)
    lines[4] = ",".join(row)
    paths["b"].write_text("\n".join(lines) + "\n")

    assert tool.main([str(paths["a"]), str(paths["b"])]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "lambda: 0 of 12 moved, max |delta| 0"
    assert out[5] == "growth: 1 of 12 moved, max |delta| 0.25"
    assert len(out) == 6

    assert tool.main([str(paths["a"]), str(paths["td"])]) == 1
    assert capsys.readouterr().out.startswith("headers differ")
    assert tool.main([str(paths["a"]), str(paths["short"])]) == 1
    assert capsys.readouterr().out == "row counts differ: the second file ends after 8 rows\n"
