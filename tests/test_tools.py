"""Smoke test of tools/verdict_counts.py on one seed per state."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "verdict_counts.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("verdict_counts", TOOL)
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
