"""tools/outputs.py: the comparison that gates byte identity in CI."""
from __future__ import annotations

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "outputs", Path(__file__).resolve().parents[1] / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(outputs)


def test_undeclared_difference_fails(capsys):
    mine = {"a.csv": "1", "b.csv": "2", "new.csv": "3"}
    other = {"a.csv": "1", "b.csv": "9", "gone.csv": "4"}
    assert outputs.compare(mine, other, set()) == 1
    out = capsys.readouterr().out
    for path in ("b.csv", "new.csv", "gone.csv"):
        assert f"DIFFERS   {path}" in out
    assert "a.csv" not in out
    assert "3 of 4 files differ, 3 undeclared" in out


def test_declared_differences_pass(tmp_path, monkeypatch, capsys):
    declared = tmp_path / "outputs.declared"
    declared.write_text("# header\nb.csv  # retrained\n\nnew.csv\n", encoding="utf-8")
    monkeypatch.setattr(outputs, "DECLARED", declared)
    assert outputs.read_declared() == {"b.csv", "new.csv"}
    mine, other = {"a.csv": "1", "b.csv": "2", "new.csv": "3"}, {"a.csv": "1", "b.csv": "9"}
    assert outputs.compare(mine, other, outputs.read_declared()) == 0
    assert "declared  b.csv" in capsys.readouterr().out

