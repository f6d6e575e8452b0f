"""The test-only code census fails on allowlist rot as well as on new hits."""

import importlib.util
from pathlib import Path

_CENSUS = Path(__file__).resolve().parent.parent / "scripts" / "census_unused.py"


def _load():
    spec = importlib.util.spec_from_file_location("census_unused", _CENSUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stale_allowlist_entry_fails(tmp_path, monkeypatch, capsys):
    census = _load()
    allowlist = tmp_path / "allowlist.txt"
    allowlist.write_text(
        census.ALLOWLIST.read_text()
        + "def repro.sim.sources.MMPPArrivals  # deleted long ago\n"
    )
    monkeypatch.setattr(census, "ALLOWLIST", allowlist)
    assert census.main([]) == 1
    out = capsys.readouterr().out
    assert "STALE  def    repro.sim.sources.MMPPArrivals" in out
    assert "0 not allowlisted, 1 stale allowlist entries" in out
