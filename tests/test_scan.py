"""The outcome scan, ``tests/scan.py``, on ``bundled`` grid 0."""

import json

import pytest

import scan

GRID = ["--workload", "bundled", "--grid", "0"]


def test_scan_lists_exactly_the_instances_that_differ(tmp_path, capsys):
    out = tmp_path / "a.json"
    assert scan.run([*GRID, "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    assert len(records) == 27 and all(key.startswith("bundled/0/") for key in records)
    assert all(set(r) == {"code", "recovered", "digest"} for r in records.values())
    capsys.readouterr()
    # a second solve of the same grid in the same process repeats every report bit for bit
    assert scan.run([*GRID, "--against", str(out)]) == 0
    assert capsys.readouterr().out == ""
    key = sorted(records)[3]
    records[key]["digest"] = "0" * 64
    out.write_text(json.dumps(records))
    assert scan.run([*GRID, "--against", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{key}: ")


@pytest.mark.parametrize("flag", ["--out", "--against"])
def test_scan_refuses_an_empty_path_before_solving(flag, capsys, monkeypatch):
    def no_scan(grids):
        raise AssertionError("scanned although a path was empty")

    monkeypatch.setattr(scan, "scan", no_scan)
    with pytest.raises(SystemExit) as exit_info:
        scan.run([*GRID, flag, ""])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"{flag} '' names no file" in err
