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


# flag, path under the test's directory ('' stays empty), and what the refusal says
BAD_PATHS = {
    "--out": ("--out", "", "--out '' names no file"),
    "--against": ("--against", "", "--against '' names no file"),
    "--out-directory": ("--out", ".", "is a directory"),
    "--out-missing-directory": ("--out", "missing/records.json", "missing is not a directory"),
    "--out-under-a-file": ("--out", "list.json/records.json", "list.json is not a directory"),
    "--against-missing": ("--against", "missing.json", "No such file"),
    "--against-directory": ("--against", ".", "Is a directory"),
    "--against-not-utf8": ("--against", "latin1.json", "codec can't decode"),
    "--against-not-json": ("--against", "text.json", "Expecting value"),
    "--against-not-an-object": ("--against", "list.json", "is not a JSON object"),
}


@pytest.mark.parametrize("flag, name, message", BAD_PATHS.values(), ids=BAD_PATHS.keys())
def test_scan_refuses_an_empty_path_before_solving(flag, name, message, tmp_path, capsys,
                                                   monkeypatch):
    # and every other path it cannot write, or whose records it cannot read
    def no_scan(grids):
        raise AssertionError("scanned although a path was bad")

    monkeypatch.setattr(scan, "scan", no_scan)
    (tmp_path / "latin1.json").write_bytes(b'{"caf\xe9": 1}')
    (tmp_path / "text.json").write_text("not json")
    (tmp_path / "list.json").write_text("[]")
    with pytest.raises(SystemExit) as exit_info:
        scan.run([*GRID, flag, str(tmp_path / name) if name else ""])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_scan_compares_against_the_union_of_several_files(tmp_path, capsys, monkeypatch):
    records = {f"bundled/0/case{k}": {"code": 0, "recovered": True, "digest": str(k)}
               for k in range(4)}
    monkeypatch.setattr(scan, "scan", lambda grids: records)
    keys = sorted(records)
    halves = {}
    for name, part in (("first", keys[:3]), ("second", keys[2:])):  # both hold keys[2]
        halves[name] = tmp_path / f"{name}.json"
        halves[name].write_text(json.dumps({key: records[key] for key in part}))
    assert scan.run([*GRID, "--against", str(halves["first"]), str(halves["second"])]) == 0
    capsys.readouterr()
    assert scan.run([*GRID, "--against", str(halves["first"])]) == 1
    assert capsys.readouterr().out == f"{keys[3]}: None -> {records[keys[3]]}\n"


def test_scan_refuses_files_that_hold_one_key_with_different_records(tmp_path, capsys,
                                                                    monkeypatch):
    def no_scan(grids):
        raise AssertionError("scanned although two files disagreed")

    monkeypatch.setattr(scan, "scan", no_scan)
    key, record = "bundled/0/case", {"code": 0, "recovered": True, "digest": "0" * 64}
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps({key: record}))
    second.write_text(json.dumps({key: {**record, "code": 3}}))
    with pytest.raises(SystemExit) as exit_info:
        scan.run([*GRID, "--against", str(first), str(second)])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"--against {second}: {key} has another record" in err
