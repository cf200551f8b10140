"""``scripts/snapshot.py`` keeps working: a small grid runs and compares, and no hash is pinned."""

import importlib.util
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def snapshot():
    spec = importlib.util.spec_from_file_location("snapshot", REPO / "scripts" / "snapshot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def entries(snapshot):
    return snapshot.snapshot(REPO, small=True)


def test_every_group_hashes_its_entries(snapshot, entries):
    hashes = snapshot.group_hashes(entries)
    assert list(hashes) == ["cli", "files", "tables"]
    for digest, count in hashes.values():
        assert re.fullmatch("[0-9a-f]{64}", digest) and count > 0
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in entries.values())
    assert sum(count for _, count in hashes.values()) == len(entries)


def test_entries_cover_exit_codes_json_keys_and_written_files(entries):
    names = list(entries)
    assert any(name.endswith("--json :: restart_values") for name in names)
    assert any(name.startswith("files: seesaw ") for name in names)
    assert any(name.startswith("files: save_table ") for name in names)
    assert any(name.startswith("tables: noisy_table ") for name in names)
    # a failing command is recorded with its exit code and stderr
    assert "cli: bounds --witness linear --N 3 --d 4 :: exit" in names


def test_the_grid_is_deterministic(snapshot, entries):
    assert snapshot.snapshot(REPO, small=True) == entries


def test_differences_name_each_entry_that_differs(snapshot):
    here = {"cli: a": "1", "cli: b": "2", "files: c": "3"}
    there = {"cli: a": "1", "cli: b": "9", "tables: d": "4"}
    assert snapshot.differences(here, here) == []
    assert snapshot.differences(here, there) == [
        "differs:    cli: b", "only here:  files: c", "only there: tables: d"]


def test_against_a_checkout_runs_the_grid_there(snapshot, capsys):
    assert snapshot.main(["--small", "--against", str(REPO)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["groups that differ: none", "no entry differs"]
    assert len([line for line in out if line.startswith(("here ", "there "))]) == 6
