"""The one pin recorder (``tests/pins.py``) only adds and drops cells."""

from __future__ import annotations

import json
from pathlib import Path

from tests.pins import PinTable, dumps, record, registered, sha256_json


def test_the_recorder_only_adds_and_drops_cells(tmp_path, capsys):
    plain, shared = tmp_path / "plain.json", tmp_path / "shared.json"
    cells = {key: (key,) for key in "abc"}
    tables = [PinTable(plain, cells, sha256_json)]
    tables += [PinTable(shared, cells, sha256_json, section) for section in "xy"]

    def files():
        return {path: path.read_text(encoding="utf-8") for path in (plain, shared)}

    def edit(path, change):
        content = json.loads(path.read_text(encoding="utf-8"))
        change(content)
        path.write_text(dumps(content), encoding="utf-8")

    def run(status):
        capsys.readouterr()
        assert record(tables) == status
        return capsys.readouterr().out

    run(0)
    full = files()
    # A deleted key comes back with the same bytes, and nothing else moves.
    edit(plain, lambda content: content.pop("b"))
    edit(shared, lambda content: content["y"].pop("a"))
    assert run(0) == "added plain.json b\nadded shared.json[y] a\n"
    assert files() == full
    # An undeclared key is dropped and reported.
    edit(shared, lambda content: content["x"].update(z="?"))
    assert run(0) == "dropped shared.json[x] z\n"
    assert files() == full
    # A cell that no longer reproduces is refused, and nothing is written,
    # not even a missing cell.
    edit(plain, lambda content: content.pop("c"))
    edit(shared, lambda content: content["x"].update(a="?"))
    before = files()
    assert "  shared.json[x] a\n" in run(1)
    assert files() == before


def test_the_committed_files_are_in_the_writers_form():
    for path in {table.path for table in registered()}:
        text = Path(path).read_text(encoding="utf-8")
        assert text == dumps(json.loads(text)), path
