"""The byte-pin tables and their one harness.

Each JSON file below holds sha256 digests and exact values of what runs
deliver. A test module declares a :class:`PinTable` on one of them and
checks it with :meth:`PinTable.check` and :meth:`PinTable.check_coverage`.

``PYTHONPATH=src python -m tests.pins`` (no options) is the one recorder.
It computes every declared cell. If a recorded cell no longer reproduces,
it prints the keys that differ, writes nothing and exits 1. Otherwise it
keeps the recorded cells verbatim, adds the missing ones, drops the
undeclared ones and prints the keys it added and dropped. To re-record a
cell on purpose, delete its key from the file in the same commit.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable

_HERE = os.path.dirname(os.path.abspath(__file__))
BSP_REPORTS = os.path.join(_HERE, "bsp_report_pins.json")
ASYNC_REPORTS = os.path.join(_HERE, "async_report_pins.json")
LOG_OUTPUTS = os.path.join(_HERE, "log_output_pins.json")
INGEST = os.path.join(_HERE, "ingest_pins.json")
PRICING = os.path.join(_HERE, "pricing_pins.json")


def sha256_json(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def dumps(content: dict) -> str:
    """A pin file's bytes: the one form every table is written in."""
    return json.dumps(content, indent=1, sort_keys=True) + "\n"


def _read(path: str | os.PathLike) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as src:
        return json.load(src)


_load = functools.cache(_read)  # the tests parse each file once per process


@dataclass(frozen=True)
class PinTable:
    """``cells`` maps key -> ``pin`` arguments; ``section`` names the
    table's top-level entry when one file holds several tables."""

    path: str | os.PathLike
    cells: dict[str, tuple]
    pin: Callable[..., Any]
    section: str | None = None

    def recorded(self, content: dict | None = None) -> dict:
        content = _load(self.path) if content is None else content
        return content.get(self.section, {}) if self.section else content

    def check(self, key: str) -> None:
        assert self.pin(*self.cells[key]) == self.recorded()[key], key

    def check_coverage(self) -> None:
        assert sorted(self.recorded()) == sorted(self.cells)


def record(tables: list[PinTable]) -> int:
    """Compute every cell of ``tables`` and write their files, unless a
    recorded cell no longer reproduces. Returns the exit status."""
    files, differ, report = {}, [], []
    for table in tables:
        recorded = table.recorded(_read(table.path))
        label = os.path.basename(table.path) + (f"[{table.section}]" if table.section else "")
        cells = {}
        for key, args in table.cells.items():
            value = table.pin(*args)
            if key not in recorded:
                report.append(f"added {label} {key}")
            elif value != recorded[key]:
                differ.append(f"  {label} {key}")
            cells[key] = recorded.get(key, value)
        report += [f"dropped {label} {key}" for key in sorted(set(recorded) - set(cells))]
        files.setdefault(table.path, {}).update({table.section: cells} if table.section else cells)
    if differ:
        print("recorded cells that no longer reproduce (nothing written):", *differ, sep="\n")
        return 1
    for path, content in files.items():
        with open(path, "w", encoding="utf-8") as out:
            out.write(dumps(content))
    for line in report:
        print(line)
    return 0


def registered() -> list[PinTable]:
    """The committed tables, from the test modules that declare them."""
    from tests import test_bsp_report_pins as bsp, test_engine_async as engine
    from tests import test_costmodel_pricing as pricing, test_graph_ingest as ingest
    from tests import test_log_output_pins as log

    return [
        bsp.PINS, engine.PINS, log.PINS, ingest.GRAPH_PINS, ingest.PARTITION_PINS, pricing.PINS
    ]


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit("usage: python -m tests.pins (no arguments; delete a key to re-record it)")
    sys.exit(record(registered()))
