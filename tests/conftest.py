"""Shared helpers: the random-graph rotation and the canonical report form."""

from __future__ import annotations

import json

import pytest

from repro.graph import generators

# A failed pin check shows the recorded and the computed cell side by side.
pytest.register_assert_rewrite("tests.pins")


def random_graph(seed: int, weighted: bool = False):
    """One of three small graph shapes (uniform, grid, skewed) by seed."""
    kind = seed % 3
    if kind == 0:
        return generators.erdos_renyi(40, 3.0, seed=seed, weighted=weighted)
    if kind == 1:
        return generators.road_like(6, 5, seed=seed, weighted=weighted)
    return generators.rmat(5, 4, seed=seed, weighted=weighted)


def canonical(result) -> str:
    """A run report as the bytes the byte-identity contracts compare."""
    return json.dumps(result.to_dict(), sort_keys=True)
