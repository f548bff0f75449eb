"""The process floor: what importing the program loads before it runs.

Every end-to-end ``peak_rss_mb`` includes the modules the process loaded
at start-up. networkx (~14 MiB, the oracles' graph library) and
multiprocessing (the ``jobs=N`` pool's fork) load only when an oracle
check or a pool fork needs them, so importing the CLI, the harness or the
checks themselves leaves both out. The oracle checks whose networkx
import moved into their bodies are each run once on a good and once on a
bad output here, so a missing import shows as an error other than
:class:`VerificationError`.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import verify
from repro.graph.csr import Graph
from repro.verify import VerificationError

SRC = str(Path(__file__).resolve().parents[1] / "src")
DEFERRED = ("networkx", "multiprocessing")


@pytest.mark.parametrize("module", ["repro.cli", "repro.eval.harness", "repro.verify"])
def test_importing_leaves_networkx_and_multiprocessing_unloaded(module):
    probe = (
        f"import sys, {module}; "
        f"print(' '.join(m for m in {DEFERRED!r} if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == []


def _undirected(num_nodes, edges, weights=None):
    """Both directions of every ``(u, v)`` pair, weighted alike."""
    srcs = [u for u, v in edges] + [v for u, v in edges]
    dsts = [v for u, v in edges] + [u for u, v in edges]
    both = None if weights is None else np.asarray(list(weights) * 2, dtype=np.float64)
    return Graph.from_arrays(num_nodes, np.asarray(srcs), np.asarray(dsts), both)


# A path 0-1-2, an isolated node 3 and an edge 4-5.
PATHS = _undirected(6, [(0, 1), (1, 2), (4, 5)])
# A weighted triangle 0-1-2 (the 0-2 side heaviest) with 3 hanging off 0.
TRIANGLE = _undirected(4, [(0, 1), (1, 2), (0, 2), (0, 3)], [1.0, 2.0, 5.0, 1.0])

# check, its graph, an output it accepts, an output it refuses.
CASES = {
    "components": (
        verify.check_components,
        PATHS,
        ({0: 0, 1: 0, 2: 0, 3: 3, 4: 4, 5: 4},),
        ({0: 0, 1: 0, 2: 0, 3: 3, 4: 4, 5: 5},),
    ),
    "independent-set": (
        verify.check_independent_set,
        PATHS,
        ({0: 1, 1: 2, 2: 1, 3: 1, 4: 1, 5: 2},),
        ({0: 1, 1: 2, 2: 1, 3: 1, 4: 1, 5: 1},),
    ),
    "spanning-forest": (
        verify.check_spanning_forest,
        TRIANGLE,
        ([(0, 1, 1.0), (1, 2, 2.0), (0, 3, 1.0)],),
        ([(0, 1, 1.0), (0, 2, 5.0), (0, 3, 1.0)],),
    ),
    "connected-communities": (
        verify.check_community_partition,
        PATHS,
        ({0: "a", 1: "a", 2: "a", 3: "b", 4: "c", 5: "c"}, True),
        ({0: "a", 1: "b", 2: "a", 3: "b", 4: "c", 5: "c"}, True),
    ),
    "core-numbers": (
        verify.check_core_numbers,
        TRIANGLE,
        ({0: 2, 1: 2, 2: 2, 3: 1},),
        ({0: 2, 1: 2, 2: 2, 3: 2},),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_networkx_check_passes_good_and_refuses_bad_output(name):
    check, graph, good, bad = CASES[name]
    check(graph, *good)
    with pytest.raises(VerificationError):
        check(graph, *bad)


def test_expected_components_labels_each_node_with_its_component_minimum():
    assert verify.expected_components(PATHS) == {0: 0, 1: 0, 2: 0, 3: 3, 4: 4, 5: 4}
