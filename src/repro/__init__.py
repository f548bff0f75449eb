"""Kimbap reproduction: a node-property map system for distributed graph analytics.

This package reimplements the system described in "Kimbap: A Node-Property
Map System for Distributed Graph Analytics" (ASPLOS 2024) in Python, running
on a deterministic simulated cluster (see ``repro.cluster``) instead of an
MPI cluster. The public surface re-exports the pieces most users need:

* :class:`repro.graph.Graph` and the synthetic generators,
* the partitioning policies in :mod:`repro.partition`,
* :class:`repro.cluster.Cluster` and :class:`repro.cluster.CostModel`,
* :class:`repro.core.NodePropMap` (the paper's core contribution),
* the algorithms in :mod:`repro.algorithms`,
* the compiler entry point :func:`repro.compiler.compile_program`.
"""

from repro.graph import Graph, generators
from repro.cluster import Cluster, CostModel, ModeledTime
from repro.core import BoolReducer, NodePropMap, RuntimeVariant
from repro.partition import partition

__all__ = [
    "Graph",
    "generators",
    "Cluster",
    "CostModel",
    "ModeledTime",
    "NodePropMap",
    "RuntimeVariant",
    "partition",
    "BoolReducer",
]

__version__ = "0.1.0"
