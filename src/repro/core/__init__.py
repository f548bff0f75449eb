"""The node-property map: the paper's core contribution.

A :class:`NodePropMap` stores node-id -> property pairs distributed across
the cluster, optimized for highly concurrent sparse reductions via three
domain-specific optimizations (Section 4.2):

* **GAR** - graph-partition-aware representation: masters in a dense
  vector, requested remote properties in sorted arrays (binary search).
* **CF** - conflict-free reductions via thread-local maps combined with a
  disjoint key-range dealing step.
* **SGR** - scatter-gather-reduce: one message per host pair per round
  carrying partial reductions to the owners.

:class:`RuntimeVariant` selects between the full map and the ablation
variants of Section 6.4 (MC / SGR-only / SGR+CF / SGR+CF+GAR), and
:class:`BoolReducer` is Figure 4's distributed boolean (``work_done``).
"""

from repro.core.bitset import ConcurrentBitset
from repro.core.reducers import ReduceOp, MIN, MAX, SUM, LOGICAL_OR, PAIR_MIN, PAIR_MAX
from repro.core.variants import RuntimeVariant
from repro.core.propmap import NodePropMap
from repro.core.bool_reducer import BoolReducer

__all__ = [
    "ConcurrentBitset",
    "ReduceOp",
    "MIN",
    "MAX",
    "SUM",
    "LOGICAL_OR",
    "PAIR_MIN",
    "PAIR_MAX",
    "RuntimeVariant",
    "NodePropMap",
    "BoolReducer",
]
