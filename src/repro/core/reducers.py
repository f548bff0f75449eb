"""Reduction operators for node-property maps.

``Reduce()`` takes an associative, commutative function (Section 3.1). The
named instances below cover every algorithm in the paper: ``MIN`` for the
connected-components family, ``SUM`` for Louvain/Leiden cluster totals,
``PAIR_MIN``/``PAIR_MAX`` for lexicographic (weight, id) reductions in
Boruvka MSF and priority MIS, ``LOGICAL_OR`` for the work-done reducer.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cache
from typing import Any, Callable

import numpy as np


@cache  # one entry per (ufunc, dtype) ever folded; asked on every fold
def _exact_identity(ufunc: Any, dtype: np.dtype) -> Any:
    """:meth:`ReduceOp.identity`, by ufunc."""
    kind = dtype.kind
    if ufunc is np.add:
        if kind == "f":
            return dtype.type(-0.0)
        if kind in "iu":
            return dtype.type(0)
    elif ufunc is np.minimum or ufunc is np.maximum:
        low = ufunc is np.maximum
        if kind == "f":
            return dtype.type(-np.inf if low else np.inf)
        if kind in "iu":
            info = np.iinfo(dtype)
            return dtype.type(info.min if low else info.max)
        if kind == "b":
            return np.bool_(not low)
    return None


@dataclass(frozen=True)
class ReduceOp:
    """A named associative+commutative binary operator.

    ``ufunc``, when set, is the numpy equivalent used by the bulk execution
    path to fold numeric batches; its unbuffered ``.at`` form applies
    duplicate indices sequentially, in position order, so a scatter into
    accumulators seeded with the operator's *exact identity*
    (:meth:`identity`) is bit-identical to the scalar left-to-right
    application of ``fn``. Operators without a ufunc (tuple-valued, boolean
    short-circuit), and ufuncs or dtypes with no known exact identity,
    fall back to per-item ``fn``.
    """

    name: str
    fn: Callable[[Any, Any], Any]
    ufunc: Any = field(default=None, compare=False)

    def __call__(self, left: Any, right: Any) -> Any:
        return self.fn(left, right)

    def identity(self, dtype: Any) -> Any:
        """The value ``e`` of ``dtype`` for which ``ufunc(e, x)`` is ``x``
        *bit for bit*, for every ``x`` - or None when none is known (no
        ufunc, a ufunc other than add/minimum/maximum, an object, complex,
        datetime or other non-real dtype, bool under add), in which case
        the bulk path applies ``fn`` per item.

        Float add seeds with ``-0.0``, not ``+0.0``: under round-to-nearest
        ``-0.0 + x`` returns ``x`` for every ``x`` including both zeros,
        while ``+0.0 + -0.0`` is ``+0.0`` - a sign bit the scalar fold of
        an all-``-0.0`` group keeps. Minimum/maximum seed with the far end
        of the dtype's range (``+inf``/``-inf``, ``iinfo.max``/``.min``,
        ``True``/``False``), which every ``x`` ties or beats.
        """
        return _exact_identity(self.ufunc, np.dtype(dtype))


MIN = ReduceOp("min", min, ufunc=np.minimum)
MAX = ReduceOp("max", max, ufunc=np.maximum)
# ``operator.add``, not ``lambda a, b: a + b``: where two NaNs meet, CPython's
# specialised float ``+`` keeps the other operand's sign than its generic
# path, so a lambda's sum of two NaNs changes once the interpreter warms it up.
SUM = ReduceOp("sum", operator.add, ufunc=np.add)
LOGICAL_OR = ReduceOp("or", lambda a, b: bool(a) or bool(b))
LOGICAL_AND = ReduceOp("and", lambda a, b: bool(a) and bool(b))
# Tuples compare lexicographically, so min/max work directly; the aliases
# exist to make call sites state their intent (reduce-by-(key, payload)).
PAIR_MIN = ReduceOp("pair_min", min)
PAIR_MAX = ReduceOp("pair_max", max)
# Last-write-wins "reduction": rebuild-style operators (PageRank's rank
# rebuild) overwrite the property rather than fold into it.
OVERWRITE = ReduceOp("overwrite", lambda old, new: new)
