"""The request bitset: deduplicates per-round remote property requests.

Section 4.1: "We use a concurrent bitset and set the i-th bit if node i is
requested, which avoids duplicate requests." In the simulation, setting a
bit is idempotent and race-free by construction; the value of the structure
is the deduplication, which directly reduces request message volume.
"""

from __future__ import annotations

import numpy as np


class ConcurrentBitset:
    """A fixed-size bitset over global node ids."""

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError("size must be non-negative")
        self._bits = np.zeros(size, dtype=bool)
        self._count = 0

    def set(self, index: int) -> bool:
        """Set bit ``index``; returns True if it was newly set."""
        if self._bits[index]:
            return False
        self._bits[index] = True
        self._count += 1
        return True

    def set_many(self, indices: np.ndarray) -> np.ndarray:
        """Set many bits at once; returns the newly-set mask.

        Equivalent to calling :meth:`set` per index in order: within the
        batch only the first occurrence of a duplicate index can report
        newly-set, and only if the bit was clear beforehand.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return np.zeros(0, dtype=bool)
        was_set = self._bits[idx].copy()
        first = np.zeros(idx.size, dtype=bool)
        _, first_positions = np.unique(idx, return_index=True)
        first[first_positions] = True
        newly = first & ~was_set
        self._bits[idx] = True
        self._count += int(np.count_nonzero(newly))
        return newly

    def test(self, index: int) -> bool:
        return bool(self._bits[index])

    def clear(self) -> None:
        self._bits[:] = False
        self._count = 0

    def nonzero(self) -> np.ndarray:
        """All set indices, ascending (the aggregation step of request-sync)."""
        return np.flatnonzero(self._bits)

    def __len__(self) -> int:
        return self._count

    @property
    def size(self) -> int:
        return self._bits.size
