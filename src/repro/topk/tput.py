"""The TPUT threshold helper shared by H-WTopk.

TPUT [7] (Cao & Wang, PODC'04) finds the ``k`` items of largest aggregate
score across ``m`` nodes in three rounds; after rounds 1 and 2 the coordinator
takes the ``k``-th largest (partial or bound) score as its pruning threshold.
The paper's H-WTopk (:mod:`repro.algorithms.hwtopk`) runs the signed-score
variant of those rounds as MapReduce jobs and computes both thresholds, ``T1``
and ``T2``, with :func:`kth_largest`.
"""

from __future__ import annotations

import heapq
from typing import List

from repro.errors import InvalidParameterError

__all__ = ["kth_largest"]


def kth_largest(values: List[float], k: int) -> float:
    """The ``k``-th largest value (0 when fewer than ``k`` values exist)."""
    if k < 1:
        raise InvalidParameterError(f"k must be positive, got {k}")
    if len(values) < k:
        return 0.0
    return heapq.nlargest(k, values)[-1]
