"""Distributed top-k substrate.

The paper's exact algorithm H-WTopk is a three-round adaptation of TPUT
[Cao & Wang, PODC'04] that copes with *signed* scores and ranks by absolute
value.  The MapReduce driver (:mod:`repro.algorithms.hwtopk`) runs the rounds;
this package holds the two pure threshold functions it shares with them:

* :func:`~repro.topk.tput.kth_largest` — TPUT's ``k``-th largest threshold;
* :func:`~repro.topk.signed_tput.magnitude_lower_bound` — the signed
  variant's lower bound on ``|aggregate|`` from an upper and a lower bound.
"""

from repro.topk.signed_tput import magnitude_lower_bound
from repro.topk.tput import kth_largest

__all__ = [
    "magnitude_lower_bound",
    "kth_largest",
]
