"""The paper's modified TPUT: distributed top-k by |aggregate| over signed scores.

Section 3 of the paper generalises TPUT to scores that may be negative, with
the ranking criterion being the *magnitude* of the aggregate score — exactly
the situation for wavelet coefficients, where the global coefficient is the
sum of per-split local coefficients of either sign.  The three rounds:

Round 1
    Every node sends its local top-``k`` (highest) and bottom-``k`` (most
    negative) items.  For every seen item ``x`` the coordinator computes an
    upper bound ``tau_plus(x)`` and a lower bound ``tau_minus(x)`` on the
    aggregate: a node that reported ``x`` contributes its exact score, a node
    that did not contributes its ``k``-th highest (resp. ``k``-th lowest)
    reported score.  The magnitude lower bound is
    ``tau(x) = 0`` if the bounds straddle zero, else ``min(|tau_plus|, |tau_minus|)``.
    ``T1`` is the ``k``-th largest ``tau(x)``.

Round 2
    Every node sends all items with local ``|score| > T1 / m`` (excluding
    those already sent).  The coordinator refines the bounds — an unreported
    score is now known to lie in ``[-T1/m, +T1/m]`` — recomputes the threshold
    ``T2`` and prunes every item whose refined magnitude *upper* bound
    ``max(|tau_plus|, |tau_minus|)`` is below ``T2``.

Round 3
    Exact scores of the surviving candidates are fetched and the exact
    top-``k`` by magnitude is returned.

The MapReduce H-WTopk driver (:mod:`repro.algorithms.hwtopk`) runs these
rounds as jobs; this module holds the bound it shares with them,
:func:`magnitude_lower_bound`.  H-WTopk's exactness is checked against
Send-V's full reconstruction in the exact-algorithm tests.
"""

from __future__ import annotations

from repro.errors import InvalidParameterError

__all__ = ["magnitude_lower_bound"]


def magnitude_lower_bound(tau_plus: float, tau_minus: float) -> float:
    """Lower bound on ``|r(x)|`` from bounds ``tau_minus <= r(x) <= tau_plus``.

    If the bounds straddle zero the magnitude may be arbitrarily small, so the
    bound is zero; otherwise it is the smaller endpoint magnitude.

    Bounds computed by summing per-node contributions in different orders can
    cross by a few ulps; such tiny inversions are treated as equality rather
    than rejected.
    """
    if tau_plus < tau_minus:
        tolerance = 1e-9 * max(1.0, abs(tau_plus), abs(tau_minus))
        if tau_minus - tau_plus <= tolerance:
            tau_plus = tau_minus
        else:
            raise InvalidParameterError(
                f"upper bound {tau_plus} smaller than lower bound {tau_minus}"
            )
    if (tau_plus >= 0) != (tau_minus >= 0):
        return 0.0
    return min(abs(tau_plus), abs(tau_minus))
