"""Reported invariant values: finite integers or an audited infinity.

An infinite height / index is always reported together with the cap the
walk was allowed, so "infinity" is auditable.  Every cap is a proven bound
(``cartier.default_height_cap`` = m, ``cartier.default_ns_cap`` = m + 1,
the latter also for lift indices), so every infinity is exhaustive.  A walk
may stop earlier, at a bound proven for the input at hand: the base walk at
the first stall of the Krylov span, a lift walk at R_{c,ns(f)} with
ns(f) <= m + 1 (``lifts.ns_lift``).  ``cap=None`` marks values that are
infinite unconditionally (no walk was needed).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Infinite:
    cap: int | None = None

    def __str__(self):
        if self.cap is None:
            return "infinity"
        return f"infinity (cap {self.cap})"


def is_infinite(value) -> bool:
    return isinstance(value, Infinite)


def value_to_json(value) -> dict:
    """Uniform JSON shape: {"value": int | "infinity", "cap": int | None}.

    An infinity also carries ``"exact": true``: its cap is a proven bound.
    """
    if is_infinite(value):
        return {"value": "infinity", "cap": value.cap, "exact": True}
    return {"value": value, "cap": None}
