"""Reported invariant values: finite integers or an audited infinity.

An infinite height / index is always reported together with the cap the
walk was allowed, so "infinity" is auditable (the walk may stop earlier, at
the first stall of the Krylov span).  ``cap=None`` marks values that are
infinite unconditionally (no walk was needed).  ``exact=False`` marks a
height cap below the proven bound (``cartier.default_height_cap``, m over
every field), so the dots past the cap were not tested.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Infinite:
    cap: int | None = None
    exact: bool = True

    def __str__(self):
        if self.cap is None:
            return "infinity"
        kind = "" if self.exact else ", not exhaustive"
        return f"infinity (cap {self.cap}{kind})"


def is_infinite(value) -> bool:
    return isinstance(value, Infinite)


def value_to_json(value) -> dict:
    """Uniform JSON shape: {"value": int | "infinity", "cap": int | None}."""
    if is_infinite(value):
        return {"value": "infinity", "cap": value.cap, "exact": value.exact}
    return {"value": value, "cap": None}
