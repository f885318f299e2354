"""Operation counters for the optimality smoke tests.

The asymptotic claims about query cost are checked by counting elementary
steps (node visits, face expansions, key comparisons) rather than by wall
clock.  Queries accept an optional OpCounter and tick it as they work; the
default shared NULL_COUNTER makes the common path branch-free.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OpCounter:
    """Mutable tally of elementary operations performed by a query."""

    visits: int = 0        # top simplices touched by floods
    expansions: int = 0    # faces enumerated / hashed
    comparisons: int = 0   # dictionary key comparisons

    def reset(self) -> None:
        self.visits = 0
        self.expansions = 0
        self.comparisons = 0

    @property
    def total(self) -> int:
        return self.visits + self.expansions + self.comparisons


# Shared sink for callers that do not measure anything.  It is reset-free on
# purpose: totals on it are meaningless and never read.
NULL_COUNTER = OpCounter()
