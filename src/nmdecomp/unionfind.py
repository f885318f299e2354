"""Union-find on one parent list over the integers 0..n-1.

`union_min` links the larger root under the smaller, so every class is
rooted at its smallest member.  Because a parent then never exceeds its
child, one ascending pass (`flatten`) points every member straight at its
root.
"""

from __future__ import annotations


def union_min(parent: list[int], a: int, b: int) -> None:
    """Merge the classes of a and b under the smaller of their two roots."""
    # path halving: each step points a at its grandparent, then moves there
    while parent[a] != a:
        parent[a] = a = parent[parent[a]]
    while parent[b] != b:
        parent[b] = b = parent[parent[b]]
    if a < b:
        parent[b] = a
    elif b < a:
        parent[a] = b


def flatten(parent: list[int]) -> list[int]:
    """Point every member at its class's smallest member, in place."""
    for k in range(len(parent)):
        parent[k] = parent[parent[k]]
    return parent
