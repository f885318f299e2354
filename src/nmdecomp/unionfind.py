"""Union-find, dict-keyed for arbitrary keys and list-based for 0..n-1.

The list form keeps one parent array and links the larger root under the
smaller, so every class is rooted at its smallest member.  Because a
parent then never exceeds its child, one ascending pass (`flatten`) points
every member straight at its root.
"""

from __future__ import annotations

from typing import Hashable, Iterable


class UnionFind:
    """Disjoint sets over arbitrary hashable keys.

    find() on an unseen key creates its singleton on the fly, which keeps the
    call sites short (no separate make_set pass).
    """

    def __init__(self, keys: Iterable[Hashable] = ()):
        self._parent: dict = {}
        self._size: dict = {}
        for k in keys:
            self.find(k)

    def find(self, k):
        parent = self._parent
        if k not in parent:
            parent[k] = k
            self._size[k] = 1
            return k
        # path halving
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size.pop(rb)  # sizes are kept for roots only

    def groups(self) -> list[list]:
        """Classes as lists, each sorted, ordered by their smallest member."""
        by_root: dict = {}
        for k in self._parent:
            by_root.setdefault(self.find(k), []).append(k)
        out = [sorted(v) for v in by_root.values()]
        out.sort(key=lambda g: g[0])
        return out


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
