"""Dict-keyed union-find with path compression, shared by several modules."""

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
