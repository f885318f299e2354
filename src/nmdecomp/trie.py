"""Prefix tree over the sorted vertex words of the faces of a complex.

Used to answer "give me one top incident to this simplex" without touching
vertex stars: descend by the sorted vertices, then slide to the leftmost
leaf, whose payload is the smallest top containing that leaf's word (and
hence the query simplex).  Words can be excluded at build time; their
nodes may survive as interior structure but are not terminal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping

from .complexes import Complex, Simplex, simplex
from .counters import NULL_COUNTER, OpCounter
from .errors import NotInTrie


@dataclass
class TrieNode:
    children: dict[int, "TrieNode"] = field(default_factory=dict)
    terminal: bool = False
    payload: int | None = None  # smallest incident top, used at leaves


class FtTrie:
    def __init__(self) -> None:
        self.root = TrieNode()
        self.num_words = 0

    def insert(self, word: Iterable[int], top: int) -> None:
        node = self.root
        for v in word:
            child = node.children.get(v)
            if child is None:
                child = node.children[v] = TrieNode()
            node = child
        if not node.terminal:
            node.terminal = True
            self.num_words += 1
        node.payload = top if node.payload is None else min(node.payload, top)

    def lookup(self, gamma: Iterable[int], counter: OpCounter = NULL_COUNTER) -> int:
        """Smallest top under the leftmost leaf extending gamma."""
        node = self.root
        for v in simplex(gamma):
            counter.comparisons += 1
            nxt = node.children.get(v)
            if nxt is None:
                raise NotInTrie(f"no face starts with {v} here")
            node = nxt
        if not node.terminal:
            raise NotInTrie("word is interior structure, not a stored face")
        while node.children:
            counter.comparisons += 1
            node = node.children[min(node.children)]
        assert node.payload is not None  # leaves are full top rows
        return node.payload

    @property
    def num_nodes(self) -> int:
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children.values())
        return count


def build_ft_trie(
    source: Complex,
    excluded: Iterable[Simplex] = (),
    top_hint: Mapping[int, int] | None = None,
) -> FtTrie:
    """Trie over every face of source, minus the excluded words.

    top_hint maps a source top id to the id recorded as payload (the
    decomposition may renumber tops); identity when omitted.
    """
    excluded = set(excluded)
    trie = FtTrie()
    for t in source.top_ids:
        row = sorted(source.row(t))
        hint = top_hint[t] if top_hint is not None else t
        for r in range(1, len(row) + 1):
            for word in combinations(row, r):
                if word not in excluded:
                    trie.insert(word, hint)
    return trie
