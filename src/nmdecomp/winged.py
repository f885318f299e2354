"""Flat global tables for a decomposed complex.

All components share four arrays: TVP (top -> vertices), TTP (top -> tops
across facets), VTSTAR (vertex -> one incident top) and the per-dimension
directories TBase / TBaseAddr.  Top ids are repacked so tops of the same
dimension sit in one contiguous block, dimensions ascending and components
in decomposition order within a block; vertex ids are repacked to 1..NV
ascending.  Rows keep the input vertex order of the decomposition, which
the addressing below relies on.

TTP slot k of a top holds its neighbour across the facet opposite vertex
slot k: 0 means the facet is on the boundary, -1 that it has three or more
cofaces and adjacency is not a function there.

`Ewds.walk` is the package's one TTP flood: from seed tops across the
facets that contain a given simplex.  S0h is VTSTAR plus that walk, and
the non-manifold layer walks the star of every query through it too.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable

from .complexes import facet_slots
from .counters import NULL_COUNTER, OpCounter
from .decompose import DecompositionResult
from .errors import ParseError, UnknownTop, UnknownVertex

BOTTOM = 0    # facet on the boundary
DIAMOND = -1  # facet with three or more cofaces

MAGIC = b"EWD\x00"


@dataclass
class Ewds:
    """Packed decomposition with O(1) top/vertex lookups."""

    d: int
    nt: int
    nv: int
    tbase: list[int]       # block starts per dimension, sentinel nt+1 last
    tbase_addr: list[int]  # flat offsets per dimension block
    tvp: list[int]         # 1-based, index 0 unused
    ttp: list[int]
    vtstar: list[int]      # 1-based, index 0 unused
    top_old: list[int]     # new top id -> decomposition top id, index 0 unused
    vertex_old: list[int]  # new vertex id -> decomposition vertex id
    source: DecompositionResult = field(repr=False)
    top_new: dict[int, int] = field(repr=False, default_factory=dict)
    vertex_new: dict[int, int] = field(repr=False, default_factory=dict)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, dec: DecompositionResult) -> "Ewds":
        nabla = dec.nabla
        d = nabla.dim

        # a top goes to the block of its own dimension: the same as its
        # component's, except in a hand-built non-regular component
        blocks: list[list[int]] = [[] for _ in range(d + 1)]
        verts: set[int] = set()
        for comp in dec.components:
            for t in comp.top_ids:
                row = comp.row(t)
                blocks[len(row) - 1].append(t)
                verts.update(row)
        vertex_old = [0] + sorted(verts)
        counts = [len(block) for block in blocks]
        top_old = [0] + [t for block in blocks for t in block]
        nt = len(top_old) - 1
        nv = len(vertex_old) - 1
        top_new = {old: new for new, old in enumerate(top_old) if new}
        vertex_new = {old: new for new, old in enumerate(vertex_old) if new}

        tbase = [1]
        for h in range(d + 1):
            tbase.append(tbase[h] + counts[h])
        tbase_addr = [1]
        for h in range(d + 1):
            tbase_addr.append(tbase_addr[h] + (h + 1) * (tbase[h + 1] - tbase[h]))
        size = tbase_addr[d + 1] - 1

        # the blocks' rows lie end to end in top order
        tvp = [0]
        for t in top_old[1:]:
            tvp.extend(map(vertex_new.__getitem__, nabla.row(t)))

        ew = cls(
            d=d,
            nt=nt,
            nv=nv,
            tbase=tbase,
            tbase_addr=tbase_addr,
            tvp=tvp,
            ttp=[0] * (size + 1),
            vtstar=[0] * (nv + 1),
            top_old=top_old,
            vertex_old=vertex_old,
            top_new=top_new,
            vertex_new=vertex_new,
            source=dec,
        )
        ew.fill_tt()
        return ew

    # -- addressing --------------------------------------------------------

    @property
    def size(self) -> int:
        return self.tbase_addr[self.d + 1] - 1

    def dim_of_top(self, t: int) -> int:
        if type(t) is not int or not 1 <= t <= self.nt:
            raise UnknownTop(f"top {t!r} out of range 1..{self.nt}")
        return bisect_right(self.tbase, t, hi=self.d + 1) - 1

    def row_layout(self, t: int) -> tuple[int, int]:
        """Row width w of top t's dimension block and its offset off.

        The row of every top u in that block starts at TVP/TTP index
        off + u * w, so walkers that stay in one block validate t once and
        find every other row by arithmetic.
        """
        h = self.dim_of_top(t)
        return h + 1, self.tbase_addr[h] - self.tbase[h] * (h + 1)

    def row_of(self, t: int) -> tuple[int, ...]:
        w, off = self.row_layout(t)
        return tuple(self.tvp[off + t * w : off + t * w + w])

    def tt_row_of(self, t: int) -> tuple[int, ...]:
        w, off = self.row_layout(t)
        return tuple(self.ttp[off + t * w : off + t * w + w])

    def vtstar_of(self, v: int) -> int:
        if type(v) is not int or not 1 <= v <= self.nv:
            raise UnknownVertex(f"vertex {v!r} out of range 1..{self.nv}")
        return self.vtstar[v]

    # -- adjacency fill ----------------------------------------------------

    def _block_tops(self, h: int) -> range:
        return range(self.tbase[h], self.tbase[h + 1])

    def fill_tt(self) -> None:
        """Populate TTP and VTSTAR.

        Order-1 facets get BOTTOM, order-2 facets mutual references, and
        every coface of a facet of order three or more gets DIAMOND.

        Each dimension-h block is one call of `complexes.facet_slots` over
        its TVP slice: a facet maps to the TVP addresses of the slots
        opposite it, and the TTP entry for that facet sits at the same
        address, in the top (address - lo) // w places into the block.

        VTSTAR[v] is pinned to the smallest coface of the lexicographically
        first facet containing v, which makes the table reproducible.
        """
        tvp, ttp, vtstar = self.tvp, self.ttp, self.vtstar
        ttp[1:] = [BOTTOM] * self.size
        for t in self._block_tops(0):
            vtstar[tvp[self.tbase_addr[0] + t - self.tbase[0]]] = t
        for h in range(1, self.d + 1):
            w = h + 1
            lo, hi = self.tbase_addr[h], self.tbase_addr[h + 1]
            # top ids are read from a list, not computed, so that TTP holds
            # one int object per top rather than one per entry
            top_at = list(self._block_tops(h))
            slots = facet_slots(tvp, zip(range(lo, hi, w), repeat(w)))
            for face in sorted(slots):
                opp = slots[face]
                if type(opp) is int:
                    first = top_at[(opp - lo) // w]
                elif len(opp) == 2:
                    a, b = opp
                    first = top_at[(a - lo) // w]
                    ttp[a] = top_at[(b - lo) // w]
                    ttp[b] = first
                else:
                    first = top_at[(opp[0] - lo) // w]
                    for a in opp:
                        ttp[a] = DIAMOND
                for v in face:
                    if not vtstar[v]:
                        vtstar[v] = first

    # -- queries -----------------------------------------------------------

    def walk(self, gset: set[int], seeds: Iterable[int]) -> set[int]:
        """Tops that walks from seeds reach across facets containing gset.

        Every seed spans gset, and so does every top the walk reaches: it
        crosses at each slot whose vertex lies outside gset, and only
        order-2 facets, so boundary and higher-order facets stop it.
        fill_tt pairs cofaces block by block, so TTP links a top only to
        tops of its own dimension block: the walk finds the layout of its
        first seed and every other row by arithmetic.  It neither checks
        nor counts; its callers do both.
        """
        seen = set(seeds)
        w, off = self.row_layout(next(iter(seen)))
        tvp, ttp = self.tvp, self.ttp
        stack = list(seen)
        while stack:
            base = off + stack.pop() * w
            for k in range(base, base + w):
                if tvp[k] not in gset:
                    u = ttp[k]
                    if u > 0 and u not in seen:
                        seen.add(u)
                        stack.append(u)
        return seen

    def s0h(self, v: int, counter: OpCounter = NULL_COUNTER) -> list[int]:
        """All tops of v's component incident to v, ascending.

        S0h is VTSTAR plus `walk`: the walk from v's VTSTAR top across
        facets containing v stays correct exactly when the star of v is
        manifold-connected, which initial quasi-manifolds guarantee.
        Counts one visit per top and one expansion per slot of each
        visited top.
        """
        start = self.vtstar_of(v)
        seen = self.walk({v}, (start,))
        counter.visits += len(seen)
        counter.expansions += len(seen) * (self.dim_of_top(start) + 1)
        return sorted(seen)

    # -- serialization -----------------------------------------------------

    def dump_bytes(self) -> bytes:
        head = struct.pack("<4sIII", MAGIC, self.d, self.nt, self.nv)
        parts = [head]
        for arr in (
            self.tvp[1:],
            self.ttp[1:],
            self.vtstar[1:],
            self.tbase[: self.d + 1],
            self.tbase_addr[: self.d + 1],
        ):
            parts.append(struct.pack(f"<{len(arr)}i", *arr))
        return b"".join(parts)


def parse_dump(data: bytes) -> dict:
    """Unpack a binary dump back into named integer arrays.

    Raises ParseError on a short header, a wrong magic number, block
    directories that do not chain, or a length that disagrees with them.
    """
    if len(data) < 16:
        raise ParseError(f"dump of {len(data)} bytes is shorter than its header")
    magic, d, nt, nv = struct.unpack_from("<4sIII", data, 0)
    if magic != MAGIC:
        raise ParseError("not an extended winged dump")
    # SIZE follows only from TBase / TBaseAddr, which close the file: read
    # them from the end, then require every array to fit the length exactly.
    dirs = 8 * (d + 1)
    if len(data) < 16 + dirs:
        raise ParseError(f"dump of {len(data)} bytes cannot hold its block directories")
    tail = struct.unpack_from(f"<{2 * (d + 1)}i", data, len(data) - dirs)
    tbase, tbase_addr = list(tail[: d + 1]), list(tail[d + 1 :])
    if tbase[0] != 1:
        raise ParseError("block directory TBase does not start at top 1")
    bounds = tbase + [nt + 1]
    addr = 1
    for h in range(d + 1):
        if tbase_addr[h] != addr or bounds[h] > bounds[h + 1]:
            raise ParseError(f"block directories do not chain at dimension {h}")
        addr += (h + 1) * (bounds[h + 1] - bounds[h])
    size = addr - 1
    if len(data) != 16 + 4 * (2 * size + nv) + dirs:
        raise ParseError(
            f"dump of {len(data)} bytes, expected {16 + 4 * (2 * size + nv) + dirs}"
        )
    off = 16

    def take(n: int) -> list[int]:
        nonlocal off
        vals = list(struct.unpack_from(f"<{n}i", data, off))
        off += 4 * n
        return vals

    return {
        "d": d,
        "nt": nt,
        "nv": nv,
        "tvp": take(size),
        "ttp": take(size),
        "vtstar": take(nv),
        "tbase": tbase,
        "tbase_addr": tbase_addr,
    }
