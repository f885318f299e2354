"""Flat global tables for a decomposed complex.

All components share four arrays: TVP (top -> vertices), TTP (top -> tops
across facets), VTSTAR (vertex -> one incident top) and the per-dimension
directories TBase / TBaseAddr.  Top ids are repacked so tops of the same
dimension sit in one contiguous block, dimensions ascending and components
in decomposition order within a block, each one run, which starts at its
`Ewds.comp_first`; vertex ids are repacked to 1..NV ascending.  Rows keep
the input vertex order of the decomposition, which the addressing below
relies on.  `Ewds.build` packs only initial quasi-manifold (IQM)
components, and everything after it relies on that.  It is also the last
code that reads a decomposition: its maps from packed to decomposition
ids live only while it runs, `Ewds.sigma_n` keeps the copy map, packed
vertex -> source vertex, and the non-manifold layer and the encoder read
the tables and sigma_n alone.

TTP slot k of a top holds its neighbour across the facet opposite vertex
slot k: 0 means the facet is on the boundary, -1 that it has three or more
cofaces and adjacency is not a function there.

`Ewds.walk_block` is the package's one TTP flood: from one seed top
across the facets that contain a given simplex.  The walk from VTSTAR[v]
across facets that hold v covers v's star in its component, since every
component is an IQM.  Only queries walk: `NmLayer.snm_global` runs it once
per patch of the queried simplex's star, on the block it has laid out.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable

from .complexes import corner_layout
from .decompose import BOTTOM, DIAMOND, DecompositionResult
from .errors import NotIqm, ParseError, UnknownTop

MAGIC = b"EWD\x00"


@dataclass
class Ewds:
    """Packed decomposition with O(1) top/vertex lookups, in packed ids:
    sigma_n maps each vertex to the source vertex it copies, and no map
    leads back to the decomposition's ids once `build` returns."""

    d: int
    nt: int
    nv: int
    tbase: list[int]       # block starts per dimension, sentinel nt+1 last
    tbase_addr: list[int]  # flat offsets per dimension block
    tvp: list[int]         # 1-based, index 0 unused
    ttp: list[int]
    vtstar: list[int]      # 1-based, index 0 unused
    comp_first: list[int]  # each component's first top, ascending in decomposition order
    sigma_n: list[int]     # packed vertex id -> source vertex id, index 0 unused
    # (w, off) of each dimension block, the `row_layout` of its tops,
    # derived once from tbase and tbase_addr for callers that trust a top
    block_layouts: list[tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.block_layouts = [
            (h + 1, self.tbase_addr[h] - self.tbase[h] * (h + 1)) for h in range(self.d + 1)
        ]

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, dec: DecompositionResult) -> "Ewds":
        """Pack dec, the one gate of the IQM precondition: a result that
        `decompose` did not build (not `dec.iqm`) raises NotIqm at its
        first component whose `nabla.subcomplex` fails `Complex.is_iqm`,
        the only place a component is built as a complex to be checked.
        Each component, being regular, is then one run of its dimension's
        block, in the order of dec.components, TVP and TTP are read off
        nabla's store and dec.tt, and sigma_n off dec.sigma.  The result
        keeps no reference to dec."""
        nabla = dec.nabla
        if not dec.iqm:
            for comp in dec.components:
                if not nabla.subcomplex(comp.top_ids).is_iqm():
                    top = comp.top_ids[0]
                    raise NotIqm(f"the component of top {top} is not an initial quasi-manifold")
        d = nabla.dim

        blocks: list[list[int]] = [[] for _ in range(d + 1)]
        runs = []  # (block, index in it) of each component's first top
        for comp in dec.components:
            block = blocks[comp.dim]
            runs.append((comp.dim, len(block)))
            block.extend(comp.top_ids)
        flat, start = corner_layout(nabla)  # the rows of all the components
        vertex_old = [0] + sorted(set(flat))
        top_old = [0] + [t for block in blocks for t in block]
        nt = len(top_old) - 1
        nv = len(vertex_old) - 1
        top_new = {old: new for new, old in enumerate(top_old) if new}
        vertex_new = {old: new for new, old in enumerate(vertex_old) if new}

        tbase, tbase_addr = [1], [1]
        for h, block in enumerate(blocks):
            tbase.append(tbase[h] + len(block))
            tbase_addr.append(tbase_addr[h] + (h + 1) * len(block))
        comp_first = [tbase[h] + i for h, i in runs]

        # the blocks' rows lie end to end in top order, and so do their TT
        # rows, repacked from dec.tt, which runs parallel to nabla's flat
        # corners and names a top by its 1-based index in nabla's top_ids,
        # -1 being DIAMOND.  TTP and VTSTAR name each top by one int object
        # of a list made here, in packed order; pointing them at the values
        # of the old-to-new top map instead made encodings and queries on a
        # 6 000-tet ball 2-4 % slower (Python 3.11, 2 vCPUs)
        new_of = list(map(top_new.__getitem__, nabla.top_ids))
        top_at = list(range(nt + 1))
        packed = [BOTTOM, *map(top_at.__getitem__, new_of), DIAMOND]
        tt = dec.tt
        tvp, ttp = [0], [0]
        for i in sorted(range(len(new_of)), key=new_of.__getitem__):  # in packed order
            s, e = start[i], start[i + 1]
            tvp.extend(map(vertex_new.__getitem__, flat[s:e]))
            ttp.extend(map(packed.__getitem__, tt[s:e]))

        ew = cls(
            d=d,
            nt=nt,
            nv=nv,
            tbase=tbase,
            tbase_addr=tbase_addr,
            tvp=tvp,
            ttp=ttp,
            vtstar=[0] * (nv + 1),
            comp_first=comp_first,
            sigma_n=[0, *map(dec.sigma.__getitem__, vertex_old[1:])],
        )
        ew._fill_vtstar(top_at)
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
        """Row width w of top t's dimension block and its offset off: the
        row of every top u in that block starts at TVP/TTP index off + u * w.
        A caller whose t comes from the tables themselves reads the same
        pair, unchecked, as `block_layouts[bisect_right(tbase, t) - 1]`."""
        return self.block_layouts[self.dim_of_top(t)]

    def row_of(self, t: int) -> tuple[int, ...]:
        w, off = self.row_layout(t)
        return tuple(self.tvp[off + t * w : off + t * w + w])

    def tt_row_of(self, t: int) -> tuple[int, ...]:
        w, off = self.row_layout(t)
        return tuple(self.ttp[off + t * w : off + t * w + w])

    # -- vertex stars ------------------------------------------------------

    def _block_tops(self, h: int) -> range:
        return range(self.tbase[h], self.tbase[h + 1])

    def _fill_vtstar(self, top_at: list[int]) -> None:
        """VTSTAR[v] is the smallest coface of the lexicographically first
        facet that holds v, in the lowest block that holds v; a vertex top
        is its own.  That makes the table reproducible.

        One pass over each block's packed rows: the first facet of a top
        that holds v is its sorted row less its last vertex, or less the
        one before when v is last.  top_at[t] is the int object for top t.
        """
        tvp, vtstar, nv = self.tvp, self.vtstar, self.nv
        off = self.block_layouts[0][1]
        for t in self._block_tops(0):
            vtstar[tvp[off + t]] = top_at[t]
        for h in range(1, self.d + 1):
            best = [[nv + 1]] * (nv + 1)  # above every facet
            star = [0] * (nv + 1)
            block = tvp[self.tbase_addr[h] : self.tbase_addr[h + 1]]
            rows = map(sorted, zip(*[iter(block)] * (h + 1)))
            for t, head in zip(self._block_tops(h), rows):
                last = head.pop()
                for v in head:
                    if head < best[v]:
                        best[v] = head
                        star[v] = t
                facet = head[:-1]
                facet.append(last)
                if facet < best[last]:
                    best[last] = facet
                    star[last] = t
            for v, t in enumerate(star):
                if t and not vtstar[v]:
                    vtstar[v] = top_at[t]

    # -- queries -----------------------------------------------------------

    def walk_block(self, gset: set[int], seed: int, w: int, off: int) -> set[int]:
        """Tops that the walk from seed reaches across facets containing gset.

        It crosses only order-2 facets, at slots outside gset, so every top
        it reaches spans gset as the seed does, and TTP keeps it in the
        seed's dimension block, whose `row_layout` (w, off) the caller
        passes.  Nothing is validated or counted.  A vertex star, gset one
        vertex v, tests each slot with `tvp[k] != v`, an int comparison; a
        larger gset tests membership.
        """
        seen = {seed}
        stack = [seed]
        tvp, ttp = self.tvp, self.ttp
        if len(gset) == 1:
            (v,) = gset
            while stack:
                base = off + stack.pop() * w
                for k in range(base, base + w):
                    if tvp[k] != v:
                        u = ttp[k]
                        if u > 0 and u not in seen:
                            seen.add(u)
                            stack.append(u)
            return seen
        while stack:
            base = off + stack.pop() * w
            for k in range(base, base + w):
                if tvp[k] not in gset:
                    u = ttp[k]
                    if u > 0 and u not in seen:
                        seen.add(u)
                        stack.append(u)
        return seen

    # -- serialization -----------------------------------------------------

    def dump_bytes(self) -> bytes:
        d = self.d
        tables = (self.tvp[1:], self.ttp[1:], self.vtstar[1:], self.tbase[: d + 1])
        return pack_dump(MAGIC, d, self.nt, self.nv, (*tables, self.tbase_addr[: d + 1]))


def pack_dump(magic: bytes, d: int, nt: int, nv: int, arrays: Iterable[list[int]]) -> bytes:
    """A binary dump: the `<4sIII` header of magic, d, nt and nv, then each
    array as little-endian int32s, end to end.  Both dumps are written
    here, and `parse_dump` reads the `Ewds` one back."""
    parts = [struct.pack("<4sIII", magic, d, nt, nv)]
    for arr in arrays:
        parts.append(struct.pack(f"<{len(arr)}i", *arr))
    return b"".join(parts)


def parse_dump(data: bytes) -> dict:
    """Unpack a binary dump back into named integer arrays.

    Raises ParseError on a short header, a wrong magic number, block
    directories that do not chain, a length that disagrees with them, or
    the first entry outside its table: TVP 1..NV, VTSTAR 1..NT, and TTP
    BOTTOM, DIAMOND or a top of its own block.
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
    body = list(struct.unpack_from(f"<{2 * size + nv}i", data, 16))
    tvp, ttp, vtstar = body[:size], body[size : 2 * size], body[2 * size :]
    _check_entries("TVP", tvp, 1, range(1, nv + 1))
    for lo, hi, top, end in zip(tbase_addr, tbase_addr[1:] + [size + 1], bounds, bounds[1:]):
        _check_entries("TTP", ttp[lo - 1 : hi - 1], lo, range(top, end), (BOTTOM, DIAMOND))
    _check_entries("VTSTAR", vtstar, 1, range(1, nt + 1))
    return {
        "d": d,
        "nt": nt,
        "nv": nv,
        "tvp": tvp,
        "ttp": ttp,
        "vtstar": vtstar,
        "tbase": tbase,
        "tbase_addr": tbase_addr,
    }


def _check_entries(name: str, entries: list, first: int, ids: range, marks: tuple = ()) -> None:
    """Raise ParseError at the first entry in neither ids nor marks, naming
    table name and the entry's index, entries[0] being at first."""
    vals = set(entries).difference(marks)
    if vals and (min(vals) < ids.start or max(vals) >= ids.stop):
        i = next(i for i, x in enumerate(entries) if x not in ids and x not in marks)
        allowed = ", ".join(map(str, (*marks, f"{ids.start}..{ids.stop - 1}")))
        raise ParseError(f"{name}[{first + i}] = {entries[i]} is not in {allowed}")
