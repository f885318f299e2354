"""Implicit vertex storage via coupled top and vertex renumbering.

Most vertex entries of the packed tables can be dropped if top and vertex
numbers are chosen together: per dimension block, each component elects a
seed top whose last-slot vertex takes the next seed number, and a DFS over
the adjacency table pairs every newly entered top with the one vertex it
adds, advancing both counters in lockstep.  A paired entry is then just
arithmetic: vertex = VBase + (top - TBase).  Only the unpaired leftovers
and the non-final slots of paired tops are stored explicitly.

Seed slots 1..h are reserved up front; the DFS never pairs a reserved
vertex, which keeps the final h*CC numbers of every vertex block aligned
with their seeds and the region arithmetic exact.  A top whose opposite
vertex is already taken stays unpaired and is stored in full.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .errors import NotIqm, OutOfRange, UnknownVertex
from .winged import Ewds

MAGIC_IMPLICIT = b"EWD\x01"


@dataclass
class Renumbering:
    """Old-to-new maps produced by the seed-and-pair traversal."""

    ftt: list[int]                    # packed top id -> implicit id, index 0 unused
    fvv: list[int]                    # packed vertex id -> implicit id
    perms: dict[int, tuple[int, ...]]  # packed top -> new slot -> old slot (0-based)
    cc: list[int]                     # components per dimension
    vbase: list[int]                  # vertex block starts, sentinel nv+1

    def perm_of(self, t: int) -> tuple[int, ...]:
        return self.perms.get(t, ())


def compute_renumbering(ewds: Ewds) -> Renumbering:
    """Seed-and-pair numbering of a packed decomposition.

    Requires every component to be an initial quasi-manifold: otherwise
    vertex stars may fall apart and the pairing invariants do not hold.
    TTP links two tops exactly across a facet with two cofaces in one
    dimension block, so a vertex's facet flood reaches its whole star
    exactly when its component is regular and its star is connected
    across manifold facets; a shorter flood raises NotIqm.
    """
    dec = ewds.source
    star = [0] * (ewds.nv + 1)  # a row lists each of its vertices once
    for v in ewds.tvp[1:]:
        star[v] += 1
    for v in range(1, ewds.nv + 1):
        reached = len(ewds.s0h(v))
        if reached != star[v]:
            raise NotIqm(
                f"facet flood of vertex {ewds.vertex_old[v]} reaches {reached} "
                f"of its {star[v]} tops: its component is not an IQM"
            )

    d = ewds.d
    nv = ewds.nv
    ftt = [0] * (ewds.nt + 1)
    fvv = [0] * (nv + 1)  # 0 = unassigned, -1 = reserved for a seed slot
    perms: dict[int, tuple[int, ...]] = {}

    cc = [0] * (d + 1)
    seeds_per_dim: dict[int, list[int]] = {h: [] for h in range(d + 1)}
    for comp in dec.components:
        cc[comp.dim] += 1
        seeds_per_dim[comp.dim].append(ewds.top_new[comp.top_ids[0]])
    # components are vertex-disjoint and, being IQMs, each lies in one
    # block, so a vertex belongs to the block of its VTSTAR top
    anchors = sorted(ewds.vtstar[1:])
    nv_per_dim = [
        bisect_left(anchors, ewds.tbase[h + 1]) - bisect_left(anchors, ewds.tbase[h])
        for h in range(d + 1)
    ]
    vbase = [1]
    for h in range(d + 1):
        vbase.append(vbase[h] + nv_per_dim[h])

    # flat copies of TVP/TTP; the DFS swaps a paired top's new slot into
    # its last one, once per top, and records that exchange in perms
    tv, tt = list(ewds.tvp), list(ewds.ttp)

    for h in range(d + 1):
        w = h + 1
        off = ewds.tbase_addr[h] - ewds.tbase[h] * w
        tidx = ewds.tbase[h]
        tnew = ewds.tbase[h] + cc[h]
        vidx = vbase[h]
        vnew = vbase[h] + cc[h]  # pairing numbers; reserved slots come last
        for seed in seeds_per_dim[h]:
            base = off + seed * w
            ftt[seed] = tidx
            tidx += 1
            fvv[tv[base + h]] = vidx
            vidx += 1
            for j in range(h):
                fvv[tv[base + j]] = -1
        for seed in seeds_per_dim[h]:
            visited = {seed}
            stack = [(seed, 0)]
            while stack:
                t, i = stack[-1]
                if i > h:
                    stack.pop()
                    continue
                stack[-1] = (t, i + 1)
                base = off + t * w
                nbr = tt[base + i]
                if nbr <= 0 or nbr in visited:
                    continue
                visited.add(nbr)
                phi = set(tv[base : base + w])
                phi.discard(tv[base + i])
                nbase = off + nbr * w
                k = next(kk for kk in range(w) if tv[nbase + kk] not in phi)
                v = tv[nbase + k]
                if fvv[v] == 0:
                    fvv[v] = vnew
                    vnew += 1
                    ftt[nbr] = tnew
                    tnew += 1
                    if k != h:
                        for arr in (tv, tt):
                            arr[nbase + k], arr[nbase + h] = arr[nbase + h], arr[nbase + k]
                        perm = list(range(w))
                        perm[k], perm[h] = h, k
                        perms[nbr] = tuple(perm)
                # unpaired tops stay in the walk: the flood must reach every
                # star from outside once, or vertices behind them never pair
                stack.append((nbr, 0))
        for t in ewds._block_tops(h):
            if ftt[t] == 0:
                ftt[t] = tnew
                tnew += 1
        for seed in seeds_per_dim[h]:
            for j in range(h):
                v = tv[off + seed * w + j]
                assert fvv[v] == -1  # reserved slots survive the pairing
                fvv[v] = vnew
                vnew += 1
    return Renumbering(ftt, fvv, perms, cc, vbase)


@dataclass
class ImplicitEwds:
    """Packed tables with arithmetically recoverable vertex entries."""

    d: int
    nt: int
    nv: int
    tbase: list[int]
    tbase_addr: list[int]
    cc: list[int]
    vbase: list[int]
    taddr: list[int]
    iibnd: list[int]
    iitaddr: list[int]
    tvpp: list[int]  # 1-based, stored vertex entries only
    ttpp: list[int]  # 1-based, full adjacency in implicit ids
    renumbering: Renumbering = field(repr=False)

    # -- lookups -----------------------------------------------------------

    def tv_lookup(self, h: int, t: int, k: int) -> int:
        """Vertex at slot k of implicit top t (dimension h)."""
        if not 0 <= h <= self.d:
            raise OutOfRange(f"dimension {h} out of range 0..{self.d}")
        if not self.tbase[h] <= t < self.tbase[h + 1]:
            raise OutOfRange(f"top {t} not in dimension-{h} block")
        if not 1 <= k <= h + 1:
            raise OutOfRange(f"slot {k} out of range 1..{h + 1}")
        if t < self.tbase[h] + self.cc[h]:  # seed
            if k == h + 1:
                return self.vbase[h] + (t - self.tbase[h])
            return self.vbase[h + 1] - self.cc[h] * h + (t - self.tbase[h]) * h + k - 1
        if t < self.iibnd[h]:  # paired
            if k == h + 1:
                return self.vbase[h] + (t - self.tbase[h])
            return self.tvpp[self.taddr[h] + (t - self.tbase[h] - self.cc[h]) * h + k - 1]
        return self.tvpp[self.iitaddr[h] + (t - self.iibnd[h]) * (h + 1) + k - 1]

    def row_of(self, t: int) -> tuple[int, ...]:
        h = bisect_right(self.tbase, t, hi=self.d + 1) - 1
        return tuple(self.tv_lookup(h, t, k) for k in range(1, h + 2))

    def vtstar_lookup(self, v: int) -> int:
        """An incident top of implicit vertex v, by region arithmetic alone."""
        if not 1 <= v <= self.nv:
            raise UnknownVertex(f"vertex {v} out of range 1..{self.nv}")
        h = bisect_right(self.vbase, v, hi=self.d + 1) - 1
        if h == 0 or v < self.vbase[h + 1] - self.cc[h] * h:
            return self.tbase[h] + (v - self.vbase[h])  # its seed or pair top
        return self.tbase[h] + (v - self.vbase[h + 1] + self.cc[h] * h) // h

    # -- serialization -----------------------------------------------------

    def dump_bytes(self) -> bytes:
        head = struct.pack("<4sIII", MAGIC_IMPLICIT, self.d, self.nt, self.nv)
        parts = [head]
        for arr in (
            self.tvpp[1:],
            self.ttpp[1:],
            self.tbase[: self.d + 1],
            self.tbase_addr[: self.d + 1],
            self.taddr,
            self.vbase,
        ):
            parts.append(struct.pack(f"<{len(arr)}i", *arr))
        return b"".join(parts)


def apply_renumbering(ewds: Ewds, ren: Renumbering) -> ImplicitEwds:
    """Emit the compressed tables for a computed renumbering."""
    d = ewds.d
    cc, vbase = ren.cc, ren.vbase
    old_of = [0] * (ewds.nt + 1)
    for t in range(1, ewds.nt + 1):
        old_of[ren.ftt[t]] = t

    taddr = [1]
    for h in range(d + 1):
        taddr.append(
            taddr[h]
            + (ewds.tbase[h + 1] - ewds.tbase[h]) * (h + 1)
            - (vbase[h + 1] - vbase[h])
        )
    iibnd = [
        ewds.tbase[h] + vbase[h + 1] - vbase[h] - cc[h] * h for h in range(d + 1)
    ]
    iitaddr = [
        taddr[h] + (iibnd[h] - ewds.tbase[h] - cc[h]) * h for h in range(d + 1)
    ]

    def swapped(t: int) -> list[int]:
        row = ewds.row_of(t)
        perm = ren.perms.get(t)
        if perm is None:
            return list(row)
        return [row[p] for p in perm]

    def swapped_tt(t: int) -> list[int]:
        row = ewds.tt_row_of(t)
        perm = ren.perms.get(t)
        if perm is None:
            return list(row)
        return [row[p] for p in perm]

    tvpp = [0]
    ttpp = [0] * (ewds.size + 1)
    for h in range(d + 1):
        for t in range(ewds.tbase[h], ewds.tbase[h + 1]):
            old = old_of[t]
            new_row = [ren.fvv[v] for v in swapped(old)]
            base = ewds.tbase_addr[h] + (t - ewds.tbase[h]) * (h + 1)
            for k, nbr in enumerate(swapped_tt(old)):
                ttpp[base + k] = ren.ftt[nbr] if nbr > 0 else nbr
            if t < ewds.tbase[h] + cc[h]:
                continue  # seeds are fully arithmetic
            if t < iibnd[h]:
                tvpp.extend(new_row[:h])
            else:
                tvpp.extend(new_row)
    assert len(tvpp) == taddr[d + 1]

    return ImplicitEwds(
        d=d,
        nt=ewds.nt,
        nv=ewds.nv,
        tbase=list(ewds.tbase),
        tbase_addr=list(ewds.tbase_addr),
        cc=cc,
        vbase=vbase,
        taddr=taddr,
        iibnd=iibnd,
        iitaddr=iitaddr,
        tvpp=tvpp,
        ttpp=ttpp,
        renumbering=ren,
    )
