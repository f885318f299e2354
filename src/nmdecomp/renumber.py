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

The pairing needs initial quasi-manifold components, which `Ewds.build`
guarantees: it packs no other decomposition.

The DFS reads TTP alone to step between tops: `Ewds.build` packs every
order-2 pair both ways and two tops of one block share at most one facet,
so the slot of a neighbour that holds the top the walk came from is the
slot opposite their shared facet, and its vertex is the one the neighbour
adds.  `apply_renumbering` then reads each dimension block of TVP/TTP as
one slice, in implicit top order.  It checks only a renumbering that
`compute_renumbering` did not make from the same tables.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain

from .errors import BadRenumbering, OutOfRange, UnknownTop, UnknownVertex
from .winged import BOTTOM, DIAMOND, Ewds, pack_dump

MAGIC_IMPLICIT = b"EWD\x01"


@dataclass
class Renumbering:
    """Old-to-new maps produced by the seed-and-pair traversal.

    `compute_renumbering` marks its record with the tables it read
    (`made_for`, a weak reference, so the record keeps no table alive), and
    `apply_renumbering` trusts a marked record on those tables alone.  No
    constructor or `dataclasses.replace` sets the mark, so a record built
    or copied by hand is checked.  A marked record, or its Ewds, that is
    changed in place is not checked again.  The maps stay lists, as tuples
    would change the repr that the frozen encoding hashes of the tests read.
    """

    ftt: list[int]                    # packed top id -> implicit id, index 0 unused
    fvv: list[int]                    # packed vertex id -> implicit id
    perms: dict[int, tuple[int, ...]]  # packed top -> new slot -> old slot (0-based)
    cc: list[int]                     # components per dimension
    vbase: list[int]                  # vertex block starts, sentinel nv+1
    made_for: weakref.ref[Ewds] | None = field(default=None, init=False, compare=False, repr=False)

    def perm_of(self, t: int) -> tuple[int, ...]:
        return self.perms.get(t, ())


def compute_renumbering(ewds: Ewds) -> Renumbering:
    """Seed-and-pair numbering of a packed decomposition.

    The DFS of a block walks TTP, as the module says, and each seed is its
    component's first top, `Ewds.comp_first`: `Ewds.build` packs only
    IQMs, each one run of tops in one block whose vertex stars do not
    fall apart, which the pairing invariants need.  The record is marked
    as made for ewds, which `apply_renumbering` then trusts.
    """
    d = ewds.d
    nv = ewds.nv
    ftt = [0] * (ewds.nt + 1)
    fvv = [0] * (nv + 1)  # 0 = unassigned, -1 = reserved for a seed slot
    perms: dict[int, tuple[int, ...]] = {}

    firsts = ewds.comp_first  # ascending
    bounds = [bisect_left(firsts, t) for t in ewds.tbase]
    seeds = [firsts[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    cc = list(map(len, seeds))
    # components are vertex-disjoint and, being IQMs, each lies in one
    # block, so a vertex belongs to the block of its VTSTAR top
    anchors = sorted(ewds.vtstar[1:])
    vbase = [1]
    for h in range(d + 1):
        vbase.append(
            vbase[h]
            + bisect_left(anchors, ewds.tbase[h + 1])
            - bisect_left(anchors, ewds.tbase[h])
        )

    # TVP is read in place, only at seed rows and rows not yet entered; in
    # a copy of TTP the DFS swaps a paired top's new slot into its last
    # one, which orders its later steps, and records the exchange in perms
    tv, tt = ewds.tvp, list(ewds.ttp)
    # TTP links only tops of one component, so one mark per top serves
    # every seed's walk
    seen = bytearray(ewds.nt + 1)

    for h in range(d + 1):
        w, off = ewds.block_layouts[h]
        tidx = ewds.tbase[h]
        tnew = ewds.tbase[h] + cc[h]
        vidx = vbase[h]
        vnew = vbase[h] + cc[h]  # pairing numbers; reserved slots come last
        for seed in seeds[h]:
            base = off + seed * w
            ftt[seed] = tidx
            tidx += 1
            fvv[tv[base + h]] = vidx
            vidx += 1
            for j in range(h):
                fvv[tv[base + j]] = -1
            # components are vertex-disjoint, so the walk meets no vertex
            # of a seed still to come
            seen[seed] = 1
            stack = [(seed, 0)]  # (top, next slot to try)
            while stack:
                t, i = stack.pop()
                base = off + t * w
                while i < w:
                    nbr = tt[base + i]
                    i += 1
                    if nbr > 0 and not seen[nbr]:
                        break
                else:
                    continue  # every slot of t is done
                stack.append((t, i))
                seen[nbr] = 1
                nbase = off + nbr * w
                k = tt.index(t, nbase, nbase + w) - nbase
                v = tv[nbase + k]
                if fvv[v] == 0:
                    fvv[v] = vnew
                    vnew += 1
                    ftt[nbr] = tnew
                    tnew += 1
                    if k != h:
                        tt[nbase + k], tt[nbase + h] = tt[nbase + h], tt[nbase + k]
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
        for seed in seeds[h]:
            for j in range(h):
                v = tv[off + seed * w + j]
                assert fvv[v] == -1  # reserved slots survive the pairing
                fvv[v] = vnew
                vnew += 1
    ren = Renumbering(ftt, fvv, perms, cc, vbase)
    ren.made_for = weakref.ref(ewds)
    return ren


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

    # -- lookups -----------------------------------------------------------

    def tv_lookup(self, h: int, t: int, k: int) -> int:
        """Vertex at slot k of implicit top t (dimension h)."""
        if type(h) is not int or type(t) is not int or type(k) is not int:
            raise OutOfRange(f"dimension {h!r}, top {t!r} and slot {k!r} must be ints")
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
        if type(t) is not int or not 1 <= t <= self.nt:
            raise UnknownTop(f"top {t!r} out of range 1..{self.nt}")
        h = bisect_right(self.tbase, t, hi=self.d + 1) - 1
        return tuple(self.tv_lookup(h, t, k) for k in range(1, h + 2))

    def vtstar_lookup(self, v: int) -> int:
        """An incident top of implicit vertex v, by region arithmetic alone."""
        if type(v) is not int or not 1 <= v <= self.nv:
            raise UnknownVertex(f"vertex {v!r} out of range 1..{self.nv}")
        h = bisect_right(self.vbase, v, hi=self.d + 1) - 1
        if h == 0 or v < self.vbase[h + 1] - self.cc[h] * h:
            return self.tbase[h] + (v - self.vbase[h])  # its seed or pair top
        return self.tbase[h] + (v - self.vbase[h + 1] + self.cc[h] * h) // h

    # -- serialization -----------------------------------------------------

    def dump_bytes(self) -> bytes:
        d = self.d
        tables = (self.tvpp[1:], self.ttpp[1:], self.tbase[: d + 1], self.tbase_addr[: d + 1])
        return pack_dump(MAGIC_IMPLICIT, d, self.nt, self.nv, (*tables, self.taddr, self.vbase))


def apply_renumbering(ewds: Ewds, ren: Renumbering) -> ImplicitEwds:
    """Emit the compressed tables for a computed renumbering.

    Works on flat copies of TVP/TTP: the exchanges in perms are applied to
    their tops' rows, then each dimension block's rows are read in
    implicit top order and mapped through FVV and FTT in one pass.  Seed
    rows are dropped from TVPP, paired rows keep their first h slots and
    unpaired rows are kept whole.

    A record that `compute_renumbering` made from ewds itself is trusted,
    as `Ewds.build` trusts a decomposition that `decompose` made.  Every
    other record (built by hand, copied with `dataclasses.replace`, or
    made from other tables, equal ones included) goes through
    `_check_renumbering` first, which raises BadRenumbering unless it
    fits.  A trusted record, or its Ewds, that is changed in place is not
    checked again.
    """
    mark = ren.made_for
    if mark is None or mark() is not ewds:
        _check_renumbering(ewds, ren)
    d, tbase = ewds.d, ewds.tbase
    ftt, fvv, cc, vbase = ren.ftt, ren.fvv, ren.cc, ren.vbase

    tv, tt = list(ewds.tvp), list(ewds.ttp)
    for t, perm in ren.perms.items():
        w = len(perm)
        base = ewds.block_layouts[w - 1][1] + t * w
        for arr in (tv, tt):
            row = arr[base : base + w]
            arr[base : base + w] = [row[p] for p in perm]
    fnbr = [BOTTOM, *ftt[1:], DIAMOND]  # fnbr[DIAMOND] is the last entry
    olds = sorted(range(1, ewds.nt + 1), key=ftt.__getitem__)  # in implicit order

    taddr = [1]
    iibnd: list[int] = []
    iitaddr: list[int] = []
    tvpp = [0]
    ttpp = [0]
    for h in range(d + 1):
        w, off = ewds.block_layouts[h]
        lo, hi = tbase[h], tbase[h + 1]
        arithmetic = vbase[h + 1] - vbase[h] - cc[h] * h  # seeds and paired tops
        iibnd.append(lo + arithmetic)
        iitaddr.append(taddr[h] + (arithmetic - cc[h]) * h)
        taddr.append(taddr[h] + (hi - lo) * w - (vbase[h + 1] - vbase[h]))
        block = olds[lo - 1 : hi - 1]
        ttpp += [fnbr[u] for t in block for u in tt[off + t * w : off + t * w + w]]
        # seeds are fully arithmetic, paired tops all but their last slot
        tvpp += [
            fvv[v] for t in block[cc[h] : arithmetic] for v in tv[off + t * w : off + t * w + h]
        ]
        tvpp += [fvv[v] for t in block[arithmetic:] for v in tv[off + t * w : off + t * w + w]]

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
    )


def _check_renumbering(ewds: Ewds, ren: Renumbering) -> None:
    """Raise BadRenumbering unless ren fits the tables of ewds.

    FTT, FVV, CC and VBase must be lists of ints and perms a dict, FTT must
    permute each dimension block and FVV the vertices, every exchange must
    be a tuple keyed by an int top that permutes, in int slots, the slots
    of a top of its width, and the vertex blocks must chain from 1 to NV+1,
    each with its seeds' slots and one vertex per paired top.  The entries
    the table drops must be arithmetic: in implicit order, the last slots
    of a block's seeds and paired tops and then its seeds' other slots,
    seed by seed, count up through its vertex block.
    """
    d, nt, nv, tbase, tv = ewds.d, ewds.nt, ewds.nv, ewds.tbase, ewds.tvp
    maps = ftt, fvv, cc, vbase = ren.ftt, ren.fvv, ren.cc, ren.vbase
    perms = ren.perms
    # one type pass over maps and exchanges: a bool or float equal to the
    # right id would pass the value checks below, a None or str fail bare
    shapes = {list}.issuperset(map(type, maps)) and type(perms) is dict
    if not shapes or not {tuple}.issuperset(map(type, perms.values())):
        raise BadRenumbering("FTT, FVV, CC and VBase must be lists, perms a dict of tuples")
    if not {int}.issuperset(map(type, chain(*maps, perms, *perms.values()))):
        raise BadRenumbering("every id, top and slot of a renumbering must be an int")
    if len(ftt) != nt + 1 or len(fvv) != nv + 1:
        raise BadRenumbering(
            f"maps for {len(ftt) - 1} tops and {len(fvv) - 1} vertices "
            f"do not fit tables of {nt} tops and {nv} vertices"
        )
    if len(cc) != d + 1 or len(vbase) != d + 2 or vbase[0] != 1 or vbase[d + 1] != nv + 1:
        raise BadRenumbering(f"block directories do not fit {nv} vertices in dimension {d}")
    if sorted(fvv[1:]) != list(range(1, nv + 1)):
        raise BadRenumbering("FVV does not permute the vertices")
    for t, perm in perms.items():
        w = len(perm)
        if not (0 < w <= d + 1 and tbase[w - 1] <= t < tbase[w] and sorted(perm) == [*range(w)]):
            raise BadRenumbering(f"slot exchange {perm!r} does not fit top {t}")

    for h in range(d + 1):
        w, off = ewds.block_layouts[h]
        lo, hi = tbase[h], tbase[h + 1]
        arithmetic = vbase[h + 1] - vbase[h] - cc[h] * h
        if not 0 <= cc[h] <= arithmetic <= hi - lo:
            raise BadRenumbering(f"vertex block {h} does not fit its top block")
        olds = sorted(range(lo, hi), key=ftt.__getitem__)
        if list(map(ftt.__getitem__, olds)) != list(range(lo, hi)):
            raise BadRenumbering(f"FTT does not permute the dimension-{h} block")
        # each top's new slot k holds its old slot perm[k]
        slots = [(off + t * w, perms.get(t, range(w))) for t in olds[:arithmetic]]
        dropped = [fvv[tv[base + perm[h]]] for base, perm in slots]
        dropped += [fvv[tv[base + perm[j]]] for base, perm in slots[: cc[h]] for j in range(h)]
        if dropped != list(range(vbase[h], vbase[h + 1])):
            raise BadRenumbering(f"vertex block {h} breaks the pairing arithmetic")
