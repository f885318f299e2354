"""Non-manifold layer on top of the packed tables.

The packed tables answer everything inside one component.  Queries about
the original complex need two extra ingredients: the vertex copy map
sigma (copies -> original vertex; `Ewds.sigma_n` in packed ids) and the
splitmap, which lists every simplex whose star falls into several
adjacency patches, or into several components, with one representative
top per patch, the smallest top of the patch.  The patches are all the
layer keeps of the connectivity: a representative's row names the copy
it spans, through sigma.  Everything else stays implicit: a simplex
absent from the splitmap has a single copy, found through sigma inside
any top that spans it, and one patch, which a star walk from that top
covers.  Vertex couples are never keys: the copy map answers them.

A simplex is recorded when one of its vertices splits, or when its star
inside one component is cut at a diamond (a facet of order three or
more) or at a pinch.  `build_splitmap` harvests the rows holding copies
of the paper's v_nra vertices and of the `pinch_suspects`, and walks no
star.  Of those rows it reads only the faces that can be keys: a face
that may have several copies, or whose vertices are all harvested, as
those of a face cut into several patches inside one component are.  A
query on gamma checks its arguments once and then walks each patch of
its star with `Ewds.walk_block` from a seed top: a vertex's copies from
the copy map, each seeded with its VTSTAR top; any larger gamma from the
splitmap's representatives, or else from the one top of the face table
(`FaceTops`), each seed's copy read off its row.  Those tops come from
the layer's own tables, so the query lays out their blocks from
`Ewds.block_layouts` unchecked.

Every stage works in packed ids, on the tables and `Ewds.sigma_n`: the
copy lists invert sigma_n, the face table and its row list, one sorted
tuple per packed top, are TVP mapped through it, and the splitmap and
v_nra read TVP and TTP.  Where the components sit comes from
`Ewds.comp_first`.  Nothing here reads the decomposition, so a layer does
not keep it alive.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, combinations, compress, count, repeat
from operator import itemgetter, not_
from typing import Iterable

from .complexes import Simplex, simplex, twice_chi_misses
from .counters import NULL_COUNTER, OpCounter
from .errors import BadRelation, NotInTrie
from .unionfind import union_min
from .winged import DIAMOND, Ewds

Splitmap = dict[Simplex, tuple[int, ...]]


def check_relation(gamma: Simplex, n: int, m: int) -> None:
    """Raise BadRelation unless n and m are ints with 0 <= n < m and the
    simplex gamma has n + 1 vertices."""
    if type(n) is not int or type(m) is not int:
        raise BadRelation(f"S{n!r}{m!r}: n and m must be ints")
    if not 0 <= n < m:
        raise BadRelation(f"S{n}{m}: need 0 <= n < m")
    if len(gamma) != n + 1:
        raise BadRelation(
            f"S{n}{m}: gamma needs {n + 1} distinct vertices, got {len(gamma)}"
        )


class FaceTops:
    """The face table and the row list, both filled in one pass over the
    packed rows mapped through sigma.

    faces maps every face of 2..w-1 vertices of some width-w top, as a
    sorted tuple of source ids, to a packed top that spans it.  Any such top
    will do: a face that is no splitmap key has one copy and one patch, so
    the walk from any top spanning it covers the same star.  Vertices are
    not entries, since their queries go through the copy map, nor are
    whole top rows: a top has no proper coface, so every relation on it is
    empty, which a miss also answers.

    rows is indexed by packed top id, entry 0 an empty tuple: each top's
    entry is its source vertex ids in ascending order, one tuple, which is
    the sorted image of its TVP row under sigma, as sigma is one-to-one on
    a row.  A query reads the stored tuples and slices nothing, for which
    each top pays a tuple on top of its list slot.
    """

    def __init__(self, faces: dict[Simplex, int], rows: list[Simplex]) -> None:
        self.faces = faces
        self.rows = rows

    def lookup(self, gamma: Simplex, counter: OpCounter = NULL_COUNTER) -> int:
        """A packed top spanning gamma, a sorted tuple of source ids; one
        comparison.  Raises NotInTrie when gamma is no entry: not a face of
        the source, a vertex or a whole top row."""
        counter.comparisons += 1
        top = self.faces.get(gamma)
        if top is None:
            raise NotInTrie(f"{gamma} is not in the face table")
        return top

    @property
    def num_words(self) -> int:
        return len(self.faces)

    num_nodes = num_words


@dataclass
class NmLayer:
    """Copy lists, splitmap and face table for global queries, over the
    tables and the copy map `Ewds.sigma_n` of ewds.  The splitmap maps each
    key to its patch representatives, ascending packed tops."""

    ewds: Ewds
    copies_of: dict[int, tuple[int, ...]]  # source vertex -> packed copies
    splitmap: Splitmap
    v_nra: list[int]  # the paper's set; the harvest also reads the pinch suspects
    # the face table keeps the prefix tree's names (trie, build_ft_trie,
    # NotInTrie), which the benchmark's traced run reads
    trie: FaceTops = field(repr=False)

    # -- relation operations -----------------------------------------------

    def _add_faces(
        self,
        out: set[Simplex],
        tops: Iterable[int],
        gamma: Simplex,
        m: int,
        w: int,
    ) -> int:
        """Add to out the m-faces, in source ids, of tops that contain gamma.

        Every top in tops spans a copy of the source simplex gamma and lies
        in the dimension block of row width w, which is at least m + 1 slots
        wide.  The face table's row list holds each packed top's source ids,
        ascending, as one tuple, so every face is read off those stored
        rows already sorted: the row itself when m is the block's
        dimension, gamma plus one link vertex when m = n + 1 (placed by
        comparisons when gamma has one or two vertices, by bisection
        above), and otherwise the combinations of the row that contain
        gamma.  Returns the number of faces enumerated, which a query
        counts as comparisons.
        """
        free = w - len(gamma)
        need = m + 1 - len(gamma)
        rows = list(map(self.trie.rows.__getitem__, tops))
        if need == free:
            out.update(rows)
        elif need == 1:
            link = set(chain.from_iterable(rows))
            link.difference_update(gamma)
            if len(gamma) == 1:
                (a,) = gamma
                out.update([(s, a) if s < a else (a, s) for s in link])
            elif len(gamma) == 2:
                a, b = gamma
                out.update(
                    [(s, a, b) if s < a else (a, s, b) if s < b else (a, b, s) for s in link]
                )
            else:
                for s in link:
                    i = bisect_left(gamma, s)
                    out.add(gamma[:i] + (s,) + gamma[i:])
        else:
            faces = chain.from_iterable(map(combinations, rows, repeat(m + 1)))
            if len(gamma) == 1:  # a vertex: one membership test per face
                v = gamma[0]
                out.update([f for f in faces if v in f])
            else:
                gset = set(gamma)
                out.update([f for f in faces if gset.issubset(f)])
        return len(rows) * math.comb(free, need)

    def snm_global(
        self,
        gamma: Iterable[int],
        n: int,
        m: int,
        counter: OpCounter = NULL_COUNTER,
    ) -> set[Simplex]:
        """m-simplices of the source incident to the n-simplex gamma.

        Total: a gamma that is not a face of the source yields the empty
        set.  One loop walks each patch of gamma's star from its seed top.
        A vertex's copies come from the copy map, each seeded with its
        VTSTAR top.  A larger gamma's seeds are its splitmap
        representatives, one per patch, or else the one top that the face
        table returns; each seed's copy of gamma is read off its row.  The
        arguments are validated once, up front; every top read after that
        comes from the layer's own tables, so each seed's block is laid out
        by one bisection of `Ewds.tbase` into `Ewds.block_layouts`, not
        checked again.  A patch whose block is m or fewer slots wide holds
        no m-face and is skipped; `Ewds.walk_block` covers every other
        patch in that layout, which ticks one visit per top and one
        expansion per slot outside the copy.  The patches are disjoint, so
        no top is visited twice, and the tops walked in one block are
        pooled: `_add_faces` reads the m-faces off them in one call per
        block, which counts the same comparisons as one call per patch.
        Raises BadRelation as check_relation does, and when gamma's
        vertices cannot be hashed or sorted or one is not an int.
        """
        try:
            gamma = simplex(gamma)
        except TypeError:
            raise BadRelation(f"gamma {gamma!r} is not a set of vertex ids") from None
        if not {int}.issuperset(map(type, gamma)):
            raise BadRelation(f"gamma {gamma!r} has a vertex id that is not an int")
        check_relation(gamma, n, m)
        ew = self.ewds
        tbase, layouts = ew.tbase, ew.block_layouts
        # (layout, copy, seed) per patch, filled by plain loops: in Python
        # 3.11 each comprehension is a function call of its own
        patches = []
        if n == 0:
            vtstar = ew.vtstar
            for vp in self.copies_of.get(gamma[0], ()):
                t = vtstar[vp]
                patches.append((layouts[bisect_right(tbase, t) - 1], {vp}, t))
        else:
            seeds = self.splitmap.get(gamma)
            if seeds is None:
                try:
                    seeds = (self.trie.lookup(gamma, counter),)
                except NotInTrie:
                    return set()
            # each seed's copy is read off its row in place: a helper or
            # comprehension call costs more than the read
            sigma_n, tvp = ew.sigma_n, ew.tvp
            for t in seeds:
                w, off = layout = layouts[bisect_right(tbase, t) - 1]
                cp = set()
                for x in tvp[off + t * w : off + t * w + w]:
                    if sigma_n[x] in gamma:
                        cp.add(x)
                patches.append((layout, cp, t))
        walked: dict[int, set[int]] = {}  # row width -> tops walked in that block
        for (w, off), cp, t in patches:
            if w <= m:
                continue  # too narrow to hold an m-face
            tops = ew.walk_block(cp, t, w, off)
            counter.visits += len(tops)
            counter.expansions += len(tops) * (w - len(cp))
            prev = walked.get(w)
            if prev is None:
                walked[w] = tops
            else:
                prev |= tops  # the patches are disjoint
        out: set[Simplex] = set()
        for w, tops in walked.items():
            counter.comparisons += self._add_faces(out, tops, gamma, m, w)
        return out

    # -- compression accounting --------------------------------------------

    def nsp_tops(self) -> set[int]:
        """Tops incident to a copy of a non-regular-adjacency vertex, read
        off the packed rows with no walk: a copy lies in one IQM component,
        where its star is every top whose row holds it.  Without v_nra, as
        on a manifold, no row is read."""
        if not self.v_nra:
            return set()
        ew, nra = self.ewds, set(self.v_nra)
        hit = [v in nra for v in ew.sigma_n]  # per packed vertex
        out: set[int] = set()
        for h, (w, off) in enumerate(ew.block_layouts):
            lo, hi = ew.tbase_addr[h], ew.tbase_addr[h + 1]
            slots = compress(range(lo, hi), map(hit.__getitem__, ew.tvp[lo:hi]))
            out.update([(k - off) // w for k in slots])
        return out

    def stats(self) -> dict:
        """NS and NC, off the copy map, and the paper's NSP, phi and H_hat."""
        split = [len(cs) for cs in self.copies_of.values() if len(cs) > 1]
        ns, nc = len(split), sum(split)
        d = self.ewds.d
        nsp = len(self.nsp_tops())
        phi = max(0, (2 ** (d + 1) - (d + 3)) * nsp)

        def xlog(x: float) -> float:
            return x * math.log2(x) if x > 0 else 0.0

        h_hat = xlog(ns) + xlog(nc)
        if phi > 0:
            h_hat += phi * (d * math.log2(d * phi) + math.log2(self.ewds.nt))
        return {"NS": ns, "NC": nc, "NSP": nsp, "phi": phi, "H_hat": h_hat}


# -- construction ----------------------------------------------------------


def build_sigma_maps(ewds: Ewds) -> dict[int, tuple[int, ...]]:
    """The copy lists, source vertex -> its packed copies ascending, read
    off `Ewds.sigma_n`."""
    sigma_n = ewds.sigma_n
    copies: dict[int, list[int]] = {}
    for vp in range(1, ewds.nv + 1):
        copies.setdefault(sigma_n[vp], []).append(vp)
    return {v: tuple(cs) for v, cs in copies.items()}


def v_nra_vertices(ewds: Ewds, copies_of: dict[int, tuple[int, ...]]) -> list[int]:
    """The paper's non-regular-adjacency vertices, in source ids.

    The splitting vertices plus the vertices of tops with an order>=3
    facet (a diamond in their adjacency row).  stats() counts the tops of
    their stars.  The rows that hold their copies give build_splitmap
    every key with several copies or a diamond, but not an edge pinched
    between tets while neither of its vertices splits: pinch_suspects adds
    the vertices where that may happen.
    """
    out = {v for v, cs in copies_of.items() if len(cs) > 1}
    tvp, ttp, sigma_n = ewds.tvp, ewds.ttp, ewds.sigma_n
    for h in range(ewds.d + 1):
        w = h + 1
        lo, hi = ewds.tbase_addr[h], ewds.tbase_addr[h + 1]
        k = lo
        while True:
            try:
                k = ttp.index(DIAMOND, k, hi)
            except ValueError:
                break
            base = k - (k - lo) % w  # the row holding that slot
            out.update([sigma_n[v] for v in tvp[base : base + w]])
            k = base + w
    return sorted(out)


def pinch_suspects(ewds: Ewds) -> set[int]:
    """Source vertices whose star may hold a pinched simplex.

    A simplex is pinched when its star inside one component falls into
    several patches with no diamond between them.  Below dimension 3 only
    a facet can be a key short of a top, and a facet with two cofaces
    joins them, so blocks of dimension <= 2 have no pinch.  `Ewds.build`
    packs only IQM components, so in a tet block a vertex is clear when
    `complexes.twice_chi_misses` passes it: a pinched edge at it lowers
    the Euler characteristic of its link.  The boundary slots are the TTP
    entries 0.  Tops with a diamond put their vertices in v_nra whatever
    the count says.  In blocks of dimension >= 4 every vertex is a
    suspect.  One pass over TVP/TTP.
    """
    tvp, ttp, sigma_n, n = ewds.tvp, ewds.ttp, ewds.sigma_n, ewds.nv + 1
    out: set[int] = set()
    for h in range(3, ewds.d + 1):
        lo, hi = ewds.tbase_addr[h], ewds.tbase_addr[h + 1]
        if h > 3:
            out.update([sigma_n[x] for x in tvp[lo:hi]])
            continue
        open_slots = compress(count(lo), map(not_, ttp[lo:hi]))  # TTP 0: boundary
        out.update([sigma_n[x] for x in twice_chi_misses(tvp, lo, hi, open_slots, n)])
    return out


# per-slot flags of the harvest's row layout
SINGLE, TWIN, HARVESTED = 1, 2, 4


@cache
def _row_layout(flags: tuple[int, ...]) -> tuple[tuple, tuple, tuple, tuple] | None:
    """The faces that the harvest reads in a row whose slots carry these
    flags (SINGLE or TWIN from `_copy_kinds`, and HARVESTED), or None when
    no slot is HARVESTED.

    Returns one `operator.itemgetter` per corner (every subset of 2..w-2
    slots that holds a HARVESTED slot and fails the one-copy or the
    one-patch test of `build_splitmap`, by ascending bitmask), the
    position of each bitmask among the corners (-1 for the others), per
    slot k the (position, getter) of the corners inside the facet opposite
    k, and (k, getter, one copy) of every facet that holds a HARVESTED
    slot.  Each getter picks its slots out of a row in one C call and
    returns a tuple, as a corner or a facet has two or more slots; the
    harvest calls one per glued corner and per record.
    """
    w = len(flags)
    full = (1 << w) - 1
    harvested = single = twin = 0
    for j, f in enumerate(flags):
        if f & HARVESTED:
            harvested |= 1 << j
        if f & SINGLE:
            single |= 1 << j
        elif f & TWIN:
            twin |= 1 << j
    if not harvested:
        return None

    def getter(idx: int) -> itemgetter:
        return itemgetter(*(j for j in range(w) if idx >> j & 1))

    def one_copy(idx: int) -> bool:
        return bool(idx & single) and not idx & twin

    corners = [
        idx
        for idx in range(3, full)
        if idx & harvested
        and 2 <= idx.bit_count() <= w - 2
        and not (one_copy(idx) and idx & ~harvested)
    ]
    position = [-1] * (full + 1)
    for p, idx in enumerate(corners):
        position[idx] = p
    gets = tuple(map(getter, corners))
    in_facet = tuple(
        tuple((p, gets[p]) for p, idx in enumerate(corners) if not idx >> k & 1)
        for k in range(w)
    )
    facets = tuple(
        (k, getter(full ^ 1 << k), one_copy(full ^ 1 << k))
        for k in range(w)
        if (full ^ 1 << k) & harvested
    )
    return gets, tuple(position), in_facet, facets


def _copy_kinds(ewds: Ewds, copies_of: dict[int, tuple[int, ...]]) -> bytearray:
    """Per packed vertex: SINGLE when it is the only copy of its source
    vertex, TWIN when another copy of that vertex lies in its component, 0
    otherwise.

    A copy lies in the component of its VTSTAR top, the last one of
    `Ewds.comp_first` that starts at or below it: `Ewds.build` packs each
    component, an IQM, as one run of its dimension's block.
    """
    kinds = bytearray([SINGLE]) * (ewds.nv + 1)
    kinds[0] = 0
    split = [cs for cs in copies_of.values() if len(cs) > 1]
    firsts, vtstar = ewds.comp_first, ewds.vtstar
    for cs in split:
        comps = [bisect_right(firsts, vtstar[x]) for x in cs]
        for x, ci in zip(cs, comps):
            kinds[x] = TWIN if comps.count(ci) > 1 else 0
    return kinds


def build_splitmap(
    ewds: Ewds,
    sigma_n: list[int],
    copies_of: dict[int, tuple[int, ...]],
    vertices: Iterable[int],
    counter: OpCounter = NULL_COUNTER,
) -> Splitmap:
    """Harvest split simplices from the stars of the given source vertices.

    One pass over the rows of each block flags each slot by the
    `_copy_kinds` of its vertex and by whether it holds a copy of a
    harvested vertex (HARVESTED); the rows with a HARVESTED slot are the
    harvested stars.  Of them only the faces of 2..w-1 slots that can be
    keys are read, as `_row_layout` lists them per row of flags.  Such a
    face holds a HARVESTED slot, since no other face can be split, and can
    have more than one record, since it fails one of these:
    - One copy: some vertex of the face is the only copy of its source
      vertex (SINGLE), and none has another copy in its component (TWIN).
      Every copy of the key then holds that vertex, so lies in its
      component, and two copies there would differ at a TWIN.
    - One patch: some vertex of the face is not harvested.  A face whose
      star inside one component falls into several patches has every
      vertex in v_nra or among the pinch suspects: a pinched edge of a tet
      block lowers the twice-chi count of both of its endpoints' links, a
      diamond puts every vertex of its cofaces in v_nra, blocks of
      dimension >= 4 harvest every vertex, and blocks of dimension <= 2
      have no face smaller than a facet.
    A facet of one copy is recorded only at a diamond: with two cofaces it
    is one patch.  Whether a face is read depends only on its vertices, so
    it is read in every top that spans it.

    The patches of a smaller face are classes of corners, a corner being a
    (top, slot subset) pair that is read.  Corners are numbered in
    ascending top order, and for every order-2 facet shared by tops t < u,
    union_min joins each corner inside it in t with the corner of the same
    vertices in u.  Each class is one patch, and its root corner lies in
    the patch's smallest top, which is the representative: the splitmap
    depends on the set of vertices, not on their order.  A facet needs no
    class: with two cofaces it is one patch, recorded from the smaller of
    them, and on the boundary or at a diamond each coface is a patch of
    its own.  Each patch adds its representative to its source key's
    record, and a key is kept when it has more than one record: more than
    one copy, or more than one patch, as a top spans only one copy of a
    key.  Its entry is the tuple of those representatives, ascending and
    distinct, since the rows are read in packed top order; no copy is
    formed, as each representative's row names its own.  While a key has
    one record, the record is its representative, a bare int: a top spans
    a key at most once, so a second record is another top, and only then
    is the tuple built.  Most keys read never get a second record.  The
    union step finds each slot of a corner in the neighbour's row by
    `list.index` on TVP, and skips rows without corners, which glue
    nothing.

    Any harvest finds, whole, every key of several copies that holds a
    harvested vertex, and every key of one copy whose vertices are all
    harvested.  So the splitmap is complete when vertices holds v_nra and
    the pinch suspects.  No star is walked, and neither the rows read nor
    the unions are counted, so counter is not ticked.
    """
    harvested = [vp for v in vertices for vp in copies_of.get(v, ())]
    if not harvested:
        return {}
    flags = _copy_kinds(ewds, copies_of)
    for vp in harvested:
        flags[vp] |= HARVESTED
    tvp, ttp = ewds.tvp, ewds.ttp
    # key -> its first representative, a tuple of them from the second on
    found: dict[Simplex, int | tuple[int, ...]] = {}
    setdefault = found.setdefault
    for h in range(2, ewds.d + 1):  # narrower rows have no such face
        w, off = ewds.block_layouts[h]
        lo, hi = ewds.tbase_addr[h], ewds.tbase_addr[h + 1]
        # number the corners of the rows that hold a harvested slot
        at: dict[int, tuple[int, tuple]] = {}  # top -> (first corner, layout)
        n = 0
        slot_flags = map(flags.__getitem__, tvp[lo:hi])
        layouts = map(_row_layout, zip(*[slot_flags] * w))
        for t, layout in zip(range(ewds.tbase[h], ewds.tbase[h + 1]), layouts):
            if layout is not None:
                at[t] = (n, layout)
                n += len(layout[0])
        # glue the corners across order-2 facets
        parent = list(range(n))
        if n:
            for t, (first, (corners, _, in_facet, _)) in at.items():
                if not corners:
                    continue  # nothing to glue, here or in a neighbour
                base = off + t * w
                row = tvp[base : base + w]
                for k in range(w):
                    u = ttp[base + k]
                    if u > t and in_facet[k]:
                        ub = off + u * w
                        ufirst, (_, upos, _, _) = at[u]
                        for p, get in in_facet[k]:
                            s = 0
                            for x in get(row):
                                s |= 1 << tvp.index(x, ub, ub + w) - ub
                            union_min(parent, first + p, ufirst + upos[s])
        # one record per patch: each root corner and each facet's cofaces
        for t, (c, (corners, _, _, facets)) in at.items():
            base = off + t * w
            srow = [sigma_n[x] for x in tvp[base : base + w]]
            for get in corners:
                if parent[c] == c:
                    key = tuple(sorted(get(srow)))
                    if (prev := setdefault(key, t)) != t:
                        found[key] = prev + (t,) if type(prev) is tuple else (prev, t)
                c += 1
            for k, get, one_copy in facets:
                nbr = ttp[base + k]
                if 0 < nbr < t:
                    continue  # recorded from the smaller coface
                if one_copy and nbr != DIAMOND:
                    continue  # the only copy of its key, and one patch
                key = tuple(sorted(get(srow)))
                if (prev := setdefault(key, t)) != t:
                    found[key] = prev + (t,) if type(prev) is tuple else (prev, t)
    return {key: reps for key, reps in found.items() if type(reps) is tuple}


def build_ft_trie(ewds: Ewds) -> FaceTops:
    """Face table and row list of the source complex, from TVP mapped
    through `Ewds.sigma_n` in one go: each block's rows, sorted, are
    appended in packed order as one tuple per top, so each lands at its
    packed top id; a face shared by several tops keeps the last of them.

    Tets and triangles, the blocks of surfaces and tetrahedralizations,
    unpack each sorted row into locals and write its faces as tuple
    displays, in the order `combinations` yields them, so the table is the
    same, key order and kept top included, without the iterators the
    generic loop makes per row and face size, and append the unpacked row
    as a tuple display.  Every other width keeps the generic loop: an edge
    row has no entry, and wider rows have too many faces to write out."""
    src = list(map(ewds.sigma_n.__getitem__, ewds.tvp))
    faces: dict[Simplex, int] = {}
    rows: list[Simplex] = [()]
    for h in range(ewds.d + 1):
        w, lo, hi = h + 1, ewds.tbase_addr[h], ewds.tbase_addr[h + 1]
        tops = zip(ewds._block_tops(h), range(lo, hi, w))
        if w == 4:  # chained targets are assigned left to right
            for top, k in tops:
                a, b, c, d = sorted(src[k : k + 4])
                rows.append((a, b, c, d))
                faces[a, b] = faces[a, c] = faces[a, d] = faces[b, c] = faces[b, d] = top
                faces[c, d] = faces[a, b, c] = faces[a, b, d] = faces[a, c, d] = top
                faces[b, c, d] = top
        elif w == 3:
            for top, k in tops:
                a, b, c = sorted(src[k : k + 3])
                rows.append((a, b, c))
                faces[a, b] = faces[a, c] = faces[b, c] = top
        else:
            for top, k in tops:
                row = tuple(sorted(src[k : k + w]))
                rows.append(row)
                for r in range(2, w):
                    for face in combinations(row, r):
                        faces[face] = top
    return FaceTops(faces, rows)


def build_nm_layer(ewds: Ewds) -> NmLayer:
    """Assemble the full non-manifold layer for a packed decomposition.

    The splitmap harvests v_nra and the pinch suspects; the layer keeps
    v_nra alone, which stats() reads.
    """
    copies_of = build_sigma_maps(ewds)
    nra = v_nra_vertices(ewds, copies_of)
    harvest = pinch_suspects(ewds)
    harvest.update(nra)
    smap = build_splitmap(ewds, ewds.sigma_n, copies_of, harvest)
    return NmLayer(ewds, copies_of, smap, nra, build_ft_trie(ewds))
