"""Non-manifold layer on top of the packed tables.

The packed tables answer everything inside one component.  Queries about
the original complex need two extra ingredients: the vertex copy map
sigma (copies -> original vertex) and the splitmap, which lists every
simplex whose star falls into several adjacency patches, or into several
components, with its copies and one representative top per patch of each
copy; the representative is the smallest top of its patch.  Everything
else stays implicit: a simplex absent from the splitmap has a single copy,
found through sigma inside any top that spans it, and one patch, which a
star walk from that top covers.

Vertex couples are never splitmap keys: the copy map already answers
them, so recording starts at dimension one.

A simplex is recorded when one of its vertices splits (a copy per
component) or when its star inside one component is cut into patches:
at a facet of order three or more (a diamond), or at a pinch, where
parts of its star meet in the simplex but share no facet through it.
The harvest reads the stars of the paper's v_nra set, which covers the
first two, and of the vertices that one counting pass over the tables
(pinch_suspects) finds where a pinch may be.  It makes one pass over the
union of those stars in ascending top order and reads only the faces
that hold a harvested vertex.  A facet's patches follow from its TTP
entry without a walk: two cofaces are one patch, and each coface of a
boundary facet or of a diamond is one.  With that, a query on gamma walks
gamma's own star: from the representatives of each copy, or from any top
spanning the single copy.  That top comes from the face table, one dict
from every face of the source to a packed top spanning it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping

from .complexes import Complex, Simplex, simplex
from .counters import NULL_COUNTER, OpCounter
from .decompose import DecompositionResult
from .errors import BadRelation, NotIncident, NotInTrie, UnknownVertex
from .winged import DIAMOND, Ewds

Splitmap = dict[Simplex, dict[Simplex, set[int]]]


def travel_star(
    ewds: Ewds,
    gamma: Iterable[int],
    t: int,
    flags: dict[int, int] | None = None,
    counter: OpCounter = NULL_COUNTER,
) -> list[int]:
    """Tops reachable from t across facets containing gamma.

    gamma is given in packed vertex ids and must span part of t's row.
    Crossing only order-2 facets, the walk covers one adjacency patch of
    gamma's star; boundary and higher-order facets stop it.  flags keeps
    one bitmask per top, a bit per vertex-slot subset, so repeated calls
    share the "already harvested" record.  fill_tt pairs cofaces block by
    block, so TTP links a top only to tops of its own dimension block: the
    walk validates t once and finds every other row by arithmetic.  Each
    visited top spans gamma and counts one visit and one expansion per slot
    outside gamma.
    """
    gset = set(gamma)
    w, off = ewds.row_layout(t)
    if not gset.issubset(ewds.tvp[off + t * w : off + t * w + w]):
        raise NotIncident(f"simplex {sorted(gset)} is not spanned by top {t}")
    visited = _patch(ewds.tvp, ewds.ttp, w, off, gset, t, {} if flags is None else flags)
    counter.visits += len(visited)
    counter.expansions += len(visited) * (w - len(gset))
    return visited


def _patch(
    tvp: list[int],
    ttp: list[int],
    w: int,
    off: int,
    gset: set[int],
    t: int,
    flags: dict[int, int],
) -> list[int]:
    """travel_star on a block layout, without checks or counting."""
    visited: list[int] = []
    stack = [t]
    while stack:
        u = stack.pop()
        base = off + u * w
        idx = 0
        for k in range(w):
            if tvp[base + k] in gset:
                idx |= 1 << k
        bits = flags.get(u, 0)
        if bits >> idx & 1:
            continue
        flags[u] = bits | (1 << idx)
        visited.append(u)
        for k in range(w):
            if not idx >> k & 1:
                nbr = ttp[base + k]
                if nbr > 0:
                    stack.append(nbr)
    return visited


def check_relation(gamma: Simplex, n: int, m: int) -> None:
    """Raise BadRelation unless n < m and the simplex gamma has n + 1 vertices."""
    if n >= m:
        raise BadRelation(f"S{n}{m}: need n < m")
    if len(gamma) != n + 1:
        raise BadRelation(
            f"S{n}{m}: gamma needs {n + 1} distinct vertices, got {len(gamma)}"
        )


class FaceTops:
    """Every face of the source, as a sorted tuple, mapped to a packed top
    that spans it.

    Any such top will do: a face that is no splitmap key has one copy and
    one patch, so the walk from any top spanning it covers the same star.
    """

    def __init__(self, faces: dict[Simplex, int]) -> None:
        self.faces = faces

    def lookup(self, gamma: Simplex, counter: OpCounter = NULL_COUNTER) -> int:
        """A packed top spanning gamma, a sorted tuple of source ids; one
        comparison.  Raises NotInTrie when gamma is not a face of the source."""
        counter.comparisons += 1
        top = self.faces.get(gamma)
        if top is None:
            raise NotInTrie(f"{gamma} is not a face of the source")
        return top

    @property
    def num_words(self) -> int:
        return len(self.faces)

    num_nodes = num_words


@dataclass
class NmLayer:
    """Copy map, splitmap and face table for global queries."""

    ewds: Ewds
    sigma_n: list[int]  # packed vertex id -> source vertex id, index 0 unused
    copies_of: dict[int, tuple[int, ...]]  # source vertex -> packed copies
    splitmap: Splitmap
    v_nra: list[int]  # the paper's set; the harvest also reads the pinch suspects
    # the face table keeps the prefix tree's names (trie, build_ft_trie,
    # NotInTrie), which the benchmark's traced run reads
    trie: FaceTops = field(repr=False)

    # -- relation operations -----------------------------------------------

    def _add_faces(
        self, out: set[Simplex], tops: list[int], gamma: Simplex, m: int
    ) -> int:
        """Add to out the m-faces, in source ids, of tops that contain gamma.

        Every top in tops spans the same copy of the source simplex gamma,
        so all of them lie in one dimension block.  sigma_n is one-to-one on a
        top's row, so the source ids outside gamma are distinct and a face
        is gamma plus a combination of them: of one id when m = n + 1, of
        all of them when m is the block's dimension.  Returns the number of
        faces enumerated, which a query counts as comparisons.
        """
        if not tops:
            return 0
        w, off = self.ewds.row_layout(tops[0])
        free = w - len(gamma)
        need = m + 1 - len(gamma)
        if need > free:
            return 0
        tvp, sigma_n = self.ewds.tvp, self.sigma_n
        if need == free:
            for t in tops:
                row = tvp[off + t * w : off + t * w + w]
                out.add(tuple(sorted([sigma_n[x] for x in row])))
        elif need == 1:
            link: set[int] = set()
            for t in tops:
                link.update([sigma_n[x] for x in tvp[off + t * w : off + t * w + w]])
            link.difference_update(gamma)
            out.update(tuple(sorted(gamma + (s,))) for s in link)
        else:
            # the tops share one copy of gamma: drop it in packed ids
            first = off + tops[0] * w
            cp = [x for x in tvp[first : first + w] if sigma_n[x] in gamma]
            extras: set[Simplex] = set()
            for t in tops:
                row = tvp[off + t * w : off + t * w + w]
                rest = sorted([sigma_n[x] for x in row if x not in cp])
                extras.update(combinations(rest, need))
            out.update(tuple(sorted(gamma + extra)) for extra in extras)
        return len(tops) * math.comb(free, need)

    def _copy_star(
        self, cp: Simplex, seeds: Iterable[int], counter: OpCounter = NULL_COUNTER
    ) -> list[int]:
        """Tops that walks from seeds reach across facets containing cp.

        cp is a copy in packed ids and every seed spans it.  A copy lives in
        one component, so all seeds and the walks share one block layout;
        the walks tick the counter as travel_star does.
        """
        ew = self.ewds
        w, off = ew.row_layout(next(iter(seeds)))
        flags: dict[int, int] = {}
        gset = set(cp)
        visited: list[int] = []
        for s in seeds:
            visited += _patch(ew.tvp, ew.ttp, w, off, gset, s, flags)
        counter.visits += len(visited)
        counter.expansions += len(visited) * (w - len(cp))
        return visited

    def snh_given(
        self, gamma: Iterable[int], t: int, counter: OpCounter = NULL_COUNTER
    ) -> list[int]:
        """Star tops of the copy of source simplex gamma living in top t.

        Walks from the splitmap representatives of that copy when gamma is
        a key (its star may fall into several patches), from t itself
        otherwise: the splitmap records every simplex with a split star,
        so the walk reaches the copy's whole star either way.
        """
        gamma = simplex(gamma)
        w, off = self.ewds.row_layout(t)
        sigma_n = self.sigma_n
        row = self.ewds.tvp[off + t * w : off + t * w + w]
        cp = tuple(sorted([x for x in row if sigma_n[x] in gamma]))
        if len(cp) != len(gamma):
            raise NotIncident(f"top {t} spans no copy of {gamma}")
        reps = self.splitmap.get(gamma, {}).get(cp)
        return sorted(self._copy_star(cp, reps or (t,), counter))

    def s0m_global(
        self, v: int, m: int, counter: OpCounter = NULL_COUNTER
    ) -> set[Simplex]:
        """m-simplices of the source incident to vertex v, all copies pooled."""
        copies = self.copies_of.get(v)
        if copies is None:
            raise UnknownVertex(f"unknown source vertex {v}")
        out: set[Simplex] = set()
        for vp in copies:
            t0 = self.ewds.vtstar_of(vp)
            if self.ewds.dim_of_top(t0) < m:
                continue  # component too small to hold m-faces
            tops = self.ewds.s0h(vp, counter)
            counter.comparisons += self._add_faces(out, tops, (v,), m)
        return out

    def snm_global(
        self,
        gamma: Iterable[int],
        n: int,
        m: int,
        counter: OpCounter = NULL_COUNTER,
    ) -> set[Simplex]:
        """m-simplices of the source incident to the n-simplex gamma.

        Total: a gamma that is not a face of the source yields the empty
        set.  A vertex pools the stars of its copies.  For n >= 1 the query
        walks gamma's own star: from the representatives of each copy when
        gamma is a splitmap key, otherwise from the top that the face table
        returns, and reads the m-faces off the tops it reaches.  Raises
        BadRelation as check_relation does.
        """
        gamma = simplex(gamma)
        check_relation(gamma, n, m)
        if n == 0:
            if gamma[0] not in self.copies_of:
                return set()
            return self.s0m_global(gamma[0], m, counter)
        entry = self.splitmap.get(gamma)
        if entry is None:
            try:
                hint = self.trie.lookup(gamma, counter)
            except NotInTrie:
                return set()
            stars = [self.snh_given(gamma, hint, counter)]
        else:
            stars = [self._copy_star(cp, reps, counter) for cp, reps in entry.items()]
        out: set[Simplex] = set()
        for tops in stars:
            counter.comparisons += self._add_faces(out, tops, gamma, m)
        return out

    # -- compression accounting --------------------------------------------

    def nsp_tops(self) -> set[int]:
        """Tops incident to a copy of a non-regular-adjacency vertex."""
        out: set[int] = set()
        for v in self.v_nra:
            for vp in self.copies_of.get(v, ()):
                out.update(self.ewds.s0h(vp))
        return out

    def stats(self) -> dict:
        dec = self.ewds.source
        ns, nc = dec.ns, dec.nc
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


def build_sigma_maps(
    ewds: Ewds, dec: DecompositionResult
) -> tuple[list[int], dict[int, tuple[int, ...]]]:
    """Packed-id copy maps from the decomposition's vertex-level sigma."""
    sigma_n = [0] * (ewds.nv + 1)
    copies: dict[int, list[int]] = {}
    for vp in range(1, ewds.nv + 1):
        src = dec.sigma[ewds.vertex_old[vp]]
        sigma_n[vp] = src
        copies.setdefault(src, []).append(vp)
    copies_of = {v: tuple(sorted(cs)) for v, cs in copies.items()}
    return sigma_n, copies_of


def v_nra_vertices(
    ewds: Ewds,
    sigma_n: list[int],
    copies_of: dict[int, tuple[int, ...]],
) -> list[int]:
    """The paper's non-regular-adjacency vertices, in source ids.

    The splitting vertices plus the vertices of tops with an order>=3
    facet (a diamond in their adjacency row).  stats() counts their stars.
    Harvesting them finds every key with several copies or a diamond, but
    not an edge pinched between tets while neither of its vertices splits:
    pinch_suspects adds the vertices where that may happen.
    """
    out = {v for v, cs in copies_of.items() if len(cs) > 1}
    tvp, ttp = ewds.tvp, ewds.ttp
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


def pinch_suspects(ewds: Ewds, sigma_n: list[int]) -> set[int]:
    """Source vertices whose star may hold a pinched simplex.

    A simplex is pinched when its star inside one component falls into
    several patches with no diamond between them.  Below dimension 3 only
    a facet can be a key short of a top, and a facet with two cofaces
    joins them, so blocks of dimension <= 2 have no pinch.  In a tet
    block every component is an
    IQM, so the link of a vertex a is a connected pseudo-surface whose
    only singular points are the pinched edges at a, and its Euler
    characteristic

        chi = E(a) - (3 T(a) + B(a)) / 2 + T(a)

    (E distinct edges at a, T tets at a, B boundary slots of those tets
    whose facet holds a) drops below that of the normalised surface by
    one per extra patch.  A closed surface has chi <= 2 and one with
    boundary chi <= 1, so a is clear when chi is 2 without boundary or 1
    with it, and a suspect otherwise.  Tops with a diamond put their
    vertices in v_nra whatever the count says.  In blocks of dimension
    >= 4 every vertex is a suspect.  One pass over TVP/TTP.
    """
    tvp, ttp, nv = ewds.tvp, ewds.ttp, ewds.nv
    out: set[int] = set()
    for h in range(3, ewds.d + 1):
        lo, hi = ewds.tbase_addr[h], ewds.tbase_addr[h + 1]
        if h > 3:
            out.update([sigma_n[x] for x in tvp[lo:hi]])
            continue
        n = nv + 1
        tets, bnd, deg = [0] * n, [0] * n, [0] * n
        edges: set[int] = set()  # a * n + b for each edge a < b
        for base in range(lo, hi, 4):
            a, b, c, e = sorted(tvp[base : base + 4])
            edges.update((a * n + b, a * n + c, a * n + e, b * n + c, b * n + e, c * n + e))
            for k in range(base, base + 4):
                x = tvp[k]
                tets[x] += 1
                if ttp[k] == 0:  # the facet opposite x holds the other three
                    bnd[a] += 1
                    bnd[b] += 1
                    bnd[c] += 1
                    bnd[e] += 1
                    bnd[x] -= 1
        for key in edges:
            deg[key // n] += 1
            deg[key % n] += 1
        for x in range(1, n):
            if tets[x]:
                chi2 = 2 * deg[x] - tets[x] - bnd[x]  # twice chi
                if chi2 != (2 if bnd[x] else 4):
                    out.add(sigma_n[x])
    return out


def _met_subsets(w: int, mask: int) -> list[tuple[int, tuple[int, ...], int]]:
    """(bitmask, slots, opposite) of every subset of 2..w-1 slots of a
    width-w row that holds a slot of mask.  opposite is the one slot left
    out of a facet, and -1 for a smaller subset."""
    full = (1 << w) - 1
    return [
        (idx, tuple(k for k in range(w) if idx >> k & 1),
         (full ^ idx).bit_length() - 1 if idx.bit_count() == w - 1 else -1)
        for idx in range(1, full)
        if idx & mask and idx.bit_count() >= 2
    ]


def build_splitmap(
    ewds: Ewds,
    sigma_n: list[int],
    copies_of: dict[int, tuple[int, ...]],
    vertices: Iterable[int],
    counter: OpCounter = NULL_COUNTER,
) -> Splitmap:
    """Harvest split simplices from the stars of the given source vertices.

    One pass over the union of the stars of their copies, in ascending
    top order, reads each slot subset of 2..w-1 slots that holds a
    harvested copy; no other subset can be split.  A facet needs no walk:
    with two cofaces it is one patch, recorded from the smaller of them,
    and on the boundary or at a diamond each coface is a patch of its own.
    Any other subset is recorded by the first top that shows it, and the
    walk of its patch from there flags it in the patch's other tops.  All
    of those tops hold the harvested copy, so they are read too, and every
    representative is the smallest top of its patch: the splitmap depends
    on the set of vertices, not on their order.  Keys that end up with one
    copy and one patch carry no information beyond sigma and are dropped.

    The splitmap is complete when vertices holds v_nra and the pinch
    suspects: every split simplex has a vertex among them, so all of its
    star is read.  The star floods tick the counter as s0h does and the
    patch walks as travel_star does.
    """
    harvested = [vp for v in vertices for vp in copies_of.get(v, ())]
    if not harvested:
        return {}
    marked = bytearray(ewds.nv + 1)
    gathered: set[int] = set()
    for vp in harvested:
        marked[vp] = 1
        gathered.update(ewds.s0h(vp, counter))
    tops = sorted(gathered)
    tvp, ttp = ewds.tvp, ewds.ttp
    flags: dict[int, int] = {}
    found: dict[Simplex, dict[Simplex, list[int]]] = {}
    visits = expansions = 0
    for h in range(2, ewds.d + 1):  # narrower rows have no such subset
        w = h + 1
        off = ewds.tbase_addr[h] - ewds.tbase[h] * w
        subsets: dict[int, list[tuple[int, tuple[int, ...], int]]] = {}
        lo = bisect_left(tops, ewds.tbase[h])
        for t in tops[lo : bisect_left(tops, ewds.tbase[h + 1], lo)]:
            base = off + t * w
            row = tvp[base : base + w]
            mask = 0
            for k in range(w):
                if marked[row[k]]:
                    mask |= 1 << k
            todo = subsets.get(mask)
            if todo is None:
                todo = subsets[mask] = _met_subsets(w, mask)
            done = flags.get(t, 0)
            for idx, slots, opp in todo:
                if opp >= 0:
                    if 0 < ttp[base + opp] < t:
                        continue  # recorded from the smaller coface
                elif done >> idx & 1:
                    continue
                cp = tuple(sorted([row[k] for k in slots]))
                key = tuple(sorted([sigma_n[x] for x in cp]))
                found.setdefault(key, {}).setdefault(cp, []).append(t)
                if opp < 0:
                    # the walk from t, as travel_star counts it
                    reached = len(_patch(tvp, ttp, w, off, set(cp), t, flags))
                    visits += reached
                    expansions += reached * (w - len(cp))
    counter.visits += visits
    counter.expansions += expansions
    return {
        key: {cp: set(reps) for cp, reps in entry.items()}
        for key, entry in found.items()
        if len(entry) > 1 or len(next(iter(entry.values()))) > 1
    }


def build_ft_trie(source: Complex, top_hint: Mapping[int, int]) -> FaceTops:
    """Face table over every face of source, vertices included.

    top_hint maps a source top id to the packed id the table returns; a
    face shared by several tops keeps the last of them.
    """
    faces: dict[Simplex, int] = {}
    for t in source.top_ids:
        row = sorted(source.row(t))
        hint = top_hint[t]
        for r in range(1, len(row) + 1):
            for word in combinations(row, r):
                faces[word] = hint
    return FaceTops(faces)


def build_nm_layer(ewds: Ewds) -> NmLayer:
    """Assemble the full non-manifold layer for a packed decomposition.

    The splitmap harvests v_nra and the pinch suspects; the layer keeps
    v_nra alone, which stats() reads.
    """
    dec = ewds.source
    sigma_n, copies_of = build_sigma_maps(ewds, dec)
    nra = v_nra_vertices(ewds, sigma_n, copies_of)
    harvest = pinch_suspects(ewds, sigma_n)
    harvest.update(nra)
    smap = build_splitmap(ewds, sigma_n, copies_of, harvest)
    return NmLayer(ewds, sigma_n, copies_of, smap, nra, build_ft_trie(dec.source, ewds.top_new))
