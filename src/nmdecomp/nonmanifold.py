"""Non-manifold layer on top of the packed tables.

The packed tables answer everything inside one component.  Queries about
the original complex need two extra ingredients: the vertex copy map
sigma (copies -> original vertex) and the splitmap, which lists for every
simplex that lost uniqueness in the decomposition its copies and one
representative top per adjacency patch of each copy.  Everything else
stays implicit: a simplex absent from the splitmap has a single copy, so
sigma inverts it directly.

Vertex couples are never splitmap keys: the copy map already answers
them, so recording starts at dimension one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from .complexes import Simplex, simplex
from .counters import NULL_COUNTER, OpCounter
from .decompose import DecompositionResult
from .errors import BadRelation, NotIncident, NotInTrie, UnknownVertex
from .trie import FtTrie, build_ft_trie
from .winged import Ewds

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
    tvp, ttp = ewds.tvp, ewds.ttp
    if not gset.issubset(tvp[off + t * w : off + t * w + w]):
        raise NotIncident(f"simplex {sorted(gset)} is not spanned by top {t}")
    if flags is None:
        flags = {}
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
    counter.visits += len(visited)
    counter.expansions += len(visited) * (w - len(gset))
    return visited


def check_relation(gamma: Simplex, n: int, m: int) -> None:
    """Raise BadRelation unless n < m and the simplex gamma has n + 1 vertices."""
    if n >= m:
        raise BadRelation(f"S{n}{m}: need n < m")
    if len(gamma) != n + 1:
        raise BadRelation(
            f"S{n}{m}: gamma needs {n + 1} distinct vertices, got {len(gamma)}"
        )


@dataclass
class NmLayer:
    """Copy map, splitmap and face trie for global queries."""

    ewds: Ewds
    sigma_n: list[int]  # packed vertex id -> source vertex id, index 0 unused
    copies_of: dict[int, tuple[int, ...]]  # source vertex -> packed copies
    splitmap: Splitmap
    v_nra: list[int]
    trie: FtTrie = field(repr=False)

    # -- copy translation --------------------------------------------------

    def to_source(self, gamma: Iterable[int]) -> Simplex:
        return simplex(self.sigma_n[v] for v in gamma)

    def copy_in_top(self, t: int, gamma: Simplex) -> Simplex | None:
        """The copy of source simplex gamma inside top t, if all of it is there."""
        back = {self.sigma_n[w]: w for w in self.ewds.row_of(t)}
        try:
            return simplex(back[v] for v in gamma)
        except KeyError:
            return None

    def _copy_tops(
        self, gamma_copy: Simplex, counter: OpCounter = NULL_COUNTER
    ) -> list[int]:
        """All tops spanning one particular copy, via its first vertex's star."""
        tops = self.ewds.s0h(gamma_copy[0], counter)
        counter.comparisons += len(tops)
        w, off = self.ewds.row_layout(tops[0])
        tvp = self.ewds.tvp
        gset = set(gamma_copy)
        return [t for t in tops if gset.issubset(tvp[off + t * w : off + t * w + w])]

    def _add_faces(
        self, out: set[Simplex], tops: list[int], cp: Simplex, gamma: Simplex, m: int
    ) -> int:
        """Add to out the m-faces, in source ids, of tops that contain gamma.

        Every top in tops spans cp, a copy of the source simplex gamma, and
        all of them lie in one dimension block.  sigma_n is one-to-one on a
        top's row, so the source ids outside gamma are distinct and a face
        is gamma plus a combination of them.  Returns the number of faces
        enumerated, which a query counts as comparisons.
        """
        if not tops:
            return 0
        w, off = self.ewds.row_layout(tops[0])
        need = m + 1 - len(gamma)
        tvp, sigma_n = self.ewds.tvp, self.sigma_n
        extras: set[Simplex] = set()
        for t in tops:
            row = tvp[off + t * w : off + t * w + w]
            rest = sorted([sigma_n[x] for x in row if x not in cp])
            extras.update(combinations(rest, need))
        out.update(tuple(sorted(gamma + extra)) for extra in extras)
        return len(tops) * math.comb(w - len(gamma), need)

    # -- relation operations -----------------------------------------------

    def snh_given(
        self, gamma: Iterable[int], t: int, counter: OpCounter = NULL_COUNTER
    ) -> list[int]:
        """Star tops of the copy of gamma living in top t.

        Floods from the splitmap representatives when gamma is recorded
        there (its star may fall into several patches), from t itself
        otherwise.
        """
        gamma = simplex(gamma)
        cp = self.copy_in_top(t, gamma)
        if cp is None:
            raise NotIncident(f"top {t} spans no copy of {gamma}")
        reps = self.splitmap.get(gamma, {}).get(cp)
        seeds = sorted(reps) if reps else [t]
        flags: dict[int, int] = {}
        visited: list[int] = []
        for s in seeds:
            visited.extend(travel_star(self.ewds, cp, s, flags, counter))
        return sorted(visited)

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
            counter.comparisons += self._add_faces(out, tops, (vp,), (v,), m)
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
        set.  A splitmap key lists all its copies; any other simplex has a
        single copy, found inside the top that one trie lookup returns.
        Raises BadRelation as check_relation does.
        """
        gamma = simplex(gamma)
        check_relation(gamma, n, m)
        if n == 0:
            if gamma[0] not in self.copies_of:
                return set()
            return self.s0m_global(gamma[0], m, counter)
        if gamma in self.splitmap:
            cps = list(self.splitmap[gamma])
        else:
            try:
                hint = self.trie.lookup(gamma, counter)
            except NotInTrie:
                return set()
            cp = self.copy_in_top(hint, gamma)
            cps = [cp] if cp is not None else []
        out: set[Simplex] = set()
        for cp in cps:
            tops = self._copy_tops(cp, counter)
            counter.comparisons += self._add_faces(out, tops, cp, gamma, m)
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
    """Source vertices whose stars the splitmap must harvest.

    The splitting vertices plus the vertices of tops with an order>=3
    facet (a diamond in their adjacency row).  Harvesting every vertex
    instead yields the same keys and copies, only with more work.
    """
    out = {v for v, cs in copies_of.items() if len(cs) > 1}
    for t in range(1, ewds.nt + 1):
        if any(x < 0 for x in ewds.tt_row_of(t)):
            out.update(sigma_n[v] for v in ewds.row_of(t))
    return sorted(out)


def build_splitmap(
    ewds: Ewds,
    sigma_n: list[int],
    copies_of: dict[int, tuple[int, ...]],
    v_nra: Iterable[int],
    counter: OpCounter = NULL_COUNTER,
) -> Splitmap:
    """Harvest split simplices from the stars of the given vertices.

    Every at-least-2-vertex slot subset of every star top is read off
    once: the first top to show a subset becomes the representative of
    that adjacency patch, and walking the patch flags the subset in all
    its other tops.  Keys that end up with one copy and one patch carry
    no information beyond sigma and are dropped.
    """
    flags: dict[int, int] = {}
    smap: Splitmap = {}
    for v in sorted(v_nra):
        for vp in copies_of.get(v, ()):
            for t in ewds.s0h(vp, counter):
                h = ewds.dim_of_top(t)
                row = ewds.row_of(t)
                for idx in range(1, (1 << (h + 1)) - 1):
                    if idx.bit_count() < 2:
                        continue
                    if flags.get(t, 0) >> idx & 1:
                        continue
                    cp = simplex(row[k] for k in range(h + 1) if idx >> k & 1)
                    key = simplex(sigma_n[x] for x in cp)
                    smap.setdefault(key, {}).setdefault(cp, set()).add(t)
                    travel_star(ewds, cp, t, flags, counter)
    for key in list(smap):
        if len(smap[key]) == 1:
            (reps,) = smap[key].values()
            if len(reps) == 1:
                del smap[key]
    return smap


def build_nm_layer(ewds: Ewds) -> NmLayer:
    """Assemble the full non-manifold layer for a packed decomposition."""
    dec = ewds.source
    sigma_n, copies_of = build_sigma_maps(ewds, dec)
    nra = v_nra_vertices(ewds, sigma_n, copies_of)
    smap = build_splitmap(ewds, sigma_n, copies_of, nra)
    trie = build_ft_trie(dec.source, smap.keys(), ewds.top_new)
    return NmLayer(ewds, sigma_n, copies_of, smap, nra, trie)
