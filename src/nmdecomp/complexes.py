"""Abstract simplicial complexes stored as the TV relation.

A complex is one row store: its sorted top ids, every row's vertices end
to end in that order, and the row offsets, which `Complex.position` and
`corner_layout` serve.  Only maximal simplices are stored; every face
query is answered by enumeration from the tops.  Rows keep the order in
which their vertices were given (the winged tables inherit that order),
while query arguments and results use sorted vertex tuples.

Vertex ids are int ids, not bools, of any sign.  Files may label vertices
with arbitrary alphanumeric tokens, and output speaks those labels
(`Complex.label_of`).  A complex stores a label only where it differs from
str() of its vertex, so a file of canonical numerals, and any
decomposition of it, stores none, while a token such as "007", or a word,
is kept.

`parse_tv` writes the row store itself, with no row mapping between: one
regex match over each whole line gives its id and token text, the row
widths come from the texts, and the file's tokens map to vertices in one
pass over one list.  It checks the distinct tokens, not each occurrence,
for two numerals naming one vertex, and shares `_row_store`, the check of
repeated vertices, top ids and maximality, with the mapping constructor.
The per-line rules that give each fault its message run only once a fault
is found, to name its line.

The manifold-facet rule lives here too, on the store's flat corners:
corner start[i] + k is slot k of the i-th top in top_ids order, and
`corner_layout` hands out those two lists.  `corner_facets` adds the
owner list, which maps each corner to the 1-based index of its top, the
index TT entries use, and `facet_slots` maps every facet to the slots
opposite it in its cofaces.  `_manifold_facets` keeps the facets that no
other top contains, with the two slots opposite each of them:
`canonical_pairs` lists their pairs, the ones `gluing.GluingState.pmglue`
accepts, and `glue_pairs` merges the corners of each pair in a union-find
parent array.  `decompose` turns those corner classes into vertices, and
`Complex.is_iqm` asks for exactly one class per vertex, so all of them
read the same rule.  Set-up makes one `facet_slots` pass, in `decompose`,
whose table also gives the decomposition's TT relation;
`Complex.classify` reads one such pass for every flag.  Manifold
recognition builds no link: in 3-D it is the twice-chi count of vertex
links (`twice_chi_misses`) that `nonmanifold.pinch_suspects` runs too,
which `oracle.oracle_is_manifold` checks by classifying each link.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left
from dataclasses import dataclass
from operator import lt, sub
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .errors import (
    InvalidComplex,
    NotTop,
    ParseError,
    UnknownToken,
    UnknownTop,
)
from .unionfind import classes, flatten, union_min

Simplex = tuple  # sorted duplicate-free tuple of vertex ids


def simplex(verts: Iterable[int]) -> Simplex:
    """Normalize an iterable of vertex ids into a sorted duplicate-free tuple."""
    return tuple(sorted(set(verts)))


def _top_id(tid: object) -> int:
    """tid as a top id: an int that is no bool, or a string int() reads."""
    if isinstance(tid, (int, str)) and not isinstance(tid, bool):
        try:
            return int(tid)
        except ValueError:
            pass
    raise InvalidComplex(f"top id {tid!r} is not an integer")


@dataclass(frozen=True)
class ClassifyFlags:
    """Result of Complex.classify().  manifold_le3 is None when d > 3."""

    regular: bool
    pseudomanifold: bool
    quasi_manifold: bool
    iqm: bool
    manifold_le3: bool | None

    def as_dict(self) -> dict:
        m = self.manifold_le3
        return {
            "regular": self.regular,
            "pseudomanifold": self.pseudomanifold,
            "quasi_manifold": self.quasi_manifold,
            "iqm": self.iqm,
            "manifold_le3": "unknown" if m is None else m,
        }


class Complex:
    """Immutable simplicial complex over the TV relation, in one row store
    whose offsets end with the corner count."""

    __slots__ = ("_store_ids", "_store_flat", "_store_start", "_labels", "_vt", "_dim")

    def __init__(
        self,
        tv: Mapping[int, Sequence[int]],
        labels: Mapping[int, str] | None = None,
        validate: bool = True,
    ):
        ids: list[int] = []
        flat: list = []
        start = [0]
        sets: list[frozenset] = []
        for tid, row in tv.items():
            try:
                flat += row
            except TypeError:
                fault = InvalidComplex(f"simplex {tid!r} is not a sequence of vertex ids")
                raise _first_row_fault(tv, flat, start) or fault from None
            try:
                sets.append(frozenset(flat[start[-1] :]))
            except TypeError:  # an unhashable vertex, named after the faults before it
                raise _first_row_fault(tv, flat, [*start, len(flat)]) from None
            start.append(len(flat))
            if type(tid) is not int:
                try:
                    tid = _top_id(tid)
                except InvalidComplex as fault:  # after the faults of its row
                    raise _first_row_fault(tv, flat, start) or fault from None
            ids.append(tid)
        own = labels and {v: t for v, t in labels.items() if t != str(v)}
        self._set(*_row_store(tv, ids, flat, start, sets, validate), own)

    # -- construction ------------------------------------------------------

    def _set(self, ids: list, flat: list, start: list, labels: dict | None) -> "Complex":
        """Take the given store and labels, unchecked and not copied: each
        label differs from str() of its vertex."""
        self._store_ids, self._store_flat, self._store_start = ids, flat, start
        self._labels = labels or None
        self._vt: dict[int, set[int]] | None = None
        self._dim: int | None = None
        return self

    def with_corners(self, flat: list[int], labels: dict[int, str] | None) -> "Complex":
        """This complex's tops, sharing its ids and offsets, with corner k
        (see `corner_layout`) holding vertex flat[k], and the given labels,
        which it keeps.  The rows are not checked: each must hold distinct
        vertex ids."""
        return Complex.__new__(Complex)._set(self._store_ids, flat, self._store_start, labels)

    # -- basic accessors ---------------------------------------------------

    @property
    def top_ids(self) -> list[int]:
        """Sorted top ids, the store's own list; callers must not mutate it."""
        return self._store_ids

    @property
    def num_tops(self) -> int:
        return len(self._store_ids)

    def position(self, tid: int) -> int:
        """Index of top tid in top_ids, by bisect; UnknownTop if none."""
        ids = self._store_ids
        i = bisect_left(ids, tid) if type(tid) is int else len(ids)
        if i == len(ids) or ids[i] != tid:
            raise UnknownTop(f"no top simplex {tid!r}")
        return i

    def row(self, tid: int) -> tuple[int, ...]:
        """Vertex tuple of a top simplex, in input order."""
        i = self.position(tid)
        return tuple(self._store_flat[self._store_start[i] : self._store_start[i + 1]])

    def dim_of(self, tid: int) -> int:
        return len(self.row(tid)) - 1

    def _widths(self) -> Iterator[int]:
        """The row widths, in top_ids order."""
        start = self._store_start
        return map(sub, start[1:], start)

    def _rows(self) -> Iterator[tuple[int, ...]]:
        """The rows as tuples, in top_ids order."""
        flat, start = self._store_flat, self._store_start
        return map(tuple, map(flat.__getitem__, map(slice, start, start[1:])))

    @property
    def dim(self) -> int:
        if self._dim is None:
            self._dim = max(self._widths(), default=0) - 1
        return self._dim

    @property
    def vertices(self) -> list[int]:
        return sorted(self._vertex_ids())

    @property
    def num_vertices(self) -> int:
        return len(self._vertex_ids())

    @property
    def labelled(self) -> bool:
        """Does some vertex have a label other than str() of its id?"""
        return self._labels is not None

    def label_of(self, v: int) -> str:
        if self._labels and v in self._labels:
            return self._labels[v]
        return str(v)

    def _vertex_ids(self) -> Collection[int]:
        """The vertices in order of first appearance in the store."""
        return dict.fromkeys(self._store_flat).keys()

    def _vertex_tops(self) -> dict[int, set[int]]:
        """Vertex -> ids of the tops holding it, built on the first star()."""
        if self._vt is None:
            vt: dict[int, set[int]] = {}
            owners = map(itertools.repeat, self._store_ids, self._widths())
            for v, tid in zip(self._store_flat, itertools.chain.from_iterable(owners)):
                vt.setdefault(v, set()).add(tid)
            self._vt = vt
        return self._vt

    # -- stars -------------------------------------------------------------

    def star(self, gamma: Iterable[int]) -> set[int]:
        """Ids of the top simplices containing gamma (empty set allowed).

        Raises InvalidComplex unless gamma is a non-empty iterable of ints
        that are no bools; an int that is no vertex gives the empty set."""
        try:
            gamma = tuple(gamma)
        except TypeError:
            raise InvalidComplex(f"star of {gamma!r}: not a sequence of vertex ids") from None
        if not gamma:
            raise InvalidComplex("star of the empty simplex is not defined")
        if not {int}.issuperset(map(type, gamma)):
            raise InvalidComplex(f"star of {gamma!r}: a vertex id is not an int")
        vt = self._vertex_tops()
        try:
            sets = [vt[v] for v in gamma]
        except KeyError:
            return set()
        return set.intersection(*sets)

    # -- face enumeration --------------------------------------------------

    def all_faces(self) -> set[Simplex]:
        out: set[Simplex] = set()
        for row in self._rows():
            srt = sorted(row)
            for k in range(1, len(srt) + 1):
                out.update(itertools.combinations(srt, k))
        return out

    # -- connectivity ------------------------------------------------------

    def h_connected_components(self, h: int) -> list[list[int]]:
        """Partition of top ids by chains of shared h-faces.

        A list union-find over the indices of `top_ids` joins each top to
        the first top holding each of its h-faces; for h = 0 the key is the
        vertex itself.  Classes come out sorted, ordered by their smallest
        top.  Tops of dimension < h hold no h-face, so they sit in singleton
        classes, and for h above the dimension every class is a singleton.
        """
        if type(h) is not int or h < 0:
            raise InvalidComplex(f"h must be an int >= 0, got {h!r}")
        if h > self.dim:  # and combinations would overflow on a huge h
            return [[t] for t in self._store_ids]
        parent = list(range(self.num_tops))
        first: dict = {}  # h-face -> index of the first top holding it
        for i, row in enumerate(self._rows()):
            for face in row if h == 0 else itertools.combinations(sorted(row), h + 1):
                j = first.setdefault(face, i)
                if j != i:
                    union_min(parent, i, j)
        return classes(flatten(parent), self._store_ids)

    # -- classification ----------------------------------------------------

    def is_regular(self) -> bool:
        return len(set(self._widths())) <= 1

    def classify(self) -> ClassifyFlags:
        """Every flag from one `facet_slots` pass: facet orders, connectivity
        across facets, the corner gluing of `is_iqm` and the boundary slots.

        For d <= 3 a combinatorial manifold is regular, has no facet with
        three cofaces and is an IQM, so every vertex link is connected with
        no branching: at most two points for d = 1, a path or a cycle for
        d = 2, and for d = 3 a sphere or a disk once `twice_chi_misses`
        passes the vertex.
        """
        return self._classify(*corner_facets(self))

    def classify_with_faces(self) -> tuple[ClassifyFlags, dict[Simplex, list[int]]]:
        """classify() and the (d-1)-faces of order > 2, each with its sorted
        coface list, from one facet pass, which is what `nmdecomp check`
        reports."""
        flat, start, owner, slots = corner_facets(self)
        return self._classify(flat, start, owner, slots), self._high_order_facets(owner, slots)

    def _classify(
        self, flat: list[int], start: list[int], owner: list[int], slots: dict
    ) -> ClassifyFlags:
        d = self.dim
        regular = self.is_regular()
        # a regular complex's facets are its (d-1)-faces
        thin = regular and all(type(s) is int or len(s) == 2 for s in slots.values())
        iqm = regular and (
            _class_count(glue_pairs(self, flat, start, owner, slots)) == self.num_vertices
        )
        pseudo = thin and (d < 1 or _facet_connected(self.num_tops, owner, slots))
        # every facet of a pseudomanifold is a manifold facet, so its vertex
        # stars are connected across facets exactly when they are IQM stars
        quasi = pseudo and iqm
        manifold = None if d > 3 else thin and iqm
        if manifold and d == 3:  # the count runs in dense vertex ids
            ids = {v: i for i, v in enumerate(self._vertex_ids())}
            dense = list(map(ids.__getitem__, flat))
            open_slots = [k for k in slots.values() if type(k) is int]
            manifold = not twice_chi_misses(dense, 0, len(dense), open_slots, len(ids))
        return ClassifyFlags(regular, pseudo, quasi, iqm, manifold)

    def is_iqm(self) -> bool:
        """Regular, with every vertex star connected across manifold facets.

        That is, gluing the exploded corners across manifold facet pairs
        leaves exactly one corner class per vertex.
        """
        return self.is_regular() and (
            _class_count(glue_pairs(self, *corner_facets(self))) == self.num_vertices
        )

    def _high_order_facets(self, owner: list[int], slots: dict) -> dict[Simplex, list[int]]:
        d = self.dim
        tops = self.top_ids
        # only a d-top has a facet of d vertices; slots ascend with the top
        return {
            f: [tops[owner[k] - 1] for k in ks]
            for f, ks in slots.items()
            if len(f) == d and type(ks) is tuple and len(ks) > 2
        }

    # -- misc --------------------------------------------------------------

    def subcomplex(self, top_ids: Iterable[int]) -> "Complex":
        """The given tops, in any order, with their own vertices' labels: a
        slice of this store, or all of it, not checked again.  Raises
        InvalidComplex when top_ids is not iterable and UnknownTop on an
        id that is no top."""
        ids, flat, start = self._store_ids, self._store_flat, self._store_start
        try:
            tids = list(top_ids)
        except TypeError:
            raise InvalidComplex(f"subcomplex of {top_ids!r}: not a sequence of top ids") from None
        if tids != ids or not {int}.issuperset(map(type, tids)):
            ids, flat, start = [], [], [0]
            for i in sorted(set(map(self.position, tids))):
                ids.append(self._store_ids[i])
                flat += self._store_flat[self._store_start[i] : self._store_start[i + 1]]
                start.append(len(flat))
        own = self._labels
        labels = own and {v: own[v] for v in dict.fromkeys(flat) if v in own}
        return Complex.__new__(Complex)._set(ids, flat, start, labels)

    def rows(self) -> dict[int, tuple[int, ...]]:
        return dict(zip(self._store_ids, self._rows()))

    def simplex_set(self) -> set[Simplex]:
        return {tuple(sorted(r)) for r in self._rows()}

    def __eq__(self, other) -> bool:
        same_ids = isinstance(other, Complex) and self.top_ids == other.top_ids
        return same_ids and corner_layout(self) == corner_layout(other)

    def __hash__(self):
        return hash((tuple(self._store_ids), tuple(self._store_flat)))

    def __repr__(self) -> str:
        return f"Complex({self.num_tops} tops, d={self.dim})"


def _row_store(
    keys: Iterable,
    ids: list[int],
    flat: list,
    start: list[int],
    sets: list[frozenset],
    validate: bool,
) -> tuple[list[int], list, list[int]]:
    """The store (ids, flat, start) of the given rows, sorted by top id.

    This is the one check of `parse_tv` and the mapping constructor.  The
    rows come in input order: row i has top id ids[i], the vertices
    flat[start[i]:start[i + 1]] and their frozenset sets[i], which serves
    both the repeated-vertex test and `_check_maximality`; keys yields the
    ids as the input named them, which only messages read.  Raises
    InvalidComplex at the first row that is empty or repeats a vertex, then
    on two rows of one top id; with `validate`, then on a vertex id that is
    no int, and NotTop as `_check_maximality` does.  Ids that ascend
    strictly, as they do in most inputs, are neither counted nor sorted.
    """
    if not all(sets) or sum(map(len, sets)) != len(flat):  # an empty row, or a repeat
        raise _first_row_fault(keys, flat, start)
    ascending = all(map(lt, ids, ids[1:]))
    if not ascending and len(set(ids)) < len(ids):
        first: dict[int, object] = {}
        for key, tid in zip(keys, ids):
            if tid in first:
                raise InvalidComplex(f"top ids {first[tid]!r} and {key!r} both name top {tid}")
            first[tid] = key
    if validate:
        if not {int}.issuperset(map(type, flat)):
            bad = next(v for v in flat if type(v) is not int)
            raise InvalidComplex(f"vertex id {bad!r} is not an integer")
        _check_maximality(ids, sets)
    if ascending:
        return ids, flat, start
    order = sorted(range(len(ids)), key=ids.__getitem__)
    rows = [flat[start[i] : start[i + 1]] for i in order]
    return (
        [ids[i] for i in order],
        list(itertools.chain.from_iterable(rows)),
        list(itertools.accumulate(map(len, rows), initial=0)),
    )


def _first_row_fault(keys: Iterable, flat: list, start: list[int]) -> InvalidComplex | None:
    """The InvalidComplex of the first row, in input order, that is empty,
    holds an unhashable vertex or repeats one, named by its key; None if
    no row does.  Only the rows that start delimits are read."""
    for key, s, e in zip(keys, start, start[1:]):
        if s == e:
            return InvalidComplex(f"empty simplex for id {key}")
        try:
            repeated = len(set(flat[s:e])) != e - s
        except TypeError:
            return InvalidComplex(f"simplex {key!r} holds an unhashable vertex id")
        if repeated:
            return InvalidComplex(f"repeated vertex in simplex {key}")
    return None


def _check_maximality(ids: list[int], sets: list[frozenset]) -> None:
    """Raise NotTop on the first row that is a face of another, naming the
    smallest such other; ids and the rows' vertex sets come in input order.

    A row of the widest width can lie only in an equal row, so unless a set
    of the widest rows finds two equal ones, only the narrower rows are
    looked up, in vertex -> tops sets for their own vertices alone.
    """
    widths = list(map(len, sets))
    width = max(widths, default=0)
    wide = [r for r, w in zip(sets, widths) if w == width]
    equal = len(set(wide)) < len(wide)
    looked_up = [(t, r) for t, r, w in zip(ids, sets, widths) if equal or w < width]
    if not looked_up:
        return
    vt: dict[int, set[int]] = {v: set() for _, r in looked_up for v in r}
    low = vt.keys()
    for t, r in zip(ids, sets):
        if not low.isdisjoint(r):
            for v in r:
                if v in vt:
                    vt[v].add(t)
    inside: dict[int, int] = {}  # top -> smallest other top containing it
    for t, r in looked_up:
        cofaces = set.intersection(*(vt[v] for v in r))
        if len(cofaces) > 1:
            inside[t] = min(u for u in cofaces if u != t)
    for t in ids:
        if t in inside:
            raise NotTop(f"stored simplex {t} is a face of stored simplex {inside[t]}", t)


# -- flat corners and the manifold-facet rule --------------------------------


def facet_slots(
    flat: Sequence[int], rows: Iterable[tuple[int, int]]
) -> dict[Simplex, int | tuple[int, ...]]:
    """Each facet of the given rows -> the slots opposite it, one per coface.

    rows yields (start, width) of rows of flat; a row's facets are its
    sorted vertices less one, and the slot opposite a facet is the index
    in flat of the vertex it leaves out.  A facet with one coface maps to
    that slot, a facet with more to the tuple of their slots in row order.
    Keys and values are ints and tuples of ints, which the cyclic garbage
    collector stops tracking after one pass, so a big table adds little to
    its full collections.

    A row of width 4, a tet, the paper's main case, is unpacked into
    locals and its four facets written out in the order `combinations`
    yields them, so the table is the same, key order included; that
    skips the iterators the generic loop makes per row.  Every other
    width keeps the generic loop: tet meshes are where set-up spends its
    time, and each unrolled width is more code to keep in step with the
    loop.
    """
    out: dict[Simplex, int | tuple[int, ...]] = {}
    setdefault = out.setdefault
    vertex = flat.__getitem__
    for base, w in rows:
        if w == 4:  # a tet, unrolled, in the generic loop's order
            p, q, r, s = sorted(range(base, base + 4), key=vertex)
            a, b, c, d = vertex(p), vertex(q), vertex(r), vertex(s)
            f = a, b, c
            if (prev := setdefault(f, s)) != s:
                out[f] = prev + (s,) if type(prev) is tuple else (prev, s)
            f = a, b, d
            if (prev := setdefault(f, r)) != r:
                out[f] = prev + (r,) if type(prev) is tuple else (prev, r)
            f = a, c, d
            if (prev := setdefault(f, q)) != q:
                out[f] = prev + (q,) if type(prev) is tuple else (prev, q)
            f = b, c, d
            if (prev := setdefault(f, p)) != p:
                out[f] = prev + (p,) if type(prev) is tuple else (prev, p)
            continue
        if w < 2:
            continue
        # slots by vertex; combinations leave out the last vertex first
        pos = sorted(range(base, base + w), key=vertex)
        facets = itertools.combinations(map(vertex, pos), w - 1)
        for facet, slot in zip(facets, reversed(pos)):
            prev = setdefault(facet, slot)
            if prev != slot:
                out[facet] = prev + (slot,) if type(prev) is tuple else (prev, slot)
    return out


def corner_layout(c: Complex) -> tuple[list[int], list[int]]:
    """The flat corners of c and where each top's corners start, which
    callers must not mutate: c's own store.

    Corner start[i] + k is slot k of the i-th top in top_ids order, and
    flat holds its vertex; start has a final entry, the corner count.
    """
    return c._store_flat, c._store_start


def corner_facets(c: Complex) -> tuple[list[int], list[int], list[int], dict]:
    """c's `corner_layout`, the owner list of its corners and the
    `facet_slots` of its rows.

    owner[k] is the 1-based index in top_ids of the top holding corner k,
    the index TT entries use, so that top's corners are
    start[owner[k] - 1] up to start[owner[k]].  Every reader of one facet
    pass maps a slot to its top through this one list.
    """
    flat, start = corner_layout(c)
    widths = list(map(sub, start[1:], start))
    tops = range(1, len(start))
    owner = list(itertools.chain.from_iterable(map(itertools.repeat, tops, widths)))
    return flat, start, owner, facet_slots(flat, zip(start, widths))


def _manifold_facets(c: Complex, slots: dict) -> Iterator[tuple[int, int]]:
    """The slots (a, b) opposite each facet whose star is exactly two tops,
    in row order, read off the `facet_slots` of c's `corner_facets`.

    This is the one manifold-facet rule, which `glue_pairs` and
    `canonical_pairs` both read; the owner list names the two tops.  Each
    top offers only its own facets, so the two are one dimension above the
    facet.  A facet of a widest top lies in no other top; any other needs
    its star counted.
    """
    widest = c.dim + 1
    for facet, ks in slots.items():
        if type(ks) is not tuple or len(ks) != 2:
            continue
        if len(facet) + 1 < widest and len(c.star(facet)) != 2:
            continue
        yield ks


def canonical_pairs(c: Complex) -> set[frozenset]:
    """Unordered top pairs sharing a facet whose star is exactly that pair.

    These are the gluing instructions that any decomposition in the lattice
    must keep applied; applying all of them to the exploded complex yields
    the standard decomposition.
    """
    tops = c.top_ids
    _, _, owner, slots = corner_facets(c)
    return {
        frozenset((tops[owner[a] - 1], tops[owner[b] - 1])) for a, b in _manifold_facets(c, slots)
    }


def glue_pairs(
    c: Complex,
    flat: list[int],
    start: list[int],
    owner: list[int],
    slots: dict,
    tops: list[int] | None = None,
) -> list[int]:
    """Class of each flat corner of c, glued across every canonical pair,
    from c's `corner_facets`.

    Corners are numbered as in `corner_layout`, and a class is named by its
    smallest corner.  Each class is one vertex of the standard
    decomposition.  Given a union-find parent list over the 1-based top
    indices (entry 0 stays alone), it joins each pair's tops there too,
    which leaves the 0-connected classes of the decomposition: its tops
    share a vertex only through a chain of canonical pairs.  The facet's
    corners in the first top are all its slots but the opposite one, a;
    only their partners in the second top are looked up.
    """
    parent = list(range(len(flat)))
    index = flat.index
    for a, b in _manifold_facets(c, slots):
        i, j = owner[a], owner[b]
        if tops is not None:
            union_min(tops, i, j)
        sj, ej = start[j - 1], start[j]
        for k in range(start[i - 1], start[i]):
            if k != a:
                union_min(parent, k, index(flat[k], sj, ej))
    return flatten(parent)


def _facet_connected(n: int, owner: list[int], slots: dict) -> bool:
    """Are the n tops one class when joined across shared facets, each of
    which has exactly two cofaces?"""
    parent = list(range(n))
    for a, b in (ks for ks in slots.values() if type(ks) is tuple):
        union_min(parent, owner[a] - 1, owner[b] - 1)
    return _class_count(flatten(parent)) <= 1


def _class_count(roots: list[int]) -> int:
    return sum(1 for k, r in enumerate(roots) if k == r)


def twice_chi_misses(
    flat: Sequence[int], lo: int, hi: int, boundary: Iterable[int], n: int
) -> list[int]:
    """Vertices of the tet rows flat[lo:hi] whose link is no sphere or disk
    by count, ascending.

    The rows are 4 wide from lo, hold vertices below n, and boundary yields
    the slots opposite a facet with no second coface.  A vertex a in T
    tets, with E edges and B boundary slots whose facet holds a, has a link
    of E vertices, (3T + B) / 2 edges and T triangles: twice its Euler
    characteristic is 2E - T - B.  If no facet has three cofaces and the
    star of a is an IQM star, the link is a connected pseudo-surface whose
    only singular points are the edges pinched at a, each extra patch of
    which lowers chi by one.  Only the sphere reaches chi = 2, and with
    boundary only the disk reaches chi = 1.  So a is missed unless
    2E - T - B is 4 with B = 0, or 2 with B > 0.

    Each edge a < b is counted once as the int a * n + b, which the
    collector does not track as it would a tuple.
    """
    seq = flat[lo:hi]
    tets, bnd, deg = [0] * n, [0] * n, [0] * n
    for x in seq:
        tets[x] += 1
    edges: set[int] = set()
    for a, b, c, d in map(sorted, zip(*[iter(seq)] * 4)):  # the rows, 4 at a time
        an, bn, cn = a * n, b * n, c * n
        edges.update((an + b, an + c, an + d, bn + c, bn + d, cn + d))
    for e in edges:  # each edge once
        deg[e // n] += 1
        deg[e % n] += 1
    for k in boundary:
        base = k - (k - lo) % 4
        for x in flat[base : base + 4]:
            bnd[x] += 1
        bnd[flat[k]] -= 1  # the facet opposite k holds the other three
    return [
        x
        for x in range(n)
        if tets[x] and 2 * deg[x] - tets[x] - bnd[x] != (2 if bnd[x] else 4)
    ]


# -- .tv file format ---------------------------------------------------------

# One match accepts a line: blank, a comment, or a simplex with its id and
# every token; a line holds no line break, so \s stays within it.
_TV_LINE_RE = re.compile(
    r"\s*(?:simplex\s+([0-9]+)\s*:\s*([A-Za-z0-9_][\sA-Za-z0-9_]*))?(?:#.*)?"
)
# the per-line rules, which name the fault of a line
_LINE_RE = re.compile(r"^simplex\s+([0-9]+)\s*:\s*(.*)$")
_TOKEN_RE = re.compile(r"^[A-Za-z0-9_]+$")


def parse_tv(text: str) -> Complex:
    """Parse the `simplex <id>: <tok> ...` format.

    If every token in the file is a decimal number, tokens are taken as the
    vertex ids themselves; otherwise tokens map to 1..NV in lexicographic
    order, so ids are reproducible.  A vertex keeps its token as a label
    only where the token differs from str() of its id, so a file of
    canonical numerals keeps none.  Raises ParseError for a file with no
    simplices, for two tokens, such as "01" and "1", naming one vertex, and
    at the line of a stored simplex that is a face of another.

    It writes `Complex`'s store directly.  One match of `_TV_LINE_RE`
    accepts each line and yields its id and token text; the row widths
    come from splitting each row's text, and every token is mapped to its
    vertex in one pass over the file's token list, which no per-row
    object outlives.  The numeral check compares the distinct tokens, and
    `_row_store` checks the rows and sorts them by id.  Only when a line,
    a repeated id, a repeated token or two numerals fail does
    `_first_fault` run the per-line rules, to raise the fault of the first
    line that breaks one.
    """
    numerals: list[str] = []  # the id of each simplex line
    bodies: list[str] = []  # and its tokens
    for m in map(_TV_LINE_RE.fullmatch, text.splitlines()):
        if m is None:
            raise _first_fault(text)
        if m[1]:
            numerals.append(m[1])
            bodies.append(m[2])
    if not numerals:
        raise ParseError("no simplices")
    ids = list(map(int, numerals))
    start = list(itertools.accumulate(map(len, map(str.split, bodies)), initial=0))
    tokens = " ".join(bodies).split()
    # the texts, and the tokens below, are freed before the store is built:
    # held to the end they raise the parse's memory peak by about 70 %
    del numerals, bodies
    vocab = set(tokens)
    if all(map(str.isdigit, vocab)):
        to_id = {t: int(t) for t in vocab}
        if len(set(to_id.values())) < len(to_id):  # two numerals name one vertex
            raise _first_fault(text)
    else:
        to_id = {t: i for i, t in enumerate(sorted(vocab), start=1)}
    flat = list(map(to_id.__getitem__, tokens))
    del tokens, vocab
    labels = {v: t for t, v in to_id.items() if t != str(v)}
    sets = [frozenset(flat[s:e]) for s, e in zip(start, start[1:])]
    try:
        store = _row_store(ids, ids, flat, start, sets, True)
    except InvalidComplex:  # a repeated id, or a token repeated in one simplex
        raise _first_fault(text) from None
    except NotTop as exc:
        found = enumerate(map(_TV_LINE_RE.fullmatch, text.splitlines()), start=1)
        line_no = next(no for no, m in found if m[1] and int(m[1]) == exc.top)
        raise ParseError(str(exc), line_no) from exc
    return Complex.__new__(Complex)._set(*store, labels)


def _first_fault(text: str) -> ParseError:
    """The ParseError of the first line that breaks a per-line rule, else
    of the first token that names the vertex of an earlier, other numeral.

    `parse_tv` calls it once it has found such a fault, so it names one.
    """
    seen_ids: set[int] = set()
    raw: list[tuple[int, list[str]]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        m = _LINE_RE.match(stripped)
        if not m:
            return ParseError(f"expected 'simplex <id>: <tok> ...', got {line!r}", line_no)
        tid = int(m.group(1))
        if tid in seen_ids:
            return ParseError(f"duplicate simplex id {tid}", line_no)
        seen_ids.add(tid)
        toks = m.group(2).split()
        if not toks:
            return ParseError("simplex with no vertices", line_no)
        for tok in toks:
            if not _TOKEN_RE.match(tok):
                return ParseError(f"bad vertex token {tok!r}", line_no)
        if len(set(toks)) != len(toks):
            return ParseError("repeated vertex token in one simplex", line_no)
        raw.append((line_no, toks))
    first: dict[int, str] = {}
    for line_no, toks in raw:
        for tok in toks:
            other = first.setdefault(int(tok), tok)
            if other != tok:
                message = f"tokens {other!r} and {tok!r} both name vertex {int(tok)}"
                return ParseError(message, line_no)
    raise AssertionError("parse_tv found a fault that no .tv rule names")


def format_tv(c: Complex) -> str:
    """The .tv text that `parse_tv` reads back as c, in labels.  Raises
    InvalidComplex on no tops, or at the first id or label, in line order, that
    it cannot write: a negative id, a label that is no [A-Za-z0-9_]+ token, or
    one read as another vertex's (by number, in a file of numerals)."""
    if not c.top_ids:
        raise InvalidComplex("a .tv file holds at least one simplex")
    if c.top_ids[0] < 0:
        raise InvalidComplex(f"top id {c.top_ids[0]} is negative")
    labels = {v: c.label_of(v) for v in c._vertex_ids()}  # in line order
    numerals = all(map(str.isdigit, labels.values()))
    seen: dict = {}  # what parse_tv reads a label as -> its first vertex
    for v, label in labels.items():
        if not _TOKEN_RE.fullmatch(label):
            raise InvalidComplex(f"vertex label {label!r} is not a .tv token")
        if (other := seen.setdefault(int(label) if numerals else label, v)) != v:
            raise InvalidComplex(f"vertex label {label!r} of vertex {v} reads as vertex {other}")
    lines = [
        f"simplex {tid}: " + " ".join(map(labels.__getitem__, row))
        for tid, row in zip(c.top_ids, c._rows())
    ]
    return "\n".join(lines) + "\n"


def token_map(c: Complex) -> dict[str, int]:
    """Label -> vertex id, for CLI argument resolution."""
    return {c.label_of(v): v for v in c.vertices}


def resolve_tokens(c: Complex, toks: Sequence[str]) -> Simplex:
    table = token_map(c)
    out = []
    for tok in toks:
        if tok not in table:
            raise UnknownToken(f"unknown vertex token {tok!r}")
        out.append(table[tok])
    return simplex(out)
