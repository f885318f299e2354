"""Abstract simplicial complexes stored as the TV relation.

A complex is a finite map from top-simplex ids to their vertex tuples.  Only
maximal simplices are stored; every face query is answered by enumeration
from the tops.  Rows keep the order in which their vertices were given (the
winged tables inherit that order), while query arguments and results use
sorted vertex tuples.

Vertex ids are positive integers.  Files may label vertices with arbitrary
alphanumeric tokens; the token table is kept so output can speak the file's
labels.

The manifold-facet rule lives here too, on flat integer corners: corner
start[i] + k is slot k of the i-th top in top_ids order (`corner_layout`).
`facet_slots` maps every facet to the slots opposite it in its cofaces;
`canonical_pairs` keeps the facets that no other top contains, and
`glued_corners` merges the corners of each such pair in a union-find
parent array.  `decompose` turns those corner classes into vertices, and
`Complex.is_iqm` asks for exactly one class per vertex, so both read the
same rule.  `winged.Ewds.fill_tt` calls `facet_slots` on its packed blocks.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    DimensionUnsupported,
    InvalidComplex,
    NotAFace,
    NotRegular,
    NotTop,
    ParseError,
    UnknownToken,
    UnknownTop,
)
from .unionfind import flatten, union_min

Simplex = tuple  # sorted duplicate-free tuple of vertex ids


def simplex(verts: Iterable[int]) -> Simplex:
    """Normalize an iterable of vertex ids into a sorted duplicate-free tuple."""
    return tuple(sorted(set(verts)))


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
    """Immutable simplicial complex over the TV relation."""

    __slots__ = ("_tv", "_labels", "_vt", "_dim")

    def __init__(
        self,
        tv: Mapping[int, Sequence[int]],
        labels: Mapping[int, str] | None = None,
        validate: bool = True,
    ):
        store: dict[int, tuple[int, ...]] = {}
        for tid, row in tv.items():
            row = tuple(row)
            if not row:
                raise InvalidComplex(f"empty simplex for id {tid}")
            if len(set(row)) != len(row):
                raise InvalidComplex(f"repeated vertex in simplex {tid}")
            store[int(tid)] = row
        self._tv = store
        self._labels = dict(labels) if labels else None
        self._vt: dict[int, set[int]] | None = None
        self._dim: int | None = None
        if validate:
            self._check_maximality()

    # -- construction ------------------------------------------------------

    def _check_maximality(self) -> None:
        vt = self._vertex_tops()
        for tid, row in self._tv.items():
            cofaces = set.intersection(*(vt[v] for v in row)) if row else set()
            if len(cofaces) > 1:
                other = min(t for t in cofaces if t != tid)
                raise NotTop(
                    f"stored simplex {tid} is a face of stored simplex {other}", tid
                )

    # -- basic accessors ---------------------------------------------------

    @property
    def top_ids(self) -> list[int]:
        return sorted(self._tv)

    @property
    def num_tops(self) -> int:
        return len(self._tv)

    def __len__(self) -> int:
        return len(self._tv)

    def __contains__(self, tid: int) -> bool:
        return tid in self._tv

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._tv))

    def row(self, tid: int) -> tuple[int, ...]:
        """Vertex tuple of a top simplex, in input order."""
        try:
            return self._tv[tid]
        except KeyError:
            raise UnknownTop(f"no top simplex {tid}") from None

    def simplex_of(self, tid: int) -> Simplex:
        return tuple(sorted(self.row(tid)))

    def dim_of(self, tid: int) -> int:
        return len(self.row(tid)) - 1

    @property
    def dim(self) -> int:
        if self._dim is None:
            self._dim = max((len(r) - 1 for r in self._tv.values()), default=-1)
        return self._dim

    @property
    def vertices(self) -> list[int]:
        return sorted(self._vertex_tops())

    @property
    def num_vertices(self) -> int:
        return len(self._vertex_tops())

    def label_of(self, v: int) -> str:
        if self._labels and v in self._labels:
            return self._labels[v]
        return str(v)

    @property
    def labels(self) -> dict[int, str]:
        return {v: self.label_of(v) for v in self._vertex_tops()}

    def _vertex_tops(self) -> dict[int, set[int]]:
        if self._vt is None:
            vt: dict[int, set[int]] = {}
            for tid, row in self._tv.items():
                for v in row:
                    vt.setdefault(v, set()).add(tid)
            self._vt = vt
        return self._vt

    def tops_of_vertex(self, v: int) -> set[int]:
        return set(self._vertex_tops().get(v, ()))

    # -- stars, links, orders ----------------------------------------------

    def star(self, gamma: Iterable[int]) -> set[int]:
        """Ids of the top simplices containing gamma (empty set allowed)."""
        gamma = tuple(gamma)
        if not gamma:
            raise ValueError("star of the empty simplex is not defined")
        vt = self._vertex_tops()
        try:
            sets = [vt[v] for v in gamma]
        except KeyError:
            return set()
        return set.intersection(*sets)

    def link_complex(self, gamma: Iterable[int]) -> "Complex":
        """The link as a complex whose top ids are the star's top ids.

        Keying link tops by the star top they came from lets a caller map
        link components back onto partitions of the star.
        """
        gamma = simplex(gamma)
        st = self.star(gamma)
        if not st:
            raise NotAFace(f"{list(gamma)} is not a face of any top simplex")
        gset = set(gamma)
        rows = {}
        for t in st:
            rest = tuple(v for v in self._tv[t] if v not in gset)
            if rest:
                rows[t] = rest
        return Complex(rows, labels=self._labels, validate=False)

    def order_of(self, gamma: Iterable[int]) -> int:
        """Number of top cofaces; 0 for a non-face."""
        return len(self.star(gamma))

    # -- face enumeration --------------------------------------------------

    def faces_of_dim(self, m: int) -> set[Simplex]:
        """All m-faces, deduplicated across tops."""
        out: set[Simplex] = set()
        for row in self._tv.values():
            srt = sorted(row)
            if len(srt) >= m + 1:
                out.update(itertools.combinations(srt, m + 1))
        return out

    def all_faces(self) -> set[Simplex]:
        out: set[Simplex] = set()
        for row in self._tv.values():
            srt = sorted(row)
            for k in range(1, len(srt) + 1):
                out.update(itertools.combinations(srt, k))
        return out

    def face_counts(self) -> list[int]:
        """f-vector: counts of k-simplices for k = 0..d."""
        counts = [0] * (self.dim + 1)
        for f in self.all_faces():
            counts[len(f) - 1] += 1
        return counts

    # -- connectivity ------------------------------------------------------

    def h_connected_components(self, h: int) -> list[list[int]]:
        """Partition of top ids by chains of shared h-faces.

        A list union-find over the indices of `top_ids` joins each top to
        the first top holding each of its h-faces; for h = 0 the key is the
        vertex itself.  Classes come out sorted, ordered by their smallest
        top.  Tops of dimension < h hold no h-face, so they sit in singleton
        classes.
        """
        if h < 0:
            raise ValueError("h must be >= 0")
        tops = self.top_ids
        parent = list(range(len(tops)))
        first: dict = {}  # h-face -> index of the first top holding it
        for i, t in enumerate(tops):
            row = self._tv[t]
            for face in row if h == 0 else itertools.combinations(sorted(row), h + 1):
                j = first.setdefault(face, i)
                if j != i:
                    union_min(parent, i, j)
        by_root: dict[int, list[int]] = {}
        for i, r in enumerate(flatten(parent)):
            by_root.setdefault(r, []).append(tops[i])
        return list(by_root.values())

    def is_connected(self) -> bool:
        return len(self.h_connected_components(0)) <= 1

    # -- classification ----------------------------------------------------

    def is_regular(self) -> bool:
        d = self.dim
        return all(len(r) == d + 1 for r in self._tv.values())

    def classify(self) -> ClassifyFlags:
        regular = self.is_regular()
        d = self.dim
        pseudo = regular and self._is_pseudomanifold(d)
        iqm = self.is_iqm()
        # every facet of a pseudomanifold is a manifold facet, so its vertex
        # stars are connected across facets exactly when they are IQM stars
        quasi = pseudo and iqm
        try:
            manifold = self.is_manifold()
        except DimensionUnsupported:
            manifold = None
        return ClassifyFlags(regular, pseudo, quasi, iqm, manifold)

    def is_iqm(self) -> bool:
        """Regular, with every vertex star connected across manifold facets.

        That is, gluing the exploded corners across manifold facet pairs
        leaves exactly one corner class per vertex.
        """
        if not self.is_regular():
            return False
        roots = glued_corners(self)
        classes = sum(1 for k, r in enumerate(roots) if k == r)
        return classes == self.num_vertices

    def _is_pseudomanifold(self, d: int) -> bool:
        if d >= 1:
            for face, tids in self._facet_orders(d - 1).items():
                if len(tids) > 2:
                    return False
            if len(self.h_connected_components(d - 1)) > 1:
                return False
        return True

    def _facet_orders(self, h: int) -> dict[Simplex, list[int]]:
        by_face: dict[Simplex, list[int]] = {}
        for tid, row in self._tv.items():
            srt = sorted(row)
            if len(srt) >= h + 1:
                for face in itertools.combinations(srt, h + 1):
                    by_face.setdefault(face, []).append(tid)
        return by_face

    def non_pseudomanifold_faces(self) -> dict[Simplex, list[int]]:
        """(d-1)-faces of order > 2 with their sorted coface lists."""
        d = self.dim
        if d < 1:
            return {}
        return {
            f: sorted(ts)
            for f, ts in self._facet_orders(d - 1).items()
            if len(ts) > 2
        }

    def is_manifold(self) -> bool:
        """Combinatorial-manifold test, defined for d <= 3 only."""
        d = self.dim
        if d > 3:
            raise DimensionUnsupported(
                "manifold recognition not attempted for d > 3"
            )
        if not self.is_regular():
            return False
        if d <= 0:
            return True
        for v in self._vertex_tops():
            lk = self.link_complex((v,))
            if d == 1:
                if lk.num_tops > 2:
                    return False
            elif d == 2:
                if not _is_path_or_cycle(lk):
                    return False
            else:
                if _surface_type(lk) not in ("sphere", "disk"):
                    return False
        return True

    # -- boundary and Euler ------------------------------------------------

    def boundary(self) -> set[Simplex]:
        """(d-1)-faces with exactly one top coface."""
        if not self.is_regular():
            raise NotRegular("boundary is defined for regular complexes")
        d = self.dim
        if d == 0:
            return set()
        return {
            f for f, ts in self._facet_orders(d - 1).items() if len(ts) == 1
        }

    def euler_all_faces(self) -> int:
        """Alternating face-count sum, no closedness requirement."""
        return sum((-1) ** k * n for k, n in enumerate(self.face_counts()))

    # -- misc --------------------------------------------------------------

    def subcomplex(self, top_ids: Iterable[int]) -> "Complex":
        """The given tops, with the labels of their own vertices only."""
        rows = {t: self._tv[t] for t in top_ids}
        labels = self._labels
        if labels:
            labels = {v: labels[v] for r in rows.values() for v in r if v in labels}
        return Complex(rows, labels=labels, validate=False)

    def rows(self) -> dict[int, tuple[int, ...]]:
        return dict(self._tv)

    def simplex_set(self) -> set[Simplex]:
        return {tuple(sorted(r)) for r in self._tv.values()}

    def __eq__(self, other) -> bool:
        return isinstance(other, Complex) and self._tv == other._tv

    def __hash__(self):
        return hash(frozenset((t, frozenset(r)) for t, r in self._tv.items()))

    def __repr__(self) -> str:
        return f"Complex({self.num_tops} tops, d={self.dim})"


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
    """
    out: dict[Simplex, int | tuple[int, ...]] = {}
    setdefault = out.setdefault
    vertex = flat.__getitem__
    for base, w in rows:
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
    """The flat corners of c and where each top's corners start.

    Corner start[i] + k is slot k of the i-th top in top_ids order, and
    flat holds its vertex; start has a final entry, the corner count.
    """
    flat: list[int] = []
    start = [0]
    for t in c.top_ids:
        flat.extend(c.row(t))
        start.append(len(flat))
    return flat, start


def _manifold_facets(
    c: Complex, flat: list[int], start: list[int]
) -> Iterator[tuple[Simplex, int, int]]:
    """Each facet whose star is exactly two tops, with those tops' indices.

    Indices count in top_ids order, over c's `corner_layout`.  Each top
    offers only its own facets, so the two are one dimension above the
    facet.  A facet of a widest top lies in no other top; any other needs
    its star counted.
    """
    widths = (b - a for a, b in zip(start, start[1:]))
    widest = c.dim + 1
    for facet, slots in facet_slots(flat, zip(start, widths)).items():
        if type(slots) is not tuple or len(slots) != 2:
            continue
        if len(facet) + 1 < widest and len(c.star(facet)) != 2:
            continue
        a, b = slots
        yield facet, bisect_right(start, a) - 1, bisect_right(start, b) - 1


def canonical_pairs(c: Complex) -> set[frozenset]:
    """Unordered top pairs sharing a facet whose star is exactly that pair.

    These are the gluing instructions that any decomposition in the lattice
    must keep applied; applying all of them to the exploded complex yields
    the standard decomposition.
    """
    tops = c.top_ids
    return {
        frozenset((tops[i], tops[j]))
        for _, i, j in _manifold_facets(c, *corner_layout(c))
    }


def glued_corners(c: Complex) -> list[int]:
    """Class of each flat corner of c, glued across every canonical pair.

    Corners are numbered as in `corner_layout`, and a class is named by its
    smallest corner.  Each class is one vertex of the standard
    decomposition, and c is an initial quasi-manifold when it is regular
    with one class per vertex.
    """
    flat, start = corner_layout(c)
    parent = list(range(len(flat)))
    index = flat.index
    for facet, i, j in _manifold_facets(c, flat, start):
        si, sj = start[i], start[j]
        ei, ej = start[i + 1], start[j + 1]
        for v in facet:
            union_min(parent, index(v, si, ei), index(v, sj, ej))
    return flatten(parent)


# -- 1- and 2-complex helpers for the link classifiers ----------------------


def _is_path_or_cycle(lk: Complex) -> bool:
    """True when a 1-complex is a single simple path or cycle."""
    if lk.dim != 1 or not lk.is_regular():
        return False
    degree: dict[int, int] = {}
    for tid in lk.top_ids:
        for v in lk.row(tid):
            degree[v] = degree.get(v, 0) + 1
    if any(deg > 2 for deg in degree.values()):
        return False
    return lk.is_connected()


def _boundary_cycles(surface: Complex) -> int | None:
    """Number of boundary cycles of a 2-complex, None if not disjoint cycles."""
    bd = {f for f, ts in surface._facet_orders(1).items() if len(ts) == 1}
    if not bd:
        return 0
    degree: dict[int, int] = {}
    for (a, b) in bd:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    if any(deg != 2 for deg in degree.values()):
        return None
    return len(Complex(dict(enumerate(bd)), validate=False).h_connected_components(0))


def _is_orientable(surface: Complex) -> bool:
    """Orientation propagation across order-2 edges of a 2-complex."""
    by_edge: dict[Simplex, list[int]] = surface._facet_orders(1)
    orient: dict[int, int] = {}
    for seed in surface.top_ids:
        if seed in orient:
            continue
        orient[seed] = 1
        stack = [seed]
        while stack:
            t = stack.pop()
            tri = surface.simplex_of(t)
            for edge in itertools.combinations(tri, 2):
                cofs = by_edge.get(edge, [])
                if len(cofs) != 2:
                    continue
                other = cofs[0] if cofs[1] == t else cofs[1]
                # consistent orientation: the shared edge must be traversed
                # in opposite directions by the two triangles
                need = -orient[t] * _edge_sign(tri, edge) * _edge_sign(
                    surface.simplex_of(other), edge
                )
                if other in orient:
                    if orient[other] != need:
                        return False
                else:
                    orient[other] = need
                    stack.append(other)
    return True


def _edge_sign(tri: Simplex, edge: Simplex) -> int:
    """+1 if the sorted triangle's reference cycle traverses edge low-to-high."""
    a, b, c = tri
    u, v = edge
    # reference cycle a -> b -> c -> a
    if (u, v) in ((a, b), (b, c)):
        return 1
    return -1  # the (a, c) edge is traversed c -> a


def _surface_type(lk: Complex) -> str:
    """Classify a link 2-complex as 'sphere', 'disk', or 'other'."""
    if lk.dim != 2 or not lk.is_regular():
        return "other"
    orders = lk._facet_orders(1)
    if any(len(ts) > 2 for ts in orders.values()):
        return "other"
    if not lk.is_connected():
        return "other"
    chi = lk.euler_all_faces()
    cycles = _boundary_cycles(lk)
    if cycles == 0:
        return "sphere" if chi == 2 else "other"
    if cycles == 1 and chi == 1 and _is_orientable(lk):
        return "disk"
    return "other"


# -- .tv file format ---------------------------------------------------------

_TOKEN_RE = re.compile(r"^[A-Za-z0-9_]+$")
_LINE_RE = re.compile(r"^simplex\s+(\d+)\s*:\s*(.*)$")


def parse_tv(text: str) -> Complex:
    """Parse the `simplex <id>: <tok> ...` format.

    If every token in the file is a decimal number, tokens are taken as the
    vertex ids themselves; otherwise tokens map to 1..NV in lexicographic
    order, so ids are reproducible.  Raises ParseError for a file with no
    simplices, for two tokens, such as "01" and "1", naming one vertex, and
    at the line of a stored simplex that is a face of another.
    """
    raw: list[tuple[int, int, list[str]]] = []
    seen_ids: set[int] = set()
    tokens: set[str] = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        m = _LINE_RE.match(stripped)
        if not m:
            raise ParseError(f"expected 'simplex <id>: <tok> ...', got {line!r}", line_no)
        tid = int(m.group(1))
        if tid in seen_ids:
            raise ParseError(f"duplicate simplex id {tid}", line_no)
        seen_ids.add(tid)
        toks = m.group(2).split()
        if not toks:
            raise ParseError("simplex with no vertices", line_no)
        for tok in toks:
            if not _TOKEN_RE.match(tok):
                raise ParseError(f"bad vertex token {tok!r}", line_no)
        if len(set(toks)) != len(toks):
            raise ParseError("repeated vertex token in one simplex", line_no)
        tokens.update(toks)
        raw.append((line_no, tid, toks))

    if not raw:
        raise ParseError("no simplices")
    if all(t.isdigit() for t in tokens):
        to_id = {t: int(t) for t in tokens}
        first: dict[int, str] = {}
        for line_no, _, toks in raw:
            for tok in toks:
                other = first.setdefault(to_id[tok], tok)
                if other != tok:
                    raise ParseError(
                        f"tokens {other!r} and {tok!r} both name vertex {to_id[tok]}",
                        line_no,
                    )
    else:
        to_id = {t: i for i, t in enumerate(sorted(tokens), start=1)}
    labels = {i: t for t, i in to_id.items()}

    rows = {tid: tuple(to_id[t] for t in toks) for _, tid, toks in raw}
    try:
        return Complex(rows, labels=labels)
    except NotTop as exc:
        line_no = next(no for no, tid, _ in raw if tid == exc.top)
        raise ParseError(str(exc), line_no) from exc


def format_tv(c: Complex) -> str:
    lines = [
        f"simplex {tid}: " + " ".join(c.label_of(v) for v in c.row(tid))
        for tid in c.top_ids
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
