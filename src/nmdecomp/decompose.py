"""Standard decomposition into initial quasi-manifold components.

`complexes.glue_pairs` explodes the input into flat integer corners,
one per slot of each top, and glues them back across every manifold facet
pair: two tops sharing a facet that no other top contains.  Here each
corner class becomes one vertex of the decomposition, which is the unique
most-split one that cuts only along non-manifold simplices.  One pass over
the tops' own facets finds the pairs, and the pair loop runs list-based
union-finds over the corner ids and over the top indices at once, which
give the classes and the components, so the work is linear in the size of
the input, up to sorting.  `Complex.classify` counts the same corner
classes for its `iqm` flag, so every component is an initial
quasi-manifold by construction.

A component is no complex of its own but a run of nabla's tops
(`Component`): its dimension and its ascending top ids, as the winged
tables store it.  The union-find classes come out as top indices, and
each class's dimension is its widest row in nabla's offsets, less one, so
packaging the result copies no rows and no labels.  A component becomes
a complex, `nabla.subcomplex(comp.top_ids)`, only where it is written
(`nmdecomp decompose --outdir`).

The same facet pass gives the TT relation of the decomposition
(`DecompositionResult.tt`, see `facet_neighbours`): its facets are the
source's facets with their cofaces grouped by the copies they hold, so
`winged.Ewds.build` only repacks it.  Only `decompose` sets it, and the
encoders take only results that carry it: one made by `from_parts`, as
`oracle.oracle_decompose` and the gluing lab make theirs, has none.

Per source vertex, copies are ordered by link dimension, then smallest
star top.  The first keeps the original id, so sigma is the identity on
non-splitting vertices; the others take fresh ids above the input's
maximum.  `oracle.oracle_decompose` reaches the same result by recursive
link splitting.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from operator import sub
from typing import NamedTuple, Sequence

from .complexes import Complex, corner_facets, corner_layout, glue_pairs
from .errors import InvalidComplex
from .unionfind import classes, flatten

BOTTOM = 0    # facet on the boundary
DIAMOND = -1  # facet with three or more cofaces


class Component(NamedTuple):
    """One component of a decomposition: a run of nabla's tops.

    Records sort by dimension, then smallest top, the order of
    `DecompositionResult.components`, since components share no top."""

    dim: int
    top_ids: list[int]  # ascending


@dataclass(frozen=True)
class DecompositionResult:
    """The decomposition complex, its components as runs of nabla's tops,
    and the copy map."""

    source: Complex
    nabla: Complex
    components: list[Component]
    sigma: dict[int, int]          # copy id -> original id, total
    cc: list[int] = field(default_factory=list)  # components per dimension
    # nabla's TT relation, one entry per flat corner of nabla in
    # `corner_layout` order (see `facet_neighbours`), which
    # `winged.Ewds.build` repacks into TTP.  Set by decompose alone, whose
    # components are IQMs by construction, so it is also the mark that
    # `Ewds.build` asks for.  No constructor or `dataclasses.replace` can
    # set it, and a replace of a decompose result starts over at None.
    tt: array | None = field(default=None, init=False, compare=False, repr=False)

    @classmethod
    def from_parts(
        cls, source: Complex, nabla: Complex, sigma: dict[int, int]
    ) -> "DecompositionResult":
        """Package a decomposition, deriving its components and cc.

        Components are the 0-connected classes of nabla
        (`Complex.h_connected_components(0)`), taken to top indices and
        packaged by `_assemble`, as `decompose` packages its own.  The
        result has no TT relation, so no encoder takes it.  Raises
        InvalidComplex, as `decompose` does, on an empty source, and unless
        sigma is a dict defined on exactly nabla's vertices and maps each
        nabla row, slot by slot, onto the source row of the same top id.
        """
        if source.num_tops == 0:
            raise InvalidComplex("cannot decompose an empty complex")
        if not isinstance(sigma, dict):
            raise InvalidComplex(f"sigma is a {type(sigma).__name__}, not a dict")
        flat, start = corner_layout(nabla)
        try:
            image = list(map(sigma.__getitem__, flat))
        except (KeyError, TypeError):
            raise InvalidComplex("sigma is not defined on every vertex of nabla") from None
        if len(sigma) != nabla.num_vertices:
            raise InvalidComplex("sigma names a vertex that nabla does not hold")
        if [nabla.top_ids, start, image] != [source.top_ids, *corner_layout(source)[::-1]]:
            raise InvalidComplex("sigma does not map nabla's rows onto the source's, top by top")
        groups = [list(map(nabla.position, g)) for g in nabla.h_connected_components(0)]
        return _assemble(source, nabla, sigma, groups)

    # -- sigma views -------------------------------------------------------

    def splitting_classes(self) -> dict[int, tuple[int, ...]]:
        """original -> its copies, ascending, for the vertices that split."""
        inv: dict[int, list[int]] = {}
        for copy, orig in self.sigma.items():
            inv.setdefault(orig, []).append(copy)
        return {v: tuple(sorted(cs)) for v, cs in inv.items() if len(cs) > 1}

    @property
    def splitting_vertices(self) -> list[int]:
        return sorted(self.splitting_classes())

    @property
    def ns(self) -> int:
        """Number of splitting vertices."""
        return len(self.splitting_classes())

    @property
    def nc(self) -> int:
        """Total number of copies of splitting vertices (originals included)."""
        return sum(len(cs) for cs in self.splitting_classes().values())

    def is_identity(self) -> bool:
        return all(copy == orig for copy, orig in self.sigma.items())


def copy_label(original_label: str, copy_id: int, copy_index: int) -> str:
    """Display token for a vertex copy: numeric sources stay numeric."""
    if original_label.isdigit():
        return str(copy_id)
    return f"{original_label}_{copy_index}"


def _assemble(
    source: Complex,
    nabla: Complex,
    sigma: dict[int, int],
    groups: list[list[int]],
) -> DecompositionResult:
    """The result whose components are the given classes of nabla's tops,
    each a list of ascending indices into nabla's top_ids: one `Component`
    each, of its widest row's dimension, listed by dimension, then
    smallest top.  No complex is built and nothing is checked again."""
    ids, start = nabla.top_ids, corner_layout(nabla)[1]
    components = []
    for g in groups:
        if len(g) == 1:  # as most classes of small inputs are: no comprehension
            (i,) = g
            components.append(Component(start[i + 1] - start[i] - 1, [ids[i]]))
        else:
            w = max([start[i + 1] - start[i] for i in g])
            components.append(Component(w - 1, [ids[i] for i in g]))
    components.sort()
    cc = [0] * (nabla.dim + 1)
    for comp in components:
        cc[comp.dim] += 1
    return DecompositionResult(source, nabla, components, dict(sigma), cc)


def facet_neighbours(
    vertex: Sequence[int], start: list[int], owner: list[int], slots: dict
) -> array:
    """The TT relation of a decomposition on the flat corners of its tops.

    start, owner and slots are the `complexes.corner_facets` of rows with
    the tops and slots of the decomposition's rows, and vertex names the
    vertex of each corner in the decomposition: two corners share a name
    exactly when they are one vertex there.  Each entry is the top across
    the facet opposite its corner, by its 1-based index as in owner, or
    BOTTOM on the boundary, or DIAMOND.  A decomposition's facets are the
    rows' facets with their cofaces grouped by the vertices of the facet:
    a group of one is BOTTOM, of two a pair, and of three or more DIAMOND.
    The two cofaces of a facet of a widest row share it in the
    decomposition, since `decompose` glues that canonical pair, so they
    pair with no per-vertex work.
    """
    widest = max(map(sub, start[1:], start), default=0)
    tt = array("i", bytes(4 * len(vertex)))
    for facet, ks in slots.items():
        if type(ks) is int:
            continue
        if len(ks) == 2 and len(facet) + 1 == widest:
            a, b = ks
            tt[a], tt[b] = owner[b], owner[a]
            continue
        groups: dict[frozenset, list[int]] = {}
        for k in ks:
            i = owner[k]
            key = frozenset(vertex[start[i - 1] : k] + vertex[k + 1 : start[i]])
            groups.setdefault(key, []).append(k)
        for group in groups.values():
            if len(group) == 2:
                a, b = group
                tt[a], tt[b] = owner[b], owner[a]
            elif len(group) > 2:
                for k in group:
                    tt[k] = DIAMOND
    return tt


def _number_classes(source: Complex, root: list[int]) -> tuple[Complex, dict[int, int]]:
    """nabla and sigma of the decomposition with the given corner classes.

    root names the class of each flat corner of source (see
    `complexes.corner_layout`) by the class's smallest corner, so a class
    is first met in its smallest top.  Each class becomes one vertex.  Per
    source vertex, ascending, the classes are ordered by link dimension,
    then smallest top: the first keeps the vertex's id and label, the
    others take fresh ids in turn, and copy labels skip tokens in use, such
    as an input's "a_2".  nabla shares source's top ids and row offsets,
    and its rows are not checked again.
    """
    flat, start = corner_layout(source)
    width = [0] * len(root)  # class -> widest top holding it
    by_vertex: dict[int, list[int]] = {}  # vertex -> its classes, by smallest top
    for s, e in zip(start, start[1:]):
        for k in range(s, e):
            r = root[k]
            if r == k:
                by_vertex.setdefault(flat[k], []).append(r)
            if e - s > width[r]:
                width[r] = e - s

    # only a source that stores labels gives copies labels to keep: a
    # numeric copy's label, str() of its fresh id, clashes with no other
    labels = {v: source.label_of(v) for v in by_vertex} if source.labelled else None
    used = set(labels.values()) if labels else set()
    sigma: dict[int, int] = {}
    copy_of = [0] * len(root)  # class -> vertex id in the decomposition
    next_id = max(by_vertex) + 1
    for v in sorted(by_vertex):
        # a class's top width is its link dimension plus two
        group = by_vertex[v]
        if len(group) > 1:
            group.sort(key=width.__getitem__)  # stable: smallest top breaks ties
        for n, r in enumerate(group, start=1):
            if n == 1:
                vid = v
            else:
                vid = next_id
                next_id += 1
                if labels is not None:
                    label, k = copy_label(labels[v], vid, n), n
                    while label in used:
                        k += 1
                        label = f"{labels[v]}_{k}"
                    labels[vid] = label
                    used.add(label)
            sigma[vid] = v
            copy_of[r] = vid
    own = labels and {v: t for v, t in labels.items() if t != str(v)}
    return source.with_corners([copy_of[r] for r in root], own), sigma


def decomposition_from_corners(
    source: Complex, root: list[int]
) -> DecompositionResult:
    """The decomposition whose vertices are the given corner classes of
    source (see `_number_classes`), packaged by `from_parts`."""
    return DecompositionResult.from_parts(source, *_number_classes(source, root))


def _standard_gluing(c: Complex) -> tuple[list[int], list[int], array]:
    """From one facet pass over c: the class of each flat corner, the
    flattened union-find over top indices that the pair loop joins, and
    the TT relation, read off the facet table with the corner classes as
    the vertices.  The table is freed on return."""
    flat, start, owner, slots = corner_facets(c)
    tops = list(range(c.num_tops + 1))  # by 1-based top index
    root = glue_pairs(c, flat, start, owner, slots, tops)
    return root, flatten(tops)[1:], facet_neighbours(root, start, owner, slots)


def decompose(c: Complex) -> DecompositionResult:
    """Standard decomposition of a non-empty complex.

    One facet pass serves it all: the pair loop glues corners and joins
    tops, and the same table gives nabla's TT relation.
    """
    if c.num_tops == 0:
        raise InvalidComplex("cannot decompose an empty complex")
    root, tops, tt = _standard_gluing(c)
    nabla, sigma = _number_classes(c, root)
    dec = _assemble(c, nabla, sigma, classes(tops, range(len(tops))))
    object.__setattr__(dec, "tt", tt)  # the mark, past the frozen dataclass
    return dec
