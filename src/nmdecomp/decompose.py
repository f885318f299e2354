"""Standard decomposition into initial quasi-manifold components.

The input is exploded into (top, vertex) corners, and corners are glued
back across every manifold facet pair: two tops sharing a facet that no
other top contains.  Each corner class then becomes one vertex of the
decomposition, which is the unique most-split one that cuts only along
non-manifold simplices.  One pass over the tops' own facets finds the
pairs, so the work is linear in the size of the input, up to sorting.

Per source vertex, copies are ordered by link dimension, then smallest
star top.  The first keeps the original id, so sigma is the identity on
non-splitting vertices; the others take fresh ids above the input's
maximum.  `oracle.oracle_decompose` reaches the same result by recursive
link splitting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

from .complexes import Complex, Simplex, simplex
from .unionfind import UnionFind


@dataclass(frozen=True)
class DecompositionResult:
    """The decomposition complex, its components, and the copy map."""

    source: Complex
    nabla: Complex
    components: list[Complex]
    sigma: dict[int, int]          # copy id -> original id, total
    cc: list[int] = field(default_factory=list)  # components per dimension

    @classmethod
    def from_parts(
        cls,
        source: Complex,
        nabla: Complex,
        components: list[Complex],
        sigma: dict[int, int],
    ) -> "DecompositionResult":
        d = nabla.dim
        cc = [0] * (d + 1)
        for comp in components:
            cc[comp.dim] += 1
        return cls(source, nabla, components, dict(sigma), cc)

    # -- sigma views -------------------------------------------------------

    def sigma_inverse(self) -> dict[int, tuple[int, ...]]:
        inv: dict[int, list[int]] = {}
        for copy, orig in self.sigma.items():
            inv.setdefault(orig, []).append(copy)
        return {v: tuple(sorted(cs)) for v, cs in inv.items()}

    def splitting_classes(self) -> dict[int, tuple[int, ...]]:
        """original -> copies, restricted to vertices that actually split."""
        return {v: cs for v, cs in self.sigma_inverse().items() if len(cs) > 1}

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

    # -- misc --------------------------------------------------------------

    def copy_at(self, tid: int, v: int) -> int:
        """The copy standing in for source vertex v inside top tid."""
        src_row = self.source.row(tid)
        return self.nabla.row(tid)[src_row.index(v)]

    def simplex_copies(self, gamma: Iterable[int]) -> set[frozenset]:
        """Distinct copy images of a source simplex across its star."""
        g = simplex(gamma)
        out = set()
        for t in self.source.star(g):
            out.add(frozenset(self.copy_at(t, v) for v in g))
        return out

    def is_identity(self) -> bool:
        return all(copy == orig for copy, orig in self.sigma.items())


def canonical_pairs(c: Complex) -> set[frozenset]:
    """Unordered top pairs sharing a facet whose star is exactly that pair.

    Each top offers only its own facets, so a facet's cofaces here are tops
    one dimension above it.  These are the gluing instructions that any
    decomposition in the lattice must keep applied; applying all of them to
    the exploded complex yields the standard decomposition.
    """
    by_facet: dict[Simplex, list[int]] = {}
    for t in c.top_ids:
        srt = sorted(c.row(t))
        if len(srt) < 2:
            continue
        for facet in itertools.combinations(srt, len(srt) - 1):
            by_facet.setdefault(facet, []).append(t)
    return {
        frozenset(tops)
        for facet, tops in by_facet.items()
        if len(tops) == 2 and len(c.star(facet)) == 2
    }


def copy_label(original_label: str, copy_id: int, copy_index: int) -> str:
    """Display token for a vertex copy: numeric sources stay numeric."""
    if original_label.isdigit():
        return str(copy_id)
    return f"{original_label}_{copy_index}"


def decomposition_from_corners(
    source: Complex, corners: UnionFind
) -> DecompositionResult:
    """Number the corner classes of source and package the result.

    corners partitions the (top, vertex) corners of source; each class
    becomes one vertex.  Per source vertex, ascending, the classes are
    ordered by link dimension, then smallest top: the first keeps the
    vertex's id and label, the others take fresh ids in turn.  Components
    are sorted by dimension, then smallest top.
    """
    classes: dict[int, dict] = {}
    for t in source.top_ids:
        for v in source.row(t):
            classes.setdefault(v, {}).setdefault(corners.find((t, v)), []).append(t)

    labels = source.labels
    sigma: dict[int, int] = {}
    copy_of: dict = {}  # class root -> vertex id in the decomposition
    next_id = max(classes) + 1
    for v in sorted(classes):
        # a class's top dimension is its link dimension plus one
        groups = sorted(
            classes[v].items(),
            key=lambda item: (max(source.dim_of(t) for t in item[1]), item[1][0]),
        )
        for k, (root, _) in enumerate(groups, start=1):
            if k == 1:
                vid = v
            else:
                vid = next_id
                next_id += 1
                labels[vid] = copy_label(labels[v], vid, k)
            sigma[vid] = v
            copy_of[root] = vid

    rows = {
        t: tuple(copy_of[corners.find((t, v))] for v in source.row(t))
        for t in source.top_ids
    }
    nabla = Complex(rows, labels=labels, validate=False)
    groups = nabla.h_connected_components(0)
    groups.sort(key=lambda g: (max(nabla.dim_of(t) for t in g), g[0]))
    components = [nabla.subcomplex(g) for g in groups]
    return DecompositionResult.from_parts(source, nabla, components, sigma)


def decompose(c: Complex) -> DecompositionResult:
    """Standard decomposition of a non-empty complex."""
    if c.num_tops == 0:
        raise ValueError("cannot decompose an empty complex")
    corners = UnionFind()
    for pair in canonical_pairs(c):
        t1, t2 = pair
        for v in set(c.row(t1)).intersection(c.row(t2)):
            corners.union((t1, v), (t2, v))
    return decomposition_from_corners(c, corners)
