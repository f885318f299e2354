"""Standard decomposition into initial quasi-manifold components.

`complexes.manifold_corners` explodes the input into (top, vertex)
corners and glues them back across every manifold facet pair: two tops
sharing a facet that no other top contains.  Here each corner class
becomes one vertex of the decomposition, which is the unique most-split
one that cuts only along non-manifold simplices.  One pass over the tops'
own facets finds the pairs, so the work is linear in the size of the
input, up to sorting.  `Complex.is_iqm` counts the same corner classes.

Per source vertex, copies are ordered by link dimension, then smallest
star top.  The first keeps the original id, so sigma is the identity on
non-splitting vertices; the others take fresh ids above the input's
maximum.  `oracle.oracle_decompose` reaches the same result by recursive
link splitting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# canonical_pairs is re-exported, so it can still be imported from here
from .complexes import Complex, canonical_pairs, manifold_corners
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
        cls, source: Complex, nabla: Complex, sigma: dict[int, int]
    ) -> "DecompositionResult":
        """Package a decomposition, deriving its components and cc.

        Components are the 0-connected classes of nabla, sorted by
        dimension, then smallest top.
        """
        groups = nabla.h_connected_components(0)
        groups.sort(key=lambda g: (max(nabla.dim_of(t) for t in g), g[0]))
        components = [nabla.subcomplex(g) for g in groups]
        cc = [0] * (nabla.dim + 1)
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

    def is_identity(self) -> bool:
        return all(copy == orig for copy, orig in self.sigma.items())


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
    vertex's id and label, the others take fresh ids in turn.
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
    return DecompositionResult.from_parts(source, nabla, sigma)


def decompose(c: Complex) -> DecompositionResult:
    """Standard decomposition of a non-empty complex."""
    if c.num_tops == 0:
        raise ValueError("cannot decompose an empty complex")
    return decomposition_from_corners(c, manifold_corners(c))
