"""Standard decomposition into initial quasi-manifold components.

`complexes.glued_corners` explodes the input into flat integer corners,
one per slot of each top, and glues them back across every manifold facet
pair: two tops sharing a facet that no other top contains.  Here each
corner class becomes one vertex of the decomposition, which is the unique
most-split one that cuts only along non-manifold simplices.  One pass over
the tops' own facets finds the pairs, and list-based union-finds over the
corner ids and then the top indices give the classes and the components,
so the work is linear in the size of the input, up to sorting.
`Complex.is_iqm` counts the same corner classes, so every component is an
initial quasi-manifold by construction, and `decompose` records that on
its result (`DecompositionResult.iqm`): the encoding trusts the record
and checks only results built any other way.

Per source vertex, copies are ordered by link dimension, then smallest
star top.  The first keeps the original id, so sigma is the identity on
non-splitting vertices; the others take fresh ids above the input's
maximum.  `oracle.oracle_decompose` reaches the same result by recursive
link splitting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .complexes import Complex, glued_corners
from .errors import InvalidComplex


@dataclass(frozen=True)
class DecompositionResult:
    """The decomposition complex, its components, and the copy map."""

    source: Complex
    nabla: Complex
    components: list[Complex]
    sigma: dict[int, int]          # copy id -> original id, total
    cc: list[int] = field(default_factory=list)  # components per dimension
    # set by decompose alone: its components are IQMs by construction
    iqm: bool = field(default=False, compare=False)

    @classmethod
    def from_parts(
        cls, source: Complex, nabla: Complex, sigma: dict[int, int]
    ) -> "DecompositionResult":
        """Package a decomposition, deriving its components and cc.

        Components are the 0-connected classes of nabla
        (`Complex.h_connected_components(0)`), sorted by dimension, then
        smallest top.
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
    source: Complex, root: list[int]
) -> DecompositionResult:
    """Number the corner classes of source and package the result.

    root names the class of each flat corner of source (see
    `complexes.corner_layout`) by the class's smallest corner, so a class
    is first met in its smallest top.  Each class becomes one vertex.  Per
    source vertex, ascending, the classes are ordered by link dimension,
    then smallest top: the first keeps the vertex's id and label, the
    others take fresh ids in turn.
    """
    tops = source.top_ids
    rows = [source.row(t) for t in tops]
    width = [0] * len(root)  # class -> widest top holding it
    classes: dict[int, list[int]] = {}  # vertex -> its classes, by smallest top
    k = 0
    for row in rows:
        w = len(row)
        for v in row:
            r = root[k]
            if r == k:
                classes.setdefault(v, []).append(r)
            if w > width[r]:
                width[r] = w
            k += 1

    label_of = source.label_of
    labels = {v: label_of(v) for v in classes}
    sigma: dict[int, int] = {}
    copy_of = [0] * len(root)  # class -> vertex id in the decomposition
    next_id = max(classes) + 1
    for v in sorted(classes):
        # a class's top width is its link dimension plus two
        group = classes[v]
        if len(group) > 1:
            group.sort(key=width.__getitem__)  # stable: smallest top breaks ties
        for n, r in enumerate(group, start=1):
            if n == 1:
                vid = v
            else:
                vid = next_id
                next_id += 1
                labels[vid] = copy_label(labels[v], vid, n)
            sigma[vid] = v
            copy_of[r] = vid

    flat = [copy_of[r] for r in root]
    nabla_rows: dict[int, tuple[int, ...]] = {}
    k = 0
    for t, row in zip(tops, rows):
        nabla_rows[t] = tuple(flat[k : k + len(row)])
        k += len(row)
    nabla = Complex(nabla_rows, labels=labels, validate=False)
    return DecompositionResult.from_parts(source, nabla, sigma)


def decompose(c: Complex) -> DecompositionResult:
    """Standard decomposition of a non-empty complex."""
    if c.num_tops == 0:
        raise InvalidComplex("cannot decompose an empty complex")
    return replace(decomposition_from_corners(c, glued_corners(c)), iqm=True)
