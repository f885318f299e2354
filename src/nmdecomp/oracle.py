"""Brute-force reference implementations.

Everything here trades speed for obviousness: queries scan every top simplex,
the decomposition follows its definition (split every vertex whose
recursively decomposed link falls apart, then read off components), and the
random generator produces complexes by explode-and-glue so results always
live in the decomposition lattice of something.

The oracle shares three pieces with the main path: the Complex type, the
result record, and `Complex.h_connected_components`, which the record uses
to read components off nabla and the oracle uses to split links.  That
finder runs on the list union-find that `decompose` uses too, so its
independent check is the brute-force BFS of `test_components_match_bfs` in
`tests/test_properties.py`.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Mapping

from .complexes import Complex, Simplex, corner_layout, simplex
from .decompose import DecompositionResult
from .unionfind import flatten, union_min


def oracle_star(c: Complex, gamma: Iterable[int]) -> set[int]:
    g = set(gamma)
    return {t for t in c.top_ids if g <= set(c.row(t))}


def oracle_snm(c: Complex, gamma: Iterable[int], n: int, m: int) -> set[Simplex]:
    """All m-faces containing gamma, by scanning every top simplex."""
    g = simplex(gamma)
    assert len(g) - 1 == n, "n must be the dimension of gamma"
    gset = set(g)
    out: set[Simplex] = set()
    for t in c.top_ids:
        row = sorted(c.row(t))
        if not gset <= set(row):
            continue
        rest = [v for v in row if v not in gset]
        need = (m + 1) - len(g)
        if need < 0 or need > len(rest):
            continue
        for extra in itertools.combinations(rest, need):
            out.add(tuple(sorted(g + extra)))
    return out


def _decomposed_components(c: Complex) -> list[list[int]]:
    """Connected components of the standard decomposition, as top-id lists.

    Used on link complexes during recursion: only the partition of the tops
    matters there, so copies get throwaway local ids.
    """
    rows = {t: list(c.row(t)) for t in c.top_ids}
    next_local = max(c.vertices, default=0) + 1
    for v, parts in _split_partitions(c):
        for comp in parts[1:]:
            for t in comp:
                rows[t] = [next_local if x == v else x for x in rows[t]]
            next_local += 1
    split = Complex({t: tuple(r) for t, r in rows.items()}, validate=False)
    return split.h_connected_components(0)


def _split_partitions(c: Complex) -> list[tuple[int, list[list[int]]]]:
    """Per splitting vertex, the ordered partition of its star tops.

    A vertex splits when its decomposed link has more than one component
    (more than two, for dust links of isolated points).  Components are
    ordered by ascending dimension, then by smallest star-top id; the first
    one will keep the original vertex id.
    """
    out = []
    for v in sorted(c.vertices):
        star = c.tops_of_vertex(v)
        link_rows = {}
        for t in star:
            rest = tuple(x for x in c.row(t) if x != v)
            if rest:
                link_rows[t] = rest
        if not link_rows:
            continue  # v is itself a point top
        lk = Complex(link_rows, labels=None, validate=False)
        h = lk.dim
        parts = _decomposed_components(lk)
        if (h > 0 and len(parts) > 1) or (h == 0 and len(parts) > 2):
            parts.sort(key=lambda comp: (max(lk.dim_of(t) for t in comp), min(comp)))
            out.append((v, parts))
    return out


def oracle_decompose(c: Complex) -> DecompositionResult:
    """Standard decomposition by recursive link splitting.

    Walks the vertices in ascending id order.  For each vertex it decomposes
    the link (taken in the original complex, not the partially split one),
    and when the decomposed link falls apart it introduces one vertex copy
    per link component, rewriting that component's star tops.
    """
    rows = {t: list(c.row(t)) for t in c.top_ids}
    sigma = {v: v for v in c.vertices}
    next_id = max(c.vertices, default=0) + 1
    for v, parts in _split_partitions(c):
        for comp in parts[1:]:
            sigma[next_id] = v
            for t in comp:
                rows[t] = [next_id if x == v else x for x in rows[t]]
            next_id += 1

    nabla = Complex({t: tuple(r) for t, r in rows.items()}, validate=False)
    return DecompositionResult.from_parts(c, nabla, sigma)


def labeled_isomorphic(a: Complex, b: Complex, relabel: Mapping[int, int]) -> bool:
    """Does relabelling a's vertices through the map give b's simplex set?"""
    for v in a.vertices:
        if v not in relabel:
            raise ValueError(f"relabel map not total: missing {v}")
    relabelled = {tuple(sorted(relabel[v] for v in a.row(t))) for t in a.top_ids}
    return relabelled == b.simplex_set()


# -- seeded random complexes -------------------------------------------------


def random_complex(seed: int, max_tops: int, d: int) -> Complex:
    """Deterministic random complex of dimension d with at most max_tops tops.

    Random top simplices over a small vertex pool are exploded and partially
    reglued with a random instruction mix, and the resulting decomposition is
    returned; by construction it is a member of a decomposition lattice.
    """
    rng = random.Random(seed)
    nt = rng.randint(1, max_tops)
    pool = list(range(1, rng.randint(d + 2, 3 * (d + 1)) + 1))

    cand: list[tuple[int, ...]] = []
    for i in range(nt):
        size = d + 1 if i == 0 else rng.randint(1, d + 1)
        row = tuple(rng.sample(pool, min(size, len(pool))))
        cand.append(row)
    # keep only maximal rows, first occurrence wins
    rows: dict[int, tuple[int, ...]] = {}
    kept: list[frozenset] = []
    for row in cand:
        fs = frozenset(row)
        if any(fs <= other for other in kept):
            continue
        kept = [other for other in kept if not other < fs]
        kept.append(fs)
    for i, fs in enumerate(kept, start=1):
        # reuse the candidate order of the first row realizing this set
        row = next(r for r in cand if frozenset(r) == fs)
        rows[i] = row
    source = Complex(rows, validate=False)

    flat, start = corner_layout(source)
    first = dict(zip(source.top_ids, start))  # top -> its first corner
    parent = list(range(len(flat)))

    def glue(t1: int, t2: int, v: int) -> None:
        union_min(parent, flat.index(v, first[t1]), flat.index(v, first[t2]))

    sharing = [
        (t1, t2)
        for t1, t2 in itertools.combinations(source.top_ids, 2)
        if set(source.row(t1)) & set(source.row(t2))
    ]
    if sharing:
        for _ in range(rng.randint(0, 3 * len(source.top_ids))):
            t1, t2 = sharing[rng.randrange(len(sharing))]
            shared = sorted(set(source.row(t1)) & set(source.row(t2)))
            if rng.random() < 0.7:
                for v in shared:
                    glue(t1, t2, v)
            else:
                glue(t1, t2, shared[rng.randrange(len(shared))])

    root = flatten(parent)
    classes: dict[int, dict] = {}
    for t in source.top_ids:
        for k, v in enumerate(source.row(t), start=first[t]):
            classes.setdefault(v, {}).setdefault(root[k], set()).add(t)
    new_id: dict[tuple, int] = {}
    counter = 0
    for v in sorted(classes):
        for tops in sorted(classes[v].values(), key=min):
            counter += 1
            for t in tops:
                new_id[(t, v)] = counter
    out_rows = {
        t: tuple(new_id[(t, v)] for v in source.row(t)) for t in source.top_ids
    }
    return Complex(out_rows)


# -- face-number laws used as test invariants --------------------------------


def closed_surface_law(c: Complex) -> bool:
    """3*f2 == 2*f1 on closed surfaces."""
    f = c.face_counts()
    return 3 * f[2] == 2 * f[1]


def pseudo_boundary_law(c: Complex) -> bool:
    """(d+1)*f_d <= 2*f_{d-1} - (d+1) for pseudomanifolds with boundary."""
    d = c.dim
    f = c.face_counts()
    return (d + 1) * f[d] <= 2 * f[d - 1] - (d + 1)
