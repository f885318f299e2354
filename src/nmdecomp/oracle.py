"""Brute-force reference implementations.

Everything here trades speed for obviousness: queries scan every top simplex,
the decomposition follows its definition (split every vertex whose
recursively decomposed link falls apart, then read off components), and the
random generator produces complexes by explode-and-glue so results always
live in the decomposition lattice of something.  The generator drives the
gluing lab (`gluing.GluingState`) with `veq` instructions and numbers its
corner classes; the lab's `pmglue` accepts exactly
`complexes.canonical_pairs`, the rule `decompose` glues by.

`oracle_decompose` uses no lab.  It shares three pieces with the main
path: the Complex type, the result record, and
`Complex.h_connected_components`, which the record uses to read
components off nabla and the oracle uses to split links.  That finder
runs on the list union-find that `decompose` uses too, so its independent
check is the brute-force BFS of `test_components_match_bfs` in
`tests/test_properties.py`.  `oracle_splitmap` floods patches with
`oracle_walk`, not the queries' `Ewds.walk_block`, and `build_splitmap`
walks none, so the three share no code past the packed tables.
`oracle_is_manifold` classifies every vertex link as a surface, where
`Complex.classify` counts 2E - T - B per vertex
(`complexes.twice_chi_misses`): the two share the count's inputs, not
its code.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import Iterable, Mapping

from .complexes import Complex, Simplex, simplex
from .decompose import DecompositionResult
from .errors import DimensionUnsupported, InvalidComplex, NotAFace
from .gluing import GluingState
from .nonmanifold import Splitmap
from .winged import Ewds


def oracle_star(c: Complex, gamma: Iterable[int]) -> set[int]:
    g = set(gamma)
    return {t for t, row in c.rows().items() if g <= set(row)}


def oracle_snm(c: Complex, gamma: Iterable[int], n: int, m: int) -> set[Simplex]:
    """All m-faces containing gamma, by scanning every top simplex."""
    g = simplex(gamma)
    assert len(g) - 1 == n, "n must be the dimension of gamma"
    gset = set(g)
    out: set[Simplex] = set()
    for row in c.rows().values():
        row = sorted(row)
        if not gset <= set(row):
            continue
        rest = [v for v in row if v not in gset]
        need = (m + 1) - len(g)
        if need < 0 or need > len(rest):
            continue
        for extra in itertools.combinations(rest, need):
            out.add(tuple(sorted(g + extra)))
    return out


def _split(c: Complex) -> tuple[Complex, dict[int, int]]:
    """c with one new vertex per extra star part of each splitting vertex,
    numbered from above c's vertices, and the copy map."""
    rows = {t: list(row) for t, row in c.rows().items()}
    sigma = {v: v for v in c.vertices}
    next_id = max(c.vertices, default=0) + 1
    for v, parts in _split_partitions(c):
        for comp in parts[1:]:
            sigma[next_id] = v
            for t in comp:
                rows[t] = [next_id if x == v else x for x in rows[t]]
            next_id += 1
    return Complex({t: tuple(r) for t, r in rows.items()}, validate=False), sigma


def _split_partitions(c: Complex) -> list[tuple[int, list[list[int]]]]:
    """Per splitting vertex, the ordered partition of its star tops.

    A vertex splits when its decomposed link has more than one component
    (more than two, for dust links of isolated points).  Components are
    ordered by ascending dimension, then by smallest star-top id; the first
    one will keep the original vertex id.
    """
    out = []
    for v in sorted(c.vertices):
        lk = link_complex(c, (v,))
        if not lk.num_tops:
            continue  # v is itself a point top
        h = lk.dim
        parts = _split(lk)[0].h_connected_components(0)  # its decomposed components
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
    return DecompositionResult.from_parts(c, *_split(c))


def oracle_walk(ew: Ewds, gset: set[int], seeds: Iterable[int]) -> set[int]:
    """The tops a flood from seeds reaches across order-2 facets that
    contain gset: one set test per slot, each row read through the checked
    `Ewds.row_of` and `Ewds.tt_row_of`."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        t = stack.pop()
        for x, u in zip(ew.row_of(t), ew.tt_row_of(t)):
            if x not in gset and u > 0 and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def oracle_splitmap(ewds: Ewds) -> Splitmap:
    """The splitmap by flooding the patch of every face of every top.

    For every packed top and every subset of 2..w-1 of its slots,
    `oracle_walk` from that top gives the patch of that face.  Each patch is
    represented by its smallest top, and a key is kept, with its
    representatives ascending, when it has more than one: more than one
    copy or more than one patch, as a top spans one copy of a key.
    """
    sigma_n = ewds.sigma_n
    found: dict[Simplex, set[int]] = {}
    for t in range(1, ewds.nt + 1):
        row = sorted(ewds.row_of(t))
        for r in range(2, len(row)):
            for cp in itertools.combinations(row, r):
                key = tuple(sorted(sigma_n[x] for x in cp))
                found.setdefault(key, set()).add(min(oracle_walk(ewds, set(cp), (t,))))
    return {key: tuple(sorted(reps)) for key, reps in found.items() if len(reps) > 1}


# -- manifold recognition by link surfaces ----------------------------------


def oracle_is_manifold(c: Complex) -> bool:
    """Combinatorial-manifold test for d <= 3, one vertex link at a time.

    Each vertex link is built as a complex and classified: at most two
    points for d = 1, a simple path or cycle for d = 2, and for d = 3 a
    surface whose Euler characteristic, boundary cycles and orientation
    make it a sphere or a disk.
    """
    d = c.dim
    if d > 3:
        raise DimensionUnsupported("manifold recognition not attempted for d > 3")
    if not c.is_regular():
        return False
    if d <= 0:
        return True
    links = (link_complex(c, (v,)) for v in c.vertices)
    if d == 1:
        return all(lk.num_tops <= 2 for lk in links)
    if d == 2:
        return all(map(_is_path_or_cycle, links))
    return all(_surface_type(lk) != "other" for lk in links)


def link_complex(c: Complex, gamma: Iterable[int]) -> Complex:
    """The link as a complex whose top ids are the star's top ids.

    Keying link tops by the star top they came from lets a caller map
    link components back onto partitions of the star.
    """
    gamma = simplex(gamma)
    st = c.star(gamma)
    if not st:
        raise NotAFace(f"{list(gamma)} is not a face of any top simplex")
    rows = {t: tuple(v for v in c.row(t) if v not in gamma) for t in st}
    return Complex({t: rest for t, rest in rows.items() if rest}, validate=False)


def face_counts(c: Complex) -> list[int]:
    """f-vector: counts of k-simplices for k = 0..d."""
    sizes = Counter(map(len, c.all_faces()))
    return [sizes[k + 1] for k in range(c.dim + 1)]


def euler_all_faces(c: Complex) -> int:
    """Alternating face-count sum, no closedness requirement."""
    return sum((-1) ** k * n for k, n in enumerate(face_counts(c)))


def _face_tops(c: Complex, h: int) -> dict[Simplex, list[int]]:
    """Each h-face -> the tops holding it, by scanning every top."""
    by_face: dict[Simplex, list[int]] = {}
    for t, row in c.rows().items():
        for face in itertools.combinations(sorted(row), h + 1):
            by_face.setdefault(face, []).append(t)
    return by_face


def _is_path_or_cycle(lk: Complex) -> bool:
    """True when a 1-complex is a single simple path or cycle."""
    if lk.dim != 1 or not lk.is_regular():
        return False
    degree = Counter(itertools.chain.from_iterable(lk.rows().values()))
    return max(degree.values()) <= 2 and len(lk.h_connected_components(0)) <= 1


def _boundary_cycles(surface: Complex) -> int | None:
    """Number of boundary cycles of a 2-complex, None if not disjoint cycles."""
    bd = [f for f, ts in _face_tops(surface, 1).items() if len(ts) == 1]
    if not bd:
        return 0
    if set(Counter(itertools.chain.from_iterable(bd)).values()) != {2}:
        return None
    return len(Complex(dict(enumerate(bd)), validate=False).h_connected_components(0))


def _is_orientable(surface: Complex) -> bool:
    """Orientation propagation across order-2 edges of a 2-complex."""
    by_edge = _face_tops(surface, 1)
    orient: dict[int, int] = {}
    for seed in surface.top_ids:
        if seed in orient:
            continue
        orient[seed] = 1
        stack = [seed]
        while stack:
            t = stack.pop()
            tri = simplex(surface.row(t))
            for edge in itertools.combinations(tri, 2):
                cofs = by_edge.get(edge, [])
                if len(cofs) != 2:
                    continue
                other = cofs[0] if cofs[1] == t else cofs[1]
                # consistent orientation: the shared edge must be traversed
                # in opposite directions by the two triangles
                sign = _edge_sign(tri, edge) * _edge_sign(simplex(surface.row(other)), edge)
                need = -orient[t] * sign
                if other not in orient:
                    orient[other] = need
                    stack.append(other)
                elif orient[other] != need:
                    return False
    return True


def _edge_sign(tri: Simplex, edge: Simplex) -> int:
    """+1 if the sorted triangle's reference cycle traverses edge low-to-high."""
    a, b, c = tri
    # reference cycle a -> b -> c -> a, so the (a, c) edge is traversed c -> a
    return 1 if edge in ((a, b), (b, c)) else -1


def _surface_type(lk: Complex) -> str:
    """Classify a link 2-complex as 'sphere', 'disk', or 'other'."""
    if (
        lk.dim != 2
        or not lk.is_regular()
        or any(len(ts) > 2 for ts in _face_tops(lk, 1).values())
        or len(lk.h_connected_components(0)) > 1
    ):
        return "other"
    chi = euler_all_faces(lk)
    cycles = _boundary_cycles(lk)
    if cycles == 0:
        return "sphere" if chi == 2 else "other"
    if cycles == 1 and chi == 1 and _is_orientable(lk):
        return "disk"
    return "other"


def labeled_isomorphic(a: Complex, b: Complex, relabel: Mapping[int, int]) -> bool:
    """Does relabelling a's vertices through the map give b's simplex set?"""
    for v in a.vertices:
        if v not in relabel:
            raise ValueError(f"relabel map not total: missing {v}")
    relabelled = {tuple(sorted(relabel[v] for v in row)) for row in a.rows().values()}
    return relabelled == b.simplex_set()


# -- seeded random complexes -------------------------------------------------


# the largest sizes random_complex draws: its candidate rows are drawn one
# at a time and filtered pairwise, so its cost grows with max_tops times the
# rows kept, and those grow with d; the slowest draw at both caps, over
# seeds 0..49, took 0.43 s and 32 MB (2 vCPU, Python 3.11)
MAX_DRAW_TOPS = 1000
MAX_DRAW_DIM = 16


def random_complex(seed: int, max_tops: int, d: int) -> Complex:
    """Deterministic random complex of dimension d with at most max_tops tops.

    Random top simplices over a small vertex pool are exploded and partially
    reglued with a random instruction mix, and the resulting decomposition is
    returned; by construction it is a member of a decomposition lattice.
    Raises InvalidComplex, before drawing, unless max_tops and d are ints
    with 1 <= max_tops <= MAX_DRAW_TOPS (1000) and
    0 <= d <= MAX_DRAW_DIM (16).
    """
    if (
        type(max_tops) is not int
        or type(d) is not int
        or not 1 <= max_tops <= MAX_DRAW_TOPS
        or not 0 <= d <= MAX_DRAW_DIM
    ):
        raise InvalidComplex(
            f"need ints 1 <= max_tops <= {MAX_DRAW_TOPS} and 0 <= d <= {MAX_DRAW_DIM}, "
            f"got {max_tops!r} and {d!r}"
        )
    rng = random.Random(seed)
    nt = rng.randint(1, max_tops)
    pool = list(range(1, rng.randint(d + 2, 3 * (d + 1)) + 1))

    # each vertex set drawn -> the candidate order of its first draw
    first: dict[frozenset, tuple[int, ...]] = {}
    for i in range(nt):
        size = d + 1 if i == 0 else rng.randint(1, d + 1)
        row = tuple(rng.sample(pool, min(size, len(pool))))
        first.setdefault(frozenset(row), row)
    # keep only the maximal sets, in order of first draw: a set lies in a
    # bigger one exactly when two drawn sets hold all of its vertices
    holders: dict[int, set[frozenset]] = {}  # vertex -> the drawn sets holding it
    for fs in first:
        for v in fs:
            holders.setdefault(v, set()).add(fs)
    kept = [fs for fs in first if len(set.intersection(*map(holders.__getitem__, fs))) == 1]
    rows = {i: first[fs] for i, fs in enumerate(kept, start=1)}
    source = Complex(rows, validate=False)
    state = GluingState(source)

    # the pairs of tops that share a vertex, in `combinations` order
    tops_of: dict[int, list[int]] = {}  # vertex -> the tops holding it, ascending
    for t, row in rows.items():
        for v in row:
            tops_of.setdefault(v, []).append(t)
    sharing = [
        (t1, t2)
        for t1, row in rows.items()
        for t2 in sorted(set().union(*(tops_of[v] for v in row)))
        if t2 > t1
    ]
    if sharing:
        for _ in range(rng.randint(0, 3 * len(source.top_ids))):
            t1, t2 = sharing[rng.randrange(len(sharing))]
            shared = sorted(set(rows[t1]) & set(rows[t2]))
            if rng.random() < 0.7:
                for v in shared:
                    state.veq(t1, t2, v)
            else:
                state.veq(t1, t2, shared[rng.randrange(len(shared))])

    # one id per class, by source vertex, then smallest top
    new_id: dict[tuple, int] = {}
    for n, (v, tops) in enumerate(sorted(state.corner_classes()), start=1):
        for t in tops:
            new_id[(t, v)] = n
    out_rows = {t: tuple(new_id[(t, v)] for v in row) for t, row in rows.items()}
    return Complex(out_rows)
