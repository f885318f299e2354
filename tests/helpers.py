"""Face counts and label rows that only tests ask of a complex, the
packed ids of a decomposition, splitmap entries grouped by copy, and the
generic loops that the unrolled kernels are checked against."""

from collections import Counter
from itertools import combinations


def order_of(c, gamma):
    """Number of top cofaces of gamma in c; 0 for a non-face."""
    return len(c.star(gamma))


def faces_of_dim(c, m):
    """All m-faces of c, as sorted tuples, deduplicated across tops."""
    out = set()
    for t in c.top_ids:
        row = sorted(c.row(t))
        if len(row) >= m + 1:
            out.update(combinations(row, m + 1))
    return out


def label_rows(c):
    """Top id -> its row in vertex labels, which a .tv round trip keeps."""
    return {t: tuple(map(c.label_of, row)) for t, row in c.rows().items()}


def component_complexes(dec):
    """Each component of dec as a complex: its run of nabla's tops."""
    return [dec.nabla.subcomplex(k.top_ids) for k in dec.components]


def packed_ids(dec):
    """The decomposition ids of `Ewds.build`'s packed ids, as two lists
    indexed by packed id, index 0 unused: (tops, vertices).  Vertices
    ascend; tops run by component dimension, in decomposition order."""
    comps = sorted(dec.components, key=lambda k: k.dim)  # stable
    tops = [0] + [t for k in comps for t in k.top_ids]
    return tops, [0, *dec.nabla.vertices]


def packed(old_ids, x):
    """The packed id whose entry in old_ids, a list of `packed_ids`, is the
    decomposition id x."""
    return old_ids.index(x, 1)


def by_copy(ew, key, reps):
    """A splitmap entry as {copy: set of its representatives}: each
    representative's copy of key, packed vertex ids ascending, is read off
    its row through `Ewds.sigma_n`."""
    out = {}
    for t in reps:
        cp = tuple(sorted(x for x in ew.row_of(t) if ew.sigma_n[x] in key))
        out.setdefault(cp, set()).add(t)
    return out


def boundary(c):
    """(d-1)-faces of a regular complex c with exactly one top coface."""
    cofaces = Counter(f for t in c.top_ids for f in combinations(sorted(c.row(t)), c.dim))
    return {f for f, n in cofaces.items() if n == 1}



def reference_facet_slots(flat, rows):
    """`complexes.facet_slots` as one generic loop over every width: each
    row's facets from `combinations` of its slots sorted by vertex, which
    leave out the last vertex first."""
    out = {}
    for base, w in rows:
        if w < 2:
            continue
        pos = sorted(range(base, base + w), key=flat.__getitem__)
        facets = combinations([flat[k] for k in pos], w - 1)
        for facet, slot in zip(facets, reversed(pos)):
            prev = out.setdefault(facet, slot)
            if prev != slot:
                out[facet] = prev + (slot,) if type(prev) is tuple else (prev, slot)
    return out


def reference_face_tops(ew):
    """`nonmanifold.build_ft_trie`'s face table and row list from one
    generic loop: every packed row, in packed order, sorted in source ids
    as one tuple per top after an empty entry 0, and its faces of 2..w-1
    vertices from `combinations`, each kept by the last top that spans
    it."""
    faces, rows = {}, [()]
    for h, (w, off) in enumerate(ew.block_layouts):
        for t in range(ew.tbase[h], ew.tbase[h + 1]):
            row = tuple(sorted(ew.sigma_n[x] for x in ew.tvp[off + t * w : off + t * w + w]))
            rows.append(row)
            for r in range(2, w):
                for face in combinations(row, r):
                    faces[face] = t
    return faces, rows


def reference_twice_chi_misses(flat, lo, hi, boundary, n):
    """`complexes.twice_chi_misses` with each edge a sorted vertex pair
    from `combinations`, collected in a set of tuples."""
    tets, bnd, deg = [0] * n, [0] * n, [0] * n
    for x in flat[lo:hi]:
        tets[x] += 1
    rows = [sorted(flat[k : k + 4]) for k in range(lo, hi, 4)]
    for a, b in {e for row in rows for e in combinations(row, 2)}:
        deg[a] += 1
        deg[b] += 1
    for k in boundary:
        base = k - (k - lo) % 4
        for x in flat[base : base + 4]:
            bnd[x] += 1
        bnd[flat[k]] -= 1
    return [
        x
        for x in range(n)
        if tets[x] and 2 * deg[x] - tets[x] - bnd[x] != (2 if bnd[x] else 4)
    ]
