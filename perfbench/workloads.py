"""Seeded inputs for the benchmark workloads.

A generator turns a seed into the top rows of one or more complexes and the
query pool the client asks of them.  The library sees only the .tv text made
from the rows; the rows themselves stay with the benchmark, so the checks
can compare against them without trusting the parser.

Every pool entry is (complex index, gamma, n, m): one call
``layers[k].snm_global(gamma, n, m)``.  The first ``sample`` entries are the
seeded sample whose answers are compared with ``oracle_snm``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from nmdecomp.fixtures import load_text
from nmdecomp.meshes import kuhn_cube
from nmdecomp.oracle import random_complex

Rows = dict[int, tuple[int, ...]]
Query = tuple[int, tuple[int, ...], int, int]

RELATIONS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


@dataclass(frozen=True)
class Shape:
    """Sizes of the generated inputs; FULL is the benchmark, TINY the tests."""

    ball_n: int              # Kuhn cube resolution: 6 * n**3 tets
    perforated_n: int
    pool: int                # queries generated for ball and perforated
    sample: int              # of those, checked against oracle_snm
    batch_tops: int          # many-small draws complexes until they hold this many tops
    max_tops: int            # max_tops passed to random_complex
    min_rounds: int          # measuring rounds per run, at least


FULL = Shape(ball_n=10, perforated_n=12, pool=4000, sample=150,
             batch_tops=1600, max_tops=40, min_rounds=3)
TINY = Shape(ball_n=2, perforated_n=4, pool=300, sample=60,
             batch_tops=40, max_tops=12, min_rounds=1)

# perforated: shares of the Kuhn cube, fixed counts so that every seed
# yields the same number of tops of each dimension
DROP_SHARE = 0.30        # unit cubes removed, leaving vertex and edge pinches
FIN_SHARE = 0.02         # extra tets on an interior triangle (order 3 facets)
DANGLE_SHARE = 0.01      # triangles on a mesh edge, and again edges on a vertex
GADGETS = 3              # relabelled fix_c cones, each pinned to a mesh vertex
SPECIAL_SHARE = 0.50     # queries starting at a face the generator made singular
NONFACE_SHARE = 0.05     # queries at a non-face, which must answer the empty set


@dataclass
class Workload:
    name: str
    rows: list[Rows]
    queries: list[Query]
    sample: int
    # encodings per set-up, each after two query passes: enough that the
    # passes and encodings get most of a run, few enough that it sets up
    # several times
    encodings_per_setup: int = 3

    def texts(self) -> list[str]:
        return [to_tv(r) for r in self.rows]


def to_tv(rows: Rows) -> str:
    return "".join(
        f"simplex {t}: {' '.join(map(str, row))}\n" for t, row in rows.items()
    )


def faces(row: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    return list(combinations(sorted(row), n + 1))


def _random_face(rng: random.Random, rows: list[tuple[int, ...]], n: int):
    while True:
        row = rows[rng.randrange(len(rows))]
        if len(row) > n:
            return tuple(sorted(rng.sample(row, n + 1)))


# -- ball ------------------------------------------------------------------


def ball(seed: int, shape: Shape) -> Workload:
    """Manifold Kuhn cube; a uniform mix of S01..S23 over its faces."""
    rng = random.Random(seed)
    rows = kuhn_cube(shape.ball_n).rows()
    tops = list(rows.values())
    queries = []
    for _ in range(shape.pool):
        n, m = RELATIONS[rng.randrange(len(RELATIONS))]
        queries.append((0, _random_face(rng, tops, n), n, m))
    return Workload("ball", [rows], queries, shape.sample)


# -- perforated ------------------------------------------------------------


def _gadget_rows() -> tuple[list[list[str]], tuple[str, str, str]]:
    """Token rows of the shipped fix_c cones gadget and its order-3 triangle."""
    out = []
    for line in load_text("fix_c.tv").splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            out.append(body.split(":", 1)[1].split())
    return out, ("x", "y", "z")


def perforated_rows(
    rng: random.Random, n: int
) -> tuple[Rows, dict[int, set[tuple[int, ...]]]]:
    """Perforated Kuhn cube plus fins, dangling simplices and gadgets.

    Returns the rows and, per dimension 0..2, the faces the construction
    made singular: fin triangles with their edges and vertices, the edges
    and vertices dangling simplices hang from, the gadgets' order-3
    triangles and the mesh vertices they are pinned to.
    """
    base = kuhn_cube(n).rows()
    cubes: dict[int, list[tuple[int, ...]]] = {}
    for row in base.values():
        cubes.setdefault(min(row), []).append(row)  # a Kuhn tet holds its cube's low corner
    keys = sorted(cubes)
    dropped = set(rng.sample(keys, round(DROP_SHARE * len(keys))))
    tets = [row for k in keys if k not in dropped for row in cubes[k]]

    special: dict[int, set[tuple[int, ...]]] = {0: set(), 1: set(), 2: set()}
    fresh = max(v for row in base.values() for v in row)
    extra: list[tuple[int, ...]] = []

    def mark(face: tuple[int, ...]) -> None:
        for h in range(len(face)):
            special[h].update(combinations(face, h + 1))

    tri_order: dict[tuple[int, ...], int] = {}
    for row in tets:
        for tri in faces(row, 2):
            tri_order[tri] = tri_order.get(tri, 0) + 1
    interior = sorted(t for t, k in tri_order.items() if k == 2)
    for tri in rng.sample(interior, round(FIN_SHARE * len(tets))):
        fresh += 1
        extra.append(tri + (fresh,))
        mark(tri)

    edges = sorted({e for row in tets for e in faces(row, 1)})
    for edge in rng.sample(edges, round(DANGLE_SHARE * len(tets))):
        fresh += 1
        extra.append(edge + (fresh,))
        mark(edge)
    verts = sorted({v for row in tets for v in row})
    for v in rng.sample(verts, round(DANGLE_SHARE * len(tets))):
        fresh += 1
        extra.append((v, fresh))
        mark((v,))

    gadget, cavity = _gadget_rows()
    for pin in rng.sample(verts, GADGETS):
        ids: dict[str, int] = {"m": pin}  # 'm' lies in one gadget tet only
        for toks in gadget:
            for tok in toks:
                if tok not in ids:
                    fresh += 1
                    ids[tok] = fresh
            extra.append(tuple(ids[tok] for tok in toks))
        mark((pin,))
        mark(tuple(sorted(ids[tok] for tok in cavity)))

    rows = {t: row for t, row in enumerate(tets + extra, start=1)}
    return rows, special


def perforated(seed: int, shape: Shape) -> Workload:
    """Non-manifold mesh; half the queries start at its singular faces."""
    rng = random.Random(seed)
    rows, special = perforated_rows(rng, shape.perforated_n)
    tops = list(rows.values())
    pools = {h: sorted(fs) for h, fs in special.items()}
    vt: dict[int, set[int]] = {}
    for t, row in rows.items():
        for v in row:
            vt.setdefault(v, set()).add(t)
    verts = sorted(vt)
    queries = []
    for _ in range(shape.pool):
        n, m = RELATIONS[rng.randrange(len(RELATIONS))]
        u = rng.random()
        if u < NONFACE_SHARE:
            if n == 0:
                gamma = (verts[-1] + 1 + rng.randrange(1000),)
            else:
                while True:
                    gamma = tuple(sorted(rng.sample(verts, n + 1)))
                    if not set.intersection(*(vt[v] for v in gamma)):
                        break
        elif u < NONFACE_SHARE + SPECIAL_SHARE:
            gamma = pools[n][rng.randrange(len(pools[n]))]
        else:
            gamma = _random_face(rng, tops, n)
        queries.append((0, gamma, n, m))
    return Workload("perforated", [rows], queries, shape.sample)


# -- many-small ------------------------------------------------------------


def many_small(seed: int, shape: Shape) -> Workload:
    """Small random complexes, d cycling 1..4; every relation on every face.

    Complexes are drawn until their tops add up to shape.batch_tops, not to
    a fixed count, so that the batch's total size hardly depends on the seed.
    """
    rng = random.Random(seed)
    batch = []
    queries: list[Query] = []
    tops = 0
    while tops < shape.batch_tops:
        k = len(batch)
        rows = random_complex(rng.randrange(2**31), shape.max_tops, 1 + k % 4).rows()
        batch.append(rows)
        tops += len(rows)
        dim = max(len(r) for r in rows.values()) - 1
        by_dim = {
            n: sorted({f for r in rows.values() for f in faces(r, n)})
            for n in range(dim)
        }
        for n in range(dim):
            for m in range(n + 1, dim + 1):
                queries.extend((k, f, n, m) for f in by_dim[n])
    # its set-ups are cheap next to a pass, and spread by seed
    return Workload("many-small", batch, queries, len(queries), encodings_per_setup=2)


GENERATORS = {"ball": ball, "perforated": perforated, "many-small": many_small}
