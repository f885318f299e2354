"""End-to-end acceptance checks, one test per headline guarantee.

The first seven pin exact table contents and decomposition results on the
small worked fixtures.  The last four are the expensive gates: oracle
equivalence over a seeded random sweep, output-sensitive query cost on
structured tetrahedral meshes, counted work per output face flat across
their sizes, and near-linearithmic decomposition time.
Every test asserts its own wall-clock budget so an asymptotic regression
fails loudly rather than just slowing the suite down.
"""

import itertools
import math
import time

from nmdecomp.complexes import resolve_tokens
from nmdecomp.counters import OpCounter
from nmdecomp.decompose import decompose
from nmdecomp.gluing import parse_glue_script, run_glue_script
from nmdecomp.meshes import kuhn_cube
from nmdecomp.nonmanifold import build_nm_layer
from nmdecomp.oracle import oracle_decompose, oracle_snm, random_complex
from nmdecomp.renumber import apply_renumbering, compute_renumbering
from nmdecomp.winged import Ewds
from helpers import component_complexes, faces_of_dim, order_of


def test_criterion_01_fan_tables(fan):
    """Tet fan: every flat table entry matches the worked values."""
    t0 = time.perf_counter()
    ew = Ewds.build(decompose(fan))
    assert ew.d == 3 and ew.nt == 3 and ew.nv == 6
    assert ew.row_of(1) == (1, 2, 3, 4)
    assert ew.row_of(2) == (2, 3, 4, 5)
    assert ew.row_of(3) == (2, 4, 5, 6)
    assert ew.vtstar[1:] == [1, 1, 1, 1, 2, 3]
    assert ew.tt_row_of(1) == (2, 0, 0, 0)
    assert ew.tt_row_of(2) == (0, 3, 0, 1)
    assert ew.tt_row_of(3) == (0, 0, 0, 2)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_mixed_global_tables(mixed):
    """Mixed-dimension fixture: flat layout, contents, addressed lookups."""
    ew = Ewds.build(decompose(mixed))
    assert ew.tbase[:4] == [1, 3, 5, 7]
    assert ew.tbase_addr[:4] == [1, 3, 7, 13]
    assert ew.size == 24
    assert ew.tvp[1:] == [
        1, 2,
        3, 4, 4, 5,
        6, 13, 8, 6, 7, 13,
        10, 9, 12, 11, 9, 12, 11, 14, 9, 11, 14, 15,
    ]
    assert ew.vtstar[1:] == [1, 2, 3, 3, 4, 6, 6, 5, 7, 7, 7, 7, 5, 8, 9]
    assert ew.ttp[1:] == [
        0, 0,
        4, 0, 0, 3,
        0, 0, 6, 0, 5, 0,
        8, 0, 0, 0, 0, 9, 0, 7, 0, 0, 0, 8,
    ]
    assert ew.tt_row_of(8)[3] == 7
    assert ew.row_of(5)[2] == 8
    assert ew.tt_row_of(5)[2] == 6


def test_criterion_03_mixed_nonmanifold_layer(mixed):
    """Copy classes and the splitmap on the mixed fixture, exactly."""
    dec = decompose(mixed)
    ew = Ewds.build(dec)
    assert ew.nv == 15
    assert dec.splitting_classes() == {5: (5, 13), 6: (6, 14), 8: (8, 15)}
    nm = build_nm_layer(ew)
    assert nm.splitmap == {(6, 8): (5, 9)}
    # top 5 spans copy (6, 8) of the key and top 9 copy (14, 15)
    assert sorted(x for x in ew.row_of(5) if ew.sigma_n[x] in (6, 8)) == [6, 8]
    assert sorted(x for x in ew.row_of(9) if ew.sigma_n[x] in (6, 8)) == [14, 15]


def test_criterion_04_mixed_implicit_tables(mixed):
    """Adjacency renumbering and the implicit vertex table, slot by slot."""
    ew = Ewds.build(decompose(mixed))
    ren = compute_renumbering(ew)
    imp = apply_renumbering(ew, ren)
    assert ren.fvv[1:] == [1, 2, 5, 3, 4, 8, 7, 6, 14, 13, 10, 15, 9, 11, 12]
    assert ren.ftt[1:] == list(range(1, 10))
    assert ren.cc == [2, 1, 1, 1]
    assert ren.vbase == [1, 3, 6, 10, 16]
    assert imp.taddr == [1, 1, 2, 4, 10]
    assert imp.iibnd == [3, 5, 7, 10]
    assert imp.iitaddr == [1, 2, 4, 10]
    # entries 4..6 hold slots 1..3 of renumbered top 8, whose row is
    # (14, 15, 10, 11); the full-row assert below cross-checks them
    assert imp.tvpp[1:] == [3, 8, 9, 14, 15, 10, 14, 10, 11]
    assert {t: imp.row_of(t) for t in range(1, 10)} == {
        1: (1,),
        2: (2,),
        3: (5, 3),
        4: (3, 4),
        5: (8, 9, 6),
        6: (8, 9, 7),
        7: (13, 14, 15, 10),
        8: (14, 15, 10, 11),
        9: (14, 10, 11, 12),
    }
    # all 24 slots of the flat table survive the round trip
    slots = 0
    for h in range(ew.d + 1):
        for t in range(ew.tbase[h], ew.tbase[h + 1]):
            perm = ren.perm_of(t) or tuple(range(h + 1))
            row = ew.row_of(t)
            for k in range(1, h + 2):
                slots += 1
                assert imp.tv_lookup(h, ren.ftt[t], k) == \
                    ren.fvv[row[perm[k - 1]]]
    assert slots == 24
    assert [imp.vtstar_lookup(v) for v in range(1, 16)] == \
        [1, 2, 3, 4, 3, 5, 6, 5, 5, 7, 8, 9, 7, 7, 7]


def test_criterion_05_cone_script_and_check(cones, cones_script):
    """Full reassembly script succeeds; the source has one order-3 triangle."""
    instrs = parse_glue_script(cones_script)
    assert sum(op == "pmglue" for _, (op, *_) in instrs) == 30
    out = run_glue_script(cones, cones_script)
    assert out.ok
    assert any(e.kind == "assert-pass" for e in out.events)
    assert out.state.is_isomorphic_to_source()
    assert out.state.splitting_vertices() == []
    npf = cones.classify_with_faces()[1]
    xyz = resolve_tokens(cones, ["x", "y", "z"])
    assert set(npf) == {xyz}
    assert sorted(npf[xyz]) == [34, 35, 36]
    assert order_of(cones, xyz) == 3


def test_criterion_06_partial_cone_script(cones, cones_partial_script):
    """Stopping the script early leaves three tet singletons and three
    pseudomanifold strips of eight tets each."""
    instrs = parse_glue_script(cones_partial_script)
    assert sum(op == "pmglue" for _, (op, *_) in instrs) == 21
    out = run_glue_script(cones, cones_partial_script)
    assert out.ok
    dec = out.state.current_decomposition()
    comps = [c.top_ids for c in dec.components]
    assert [34] in comps and [35] in comps and [36] in comps
    eights = [g for g in comps if len(g) == 8]
    assert len(eights) == 3
    assert sorted(sum(eights, [])) == [
        1, 2, 3, 7, 8, 9, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
        26, 27, 28, 29, 30, 31, 32, 33,
    ]
    assert dec.nabla.classify_with_faces()[1] == {}


def test_criterion_07_small_fixture_decompositions(bouquet, two_edges, pinched):
    """Edge bouquet splits fully, the two-sheet fixture splits once, and
    the pinched surface is already its own decomposition."""
    db = decompose(bouquet)
    assert len(db.components) == 4
    assert db.splitting_classes() == {5: (5, 6, 7, 8)}
    assert db.cc == [0, 4]
    de = decompose(two_edges)
    assert len(de.components) == 2
    assert de.splitting_classes() == {5: (5, 6)}
    df = decompose(pinched)
    assert df.is_identity()
    flags = pinched.classify()
    assert flags.iqm and flags.pseudomanifold
    assert flags.manifold_le3 is False


def test_criterion_08_random_sweep_matches_oracles():
    """200 seeded complexes: decomposition and every co-boundary relation
    agree with the brute-force oracles, components are all IQM, and the
    projection pastes each one back together."""
    t0 = time.perf_counter()
    for seed in range(200):
        d = 1 + seed % 4
        c = random_complex(seed, 40, d)
        dec = decompose(c)
        ref = oracle_decompose(c)
        assert dec.sigma == ref.sigma, seed
        assert dec.nabla.rows() == ref.nabla.rows(), seed
        for comp in component_complexes(dec):
            assert comp.classify().iqm, seed
        pasted = {
            t: tuple(dec.sigma[v] for v in dec.nabla.row(t))
            for t in dec.nabla.top_ids
        }
        assert pasted == c.rows(), seed
        nm = build_nm_layer(Ewds.build(dec))
        for n in range(c.dim):
            for gamma in faces_of_dim(c, n):
                for m in range(n + 1, c.dim + 1):
                    assert nm.snm_global(gamma, n, m) == \
                        oracle_snm(c, gamma, n, m), (seed, gamma, n, m)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_09_query_cost_is_output_sensitive():
    """Counted work per co-boundary query fits C * (out * log2(out) + 1)
    with the same constant across mesh sizes 162, 1296 and 10368 tets."""

    def budget(out):
        return out * math.log2(out) + 1 if out > 1 else 1.0

    t0 = time.perf_counter()
    rels = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    fits = {rel: [] for rel in rels}
    for n in (3, 6, 12):
        nm = build_nm_layer(Ewds.build(decompose(kuhn_cube(n))))
        c0 = n // 2

        def cid(x, y, z):
            return 1 + x + (n + 1) * (y + (n + 1) * z)

        # interior samples only, so the local star is the same mesh-to-mesh
        verts = [cid(c0, c0, c0), cid(c0 + 1, c0, c0), cid(c0, c0 + 1, c0 + 1)]
        edges = [
            tuple(sorted((cid(c0, c0, c0), cid(c0 + 1, c0, c0)))),
            tuple(sorted((cid(c0, c0, c0), cid(c0 + 1, c0 + 1, c0 + 1)))),
        ]
        for rn, rm in rels:
            samples = [(v,) for v in verts] if rn == 0 else edges
            worst = 0.0
            for gamma in samples:
                counter = OpCounter()
                out = nm.snm_global(gamma, rn, rm, counter)
                assert out, (n, rn, rm, gamma)
                worst = max(worst, counter.total / budget(len(out)))
            fits[(rn, rm)].append(worst)
    for rel, cs in fits.items():
        assert max(cs) / min(cs) <= 2.0, (rel, cs)
    assert time.perf_counter() - t0 < 30.0


def test_counted_work_per_output_face_is_flat():
    """Counted work per output face of every relation S01..S23 stays flat
    from kuhn_cube(4) to kuhn_cube(10).

    The queries are all faces of the tets around the central vertex.  Their
    stars lie inside the mesh, so they are translates of one another from
    size to size, and a query whose work grew with the mesh would show.
    """
    t0 = time.perf_counter()
    rels = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    per_face = {rel: [] for rel in rels}
    for n in range(4, 11):
        c = kuhn_cube(n)
        nm = build_nm_layer(Ewds.build(decompose(c)))
        c0 = n // 2
        centre = 1 + c0 + (n + 1) * (c0 + (n + 1) * c0)
        rows = [sorted(c.row(t)) for t in c.star((centre,))]
        for rn, rm in rels:
            counter, faces = OpCounter(), 0
            for gamma in {f for row in rows for f in itertools.combinations(row, rn + 1)}:
                faces += len(nm.snm_global(gamma, rn, rm, counter))
            assert faces, (n, rn, rm)
            per_face[(rn, rm)].append(counter.total / faces)
    for rel, cs in per_face.items():
        assert max(cs) / min(cs) <= 1.1, (rel, cs)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_10_decompose_scales_linearithmically():
    """Decomposition time over N log2 N stays within a factor of two from
    1296 to 105456 tets.

    Every size gets the same number of timed runs, one per round, and the
    rounds interleave the sizes, so a burst of load from elsewhere hits
    all of them alike; each size keeps its best run.
    """
    t0 = time.perf_counter()
    sizes = (6, 12, 26)
    meshes = [kuhn_cube(n) for n in sizes]
    for n, mesh in zip(sizes, meshes):
        assert mesh.num_tops == 6 * n**3
    best = [math.inf] * len(meshes)
    for _ in range(3):
        for i, mesh in enumerate(meshes):
            t1 = time.perf_counter()
            dec = decompose(mesh)
            best[i] = min(best[i], time.perf_counter() - t1)
            assert dec.is_identity()
            del dec
    rates = [t / (m.num_tops * math.log2(m.num_tops)) for t, m in zip(best, meshes)]
    assert max(rates) / min(rates) <= 2.0, rates
    assert time.perf_counter() - t0 < 120.0
