"""Non-manifold layer: splitmap, sigma translation, global queries."""

import gc
import hashlib
import random
import weakref

import pytest

from nmdecomp.complexes import Complex, resolve_tokens
from nmdecomp.counters import OpCounter
from nmdecomp.decompose import decompose
from nmdecomp.errors import BadRelation
from nmdecomp.meshes import kuhn_cube
from nmdecomp.nonmanifold import (
    SINGLE,
    TWIN,
    _copy_kinds,
    build_nm_layer,
    build_splitmap,
    pinch_suspects,
)
from nmdecomp.oracle import oracle_snm, oracle_splitmap, oracle_star, oracle_walk, random_complex
from nmdecomp.renumber import compute_renumbering
from nmdecomp.winged import Ewds
from helpers import by_copy, packed, packed_ids


@pytest.fixture(scope="module")
def nm_mixed(mixed):
    return build_nm_layer(Ewds.build(decompose(mixed)))


@pytest.fixture(scope="module")
def nm_cones(cones):
    return build_nm_layer(Ewds.build(decompose(cones)))


def test_v_nra_auto_mixed(nm_mixed):
    assert nm_mixed.v_nra == [5, 6, 8]


def test_splitmap_mixed(nm_mixed):
    assert set(nm_mixed.splitmap) == {(6, 8)}
    reps = nm_mixed.splitmap[(6, 8)]
    assert reps == (5, 9)
    assert by_copy(nm_mixed.ewds, (6, 8), reps) == {(6, 8): {5}, (14, 15): {9}}


def test_splitmap_cones(nm_cones, cones):
    dom = sorted(
        tuple(cones.label_of(v) for v in key) for key in nm_cones.splitmap
    )
    assert dom == [("x", "y"), ("x", "y", "z"), ("x", "z"), ("y", "z")]
    xyz = resolve_tokens(cones, ["x", "y", "z"])
    reps = nm_cones.splitmap[xyz]
    # one copy (nothing splits), three patches: one rep per cavity tet
    assert list(by_copy(nm_cones.ewds, xyz, reps)) == [xyz]
    tops, _ = packed_ids(decompose(cones))
    assert sorted(tops[t] for t in reps) == [34, 35, 36]


def test_travel_star_is_one_patch(nm_cones, cones):
    ew = nm_cones.ewds
    xyz = resolve_tokens(cones, ["x", "y", "z"])  # the packing keeps these ids
    t34 = packed(packed_ids(decompose(cones))[0], 34)
    # the diamond mark fences each cavity tet into its own patch
    assert oracle_walk(ew, set(xyz), (t34,)) == {t34}


def test_travel_star_covers_the_patch(nm_mixed):
    # tops 7,8 share the order-2 triangle {9,12,11}, so the patch of the
    # edge {9,11} spans all three tets
    assert oracle_walk(nm_mixed.ewds, {9, 11}, (8,)) == {7, 8, 9}


def test_snm_global_mixed_all_faces(nm_mixed, mixed):
    _check_all_faces(nm_mixed, mixed)


def test_snm_global_cones_all_faces(nm_cones, cones):
    _check_all_faces(nm_cones, cones)


def _check_all_faces(nm, src):
    d = src.dim
    for gamma in src.all_faces():
        n = len(gamma) - 1
        for m in range(n + 1, d + 1):
            assert nm.snm_global(gamma, n, m) == oracle_snm(src, gamma, n, m), (
                gamma,
                n,
                m,
            )
    # a top has no proper coface, so each relation on its own row is empty
    for t in src.top_ids:
        gamma = tuple(sorted(src.row(t)))
        n = len(gamma) - 1
        for m in range(n + 1, d + 1):
            assert nm.snm_global(gamma, n, m) == set()


def test_layer_stands_on_the_tables_and_the_copy_map(mixed, cones, perforated_cube):
    # neither the tables nor the layer keep the decomposition alive: they
    # read the packed tables, Ewds.comp_first and Ewds.sigma_n among them,
    # and the renumbering and every relation come out the same once it is
    # gone.  The weakref is on the result, as Complex has no __weakref__
    # slot.  Draw 1354 has two copies of a vertex in one component.
    for src in (mixed, cones, perforated_cube(0), random_complex(1354, 40, 3)):
        dec = decompose(src)
        gone = weakref.ref(dec)
        ew = Ewds.build(dec)
        nm, want_ren = build_nm_layer(ew), compute_renumbering(ew)
        del dec
        gc.collect()
        assert gone() is None
        assert compute_renumbering(ew) == want_ren
        _check_all_faces(nm, src)


def test_snm_global_perforated_cube_all_faces(perforated_cube):
    src = perforated_cube(0)
    _check_all_faces(build_nm_layer(Ewds.build(decompose(src))), src)


@pytest.mark.parametrize("gamma, m", [((6, 8), 2), ((6, 8), 3), ((6,), 2), ((6,), 3)])
def test_narrow_copies_are_not_walked(nm_mixed, mixed, gamma, m):
    # the key (6, 8) has one copy in triangle 5 and one in tet 9, and vertex
    # 6 has copies in the triangles and in the tets: for m = 3 only the tet
    # copies hold an m-face, so only their stars are walked
    ew = nm_mixed.ewds
    if len(gamma) == 1:
        stars = [oracle_walk(ew, {vp}, (ew.vtstar[vp],)) for vp in nm_mixed.copies_of[gamma[0]]]
    else:
        entry = by_copy(ew, gamma, nm_mixed.splitmap[gamma])
        assert len({ew.dim_of_top(min(reps)) for reps in entry.values()}) == 2
        stars = [oracle_walk(ew, set(cp), reps) for cp, reps in entry.items()]
    counter = OpCounter()
    n = len(gamma) - 1
    assert nm_mixed.snm_global(gamma, n, m, counter) == oracle_snm(mixed, gamma, n, m)
    wide = [tops for tops in stars if ew.dim_of_top(min(tops)) >= m]
    assert (len(wide) < len(stars)) == (m == 3)
    assert counter.visits == sum(map(len, wide))


@pytest.mark.parametrize("seed", range(10))
def test_snm_matches_oracle_on_perforated_cubes(seed, perforated_cube):
    # random faces of every dimension, plus pinched vertices and splitmap
    # keys, on meshes far larger than the fixtures
    c = perforated_cube(seed)
    dec = decompose(c)
    nm = build_nm_layer(Ewds.build(dec))
    rng = random.Random(seed)
    faces = sorted(c.all_faces())
    by_dim = {n: [f for f in faces if len(f) == n + 1] for n in range(3)}
    pinched = [(v,) for v in dec.splitting_vertices]
    keys = sorted(nm.splitmap)
    assert pinched and keys
    sample = (
        rng.sample(pinched, 6)
        + rng.sample(keys, 6)
        + [f for n in range(3) for f in rng.sample(by_dim[n], 6)]
    )
    for gamma in sample:
        n = len(gamma) - 1
        for m in range(n + 1, 4):
            assert nm.snm_global(gamma, n, m) == oracle_snm(c, gamma, n, m), (
                gamma,
                n,
                m,
            )


@pytest.mark.parametrize(
    "name, pinches",
    [("pinched_edge", [(22, 38)]), ("pinched_edge_cone", [(22, 38), (22, 38, 100)])],
)
def test_pinched_simplices_are_splitmap_keys(name, pinches, request):
    # no vertex splits or touches a diamond, so v_nra is empty; the pinch
    # pass still finds each pinched simplex and both of its patches
    src = request.getfixturevalue(name)
    dec = decompose(src)
    assert dec.ns == 0 and src.classify().iqm
    nm = build_nm_layer(Ewds.build(dec))
    assert nm.v_nra == []
    assert sorted(nm.splitmap) == pinches
    ew = nm.ewds
    tops, _ = packed_ids(dec)
    for gamma in pinches:
        ((cp, reps),) = by_copy(ew, gamma, nm.splitmap[gamma]).items()
        assert len(reps) == 2
        star = oracle_star(src, gamma)
        assert len(star) == 4
        # the walk from both representatives covers the star, one copy wide
        assert {tops[u] for u in oracle_walk(ew, set(cp), reps)} == star
        assert set(by_copy(ew, gamma, [packed(tops, t) for t in star])) == {cp}
        n = len(gamma) - 1
        for m in range(n + 1, src.dim + 1):
            assert nm.snm_global(gamma, n, m) == oracle_snm(src, gamma, n, m)


def _patch_counts(ew, smap):
    """Splitmap shape: key -> copy -> number of patches (representatives
    may differ with the harvest order)."""
    return {
        key: {cp: len(seeds) for cp, seeds in by_copy(ew, key, reps).items()}
        for key, reps in smap.items()
    }


@pytest.mark.parametrize("seed", range(4))
def test_splitmap_equals_every_vertex_harvest_on_perforated_cubes(seed, perforated_cube):
    nm = build_nm_layer(Ewds.build(decompose(perforated_cube(seed))))
    every = build_splitmap(nm.ewds, nm.ewds.sigma_n, nm.copies_of, sorted(nm.copies_of))
    assert _patch_counts(nm.ewds, nm.splitmap) == _patch_counts(nm.ewds, every)


@pytest.mark.parametrize("seed", range(2))
def test_splitmap_ignores_harvest_order_on_perforated_cubes(seed, perforated_cube):
    # the harvest reads the union of the stars in ascending top order, so
    # the order of the vertices changes nothing, and each representative
    # is the smallest top of its patch
    nm = build_nm_layer(Ewds.build(decompose(perforated_cube(seed))))
    ew = nm.ewds
    harvest = sorted(pinch_suspects(ew).union(nm.v_nra))
    random.Random(seed).shuffle(harvest)
    assert build_splitmap(ew, ew.sigma_n, nm.copies_of, harvest) == nm.splitmap
    for key, reps in nm.splitmap.items():
        for cp, seeds in by_copy(ew, key, reps).items():
            for rep in seeds:
                assert rep == min(oracle_walk(ew, set(cp), (rep,)))


def test_fin_facet_is_recorded_from_its_smaller_coface():
    # a fin on the interior triangle (1, 2, 14) of kuhn_cube(2) splits off,
    # so the triangle keeps two copies: a facet of two cube tets, one patch
    # that the smaller tet represents, and a boundary facet of the fin
    rows = kuhn_cube(2).rows()
    rows[49] = (1, 2, 14, 100)
    nm = build_nm_layer(Ewds.build(decompose(Complex(rows))))
    ew = nm.ewds
    stars = [
        (oracle_walk(ew, set(cp), (rep,)), rep)
        for cp, reps in by_copy(ew, (1, 2, 14), nm.splitmap[(1, 2, 14)]).items()
        for rep in reps
    ]
    assert sorted(len(star) for star, _ in stars) == [1, 2]
    assert all(rep == min(star) for star, rep in stars)
    assert nm.splitmap == oracle_splitmap(ew)
    # a triangle dangling from the interior vertex 22 of kuhn_cube(3)
    # splits that vertex, so the harvest holds one copy in a block of 162
    # tets: the rows that hold it are read, and no other
    rows = kuhn_cube(3).rows()
    rows[max(rows) + 1] = (22, 100, 101)
    nm = build_nm_layer(Ewds.build(decompose(Complex(rows))))
    assert len(nm.copies_of[22]) == 2
    assert nm.splitmap == oracle_splitmap(nm.ewds)


def test_build_nm_layer_walks_no_star(monkeypatch, mixed, cones, perforated_cube, perforated_grid):
    # the splitmap reads rows, not stars: with the star walk broken, every
    # layer comes out as before
    complexes = [mixed, cones, perforated_cube(0), perforated_grid(3, 4, 0)]
    tables = [Ewds.build(decompose(c)) for c in complexes]
    want = [build_nm_layer(ew).splitmap for ew in tables]

    def no_star_walk(self, gset, *args):
        raise AssertionError(f"walked the star of {sorted(gset)}")

    monkeypatch.setattr(Ewds, "walk_block", no_star_walk)
    assert [build_nm_layer(ew).splitmap for ew in tables] == want
    assert all(want)


@pytest.mark.parametrize("seed", range(4))
def test_splitmap_matches_oracle_on_perforated_cubes(seed, perforated_cube):
    nm = build_nm_layer(Ewds.build(decompose(perforated_cube(seed))))
    assert nm.splitmap == oracle_splitmap(nm.ewds)


@pytest.mark.parametrize(
    "seed, key, entry",
    [
        (1354, (7, 8), {(7, 8): {1}, (7, 21): {6}}),
        (2813, (1, 4, 5), {(1, 4, 5): {1}, (4, 5, 8): {5}}),
    ],
    ids=["edge", "facet"],
)
def test_two_copies_in_one_component_are_kept(seed, key, entry):
    # one vertex of the key has two copies in the component of the others,
    # which have one copy each, so the key has two copies of one patch
    # there: holding the only copy of a vertex makes a face the only copy
    # of its key only when no vertex of it has a second copy in its
    # component.  The facet case is the one the harvest's skip of
    # single-patch facets must not drop.
    nm = build_nm_layer(Ewds.build(decompose(random_complex(seed, 40, 3))))
    split = [v for v in key if len(nm.copies_of[v]) > 1]
    assert len(split) == 1
    assert by_copy(nm.ewds, key, nm.splitmap[key]) == entry
    assert nm.splitmap == oracle_splitmap(nm.ewds)


@pytest.mark.parametrize("seed", range(2))
def test_each_reading_clause_keeps_a_key(seed, perforated_cube):
    # build_splitmap skips a face smaller than a facet when it holds a
    # single-copy vertex, no twin (a vertex with another copy in its
    # component) and a vertex outside the harvest.  Each clause alone
    # reads some key of these cubes: the harvest clause a key of one copy,
    # the twin clause a key with an unharvested single-copy vertex, and,
    # under a harvest of one vertex, the single-copy clause a key whose
    # vertices all split.
    nm = build_nm_layer(Ewds.build(decompose(perforated_cube(seed))))
    ew = nm.ewds
    sigma_n = ew.sigma_n
    harvest = pinch_suspects(ew).union(nm.v_nra)
    kinds = _copy_kinds(ew, nm.copies_of)
    pinched, twinned, split = [], [], []
    for key, reps in nm.splitmap.items():
        if len(key) > ew.row_layout(reps[0])[0] - 2:
            continue  # a facet
        entry = by_copy(ew, key, reps)
        flags = [{kinds[x] for x in cp} for cp in entry]
        if len(entry) == 1 and flags[0] == {SINGLE}:
            # one copy, two patches: read because every vertex is harvested
            pinched.append(key)
        elif any(
            TWIN in f and any(kinds[x] == SINGLE and sigma_n[x] not in harvest for x in cp)
            for f, cp in zip(flags, entry)
        ):
            # two copies, one of them with a twin beside an unharvested vertex
            twinned.append(key)
        elif len(entry) > 1 and set().union(*flags) == {0}:
            # two copies, every vertex split and no twin
            split.append(key)
    assert pinched and twinned and split
    assert nm.splitmap == oracle_splitmap(ew)
    # a harvest of any vertex reads every key of several copies that holds
    # it, whole, however few of its other vertices are harvested
    for key in split[:5]:
        part = build_splitmap(ew, sigma_n, nm.copies_of, key[:1])
        assert part[key] == nm.splitmap[key]


@pytest.mark.parametrize("seed", range(2))
def test_splitmap_matches_oracle_in_4d(seed, perforated_grid):
    # every vertex of a 4-D block is a pinch suspect, so every row of the
    # block is read, and no star is walked
    nm = build_nm_layer(Ewds.build(decompose(perforated_grid(3, 4, seed))))
    assert nm.ewds.d == 4 and nm.splitmap
    assert nm.splitmap == oracle_splitmap(nm.ewds)
    counter = OpCounter()
    harvest = pinch_suspects(nm.ewds)
    assert build_splitmap(nm.ewds, nm.ewds.sigma_n, nm.copies_of, harvest, counter) == nm.splitmap
    assert counter.visits == 0


@pytest.mark.slow
def test_splitmap_matches_oracle_in_4d_at_scale(perforated_grid):
    # 5**4 cubes less 30 %: 10 512 tops
    nm = build_nm_layer(Ewds.build(decompose(perforated_grid(5, 4, 5))))
    assert nm.splitmap == oracle_splitmap(nm.ewds)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [3, 4])
def test_splitmap_and_queries_match_oracle_in_5d(seed, perforated_grid):
    # 2**5 cubes less 30 %: 2 640 tops, every vertex a pinch suspect; the
    # splitmap and 300 random faces, in every relation, against the oracles
    c = perforated_grid(2, 5, seed)
    nm = build_nm_layer(Ewds.build(decompose(c)))
    assert nm.ewds.d == 5 and nm.ewds.nt == 2640 and nm.splitmap
    assert nm.splitmap == oracle_splitmap(nm.ewds)
    for gamma in random.Random(seed).sample(sorted(c.all_faces()), 300):
        n = len(gamma) - 1
        for m in range(n + 1, 6):
            assert nm.snm_global(gamma, n, m) == oracle_snm(c, gamma, n, m), (gamma, n, m)


def test_empty_harvest_reads_nothing(nm_mixed):
    counter = OpCounter()
    assert build_splitmap(nm_mixed.ewds, nm_mixed.ewds.sigma_n, nm_mixed.copies_of, [], counter) == {}
    assert (counter.visits, counter.expansions, counter.comparisons) == (0, 0, 0)


@pytest.mark.slow
def test_snm_matches_oracle_at_benchmark_scale():
    # kuhn_cube(12) less a seeded 30 % of its tets, the size of the
    # benchmark's perforated mesh: every key of the every-vertex harvest,
    # every pinched vertex and 200 random faces, in every relation, against
    # the scanning oracle
    cube = kuhn_cube(12)
    rng = random.Random(12)
    c = cube.subcomplex(rng.sample(cube.top_ids, round(0.7 * cube.num_tops)))
    dec = decompose(c)
    nm = build_nm_layer(Ewds.build(dec))
    every = build_splitmap(nm.ewds, nm.ewds.sigma_n, nm.copies_of, sorted(nm.copies_of))
    assert _patch_counts(nm.ewds, nm.splitmap) == _patch_counts(nm.ewds, every)
    assert every and dec.splitting_vertices
    sample = (
        sorted(every)
        + [(v,) for v in dec.splitting_vertices]
        + rng.sample(sorted(c.all_faces()), 200)
    )
    for gamma in sample:
        n = len(gamma) - 1
        for m in range(n + 1, 4):
            assert nm.snm_global(gamma, n, m) == oracle_snm(c, gamma, n, m), (gamma, n, m)


def test_snm_global_nonfaces(nm_mixed):
    assert nm_mixed.snm_global((1, 2), 1, 2) == set()
    assert nm_mixed.snm_global((3, 9), 1, 2) == set()
    assert nm_mixed.snm_global((99,), 0, 1) == set()


# Summed OpCounter ticks of snm_global over every face and relation, and of
# build_splitmap over v_nra, on two fixtures.  The walks tally their ticks
# and add them once per call; these totals keep that tally equal to one
# tick per step, which criterion 09 and the benchmark's traced counts rely
# on.  The query totals are those of the walk over the star of each copy of
# gamma, vertices included: one visit per top and one expansion per slot
# outside the copy, with no walk into a copy whose block is too narrow to
# hold an m-face, and one comparison per face-table probe for a gamma that
# is no key; a whole top row misses the table and walks nothing.  The
# harvest walks no star: it reads the rows that hold a harvested copy, and
# patches come from unions of corners, neither of which is counted, so its
# totals are 0.
FROZEN_WORK = {
    "mixed": ((106, 226, 224), (0, 0, 0)),
    "cones": ((756, 1728, 1557), (0, 0, 0)),
}


@pytest.mark.parametrize("name", sorted(FROZEN_WORK))
def test_counted_work_is_frozen(name, request):
    src = request.getfixturevalue(name)
    nm = request.getfixturevalue(f"nm_{name}")
    queries, harvest = OpCounter(), OpCounter()
    for gamma in src.all_faces():
        n = len(gamma) - 1
        for m in range(n + 1, src.dim + 1):
            nm.snm_global(gamma, n, m, queries)
    build_splitmap(nm.ewds, nm.ewds.sigma_n, nm.copies_of, nm.v_nra, harvest)
    counted = [(c.visits, c.expansions, c.comparisons) for c in (queries, harvest)]
    assert counted == list(FROZEN_WORK[name])


# sha256 prefixes, per fixture, of every relation on every face: gamma, n,
# m, the sorted answer and the query's own OpCounter ticks, gamma
# ascending.  Taken while the face table's row list still ran parallel to
# TVP, before each top's row became one tuple.
FROZEN_ANSWERS = {
    "mixed": "c64e89cb1668119dab3ba17f678feb09",
    "cones": "5c29e44b505c9b462e9690be07a2e177",
    "pinched_edge_cone": "dd040fee8799e09a2fa8984ba1fa2662",
    "perforated_cube(0)": "15ac3babb319e1dd3e6ccf416363c767",
}


def answers_digest(src):
    nm = build_nm_layer(Ewds.build(decompose(src)))
    h = hashlib.sha256()
    for gamma in sorted(src.all_faces()):
        n = len(gamma) - 1
        for m in range(n + 1, src.dim + 1):
            c = OpCounter()
            got = sorted(nm.snm_global(gamma, n, m, c))
            h.update(repr((gamma, n, m, got, c.visits, c.expansions, c.comparisons)).encode())
    return h.hexdigest()[:32]


@pytest.mark.parametrize("name", sorted(FROZEN_ANSWERS))
def test_answers_and_counted_work_are_frozen(name, request):
    if name == "perforated_cube(0)":
        src = request.getfixturevalue("perforated_cube")(0)
    else:
        src = request.getfixturevalue(name)
    assert answers_digest(src) == FROZEN_ANSWERS[name]


def test_snm_guards(nm_mixed):
    with pytest.raises(BadRelation):
        nm_mixed.snm_global((6, 8), 1, 1)
    with pytest.raises(BadRelation):
        nm_mixed.snm_global((6, 8), 2, 3)


# each bad query with the message it raises
BAD_QUERIES = [
    ((), -1, 2, "S-12: need 0 <= n < m"),  # which the vertex count alone would pass
    ((6,), -1, 1, "S-11: need 0 <= n < m"),
    ((6, 8), 1, 2.0, "S12.0: n and m must be ints"),  # m not an int
    ((6, 8), 1.0, 2, "S1.02: n and m must be ints"),
    ((6, 8), True, 2, "STrue2: n and m must be ints"),
    ((6, 8), "1", 2, "S'1'2: n and m must be ints"),
    ((1, "a"), 1, 2, "gamma (1, 'a') is not a set of vertex ids"),  # cannot be sorted
    ([[1], [2]], 1, 2, "gamma [[1], [2]] is not a set of vertex ids"),  # or hashed
    (7, 0, 1, "gamma 7 is not a set of vertex ids"),  # no iterable at all
    ((True,), 0, 1, "gamma (True,) has a vertex id that is not an int"),
    ((6.0,), 0, 1, "gamma (6.0,) has a vertex id that is not an int"),
    ((6, 8.0), 1, 2, "gamma (6, 8.0) has a vertex id that is not an int"),
    # named in gamma's sorted form
    ((6, False), 1, 2, "gamma (False, 6) has a vertex id that is not an int"),
    ((6, 8), 1, True, "S1True: n and m must be ints"),
    ((6, 8), 1, 1, "S11: need 0 <= n < m"),
    ((6, 8), 2, 1, "S21: need 0 <= n < m"),
    # gamma of the wrong length, counted once duplicates are dropped
    ((6, 8), 2, 3, "S23: gamma needs 3 distinct vertices, got 2"),
    ((9, 9), 1, 2, "S12: gamma needs 2 distinct vertices, got 1"),
    ((6, 8, 9), 1, 2, "S12: gamma needs 2 distinct vertices, got 3"),
    # gamma's own faults come first, whatever n and m are
    ((1, "a"), 1.0, 2, "gamma (1, 'a') is not a set of vertex ids"),
    ((6.0,), 1, 1, "gamma (6.0,) has a vertex id that is not an int"),
]
# 2.0 == 2 and True == 1, so a query's message is found by its repr
BAD_QUERY_MESSAGE = {repr(q[:3]): q[3] for q in BAD_QUERIES}


@pytest.mark.parametrize("gamma, n, m", [q[:3] for q in BAD_QUERIES])
def test_bad_query_arguments_raise_bad_relation(nm_mixed, gamma, n, m):
    with pytest.raises(BadRelation) as raised:
        nm_mixed.snm_global(gamma, n, m)
    assert str(raised.value) == BAD_QUERY_MESSAGE[repr((gamma, n, m))]


def test_stats_mixed(nm_mixed):
    st = nm_mixed.stats()
    assert st["NS"] == 3 and st["NC"] == 6
    assert st["NSP"] == 5
    assert st["phi"] == 50
    assert st["H_hat"] == pytest.approx(1263.0837161, rel=1e-9)


def test_stats_identity_complex(fan):
    nm = build_nm_layer(Ewds.build(decompose(fan)))
    st = nm.stats()
    assert st["NS"] == 0 and st["NC"] == 0
    assert st["NSP"] == 0 and st["phi"] == 0
    assert st["H_hat"] == 0.0


def test_nsp_tops(nm_mixed):
    assert nm_mixed.nsp_tops() == {4, 5, 6, 8, 9}


def test_nsp_tops_are_the_stars_of_the_v_nra_copies(mixed, cones, perforated_cube):
    # NSP is read off the rows: it must equal the union of the floods over
    # the star of every copy of a v_nra vertex, each from its VTSTAR top
    for src in (mixed, cones, *map(perforated_cube, range(4))):
        nm = build_nm_layer(Ewds.build(decompose(src)))
        ew = nm.ewds
        stars = set()
        for v in nm.v_nra:
            for vp in nm.copies_of[v]:
                stars |= oracle_walk(ew, {vp}, (ew.vtstar[vp],))
        assert nm.nsp_tops() == stars
    assert stars
