"""Non-manifold layer: splitmap, sigma translation, global queries."""

import itertools
import random

import pytest

from nmdecomp.complexes import Complex, resolve_tokens
from nmdecomp.counters import OpCounter
from nmdecomp.decompose import decompose
from nmdecomp.errors import BadRelation, NotIncident, UnknownVertex
from nmdecomp.meshes import kuhn_cube
from nmdecomp.nonmanifold import build_nm_layer, build_splitmap, pinch_suspects, travel_star
from nmdecomp.oracle import oracle_snm, oracle_star
from nmdecomp.winged import Ewds


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
    entry = nm_mixed.splitmap[(6, 8)]
    assert entry == {(6, 8): {5}, (14, 15): {9}}


def test_splitmap_cones(nm_cones, cones):
    dom = sorted(
        tuple(cones.label_of(v) for v in key) for key in nm_cones.splitmap
    )
    assert dom == [("x", "y"), ("x", "y", "z"), ("x", "z"), ("y", "z")]
    xyz = resolve_tokens(cones, ["x", "y", "z"])
    entry = nm_cones.splitmap[xyz]
    # one copy (nothing splits), three patches: one rep per cavity tet
    assert list(entry) == [xyz]
    reps = entry[xyz]
    ew = nm_cones.ewds
    assert sorted(ew.top_old[t] for t in reps) == [34, 35, 36]


def test_travel_star_is_one_patch(nm_cones, cones):
    ew = nm_cones.ewds
    xyz = resolve_tokens(cones, ["x", "y", "z"])
    t34 = ew.top_new[34]
    visited = travel_star(ew, xyz, t34)
    # the diamond mark fences each cavity tet into its own patch
    assert visited == [t34]
    with pytest.raises(NotIncident):
        travel_star(ew, (1, 2), t34)


def test_travel_star_flags_shared(nm_mixed):
    # tops 7,8 share the order-2 triangle {9,12,11}, so the patch of the
    # edge {9,11} spans all three tets
    flags = {}
    a = travel_star(nm_mixed.ewds, (9, 11), 8, flags)
    assert set(a) == {7, 8, 9}
    # flags are per (top, pattern) bits: the first walk marked top 9 too,
    # so reseeding there revisits nothing
    b = travel_star(nm_mixed.ewds, (9, 11), 9, flags)
    assert b == []


def test_snh_given_cones(nm_cones, cones):
    # tops are addressed in packed ids; the cavity tets sit at the tail
    ew = nm_cones.ewds
    xyz = resolve_tokens(cones, ["x", "y", "z"])
    got = nm_cones.snh_given(xyz, ew.top_new[34])
    assert sorted(ew.top_old[t] for t in got) == [34, 35, 36]
    with pytest.raises(NotIncident):
        nm_cones.snh_given(xyz, ew.top_new[1])


def test_snh_given_mixed(nm_mixed):
    # key simplex: reaches both tops of its patch set
    assert nm_mixed.snh_given((6, 8), 5) == [5]
    assert nm_mixed.snh_given((9, 11), 8) == [7, 8, 9]


def test_s0m_global(nm_mixed, mixed):
    for v in mixed.vertices:
        for m in range(1, 4):
            got = nm_mixed.s0m_global(v, m)
            assert got == oracle_snm(mixed, (v,), 0, m)
    with pytest.raises(UnknownVertex):
        nm_mixed.s0m_global(99, 1)


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
    assert dec.ns == 0 and src.is_iqm()
    nm = build_nm_layer(Ewds.build(dec))
    assert nm.v_nra == []
    assert sorted(nm.splitmap) == pinches
    ew = nm.ewds
    for gamma in pinches:
        (reps,) = nm.splitmap[gamma].values()
        assert len(reps) == 2
        star = oracle_star(src, gamma)
        assert len(star) == 4
        for t in star:
            got = nm.snh_given(gamma, ew.top_new[t])
            assert sorted(ew.top_old[u] for u in got) == sorted(star)
        n = len(gamma) - 1
        for m in range(n + 1, src.dim + 1):
            assert nm.snm_global(gamma, n, m) == oracle_snm(src, gamma, n, m)


def _patch_counts(smap):
    """Splitmap shape: key -> copy -> number of patches (representatives
    may differ with the harvest order)."""
    return {key: {cp: len(reps) for cp, reps in entry.items()} for key, entry in smap.items()}


@pytest.mark.parametrize("seed", range(4))
def test_splitmap_equals_every_vertex_harvest_on_perforated_cubes(seed, perforated_cube):
    nm = build_nm_layer(Ewds.build(decompose(perforated_cube(seed))))
    every = build_splitmap(nm.ewds, nm.sigma_n, nm.copies_of, sorted(nm.copies_of))
    assert _patch_counts(nm.splitmap) == _patch_counts(every)


@pytest.mark.parametrize("seed", range(2))
def test_splitmap_ignores_harvest_order_on_perforated_cubes(seed, perforated_cube):
    # the harvest reads the union of the stars in ascending top order, so
    # the order of the vertices changes nothing, and each representative
    # is the smallest top of its patch
    nm = build_nm_layer(Ewds.build(decompose(perforated_cube(seed))))
    ew = nm.ewds
    harvest = sorted(pinch_suspects(ew, nm.sigma_n).union(nm.v_nra))
    random.Random(seed).shuffle(harvest)
    assert build_splitmap(ew, nm.sigma_n, nm.copies_of, harvest) == nm.splitmap
    for entry in nm.splitmap.values():
        for cp, reps in entry.items():
            for rep in reps:
                assert rep == min(travel_star(ew, cp, rep))


def test_fin_facet_is_recorded_from_its_smaller_coface():
    # a fin on the interior triangle (1, 2, 14) of kuhn_cube(2) splits off,
    # so the triangle keeps two copies: a facet of two cube tets, one patch
    # that the smaller tet represents, and a boundary facet of the fin
    rows = kuhn_cube(2).rows()
    rows[49] = (1, 2, 14, 100)
    nm = build_nm_layer(Ewds.build(decompose(Complex(rows))))
    ew = nm.ewds
    stars = [
        (travel_star(ew, cp, rep), rep)
        for cp, reps in nm.splitmap[(1, 2, 14)].items()
        for rep in reps
    ]
    assert sorted(len(star) for star, _ in stars) == [1, 2]
    assert all(rep == min(star) for star, rep in stars)


def test_empty_harvest_reads_nothing(nm_mixed):
    counter = OpCounter()
    assert build_splitmap(nm_mixed.ewds, nm_mixed.sigma_n, nm_mixed.copies_of, [], counter) == {}
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
    every = build_splitmap(nm.ewds, nm.sigma_n, nm.copies_of, sorted(nm.copies_of))
    assert _patch_counts(nm.splitmap) == _patch_counts(every)
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
# build_splitmap over v_nra, on two fixtures.  The floods tally their ticks
# and add them once per call; these totals keep that tally equal to one
# tick per step, which criterion 09 and the benchmark's traced counts rely
# on.  The query totals are those of the walk over gamma's own star, with
# one comparison per face-table probe for a gamma that is no key; the
# harvest totals are its star floods plus the walks of subsets short of a
# facet, as facets need no walk.
FROZEN_WORK = {
    "mixed": ((118, 284, 224), (17, 45, 0)),
    "cones": ((756, 2052, 1557), (216, 570, 0)),
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
    build_splitmap(nm.ewds, nm.sigma_n, nm.copies_of, nm.v_nra, harvest)
    counted = [(c.visits, c.expansions, c.comparisons) for c in (queries, harvest)]
    assert counted == list(FROZEN_WORK[name])


def test_snm_guards(nm_mixed):
    with pytest.raises(BadRelation):
        nm_mixed.snm_global((6, 8), 1, 1)
    with pytest.raises(BadRelation):
        nm_mixed.snm_global((6, 8), 2, 3)


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
