"""Seeded and property-based invariants over random complexes."""

import random
from itertools import combinations

from hypothesis import given, settings, strategies as st

from nmdecomp.complexes import Complex, canonical_pairs, simplex
from nmdecomp.decompose import DecompositionResult, decompose
from nmdecomp.errors import NotIqm
from nmdecomp.gluing import GluingState
from nmdecomp.meshes import kuhn_cube
from nmdecomp.nonmanifold import (
    build_nm_layer,
    build_sigma_maps,
    build_splitmap,
    pinch_suspects,
    travel_star,
    v_nra_vertices,
)
from nmdecomp.oracle import (
    closed_surface_law,
    oracle_decompose,
    oracle_snm,
    oracle_star,
    pseudo_boundary_law,
    random_complex,
)
from nmdecomp.renumber import compute_renumbering
from nmdecomp.winged import BOTTOM, DIAMOND, Ewds, parse_dump

seeds = st.integers(min_value=0, max_value=10_000)
dims = st.integers(min_value=1, max_value=4)


def draw(seed, d=3, max_tops=12):
    return random_complex(seed=seed, max_tops=max_tops, d=d)


@settings(max_examples=60, deadline=None)
@given(seeds, dims)
def test_decompose_matches_oracle(seed, d):
    c = draw(seed, d)
    fast, slow = decompose(c), oracle_decompose(c)
    assert fast.sigma == slow.sigma
    assert fast.nabla.rows() == slow.nabla.rows()
    assert [x.top_ids for x in fast.components] == [x.top_ids for x in slow.components]


@settings(max_examples=60, deadline=None)
@given(seeds, dims)
def test_decomposition_invariants(seed, d):
    c = draw(seed, d)
    dec = decompose(c)
    # every component is an initial quasi-manifold
    for comp in dec.components:
        assert comp.classify().iqm
    # sigma is total and pastes the source back together
    assert set(dec.sigma) == set(dec.nabla.vertices)
    back = {t: tuple(dec.sigma[v] for v in dec.nabla.row(t)) for t in dec.nabla.top_ids}
    assert back == c.rows()
    # fresh copies are allocated contiguously above the source ids
    fresh = sorted(set(dec.nabla.vertices) - set(c.vertices))
    top = max(c.vertices)
    assert fresh == list(range(top + 1, top + 1 + len(fresh)))
    # splitting classes all have >= 2 members and map back to their source
    for v, copies in dec.splitting_classes().items():
        assert len(copies) >= 2
        assert copies[0] == v
        assert all(dec.sigma[cp] == v for cp in copies)


@settings(max_examples=40, deadline=None)
@given(seeds, dims)
def test_decompose_idempotent(seed, d):
    c = draw(seed, d)
    dec = decompose(c)
    assert decompose(dec.nabla).is_identity()


@settings(max_examples=60, deadline=None)
@given(seeds, dims)
def test_is_iqm_matches_oracle(seed, d):
    # is_iqm counts the corner classes that decompose also glues, so check
    # it against the recursive splitter; random halves make both outcomes
    c = draw(seed, d)
    rng = random.Random(seed)
    half = c.subcomplex(rng.sample(c.top_ids, max(1, c.num_tops // 2)))
    for x in (c, half):
        assert x.is_iqm() == (x.is_regular() and oracle_decompose(x).is_identity())


@settings(max_examples=60, deadline=None)
@given(seeds, dims)
def test_renumbering_rejects_exactly_non_iqm_components(seed, d):
    # the packed flood check in compute_renumbering against is_iqm, on
    # hand-built decompositions whose components need not be IQM or regular
    c = draw(seed, d)
    rng = random.Random(seed)
    half = c.subcomplex(rng.sample(c.top_ids, max(1, c.num_tops // 2)))
    for x in (c, half):
        fake = DecompositionResult.from_parts(x, x, {v: v for v in x.vertices})
        expected = any(not k.is_iqm() for k in fake.components)
        try:
            compute_renumbering(Ewds.build(fake))
        except NotIqm:
            assert expected
        else:
            assert not expected


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_snm_global_matches_oracle(seed):
    c = draw(seed)
    nm = build_nm_layer(Ewds.build(decompose(c)))
    d = c.dim
    rng = random.Random(seed)
    faces = sorted(c.all_faces())
    for gamma in rng.sample(faces, min(12, len(faces))):
        n = len(gamma) - 1
        for m in range(n + 1, d + 1):
            assert nm.snm_global(gamma, n, m) == oracle_snm(c, gamma, n, m), (
                gamma, n, m,
            )
    # non-faces answer empty
    pool = sorted(set(c.vertices))
    for _ in range(4):
        probe = simplex(rng.sample(pool, min(2, len(pool))))
        if c.order_of(probe) == 0 and len(probe) == 2:
            assert nm.snm_global(probe, 1, min(2, d)) == set() or d < 2


@settings(max_examples=25, deadline=None)
@given(seeds, dims)
def test_splitmap_complete_over_v_nra(seed, d):
    # harvesting only the v_nra stars misses no key and no copy that
    # harvesting every vertex star finds; representatives may differ
    c = draw(seed, d, max_tops=10)
    ew = Ewds.build(decompose(c))
    sigma_n, copies_of = build_sigma_maps(ew, ew.source)
    nra = v_nra_vertices(ew, sigma_n, copies_of)
    some = build_splitmap(ew, sigma_n, copies_of, nra)
    every = build_splitmap(ew, sigma_n, copies_of, sorted(copies_of))
    assert {k: set(v) for k, v in some.items()} == {
        k: set(v) for k, v in every.items()
    }


@settings(max_examples=60, deadline=None)
@given(seeds, dims)
def test_splitmap_equals_every_vertex_harvest(seed, d):
    # the layer harvests v_nra and the pinch suspects only; harvesting every
    # vertex finds the same keys, copies and number of patches per copy
    nm = build_nm_layer(Ewds.build(decompose(draw(seed, d, max_tops=30))))
    every = build_splitmap(nm.ewds, nm.sigma_n, nm.copies_of, sorted(nm.copies_of))
    assert {k: {cp: len(r) for cp, r in e.items()} for k, e in nm.splitmap.items()} == {
        k: {cp: len(r) for cp, r in e.items()} for k, e in every.items()
    }


@settings(max_examples=40, deadline=None)
@given(seeds, dims)
def test_splitmap_ignores_harvest_order(seed, d):
    # shuffling the harvested vertices leaves the splitmap as it is, down to
    # its representatives, which are the smallest tops of their patches
    nm = build_nm_layer(Ewds.build(decompose(draw(seed, d, max_tops=30))))
    ew = nm.ewds
    harvest = sorted(pinch_suspects(ew, nm.sigma_n).union(nm.v_nra))
    random.Random(seed).shuffle(harvest)
    assert build_splitmap(ew, nm.sigma_n, nm.copies_of, harvest) == nm.splitmap
    for entry in nm.splitmap.values():
        for cp, reps in entry.items():
            for rep in reps:
                assert rep == min(travel_star(ew, cp, rep))


@settings(max_examples=40, deadline=None)
@given(seeds, dims)
def test_ewds_tables_consistent(seed, d):
    c = draw(seed, d)
    dec = decompose(c)
    ew = Ewds.build(dec)
    # TV rows are the component rows under the vertex repack
    for told in dec.nabla.top_ids:
        t = ew.top_new[told]
        assert ew.row_of(t) == tuple(ew.vertex_new[v] for v in dec.nabla.row(told))
    # TT entries are mutual and share the right facet
    for t in range(1, ew.nt + 1):
        row, tt = ew.row_of(t), ew.tt_row_of(t)
        for k, u in enumerate(tt, start=1):
            if u <= 0:
                continue
            facet = set(row) - {row[k - 1]}
            urow, utt = ew.row_of(u), ew.tt_row_of(u)
            j = next(i for i, w in enumerate(urow) if w not in facet)
            assert set(urow) - {urow[j]} == facet
            assert utt[j] == t
    # diamonds sit exactly at facets of order > 2
    for t in range(1, ew.nt + 1):
        row, tt = ew.row_of(t), ew.tt_row_of(t)
        for k, u in enumerate(tt, start=1):
            facet = simplex(set(row) - {row[k - 1]})
            order = len(oracle_star(dec.nabla, [ew.vertex_old[w] for w in facet]))
            if u == DIAMOND:
                assert order > 2
            elif u == BOTTOM and facet:
                assert order == 1
            elif u > 0:
                assert order == 2


@settings(max_examples=40, deadline=None)
@given(seeds, dims)
def test_s0h_is_packed_star(seed, d):
    c = draw(seed, d)
    dec = decompose(c)
    ew = Ewds.build(dec)
    for vold in dec.nabla.vertices:
        got = ew.s0h(ew.vertex_new[vold])
        want = sorted(ew.top_new[t] for t in oracle_star(dec.nabla, [vold]))
        assert got == want


@settings(max_examples=40, deadline=None)
@given(seeds, dims)
def test_dump_roundtrip(seed, d):
    ew = Ewds.build(decompose(draw(seed, d)))
    parsed = parse_dump(ew.dump_bytes())
    assert parsed["tvp"] == ew.tvp[1:]
    assert parsed["ttp"] == ew.ttp[1:]
    assert parsed["vtstar"] == ew.vtstar[1:]


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_trie_lookup_lands_on_incident_top(seed):
    c = draw(seed, max_tops=10)
    nm = build_nm_layer(Ewds.build(decompose(c)))
    ew = nm.ewds
    for gamma in sorted(c.all_faces()):
        if gamma in nm.splitmap:
            continue
        t = nm.trie.lookup(gamma)
        assert set(gamma) <= set(c.row(ew.top_old[t]))


@settings(max_examples=40, deadline=None)
@given(seeds, dims)
def test_component_refinement(seed, d):
    c = draw(seed, d)
    for h in range(c.dim):
        coarse = {t: i for i, g in enumerate(c.h_connected_components(h)) for t in g}
        for g in c.h_connected_components(h + 1):
            assert len({coarse[t] for t in g}) == 1


def bfs_components(c, h):
    """Classes of tops joined by sharing at least h + 1 vertices, by BFS."""
    tops = c.top_ids
    verts = {t: set(c.row(t)) for t in tops}
    seen: set[int] = set()
    out = []
    for t in tops:
        if t in seen:
            continue
        seen.add(t)
        group, queue = [t], [t]
        while queue:
            a = queue.pop(0)
            for b in tops:
                if b not in seen and len(verts[a] & verts[b]) > h:
                    seen.add(b)
                    group.append(b)
                    queue.append(b)
        out.append(sorted(group))
    return out


@settings(max_examples=60, deadline=None)
@given(seeds, dims)
def test_components_match_bfs(seed, d):
    # the oracle's link split uses h_connected_components too, so this BFS,
    # with no union-find, is the component finder's independent check
    c = draw(seed, d, max_tops=20)
    for h in range(d + 1):
        assert c.h_connected_components(h) == bfs_components(c, h)


@settings(max_examples=40, deadline=None)
@given(seeds, dims)
def test_vtstar_incident(seed, d):
    ew = Ewds.build(decompose(draw(seed, d)))
    for v in range(1, ew.nv + 1):
        assert v in ew.row_of(ew.vtstar_of(v))


@settings(max_examples=40, deadline=None)
@given(seeds, dims)
def test_vtstar_is_first_facet_rule(seed, d):
    # VTSTAR[v]: in the lowest block holding v, the smallest coface of the
    # lexicographically first facet containing v (a point is its own facet)
    ew = Ewds.build(decompose(draw(seed, d)))
    for v in range(1, ew.nv + 1):
        for h in range(ew.d + 1):
            cands = [
                (facet, t)
                for t in range(ew.tbase[h], ew.tbase[h + 1])
                for facet in combinations(sorted(ew.row_of(t)), max(h, 1))
                if v in facet
            ]
            if cands:
                assert ew.vtstar_of(v) == min(cands)[1]
                break
        else:
            raise AssertionError(f"vertex {v} lies in no top")


@settings(max_examples=60, deadline=None)
@given(seeds, dims)
def test_exploded_gluing_matches_decompose(seed, d):
    # the gluing lab's corner union-find and decompose's facet pass agree
    c = draw(seed, d)
    st = GluingState.totally_exploded(c)
    for pair in sorted(canonical_pairs(c), key=sorted):
        st.pmglue(*sorted(pair))
    got, want = st.current_decomposition(), decompose(c)
    assert got.sigma == want.sigma
    assert got.nabla.rows() == want.nabla.rows()
    assert [x.top_ids for x in got.components] == [x.top_ids for x in want.components]
    assert got.cc == want.cc


def test_closed_surface_law_on_ball_boundary(fan):
    bnd = {i: f for i, f in enumerate(sorted(fan.boundary()), start=1)}
    surface = Complex(bnd, validate=False)
    assert closed_surface_law(surface)
    assert surface.classify().manifold_le3


def test_pseudo_boundary_law_on_meshes(fan):
    assert pseudo_boundary_law(fan)
    assert pseudo_boundary_law(kuhn_cube(2))
