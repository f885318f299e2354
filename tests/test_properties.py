"""Seeded and property-based invariants over random complexes."""

import random
from itertools import combinations
from operator import sub

import pytest
from hypothesis import given, settings, strategies as st

from nmdecomp.complexes import (
    Complex,
    canonical_pairs,
    corner_layout,
    facet_slots,
    format_tv,
    parse_tv,
    simplex,
    twice_chi_misses,
)
from nmdecomp.decompose import DecompositionResult, decompose
from nmdecomp.errors import InvalidComplex, NotInTrie, NotIqm, TopologyError
from nmdecomp.fixtures import load_text, load_tv
from nmdecomp.gluing import GluingState, run_glue_script
from nmdecomp.nonmanifold import (
    SINGLE,
    TWIN,
    _copy_kinds,
    build_ft_trie,
    build_nm_layer,
    build_sigma_maps,
    build_splitmap,
    pinch_suspects,
    v_nra_vertices,
)
from nmdecomp.oracle import (
    oracle_decompose,
    oracle_snm,
    oracle_splitmap,
    oracle_star,
    oracle_walk,
    random_complex,
)
from nmdecomp.winged import BOTTOM, DIAMOND, Ewds, parse_dump
from helpers import (
    by_copy,
    component_complexes,
    label_rows,
    order_of,
    packed,
    packed_ids,
    reference_face_tops,
    reference_facet_slots,
    reference_twice_chi_misses,
)
from test_implicit import assert_matches_reference

seeds = st.integers(min_value=0, max_value=10_000)
dims = st.integers(min_value=1, max_value=4)


def draw(seed, d=3, max_tops=12):
    return random_complex(seed=seed, max_tops=max_tops, d=d)


def oracle_iqm(k):
    """The reference for `Complex.is_iqm`: regular, and left whole by the
    recursive splitter."""
    return k.is_regular() and oracle_decompose(k).is_identity()


def lab_decomposition(c, rng, veqs=0, glued=0.5):
    """A gluing-lab decomposition of c: the share glued of its canonical
    pairs, drawn at random, glued with pmglue, then veqs random veq
    instructions on tops that share a vertex."""
    state = GluingState(c)
    pairs = sorted(map(sorted, canonical_pairs(c)))
    for pair in rng.sample(pairs, int(len(pairs) * glued)):
        state.pmglue(*pair)
    sharing = [
        (t1, t2, sorted(set(c.row(t1)) & set(c.row(t2))))
        for t1, t2 in combinations(c.top_ids, 2)
        if set(c.row(t1)) & set(c.row(t2))
    ]
    for _ in range(veqs if sharing else 0):
        t1, t2, shared = rng.choice(sharing)
        state.veq(t1, t2, rng.choice(shared))
    return state.current_decomposition()


def assert_layer_matches_oracle(dec):
    """Every relation on every face of dec's source, answered by the layer
    packed from dec, equals `oracle_snm`."""
    c = dec.source
    nm = build_nm_layer(Ewds.build(dec))
    for gamma in sorted(c.all_faces()):
        n = len(gamma) - 1
        for m in range(n + 1, c.dim + 1):
            assert nm.snm_global(gamma, n, m) == oracle_snm(c, gamma, n, m), (gamma, n, m)


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
    for comp in component_complexes(dec):
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
@given(seeds, dims, seeds)
def test_row_store_ignores_insertion_order(seed, d, order):
    c = draw(seed, d, max_tops=30)
    rng = random.Random(order)
    rows = list(c.rows().items())
    rng.shuffle(rows)
    shuffled = Complex(dict(rows))
    assert shuffled == c and hash(shuffled) == hash(c)
    assert list(shuffled.rows().items()) == list(c.rows().items())
    assert shuffled.top_ids == c.top_ids == sorted(t for t, _ in rows)
    assert format_tv(shuffled) == format_tv(c)
    ids = list(c.top_ids)
    rng.shuffle(ids)
    assert c.subcomplex(ids) == c
    assert parse_tv(format_tv(c)) == c
    # nabla is a new flat array over the source's ids and offsets
    dec = decompose(shuffled)
    assert corner_layout(dec.nabla)[1] is corner_layout(dec.source)[1]
    assert dec.nabla.top_ids is dec.source.top_ids


@settings(max_examples=100, deadline=None)
@given(seeds, dims, st.integers(-50, 50), st.integers(-50, 50))
def test_format_tv_writes_what_parse_tv_reads(seed, d, top_shift, vertex_shift):
    # ids of any sign: format_tv raises, for a negative id alone, or writes
    # the text that parse_tv reads back as the same rows in labels
    c = draw(seed, d)
    c = Complex({t + top_shift: [v + vertex_shift for v in r] for t, r in c.rows().items()})
    try:
        text = format_tv(c)
    except InvalidComplex:
        assert c.top_ids[0] < 0 or c.vertices[0] < 0
        return
    assert label_rows(parse_tv(text)) == label_rows(c)


@settings(max_examples=60, deadline=None)
@given(seeds, dims, seeds)
def test_copy_labels_read_back(seed, d, relabel):
    # tokens that copy labels could take, numerals among them, some with
    # leading zeros, label the draw; its decomposition is written and read
    # back as it is, and its labels stay unique
    c = draw(seed, d)
    pool = [*map(str, range(60)), "070", "0061", "00100"]  # no two name one vertex
    if relabel % 2:  # else a file of numerals
        pool += [f"{x}{s}" for x in ("a", "b") for s in ("", "_2", "_3")] + ["40_2", "40_3"]
    tokens = dict(zip(c.vertices, random.Random(relabel).sample(pool, c.num_vertices)))
    rows = c.rows().items()
    src = parse_tv("".join(f"simplex {t}: {' '.join(map(tokens.get, r))}\n" for t, r in rows))
    nabla = decompose(src).nabla
    labels = list(map(nabla.label_of, nabla.vertices))
    assert len(set(labels)) == len(labels)
    assert label_rows(parse_tv(format_tv(nabla))) == label_rows(nabla)


@settings(max_examples=60, deadline=None)
@given(seeds, dims, seeds)
def test_decomposition_is_unique_under_relabelling(seed, d, relabel):
    # injective new vertex and top ids, each row and the order of the rows
    # shuffled: the standard decomposition is the same, mapped back
    c = draw(seed, d, max_tops=30)
    rng = random.Random(relabel)
    vmap = dict(zip(c.vertices, rng.sample(range(1, 5 * c.num_vertices + 1), c.num_vertices)))
    tmap = dict(zip(c.top_ids, rng.sample(range(1, 5 * c.num_tops + 1), c.num_tops)))
    rows = [(tmap[t], rng.sample([vmap[v] for v in c.row(t)], len(c.row(t)))) for t in c.top_ids]
    rng.shuffle(rows)
    vold = {new: old for old, new in vmap.items()}.__getitem__
    told = {new: old for old, new in tmap.items()}.__getitem__

    def summary(src, vold, told):
        # the (top, source vertex) corners of each vertex of nabla, in c's ids
        dec = decompose(src)
        by_copy = {}
        for t in dec.nabla.top_ids:
            for x in dec.nabla.row(t):
                by_copy.setdefault(x, set()).add((told(t), vold(dec.sigma[x])))
        corners = {frozenset(cl) for cl in by_copy.values()}
        size = len(Ewds.build(dec).dump_bytes())
        return corners, dec.ns, dec.nc, dec.cc, len(dec.components), size

    def same(x):
        return x

    assert summary(Complex(dict(rows)), vold, told) == summary(c, same, same)


@settings(max_examples=60, deadline=None)
@given(seeds, dims)
def test_is_iqm_matches_oracle(seed, d):
    # is_iqm counts the corner classes that decompose also glues, so check
    # it against the recursive splitter; random halves make both outcomes
    c = draw(seed, d)
    rng = random.Random(seed)
    half = c.subcomplex(rng.sample(c.top_ids, max(1, c.num_tops // 2)))
    for x in (c, half):
        assert x.is_iqm() == oracle_iqm(x)


@settings(max_examples=60, deadline=None)
@given(seeds, dims)
def test_renumbering_rejects_exactly_non_iqm_components(seed, d):
    # the encoding checks results that decompose did not build where it
    # packs them: Ewds.build raises NotIqm exactly when the recursive
    # splitter finds a component that is not IQM.  Hand-built
    # decompositions, whose components need not be IQM or regular, make
    # both outcomes; the packed ones renumber as the reference does, whose
    # per-vertex facet floods are the independent check of the tables
    c = draw(seed, d)
    rng = random.Random(seed)
    half = c.subcomplex(rng.sample(c.top_ids, max(1, c.num_tops // 2)))
    for x in (c, half):
        fake = DecompositionResult.from_parts(x, x, {v: v for v in x.vertices})
        if all(map(oracle_iqm, component_complexes(fake))):
            assert_matches_reference(Ewds.build(fake), fake)
        else:
            with pytest.raises(NotIqm):
                Ewds.build(fake)


@settings(max_examples=40, deadline=None)
@given(seeds, dims)
def test_pm_glued_lab_layers_match_oracle(seed, d):
    # gluing a random half of the canonical pairs gives IQM components,
    # which Ewds.build checks and packs; every relation on every face of
    # the source is answered as the brute-force scan answers it
    rng = random.Random(seed)
    dec = lab_decomposition(draw(seed, d), rng)
    assert not dec.iqm and all(map(oracle_iqm, component_complexes(dec)))
    assert_layer_matches_oracle(dec)


@settings(max_examples=60, deadline=None)
@given(seeds, dims, st.integers(min_value=1, max_value=3))
def test_lab_layers_are_packed_exactly_when_iqm(seed, d, veqs):
    # veq instructions can pinch a component or join tops of several
    # dimensions: Ewds.build raises NotIqm exactly when the recursive
    # splitter finds such a component, and every layer it packs answers
    # as the brute-force scan does
    rng = random.Random(seed)
    dec = lab_decomposition(draw(seed, d), rng, veqs)
    if all(map(oracle_iqm, component_complexes(dec))):
        assert_layer_matches_oracle(dec)
    else:
        with pytest.raises(NotIqm):
            Ewds.build(dec)


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
        if order_of(c, probe) == 0 and len(probe) == 2:
            assert nm.snm_global(probe, 1, min(2, d)) == set() or d < 2


@settings(max_examples=25, deadline=None)
@given(seeds, dims)
def test_splitmap_complete_over_v_nra(seed, d):
    # harvesting only the v_nra stars misses no key and no copy that
    # harvesting every vertex star finds; representatives may differ
    c = draw(seed, d, max_tops=10)
    ew = Ewds.build(decompose(c))
    sigma_n, copies_of = ew.sigma_n, build_sigma_maps(ew)
    nra = v_nra_vertices(ew, copies_of)
    some = build_splitmap(ew, sigma_n, copies_of, nra)
    every = build_splitmap(ew, sigma_n, copies_of, sorted(copies_of))
    assert {k: set(by_copy(ew, k, v)) for k, v in some.items()} == {
        k: set(by_copy(ew, k, v)) for k, v in every.items()
    }


@settings(max_examples=60, deadline=None)
@given(seeds, dims)
def test_splitmap_equals_every_vertex_harvest(seed, d):
    # the layer harvests v_nra and the pinch suspects only; harvesting every
    # vertex finds the same keys, copies and number of patches per copy
    nm = build_nm_layer(Ewds.build(decompose(draw(seed, d, max_tops=30))))
    ew = nm.ewds
    every = build_splitmap(ew, ew.sigma_n, nm.copies_of, sorted(nm.copies_of))
    assert {
        k: {cp: len(r) for cp, r in by_copy(ew, k, reps).items()}
        for k, reps in nm.splitmap.items()
    } == {k: {cp: len(r) for cp, r in by_copy(ew, k, reps).items()} for k, reps in every.items()}


@settings(max_examples=60, deadline=None)
@given(seeds, dims)
def test_splitmap_matches_oracle(seed, d):
    # the layer's splitmap, representatives included, equals the one that
    # walks the patch of every face of every top
    nm = build_nm_layer(Ewds.build(decompose(draw(seed, d, max_tops=30))))
    assert nm.splitmap == oracle_splitmap(nm.ewds)


@settings(max_examples=60, deadline=None)
@given(seeds, dims)
def test_copy_kinds_match_the_components_vertices(seed, d):
    # _copy_kinds finds a copy's component by bisecting Ewds.comp_first, and
    # agrees with the components' own vertex lists.  A sigma that merges
    # vertices of c, with c as its own nabla, describes no decomposition of
    # c, and from_parts rejects it.  A gluing-lab decomposition of c is
    # packed when IQM and raises NotIqm when not; with three quarters of the
    # pairs glued, some draws keep two copies of a vertex in one component
    c = draw(seed, d, max_tops=20)
    rng = random.Random(seed)
    vs = c.vertices
    targets = vs[: max(1, len(vs) // 3)]
    sigma = {v: rng.choice(targets) if rng.random() < 0.4 else v for v in vs}
    decs = [lab_decomposition(c, rng, veqs=rng.randint(0, 1), glued=0.75)]
    if any(x != v for v, x in sigma.items()):
        with pytest.raises(InvalidComplex):
            DecompositionResult.from_parts(c, c, sigma)
    else:
        decs.append(DecompositionResult.from_parts(c, c, sigma))
    for dec in decs:
        if not all(k.is_iqm() for k in component_complexes(dec)):
            with pytest.raises(NotIqm):
                Ewds.build(dec)
            continue
        ew = Ewds.build(dec)
        _, vertices = packed_ids(dec)
        copies_of = build_sigma_maps(ew)
        comps = enumerate(component_complexes(dec))
        comp_of = {v: ci for ci, comp in comps for v in comp.vertices}
        want = bytearray(ew.nv + 1)
        for cs in copies_of.values():
            comps = [comp_of[vertices[x]] for x in cs]
            for x, ci in zip(cs, comps):
                want[x] = SINGLE if len(cs) == 1 else TWIN if comps.count(ci) > 1 else 0
        assert _copy_kinds(ew, copies_of) == want


@settings(max_examples=40, deadline=None)
@given(seeds, dims)
def test_splitmap_ignores_harvest_order(seed, d):
    # shuffling the harvested vertices leaves the splitmap as it is, down to
    # its representatives, which are the smallest tops of their patches
    nm = build_nm_layer(Ewds.build(decompose(draw(seed, d, max_tops=30))))
    ew = nm.ewds
    harvest = sorted(pinch_suspects(ew).union(nm.v_nra))
    random.Random(seed).shuffle(harvest)
    assert build_splitmap(ew, ew.sigma_n, nm.copies_of, harvest) == nm.splitmap
    for key, reps in nm.splitmap.items():
        for cp, seeds in by_copy(ew, key, reps).items():
            for rep in seeds:
                assert rep == min(oracle_walk(ew, set(cp), (rep,)))


@settings(max_examples=40, deadline=None)
@given(seeds, dims)
def test_ewds_tables_consistent(seed, d):
    c = draw(seed, d)
    dec = decompose(c)
    ew = Ewds.build(dec)
    tops, vertices = packed_ids(dec)
    # TV rows are the component rows under the vertex repack
    for told in dec.nabla.top_ids:
        t = packed(tops, told)
        assert ew.row_of(t) == tuple(packed(vertices, v) for v in dec.nabla.row(told))
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
            order = len(oracle_star(dec.nabla, [vertices[w] for w in facet]))
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
    tops, vertices = packed_ids(dec)
    for vold in dec.nabla.vertices:
        v = packed(vertices, vold)
        got = sorted(oracle_walk(ew, {v}, (ew.vtstar[v],)))
        want = sorted(packed(tops, t) for t in oracle_star(dec.nabla, [vold]))
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
    # every face but a vertex or a whole top row resolves to a top spanning it
    c = draw(seed, max_tops=10)
    dec = decompose(c)
    nm = build_nm_layer(Ewds.build(dec))
    old, _ = packed_ids(dec)
    tops = {tuple(sorted(c.row(t))) for t in c.top_ids}
    for gamma in sorted(c.all_faces()):
        if len(gamma) == 1 or gamma in tops:
            with pytest.raises(NotInTrie):
                nm.trie.lookup(gamma)
            continue
        t = nm.trie.lookup(gamma)
        assert set(gamma) <= set(c.row(old[t]))


@settings(max_examples=60, deadline=None)
@given(seeds, dims)
def test_face_table_and_row_list(seed, d):
    # the row list holds, at each packed top id, that top's sorted source
    # row as one tuple, and the face table's keys are exactly the faces of
    # 2..w-1 vertices of some width-w top
    c = draw(seed, d)
    nm = build_nm_layer(Ewds.build(decompose(c)))
    ew, rows = nm.ewds, nm.trie.rows
    sigma_n = ew.sigma_n
    assert len(rows) == ew.nt + 1 and rows[0] == ()
    for t in range(1, ew.nt + 1):
        assert type(rows[t]) is tuple
        assert rows[t] == tuple(sorted(sigma_n[x] for x in ew.row_of(t)))
    proper = set()
    for t in c.top_ids:
        row = sorted(c.row(t))
        for r in range(2, len(row)):
            proper.update(combinations(row, r))
    assert set(nm.trie.faces) == proper


def assert_kernels_match_reference(c):
    """`facet_slots` over c's rows and over the packed rows, and the face
    table and row list of `build_ft_trie`, equal their generic loops in
    `helpers`, key order and kept top included."""
    flat, start = corner_layout(c)
    layouts = [(flat, list(zip(start, map(sub, start[1:], start))))]
    ew = Ewds.build(decompose(c))
    for h, (w, off) in enumerate(ew.block_layouts):
        tops = range(ew.tbase[h], ew.tbase[h + 1])
        layouts.append((ew.tvp, [(off + t * w, w) for t in tops]))
    for flat, rows in layouts:
        slots = facet_slots(flat, rows)
        assert list(slots.items()) == list(reference_facet_slots(flat, rows).items())
    ft = build_ft_trie(ew)
    faces, rows = reference_face_tops(ew)
    assert list(ft.faces.items()) == list(faces.items())
    assert ft.rows == rows


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=6))
def test_unrolled_kernels_match_generic_loops(seed, d):
    # tets and triangles take unrolled branches, every other width the
    # generic loop; random complexes mix widths within one complex
    assert_kernels_match_reference(draw(seed, d, max_tops=30))


def test_unrolled_kernels_match_generic_loops_on_meshes(perforated_cube, perforated_grid):
    # tet meshes with many shared facets, and a 4-D grid of width-5 rows
    assert_kernels_match_reference(perforated_cube(0))
    assert_kernels_match_reference(perforated_grid(3, 4, 0))


@st.composite
def tet_blocks(draw):
    """(flat, lo, hi, boundary, n): tet rows of 4 distinct vertices below n
    after a prefix of lo slots, and a subset of their slots as boundary."""
    n = draw(st.integers(min_value=4, max_value=12))
    vertices = st.lists(st.integers(0, n - 1), min_size=4, max_size=4, unique=True)
    rows = draw(st.lists(vertices, max_size=40))
    lo = draw(st.integers(min_value=0, max_value=3))
    flat = [0] * lo + [v for row in rows for v in row]
    slots = range(lo, len(flat))
    boundary = draw(st.lists(st.sampled_from(slots), unique=True) if slots else st.just([]))
    return flat, lo, len(flat), boundary, n


@settings(max_examples=200, deadline=None)
@given(tet_blocks())
def test_twice_chi_edges_as_ints_match_the_tuple_set(block):
    assert twice_chi_misses(*block) == reference_twice_chi_misses(*block)


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
        assert v in ew.row_of(ew.vtstar[v])


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
                assert ew.vtstar[v] == min(cands)[1]
                break
        else:
            raise AssertionError(f"vertex {v} lies in no top")


@settings(max_examples=60, deadline=None)
@given(seeds, dims)
def test_exploded_gluing_matches_decompose(seed, d):
    # the gluing lab's corner union-find and decompose's facet pass agree
    c = draw(seed, d)
    st = GluingState(c)
    for pair in sorted(canonical_pairs(c), key=sorted):
        st.pmglue(*sorted(pair))
    got, want = st.current_decomposition(), decompose(c)
    assert got.sigma == want.sigma
    assert got.nabla.rows() == want.nabla.rows()
    assert [x.top_ids for x in got.components] == [x.top_ids for x in want.components]
    assert got.cc == want.cc


TV_FILES = ["fix_a.tv", "fix_b.tv", "fix_c.tv", "fix_d.tv", "fix_e.tv", "fix_f.tv", "fix_g.tv"]
edits = st.lists(
    st.tuples(
        st.sampled_from("rid"),  # replace, insert or delete one character
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(list("0123456789 :\n\t-#_simplex")),
    ),
    min_size=1,
    max_size=6,
)


def _mutated(text, edits):
    for op, pos, ch in edits:
        pos %= len(text) + 1
        if op == "r":
            text = text[:pos] + ch + text[pos + 1 :]
        elif op == "i":
            text = text[:pos] + ch + text[pos:]
        else:
            text = text[:pos] + text[pos + 1 :]
    return text


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TV_FILES), edits)
def test_mutated_tv_raises_only_topology_errors(name, edits):
    # a corrupted .tv text either builds the whole layer or fails with a
    # typed library error, never a bare exception
    text = _mutated(load_text(name), edits)
    try:
        build_nm_layer(Ewds.build(decompose(parse_tv(text))))
    except TopologyError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["fix_c", "fix_g"]), edits)
def test_mutated_glue_script_raises_only_topology_errors(name, edits):
    # a corrupted script runs, logging a failed instruction as an error
    # event, or fails with a typed library error; any other exception is a
    # bug in a glue op and must surface
    text = _mutated(load_text(f"{name}.glue"), edits)
    try:
        run_glue_script(load_tv(f"{name}.tv"), text)
    except TopologyError:
        pass
