"""Standard decomposition: splitting, copy allocation, component order."""

import random

import pytest

from nmdecomp.complexes import Complex, format_tv, parse_tv
from nmdecomp.decompose import DecompositionResult, copy_label, decompose
from nmdecomp.errors import InvalidComplex
from nmdecomp.meshes import kuhn_cube
from nmdecomp.oracle import oracle_decompose, random_complex
from helpers import component_complexes, label_rows


def test_mixed_rows(mixed):
    dec = decompose(mixed)
    nab = dec.nabla
    assert nab.row(5) == (6, 13, 8)
    assert nab.row(6) == (6, 7, 13)
    assert nab.row(7) == (10, 9, 12, 11)
    assert nab.row(8) == (9, 12, 11, 14)
    assert nab.row(9) == (9, 11, 14, 15)
    # untouched rows survive verbatim
    for t in (1, 2, 3, 4):
        assert nab.row(t) == mixed.row(t)


def test_mixed_sigma(mixed):
    dec = decompose(mixed)
    assert dec.splitting_classes() == {5: (5, 13), 6: (6, 14), 8: (8, 15)}
    assert dec.splitting_vertices == [5, 6, 8]
    assert dec.sigma[13] == 5 and dec.sigma[14] == 6 and dec.sigma[15] == 8
    # sigma is total on the decomposed vertex set
    assert set(dec.sigma) == set(dec.nabla.vertices)
    assert dec.ns == 3
    assert dec.nc == 6


def test_mixed_components(mixed):
    dec = decompose(mixed)
    assert [c.top_ids for c in dec.components] == [[1], [2], [3, 4], [5, 6], [7, 8, 9]]
    assert dec.cc == [2, 1, 1, 1]
    assert not dec.is_identity()


@pytest.mark.parametrize("name", ["mixed", "bouquet", "random-d4"])
def test_decompose_builds_one_complex(name, request, monkeypatch):
    # the components are runs of nabla's tops: nabla is the one Complex that
    # decompose builds, and no component is sliced out of it
    c = random_complex(4, 40, 4) if name == "random-d4" else request.getfixturevalue(name)
    made = []
    real_set = Complex._set

    def counted(self, *args):
        made.append(self)
        return real_set(self, *args)

    def refused(self, top_ids):
        raise AssertionError("decompose built a component as a complex")

    monkeypatch.setattr(Complex, "_set", counted)
    monkeypatch.setattr(Complex, "subcomplex", refused)
    dec = decompose(c)
    assert made == [dec.nabla]
    assert len(dec.components) > 1 and dec.components == sorted(dec.components)
    assert sorted(t for k in dec.components for t in k.top_ids) == c.top_ids
    monkeypatch.undo()
    for comp, sub in zip(dec.components, component_complexes(dec)):
        assert comp.dim == sub.dim and comp.top_ids == sub.top_ids


def test_mixed_components_are_iqm(mixed):
    for comp in component_complexes(decompose(mixed)):
        assert comp.classify().iqm


def test_copy_ordering_bouquet(bouquet):
    # four edges at one splitting vertex; copies ascend with component order
    dec = decompose(bouquet)
    assert dec.splitting_classes() == {5: (5, 6, 7, 8)}
    assert len(dec.components) == 4
    assert dec.cc == [0, 4]


def test_two_edges(two_edges):
    dec = decompose(two_edges)
    classes = dec.splitting_classes()
    assert list(classes) == [5]
    assert classes[5] == (5, 6)
    assert len(dec.components) == 2


def test_identity_on_iqm(fan, cones, pinched):
    for c in (fan, cones, pinched):
        dec = decompose(c)
        assert dec.is_identity()
        assert dec.nabla.rows() == c.rows()
        assert len(dec.components) == 1
        assert dec.ns == 0 and dec.nc == 0


def test_fresh_ids_above_max(mixed, bouquet):
    for c in (mixed, bouquet):
        dec = decompose(c)
        top = max(c.vertices)
        fresh = [v for v in dec.nabla.vertices if v not in set(c.vertices)]
        assert all(v > top for v in fresh)
        assert sorted(fresh) == list(range(top + 1, top + 1 + len(fresh)))


def test_paste_back_recovers_source(mixed, bouquet, two_edges):
    for c in (mixed, bouquet, two_edges):
        dec = decompose(c)
        back = {
            t: tuple(dec.sigma[v] for v in dec.nabla.row(t)) for t in dec.nabla.top_ids
        }
        assert back == c.rows()


def test_matches_oracle(mixed, bouquet, two_edges, claw):
    for c in (mixed, bouquet, two_edges, claw):
        fast, slow = decompose(c), oracle_decompose(c)
        assert fast.sigma == slow.sigma
        assert fast.nabla.rows() == slow.nabla.rows()


@pytest.mark.parametrize("seed", range(10))
def test_matches_oracle_on_perforated_cubes(seed, perforated_cube):
    c = perforated_cube(seed)
    fast, slow = decompose(c), oracle_decompose(c)
    assert fast.ns > 100
    assert fast.sigma == slow.sigma
    assert fast.nabla.rows() == slow.nabla.rows()
    assert [comp.top_ids for comp in fast.components] == [
        comp.top_ids for comp in slow.components
    ]


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(12, 17))
def test_matches_oracle_at_benchmark_scale(seed):
    # kuhn_cube(12) less a seeded 30 % of its tets, the size of the
    # benchmark's perforated mesh, with over a thousand splitting vertices;
    # the recursive oracle takes 2-5 s per draw here
    cube = kuhn_cube(12)
    rng = random.Random(seed)
    c = cube.subcomplex(rng.sample(cube.top_ids, round(0.7 * cube.num_tops)))
    fast, slow = decompose(c), oracle_decompose(c)
    assert fast.ns > 1000
    assert fast.sigma == slow.sigma
    assert fast.nabla.rows() == slow.nabla.rows()
    assert [comp.top_ids for comp in fast.components] == [
        comp.top_ids for comp in slow.components
    ]


def test_copy_labels_numeric_vs_tokens(mixed, bouquet):
    dec = decompose(mixed)
    assert dec.nabla.label_of(13) == "13"
    dec = decompose(bouquet)
    # letter fixtures get suffixed copies to stay readable
    lab = dec.nabla.label_of(dec.splitting_classes()[5][1])
    assert lab.endswith("_2")


def test_component_labels_cover_own_vertices(mixed, bouquet):
    # a component keeps no foreign vertex's label, and each of its vertices
    # reads the label it has in nabla, an uncopied one its source's
    star = "simplex 1: 007 1\nsimplex 2: 007 2\nsimplex 3: 007 3\n"
    for c in (mixed, bouquet, parse_tv(star)):
        dec = decompose(c)
        for comp in component_complexes(dec):
            assert set(comp._labels or ()) <= set(comp.vertices)
            for v in comp.vertices:
                assert comp.label_of(v) == dec.nabla.label_of(v)
                if dec.sigma[v] == v:
                    assert comp.label_of(v) == c.label_of(v)


def test_numeric_sources_and_their_nablas_store_no_labels(mixed):
    # a label is kept only where it differs from str() of its vertex
    for c in (mixed, parse_tv("simplex 1: 1 2 3\nsimplex 2: 3 4 5\n")):
        nabla = decompose(c).nabla
        assert c._labels is None and nabla._labels is None
        assert not c.labelled and not nabla.labelled
        assert nabla.num_vertices > c.num_vertices
        assert list(map(nabla.label_of, nabla.vertices)) == list(map(str, nabla.vertices))
    # a copy of "007" takes its fresh id's numeral, which is no label to keep
    nabla = decompose(parse_tv("simplex 1: 007 1\nsimplex 2: 007 2\nsimplex 3: 007 3\n")).nabla
    assert nabla._labels == {7: "007"}
    assert format_tv(nabla) == "simplex 1: 007 1\nsimplex 2: 8 2\nsimplex 3: 9 3\n"


@pytest.mark.parametrize(
    "text",
    [
        # the copy of a would be a_2, the token of vertex 2
        "simplex 1: a b c\nsimplex 2: a d e\nsimplex 3: d a_2\n",
        # the copy of 3 would be 7, the token of vertex 2 in lexicographic order
        "simplex 1: 3 x y\nsimplex 2: 3 a b\nsimplex 3: 7\n",
    ],
)
def test_copy_labels_skip_tokens_in_use(text):
    src = parse_tv(text)
    nabla = decompose(src).nabla
    labels = list(map(nabla.label_of, nabla.vertices))
    assert nabla.num_vertices > src.num_vertices
    assert len(set(labels)) == len(labels) == nabla.num_vertices
    assert label_rows(parse_tv(format_tv(nabla))) == label_rows(nabla)


def test_copy_label_helper():
    assert copy_label("7", 12, 2) == "12"
    assert copy_label("t", 12, 2) == "t_2"


def test_chain_of_triangles_split_midpoint():
    # two triangles sharing only a vertex: that vertex splits
    c = parse_tv("simplex 1: 1 2 3\nsimplex 2: 3 4 5\n")
    dec = decompose(c)
    assert dec.splitting_classes() == {3: (3, 6)}
    assert dec.nabla.row(2) == (6, 4, 5)


def test_edge_pair_sharing_vertex_does_split():
    # h = 0 with exactly two link points does not split (path interior)...
    c = parse_tv("simplex 1: 1 2\nsimplex 2: 2 3\n")
    assert decompose(c).is_identity()
    # ...but three incident edges do
    c = parse_tv("simplex 1: 1 2\nsimplex 2: 2 3\nsimplex 3: 2 4\n")
    dec = decompose(c)
    assert len(dec.splitting_classes()[2]) == 3


def test_isolated_points(two_edges):
    c = parse_tv("simplex 1: 7\nsimplex 2: 9\n")
    dec = decompose(c)
    assert dec.is_identity()
    assert len(dec.components) == 2


def test_component_sort_dim_then_id():
    # a triangle and an edge sharing nothing: edge component first
    c = parse_tv("simplex 1: 1 2 3\nsimplex 2: 5 6\n")
    dec = decompose(c)
    assert [comp.top_ids for comp in dec.components] == [[2], [1]]


def test_from_parts_takes_only_a_decomposition_of_its_source():
    # nabla must have the source's tops, and sigma, defined on nabla's
    # vertices alone, must send each nabla row to the source row of its
    # top, slot by slot
    src = parse_tv("simplex 1: 1 2 3\nsimplex 2: 2 3 4\n")
    split = parse_tv("simplex 1: 1 2 3\nsimplex 2: 5 3 4\n")
    dec = DecompositionResult.from_parts(src, split, {1: 1, 2: 2, 3: 3, 4: 4, 5: 2})
    assert dec.splitting_classes() == {2: (2, 5)}
    ident = {v: v for v in range(1, 6)}
    bad = [
        (src, src, {1: 1, 2: 2, 3: 3}),  # no image of vertex 4
        (src, src, {1: 1, 2: 2, 3: 3, 4: 9}),  # a row of another complex
        (src, src, {1: 1, 2: 2, 3: 3, 4: 4, 9: 2}),  # a copy in no row
        (src, src, None),  # no map at all
        (src, src, "1234"),  # indexable, but no map of vertex ids
        (src, split, {1: 1, 2: 2, 3: 3, 4: 4, 5: 1}),
        (src, parse_tv("simplex 1: 1 3 2\nsimplex 2: 2 3 4\n"), ident),
        (src, parse_tv("simplex 1: 1 2 3\nsimplex 3: 2 3 4\n"), ident),
        (  # the same corners, cut into rows elsewhere
            parse_tv("simplex 1: 1 2\nsimplex 2: 3 4 5\n"),
            parse_tv("simplex 1: 1 2 3\nsimplex 2: 4 5\n"),
            ident,
        ),
        # nothing, as decompose refuses it: Ewds.build would lay out the
        # first block of a table of dimension -1
        (Complex({}), Complex({}), {}),
    ]
    for source, nabla, sigma in bad:
        with pytest.raises(InvalidComplex):
            DecompositionResult.from_parts(source, nabla, sigma)
