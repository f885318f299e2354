"""Core complex container: parsing, incidence, classification."""

import pytest

from nmdecomp.complexes import (
    Complex,
    _boundary_cycles,
    format_tv,
    parse_tv,
    resolve_tokens,
    simplex,
)
from nmdecomp.decompose import decompose
from nmdecomp.errors import (
    InvalidComplex,
    NotAFace,
    NotTop,
    ParseError,
    TopologyError,
    UnknownToken,
)


def test_parse_numeric_tokens_keep_ids(fan):
    assert fan.top_ids == [1, 2, 3]
    assert fan.row(1) == (1, 2, 3, 4)
    assert fan.row(3) == (2, 4, 5, 6)
    assert fan.num_vertices == 6


def test_parse_letter_tokens_sorted(cones):
    # letters map to 1..NV lexicographically, so x,y,z land at 19,20,21
    assert cones.num_vertices == 21
    assert resolve_tokens(cones, ["x", "y", "z"]) == (19, 20, 21)
    assert cones.label_of(1) == "a"


def test_parse_roundtrip(fan, cones):
    for c in (fan, cones):
        again = parse_tv(format_tv(c))
        assert again.rows() == c.rows()
        assert again.labels == c.labels


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_tv("simplex 1: a a b\n")
    with pytest.raises(ParseError):
        parse_tv("simplex 1: a b\nsimplex 1: c d\n")
    with pytest.raises(ParseError):
        parse_tv("nonsense\n")
    with pytest.raises(ParseError):
        parse_tv("simplex 1:\n")


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("simplex 1: 01 1 2\n", 1),
        ("simplex 1: 1 2\nsimplex 2: 02 3\n", 2),
        ("# comments only\n\n", None),
        ("", None),
    ],
    ids=["same-line", "across-lines", "comments-only", "empty"],
)
def test_parse_rejects_aliased_tokens_and_empty_files(text, line_no):
    with pytest.raises(ParseError) as exc:
        parse_tv(text)
    assert exc.value.line_no == line_no


@pytest.mark.parametrize(
    "text, line_no, top",
    [
        ("simplex 1: 1 2\nsimplex 2: 1 2 3\n", 1, 1),
        ("# header\nsimplex 1: 1 2 3\n\nsimplex 2: 3 1\n", 4, 2),
        ("simplex 5: a b c\nsimplex 3: a b c\n", 1, 5),
    ],
    ids=["face-first", "face-last", "duplicate-rows"],
)
def test_parse_names_the_line_of_a_non_maximal_simplex(text, line_no, top):
    with pytest.raises(ParseError) as exc:
        parse_tv(text)
    assert exc.value.line_no == line_no
    assert str(exc.value).startswith(f"line {line_no}: stored simplex {top} ")
    assert isinstance(exc.value.__cause__, NotTop) and exc.value.__cause__.top == top


def test_tops_are_maximal():
    with pytest.raises(NotTop):
        Complex({1: (1, 2, 3), 2: (1, 2)})


@pytest.mark.parametrize(
    "make",
    [
        lambda: Complex({1: ()}),
        lambda: Complex({1: (1, 1)}),
        lambda: decompose(Complex({})),
    ],
    ids=["empty-top", "repeated-vertex", "decompose-empty"],
)
def test_bad_input_raises_invalid_complex(make):
    with pytest.raises(InvalidComplex) as info:
        make()
    assert isinstance(info.value, TopologyError)
    assert isinstance(info.value, ValueError)


def test_row_order_preserved(mixed):
    # input order is significant, rows are never sorted on ingest
    assert mixed.row(5) == (6, 5, 8)
    assert mixed.row(7) == (10, 9, 12, 11)


def test_star_and_link(fan):
    assert fan.star([2]) == {1, 2, 3}
    assert fan.star([2, 4, 5]) == {2, 3}
    assert fan.star([1, 5]) == set()
    lk = fan.link_complex([2, 4])
    assert lk.simplex_set() >= {(1, 3), (3, 5), (5, 6)}


def test_order_of(fan):
    assert fan.order_of([2, 4]) == 3
    assert fan.order_of([1]) == 1
    # non-face order is 0 by convention
    assert fan.order_of([1, 6]) == 0


def test_faces_and_counts(fan):
    assert len(fan.faces_of_dim(0)) == 6
    assert len(fan.faces_of_dim(3)) == 3
    counts = fan.face_counts()
    assert counts[0] == 6 and counts[3] == 3


def test_h_connected_components(mixed):
    # the source is vertex-connected across dims except the two bare points
    assert mixed.h_connected_components(0) == [[1], [2], [3, 4, 5, 6, 7, 8, 9]]
    # 2-connectivity needs shared triangles: 7,8 share {9,12,11}, 8,9 {9,11,6}
    assert mixed.h_connected_components(2) == [[1], [2], [3], [4], [5], [6], [7, 8, 9]]


@pytest.mark.parametrize(
    "rows, manifold, cycles",
    [
        ([(1, 2, 3), (1, 3, 4), (1, 4, 5)], True, 1),
        ([(1, 2, 4), (2, 4, 5), (2, 3, 5), (3, 5, 6), (3, 1, 6), (1, 6, 4)], False, 2),
        ([(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 1), (5, 1, 2)], False, 1),
        # vertex 1 has four boundary edges
        ([(1, 2, 3), (1, 4, 5)], False, None),
    ],
    ids=["disk", "annulus", "moebius", "bowtie"],
)
def test_boundary_cycles_under_a_cone(rows, manifold, cycles):
    # the cone's apex 99 has the surface as its link
    surface = Complex(dict(enumerate(rows, start=1)))
    cone = Complex({t: row + (99,) for t, row in enumerate(rows, start=1)})
    assert cone.is_manifold() is manifold
    assert _boundary_cycles(surface) == cycles


def test_refinement_direction(fan, mixed, cones):
    # every (h+1)-class sits inside some h-class
    for c in (fan, mixed, cones):
        for h in range(c.dim):
            coarse = {t: i for i, g in enumerate(c.h_connected_components(h)) for t in g}
            for g in c.h_connected_components(h + 1):
                assert len({coarse[t] for t in g}) == 1


def test_classify_fan(fan):
    fl = fan.classify()
    assert fl.regular and fl.pseudomanifold and fl.quasi_manifold and fl.iqm
    assert fl.manifold_le3 is True


def test_classify_mixed(mixed):
    fl = mixed.classify()
    assert not fl.regular
    assert not fl.pseudomanifold
    assert not fl.iqm


def test_classify_cones(cones):
    fl = cones.classify()
    assert fl.regular
    assert not fl.pseudomanifold
    assert fl.iqm
    assert fl.manifold_le3 is False


def test_classify_pinched(pinched):
    fl = pinched.classify()
    assert fl.regular and fl.pseudomanifold and fl.quasi_manifold and fl.iqm
    assert fl.manifold_le3 is False


def test_non_pseudomanifold_faces(cones, fan):
    npm = cones.non_pseudomanifold_faces()
    xyz = resolve_tokens(cones, ["x", "y", "z"])
    assert set(npm) == {xyz}
    assert npm[xyz] == [34, 35, 36]
    assert fan.non_pseudomanifold_faces() == {}


def test_boundary_and_euler(fan):
    # solid ball: chi = 1, boundary is a 2-sphere worth of triangles
    assert fan.euler_all_faces() == 1
    bnd = fan.boundary()
    assert all(len(f) == 3 for f in bnd)
    assert len(bnd) == 8


def test_star_errors(fan):
    with pytest.raises(NotAFace):
        fan.link_complex([1, 6])
    with pytest.raises(UnknownToken):
        resolve_tokens(fan, ["7"])


def test_subcomplex(mixed):
    sub = mixed.subcomplex([7, 8, 9])
    assert sub.top_ids == [7, 8, 9]
    assert sub.row(7) == mixed.row(7)
    assert sub.dim == 3


def test_simplex_helper():
    assert simplex([3, 1, 2]) == (1, 2, 3)
    assert simplex((5,)) == (5,)
