"""Core complex container: parsing, incidence, classification."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from nmdecomp import complexes
from nmdecomp.complexes import (
    Complex,
    format_tv,
    parse_tv,
    resolve_tokens,
    simplex,
)
from nmdecomp.decompose import decompose
from nmdecomp.oracle import random_complex
from nmdecomp.errors import (
    InvalidComplex,
    NotTop,
    ParseError,
    TopologyError,
    UnknownToken,
)
from helpers import faces_of_dim, order_of


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


def reference_maximality(rows: dict) -> None:
    """The maximality check over a vertex -> tops dict of sets, after the
    row check that Complex makes first."""
    for tid, row in rows.items():
        if len(set(row)) != len(row):
            raise InvalidComplex(f"repeated vertex in simplex {tid}")
    vt: dict = {}
    for tid, row in rows.items():
        for v in row:
            vt.setdefault(v, set()).add(tid)
    for v in vt:
        if type(v) is not int:
            raise InvalidComplex(f"vertex id {v!r} is not an integer")
    for tid, row in rows.items():
        cofaces = set.intersection(*(vt[v] for v in row))
        if len(cofaces) > 1:
            other = min(t for t in cofaces if t != tid)
            raise NotTop(f"stored simplex {tid} is a face of stored simplex {other}", tid)


def _outcome(check, rows):
    try:
        check(rows)
    except (InvalidComplex, NotTop) as exc:
        return type(exc), str(exc), getattr(exc, "top", None)
    return None


# (kind, which top, put the new row first) -> one injected row
injections = st.lists(
    st.tuples(
        st.sampled_from(["duplicate", "face", "not-int", "bool"]),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    ),
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=4),
    injections,
    st.booleans(),
)
def test_maximality_matches_reference(seed, d, inject, empty):
    # duplicates and faces of tops, listed first or last, vertex ids that
    # are no ints or equal an int, and the empty complex
    rng = random.Random(seed)
    rows = {} if empty else random_complex(seed=seed, max_tops=12, d=d).rows()
    for kind, k, first in inject:
        if not rows:
            break
        old = list(rows.values())[k % len(rows)]
        if kind == "duplicate":
            new = tuple(rng.sample(old, len(old)))
        elif kind == "face":
            new = tuple(rng.sample(old, rng.randint(1, len(old))))
        else:
            new = tuple(old[:-1]) + (True if kind == "bool" else f"{old[-1]}x",)
        tid = max(rows) + 1 + k % 5
        rows = {tid: new, **rows} if first else {**rows, tid: new}
    want = _outcome(reference_maximality, rows)
    assert _outcome(Complex, rows) == want
    if not rows or any(type(v) is not int for r in rows.values() for v in r):
        return
    text = "".join(f"simplex {t}: {' '.join(map(str, r))}\n" for t, r in rows.items())
    try:
        parse_tv(text)
    except ParseError as exc:
        line_no = list(rows).index(want[2]) + 1
        assert (exc.line_no, exc.__cause__.top) == (line_no, want[2])
        assert str(exc) == f"line {line_no}: {want[1]}"
    else:
        assert want is None


@pytest.mark.parametrize(
    "make",
    [
        lambda: Complex({1: ()}),
        lambda: Complex({1: (1, 1)}),
        lambda: decompose(Complex({})),
        lambda: Complex({"a": (1,)}),
        lambda: Complex({1: (1, 2)}).star(()),
        lambda: decompose(Complex({1: ("x", "y")})),
    ],
    ids=[
        "empty-top",
        "repeated-vertex",
        "decompose-empty",
        "top-id-not-int",
        "star-of-nothing",
        "vertex-not-int",
    ],
)
def test_bad_input_raises_invalid_complex(make):
    with pytest.raises(InvalidComplex) as info:
        make()
    assert isinstance(info.value, TopologyError)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("row", [None, 5])
def test_row_that_is_no_sequence_names_its_top(row):
    with pytest.raises(InvalidComplex, match="simplex 7 "):
        Complex({7: row})


def test_row_order_preserved(mixed):
    # input order is significant, rows are never sorted on ingest
    assert mixed.row(5) == (6, 5, 8)
    assert mixed.row(7) == (10, 9, 12, 11)


def test_star_and_link(fan):
    assert fan.star([2]) == {1, 2, 3}
    assert fan.star([2, 4, 5]) == {2, 3}
    assert fan.star([1, 5]) == set()


def test_order_of(fan):
    assert order_of(fan, [2, 4]) == 3
    assert order_of(fan, [1]) == 1
    # non-face order is 0 by convention
    assert order_of(fan, [1, 6]) == 0


def test_faces_and_counts(fan):
    assert len(faces_of_dim(fan, 0)) == 6
    assert len(faces_of_dim(fan, 3)) == 3


def test_h_connected_components(mixed):
    # the source is vertex-connected across dims except the two bare points
    assert mixed.h_connected_components(0) == [[1], [2], [3, 4, 5, 6, 7, 8, 9]]
    # 2-connectivity needs shared triangles: 7,8 share {9,12,11}, 8,9 {9,11,6}
    assert mixed.h_connected_components(2) == [[1], [2], [3], [4], [5], [6], [7, 8, 9]]


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


def test_classify_reads_one_facet_pass(monkeypatch, fan, mixed, cones, pinched, bouquet):
    calls = []
    real = complexes.facet_slots
    monkeypatch.setattr(
        complexes, "facet_slots", lambda *a: calls.append(1) or real(*a)
    )
    for c in (fan, mixed, cones, pinched, bouquet):
        calls.clear()
        c.classify()
        assert len(calls) == 1
        calls.clear()
        flags, npm = c.classify_with_faces()
        assert len(calls) == 1
        assert (flags, npm) == (c.classify(), c.non_pseudomanifold_faces())


def test_non_pseudomanifold_faces(cones, fan):
    npm = cones.non_pseudomanifold_faces()
    xyz = resolve_tokens(cones, ["x", "y", "z"])
    assert set(npm) == {xyz}
    assert npm[xyz] == [34, 35, 36]
    assert fan.non_pseudomanifold_faces() == {}


def test_boundary_and_euler(fan):
    # solid ball: its boundary is a 2-sphere worth of triangles
    bnd = fan.boundary()
    assert all(len(f) == 3 for f in bnd)
    assert len(bnd) == 8
    verts = {v for f in bnd for v in f}
    edges = {e for f in bnd for e in combinations(f, 2)}
    assert len(verts) - len(edges) + len(bnd) == 2


def test_star_errors(fan):
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
