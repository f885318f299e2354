"""Interactive gluing lab: corner classes, scripts, lattice membership."""

import pytest

from nmdecomp.complexes import canonical_pairs, parse_tv
from nmdecomp.decompose import decompose
from nmdecomp.errors import (
    NotPseudomanifoldPair,
    NotSharedVertex,
    ParseError,
    VoidInstruction,
)
from nmdecomp.gluing import GluingState, parse_glue_script, run_glue_script


def classes_of(state, v):
    """The corner classes of source vertex v, as sorted top-id lists."""
    return [tops for w, tops in state.corner_classes() if w == v]


def test_exploded_start(claw):
    st = GluingState(claw)
    # one corner class per (top, vertex) incidence
    assert all(len(ts) == 1 for _, ts in st.corner_classes())
    assert st.splitting_vertices() == [
        v for v in claw.vertices if len(classes_of(st, v)) > 1
    ]


def test_veq_merges_single_vertex(claw):
    st = GluingState(claw)
    st.veq(1, 2, 1)  # token j
    assert [1, 2] in classes_of(st, 1)
    # k remains split
    assert all(len(cls) == 1 for cls in classes_of(st, 2))


def test_veq_requires_shared_vertex(claw):
    st = GluingState(claw)
    with pytest.raises(NotSharedVertex):
        st.veq(1, 4, 6)  # q not in top 4


def test_veq_idempotent(claw):
    st = GluingState(claw)
    st.veq(1, 2, 1)
    st.veq(1, 2, 1)  # silently no-ops
    assert [1, 2] in classes_of(st, 1)


def test_glue_merges_all_shared(claw):
    st = GluingState(claw)
    st.glue(1, 2)  # share j and k
    assert [1, 2] in classes_of(st, 1)
    assert [1, 2] in classes_of(st, 2)


def test_glue_disjoint_is_void():
    c = parse_tv("simplex 1: 1 2\nsimplex 2: 3 4\n")
    st = GluingState(c)
    with pytest.raises(VoidInstruction):
        st.glue(1, 2)


def test_pmglue_accepts_order2_facets(claw):
    st = GluingState(claw)
    st.pmglue(2, 4)  # triangles 2,4 share edge {j,l} of order 2
    assert [2, 4] in classes_of(st, 1)


def test_pmglue_rejects_bad_pairs(claw, fan):
    st = GluingState(claw)
    # tops 1,2 share {j,k}, but {j,k} has order 3: not a pseudomanifold pair
    with pytest.raises(NotPseudomanifoldPair):
        st.pmglue(1, 2)
    # dim-0 tops can never pmglue
    pts = parse_tv("simplex 1: 1\nsimplex 2: 2\n")
    with pytest.raises(NotPseudomanifoldPair):
        GluingState(pts).pmglue(1, 2)
    # tets of the fan do pmglue along their shared triangles
    st = GluingState(fan)
    st.pmglue(1, 2)
    st.pmglue(2, 3)
    assert st.is_isomorphic_to_source()


def test_script_claw(claw, claw_script):
    out = run_glue_script(claw, claw_script)
    assert out.ok
    dump1, dump2 = [e.payload for e in out.events if e.kind == "dump"]
    assert dump1 == [
        "j-[1,2]",
        "j-[3]",
        "j-[4]",
        "k-[1,2]",
        "k-[3]",
        "l-[2]",
        "l-[4]",
        "m-[3]",
        "n-[4]",
        "q-[1]",
    ]
    assert dump2 == [
        "j-[1,2,4]",
        "j-[3]",
        "k-[1,2,3]",
        "l-[2,4]",
        "m-[3]",
        "n-[4]",
        "q-[1]",
    ]
    kinds = [e.kind for e in out.events]
    assert kinds.count("assert-pass") == 1


def test_script_current_decomposition(claw, claw_script):
    out = run_glue_script(claw, claw_script)
    dec = out.state.current_decomposition()
    # j (=1) keeps its id in tops 1,2,4 and gets one fresh copy in top 3
    assert dec.splitting_classes() == {1: (1, 7)}
    assert dec.nabla.row(3) == (7, 2, 4)


def test_script_errors_stop_execution(claw):
    out = run_glue_script(claw, "explode\nglue 1 5\nveq 1 2 j\n")
    assert not out.ok
    assert out.events[-1].kind == "error"
    # nothing after the error ran
    assert len(out.events) == 2


def test_script_requires_explode_first(claw):
    out = run_glue_script(claw, "veq 1 2 j\n")
    assert not out.ok


def test_script_assert_failures_continue(claw):
    out = run_glue_script(claw, "explode\nassert-iso\ndump\n")
    kinds = [e.kind for e in out.events]
    assert "assert-fail" in kinds
    assert kinds[-1] == "dump"
    assert not out.ok


def test_script_parse_errors(claw):
    with pytest.raises(ParseError):
        run_glue_script(claw, "explode\nfrobnicate 1 2\n")
    with pytest.raises(ParseError):
        run_glue_script(claw, "explode\nveq 1\n")
    with pytest.raises(ParseError):
        run_glue_script(claw, "explode\nglue one two\n")
    # comments and blank lines are fine
    assert parse_glue_script("# hi\n\nexplode\n") == [(3, ["explode"])]


@pytest.mark.parametrize("text", [b"veq 1 2 3", None, 7, ["explode\n"]])
def test_script_text_that_is_no_str_is_rejected(claw, text):
    with pytest.raises(ParseError, match=f"not a {type(text).__name__}$"):
        parse_glue_script(text)
    with pytest.raises(ParseError, match=f"not a {type(text).__name__}$"):
        run_glue_script(claw, text)


@pytest.mark.parametrize(
    "line",
    [
        "glue \u0661 2",
        "glue 1_0 2",
        "glue +1 2",
        "glue -1 2",
        "pmglue 1 \uff12",
        "veq 1 \u00b2 1",
        "veq 1 2.0 1",
    ],
    ids=["arabic-indic", "underscore", "sign", "negative", "fullwidth", "superscript", "float"],
)
def test_script_top_ids_are_ascii_decimal(claw, line):
    # int() reads all of these as top ids; a script's top id is [0-9]+
    with pytest.raises(ParseError, match="is not a decimal number") as exc:
        run_glue_script(claw, f"explode\n{line}\n")
    assert exc.value.line_no == 2
    assert run_glue_script(claw, "explode\nglue 01 2\n").events[-1].kind == "ok"


def test_full_cone_script(cones, cones_script):
    out = run_glue_script(cones, cones_script)
    assert out.ok
    assert any(e.kind == "assert-pass" for e in out.events)
    assert out.state.is_isomorphic_to_source()
    assert out.state.splitting_vertices() == []


def test_partial_cone_script(cones, cones_partial_script):
    out = run_glue_script(cones, cones_partial_script)
    assert out.ok
    dec = out.state.current_decomposition()
    comps = [c.top_ids for c in dec.components]
    assert [34] in comps and [35] in comps and [36] in comps
    eights = [g for g in comps if len(g) == 8]
    assert sorted(sum(eights, [])) == [
        1, 2, 3, 7, 8, 9, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
        26, 27, 28, 29, 30, 31, 32, 33,
    ]
    # each pasted strip is now pseudomanifold on its own
    assert dec.nabla.classify_with_faces()[1] == {}


def test_exploded_decomposition_matches_decompose(mixed):
    # gluing back every canonical pair from the exploded state reproduces
    # the standard decomposition
    st = GluingState(mixed)
    for pair in sorted(canonical_pairs(mixed), key=sorted):
        t1, t2 = sorted(pair)
        st.glue(t1, t2)
    dec = st.current_decomposition()
    ref = decompose(mixed)
    assert dec.sigma == ref.sigma
    assert dec.nabla.rows() == ref.nabla.rows()
