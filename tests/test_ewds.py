"""Flat winged tables: layout, addressing, star walks, binary dump."""

import hashlib
import random
import re
import struct
from bisect import bisect_right
from itertools import repeat

import pytest
from hypothesis import given, settings, strategies as st

from nmdecomp import complexes
from nmdecomp.complexes import Complex, facet_slots, format_tv, parse_tv
from nmdecomp.decompose import DecompositionResult, decompose
from nmdecomp.errors import NotIqm, ParseError, UnknownTop
from nmdecomp.fixtures import load_tv
from nmdecomp.meshes import kuhn_cube
from nmdecomp.nonmanifold import build_nm_layer
from nmdecomp.oracle import oracle_walk, random_complex
from nmdecomp.winged import BOTTOM, DIAMOND, Ewds, parse_dump
from helpers import by_copy, component_complexes, packed, packed_ids


# -- reference: TTP and VTSTAR from a facet pass per packed block ------------


def reference_fill_tt(ew: Ewds) -> tuple[list[int], list[int]]:
    """TTP and VTSTAR from one `facet_slots` call per packed block.

    A facet maps to the TVP addresses of the slots opposite it, and the TTP
    entry for that facet sits at the same address.  Order-1 facets get
    BOTTOM, order-2 facets mutual references, and every coface of a facet
    of order three or more gets DIAMOND.  VTSTAR[v] is the smallest coface
    of the lexicographically first facet containing v, in the lowest block
    that holds v.
    """
    tvp = ew.tvp
    ttp = [0] + [BOTTOM] * ew.size
    vtstar = [0] * (ew.nv + 1)
    for t in range(ew.tbase[0], ew.tbase[1]):
        vtstar[tvp[ew.tbase_addr[0] + t - ew.tbase[0]]] = t
    for h in range(1, ew.d + 1):
        w = h + 1
        lo, hi = ew.tbase_addr[h], ew.tbase_addr[h + 1]
        top_at = list(range(ew.tbase[h], ew.tbase[h + 1]))
        slots = facet_slots(tvp, zip(range(lo, hi, w), repeat(w)))
        for face in sorted(slots):
            opp = slots[face]
            if type(opp) is int:
                first = top_at[(opp - lo) // w]
            elif len(opp) == 2:
                a, b = opp
                first = top_at[(a - lo) // w]
                ttp[a] = top_at[(b - lo) // w]
                ttp[b] = first
            else:
                first = top_at[(opp[0] - lo) // w]
                for a in opp:
                    ttp[a] = DIAMOND
            for v in face:
                if not vtstar[v]:
                    vtstar[v] = first
    return ttp, vtstar


def assert_tt_matches_reference(dec: DecompositionResult) -> None:
    ew = Ewds.build(dec)
    assert (ew.ttp, ew.vtstar) == reference_fill_tt(ew)


@pytest.fixture(scope="module")
def ew_fan(fan):
    return Ewds.build(decompose(fan))


@pytest.fixture(scope="module")
def ew_mixed(mixed):
    return Ewds.build(decompose(mixed))


def test_fan_tables(ew_fan):
    assert ew_fan.d == 3
    assert ew_fan.nt == 3 and ew_fan.nv == 6
    assert ew_fan.row_of(1) == (1, 2, 3, 4)
    assert ew_fan.row_of(2) == (2, 3, 4, 5)
    assert ew_fan.row_of(3) == (2, 4, 5, 6)
    assert ew_fan.vtstar[1:] == [1, 1, 1, 1, 2, 3]
    assert ew_fan.tt_row_of(1) == (2, BOTTOM, BOTTOM, BOTTOM)
    assert ew_fan.tt_row_of(2) == (BOTTOM, 3, BOTTOM, 1)
    assert ew_fan.tt_row_of(3) == (BOTTOM, BOTTOM, BOTTOM, 2)


def test_mixed_layout(ew_mixed):
    assert ew_mixed.tbase[:4] == [1, 3, 5, 7]
    assert ew_mixed.tbase_addr[:4] == [1, 3, 7, 13]
    assert ew_mixed.size == 24
    assert ew_mixed.nt == 9 and ew_mixed.nv == 15


def test_mixed_tv(ew_mixed):
    rows = {t: ew_mixed.row_of(t) for t in range(1, 10)}
    assert rows == {
        1: (1,),
        2: (2,),
        3: (3, 4),
        4: (4, 5),
        5: (6, 13, 8),
        6: (6, 7, 13),
        7: (10, 9, 12, 11),
        8: (9, 12, 11, 14),
        9: (9, 11, 14, 15),
    }


def test_mixed_vtstar(ew_mixed):
    assert ew_mixed.vtstar[1:] == [1, 2, 3, 3, 4, 6, 6, 5, 7, 7, 7, 7, 5, 8, 9]
    for v in range(1, 16):
        assert v in ew_mixed.row_of(ew_mixed.vtstar[v])


def test_mixed_tt(ew_mixed):
    tt = {t: ew_mixed.tt_row_of(t) for t in range(1, 10)}
    assert tt == {
        1: (BOTTOM,),
        2: (BOTTOM,),
        3: (4, BOTTOM),
        4: (BOTTOM, 3),
        5: (BOTTOM, BOTTOM, 6),
        6: (BOTTOM, 5, BOTTOM),
        7: (8, BOTTOM, BOTTOM, BOTTOM),
        8: (BOTTOM, 9, BOTTOM, 7),
        9: (BOTTOM, BOTTOM, BOTTOM, 8),
    }


def test_addressed_lookups(ew_mixed):
    assert ew_mixed.row_of(5)[2] == 8
    assert ew_mixed.tt_row_of(5)[2] == 6
    assert ew_mixed.tt_row_of(8)[3] == 7
    with pytest.raises(UnknownTop):
        ew_mixed.row_of(10)
    with pytest.raises(UnknownTop):
        ew_mixed.dim_of_top(10)


def test_block_layouts_agree_with_row_layout(mixed, cones, perforated_cube, perforated_grid):
    # snm_global lays out a top it read from the tables by one bisection of
    # tbase into block_layouts, unchecked; row_layout validates the top
    # first, and both must address the top's own row in its packed block
    for src in (mixed, cones, perforated_cube(0), perforated_grid(3, 4, 0)):
        ew = Ewds.build(decompose(src))
        assert len(ew.block_layouts) == ew.d + 1
        for t in range(1, ew.nt + 1):
            w, off = ew.block_layouts[bisect_right(ew.tbase, t) - 1]
            assert (w, off) == ew.row_layout(t), t
            h = ew.dim_of_top(t)
            assert w == h + 1, t
            assert off + t * w == ew.tbase_addr[h] + (t - ew.tbase[h]) * w, t


def test_repack_maps(ew_mixed, mixed):
    # this fixture packs to itself: component order matches input id order
    dec = decompose(mixed)
    tops, vertices = packed_ids(dec)
    assert tops[1:] == list(range(1, 10))
    assert tops == list(range(10))  # index 0 unused, no other top
    assert vertices[1:] == list(range(1, 16))
    # so each packed row is nabla's row of the same id
    for t in range(1, 10):
        assert ew_mixed.row_of(t) == tuple(dec.nabla.row(t))
    assert ew_mixed.sigma_n[1:] == [dec.sigma[v] for v in range(1, 16)]


def test_repack_nontrivial(cones):
    dec = decompose(cones)
    ew = Ewds.build(dec)
    tops, vertices = packed_ids(dec)
    # 27 tops renumber contiguously; the cavity tets move to the tail
    assert ew.nt == 27
    assert packed(tops, 34) == 25 and packed(tops, 36) == 27
    assert ew.row_of(25) == tuple(packed(vertices, v) for v in cones.row(34))


def test_diamond_marks(cones):
    dec = decompose(cones)
    ew = Ewds.build(dec)
    tops, _ = packed_ids(dec)
    for t in (34, 35, 36):
        assert DIAMOND in ew.tt_row_of(packed(tops, t))


def test_s0h_walks(ew_mixed):
    # S0h: the walk from a vertex's VTSTAR top across the facets holding it
    def s0h(v):
        return sorted(oracle_walk(ew_mixed, {v}, (ew_mixed.vtstar[v],)))

    assert s0h(7) == [6]
    assert s0h(9) == [7, 8, 9]
    assert s0h(1) == [1]
    assert s0h(13) == [5, 6]


def test_dump_roundtrip(ew_mixed, ew_fan):
    for ew in (ew_mixed, ew_fan):
        data = ew.dump_bytes()
        assert data[:4] == b"EWD\x00"
        parsed = parse_dump(data)
        assert parsed["d"] == ew.d
        assert parsed["nt"] == ew.nt and parsed["nv"] == ew.nv
        assert parsed["tvp"] == ew.tvp[1:]
        assert parsed["ttp"] == ew.ttp[1:]
        assert parsed["vtstar"] == ew.vtstar[1:]
        assert parsed["tbase"] == ew.tbase[: ew.d + 1]
        assert parsed["tbase_addr"] == ew.tbase_addr[: ew.d + 1]


@pytest.mark.parametrize(
    "mangle",
    [
        pytest.param(lambda b: b[:-1], id="cut-1"),
        pytest.param(lambda b: b[:-4], id="cut-4"),
        pytest.param(lambda b: b[:-8], id="cut-8"),
        pytest.param(lambda b: b[: len(b) // 2], id="cut-half"),
        pytest.param(lambda b: b[:16], id="header-only"),
        pytest.param(lambda b: b[:10], id="short-header"),
        pytest.param(lambda b: b"", id="empty"),
        pytest.param(lambda b: b + b"\0", id="pad-1"),
        pytest.param(lambda b: b + b"\0" * 4, id="pad-4"),
        # directories intact, one int more than they describe before them
        pytest.param(
            lambda b: b[: -8 * (b[4] + 1)] + bytes(4) + b[-8 * (b[4] + 1) :],
            id="int-before-dirs",
        ),
        pytest.param(lambda b: b"EWD\x01" + b[4:], id="bad-magic"),
        # entries outside their tables: cones has NV 21 and NT 27, all tets
        pytest.param(lambda b: overwrite(b, "TVP", 1, 22), id="tvp-above-nv"),
        pytest.param(lambda b: overwrite(b, "TVP", 5, 0), id="tvp-zero"),
        pytest.param(lambda b: overwrite(b, "TTP", 1, -7), id="ttp-below-diamond"),
        pytest.param(lambda b: overwrite(b, "TTP", 3, 28), id="ttp-above-nt"),
        pytest.param(lambda b: overwrite(b, "VTSTAR", 1, 0), id="vtstar-zero"),
        pytest.param(lambda b: overwrite(b, "VTSTAR", 21, 28), id="vtstar-above-nt"),
    ],
)
def test_parse_dump_rejects_malformed(cones, mangle):
    data = Ewds.build(decompose(cones)).dump_bytes()
    parse_dump(data)
    with pytest.raises(ParseError):
        parse_dump(mangle(data))


def overwrite(data, table, k, value):
    """data with entry k (1-based) of table TVP, TTP or VTSTAR set to value."""
    d, _, nv = struct.unpack_from("<III", data, 4)
    size = (len(data) - 16 - 4 * nv - 8 * (d + 1)) // 8
    at = 16 + 4 * {"TVP": 0, "TTP": size, "VTSTAR": 2 * size}[table] + 4 * (k - 1)
    return data[:at] + struct.pack("<i", value) + data[at + 4 :]


@pytest.mark.parametrize(
    "table, k, value",
    [("TVP", 1, 999), ("TTP", 1, -7), ("TTP", 3, 9), ("TTP", 13, 3), ("VTSTAR", 15, 10)],
)
def test_parse_dump_names_an_entry_outside_its_table(table, k, value):
    # fix_b: NV 15, NT 9; blocks of tops 1-2, 3-4, 5-6 and 7-9 at TVP/TTP
    # 1, 3, 7 and 13; a TTP entry names a top of its own block, or 0 or -1
    ew = Ewds.build(decompose(load_tv("fix_b.tv")))
    assert (ew.nv, ew.nt, ew.tbase, ew.tbase_addr) == (15, 9, [1, 3, 5, 7, 10], [1, 3, 7, 13, 25])
    with pytest.raises(ParseError, match=re.escape(f"{table}[{k}] = {value} ")):
        parse_dump(overwrite(ew.dump_bytes(), table, k, value))


def test_flat_layout_invariant(ew_mixed, ew_fan):
    # SIZE = sum over dims of (h+1) * block count, and addresses chain up
    for ew in (ew_mixed, ew_fan):
        assert len(ew.tvp) - 1 == ew.size
        assert len(ew.ttp) - 1 == ew.size
        for h in range(ew.d):
            width = ew.tbase[h + 1] - ew.tbase[h]
            assert ew.tbase_addr[h + 1] - ew.tbase_addr[h] == (h + 1) * width


# sha256 prefixes of the decomposition and of Ewds.dump_bytes(), taken
# before the facet pass moved to flat integer corners
FROZEN = {
    3: ("a9dbf70a65f00405ca0baedce6e81d21", "ef475425232db47b0732044264c9df26"),
    4: ("b6f8e192612c0dcd0a4b38f939188934", "81a530f634ad57a8ac70957095a3cec6"),
}


@pytest.mark.parametrize("seed", sorted(FROZEN))
def test_perforated_tables_are_frozen(seed, perforated_cube):
    dec = decompose(perforated_cube(seed))
    parts = (
        sorted(dec.nabla.rows().items()),
        sorted(dec.sigma.items()),
        [(v, dec.nabla.label_of(v)) for v in dec.nabla.vertices],
        [comp.top_ids for comp in dec.components],
        dec.cc,
    )
    got = (
        hashlib.sha256(repr(parts).encode()).hexdigest()[:32],
        hashlib.sha256(Ewds.build(dec).dump_bytes()).hexdigest()[:32],
    )
    assert got == FROZEN[seed]


# -- TTP and VTSTAR against the per-block reference --------------------------


def _half(c: Complex, seed: int) -> Complex:
    rng = random.Random(seed)
    return c.subcomplex(rng.sample(c.top_ids, max(1, c.num_tops // 2)))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4))
def test_tt_matches_reference(seed, d):
    # decompose's TT comes from the source's facet table, from_parts' from
    # nabla's own; a hand-built result is packed only when its components
    # are IQM, and any other raises NotIqm
    c = random_complex(seed=seed, max_tops=30, d=d)
    for x in (c, _half(c, seed)):
        assert_tt_matches_reference(decompose(x))
        fake = DecompositionResult.from_parts(x, x, {v: v for v in x.vertices})
        if all(k.is_iqm() for k in component_complexes(fake)):
            assert_tt_matches_reference(fake)
        else:
            with pytest.raises(NotIqm):
                Ewds.build(fake)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4))
def test_each_component_is_one_run_from_its_comp_first(seed, d):
    # comp_first is ascending in decomposition order, and the tops from one
    # entry up to the next are exactly that component's
    dec = decompose(random_complex(seed=seed, max_tops=30, d=d))
    ew = Ewds.build(dec)
    tops, _ = packed_ids(dec)
    assert ew.comp_first == [packed(tops, comp.top_ids[0]) for comp in dec.components]
    assert ew.comp_first == sorted(ew.comp_first)
    ends = ew.comp_first[1:] + [ew.nt + 1]
    for comp, lo, hi in zip(dec.components, ew.comp_first, ends):
        assert sorted(tops[lo:hi]) == comp.top_ids


@pytest.mark.parametrize("name", ["cones", "pinched_edge_cone", "perforated_cube"])
def test_tt_matches_reference_on_split_facets(name, request):
    # order-3 facets whose cofaces split across copies, whole and halved
    c = request.getfixturevalue(name)
    if name == "perforated_cube":
        c = c(0)
    for x in (c, _half(c, 1), _half(c, 2)):
        dec = decompose(x)
        assert_tt_matches_reference(dec)
        assert_tt_matches_reference(DecompositionResult.from_parts(x, dec.nabla, dec.sigma))


@pytest.mark.slow
def test_tt_matches_reference_on_4d_grids(perforated_grid):
    # 4-D Kuhn grids of 3**4 cubes less 30 %, and one of 5**4 cubes
    for seed in range(10):
        assert_tt_matches_reference(decompose(perforated_grid(3, 4, seed)))
    assert_tt_matches_reference(decompose(perforated_grid(5, 4, 5)))


def test_setup_computes_each_fact_once(monkeypatch, mixed, cones, perforated_cube):
    # one facet pass from parse_tv to the non-manifold layer; the pair loop
    # gives decompose its components, and maximality builds no vertex map
    calls = []
    real = complexes.facet_slots
    monkeypatch.setattr(complexes, "facet_slots", lambda *a: calls.append(1) or real(*a))

    def no_components(self, h):
        raise AssertionError("decompose joined tops a second time")

    monkeypatch.setattr(Complex, "h_connected_components", no_components)
    for c in (mixed, cones, perforated_cube(0)):
        text = format_tv(c)
        calls.clear()
        build_nm_layer(Ewds.build(decompose(parse_tv(text))))
        assert len(calls) == 1

    def no_vertex_map(self):
        raise AssertionError("built the vertex -> tops map")

    monkeypatch.setattr(Complex, "_vertex_tops", no_vertex_map)
    build_nm_layer(Ewds.build(decompose(parse_tv(format_tv(kuhn_cube(3))))))


def test_walk_loops_match_a_set_test_flood(mixed, cones, perforated_cube, perforated_grid):
    # a vertex star takes the walk's int-comparison loop and a splitmap
    # key's copy, two or more vertices, its set-test loop: the union of
    # one walk per seed, each in its seed's block layout, must reach the
    # tops of a flood from all the seeds that tests every slot against
    # the set
    def walk_blocks(ew, gset, seeds):
        seen = set()
        for t in seeds:
            w, off = ew.block_layouts[bisect_right(ew.tbase, t) - 1]
            seen |= ew.walk_block(gset, t, w, off)
        return seen

    for src in (mixed, cones, perforated_cube(0), perforated_grid(3, 4, 0)):
        nm = build_nm_layer(Ewds.build(decompose(src)))
        ew = nm.ewds
        for v in range(1, ew.nv + 1):
            seeds = (ew.vtstar[v],)
            assert walk_blocks(ew, {v}, seeds) == oracle_walk(ew, {v}, seeds), v
        assert nm.splitmap
        for key, reps in nm.splitmap.items():
            for cp, seeds in by_copy(ew, key, reps).items():
                assert walk_blocks(ew, set(cp), seeds) == oracle_walk(ew, set(cp), seeds), key
