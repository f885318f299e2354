"""Flat winged tables: layout, addressing, star walks, binary dump."""

import hashlib

import pytest

from nmdecomp.counters import OpCounter
from nmdecomp.decompose import decompose
from nmdecomp.errors import ParseError, UnknownTop, UnknownVertex
from nmdecomp.winged import BOTTOM, DIAMOND, Ewds, parse_dump


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
        assert v in ew_mixed.row_of(ew_mixed.vtstar_of(v))


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
    with pytest.raises(UnknownVertex):
        ew_mixed.vtstar_of(16)


def test_repack_maps(ew_mixed, mixed):
    # this fixture packs to itself: component order matches input id order
    assert ew_mixed.top_old[1:] == list(range(1, 10))
    assert ew_mixed.top_new == {t: t for t in range(1, 10)}
    assert ew_mixed.vertex_old[1:] == list(range(1, 16))


def test_repack_nontrivial(cones):
    ew = Ewds.build(decompose(cones))
    # 27 tops renumber contiguously; the cavity tets move to the tail
    assert ew.nt == 27
    assert ew.top_new[34] == 25 and ew.top_new[36] == 27
    assert ew.row_of(25) == tuple(ew.vertex_new[v] for v in cones.row(34))


def test_diamond_marks(cones):
    ew = Ewds.build(decompose(cones))
    for t in (34, 35, 36):
        assert DIAMOND in ew.tt_row_of(ew.top_new[t])


def test_s0h_walks(ew_mixed):
    assert ew_mixed.s0h(7) == [6]
    assert ew_mixed.s0h(9) == [7, 8, 9]
    assert ew_mixed.s0h(1) == [1]
    assert ew_mixed.s0h(13) == [5, 6]
    counter = OpCounter()
    ew_mixed.s0h(9, counter)
    assert counter.visits == 3


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
        pytest.param(lambda b: b"EWD\x01" + b[4:], id="bad-magic"),
    ],
)
def test_parse_dump_rejects_malformed(cones, mangle):
    data = Ewds.build(decompose(cones)).dump_bytes()
    parse_dump(data)
    with pytest.raises(ParseError):
        parse_dump(mangle(data))


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
        sorted(dec.nabla.labels.items()),
        [comp.top_ids for comp in dec.components],
        dec.cc,
    )
    got = (
        hashlib.sha256(repr(parts).encode()).hexdigest()[:32],
        hashlib.sha256(Ewds.build(dec).dump_bytes()).hexdigest()[:32],
    )
    assert got == FROZEN[seed]
