"""Adjacency-driven renumbering and the implicit vertex table."""

import pytest

from nmdecomp.decompose import decompose
from nmdecomp.errors import NotIqm, OutOfRange, UnknownVertex
from nmdecomp.meshes import kuhn_cube
from nmdecomp.oracle import random_complex
from nmdecomp.renumber import (
    MAGIC_IMPLICIT,
    apply_renumbering,
    compute_renumbering,
)
from nmdecomp.winged import Ewds


@pytest.fixture(scope="module")
def imp_mixed(mixed):
    ew = Ewds.build(decompose(mixed))
    ren = compute_renumbering(ew)
    return ew, ren, apply_renumbering(ew, ren)


def test_renumbering_mixed(imp_mixed):
    _, ren, _ = imp_mixed
    assert ren.fvv[1:] == [1, 2, 5, 3, 4, 8, 7, 6, 14, 13, 10, 15, 9, 11, 12]
    assert ren.ftt[1:] == list(range(1, 10))
    assert ren.cc == [2, 1, 1, 1]
    assert ren.vbase == [1, 3, 6, 10, 16]
    # only top 6 needed a slot exchange
    assert set(ren.perms) == {6}
    assert ren.perm_of(6) == (0, 2, 1)
    # identity permutations are not materialised
    assert ren.perm_of(5) == ()


def test_layout_mixed(imp_mixed):
    _, _, imp = imp_mixed
    assert imp.taddr == [1, 1, 2, 4, 10]
    assert imp.iibnd == [3, 5, 7, 10]
    assert imp.iitaddr == [1, 2, 4, 10]
    assert imp.tvpp[1:] == [3, 8, 9, 14, 15, 10, 14, 10, 11]


def test_renumbered_rows(imp_mixed):
    _, _, imp = imp_mixed
    rows = {t: imp.row_of(t) for t in range(1, 10)}
    assert rows == {
        1: (1,),
        2: (2,),
        3: (5, 3),
        4: (3, 4),
        5: (8, 9, 6),
        6: (8, 9, 7),
        7: (13, 14, 15, 10),
        8: (14, 15, 10, 11),
        9: (14, 10, 11, 12),
    }


def _assert_roundtrip(ew, ren, imp):
    # implicit lookup at the renumbered top == FVV applied to the
    # slot-exchanged plain row
    for h in range(ew.d + 1):
        for t in range(ew.tbase[h], ew.tbase[h + 1]):
            perm = ren.perm_of(t) or tuple(range(h + 1))
            row = ew.row_of(t)
            new_t = ren.ftt[t]
            for k in range(1, h + 2):
                expect = ren.fvv[row[perm[k - 1]]]
                assert imp.tv_lookup(h, new_t, k) == expect, (h, t, k)
    for v in range(1, imp.nv + 1):
        assert v in imp.row_of(imp.vtstar_lookup(v)), v


def test_roundtrip_against_plain(imp_mixed):
    ew, ren, imp = imp_mixed
    _assert_roundtrip(ew, ren, imp)
    # this fixture renumbers tops to themselves, vertices do move
    assert ren.ftt[1:] == list(range(1, 10))


def test_vtstar_lookup(imp_mixed):
    _, _, imp = imp_mixed
    got = [imp.vtstar_lookup(v) for v in range(1, 16)]
    assert got == [1, 2, 3, 4, 3, 5, 6, 5, 5, 7, 8, 9, 7, 7, 7]
    for v in range(1, 16):
        assert v in imp.row_of(imp.vtstar_lookup(v))
    with pytest.raises(UnknownVertex):
        imp.vtstar_lookup(16)
    assert imp.vtstar_lookup(3) == 3


def test_tt_renumbered(imp_mixed):
    _, _, imp = imp_mixed
    # the exchanged slot order shows up in the neighbour table too
    # slot 3 of the second triangle
    assert imp.ttpp[imp.tbase_addr[2] + 1 * 3 + 3 - 1] == 5
    assert imp.row_of(6) == (8, 9, 7)


def test_lookup_guards(imp_mixed):
    _, _, imp = imp_mixed
    with pytest.raises(OutOfRange):
        imp.tv_lookup(2, 5, 4)
    with pytest.raises(OutOfRange):
        imp.tv_lookup(3, 6, 1)


def test_requires_iqm(mixed, bouquet):
    # components are IQM by construction, so this must not raise
    compute_renumbering(Ewds.build(decompose(mixed)))
    # a manually assembled non-IQM ewds is rejected
    from nmdecomp.complexes import parse_tv
    from nmdecomp.decompose import DecompositionResult

    src = parse_tv("simplex 1: 1 2\nsimplex 2: 2 3\nsimplex 3: 2 4\n")
    fake = DecompositionResult.from_parts(src, src, {v: v for v in src.vertices})
    with pytest.raises(NotIqm):
        compute_renumbering(Ewds.build(fake))


def test_implicit_dump(imp_mixed):
    _, _, imp = imp_mixed
    data = imp.dump_bytes()
    assert data[:4] == MAGIC_IMPLICIT
    assert len(data) > 16


def test_storage_shrinks(imp_mixed):
    ew, _, imp = imp_mixed
    # the implicit vertex table drops one slot per paired or seeded vertex
    assert len(imp.tvpp) - 1 < len(ew.tvp) - 1


def test_mesh_roundtrip():
    c = kuhn_cube(2)
    ew = Ewds.build(decompose(c))
    ren = compute_renumbering(ew)
    # pairing must cover every vertex or the closed-form regions break
    assert sorted(ren.fvv[1:]) == list(range(1, ew.nv + 1))
    _assert_roundtrip(ew, ren, apply_renumbering(ew, ren))


def test_random_iqm_roundtrip():
    hits = 0
    for seed in range(40):
        c = random_complex(seed=seed, max_tops=12, d=3)
        dec = decompose(c)
        ew = Ewds.build(dec)
        ren = compute_renumbering(ew)
        imp = apply_renumbering(ew, ren)
        hits += 1
        assert sorted(ren.fvv[1:]) == list(range(1, ew.nv + 1)), seed
        _assert_roundtrip(ew, ren, imp)
    assert hits == 40
