"""Adjacency-driven renumbering and the implicit vertex table."""

import dataclasses
import gc
import hashlib
import random
import weakref
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from nmdecomp.complexes import canonical_pairs
from nmdecomp.decompose import DecompositionResult, decompose
from nmdecomp.errors import (
    BadRenumbering,
    NotIqm,
    OutOfRange,
    TopologyError,
    UnknownTop,
    UnknownVertex,
)
from nmdecomp.gluing import GluingState
from nmdecomp.meshes import kuhn_cube
from nmdecomp.oracle import oracle_decompose, oracle_walk, random_complex
from nmdecomp.renumber import (
    MAGIC_IMPLICIT,
    ImplicitEwds,
    Renumbering,
    apply_renumbering,
    compute_renumbering,
)
from nmdecomp.winged import Ewds
from helpers import packed, packed_ids


# -- reference: the renumbering a vertex and a top at a time ----------------


def reference_compute_renumbering(ewds: Ewds, dec: DecompositionResult) -> Renumbering:
    """compute_renumbering of ewds, the packing of dec, with a facet flood
    per vertex as its IQM check, the seeds read off dec's components and a
    set of the entering facet's vertices per DFS step."""
    tops, vertices = packed_ids(dec)
    star = [0] * (ewds.nv + 1)  # a row lists each of its vertices once
    for v in ewds.tvp[1:]:
        star[v] += 1
    for v in range(1, ewds.nv + 1):
        reached = len(oracle_walk(ewds, {v}, (ewds.vtstar[v],)))
        if reached != star[v]:
            raise NotIqm(f"facet flood of vertex {vertices[v]} falls short")

    d = ewds.d
    nv = ewds.nv
    ftt = [0] * (ewds.nt + 1)
    fvv = [0] * (nv + 1)
    perms: dict[int, tuple[int, ...]] = {}

    cc = [0] * (d + 1)
    seeds_per_dim: dict[int, list[int]] = {h: [] for h in range(d + 1)}
    for comp in dec.components:
        cc[comp.dim] += 1
        seeds_per_dim[comp.dim].append(packed(tops, comp.top_ids[0]))
    anchors = sorted(ewds.vtstar[1:])
    nv_per_dim = [
        bisect_left(anchors, ewds.tbase[h + 1]) - bisect_left(anchors, ewds.tbase[h])
        for h in range(d + 1)
    ]
    vbase = [1]
    for h in range(d + 1):
        vbase.append(vbase[h] + nv_per_dim[h])

    tv, tt = list(ewds.tvp), list(ewds.ttp)
    for h in range(d + 1):
        w = h + 1
        off = ewds.tbase_addr[h] - ewds.tbase[h] * w
        tidx = ewds.tbase[h]
        tnew = ewds.tbase[h] + cc[h]
        vidx = vbase[h]
        vnew = vbase[h] + cc[h]
        for seed in seeds_per_dim[h]:
            base = off + seed * w
            ftt[seed] = tidx
            tidx += 1
            fvv[tv[base + h]] = vidx
            vidx += 1
            for j in range(h):
                fvv[tv[base + j]] = -1
        for seed in seeds_per_dim[h]:
            visited = {seed}
            stack = [(seed, 0)]
            while stack:
                t, i = stack[-1]
                if i > h:
                    stack.pop()
                    continue
                stack[-1] = (t, i + 1)
                base = off + t * w
                nbr = tt[base + i]
                if nbr <= 0 or nbr in visited:
                    continue
                visited.add(nbr)
                phi = set(tv[base : base + w])
                phi.discard(tv[base + i])
                nbase = off + nbr * w
                k = next(kk for kk in range(w) if tv[nbase + kk] not in phi)
                v = tv[nbase + k]
                if fvv[v] == 0:
                    fvv[v] = vnew
                    vnew += 1
                    ftt[nbr] = tnew
                    tnew += 1
                    if k != h:
                        for arr in (tv, tt):
                            arr[nbase + k], arr[nbase + h] = arr[nbase + h], arr[nbase + k]
                        perm = list(range(w))
                        perm[k], perm[h] = h, k
                        perms[nbr] = tuple(perm)
                stack.append((nbr, 0))
        for t in ewds._block_tops(h):
            if ftt[t] == 0:
                ftt[t] = tnew
                tnew += 1
        for seed in seeds_per_dim[h]:
            for j in range(h):
                fvv[tv[off + seed * w + j]] = vnew
                vnew += 1
    return Renumbering(ftt, fvv, perms, cc, vbase)


def reference_apply_renumbering(ewds: Ewds, ren: Renumbering) -> ImplicitEwds:
    """apply_renumbering reading each top's rows through row_of/tt_row_of."""
    d = ewds.d
    cc, vbase = ren.cc, ren.vbase
    old_of = [0] * (ewds.nt + 1)
    for t in range(1, ewds.nt + 1):
        old_of[ren.ftt[t]] = t
    taddr = [1]
    for h in range(d + 1):
        taddr.append(
            taddr[h] + (ewds.tbase[h + 1] - ewds.tbase[h]) * (h + 1) - (vbase[h + 1] - vbase[h])
        )
    iibnd = [ewds.tbase[h] + vbase[h + 1] - vbase[h] - cc[h] * h for h in range(d + 1)]
    iitaddr = [taddr[h] + (iibnd[h] - ewds.tbase[h] - cc[h]) * h for h in range(d + 1)]

    def swapped(row, t):
        perm = ren.perms.get(t)
        return list(row) if perm is None else [row[p] for p in perm]

    tvpp = [0]
    ttpp = [0] * (ewds.size + 1)
    for h in range(d + 1):
        for t in range(ewds.tbase[h], ewds.tbase[h + 1]):
            old = old_of[t]
            new_row = [ren.fvv[v] for v in swapped(ewds.row_of(old), old)]
            base = ewds.tbase_addr[h] + (t - ewds.tbase[h]) * (h + 1)
            for k, nbr in enumerate(swapped(ewds.tt_row_of(old), old)):
                ttpp[base + k] = ren.ftt[nbr] if nbr > 0 else nbr
            if t < ewds.tbase[h] + cc[h]:
                continue
            tvpp.extend(new_row[:h] if t < iibnd[h] else new_row)
    return ImplicitEwds(
        d=d, nt=ewds.nt, nv=ewds.nv, tbase=list(ewds.tbase),
        tbase_addr=list(ewds.tbase_addr), cc=cc, vbase=vbase, taddr=taddr,
        iibnd=iibnd, iitaddr=iitaddr, tvpp=tvpp, ttpp=ttpp,
    )


def _fields(ren: Renumbering) -> tuple:
    return ren.ftt, ren.fvv, sorted(ren.perms.items()), ren.cc, ren.vbase


def assert_matches_reference(ew: Ewds, dec: DecompositionResult) -> None:
    ren, ref = compute_renumbering(ew), reference_compute_renumbering(ew, dec)
    assert _fields(ren) == _fields(ref)
    imp, want = apply_renumbering(ew, ren), reference_apply_renumbering(ew, ref)
    assert imp.dump_bytes() == want.dump_bytes()
    assert (imp.iibnd, imp.iitaddr) == (want.iibnd, want.iitaddr)


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
    for h in (-1, imp.d + 1):
        with pytest.raises(OutOfRange, match="dimension"):
            imp.tv_lookup(h, 1, 1)
    # as Ewds.row_of: a top outside 1..NT is unknown
    for t in (0, -1, imp.nt + 1, imp.nt + 2):
        with pytest.raises(UnknownTop):
            imp.row_of(t)


@pytest.mark.parametrize("x", [1.5, 2.0, True, "1"], ids=repr)
def test_ids_that_are_not_ints_are_unknown(imp_mixed, x):
    # an id of another type, even one equal to an int, names nothing
    ew, _, imp = imp_mixed
    for lookup in (imp.row_of, ew.row_of, ew.tt_row_of, ew.dim_of_top):
        with pytest.raises(UnknownTop):
            lookup(x)
    with pytest.raises(UnknownVertex):
        imp.vtstar_lookup(x)
    for args in ((0, x, 1), (x, 1, 1), (0, 1, x)):
        with pytest.raises(OutOfRange):
            imp.tv_lookup(*args)


def test_build_packs_only_decompose_results(mixed):
    # the TT relation that only decompose sets is the one mark Ewds.build
    # asks for: whatever lacks it is refused before anything is checked
    dec = decompose(mixed)
    state = GluingState(mixed)
    for pair in sorted(canonical_pairs(mixed), key=sorted):
        state.pmglue(*sorted(pair))
    others = [
        DecompositionResult.from_parts(mixed, dec.nabla, dec.sigma),
        oracle_decompose(mixed),
        state.current_decomposition(),
        dataclasses.replace(dec),
        None,
    ]
    for other in others:
        with pytest.raises(NotIqm, match="only the results of decompose"):
            Ewds.build(other)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(dec, tt=dec.tt)
    assert Ewds.build(dec).dump_bytes() == Ewds.build(decompose(mixed)).dump_bytes()


@pytest.mark.parametrize("name", ["mixed", "cones"])
def test_glued_decomposition_equals_decompose(name, request):
    # gluing every canonical pair back reaches decompose's result
    c = request.getfixturevalue(name)
    state = GluingState(c)
    for pair in sorted(canonical_pairs(c), key=sorted):
        state.pmglue(*sorted(pair))
    assert state.current_decomposition() == decompose(c)


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


# sha256 prefixes of ImplicitEwds.dump_bytes() and of the renumbering's
# fields, taken before the encoding moved to block slices
FROZEN = {
    "perforated_cube(3)": ("14284bf679af102d29eeb8a4d98964de", "e942e355be50eb417fdc6bbe9c11d545"),
    "perforated_cube(4)": ("a923ad47a3806bb447705ff935ae2d23", "a350906e9bce9925bd52d9eb824bd3f3"),
    "kuhn_cube(4)": ("2e7e38de4f1301a3cfdce0ded11e5c85", "baf7f9534f40ea5628b827bbfd859140"),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_encoding_is_frozen(name, perforated_cube):
    c = kuhn_cube(4) if name == "kuhn_cube(4)" else perforated_cube(int(name[-2]))
    ew = Ewds.build(decompose(c))
    ren = compute_renumbering(ew)
    got = (
        hashlib.sha256(apply_renumbering(ew, ren).dump_bytes()).hexdigest()[:32],
        hashlib.sha256(repr(_fields(ren)).encode()).hexdigest()[:32],
    )
    assert got == FROZEN[name]


@pytest.mark.parametrize(
    "name", ["fan", "mixed", "cones", "bouquet", "pinched", "pinched_edge", "pinched_edge_cone"]
)
def test_fixtures_match_reference(name, request):
    dec = decompose(request.getfixturevalue(name))
    ew = Ewds.build(dec)
    if name == "cones":
        assert -1 in ew.ttp  # a DIAMOND slot, which FTT must leave as it is
    assert_matches_reference(ew, dec)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4))
def test_encoding_matches_reference(seed, d):
    dec = decompose(random_complex(seed=seed, max_tops=30, d=d))
    assert_matches_reference(Ewds.build(dec), dec)


def test_renumbering_of_another_decomposition_is_refused(mixed):
    small = Ewds.build(decompose(mixed))
    big = Ewds.build(decompose(kuhn_cube(2)))
    for ew, other in ((small, big), (big, small)):
        with pytest.raises(BadRenumbering):
            apply_renumbering(ew, compute_renumbering(other))


def test_no_caller_can_set_the_renumbering_mark(imp_mixed):
    ew, ren, _ = imp_mixed
    assert ren.made_for() is ew
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(ren, made_for=weakref.ref(ew))
    with pytest.raises(TypeError):
        Renumbering(ren.ftt, ren.fvv, ren.perms, ren.cc, ren.vbase, weakref.ref(ew))
    with pytest.raises(TypeError):
        Renumbering(ren.ftt, ren.fvv, ren.perms, ren.cc, ren.vbase, made_for=weakref.ref(ew))
    # copies start unmarked, and the mark is no part of equality or repr
    for copy in (dataclasses.replace(ren), _mangled(ren)):
        assert copy.made_for is None
        assert copy == ren and repr(copy) == repr(ren)


def test_renumbering_mark_keeps_no_table_alive(mixed):
    ew = Ewds.build(decompose(mixed))
    ren = compute_renumbering(ew)
    table = weakref.ref(ew)
    del ew
    gc.collect()
    assert table() is None and ren.made_for() is None


def test_only_the_record_made_for_these_tables_is_applied(mixed):
    # apply_renumbering takes the record that compute_renumbering made for
    # the very tables it is given, and refuses anything else unchecked
    ew = Ewds.build(decompose(mixed))
    ren = compute_renumbering(ew)
    want = apply_renumbering(ew, ren)
    same = dataclasses.replace(ew)
    assert same == ew and same is not ew
    orphan = compute_renumbering(Ewds.build(decompose(mixed)))
    gc.collect()
    assert orphan.made_for() is None and orphan == ren
    other = Ewds.build(decompose(kuhn_cube(2)))
    refused = [
        (ew, None),
        (None, ren),
        (ew, dataclasses.replace(ren)),
        (ew, _mangled(ren)),
        (same, ren),
        (ew, orphan),
        (other, ren),
        (Ewds.build(decompose(mixed)), ren),
    ]
    for tables, record in refused:
        with pytest.raises(BadRenumbering):
            apply_renumbering(tables, record)
    assert apply_renumbering(ew, ren) == want


def assert_exchanges_swap_the_last_slot(ew: Ewds) -> int:
    """Every exchange of compute_renumbering is a transposition of slot h,
    the last of its top, with one slot k < h: the swap apply_renumbering
    makes in its place.  Returns the number of exchanges."""
    perms = compute_renumbering(ew).perms
    for t, perm in perms.items():
        h = len(perm) - 1
        k = perm[h]
        assert ew.tbase[h] <= t < ew.tbase[h + 1]
        swap = list(range(h + 1))
        swap[k], swap[h] = h, k
        assert type(perm) is tuple and 0 <= k < h and perm == tuple(swap)
    return len(perms)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6))
def test_exchanges_swap_the_last_slot(seed, d):
    assert_exchanges_swap_the_last_slot(
        Ewds.build(decompose(random_complex(seed=seed, max_tops=30, d=d)))
    )


def test_exchanges_swap_the_last_slot_on_meshes(mixed, cones, perforated_cube, perforated_grid):
    meshes = (mixed, cones, perforated_cube(0), perforated_grid(3, 4, 0))
    assert sum(assert_exchanges_swap_the_last_slot(Ewds.build(decompose(c))) for c in meshes)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6))
def test_encoding_matches_reference_up_to_dimension_6(seed, d):
    dec = decompose(random_complex(seed=seed, max_tops=30, d=d))
    assert_matches_reference(Ewds.build(dec), dec)


def test_encoding_matches_reference_on_meshes(perforated_cube, perforated_grid):
    for c in (perforated_cube(0), perforated_grid(3, 4, 0)):
        dec = decompose(c)
        assert_matches_reference(Ewds.build(dec), dec)


def _mangled(ren: Renumbering, **changes) -> Renumbering:
    parts = dict(ftt=list(ren.ftt), fvv=list(ren.fvv), perms=dict(ren.perms),
                 cc=list(ren.cc), vbase=list(ren.vbase))
    parts.update(changes)
    return Renumbering(**parts)


def _swapped(fvv: list[int], a: int, b: int) -> list[int]:
    out = list(fvv)
    i, j = out.index(a), out.index(b)
    out[i], out[j] = b, a
    return out


def test_renumbering_that_does_not_fit_is_refused(imp_mixed):
    ew, ren, _ = imp_mixed  # blocks 1..2, 3..4, 5..6, 7..9; top 6 exchanged
    swap = list(ren.ftt)
    swap[2], swap[3] = swap[3], swap[2]  # a vertex and an edge trade blocks
    cases = [
        _mangled(ren, ftt=swap),
        _mangled(ren, ftt=ren.ftt[:1] + [1] * ew.nt),
        _mangled(ren, fvv=ren.fvv[:1] + [1] * ew.nv),
        _mangled(ren, fvv=ren.fvv[:-1]),
        _mangled(ren, cc=ren.cc[:-1]),
        _mangled(ren, cc=[2, 1, 3, 1]),
        _mangled(ren, vbase=ren.vbase[:-1] + [ew.nv + 2]),
        _mangled(ren, vbase=[1, 4, 5, 10, 16]),
        _mangled(ren, perms={6: (0, 2)}),
        _mangled(ren, perms={6: (0, 0, 1)}),
        _mangled(ren, perms={4: (0, 2, 1)}),
        _mangled(ren, perms={ew.nt + 1: (0,)}),
        # mistyped entries: top 1 is a vertex, whose one slot (0,) fits
        _mangled(ren, perms={True: (0,)}),
        _mangled(ren, perms={"6": ren.perms[6]}),
        _mangled(ren, perms={6: None}),
        _mangled(ren, perms={6: (*ren.perms[6][:-1], str(ren.perms[6][-1]))}),
        _mangled(ren, perms={6: tuple(map(float, ren.perms[6]))}),
        _mangled(ren, perms={6: (False, 2, True)}),
        # FVV permutations that break the pairing arithmetic of block 2,
        # whose VBase is 6: a paired number traded with a reserved one, and
        # the seed's two reserved numbers traded with each other
        _mangled(ren, fvv=_swapped(ren.fvv, 7, 8)),
        _mangled(ren, fvv=_swapped(ren.fvv, 8, 9)),
    ]
    for name in ("cc", "vbase"):
        good = getattr(ren, name)
        for entry in (None, float(good[1]), str(good[1])):
            cases.append(_mangled(ren, **{name: [good[0], entry, *good[2:]]}))
    # whole maps of the wrong type, and FTT or FVV entries that are no ints:
    # a str, or a float or bool equal to the right id
    for name in ("ftt", "fvv", "cc", "vbase", "perms"):
        cases.append(_mangled(ren, **{name: None}))
    for name in ("ftt", "fvv"):
        good = getattr(ren, name)
        i = good.index(1)
        for entry in ("1", 1.0, True):
            cases.append(_mangled(ren, **{name: [*good[:i], entry, *good[i + 1 :]]}))
    for bad in cases:
        with pytest.raises(BadRenumbering):
            apply_renumbering(ew, bad)
    assert issubclass(BadRenumbering, TopologyError)


@pytest.mark.slow
def test_encoding_matches_reference_at_benchmark_scale(perforated_grid):
    cube = kuhn_cube(12)
    rng = random.Random(12)
    perforated = cube.subcomplex(rng.sample(cube.top_ids, round(0.7 * cube.num_tops)))
    # 6 000 and 7 258 tets, and 10 512 4-simplices
    for c in (kuhn_cube(10), perforated, perforated_grid(5, 4, 5)):
        dec = decompose(c)
        assert_matches_reference(Ewds.build(dec), dec)
