"""Brute-force reference implementations used to check the fast paths."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from nmdecomp.complexes import Complex, canonical_pairs, format_tv, parse_tv, simplex
from nmdecomp.decompose import decompose
from nmdecomp.errors import DimensionUnsupported, InvalidComplex, NotAFace
from nmdecomp.meshes import kuhn_cube
from nmdecomp.oracle import (
    MAX_DRAW_DIM,
    MAX_DRAW_TOPS,
    _boundary_cycles,
    euler_all_faces,
    face_counts,
    labeled_isomorphic,
    link_complex,
    oracle_decompose,
    oracle_is_manifold,
    oracle_snm,
    oracle_star,
    random_complex,
)
from helpers import boundary, component_complexes


def test_oracle_star_matches_complex(fan, mixed):
    for c in (fan, mixed):
        for t in c.top_ids:
            for v in c.row(t):
                assert oracle_star(c, [v]) == c.star([v])


def test_oracle_snm_fan(fan):
    # edge {2,4} lies in all three tets; its triangles are every 2-face
    # containing it
    got = oracle_snm(fan, (2, 4), 1, 2)
    assert got == {(1, 2, 4), (2, 3, 4), (2, 4, 5), (2, 4, 6)}
    assert oracle_snm(fan, (1, 6), 1, 2) == set()


def test_oracle_snm_dim_guard(fan):
    with pytest.raises(AssertionError):
        oracle_snm(fan, (2, 4), 2, 3)
    # m == n degenerates to the simplex itself
    assert oracle_snm(fan, (2, 4), 1, 1) == {(2, 4)}


def test_canonical_pairs_fan(fan):
    # the fan's two shared triangles are both order-2 full intersections
    assert canonical_pairs(fan) == {frozenset({1, 2}), frozenset({2, 3})}


def test_oracle_decompose_identity_on_iqm(fan, cones, pinched):
    for c in (fan, cones, pinched):
        dec = oracle_decompose(c)
        assert dec.is_identity()
        assert len(dec.components) == 1


def test_oracle_decompose_matches_fast(mixed, bouquet, two_edges):
    for c in (mixed, bouquet, two_edges):
        a = decompose(c)
        b = oracle_decompose(c)
        assert a.sigma == b.sigma
        assert a.nabla.rows() == b.nabla.rows()
        assert [comp.top_ids for comp in a.components] == [
            comp.top_ids for comp in b.components
        ]


def test_labeled_isomorphic():
    a = parse_tv("simplex 1: 1 2\nsimplex 2: 2 3\n")
    b = parse_tv("simplex 1: 1 2\nsimplex 2: 2 4\n")
    assert labeled_isomorphic(a, b, {1: 1, 2: 2, 3: 4})
    assert not labeled_isomorphic(a, b, {1: 1, 2: 2, 3: 3})


def test_random_complex_deterministic():
    a = random_complex(seed=123, max_tops=12, d=3)
    b = random_complex(seed=123, max_tops=12, d=3)
    assert a.rows() == b.rows()
    c = random_complex(seed=124, max_tops=12, d=3)
    assert a.rows() != c.rows() or a.num_tops != c.num_tops


def test_random_complex_is_frozen():
    # the many-small workload and the sweeps draw from this generator, so
    # its output must not move
    digest = hashlib.sha256()
    for seed in range(200):
        digest.update(format_tv(random_complex(seed, 40, 1 + seed % 4)).encode())
    assert digest.hexdigest()[:16] == "7a739bc1d1d39d33"


def test_random_complex_bounds():
    for seed in range(20):
        c = random_complex(seed=seed, max_tops=15, d=4)
        assert 1 <= c.num_tops <= 15
        assert c.dim <= 4
        # rows are valid tops: no repeated vertices
        for t in c.top_ids:
            row = c.row(t)
            assert len(set(row)) == len(row)


@pytest.mark.parametrize(
    "max_tops, d",
    [(0, 3), (-2, 3), (5, -1), (5, -3), (2.5, 3), (5, 2.0), ("5", 2), (5, None), (True, 2),
     # above the caps; the huge ones, if drawn, would allocate without bound
     (MAX_DRAW_TOPS + 1, 3), (10**20, 1), (5, MAX_DRAW_DIM + 1), (5, 10**20)],
)
def test_random_complex_refuses_bad_sizes(max_tops, d):
    # refused before drawing, with the package's error, still a ValueError
    with pytest.raises(InvalidComplex):
        random_complex(1, max_tops, d)


def test_random_complex_draws_at_its_caps():
    many = random_complex(3, MAX_DRAW_TOPS, 1)
    assert 1 <= many.num_tops <= MAX_DRAW_TOPS
    wide = random_complex(3, 1, MAX_DRAW_DIM)
    assert wide.num_tops == 1 and wide.dim == MAX_DRAW_DIM


def test_random_complex_in_lattice():
    # every draw must sit in the gluing lattice of its own exploded source,
    # i.e. re-decomposing and pasting copies back recovers it
    for seed in (5, 17, 41):
        c = random_complex(seed=seed, max_tops=10, d=3)
        dec = decompose(c)
        back = {
            t: tuple(dec.sigma[v] for v in dec.nabla.row(t)) for t in dec.nabla.top_ids
        }
        assert back == c.rows()


def test_oracle_snm_on_random():
    for seed in (3, 9):
        c = random_complex(seed=seed, max_tops=8, d=3)
        d = c.dim
        if d < 1:
            continue
        # S_0m via the star, cross-checked face by face
        for t in c.top_ids:
            v = c.row(t)[0]
            for m in range(1, d + 1):
                got = oracle_snm(c, (v,), 0, m)
                expect = {
                    f
                    for u in c.star([v])
                    for f in _faces(c.row(u), m)
                    if v in f
                }
                assert got == expect


def _faces(row, m):
    import itertools

    return {simplex(f) for f in itertools.combinations(sorted(row), m + 1)}


# -- manifold recognition by link surfaces -----------------------------------


def test_link_complex(fan):
    lk = link_complex(fan, [2, 4])
    assert lk.simplex_set() >= {(1, 3), (3, 5), (5, 6)}
    with pytest.raises(NotAFace):
        link_complex(fan, [1, 6])


def test_face_counts_and_euler(fan):
    counts = face_counts(fan)
    assert counts[0] == 6 and counts[3] == 3
    # solid ball: chi = 1
    assert euler_all_faces(fan) == 1


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
    assert cone.classify().manifold_le3 is manifold
    assert oracle_is_manifold(cone) is manifold
    assert _boundary_cycles(surface) == cycles


def test_manifold_recognition_stops_above_dimension_3(pinched_edge_cone):
    with pytest.raises(DimensionUnsupported):
        oracle_is_manifold(pinched_edge_cone)
    assert pinched_edge_cone.classify().manifold_le3 is None


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_is_manifold_matches_oracle(seed, d):
    c = random_complex(seed, 20, d)
    assert c.classify().manifold_le3 is oracle_is_manifold(c)


SPHERE = sorted(boundary(kuhn_cube(2)))  # 48 triangles over vertices 1..27


@settings(max_examples=150, deadline=None)
@given(st.sets(st.integers(0, len(SPHERE) - 1), max_size=6), st.integers(0, 10**6))
def test_is_manifold_matches_oracle_on_cones(holes, seed):
    # the cone over the sphere less a few triangles: a ball when they form a
    # disk, else the apex link has several boundary cycles
    cone = Complex(
        {i: f + (100,) for i, f in enumerate(SPHERE, start=1) if i - 1 not in holes}
    )
    assert cone.classify().manifold_le3 is oracle_is_manifold(cone)
    # and the cone over a random 2-complex, pure or not
    base = random_complex(seed, 12, 2)
    cone = Complex({t: base.row(t) + (1000,) for t in base.top_ids})
    assert cone.classify().manifold_le3 is oracle_is_manifold(cone)


@pytest.mark.slow
def test_is_manifold_matches_oracle_on_perforated_cubes():
    # kuhn_cube(12) less a seeded 30 % of its tets, as in the benchmark-scale
    # decompose sweep: every component of its decomposition
    cube = kuhn_cube(12)
    rng = random.Random(12)
    c = cube.subcomplex(rng.sample(cube.top_ids, round(0.7 * cube.num_tops)))
    seen = set()
    for comp in component_complexes(decompose(c)):
        got = comp.classify().manifold_le3
        assert got is oracle_is_manifold(comp)
        seen.add(got)
    # 60 pieces of kuhn_cube(3) cut the same way, and their components
    small = kuhn_cube(3)
    for seed in range(60):
        rng = random.Random(seed)
        piece = small.subcomplex(rng.sample(small.top_ids, round(0.7 * small.num_tops)))
        for x in [piece, *component_complexes(decompose(piece))]:
            got = x.classify().manifold_le3
            assert got is oracle_is_manifold(x), seed
            seen.add(got)
    assert seen == {True, False}
