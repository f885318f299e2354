"""Brute-force reference implementations used to check the fast paths."""

import hashlib

from nmdecomp.complexes import format_tv, parse_tv, simplex
from nmdecomp.decompose import canonical_pairs, decompose
from nmdecomp.oracle import (
    labeled_isomorphic,
    oracle_decompose,
    oracle_snm,
    oracle_star,
    random_complex,
)


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
    import pytest

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
