"""Face table used to find one top spanning a simplex that is no splitmap key,
and the row list of sorted source rows filled in the same pass."""

import itertools

import pytest

from nmdecomp.complexes import parse_tv
from nmdecomp.counters import OpCounter
from nmdecomp.decompose import decompose
from nmdecomp.errors import NotInTrie
from nmdecomp.nonmanifold import build_ft_trie
from nmdecomp.oracle import random_complex
from nmdecomp.winged import Ewds
from helpers import packed, packed_ids


@pytest.fixture()
def pair():
    return parse_tv("simplex 1: 1 2 3\nsimplex 2: 2 3 4\n")


def face_table(ew):
    """The face table of ew, built from its tables and its copy map."""
    return build_ft_trie(ew)


def table(c):
    return face_table(Ewds.build(decompose(c)))


def proper_faces(c):
    """Faces of 2..w-1 vertices of some width-w top of c."""
    out = set()
    for t in c.top_ids:
        row = sorted(c.row(t))
        for r in range(2, len(row)):
            out.update(itertools.combinations(row, r))
    return out


def test_insert_and_lookup(pair):
    dec = decompose(pair)
    trie = face_table(Ewds.build(dec))
    tops, _ = packed_ids(dec)
    assert tops[trie.lookup((1, 2))] == 1
    assert tops[trie.lookup((2, 3))] in (1, 2)
    assert tops[trie.lookup((3, 4))] == 2


def test_entries_are_the_faces_between_vertex_and_top(pair):
    draws = [random_complex(seed=s, max_tops=12, d=s % 4 + 1) for s in range(8)]
    for c in [pair, *draws]:
        dec = decompose(c)
        trie = face_table(Ewds.build(dec))
        tops, _ = packed_ids(dec)
        assert set(trie.faces) == proper_faces(c)
        for gamma in trie.faces:
            assert tops[trie.lookup(gamma)] in c.star(gamma)


def test_word_count(pair):
    trie = table(pair)
    assert trie.num_words == len(proper_faces(pair)) == 5
    assert trie.num_nodes == trie.num_words


def test_lookup_returns_packed_tops():
    # the source ids 10 and 20 are no packed ids; the table answers in packed ids
    c = parse_tv("simplex 10: 1 2 3 4\nsimplex 20: 1 5\n")
    dec = decompose(c)
    trie = face_table(Ewds.build(dec))
    tops, _ = packed_ids(dec)
    assert trie.lookup((1, 2, 3)) == packed(tops, 10)
    assert trie.lookup((2, 4)) == packed(tops, 10)


@pytest.mark.parametrize(
    "gamma", [(1, 4), (1, 2, 3, 4), (5,), (2, 5), (1,), (1, 2, 3), (2, 3, 4)]
)
def test_non_faces_raise(pair, gamma):
    # non-faces, vertices and whole top rows are no entries
    trie = table(pair)
    with pytest.raises(NotInTrie):
        trie.lookup(gamma)


def test_lookup_ticks_one_comparison(pair):
    trie = table(pair)
    counter = OpCounter()
    trie.lookup((2, 3), counter)
    assert (counter.visits, counter.expansions, counter.comparisons) == (0, 0, 1)
    with pytest.raises(NotInTrie):
        trie.lookup((1, 4), counter)
    assert counter.comparisons == 2
