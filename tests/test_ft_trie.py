"""Face table used to find one top spanning a simplex that is no splitmap key."""

import itertools

import pytest

from nmdecomp.complexes import parse_tv
from nmdecomp.counters import OpCounter
from nmdecomp.errors import NotInTrie
from nmdecomp.nonmanifold import build_ft_trie
from nmdecomp.oracle import random_complex


@pytest.fixture()
def pair():
    return parse_tv("simplex 1: 1 2 3\nsimplex 2: 2 3 4\n")


def identity(c):
    return {t: t for t in c.top_ids}


def test_insert_and_lookup(pair):
    trie = build_ft_trie(pair, identity(pair))
    assert trie.lookup((1,)) == 1
    assert trie.lookup((2, 3)) in (1, 2)
    assert trie.lookup((2, 3, 4)) == 2


def test_all_faces_present(pair):
    draws = [random_complex(seed=s, max_tops=12, d=s % 4 + 1) for s in range(8)]
    for c in [pair, *draws]:
        # the table returns hinted ids, shifted here so none is a source id
        trie = build_ft_trie(c, {t: 100 + t for t in c.top_ids})
        for t in c.top_ids:
            row = sorted(c.row(t))
            for n in range(len(row)):
                for w in itertools.combinations(row, n + 1):
                    assert trie.lookup(w) - 100 in c.star(w)


def test_word_count(pair):
    trie = build_ft_trie(pair, identity(pair))
    faces = pair.all_faces()
    assert trie.num_words == len(faces)
    assert trie.num_nodes == trie.num_words


def test_top_hint_translation(pair):
    trie = build_ft_trie(pair, {1: 10, 2: 20})
    assert trie.lookup((1, 2, 3)) == 10
    assert trie.lookup((4,)) == 20


@pytest.mark.parametrize("gamma", [(1, 4), (1, 2, 3, 4), (5,), (2, 5)])
def test_non_faces_raise(pair, gamma):
    trie = build_ft_trie(pair, identity(pair))
    with pytest.raises(NotInTrie):
        trie.lookup(gamma)


def test_lookup_ticks_one_comparison(pair):
    trie = build_ft_trie(pair, identity(pair))
    counter = OpCounter()
    trie.lookup((2, 3), counter)
    assert (counter.visits, counter.expansions, counter.comparisons) == (0, 0, 1)
    with pytest.raises(NotInTrie):
        trie.lookup((1, 4), counter)
    assert counter.comparisons == 2
