"""The package's public names."""

import pytest

import nmdecomp
from nmdecomp import nonmanifold
from nmdecomp.fixtures import load_tv


def test_all_resolves_and_is_sorted():
    missing = [name for name in nmdecomp.__all__ if not hasattr(nmdecomp, name)]
    assert missing == []
    assert nmdecomp.__all__ == sorted(nmdecomp.__all__)


def test_names_the_benchmark_reads(monkeypatch):
    # perfbench/bench.py reads these names and wraps the two builders that
    # build_nm_layer looks up in its module at call time
    assert issubclass(nmdecomp.NotInTrie, nmdecomp.TopologyError)
    calls = []
    for name in ("build_ft_trie", "build_splitmap"):
        fn = getattr(nonmanifold, name)
        monkeypatch.setattr(
            nonmanifold, name, lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a)
        )
    nm = nmdecomp.build_nm_layer(nmdecomp.Ewds.build(nmdecomp.decompose(load_tv("fix_b.tv"))))
    assert sorted(calls) == ["build_ft_trie", "build_splitmap"]
    with pytest.raises(nmdecomp.NotInTrie):
        nm.trie.lookup((99, 100))
    assert type(nm.trie.num_nodes) is int and type(nm.trie.num_words) is int
    assert nm.trie.num_words == len(nm.ewds.source.source.all_faces())
