"""The package's public names."""

import nmdecomp


def test_all_resolves_and_is_sorted():
    missing = [name for name in nmdecomp.__all__ if not hasattr(nmdecomp, name)]
    assert missing == []
    assert nmdecomp.__all__ == sorted(nmdecomp.__all__)
