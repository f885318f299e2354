"""Face counts that only tests ask of a complex."""

from collections import Counter
from itertools import combinations


def order_of(c, gamma):
    """Number of top cofaces of gamma in c; 0 for a non-face."""
    return len(c.star(gamma))


def faces_of_dim(c, m):
    """All m-faces of c, as sorted tuples, deduplicated across tops."""
    out = set()
    for t in c.top_ids:
        row = sorted(c.row(t))
        if len(row) >= m + 1:
            out.update(combinations(row, m + 1))
    return out


def boundary(c):
    """(d-1)-faces of a regular complex c with exactly one top coface."""
    cofaces = Counter(f for t in c.top_ids for f in combinations(sorted(c.row(t)), c.dim))
    return {f for f, n in cofaces.items() if n == 1}
