"""Face counts that only tests ask of a complex."""

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
