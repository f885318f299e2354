"""Structured Kuhn-subdivided test meshes, in any dimension.

kuhn_brick builds a block of unit cubes of any dimension, each cut into the
simplices around its main diagonal (the standard Kuhn subdivision): one per
order of the axes, so dim! of them per cube.  The result is a manifold
ball, hence initial quasi-manifold, and its size is controlled exactly.
Used by the benchmark and the complexity tests, where predictable N is what
matters, and by the 4-D splitmap tests.
"""

from __future__ import annotations

import itertools

from .complexes import Complex


def kuhn_brick(*sizes: int) -> Complex:
    """A sizes[0] x sizes[1] x ... block of unit cubes, Kuhn-subdivided.

    Corner (x0, x1, ...) has id 1 + x0 + (n0 + 1) * (x1 + (n1 + 1) * ...),
    cubes are numbered with x0 fastest, and each cube's simplices follow
    the axis orders of itertools.permutations, as paths from the cube's
    lowest corner to its highest.
    """
    dim = len(sizes)
    strides = [1]
    for n in sizes[:-1]:
        strides.append(strides[-1] * (n + 1))
    perms = list(itertools.permutations(range(dim)))
    rows: dict[int, tuple[int, ...]] = {}
    tid = 1
    for cube in itertools.product(*(range(n) for n in reversed(sizes))):
        first = 1 + sum(x * s for x, s in zip(reversed(cube), strides))
        for perm in perms:
            v = first
            verts = [v]
            for axis in perm:
                v += strides[axis]
                verts.append(v)
            rows[tid] = tuple(verts)
            tid += 1
    return Complex(rows, validate=False)


def kuhn_grid(n: int, dim: int) -> Complex:
    """n**dim unit cubes of dimension dim: dim! * n**dim simplices."""
    return kuhn_brick(*[n] * dim)


def kuhn_cube(n: int) -> Complex:
    """n x n x n cubes: 6*n**3 tets."""
    return kuhn_grid(n, 3)
