import random

import pytest

from nmdecomp.complexes import Complex
from nmdecomp.fixtures import load_text, load_tv
from nmdecomp.meshes import kuhn_cube


@pytest.fixture(scope="session")
def fan():
    """Three tetrahedra glued in a fan along shared triangles."""
    return load_tv("fix_a.tv")


@pytest.fixture(scope="session")
def mixed():
    """Mixed-dimension complex with three splitting vertices."""
    return load_tv("fix_b.tv")


@pytest.fixture(scope="session")
def cones():
    """Three tet cones around a cavity; one order-3 triangle, still IQM."""
    return load_tv("fix_c.tv")


@pytest.fixture(scope="session")
def bouquet():
    """Four edges meeting only at a common vertex."""
    return load_tv("fix_d.tv")


@pytest.fixture(scope="session")
def two_edges():
    return load_tv("fix_e.tv")


@pytest.fixture(scope="session")
def pinched():
    """Triangle fan that is pseudomanifold but not manifold at w."""
    return load_tv("fix_f.tv")


@pytest.fixture(scope="session")
def claw():
    """Edge-and-triangle test bed for the gluing scripts."""
    return load_tv("fix_g.tv")


@pytest.fixture(scope="session")
def cones_script():
    return load_text("fix_c.glue")


@pytest.fixture(scope="session")
def cones_partial_script():
    return load_text("fix_c_partial.glue")


@pytest.fixture(scope="session")
def claw_script():
    return load_text("fix_g.glue")


@pytest.fixture(scope="session")
def pinched_edge():
    """Eight unit cubes of kuhn_cube(3), an IQM with no splitting vertex
    whose edge (22, 38) is pinched: its four tets form two patches."""
    cubes = [
        (0, 0, 1), (1, 1, 1), (0, 0, 2), (1, 0, 2), (1, 1, 2), (0, 0, 0), (1, 0, 0), (1, 1, 0),
    ]
    # cube (x, y, z) holds tops 6i+1..6i+6, i = x + 3(y + 3z)
    tops = [6 * (x + 3 * (y + 3 * z)) + k for x, y, z in cubes for k in range(1, 7)]
    return kuhn_cube(3).subcomplex(tops)


@pytest.fixture(scope="session")
def pinched_edge_cone(pinched_edge):
    """The cone over pinched_edge with apex 100: a 4-dimensional IQM whose
    edge (22, 38) and triangle (22, 38, 100) are pinched."""
    return Complex(
        {t: pinched_edge.row(t) + (100,) for t in pinched_edge.top_ids}, validate=False
    )


@pytest.fixture(scope="session")
def perforated_cube():
    """Seed -> kuhn_cube(6) keeping a seeded 70 % of its tets.

    About 900 tets with some 160 splitting vertices each.
    """
    cube = kuhn_cube(6)

    def draw(seed):
        rng = random.Random(seed)
        return cube.subcomplex(rng.sample(cube.top_ids, round(0.7 * cube.num_tops)))

    return draw
