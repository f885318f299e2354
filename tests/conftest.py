import random

import pytest

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
def perforated_cube():
    """Seed -> kuhn_cube(6) keeping a seeded 70 % of its tets.

    About 900 tets with some 160 splitting vertices each.
    """
    cube = kuhn_cube(6)

    def draw(seed):
        rng = random.Random(seed)
        return cube.subcomplex(rng.sample(cube.top_ids, round(0.7 * cube.num_tops)))

    return draw
