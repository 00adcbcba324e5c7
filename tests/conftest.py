import random

import pytest

from gemkit import parse_code_line
from gemkit.library import (
    k2,
    order4_nonbipartite,
    q4,
    rp3,
    torus6,
    torus_disk,
    torus_interval,
)


@pytest.fixture
def t6():
    return torus6()


@pytest.fixture
def k24():
    return k2(4)


@pytest.fixture
def sphere8():
    """An order-8 supercontracted 4-sphere whose only dipoles have two
    colors, so picking each cancellation on it recognizes a residue."""
    return parse_code_line(
        "4;8;1,0,6,5,7,3,2,4;2,4,0,6,1,7,3,5;2,4,0,6,1,7,3,5;1,0,4,5,2,3,7,6;3,5,6,0,7,1,2,4"
    )


@pytest.fixture
def fixtures_all():
    return [
        k2(2),
        k2(4),
        torus6(),
        torus_interval(),
        torus_disk(),
        q4(),
        order4_nonbipartite(0),
        order4_nonbipartite(1),
        rp3(),
    ]


@pytest.fixture
def rng():
    return random.Random(20250808)
