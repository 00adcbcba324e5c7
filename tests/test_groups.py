"""Presentations, Smith normal form against the minor-gcd oracle, H1."""

import random

from gemkit import (
    AbelianInvariants,
    GroupPresentation,
    c_group_presentation,
    homology_h1,
    pi1_presentation,
    quotient_presentation,
    smith_invariant_factors,
)
from gemkit.census import random_graph
from gemkit.groups import connecting_relators
from gemkit.library import k2, torus_disk, torus_interval

from oracles import minor_gcd_invariant_factors


def test_smith_known_small_cases():
    assert smith_invariant_factors([[2]], 1) == [2]
    assert smith_invariant_factors([[2, 4], [6, 8]], 2) == [2, 4]
    assert smith_invariant_factors([[0, 0], [0, 0]], 2) == []
    assert smith_invariant_factors([[1, 0], [0, 1]], 2) == [1, 1]
    # torsion hiding behind unimodular mixing
    assert smith_invariant_factors([[2, 1], [0, 3]], 2) == [1, 6]


def test_smith_against_minor_oracle():
    rng = random.Random(99)
    for trial in range(50):
        nr = rng.randint(1, 8)
        nc = rng.randint(1, 8)
        rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        got = smith_invariant_factors(rows, nc)
        assert got == minor_gcd_invariant_factors(rows, nc), rows


def test_smith_divisibility_chain():
    rng = random.Random(5)
    for _ in range(50):
        rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
        factors = smith_invariant_factors(rows, 6)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


# ============================================================
# Presentations
# ============================================================


def test_k2_presentation_each_color():
    g = k2(4)
    for c in g.colors:
        pres = c_group_presentation(g, c)
        assert len(pres.generators) == 1
        assert len(pres.relators) == 4  # one per other color
        for word in pres.relators:
            assert len(word) == 1  # the single edge appears once per cycle
        assert homology_h1(pres).trivial


def test_bicolored_cycle_c_group():
    """On two colors the {i, c}-cycle set is the whole graph: a cycle of
    order 2p presents p generators and one relator, so H1 = Z^(p-1)."""
    for g, h1 in ((k2(1), "0"), (random_graph(1, 8, random.Random(1)), "Z+Z+Z")):
        for c in g.colors:
            for pres in (c_group_presentation(g, c), pi1_presentation(g, c, "cgroup")):
                assert (len(pres.generators), len(pres.relators)) == (g.order // 2, 1)
                assert str(homology_h1(pres)) == h1
            # the connecting relators kill all but one generator
            assert homology_h1(quotient_presentation(g, c)).trivial


def test_relator_length_is_edge_count(t6):
    pres = c_group_presentation(t6, 0)
    assert len(pres.generators) == 3
    # each {i,0}-cycle covers all 6 vertices: three 0-edges per relator
    for word in pres.relators:
        assert len(word) == 3


def test_connecting_relators_empty_when_connected(t6):
    for c in t6.colors:
        assert connecting_relators(t6, c) == ()


def test_connecting_relators_spanning():
    g = torus_interval()
    for c in g.colors:
        extra = connecting_relators(g, c)
        from gemkit import residue_count
        from gemkit.residues import complement

        parts = residue_count(g, complement(1 << c, g.n))
        assert len(extra) == parts - 1


def test_quotient_presentation_h1_known_spaces():
    assert str(homology_h1(quotient_presentation(torus_interval(), 0))) == "Z+Z"
    assert str(homology_h1(quotient_presentation(torus_disk(), 0))) == "Z+Z"


def test_presentation_robust_under_redundant_generator(rng):
    """Tietze-style noise: a fresh generator defined equal to a word of old
    ones leaves the abelian invariants unchanged."""
    base = quotient_presentation(torus_disk(), 0)
    expect = homology_h1(base)
    for _ in range(25):
        word_len = rng.randint(1, 4)
        word = tuple(
            (rng.randrange(len(base.generators)), rng.choice((1, -1)))
            for _ in range(word_len)
        )
        new_idx = len(base.generators)
        noisy = GroupPresentation(
            base.generators + (f"g{new_idx}",),
            base.relators + ((( new_idx, 1),) + tuple((g, -e) for g, e in reversed(word)),),
        )
        assert homology_h1(noisy) == expect


def test_format_lines():
    pres = GroupPresentation(("g0", "g1"), (((0, 1), (1, -1)), ()))
    text = pres.format_lines()
    assert "gen g0" in text and "gen g1" in text
    assert "rel g0 g1^-1" in text
    assert "rel 1" in text


def test_abelian_invariants_str():
    assert str(AbelianInvariants(0, ())) == "0"
    assert str(AbelianInvariants(2, ())) == "Z+Z"
    assert str(AbelianInvariants(1, (2, 4))) == "Z+Z/2+Z/4"


def test_single_relator_torsion():
    # the group on one generator killed twice over: Z/2
    pres = GroupPresentation(("g0",), (((0, 1), (0, 1)),))
    assert homology_h1(pres) == AbelianInvariants(0, (2,))
