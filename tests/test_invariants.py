"""Regular genus, G-degree identities, fundamental-group wrappers,
fingerprints, small-order classification."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemkit import (
    AbelianInvariants,
    ColoredGraph,
    ColorRangeError,
    HypothesisViolatedError,
    OutOfTableRangeError,
    ResidueClass,
    ResidueLattice,
    ResidueView,
    classify_small,
    cyclic_orders,
    fingerprint,
    g_degree,
    h1_manifold,
    h1_quasi_manifold,
    homology_h1,
    inflate,
    parse_code_line,
    pi1_presentation,
    regular_genus,
    simplify,
)
from gemkit.census import CensusParams, enumerate_census, random_graph
from gemkit.invariants import _residue_bigons
from gemkit.residues import complement
from gemkit.library import (
    k2,
    order4_nonbipartite,
    q4,
    rp3,
    torus6,
    torus_disk,
    torus_interval,
)
from oracles import (
    bicolored_cycles,
    bigon_count,
    cycle_complex_h1,
    residue_bigon_tables,
    union_find_components,
)


# ============================================================
# Cyclic orders and regular genus
# ============================================================


def test_cyclic_order_counts():
    assert len(cyclic_orders(range(3))) == 1
    assert len(cyclic_orders(range(4))) == 3
    assert len(cyclic_orders(range(5))) == 12  # 4!/2


def test_cyclic_orders_refuse_fewer_than_three_colors():
    """The orders are kept per sorted color tuple: a color set given in
    any order reads the same orders, and one of fewer than three colors
    is refused on every call, not only the first."""
    assert cyclic_orders((4, 1, 3, 0)) == cyclic_orders([0, 1, 3, 4])
    for colors in ((), (2,), (1, 0), (1, 0)):
        with pytest.raises(ValueError, match="at least three colors"):
            cyclic_orders(colors)


def test_cyclic_orders_refuse_repeated_and_negative_colors():
    """A repeated color and a negative one are refused on every call, not
    kept as orders of the cached color tuple."""
    for _ in range(2):
        with pytest.raises(ValueError, match="none repeated"):
            cyclic_orders([0, 0, 1])
        with pytest.raises(ColorRangeError, match="negative"):
            cyclic_orders([-1, 0, 1])


def test_cyclic_orders_canonical():
    for eps in cyclic_orders(range(5)):
        assert eps[0] == 0
        assert eps[1] < eps[-1]


def test_regular_genus_k2():
    g = k2(4)
    for eps in cyclic_orders(range(5)):
        assert regular_genus(g, eps) == 0


def test_regular_genus_torus(t6):
    (eps,) = cyclic_orders(range(3))
    assert regular_genus(t6, eps) == 1


def test_regular_genus_projective_plane():
    # the complete graph on four vertices with three colors
    from gemkit import ColoredGraph

    g = ColoredGraph(((1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)))
    (eps,) = cyclic_orders(range(3))
    assert regular_genus(g, eps) == Fraction(1, 2)


def test_regular_genus_validates():
    with pytest.raises(ColorRangeError):
        regular_genus(k2(2), (0, 1, 1))


def test_genus_nonnegative_random(rng):
    for _ in range(50):
        g = random_graph(rng.choice([2, 3, 4]), rng.choice([4, 6, 8]), rng)
        for eps in cyclic_orders(tuple(g.colors)):
            assert regular_genus(g, eps) >= 0


# ============================================================
# G-degree
# ============================================================


def test_g_degree_k2():
    report = g_degree(k2(4))
    assert report.omega_int == 0
    assert report.omega_reduced == 0


def test_g_degree_torus(t6):
    # for surfaces the degree is the genus itself
    assert g_degree(t6).omega == 1


def test_g_degree_q4():
    report = g_degree(q4())
    assert report.omega_int == 6
    assert report.omega_reduced == 2
    assert report.checks.multiple_of_three
    assert report.checks.closed_form
    assert report.checks.subdegree
    assert all(report.checks.pair_relation.values())


def test_g_degree_order4_nonbipartite():
    assert g_degree(order4_nonbipartite(0)).omega_reduced == 3
    assert g_degree(order4_nonbipartite(1)).omega_reduced == 4


def test_g_degree_identities_random(rng):
    for _ in range(60):
        g = random_graph(4, rng.choice([2, 4, 6, 8]), rng)
        report = g_degree(g)
        assert report.omega_int % 3 == 0
        checks = report.checks
        assert checks.multiple_of_three
        assert checks.closed_form
        assert checks.subdegree
        assert all(checks.pair_relation.values())


def test_supercontracted_degree_lower_bound(rng):
    """Reduced degree is at least half the order minus one when every color
    complement stays connected."""
    from gemkit.census import CensusParams, enumerate_census

    for order in (2, 4, 6):
        cat = enumerate_census(CensusParams(n=4, order=order, supercontracted=True))
        for g in cat.graphs():
            assert g_degree(g).omega_reduced >= g.p - 1


def _subdegree_cases():
    """The n=4 order-6 census, five fixtures, and seeded inflated graphs,
    most of which split some residue missing one color."""
    rng = random.Random(20261020)
    graphs = list(enumerate_census(CensusParams(n=4, order=6)).graphs())
    graphs += [q4(), rp3(), torus_disk(), order4_nonbipartite(0), order4_nonbipartite(1)]
    graphs += [
        inflate(random_graph(4, rng.choice((2, 4, 6, 8)), rng), rng.choice((1, 2, 3)), rng)
        for _ in range(36)
    ]
    return graphs


_SUBDEGREE_CASES = _subdegree_cases()


def test_residue_bigons_match_cut_out_residues():
    """The bigon table the subdegree reads for each residue missing a color
    equals that residue cut out as its own table, its cycles walked there."""
    split = [
        g for g in _SUBDEGREE_CASES
        if any(g.lattice.count(complement(1 << c, g.n)) > 1 for c in g.colors)
    ]
    assert len(split) >= 20  # with one residue per color the grouping is trivial
    for g in _SUBDEGREE_CASES:
        for c in g.colors:
            ours = {rv.vertices[0]: t for rv, t in _residue_bigons(g.lattice, c)}
            assert ours == residue_bigon_tables(g, c), (g, c)


def test_g_degree_rebuilds_nothing(monkeypatch):
    """Once the lattice is warm, the G-degree builds no residue graph, no
    graph and no lattice."""
    for g in _SUBDEGREE_CASES:
        g.classification
    calls = {}
    for cls, name in ((ResidueView, "as_graph"), (ColoredGraph, "__init__"), (ResidueLattice, "__init__")):
        key = f"{cls.__name__}.{name}"
        calls[key] = 0

        def counted(*args, _fn=getattr(cls, name), _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    for g in _SUBDEGREE_CASES:
        g_degree(g)
    assert calls == dict.fromkeys(calls, 0)
    q4().lattice.residues(0b111)[0].as_graph().lattice  # each counter counts
    assert all(calls.values()), calls


def _cyclic_representative(eps):
    """eps rotated to start at its least color and, of its two directions,
    the one `cyclic_orders` lists."""
    i = eps.index(min(eps))
    eps = eps[i:] + eps[:i]
    return eps if eps[1] < eps[-1] else eps[:1] + eps[:0:-1]


def _degree_cases():
    rng = random.Random(20261021)
    graphs = [k2(2), torus6(), rp3(), q4(), torus_disk(), order4_nonbipartite(1), k2(5)]
    graphs += [random_graph(n, rng.choice((4, 6, 8)), rng) for n in (2, 3, 4, 5) for _ in range(3)]
    return graphs


_DEGREE_CASES = _degree_cases()


@settings(derandomize=True, database=None, max_examples=36, deadline=None)
@given(data=st.data())
def test_g_degree_invariant_under_relabel_and_color_permutation(data):
    """Relabeling keeps the whole report.  A color permutation keeps the
    degrees, rho and the checks, and moves each genus to the permuted order."""
    g = data.draw(st.sampled_from(_DEGREE_CASES))
    report = g_degree(g)
    assert g_degree(g.relabel(data.draw(st.permutations(range(g.order))))) == report
    colors = data.draw(st.permutations(range(g.n + 1)))
    moved = g_degree(g.permute_colors(colors))
    assert (moved.omega, moved.omega_reduced, moved.rho, moved.checks) == (
        report.omega, report.omega_reduced, report.rho, report.checks)
    new = {old: c for c, old in enumerate(colors)}  # permute_colors: new c is old colors[c]
    for eps, genus in report.genera.items():
        assert moved.genera[_cyclic_representative(tuple(new[c] for c in eps))] == genus


# ============================================================
# Fundamental group wrappers
# ============================================================


def test_pi1_rp3():
    pres = pi1_presentation(rp3(), 0, "m")
    assert str(homology_h1(pres)) == "Z/2"


def test_pi1_order4_nonbipartite():
    for variant in (0, 1):
        g = order4_nonbipartite(variant)
        c = next(
            c for c in g.colors
            if not _color_singular(g, c)
        )
        pres = pi1_presentation(g, c, "m")
        assert str(homology_h1(pres)) == "Z/2"


def _color_singular(g, c):
    cls = g.classification
    return any(
        cls.of(rv) is not ResidueClass.ORDINARY
        for rv in cls.lattice.residues(complement(1 << c, g.n))
    )


def test_pi1_hypothesis_violation():
    g = torus_disk()
    # colors 1..4 are singular: asking for target m there must fail
    with pytest.raises(HypothesisViolatedError):
        pi1_presentation(g, 1, "m")
    # two singular colors: no c makes the cone-space shortcut valid
    with pytest.raises(HypothesisViolatedError):
        pi1_presentation(g, 0, "hatm")


def test_pi1_hatm_on_closed_graph():
    pres = pi1_presentation(rp3(), 0, "hatm")
    assert str(homology_h1(pres)) == "Z/2"


def test_h1_quasi_manifold_matches_hatm_presentation(fixtures_all):
    """Both H1 functions answer on every graph, and equal H1 of the paper's
    presentation ("m" for the manifold, "hatm" for the cone space) for
    every color where that presentation's hypothesis holds."""
    rng = random.Random(20261018)
    graphs = fixtures_all + [
        random_graph(n, order, rng)
        for n in range(2, 6)
        for order in range(2, 16, 2)
        for _ in range(4)
    ]
    covered = {"m": 0, "hatm": 0}
    for g in graphs:
        ours = {"m": h1_manifold(g), "hatm": h1_quasi_manifold(g)}
        assert all(isinstance(h1, AbelianInvariants) for h1 in ours.values())
        for c in g.colors:
            for target, h1 in ours.items():
                try:
                    oracle = homology_h1(pi1_presentation(g, c, target))
                except HypothesisViolatedError:
                    continue
                covered[target] += 1
                assert h1 == oracle, (g, c, target)
    assert covered["m"] >= 200 and covered["hatm"] >= 150


# an order-8 supercontracted five-color class where no color meets either
# hypothesis of the paper's presentations
ORDER8_NO_ORDINARY_COLOR = (
    "4;8;1,0,3,2,5,4,7,6;1,0,3,2,5,4,7,6;2,4,0,6,1,7,3,5;2,5,0,7,6,1,4,3;3,5,6,0,7,1,2,4"
)


def test_h1_pinned_values():
    assert str(h1_manifold(torus_disk())) == "Z+Z"
    assert str(h1_manifold(rp3())) == str(h1_quasi_manifold(rp3())) == "Z/2"
    g = parse_code_line(ORDER8_NO_ORDINARY_COLOR)
    assert all(_color_singular(g, c) for c in g.colors)
    assert str(h1_manifold(g)) == "Z+Z/2+Z/2"
    assert str(h1_quasi_manifold(g)) == "0"


def test_h1_manifold_matches_cycle_complex_oracle():
    """The same values by an independent route: bicolored cycles walked
    edge by edge, invariant factors by minor gcds."""
    for g in (torus_disk(), rp3(), torus6(), parse_code_line(ORDER8_NO_ORDINARY_COLOR)):
        h1 = h1_manifold(g)
        assert cycle_complex_h1(g.matchings) == (h1.free_rank, h1.torsion)


def _move_cases():
    rng = random.Random(20261019)
    bases = [k2(2), k2(4), torus6(), torus_interval(), torus_disk(), q4(),
             order4_nonbipartite(0), order4_nonbipartite(1), rp3()]
    bases += [random_graph(rng.choice((3, 4)), rng.choice((4, 6, 8)), rng) for _ in range(9)]
    return bases


_MOVE_CASES = _move_cases()


def _h1_and_space(g):
    return h1_manifold(g), h1_quasi_manifold(g), fingerprint(g).space_key()


@settings(derandomize=True, database=None, max_examples=36, deadline=None)
@given(data=st.data())
def test_h1_and_space_key_invariant_under_moves(data):
    """Relabeling, color permutation, proper dipole insertion and insertion
    followed by simplification keep both H1s and the space key."""
    g = data.draw(st.sampled_from(_MOVE_CASES))
    before = _h1_and_space(g)
    perm = data.draw(st.permutations(range(g.order)))
    colors = data.draw(st.permutations(range(g.n + 1)))
    seed = data.draw(st.integers(0, 2**16))
    grown = inflate(g, data.draw(st.integers(1, 3)), random.Random(seed))
    for moved in (g.relabel(perm), g.permute_colors(colors), grown, simplify(grown).graph):
        assert _h1_and_space(moved) == before


def test_pi1_cgroup_untested():
    pres = pi1_presentation(torus_disk(), 1, "cgroup")
    assert len(pres.generators) == 3


def test_pi1_f_tb():
    pres = pi1_presentation(torus_disk(), 0, "m")
    assert str(homology_h1(pres)) == "Z+Z"


def test_lattice_counts_match_walked_cycles():
    """regular_genus and the G-degree's bigon total, read from the residue
    lattice, agree with direct walks of the bicolored cycles."""
    rng = random.Random(20250917)
    for _ in range(50):
        n = rng.choice((3, 4))
        g = random_graph(n, rng.choice((2, 4, 6, 8, 10, 12)), rng)
        for eps in cyclic_orders(tuple(g.colors)):
            walked = sum(
                bicolored_cycles(g.matchings, eps[j], eps[(j + 1) % len(eps)])
                for j in range(len(eps))
            )
            assert regular_genus(g, eps) == Fraction(2 - walked - (1 - n) * g.p, 2)
        if n == 4:
            top = sum(
                len(union_find_components(g, [d for d in g.colors if d != c]))
                for c in g.colors
            )
            # rho = (top residues) + 5p - (bigons)
            assert g_degree(g).rho == top + 5 * g.p - bigon_count(g)


# ============================================================
# Fingerprints and classification table
# ============================================================


def test_fingerprint_fields():
    fp = fingerprint(torus_disk())
    assert fp.n == 4 and fp.order == 6
    assert fp.bipartite
    assert fp.chi_m == 0
    assert fp.boundary_components == 1
    assert fp.singular_shape == ((1, 0),)
    assert str(fp.h1) == "Z+Z"
    assert fp.omega_reduced is not None


def test_classify_spheres():
    assert classify_small(k2(1)) == "S1"
    assert classify_small(k2(2)) == "S2"
    assert classify_small(k2(4)) == "S4"
    assert classify_small(q4()) == "S4"


def test_classify_order4_nonbipartite():
    assert classify_small(order4_nonbipartite(0)) == "RP2xB2"
    assert classify_small(order4_nonbipartite(1)) == "RP2xB2"


def test_classify_surfaces(t6):
    assert classify_small(t6) == "T2"
    from gemkit import ColoredGraph

    rp2 = ColoredGraph(((1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)))
    assert classify_small(rp2) == "RP2"


def test_classify_torus_pieces():
    assert classify_small(torus_interval()) == "S1xS1xI"
    assert classify_small(torus_disk()) == "S1xS1xB2"


_UNNAMED = None  # what classify_small returns for an entry its table has no row for
_SMALL_CENSUS_NAMES = {
    (1, 2): ("S1",),
    (1, 4): ("S1",),
    (1, 6): ("S1",),
    (2, 2): ("S2",),
    (2, 4): ("S2", "RP2"),
    (2, 6): ("RP2", "KB", "S2", "S2", "T2"),
    (3, 2): ("S3",),
    (3, 4): ("S3", "S3", "RP2xB1"),
    (3, 6): ("S3",) + (_UNNAMED,) * 10 + ("S3",) * 4 + ("S1xB2", "S1xS1xI"),
    (4, 2): ("S4",),
    (4, 4): ("S4", "S4", "RP2xB2", "RP2xB2"),
    (4, 6): (_UNNAMED, "S4") + (_UNNAMED,) * 32 + ("S4",) * 6
    + (_UNNAMED, _UNNAMED, "S1xS1xB2", "S1xB3", "B4", "S1xB3", "S1xS1xB2"),
}


@pytest.mark.parametrize("n, order", sorted(_SMALL_CENSUS_NAMES))
def test_classify_small_pinned_on_census(n, order):
    """Every name the hand table gives on the color-permuting census with
    n <= 4 and order <= 6 (84 classes), entry by entry in catalogue order,
    so that a generated table replacing it can be held to the same names."""
    cat = enumerate_census(CensusParams(n=n, order=order))
    assert tuple(classify_small(g) for g in cat.graphs()) == _SMALL_CENSUS_NAMES[n, order]


def test_order6_ball_entry_homology():
    """The one bipartite order-6 class naming a ball is simply connected at
    the homology level and carries a single spherical-boundary marker: its
    singular set is one point."""
    from gemkit import h1_manifold, singular_summary
    from gemkit.census import CensusParams, enumerate_census

    cat = enumerate_census(CensusParams(n=4, order=6, bipartite=True))
    balls = [g for g in cat.graphs() if classify_small(g) == "B4"]
    assert len(balls) == 1
    (ball,) = balls
    assert h1_manifold(ball).trivial
    summary = singular_summary(ball)
    assert len(summary.components) == 1
    assert summary.dimension in (0, 1)


def test_classify_out_of_range():
    with pytest.raises(OutOfTableRangeError):
        classify_small(rp3())  # order 8
    with pytest.raises(OutOfTableRangeError):
        classify_small(k2(5))  # six colors
