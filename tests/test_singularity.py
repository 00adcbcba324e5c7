"""Sphere recognition, residue classes, singular sets, Euler numbers,
manifold tests, boundary structure."""

import gc
import itertools
import random
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemkit import (
    Classification,
    ColoredGraph,
    ResidueClass,
    ResidueLattice,
    ResidueView,
    SphereStatus,
    UnresolvedResidueError,
    Verdict,
    add_dipole,
    boundary_structure,
    classify_graph,
    euler_characteristics,
    fingerprint,
    g_degree,
    h1_manifold,
    inflate,
    is_closed_manifold,
    is_singular_manifold,
    parse_code_line,
    quasi_manifold_euler,
    residue_lattice,
    residues,
    singular_summary,
    sphere_status,
    suspend,
)
from gemkit.census import CensusParams, enumerate_census, random_graph
from gemkit.library import (
    k2,
    order4_nonbipartite,
    q4,
    rp3,
    torus6,
    torus_disk,
    torus_interval,
)
from oracles import bipartite_table, residue_classes, singular_components, two_coloring


# ============================================================
# Sphere recognition
# ============================================================


def test_order2_is_sphere_every_dimension():
    for n in range(1, 6):
        st = sphere_status(k2(n))
        assert st.verdict is Verdict.SPHERE


def test_bigon_cycles_are_circles():
    g = ColoredGraph(((1, 0, 3, 2, 5, 4), (5, 2, 1, 4, 3, 0)))
    assert sphere_status(g).verdict is Verdict.SPHERE  # n=1: any cycle


def test_torus_not_sphere(t6):
    st = sphere_status(t6)
    assert st.verdict is Verdict.NOT_SPHERE
    assert st.certificate == "chi=0, a 2-sphere needs 2"


def test_rp3_not_sphere_with_homology_witness():
    st = sphere_status(rp3())
    assert st.verdict is Verdict.NOT_SPHERE
    assert "Z/2" in st.certificate


def test_sphere_by_reduction():
    # q4 represents the 4-sphere but is not the minimal graph
    st = sphere_status(q4())
    assert st.verdict is Verdict.SPHERE
    assert "reduced" in st.certificate


def test_suspended_torus_not_sphere():
    st = sphere_status(torus_interval())
    assert st.verdict is Verdict.NOT_SPHERE


# ============================================================
# Residue classification
# ============================================================


def test_small_residues_always_ordinary(t6):
    for r in range(3):
        for cols in itertools.combinations(t6.colors, r):
            for rv in residues(t6, cols):
                assert t6.classification.of(rv) is ResidueClass.ORDINARY


def test_complete_graph_residue_is_singular():
    # non-bipartite order-4 graph: any three pairwise distinct matchings form
    # the complete graph on four vertices, a projective plane
    g = order4_nonbipartite(0)  # colors 0,1,2 -> a; 3 -> b; 4 -> c
    rv = residues(g, (0, 3, 4))[0]
    assert rv.size == 4
    sub = rv.as_graph()
    bigons = sum(len(residues(sub, pair)) for pair in itertools.combinations(range(3), 2))
    assert bigons - sub.order // 2 == 1  # chi(RP2) = 1
    assert sphere_status(sub) == SphereStatus(
        Verdict.NOT_SPHERE, "not bipartite, hence not orientable"
    )
    assert g.classification.of(rv) is ResidueClass.SINGULAR


def test_torus_residue_of_suspension_is_singular():
    st = torus_interval()
    rv = residues(st, (0, 1, 2))[0]
    assert st.classification.of(rv) is ResidueClass.SINGULAR
    # the duplicated-color residues are spheres
    rv2 = residues(st, (0, 1, 3))[0]
    assert st.classification.of(rv2) is ResidueClass.ORDINARY


def test_surface_residue_criterion_on_fixtures(fixtures_all):
    """A residue on three colors is ordinary exactly when its bigon count
    minus half its vertex count is two."""
    cat = enumerate_census(CensusParams(n=4, order=6, supercontracted=True))
    for g in list(fixtures_all) + list(cat.graphs()):
        if g.n < 3:
            continue
        for cols in itertools.combinations(g.colors, 3):
            for rv in residues(g, cols):
                sub = rv.as_graph()
                bigons = sum(
                    len(residues(sub, pair))
                    for pair in itertools.combinations(range(3), 2)
                )
                expect = bigons - sub.order // 2 == 2
                assert (g.classification.of(rv) is ResidueClass.ORDINARY) == expect


def test_analysis_computed_once(fixtures_all):
    for g in fixtures_all:
        assert g.lattice is g.lattice
        assert g.classification is g.classification
        assert g.classification.lattice is g.lattice
        assert classify_graph(g).classes == g.classification.classes


def test_classification_is_one_pass(monkeypatch, sphere8):
    """A residue rebuilt for a reduction is reduced, not classified again:
    classifying a graph runs a single classify_graph pass."""
    import gemkit.singularity

    passes = []
    classify = gemkit.singularity.classify_graph

    def spy(g, step_limit=None):
        passes.append(g)
        return classify(g, step_limit)

    monkeypatch.setattr(gemkit.singularity, "classify_graph", spy)
    for g in (q4(), sphere8):
        passes.clear()
        assert not g.classification.unresolved
        assert passes == [g]


def test_analysis_holds_no_reference_to_its_graph():
    """The lattice and classification kept on a graph must not point back at
    it: with the cycle collector off, dropping the graph frees it at once."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        g = torus_disk()
        assert g.classification.singular
        g_degree(g)
        ref = weakref.ref(g)
        del g
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def _oracle_cases():
    rng = random.Random(20261018)
    graphs = list(enumerate_census(CensusParams(n=4, order=6)).graphs())
    graphs += list(enumerate_census(CensusParams(n=5, order=4)).graphs())
    graphs += [rp3(), torus_disk(), order4_nonbipartite(1)]
    graphs += [random_graph(rng.choice((3, 4, 5)), rng.choice((4, 6, 8, 10, 12)), rng)
               for _ in range(40)]
    # whole graphs bipartite, and residues large enough to reach a reduction;
    # on six colors, one-residue color sets holding a singular residue that
    # their own Euler count does not expose
    graphs += [ColoredGraph(bipartite_table(4, order, rng)) for order in (12, 16) for _ in range(3)]
    graphs += [random_graph(4, order, rng) for order in (12, 16) for _ in range(3)]
    graphs += [ColoredGraph(bipartite_table(5, 12, rng)) for _ in range(6)]
    return graphs


def test_classes_match_per_residue_oracle():
    """The lattice's bottom-up classes equal those found by testing each
    residue on its own subgraph."""
    for g in _oracle_cases():
        classes = {key: cls.value for key, cls in g.classification.classes.items()}
        assert classes == residue_classes(g)


# the one closed non-orientable manifold of the four-colored order-8 census
NONORIENTABLE_8 = "3;8;1,0,4,6,2,7,3,5;2,4,0,7,1,6,5,3;2,5,0,6,7,1,3,4;3,4,6,0,1,7,2,5"


def test_classification_rebuilds_only_bipartite_residues_on_four_colors(monkeypatch):
    """Order, Euler count, bipartiteness and the classes inside decide every
    3-residue and every non-bipartite one; no subgraph is built for them."""
    built = []
    as_graph = ResidueView.as_graph

    def spy(rv):
        sub = as_graph(rv)
        built.append((rv.h, two_coloring(sub) is not None))
        return sub

    monkeypatch.setattr(ResidueView, "as_graph", spy)
    # its 4-residue off the suspended color is S1 x~ S2: non-bipartite, chi 0, no singular residue
    nonorientable = suspend(parse_code_line(NONORIENTABLE_8), 0)
    for g in list(enumerate_census(CensusParams(n=4, order=6)).graphs()) + [rp3(), nonorientable]:
        classify_graph(g)
    assert built
    assert all(h >= 4 and bipartite for h, bipartite in built)


def test_step_budget_leaves_residues_unknown():
    """With no reduction step allowed, residues only a reduction certifies
    stay unknown, and whatever needs every class refuses."""
    for k, seed in ((0, 1), (2, 1), (3, 2)):
        g = inflate(q4(), k, random.Random(seed))
        cls = classify_graph(g, step_limit=0)
        assert ResidueClass.UNKNOWN in cls.classes.values()
        with pytest.raises(UnresolvedResidueError):
            cls.require_resolved("a budgeted classification")
        assert not g.classification.unresolved


def _class_list_cases():
    """Classifications of the library fixtures, the n=4 order-6 census and
    seeded inflations, and budgeted ones that leave residues unknown."""
    graphs = [k2(2), k2(3), k2(4), torus6(), torus_interval(), torus_disk(), q4(),
              order4_nonbipartite(0), order4_nonbipartite(1), rp3()]
    graphs += enumerate_census(CensusParams(n=4, order=6)).graphs()
    graphs += [inflate(base(), k, random.Random(seed))
               for base in (q4, torus_disk, rp3) for k, seed in ((2, 1), (4, 2))]
    budgeted = [classify_graph(g, step_limit=limit)
                for g in (q4(), torus_disk(), inflate(q4(), 2, random.Random(1)))
                for limit in (0, 1)]
    return [g.classification for g in graphs] + budgeted


def test_class_lists_match_a_rescan():
    """`singular` and `unresolved` hold the residues of their class, in key
    order, as a rescan of the lattice finds them, and are made once."""
    unknown = 0
    for cls in _class_list_cases():
        for state, got in ((ResidueClass.SINGULAR, cls.singular),
                           (ResidueClass.UNKNOWN, cls.unresolved)):
            want = [rv for rv in cls.lattice.all_residues(min_h=3) if cls.classes[rv.key] is state]
            assert list(got) == want
        assert cls.singular is cls.singular and cls.unresolved is cls.unresolved
        unknown += bool(cls.unresolved)
    assert unknown >= 4
    assert len(classify_graph(q4(), step_limit=0).unresolved) == 5
    for limit in (0, 1):
        cls = classify_graph(torus_disk(), step_limit=limit)
        assert (len(cls.unresolved), len(cls.singular)) == (1, 8)


def test_reports_rescan_the_lattice_at_most_twice(monkeypatch):
    """On a classified graph, the manifold flags, the singular summary, the
    Euler characteristics and the fingerprint read the classification's
    lists instead of scanning every residue on three or more colors."""
    g = torus_disk()
    assert g.classification.singular
    scans = []
    all_residues = ResidueLattice.all_residues

    def spy(self, min_h=0, max_h=None):
        if min_h == 3:
            scans.append(max_h)
        return all_residues(self, min_h, max_h)

    monkeypatch.setattr(ResidueLattice, "all_residues", spy)
    for _ in range(2):
        is_closed_manifold(g)
        is_singular_manifold(g)
        singular_summary(g)
        euler_characteristics(g)
        fingerprint(g)
    assert len(scans) <= 2


def _invariance_cases():
    rng = random.Random(20261020)
    bases = [k2(4), torus_interval(), torus_disk(), q4(),
             order4_nonbipartite(0), order4_nonbipartite(1), rp3()]
    bases += [random_graph(rng.choice((3, 4, 5)), rng.choice((4, 6, 8, 10)), rng)
              for _ in range(9)]
    return bases


_INVARIANCE_CASES = _invariance_cases()


@settings(derandomize=True, database=None, max_examples=36, deadline=None)
@given(data=st.data())
def test_classes_invariant_under_relabeling(data):
    """The Delta-residue through v keeps its class as the residue through
    perm[v] after relabeling, and as the residue on the permuted colors
    through v after a color permutation."""
    g = data.draw(st.sampled_from(_INVARIANCE_CASES))
    perm = data.draw(st.permutations(range(g.order)))
    colors = data.draw(st.permutations(range(g.n + 1)))
    relabeled = g.relabel(perm).classification
    recolored = g.permute_colors(colors).classification
    new_color = {old: new for new, old in enumerate(colors)}
    cls = g.classification
    for rv in cls.lattice.all_residues(min_h=3):
        v = rv.vertices[0]
        assert relabeled.of_containing(rv.colors, perm[v]) is cls.of(rv)
        assert recolored.of_containing([new_color[c] for c in rv.colors], v) is cls.of(rv)


# ============================================================
# Singular summaries
# ============================================================


def test_k2_summary_empty():
    s = singular_summary(k2(4))
    assert s.is_empty and s.dimension is None and s.chi == 0


def test_torus_interval_summary():
    s = singular_summary(torus_interval())
    assert len(s.components) == 2
    assert s.dimension == 0
    assert s.chi == 2
    for comp in s.components:
        assert len(comp.top_residues) == 1
        assert comp.top_residues[0].size == 6


def test_torus_disk_summary():
    s = singular_summary(torus_disk())
    assert len(s.components) == 1
    assert s.dimension == 1
    assert s.chi == 0  # a circle
    comp = s.components[0]
    assert len(comp.top_residues) == 4
    assert len(comp.residues) == 8  # four walls joining four tops in a cycle


def test_singular_summary_matches_comparability_oracle(fixtures_all):
    """Joining singular residues along covers gives the components that
    joining every comparable pair gives: members, dimension and Euler number,
    on the fixtures, the n=4 order-6 census and random graphs with boundary."""
    census = list(enumerate_census(CensusParams(4, 6)).graphs())
    rng = random.Random(13)
    drawn = [random_graph(rng.choice((3, 4, 5)), rng.choice((6, 8, 10)), rng) for _ in range(60)]
    with_boundary = [g for g in drawn if g.classification.singular]
    assert len(with_boundary) >= 20
    checked = 0
    for g in fixtures_all + census + with_boundary:
        if g.classification.unresolved:
            continue
        got = [
            ([rv.key for rv in comp.residues], comp.dimension, comp.chi)
            for comp in singular_summary(g).components
        ]
        assert got == singular_components(g)
        checked += bool(got)
    assert checked >= 30


def test_manifold_flags():
    assert is_closed_manifold(k2(4)) is True
    assert is_singular_manifold(k2(4)) is True
    assert is_closed_manifold(torus_interval()) is False
    assert is_singular_manifold(torus_interval()) is True
    assert is_closed_manifold(torus_disk()) is False
    assert is_singular_manifold(torus_disk()) is False
    assert is_closed_manifold(rp3()) is True


def test_manifold_flags_singular_outranks_unknown():
    """One singular top residue decides False even when others are unknown;
    with no singular one left, an unknown one gives None."""
    g = torus_disk()
    cls = g.classification
    tops = [rv.key for rv in cls.lattice.all_residues(min_h=g.n, max_h=g.n)]
    singular = [key for key in tops if cls.classes[key] is ResidueClass.SINGULAR]
    assert len(singular) > 1
    for doubtful, expected in ((singular[1:], False), (singular, None)):
        classes = dict(cls.classes)
        for key in doubtful:
            classes[key] = ResidueClass.UNKNOWN
        h = torus_disk()
        h.__dict__["classification"] = Classification(cls.lattice, classes)
        assert is_closed_manifold(h) is expected


def test_closed_means_empty_singular_set(fixtures_all, rng):
    graphs = fixtures_all + [random_graph(4, 6, rng) for _ in range(15)]
    for g in graphs:
        if g.classification.unresolved:
            continue
        if is_closed_manifold(g) is True:
            s = singular_summary(g)
            assert s.is_empty
            chis = euler_characteristics(g)
            assert chis.chi_m == chis.chi_hat_m


# ============================================================
# Euler characteristics
# ============================================================


def test_k2_euler():
    chis = euler_characteristics(k2(4))
    assert (chis.chi_m, chis.chi_hat_m, chis.chi_singular_set) == (2, 2, 0)


def test_torus_euler(t6):
    assert quasi_manifold_euler(t6) == 0
    chis = euler_characteristics(t6)
    assert chis.chi_hat_m == 0


def test_torus_disk_euler():
    chis = euler_characteristics(torus_disk())
    assert chis.chi_m == 0  # torus times disk
    assert chis.chi_singular_set == 0


def test_suspension_euler_identity(fixtures_all):
    for g in fixtures_all:
        chi = quasi_manifold_euler(g)
        for c in g.colors:
            assert quasi_manifold_euler(suspend(g, c)) == 2 - chi


def test_odd_dimension_closed_chi_zero(rng):
    """Closed odd-dimensional spaces have vanishing Euler characteristic,
    over the whole 4-colored census through order eight."""
    count = 0
    for order in (2, 4, 6, 8):
        cat = enumerate_census(CensusParams(n=3, order=order))
        for g in cat.graphs():
            if is_closed_manifold(g) is True:
                assert quasi_manifold_euler(g) == 0
                count += 1
    assert count > 0


def test_closed_matches_count_identity_dimension_three():
    """For 4-colored graphs, closedness is equivalent to the count identity
    g0 + g3 = g2."""
    for order in (2, 4, 6):
        cat = enumerate_census(CensusParams(n=3, order=order))
        for g in cat.graphs():
            lattice = residue_lattice(g)
            counts = lattice.rank_counts()
            arithmetic = counts[0] + counts[3] == counts[2]
            assert (is_closed_manifold(g) is True) == arithmetic


# ============================================================
# Boundary structure
# ============================================================


def test_boundary_empty_for_closed():
    assert boundary_structure(k2(4)) == ()


def test_boundary_torus_interval():
    comps = boundary_structure(torus_interval())
    assert len(comps) == 2
    for comp in comps:
        assert comp.kind == "single"
        piece = comp.pieces[0]
        assert piece.order == 6
        assert piece.chi == 0
        assert piece.bipartite
        assert str(piece.h1) == "Z+Z"  # torus boundary


def test_boundary_torus_disk_glued():
    comps = boundary_structure(torus_disk())
    assert len(comps) == 1
    comp = comps[0]
    assert comp.kind == "glued"
    assert len(comp.pieces) == 4
    assert len(comp.walls) == 4
    keys = {p.residue.key for p in comp.pieces}
    for wall in comp.walls:
        assert set(wall.between) <= keys
    # pieces are torus-interval slabs: cone space chi 2, manifold H1 = Z+Z
    for piece in comp.pieces:
        assert piece.chi == 2
        assert str(piece.h1) == "Z+Z"


def test_boundary_component_count_matches_summary(fixtures_all):
    for g in fixtures_all:
        if g.classification.unresolved:
            continue
        assert len(boundary_structure(g)) == len(singular_summary(g).components)


# ============================================================
# H1 of represented spaces
# ============================================================


def test_h1_k2_trivial():
    for n in range(2, 6):
        h1 = h1_manifold(k2(n))
        assert h1 is not None and h1.trivial


def test_h1_circle():
    assert str(h1_manifold(k2(1))) == "Z"


def test_h1_rp3():
    assert str(h1_manifold(rp3())) == "Z/2"


def test_h1_torus_spaces():
    assert str(h1_manifold(torus_disk())) == "Z+Z"
    assert str(h1_manifold(torus_interval())) == "Z+Z"


def test_step_limit_reaches_nested_recognition(monkeypatch, sphere8):
    """A caller's reduction budget binds every nested reduction, those of
    rebuilt residues and of the complement residues tried while picking a
    dipole included."""
    import gemkit.singularity

    limits = []
    reduce = gemkit.singularity._reduce

    def spy(g, step_limit):
        limits.append(step_limit)
        return reduce(g, step_limit)

    # nested calls resolve the module-level name, so they reach the spy
    monkeypatch.setattr(gemkit.singularity, "_reduce", spy)
    for k, seed in ((0, 1), (2, 1), (3, 2)):
        for base in (q4(), sphere8):
            limits.clear()
            sphere_status(inflate(base, k, random.Random(seed)), step_limit=5)
            assert len(limits) > 1
            assert set(limits) == {5}


def test_certificate_names_a_residue_of_the_graph_given():
    """A verdict on a relabeled copy of a graph already recognized names a
    singular residue of the copy, not of the first graph seen."""
    g = parse_code_line(
        "4;8;1,0,3,2,5,4,7,6;5,2,1,4,3,0,7,6;3,6,7,0,5,4,1,2;3,4,5,0,1,2,7,6;1,0,7,4,3,6,5,2"
    )
    h = g.relabel(list(reversed(range(8))))
    assert sphere_status(g).verdict is Verdict.NOT_SPHERE
    st = sphere_status(h)
    assert st.verdict is Verdict.NOT_SPHERE
    match = re.match(r"singular \(([\d, ]+)\) residue at vertex (\d+)", st.certificate)
    assert match, st.certificate
    cols = tuple(int(c) for c in match.group(1).split(","))
    v = int(match.group(2))
    rv = h.lattice.residue_containing(cols, v)
    assert rv.vertices[0] == v
    assert sphere_status(rv.as_graph()).verdict is Verdict.NOT_SPHERE


def test_unresolved_refusal():
    """A graph with an unclassifiable residue refuses summaries rather than
    guessing: simulate by exhausting the reduction budget."""
    g = q4()
    st = sphere_status(g, step_limit=0)
    assert st.verdict is Verdict.UNKNOWN


def test_certified_site_walks_pairs_lazily(monkeypatch):
    """`certified_site` tries the joined pairs in its own order, most colors
    first, then smallest pair, and walks a pair only when its turn comes: no
    more walks than pairs up to the site it returns, and no full site list."""
    import gemkit.moves
    import gemkit.singularity

    walks = []
    walk = gemkit.moves.dipole_side

    def counting(g, v, w, cols):
        walks.append((v, w))
        return walk(g, v, w, cols)

    def no_site_list(g):
        raise AssertionError("certified_site listed every dipole site")

    monkeypatch.setattr(gemkit.singularity, "dipole_side", counting)
    for module in (gemkit.moves, gemkit.singularity):
        monkeypatch.setattr(module, "dipole_sites", no_site_list, raising=False)
    dipole_free = random_graph(4, 12, random.Random(0))
    for g in (inflate(k2(4), 25, random.Random(3)), add_dipole(dipole_free, 11, (0, 1))):
        walks.clear()
        site = gemkit.singularity.certified_site(g)
        pairs = [
            (v, w, cols)
            for v, w in itertools.combinations(g.vertices, 2)
            if 1 <= len(cols := tuple(c for c in g.colors if g.matchings[c][v] == w)) <= g.n
        ]
        pairs.sort(key=lambda s: (-len(s[2]), s[0], s[1]))
        assert site is not None
        assert 0 < len(walks) <= pairs.index(site) + 1 < len(pairs)
