"""Dipole moves, suspension, connected sums, vertex indices, simplify."""

import hashlib
import itertools
import random

import pytest

from gemkit import (
    AbelianInvariants,
    ColoredGraph,
    DimensionMismatchError,
    Dipole,
    DipoleKind,
    InvalidVertexError,
    NotADipoleError,
    Properness,
    WouldAnnihilateError,
    add_dipole,
    cancel_dipole,
    connected_sum,
    find_dipoles,
    fingerprint,
    format_code_line,
    h1_manifold,
    inflate,
    internalize,
    isomorphic,
    quasi_manifold_euler,
    simplify,
    singular_summary,
    smith_invariant_factors,
    sphere_status,
    suspend,
    vertex_index,
)
from gemkit.census import random_graph
from gemkit.library import k2, order4_nonbipartite, q4, rp3, torus6, torus_disk, torus_interval
from gemkit.moves import cancel_site, dipole_sites
from gemkit.singularity import cancel_certified, certified_site
from oracles import residue_classes, simplify_by_reclassification, table_components


def bridge_on_colors(a: ColoredGraph, b: ColoredGraph, colors) -> ColoredGraph:
    """Join disjoint copies of a and b by crossing each listed color's edge
    at vertex 0 of either copy; the crossing pair is joined by exactly those
    colors and splits the complementary residues between the copies."""
    na = a.order
    rows = []
    for c in a.colors:
        row = list(a.matchings[c]) + [x + na for x in b.matchings[c]]
        if c in colors:
            wa, wb = a.matchings[c][0], b.matchings[c][0] + na
            row[0], row[na] = na, 0
            row[wa], row[wb] = wb, wa
        rows.append(tuple(row))
    return ColoredGraph(tuple(rows))


def bridge_on_color(a: ColoredGraph, b: ColoredGraph, color: int) -> ColoredGraph:
    return bridge_on_colors(a, b, (color,))


# ============================================================
# Detection
# ============================================================


def test_k2_has_no_dipoles():
    assert find_dipoles(k2(4)) == []


def test_q4_dipoles_all_ordinary():
    ds = find_dipoles(q4())
    assert len(ds) == 4
    assert all(d.kind is DipoleKind.ORDINARY for d in ds)
    assert all(d.properness is Properness.PROPER for d in ds)
    assert sorted(d.h for d in ds) == [2, 2, 3, 3]


def test_minimal_order4_graphs_are_dipole_free():
    for variant in (0, 1):
        assert find_dipoles(order4_nonbipartite(variant)) == []


def test_added_top_dipole_found_proper():
    g = k2(4)
    grown = add_dipole(g, 0, (1, 2, 3, 4))
    ds = [d for d in find_dipoles(grown) if d.vertices == (2, 3)]
    assert len(ds) == 1
    d = ds[0]
    assert d.colors == (1, 2, 3, 4)
    assert d.kind is DipoleKind.ORDINARY and d.properness is Properness.PROPER


def test_singular_dipole_detected_not_proper():
    br = bridge_on_color(torus_interval(), torus_interval(), 3)
    ds = [d for d in find_dipoles(br) if d.h == 1 and d.kind is DipoleKind.SINGULAR]
    assert ds, "expected a singular 1-dipole on the bridge"
    assert all(d.properness is Properness.NOT_PROPER for d in ds)


def _dipole_label_oracle(g, v, w, cols):
    """Kind and properness of the dipole (v, w) on `cols` by `find_dipoles`'s
    definition, from `oracles.residue_classes`: singular when the complement
    residues through v and w are both singular, and then not proper when g is
    a singular manifold, or when every residue on three or more of the
    complement's colors, short of all of them, is ordinary through v or w."""
    classes = residue_classes(g)

    def side(sub, u):
        comp = next(c for c in table_components([g.matchings[c] for c in sub], g.order) if u in c)
        return classes[sum(1 << c for c in sub), comp[0]]

    rest = tuple(c for c in g.colors if c not in cols)
    ends = {side(rest, v), side(rest, w)}
    if "ordinary" in ends:
        return DipoleKind.ORDINARY, Properness.PROPER
    if ends != {"singular"}:
        return None, Properness.UNKNOWN
    singular_manifold = not any(
        name != "ordinary" and bin(mask).count("1") < g.n for (mask, _), name in classes.items()
    )
    pinched = all(
        "ordinary" in (side(sub, v), side(sub, w))
        for r in range(3, len(rest))
        for sub in itertools.combinations(rest, r)
    )
    return DipoleKind.SINGULAR, (
        Properness.NOT_PROPER if singular_manifold or pinched else Properness.UNKNOWN
    )


@pytest.mark.parametrize(
    "code, site, proper",
    [
        ("4;8;1,0,3,2,5,4,7,6;2,5,0,4,3,1,7,6;3,5,4,0,2,1,7,6;4,6,3,2,0,7,1,5;4,7,3,2,0,6,5,1",
         (0, 1), Properness.NOT_PROPER),
        ("4;8;1,0,3,2,6,7,4,5;2,4,0,5,1,3,7,6;2,3,0,1,7,6,5,4;3,2,1,0,5,4,7,6;2,3,0,1,5,4,7,6",
         (1, 4), Properness.UNKNOWN),
    ],
    ids=["pinched", "not-pinched"],
)
def test_singular_one_dipole_pinching_against_oracle(code, site, proper):
    """An h = 1 singular dipole of a graph that is no singular manifold is
    settled by the pinching test alone: both outcomes, from the order-8
    color-permuting n=4 census, against the definition."""
    from gemkit import is_singular_manifold, parse_code_line

    g = parse_code_line(code)
    assert is_singular_manifold(g) is False
    (d,) = [d for d in find_dipoles(g) if d.vertices == site]
    assert (d.h, d.kind, d.properness) == (1, DipoleKind.SINGULAR, proper)
    assert (d.kind, d.properness) == _dipole_label_oracle(g, *site, d.colors)


# ============================================================
# Cancellation and addition
# ============================================================


def test_cancel_add_round_trip_randomized(rng):
    for trial in range(100):
        g = random_graph(rng.choice([2, 3, 4]), rng.choice([4, 6]), rng)
        v = rng.randrange(g.order)
        h = rng.randint(1, g.n)
        cols = tuple(sorted(rng.sample(range(g.n + 1), h)))
        grown = add_dipole(g, v, cols)
        d = Dipole((g.order, g.order + 1), cols)
        back = cancel_dipole(grown, d)
        assert isomorphic(back, g), (trial, cols, v)


def test_cancel_top_dipole_restores_k2():
    grown = add_dipole(k2(4), 0, (1, 2, 3, 4))
    d = [d for d in find_dipoles(grown) if d.h == 4][0]
    assert isomorphic(cancel_dipole(grown, d), k2(4))


def test_cancel_then_re_add_recovers_graph():
    """The two moves are mutually inverse in either order: removing a dipole
    and inserting one with the same colors next to a weld endpoint gives back
    an isomorphic graph."""
    g = q4()
    d = [d for d in find_dipoles(g) if d.h == 2][0]
    shrunk = cancel_dipole(g, d)
    # the weld endpoint of the first non-dipole color sat next to the pair
    regrown = add_dipole(shrunk, 0, d.colors)
    assert isomorphic(regrown, g)


def test_cancel_rejects_non_dipole():
    g = torus6()
    with pytest.raises(NotADipoleError):
        cancel_dipole(g, Dipole((0, 3), (0, 1)))  # joined by color 0 only
    with pytest.raises(NotADipoleError):
        cancel_dipole(g, Dipole((0, 3), (0,)))  # complement connects them


def test_cancel_rejects_annihilation():
    g = k2(2)
    with pytest.raises(WouldAnnihilateError):
        cancel_dipole(g, Dipole((0, 1), (0,)))


def test_add_dipole_validations():
    g = k2(4)
    with pytest.raises(InvalidVertexError):
        add_dipole(g, 9, (0,))
    with pytest.raises(ValueError):
        add_dipole(g, 0, (0, 1, 2, 3, 4))  # too many colors


def test_singular_one_dipole_shifts_singular_chi_down():
    br = bridge_on_color(torus_interval(), torus_interval(), 3)
    d = [d for d in find_dipoles(br) if d.h == 1 and d.kind is DipoleKind.SINGULAR][0]
    before = singular_summary(br)
    after = singular_summary(cancel_dipole(br, d))
    assert after.chi - before.chi == -1
    tops = lambda s: sum(len(c.top_residues) for c in s.components)
    assert tops(after) < tops(before)


def test_singular_two_dipole_shifts_singular_chi_up():
    """Cancelling a singular dipole on two colors raises the singular set's
    Euler number by one (the parity of the color count sets the sign)."""
    piece = order4_nonbipartite(0)  # its residues missing colors 0,1,2 are K4s
    br = bridge_on_colors(piece, piece, (0, 1))
    two = [d for d in find_dipoles(br) if d.h == 2 and d.kind is DipoleKind.SINGULAR]
    assert two, "expected a singular 2-dipole across the bridge"
    d = two[0]
    assert d.properness is Properness.NOT_PROPER
    before = singular_summary(br).chi
    after = singular_summary(cancel_dipole(br, d)).chi
    assert after - before == 1


def test_boundary_count_preserved_iff_ordinary_on_singular_manifolds():
    """On a graph whose singular residues all use the top color count, the
    number of boundary components survives a cancellation exactly when the
    dipole is ordinary."""
    from gemkit import is_singular_manifold

    br = bridge_on_color(torus_interval(), torus_interval(), 3)
    br = add_dipole(br, 0, (1, 2))  # provide an ordinary dipole as well
    assert is_singular_manifold(br) is True
    before = len(singular_summary(br).components)
    saw_ordinary = saw_singular = False
    for d in find_dipoles(br):
        after = len(singular_summary(cancel_dipole(br, d)).components)
        if d.kind is DipoleKind.ORDINARY:
            assert after == before
            saw_ordinary = True
        elif d.kind is DipoleKind.SINGULAR:
            assert after < before
            saw_singular = True
    assert saw_ordinary and saw_singular


# ============================================================
# Suspension
# ============================================================


def test_suspend_k2():
    for n in range(1, 5):
        assert isomorphic(suspend(k2(n), 0), k2(n + 1))


def test_suspend_shape(t6):
    s = suspend(t6, 1)
    assert s.n == t6.n + 1
    assert s.order == t6.order
    assert s.matchings[3] == t6.matchings[1]


def test_double_suspension_residues_copy_input(t6):
    ftb = torus_disk()
    # the residue missing the new color is the input; the one missing the
    # duplicated color is the input with its duplicate renamed
    from gemkit import Equivalence, residues

    st = torus_interval()
    rv4 = residues(ftb, (0, 1, 2, 3))[0]
    assert isomorphic(rv4.as_graph(), st)
    rv2 = residues(ftb, (0, 1, 3, 4))[0]
    assert isomorphic(rv2.as_graph(), st, Equivalence.COLOR_PERMUTING)


def test_suspension_euler_identity_random(rng):
    for _ in range(30):
        g = random_graph(rng.choice([2, 3]), rng.choice([4, 6, 8]), rng)
        chi = quasi_manifold_euler(g)
        for c in g.colors:
            assert quasi_manifold_euler(suspend(g, c)) == 2 - chi


def test_suspension_singular_set_predictions(rng):
    """Suspending a space with singular points suspends its singular set:
    one component through the two new poles, complementary Euler number, one
    dimension up, and the same manifold Euler characteristic."""
    from gemkit import UnresolvedResidueError, euler_characteristics

    checked = 0
    attempts = 0
    while checked < 12 and attempts < 200:
        attempts += 1
        g = random_graph(3, rng.choice([4, 6, 8]), rng)
        base = singular_summary(g)
        if base.is_empty:
            continue  # the prediction needs a non-sphere input
        lifted = suspend(g, rng.randrange(g.n + 1))
        try:
            up = singular_summary(lifted)
            chi_m_up = euler_characteristics(lifted).chi_m
        except UnresolvedResidueError:
            continue
        assert len(up.components) == 1
        assert up.chi == 2 - base.chi
        assert up.dimension == base.dimension + 1
        assert chi_m_up == euler_characteristics(g).chi_m
        checked += 1
    assert checked == 12


# ============================================================
# Connected sums
# ============================================================


def test_sphere_is_identity_for_sums(rng):
    for _ in range(20):
        g = random_graph(4, rng.choice([4, 6]), rng)
        v = rng.randrange(g.order)
        assert isomorphic(connected_sum(k2(4), 0, g, v), g)
        assert isomorphic(connected_sum(g, v, k2(4), 1), g)


def test_sum_of_spheres_euler():
    s = connected_sum(q4(), 0, q4(), 0)
    assert s.order == 6
    assert quasi_manifold_euler(s) == 2  # 2 + 2 - chi(S4)


def test_sum_at_internal_vertices_adds_euler():
    a = torus_disk()
    b = q4()
    # q4 vertices are internal (sphere); torus_disk vertices are not
    idx = vertex_index(b, 0)
    assert idx.internal
    s = connected_sum(a, 0, b, 0)
    assert quasi_manifold_euler(s) == quasi_manifold_euler(a) + quasi_manifold_euler(b) - 2


def _direct_sum(a: AbelianInvariants, b: AbelianInvariants) -> AbelianInvariants:
    """a + b in invariant-factor form, from the Smith form of the diagonal
    matrix of both torsion lists."""
    diagonal = a.torsion + b.torsion
    rows = [[d if j == i else 0 for j in range(len(diagonal))] for i, d in enumerate(diagonal)]
    factors = smith_invariant_factors(rows, len(diagonal))
    return AbelianInvariants(a.free_rank + b.free_rank, tuple(d for d in factors if d > 1))


def test_sum_adds_first_homology():
    """H1 of a connected sum is the direct sum of the summands' H1: for
    closed 3-manifolds at any vertices, and with a boundary summand at an
    internal vertex."""
    closed = [k2(3), rp3()]
    for a, b in itertools.product(closed, repeat=2):
        want = _direct_sum(h1_manifold(a), h1_manifold(b))
        for v, w in itertools.product(a.vertices, b.vertices):
            assert h1_manifold(connected_sum(a, v, b, w)) == want
    assert str(h1_manifold(connected_sum(rp3(), 0, rp3(), 5))) == "Z/2+Z/2"

    bounded = internalize(torus_interval())
    v = next(v for v in bounded.vertices if vertex_index(bounded, v).internal)
    for b in closed:
        want = _direct_sum(h1_manifold(bounded), h1_manifold(b))
        for w in b.vertices:
            assert h1_manifold(connected_sum(bounded, v, b, w)) == want
            assert h1_manifold(connected_sum(b, w, bounded, v)) == want
    assert str(h1_manifold(connected_sum(bounded, v, rp3(), 0))) == "Z+Z+Z/2"


def test_boundary_sum_merges_components():
    """Summing at index-one vertices over matching singular residues turns
    two boundary components into one."""
    a = torus_interval()
    grown = internalize(a)  # gains index-0 and index-1 vertices
    cls = grown.classification
    ones = [v for v in grown.vertices if vertex_index(grown, v).index == 1]
    assert ones
    v = ones[0]
    # find the singular color at v, then align a second copy on the same color
    from gemkit.residues import complement
    from gemkit import ResidueClass

    sing_colors = [
        c
        for c in grown.colors
        if cls.of_containing(complement(1 << c, grown.n), v) is ResidueClass.SINGULAR
    ]
    assert len(sing_colors) == 1
    before = len(singular_summary(grown).components)
    s = connected_sum(grown, v, grown, v)
    after = len(singular_summary(s).components)
    assert after == 2 * before - 1


def test_sum_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        connected_sum(k2(3), 0, k2(4), 0)
    with pytest.raises(InvalidVertexError):
        connected_sum(k2(4), 5, k2(4), 0)


# ============================================================
# Vertex index and internalization
# ============================================================


def test_k2_vertices_internal():
    for v in (0, 1):
        assert vertex_index(k2(4), v).index == 0


def test_torus_interval_indices():
    g = torus_interval()
    for v in g.vertices:
        assert vertex_index(g, v).index == 2


def test_internalize_keeps_space():
    g = torus_interval()
    grown = internalize(g)
    # minimal positive index two: two top-color dipole insertions
    assert grown.order == g.order + 4
    indices = [vertex_index(grown, v).index for v in grown.vertices]
    assert 0 in indices
    assert fingerprint(grown).space_key() == fingerprint(g).space_key()


def test_internalize_noop_when_internal():
    assert internalize(k2(4)) == k2(4)


# ============================================================
# Simplify
# ============================================================


def test_simplify_q4_reaches_minimum():
    res = simplify(q4())
    assert res.complete
    assert isomorphic(res.graph, k2(4))
    assert all(d.kind is DipoleKind.ORDINARY for d in res.cancelled)


def test_simplify_minimal_graphs_fixed():
    for g in (k2(4), order4_nonbipartite(0), order4_nonbipartite(1), rp3()):
        res = simplify(g)
        assert res.complete
        assert res.graph == g or isomorphic(res.graph, g)


def test_simplify_keeps_no_ordinary_dipoles(rng):
    for _ in range(20):
        g = random_graph(3, 6, rng)
        res = simplify(g)
        if res.complete:
            assert not any(
                d.kind is DipoleKind.ORDINARY for d in find_dipoles(res.graph)
            )


def test_inflate_then_simplify_fingerprint(rng):
    fixtures = [k2(4), q4(), order4_nonbipartite(0), torus_interval(), torus_disk(), rp3()]
    for trial in range(100):
        base = fixtures[trial % len(fixtures)]
        before = fingerprint(base).space_key()
        grown = inflate(base, rng.randint(1, 4), rng)
        res = simplify(grown)
        assert res.complete
        assert fingerprint(res.graph).space_key() == before


def _grow(base, rounds, rng):
    """Insert `rounds` dipoles whose sizes cycle through 1..n."""
    cur = base
    for i in range(rounds):
        h = 1 + i % base.n
        cur = add_dipole(cur, rng.randrange(cur.order), rng.sample(range(cur.n + 1), h))
    return cur


def test_simplify_matches_full_reclassification(sphere8):
    """`simplify` cancels the same dipoles, in the same order, as the loop
    that reclassified the whole graph after every move."""
    bases = [
        k2(3), rp3(), torus_interval(),  # n=3
        k2(4), q4(), order4_nonbipartite(0), torus_disk(),  # n=4
        sphere8,
    ]
    for base in bases:
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            for grown in (_grow(base, 2 * base.n, rng), inflate(base, 6, rng)):
                res = simplify(grown)
                assert (res.graph, res.cancelled, res.complete) == (
                    simplify_by_reclassification(grown)
                )


def test_simplify_and_sphere_status_cancel_alike():
    """`simplify` and sphere recognition share one reduction loop: on a
    sphere, the certificate counts the moves `simplify` makes."""
    for base in (k2(3), k2(4), q4()):
        for seed in range(6):
            g = inflate(base, 12, random.Random(seed))
            moves = len(simplify(g).cancelled)
            assert sphere_status(g).certificate == f"reduced to the order-2 graph in {moves} moves"


def test_simplify_classifies_the_graph_once(monkeypatch):
    """Sites are certified one at a time; only the final graph can be
    classified in full, to decide `complete`, and only if a site is left."""
    import gemkit.singularity

    calls = []
    classify = gemkit.singularity.classify_graph

    def counting(g):
        calls.append(g.order)
        return classify(g)

    monkeypatch.setattr(gemkit.singularity, "classify_graph", counting)
    res = simplify(inflate(k2(4), 25, random.Random(3)))
    assert res.complete and res.graph.order == 2
    assert len(calls) <= 1


def test_simplify_leaves_a_siteless_graph_unclassified():
    """A final graph with no dipole site is complete without being
    classified: `find_dipoles` lists the sites before it reads the
    classification."""
    siteless = 0
    for base in (k2(3), k2(4), q4(), rp3(), torus_interval(), torus_disk()):
        for seed in range(4):
            res = simplify(inflate(base, 10, random.Random(seed)))
            if not dipole_sites(res.graph):
                siteless += 1
                assert res.complete
                assert "classification" not in vars(res.graph)
    assert siteless >= 12


def test_find_dipoles_alike_with_or_without_classification():
    """Where sites remain, `find_dipoles` labels them the same whether or
    not the graph's classification was read before it."""
    graphs = [inflate(torus_disk(), 6, random.Random(seed)) for seed in range(4)]
    for base in (q4(), rp3(), torus_interval(), order4_nonbipartite(0)):
        g = inflate(base, 8, random.Random(5))
        graphs += [cancel_certified(g, step_limit=j)[0] for j in (1, 3, 5)]
    for g in graphs:
        fresh, read = ColoredGraph(g.matchings), ColoredGraph(g.matchings)
        assert read.classification is not None
        dipoles = find_dipoles(fresh)
        assert dipoles and dipoles == find_dipoles(read)


# ============================================================
# Move chains on one mutable table
# ============================================================


def test_reduction_replays_through_validated_cancellations(sphere8):
    """`cancel_certified` and `simplify` cancel on one mutable table and
    build no graph in between.  Replaying each reported site with the
    validated `cancel_dipole` on immutable graphs gives the same graphs
    byte for byte, each site is the one `certified_site` picks on the
    graph it is cancelled from, and `step_limit=j` stops after the first j."""
    bases = [k2(3), rp3(), torus_interval(), k2(4), q4(), order4_nonbipartite(0), torus_disk(), sphere8]
    for base in bases:
        for seed in (1, 2):
            g = inflate(base, 12, random.Random(seed))
            final, sites = cancel_certified(g)
            assert sites
            cur = g
            for j, (v, w, cols) in enumerate(sites):
                assert cancel_certified(g, step_limit=j) == (cur, sites[:j])
                assert certified_site(cur) == (v, w, cols)
                cur = cancel_dipole(cur, Dipole((v, w), cols))
            assert certified_site(cur) is None
            assert cur.matchings == final.matchings
            res = simplify(g)
            assert res.graph.matchings == final.matchings
            assert [(d.vertices, d.colors) for d in res.cancelled] == [
                ((v, w), cols) for v, w, cols in sites
            ]


def test_inflate_replays_through_add_dipole():
    """`inflate` makes its insertions on one table; `add_dipole` on
    immutable graphs, from the same draws, gives the same graph."""
    for base in (k2(1), k2(3), rp3(), torus6(), q4(), torus_disk()):
        for seed in range(3):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            got = inflate(base, 15, got_rng)
            cur = base
            for _ in range(15):
                vertex = want_rng.randrange(cur.order)
                h = want_rng.randint(1, cur.n)
                cur = add_dipole(cur, vertex, want_rng.sample(range(cur.n + 1), h))
            assert got.matchings == cur.matchings
            assert got_rng.getstate() == want_rng.getstate()


def test_move_chains_validate_one_graph(monkeypatch):
    """A chain of moves builds one graph at its end, not one per move:
    `inflate` validates once, and `simplify` validates as often after 200
    insertions as after 50."""
    base = q4()
    grown = {k: inflate(base, k, random.Random(0)) for k in (50, 200)}
    calls = []
    validate = ColoredGraph._validate

    def counting(g):
        calls.append(g.order)
        validate(g)

    monkeypatch.setattr(ColoredGraph, "_validate", counting)
    inflate(base, 50, random.Random(0))
    assert len(calls) == 1
    counts = []
    for k, g in grown.items():
        calls.clear()
        assert len(simplify(g).cancelled) == k + 1
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_long_simplify_pinned():
    """401 cancellations on one table take q4 grown by 400 dipoles to the
    order-2 graph; the digest pins every site."""
    res = simplify(inflate(q4(), 400, random.Random(0)))
    assert res.graph.order == 2 and res.complete
    assert len(res.cancelled) == 401
    text = "\n".join(f"{d.vertices} {d.colors}" for d in res.cancelled)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "d56648845bc72a14"


def test_moves_that_change_nothing_return_the_input():
    """No insertion, or a loop that cancels nothing, hands back the input
    graph itself, with its lattice and classification."""
    for g in (k2(4), rp3(), order4_nonbipartite(1)):
        lattice, cls = g.lattice, g.classification
        assert inflate(g, 0, random.Random(0)) is g
        assert cancel_certified(g)[0] is g
        res = simplify(g)
        assert res.graph is g and res.cancelled == ()
        assert res.graph.lattice is lattice and res.graph.classification is cls
    g = q4()
    assert cancel_certified(g, step_limit=0) == (g, [])
    assert cancel_certified(g, step_limit=0)[0] is g


# ============================================================
# Surgery output, byte for byte
# ============================================================


def test_surgery_bytes_pinned():
    """Dipole insertion, dipole cancellation, connected sum and `simplify`
    number the vertices of their output in a fixed way; the isomorphism
    checks above would not see a change of that numbering, this digest
    does."""
    rng = random.Random(15)
    bases = [k2(1), k2(3), rp3(), torus6(), q4(), torus_disk()]
    bases += [random_graph(n, order, rng) for n in (1, 2, 3, 4, 5) for order in (4, 6, 8)]
    out = []
    for base in bases:
        grown = inflate(base, 12, rng)
        out.append(format_code_line(grown))
        out += [format_code_line(cancel_site(grown, v, w)) for v, w, _ in dipole_sites(grown)]
        other = inflate(base, 2, rng)
        v1, v2 = rng.randrange(grown.order), rng.randrange(other.order)
        out.append(format_code_line(connected_sum(grown, v1, other, v2)))
        res = simplify(grown)
        out.append(format_code_line(res.graph))
        out += [f"{d.vertices} {d.colors}" for d in res.cancelled]
    text = "\n".join(out)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "5326ba913c75aa39"
