"""Residue enumeration, counts, poset structure, supercontractedness."""

import itertools
import random
from math import comb

import pytest

from gemkit import (
    ColorRangeError,
    ColoredGraph,
    is_supercontracted,
    regular_genus,
    residue_count,
    residue_lattice,
    residues,
)
from gemkit.census import random_graph
from gemkit.groups import connecting_relators
from gemkit.invariants import cyclic_orders, g_degree
from gemkit.library import k2, q4, rp3, torus6, torus_disk
from gemkit.moves import inflate
from gemkit.residues import (
    ResidueLattice,
    _cancel_in_place,
    _site_buckets,
    colors_of,
    dipole_side,
    full_mask,
    joined_pairs,
    mask_of,
)
from gemkit.singularity import _first_certified, classify_graph
from oracles import covers_below, joined_pairs_by_brute_force, union_find_components


def test_k2_single_residue_per_subset():
    g = k2(4)
    for r in range(1, 5):
        for cols in itertools.combinations(g.colors, r):
            views = residues(g, cols)
            assert len(views) == 1
            assert views[0].vertices == (0, 1)


def test_zero_residues_are_vertices(t6):
    views = residues(t6, ())
    assert len(views) == t6.order
    assert [rv.vertices for rv in views] == [(v,) for v in t6.vertices]


def test_torus_pair_residues(t6):
    assert residue_count(t6, (0, 1)) == 1  # a single 6-cycle
    assert union_find_components(t6, (0, 1)) == [tuple(range(6))]


def test_residues_match_union_find(rng):
    for _ in range(20):
        g = random_graph(3, 8, rng)
        for r in range(4):
            for cols in itertools.combinations(g.colors, r):
                got = [rv.vertices for rv in residues(g, cols)]
                assert got == union_find_components(g, cols)


def test_color_out_of_range(t6):
    with pytest.raises(ColorRangeError):
        residues(t6, (0, 7))


def test_negative_mask_rejected(t6):
    """A negative int is no color set: its sign bits never shift out, so
    reading colors off it must stop with an error, not loop."""
    with pytest.raises(ColorRangeError, match="negative"):
        residues(t6, -1)
    with pytest.raises(ColorRangeError, match="negative"):
        colors_of(-3)


def test_negative_mask_rejected_by_lattice(t6):
    with pytest.raises(ColorRangeError, match="negative"):
        t6.lattice.count(-2)


def test_negative_color_rejected():
    with pytest.raises(ColorRangeError, match="color -1 is negative"):
        mask_of((0, -1))
    with pytest.raises(ColorRangeError, match="color -1 is negative"):
        residues(rp3(), (0, -1))


def test_partition_property(fixtures_all):
    for g in fixtures_all:
        for r in range(g.n + 1):
            for cols in itertools.combinations(g.colors, r):
                views = residues(g, cols)
                flat = sorted(v for rv in views for v in rv.vertices)
                assert flat == list(g.vertices)


# ============================================================
# The lattice
# ============================================================


def test_k2_lattice_counts():
    lattice = residue_lattice(k2(4))
    counts = lattice.rank_counts()
    assert counts[0] == 2
    for h in range(1, 5):
        assert counts[h] == comb(5, h)
    assert sum(counts.values()) == 2 + 5 + 10 + 10 + 5


def test_torus_lattice_counts(t6):
    lattice = residue_lattice(t6)
    assert lattice.rank_counts() == {0: 6, 1: 9, 2: 3}
    assert lattice.count((0, 1)) == 1


def test_rank_counts_hand_out_a_copy(t6):
    """The lattice sums its rank counts once; a caller that changes the
    dict it was given changes no later answer."""
    lattice = residue_lattice(t6)
    ranks = lattice.rank_counts()
    ranks[2] = 99
    ranks[7] = 1
    del ranks[0]
    assert lattice.rank_counts() == {0: 6, 1: 9, 2: 3}


def test_counts_table(t6):
    lattice = residue_lattice(t6)
    table = {colors_of(mask): lattice.count(mask) for mask in range(full_mask(t6.n))}
    assert table[()] == 6
    assert table[(0,)] == 3
    assert table[(0, 1)] == 1
    assert (0, 1, 2) not in table  # the whole graph is not a residue


def test_edges_per_color_identity(fixtures_all):
    for g in fixtures_all:
        lattice = residue_lattice(g)
        one = sum(lattice.count((c,)) for c in g.colors)
        assert one == (g.n + 1) * g.p


def test_full_color_set_connectivity(fixtures_all):
    # with all but one color the counts are the supercontracted test's input;
    # with every color the graph is connected by construction
    for g in fixtures_all:
        assert residue_count(g, tuple(g.colors)) == 1


def test_lattice_refuses_the_full_color_set():
    """The whole graph is not a residue of itself: the lattice says so
    instead of failing on a missing key."""
    lattice = residue_lattice(rp3())
    reads = (lattice.residues, lattice.count, lambda cols: lattice.residue_containing(cols, 0))
    for read in reads:
        for cols in ((0, 1, 2, 3), 15):
            with pytest.raises(ValueError, match=r"\(0, 1, 2, 3\).*not a residue of itself"):
                read(cols)
    for cols in (16, (0, 4)):
        with pytest.raises(ColorRangeError, match=r"outside 0\.\.3"):
            lattice.count(cols)


def test_lazy_lattice_equals_eager_reference():
    """Every read of the lazy lattice equals union-find components of the
    same color set, whatever was read before it."""
    rng = random.Random(6)
    for n in range(2, 6):
        for _ in range(5):
            g = random_graph(n, rng.randrange(2, 15, 2), rng)
            masks = range(full_mask(n))
            want = {mask: union_find_components(g, colors_of(mask)) for mask in masks}
            ranks = {}
            for mask in masks:
                h = bin(mask).count("1")
                ranks[h] = ranks.get(h, 0) + len(want[mask])
            reads = [(op, mask) for mask in masks for op in ("residues", "count", "containing")]
            reads.append(("ranks", None))
            rng.shuffle(reads)
            lattice = residue_lattice(g)
            for op, mask in reads:
                if op == "residues":
                    views = lattice.residues(mask)
                    assert [rv.vertices for rv in views] == want[mask]
                    assert {rv.mask for rv in views} == {mask}
                elif op == "count":
                    assert lattice.count(mask) == len(want[mask])
                elif op == "containing":
                    for comp in want[mask]:
                        for v in comp:
                            assert lattice.residue_containing(mask, v).vertices == comp
                else:
                    assert list(lattice.rank_counts().items()) == sorted(ranks.items())


def test_lattice_walks_only_what_is_read(monkeypatch):
    """Counts on fewer than two colors are never walked, and no color set is
    walked twice.  A walk is a call of `ResidueLattice._walk`, the one entry
    point that fills a color set, by joining a smaller set or walking it."""
    walked = []
    masks = []
    walk = ResidueLattice._walk

    def spy(lattice, mask):
        walked.append(bin(mask).count("1"))
        masks.append(mask)
        return walk(lattice, mask)

    monkeypatch.setattr(ResidueLattice, "_walk", spy)
    g = random_graph(4, 12, random.Random(8))

    def fresh():
        walked.clear()
        return ColoredGraph(g.matchings)

    h = fresh()
    ranks = h.lattice.rank_counts()
    assert len(walked) == 2**5 - 2 - 5 and min(walked) == 2
    assert len(set(masks)) == len(masks)
    assert ranks[0] == 12 and ranks[1] == 5 * 6
    walked.clear()
    assert h.lattice.rank_counts() == ranks
    for mask in range(full_mask(h.n)):
        h.lattice.count(mask)
    assert walked == []

    is_supercontracted(fresh())
    assert walked == [4] * 5

    h = fresh()
    for eps in cyclic_orders(h.colors):
        regular_genus(h, eps)
    assert walked == [2] * 10

    # the vertex-to-residue index of a color set walks that set alone, once
    h = fresh()
    h.lattice._at(0b01101)
    assert walked == [3]
    h.lattice._at(0b01101)
    h.lattice.residue_containing(0b01101, 7)
    assert walked == [3]


def test_position_index_matches_components(fixtures_all):
    """Entry v of `_at(mask)` is the position, among the color set's
    residues ordered by minimum vertex, of the union-find component holding
    v, and `_read(mask)` lists those components, for every proper color set
    of every fixture and of seeded random graphs (order 2 included).  Each
    graph's color sets are read in rank order, where every set of three or
    more colors is joined from a smaller one, in numeric order, in reverse
    order, where every set is walked, and in a seeded shuffle."""
    rng = random.Random(19)
    graphs = fixtures_all + [random_graph(n, order, rng)
                             for n in range(1, 6)
                             for order in [2] + [rng.randrange(2, 17, 2) for _ in range(4)]]
    for g in graphs:
        masks = list(range(full_mask(g.n)))
        shuffled = masks[:]
        rng.shuffle(shuffled)
        ranked = sorted(masks, key=lambda m: bin(m).count("1"))
        for reads in (ranked, masks, masks[::-1], shuffled):
            lattice = residue_lattice(g)
            for mask in reads:
                comps = union_find_components(g, colors_of(mask))
                want = [None] * g.order
                for i, comp in enumerate(comps):
                    for v in comp:
                        want[v] = i
                assert lattice._at(mask) == want, (g.matchings, mask, reads)
                views = lattice._read(mask)
                assert [rv.vertices for rv in views] == comps, (g.matchings, mask, reads)
                assert all(rv.mask == mask for rv in views)


def test_position_index_built_once_per_color_set(monkeypatch):
    """The classification, the G-degree, the connecting relators and
    `residue_containing` on one graph share one index per color set: every
    read of a color set's index, on the graph's lattice or on the lattice
    of a residue rebuilt for a reduction, returns the list built first."""
    first = {}
    at = ResidueLattice._at

    def spy(lattice, mask):
        index = at(lattice, mask)
        assert first.setdefault((lattice, mask), index) is index
        return index

    monkeypatch.setattr(ResidueLattice, "_at", spy)
    for g in (torus_disk(), inflate(q4(), 4, random.Random(2)), random_graph(4, 12, random.Random(8))):
        first.clear()
        classify_graph(g)
        g_degree(g)
        for c in g.colors:
            connecting_relators(g, c)
        read = {mask for lattice, mask in first if lattice is g.lattice}
        assert read == {mask for mask in range(full_mask(g.n)) if bin(mask).count("1") >= 3}
        for mask in range(full_mask(g.n)):
            for v in g.vertices:
                g.lattice.residue_containing(mask, v)


def test_residue_containing_refuses_a_vertex_outside_the_graph():
    lattice = residue_lattice(q4())
    for v in (-1, 4):
        with pytest.raises(IndexError, match=r"outside 0\.\.3"):
            lattice.residue_containing(0b111, v)


def test_upward_uniqueness(rng):
    """Every residue lies in exactly one residue per added color."""
    for _ in range(5):
        g = random_graph(3, 6, rng)
        lattice = residue_lattice(g)
        for rv in lattice.all_residues(max_h=g.n - 1):
            for c in g.colors:
                if c in rv.colors or len(rv.colors) + 1 > g.n:
                    continue
                bigger = [
                    up
                    for up in lattice.residues(rv.mask | (1 << c))
                    if set(rv.vertices) <= set(up.vertices)
                ]
                assert len(bigger) == 1


def test_cover_chain_length(rng):
    """Maximal chains below a fixed top residue all have length n."""
    g = random_graph(3, 6, rng)
    lattice = residue_lattice(g)

    def depth(rv):
        kids = covers_below(lattice, rv)
        if not kids:
            return 0
        depths = {depth(k) for k in kids}
        assert len(depths) == 1  # graded poset: all maximal chains equal
        return 1 + depths.pop()

    for top in lattice.all_residues(g.n, g.n):
        assert depth(top) == g.n


def test_parents_children_consistency(t6):
    lattice = residue_lattice(torus6())
    for rv in lattice.all_residues():
        for up in lattice.parents(rv):
            assert rv.key in [kid.key for kid in covers_below(lattice, up)]


def test_residue_as_graph_keeps_color_identity(t6):
    rv = residues(t6, (0, 2))[0]
    sub = rv.as_graph()
    assert sub.n == 1
    assert rv.colors == (0, 2)
    # compact color i is original rv.colors[i]
    for i, v in enumerate(rv.vertices):
        for ci, c in enumerate(rv.colors):
            w = t6.matchings[c][v]
            assert rv.vertices[sub.matchings[ci][i]] == w


def test_as_graph_needs_two_colors(t6):
    with pytest.raises(ValueError):
        residues(t6, (0,))[0].as_graph()


# ============================================================
# Supercontracted
# ============================================================


def test_supercontracted_examples():
    assert is_supercontracted(k2(3))
    assert is_supercontracted(k2(4))
    assert is_supercontracted(q4())


def test_supercontracted_counterexample():
    # one color on its own matching, four sharing another: dropping the lone
    # color leaves two components
    a, b = (1, 0, 3, 2), (3, 2, 1, 0)
    g = ColoredGraph((a, b, b, b, b))
    assert not is_supercontracted(g)
    assert residue_count(g, (1, 2, 3, 4)) == 2


# ============================================================
# Joined pairs and their buckets
# ============================================================


def _seeded_multigraphs(rng, count):
    """Small random graphs with many colors, so parallel edges abound, half
    of them grown by a few dipoles."""
    for i in range(count):
        g = random_graph(rng.randint(1, 5), rng.choice((2, 4, 6, 8)), rng)
        yield inflate(g, rng.randint(1, 6), rng) if i % 2 else g


def test_joined_pairs_match_brute_force(rng):
    """`joined_pairs` scans each vertex's rows once; trying every pair and
    color lists the same sites in the same order."""
    multi = 0
    for g in _seeded_multigraphs(rng, 80):
        pairs = joined_pairs(g)
        assert pairs == joined_pairs_by_brute_force(g.matchings, g.vertices)
        multi += sum(len(cols) > 1 for _, _, cols in pairs)
    assert multi > 0


def test_cancel_in_place_patches_the_buckets(rng):
    """After every in-place cancellation the patched buckets hold exactly
    the joined pairs of the remaining vertices, by color count, in stable
    ids."""
    for g in _seeded_multigraphs(rng, 40):
        rows = [list(row) for row in g.matchings]
        buckets = _site_buckets(g)
        live = set(g.vertices)
        while True:
            want = [[] for _ in rows]
            for site in joined_pairs_by_brute_force(rows, live):
                want[len(site[2])].append(site)
            assert buckets == want
            sites = [s for bucket in buckets for s in bucket if dipole_side(rows, *s) is not None]
            if not sites:
                break
            v, w, _ = rng.choice(sites)
            _cancel_in_place(rows, buckets, v, w)
            live -= {v, w}


def test_last_cancellation_empties_the_buckets():
    """Reducing an inflated k2(n) to order 2, the cancellation from order
    4 joins the last pair by every color, so it is no site: the patched
    buckets end empty, and match the joined pairs at every step."""
    for n in range(1, 6):
        for seed in range(3):
            g = inflate(k2(n), 8, random.Random(seed))
            rows = [list(row) for row in g.matchings]
            buckets = _site_buckets(g)
            live = set(g.vertices)
            while len(live) > 2:
                site = _first_certified(rows, buckets, None)
                assert site is not None, (n, seed, len(live))
                _cancel_in_place(rows, buckets, site[0], site[1])
                live -= set(site[:2])
                want = [[] for _ in rows]
                for pair in joined_pairs_by_brute_force(rows, live):
                    want[len(pair[2])].append(pair)
                assert buckets == want
            assert buckets == [[] for _ in rows]
