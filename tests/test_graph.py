"""Data model, GEM text round-trips, bipartition, canonical codes, DOT."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemkit import (
    ColoredGraph,
    DisconnectedError,
    Equivalence,
    FixedPointError,
    GemSyntaxError,
    InvolutionError,
    OddOrderError,
    canonical_code,
    export_dot,
    format_code_line,
    format_gem,
    isomorphic,
    parse_code_line,
    parse_gem,
)
from gemkit.census import CensusParams, enumerate_census, random_graph
from gemkit.graph import _components, _cycle, _min_rooted_table, _switch, canonical_matchings
from gemkit.library import k2, order4_nonbipartite, q4, rp3, torus6, torus_disk, torus_interval
from oracles import (
    admissible_color_orders,
    bicolored_cycles,
    bigon_count,
    canonical_table,
    rooted_tables,
    table_components,
    two_coloring,
)


# ============================================================
# Parsing and validation
# ============================================================


def test_parse_order2_all_colors_joined():
    text = "gem 4 2\n0: 1 0\n1: 1 0\n2: 1 0\n3: 1 0\n4: 1 0\n"
    g = parse_gem(text)
    assert g.n == 4 and g.order == 2
    assert g.matchings == k2(4).matchings


def test_parse_torus_fixture(t6):
    lines = ["gem 2 6"]
    for c in range(3):
        imgs = [3 + ((i + c) % 3) if i < 3 else (i - 3 - c) % 3 for i in range(6)]
        lines.append(f"{c}: " + " ".join(map(str, imgs)))
    g = parse_gem("\n".join(lines))
    assert g == t6
    # independent oracle: chi via bigon count minus half the order, bipartite
    bigons = bigon_count(g)
    assert bigons - g.order // 2 == 0
    assert two_coloring(g) is not None


def test_parse_comments_and_whitespace():
    text = "# a torus\ngem 1 4   # header\n0: 1 0 3 2\n1: 3 2 1 0  # cycle\n"
    g = parse_gem(text)
    assert g.order == 4


def test_parse_rows_any_order():
    text = "gem 1 4\n1: 3 2 1 0\n0: 1 0 3 2\n"
    g = parse_gem(text)
    assert g.matchings[0] == (1, 0, 3, 2)


def test_parse_fixed_point_rejected():
    text = "gem 4 4\n0: 1 0 3 2\n1: 1 0 3 2\n2: 1 0 3 2\n3: 1 0 3 2\n4: 0 1 3 2\n"
    with pytest.raises(FixedPointError):
        parse_gem(text)


def test_parse_non_involution_rejected():
    text = "gem 1 4\n0: 1 0 3 2\n1: 1 2 3 0\n"
    with pytest.raises(InvolutionError):
        parse_gem(text)


def test_parse_odd_order_rejected():
    with pytest.raises(OddOrderError):
        parse_gem("gem 1 3\n0: 1 0 2\n1: 1 0 2\n")


def test_odd_order_constructor():
    with pytest.raises(OddOrderError):
        ColoredGraph(((1, 0, 3),) * 2)


def test_parse_disconnected_rejected():
    rows = ["1 0 3 2"] * 2
    text = "gem 1 4\n" + "\n".join(f"{c}: {r}" for c, r in enumerate(rows))
    with pytest.raises(DisconnectedError):
        parse_gem(text)


def test_parse_syntax_error_position():
    with pytest.raises(GemSyntaxError) as err:
        parse_gem("gem x 2\n")
    assert err.value.line == 1
    assert err.value.column == 5


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "gem 1",
        "graph 1 2",
        "gem 1 2\n0: 1 0\n0: 1 0",  # duplicate color
        "gem 1 2\n0: 1 0\n5: 1 0",  # color out of range
        "gem 1 2\n0: 1 0\n1: 1",  # short row
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(GemSyntaxError):
        parse_gem(bad)


def test_gem_round_trip(fixtures_all):
    for g in fixtures_all:
        assert parse_gem(format_gem(g)) == g
        # canonical text round-trips exactly
        assert format_gem(parse_gem(format_gem(g))) == format_gem(g)


def test_code_line_round_trip(fixtures_all):
    for g in fixtures_all:
        assert parse_code_line(format_code_line(g)) == g


def test_code_line_rejects():
    with pytest.raises(GemSyntaxError):
        parse_code_line("4;2")
    with pytest.raises(GemSyntaxError):
        parse_code_line("1;2;1,0")


# ============================================================
# Bipartition
# ============================================================


def test_bipartite_k2():
    bip = k2(4).is_bipartite()
    assert bip is not None
    assert bip.classes == (frozenset({0}), frozenset({1}))


def test_bipartite_torus(t6):
    bip = t6.is_bipartite()
    assert bip.classes == (frozenset({0, 1, 2}), frozenset({3, 4, 5}))


def test_bipartite_matches_oracle(fixtures_all, rng):
    graphs = list(fixtures_all)
    from gemkit.census import random_graph

    graphs += [random_graph(3, 8, rng) for _ in range(30)]
    for g in graphs:
        assert (g.is_bipartite() is not None) == (two_coloring(g) is not None)


def test_odd_cycle_not_bipartite():
    # two vertices cannot make an odd cycle; use the complete graph on 4
    # vertices as three mutually crossing matchings: it has 3-cycles
    a, b, c = (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)
    g = ColoredGraph((a, b, c))
    assert g.is_bipartite() is None


def test_cycle_walks_each_bicolored_cycle(rng):
    """`_cycle` from every start, for every color pair of random tables
    (connected or not, repeated rows included), steps along color a first,
    alternates colors, crosses real edges, closes at its start without a
    repeated vertex, and visits exactly the cycles the oracle counts."""
    for _ in range(40):
        order = rng.choice((2, 4, 6, 8, 10))
        pool = [_random_involution(order, rng) for _ in range(3)]
        rows = [rng.choice(pool) for _ in range(rng.randint(2, 5))]
        for a, b in itertools.permutations(range(len(rows)), 2):
            cycles = set()
            for start in range(order):
                steps = list(_cycle(rows, a, b, start))
                assert [c for c, _, _ in steps] == [a, b] * (len(steps) // 2)
                assert all(rows[c][v] == w for c, v, w in steps)
                assert [w for _, _, w in steps] == [v for _, v, _ in steps[1:]] + [start]
                visited = [v for _, v, _ in steps]
                assert len(set(visited)) == len(visited)
                cycles.add(frozenset(visited))
            assert len(cycles) == bicolored_cycles(rows, a, b)
            assert sum(map(len, cycles)) == order


def test_switch_keeps_joining_colors_and_isolates_the_pair(rng):
    """`_switch` at v and w, in place, leaves a color already joining them
    as it is; switched on every color, it keeps each row a fixed-point-free
    involution and makes {v, w} a component of order two.  Dipole
    cancellation rests on both facts."""
    for _ in range(40):
        order = rng.choice((2, 4, 6, 8, 10))
        rows = tuple(_random_involution(order, rng) for _ in range(rng.randint(2, 5)))
        v, w = rng.sample(range(order), 2)
        joined = [c for c, row in enumerate(rows) if row[v] == w]
        kept = [list(row) for row in rows]
        _switch(kept, v, w, joined)
        assert [tuple(row) for row in kept] == list(rows)
        switched = [list(row) for row in rows]
        _switch(switched, v, w, range(len(rows)))
        assert all(row[row[u]] == u != row[u] for row in switched for u in range(order))
        assert all(row[v] == w for row in switched)
        assert (min(v, w), max(v, w)) in table_components(switched, order)


def _random_involution(order, rng, parts=None):
    """A random fixed-point-free involution, mapping each of the even
    `parts` (default: the whole vertex set) to itself."""
    row = [0] * order
    for part in parts or [range(order)]:
        free = list(part)
        rng.shuffle(free)
        while free:
            v, w = free.pop(), free.pop()
            row[v], row[w] = w, v
    return tuple(row)


def _seeded_tables():
    """Tables of 0 to 5 random rows on 2 to 12 vertices: free rows, mostly
    connected, and rows kept inside two random even parts, always split."""
    rng = random.Random(31)
    for k in range(6):
        for order in range(2, 13, 2):
            for _ in range(3):
                yield tuple(_random_involution(order, rng) for _ in range(k)), order
                if order >= 4:
                    verts = rng.sample(range(order), order)
                    cut = rng.randrange(2, order, 2)
                    parts = (verts[:cut], verts[cut:])
                    yield tuple(_random_involution(order, rng, parts) for _ in range(k)), order


def test_components_against_union_find():
    """Entry v of the labels is the number of v's component, and the
    components are union-find's, each sorted, ordered by least vertex; no
    rows leaves every vertex alone."""
    kinds = set()
    for rows, order in _seeded_tables():
        label, comps = _components(rows, order)
        assert [tuple(comp) for comp in comps] == table_components(rows, order)
        assert [comp[0] for comp in comps] == sorted(comp[0] for comp in comps)
        assert label == [next(i for i, comp in enumerate(comps) if v in comp) for v in range(order)]
        if not rows:
            assert comps == [[v] for v in range(order)]
        kinds.add((len(rows), len(comps) == 1))
    assert {(k, joined) for k in range(2, 6) for joined in (False, True)} <= kinds


def test_disconnected_error_names_least_unreachable_vertex():
    """A split table is refused naming the least vertex outside vertex 0's
    component; a connected one is accepted."""
    split = 0
    for rows, order in _seeded_tables():
        if len(rows) < 2:
            continue
        reached = table_components(rows, order)[0]
        if len(reached) == order:
            ColoredGraph(rows)
            continue
        least = min(set(range(order)) - set(reached))
        with pytest.raises(DisconnectedError, match=f"^vertex {least} unreachable from vertex 0$"):
            ColoredGraph(rows)
        split += 1
    assert split >= 20


# ============================================================
# Canonical codes
# ============================================================


def _brute_force_isomorphic(g1, g2, color_permuting=False):
    """Exhaustive oracle over all vertex (and optionally color) bijections."""
    if g1.order != g2.order or g1.n != g2.n:
        return False
    color_perms = (
        itertools.permutations(g1.colors) if color_permuting else [tuple(g1.colors)]
    )
    for cp in color_perms:
        h = tuple(g2.matchings[c] for c in cp)
        for vp in itertools.permutations(range(g1.order)):
            if all(
                vp[g1.matchings[c][v]] == h[c][vp[v]]
                for c in g1.colors
                for v in g1.vertices
            ):
                return True
    return False


def test_canonical_invariant_under_relabeling(fixtures_all, rng):
    for g in fixtures_all:
        base = canonical_code(g)
        for _ in range(100):
            perm = list(g.vertices)
            rng.shuffle(perm)
            assert canonical_code(g.relabel(perm)) == base


def test_canonical_invariant_under_color_swap():
    g = q4()
    swapped = g.permute_colors((1, 0, 2, 3, 4))
    assert canonical_code(g, Equivalence.COLOR_PERMUTING) == canonical_code(
        swapped, Equivalence.COLOR_PERMUTING
    )


def test_canonical_separates_against_brute_force(rng):
    """On all order-4 3-colored graphs, equal codes exactly match brute-force
    isomorphism, in both equivalences."""
    involutions = [(1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
    graphs = []
    for rows in itertools.product(involutions, repeat=3):
        try:
            graphs.append(ColoredGraph(rows))
        except Exception:
            continue
    for g1, g2 in itertools.combinations(graphs, 2):
        for eq, perm in (
            (Equivalence.COLOR_PRESERVING, False),
            (Equivalence.COLOR_PERMUTING, True),
        ):
            same_code = canonical_code(g1, eq) == canonical_code(g2, eq)
            assert same_code == _brute_force_isomorphic(g1, g2, perm)


def _random_partial_table(n, order, rng):
    """Color 0 standard plus fewer than n random colors, often disconnected."""
    rows = [tuple(v ^ 1 for v in range(order))]
    for _ in range(rng.randrange(n)):
        free = list(range(order))
        rng.shuffle(free)
        row = [0] * order
        while free:
            a, b = free.pop(), free.pop()
            row[a], row[b] = b, a
        rows.append(tuple(row))
    return tuple(rows)


def test_canonical_matchings_equals_definition(fixtures_all, rng):
    """The pruned labeling returns exactly the table of the unpruned
    definition: the same canonical form, not just an invariant one."""
    tables = [g.matchings for g in fixtures_all]
    for _ in range(100):
        n, order = rng.randint(2, 5), 2 * rng.randint(1, 6)
        tables.append(random_graph(n, order, rng).matchings)
        tables.append(_random_partial_table(n, order, rng))
    for rows in tables:
        for permuting in (False, True):
            assert canonical_matchings(rows, color_permuting=permuting) == canonical_table(
                rows, color_permuting=permuting
            )
    assert sum(len(table_components(rows, len(rows[0]))) > 1 for rows in tables) >= 20


def _involutions(order):
    """Every fixed-point-free involution on 0..order-1."""
    rows = []
    for row in itertools.permutations(range(order)):
        if all(row[v] != v and row[row[v]] == v for v in range(order)):
            rows.append(row)
    return rows


_INVOLUTIONS = {order: _involutions(order) for order in (4, 6, 8)}


@st.composite
def _tables(draw):
    """Matching tables on 4 to 8 vertices with 3 to 6 colors, connected or
    not, each row drawn from two to four distinct involutions, so most
    tables repeat a row: many color orders then give one table."""
    order = draw(st.sampled_from([4, 6, 8]))
    pool = draw(st.lists(st.sampled_from(_INVOLUTIONS[order]), min_size=2, max_size=4, unique=True))
    return tuple(draw(st.sampled_from(pool)) for _ in range(draw(st.integers(3, 6))))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(rows=_tables(), data=st.data())
def test_canonical_matchings_invariant_and_exact(rows, data):
    """Under either equivalence the labeling is the definition's table and
    does not see a vertex relabeling; under color-permuting equivalence it
    does not see a recoloring either."""
    order = len(rows[0])
    perm = data.draw(st.permutations(range(order)))
    relabeled = []
    for row in rows:
        image = [0] * order
        for v in range(order):
            image[perm[v]] = perm[row[v]]
        relabeled.append(tuple(image))
    colors = data.draw(st.permutations(range(len(rows))))
    recolored = tuple(relabeled[c] for c in colors)

    preserving = canonical_matchings(rows)
    assert preserving == canonical_table(rows)
    assert canonical_matchings(tuple(relabeled)) == preserving
    permuting = canonical_matchings(rows, color_permuting=True)
    assert permuting == canonical_table(rows, color_permuting=True)
    assert canonical_matchings(recolored, color_permuting=True) == permuting


def _long_cycle(order, antipodal):
    """Colors 0 and 1 forming one bicolored cycle through all `order`
    vertices, optionally with a third color joining opposite vertices: many
    starts tie on row 0, and on the whole table."""
    rows = [
        tuple(v ^ 1 for v in range(order)),
        tuple((v + 1 if v % 2 else v - 1) % order for v in range(order)),
    ]
    if antipodal:
        rows.append(tuple((v + order // 2) % order for v in range(order)))
    return tuple(rows)


_LONG_CYCLES = [_long_cycle(order, antipodal) for order in (8, 12, 16) for antipodal in (0, 1)]
_SYMMETRIC_TABLES = [
    g.matchings
    for g in (k2(1), k2(2), k2(4), q4(), torus6(), torus_interval(), torus_disk(), rp3(),
              order4_nonbipartite(0), order4_nonbipartite(1))
] + _LONG_CYCLES


def _near(table):
    """The table itself, and tables one entry below or above it in every row."""
    out = [table]
    for c, row in enumerate(table):
        i = (3 * c) % len(row)
        for step in (-1, 1):
            out.append(table[:c] + (row[:i] + (row[i] + step,) + row[i + 1 :],) + table[c + 1 :])
    return out


def _check_kernel(rows):
    """The pruned kernel returns the least of the unpruned rooted tables,
    and `ties` lists the discovery order of every start reaching it, in
    start order.  Given an incumbent `best`, it returns min(best, least),
    and `ties` gains the least table's starts unless `best` is smaller."""
    starts = rooted_tables(rows)
    least = min(table for table, _ in starts)
    tying = [order for table, order in starts if table == least]
    ties = []
    assert _min_rooted_table(rows, ties=ties) == least
    assert ties == tying
    for best in _near(least):
        ties = []
        assert _min_rooted_table(rows, best, ties) == min(best, least)
        assert ties == ([] if best < least else tying)
    return tying


@pytest.mark.parametrize("rows", _SYMMETRIC_TABLES)
def test_min_rooted_table_against_every_start_on_symmetric_tables(rows):
    tying = _check_kernel(rows)
    if rows in _LONG_CYCLES:  # each rotation by an even step is an automorphism
        assert len(tying) >= len(rows[0]) // 2


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(n=st.integers(1, 4), order=st.sampled_from([2, 4, 6, 8, 10]), seed=st.integers(0, 2**32))
def test_min_rooted_table_against_every_start(n, order, seed):
    _check_kernel(random_graph(n, order, random.Random(seed)).matchings)


def _check_kernel_across_color_orders(rows):
    """One incumbent and one `ties` list passed through the table under
    every admissible color order end with the least rooted table of every
    (order, start) pair, and `ties` holds the discovery order of each pair
    whose full table is that least, in the order tried.  Returns how many
    color orders those pairs span."""
    tried = [(perm, tuple(rows[c] for c in perm)) for perm in admissible_color_orders(rows)]
    starts = [(perm, table, found) for perm, t in tried for table, found in rooted_tables(t)]
    least = min(table for _, table, _ in starts)
    best, ties = None, []
    for _, t in tried:
        best = _min_rooted_table(t, best, ties)
    assert best == least
    assert ties == [found for _, table, found in starts if table == least]
    return len({perm for perm, table, _ in starts if table == least})


def test_min_rooted_table_ties_across_color_orders():
    """On symmetric tables and the n=3 order-6 catalogue, some tables tie
    across two color orders: a recoloring maps them onto themselves."""
    catalogue = enumerate_census(CensusParams(n=3, order=6))
    tables = _SYMMETRIC_TABLES + [g.matchings for g in catalogue.graphs()]
    assert max(map(_check_kernel_across_color_orders, tables)) > 1


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(n=st.integers(1, 4), order=st.sampled_from([2, 4, 6, 8]), seed=st.integers(0, 2**32))
def test_min_rooted_table_ties_across_color_orders_of_random_tables(n, order, seed):
    _check_kernel_across_color_orders(random_graph(n, order, random.Random(seed)).matchings)


def test_color_positions_separate_only_when_preserving():
    """Placing the duplicated matching on colors {0,1} versus {0,2} gives
    distinct graphs up to relabeling, but the same class up to recoloring."""
    a, b = (1, 0, 3, 2), (3, 2, 1, 0)
    g01 = ColoredGraph((a, a, b, b, b))
    g02 = ColoredGraph((a, b, a, b, b))
    assert not _brute_force_isomorphic(g01, g02)
    assert _brute_force_isomorphic(g01, g02, color_permuting=True)
    assert canonical_code(g01) != canonical_code(g02)
    assert canonical_code(g01, Equivalence.COLOR_PERMUTING) == canonical_code(
        g02, Equivalence.COLOR_PERMUTING
    )


def test_isomorphic_helper(t6, rng):
    perm = list(t6.vertices)
    rng.shuffle(perm)
    assert isomorphic(t6, t6.relabel(perm))
    assert not isomorphic(t6, k2(2))


# ============================================================
# DOT export
# ============================================================

_EDGE_RE = re.compile(r"^\s+(\d+) -- (\d+) \[color=\"(#[0-9a-f]{6})\", label=\"(\d+)\"\];$")
_NODE_RE = re.compile(r"^\s+(\d+);$")


def _validate_dot(text):
    """Tiny grammar check for the emitted DOT subset; returns (nodes, edges)."""
    lines = text.strip().splitlines()
    assert lines[0].startswith("graph ") and lines[0].endswith("{")
    assert lines[-1] == "}"
    nodes, edges = [], []
    for line in lines[1:-1]:
        if line.strip().startswith("node ["):
            continue
        m = _EDGE_RE.match(line)
        if m:
            edges.append((int(m.group(1)), int(m.group(2)), m.group(3), int(m.group(4))))
            continue
        m = _NODE_RE.match(line)
        assert m, f"unparseable DOT line: {line!r}"
        nodes.append(int(m.group(1)))
    return nodes, edges


def test_dot_k2_parallel_edges():
    nodes, edges = _validate_dot(export_dot(k2(1)))
    assert len(nodes) == 2
    assert len(edges) == 2
    assert len({(color, label) for _, _, color, label in edges}) == 2


def test_dot_torus_counts(t6):
    nodes, edges = _validate_dot(export_dot(t6))
    assert len(nodes) == 6
    assert len(edges) == 9  # (n+1) * order/2
    assert len({color for _, _, color, _ in edges}) == 3


def test_dot_valid_for_all_fixtures(fixtures_all):
    for g in fixtures_all:
        nodes, edges = _validate_dot(export_dot(g))
        assert len(nodes) == g.order
        assert len(edges) == (g.n + 1) * g.p
