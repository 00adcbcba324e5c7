"""Enumeration completeness, determinism, catalogue files, reports."""

import collections
import hashlib
import itertools
import random

import pytest

import gemkit.census as census_mod

from gemkit import (
    BudgetExceededError,
    ColoredGraph,
    DipoleKind,
    Equivalence,
    canonical_code,
    find_dipoles,
    format_code_line,
    parse_code_line,
    parse_gem,
    format_gem,
)
from gemkit.census import (
    Catalogue,
    CensusParams,
    _fpf_involutions,
    _orbit_roots,
    _standard_matching,
    census_report,
    enumerate_census,
    format_catalogue,
    parse_catalogue,
    random_graph,
)
from gemkit.graph import _components, _joins, canonical_matchings
from oracles import (
    automorphisms,
    bipartite_table,
    canonical_table,
    color_permuting_automorphisms,
    color_signatures,
    table_components,
    two_coloring,
    union_find_components,
)


# ============================================================
# Completeness oracle at tiny scale
# ============================================================


def _brute_force_classes(n, order, equivalence, supercontracted=False, bipartite=None):
    """Raw enumeration of every matching table with color 0 standard,
    filtered by union-find connectivity and a direct 2-coloring, and
    deduplicated by the unpruned reference canonical form."""
    rows = []
    for pairs in _pairings(tuple(range(order))):
        row = [0] * order
        for a, b in pairs:
            row[a], row[b] = b, a
        rows.append(tuple(row))
    std = tuple(v + 1 if v % 2 == 0 else v - 1 for v in range(order))
    permuting = equivalence is Equivalence.COLOR_PERMUTING
    classes = set()
    for rest in itertools.product(rows, repeat=n):
        table = (std,) + rest
        if len(table_components(table, order)) > 1:
            continue
        g = ColoredGraph(table)
        if supercontracted and any(
            len(union_find_components(g, [c for c in g.colors if c != drop])) > 1
            for drop in g.colors
        ):
            continue
        if bipartite is not None and (two_coloring(g) is not None) != bipartite:
            continue
        classes.add(canonical_table(table, permuting))
    return classes


def _pairings(free):
    if not free:
        yield ()
        return
    a = free[0]
    for i in range(1, len(free)):
        for rest in _pairings(free[1:i] + free[i + 1 :]):
            yield ((a, free[i]),) + rest


@pytest.mark.parametrize("equivalence", [Equivalence.COLOR_PRESERVING, Equivalence.COLOR_PERMUTING])
def test_completeness_against_brute_force(equivalence):
    """Every class appears exactly once, as its canonical table, for each
    size and filter; the frontier and the catalogue are canonical under the
    requested equivalence."""
    permuting = equivalence is Equivalence.COLOR_PERMUTING
    for (n, order), filters in itertools.product(
        [(2, 4), (3, 4), (2, 6), (3, 6)],
        [{}, {"supercontracted": True}, {"bipartite": True}, {"bipartite": False}],
    ):
        got = enumerate_census(CensusParams(n=n, order=order, equivalence=equivalence, **filters))
        expect = _brute_force_classes(n, order, equivalence, **filters)
        assert sorted(canonical_table(g.matchings, permuting) for g in got.graphs()) == sorted(
            expect
        ), (n, order, filters)


def _extended_tables(monkeypatch, params):
    """Every frontier table the census extends, in the order it does."""
    import gemkit.census

    tables = []
    orbit_roots = gemkit.census._orbit_roots

    def record(table, involutions, index, permuting):
        tables.append(table)
        return orbit_roots(table, involutions, index, permuting)

    with monkeypatch.context() as patch:
        patch.setattr(gemkit.census, "_orbit_roots", record)
        enumerate_census(params)
    return tables


def _orbit_minima(auts, involutions, index):
    """The least index in each involution's orbit under conjugation by the
    vertex permutations `auts`, which form a group."""
    expect = []
    for e in involutions:
        images = []
        for s in auts:
            row = [0] * len(e)
            for v in range(len(e)):
                row[s[v]] = s[e[v]]
            images.append(index[tuple(row)])
        expect.append(min(images))
    return expect


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("equivalence", [Equivalence.COLOR_PRESERVING, Equivalence.COLOR_PERMUTING])
def test_automorphism_orbits_against_brute_force(monkeypatch, n, equivalence):
    """For every table an order-6 census extends, the involutions the
    census keeps are the least of their orbits under the table's whole
    automorphism group, found by trying every vertex permutation.  The
    tables include disconnected ones with repeated isomorphic components,
    whose swaps the generators must supply.  Up to color permutation, a
    connected table's group is every vertex permutation that maps it onto
    itself under some color permutation: every one at n=3, and at n=4 only
    those keeping each color's signature, as no other can.  Some tables
    must have coarser orbits under that group than under the
    color-preserving one."""
    permuting = equivalence is Equivalence.COLOR_PERMUTING
    involutions = _fpf_involutions(6)
    index = {e: i for i, e in enumerate(involutions)}
    repeated = merged = 0
    for table in _extended_tables(monkeypatch, CensusParams(n=n, order=6, equivalence=equivalence)):
        expect = _orbit_minima(automorphisms(table), involutions, index)
        if permuting and len(table_components(table, 6)) == 1:
            sig = color_signatures(table)
            perms = [
                p
                for p in itertools.permutations(range(len(table)))
                if n == 3 or all(sig[p[c]] == sig[c] for c in range(len(table)))
            ]
            coarser = _orbit_minima(color_permuting_automorphisms(table, perms), involutions, index)
            merged += coarser != expect
            expect = coarser
        assert _orbit_roots(table, involutions, index, permuting) == expect, table
        parts = [
            canonical_table([[comp.index(row[v]) for v in comp] for row in table])
            for comp in table_components(table, 6)
        ]
        repeated += len(set(parts)) < len(parts)
    assert repeated > 1
    assert (merged > 0) == permuting


def _labelings_per_level(monkeypatch, params):
    """Number of canonical labelings the census makes, keyed by the number
    of colors of the labeled tables."""
    import gemkit.census

    calls = collections.Counter()

    def counted(table, color_permuting=False):
        calls[len(table)] += 1
        return canonical_matchings(table, color_permuting)

    monkeypatch.setattr(gemkit.census, "canonical_matchings", counted)
    enumerate_census(params)
    return dict(calls)


def test_labelings_one_per_class_when_preserving(monkeypatch):
    """Under color-preserving equivalence the orbits of a frontier table
    are its classes of extensions, so each level labels each of its classes
    once: 5 and 86 frontier classes, then the 2589 catalogue entries."""
    params = CensusParams(
        n=3, order=8, supercontracted=True, equivalence=Equivalence.COLOR_PRESERVING
    )
    assert _labelings_per_level(monkeypatch, params) == {2: 5, 3: 86, 4: 2589}


def test_labelings_pinned_when_permuting(monkeypatch):
    """Color-permuting equivalence merges extensions that no automorphism
    of their parent relates (children of different parents, or children
    isomorphic only through a map that moves the new color), so a level
    labels more tables than it keeps (39 for 31 frontier classes, 342 for
    266 catalogue entries; 48 for the 47 entries of n=4 order 6) even
    though a candidate is labeled only when its new color has the greatest
    signature, and only once per orbit of the parent's color-permuting
    automorphisms.  With orbits of the color-preserving ones only, the
    levels labeled 5, 52 and 589 (81 at n=4 order 6); with those and
    without the signature test, 5, 86 and 1310; extending by every
    involution labeled 3651 at the last level.  These are work counters,
    not outputs: the catalogues stay pinned by digest."""
    assert _labelings_per_level(monkeypatch, CensusParams(n=3, order=8)) == {
        2: 5,
        3: 39,
        4: 342,
    }
    assert _labelings_per_level(monkeypatch, CensusParams(n=4, order=6))[5] == 48


def test_disconnected_parents_skipped_when_supercontracted(monkeypatch):
    """Of the 86 three-color frontier classes, the supercontracted census
    extends only the 60 connected ones: a child of a disconnected parent is
    disconnected once its new color is dropped."""
    params = CensusParams(
        n=3, order=8, supercontracted=True, equivalence=Equivalence.COLOR_PRESERVING
    )
    last = [t for t in _extended_tables(monkeypatch, params) if len(t) == 3]
    assert len(last) == 60
    assert all(len(table_components(t, 8)) == 1 for t in last)


@pytest.mark.parametrize(
    "n, order, supercontracted", [(3, 6, False), (4, 6, True)], ids=["n3o6", "n4o6sc"]
)
def test_census_builds_graphs_only_for_the_dipole_filter(monkeypatch, n, order, supercontracted):
    """The census answers connectivity from its parents' components and
    writes its catalogue from raw tables: no `ColoredGraph` is built and no
    connectivity walk runs, except one graph per frontier table for the
    no-ordinary-dipoles filter."""
    import gemkit.census

    built = []
    walks = []
    real_graph, real_connected = gemkit.census.ColoredGraph, gemkit.census._connected

    def graph(table):
        built.append(table)
        return real_graph(table)

    def connected(matchings, order):
        walks.append(matchings)
        return real_connected(matchings, order)

    monkeypatch.setattr(gemkit.census, "ColoredGraph", graph)
    monkeypatch.setattr(gemkit.census, "_connected", connected)
    params = CensusParams(n=n, order=order, supercontracted=supercontracted)
    plain = enumerate_census(params)
    assert (built, walks) == ([], [])
    filtered = enumerate_census(
        CensusParams(n=n, order=order, supercontracted=supercontracted, no_ordinary_dipoles=True)
    )
    assert walks == []
    assert sorted(built) == sorted(parse_code_line(line).matchings for line in plain.entries)
    assert filtered.count < plain.count


def test_enumerate_deterministic():
    params = CensusParams(n=3, order=6)
    a = enumerate_census(params)
    b = enumerate_census(params)
    assert a.entries == b.entries
    assert format_catalogue(a) == format_catalogue(b)


@pytest.mark.parametrize(
    "params, digest",
    [
        (CensusParams(n=3, order=8), "ced97cb3be5e4aba"),
        (
            CensusParams(
                n=3, order=8, supercontracted=True, equivalence=Equivalence.COLOR_PRESERVING
            ),
            "453833eecaeb60f6",
        ),
        (CensusParams(n=4, order=6), "1b51929c817250b5"),
        (CensusParams(n=5, order=4), "9b922e5db1a99293"),
    ],
)
def test_catalogue_bytes_pinned(params, digest):
    """The canonical form, the entry order and the v1 text format are fixed:
    a change to any of them changes these digests and needs a new header
    version."""
    text = format_catalogue(enumerate_census(params))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "params, digest",
    [
        (CensusParams(n=4, order=4, supercontracted=True), "5f494760e027c98d"),
        (CensusParams(n=4, order=6, supercontracted=True), "a07143f77286b2fd"),
    ],
)
def test_supercontracted_catalogue_bytes_pinned(params, digest):
    """The two supercontracted censuses of the benchmark, pinned like the
    four catalogues above (the paper's 1/2 and 8/31 classes)."""
    text = format_catalogue(enumerate_census(params))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def _seeded_partial_tables():
    """Partial tables of 1 to 4 colors on 2 to 10 vertices, color 0 standard
    as in the census and the rest drawn at random, connected or not."""
    import random as random_mod

    rng = random_mod.Random(21)
    for order in (2, 4, 6, 8, 10):
        involutions = _fpf_involutions(order)
        for k in (1, 2, 3, 4):
            for _ in range(3 if order < 10 else 1):
                yield (_standard_matching(order),) + tuple(rng.choice(involutions) for _ in range(k - 1))


def test_parent_components_decide_connectivity():
    """A candidate P + e is connected exactly when e joins the components of
    P, and P + e less an old color c exactly when e joins those of P - c:
    checked against union-find on the whole table for every involution e."""
    kinds = collections.Counter()  # (parent or drop-one table, connected) -> tables
    for partial in _seeded_partial_tables():
        order = len(partial[0])
        drops = [partial[:c] + partial[c + 1 :] for c in range(len(partial))]
        for kind, rows in [("parent", partial)] + [("drop-one", rows) for rows in drops]:
            labels = _components(rows, order)
            assert len(labels[1]) == len(table_components(rows, order))
            kinds[kind, len(labels[1]) == 1] += 1
            for extra in _fpf_involutions(order):
                joined = len(table_components(rows + (extra,), order)) == 1
                assert (_joins(labels, extra)[1] == 1) == joined, (rows, extra)
    assert len(kinds) == 4, kinds


def _seeded_report_catalogues(tmp_path):
    """Three seeded n=4 catalogues, orders 8, 12 and 16 (a catalogue holds
    one order), each half bipartite graphs and half `random_graph` draws."""
    import random as random_mod

    rng = random_mod.Random(2024)
    paths = []
    for order in (8, 12, 16):
        tables = set()
        while len(tables) < 8:
            if len(tables) % 2:
                g = random_graph(4, order, rng)
            else:
                g = ColoredGraph(bipartite_table(4, order, rng))
            tables.add(canonical_matchings(g.matchings))
        graphs = [ColoredGraph(t) for t in tables]
        bip = sum(1 for g in graphs if g.is_bipartite() is not None)
        cat = Catalogue(
            CensusParams(4, order, Equivalence.COLOR_PRESERVING),
            tuple(sorted(format_code_line(g) for g in graphs)),
            bip,
            len(graphs) - bip,
        )
        path = tmp_path / f"r{order}.cat"
        path.write_text(format_catalogue(cat), encoding="utf-8")
        paths.append(str(path))
    return paths


def test_report_bytes_pinned(tmp_path, capsys):
    """`gemkit report` stdout is byte-stable: residue, sphere and G-degree
    code may change how it computes, not what it prints."""
    from gemkit.cli import main

    out = []
    for path in _seeded_report_catalogues(tmp_path):
        assert main(["report", path]) == 0
        out.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(out).encode()).hexdigest()[:16] == "a5bd8eb9522f6756"


def test_budget_edge_census():
    """Regression anchor: this engine's counts for the five-color order-8
    supercontracted census.  They are not from the paper, which reports only
    the order-4 and order-6 counts; they are pinned so that engine changes
    cannot move them.  The catalogue's bytes are pinned too, as this is the
    census whose labelings the orbit test cuts the most."""
    cat = enumerate_census(CensusParams(n=4, order=8, supercontracted=True))
    assert (cat.count, cat.bipartite_count, cat.nonbipartite_count) == (3441, 122, 3319)
    digest = hashlib.sha256(format_catalogue(cat).encode()).hexdigest()
    assert digest[:16] == "f43675be25a4e929"


def test_entries_canonical_and_distinct():
    cat = enumerate_census(CensusParams(n=3, order=6))
    codes = set()
    for g in cat.graphs():
        code = canonical_code(g, Equivalence.COLOR_PERMUTING).code
        assert code not in codes
        codes.add(code)


def test_entries_round_trip_gem():
    cat = enumerate_census(CensusParams(n=4, order=4))
    for line in cat.entries:
        g = parse_code_line(line)
        assert parse_gem(format_gem(g)) == g
        assert format_code_line(g) == line


def test_filters():
    bip = enumerate_census(CensusParams(n=4, order=4, bipartite=True))
    non = enumerate_census(CensusParams(n=4, order=4, bipartite=False))
    both = enumerate_census(CensusParams(n=4, order=4))
    assert bip.count + non.count == both.count
    assert bip.nonbipartite_count == 0
    assert non.bipartite_count == 0

    sc = enumerate_census(CensusParams(n=4, order=4, supercontracted=True))
    assert sc.count == 3

    no_dip = enumerate_census(
        CensusParams(n=4, order=4, supercontracted=True, no_ordinary_dipoles=True)
    )
    assert no_dip.count == 2  # the bipartite class reduces; the others are rigid


@pytest.mark.parametrize(
    "n, order, supercontracted", [(3, 6, False), (4, 6, True)], ids=["n3o6", "n4o6sc"]
)
def test_no_ordinary_dipoles_filter_matches_find_dipoles(n, order, supercontracted):
    """The census filter keeps exactly the classes in which `find_dipoles`
    labels no dipole ordinary."""
    plain = enumerate_census(CensusParams(n=n, order=order, supercontracted=supercontracted))
    filtered = enumerate_census(
        CensusParams(
            n=n, order=order, supercontracted=supercontracted, no_ordinary_dipoles=True
        )
    )
    expected = tuple(
        line
        for line in plain.entries
        if not any(d.kind is DipoleKind.ORDINARY for d in find_dipoles(parse_code_line(line)))
    )
    assert filtered.entries == expected
    assert 0 < filtered.count < plain.count


def test_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_census(CensusParams(n=4, order=10))
    with pytest.raises(BudgetExceededError):
        enumerate_census(CensusParams(n=6, order=4))


def test_order2_census():
    cat = enumerate_census(CensusParams(n=4, order=2, supercontracted=True))
    assert cat.count == 1
    assert cat.bipartite_count == 1


def test_color_preserving_splits_matching_positions():
    """Without recoloring, the bipartite supercontracted order-4 class splits
    by which color pair carries the minority matching: ten classes, one per
    2-subset of the five colors.  This is why class counts here default to
    the color-permuting equivalence."""
    cat = enumerate_census(
        CensusParams(
            n=4,
            order=4,
            supercontracted=True,
            bipartite=True,
            equivalence=Equivalence.COLOR_PRESERVING,
        )
    )
    assert cat.count == 10


# ============================================================
# Catalogue files
# ============================================================


def test_catalogue_round_trip(tmp_path):
    cat = enumerate_census(CensusParams(n=4, order=4, supercontracted=True))
    text = format_catalogue(cat)
    assert text.startswith("# gemkit-census v1 ")
    assert f"# count={cat.count}" in text
    path = tmp_path / "order4.cat"
    path.write_text(text, encoding="utf-8")
    back = parse_catalogue(path.read_text(encoding="utf-8"))
    assert back.entries == cat.entries
    assert back.params.supercontracted
    assert back.params.equivalence is Equivalence.COLOR_PERMUTING


def test_catalogue_rejects_garbage():
    from gemkit import GemSyntaxError

    with pytest.raises(GemSyntaxError):
        parse_catalogue("not a catalogue\n")


@pytest.mark.parametrize(
    "cut",
    [
        lambda lines: lines[:-5],  # truncated
        lambda lines: lines[:3] + lines[4:],  # one entry dropped
        lambda lines: lines[:1],  # header only
        lambda lines: lines[:-1] + ["# count=39 bipartite=9 nonbipartite=30\n"],
        lambda lines: lines[:-1] + ["# count=x bipartite=8 nonbipartite=31\n"],
    ],
    ids=["truncated", "entry-dropped", "header-only", "wrong-split", "bad-count"],
)
def test_catalogue_footer_checked(cut):
    from gemkit import GemSyntaxError

    text = format_catalogue(enumerate_census(CensusParams(n=4, order=6, supercontracted=True)))
    assert parse_catalogue(text).count == 39
    with pytest.raises(GemSyntaxError, match="footer"):
        parse_catalogue("".join(cut(text.splitlines(keepends=True))))


def _repeat_first_entry(text):
    """The catalogue with its first entry listed twice and the footer
    recounted to match, so only the repetition is wrong."""
    cat = parse_catalogue(text)
    bip = parse_code_line(cat.entries[0]).is_bipartite() is not None
    return format_catalogue(
        Catalogue(
            cat.params,
            cat.entries[:1] + cat.entries,
            cat.bipartite_count + bip,
            cat.nonbipartite_count + (not bip),
        )
    )


def _tag_plain_census_supercontracted(text):
    """The census without the supercontracted filter, relabelled with it:
    8 of its 47 entries are not supercontracted.  The edited text is unused."""
    del text
    plain = format_catalogue(enumerate_census(CensusParams(n=4, order=6)))
    return plain.replace("filters=connected", "filters=connected,supercontracted", 1)


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda text: text.replace(" n=4 ", " n=3 ", 1), "header says n=3 order=6"),
        (lambda text: text.replace(" order=6 ", " order=8 ", 1), "header says n=4 order=8"),
        (_repeat_first_entry, "appears twice"),
        (lambda text: text.replace("supercontracted", "supercontracted,bipratite", 1),
         "unknown filter tags"),
        (lambda text: text.replace("supercontracted", "bipartite,nonbipartite", 1),
         "both bipartite and nonbipartite"),
        # the census holds 31 non-bipartite entries, which the filter excludes
        (lambda text: text.replace("supercontracted", "supercontracted,bipartite", 1),
         "counts entries the filter excludes"),
        (_tag_plain_census_supercontracted, "is not supercontracted"),
    ],
    ids=["header-n", "header-order", "repeated-entry", "unknown-filter", "both-parities",
         "parity-filter", "supercontracted-filter"],
)
def test_catalogue_entries_checked(edit, match):
    from gemkit import GemSyntaxError

    text = format_catalogue(enumerate_census(CensusParams(n=4, order=6, supercontracted=True)))
    with pytest.raises(GemSyntaxError, match=match):
        parse_catalogue(edit(text))


def test_catalogue_readers_keep_one_entry_graph(monkeypatch):
    """`parse_catalogue` and `census_report` read a catalogue one entry at a
    time: whenever an entry is parsed, at most one earlier entry's graph is
    still alive.  The cycle collector is off, so a graph is counted alive
    exactly while something refers to it."""
    import gc
    import weakref

    import gemkit.census

    text = format_catalogue(enumerate_census(CensusParams(n=4, order=6, supercontracted=True)))
    real = gemkit.census.parse_code_line
    refs: list = []
    alive: list = []

    def spy(line):
        alive.append(sum(ref() is not None for ref in refs))
        g = real(line)
        refs.append(weakref.ref(g))
        return g

    monkeypatch.setattr(gemkit.census, "parse_code_line", spy)
    enabled = gc.isenabled()
    gc.disable()
    try:
        cat = parse_catalogue(text)
        assert len(refs) == 39 and max(alive) <= 1
        refs.clear()
        alive.clear()
        census_report(cat)
        assert len(refs) == 39 and max(alive) <= 1
    finally:
        if enabled:
            gc.enable()


# ============================================================
# Random graphs
# ============================================================


def test_random_graph_valid(rng):
    for _ in range(30):
        g = random_graph(4, 8, rng)
        assert g.n == 4 and g.order == 8  # constructor validated the rest


def test_random_graph_refuses_fewer_than_two_colors(monkeypatch):
    """One matching never connects four or more vertices, so n < 1 is
    refused with `CensusParams`' text before any draw; a connectivity test
    reached first fails the test instead of looping forever."""

    def drawn(rows, order):
        raise AssertionError("a graph was drawn before n was checked")

    monkeypatch.setattr(census_mod, "_connected", drawn)
    for order in (2, 4):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            random_graph(0, order, random.Random(1))


def test_random_graph_seeded_reproducible():
    import random as random_mod

    a = random_graph(3, 8, random_mod.Random(42))
    b = random_graph(3, 8, random_mod.Random(42))
    assert a == b


# ============================================================
# Reports
# ============================================================


def test_report_order4_supercontracted():
    cat = enumerate_census(CensusParams(n=4, order=4, supercontracted=True))
    report = census_report(cat)
    assert sorted(row.omega_reduced for row in report.rows) == [2, 3, 4]
    assert not report.identity_failures
    text = report.format_text()
    assert "omega_G_reduced histogram" in text


def test_report_propagates_unexpected_errors(monkeypatch):
    """Only an unresolved residue may leave an entry unnamed; any other
    failure of the small-order table reaches the caller."""
    import gemkit.census
    from gemkit import UnresolvedResidueError

    cat = enumerate_census(CensusParams(n=4, order=4, supercontracted=True))

    def unresolved(g):
        raise UnresolvedResidueError("simulated")

    monkeypatch.setattr(gemkit.census, "classify_small", unresolved)
    assert {row.name for row in census_report(cat).rows} == {None}

    def broken(g):
        raise RuntimeError("simulated table bug")

    monkeypatch.setattr(gemkit.census, "classify_small", broken)
    with pytest.raises(RuntimeError, match="simulated table bug"):
        census_report(cat)


def test_report_names_small_entries():
    cat = enumerate_census(CensusParams(n=4, order=4))
    report = census_report(cat)
    names = {row.name for row in report.rows}
    assert names == {"S4", "RP2xB2"}
