"""Isomorph-free enumeration of colored graphs with filters, catalogue
persistence, and census reports.

The engine fixes color 0 as the standard matching (0 1)(2 3)... and extends
one color at a time; after each extension the partial tables are reduced to
canonical representatives under the requested equivalence, so the frontier
holds one table per class and never revisits an equivalent table.
Extending by every involution commutes with recoloring the colors already
placed, and every filter on completed graphs is invariant under color
permutation, so under either equivalence the last level already is the
catalogue: one canonical table per class.

A frontier table is not extended by every involution, only by one per orbit
of its automorphism group (McKay's isomorph rejection).  An automorphism s
of the table T maps T + e onto T + s e s^-1 vertex by vertex, so the two
extensions are isomorphic under either equivalence: they have the same
canonical table and pass or fail the same filters, which are all
isomorphism-invariant.  The set of canonical tables a level collects is
therefore the one that extending by every involution collects, and the
catalogue is unchanged byte for byte; only the labelings of extensions
known to repeat a class are skipped.  Under color-preserving equivalence
the orbits of a table are exactly its classes of extensions, so each class
is labeled once per level.

Under color-permuting equivalence a connected table's group also holds
its automorphisms (p, s) that permute colors, s carrying each color c
onto color p(c).  Such a pair maps T + e onto a recoloring of
T + s e s^-1 that fixes the new color, so the two candidates are
isomorphic, their new colors have the same signature, and they pass the
same filters: the orbits are taken under this larger group, and the
catalogue is again unchanged.  They are still finer than the classes: two
extensions may be isomorphic only through a map that moves the new color,
or be children of different parents.  Disconnected tables keep their
color-preserving orbits.

Under color-permuting equivalence a candidate is labeled only if its new
color leads: its signature, the sorted cycle counts it forms with every
other color, is the greatest of the candidate's, ties kept.  This loses no
class.  Let c* be a leading color of a table C.  The class of C - c* is in
the complete frontier as a table P, and C is P plus a recolored copy of
c*'s matching; the orbit representative tried for it is isomorphic to C
with c* as its new color, so it passes this test and the same filters.
Ties are labeled and deduplicated like any candidate, so the frontier and
the catalogue are unchanged.  Color-preserving equivalence fixes which
color comes last, so there C - c* names no frontier class unless c* is
the last color, and the test does not apply.

A last-level candidate P + e meets, in turn: the orbit test, the signature
test, connectivity from the parent, the parity filter, and then its labeling.
P + e is connected exactly when e's pairs join the components of P, which
are numbered once per parent.  With supercontraction, P + e less an old
color c is (P - c) + e, decided from the components of P - c; and a
disconnected P is skipped, as its children lose connectivity without e.
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple, Optional

from .errors import BudgetExceededError, GemSyntaxError, UnresolvedResidueError
from .graph import (
    ColoredGraph,
    Equivalence,
    _code_line,
    _color_signatures,
    _component_table,
    _components,
    _joins,
    _min_rooted_table,
    _pair_components,
    _pair_counts,
    _recolorings,
    _two_color,
    canonical_matchings,
    parse_code_line,
)
from .invariants import classify_small, g_degree
from .residues import is_supercontracted
from .singularity import certified_site, is_closed_manifold, is_singular_manifold

DEFAULT_BUDGET = (5, 8)  # max dimension, max order


# ============================================================
# Parameters and catalogue
# ============================================================


class _CensusFields(NamedTuple):
    n: int
    order: int
    equivalence: Equivalence = Equivalence.COLOR_PERMUTING
    bipartite: Optional[bool] = None  # True: only, False: exclude, None: both
    supercontracted: bool = False
    no_ordinary_dipoles: bool = False


class CensusParams(_CensusFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):  # a catalogue header is held to these too
        self = super().__new__(cls, *args, **kwargs)
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if self.order < 2 or self.order % 2:
            raise ValueError("order must be even and >= 2")
        return self

    def validate(self) -> None:
        max_n, max_order = DEFAULT_BUDGET
        if self.n > max_n or self.order > max_order:
            raise BudgetExceededError(
                f"census n={self.n}, order={self.order} exceeds budget "
                f"(n <= {max_n}, order <= {max_order})"
            )

    def filter_tags(self) -> str:
        tags = ["connected"]
        if self.bipartite is True:
            tags.append("bipartite")
        if self.bipartite is False:
            tags.append("nonbipartite")
        if self.supercontracted:
            tags.append("supercontracted")
        if self.no_ordinary_dipoles:
            tags.append("no-ordinary-dipoles")
        return ",".join(tags)


class Catalogue(NamedTuple):
    params: CensusParams
    entries: tuple[str, ...]  # canonical single-line codes, sorted
    bipartite_count: int
    nonbipartite_count: int

    @property
    def count(self) -> int:
        return len(self.entries)

    def graphs(self) -> Iterator[ColoredGraph]:
        for line in self.entries:
            yield parse_code_line(line)


# ============================================================
# Enumeration
# ============================================================


def _fpf_involutions(order: int) -> tuple[tuple[int, ...], ...]:
    """Every fixed-point-free involution on 0..order-1."""

    def pair_up(free: tuple[int, ...]):
        if not free:
            yield ()
            return
        a = free[0]
        for i in range(1, len(free)):
            b = free[i]
            for rest in pair_up(free[1:i] + free[i + 1 :]):
                yield ((a, b),) + rest

    out = []
    for pairs in pair_up(tuple(range(order))):
        row = [0] * order
        for a, b in pairs:
            row[a], row[b] = b, a
        out.append(tuple(row))
    return tuple(out)


def _standard_matching(order: int) -> tuple[int, ...]:
    return tuple(v + 1 if v % 2 == 0 else v - 1 for v in range(order))


def _automorphism_generators(table, permuting: bool) -> list:
    """Vertex permutations generating the color-preserving automorphism group
    of a matching table, connected or not; with `permuting` and a connected
    table, the vertex maps of its automorphisms that may permute colors.

    Per component, every start whose rooted table is the component's least
    gives an automorphism of the component (its discovery order matched to
    the first such start's), and each component isomorphic to an earlier one
    gives the swap of the two; together these generate the whole group.
    With `permuting`, the starts of every admissible color order compete for
    one least table, so a tie matches the table onto a recoloring of itself.
    """
    order = len(table[0])
    gens = []
    last: dict = {}  # least rooted table -> discovery order of its latest component
    comps = _components(table, order)[1]
    for comp in comps:
        ties: list = []
        if permuting and len(comps) == 1:
            least = None
            for recolored in _recolorings(table):
                least = _min_rooted_table(recolored, least, ties)
        else:
            least = _min_rooted_table(_component_table(table, comp), ties=ties)
        first, *others = [[comp[i] for i in found] for found in ties]
        # an automorphism of a connected table is fixed by its image of
        # `first`; one whose image is reached already is generated
        local: list = []
        reached = [first]
        known = {tuple(first)}
        for other in others:
            if tuple(other) in known:
                continue
            perm = list(range(order))
            for v, w in zip(first, other):
                perm[v] = w
            local.append(perm)
            for image in reached:  # grows while iterating: the group applied to first
                for g in local:
                    moved = tuple([g[v] for v in image])
                    if moved not in known:
                        known.add(moved)
                        reached.append(moved)
        gens.extend(local)
        twin = last.get(least)
        if twin is not None:
            perm = list(range(order))
            for v, w in zip(first, twin):
                perm[v], perm[w] = w, v
            gens.append(perm)
        last[least] = first
    return gens


def _orbit_roots(table, involutions, index: dict, permuting: bool) -> list:
    """For each involution, the least index in its orbit under the
    automorphisms of `table` acting by conjugation, e -> s e s^-1, those
    that permute colors included when `permuting`; `index` maps each
    involution to its position.  Each orbit is walked once from its least
    member."""
    conjugators = []
    for perm in _automorphism_generators(table, permuting):
        inverse = [0] * len(perm)
        for v, w in enumerate(perm):
            inverse[w] = v
        conjugators.append((perm, inverse))
    root = [-1] * len(involutions)
    for i, e in enumerate(involutions):
        if root[i] >= 0:
            continue
        root[i] = i
        orbit = [e]
        for f in orbit:  # grows while iterating
            for perm, inverse in conjugators:
                image = tuple([perm[f[u]] for u in inverse])
                j = index[image]
                if root[j] < 0:
                    root[j] = i
                    orbit.append(image)
    return root


def _connected(matchings, order: int) -> bool:
    return len(_components(matchings, order)[1]) == 1


def _new_color_leads(cand, counts: list) -> bool:
    """Whether the last color of `cand` has the greatest signature among its
    colors, ties included; `counts` holds the pair counts of the others."""
    k = len(counts)
    new = [_pair_components(cand, c, k) for c in range(k)]
    signatures = _color_signatures([row + [x] for row, x in zip(counts, new)] + [new + [0]])
    return signatures[k] == max(signatures)


def enumerate_census(params: CensusParams) -> Catalogue:
    """Complete, duplicate-free list of graph classes matching the filters.

    Deterministic: the same parameters always produce the same entries in
    the same order.
    """
    params.validate()
    order = params.order
    permuting = params.equivalence is Equivalence.COLOR_PERMUTING
    involutions = _fpf_involutions(order)
    index = {e: i for i, e in enumerate(involutions)}

    frontier: list = [(_standard_matching(order),)]
    for level in range(1, params.n + 1):
        finishing = level == params.n
        seen: set = set()
        for partial in frontier:
            if finishing:  # the components that a completing color must join
                parts = [_components(partial, order)]
                if params.supercontracted:
                    if len(parts[0][1]) > 1:
                        continue  # every child loses connectivity when its new color is dropped
                    parts = [_components(partial[:c] + partial[c + 1 :], order)
                             for c in range(len(partial))]
            roots = _orbit_roots(partial, involutions, index, permuting)
            counts = _pair_counts(partial) if permuting else None
            for i, extra in enumerate(involutions):
                if roots[i] != i:  # an automorphism of partial maps it to a kept one
                    continue
                cand = partial + (extra,)
                if permuting and not _new_color_leads(cand, counts):
                    continue  # its class is also reached with a leading color as the new one
                if finishing:
                    if not all(_joins(walk, extra)[1] == 1 for walk in parts):
                        continue
                    if params.bipartite is not None and (
                        (_two_color(cand) is not None) != params.bipartite
                    ):
                        continue
                seen.add(canonical_matchings(cand, color_permuting=permuting))
        frontier = sorted(seen)

    if params.no_ordinary_dipoles:
        frontier = [table for table in frontier if certified_site(ColoredGraph(table)) is None]
    bip = sum(1 for table in frontier if _two_color(table) is not None)
    return Catalogue(
        params=params,
        entries=tuple(map(_code_line, frontier)),
        bipartite_count=bip,
        nonbipartite_count=len(frontier) - bip,
    )


def random_graph(n: int, order: int, rng: random.Random) -> ColoredGraph:
    """A uniformly drawn valid graph: color 0 standard, the rest rejection
    sampled until the union is connected."""
    if n < 1:  # one matching never connects four or more vertices
        raise ValueError("dimension must be >= 1")
    if order < 2 or order % 2:
        raise ValueError("order must be even and >= 2")
    base = _standard_matching(order)
    verts = list(range(order))
    while True:
        rows = [base]
        for _ in range(n):
            free = verts[:]
            rng.shuffle(free)
            row = [0] * order
            while free:
                a = free.pop()
                b = free.pop()
                row[a], row[b] = b, a
            rows.append(tuple(row))
        if _connected(rows, order):
            return ColoredGraph(tuple(rows))


# ============================================================
# Catalogue files
# ============================================================

_HEADER_PREFIX = "# gemkit-census v1"
_FILTER_TAGS = {"connected", "bipartite", "nonbipartite", "supercontracted", "no-ordinary-dipoles"}


def format_catalogue(cat: Catalogue) -> str:
    p = cat.params
    lines = [
        f"{_HEADER_PREFIX} n={p.n} order={p.order} "
        f"eq={p.equivalence.value} filters={p.filter_tags()}"
    ]
    lines.extend(cat.entries)
    lines.append(
        f"# count={cat.count} bipartite={cat.bipartite_count} "
        f"nonbipartite={cat.nonbipartite_count}"
    )
    return "\n".join(lines) + "\n"


def parse_catalogue(text: str) -> Catalogue:
    """Read a catalogue, checking its entries one at a time in file order:
    each is parsed, checked and counted for parity before the next is read,
    so one entry's graph is alive at a time and the first faulty entry
    decides the error.  Every entry must be distinct and have the header's
    dimension and order (n >= 1, even order), and the ``# count=`` footer
    must match the entries, so a truncated file is rejected rather than
    loaded short.  The header's parity and supercontracted filters are
    checked too, the latter only when tagged.  ``no-ordinary-dipoles``
    stays unchecked: it would need every entry's residues recognized."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(_HEADER_PREFIX):
        raise GemSyntaxError("missing catalogue header")
    fields = _fields(lines[0][len(_HEADER_PREFIX) :])
    try:
        tags = fields["filters"].split(",")
        unknown = sorted(set(tags) - _FILTER_TAGS)
        if unknown:
            raise ValueError(f"unknown filter tags {unknown}")
        if "bipartite" in tags and "nonbipartite" in tags:
            raise ValueError("filters both bipartite and nonbipartite")
        params = CensusParams(
            n=int(fields["n"]),
            order=int(fields["order"]),
            equivalence=Equivalence(fields["eq"]),
            bipartite=True if "bipartite" in tags else False if "nonbipartite" in tags else None,
            supercontracted="supercontracted" in tags,
            no_ordinary_dipoles="no-ordinary-dipoles" in tags,
        )
    except (KeyError, ValueError) as exc:
        raise GemSyntaxError(f"bad catalogue header: {exc}") from None
    if len(lines) < 2 or not lines[-1].startswith("# count="):
        raise GemSyntaxError("missing catalogue footer '# count=...'")
    footer = _fields(lines[-1][1:])
    try:
        stated = tuple(int(footer[k]) for k in ("count", "bipartite", "nonbipartite"))
    except (KeyError, ValueError) as exc:
        raise GemSyntaxError(f"bad catalogue footer: {exc}") from None
    # the footer is checked against the entries below, so it can vouch for the parity filter
    if params.bipartite is not None and stated[2 if params.bipartite else 1]:
        raise GemSyntaxError(
            f"catalogue header filters {params.filter_tags()} but its footer "
            f"'{lines[-1]}' counts entries the filter excludes"
        )
    entries = tuple(ln for ln in lines[1:-1] if not ln.startswith("#"))
    cat = Catalogue(params, entries, stated[1], stated[2])
    seen: set = set()
    bip = 0
    for line, g in zip(entries, cat.graphs()):
        if (g.n, g.order) != (params.n, params.order):
            raise GemSyntaxError(
                f"catalogue entry {line!r} has n={g.n} order={g.order}, "
                f"header says n={params.n} order={params.order}"
            )
        if line in seen:
            raise GemSyntaxError(f"catalogue entry {line!r} appears twice")
        if params.supercontracted and not is_supercontracted(g):
            raise GemSyntaxError(
                f"catalogue header filters {params.filter_tags()} but entry "
                f"{line!r} is not supercontracted"
            )
        seen.add(line)
        bip += g.is_bipartite() is not None
    if stated != (cat.count, bip, cat.count - bip):
        raise GemSyntaxError(
            f"catalogue footer '{lines[-1]}' disagrees with its {cat.count} "
            f"entries ({bip} bipartite)"
        )
    return cat


def _fields(text: str) -> dict:
    return dict(tok.split("=", 1) for tok in text.split() if "=" in tok)


# ============================================================
# Census report
# ============================================================


class CensusRow(NamedTuple):
    code: str
    bipartite: bool
    closed: Optional[bool]
    singular_manifold: Optional[bool]
    omega_reduced: Optional[int]
    name: Optional[str]


class CensusReport(NamedTuple):
    catalogue: Catalogue
    rows: tuple[CensusRow, ...]
    omega_histogram: dict
    closed_count: int
    singular_manifold_count: int
    identity_failures: tuple[str, ...]

    def format_text(self) -> str:
        cat = self.catalogue
        out = [
            f"census n={cat.params.n} order={cat.params.order} "
            f"count={cat.count} bipartite={cat.bipartite_count} "
            f"nonbipartite={cat.nonbipartite_count}"
        ]
        for row in self.rows:
            bits = [
                f"bipartite={_tri(row.bipartite)}",
                f"closed={_tri(row.closed)}",
                f"singular_manifold={_tri(row.singular_manifold)}",
            ]
            if row.omega_reduced is not None:
                bits.append(f"omega_G_reduced={row.omega_reduced}")
            if row.name:
                bits.append(f"name={row.name}")
            out.append(f"{row.code} " + " ".join(bits))
        if self.omega_histogram:
            hist = " ".join(
                f"{k}:{v}" for k, v in sorted(self.omega_histogram.items())
            )
            out.append(f"# omega_G_reduced histogram: {hist}")
        out.append(
            f"# closed={self.closed_count} singular_manifold={self.singular_manifold_count}"
        )
        if self.identity_failures:
            out.append("# IDENTITY FAILURES: " + "; ".join(self.identity_failures))
        else:
            out.append("# identities: all hold")
        return "\n".join(out) + "\n"


def _tri(x: Optional[bool]) -> str:
    return "unknown" if x is None else ("true" if x else "false")


def census_report(cat: Catalogue) -> CensusReport:
    """Per-entry invariants plus the global identity checks: the bigon-count
    inequality with its singular-manifold equality case, the G-degree
    identities, and degree parity for bipartite or singular-manifold
    entries."""
    rows = []
    hist: dict = {}
    failures = []
    closed_count = 0
    singular_count = 0
    for line, g in zip(cat.entries, cat.graphs()):
        bipartite = g.is_bipartite() is not None
        omega_reduced = None
        closed = is_closed_manifold(g)
        singular = is_singular_manifold(g)
        if g.n == 4:
            report = g_degree(g)
            omega_reduced = report.omega_reduced
            checks = report.checks
            if not (
                checks.multiple_of_three
                and checks.closed_form
                and checks.subdegree
                and all(checks.pair_relation.values())
            ):
                failures.append(f"{line}: G-degree identities")
            ranks = g.lattice.rank_counts()
            slack = 2 * ranks.get(3, 0) - 3 * ranks.get(2, 0) + 10 * g.p
            if slack < 0:
                failures.append(f"{line}: bigon-count inequality")
            if singular is not None and (slack == 0) != singular:
                failures.append(f"{line}: singular-manifold equality case")
            parity_applies = bipartite or singular is True
            if parity_applies and omega_reduced is not None and omega_reduced % 2:
                failures.append(f"{line}: reduced degree parity")
            hist[omega_reduced] = hist.get(omega_reduced, 0) + 1
        name = None
        if g.order <= 6 and g.n <= 4:
            try:
                name = classify_small(g)
            except UnresolvedResidueError:
                name = None
        if closed is True:
            closed_count += 1
        if singular is True:
            singular_count += 1
        rows.append(
            CensusRow(
                code=line,
                bipartite=bipartite,
                closed=closed,
                singular_manifold=singular,
                omega_reduced=omega_reduced,
                name=name,
            )
        )
    return CensusReport(
        catalogue=cat,
        rows=tuple(rows),
        omega_histogram=hist,
        closed_count=closed_count,
        singular_manifold_count=singular_count,
        identity_failures=tuple(failures),
    )
