"""Graph moves: dipole detection and cancellation/addition, suspension,
connected sums, vertex indices, internalization, and simplification.

The mechanical dipole layer needs no topology and lives in `residues`, below
`singularity`, which reduces by it; it is re-exported here.  `joined_pairs`
lists the pairs v < w sharing 1..n colors, and `dipole_side` walks the
complement residue through v until it meets w, so one walk both separates a
pair and yields the residue whose sphere test certifies it.  `dipole_sites`
keeps the separated pairs, and `find_dipoles` labels them from the graph's
residue classification.  `simplify` runs `singularity.cancel_certified`, the
greedy loop sphere recognition also reduces by, which tries one pair at a
time in `certified_site`'s order.  Cancellation, insertion and connected sum
are each one 2-switch, `graph._switch`, the last on two `_stack`ed graphs.
A chain of moves, `simplify`'s cancellations or `inflate`'s insertions,
switches one mutable table in place and builds one graph at its end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Optional

from .errors import (
    DimensionMismatchError,
    InvalidVertexError,
    NotADipoleError,
    UnresolvedResidueError,
    WouldAnnihilateError,
)
from .graph import ColoredGraph, _component_table, _stack, _switch
from .residues import _joined, colors_of, complement, mask_of
from .residues import cancel_site, dipole_side, joined_pairs  # re-exported
from .singularity import ResidueClass, cancel_certified, is_singular_manifold


class DipoleKind(Enum):
    ORDINARY = "ordinary"
    SINGULAR = "singular"


class Properness(Enum):
    PROPER = "proper"
    NOT_PROPER = "not-proper"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Dipole:
    """Two vertices joined by exactly the listed colors, with the endpoints
    lying in different residues on the complementary colors."""

    vertices: tuple[int, int]
    colors: tuple[int, ...]
    kind: Optional[DipoleKind] = None
    properness: Properness = Properness.UNKNOWN

    @property
    def h(self) -> int:
        return len(self.colors)


# ============================================================
# Mechanics
# ============================================================


def dipole_sites(g: ColoredGraph) -> list[tuple[int, int, tuple[int, ...]]]:
    """All (v, w, colors) dipole sites, v < w, in vertex order."""
    return [site for site in joined_pairs(g) if dipole_side(g.matchings, *site) is not None]


def cancel_dipole(g: ColoredGraph, d: Dipole) -> ColoredGraph:
    """Validated cancellation; the site is re-derived, never trusted."""
    if g.order <= 2:
        raise WouldAnnihilateError("cancelling the only vertex pair")
    v, w = d.vertices
    if not (0 <= v < g.order and 0 <= w < g.order) or v == w:
        raise NotADipoleError(f"bad vertex pair {d.vertices}")
    cols = _joined(g.matchings, v, w)
    if cols != tuple(sorted(d.colors)):
        raise NotADipoleError(f"pair {d.vertices} joined by {cols}, not {d.colors}")
    if dipole_side(g.matchings, v, w, cols) is None:
        raise NotADipoleError(f"pair {d.vertices} shares its complement residue")
    return cancel_site(g, v, w)


def add_dipole(g: ColoredGraph, vertex: int, colors: Iterable[int]) -> ColoredGraph:
    """Insert a dipole with the given colors next to `vertex`.

    The two new vertices take ids order and order+1.  Vertex ``order`` hooks
    to `vertex` by every complementary color (so for an n-color dipole this
    splits the single remaining edge at `vertex`; to split a specific edge
    (v, w), pass the endpoint that should sit next to the new pair).  The
    inserted pair always forms a dipole, and one of its two complementary
    residues is an order-two sphere, so the new dipole is proper.
    """
    if not 0 <= vertex < g.order:
        raise InvalidVertexError(f"vertex {vertex} outside 0..{g.order - 1}")
    mask = mask_of(colors)
    cols = colors_of(mask)
    for c in cols:
        g.check_color(c)
    if not 1 <= len(cols) <= g.n:
        raise ValueError(f"a dipole uses between 1 and {g.n} colors, got {len(cols)}")
    rows = [list(row) for row in g.matchings]
    _insert_pair(rows, vertex, colors_of(complement(mask, g.n)))
    return ColoredGraph(rows)


def _insert_pair(rows: list, vertex: int, others) -> None:
    """Append a pair joined by every color to the mutable rows, then
    2-switch its first vertex with `vertex` on the colors `others`."""
    near = len(rows[0])
    for row in rows:
        row += (near + 1, near)
    _switch(rows, near, vertex, others)


def suspend(g: ColoredGraph, c: int) -> ColoredGraph:
    """Add a new color whose matching duplicates color c.

    Same order, one more color; the residues missing either the new color or
    c are copies of g.
    """
    g.check_color(c)
    return ColoredGraph(g.matchings + (g.matchings[c],))


def connected_sum(g1: ColoredGraph, v1: int, g2: ColoredGraph, v2: int) -> ColoredGraph:
    """Delete v1 from g1 and v2 from g2 and weld the hanging edges by color."""
    if g1.n != g2.n:
        raise DimensionMismatchError(f"dimensions {g1.n} != {g2.n}")
    if not 0 <= v1 < g1.order:
        raise InvalidVertexError(f"vertex {v1} outside g1")
    if not 0 <= v2 < g2.order:
        raise InvalidVertexError(f"vertex {v2} outside g2")
    w = g1.order + v2  # v2 in the stacked table
    rows = [list(row) for row in _stack((g1.matchings, g2.matchings))]
    _switch(rows, v1, w, g1.colors)
    keep = [u for u in range(g1.order + g2.order) if u not in (v1, w)]
    return ColoredGraph(_component_table(rows, keep))


# ============================================================
# Classification-aware layer
# ============================================================


def find_dipoles(g: ColoredGraph) -> list[Dipole]:
    """Every dipole of g with kind and properness labels.

    Kind needs the two complementary residues classified: both singular
    means singular, any ordinary one means ordinary, otherwise the kind is
    left None and properness unknown.  The sites are listed first, and g
    is classified only if there is one.
    """
    sites = dipole_sites(g)
    if not sites:
        return []
    cls = g.classification
    singular_manifold = is_singular_manifold(g)
    out = []
    for v, w, cols in sites:
        comp = complement(mask_of(cols), g.n)
        side_v = cls.of_containing(comp, v)
        side_w = cls.of_containing(comp, w)
        kind, proper = None, Properness.UNKNOWN
        if ResidueClass.ORDINARY in (side_v, side_w):
            kind, proper = DipoleKind.ORDINARY, Properness.PROPER
        elif side_v is side_w is ResidueClass.SINGULAR:
            kind = DipoleKind.SINGULAR
            if singular_manifold is True or _strictly_pinched(g, cls, v, w, comp):
                proper = Properness.NOT_PROPER
        out.append(Dipole((v, w), cols, kind, proper))
    return out


def _strictly_pinched(g: ColoredGraph, cls, v: int, w: int, comp_mask: int) -> bool:
    """True when every proper sub-residue of the complement through v or w is
    ordinary on at least one side, which certifies a singular dipole is not
    proper (its cancellation shifts the singular set's Euler characteristic)."""
    comp_cols = colors_of(comp_mask)
    for r in range(3, len(comp_cols)):
        for sub in combinations(comp_cols, r):
            cv = cls.of_containing(mask_of(sub), v)
            cw = cls.of_containing(mask_of(sub), w)
            if ResidueClass.ORDINARY not in (cv, cw):
                return False
    return True


@dataclass(frozen=True)
class VertexIndex:
    vertex: int
    index: int

    @property
    def internal(self) -> bool:
        return self.index == 0


def vertex_index(g: ColoredGraph, v: int) -> VertexIndex:
    """Number of singular residues missing one color that contain v."""
    if not 0 <= v < g.order:
        raise InvalidVertexError(f"vertex {v} outside 0..{g.order - 1}")
    cls = g.classification
    count = 0
    for c in g.colors:
        side = cls.of_containing(complement(1 << c, g.n), v)
        if side is ResidueClass.UNKNOWN:
            raise UnresolvedResidueError(
                f"residue missing color {c} through vertex {v} is unclassified"
            )
        if side is ResidueClass.SINGULAR:
            count += 1
    return VertexIndex(v, count)


def internalize(g: ColoredGraph) -> ColoredGraph:
    """Grow the graph by proper top-color dipoles until a vertex of index
    zero exists; the represented space is unchanged.

    Picks a vertex of minimal positive index and splits its c-edge for a
    color c whose complement residue through it is singular; each step drops
    the minimal index by one, so at most (initial minimal index) dipoles are
    added.
    """
    cur = g
    while True:
        cls = cur.classification
        indices = [vertex_index(cur, v) for v in cur.vertices]
        best = min(indices, key=lambda vi: (vi.index, vi.vertex))
        if best.index == 0:
            return cur
        v = best.vertex
        chosen = next(
            c for c in cur.colors
            if cls.of_containing(complement(1 << c, cur.n), v) is ResidueClass.SINGULAR
        )
        cur = add_dipole(cur, v, [d for d in cur.colors if d != chosen])


@dataclass(frozen=True)
class SimplifyResult:
    graph: ColoredGraph
    complete: bool
    cancelled: tuple[Dipole, ...]


def simplify(g: ColoredGraph) -> SimplifyResult:
    """Cancel proper dipoles until none are certified ordinary.

    The moves are those of `singularity.cancel_certified`, the loop sphere
    recognition reduces by: largest dipoles first, ties broken by smallest
    vertex pair.  Only the final graph can be classified in full, and only
    when a dipole site is left on it: if unclassifiable dipoles remain the
    result is flagged incomplete, since an ordinary dipole may be hiding
    among them.  A final graph with no site is complete and left
    unclassified.
    """
    cur, sites = cancel_certified(g)
    cancelled = tuple(
        Dipole((v, w), cols, DipoleKind.ORDINARY, Properness.PROPER) for v, w, cols in sites
    )
    complete = all(d.kind is not None for d in find_dipoles(cur))
    return SimplifyResult(cur, complete=complete, cancelled=cancelled)


def inflate(g: ColoredGraph, k: int, rng: random.Random) -> ColoredGraph:
    """Add k random proper dipoles; inverse moves of `simplify` for tests.

    The same draws and insertions as k `add_dipole` calls, made on one
    mutable table; one graph is built from it, or g itself when k is 0."""
    if k == 0:
        return g
    n = g.n
    rows = [list(row) for row in g.matchings]
    for _ in range(k):
        vertex = rng.randrange(len(rows[0]))
        h = rng.randint(1, n)
        cols = rng.sample(range(n + 1), h)
        _insert_pair(rows, vertex, colors_of(complement(mask_of(cols), n)))
    return ColoredGraph(rows)
