"""Residues: color-restricted components, their counts, the containment
poset, and the dipole mechanics.

Color sets are bitmasks over 0..n; a Delta-residue is one connected component
of the subgraph that keeps only the colors in Delta.  The poset of all
residues under containment drives every topological computation downstream.
The lattice fills a color set from a walked set one color smaller when it
can, by joining that set's residues along the added color (`graph._joins`),
and a set joined into one residue, the common case from three colors up,
costs no walk and no sort; `singularity.classify_graph` reads the sets rank
by rank, so that every set it reads from three colors up is joined.
A dipole is a pair of vertices joined by 1..n colors and separated by the
residue on the other colors; finding and cancelling one needs no topology,
so it lives here, below `singularity`, whose sphere recognition reduces by
it, and `moves`, which re-exports it.  Cancelling is one 2-switch,
`graph._switch`, as are insertion and connected sum in `moves`.  A chain
of cancellations runs on one mutable table: `_site_buckets` holds the
joined pairs by color count, and `_cancel_in_place` switches a pair off and
patches only the pairs that switch changes.  No view or graph keeps such a
table.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ColorRangeError
from .graph import ColoredGraph, Matchings, _component_table, _components, _find, _joins, _switch

ResidueKey = tuple  # (mask, minimum vertex)


# ============================================================
# Color-set helpers (bitmasks)
# ============================================================


def mask_of(colors: Iterable[int]) -> int:
    mask = 0
    for c in colors:
        if c < 0:
            raise ColorRangeError(f"color {c} is negative")
        mask |= 1 << c
    return mask


def colors_of(mask: int) -> tuple[int, ...]:
    if mask < 0:  # its sign bits never shift out
        raise ColorRangeError(f"color mask {mask} is negative")
    out = []
    c = 0
    while mask:
        if mask & 1:
            out.append(c)
        mask >>= 1
        c += 1
    return tuple(out)


def full_mask(n: int) -> int:
    return (1 << (n + 1)) - 1


def complement(mask: int, n: int) -> int:
    return full_mask(n) & ~mask


def _as_mask(colors, n: int) -> int:
    mask = colors if isinstance(colors, int) else mask_of(colors)
    if mask & ~full_mask(n):  # a negative mask too, which colors_of refuses
        raise ColorRangeError(f"color set {colors_of(mask)} outside 0..{n}")
    return mask


# ============================================================
# Residue views
# ============================================================


@dataclass(frozen=True)
class ResidueView:
    """One connected component of the subgraph on a fixed color set."""

    matchings: Matchings  # the whole graph's rows
    mask: int
    vertices: tuple[int, ...]  # sorted

    @property
    def colors(self) -> tuple[int, ...]:
        return colors_of(self.mask)

    @property
    def h(self) -> int:
        """Number of colors in the residue."""
        return bin(self.mask).count("1")

    @property
    def key(self) -> ResidueKey:
        """Stable identity: (color mask, minimum vertex)."""
        return (self.mask, self.vertices[0])

    @property
    def size(self) -> int:
        return len(self.vertices)

    def as_graph(self) -> ColoredGraph:
        """Re-index vertices to 0..size-1 keeping the color order.

        Compact color i corresponds to ``self.colors[i]``; callers that care
        about original color identities map through ``self.colors``.
        """
        cols = self.colors
        if len(cols) < 2:
            raise ValueError("residues with fewer than two colors have no graph form")
        return ColoredGraph(_component_table([self.matchings[c] for c in cols], self.vertices))

    def __repr__(self) -> str:
        return f"ResidueView(colors={self.colors}, vertices={self.vertices})"


def residues(g: ColoredGraph, colors) -> list[ResidueView]:
    """All Delta-residues, ordered by minimum vertex, read off a fresh
    lattice; for the empty color set each vertex is its own residue."""
    return list(ResidueLattice(g)._read(_as_mask(colors, g.n)))


def residue_count(g: ColoredGraph, colors) -> int:
    """g_Delta: the number of Delta-residues."""
    return len(residues(g, colors))


def is_supercontracted(g: ColoredGraph) -> bool:
    """True iff dropping any single color leaves the graph connected."""
    return all(g.lattice.count(complement(1 << c, g.n)) == 1 for c in g.colors)


# ============================================================
# The full lattice
# ============================================================


class ResidueLattice:
    """All residues of a graph for every proper color subset, with containment.

    Lazy: a color set is filled on first read and kept, with `_at`, its
    one vertex-to-residue index, by `_walk`, the one residue walker (the
    free `residues()` reads a fresh lattice); counts on fewer than two
    colors are closed forms.  Holds the matchings, never the graph.  The
    cover relation links each residue to the unique residue one color
    richer that contains it, one parent per added color.
    """

    def __init__(self, g: ColoredGraph):
        self.n = g.n
        self.order = g.order
        self._matchings = g.matchings
        self._full = full_mask(g.n)
        self._walks: dict[int, tuple[list[int], tuple[ResidueView, ...]]] = {}

    def _mask(self, colors) -> int:
        mask = _as_mask(colors, self.n)
        if mask == self._full:
            raise ValueError(
                f"color set {colors_of(mask)}: the whole graph is not a residue of itself")
        return mask

    def _read(self, mask: int) -> tuple[ResidueView, ...]:
        walk = self._walks.get(mask)
        if walk is None:
            walk = self._walks[mask] = self._walk(mask)
        return walk[1]

    def _walk(self, mask: int) -> tuple[list[int], tuple[ResidueView, ...]]:
        """Each vertex's residue position and the residues on `mask`, by
        minimum vertex: joined along the added color's row from the first
        walked set one color smaller, in color order (`_joins`), or else
        walked.  A set joined into one residue is read in closed form."""
        rest = mask
        while rest:
            bit = rest & -rest
            sub = self._walks.get(mask ^ bit)
            if sub is not None:
                break
            rest ^= bit
        else:
            label, comps = _components([self._matchings[c] for c in colors_of(mask)], self.order)
            return label, tuple(ResidueView(self._matchings, mask, tuple(comp)) for comp in comps)
        parent, count = _joins(sub, self._matchings[bit.bit_length() - 1])
        if count == 1:
            return [0] * self.order, (ResidueView(self._matchings, mask, tuple(range(self.order))),)
        root = [_find(parent, i) for i in range(len(parent))]
        number: dict = {}  # numbered as met in vertex order: by minimum vertex
        label = [number.setdefault(root[x], len(number)) for x in sub[0]]
        members: list = [[] for _ in range(count)]
        for v, x in enumerate(label):
            members[x].append(v)
        return label, tuple(ResidueView(self._matchings, mask, tuple(vs)) for vs in members)

    def _at(self, mask: int) -> list[int]:
        """Entry v: the position in `_read(mask)` of the residue holding v."""
        self._read(mask)
        return self._walks[mask][0]

    def residues(self, colors) -> tuple[ResidueView, ...]:
        return self._read(self._mask(colors))

    def count(self, colors) -> int:
        mask = self._mask(colors)
        if mask & (mask - 1) == 0:  # every vertex is a 0-residue, every edge a 1-residue
            return self.order if mask == 0 else self.order // 2
        return len(self._read(mask))

    def residue_containing(self, colors, v: int) -> ResidueView:
        mask = self._mask(colors)
        if not 0 <= v < self.order:  # a negative v would index from the end
            raise IndexError(f"vertex {v} outside 0..{self.order - 1}")
        return self._read(mask)[self._at(mask)[v]]

    def all_residues(self, min_h: int = 0, max_h: Optional[int] = None) -> Iterator[ResidueView]:
        hi = self.n if max_h is None else max_h
        for mask in range(self._full):
            if min_h <= bin(mask).count("1") <= hi:
                yield from self._read(mask)

    def rank_counts(self) -> dict[int, int]:
        """Total number of h-residues for each h, summed on every call."""
        ranks = {0: self.order, 1: (self.n + 1) * self.order // 2}
        for mask in range(self._full):
            h = bin(mask).count("1")
            if h >= 2:
                ranks[h] = ranks.get(h, 0) + len(self._read(mask))
        return ranks

    # ---- order relation ----

    def parents(self, rv: ResidueView) -> list[ResidueView]:
        """Covers above: one residue per color added to rv's color set.
        Residues on n colors are maximal and have none."""
        out = []
        for c in range(self.n + 1):
            mask = rv.mask | 1 << c
            if mask == rv.mask or mask == self._full:
                continue
            out.append(self._read(mask)[self._at(mask)[rv.vertices[0]]])
        return out


def residue_lattice(g: ColoredGraph) -> ResidueLattice:
    """A new, unwalked lattice of g; `g.lattice` builds one once and keeps it."""
    return ResidueLattice(g)


# ============================================================
# Dipole mechanics: joined pairs and their complement residues
# ============================================================


def _joined(rows: Sequence, v: int, w: int) -> tuple[int, ...]:
    return tuple(c for c, row in enumerate(rows) if row[v] == w)


def _partners(rows: Sequence, v: int) -> dict[int, tuple[int, ...]]:
    """Each neighbour of v, mapped to the colors joining it to v, from one
    scan of v's entries in the rows."""
    joined: dict = {}
    for c, row in enumerate(rows):
        w = row[v]
        joined[w] = joined.get(w, ()) + (c,)
    return joined


def joined_pairs(g: ColoredGraph) -> list[tuple[int, int, tuple[int, ...]]]:
    """Every (v, w, colors) with v < w joined by 1..n colors, in vertex order:
    the candidate dipole sites, before the separation test."""
    rows, n = g.matchings, g.n
    return [
        (v, w, cols)
        for v in g.vertices
        for w, cols in sorted(_partners(rows, v).items())
        if w > v and len(cols) <= n
    ]


def _site_buckets(g: ColoredGraph) -> list[list]:
    """`joined_pairs` split by color count: entry h lists the pairs joined by
    h colors, sorted by (v, w); entry 0 stays empty."""
    buckets: list = [[] for _ in g.colors]
    for site in joined_pairs(g):
        buckets[len(site[2])].append(site)
    return buckets


def _cancel_in_place(rows: list, buckets: list, v: int, w: int) -> None:
    """Cancel the dipole at (v, w) in mutable rows kept in stable vertex
    ids, patching `_site_buckets`-style buckets to match.  Callers must
    have checked the site.

    The 2-switch on every color c not joining v to w trades the edges
    v-a and w-b for v-w and a-b, where a and b are v's and w's old
    c-neighbours.  So only two kinds of pair change: every pair with an
    end at v or w, which leaves the buckets with the cut-off pair, and
    each end pair {a, b}, which gains c.  An end pair is re-filed under
    its new color count, or dropped when it is now joined by every color,
    as the last pair of an order-4 graph is."""
    n = len(rows) - 1
    cut = {
        (min(u, x), max(u, x), cols)
        for u in (v, w)
        for x, cols in _partners(rows, u).items()
        if len(cols) <= n
    }
    for site in cut:
        _unfile(buckets, site)
    ends = {tuple(sorted((row[v], row[w]))) for row in rows if row[v] != w}
    for a, b in ends:
        cols = _joined(rows, a, b)
        if cols:
            _unfile(buckets, (a, b, cols))
    _switch(rows, v, w, range(n + 1))
    for a, b in ends:
        cols = _joined(rows, a, b)
        if len(cols) <= n:
            insort(buckets[len(cols)], (a, b, cols))


def _unfile(buckets: list, site: tuple) -> None:
    bucket = buckets[len(site[2])]
    del bucket[bisect_left(bucket, site)]


def dipole_side(rows: Sequence, v: int, w: int, cols: tuple[int, ...]) -> Optional[set[int]]:
    """The vertices of the residue through v on the colors outside `cols`,
    or None as soon as the walk meets w: (v, w) is then no dipole.  Reads
    the matching `rows` of a graph or of a reduction's mutable table.  A
    walk of its own, not `_components`', for that early exit."""
    rows = [row for c, row in enumerate(rows) if c not in cols]
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for row in rows:
            x = row[u]
            if x == w:
                return None
            if x not in seen:
                seen.add(x)
                stack.append(x)
    return seen


def cancel_site(g: ColoredGraph, v: int, w: int) -> ColoredGraph:
    """Remove the dipole at (v, w): a 2-switch on every color cuts {v, w}
    off, and it is dropped.  Callers must have checked the site."""
    rows = [list(row) for row in g.matchings]
    _switch(rows, v, w, g.colors)
    keep = [u for u in g.vertices if u not in (v, w)]
    return ColoredGraph(_component_table(rows, keep))
