"""Residues: color-restricted components, their counts, and the containment poset.

Color sets are bitmasks over 0..n; a Delta-residue is one connected component
of the subgraph that keeps only the colors in Delta.  The poset of all
residues under containment drives every topological computation downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import ColorRangeError
from .graph import ColoredGraph, Matchings, _components

ResidueKey = tuple  # (mask, minimum vertex)


# ============================================================
# Color-set helpers (bitmasks)
# ============================================================


def mask_of(colors: Iterable[int]) -> int:
    mask = 0
    for c in colors:
        mask |= 1 << c
    return mask


def colors_of(mask: int) -> tuple[int, ...]:
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
    if mask & ~full_mask(n):
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
        return len(self.colors)

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
        index = {v: i for i, v in enumerate(self.vertices)}
        rows = tuple(
            tuple(index[self.matchings[c][v]] for v in self.vertices) for c in cols
        )
        return ColoredGraph(rows)

    def __repr__(self) -> str:
        return f"ResidueView(colors={self.colors}, vertices={self.vertices})"


def residues(g: ColoredGraph, colors) -> list[ResidueView]:
    """All Delta-residues, ordered by minimum vertex.

    For the empty color set each vertex is its own residue.
    """
    mask = _as_mask(colors, g.n)
    rows = [g.matchings[c] for c in colors_of(mask)]
    return [ResidueView(g.matchings, mask, tuple(comp)) for comp in _components(rows, g.order)]


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

    Materialized eagerly: fewer than 2^(n+1) subsets, tiny for n <= 5.  The
    cover relation links each residue to the unique residue one color richer
    that contains it, one parent per added color.
    """

    def __init__(self, g: ColoredGraph):
        self.n = g.n
        self._by_mask: dict[int, tuple[ResidueView, ...]] = {}
        self._comp_of: dict[int, tuple[int, ...]] = {}  # mask -> vertex -> index
        # proper color subsets only: the whole graph is not a residue of itself
        for mask in range(full_mask(g.n)):
            views = tuple(residues(g, mask))
            self._by_mask[mask] = views
            comp = [0] * g.order
            for i, rv in enumerate(views):
                for v in rv.vertices:
                    comp[v] = i
            self._comp_of[mask] = tuple(comp)

    def residues(self, colors) -> tuple[ResidueView, ...]:
        return self._by_mask[_as_mask(colors, self.n)]

    def count(self, colors) -> int:
        return len(self.residues(colors))

    def residue_containing(self, colors, v: int) -> ResidueView:
        mask = _as_mask(colors, self.n)
        return self._by_mask[mask][self._comp_of[mask][v]]

    def all_residues(self, min_h: int = 0, max_h: Optional[int] = None) -> Iterator[ResidueView]:
        hi = self.n if max_h is None else max_h
        for mask, views in self._by_mask.items():
            h = bin(mask).count("1")
            if min_h <= h <= hi:
                yield from views

    def by_rank(self, h: int) -> list[ResidueView]:
        out = []
        for mask, views in self._by_mask.items():
            if bin(mask).count("1") == h:
                out.extend(views)
        out.sort(key=lambda rv: rv.key)
        return out

    def counts_table(self) -> dict[tuple[int, ...], int]:
        """g_Delta for every color subset, keyed by the sorted color tuple."""
        return {colors_of(mask): len(views) for mask, views in self._by_mask.items()}

    def rank_counts(self) -> dict[int, int]:
        """Total number of h-residues for each h."""
        out: dict[int, int] = {}
        for mask, views in self._by_mask.items():
            h = bin(mask).count("1")
            out[h] = out.get(h, 0) + len(views)
        return out

    # ---- order relation ----

    def contains(self, big: ResidueView, small: ResidueView) -> bool:
        """small < big in the residue poset (strict containment)."""
        if small.mask == big.mask or (small.mask & ~big.mask):
            return False
        return self.residue_containing(big.mask, small.vertices[0]).key == big.key

    def parents(self, rv: ResidueView) -> list[ResidueView]:
        """Covers above: one residue per color added to rv's color set.
        Residues on n colors are maximal and have none."""
        out = []
        for c in range(self.n + 1):
            bit = 1 << c
            if rv.mask & bit or (rv.mask | bit) == full_mask(self.n):
                continue
            out.append(self.residue_containing(rv.mask | bit, rv.vertices[0]))
        return out

    def children(self, rv: ResidueView) -> list[ResidueView]:
        """Covers below: the residues one color poorer contained in rv."""
        out = []
        for c in rv.colors:
            sub = rv.mask & ~(1 << c)
            seen = set()
            for v in rv.vertices:
                child = self.residue_containing(sub, v)
                if child.key not in seen:
                    seen.add(child.key)
                    out.append(child)
        return out


def residue_lattice(g: ColoredGraph) -> ResidueLattice:
    """A new lattice of g; `g.lattice` builds one once and keeps it."""
    return ResidueLattice(g)
