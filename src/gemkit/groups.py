"""Group presentations read off a colored graph, and their abelianizations.

The c-group of a graph has one generator per c-edge (oriented from its
smaller endpoint) and one relator per bicolored {i,c}-cycle, read off by
walking the cycle from its minimum vertex starting along the c-edge.  Adding
relators that kill a spanning set of c-edges over the residues missing color
c turns it into a fundamental-group presentation under the right hypotheses;
the hypothesis checks live in `invariants`, the raw constructions here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .graph import ColoredGraph, _cycle, _union
from .residues import complement

Word = tuple  # tuple[tuple[int, int], ...]: (generator index, +1 | -1)


@dataclass(frozen=True)
class GroupPresentation:
    """Finite presentation with integer-indexed generators."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def abelianized_rows(self) -> list[list[int]]:
        """Exponent-sum matrix, one row per relator."""
        rows = []
        for word in self.relators:
            row = [0] * len(self.generators)
            for gen, exp in word:
                row[gen] += exp
            rows.append(row)
        return rows

    def format_lines(self) -> str:
        out = [f"gen {g}" for g in self.generators]
        for word in self.relators:
            out.append("rel " + format_word(word, self.generators))
        return "\n".join(out) + "\n"


def format_word(word: Word, generators: Sequence[str]) -> str:
    if not word:
        return "1"
    parts = []
    for gen, exp in word:
        parts.append(generators[gen] if exp == 1 else f"{generators[gen]}^{exp}")
    return " ".join(parts)


@dataclass(frozen=True)
class AbelianInvariants:
    """H1 in canonical form: free rank plus invariant factors d1 | d2 | ..."""

    free_rank: int
    torsion: tuple[int, ...]

    @property
    def trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        terms = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return "+".join(terms) if terms else "0"


# ============================================================
# Presentations from a graph
# ============================================================


def c_edges(g: ColoredGraph, c: int) -> list[tuple[int, int]]:
    """The color-c edges as (v, w) with v < w, sorted."""
    g.check_color(c)
    return [(v, g.matchings[c][v]) for v in g.vertices if v < g.matchings[c][v]]


def c_group_presentation(g: ColoredGraph, c: int) -> GroupPresentation:
    """Generators: c-edges oriented small-to-large.  Relators: {i,c}-cycles.

    Each cycle is walked from its minimum vertex, first step along the
    c-edge; a generator enters with exponent +1 when the walk crosses its
    edge from the smaller endpoint.  The group is independent of these
    conventions; fixing them makes the text deterministic.
    """
    g.check_color(c)
    edges = c_edges(g, c)
    gen_index = {e: k for k, e in enumerate(edges)}
    relators = []
    for i in g.colors:
        if i == c:
            continue
        for rv in g.lattice._read(1 << i | 1 << c):  # the whole graph when n = 1
            relators.append(tuple(
                (gen_index[min(v, w), max(v, w)], 1 if v < w else -1)
                for color, v, w in _cycle(g.matchings, c, i, rv.vertices[0])
                if color == c
            ))
    labels = tuple(f"g{k}" for k in range(len(edges)))
    return GroupPresentation(labels, tuple(relators))


def connecting_relators(g: ColoredGraph, c: int) -> tuple[int, ...]:
    """Indices of a minimal set of c-edges whose killing connects the
    residues missing color c.

    Greedy by increasing edge index over the quotient multigraph whose nodes
    are those residues, so the set is deterministic; it has g_chat - 1
    elements.
    """
    g.check_color(c)
    mask = complement(1 << c, g.n)
    at = g.lattice._at(mask)
    parent = list(range(g.lattice.count(mask)))
    return tuple(k for k, (v, w) in enumerate(c_edges(g, c)) if _union(parent, at[v], at[w]))


def quotient_presentation(g: ColoredGraph, c: int) -> GroupPresentation:
    """The c-group with a spanning set of c-edges added as relators."""
    pres = c_group_presentation(g, c)
    extra = tuple(((k, 1),) for k in connecting_relators(g, c))
    return GroupPresentation(pres.generators, pres.relators + extra)


# ============================================================
# Integer Smith form and H1
# ============================================================


def smith_invariant_factors(rows: Iterable[Iterable[int]], width: int) -> list[int]:
    """Nonzero diagonal of the Smith normal form, as a divisibility chain.

    Sparse elimination on {column: entry} rows.  The pivot is a unit in the
    shortest row holding one, else an entry of least absolute value; row
    operations clear its column, after which column operations clear its
    row alone.  A lone pivot is a diagonal entry; a remainder is the next,
    smaller pivot.  Pairwise gcd/lcm exchanges, realizable by elementary
    operations, then sort the diagonal into divisibility.
    """
    mat = []
    for r in map(list, rows):
        if len(r) != width:
            raise ValueError("ragged relator matrix")
        if any(r):
            mat.append({j: x for j, x in enumerate(r) if x})
    diag: list[int] = []
    while mat:
        units = [r for r in mat if 1 in r.values() or -1 in r.values()]
        prow = min(units, key=len) if units else min(mat, key=lambda r: min(map(abs, r.values())))
        j = min(prow, key=lambda k: abs(prow[k]))
        p = prow[j]
        clean = True
        for r in mat:
            if r is not prow and j in r:
                q = r[j] // p
                for k, x in prow.items():
                    r[k] = r.get(k, 0) - q * x
                    if not r[k]:
                        del r[k]
                clean = clean and j not in r
        if clean:  # column operations reduce the rest of the pivot row mod p
            rest = {k: x % p for k, x in prow.items() if x % p}
            prow.clear()
            if rest:
                prow.update({**rest, j: p})
            else:
                diag.append(abs(p))
        mat = [r for r in mat if r]

    # bubble gcd/lcm until the chain divides in order
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a:
                g = gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return diag


def h1_from_rows(rows: Iterable[Iterable[int]], width: int, cycle_rank: int) -> AbelianInvariants:
    """The rank-`cycle_rank` summand of cycles in Z^width modulo the span of
    `rows` inside it: its free rank, and the invariant factors above one."""
    factors = smith_invariant_factors(rows, width)
    return AbelianInvariants(cycle_rank - len(factors), tuple(d for d in factors if d > 1))


def homology_h1(pres: GroupPresentation) -> AbelianInvariants:
    """Abelianization of the presented group, in invariant-factor form."""
    width = len(pres.generators)
    return h1_from_rows(pres.abelianized_rows(), width, width)
