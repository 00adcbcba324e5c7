"""Core data model: edge-colored graphs, text formats, canonical codes, DOT export.

A graph on an even vertex set 0..order-1 carries n+1 colors; each color c
induces a perfect matching stored as an involution image row, so
``matchings[c][v]`` is the unique c-neighbor of v.  Everything downstream
(residues, moves, invariants) walks these rows, which makes every elementary
step O(1).
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    ColorRangeError,
    DisconnectedError,
    FixedPointError,
    GemSyntaxError,
    InvolutionError,
    OddOrderError,
)

if TYPE_CHECKING:
    from .residues import ResidueLattice
    from .singularity import Classification

Matchings = tuple  # tuple[tuple[int, ...], ...]


# ============================================================
# The graph itself
# ============================================================


class ColoredGraph:
    """Connected (n+1)-regular multigraph with a proper (n+1)-edge-coloring.

    Immutable; all operations elsewhere in the package return new graphs.
    The residue lattice and its classification are made on first use and
    kept on the graph (equality and hashing still read only `matchings`);
    the lattice walks each color set when that set is first read.
    """

    matchings: Matchings

    def __init__(self, matchings: Iterable[Iterable[int]]):
        rows = tuple(tuple(row) for row in matchings)
        object.__setattr__(self, "matchings", rows)
        self._validate()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other) -> bool:
        return self.matchings == other.matchings if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.matchings,))

    def _validate(self) -> None:
        rows = self.matchings
        if len(rows) < 2:
            raise ValueError("a colored graph needs at least two colors (n >= 1)")
        order = len(rows[0])
        if order == 0:
            raise ValueError("empty vertex set")
        if order % 2 != 0:
            raise OddOrderError(f"order {order} is odd")
        for c, row in enumerate(rows):
            if len(row) != order:
                raise InvolutionError(f"color {c}: row length {len(row)} != order {order}")
            for v, w in enumerate(row):
                if not isinstance(w, int) or not (0 <= w < order):
                    raise InvolutionError(f"color {c}: image {w} of vertex {v} out of range")
                if w == v:
                    raise FixedPointError(f"color {c}: vertex {v} maps to itself")
            for v in range(order):
                if row[row[v]] != v:
                    raise InvolutionError(f"color {c}: not an involution at vertex {v}")
        comps = _components(rows, order)[1]
        if len(comps) > 1:
            raise DisconnectedError(f"vertex {comps[1][0]} unreachable from vertex 0")

    # ---- basic accessors ----

    @property
    def n(self) -> int:
        """Represented dimension: number of colors minus one."""
        return len(self.matchings) - 1

    @property
    def order(self) -> int:
        return len(self.matchings[0])

    @property
    def p(self) -> int:
        """Half the order (edges per color)."""
        return self.order // 2

    @property
    def colors(self) -> range:
        return range(len(self.matchings))

    @property
    def vertices(self) -> range:
        return range(self.order)

    def check_color(self, c: int) -> None:
        if not (0 <= c <= self.n):
            raise ColorRangeError(f"color {c} outside 0..{self.n}")

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield (v, w, c) with v < w, one triple per edge."""
        for c, row in enumerate(self.matchings):
            for v, w in enumerate(row):
                if v < w:
                    yield (v, w, c)

    # ---- residue analysis, computed once ----

    @cached_property
    def lattice(self) -> ResidueLattice:
        """Every residue on a proper color subset, with containment, each
        color set walked when first read."""
        from .residues import residue_lattice

        return residue_lattice(self)

    @cached_property
    def classification(self) -> Classification:
        """Ordinary/singular/unknown class of every residue on >= 3 colors."""
        from .singularity import classify_graph

        return classify_graph(self)

    # ---- relabelings ----

    def relabel(self, perm: Sequence[int]) -> "ColoredGraph":
        """Apply the vertex permutation v -> perm[v]."""
        order = self.order
        if sorted(perm) != list(range(order)):
            raise ValueError("relabel needs a permutation of the vertex set")
        inv = [0] * order
        for v, w in enumerate(perm):
            inv[w] = v
        rows = tuple(
            tuple(perm[row[inv[v]]] for v in range(order)) for row in self.matchings
        )
        return ColoredGraph(rows)

    def permute_colors(self, perm: Sequence[int]) -> "ColoredGraph":
        """Return the graph whose new color c is the old color perm[c]."""
        if sorted(perm) != list(self.colors):
            raise ValueError("permute_colors needs a permutation of the color set")
        return ColoredGraph(tuple(self.matchings[c] for c in perm))

    # ---- bipartition ----

    def is_bipartite(self) -> Optional["Bipartition"]:
        """The 2-coloring of the vertex set if one exists, else None.

        Unique up to swapping the classes; the class containing vertex 0
        comes first.
        """
        side = _two_color(self.matchings)
        if side is None:
            return None
        cls0 = frozenset(v for v in self.vertices if side[v] == 0)
        cls1 = frozenset(v for v in self.vertices if side[v] == 1)
        return Bipartition((cls0, cls1))

    def __repr__(self) -> str:  # keep tracebacks readable
        return f"ColoredGraph(n={self.n}, order={self.order})"


class Bipartition(NamedTuple):
    """The two vertex classes of a bipartite graph."""

    classes: tuple[frozenset, frozenset]


class Equivalence(Enum):
    COLOR_PRESERVING = "color-preserving"
    COLOR_PERMUTING = "color-permuting"


class CanonicalCode(NamedTuple):
    """Total-order key over graphs: equal iff isomorphic under `equivalence`;
    `<` and `>` read only the code bytes."""

    equivalence: Equivalence
    code: bytes

    def __lt__(self, other: "CanonicalCode") -> bool:
        return self.code < other.code

    def __gt__(self, other: "CanonicalCode") -> bool:
        return self.code > other.code


# ============================================================
# Traversal-based canonical labeling
# ============================================================
#
# Every vertex has exactly one neighbor per color, so a breadth-first
# traversal that scans colors in increasing order is fully determined by its
# start vertex.  Relabeling by discovery order and taking the minimum
# serialized matching table over all start vertices therefore yields a true
# canonical form for connected graphs; isomorphic graphs produce identical
# sets of rooted tables.  Color permutations are handled by minimizing over
# the admissible color orders, which stays tiny for n <= 5.
#
# Tables compare color-major, row 0 first.  Row-0 entry i of a rooted table
# is the label of the color-0 neighbor of the i-th discovered vertex, known
# as soon as that vertex has taken its color-0 step.  So a start vertex is
# dropped the moment its row-0 prefix exceeds the incumbent's row 0, before
# that vertex's other colors are scanned or any table is built.  A start
# whose row 0 ties the incumbent's builds rows 1..n one at a time and is
# dropped at the first larger row.  On a connected table the incumbent is
# shared across the color orders: each order competes against the best
# table of the orders tried before it.


def _components(rows: Sequence, order: int) -> tuple:
    """The component number of each vertex of 0..order-1 under the given
    matching rows, and the components, each sorted, numbered by least
    vertex; no rows leaves every vertex alone."""
    label = [-1] * order
    comps = []
    for v in range(order):
        if label[v] < 0:
            k = len(comps)
            label[v] = k
            comp = [v]
            for u in comp:  # grows while iterating
                for row in rows:
                    w = row[u]
                    if label[w] < 0:
                        label[w] = k
                        comp.append(w)
            comp.sort()
            comps.append(comp)
    return label, comps


def _two_color(rows: Sequence, roots: Optional[Sequence] = None) -> Optional[list]:
    """Sides 0/1 of a 2-coloring along the given rows, None if there is
    none; only the components of `roots` (default: every vertex) are
    colored, the other entries stay None.  A walk of its own, not
    `_components`', as it stops at the first conflict."""
    side: list = [None] * len(rows[0])
    for root in range(len(rows[0])) if roots is None else roots:
        if side[root] is not None:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for row in rows:
                w = row[v]
                if side[w] is None:
                    side[w] = 1 - side[v]
                    stack.append(w)
                elif side[w] == side[v]:
                    return None
    return side


def _cycle(rows: Sequence, a: int, b: int, start: int) -> Iterator[tuple[int, int, int]]:
    """The {a, b}-colored cycle through `start`, once round: one step
    (color, v, w) per edge crossed from v to w, colors alternating, the
    first along color a."""
    v, c, d = start, a, b
    while True:
        w = rows[c][v]
        yield c, v, w
        v, c, d = w, d, c
        if v == start:
            return


def _find(parent: list, x: int) -> int:
    """Root of x in the union-find forest `parent`, halving its path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: list, x: int, y: int) -> bool:
    """Join the classes of x and y under the smaller root; False if they
    were one class already."""
    a, b = _find(parent, x), _find(parent, y)
    if a == b:
        return False
    parent[max(a, b)] = min(a, b)
    return True


def _joins(walk: tuple, extra) -> tuple[list, int]:
    """The components of `walk`, a `_components`-style (labels, components)
    pair, joined along the matching `extra`: a union-find forest over their
    numbers and the number of classes left, stopping at the first full join.
    The census's connectivity tests and the lattice's color sets read it."""
    label, count = walk[0], len(walk[1])
    parent = list(range(count))
    for v, w in enumerate(extra):
        if count == 1:
            break
        count -= _union(parent, label[v], label[w])
    return parent, count


def _min_rooted_table(
    matchings: Matchings, best: Optional[Matchings] = None, ties: Optional[list] = None
) -> Matchings:
    """Least table relabeled by color-ordered BFS discovery, over every start
    vertex of the connected input, or `best` when no start beats it.

    A list given as `ties` ends up holding the discovery order of every start
    whose table is the returned one.  Two such orders, matched position by
    position, map the input onto itself color by color: an automorphism.
    A walk of its own: discovery order is the labeling, and a start is
    dropped mid-walk.
    """
    order = len(matchings[0])
    first, rest = matchings[0], matchings[1:]
    for start in range(order):
        label = [-1] * order
        label[start] = 0
        discovery = [start]
        # below: the row-0 prefix is already smaller than the incumbent's
        below = best is None
        for i, u in enumerate(discovery):  # grows while iterating: BFS queue
            w = first[u]
            if label[w] < 0:
                label[w] = len(discovery)
                discovery.append(w)
            if not below:
                x = label[w]
                y = best[0][i]
                if x > y:
                    break
                below = x < y
            for row in rest:
                w = row[u]
                if label[w] < 0:
                    label[w] = len(discovery)
                    discovery.append(w)
        else:
            relabel = label.__getitem__
            table = [] if below else [best[0]]  # else row 0 ties the incumbent's
            for c in range(len(table), len(matchings)):
                row = tuple(map(relabel, map(matchings[c].__getitem__, discovery)))
                if not below and row != best[c]:
                    if row > best[c]:
                        break
                    below = True
                table.append(row)
            else:
                if below:
                    best = tuple(table)
                    if ties is not None:
                        ties[:] = [discovery]
                elif ties is not None:
                    ties.append(discovery)
    return best


def _component_table(matchings: Matchings, comp: Sequence[int]) -> Matchings:
    """The rows restricted to the component `comp`, its i-th vertex as i."""
    index = {v: i for i, v in enumerate(comp)}
    return tuple(tuple(index[row[v]] for v in comp) for row in matchings)


def _stack(tables: Sequence[Matchings]) -> Matchings:
    """The disjoint union of tables on one color set, each table's vertices
    numbered after those of the tables before it."""
    stacked = []
    for c in range(len(tables[0])):
        row: list = []
        for table in tables:
            offset = len(row)
            row.extend(x + offset for x in table[c])
        stacked.append(tuple(row))
    return tuple(stacked)


def _switch(rows: Sequence[list], v: int, w: int, colors: Iterable[int]) -> None:
    """Trade each given color's edges at v and w for v-w and the edge
    joining their old ends, in the mutable rows themselves; a color joining
    v and w stays as it is."""
    for c in colors:
        row = rows[c]
        a, b = row[v], row[w]
        row[v], row[w], row[a], row[b] = w, v, b, a


def _canon_split(matchings: Matchings, comps: list) -> Matchings:
    """Canonicalize each component on its own, sort by (size, table), and
    re-stack the parts block by block."""
    parts = [_min_rooted_table(_component_table(matchings, comp)) for comp in comps]
    parts.sort(key=lambda t: (len(t[0]), t))
    return _stack(parts)


def canonical_matchings(matchings: Matchings, color_permuting: bool = False) -> Matchings:
    """Canonical representative of a raw matching table.

    Works on possibly disconnected tables (used by the census while colors
    are still being assigned): components are canonicalized independently,
    sorted, and re-stacked block by block.
    """
    tables = _recolorings(matchings) if color_permuting else [matchings]
    comps = _components(matchings, len(matchings[0]))[1]  # the same under every color order
    if len(comps) > 1:
        return min(_canon_split(table, comps) for table in tables)
    best = None
    for table in tables:
        best = _min_rooted_table(table, best)
    return best


def _pair_components(matchings: Matchings, i: int, j: int) -> int:
    """Number of {i, j}-colored cycles, counted without listing them: a
    walk of its own, as every census candidate's color signature reads it."""
    order = len(matchings[0])
    mi, mj = matchings[i], matchings[j]
    seen = [False] * order
    count = 0
    for v in range(order):
        if seen[v]:
            continue
        count += 1
        u = v
        while not seen[u]:
            seen[u] = True
            step = mi[u]
            seen[step] = True
            u = mj[step]
    return count


def _pair_counts(matchings: Matchings) -> list:
    """Square table of {i, j}-colored cycle counts, zero on the diagonal."""
    k = len(matchings)
    counts = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            counts[i][j] = counts[j][i] = _pair_components(matchings, i, j)
    return counts


def _color_signatures(counts: list) -> list:
    """Each color's isomorphism-invariant signature, read off a table of
    pair counts: the sorted cycle counts it forms with every other color."""
    return [tuple(sorted(row[:c] + row[c + 1 :])) for c, row in enumerate(counts)]


def _admissible_color_orders(matchings: Matchings):
    """Color orders worth trying when minimizing over recolorings.

    Only orders listing the color signatures in their sorted sequence can
    attain the minimum, so the search shrinks from (n+1)! to the product of
    the signature multiplicities' factorials.
    """
    groups: dict = {}
    for c, signature in enumerate(_color_signatures(_pair_counts(matchings))):
        groups.setdefault(signature, []).append(c)
    ordered_groups = [groups[sig] for sig in sorted(groups)]
    for parts in itertools.product(
        *(itertools.permutations(group) for group in ordered_groups)
    ):
        yield tuple(c for part in parts for c in part)


def _recolorings(matchings: Matchings) -> list:
    """The table under each admissible color order, each distinct table
    once: colors with equal rows make many orders give one table."""
    return list(
        dict.fromkeys(
            tuple(matchings[c] for c in perm) for perm in _admissible_color_orders(matchings)
        )
    )


def _encode(matchings: Matchings) -> bytes:
    n = len(matchings) - 1
    order = len(matchings[0])
    head = f"{n}/{order}:".encode()
    body = b"".join(v.to_bytes(2, "big") for row in matchings for v in row)
    return head + body


def canonical_code(g: ColoredGraph, equivalence: Equivalence = Equivalence.COLOR_PRESERVING) -> CanonicalCode:
    """Deterministic code equal for two graphs iff they are isomorphic."""
    table = canonical_matchings(
        g.matchings, color_permuting=(equivalence is Equivalence.COLOR_PERMUTING)
    )
    return CanonicalCode(equivalence, _encode(table))


def isomorphic(a: ColoredGraph, b: ColoredGraph, equivalence: Equivalence = Equivalence.COLOR_PRESERVING) -> bool:
    if a.n != b.n or a.order != b.order:
        return False
    return canonical_code(a, equivalence) == canonical_code(b, equivalence)


# ============================================================
# GEM v1 text format
# ============================================================
#
# Line 1: ``gem <n> <order>``, then one line per color:
# ``<c>: <img_0> <img_1> ... <img_{order-1}>``.  ``#`` starts a comment,
# tokens are whitespace-separated, color lines may come in any order.


def parse_gem(text: str) -> ColoredGraph:
    """Parse GEM v1 text into a validated graph."""
    lines = text.splitlines()
    tokens: list[tuple[str, int, int]] = []
    for ln, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0]
        pos = 0
        for tok in body.split():
            pos = body.index(tok, pos)
            tokens.append((tok, ln, pos + 1))
            pos += len(tok)
    if not tokens:
        raise GemSyntaxError("empty input")
    if tokens[0][0] != "gem":
        raise GemSyntaxError(f"expected 'gem' header, got {tokens[0][0]!r}", tokens[0][1], tokens[0][2])
    if len(tokens) < 3:
        raise GemSyntaxError("header needs '<n> <order>'", tokens[0][1])
    n = _int_token(tokens[1], "dimension")
    order = _int_token(tokens[2], "order")
    if n < 1:
        raise GemSyntaxError(f"dimension must be >= 1, got {n}", tokens[1][1], tokens[1][2])
    if order < 2:
        raise GemSyntaxError(f"order must be >= 2, got {order}", tokens[2][1], tokens[2][2])

    expected = (n + 1) * (order + 1)
    rest = tokens[3:]
    if len(rest) != expected:
        raise GemSyntaxError(
            f"expected {n + 1} color rows of {order} images, found {len(rest)} tokens"
        )
    rows: dict[int, tuple] = {}
    for k in range(n + 1):
        chunk = rest[k * (order + 1) : (k + 1) * (order + 1)]
        head = chunk[0]
        if not head[0].endswith(":"):
            raise GemSyntaxError(f"expected '<color>:' tag, got {head[0]!r}", head[1], head[2])
        c = _int_token((head[0][:-1], head[1], head[2]), "color tag")
        if not (0 <= c <= n):
            raise GemSyntaxError(f"color {c} outside 0..{n}", head[1], head[2])
        if c in rows:
            raise GemSyntaxError(f"duplicate row for color {c}", head[1], head[2])
        rows[c] = tuple(_int_token(t, "image") for t in chunk[1:])
    return ColoredGraph(tuple(rows[c] for c in range(n + 1)))


def _int_token(token: tuple[str, int, int], what: str) -> int:
    text, ln, col = token
    try:
        return int(text)
    except ValueError:
        raise GemSyntaxError(f"bad {what} {text!r}", ln, col) from None


def format_gem(g: ColoredGraph) -> str:
    """Canonical GEM v1 text; ``parse_gem(format_gem(g)) == g``."""
    out = [f"gem {g.n} {g.order}"]
    for c, row in enumerate(g.matchings):
        out.append(f"{c}: " + " ".join(str(v) for v in row))
    return "\n".join(out) + "\n"


def parse_code_line(line: str) -> ColoredGraph:
    """Parse the single-line catalogue form ``n;order;imgs;imgs;...``."""
    parts = line.strip().split(";")
    if len(parts) < 3:
        raise GemSyntaxError("code line needs 'n;order;<rows>'")
    try:
        n = int(parts[0])
        order = int(parts[1])
    except ValueError as exc:
        raise GemSyntaxError(f"bad code header: {exc}") from None
    rows = parts[2:]
    if len(rows) != n + 1:
        raise GemSyntaxError(f"code line has {len(rows)} rows, expected {n + 1}")
    try:
        table = tuple(tuple(int(x) for x in row.split(",")) for row in rows)
    except ValueError as exc:
        raise GemSyntaxError(f"bad image list: {exc}") from None
    for row in table:
        if len(row) != order:
            raise GemSyntaxError(f"row length {len(row)} != order {order}")
    return ColoredGraph(table)


def format_code_line(g: ColoredGraph) -> str:
    return _code_line(g.matchings)


def _code_line(matchings: Matchings) -> str:
    rows = ";".join(",".join(map(str, row)) for row in matchings)
    return f"{len(matchings) - 1};{len(matchings[0])};{rows}"


# ============================================================
# DOT export
# ============================================================

_PALETTE = ("#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#a65628")


def export_dot(g: ColoredGraph) -> str:
    """Graphviz text with one styled parallel edge per (vertex pair, color)."""
    out = ["graph gem {"]
    out.append('  node [shape=circle, fontsize=10];')
    for v in g.vertices:
        out.append(f"  {v};")
    for v, w, c in g.edges():
        color = _PALETTE[c] if c < len(_PALETTE) else "#777777"
        out.append(f'  {v} -- {w} [color="{color}", label="{c}"];')
    out.append("}")
    return "\n".join(out) + "\n"
