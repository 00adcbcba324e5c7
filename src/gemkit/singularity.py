"""Sphere recognition, residue classification, singular sets, Euler
characteristics, and boundary structure.

Sphere recognition is exact through represented dimension 2 and three-valued
above it: necessary conditions (orientability, Euler count, residue
classification, first homology) certify NotSphere, a greedy proper-dipole
reduction to the order-two graph certifies Sphere, and everything else stays
Unknown rather than guessed.  Operations that need every residue classified
refuse with UnresolvedResidueError instead of reporting on partial data.
Residues are classified bottom-up on the graph's own lattice; only those
that pass every cheap test are rebuilt as graphs for a reduction and H1.
"""

from __future__ import annotations

from bisect import bisect, insort
from collections import Counter
from enum import Enum
from functools import cache, cached_property
from typing import NamedTuple, Optional

from .errors import UnresolvedResidueError
from .graph import ColoredGraph, _component_table, _cycle, _find, _two_color, _union
from .groups import AbelianInvariants, h1_from_rows
from .residues import (
    ResidueLattice,
    ResidueView,
    _cancel_in_place,
    _site_buckets,
    colors_of,
    complement,
    dipole_side,
    full_mask,
)


class Verdict(Enum):
    SPHERE = "sphere"
    NOT_SPHERE = "not-sphere"
    UNKNOWN = "unknown"


class SphereStatus(NamedTuple):
    verdict: Verdict
    certificate: str


class ResidueClass(Enum):
    ORDINARY = "ordinary"
    SINGULAR = "singular"
    UNKNOWN = "unknown"


# ============================================================
# Sphere recognition
# ============================================================


def quasi_manifold_euler(g: ColoredGraph) -> int:
    """Euler characteristic of the cone space, from residue counts alone:
    alternating sum of h-residue counts weighted by (-1)^(n-h)."""
    return sum((-1) ** (g.n - h) * k for h, k in g.lattice.rank_counts().items())


def sphere_status(g: ColoredGraph, step_limit: Optional[int] = None) -> SphereStatus:
    """Decide whether the cone space of g is a sphere of dimension n.

    Verdicts carry a checkable certificate about g itself.  The cheap tests
    of `_ladder` decide every graph through dimension two.  Above it,
    NotSphere rests on orientability, the Euler count, a singular residue
    of g or the cone space's H1, which every graph has; Sphere on a
    reduction to the order-2 graph; Unknown remains otherwise.  Residue
    classes come from `g.classification`, or from `classify_graph(g,
    step_limit)` under a budget.  `step_limit` caps the cancellations of
    this reduction and of every nested one.
    """
    status = _ladder(g.matchings, 0, g.order, lambda: quasi_manifold_euler(g))
    if status is not None:
        return status
    cls = g.classification if step_limit is None else classify_graph(g, step_limit)
    if cls.singular:
        rv = cls.singular[0]
        return SphereStatus(
            Verdict.NOT_SPHERE, f"singular {rv.colors} residue at vertex {rv.vertices[0]}"
        )
    status = _reduce(g, step_limit)
    if status.verdict is Verdict.UNKNOWN and cls.unresolved:
        return SphereStatus(Verdict.UNKNOWN, f"{status.certificate} with unclassified residues")
    return status


def _ladder(rows, root: int, order: int, euler, bipartite: bool = False) -> Optional[SphereStatus]:
    """The cheap sphere tests, in order, on the graph the matching `rows`
    span through `root`: order two, two colors, bipartite (taken as passed
    when `bipartite` says a graph holding this one is), Euler count, and on
    three colors the surface rule.  None when every test passes; the Euler
    count `euler()` is read only when the tests above it pass."""
    n = len(rows) - 1
    if order == 2:
        return SphereStatus(Verdict.SPHERE, "order-2 graph")
    if n == 1:
        return SphereStatus(Verdict.SPHERE, "bicolored cycle")
    if not bipartite and _two_color(rows, (root,)) is None:
        return SphereStatus(Verdict.NOT_SPHERE, "not bipartite, hence not orientable")
    chi = euler()
    target = 2 if n % 2 == 0 else 0
    if chi != target:
        return SphereStatus(Verdict.NOT_SPHERE, f"chi={chi}, a {n}-sphere needs {target}")
    if n == 2:  # the closed orientable surface of Euler characteristic 2
        return SphereStatus(Verdict.SPHERE, "closed orientable surface with chi=2")
    return None


def _reduce(g: ColoredGraph, step_limit: Optional[int]) -> SphereStatus:
    """Sphere if `cancel_certified` reaches the order-2 graph, else NotSphere
    if the cone space's H1 is nontrivial, else Unknown (the reduction
    stalled or overran `step_limit`)."""
    cur, sites = cancel_certified(g, step_limit)
    if cur.order == 2:
        return SphereStatus(Verdict.SPHERE, f"reduced to the order-2 graph in {len(sites)} moves")
    # H1 is read only when the reduction stalls: reaching order two proves it trivial
    h1 = h1_quasi_manifold(g)
    if not h1.trivial:
        return SphereStatus(Verdict.NOT_SPHERE, f"H1 = {h1} is nontrivial")
    return SphereStatus(Verdict.UNKNOWN, "reduction stalled")


def cancel_certified(g: ColoredGraph, step_limit: Optional[int] = None) -> tuple[ColoredGraph, list]:
    """Cancel the site `certified_site` picks until none is left or
    `step_limit` sites are cancelled; the last graph and the sites, in
    order, each numbered as in the graph it was cancelled from.

    The moves run on one mutable table in stable vertex ids, with the
    joined pairs kept in `_site_buckets` and patched around each cancelled
    pair; the certification scan is `certified_site`'s own.  A vertex's id
    in a step's graph is its stable id less the cancelled ids below it,
    which keeps the scan order.  One graph is built, from the final table;
    if nothing is cancelled it is g itself."""
    rows = [list(row) for row in g.matchings]
    buckets = _site_buckets(g)
    removed: list = []  # stable ids cancelled so far, sorted
    sites = []
    while step_limit is None or len(sites) < step_limit:
        site = _first_certified(rows, buckets, step_limit)
        if site is None:
            break
        v, w, cols = site
        _cancel_in_place(rows, buckets, v, w)
        sites.append((v - bisect(removed, v), w - bisect(removed, w), cols))
        insort(removed, v)
        insort(removed, w)
    if not sites:
        return g, sites
    dead = set(removed)
    return ColoredGraph(_component_table(rows, [u for u in g.vertices if u not in dead])), sites


def certified_site(g: ColoredGraph) -> Optional[tuple[int, int, tuple[int, ...]]]:
    """The first dipole site (v, w, colors) whose cancellation provably
    preserves the cone space, largest color count first, then smallest
    vertex pair; None if there is none.

    Certified means exactly what `find_dipoles` labels ordinary: the
    complement residue through v or w is a sphere (always so for n-1 or
    more colors, whose complement residues are edges or cycles).  Each
    joined pair is walked only when its turn comes, and the walk that puts
    w outside v's residue is the residue then recognized.
    """
    return _first_certified(g.matchings, _site_buckets(g), None)


def _first_certified(rows, buckets: list, step_limit: Optional[int]):
    """`certified_site`'s scan over `_site_buckets`-style buckets of the
    matching `rows`, a graph's or a reduction's mutable table."""
    n = len(rows) - 1
    for h in range(n, 0, -1):
        for v, w, cols in buckets[h]:
            side = dipole_side(rows, v, w, cols)
            if side is not None and (
                h >= n - 1
                or _is_sphere(rows, cols, side, step_limit)
                or _is_sphere(rows, cols, dipole_side(rows, w, v, cols), step_limit)
            ):
                return (v, w, cols)
    return None


def _is_sphere(rows, cols, side, step_limit: Optional[int]) -> bool:
    """Whether the residue on the colors outside `cols` spanning `side` is
    a sphere, built as a graph straight from the rows, so that nothing
    keeps a reduction's mutable table."""
    rest = [row for c, row in enumerate(rows) if c not in cols]
    residue = ColoredGraph(_component_table(rest, sorted(side)))
    return sphere_status(residue, step_limit).verdict is Verdict.SPHERE


# ============================================================
# Classification of a graph's residues
# ============================================================


_CLASS_OF = {
    Verdict.SPHERE: ResidueClass.ORDINARY,
    Verdict.NOT_SPHERE: ResidueClass.SINGULAR,
    Verdict.UNKNOWN: ResidueClass.UNKNOWN,
}


class Classification:
    """Residue classes for one graph, backed by its full lattice."""

    def __init__(self, lattice: ResidueLattice, classes: dict):
        self.lattice = lattice
        self.classes = classes

    def of(self, rv: ResidueView) -> ResidueClass:
        if rv.h <= 2:
            return ResidueClass.ORDINARY
        return self.classes[rv.key]

    def of_containing(self, colors, v: int) -> ResidueClass:
        return self.of(self.lattice.residue_containing(colors, v))

    @cached_property
    def singular(self) -> tuple[ResidueView, ...]:
        """The singular residues, in key order."""
        return self._of_class(ResidueClass.SINGULAR)

    @cached_property
    def unresolved(self) -> tuple[ResidueView, ...]:
        """The unknown residues, in key order."""
        return self._of_class(ResidueClass.UNKNOWN)

    def _of_class(self, state: ResidueClass) -> tuple[ResidueView, ...]:
        keys = sorted(key for key, c in self.classes.items() if c is state)
        return tuple(self.lattice._read(m)[self.lattice._at(m)[v]] for m, v in keys)

    def require_resolved(self, what: str) -> None:
        bad = self.unresolved
        if bad:
            raise UnresolvedResidueError(
                f"{what} needs every residue classified; "
                f"{len(bad)} unknown (first: colors {bad[0].colors})",
                residues=tuple(rv.key for rv in bad),
            )


def classify_graph(g: ColoredGraph, step_limit: Optional[int] = None) -> Classification:
    """Classify every residue of g on at least three colors, rank by rank,
    from g's own lattice; `g.classification` keeps the result without a
    `step_limit`.

    An h-residue is singular if a residue inside it is singular.  Otherwise
    the tests of `_ladder` decide it, with the Euler count (the alternating
    count of the residues inside it) this pass accumulates, so a 3-residue
    is never rebuilt.  Only a larger one that passes them all is rebuilt as
    a graph and reduced, under `step_limit`; the rebuilt residue is never
    classified again, as every residue inside it is classified already.

    The color sets come from `_plan`, made once per n: rank by rank, each
    set's subsets read before the set, so that the lattice joins it from
    the first of them.  Only sets this pass classified, of three or more
    colors, are ever marked singular, so a subset's flag needs no rank
    test.  A color set that is one residue, the whole graph, takes its
    Euler count from the subsets' residue counts and its singular flag
    from theirs, without visiting a residue inside it.  One 2-coloring of
    the whole graph answers every residue's bipartite test when it
    succeeds.
    """
    lattice = g.lattice
    order = g.order
    bipartite = _two_color(g.matchings) is not None
    classes: dict = {}
    singular: set = set()  # the color sets holding a singular residue
    for mask, h, colors, subs in _plan(g.n):
        inside = [lattice._read(sub) for sub, _ in subs]  # masks made here need no range check
        views = lattice._read(mask)
        at = lattice._at(mask)
        # ranks 0 and 1 in closed form: size vertices, h*size/2 edges
        if len(views) == 1:
            chi = [(-1) ** (h - 1) * (order - h * order // 2)
                   + sum(sign * len(rvs) for (_, sign), rvs in zip(subs, inside))]
            bad = [any(sub in singular for sub, _ in subs)]
        else:  # by position in views
            chi = [(-1) ** (h - 1) * (rv.size - h * rv.size // 2) for rv in views]
            bad = [False] * len(views)
            for (sub, sign), rvs in zip(subs, inside):
                for rv in rvs:
                    i = at[rv.vertices[0]]
                    chi[i] += sign
                    if sub in singular and classes[rv.key] is ResidueClass.SINGULAR:
                        bad[i] = True
        rows = [g.matchings[c] for c in colors]
        for i, rv in enumerate(views):
            if bad[i]:
                classes[rv.key] = ResidueClass.SINGULAR
            else:
                status = _ladder(rows, rv.vertices[0], rv.size, lambda: chi[i], bipartite)
                status = status or _reduce(rv.as_graph(), step_limit)
                classes[rv.key] = _CLASS_OF[status.verdict]
            if classes[rv.key] is ResidueClass.SINGULAR:
                singular.add(mask)
    return Classification(lattice, classes)


@cache
def _plan(n: int) -> tuple:
    """`classify_graph`'s color sets on n+1 colors: each proper set of three
    or more colors, by rank, as (mask, rank, colors, subsets), where the
    subsets are its proper ones of two or more colors, each as (mask, sign
    of its residues in the set's Euler count).  Keyed by n alone."""
    plan = []
    for mask in sorted(range(full_mask(n)), key=lambda m: bin(m).count("1")):
        h = bin(mask).count("1")
        if h < 3:
            continue
        subs = []
        sub = mask
        while sub := (sub - 1) & mask:  # every proper nonempty color subset
            k = bin(sub).count("1")
            if k >= 2:
                subs.append((sub, (-1) ** (h - 1 - k)))
        plan.append((mask, h, colors_of(mask), tuple(subs)))
    return tuple(plan)


# ============================================================
# Singular set and manifold tests
# ============================================================


class SingularComponent(NamedTuple):
    """One connected piece of the singular set: the chain-connected singular
    residues spanning it, its top residues, dimension, and Euler number."""

    residues: tuple[ResidueView, ...]
    top_residues: tuple[ResidueView, ...]  # the singular n-residues (R_S)
    dimension: int
    chi: int


class SingularSetSummary(NamedTuple):
    components: tuple[SingularComponent, ...]
    dimension: Optional[int]  # None when the singular set is empty
    chi: int

    @property
    def is_empty(self) -> bool:
        return not self.components


def singular_summary(g: ColoredGraph) -> SingularSetSummary:
    """Connected components of the singular set with dimensions and Euler
    characteristics; refuses on unresolved residues."""
    cls = g.classification
    cls.require_resolved("singular summary")
    n = g.n
    sing = cls.singular
    if not sing:
        return SingularSetSummary((), None, 0)

    # chains of singular residues span the set.  Every residue between two
    # singular ones contains the lower one, so is singular too: joining each
    # singular residue to its singular covers joins every comparable pair.
    at = {rv.key: i for i, rv in enumerate(sing)}
    parent = list(range(len(sing)))
    for i, rv in enumerate(sing):
        for up in cls.lattice.parents(rv):
            if up.key in at:
                _union(parent, i, at[up.key])

    groups: dict[int, list[ResidueView]] = {}
    for i, rv in enumerate(sing):
        groups.setdefault(_find(parent, i), []).append(rv)

    comps = []
    for members in groups.values():  # in key order, as `sing` is
        top = tuple(rv for rv in members if rv.h == n)
        dim = n - min(rv.h for rv in members)
        chi = sum((-1) ** (n - rv.h) for rv in members)
        comps.append(SingularComponent(tuple(members), top, dim, chi))
    comps.sort(key=lambda comp: comp.residues[0].key)
    return SingularSetSummary(
        components=tuple(comps),
        dimension=max(comp.dimension for comp in comps),
        chi=sum(comp.chi for comp in comps),
    )


def is_closed_manifold(g: ColoredGraph) -> Optional[bool]:
    """True/False when every top residue is classified, else None."""
    cls = g.classification
    if any(rv.h == g.n for rv in cls.singular):
        return False
    return None if any(rv.h == g.n for rv in cls.unresolved) else True


def is_singular_manifold(g: ColoredGraph) -> Optional[bool]:
    """Whether every singular residue (if any) uses all but one color."""
    cls = g.classification
    if any(rv.h < g.n for rv in cls.singular):
        return False
    return None if any(rv.h < g.n for rv in cls.unresolved) else True


class EulerCharacteristics(NamedTuple):
    chi_m: int  # compact manifold (singular neighborhoods removed)
    chi_hat_m: int  # cone space
    chi_singular_set: int


def euler_characteristics(g: ColoredGraph) -> EulerCharacteristics:
    """The three alternating residue-count sums: ordinary residues weighted
    by (-1)^h, all residues and singular residues by (-1)^(n-h)."""
    cls = g.classification
    cls.require_resolved("Euler characteristics")
    n = g.n
    singular = Counter(rv.h for rv in cls.singular)
    return EulerCharacteristics(
        chi_m=sum((-1) ** h * (k - singular[h]) for h, k in cls.lattice.rank_counts().items()),
        chi_hat_m=quasi_manifold_euler(g),
        chi_singular_set=sum((-1) ** (n - h) * k for h, k in singular.items()),
    )


# ============================================================
# Boundary structure
# ============================================================


class BoundaryPiece(NamedTuple):
    """Invariant bundle of one singular top residue's space."""

    residue: ResidueView
    order: int
    chi: int
    bipartite: bool
    h1: AbelianInvariants


class SharedWall(NamedTuple):
    """A singular residue one color short of the top, glued between the two
    top residues that contain it."""

    residue: ResidueView
    between: tuple[tuple, tuple]  # the two top residues' keys


class BoundaryComponent(NamedTuple):
    kind: str  # "single" | "glued" | "unsupported"
    pieces: tuple[BoundaryPiece, ...]
    walls: tuple[SharedWall, ...] = ()


def boundary_structure(g: ColoredGraph) -> tuple[BoundaryComponent, ...]:
    """One entry per singular-set component.

    Components that are points report the single bounding space; dimension-1
    components report the glued pieces and their shared walls.  Higher
    dimensional components are counted but their structure is omitted.
    """
    cls = g.classification
    summary = singular_summary(g)
    n = g.n
    out = []
    for comp in summary.components:
        if comp.dimension == 0:
            out.append(
                BoundaryComponent("single", (_piece(comp.top_residues[0]),))
            )
        elif comp.dimension == 1:
            pieces = tuple(_piece(rv) for rv in comp.top_residues)
            walls = []
            for rv in comp.residues:
                if rv.h != n - 1:
                    continue
                tops = [
                    parent.key
                    for parent in cls.lattice.parents(rv)
                    if cls.of(parent) is ResidueClass.SINGULAR
                ]
                walls.append(SharedWall(rv, (tops[0], tops[1])))
            out.append(BoundaryComponent("glued", pieces, tuple(walls)))
        else:
            out.append(BoundaryComponent("unsupported", ()))
    return tuple(out)


def _piece(rv: ResidueView) -> BoundaryPiece:
    sub = rv.as_graph()
    return BoundaryPiece(
        residue=rv,
        order=sub.order,
        chi=quasi_manifold_euler(sub),
        bipartite=sub.is_bipartite() is not None,
        h1=h1_manifold(sub),
    )


# ============================================================
# First homology of the represented spaces
# ============================================================


def h1_manifold(g: ColoredGraph) -> AbelianInvariants:
    """H1 of the compact manifold M_Gamma, for every graph.

    Block-complex argument: an h-residue is the link of an (n-h)-simplex
    of K(g), whose dual block is the cone on it, an h-cell exactly when the
    residue is ordinary.  Residues containing a singular one are singular,
    so the singular set is a subcomplex, and M_Gamma, the complement of its
    open neighborhood, retracts onto one h-cell per ordinary h-residue.  No
    residue on at most two colors is singular, so the 2-skeleton, which
    carries H1, is g plus one disk per bicolored cycle.  As g is connected,
    its cycles have rank E - (V - 1); the disks' boundary rows cut them down.
    """
    edges = {(c, v): k for k, (v, _, c) in enumerate(g.edges())}
    rows = []
    for rv in g.lattice.all_residues(2, 2):
        row = [0] * len(edges)
        for c, v, w in _cycle(g.matchings, *rv.colors, rv.vertices[0]):
            row[edges[c, min(v, w)]] += 1 if v < w else -1
        rows.append(row)
    return h1_from_rows(rows, len(edges), len(edges) - g.order + 1)


def h1_quasi_manifold(g: ColoredGraph) -> AbelianInvariants:
    """H1 of the cone space |K(Gamma)|, for every graph, from K's chain
    complex: vertices, edges and triangles are the n-, (n-1)- and
    (n-2)-residues, and a triangle's i-th cover in the lattice (in added
    color order) is the face entering its boundary with sign (-1)^i."""
    n = g.n
    lattice = g.lattice
    edges = tuple(lattice.all_residues(n - 1, n - 1))
    edge_of = {rv.key: k for k, rv in enumerate(edges)}
    rows = []
    for rv in lattice.all_residues(n - 2, n - 2):
        row = [0] * len(edges)
        for i, face in enumerate(lattice.parents(rv)):
            row[edge_of[face.key]] += (-1) ** i
        rows.append(row)
    vertices = sum(lattice.count(complement(1 << c, n)) for c in g.colors)
    return h1_from_rows(rows, len(edges), len(edges) - vertices + 1)
