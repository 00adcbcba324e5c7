"""Graph invariants: regular genus, G-degree report, fundamental-group
presentations under their hypotheses, fingerprints, and the small-order
classification table.

The genus of the surface a graph embeds into regularly, for a cyclic color
order eps, comes from the count identity
``2 - 2*rho = sum_j g(eps_j, eps_j+1) + (1-n)p``; summing rho over the n!/2
cyclic orders (up to inversion) gives the G-degree.  In dimension four the
report also carries the reduced degree, the subdegree, and the identities
tying them to bigon counts, every genus read off the graph's own bigons.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import cache
from typing import NamedTuple, Optional, Sequence

from .errors import ColorRangeError, HypothesisViolatedError, OutOfTableRangeError
from .graph import ColoredGraph
from .groups import (
    AbelianInvariants,
    GroupPresentation,
    c_group_presentation,
    quotient_presentation,
)
from .residues import ResidueLattice, ResidueView, colors_of, complement
from .singularity import (
    Classification,
    ResidueClass,
    euler_characteristics,
    h1_manifold,
    singular_summary,
)

# Fixed cyclic orders on the four colors left after dropping c, used by the
# per-color genus relation in dimension four.
PAIR_RELATION_ORDERS: dict[int, tuple[int, int, int, int]] = {
    0: (1, 3, 4, 2),
    1: (0, 3, 2, 4),
    2: (0, 3, 4, 1),
    3: (0, 2, 1, 4),
    4: (0, 2, 3, 1),
}


# ============================================================
# Fundamental group layer
# ============================================================


def pi1_presentation(g: ColoredGraph, c: int, target: str = "m") -> GroupPresentation:
    """Presentation of the fundamental group of the manifold ("m") or the
    cone space ("hatm"), checking the hypothesis that makes it valid.

    target "m" needs color c ordinary; target "hatm" needs every color other
    than c ordinary.  "cgroup" skips both the check and the connecting
    relators.
    """
    g.check_color(c)
    if target == "cgroup":
        return c_group_presentation(g, c)
    if target not in ("m", "hatm"):
        raise ValueError(f"target must be 'm', 'hatm' or 'cgroup', got {target!r}")
    if g.n < 2:
        # a bicolored cycle is a circle; its cycles are not relator disks
        raise ValueError("fundamental-group shortcuts need at least three colors")
    cls = g.classification
    if target == "m":
        _check_color_ordinary(cls, c)
    else:
        for d in g.colors:
            if d != c:
                _check_color_ordinary(cls, d)
    return quotient_presentation(g, c)


def _check_color_ordinary(cls: Classification, c: int) -> None:
    n = cls.lattice.n
    for rv in cls.lattice.residues(complement(1 << c, n)):
        state = cls.of(rv)
        if state is ResidueClass.SINGULAR:
            raise HypothesisViolatedError(
                f"color {c} is singular: residue on colors {rv.colors} "
                f"at vertex {rv.vertices[0]} is not a sphere",
                offending_residue=rv.key,
            )
        if state is ResidueClass.UNKNOWN:
            raise HypothesisViolatedError(
                f"color {c} cannot be certified ordinary: residue on colors "
                f"{rv.colors} at vertex {rv.vertices[0]} is unclassified",
                offending_residue=rv.key,
            )


# ============================================================
# Regular genus and G-degree
# ============================================================


def cyclic_orders(colors: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The cyclic permutations of a color set up to rotation and inversion:
    k!/2 of them for k+1 colors (k >= 2)."""
    colors = tuple(sorted(colors))
    if len(set(colors)) < max(len(colors), 3):
        raise ValueError(f"cyclic orders need at least three colors, none repeated, got {colors}")
    if colors[0] < 0:
        raise ColorRangeError(f"color {colors[0]} is negative")
    return _cyclic_orders(colors)


@cache
def _cyclic_orders(colors: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """`cyclic_orders` of a sorted color tuple, made once per tuple."""
    first, rest = colors[0], colors[1:]
    out = []
    for perm in itertools.permutations(rest):
        if perm[0] < perm[-1]:  # one representative per inversion pair
            out.append((first,) + perm)
    return tuple(out)


def regular_genus(g: ColoredGraph, eps: Sequence[int]) -> Fraction:
    """Genus (half the genus when non-orientable) of the regular embedding
    surface for the cyclic color order eps."""
    eps = tuple(eps)
    if sorted(eps) != list(g.colors):
        raise ColorRangeError(f"{eps} is not a cyclic order of colors 0..{g.n}")
    if g.n < 2:
        raise ValueError("the regular genus needs at least three colors")
    return Fraction(_doubled_genus(_bigons(g.lattice, g.colors), eps, g.order), 2)


def _bigons(lattice: ResidueLattice, colors: Sequence[int]) -> dict[int, int]:
    """The bigon table: pair mask -> number of bicolored cycles on that pair."""
    masks = [1 << a | 1 << b for a, b in itertools.combinations(colors, 2)]  # need no range check
    return {mask: len(lattice._read(mask)) for mask in masks}


def _doubled_genus(bigons: dict[int, int], eps: Sequence[int], order: int) -> int:
    """Twice the regular genus, 2*rho, for the cyclic order eps of a graph
    or residue on `order` vertices: an integer, where rho may be a half."""
    s = sum(bigons[1 << eps[j - 1] | 1 << eps[j]] for j in range(len(eps)))
    return 2 - s + (len(eps) - 2) * order // 2


def _residue_bigons(lattice: ResidueLattice, c: int) -> list[tuple[ResidueView, dict]]:
    """The residues missing color c, each with the bigons whose first vertex
    it holds; when that residue is the whole graph, the graph's own bigon
    table on the other colors."""
    mask = complement(1 << c, lattice.n)  # masks made here need no range check
    views = lattice._read(mask)
    if len(views) == 1:
        return [(views[0], _bigons(lattice, colors_of(mask)))]
    tables = [(rv, Counter()) for rv in views]
    at = lattice._at(mask)
    for a, b in itertools.combinations([d for d in range(lattice.n + 1) if d != c], 2):
        for rv in lattice._read(1 << a | 1 << b):
            tables[at[rv.vertices[0]]][1][rv.mask] += 1
    return tables


class GDegreeChecks(NamedTuple):
    """Identity checks evaluated for 5-colored graphs."""

    multiple_of_three: bool
    closed_form: bool  # omega_G == 3(4 + 6p - bigons)
    subdegree: bool  # sum_c omega_G(residues missing c) == 3 rho_G
    pair_relation: dict  # color -> bool, the per-color genus relation


class GDegreeReport(NamedTuple):
    n: int
    p: int
    genera: dict  # cyclic order -> Fraction
    omega: Fraction
    omega_reduced: Optional[int] = None  # n == 4 only
    rho: Optional[int] = None  # n == 4 only
    checks: Optional[GDegreeChecks] = None

    @property
    def omega_int(self) -> int:
        if self.omega.denominator != 1:
            raise ValueError(f"G-degree {self.omega} is not an integer")
        return int(self.omega)


def g_degree(g: ColoredGraph) -> GDegreeReport:
    """Regular genera over all cyclic color orders and their sum, plus the
    dimension-four identities when they apply.  The subdegree's genera come
    from the graph's own bigons grouped by residue (`_residue_bigons`).
    Genera are summed and checked doubled, as integers; only the reported
    genera and omega are fractions."""
    if g.n < 2:
        raise ValueError("the G-degree needs at least three colors")
    cycles = _bigons(g.lattice, g.colors)
    doubled = {eps: _doubled_genus(cycles, eps, g.order) for eps in cyclic_orders(g.colors)}
    genera = {eps: Fraction(rho2, 2) for eps, rho2 in doubled.items()}
    omega2 = sum(doubled.values())
    omega = Fraction(omega2, 2)
    if g.n != 4:
        return GDegreeReport(g.n, g.p, genera, omega)

    p = g.p
    lattice = g.lattice
    bigons = sum(cycles.values())
    top = sum(lattice.count(complement(1 << c, 4)) for c in range(5))
    rho = top + 5 * p - bigons
    omega_int = omega2 // 2 if omega2 % 2 == 0 else None
    multiple = omega_int is not None and omega_int % 3 == 0
    closed_form = omega_int == 3 * (4 + 6 * p - bigons)

    # subdegree: G-degrees of the residues missing one color, summed, doubled
    sub_total2 = 0
    pair_ok: dict[int, bool] = {}
    for c in range(5):
        parts = _residue_bigons(lattice, c)
        # per-color relation with the fixed cyclic order on the leftover colors
        order = PAIR_RELATION_ORDERS[c]
        orders = cyclic_orders(order)
        rho_c2 = 0
        for rv, table in parts:
            sub_total2 += sum(_doubled_genus(table, eps, rv.size) for eps in orders)
            rho_c2 += _doubled_genus(table, order, rv.size)
        lhs = 2 * len(parts) - rho_c2
        rhs = sum(cycles[1 << order[i - 1] | 1 << order[i]] for i in range(4)) - 2 * p
        pair_ok[c] = lhs == rhs
    subdegree_ok = sub_total2 == 6 * rho

    checks = GDegreeChecks(
        multiple_of_three=multiple,
        closed_form=closed_form,
        subdegree=subdegree_ok,
        pair_relation=pair_ok,
    )
    reduced = omega_int // 3 if multiple else None
    return GDegreeReport(4, p, genera, omega, reduced, rho, checks)


# ============================================================
# Fingerprints and the small-order table
# ============================================================


class ManifoldFingerprint(NamedTuple):
    """Census-grade invariant bundle of one graph."""

    n: int
    order: int
    bipartite: bool
    chi_m: int
    chi_hat_m: int
    h1: AbelianInvariants  # of the manifold
    boundary_components: int
    singular_shape: tuple  # sorted per-component (dimension, chi) pairs
    omega_reduced: Optional[int]  # n == 4 only

    def space_key(self) -> tuple:
        """The dipole-move invariant part (graph size and degree dropped)."""
        return (
            self.n,
            self.bipartite,
            self.chi_m,
            self.chi_hat_m,
            str(self.h1),
            self.boundary_components,
            self.singular_shape,
        )


def fingerprint(g: ColoredGraph) -> ManifoldFingerprint:
    g.classification.require_resolved("fingerprint")
    chis = euler_characteristics(g)
    summary = singular_summary(g)
    shape = tuple(sorted((comp.dimension, comp.chi) for comp in summary.components))
    omega_reduced = g_degree(g).omega_reduced if g.n == 4 else None
    return ManifoldFingerprint(
        n=g.n,
        order=g.order,
        bipartite=g.is_bipartite() is not None,
        chi_m=chis.chi_m,
        chi_hat_m=chis.chi_hat_m,
        h1=h1_manifold(g),
        boundary_components=len(summary.components),
        singular_shape=shape,
        omega_reduced=omega_reduced,
    )


_SURFACES = {
    (True, 2): "S2",
    (True, 0): "T2",
    (False, 1): "RP2",
    (False, 0): "KB",
}


def classify_small(g: ColoredGraph) -> Optional[str]:
    """Name the represented manifold for order <= 6 and dimension <= 4,
    or None when the table has no row for it.

    Backed by the small-order classification: order two and bipartite order
    four always give spheres, non-bipartite order four gives the twisted
    projective-plane bundle pieces, and the bipartite order-six graphs in
    dimensions three and four fall into the known short lists, separated
    here by Euler characteristic, boundary count and homology.
    """
    if g.order > 6 or g.n > 4:
        raise OutOfTableRangeError(f"table covers order <= 6, n <= 4; got order {g.order}, n {g.n}")
    n = g.n
    bip = g.is_bipartite() is not None

    if n == 1:
        return "S1"
    if g.order == 2:
        return f"S{n}"
    if g.order == 4:
        if bip:
            return f"S{n}"
        return "RP2" if n == 2 else f"RP2xB{n - 2}"

    # order six
    if n == 2:
        chi = euler_characteristics(g).chi_hat_m
        return _SURFACES.get((bip, chi))
    if not bip:
        return None

    fp = fingerprint(g)
    h1 = fp.h1
    if n == 3:
        if fp.boundary_components == 0 and h1.trivial:
            return "S3"
        if fp.boundary_components == 1 and h1 == AbelianInvariants(1, ()):
            return "S1xB2"
        if fp.boundary_components == 2 and h1 == AbelianInvariants(2, ()):
            return "S1xS1xI"
        return None
    # n == 4, bipartite, order 6
    if fp.boundary_components == 0 and fp.chi_m == 2:
        return "S4"
    if fp.boundary_components == 1 and fp.chi_m == 1:
        return "B4"
    if fp.boundary_components == 1 and fp.chi_m == 0:
        if h1 == AbelianInvariants(1, ()):
            return "S1xB3"
        if h1 == AbelianInvariants(2, ()):
            return "S1xS1xB2"
    return None
