"""The records: what code and output read of them stays fixed.

Every record is a NamedTuple, so the package imports no `dataclasses`.
Field access, equality with an equal copy, hash values (the hash of the
tuple of fields), the `Name(field=value, ...)` repr and the refusal of
assignment are pinned here for each, and for `ColoredGraph`, a plain class
that keeps its own repr.  `CanonicalCode` orders by its bytes alone.
"""

from fractions import Fraction

import pytest

from gemkit import (
    AbelianInvariants,
    Bipartition,
    BoundaryComponent,
    CanonicalCode,
    Catalogue,
    CensusParams,
    ColoredGraph,
    Dipole,
    DipoleKind,
    EulerCharacteristics,
    Equivalence,
    GDegreeReport,
    GroupPresentation,
    ManifoldFingerprint,
    Properness,
    ResidueView,
    SimplifyResult,
    SingularSetSummary,
    SphereStatus,
    Verdict,
    VertexIndex,
)
from gemkit.census import CensusReport, CensusRow
from gemkit.invariants import GDegreeChecks
from gemkit.library import k2
from gemkit.singularity import BoundaryPiece, SharedWall, SingularComponent

_ROWS = k2(2).matchings
_VIEW = ResidueView(_ROWS, 0b011, (0, 1))
_PARAMS = CensusParams(n=2, order=4)
_H1 = AbelianInvariants(1, (2,))
_PIECE = BoundaryPiece(_VIEW, 2, 2, True, _H1)
_CHECKS = GDegreeChecks(True, True, False, {0: True})
_CATALOGUE = Catalogue(_PARAMS, ("a", "b"), 1, 1)
_ROW = CensusRow("a", True, None, False, 3, None)
_COMPONENT = SingularComponent((_VIEW,), (_VIEW,), 1, 0)

# (class, field values in field order); the repr of each record shows them
_RECORDS = [
    (CensusParams, dict(n=3, order=6, equivalence=Equivalence.COLOR_PRESERVING,
                        bipartite=False, supercontracted=True, no_ordinary_dipoles=False)),
    (Catalogue, dict(params=_PARAMS, entries=("a", "b"), bipartite_count=1,
                     nonbipartite_count=1)),
    (CensusRow, dict(code="a", bipartite=True, closed=None, singular_manifold=False,
                     omega_reduced=3, name=None)),
    (CensusReport, dict(catalogue=_CATALOGUE, rows=(_ROW,), omega_histogram={3: 1},
                        closed_count=0, singular_manifold_count=0, identity_failures=())),
    (Bipartition, dict(classes=(frozenset({0}), frozenset({1})))),
    (CanonicalCode, dict(equivalence=Equivalence.COLOR_PERMUTING, code=b"\x01\x00")),
    (GroupPresentation, dict(generators=("x", "y"), relators=(((0, 1), (1, -1)),))),
    (AbelianInvariants, dict(free_rank=1, torsion=(2, 4))),
    (GDegreeChecks, dict(multiple_of_three=True, closed_form=True, subdegree=False,
                         pair_relation={0: True})),
    (GDegreeReport, dict(n=4, p=1, genera={(0, 1, 2, 3, 4): Fraction(1, 2)},
                         omega=Fraction(3), omega_reduced=0, rho=0, checks=_CHECKS)),
    (ManifoldFingerprint, dict(n=3, order=2, bipartite=True, chi_m=0, chi_hat_m=0, h1=_H1,
                               boundary_components=0, singular_shape=(), omega_reduced=None)),
    (Dipole, dict(vertices=(0, 1), colors=(0, 2), kind=DipoleKind.ORDINARY,
                  properness=Properness.PROPER)),
    (VertexIndex, dict(vertex=3, index=0)),
    (SimplifyResult, dict(graph=k2(2), complete=True, cancelled=())),
    (ResidueView, dict(matchings=_ROWS, mask=0b011, vertices=(0, 1))),
    (SphereStatus, dict(verdict=Verdict.SPHERE, certificate="k2")),
    (SingularComponent, dict(residues=(_VIEW,), top_residues=(_VIEW,), dimension=1, chi=0)),
    (SingularSetSummary, dict(components=(_COMPONENT,), dimension=1, chi=0)),
    (EulerCharacteristics, dict(chi_m=0, chi_hat_m=1, chi_singular_set=1)),
    (BoundaryPiece, dict(residue=_VIEW, order=2, chi=2, bipartite=True, h1=_H1)),
    (SharedWall, dict(residue=_VIEW, between=((3, 0), (5, 0)))),
    (BoundaryComponent, dict(kind="glued", pieces=(_PIECE, _PIECE), walls=())),
    (ColoredGraph, dict(matchings=_ROWS)),
]
# classes whose repr is their own, not Name(field=value, ...)
_OWN_REPR = {
    ColoredGraph: "ColoredGraph(n=2, order=2)",
    ResidueView: "ResidueView(colors=(0, 1), vertices=(0, 1))",
}


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, fields", _RECORDS, ids=[cls.__name__ for cls, _ in _RECORDS])
def test_record_contract(cls, fields):
    record, copy = cls(**fields), cls(**fields)
    for name, value in fields.items():
        assert getattr(record, name) == value
    assert record == copy and not record != copy
    values = tuple(fields.values())
    if _hashable(values):
        assert hash(record) == hash(copy) == hash(values)
    args = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == _OWN_REPR.get(cls, f"{cls.__name__}({args})")
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)


def test_defaults_and_derived_fields():
    assert CensusParams(3, 6) == CensusParams(3, 6, Equivalence.COLOR_PERMUTING, None,
                                              False, False)
    assert Dipole((0, 1), (0,)).kind is None
    assert Dipole((0, 1), (0,)).properness is Properness.UNKNOWN
    assert BoundaryComponent("single", (_PIECE,)).walls == ()
    assert GDegreeReport(3, 1, {}, Fraction(0)).checks is None
    assert _CATALOGUE.count == 2  # a property, in place of tuple.count
    assert VertexIndex(3, 0).index == 0 and VertexIndex(3, 0).internal
    assert _VIEW.colors == (0, 1) and _VIEW.key == (0b011, 0) and _VIEW.size == 2


@pytest.mark.parametrize("n, order, message", [
    (0, 4, "dimension must be >= 1"),
    (2, 5, "order must be even and >= 2"),
    (2, 0, "order must be even and >= 2"),
])
def test_census_params_refused_when_made(n, order, message):
    with pytest.raises(ValueError, match=message):
        CensusParams(n, order)
    with pytest.raises(ValueError, match=message):
        CensusParams(n=n, order=order, supercontracted=True)


def test_canonical_codes_order_by_bytes():
    preserving = Equivalence.COLOR_PRESERVING
    permuting = Equivalence.COLOR_PERMUTING
    codes = [CanonicalCode(preserving, b"\x02"), CanonicalCode(permuting, b"\x01\x05"),
             CanonicalCode(permuting, b"\x01"), CanonicalCode(preserving, b"\x00\x09")]
    assert [c.code for c in sorted(codes)] == [b"\x00\x09", b"\x01", b"\x01\x05", b"\x02"]
    low, high = CanonicalCode(permuting, b"\x01"), CanonicalCode(preserving, b"\x02")
    assert low < high and high > low
    assert not high < low and not low > high
    assert CanonicalCode(permuting, b"\x01") != CanonicalCode(preserving, b"\x01")
