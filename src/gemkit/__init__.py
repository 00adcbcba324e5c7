"""gemkit: compact manifolds as edge-colored graphs.

A graph on 2p vertices with n+1 perfect matchings encodes a compact
n-manifold with (possibly empty) boundary; this package parses, validates,
and transforms such graphs, computes their combinatorial and topological
invariants, and enumerates small censuses.
"""

from .census import (
    Catalogue,
    CensusParams,
    census_report,
    enumerate_census,
    format_catalogue,
    parse_catalogue,
    random_graph,
)
from .errors import (
    BudgetExceededError,
    ColorRangeError,
    DimensionMismatchError,
    DisconnectedError,
    FixedPointError,
    GemError,
    GemSyntaxError,
    HypothesisViolatedError,
    InvalidVertexError,
    InvolutionError,
    NotADipoleError,
    OddOrderError,
    OutOfTableRangeError,
    UnresolvedResidueError,
    WouldAnnihilateError,
)
from .graph import (
    Bipartition,
    CanonicalCode,
    ColoredGraph,
    Equivalence,
    canonical_code,
    export_dot,
    format_code_line,
    format_gem,
    isomorphic,
    parse_code_line,
    parse_gem,
)
from .groups import (
    AbelianInvariants,
    GroupPresentation,
    c_group_presentation,
    homology_h1,
    quotient_presentation,
    smith_invariant_factors,
)
from .invariants import (
    GDegreeReport,
    ManifoldFingerprint,
    classify_small,
    cyclic_orders,
    fingerprint,
    g_degree,
    pi1_presentation,
    regular_genus,
)
from .moves import (
    Dipole,
    DipoleKind,
    Properness,
    SimplifyResult,
    VertexIndex,
    add_dipole,
    cancel_dipole,
    connected_sum,
    find_dipoles,
    inflate,
    internalize,
    simplify,
    suspend,
    vertex_index,
)
from .residues import (
    ResidueLattice,
    ResidueView,
    is_supercontracted,
    residue_count,
    residue_lattice,
    residues,
)
from .singularity import (
    BoundaryComponent,
    Classification,
    EulerCharacteristics,
    ResidueClass,
    SingularSetSummary,
    SphereStatus,
    Verdict,
    boundary_structure,
    classify_graph,
    euler_characteristics,
    h1_manifold,
    h1_quasi_manifold,
    is_closed_manifold,
    is_singular_manifold,
    quasi_manifold_euler,
    singular_summary,
    sphere_status,
)

__version__ = "0.1.0"
